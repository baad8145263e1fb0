"""Output checks computed apart from asyntrace.

Every check here works on plain data (lists, dicts and the JSON documents the
CLI prints) with its own algorithms: trace equivalence by the projection
lemma, lexicographic normal forms by the Anisimov-Knuth factor test, product
sizes by closed forms over the factors' relations, coequalizer classes by
graph search, reachability by breadth-first search.  Only EXACT colimits are
compared with a reference from the repository, ``tests/oracles.py``'s naive
congruence closure ``pointed_quotient``.

A check raises :class:`CheckFailed` with a reason.  ``python3
perfbench/checks.py`` runs the self-test, which feeds each checker a right
answer and a hand-made wrong one.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque

STAR = "*"


class CheckFailed(Exception):
    pass


def fail_if(cond, msg):
    if cond:
        raise CheckFailed(msg)


class Rel:
    """Alphabet order plus a symmetric independence relation."""

    def __init__(self, events, pairs):
        self.events = list(events)
        self.pos = {e: i for i, e in enumerate(self.events)}
        self.ind = set()
        for a, b in pairs:
            self.ind.add((a, b))
            self.ind.add((b, a))

    @classmethod
    def of(cls, doc):
        return cls(doc["events"], doc.get("independence", []))

    def indep(self, a, b):
        return (a, b) in self.ind

    def commute(self, a, b):
        return a is None or b is None or a == b or (a, b) in self.ind

    def pair_count(self):
        return len(self.ind) // 2


# ---------------------------------------------------------------------------
# Words


def projection_key(word, rel):
    """Projections onto every letter and every dependent pair of letters.

    Two words are trace-equivalent iff their keys are equal (projection
    lemma, Diekert & Rozenberg, The Book of Traces, 1995)."""
    key = []
    for a in rel.events:
        key.append(tuple(x for x in word if x == a))
    for a, b in itertools.combinations(rel.events, 2):
        if not rel.indep(a, b):
            key.append(tuple(x for x in word if x == a or x == b))
    return tuple(key)


def ak_violation(word, rel):
    """A factor b.u.a with a < b, a independent of b and of every letter of
    u, or None: a word has no such factor iff it is the lexicographically
    least word of its trace (Anisimov & Knuth, 1979)."""
    pos = rel.pos
    for j, a in enumerate(word):
        i = j - 1
        while i >= 0 and rel.indep(word[i], a):
            if pos[word[i]] > pos[a]:
                return (i, j)
            i -= 1
    return None


def check_normal_form(inp, out, rel):
    inp, out = list(inp), list(out)
    fail_if(Counter(inp) != Counter(out), "output is not a permutation of the input")
    fail_if(projection_key(inp, rel) != projection_key(out, rel), "projections differ from the input's")
    bad = ak_violation(out, rel)
    fail_if(bad is not None, f"not lexicographically least: factor at {bad}")


def check_equivalent(w1, w2, answer, rel):
    expected = projection_key(w1, rel) == projection_key(w2, rel)
    fail_if(answer is not expected, f"equivalent said {answer}, projections say {expected}")


def check_apply_word(word, image, out, tgt_rel):
    """The image of a word is the normal form of its letter-wise image."""
    check_normal_form([image[x] for x in word if image[x] is not None], out, tgt_rel)


# ---------------------------------------------------------------------------
# Monoids and homomorphisms


def hom_problems(src, tgt, image):
    """An image map is a basic hom iff every independent source pair lands
    on a commuting pair."""
    if set(image) != set(src.events):
        return ["image not defined on exactly the source events"]
    out = [f"image of {e!r} outside the target" for e, v in image.items() if v is not None and v not in tgt.pos]
    if out:
        return out
    return [
        f"independent pair ({a!r}, {b!r}) maps to a non-commuting pair"
        for a, b in itertools.combinations(src.events, 2)
        if src.indep(a, b) and not tgt.commute(image[a], image[b])
    ]


def is_ip(src, image):
    return all(
        not (src.indep(a, b) and image[a] is not None and image[a] == image[b])
        for a, b in itertools.combinations(src.events, 2)
    )


def product_counts(factors, par):
    """Generators and independent pairs of a product of trace monoids.

    Each factor is (n events, k independent pairs).  Over the pointed event
    set (n + 1 elements) the commutativity relation T has 3n + 1 + 2k ordered
    pairs and the partial independence relation R has 2n + 1 + 2k.  With
    P = prod(n + 1), a product generator is one of the P - 1 tuples other than
    all-star; a pair of generators is independent when related in every
    component.  Ordered related pairs avoiding the all-star tuple number
    prod|rel| - 2P + 1; under T the P - 1 diagonal pairs are among them,
    under R none are."""
    p = 1
    rel = 1
    for n, k in factors:
        p *= n + 1
        rel *= (2 * n + 1 + 2 * k) if par else (3 * n + 1 + 2 * k)
    ordered = rel - 2 * p + 1
    if not par:
        ordered -= p - 1
    return p - 1, ordered // 2


def coequalizer_classes(f_img, g_img, tgt, par):
    """Classes of target events modulo f(e) ~ g(e), by graph search.

    The empty trace is a node of its own; a class joined to it is killed
    (None).  Under FPCM_PAR a class holding two independent events is
    killed too, until nothing changes.  A surviving class is named by its
    least event in target order."""
    one = object()
    adj = {e: set() for e in tgt.events}
    adj[one] = set()
    for e in f_img:
        a = one if f_img[e] is None else f_img[e]
        b = one if g_img[e] is None else g_img[e]
        adj[a].add(b)
        adj[b].add(a)
    while True:
        comp = {}
        for start in [one] + tgt.events:
            if start in comp:
                continue
            comp[start] = start
            todo = deque([start])
            while todo:
                x = todo.popleft()
                for y in adj[x]:
                    if y not in comp:
                        comp[y] = start
                        todo.append(y)
        if not par:
            break
        killed = [
            a for a, b in itertools.combinations(tgt.events, 2)
            if tgt.indep(a, b) and comp[a] == comp[b] and comp[a] is not one
        ]
        if not killed:
            break
        for a in killed:
            adj[a].add(one)
            adj[one].add(a)
    members = {}
    for e in tgt.events:
        members.setdefault(comp[e], []).append(e)
    out = {}
    for root, es in members.items():
        for e in es:
            out[e] = None if root is one else min(es, key=tgt.pos.__getitem__)
    return out


def check_product_doc(out, factor_docs, par):
    docs = out["documents"]
    res = Rel.of(docs["result"])
    gens, pairs = product_counts([(len(d["events"]), len(d.get("independence", []))) for d in factor_docs], par)
    fail_if(len(res.events) != gens, f"product has {len(res.events)} generators, closed form says {gens}")
    fail_if(res.pair_count() != pairs, f"product has {res.pair_count()} pairs, closed form says {pairs}")
    for i, f in enumerate(factor_docs):
        check_hom_doc(docs, f"proj_{i}", par)


def check_hom_doc(docs, name, par):
    h = docs[name]
    src, tgt = Rel.of(docs[h["source"]]), Rel.of(docs[h["target"]])
    problems = hom_problems(src, tgt, h["image"])
    if par and not problems and not is_ip(src, h["image"]):
        problems.append("not independence-preserving")
    fail_if(problems, f"{name}: " + "; ".join(problems))


def compose_images(first, then):
    return {e: (None if v is None else then[v]) for e, v in first.items()}


def check_monoid_cone(out, arrows, objects, par, co):
    """Legs are valid homs and the (co)cone commutes along every arrow.

    ``arrows`` is [(name, src, dst, image)]; ``objects`` maps diagram
    objects to their input monoid docs."""
    docs = out["documents"]
    legs = {o: docs[f"leg_{o}"]["image"] for o in objects}
    for o in objects:
        check_hom_doc(docs, f"leg_{o}", par)
    for name, src, dst, image in arrows:
        if co:
            fail_if(compose_images(image, legs[dst]) != legs[src], f"cocone does not commute on {name!r}")
        else:
            fail_if(compose_images(legs[src], image) != legs[dst], f"cone does not commute on {name!r}")


# ---------------------------------------------------------------------------
# State spaces and systems


def space_step(action, x, e):
    if x is None or x == STAR:
        return STAR
    return action.get(x, {}).get(e, STAR)


def space_diamond(doc, rel):
    """Star-extended diamond: x.a.b == x.b.a for every independent pair."""
    act = doc["action"]
    for a, b in itertools.combinations(rel.events, 2):
        if rel.indep(a, b):
            for x in doc["states"]:
                left = space_step(act, space_step(act, x, a), b)
                right = space_step(act, space_step(act, x, b), a)
                fail_if(left != right, f"diamond fails at {x!r} on ({a!r}, {b!r})")


def system_table(doc):
    return {(s, e): t for s, e, t in doc["transitions"]}


def system_step(table, x, e):
    if x is None or x == STAR:
        return STAR
    return table.get((x, e), STAR)


def system_diamond(doc):
    """Weak-system diamond: if s -p-> . -q-> t then s -q-> . -p-> t."""
    rel = Rel.of(doc)
    table = system_table(doc)
    for p, q in itertools.permutations(rel.events, 2):
        if rel.indep(p, q):
            for s in doc["states"]:
                t = system_step(table, system_step(table, s, p), q)
                if t != STAR:
                    other = system_step(table, system_step(table, s, q), p)
                    fail_if(other != t, f"diamond fails at {s!r} on ({p!r}, {q!r})")


def space_leg(docs, name):
    """A space morphism document is equivariant on generators, star included."""
    m = docs[name]
    src, tgt = docs[m["source"]], docs[m["target"]]
    states = dict(m["states"])
    f = m["events"]
    for x in src["states"] + [STAR]:
        fx = STAR if x == STAR else (states[x] or STAR)
        for e, fe in f.items():
            got = space_step(src["action"], x, e)
            got = STAR if got == STAR else (states[got] or STAR)
            want = fx if fe is None else space_step(tgt["action"], fx, fe)
            fail_if(got != want, f"{name}: not equivariant at ({x!r}, {e!r})")


def system_leg(docs, name, src=None, tgt=None):
    """Initial state maps to initial, and every transition maps to a
    transition (or to an identity step when its event is erased)."""
    m = docs[name]
    src = src or docs[m["source"]]
    tgt = tgt or docs[m["target"]]
    states = {x: (v or STAR) for x, v in m["states"].items()}
    f = m["events"]
    table = system_table(tgt)
    init = src["initial"]
    fail_if(
        (STAR if init is None else states[init]) != (tgt["initial"] or STAR),
        f"{name}: initial state not preserved",
    )
    for s, e, t in src["transitions"]:
        want = states[s] if f[e] is None else system_step(table, states[s], f[e])
        fail_if(states[t] != want, f"{name}: transition ({s!r}, {e!r}, {t!r}) not preserved")


def reachable(doc):
    table = system_table(doc)
    if doc["initial"] is None:
        return set()
    seen = {doc["initial"]}
    todo = deque(seen)
    while todo:
        s = todo.popleft()
        for e in doc["events"]:
            t = table.get((s, e))
            if t is not None and t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def check_unfold(rows, doc, depth):
    """Listed traces are canonical, run from the initial state to the listed
    state, and are one per trace class of defined runs up to ``depth``."""
    rel = Rel.of(doc)
    table = system_table(doc)
    classes = {}
    if doc["initial"] is not None:
        level = [((), doc["initial"])]
        classes[projection_key((), rel)] = doc["initial"]
        for _ in range(depth):
            nxt = []
            for w, s in level:
                for e in rel.events:
                    t = table.get((s, e))
                    if t is not None:
                        nxt.append((w + (e,), t))
                        classes[projection_key(w + (e,), rel)] = t
            level = nxt
    fail_if(len(rows) != len(classes), f"unfold lists {len(rows)} traces, search finds {len(classes)}")
    for word, state in rows:
        fail_if(len(word) > depth, "trace longer than the depth")
        fail_if(ak_violation(word, rel) is not None, f"trace {word} not canonical")
        fail_if(classes.get(projection_key(word, rel)) != state, f"trace {word} does not end in {state!r}")


def parse_state_word(name):
    """A saturated state is named ``generator@e1.e2...``."""
    if "@" not in name:
        return name, ()
    g, w = name.split("@", 1)
    return g, tuple(w.split("."))


def check_truncated(out, bound, is_system):
    docs = out["documents"]
    summary = out["summary"]
    fail_if(summary["status"] != "TRUNCATED", "expected a TRUNCATED colimit")
    fail_if(not summary["frontier"], "TRUNCATED colimit with an empty frontier")
    res = docs["result"]
    rel = Rel.of(res if is_system else docs[res["monoid"]])
    for name in res["states"]:
        _, word = parse_state_word(name)
        fail_if(len(word) > bound, f"state {name!r} deeper than the bound")
        fail_if(ak_violation(word, rel) is not None, f"state word of {name!r} not canonical")
    if is_system:
        system_diamond(res)
    else:
        space_diamond(res, rel)
    for leg in (n for n in docs if n.startswith("leg_")):
        (system_leg if is_system else space_leg)(docs, leg)


def check_exact(out, objects, spaces, maps, is_system, initials=None):
    """Compare an EXACT colimit over one monoid with the naive congruence
    closure of ``tests/oracles.py``.

    ``spaces`` are the input StateSpace objects in the order of the diagram
    ``objects``, ``maps`` the (i, j, state map) identifications along arrows.
    A system colimit also glues the ``initials`` [(i, state or star)]: all
    into one class, or all into star when one of them is star."""
    from oracles import pointed_quotient

    docs = out["documents"]
    fail_if(out["summary"]["status"] != "EXACT", "expected an EXACT colimit")
    maps = list(maps)
    if initials:
        if any(x == STAR for _, x in initials):
            maps += [(i, i, {x: STAR}) for i, x in initials if x != STAR]
        else:
            maps += [(i, j, {x: y}) for (i, x), (j, y) in zip(initials, initials[1:])]
    classes, action = pointed_quotient(spaces, maps)
    legs = [docs[f"leg_{o}"] for o in objects]
    got = {}
    for i, leg in enumerate(legs):
        for x, v in leg["states"].items():
            if v is not None:
                got.setdefault(v, set()).add((i, x))
    fail_if(
        frozenset(frozenset(v) for v in got.values()) != classes,
        "colimit classes differ from the congruence closure",
    )
    res = docs["result"]
    if is_system:
        table = system_table(res)
        step = lambda x, e: system_step(table, x, e)
    else:
        step = lambda x, e: space_step(res["action"], x, e)
    rename = legs[0]["events"]
    by_members = {frozenset(v): k for k, v in got.items()}
    for cls in classes:
        state = by_members[cls]
        for e in spaces[0].monoid.events:
            img = action[(cls, e)]
            want = STAR if img is None else by_members[img]
            fail_if(step(state, rename[e]) != want, f"action differs at ({state!r}, {e!r})")


# ---------------------------------------------------------------------------
# Self-test


def self_test():
    """Each checker accepts a right answer and rejects a hand-made wrong one."""
    mutex = Rel("abcde", [("a", "e"), ("c", "e"), ("d", "e"), ("b", "c"), ("c", "d")])

    def rejects(fn, *args):
        try:
            fn(*args)
        except CheckFailed:
            return
        raise AssertionError(f"{fn.__name__} accepted a wrong answer {args!r}")

    check_normal_form("adecc", "accde", mutex)
    rejects(check_normal_form, "adecc", "acced", mutex)  # not least
    rejects(check_normal_form, "adecc", "accee", mutex)  # not a permutation
    rejects(check_normal_form, "ba", "ab", mutex)  # b, a dependent
    check_equivalent("adecc", "accde", True, mutex)
    rejects(check_equivalent, "adecc", "accde", False, mutex)
    rejects(check_equivalent, "ab", "ba", True, mutex)
    check_apply_word("yx", {"x": "a", "y": "e"}, "ae", mutex)
    rejects(check_apply_word, "yx", {"x": "a", "y": "e"}, "ea", mutex)

    assert product_counts([(1, 0), (1, 0)], False) == (3, 3)
    assert product_counts([(1, 0), (1, 0)], True) == (3, 1)
    two = {"events": ["a", "b"], "independence": []}
    wrong = {
        "documents": {
            "m": two,
            "result": {"events": ["(a)", "(b)"], "independence": [["(a)", "(b)"]]},
            "proj_0": {"source": "result", "target": "m", "image": {"(a)": "a", "(b)": "b"}},
        }
    }
    rejects(check_product_doc, wrong, [two], False)  # wrong pair count

    tgt = Rel("cde", [("c", "d"), ("d", "e")])
    assert coequalizer_classes({"a": "c", "b": "d"}, {"a": "d", "b": "e"}, tgt, False) == {
        "c": "c", "d": "c", "e": "c"}
    assert coequalizer_classes({"a": "c", "b": "d"}, {"a": "d", "b": "e"}, tgt, True) == {
        "c": None, "d": None, "e": None}
    bad_hom = {"documents": {"s": {"events": ["x", "y"], "independence": [["x", "y"]]},
                             "t": {"events": ["a", "b"], "independence": []},
                             "h": {"source": "s", "target": "t", "image": {"x": "a", "y": "b"}}}}
    rejects(check_hom_doc, bad_hom["documents"], "h", False)

    ab = Rel("ab", [("a", "b")])
    space_diamond({"states": ["x"], "action": {"x": {"a": "x", "b": "x"}}}, ab)
    rejects(space_diamond, {"states": ["x", "y"], "action": {"x": {"a": "y", "b": "x"}, "y": {"b": "x"}}}, ab)
    sys_ok = {"states": ["p", "q"], "initial": "p", "events": ["a", "b"],
              "independence": [["a", "b"]], "transitions": [["p", "a", "q"], ["p", "b", "p"], ["q", "b", "q"]]}
    system_diamond(sys_ok)
    rejects(system_diamond, dict(sys_ok, transitions=[["p", "a", "q"], ["q", "b", "q"]]))
    loop = {"states": ["z"], "initial": "z", "events": ["a", "b"], "independence": [["a", "b"]],
            "transitions": [["z", "a", "z"], ["z", "b", "z"]]}
    leg = {"source": "A", "target": "L", "events": {"a": "a", "b": "b"}, "states": {"p": "z", "q": "z"}}
    system_leg({"A": sys_ok, "L": loop, "m": leg}, "m")
    rejects(system_leg, {"A": loop, "L": sys_ok, "m": dict(leg, states={"z": "p"})}, "m")
    sp = {"monoid": "m", "states": ["x", "y"], "action": {"x": {"a": "y"}}}
    one = {"monoid": "m", "states": ["u"], "action": {"u": {"a": "u"}}}
    docs = {"S": sp, "U": one, "good": {"source": "S", "target": "U", "events": {"a": "a"},
                                        "states": {"x": None, "y": None}},
            "bad": {"source": "S", "target": "U", "events": {"a": "a"}, "states": {"x": "u", "y": None}}}
    space_leg(docs, "good")
    rejects(space_leg, docs, "bad")

    assert reachable(sys_ok) == {"p", "q"}
    rows = [[[], "p"], [["a"], "q"], [["b"], "p"], [["a", "b"], "q"], [["b", "b"], "p"]]
    check_unfold(rows, sys_ok, 2)
    rejects(check_unfold, rows[:3] + [[["b", "a"], "q"]] + rows[4:], sys_ok, 2)
    rejects(check_unfold, rows[:4], sys_ok, 2)
    trunc = {"summary": {"status": "TRUNCATED", "frontier": ["p@b.a"]},
             "documents": {"result": dict(sys_ok, states=["p", "p@b.a"], transitions=[])}}
    rejects(check_truncated, trunc, 3, True)  # b.a is not canonical


if __name__ == "__main__":
    self_test()
    print("checks self-test: ok")
