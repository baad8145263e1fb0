"""Independent reference implementations and random instance generators.

Everything here deliberately avoids the package's own algorithms: the
transposition closure is a plain BFS over adjacent swaps, the quotient of a
pointed action is a naive congruence-closure fixpoint, and the random
generators repair invalid tables by deleting entries rather than reusing the
library validators' logic.  The exceptions are frozen copies of earlier
versions of the package, kept as regression references: ``reference_saturate``
(pass-based saturation, for the memoized successor table),
``reference_product`` and ``reference_space_product`` (pairwise and per-entry
products, for the monoid product's index arithmetic over per-factor tables
and the space product's discrete limit), and
``reference_limit`` and ``reference_space_limit`` (the product, tupling and
equalizer limit driver, for the compatible families of the object product),
and ``reference_monoids_isomorphic`` and ``reference_is_isomorphic`` (every
event permutation in turn, for the one propagating isomorphism search).
``reference_dumps`` is the standard library's indented encoder, the judge of
the container-level JSON writer.  ``check_monoid_order`` recomputes the pair
caches that the package's monoid constructions preset.  ``enumerate_homs``
and ``enumerate_system_morphisms`` list every morphism by exhaustive search,
and ``system_morphism`` builds one from an event dict without checking it;
``identity_morphism`` and ``compose_morphisms`` build space morphisms for
the category laws and the universal properties, unchecked.
``commuting_pairs`` reads the paper's relations T and R off ``equivalent``,
``term_name`` names a term as ``saturate`` names its states, and
``presentation_error`` is the error that ``saturate``'s per-item checks
raise for a malformed presentation.  ``reference_validate_space``,
``reference_validate_morphism`` and ``reference_condition_problems`` are the
per-entry validators that read the action tables through ``step``, ``state``
and ``BasicHom.__call__`` and sort every entry, for the validators that read
the tables by rows; ``leg_problems`` checks every leg of a returned (co)cone,
the check that the constructions do not repeat at their hand-offs.
``relabelled_monoid`` and ``relabelled_space`` make isomorphic copies under
shuffled names and orders.
"""

from __future__ import annotations

import itertools
import json
import string
from collections import deque
from dataclasses import dataclass

from asyntrace import fpcm_cat
from asyntrace.diagrams import Cone, refuse
from asyntrace.fpcm_cat import TRIVIAL, Category, ProductResult, render_tuple
from asyntrace import state_space
from asyntrace.state_space import (
    EXACT,
    TRUNCATED,
    PresentedAction,
    SpaceProductResult,
    StateSpace,
    StateSpaceMorphism,
    Term,
)
from asyntrace.async_system import WeakAsyncSystem, morphism_violations
from asyntrace.errors import InvalidBound, InvalidSpace, MalformedRelation, MonoidMismatch, SizeLimit, UnknownEvent
from asyntrace.trace_core import (
    STAR,
    BasicHom,
    TraceMonoid,
    _invalid_pair,
    compose,
    equivalent,
    identity_hom,
    is_independence_preserving,
    make_hom,
    make_monoid,
    malformed_image,
    normal_form,
)


def transposition_class(word, m: TraceMonoid) -> frozenset:
    """All words reachable from ``word`` by swapping adjacent independent
    letters, found by breadth-first search."""
    start = tuple(word)
    seen = {start}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for i in range(len(w) - 1):
            if m.independent(w[i], w[i + 1]):
                w2 = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
                if w2 not in seen:
                    seen.add(w2)
                    queue.append(w2)
    return frozenset(seen)


def words_equivalent_bfs(w1, w2, m: TraceMonoid) -> bool:
    return tuple(w2) in transposition_class(w1, m)


def commuting_pairs(m: TraceMonoid, flag: Category) -> frozenset:
    """The pairs of events and star that commute: those with star in them,
    and those whose two products, ``xy`` and ``yx``, are one trace.  That is
    T under FPCM; under FPCM_PAR it is R, which leaves out the diagonal of
    the events."""
    pointed = (*m.events, STAR)
    return frozenset(
        (x, y) for x in pointed for y in pointed
        if STAR in (x, y) or (equivalent((x, y), (y, x), m) and (flag is Category.FPCM or x != y))
    )


def greedy_normal_form(letters, m: TraceMonoid) -> tuple:
    """Lexicographically least equivalent word by greedy selection: at each
    step take the least letter (in alphabet order) whose leftmost occurrence
    commutes with every letter to its left.  O(n^3) for a word of n letters;
    it uses only ``m.events`` and ``m.independent``."""
    pos = {e: i for i, e in enumerate(m.events)}
    rem = list(letters)
    out = []
    while rem:
        best = None
        for i, x in enumerate(rem):
            if all(m.independent(x, y) for y in rem[:i]):
                if best is None or pos[x] < pos[rem[best]]:
                    best = i
        out.append(rem.pop(best))
    return tuple(out)


# ---------------------------------------------------------------------------
# Pointed quotient of a family of actions over a single monoid


def pointed_quotient(spaces, maps):
    """Quotient the disjoint union of the given actions (all over the same
    monoid) by the relations ``(i, x) ~ (j, sigma(x))`` from ``maps``, closing
    under the action.  ``maps`` is a list of ``(i, j, state_map)`` with state
    maps possibly sending states to star.

    Returns ``(classes, action)`` where ``classes`` is a frozenset of
    frozensets of tagged states (the star class is omitted; tagged states that
    collapse to star simply appear in no class) and ``action`` maps
    ``(class, event) -> class or None`` with ``None`` standing for star.
    """
    monoid = spaces[0].monoid
    elements = [(i, x) for i, s in enumerate(spaces) for x in s.states]
    parent = {e: e for e in elements}
    parent[STAR] = STAR

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(u, v):
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        if ru == STAR:
            parent[rv] = ru
        else:
            parent[ru] = rv
        return True

    def act(tagged, e):
        if tagged == STAR:
            return STAR
        i, x = tagged
        y = spaces[i].step(x, e)
        return STAR if y == STAR else (i, y)

    for i, j, smap in maps:
        for x, y in smap.items():
            union((i, x), STAR if y == STAR else (j, y))

    changed = True
    while changed:
        changed = False
        buckets = {}
        for e in elements:
            buckets.setdefault(find(e), []).append(e)
        for group in buckets.values():
            for ev in monoid.events:
                images = {find(act(t, ev)) for t in group}
                if find(group[0]) == STAR:
                    images.add(STAR)
                first = None
                for img in images:
                    if first is None:
                        first = img
                    elif union(first, img):
                        changed = True

    buckets = {}
    for e in elements:
        buckets.setdefault(find(e), set()).add(e)
    buckets.pop(find(STAR), None)
    classes = frozenset(frozenset(v) for v in buckets.values())
    rep = {frozenset(v): k for k, v in buckets.items()}
    action = {}
    for cls in classes:
        for ev in monoid.events:
            img = find(act(next(iter(cls)), ev))
            if img == STAR:
                action[(cls, ev)] = None
            else:
                action[(cls, ev)] = frozenset(buckets[img])
    return classes, action


# ---------------------------------------------------------------------------
# Saturation of a presented action, without the successor table


def presentation_error(p: PresentedAction):
    """The class and message of the error that ``saturate`` raises for
    ``p`` before it saturates, or None: its per-item checks, in their
    order, as they ran before ``saturate`` checked in bulk.  Generators
    that are not names, then rules that are not triples of names, then
    identifications that are not pairs of terms are each named by the first
    one; then a generator named star; then the least rule event outside the
    alphabet; then the first letter outside the alphabet of the first
    identification word, in order, that has one."""
    m = p.monoid
    bad = [g for g in p.generators if not isinstance(g, str)]
    if bad:
        return MalformedRelation, f"generator {bad[0]!r} is not a name"
    bad = [rule for rule in p.transitions
           if not (isinstance(rule, (tuple, list)) and len(rule) == 3 and all(isinstance(x, str) for x in rule))]
    if bad:
        return MalformedRelation, f"rule {bad[0]!r} is not a (generator, event, target) triple of names"

    def is_term(t) -> bool:
        return t == STAR or (
            isinstance(t, (tuple, list)) and len(t) == 2 and isinstance(t[0], str)
            and isinstance(t[1], (tuple, list)) and all(isinstance(x, str) for x in t[1])
        )

    bad = next((pair for pair in p.identifications
                if not (isinstance(pair, (tuple, list)) and len(pair) == 2 and all(map(is_term, pair)))), None)
    if bad is not None:
        return MalformedRelation, f"identification {bad!r} is not a pair of terms"
    named = set(p.generators).union(g for g, _, _ in p.transitions)
    named.update(rhs for _, _, rhs in p.transitions if rhs != STAR)
    named.update(t[0] for pair in p.identifications for t in pair if t != STAR)
    if STAR in named:
        return InvalidSpace, f"{STAR!r} is reserved and cannot be a generator name"
    unknown = sorted({e for _, e, _ in p.transitions}.difference(m.events))
    if unknown:
        return UnknownEvent, f"rule event {unknown[0]!r} not in alphabet {list(m.events)}"
    for pair in p.identifications:
        for t in pair:
            x = next((x for x in ([] if t == STAR else t[1]) if x not in m.events), None)
            if x is not None:
                return UnknownEvent, f"letter {x!r} not in alphabet {list(m.events)}"
    return None


# ---------------------------------------------------------------------------
# Per-entry validators, and the legs of a returned cone


def reference_validate_space(s: StateSpace) -> list[str]:
    """``validate_space`` entry by entry: every action entry in sorted
    order, and the diamonds through ``StateSpace.step``."""
    problems = [f"state {x!r} is not a name" for x in s.states if not isinstance(x, str)]
    for key, y in s.action.items():
        if not (isinstance(key, tuple) and len(key) == 2 and isinstance(key[0], str) and isinstance(key[1], str)):
            problems.append(f"action key {key!r} is not a (state, event) pair of names")
        elif not isinstance(y, str):
            problems.append(f"action value {y!r} is not a name")
    if problems:
        return problems
    states = set(s.states)
    if len(states) != len(s.states):
        problems.append("duplicate state names")
    if STAR in states:
        problems.append(f"{STAR!r} is reserved and cannot be a state name")
    events = set(s.monoid.events)
    for (x, e), y in sorted(s.action.items()):
        if x not in states:
            problems.append(f"action entry on unknown state {x!r}")
        if e not in events:
            problems.append(f"action entry on unknown event {e!r}")
        if y != STAR and y not in states:
            problems.append(f"action value {y!r} is not a state")
    for a, b in s.monoid.pairs():
        for x in s.states:
            left = s.step(s.step(x, a), b)
            right = s.step(s.step(x, b), a)
            if left != right:
                problems.append(f"diamond violation at state {x!r} with pair ({a!r}, {b!r}): {left!r} != {right!r}")
    return problems


def reference_validate_morphism(m: StateSpaceMorphism, flag: Category = Category.FPCM) -> list[str]:
    """``validate_morphism`` entry by entry, through ``step``, ``state`` and
    ``BasicHom.__call__``, star included: source states that are not names,
    or else the state map's problems, or else the source transitions that
    leave the source's states, are reported alone."""
    if m.monoid_part.source != m.source.monoid or m.monoid_part.target != m.target.monoid:
        return ["monoid part endpoints do not match the spaces"]
    bad = malformed_image(m.monoid_part)
    if bad is not None:
        return [f"monoid part: {bad}"]
    states, events = m.source.states, m.source.monoid.events
    problems = [f"source state {x!r} is not a name" for x in states if not isinstance(x, str)]
    problems = problems or state_space._state_map_problems(states, m)
    if problems:
        return problems
    for x in states:
        for e in events:
            y = m.source.step(x, e)
            if not (isinstance(y, str) and (y == STAR or y in states)):
                problems.append(f"source transition {(x, e)!r} -> {y!r} leads outside the source's states")
    if problems:
        return problems
    if flag is Category.FPCM_PAR and not is_independence_preserving(m.monoid_part):
        problems.append("monoid part is not independence-preserving")
    for x in tuple(states) + (STAR,):
        for e in events:
            fe = m.monoid_part(e)
            expected = m.state(x) if fe is None else m.target.step(m.state(x), fe)
            got = m.state(m.source.step(x, e))
            if got != expected:
                problems.append(f"equivariance violation at ({x!r}, {e!r}): {got!r} != {expected!r}")
    return problems


def reference_condition_problems(m: StateSpaceMorphism) -> list[str]:
    """``async_system._condition_problems`` entry by entry, through
    ``state`` and ``step``, every transition in sorted order; for maps
    that ``async_system._map_problems`` accepts."""
    a, b = m.source, m.target
    event_part = m.monoid_part.mapping
    problems = []
    if m.state(a.initial) != b.initial:
        problems.append(f"condition 1: initial state maps to {m.state(a.initial)!r}, expected {b.initial!r}")
    for (s1, e), s2 in sorted(a.action.items()):
        fe = event_part[e]
        expected = m.state(s1) if fe is None else b.step(m.state(s1), fe)
        if m.state(s2) != expected:
            problems.append(
                f"condition 2: transition ({s1!r}, {e!r}, {s2!r}) maps to ({m.state(s1)!r}, {fe!r}, {m.state(s2)!r})"
            )
    for x, y in a.monoid.pairs():
        fx, fy = event_part[x], event_part[y]
        if fx is not None and fy is not None and not b.monoid.independent(fx, fy):
            problems.append(f"condition 3: independent pair ({x!r}, {y!r}) maps to dependent pair")
    return problems


def leg_problems(cone: Cone, base: str, flag: Category = Category.FPCM) -> list[tuple[str, str]]:
    """Every leg's defects as (object, problem), by the checks of its kind
    of arrow: ``malformed_image`` and ``_invalid_pair`` for a ``"monoid"``
    cone, ``validate_morphism`` in ``flag`` for a ``"space"`` one, and for
    a ``"system"`` one ``morphism_violations`` then ``validate_morphism``
    in FPCM_PAR.  Empty when every leg is an arrow of its category."""
    out = []
    for o, leg in cone.legs.items():
        if base == "monoid":
            found = [str(p) for p in (malformed_image(leg), _invalid_pair(leg)) if p is not None]
        elif base == "space":
            found = state_space.validate_morphism(leg, flag)
        else:
            found = morphism_violations(leg) + state_space.validate_morphism(leg, Category.FPCM_PAR)
        out.extend((o, p) for p in found)
    return out


def term_name(t: Term) -> str:
    """The state name of a term: ``g`` for ``(g, ())``, ``g@a.b`` for
    ``(g, ("a", "b"))``; the judge of the names that ``saturate`` builds
    per trace."""
    g, trace = t
    return g + "@" + ".".join(trace) if trace else g


def _term_key(t) -> tuple:
    if t == STAR:
        return (-1, "", ())
    return (len(t[1]), t[0], t[1])


@dataclass
class ReferenceSaturation:
    """``reference_saturate``'s result: the fields of ``SaturationResult``,
    with the frontier as a tuple of terms."""

    status: str
    space: StateSpace
    class_map: dict
    frontier: tuple


def reference_saturate(p: PresentedAction, bound: int) -> ReferenceSaturation:
    """``state_space.saturate`` as it was before its successor table: every
    pass computes ``succ(t, e)`` afresh with a full ``normal_form``, and each
    class's least member is found by a scan.  It is a regression reference
    for the memoized version, not an independent algorithm: the results,
    down to the order of states, action entries and frontier, must agree.

    Materialize the quotient of a presented action up to trace depth
    ``bound``.

    Breadth-first congruence closure over terms (generator, canonical trace):
    union-find seeded by rules and identifications, merging of classes merges
    their explored successors, star absorbs.  EXACT when the settled classes
    are closed under every event.
    """
    if bound < 0:
        raise InvalidBound("saturation bound must be >= 0")
    m = p.monoid
    parent: dict = {}

    def add(x):
        parent.setdefault(x, x)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y) -> bool:
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        # star wins; otherwise keep the smaller term as representative
        if rx == STAR or (ry != STAR and _term_key(rx) < _term_key(ry)):
            rx, ry = ry, rx
        parent[rx] = ry
        return True

    def succ(term: Term, e: str) -> Term:
        g, t = term
        return (g, normal_form(t + (e,), m))

    add(STAR)
    for g in p.generators:
        add((g, ()))
    for g, e, rhs in p.transitions:
        lhs = (g, (e,))
        add(lhs)
        if rhs == STAR:
            union(lhs, STAR)
        else:
            add((rhs, ()))
            union(lhs, (rhs, ()))
    for t1, t2 in p.identifications:
        for t in (t1, t2):
            if t != STAR:
                add((t[0], normal_form(t[1], m)))
        a = t1 if t1 == STAR else (t1[0], normal_form(t1[1], m))
        b = t2 if t2 == STAR else (t2[0], normal_form(t2[1], m))
        union(a, b)

    changed = True
    while changed:
        changed = False
        groups: dict = {}
        for node in parent:
            groups.setdefault(find(node), []).append(node)
        for root in sorted(groups, key=_term_key):
            members = groups[root]
            if root == STAR:
                for t in members:
                    if t == STAR:
                        continue
                    for e in m.events:
                        s = succ(t, e)
                        if s in parent:
                            changed |= union(s, STAR)
                continue
            min_member = min(members, key=_term_key)
            for e in m.events:
                collected = [s for s in (succ(t, e) for t in members) if s in parent]
                if len(min_member[1]) + 1 <= bound:
                    s0 = succ(min_member, e)
                    if s0 not in parent:
                        add(s0)
                        changed = True
                    collected.append(s0)
                for a, b in zip(collected, collected[1:]):
                    changed |= union(a, b)

    # classify classes and detect the frontier
    groups = {}
    for node in parent:
        groups.setdefault(find(node), []).append(node)
    star_root = find(STAR)
    info = {}
    for root, members in groups.items():
        if root == star_root:
            continue
        min_member = min(members, key=_term_key)
        settled = len(min_member[1]) <= bound
        info[root] = (min_member, settled, members)
    frontier = []
    for root, (min_member, settled, members) in info.items():
        if not settled:
            frontier.append(min_member)
            continue
        for e in m.events:
            known = None
            for t in members:
                s = succ(t, e)
                if s in parent:
                    known = find(s)
                    break
            if known is None:
                frontier.append(succ(min_member, e))
            elif known != star_root and not info[known][1]:
                frontier.append(succ(min_member, e))
    frontier = sorted(set(frontier), key=lambda t: (t[0], t[1]))
    status = EXACT if not frontier else TRUNCATED

    def state_name(term: Term) -> str:
        g, t = term
        return g if not t else g + "@" + ".".join(t)

    names = {}
    for root, (min_member, settled, _) in sorted(info.items(), key=lambda kv: _term_key(kv[1][0])):
        if settled:
            names[root] = state_name(min_member)
    states = tuple(names[r] for r in sorted(names, key=_term_key))
    action = {}
    for root, (min_member, settled, members) in info.items():
        if not settled:
            continue
        for e in m.events:
            known = None
            for t in members:
                s = succ(t, e)
                if s in parent:
                    known = find(s)
                    break
            if known is not None and known in names:
                action[(names[root], e)] = names[known]
    space = StateSpace(m, states, action)
    class_map = {}
    for g in p.generators:
        r = find((g, ()))
        class_map[g] = STAR if r == star_root or r not in names else names[r]
    return ReferenceSaturation(status, space, class_map, tuple(frontier))


# ---------------------------------------------------------------------------
# Products, pair by pair and entry by entry


def _in_com(m: TraceMonoid, x: str, y: str) -> bool:
    # membership in T for pointed elements of m
    return x == y or x == STAR or y == STAR or m.independent(x, y)


def _in_ind(m: TraceMonoid, x: str, y: str) -> bool:
    # membership in R for pointed elements of m
    return x == STAR or y == STAR or m.independent(x, y)


def reference_product(ms, flag=Category.FPCM) -> ProductResult:
    """``fpcm_cat.product`` as it was before index arithmetic: every pair of
    generators is tested factor by factor against the pointed relation.  A
    regression reference: generators, pairs, projections and components must
    agree, in order."""
    ms = list(ms)
    if not ms:
        return ProductResult(TRIVIAL, (), {})
    axes = [tuple(m.events) + (STAR,) for m in ms]
    gens = []
    components = {}
    for combo in itertools.product(*axes):
        if all(x == STAR for x in combo):
            continue
        name = render_tuple(combo)
        gens.append(name)
        components[name] = combo
    rel = _in_ind if flag is Category.FPCM_PAR else _in_com
    pairs = []
    for i, u in enumerate(gens):
        cu = components[u]
        for v in gens[i + 1 :]:
            cv = components[v]
            if all(rel(m, x, y) for m, x, y in zip(ms, cu, cv)):
                pairs.append((u, v))
    monoid = make_monoid(gens, pairs)
    projections = []
    for j, m in enumerate(ms):
        image = {g: (None if components[g][j] == STAR else components[g][j]) for g in gens}
        projections.append(make_hom(monoid, m, image))
    return ProductResult(monoid, tuple(projections), components)


def reference_space_product(spaces, flag=Category.FPCM) -> SpaceProductResult:
    """``state_space.product`` as it was before per-factor tables: every
    (state, generator) entry is computed component by component and
    rendered.  A regression reference, down to the order of action entries.
    Its monoid part is the package's ``fpcm_cat.product``, which
    ``reference_product`` checks on its own."""
    spaces = list(spaces)
    mp = fpcm_cat.product([s.monoid for s in spaces], flag)
    if not spaces:
        space = StateSpace(mp.monoid, (), {})
        return SpaceProductResult(space, (), mp, {})
    axes = [tuple(s.states) + (STAR,) for s in spaces]
    states = []
    state_components = {}
    for combo in itertools.product(*axes):
        if all(x == STAR for x in combo):
            continue
        name = render_tuple(combo)
        states.append(name)
        state_components[name] = combo
    action = {}
    for name in states:
        xs = state_components[name]
        for gen in mp.monoid.events:
            parts = mp.components[gen]
            ys = tuple(
                x if u == STAR else s.step(x, u)
                for s, x, u in zip(spaces, xs, parts)
            )
            if not all(y == STAR for y in ys):
                action[(name, gen)] = render_tuple(ys)
    space = StateSpace(mp.monoid, tuple(states), action)
    projections = []
    for i, s in enumerate(spaces):
        state_part = {name: state_components[name][i] for name in states}
        projections.append(StateSpaceMorphism(space, s, mp.projections[i], state_part))
    return SpaceProductResult(space, tuple(projections), mp, state_components)


# ---------------------------------------------------------------------------
# Space morphisms: identities and composites, unchecked


def identity_morphism(s: StateSpace) -> StateSpaceMorphism:
    return StateSpaceMorphism(s, s, identity_hom(s.monoid), {x: x for x in s.states})


def compose_morphisms(m2: StateSpaceMorphism, m1: StateSpaceMorphism) -> StateSpaceMorphism:
    if m1.target is not m2.source and m1.target != m2.source:
        raise MonoidMismatch("composition endpoints do not match")
    state_part = {x: m2.state(m1.state(x)) for x in m1.source.states}
    return StateSpaceMorphism(m1.source, m2.target, compose(m2.monoid_part, m1.monoid_part), state_part)


# ---------------------------------------------------------------------------
# Limits as an equalizer of two products, colimits as a coequalizer of two
# coproducts


def reference_limit(d, flag=Category.FPCM) -> Cone:
    """``fpcm_cat.limit`` as it was before compatible families: the product
    over the objects, equalized against the product over the arrow
    codomains, built from the package's own ``product``, ``tupling`` and
    ``equalizer``.  A regression reference: apex events, pairs and legs must
    agree, in order."""
    refuse(fpcm_cat.diagram_problems(d, flag))
    objs = list(d.shape.objects)
    obj_prod = fpcm_cat.product([d.on_objects[o] for o in objs], flag)
    proj = {o: obj_prod.projections[i] for i, o in enumerate(objs)}
    arrows = sorted(d.shape.arrows)
    if not arrows:
        return Cone(obj_prod.monoid, proj)
    arr_prod = fpcm_cat.product([d.on_objects[dst] for _, _, dst in arrows], flag)
    s = fpcm_cat.tupling([proj[dst] for _, _, dst in arrows], arr_prod)
    t = fpcm_cat.tupling([compose(d.on_arrows[name], proj[src]) for name, src, _ in arrows], arr_prod)
    _, inclusion = fpcm_cat.equalizer(s, t, flag)
    return Cone(inclusion.source, {o: compose(proj[o], inclusion) for o in objs})


def reference_space_limit(d, flag=Category.FPCM) -> Cone:
    """``state_space.limit`` as it was before compatible families, built
    from the package's ``product``, ``space_tupling`` and ``equalizer``; a
    regression reference down to the order of action entries."""
    refuse(state_space.diagram_problems(d, flag))
    objs = list(d.shape.objects)
    prod = state_space.product([d.on_objects[o] for o in objs], flag)
    proj = {o: prod.projections[i] for i, o in enumerate(objs)}
    arrows = sorted(d.shape.arrows)
    if not arrows:
        return Cone(prod.space, proj)
    arr_prod = state_space.product([d.on_objects[dst] for _, _, dst in arrows], flag)
    s = state_space.space_tupling([proj[dst] for _, _, dst in arrows], arr_prod)
    t = state_space.space_tupling(
        [compose_morphisms(d.on_arrows[name], proj[src]) for name, src, _ in arrows], arr_prod
    )
    apex, incl = state_space.equalizer(s, t, flag)
    return Cone(apex, {o: compose_morphisms(proj[o], incl) for o in objs})


def reference_colimit(d, flag=Category.FPCM) -> Cone:
    """``fpcm_cat.colimit`` as it was before the congruence closure: the
    coproduct over the objects, coequalized against the coproduct over the
    arrow domains by two cotuplings, built from the package's own
    ``coproduct``, ``cotupling`` and ``coequalizer``.  A regression
    reference: apex events, pairs and legs must agree, in order."""
    refuse(fpcm_cat.diagram_problems(d, flag))
    objs = list(d.shape.objects)
    obj_cop = fpcm_cat.coproduct([d.on_objects[o] for o in objs], flag)
    inj = {o: obj_cop.injections[i] for i, o in enumerate(objs)}
    arrows = sorted(d.shape.arrows)
    if not arrows:
        return Cone(obj_cop.monoid, inj)
    arr_cop = fpcm_cat.coproduct([d.on_objects[src] for _, src, _ in arrows], flag)
    u = fpcm_cat.cotupling([inj[src] for _, src, _ in arrows], arr_cop)
    v = fpcm_cat.cotupling([compose(inj[dst], d.on_arrows[name]) for name, _, dst in arrows], arr_cop)
    coeq = fpcm_cat.coequalizer(u, v, flag)
    return Cone(coeq.monoid, {o: compose(coeq.quotient, inj[o]) for o in objs})


def check_monoid_order(m: TraceMonoid) -> None:
    """Assert that the pair caches ``m`` holds are the ones recomputed from
    its independence alone: the position pairs ``i < j`` in sorted order,
    their names, and the dependence table of a monoid built directly, which
    sorts its pairs itself.  Equality of monoids ignores these caches."""
    positions = sorted((m.index(a), m.index(b)) for a, b in m.independence)
    assert all(i < j for i, j in positions), "independence holds a pair against the alphabet order"
    assert m._pair_positions == tuple(positions)
    assert m._pairs == tuple((m.events[i], m.events[j]) for i, j in positions)
    assert m._dependents == TraceMonoid(m.events, m.independence)._dependents


def reference_dumps(payload) -> str:
    """``interchange.dumps`` as it was before its container-level writer:
    ``json.dumps`` with sorted keys and an indent of 2, plus a newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Homs, isomorphisms and system morphisms by exhaustive search


def enumerate_homs(src: TraceMonoid, tgt: TraceMonoid, flag: Category = Category.FPCM) -> list[BasicHom]:
    """All valid basic homs src -> tgt, independence-preserving ones only
    under FPCM_PAR.  Deterministic order; exponential in len(src.events)."""
    out = []
    choices = (None,) + tuple(tgt.events)
    for combo in itertools.product(choices, repeat=len(src.events)):
        h = BasicHom(src, tgt, combo)
        ok = True
        for a, b in src.pairs():
            fa, fb = h(a), h(b)
            if fa is None or fb is None:
                continue
            if fa == fb:
                if flag is Category.FPCM_PAR:
                    ok = False
                    break
                continue
            if not tgt.independent(fa, fb):
                ok = False
                break
        if ok:
            out.append(h)
    return out


def reference_monoids_isomorphic(m1: TraceMonoid, m2: TraceMonoid):
    """``fpcm_cat.monoids_isomorphic`` as it was before the shared search:
    the first event permutation, in ``itertools.permutations`` order, that
    preserves independence both ways, or None."""
    if len(m1.events) != len(m2.events) or len(m1.independence) != len(m2.independence):
        return None
    if len(m1.events) > 8:
        raise SizeLimit("isomorphism search is limited to 8 events")
    def degrees(m):
        return sorted(sum(1 for p in m.independence if e in p) for e in m.events)
    if degrees(m1) != degrees(m2):
        return None
    for perm in itertools.permutations(m2.events):
        bij = dict(zip(m1.events, perm))
        if all(m2.independent(bij[a], bij[b]) for a, b in m1.pairs()):
            return bij
    return None


def reference_is_isomorphic(s1: StateSpace, s2: StateSpace):
    """``state_space.is_isomorphic`` as it was before the shared search:
    every event permutation in turn, and for each, states assigned in
    ``s1.states`` order with the whole partial map re-checked at each step;
    ``(event_map, state_map)`` or None."""
    if len(s1.monoid.events) > 8 or len(s1.states) > 12:
        raise SizeLimit("isomorphism search limited to 8 events and 12 states")
    if len(s1.states) != len(s2.states) or len(s1.monoid.events) != len(s2.monoid.events):
        return None
    for perm in itertools.permutations(s2.monoid.events):
        emap = dict(zip(s1.monoid.events, perm))
        if not all(s2.monoid.independent(emap[a], emap[b]) for a, b in s1.monoid.pairs()):
            continue
        if len(s1.monoid.independence) != len(s2.monoid.independence):
            return None
        smap = _match_states(s1, s2, emap)
        if smap is not None:
            return emap, smap
    return None


def _match_states(s1: StateSpace, s2: StateSpace, emap):
    order = list(s1.states)

    def extend(assignment, used):
        if len(assignment) == len(order):
            return dict(assignment)
        x = order[len(assignment)]
        for y in s2.states:
            if y in used:
                continue
            trial = dict(assignment)
            trial[x] = y
            if _consistent(s1, s2, emap, trial):
                res = extend(trial, used | {y})
                if res is not None:
                    return res
        return None

    return extend({}, set())


def _consistent(s1, s2, emap, partial) -> bool:
    get = partial.get
    for x, y in partial.items():
        for e in s1.monoid.events:
            x2 = s1.step(x, e)
            y2 = s2.step(y, emap[e])
            if x2 == STAR:
                if y2 != STAR:
                    return False
            else:
                if y2 == STAR:
                    return False
                mapped = get(x2)
                if mapped is not None and mapped != y2:
                    return False
    return True


def system_morphism(a: WeakAsyncSystem, b: WeakAsyncSystem, events: dict, states: dict) -> StateSpaceMorphism:
    """The system morphism with these event and state maps, unchecked: its
    monoid part's image lists ``events`` in the order of ``a``'s events, so
    an event left out shortens it."""
    image = tuple(events[e] for e in a.monoid.events if e in events)
    return StateSpaceMorphism(a, b, BasicHom(a.monoid, b.monoid, image), dict(states))


def enumerate_system_morphisms(a: WeakAsyncSystem, b: WeakAsyncSystem, polygonal: bool = False):
    """Every system morphism from a to b: each event to an event of b or the
    identity, each state to a state of b or the star, kept when it meets the
    three conditions, decided here from the transition tables.  With
    ``polygonal`` only the morphisms that also reflect transitions are kept:
    wherever the image state can do the image event (any state can do the
    identity), the source state can do the event."""
    events, states = a.monoid.events, a.states
    if a.initial == STAR and b.initial != STAR:
        return  # the star initial state maps to star
    # condition 1 fixes the image of the initial state
    choices = [(b.initial,) if s == a.initial else (*b.states, STAR) for s in states]
    for images in itertools.product((None, *b.monoid.events), repeat=len(events)):
        emap = dict(zip(events, images))
        if any(
            emap[x] is not None and emap[y] is not None and not b.monoid.independent(emap[x], emap[y])
            for x, y in a.monoid.pairs()
        ):
            continue  # condition 3
        for targets in itertools.product(*choices):
            smap = dict(zip(states, targets))
            smap[STAR] = STAR
            ok = True
            for s in states:
                for e in events:
                    t, fe = smap[s], emap[e]
                    image = t if fe is None else b.step(t, fe)
                    s2 = a.step(s, e)
                    # condition 2 along transitions, reflection off them
                    if (s2 != STAR or polygonal) and smap[s2] != image:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                del smap[STAR]
                yield system_morphism(a, b, emap, smap)


# ---------------------------------------------------------------------------
# Random instances


def random_monoid(rng, max_events=3, density=0.4, prefix="") -> TraceMonoid:
    k = rng.randint(1, max_events)
    events = [prefix + string.ascii_lowercase[i] for i in range(k)]
    pairs = [
        (x, y)
        for x, y in itertools.combinations(events, 2)
        if rng.random() < density
    ]
    return make_monoid(events, pairs)


def random_basic_hom_map(rng, src: TraceMonoid, tgt: TraceMonoid):
    """A random generator assignment; may or may not be a valid hom."""
    choices = [None] + list(tgt.events)
    return {e: rng.choice(choices) for e in src.events}


def random_system(rng, max_states=6, max_events=4) -> WeakAsyncSystem:
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]
    m = random_monoid(rng, max_events)
    transitions = {}
    for s in states:
        for e in m.events:
            if rng.random() < 0.55:
                transitions[(s, e)] = rng.choice(states)

    def violation():
        for x, y in m.pairs():
            for p, q in ((x, y), (y, x)):
                for s in states:
                    s1 = transitions.get((s, p))
                    if s1 is None:
                        continue
                    s2 = transitions.get((s1, q))
                    if s2 is None:
                        continue
                    mid = transitions.get((s, q))
                    if mid is None or transitions.get((mid, p)) != s2:
                        return (s1, q)
        return None

    while True:
        v = violation()
        if v is None:
            break
        del transitions[v]
    initial = rng.choice(states)
    return WeakAsyncSystem(m, tuple(states), transitions, initial)


def random_space(rng, monoid: TraceMonoid, max_states=5, prefix="x", n=None) -> StateSpace:
    if n is None:
        n = rng.randint(1, max_states)
    states = [f"{prefix}{i}" for i in range(n)]
    action = {}
    for s in states:
        for e in monoid.events:
            if rng.random() < 0.6:
                action[(s, e)] = rng.choice(states)
    return StateSpace(monoid, tuple(states), repair_diamond(monoid, states, action))


def relabelled_monoid(rng, m: TraceMonoid):
    """A copy of ``m`` with its events renamed and listed in a shuffled
    order, and the renaming."""
    names = {e: f"r{i}" for i, e in enumerate(rng.sample(m.events, len(m.events)))}
    events = rng.sample(list(names.values()), len(names))
    return make_monoid(events, [(names[a], names[b]) for a, b in m.pairs()]), names


def relabelled_space(rng, s: StateSpace) -> StateSpace:
    """A copy of ``s`` with its events and states renamed and listed in
    shuffled orders."""
    m, names = relabelled_monoid(rng, s.monoid)
    states = {x: f"q{i}" for i, x in enumerate(rng.sample(s.states, len(s.states)))}
    order = rng.sample(list(states.values()), len(states))
    return StateSpace(m, tuple(order), {(states[x], names[e]): states[y] for (x, e), y in s.action.items()})


def repair_diamond(monoid: TraceMonoid, states, action: dict) -> dict:
    """Delete action entries, one at a time, until every independent pair
    closes its diamond at every state; ``action`` is changed in place."""

    def step(x, e):
        if x == STAR:
            return STAR
        return action.get((x, e), STAR)

    def violation():
        for a, b in monoid.pairs():
            for x in states:
                left = step(step(x, a), b)
                right = step(step(x, b), a)
                if left != right:
                    if left != STAR:
                        return (step(x, a), b)
                    return (step(x, b), a)
        return None

    while True:
        v = violation()
        if v is None:
            return action
        del action[v]


def random_equivariant_map(rng, src: StateSpace, tgt: StateSpace, tries=200):
    """Search for a star-extended equivariant state map over the identity
    monoid part, by randomized assignment with repair.  Returns a dict or
    None."""
    for _ in range(tries):
        smap = {x: rng.choice(list(tgt.states) + [STAR]) for x in src.states}
        ok = True
        for x in src.states:
            for e in src.monoid.events:
                y = src.step(x, e)
                lhs = STAR if smap[x] == STAR else tgt.step(smap[x], e)
                rhs = STAR if y == STAR else smap[y]
                if lhs != rhs:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return smap
    return None
