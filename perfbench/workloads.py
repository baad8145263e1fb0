"""Seeded inputs and jobs for the three workloads.

A workload is a list of jobs, one round.  The benchmark runs whole rounds,
so every run attempts the same operations in the same proportions whatever
its length.  Sizes are fixed and only contents depend on the seed: event,
state and pair counts are chosen exactly, never by density, so each job's
work is nearly the same across seeds.

- ``words`` calls the library (normalize, equivalent, apply_word) on long
  random words: almost all of its time is ``trace_core.normal_form``.
- ``constructions`` runs products, coproducts, coequalizers, limits and
  colimits of monoids, spaces and systems through ``cli.main``; none of them
  saturates and ``normal_form`` is barely called.
- ``colimits`` runs ``asys colimit`` and ``space colimit`` through
  ``cli.main``: EXACT gluings over one monoid and TRUNCATED free extensions,
  where ``state_space.saturate`` does most of the work.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks as ck
from checks import STAR, Rel

@dataclass
class Job:
    label: str
    call: Callable[[], object]  # the timed work; returns the output
    check: Callable[[object], None]  # raises checks.CheckFailed


# ---------------------------------------------------------------------------
# Seeded generators of plain bundle documents


def gen_monoid(rng, events, k):
    """Monoid document with exactly ``k`` independent pairs."""
    pairs = sorted(rng.sample(list(itertools.combinations(events, 2)), k))
    return {"kind": "monoid", "events": list(events), "independence": [list(p) for p in pairs]}


def gen_hom(rng, src, tgt, erase=0.15):
    """Random image map repaired into an independence-preserving basic hom:
    the later event of an offending independent pair is erased."""
    s, t = Rel.of(src), Rel.of(tgt)
    image = {e: (None if rng.random() < erase else rng.choice(t.events)) for e in s.events}
    for a, b in itertools.combinations(s.events, 2):
        if s.indep(a, b):
            fa, fb = image[a], image[b]
            if not t.commute(fa, fb) or (fa is not None and fa == fb):
                image[b] = None
    return image


def gen_action(rng, rel, states, fill):
    """Random partial action with exactly ``fill`` of its entries defined
    where the diamond allows it: entries go in one at a time, in random
    order, each taking the first random target that keeps the star-extended
    diamond."""
    pairs = [(a, b) for a, b in itertools.combinations(rel.events, 2) if rel.indep(a, b)]
    slots = [(x, e) for x in states for e in rel.events]
    rng.shuffle(slots)
    want = round(fill * len(slots))
    action = {}

    def step(x, e):
        return STAR if x == STAR else action.get((x, e), STAR)

    def diamond():
        return all(step(step(x, a), b) == step(step(x, b), a) for (a, b), x in itertools.product(pairs, states))

    for slot in slots:
        if len(action) == want:
            break
        for y in rng.sample(states, len(states)):
            action[slot] = y
            if diamond():
                break
            del action[slot]
    return action


def nested(action):
    out = {}
    for (x, e), y in sorted(action.items()):
        out.setdefault(x, {})[e] = y
    return out


def space_doc(monoid_name, states, action):
    return {"kind": "space", "monoid": monoid_name, "states": list(states), "action": nested(action)}


def system_doc(monoid, states, initial, action):
    return {
        "kind": "system",
        "states": list(states),
        "initial": initial,
        "events": monoid["events"],
        "independence": monoid["independence"],
        "transitions": [[x, e, y] for (x, e), y in sorted(action.items())],
    }


def shape_doc(objects, arrows=()):
    return {"kind": "shape", "objects": list(objects), "arrows": [list(a) for a in arrows]}


def diagram_doc(shape, over, objects, arrows=None):
    return {"kind": "diagram", "shape": shape, "over": over, "objects": objects, "arrows": arrows or {}}


SPAN = ("apex", "left", "right"), (("l", "apex", "left"), ("r", "apex", "right"))
COSPAN = ("left", "right", "apex"), (("l", "left", "apex"), ("r", "right", "apex"))
PAIR = ("src", "dst"), (("f", "src", "dst"), ("g", "src", "dst"))


# ---------------------------------------------------------------------------
# Running the CLI in-process


def run_cli(argv):
    """``cli.main`` on ``argv`` with its output captured; looked up on every
    call so the tracer's wrapper is used when installed."""
    from asyntrace import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


class CliFailed(Exception):
    """``cli.main`` exited non-zero: the job failed."""


def cli_job(label, argv, check):
    def call():
        rc, text, err = run_cli(argv + ["--format", "json"])
        if rc != 0:
            raise CliFailed(f"exit {rc}: {err.strip()}")
        return text

    return Job(label, call, lambda text: check(json.loads(text)))


def references(doc):
    kind = doc["kind"]
    if kind == "diagram":
        return [doc["shape"], *doc["objects"].values(), *doc["arrows"].values()]
    if kind == "space":
        return [doc["monoid"]]
    if kind in ("hom", "space_morphism", "system_morphism"):
        return [doc["source"], doc["target"]]
    return []


class Bundles:
    """Writes one bundle per job, holding the documents its options name
    and what they refer to, as a CLI user would pass."""

    def __init__(self, workdir: Path, prefix: str, docs: dict):
        self.workdir, self.prefix, self.docs = workdir, prefix, docs
        self.count = 0

    def job(self, label, command, opts, check):
        todo = [v for v in opts if v in self.docs]
        keep = {}
        while todo:
            name = todo.pop()
            if name not in keep:
                keep[name] = self.docs[name]
                todo += references(self.docs[name])
        path = self.workdir / f"{self.prefix}{self.count}.json"
        self.count += 1
        path.write_text(json.dumps({"version": 1, "documents": keep}, sort_keys=True), encoding="utf-8")
        return cli_job(label, command.split() + [str(path)] + opts, check)


# ---------------------------------------------------------------------------
# words


def random_word(rng, events, n):
    return tuple(rng.choice(events) for _ in range(n))


def shuffle_equivalent(rng, word, rel, swaps):
    """Random adjacent swaps of independent letters: an equivalent word."""
    w = list(word)
    for _ in range(swaps):
        i = rng.randrange(len(w) - 1)
        if rel.indep(w[i], w[i + 1]):
            w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)


def break_equivalence(word, rel):
    """Swap the first adjacent pair of distinct dependent letters; the
    projection onto that pair changes, so the result is not equivalent."""
    w = list(word)
    for i in range(len(w) - 1):
        if w[i] != w[i + 1] and not rel.indep(w[i], w[i + 1]):
            w[i], w[i + 1] = w[i + 1], w[i]
            return tuple(w)
    raise ValueError("word has no adjacent dependent pair")


def words(rng, workdir, root):
    from asyntrace import interchange, trace_core

    alpha8 = [chr(ord("a") + i) for i in range(8)]
    alpha16 = [chr(ord("a") + i) for i in range(16)]
    mutex = interchange.parse_file(root / "fixtures" / "mutex.json").get("mutex")
    docs = {"mutex": interchange.monoid_doc(mutex)}
    # two seeded alphabets of each size and density, so that no single draw
    # of a dependence graph sets the round's cost
    for copy in "12":
        docs[f"a8lo{copy}"] = gen_monoid(rng, alpha8, 4)
        docs[f"a8hi{copy}"] = gen_monoid(rng, alpha8, 17)
        docs[f"a16lo{copy}"] = gen_monoid(rng, alpha16, 18)
        docs[f"a16hi{copy}"] = gen_monoid(rng, alpha16, 72)
    # apply_word maps each alphabet into the next one round the list
    names = list(docs)
    monoids = {n: trace_core.make_monoid(d["events"], d["independence"]) for n, d in docs.items()}
    rels = {n: Rel.of(d) for n, d in docs.items()}
    jobs = []
    for i, name in enumerate(names):
        m, rel = monoids[name], rels[name]
        for n in (120, 240) * 2:
            w = random_word(rng, rel.events, n)
            jobs.append(Job(
                f"normalize/{name}/{n}",
                lambda w=w, m=m: trace_core.normalize(w, m).letters,
                lambda out, w=w, rel=rel: ck.check_normal_form(w, out, rel),
            ))
        for same in (True, False):
            w1 = random_word(rng, rel.events, 120)
            w2 = shuffle_equivalent(rng, w1, rel, 600)
            if not same:
                w2 = shuffle_equivalent(rng, break_equivalence(w2, rel), rel, 600)
            jobs.append(Job(
                f"equivalent/{name}/120",
                lambda w1=w1, w2=w2, m=m: trace_core.equivalent(w1, w2, m),
                lambda out, w1=w1, w2=w2, rel=rel: ck.check_equivalent(w1, w2, out, rel),
            ))
        tname = names[(i + 1) % len(names)]
        image = gen_hom(rng, docs[name], docs[tname])
        h = trace_core.make_hom(m, monoids[tname], image)
        w = random_word(rng, rel.events, 160)
        jobs.append(Job(
            f"apply_word/{name}->{tname}/160",
            lambda w=w, h=h: trace_core.apply_word(h, w).letters,
            lambda out, w=w, image=image, t=rels[tname]: ck.check_apply_word(w, image, out, t),
        ))
    return jobs


# ---------------------------------------------------------------------------
# constructions


def constructions(rng, workdir, root):
    # two independent draws of every input, so that the round's quantiles
    # rest on more than one draw of each construction
    return [job for part in range(2) for job in constructions_part(rng, workdir, part)]


def constructions_part(rng, workdir, part):
    docs = {}
    # six monoids of fixed size: (events, independent pairs)
    sizes = [(3, 1), (3, 2), (2, 1), (3, 1), (2, 0), (3, 2)]
    for i, (n, k) in enumerate(sizes):
        docs[f"m{i}"] = gen_monoid(rng, [f"{c}{i}" for c in "abc"[:n]], k)
    # parallel pairs for coequalize, and monoid diagrams
    for j in "12":
        docs["cs" + j] = gen_monoid(rng, ["p", "q", "r"], 1)
        docs["ct" + j] = gen_monoid(rng, ["s", "t", "u", "v"], 3)
        for h in ("f", "g"):
            docs[h + j] = {"kind": "hom", "source": "cs" + j, "target": "ct" + j,
                           "image": gen_hom(rng, docs["cs" + j], docs["ct" + j])}
    shapes = {"span": SPAN, "cospan": COSPAN, "pair": PAIR}
    for sname, (objects, arrows) in shapes.items():
        docs[f"shape_{sname}"] = shape_doc(objects, arrows)
        on = {o: f"{sname}_{o}" for o in objects}
        for o in objects:
            docs[on[o]] = gen_monoid(rng, [f"{c}_{sname}{o[0]}" for c in "abc"], 1)
        homs = {}
        for a, s, t in arrows:
            homs[a] = f"{sname}_{a}"
            docs[homs[a]] = {"kind": "hom", "source": on[s], "target": on[t],
                             "image": gen_hom(rng, docs[on[s]], docs[on[t]])}
        docs[f"d_{sname}"] = diagram_doc(f"shape_{sname}", "monoid", on, homs)
    # spaces over one monoid, and a cospan of spaces by equivariant maps
    docs["sm"] = gen_monoid(rng, ["x", "y", "z"], 1)
    srel = Rel.of(docs["sm"])
    base_states = [f"t{i}" for i in range(3)]
    base = gen_action(rng, srel, base_states, 0.7)
    shifts = {e: rng.randrange(6) for e in srel.events}
    covers = {}
    for name, mod in (("S0", 2), ("S1", 3), ("S2", 6)):
        states, action, proj = cover(base_states, base, shifts, mod)
        covers[name] = (states, action, proj)
        docs[name] = space_doc("sm", states, action)
    docs["T"] = space_doc("sm", base_states, base)
    ident = {e: e for e in srel.events}
    for name in ("S0", "S1"):
        docs[f"p{name}"] = {"kind": "space_morphism", "source": name, "target": "T", "events": ident,
                            "states": covers[name][2]}
    docs["d_spaces"] = diagram_doc("shape_cospan", "space", {"left": "S0", "right": "S1", "apex": "T"},
                                   {"l": "pS0", "r": "pS1"})
    # systems: the same covers with initial states, and the six-fold cover
    sys_mon = docs["sm"]
    for name in ("S0", "S1"):
        states, action, _ = covers[name]
        docs[f"A{name[1]}"] = system_doc(sys_mon, states, states[0], action)
    docs["AT"] = system_doc(sys_mon, base_states, base_states[0], base)
    for name in ("A0", "A1"):
        docs[f"q{name}"] = {"kind": "system_morphism", "source": name, "target": "AT", "events": ident,
                            "states": covers["S" + name[1]][2]}
    docs["d_systems"] = diagram_doc("shape_cospan", "system", {"left": "A0", "right": "A1", "apex": "AT"},
                                    {"l": "qA0", "r": "qA1"})
    states, action, _ = covers["S2"]
    docs["A2"] = system_doc(sys_mon, states, states[0], action)
    bundles = Bundles(workdir, f"constructions{part}-", docs)

    jobs = []

    def product(objs, cat):
        par = cat == "fpcm-par"
        factors = [docs[o] for o in objs]
        jobs.append(bundles.job(f"monoid product {len(objs)} {cat}", "monoid product", ["--objects", *objs, "--category", cat],
                            lambda out: ck.check_product_doc(out, factors, par)))

    product(["m0", "m1"], "fpcm")
    product(["m2", "m3"], "fpcm-par")
    product(["m0", "m2", "m4"], "fpcm")
    product(["m1", "m3", "m5"], "fpcm-par")
    for cat in ("fpcm", "fpcm-par"):
        product(["m0", "m2", "m3", "m4"], cat)
        product(["m1", "m2", "m4", "m5"], cat)

    def coproduct(out, objs):
        res = Rel.of(out["documents"]["result"])
        ck.fail_if(len(res.events) != sum(len(docs[o]["events"]) for o in objs), "coproduct event count")
        ck.fail_if(res.pair_count() != sum(len(docs[o]["independence"]) for o in objs), "coproduct pair count")
        for i in range(len(objs)):
            ck.check_hom_doc(out["documents"], f"inj_{i}", True)

    for objs, cat in ((["m0", "m1", "m2"], "fpcm"), (["m3", "m4", "m5"], "fpcm-par")):
        jobs.append(bundles.job(f"monoid coproduct 3 {cat}", "monoid coproduct",
                                ["--objects", *objs, "--category", cat], lambda out, o=objs: coproduct(out, o)))

    for j, cat in itertools.product("12", ("fpcm", "fpcm-par")):
        def coeq(out, j=j, par=cat == "fpcm-par"):
            want = ck.coequalizer_classes(docs["f" + j]["image"], docs["g" + j]["image"], Rel.of(docs["ct" + j]), par)
            ck.fail_if(out["summary"]["classes"] != want, "coequalizer classes differ from graph search")
            ck.check_hom_doc(out["documents"], "quotient", par)

        jobs.append(bundles.job(f"monoid coequalize {cat}", "monoid coequalize",
                                ["--left", "f" + j, "--right", "g" + j, "--category", cat], coeq))

    for kind in ("limit", "colimit"):
        for sname, (objects, arrows) in shapes.items():
            for cat in ("fpcm", "fpcm-par"):
                arrow_data = [(a, s, t, docs[f"{sname}_{a}"]["image"]) for a, s, t in arrows]

                def cone(out, arrow_data=arrow_data, objects=objects, par=cat == "fpcm-par", co=kind == "colimit"):
                    ck.check_monoid_cone(out, arrow_data, objects, par, co)

                jobs.append(bundles.job(f"monoid {kind} {sname} {cat}", f"monoid {kind}",
                                        ["--diagram", f"d_{sname}", "--category", cat], cone))

    def space_result(out, legs, count=None):
        d = out["documents"]
        ck.space_diamond(d["result"], Rel.of(d[d["result"]["monoid"]]))
        for leg in legs:
            ck.space_leg(d, leg)
        if count is not None:
            ck.fail_if(len(d["result"]["states"]) != count, "product state count")

    n0, n1 = len(covers["S0"][0]), len(covers["S1"][0])
    jobs.append(bundles.job("space product 2", "space product", ["--objects", "S0", "S1"],
                        lambda out: space_result(out, ["proj_0", "proj_1"], (n0 + 1) * (n1 + 1) - 1)))
    jobs.append(bundles.job("space limit cospan", "space limit", ["--diagram", "d_spaces"],
                        lambda out: space_result(out, ["leg_left", "leg_right", "leg_apex"])))

    def system_result(out, legs):
        d = out["documents"]
        ck.system_diamond(d["result"])
        for leg in legs:
            ck.system_leg(d, leg)

    jobs.append(bundles.job("asys product 2", "asys product", ["--objects", "A0", "A1"],
                        lambda out: system_result(out, ["proj_o0", "proj_o1"])))
    jobs.append(bundles.job("asys limit cospan", "asys limit", ["--diagram", "d_systems"],
                        lambda out: system_result(out, ["leg_left", "leg_right", "leg_apex"])))

    def reach(out, system):
        want = ck.reachable(docs[system])
        ck.fail_if(set(out["summary"]["states"]) != want, "reachable states differ from breadth-first search")

    for system in ("A0", "A2"):
        jobs.append(bundles.job("asys reach", "asys reach", ["--system", system],
                                lambda out, a=system: reach(out, a)))
    for system in ("A0", "A1"):
        jobs.append(bundles.job("asys unfold 3", "asys unfold", ["--system", system, "--depth", "3"],
                                lambda out, a=system: ck.check_unfold(out["summary"]["traces"], docs[a], 3)))
    return jobs


def cover(base_states, base, shifts, mod):
    """``base`` times Z_mod, each event also adding its shift: the diamond
    holds because shifts commute, and the projection to ``base`` is
    equivariant with the identity monoid part."""
    states = [f"{t}k{k}" for t in base_states for k in range(mod)]
    action = {}
    for (t, e), u in base.items():
        for k in range(mod):
            action[(f"{t}k{k}", e)] = f"{u}k{(k + shifts[e]) % mod}"
    proj = {f"{t}k{k}": t for t in base_states for k in range(mod)}
    return states, action, proj


# ---------------------------------------------------------------------------
# colimits


def colimits(rng, workdir, root):
    from asyntrace.state_space import StateSpace
    from asyntrace.trace_core import make_monoid

    docs = {}
    exact = []
    # EXACT: covers of one base space, glued along a span and a parallel
    # pair; two independent draws
    for part in range(2):
        p = f"x{part}"
        docs[p + "M"] = gen_monoid(rng, ["a", "b", "c"], 1)
        rel = Rel.of(docs[p + "M"])
        m = make_monoid(rel.events, docs[p + "M"]["independence"])
        base_states = [f"t{i}" for i in range(4)]
        base = gen_action(rng, rel, base_states, 0.7)
        shifts = {e: rng.randrange(6) for e in rel.events}
        covers = {k: cover(base_states, base, shifts, k) for k in (2, 3, 6)}

        def remap(f, base_states=base_states):
            return {f"{t}k{k}": f"{t}k{f(k)}" for t in base_states for k in range(6)}

        ident = {e: e for e in rel.events}
        diagrams = {
            # the span's maps keep the initial state t0k0; the pair's cannot,
            # so its systems have no initial state
            "span": (SPAN, {"apex": 6, "left": 2, "right": 3}, "t0k0",
                     {"l": remap(lambda k: k % 2), "r": remap(lambda k: k % 3)}),
            "pair": (PAIR, {"src": 6, "dst": 6}, None,
                     {"f": remap(lambda k: k), "g": remap(lambda k: (k + 1) % 6)}),
        }
        for dname, ((objects, arrows), sizes, initial, maps) in diagrams.items():
            docs[f"{p}shape_{dname}"] = shape_doc(objects, arrows)
            for prefix, over in (("s", "space"), ("a", "system")):
                on, arrow_names = {}, {}
                for o in objects:
                    states, action, _ = covers[sizes[o]]
                    on[o] = f"{p}{prefix}{dname}_{o}"
                    if over == "space":
                        docs[on[o]] = space_doc(p + "M", states, action)
                    else:
                        docs[on[o]] = system_doc(docs[p + "M"], states, initial, action)
                for a, src, dst in arrows:
                    arrow_names[a] = f"{p}{prefix}{dname}_{a}"
                    docs[arrow_names[a]] = {"kind": f"{over}_morphism", "source": on[src], "target": on[dst],
                                            "events": ident, "states": maps[a]}
                docs[f"{p}{prefix}d_{dname}"] = diagram_doc(f"{p}shape_{dname}", over, on, arrow_names)
            index = {o: i for i, o in enumerate(objects)}
            spaces = [StateSpace(m, tuple(covers[sizes[o]][0]), dict(covers[sizes[o]][1])) for o in objects]
            glue = [(index[s], index[t], maps[a]) for a, s, t in arrows]
            initials = [(i, STAR if initial is None else initial) for i in range(len(objects))]
            exact.append((f"{p}{{}}d_{dname}", dname, objects, spaces, glue, initials))
    # TRUNCATED: discrete diagrams of two 5-state systems over 3-letter
    # monoids, the free extension cut at the bound
    docs["shape_disc"] = shape_doc(["o0", "o1"])
    for j in range(TRUNCATED_PAIRS):
        for half, letters in enumerate(("abc", "def")):
            mname = f"tm{j}{half}"
            docs[mname] = gen_monoid(rng, [f"{c}{j}" for c in letters], 1)
            states = [f"{'pq'[half]}{j}{i}" for i in range(5)]
            action = gen_action(rng, Rel.of(docs[mname]), states, 0.55)
            docs[f"ts{j}{half}"] = space_doc(mname, states, action)
            docs[f"ta{j}{half}"] = system_doc(docs[mname], states, states[0], action)
        docs[f"tsd{j}"] = diagram_doc("shape_disc", "space", {"o0": f"ts{j}0", "o1": f"ts{j}1"})
        docs[f"tad{j}"] = diagram_doc("shape_disc", "system", {"o0": f"ta{j}0", "o1": f"ta{j}1"})

    bundles = Bundles(workdir, "colimits-", docs)
    jobs = []
    for diagram, dname, objects, spaces, glue, initials in exact:
        for prefix, cmd in (("s", "space"), ("a", "asys")):
            is_system = prefix == "a"
            jobs.append(bundles.job(
                f"{cmd} colimit {dname} EXACT",
                f"{cmd} colimit", ["--diagram", diagram.format(prefix), "--bound", "2"],
                lambda out, o=objects, s=spaces, g=glue, i=initials, y=is_system:
                    ck.check_exact(out, o, s, g, y, i if y else None),
            ))
    for j in range(TRUNCATED_PAIRS):
        for cmd, d, bound in (("asys", "tad", 2), ("space", "tsd", 2), ("asys", "tad", 3)):
            jobs.append(bundles.job(
                f"{cmd} colimit free bound {bound} TRUNCATED",
                f"{cmd} colimit", ["--diagram", f"{d}{j}", "--bound", str(bound)],
                lambda out, b=bound, y=cmd == "asys": ck.check_truncated(out, b, y),
            ))
    return jobs


TRUNCATED_PAIRS = 5


ROUNDS = {"words": words, "constructions": constructions, "colimits": colimits}


def build(workload, seed, workdir: Path, root: Path):
    """The seeded round of jobs of one workload; bundles go to ``workdir``."""
    rng = random.Random(f"{workload}:{seed}")
    return ROUNDS[workload](rng, workdir, root)
