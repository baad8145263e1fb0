"""End-to-end acceptance checks.

Each test prints a single pass/fail line so the suite doubles as a report.
The universal-property checks use a counting argument: a construction is
(co)universal iff composing with its legs is a bijection between candidate
mediating morphisms and test (co)cones, both sides enumerated exhaustively.
"""

import itertools
import json
import random
import time
from typing import NamedTuple

import pytest

from asyntrace import async_system as asys
from asyntrace import cli
from asyntrace import state_space as ss
from asyntrace.diagrams import Diagram, DiagramShape, cospan, discrete, parallel_pair, span
from asyntrace.fpcm_cat import (
    Category,
    TRIVIAL,
    coequalizer,
    colimit as monoid_colimit,
    coproduct,
    equalizer,
    limit as monoid_limit,
    monoids_isomorphic,
    product,
    right_adjoint_R,
)
from asyntrace.state_space import EXACT, StateSpace, validate_morphism, validate_space
from asyntrace.trace_core import (
    STAR,
    compose,
    equivalent,
    free_commutative_monoid,
    free_monoid,
    identity_hom,
    make_hom,
    make_monoid,
    normal_form,
)

import oracles
from oracles import enumerate_homs
from test_async_system import subsystem_inclusion

MUTEX = make_monoid(
    "abcde", [("a", "e"), ("c", "e"), ("d", "e"), ("b", "c"), ("c", "d")]
)

BOTH = (Category.FPCM, Category.FPCM_PAR)


def announce(capsys, label, fn):
    try:
        fn()
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"[acceptance] {label}: PASS")


def test_01_equivalence_vs_bfs_closure(capsys):
    def run():
        start = time.perf_counter()
        m = MUTEX
        assert equivalent(tuple("adecc"), tuple("accde"), m)
        assert normal_form(tuple("adecc"), m) == tuple("accde")

        events = m.events
        ind = {
            (a, b) for a in events for b in events if m.independent(a, b)
        }
        # normal forms for every word of length <= 8, sharing work through a
        # memoized (canonical prefix, letter) step table
        nf_of = {(): ()}
        step = {}
        frontier = [()]
        for _ in range(8):
            nxt = []
            for w in frontier:
                nfw = nf_of[w]
                for x in events:
                    key = (nfw, x)
                    r = step.get(key)
                    if r is None:
                        r = normal_form(nfw + (x,), m)
                        step[key] = r
                    nf_of[w + (x,)] = r
                    nxt.append(w + (x,))
            frontier = nxt

        # the BFS transposition closure, as one global union-find over all
        # words with adjacent independent swaps as edges
        parent = {}

        def find(w):
            root = w
            while parent.get(root, root) != root:
                root = parent[root]
            while parent.get(w, w) != root:
                parent[w], w = root, parent[w]
            return root

        for w in nf_of:
            for i in range(len(w) - 1):
                if (w[i], w[i + 1]) in ind:
                    w2 = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
                    r1, r2 = find(w), find(w2)
                    if r1 != r2:
                        parent[r2] = r1

        # the two partitions agree iff the maps root -> nf and nf -> root are
        # both functions
        root_to_nf = {}
        nf_to_root = {}
        for w, nfw in nf_of.items():
            r = find(w)
            assert root_to_nf.setdefault(r, nfw) == nfw
            assert nf_to_root.setdefault(nfw, r) == r
        assert len(nf_of) == sum(len(events) ** k for k in range(9))
        assert time.perf_counter() - start < 10.0

    announce(capsys, "1 trace equivalence agrees with transposition closure", run)


def test_02_product_example(capsys):
    def run():
        start = time.perf_counter()
        res = product([free_monoid("a"), free_monoid("b")], Category.FPCM)
        assert len(res.monoid.events) == 3
        assert len(res.monoid.pairs()) == 3
        assert monoids_isomorphic(res.monoid, free_commutative_monoid("xyz")) is not None
        assert time.perf_counter() - start < 1.0

    announce(capsys, "2 product of two free generators", run)


def test_03_coequalizer_example(capsys):
    def run():
        start = time.perf_counter()
        src = make_monoid("ab", [("a", "b")])
        tgt = make_monoid("cde", [("c", "d"), ("d", "e")])
        f = make_hom(src, tgt, {"a": "c", "b": "d"})
        g = make_hom(src, tgt, {"a": "d", "b": "e"})
        res = coequalizer(f, g)
        assert len(res.monoid.events) == 1
        assert monoids_isomorphic(res.monoid, free_commutative_monoid("z")) is not None
        assert coequalizer(f, g, Category.FPCM_PAR).monoid == TRIVIAL
        assert time.perf_counter() - start < 1.0

    announce(capsys, "3 coequalizer examples in both categories", run)


# -- criterion 4 helpers ------------------------------------------------------


def _signature(homs):
    return tuple(h.image for h in homs)


def _check_bijection(candidates, legs_of, cones):
    """Universal property by counting: composing with the legs must send the
    candidate mediating morphisms bijectively onto the test (co)cones."""
    sigs = [_signature(legs_of(u)) for u in candidates]
    assert len(set(sigs)) == len(sigs), "mediating morphism not unique"
    assert set(sigs) == set(cones), "cone without a unique mediating morphism"


def _check_product(rng, flag):
    ms = [oracles.random_monoid(rng, 3) for _ in range(2)]
    res = product(ms, flag)
    x = oracles.random_monoid(rng, 2, prefix="x")
    hs = [enumerate_homs(x, m, flag) for m in ms]
    cones = {
        _signature(pair) for pair in itertools.product(*hs)
    }
    candidates = enumerate_homs(x, res.monoid, flag)
    _check_bijection(
        candidates,
        lambda u: [compose(p, u) for p in res.projections],
        cones,
    )
    return res.monoid


def _check_equalizer(rng, flag):
    m1 = oracles.random_monoid(rng, 3)
    m2 = oracles.random_monoid(rng, 3, prefix="t")
    pool = enumerate_homs(m1, m2, flag)
    f, g = rng.choice(pool), rng.choice(pool)
    sub, incl = equalizer(f, g, flag)
    x = oracles.random_monoid(rng, 2, prefix="x")
    cones = {
        _signature([h])
        for h in enumerate_homs(x, m1, flag)
        if compose(f, h).image == compose(g, h).image
    }
    candidates = enumerate_homs(x, sub, flag)
    _check_bijection(candidates, lambda u: [compose(incl, u)], cones)
    return sub


def _check_coproduct(rng, flag):
    ms = [oracles.random_monoid(rng, 3) for _ in range(2)]
    res = coproduct(ms, flag)
    x = oracles.random_monoid(rng, 2, prefix="x")
    cones = {
        _signature(pair)
        for pair in itertools.product(*[enumerate_homs(m, x, flag) for m in ms])
    }
    candidates = enumerate_homs(res.monoid, x, flag)
    _check_bijection(
        candidates,
        lambda u: [compose(u, inj) for inj in res.injections],
        cones,
    )
    return res.monoid


def _check_coequalizer(rng, flag):
    m1 = oracles.random_monoid(rng, 3)
    m2 = oracles.random_monoid(rng, 3, prefix="t")
    pool = enumerate_homs(m1, m2, flag)
    f, g = rng.choice(pool), rng.choice(pool)
    res = coequalizer(f, g, flag)
    x = oracles.random_monoid(rng, 2, prefix="x")
    cones = {
        _signature([h])
        for h in enumerate_homs(m2, x, flag)
        if compose(h, f).image == compose(h, g).image
    }
    candidates = enumerate_homs(res.monoid, x, flag)
    _check_bijection(candidates, lambda u: [compose(u, res.quotient)], cones)
    return res.monoid


def _random_diagram(rng, flag):
    if rng.random() < 0.5:
        shape = parallel_pair()
        m1 = oracles.random_monoid(rng, 2)
        m2 = oracles.random_monoid(rng, 2, prefix="t")
        pool = enumerate_homs(m1, m2, flag)
        return Diagram(
            shape,
            {"src": m1, "dst": m2},
            {"f": rng.choice(pool), "g": rng.choice(pool)},
        )
    shape = span()
    apex = oracles.random_monoid(rng, 2)
    left = oracles.random_monoid(rng, 2, prefix="l")
    right = oracles.random_monoid(rng, 2, prefix="r")
    return Diagram(
        shape,
        {"apex": apex, "left": left, "right": right},
        {
            "l": rng.choice(enumerate_homs(apex, left, flag)),
            "r": rng.choice(enumerate_homs(apex, right, flag)),
        },
    )


def _diagram_cones(d, x, flag):
    objs = list(d.shape.objects)
    pools = [enumerate_homs(x, d.on_objects[o], flag) for o in objs]
    out = set()
    for combo in itertools.product(*pools):
        legs = dict(zip(objs, combo))
        if all(
            compose(d.on_arrows[name], legs[s]).image == legs[t].image
            for name, s, t in d.shape.arrows
        ):
            out.add(_signature([legs[o] for o in objs]))
    return out


def _diagram_cocones(d, x, flag):
    objs = list(d.shape.objects)
    pools = [enumerate_homs(d.on_objects[o], x, flag) for o in objs]
    out = set()
    for combo in itertools.product(*pools):
        legs = dict(zip(objs, combo))
        if all(
            compose(legs[t], d.on_arrows[name]).image == legs[s].image
            for name, s, t in d.shape.arrows
        ):
            out.add(_signature([legs[o] for o in objs]))
    return out


def _check_limit(rng, flag):
    d = _random_diagram(rng, flag)
    cone = monoid_limit(d, flag)
    assert oracles.leg_problems(cone, "monoid") == []
    x = oracles.random_monoid(rng, 2, prefix="x")
    objs = list(d.shape.objects)
    candidates = enumerate_homs(x, cone.apex, flag)
    _check_bijection(
        candidates,
        lambda u: [compose(cone.legs[o], u) for o in objs],
        _diagram_cones(d, x, flag),
    )
    return cone.apex


def _check_colimit(rng, flag):
    d = _random_diagram(rng, flag)
    cocone = monoid_colimit(d, flag)
    assert oracles.leg_problems(cocone, "monoid") == []
    x = oracles.random_monoid(rng, 2, prefix="x")
    objs = list(d.shape.objects)
    candidates = enumerate_homs(cocone.apex, x, flag)
    _check_bijection(
        candidates,
        lambda u: [compose(u, cocone.legs[o]) for o in objs],
        _diagram_cocones(d, x, flag),
    )
    return cocone.apex


def test_04_universal_properties(capsys):
    def run():
        start = time.perf_counter()
        rng = random.Random(20240817)
        outputs = []
        checks = (
            (_check_product, 20),
            (_check_equalizer, 15),
            (_check_coproduct, 15),
            (_check_coequalizer, 15),
            (_check_limit, 20),
            (_check_colimit, 20),
        )
        total = 0
        for fn, per_flag in checks:
            for flag in BOTH:
                for _ in range(per_flag):
                    outputs.append(fn(rng, flag))
                    total += 1
        assert total >= 200
        assert time.perf_counter() - start < 60.0

    announce(capsys, "4 universal properties on randomized instances", run)


def test_05_right_adjoint(capsys):
    def run():
        start = time.perf_counter()
        c2 = right_adjoint_R(["1", "g"], [["1", "g"], ["g", "1"]])
        assert c2.monoid.events == ("g",) and c2.monoid.pairs() == []
        c3 = right_adjoint_R(
            ["1", "g", "h"],
            [["1", "g", "h"], ["g", "h", "1"], ["h", "1", "g"]],
        )
        assert len(c3.monoid.events) == 2
        assert monoids_isomorphic(c3.monoid, free_commutative_monoid("gh")) is not None

        # couniversality: monoid homs from a trace monoid into the carrier
        # correspond one to one with basic homs into R(carrier)
        sources = [
            free_monoid("a"),
            free_monoid("ab"),
            make_monoid("ab", [("a", "b")]),
        ]
        tables = [
            (["1", "g"], [["1", "g"], ["g", "1"]]),
            (["1", "g", "h"], [["1", "g", "h"], ["g", "h", "1"], ["h", "1", "g"]]),
        ]
        for elements, table in tables:
            res = right_adjoint_R(elements, table)
            idx = {x: i for i, x in enumerate(elements)}

            def mul(x, y):
                return table[idx[x]][idx[y]]

            for n in sources:
                monoid_homs = [
                    dict(zip(n.events, combo))
                    for combo in itertools.product(elements, repeat=len(n.events))
                    if all(
                        mul(dict(zip(n.events, combo))[a], dict(zip(n.events, combo))[b])
                        == mul(dict(zip(n.events, combo))[b], dict(zip(n.events, combo))[a])
                        for a, b in n.pairs()
                    )
                ]
                basic = enumerate_homs(n, res.monoid)
                for phi in monoid_homs:
                    hits = [
                        psi
                        for psi in basic
                        if all(
                            (res.identity if psi(e) is None else res.counit[psi(e)])
                            == phi[e]
                            for e in n.events
                        )
                    ]
                    assert len(hits) == 1
        assert time.perf_counter() - start < 5.0

    announce(capsys, "5 right adjoint on cyclic group tables plus couniversality", run)


def test_06_round_trip(capsys):
    def run():
        start = time.perf_counter()
        rng = random.Random(6)
        for _ in range(500):
            a = oracles.random_system(rng, max_states=6, max_events=4)
            space, init = StateSpace(a.monoid, a.states, a.action), a.initial
            assert asys.make_system(space.states, init, space.monoid, space.action) == a
        assert time.perf_counter() - start < 10.0

    announce(capsys, "6 system/state-space round trip on 500 random systems", run)


def test_07_polygonal_criterion(capsys):
    def run():
        start = time.perf_counter()
        rng = random.Random(77)
        for _ in range(200):
            b = oracles.random_system(rng, max_states=5, max_events=3)
            _, m = subsystem_inclusion(rng, b)
            assert not asys.morphism_violations(m)
            assert asys.is_polygonal(m) == (validate_morphism(m) == [])

        # the witness: a source that only declares the event against a target
        # that performs it
        src = asys.make_system(["s0"], "s0", free_monoid("a"), {})
        tgt = asys.make_system(
            ["t0", "t1"], "t0", free_monoid("a"), {("t0", "a"): "t1"}
        )
        m = asys.make_morphism(src, tgt, {"a": "a"}, {"s0": "t0"})
        assert not asys.morphism_violations(m)
        assert not asys.is_polygonal(m)
        assert time.perf_counter() - start < 10.0

    announce(capsys, "7 polygonal criterion matches equivariance plus witness", run)


def test_08_colimit_soundness(capsys):
    def run():
        start = time.perf_counter()
        rng = random.Random(88)
        m = make_monoid("ab", [("a", "b")])
        done = 0
        while done < 100:
            s1 = oracles.random_space(rng, m, max_states=4, prefix="x")
            s2 = oracles.random_space(rng, m, max_states=4, prefix="y")
            smap = oracles.random_equivariant_map(rng, s1, s2, tries=40)
            if smap is None:
                smap = {x: STAR for x in s1.states}
            mor = ss.make_space_morphism(s1, s2, identity_hom(m), smap)
            arrows = {"f": mor}
            shape_arrows = [("f", "A", "B")]
            smap2 = oracles.random_equivariant_map(rng, s1, s2, tries=40)
            if smap2 is not None and rng.random() < 0.5:
                arrows["g"] = ss.make_space_morphism(s1, s2, identity_hom(m), smap2)
                shape_arrows.append(("g", "A", "B"))
            shape = DiagramShape(("A", "B"), tuple(shape_arrows))
            d = Diagram(shape, {"A": s1, "B": s2}, arrows)
            res = ss.colimit(d)
            assert res.saturation.status == EXACT
            maps = [(0, 1, smap)]
            if "g" in arrows:
                maps.append((0, 1, arrows["g"].state_part))
            classes, action = oracles.pointed_quotient([s1, s2], maps)
            got = {}
            for i, s in enumerate((s1, s2)):
                for x in s.states:
                    cls = res.saturation.class_map[f"{i}:{x}"]
                    got.setdefault(cls, set()).add((i, x))
            got.pop(STAR, None)
            assert classes == frozenset(frozenset(v) for v in got.values())
            # actions agree under the class correspondence
            by_members = {frozenset(v): k for k, v in got.items()}
            rename = res.cocone.legs["A"].monoid_part
            for cls in classes:
                state = by_members[cls]
                for e in m.events:
                    img = action[(cls, e)]
                    lib = res.saturation.space.step(state, rename(e))
                    if img is None:
                        assert lib == STAR
                    else:
                        assert lib == by_members[img]
            done += 1

        # coproducts of systems glue initial states
        for _ in range(20):
            a = oracles.random_system(rng, max_states=4, max_events=2)
            b = oracles.random_system(rng, max_states=4, max_events=2)
            d = Diagram(discrete(2), {"o0": a, "o1": b}, {})
            cocone, sat = asys.colimit(d, bound=3)
            assert sat.class_map[f"0:{a.initial}"] == sat.class_map[f"1:{b.initial}"]

        # saturation is monotone in the bound
        p = ss.PresentedAction(m, ("g",), ())
        prev = None
        for bound in range(1, 5):
            states = set(ss.saturate(p, bound).space.states)
            if prev is not None:
                assert prev <= states
            prev = states
        assert time.perf_counter() - start < 30.0

    announce(capsys, "8 colimit saturation matches the congruence oracle", run)


def test_09_structural_validity(capsys):
    def run():
        rng = random.Random(99)
        for _ in range(40):
            a = oracles.random_system(rng, max_states=4, max_events=3)
            b = oracles.random_system(rng, max_states=4, max_events=3)
            cone = asys.product([a, b])
            assert asys.validate_system(cone.apex) == []
            for leg in cone.legs.values():
                assert not asys.morphism_violations(leg)
            r = asys.reachable(cone.apex)
            assert asys.validate_system(r) == []

            m = oracles.random_monoid(rng, 3)
            s1 = oracles.random_space(rng, m, max_states=4, prefix="p")
            s2 = oracles.random_space(rng, m, max_states=4, prefix="q")
            res = ss.product([s1, s2])
            assert validate_space(res.space) == []
            for proj in res.projections:
                assert validate_morphism(proj) == []

            d = Diagram(discrete(2), {"o0": a, "o1": b}, {})
            cocone, sat = asys.colimit(d, bound=3)
            assert asys.validate_system(cocone.apex) == []
            assert validate_space(sat.space) == []
            for leg in cocone.legs.values():
                assert not asys.morphism_violations(leg)

    announce(capsys, "9 all construction outputs validate", run)


# -- criterion 11: system (co)limits among polygonal morphisms -------------


class _SystemSignature(NamedTuple):
    """A system morphism's event and state images, under the attribute name
    that ``_signature`` reads."""

    image: tuple


def _system_signature(m):
    return _SystemSignature((
        m.monoid_part.image,
        tuple(m.state(s) for s in m.source.states),
    ))


TEST_OBJECTS = 4  # test systems tried against each (co)limit
DRAWS = 200  # random diagrams drawn before a check gives up


def _tiny_system(rng):
    """At most 2 states and 2 events; one in four has the star initial."""
    a = oracles.random_system(rng, max_states=2, max_events=2)
    return asys.WeakAsyncSystem(a.monoid, a.states, a.action, STAR) if rng.random() < 0.25 else a


def _polygonal(a, b):
    return list(oracles.enumerate_system_morphisms(a, b, polygonal=True))


def _random_system_diagram(rng, shape):
    """Tiny systems on the objects of ``shape`` and random polygonal
    morphisms on its arrows, redrawn until every arrow has one."""
    for _ in range(DRAWS):
        objs = {o: _tiny_system(rng) for o in shape.objects}
        arrows = {}
        for name, src, dst in shape.arrows:
            pool = _polygonal(objs[src], objs[dst])
            if not pool:
                break
            arrows[name] = rng.choice(pool)
        else:
            return Diagram(shape, objs, arrows)
    pytest.fail(f"no diagram with polygonal arrows in {DRAWS} draws")


def _system_cones(d, x, co):
    """Signatures of the polygonal (co)cones between ``x`` and ``d``."""
    objs = list(d.shape.objects)
    pools = [_polygonal(d.on_objects[o], x) if co else _polygonal(x, d.on_objects[o]) for o in objs]
    out = set()
    for combo in itertools.product(*pools):
        legs = dict(zip(objs, combo))
        if all(
            _system_signature(
                oracles.compose_morphisms(legs[t], d.on_arrows[name]) if co
                else oracles.compose_morphisms(d.on_arrows[name], legs[s])
            ) == _system_signature(legs[s] if co else legs[t])
            for name, s, t in d.shape.arrows
        ):
            out.add(_signature([_system_signature(legs[o]) for o in objs]))
    return out


def _test_objects(rng, d, co):
    """``TEST_OBJECTS`` test systems with their (co)cones over ``d``; each is
    redrawn, at most ``DRAWS`` times, until it has a (co)cone."""
    out = []
    for _ in range(TEST_OBJECTS):
        for _ in range(DRAWS):
            x = _tiny_system(rng)
            cones = _system_cones(d, x, co)
            if cones:
                break
        out.append((x, cones))
    return out


def _check_system_limit(rng, shape):
    """Check the limit of a random diagram against its test objects; return
    how many of the checks compared non-empty sets of cones."""
    d = _random_system_diagram(rng, shape)
    cone = asys.limit(d)
    assert all(asys.is_polygonal(leg) for leg in cone.legs.values())
    objs = list(d.shape.objects)
    tests = _test_objects(rng, d, co=False)
    for x, cones in tests:
        _check_bijection(
            _polygonal(x, cone.apex),
            lambda u: [_system_signature(oracles.compose_morphisms(cone.legs[o], u)) for o in objs],
            cones,
        )
    return sum(1 for _, cones in tests if cones)


def _check_system_colimit(rng, shape):
    """As ``_check_system_limit``, for an EXACT colimit."""
    for _ in range(DRAWS):
        d = _random_system_diagram(rng, shape)
        cocone, sat = asys.colimit(d, bound=4)
        if sat.status == EXACT:
            break
    else:
        pytest.fail(f"no EXACT colimit in {DRAWS} draws")
    assert all(asys.is_polygonal(leg) for leg in cocone.legs.values())
    objs = list(d.shape.objects)
    tests = _test_objects(rng, d, co=True)
    for x, cones in tests:
        _check_bijection(
            _polygonal(cocone.apex, x),
            lambda u: [_system_signature(oracles.compose_morphisms(u, cocone.legs[o])) for o in objs],
            cones,
        )
    return sum(1 for _, cones in tests if cones)


def test_11_system_universal_properties(capsys):
    def run():
        start = time.perf_counter()
        rng = random.Random(20261018)
        checks = (
            (_check_system_limit, discrete(2), 40),
            (_check_system_limit, parallel_pair(), 30),
            (_check_system_limit, span(), 30),
            (_check_system_limit, cospan(), 30),
            (_check_system_colimit, discrete(2), 30),
            (_check_system_colimit, parallel_pair(), 40),
        )
        counted = 0
        for fn, shape, count in checks:
            for _ in range(count):
                counted += fn(rng, shape)
        total = TEST_OBJECTS * sum(count for _, _, count in checks)
        assert counted >= 0.9 * total, f"only {counted} of {total} checks compare non-empty sets of cones"
        assert time.perf_counter() - start < 60.0

    announce(capsys, "11 system limits and EXACT colimits are universal among polygonal morphisms", run)


CLI_RUNS = [
    ["normalize", "mutex.json", "--monoid", "mutex", "--word", "adecc"],
    [
        "equiv",
        "mutex.json",
        "--monoid",
        "mutex",
        "--left",
        "adecc",
        "--right",
        "accde",
    ],
    ["monoid", "product", "product.json", "--objects", "ma", "mb"],
    ["monoid", "coequalize", "coequalizer.json", "--left", "f", "--right", "g"],
    [
        "monoid",
        "coequalize",
        "coequalizer.json",
        "--left",
        "f",
        "--right",
        "g",
        "--category",
        "fpcm-par",
    ],
    ["asys", "product", "systems.json", "--objects", "A", "B"],
    ["asys", "colimit", "systems.json", "--diagram", "pair", "--bound", "3"],
]


def test_10_cli_determinism(capsys, fixtures_dir, tmp_path):
    def run():
        for i, args in enumerate(CLI_RUNS):
            for fmt in ("text", "json"):
                outs = []
                for attempt in range(2):
                    path = tmp_path / f"out_{i}_{fmt}_{attempt}"
                    argv = list(args)
                    argv[argv.index([a for a in args if a.endswith(".json")][0])] = str(
                        fixtures_dir / [a for a in args if a.endswith(".json")][0]
                    )
                    argv += ["--format", fmt, "--output", str(path)]
                    assert cli.main(argv) == 0
                    outs.append(path.read_bytes())
                assert outs[0] == outs[1]
                assert outs[0]

    announce(capsys, "10 CLI output is byte-identical across runs", run)
