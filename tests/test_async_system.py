import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from asyntrace.async_system import (
    ATS,
    BEDNARCZYK,
    WEAK,
    SystemMorphism,
    WeakAsyncSystem,
    classify,
    colimit,
    compose_system_morphisms,
    event_hom,
    from_state_space,
    induced_space_morphism,
    is_morphism,
    is_polygonal,
    limit,
    make_morphism,
    make_system,
    morphism_violations,
    product,
    reachable,
    unfold,
)
from asyntrace.diagrams import Diagram, DiagramShape, discrete
from asyntrace.errors import InvalidBound, InvalidSystem, MalformedDiagram, NotAMorphism, TraceError
from asyntrace.fpcm_cat import Category
from asyntrace.state_space import EXACT, TRUNCATED, validate_morphism
from asyntrace.trace_core import (
    STAR,
    free_monoid,
    is_independence_preserving,
    make_monoid,
)

import oracles

IND = make_monoid("ab", [("a", "b")])


def diamond_system():
    return make_system(
        ["x00", "x10", "x01", "x11"],
        "x00",
        IND,
        {
            ("x00", "a"): "x10",
            ("x00", "b"): "x01",
            ("x10", "b"): "x11",
            ("x01", "a"): "x11",
        },
    )


def chain(events, prefix):
    m = free_monoid(events)
    states = [f"{prefix}{i}" for i in range(len(events) + 1)]
    trans = {(states[i], e): states[i + 1] for i, e in enumerate(events)}
    return make_system(states, states[0], m, trans)


class TestValidation:
    def test_diamond_accepted(self):
        assert diamond_system().states == ("x00", "x10", "x01", "x11")

    def test_half_diamond_rejected(self):
        with pytest.raises(TraceError):
            make_system(
                ["x", "y", "z"],
                "x",
                IND,
                {("x", "a"): "y", ("y", "b"): "z"},
            )

    def test_both_orientations_checked(self):
        # closed under a-then-b but not b-then-a
        with pytest.raises(TraceError):
            make_system(
                ["x", "y", "z", "w"],
                "x",
                IND,
                {
                    ("x", "b"): "y",
                    ("y", "a"): "z",
                    ("x", "a"): "w",
                },
            )

    def test_unknown_initial_rejected(self):
        with pytest.raises(TraceError):
            make_system(["x"], "nope", IND, {})

    def test_transition_key_that_is_not_a_pair_is_invalid_system(self):
        with pytest.raises(InvalidSystem, match=r"action key \('x', 'a', 'b'\) is not a \(state, event\) pair"):
            make_system(["x"], "x", free_monoid("ab"), {("x", "a", "b"): "x"})

    def test_star_initial_allowed(self):
        a = make_system(["x"], STAR, IND, {})
        assert a.initial == STAR


class TestClassify:
    def test_weak_without_initial(self):
        assert classify(make_system(["x"], STAR, IND, {})) == WEAK

    def test_bednarczyk_with_unused_event(self):
        a = make_system(["x", "y"], "x", IND, {("x", "a"): "y"})
        assert classify(a) == BEDNARCZYK

    def test_ats_when_every_event_occurs(self):
        assert classify(diamond_system()) == ATS


class TestRoundTrip:
    def test_identity_on_diamond(self):
        a = diamond_system()
        s, init = a.space, a.initial
        assert from_state_space(s, init) == a

    def test_identity_on_random_systems(self):
        rng = random.Random(3)
        for _ in range(50):
            a = oracles.random_system(rng)
            s, init = a.space, a.initial
            assert from_state_space(s, init) == a


class TestMorphisms:
    def test_projection_style_morphism(self):
        a = diamond_system()
        b = chain("a", "t")
        m = make_morphism(
            a,
            b,
            {"a": "a", "b": None},
            {"x00": "t0", "x01": "t0", "x10": "t1", "x11": "t1"},
        )
        assert is_morphism(m)
        assert is_independence_preserving(event_hom(m))

    def test_initial_condition_violated(self):
        from asyntrace.async_system import SystemMorphism

        a = chain("a", "s")
        b = chain("a", "t")
        m = SystemMorphism(a, b, {"a": "a"}, {"s0": "t1", "s1": STAR})
        assert any("condition 1" in v for v in morphism_violations(m))

    def test_transition_condition_violated(self):
        a = chain("a", "s")
        b = chain("a", "t")
        from asyntrace.async_system import SystemMorphism

        m = SystemMorphism(a, b, {"a": "a"}, {"s0": "t0", "s1": "t0"})
        assert any("condition 2" in v for v in morphism_violations(m))

    def test_independence_condition_violated(self):
        a = diamond_system()
        b = chain("ab", "t")  # a, b dependent in the target
        from asyntrace.async_system import SystemMorphism

        m = SystemMorphism(
            a,
            b,
            {"a": "a", "b": "b"},
            {"x00": "t0", "x10": "t1", "x01": STAR, "x11": STAR},
        )
        assert any("condition 3" in v for v in morphism_violations(m))

    def test_erasing_event_keeps_state(self):
        a = chain("a", "s")
        b = make_system(["u"], "u", make_monoid(()), {})
        m = make_morphism(a, b, {"a": None}, {"s0": "u", "s1": "u"})
        assert is_morphism(m)

    def test_compose(self):
        a = chain("a", "s")
        b = chain("a", "t")
        c = chain("a", "u")
        m1 = make_morphism(a, b, {"a": "a"}, {"s0": "t0", "s1": "t1"})
        m2 = make_morphism(b, c, {"a": "a"}, {"t0": "u0", "t1": "u1"})
        m = compose_system_morphisms(m2, m1)
        assert is_morphism(m)
        assert m.state("s1") == "u1"


class TestPolygonal:
    def test_witness_morphism_but_not_polygonal(self):
        # single-state source with an idle event against a target that can
        # actually perform it
        src = make_system(["s0"], "s0", free_monoid("a"), {})
        tgt = chain("a", "t")
        m = make_morphism(src, tgt, {"a": "a"}, {"s0": "t0"})
        assert is_morphism(m)
        assert not is_polygonal(m)

    def test_identity_is_polygonal(self):
        a = diamond_system()
        m = make_morphism(
            a, a, {e: e for e in a.monoid.events}, {s: s for s in a.states}
        )
        assert is_polygonal(m)

    def test_polygonal_iff_space_equivariant(self):
        # for total event and state maps the criterion coincides with the
        # induced map being a state-space morphism
        rng = random.Random(11)
        checked = 0
        for _ in range(200):
            b = oracles.random_system(rng, max_states=5, max_events=3)
            a, m = subsystem_inclusion(rng, b)
            assert is_morphism(m)
            cand = induced_space_morphism(m)
            assert is_polygonal(m) == (validate_morphism(cand) == [])
            checked += 1
        assert checked == 200

    def test_erasing_event_is_reflected(self):
        # y is sent to the identity, so p0 can "do" it while x0 cannot:
        # x0·y = * but f(x0)·1 = p0
        src = make_system(["x0"], "x0", make_monoid("xy", []), {})
        tgt = make_system(["p0"], "p0", make_monoid("a", []), {})
        m = make_morphism(src, tgt, {"x": "a", "y": None}, {"x0": "p0"})
        problems = validate_morphism(induced_space_morphism(m))
        assert any("('x0', 'y')" in p for p in problems)
        assert not is_polygonal(m)

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_polygonal_iff_space_equivariant_over_all_morphisms(self, rng):
        # every morphism between two small random systems, erasing and
        # merging event maps and starred states included
        a = oracles.random_system(rng, max_states=2, max_events=2)
        b = oracles.random_system(rng, max_states=2, max_events=2)
        for m in oracles.enumerate_system_morphisms(a, b):
            cand = induced_space_morphism(m)
            assert is_polygonal(m) == (validate_morphism(cand) == [])

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_polygonal_matches_the_reflection_oracle(self, rng):
        # the oracle decides the conditions and transition reflection from
        # the tables, without the library's morphism or space checks
        a = oracles.random_system(rng, max_states=2, max_events=2)
        b = oracles.random_system(rng, max_states=2, max_events=2)
        every = list(oracles.enumerate_system_morphisms(a, b))
        assert all(is_morphism(m) for m in every)
        maps = itertools.product(
            itertools.product((None, *b.monoid.events), repeat=len(a.monoid.events)),
            itertools.product((*b.states, STAR), repeat=len(a.states)),
        )
        assert len(every) == sum(
            is_morphism(SystemMorphism(a, b, dict(zip(a.monoid.events, e)), dict(zip(a.states, s))))
            for e, s in maps
        )
        poly = [m for m in every if is_polygonal(m)]
        assert _keys(poly) == _keys(oracles.enumerate_system_morphisms(a, b, polygonal=True))


def _keys(morphisms):
    return [(tuple(m.event_part.items()), tuple(m.state_part.items())) for m in morphisms]


def subsystem_inclusion(rng, b):
    """A random subsystem of b (closed under nothing, with transitions
    dropped to restore the diamond) together with its inclusion."""
    from asyntrace.async_system import SystemMorphism

    states = [s for s in b.states if rng.random() < 0.7] or [rng.choice(b.states)]
    kept = set(states)
    trans = {
        (s, e): t
        for (s, e), t in b.transitions.items()
        if s in kept and t in kept and rng.random() < 0.8
    }

    def violation():
        for x, y in b.monoid.pairs():
            for p, q in ((x, y), (y, x)):
                for s in states:
                    s1 = trans.get((s, p))
                    if s1 is None:
                        continue
                    s2 = trans.get((s1, q))
                    if s2 is None:
                        continue
                    mid = trans.get((s, q))
                    if mid is None or trans.get((mid, p)) != s2:
                        return (s1, q)
        return None

    while True:
        v = violation()
        if v is None:
            break
        del trans[v]
    initial = b.initial if b.initial in kept else rng.choice(states)
    a = WeakAsyncSystem(tuple(states), initial, b.monoid, trans)
    # point the source initial at its own image to satisfy condition 1
    bb = WeakAsyncSystem(b.states, initial, b.monoid, dict(b.transitions))
    m = SystemMorphism(
        a, bb, {e: e for e in b.monoid.events}, {s: s for s in states}
    )
    return a, m


class TestProductAndLimit:
    def test_two_chains_interleave(self):
        a = chain("a", "p")
        b = chain("b", "q")
        cone = product([a, b])
        apex = cone.apex
        assert len(apex.states) == 8
        assert apex.initial == "(p0,q0)"
        assert apex.monoid.independent("(a,*)", "(*,b)")
        assert apex.step(apex.step("(p0,q0)", "(a,*)"), "(*,b)") == "(p1,q1)"
        assert apex.step("(p0,q0)", "(a,b)") == "(p1,q1)"
        for leg in cone.legs.values():
            assert is_morphism(leg)
            assert is_polygonal(leg)

    def test_empty_product_is_point(self):
        cone = product([])
        assert cone.apex.states == ()
        assert cone.apex.initial == STAR

    def test_limit_matches_product_on_discrete(self):
        a = chain("a", "p")
        b = chain("b", "q")
        d = Diagram(discrete(2), {"o0": a, "o1": b}, {})
        cone = limit(d)
        assert set(cone.apex.states) == set(product([a, b]).apex.states)

    def test_arrow_that_is_not_polygonal_raises(self):
        # a system morphism whose target can do the event its source idles on
        src = make_system(["s0"], "s0", free_monoid("a"), {})
        m = make_morphism(src, chain("a", "t"), {"a": "a"}, {"s0": "t0"})
        d = Diagram(DiagramShape(("o0", "o1"), (("f", "o0", "o1"),)), {"o0": src, "o1": m.target}, {"f": m})
        with pytest.raises(MalformedDiagram, match="arrow 'f': equivariance violation"):
            limit(d)
        with pytest.raises(MalformedDiagram, match="arrow 'f': equivariance violation"):
            colimit(d, 2)


class TestColimit:
    def test_coproduct_glues_initials(self):
        a = chain("a", "p")
        b = chain("b", "q")
        d = Diagram(discrete(2), {"o0": a, "o1": b}, {})
        cocone, sat = colimit(d, bound=2)
        assert sat.class_map["0:p0"] == sat.class_map["1:q0"]
        assert cocone.apex.initial == sat.class_map["0:p0"]
        for leg in cocone.legs.values():
            assert is_morphism(leg)

    def test_coproduct_without_shared_events_truncates(self):
        # the glued initial can run a then b, which neither component covers,
        # so the free extension keeps growing
        a = chain("a", "p")
        b = chain("b", "q")
        d = Diagram(discrete(2), {"o0": a, "o1": b}, {})
        _, sat = colimit(d, bound=2)
        assert sat.status == TRUNCATED

    def test_star_initial_infects_colimit(self):
        a = make_system(["p"], STAR, free_monoid("a"), {})
        b = chain("b", "q")
        d = Diagram(discrete(2), {"o0": a, "o1": b}, {})
        cocone, sat = colimit(d, bound=3)
        assert cocone.apex.initial == STAR
        assert sat.class_map["1:q0"] == STAR

    def test_self_coequalizer_is_exact(self):
        from asyntrace.async_system import SystemMorphism

        a = make_system(
            ["u", "v"], "u", free_monoid("a"), {("u", "a"): "v", ("v", "a"): "v"}
        )
        ident = SystemMorphism(a, a, {"a": "a"}, {"u": "u", "v": "v"})
        shape = DiagramShape(("x", "y"), (("f", "x", "y"), ("g", "x", "y")))
        d = Diagram(shape, {"x": a, "y": a}, {"f": ident, "g": ident})
        cocone, sat = colimit(d, bound=4)
        assert sat.status == EXACT
        assert len(cocone.apex.states) == 2


class TestExploration:
    def test_reachable_drops_disconnected(self):
        a = make_system(
            ["x", "y", "z"], "x", free_monoid("a"), {("x", "a"): "y"}
        )
        r = reachable(a)
        assert r.states == ("x", "y")
        assert classify(r) == ATS

    def test_reachable_without_initial_is_empty(self):
        a = make_system(["x"], STAR, free_monoid("a"), {})
        assert reachable(a).states == ()

    def test_unfold_dedupes_diamond(self):
        a = diamond_system()
        rows = unfold(a, 2)
        assert rows == [
            ((), "x00"),
            (("a",), "x10"),
            (("a", "b"), "x11"),
            (("b",), "x01"),
        ]

    def test_unfold_depth_zero(self):
        a = diamond_system()
        assert unfold(a, 0) == [((), "x00")]

    def test_unfold_negative_depth_is_invalid_bound(self):
        with pytest.raises(InvalidBound, match="unfold depth must be >= 0, got -1"):
            unfold(diamond_system(), -1)
