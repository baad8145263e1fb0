import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from asyntrace.async_system import (
    ATS,
    BEDNARCZYK,
    WEAK,
    WeakAsyncSystem,
    classify,
    colimit,
    is_polygonal,
    limit,
    make_morphism,
    make_system,
    morphism_violations,
    product,
    reachable,
    unfold,
)
from asyntrace import async_system, state_space
from asyntrace.diagrams import Diagram, DiagramShape, cospan, discrete
from asyntrace.errors import InvalidBound, InvalidSystem, MalformedDiagram, NotAMorphism, TraceError
from asyntrace.fpcm_cat import Category, tag
from asyntrace.state_space import EXACT, TRUNCATED, StateSpace, validate_morphism
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
        s, init = StateSpace(a.monoid, a.states, a.action), a.initial
        assert make_system(s.states, init, s.monoid, s.action) == a

    def test_identity_on_random_systems(self):
        rng = random.Random(3)
        for _ in range(50):
            a = oracles.random_system(rng)
            s, init = StateSpace(a.monoid, a.states, a.action), a.initial
            assert make_system(s.states, init, s.monoid, s.action) == a


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
        assert not morphism_violations(m)
        assert is_independence_preserving(m.monoid_part)

    def test_initial_condition_violated(self):
        a = chain("a", "s")
        b = chain("a", "t")
        m = oracles.system_morphism(a, b, {"a": "a"}, {"s0": "t1", "s1": STAR})
        assert any("condition 1" in v for v in morphism_violations(m))

    def test_transition_condition_violated(self):
        a = chain("a", "s")
        b = chain("a", "t")
        m = oracles.system_morphism(a, b, {"a": "a"}, {"s0": "t0", "s1": "t0"})
        assert any("condition 2" in v for v in morphism_violations(m))

    def test_independence_condition_violated(self):
        a = diamond_system()
        b = chain("ab", "t")  # a, b dependent in the target
        m = oracles.system_morphism(
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
        assert not morphism_violations(m)

    @pytest.mark.parametrize(
        "action, initial, problem",
        [
            ({("x", "z"): "x"}, "x", "source transition ('x', 'z') -> 'x' is not on the source's states and events"),
            ({("q", "a"): "x"}, "x", "source transition ('q', 'a') -> 'x' is not on the source's states and events"),
            ({("x", "a"): "q"}, "x", "source transition ('x', 'a') -> 'q' is not on the source's states and events"),
            ({("x",): "x"}, "x", "source transition ('x',) -> 'x' is not on the source's states and events"),
            ({}, "q", "source initial state 'q' unknown"),
        ],
        ids=["unknown-event", "unknown-state", "unknown-target", "key-not-a-pair", "unknown-initial"],
    )
    def test_unreadable_source_is_not_a_morphism(self, action, initial, problem):
        # a source built without make_system: both checks name the entry
        # instead of reading it
        src = WeakAsyncSystem(free_monoid("a"), ("x",), action, initial)
        tgt = make_system(["x"], "x", free_monoid("a"), {})
        with pytest.raises(NotAMorphism, match=re.escape(problem)):
            make_morphism(src, tgt, {"a": "a"}, {"x": "x"})
        m = oracles.system_morphism(src, tgt, {"a": "a"}, {"x": "x"})
        with pytest.raises(NotAMorphism, match=re.escape(problem)):
            is_polygonal(m)

    def test_compose(self):
        a = chain("a", "s")
        b = chain("a", "t")
        c = chain("a", "u")
        m1 = make_morphism(a, b, {"a": "a"}, {"s0": "t0", "s1": "t1"})
        m2 = make_morphism(b, c, {"a": "a"}, {"t0": "u0", "t1": "u1"})
        m = oracles.compose_morphisms(m2, m1)
        assert not morphism_violations(m)
        assert m.state("s1") == "u1"


class TestPolygonal:
    def test_witness_morphism_but_not_polygonal(self):
        # single-state source with an idle event against a target that can
        # actually perform it
        src = make_system(["s0"], "s0", free_monoid("a"), {})
        tgt = chain("a", "t")
        m = make_morphism(src, tgt, {"a": "a"}, {"s0": "t0"})
        assert not morphism_violations(m)
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
            assert not morphism_violations(m)
            assert is_polygonal(m) == (validate_morphism(m) == [])
            checked += 1
        assert checked == 200

    def test_erasing_event_is_reflected(self):
        # y is sent to the identity, so p0 can "do" it while x0 cannot:
        # x0·y = * but f(x0)·1 = p0
        src = make_system(["x0"], "x0", make_monoid("xy", []), {})
        tgt = make_system(["p0"], "p0", make_monoid("a", []), {})
        m = make_morphism(src, tgt, {"x": "a", "y": None}, {"x0": "p0"})
        problems = validate_morphism(m)
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
            assert is_polygonal(m) == (validate_morphism(m) == [])

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_polygonal_matches_the_reflection_oracle(self, rng):
        # the oracle decides the conditions and transition reflection from
        # the tables, without the library's morphism or space checks
        a = oracles.random_system(rng, max_states=2, max_events=2)
        b = oracles.random_system(rng, max_states=2, max_events=2)
        every = list(oracles.enumerate_system_morphisms(a, b))
        assert all(not morphism_violations(m) for m in every)
        maps = itertools.product(
            itertools.product((None, *b.monoid.events), repeat=len(a.monoid.events)),
            itertools.product((*b.states, STAR), repeat=len(a.states)),
        )
        assert len(every) == sum(
            not morphism_violations(
                oracles.system_morphism(a, b, dict(zip(a.monoid.events, e)), dict(zip(a.states, s)))
            )
            for e, s in maps
        )
        poly = [m for m in every if is_polygonal(m)]
        assert _keys(poly) == _keys(oracles.enumerate_system_morphisms(a, b, polygonal=True))


def _keys(morphisms):
    return [(tuple(m.monoid_part.mapping.items()), tuple(m.state_part.items())) for m in morphisms]


def subsystem_inclusion(rng, b):
    """A random subsystem of b (closed under nothing, with transitions
    dropped to restore the diamond) together with its inclusion."""
    states = [s for s in b.states if rng.random() < 0.7] or [rng.choice(b.states)]
    kept = set(states)
    trans = {
        (s, e): t
        for (s, e), t in b.action.items()
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
    a = WeakAsyncSystem(b.monoid, tuple(states), trans, initial)
    # point the source initial at its own image to satisfy condition 1
    bb = WeakAsyncSystem(b.monoid, b.states, dict(b.action), initial)
    m = oracles.system_morphism(
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
            assert not morphism_violations(leg)
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
            assert not morphism_violations(leg)

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
        a = make_system(
            ["u", "v"], "u", free_monoid("a"), {("u", "a"): "v", ("v", "a"): "v"}
        )
        ident = oracles.system_morphism(a, a, {"a": "a"}, {"u": "u", "v": "v"})
        shape = DiagramShape(("x", "y"), (("f", "x", "y"), ("g", "x", "y")))
        d = Diagram(shape, {"x": a, "y": a}, {"f": ident, "g": ident})
        cocone, sat = colimit(d, bound=4)
        assert sat.status == EXACT
        assert len(cocone.apex.states) == 2


class TestSystemDiagramIsASpaceDiagram:
    """The system (co)limit is the space (co)limit under FPCM_PAR of the
    diagram as it is, pointed: the same legs, with the input systems at
    their ends, and the space apex's action shared, not copied."""

    SHAPES = [pytest.param(cospan(), id="cospan"), pytest.param(discrete(2), id="discrete")]

    @staticmethod
    def diagram(shape):
        """Small seeded systems with polygonal morphisms on the arrows."""
        rng = random.Random(2113)
        while True:
            objs = {o: oracles.random_system(rng, max_states=3, max_events=2) for o in shape.objects}
            arrows = {}
            for name, src, dst in shape.arrows:
                pool = list(oracles.enumerate_system_morphisms(objs[src], objs[dst], polygonal=True))
                if not pool:
                    break
                arrows[name] = rng.choice(pool)
            else:
                return Diagram(shape, objs, arrows)

    @staticmethod
    def spy(monkeypatch, name):
        """The results of ``state_space.<name>`` from here on, in a list; the
        system (co)limit calls the space one's body, ``_limit`` or
        ``_colimit``, once it has checked the diagram."""
        seen, real = [], getattr(state_space, name)

        def record(*args):
            seen.append(real(*args))
            return seen[-1]

        monkeypatch.setattr(state_space, name, record)
        return seen

    @staticmethod
    def assert_same_legs(got, want, d, legs_out):
        for o, leg in got.legs.items():
            assert (leg.monoid_part, leg.state_part) == (want.legs[o].monoid_part, want.legs[o].state_part)
            apex_end, object_end = (leg.source, leg.target) if legs_out else (leg.target, leg.source)
            assert apex_end is got.apex and object_end is d.on_objects[o]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_limit(self, shape, monkeypatch):
        d = self.diagram(shape)
        want = state_space.limit(d, Category.FPCM_PAR)
        seen = self.spy(monkeypatch, "_limit")
        got = limit(d)
        assert (got.apex.states, got.apex.action) == (want.apex.states, want.apex.action)
        assert got.apex.action is seen[0].apex.action
        self.assert_same_legs(got, want, d, legs_out=True)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_colimit(self, shape, monkeypatch):
        d = self.diagram(shape)
        initials = [(tag(i, d.on_objects[o].initial), ()) for i, o in enumerate(d.shape.objects)]
        want = state_space.colimit(d, Category.FPCM_PAR, 4, tuple(zip(initials, initials[1:]))).cocone
        seen = self.spy(monkeypatch, "_colimit")
        got, sat = colimit(d, bound=4)
        assert (got.apex.states, got.apex.action) == (want.apex.states, want.apex.action)
        assert got.apex.action is seen[0].cocone.apex.action
        assert got.apex.initial == sat.class_map[initials[0][0]]
        self.assert_same_legs(got, want, d, legs_out=False)


class TestOneCheckPerCall:
    """A system (co)limit checks each system once (``validate_system``, whose
    ``validate_space`` the space check does not repeat) and each arrow as a
    system morphism, then as a space morphism."""

    @pytest.mark.parametrize("name", ["limit", "colimit", "product"])
    def test_each_system_is_validated_once(self, name, monkeypatch):
        d = TestSystemDiagramIsASpaceDiagram.diagram(cospan())
        systems = [d.on_objects[o] for o in d.shape.objects]
        run = {"limit": lambda: limit(d), "colimit": lambda: colimit(d, bound=2), "product": lambda: product(systems)}
        seen, real = [], state_space.validate_space

        def spy(s):
            seen.append(s)
            return real(s)

        monkeypatch.setattr(state_space, "validate_space", spy)
        monkeypatch.setattr(async_system, "validate_space", spy)
        run[name]()
        assert sorted(map(id, seen)) == sorted(map(id, systems))

    def test_space_arrow_problems_still_refuse(self):
        # a system morphism that is not polygonal passes morphism_violations,
        # and the space check, run once after it, still refuses it
        a = make_system(["u"], "u", free_monoid("a"), {})
        b = make_system(["v"], "v", free_monoid("a"), {("v", "a"): "v"})
        m = make_morphism(a, b, {"a": "a"}, {"u": "v"})
        assert morphism_violations(m) == [] and validate_morphism(m)
        d = Diagram(DiagramShape(("x", "y"), (("f", "x", "y"),)), {"x": a, "y": b}, {"f": m})
        want = state_space.diagram_problems(d, Category.FPCM_PAR)
        for construction in (limit, lambda d: colimit(d, bound=2)):
            with pytest.raises(MalformedDiagram) as info:
                construction(d)
            assert str(info.value) == "; ".join(want)


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

    @pytest.mark.parametrize("depth", [None, 1.5, "1", False])
    def test_unfold_depth_that_is_not_an_int_is_invalid_bound(self, depth):
        with pytest.raises(InvalidBound, match=rf"^unfold depth must be an int, got {re.escape(repr(depth))}$"):
            unfold(diamond_system(), depth)

    def test_colimit_bound_that_is_not_an_int_is_invalid_bound(self):
        a = make_system(["x"], "x", free_monoid("a"), {})
        with pytest.raises(InvalidBound, match="must be an int"):
            colimit(Diagram(discrete(1), {"o0": a}, {}), bound="1")

    def test_state_that_is_not_a_name(self):
        with pytest.raises(InvalidSystem, match="state 1 is not a name"):
            make_system([1], 1, free_monoid("a"), {})
