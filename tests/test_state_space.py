import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from asyntrace import async_system, fpcm_cat, state_space
from asyntrace.diagrams import Diagram, DiagramShape, discrete, parallel_pair, span
from asyntrace.errors import (
    InvalidBound,
    InvalidSpace,
    MalformedRelation,
    NotAMorphism,
    SizeLimit,
    TraceError,
    UnknownEvent,
)
from asyntrace.fpcm_cat import Category
from asyntrace.state_space import (
    EXACT,
    TRUNCATED,
    PresentedAction,
    StateSpace,
    StateSpaceMorphism,
    act_trace,
    colimit,
    equalizer,
    is_isomorphic,
    limit,
    make_space,
    make_space_morphism,
    product,
    saturate,
    space_tupling,
    validate_morphism,
    validate_space,
)
from asyntrace.trace_core import (
    STAR,
    extend_normal_form,
    free_commutative_monoid,
    free_monoid,
    identity_hom,
    make_hom,
    make_monoid,
    normal_form,
    normalize,
)

import oracles

IND = make_monoid("ab", [("a", "b")])


def diamond_space():
    # the commuting square on two independent events
    return make_space(
        IND,
        ["x00", "x10", "x01", "x11"],
        {
            ("x00", "a"): "x10",
            ("x00", "b"): "x01",
            ("x10", "b"): "x11",
            ("x01", "a"): "x11",
        },
    )


def cycle_space(k, sizes, last=1):
    """``k`` free events over disjoint cycles of the given sizes: each event
    steps one state along its cycle, the last event ``last`` states."""
    m = free_monoid([f"e{i}" for i in range(k)])
    steps = [1] * (k - 1) + [last]
    states = [(c, i) for c, n in enumerate(sizes) for i in range(n)]
    action = {(f"c{c}_{i}", e): f"c{c}_{(i + d) % sizes[c]}" for c, i in states for e, d in zip(m.events, steps)}
    return make_space(m, [f"c{c}_{i}" for c, i in states], action)


class TestSpaceBasics:
    def test_valid_diamond(self):
        assert validate_space(diamond_space()) == []

    def test_diamond_violation_detected(self):
        s = StateSpace(
            IND,
            ("x", "y", "z"),
            {("x", "a"): "y", ("x", "b"): "z", ("y", "b"): "y", ("z", "a"): "z"},
        )
        assert any("diamond" in p for p in validate_space(s))

    def test_one_sided_definition_violates(self):
        # x.a.b defined but x.b undefined gives star on one side only
        s = StateSpace(IND, ("x", "y", "z"), {("x", "a"): "y", ("y", "b"): "z"})
        assert any("diamond" in p for p in validate_space(s))

    def test_make_space_rejects_bad(self):
        with pytest.raises(TraceError):
            make_space(IND, ["x"], {("x", "a"): "nowhere"})

    def test_action_key_that_is_not_a_pair_is_invalid_space(self):
        with pytest.raises(InvalidSpace, match=r"action key \('x',\) is not a \(state, event\) pair"):
            make_space(free_monoid("a"), ["x"], {("x",): "x"})

    def test_make_space_names_diamond_violation(self):
        with pytest.raises(InvalidSpace, match="diamond violation"):
            make_space(IND, ["x", "y"], {("x", "a"): "y", ("x", "b"): "x", ("y", "b"): "x"})

    def test_star_not_a_state(self):
        s = StateSpace(IND, ("*",), {})
        assert any("reserved" in p for p in validate_space(s))

    def test_act_trace_star_absorbs(self):
        s = diamond_space()
        assert act_trace(s, STAR, ["a"]) == STAR
        assert act_trace(s, "x11", ["a"]) == STAR

    def test_act_trace_representative_independent(self):
        s = diamond_space()
        assert act_trace(s, "x00", ["a", "b"]) == act_trace(s, "x00", ["b", "a"]) == "x11"

    def test_act_trace_accepts_trace_objects(self):
        s = diamond_space()
        assert act_trace(s, "x00", normalize("ba", IND)) == "x11"

    @pytest.mark.parametrize("letters", [["z"], ["a", "z"], [["a"]]])
    def test_act_trace_unknown_letter(self, letters):
        with pytest.raises(UnknownEvent, match="not in alphabet"):
            act_trace(diamond_space(), "x00", letters)

    @pytest.mark.parametrize(
        "states, action, problem",
        [
            ([1, 2], {}, "state 1 is not a name; state 2 is not a name"),
            (["x"], {(1, "a"): "x", ("x", "a"): "x"}, r"action key \(1, 'a'\) is not a \(state, event\) pair of names"),
            (["x"], {("x",): "x"}, r"action key \('x',\) is not a \(state, event\) pair of names"),
            (["x"], {("x", "a"): ["x"]}, r"action value \['x'\] is not a name"),
        ],
    )
    def test_names_that_are_not_strings(self, states, action, problem):
        with pytest.raises(InvalidSpace, match=rf"^{problem}$"):
            make_space(IND, states, action)


class TestSpaceMorphisms:
    def test_identity_and_compose(self):
        s = diamond_space()
        i = oracles.identity_morphism(s)
        assert validate_morphism(i) == []
        assert oracles.compose_morphisms(i, i).state_part == i.state_part

    def test_subspace_inclusion_accepted(self):
        sub = make_space(IND, ["x10", "x11"], {("x10", "b"): "x11"})
        m = make_space_morphism(
            sub, diamond_space(), identity_hom(IND), {"x10": "x10", "x11": "x11"}
        )
        assert validate_morphism(m) == []

    def test_erasure_with_partial_action_rejected(self):
        # erasing an event acts as the identity downstairs, so an undefined
        # source action cannot map to a proper state
        s = make_space(free_monoid("z"), ["u"], {})
        one = make_space(make_monoid(()), ["v"], {})
        h = make_hom(s.monoid, one.monoid, {"z": None})
        with pytest.raises(TraceError):
            make_space_morphism(s, one, h, {"u": "v"})

    def test_non_equivariant_rejected(self):
        s = diamond_space()
        t = make_space(IND, ["u"], {})
        with pytest.raises(TraceError):
            make_space_morphism(s, t, identity_hom(IND), {x: "u" for x in s.states})

    def test_non_equivariant_is_not_a_morphism(self):
        s = diamond_space()
        t = make_space(IND, ["u"], {})
        with pytest.raises(NotAMorphism, match="equivariance violation"):
            make_space_morphism(s, t, identity_hom(IND), {x: "u" for x in s.states})

    def test_state_map_value_that_is_not_a_name_is_not_a_morphism(self):
        s = make_space(IND, ["x"], {})
        with pytest.raises(NotAMorphism, match="^state map sends 'x' outside the target$"):
            make_space_morphism(s, s, identity_hom(IND), {"x": ["x"]})

    def test_source_transition_outside_its_states_is_not_a_morphism(self):
        # a source built without make_space whose action leads outside its states
        m = make_monoid("a")
        source, target = StateSpace(m, ("x",), {("x", "a"): "zz"}), StateSpace(m, ("y",), {})
        message = r"^source transition \('x', 'a'\) -> 'zz' leads outside the source's states$"
        with pytest.raises(NotAMorphism, match=message):
            make_space_morphism(source, target, make_hom(m, m, {"a": "a"}), {"x": "y"})

    def test_fpcm_par_requires_ip_monoid_part(self):
        src_m = make_monoid("ab", [("a", "b")])
        tgt_m = free_monoid("c")
        h = make_hom(src_m, tgt_m, {"a": "c", "b": "c"})
        src = make_space(src_m, ["x"], {})
        tgt = make_space(tgt_m, ["y"], {})
        m = make_space_morphism(src, tgt, h, {"x": STAR})
        assert validate_morphism(m, Category.FPCM) == []
        assert validate_morphism(m, Category.FPCM_PAR) != []


class TestSpaceProduct:
    def test_pointed_state_count(self):
        s1 = diamond_space()
        s2 = make_space(free_monoid("c"), ["q0", "q1"], {("q0", "c"): "q1"})
        res = product([s1, s2])
        assert len(res.space.states) == (4 + 1) * (2 + 1) - 1
        assert validate_space(res.space) == []

    def test_projections_validate(self):
        s1 = diamond_space()
        s2 = make_space(free_monoid("c"), ["q0"], {})
        res = product([s1, s2])
        for p in res.projections:
            assert validate_morphism(p) == []

    def test_componentwise_action_with_identity_star(self):
        s1 = make_space(free_monoid("a"), ["p0", "p1"], {("p0", "a"): "p1"})
        s2 = make_space(free_monoid("b"), ["q0", "q1"], {("q0", "b"): "q1"})
        res = product([s1, s2])
        assert res.space.step("(p0,q0)", "(a,*)") == "(p1,q0)"
        assert res.space.step("(p0,q0)", "(a,b)") == "(p1,q1)"
        # a star coordinate absorbs its own component's events
        assert res.space.step("(p0,*)", "(*,b)") == "(p0,*)"
        assert res.space.step("(p0,q0)", "(*,b)") == "(p0,q1)"

    def test_tupling_commutes(self):
        s1 = make_space(free_monoid("a"), ["p0"], {("p0", "a"): "p0"})
        s2 = make_space(free_monoid("b"), ["q0"], {})
        res = product([s1, s2])
        x = make_space(free_monoid("z"), ["u"], {("u", "z"): "u"})
        m1 = make_space_morphism(
            x, s1, make_hom(x.monoid, s1.monoid, {"z": "a"}), {"u": "p0"}
        )
        m2 = make_space_morphism(
            x, s2, make_hom(x.monoid, s2.monoid, {"z": None}), {"u": "q0"}
        )
        med = space_tupling([m1, m2], res)
        for proj, leg in zip(res.projections, (m1, m2)):
            comp = oracles.compose_morphisms(proj, med)
            assert comp.state_part == leg.state_part
            assert comp.monoid_part.mapping == leg.monoid_part.mapping

    def test_seven_factors_of_three_states_are_refused_at_once(self):
        # 4^7 - 1 = 16 383 states, over fpcm_cat.PRODUCT_SIZE; the monoid
        # product, of 2^7 - 1 generators, would pass
        spaces = [make_space(free_monoid([f"e{i}"]), [f"x{i}", f"y{i}", f"z{i}"], {}) for i in range(7)]
        start = time.perf_counter()
        with pytest.raises(SizeLimit, match="16383 states"):
            product(spaces)
        assert time.perf_counter() - start < 1


    def test_limit_of_seven_arms_is_refused_before_its_pairs(self):
        # one looping state per three-event arm, each mapped into a one-state
        # space over the trivial monoid: fpcm_cat.limit refuses the 16 383
        # compatible generators before it tests their pairs
        arms = [make_monoid([f"{c}{i}" for c in "abc"], [(f"a{i}", f"b{i}")]) for i in range(7)]
        spaces = [make_space(m, [f"s{i}"], {(f"s{i}", e): f"s{i}" for e in m.events}) for i, m in enumerate(arms)]
        point = make_space(fpcm_cat.TRIVIAL, ["t"], {})
        objs = [f"o{i}" for i in range(7)]
        shape = DiagramShape(("t", *objs), tuple((f"f{i}", o, "t") for i, o in enumerate(objs)))
        arrows = {f"f{i}": make_space_morphism(s, point, make_hom(s.monoid, fpcm_cat.TRIVIAL, dict.fromkeys(s.monoid.events)),
                                               {f"s{i}": "t"}) for i, s in enumerate(spaces)}
        start = time.perf_counter()
        with pytest.raises(SizeLimit, match="16383 generators"):
            limit(Diagram(shape, {"t": point, **dict(zip(objs, spaces))}, arrows))
        assert time.perf_counter() - start < 1

@st.composite
def small_spaces(draw):
    """Up to 3 events with any pairs independent, up to 4 states, and a
    random action with the entries that break a diamond deleted."""
    events = tuple("abc"[: draw(st.integers(0, 3))])
    pairs = list(itertools.combinations(events, 2))
    m = make_monoid(events, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    states = tuple(f"x{i}" for i in range(draw(st.integers(0, 4))))
    action = {}
    for x in states:
        for e in events:
            y = draw(st.sampled_from(states + (STAR,)))
            if y != STAR:
                action[(x, e)] = y
    return StateSpace(m, states, oracles.repair_diamond(m, states, action))


class TestSpaceProductReference:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(small_spaces(), max_size=4), st.sampled_from((Category.FPCM, Category.FPCM_PAR)))
    def test_matches_per_entry_reference(self, spaces, flag):
        got = product(spaces, flag)
        want = oracles.reference_space_product(spaces, flag)
        assert got.space.monoid.events == want.space.monoid.events
        assert got.space.monoid.pairs() == want.space.monoid.pairs()
        assert got.space.states == want.space.states
        assert list(got.space.action.items()) == list(want.space.action.items())
        assert list(got.state_components.items()) == list(want.state_components.items())
        assert [list(p.state_part.items()) for p in got.projections] == [
            list(p.state_part.items()) for p in want.projections
        ]
        assert [p.monoid_part for p in got.projections] == [p.monoid_part for p in want.projections]

    def test_clashing_state_names_are_named(self):
        # "(a,b,c)" renders both ("a,b", "c") and ("a", "b,c")
        s1 = make_space(free_monoid("e"), ["a,b", "a"], {})
        s2 = make_space(free_monoid("f"), ["c", "b,c"], {})
        with pytest.raises(InvalidSpace) as exc:
            product([s1, s2])
        msg = str(exc.value)
        assert "'(a,b,c)'" in msg and "('a,b', 'c')" in msg and "('a', 'b,c')" in msg


class TestSpaceEqualizerAndLimit:
    def test_equalizer_keeps_agreeing_states(self):
        m = free_monoid("a")
        s = make_space(m, ["x", "y"], {})
        t = make_space(m, ["u", "v"], {})
        h = identity_hom(m)
        m1 = make_space_morphism(s, t, h, {"x": "u", "y": "u"})
        m2 = make_space_morphism(s, t, h, {"x": "u", "y": "v"})
        sub, incl = equalizer(m1, m2)
        assert sub.states == ("x",)
        assert validate_space(sub) == []
        assert validate_morphism(incl) == []

    def test_limit_of_discrete_matches_product(self):
        s1 = make_space(free_monoid("a"), ["p0", "p1"], {("p0", "a"): "p1"})
        s2 = make_space(free_monoid("c"), ["q0", "q1"], {("q0", "c"): "q1"})
        d = Diagram(discrete(2), {"o0": s1, "o1": s2}, {})
        cone = limit(d)
        res = product([s1, s2])
        assert is_isomorphic(cone.apex, res.space) is not None

    def test_limit_legs_validate(self):
        s1 = make_space(free_monoid("a"), ["p0", "p1"], {("p0", "a"): "p1"})
        d = Diagram(discrete(2), {"o0": s1, "o1": s1}, {})
        cone = limit(d)
        for leg in cone.legs.values():
            assert validate_morphism(leg) == []
        assert validate_space(cone.apex) == []

    def test_a_state_map_that_misses_a_state_is_not_a_morphism(self):
        m = free_monoid("a")
        s = make_space(m, ["p", "q"], {("p", "a"): "q"})
        good = make_space_morphism(s, s, identity_hom(m), {"p": "p", "q": "q"})
        bad = StateSpaceMorphism(s, s, identity_hom(m), {})
        with pytest.raises(NotAMorphism, match="state map missing for 'p'"):
            equalizer(bad, good)
        with pytest.raises(NotAMorphism, match="state map missing for 'p'"):
            space_tupling([good, bad], product([s, s]))


class TestSaturation:
    def test_rule_complete_presentation_is_exact(self):
        m = free_monoid("a")
        p = PresentedAction(m, ("g",), (("g", "a", "g"),))
        r = saturate(p, 3)
        assert r.status == EXACT
        assert r.space.states == ("g",)
        assert r.space.action == {("g", "a"): "g"}

    def test_free_extension_truncates(self):
        m = free_monoid("a")
        r = saturate(PresentedAction(m, ("g",), ()), 3)
        assert r.status == TRUNCATED
        assert r.space.states == ("g", "g@a", "g@a.a", "g@a.a.a")
        assert r.frontier == (("g", ("a", "a", "a", "a")),)

    def test_monotone_in_bound(self):
        m = free_monoid("a")
        p = PresentedAction(m, ("g",), ())
        prev = saturate(p, 2)
        nxt = saturate(p, 4)
        assert set(prev.space.states) <= set(nxt.space.states)

    def test_conflicting_rules_identify_targets(self):
        m = free_monoid("a")
        p = PresentedAction(
            m,
            ("g", "h", "k"),
            (("g", "a", "h"), ("g", "a", "k"), ("h", "a", "h"), ("k", "a", "k")),
        )
        r = saturate(p, 4)
        assert r.status == EXACT
        assert r.class_map["h"] == r.class_map["k"]

    def test_star_identification_absorbs(self):
        m = free_monoid("a")
        p = PresentedAction(
            m,
            ("g", "h"),
            (("g", "a", "h"), ("h", "a", "h")),
            ((("h", ()), STAR),),
        )
        r = saturate(p, 4)
        assert r.status == EXACT
        assert r.class_map == {"g": "g", "h": STAR}
        assert r.space.action == {}

    def test_clashing_colimit_state_names_are_named(self):
        # "0:x@1:b" renders both the generator 0:x@1:b and 0:x acted on by 1:b
        s1 = make_space(free_monoid("a"), ["x", "x@1:b"], {})
        s2 = make_space(free_monoid("b"), ["y"], {})
        d = Diagram(discrete(2), {"o0": s1, "o1": s2}, {})
        with pytest.raises(InvalidSpace) as exc:
            colimit(d, bound=1)
        msg = str(exc.value)
        assert "'0:x@1:b'" in msg and "('0:x@1:b', ())" in msg and "('0:x', ('1:b',))" in msg

    def test_rule_on_an_unknown_event_is_named(self):
        p = PresentedAction(free_monoid("ab"), ("g",), (("g", "z", "g"),))
        with pytest.raises(UnknownEvent, match="'z'"):
            saturate(p, 2)

    def test_negative_bound_is_invalid_bound(self):
        with pytest.raises(InvalidBound, match="saturation bound must be >= 0, got -1"):
            saturate(PresentedAction(free_monoid("a"), ("g",), ()), -1)

    @pytest.mark.parametrize("bound", ["1", 1.5, True, None])
    def test_bound_that_is_not_an_int_is_invalid_bound(self, bound):
        with pytest.raises(InvalidBound, match=rf"^saturation bound must be an int, got {re.escape(repr(bound))}$"):
            saturate(PresentedAction(free_monoid("a"), ("g",), ()), bound)

    def test_colimit_bound_that_is_not_an_int_is_invalid_bound(self):
        s = make_space(free_monoid("a"), ["x"], {})
        with pytest.raises(InvalidBound, match="must be an int"):
            colimit(Diagram(discrete(1), {"o0": s}, {}), bound=1.5)

    def test_identification_with_a_letter_that_is_not_a_name(self):
        pair = (("g", (["a"],)), STAR)
        with pytest.raises(MalformedRelation, match="is not a pair of terms"):
            saturate(PresentedAction(free_monoid("a"), ("g",), (), (pair,)), 1)

    def test_rule_that_is_not_a_triple_is_named(self):
        p = PresentedAction(free_monoid("a"), ("g",), (("g", "a"),))
        with pytest.raises(MalformedRelation, match=r"rule \('g', 'a'\) is not a \(generator, event, target\) triple"):
            saturate(p, 2)

    @pytest.mark.parametrize(
        "rule",
        [(5, "a", "g"), ("g", "a", 5), ("g", ["a"], "g")],
        ids=["generator-not-a-name", "target-not-a-name", "event-not-a-name"],
    )
    def test_rule_on_a_non_name_is_named(self, rule):
        p = PresentedAction(free_monoid("ab"), ("g",), (rule,))
        msg = rf"^rule {re.escape(repr(rule))} is not a \(generator, event, target\) triple of names$"
        with pytest.raises(MalformedRelation, match=msg):
            saturate(p, 1)

    def test_generator_that_is_not_a_name_is_named(self):
        p = PresentedAction(free_monoid("ab"), (5,), ())
        with pytest.raises(MalformedRelation, match=r"^generator 5 is not a name$"):
            saturate(p, 1)

    @pytest.mark.parametrize(
        "pair",
        [(("g", ()),), (("g",), ("g", ())), ("g", ("g", ())), (("g", 5), STAR), ((5, ()), ("g", ())), None],
        ids=["one-term", "short-term", "bare-generator", "trace-not-a-sequence", "generator-not-a-name", "none"],
    )
    def test_identification_that_is_not_a_pair_of_terms_is_named(self, pair):
        p = PresentedAction(free_monoid("ab"), ("g",), (), (pair,))
        with pytest.raises(MalformedRelation, match=rf"^identification {re.escape(repr(pair))} is not a pair of terms$"):
            saturate(p, 1)

    def test_star_generator_is_rejected(self):
        # it would name the states "*", "*@a" and "*@b", which validate_space rejects
        p = PresentedAction(free_monoid("ab"), ("*",), ())
        with pytest.raises(InvalidSpace, match="reserved"):
            saturate(p, 1)

    def test_diamond_holds_in_saturated_space(self):
        m = make_monoid("ab", [("a", "b")])
        p = PresentedAction(m, ("g",), ())
        r = saturate(p, 3)
        assert validate_space(r.space) == []
        # g@a.b and g@b.a are the same canonical state
        assert r.space.step(r.space.step("g", "a"), "b") == r.space.step(
            r.space.step("g", "b"), "a"
        )


@st.composite
def unordered_monoids(draw):
    """Up to 4 events, any pairs independent, named so that name order
    differs from declaration order: ``a``, ``ab``, ``b`` and ``ba`` are
    prefixes of one another, declared in any order."""
    events = tuple(draw(st.permutations(("a", "ab", "b", "ba")))[: draw(st.integers(1, 4))])
    pairs = list(itertools.combinations(events, 2))
    return make_monoid(events, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


@settings(max_examples=300, deadline=None)
@given(unordered_monoids(), st.data())
def test_successors_insert_as_normal_form_does(m, data):
    # saturate's row of a trace, over code strings, against the name tuples
    word = st.lists(st.sampled_from(m.events), max_size=8)
    u, v = (normal_form(data.draw(word), m) for _ in range(2))
    code, insertion = state_space._coding(m)

    def coded(w):
        return "".join(map(code.__getitem__, w))

    got = state_space._successors(coded(u), insertion)
    assert got == [coded(extend_normal_form(u, e, m)) for e in m.events]
    assert got == [coded(normal_form(u + (e,), m)) for e in m.events]
    # code strings sort as the tuples of names do
    assert (coded(u) < coded(v)) == (u < v)


@st.composite
def presentations(draw):
    """Up to 4 generators over up to 4 events, random rules to a generator or
    star, and a few identifications of arbitrary (uncanonical) words.

    Names are drawn so that sorting them differs from declaration order:
    generators such as ``g10``, ``g2`` and ``h`` do not sort in the order
    they are declared, and events such as ``a``, ``ab`` and ``b`` are
    prefixes of one another, declared in any order.  Rules and
    identifications may also name one generator that is not declared, and
    it may sort anywhere among the declared ones."""
    m = draw(unordered_monoids())
    events = m.events
    names = draw(st.permutations(("g10", "g2", "h", "g1", "k")))
    gens = tuple(names[: draw(st.integers(1, 4))])
    named = gens + (names[len(gens)],)
    rules = st.tuples(st.sampled_from(named), st.sampled_from(events), st.sampled_from(named + (STAR,)))
    term = st.one_of(
        st.just(STAR),
        st.tuples(st.sampled_from(named), st.lists(st.sampled_from(events), max_size=3).map(tuple)),
    )
    transitions = draw(st.lists(rules, max_size=10))
    identifications = draw(st.lists(st.tuples(term, term), max_size=3))
    return PresentedAction(m, gens, tuple(transitions), tuple(identifications))


@st.composite
def glued_presentations(draw):
    """6 to 12 generators, each over one of 2 or 3 base states, glued as
    the covers of the colimits benchmark's EXACT jobs are.  The base action
    is defined on most (state, event) pairs; each generator has a rule per
    event on which it is, to a drawn generator over the target base state
    (one rule in four presentations goes to star); identifications equate
    most generators with the first one over their base state, now and then
    along a word, and may send a term to star.  Saturation then meets classes of many members,
    star's class and runs of single-member classes in one pass."""
    events = tuple(draw(st.permutations(("a", "ab", "b")))[: draw(st.integers(2, 3))])
    pairs = list(itertools.combinations(events, 2))
    m = make_monoid(events, draw(st.lists(st.sampled_from(pairs), unique=True)))
    n = draw(st.integers(6, 12))
    gens = tuple(f"g{i}" for i in draw(st.permutations(range(n))))  # g10 sorts before g2
    k = draw(st.integers(2, 3))
    bases = [i % k for i in range(n)]
    over = {b: gens[b::k] for b in range(k)}
    action = {(b, e): draw(st.integers(0, k - 1)) for b in range(k) for e in events if draw(st.integers(0, 4))}
    rules = []
    for g, b in zip(gens, bases):
        for e in events:
            if (b, e) in action:
                rules.append((g, e, draw(st.sampled_from(over[action[(b, e)]]))))
    if rules and not draw(st.integers(0, 3)):
        i = draw(st.integers(0, len(rules) - 1))
        rules[i] = (*rules[i][:2], STAR)
    word = st.lists(st.sampled_from(events), min_size=1, max_size=2).map(tuple)
    glue = []
    for first, *rest in over.values():
        for g in rest:
            if draw(st.integers(0, 9)):  # most are glued
                glue.append(((first, ()), (g, draw(word)) if not draw(st.integers(0, 5)) else (g, ())))
    if not draw(st.integers(0, 2)):
        glue.append(((draw(st.sampled_from(gens)), draw(word)), STAR))
    return PresentedAction(m, gens, tuple(draw(st.permutations(rules))), tuple(glue))


def assert_same_saturation(got, want):
    """Equal results, in the same order of states, entries and frontier."""
    assert got.status == want.status
    assert got.space.states == want.space.states
    assert list(got.space.action.items()) == list(want.space.action.items())
    assert list(got.class_map.items()) == list(want.class_map.items())
    assert got.frontier == want.frontier


class TestSaturationReference:
    @settings(max_examples=300, deadline=None)
    @given(presentations(), st.integers(0, 3))
    def test_matches_reference(self, p, bound):
        assert_same_saturation(saturate(p, bound), oracles.reference_saturate(p, bound))

    @settings(max_examples=150, deadline=None)
    @given(glued_presentations(), st.integers(0, 3))
    def test_matches_reference_on_glued_presentations(self, p, bound):
        assert_same_saturation(saturate(p, bound), oracles.reference_saturate(p, bound))

    @settings(max_examples=100, deadline=None)
    @given(presentations(), st.integers(0, 4))
    def test_frontier_names_render_the_reference_frontier(self, p, bound):
        # the names come from the result's buckets, the terms are decoded
        # from them on first access: both give the reference's frontier
        r = saturate(p, bound)
        names = r.frontier_names()
        assert names == [oracles.term_name(t) for t in r.frontier]
        assert r.frontier == oracles.reference_saturate(p, bound).frontier

    def test_successor_in_unsettled_class_joins_frontier(self):
        # h@a.a is glued to g@a.b, a class deeper than the bound: both the
        # class and the successor that reaches it are on the frontier
        glue = (("h", ("a", "a")), ("g", ("a", "b")))
        p = PresentedAction(free_monoid("ab"), ("g", "h"), (), (glue,))
        r = saturate(p, 1)
        assert_same_saturation(r, oracles.reference_saturate(p, 1))
        assert ("h", ("a", "a")) in r.frontier and ("g", ("a", "b")) in r.frontier

    def test_present_term_deeper_than_the_bound_is_read(self):
        # g@a.b is glued to h, so the class of g@a, at the bound, has a
        # present successor: its entry is read, not sent to the frontier
        glue = (("g", ("a", "b")), ("h", ()))
        p = PresentedAction(free_monoid("ab"), ("g", "h"), (), (glue,))
        r = saturate(p, 1)
        assert r.space.action[("g@a", "b")] == "h"
        assert ("g", ("a", "b")) not in r.frontier
        assert_same_saturation(r, oracles.reference_saturate(p, 1))

    @pytest.mark.parametrize("reverse", [False, True], ids=["name-order", "reversed"])
    def test_matches_reference_on_free_extension_of_two_systems(self, monkeypatch, reverse):
        # the discrete diagram of two 5-state systems over 3-letter monoids
        # with one independent pair each, as in the colimits benchmark; with
        # each monoid's events declared in reverse, the colimit's events are
        # not declared in name order
        rng = random.Random(4336)
        objects = {}
        for o, letters, prefix in (("o0", "abc", "p"), ("o1", "def", "q")):
            m = make_monoid(letters, [rng.choice(list(itertools.combinations(letters, 2)))])
            s = oracles.random_space(rng, m, prefix=prefix, n=5)
            if reverse:
                m = make_monoid(m.events[::-1], m.pairs())
            objects[o] = async_system.WeakAsyncSystem(m, s.states, dict(s.action), s.states[0])
        seen = []
        real = state_space._saturate

        def spy(p, bound):
            seen.append(p)
            return real(p, bound)

        monkeypatch.setattr(state_space, "_saturate", spy)
        _, got = async_system.colimit(Diagram(discrete(2), objects, {}), bound=3)
        names = got.frontier_names()
        assert (len(got.space.states), len(got.frontier), len(names)) == (937, 4336, 4336)
        want = oracles.reference_saturate(seen[0], 3)
        assert_same_saturation(got, want)
        assert names == [oracles.term_name(t) for t in want.frontier]

    def test_extends_each_trace_once_per_event(self, monkeypatch):
        # the free extension above: a successor depends on the trace, not on
        # its generator, so the trace table extends each (trace, event) pair
        # probed once, however many generators share the trace
        rng = random.Random(4336)
        objects = {}
        for o, letters, prefix in (("o0", "abc", "p"), ("o1", "def", "q")):
            m = make_monoid(letters, [rng.choice(list(itertools.combinations(letters, 2)))])
            s = oracles.random_space(rng, m, prefix=prefix, n=5)
            objects[o] = async_system.WeakAsyncSystem(m, s.states, dict(s.action), s.states[0])
        calls = []
        real = state_space._successors

        def counting(t, insertion):
            # one call fills a trace's row: one extension per event
            calls.extend((t, e) for e, _, _ in insertion)
            return real(t, insertion)

        monkeypatch.setattr(state_space, "_successors", counting)
        _, got = async_system.colimit(Diagram(discrete(2), objects, {}), bound=3)
        assert len(got.space.states) == 937
        assert calls
        assert len(calls) == len(set(calls))
        # the root of every state has a successor term of its own per event
        assert len(calls) < len(got.space.states) * len(got.space.monoid.events)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_reference_on_glued_covers(self, monkeypatch, seed):
        # 2-, 3- and 6-fold covers of a 4-state base space glued along a span
        # and a parallel pair, as in the colimits benchmark's EXACT jobs: the
        # gluing merges the generators into classes of many members, which
        # presentations of a few generators rarely reach
        rng = random.Random(seed)
        m = make_monoid("abc", [rng.choice(list(itertools.combinations("abc", 2)))])
        base = oracles.random_space(rng, m, prefix="t", n=4)
        shifts = {e: rng.randrange(6) for e in m.events}

        def cover(k):
            # base times Z_k, each event adding its shift; shifts commute
            states = tuple(f"{t}k{i}" for t in base.states for i in range(k))
            action = {
                (f"{t}k{i}", e): f"{u}k{(i + shifts[e]) % k}"
                for (t, e), u in base.action.items()
                for i in range(k)
            }
            return StateSpace(m, states, action)

        def remap(f):
            return {f"{t}k{i}": f"{t}k{f(i)}" for t in base.states for i in range(6)}

        covers = {k: cover(k) for k in (2, 3, 6)}
        diagrams = [
            (span(), {"apex": 6, "left": 2, "right": 3}, "t0k0",
             {"l": remap(lambda i: i % 2), "r": remap(lambda i: i % 3)}),
            (parallel_pair(), {"src": 6, "dst": 6}, STAR,
             {"f": remap(lambda i: i), "g": remap(lambda i: (i + 1) % 6)}),
        ]
        seen = []
        real = state_space._saturate

        def spy(p, bound):
            seen.append(p)
            return real(p, bound)

        monkeypatch.setattr(state_space, "_saturate", spy)
        results = []
        for shape, sizes, initial, maps in diagrams:
            spaces = {o: covers[k] for o, k in sizes.items()}
            arrows = {
                a: make_space_morphism(spaces[s], spaces[t], identity_hom(m), maps[a])
                for a, s, t in shape.arrows
            }
            results.append(colimit(Diagram(shape, spaces, arrows), bound=2).saturation)
            systems = {
                o: async_system.WeakAsyncSystem(m, s.states, dict(s.action), initial)
                for o, s in spaces.items()
            }
            sys_arrows = {
                a: async_system.make_morphism(systems[s], systems[t], {e: e for e in m.events}, maps[a])
                for a, s, t in shape.arrows
            }
            diagram = Diagram(shape, systems, sys_arrows)
            results.append(async_system.colimit(diagram, bound=2)[1])
        assert len(seen) == len(results) == 4
        for p, got in zip(seen, results):
            assert got.status == EXACT
            assert len(got.space.states) < len(p.generators)
            assert_same_saturation(got, oracles.reference_saturate(p, 2))


class TestSpaceColimit:
    def test_coequalizer_glues_states(self):
        m = free_monoid("a")
        one = make_space(m, ["u"], {})
        two = make_space(m, ["v0", "v1"], {})
        h = identity_hom(m)
        m1 = make_space_morphism(one, two, h, {"u": "v0"})
        m2 = make_space_morphism(one, two, h, {"u": "v1"})
        d = Diagram(parallel_pair(), {"src": one, "dst": two}, {"f": m1, "g": m2})
        res = colimit(d)
        assert res.saturation.status == EXACT
        leg = res.cocone.legs["dst"]
        assert leg.state("v0") == leg.state("v1")
        assert len(res.cocone.apex.states) == 1

    def test_erased_event_with_undefined_action_collapses_to_star(self):
        # pushout of an event against its erasure: the image state must die
        apex_m = free_monoid("e")
        left_m = free_monoid("e")
        trivial_m = make_monoid(())
        incl = make_hom(apex_m, left_m, {"e": "e"})
        erase = make_hom(apex_m, trivial_m, {"e": None})
        apex_s = make_space(apex_m, ["z"], {})
        left_s = make_space(left_m, ["x"], {})  # x.e undefined
        right_s = make_space(trivial_m, ["y"], {})
        lmor = make_space_morphism(apex_s, left_s, incl, {"z": "x"})
        rmor = make_space_morphism(apex_s, right_s, erase, {"z": STAR})
        d = Diagram(
            span(),
            {"apex": apex_s, "left": left_s, "right": right_s},
            {"l": lmor, "r": rmor},
        )
        res = colimit(d)
        assert res.saturation.status == EXACT
        assert res.cocone.legs["left"].state("x") == STAR

    def test_exact_identity_diagram_matches_oracle(self):
        rng = random.Random(7)
        m = make_monoid("ab", [("a", "b")])
        for _ in range(20):
            s1 = oracles.random_space(rng, m, max_states=4, prefix="x")
            s2 = oracles.random_space(rng, m, max_states=4, prefix="y")
            smap = oracles.random_equivariant_map(rng, s1, s2)
            if smap is None:
                continue
            mor = make_space_morphism(s1, s2, identity_hom(m), smap)
            shape = DiagramShape(("A", "B"), (("f", "A", "B"),))
            d = Diagram(shape, {"A": s1, "B": s2}, {"f": mor})
            res = colimit(d)
            assert res.saturation.status == EXACT
            classes, _ = oracles.pointed_quotient([s1, s2], [(0, 1, smap)])
            got = {}
            for i, s in enumerate((s1, s2)):
                for x in s.states:
                    got.setdefault(res.saturation.class_map[f"{i}:{x}"], set()).add((i, x))
            got.pop(STAR, None)
            assert classes == frozenset(frozenset(v) for v in got.values())


class TestColimitChecksOnce:
    """``colimit`` checks the diagram once and saturates the presentation
    that ``build_presentation`` makes from it without scanning it: only the
    caller's ``identifications`` and the bound are checked, with the errors
    that ``saturate``'s per-item checks raise, in their order."""

    @staticmethod
    def diagram():
        m = free_monoid("a")
        one, two = make_space(m, ["u"], {}), make_space(m, ["v0", "v1"], {})
        arrows = {f: make_space_morphism(one, two, identity_hom(m), {"u": v}) for f, v in (("f", "v0"), ("g", "v1"))}
        return Diagram(parallel_pair(), {"src": one, "dst": two}, arrows)

    def test_never_scans_the_presentation_it_builds(self, monkeypatch):
        built, scanned = [], []
        real_build, real_check = state_space.build_presentation, state_space._check_items

        def build(*args):
            built.append(real_build(*args))
            return built[-1]

        def check(p, bound):
            scanned.append(p)
            return real_check(p, bound)

        monkeypatch.setattr(state_space, "build_presentation", build)
        monkeypatch.setattr(state_space, "_check_items", check)
        glue = ((("1:v0", ()), ("1:v1", ("0:a",))),)
        res = colimit(self.diagram(), bound=3, identifications=glue)
        [p] = built
        assert [(q.generators, q.transitions, q.identifications) for q in scanned] == [((), (), glue)]
        monkeypatch.undo()
        assert res.saturation == saturate(p, 3)

    def test_identifications_from_an_iterator_are_checked(self):
        with pytest.raises(MalformedRelation, match=r"^identification \('1:v0',\) is not a pair of terms$"):
            colimit(self.diagram(), bound=2, identifications=iter([("1:v0",)]))

    @pytest.mark.parametrize("glue", [
        (("1:v0",),),
        ((("1:v0", ()), ("1:v1", ("a",)), STAR),),
        (((5, ()), STAR),),
        ((("1:v0", ()), ("1:v1", "a")), [(STAR, ()), STAR]),
        (((STAR, ()), STAR),),
        ((("1:v0", ("b",)), STAR),),
    ], ids=["short", "long", "generator", "str-word", "star", "letter"])
    def test_a_malformed_identification_raises_as_saturate_did(self, glue):
        d = self.diagram()
        cocone = fpcm_cat.colimit(d.map(lambda s: s.monoid, lambda m: m.monoid_part), Category.FPCM)
        error, message = oracles.presentation_error(state_space.build_presentation(d, cocone, glue))
        with pytest.raises(error) as info:
            colimit(d, bound=2, identifications=glue)
        assert str(info.value) == message
        with pytest.raises(InvalidBound):  # the bound is checked first
            colimit(d, bound=-1, identifications=glue)


class TestIsomorphism:
    def test_renamed_space_isomorphic(self):
        s1 = diamond_space()
        m2 = make_monoid("pq", [("p", "q")])
        s2 = make_space(
            m2,
            ["a0", "a1", "a2", "a3"],
            {
                ("a0", "p"): "a1",
                ("a0", "q"): "a2",
                ("a1", "q"): "a3",
                ("a2", "p"): "a3",
            },
        )
        assert is_isomorphic(s1, s2) is not None

    def test_structurally_different_not_isomorphic(self):
        m = free_monoid("a")
        s1 = make_space(m, ["x"], {("x", "a"): "x"})
        s2 = make_space(m, ["x"], {})
        assert is_isomorphic(s1, s2) is None

    def test_size_limit(self):
        m = free_monoid("a")
        s = make_space(m, [f"x{i}" for i in range(13)], {})
        with pytest.raises(SizeLimit):
            is_isomorphic(s, s)

    def test_spaces_of_other_sizes_answer_in_either_order(self):
        # 13 states are over the limit, but sizes that differ answer first
        m = free_monoid("a")
        s12, s13 = (make_space(m, [f"x{i}" for i in range(n)], {}) for n in (12, 13))
        assert is_isomorphic(s12, s13) is None and is_isomorphic(s13, s12) is None

    def test_refuses_an_invalid_space(self):
        m = free_monoid("a")
        good = StateSpace(m, ("p",), {("p", "a"): "p"})
        bad = StateSpace(m, ("p",), {("p", "a"): "zz"})
        for pair in ((bad, good), (good, bad)):
            with pytest.raises(InvalidSpace, match="action value 'zz' is not a state"):
                is_isomorphic(*pair)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(["copy", "same monoid", "other"]))
    def test_matches_the_brute_force(self, seed, kind):
        # the same answer as trying every permutation, maps and their order included
        rng = random.Random(seed)
        s1 = oracles.random_space(rng, oracles.random_monoid(rng, 4), 5)
        if kind == "copy":
            s2 = oracles.relabelled_space(rng, s1)
        else:
            m = s1.monoid if kind == "same monoid" else oracles.random_monoid(rng, 4, prefix="z")
            s2 = oracles.random_space(rng, m, prefix="y", n=len(s1.states))
        got, want = is_isomorphic(s1, s2), oracles.reference_is_isomorphic(s1, s2)
        assert got == want
        if want is not None:
            assert [list(x.items()) for x in got] == [list(x.items()) for x in want]

    def _timed(self, s1, s2):
        start = time.perf_counter()
        try:
            res = is_isomorphic(s1, s2)
        except SizeLimit:
            res = SizeLimit
        return res, time.perf_counter() - start

    def test_a_cycle_against_two_halves_is_told_apart_at_once(self):
        # every event steps +1: a 12-cycle is not two 6-cycles, and the first
        # event's propagation shows it for each image
        for k in (4, 8):
            res, seconds = self._timed(cycle_space(k, [12]), cycle_space(k, [6, 6]))
            assert res is None and seconds < 0.1

    def test_spaces_told_apart_by_their_signatures(self):
        # n-1 a-loops and one a+b loop, against n-1 a-loops and a bare state
        m = free_monoid("ab")
        states = [f"x{i}" for i in range(12)]
        loops = {(x, "a"): x for x in states}
        s1 = make_space(m, states, {**loops, ("x11", "b"): "x11"})
        s2 = make_space(m, states, {k: v for k, v in loops.items() if k[0] != "x11"})
        res, seconds = self._timed(s1, s2)
        assert res is None and seconds < 1

    def test_interchangeable_events_end_within_the_budget(self):
        # every event steps +1, against the same with the last event +5: no
        # prefix can be cut, so the search is decided or gives up
        for k in (6, 7, 8):
            res, seconds = self._timed(cycle_space(k, [12]), cycle_space(k, [12], last=5))
            assert res in (None, SizeLimit) and seconds < 1
        assert res is SizeLimit  # k = 8 takes more than the budget
