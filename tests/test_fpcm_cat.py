import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from asyntrace.diagrams import (
    DiagramShape,
    Diagram,
    cospan,
    discrete,
    parallel_pair,
    span,
)
from asyntrace import fpcm_cat
from asyntrace.errors import DuplicateEvent, InvalidHom, NotAMonoid, SizeLimit, UnknownEvent
from asyntrace.fpcm_cat import (
    Category,
    TRIVIAL,
    coequalizer,
    colimit,
    coproduct,
    cotupling,
    equalizer,
    limit,
    monoids_isomorphic,
    pointed_relation,
    product,
    right_adjoint_R,
    tupling,
)
from asyntrace.trace_core import (
    BasicHom,
    compose,
    free_commutative_monoid,
    free_monoid,
    is_independence_preserving,
    make_hom,
    make_monoid,
)

import oracles
from oracles import enumerate_homs

BOTH = (Category.FPCM, Category.FPCM_PAR)


def coeq_example():
    src = make_monoid("ab", [("a", "b")])
    tgt = make_monoid("cde", [("c", "d"), ("d", "e")])
    f = make_hom(src, tgt, {"a": "c", "b": "d"})
    g = make_hom(src, tgt, {"a": "d", "b": "e"})
    return src, tgt, f, g


class TestRelationViews:
    """The paper's relations T and R, each a view of a monoid's independence."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(BOTH))
    def test_pointed_relation_is_the_commuting_pairs(self, seed, flag):
        m = oracles.random_monoid(random.Random(seed), max_events=4, density=0.5)
        assert pointed_relation(m, flag) == oracles.commuting_pairs(m, flag)

    def test_independence_recovered_from_commutativity(self):
        # I = T minus the diagonal and the star rows
        m = make_monoid("ab", [("a", "b")])
        recovered = {
            (a, b)
            for a, b in pointed_relation(m, Category.FPCM)
            if a != b and "*" not in (a, b)
        }
        assert recovered == {("a", "b"), ("b", "a")}


class TestProduct:
    def test_two_free_generators_fpcm(self):
        res = product([free_monoid("a"), free_monoid("b")], Category.FPCM)
        assert len(res.monoid.events) == 3
        assert monoids_isomorphic(res.monoid, free_commutative_monoid("xyz")) is not None

    def test_two_free_generators_fpcm_par(self):
        res = product([free_monoid("a"), free_monoid("b")], Category.FPCM_PAR)
        assert len(res.monoid.events) == 3
        assert res.monoid.pairs() == [("(a,*)", "(*,b)")]

    def test_empty_product_is_terminal(self):
        for flag in BOTH:
            res = product([], flag)
            assert res.monoid == TRIVIAL

    def test_projections_are_valid(self):
        res = product([free_commutative_monoid("ab"), free_monoid("c")], Category.FPCM)
        for p in res.projections:
            assert p.source == res.monoid

    def test_seven_factors_are_refused_at_once(self):
        # 4^7 - 1 = 16 383 generators; six factors, 4 095, pass
        ms = [make_monoid([f"{c}{i}" for c in "abc"], [(f"a{i}", f"b{i}")]) for i in range(7)]
        six = fpcm_cat.PointedGrid([m.events for m in ms[:6]]).matching(discrete(6), {}, DuplicateEvent, "generator")
        assert len(six) == 4095
        start = time.perf_counter()
        with pytest.raises(SizeLimit, match="16383 generators"):
            product(ms)
        assert time.perf_counter() - start < 1

    def test_tupling_commutes_with_projections(self):
        m1, m2 = free_monoid("a"), free_monoid("b")
        res = product([m1, m2], Category.FPCM)
        x = free_monoid("x")
        f1 = make_hom(x, m1, {"x": "a"})
        f2 = make_hom(x, m2, {"x": None})
        med = tupling([f1, f2], res)
        assert compose(res.projections[0], med).mapping == f1.mapping
        assert compose(res.projections[1], med).mapping == f2.mapping


@st.composite
def small_monoids(draw, prefix=""):
    """Up to 3 events, any subset of pairs independent."""
    events = tuple(prefix + c for c in "abc"[: draw(st.integers(0, 3))])
    pairs = list(itertools.combinations(events, 2))
    return make_monoid(events, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


def assert_same_product(got, want):
    """Equal generators, pairs, projections and components, in order."""
    assert got.monoid.events == want.monoid.events
    assert got.monoid.pairs() == want.monoid.pairs()
    assert [(p.source, p.target, p.image) for p in got.projections] == [
        (p.source, p.target, p.image) for p in want.projections
    ]
    assert list(got.components.items()) == list(want.components.items())


def assert_checked_hom(h):
    """``h``, built without ``make_hom``, passes its checks unchanged."""
    assert make_hom(h.source, h.target, h.mapping) == h


class TestProductReference:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(small_monoids(), max_size=4), st.sampled_from(BOTH))
    def test_matches_pairwise_reference(self, ms, flag):
        got = product(ms, flag)
        oracles.check_monoid_order(got.monoid)
        for p in got.projections:  # built without make_hom, so its check runs here
            assert_checked_hom(p)
        assert_same_product(got, oracles.reference_product(ms, flag))

    def test_clashing_generator_names_are_named(self):
        # "(a,b,c)" renders both ("a,b", "c") and ("a", "b,c")
        ms = [free_monoid(["a,b", "a"]), free_monoid(["c", "b,c"])]
        for flag in BOTH:
            with pytest.raises(DuplicateEvent) as exc:
                product(ms, flag)
            msg = str(exc.value)
            assert "'(a,b,c)'" in msg and "('a,b', 'c')" in msg and "('a', 'b,c')" in msg


class TestEqualizer:
    def test_fixed_subalphabet(self):
        src = free_monoid("ab")
        tgt = free_monoid("cd")
        f = make_hom(src, tgt, {"a": "c", "b": "c"})
        g = make_hom(src, tgt, {"a": "c", "b": "d"})
        sub, incl = equalizer(f, g)
        assert sub.events == ("a",)
        assert incl("a") == "a"

    def test_independence_restricts(self):
        src = make_monoid("abc", [("a", "b"), ("b", "c")])
        tgt = free_monoid("z")
        f = make_hom(src, tgt, {"a": "z", "b": "z", "c": "z"})
        g = make_hom(src, tgt, {"a": "z", "b": "z", "c": None})
        sub, _ = equalizer(f, g)
        assert sub.events == ("a", "b")
        assert sub.pairs() == [("a", "b")]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(BOTH))
    def test_matches_agreeing_events(self, seed, flag):
        rng = random.Random(seed)
        src, tgt = oracles.random_monoid(rng, 4, 0.5), oracles.random_monoid(rng, 3, prefix="t")
        f, g = (rng.choice(enumerate_homs(src, tgt, flag)) for _ in range(2))
        sub, inclusion = equalizer(f, g, flag)
        events = [e for e in src.events if f(e) == g(e)]
        assert sub == make_monoid(events, [(a, b) for a, b in src.pairs() if a in events and b in events])
        oracles.check_monoid_order(sub)
        assert_checked_hom(inclusion)
        assert inclusion.mapping == {e: e for e in events}
        assert compose(f, inclusion) == compose(g, inclusion)


class TestCoproduct:
    def test_tagged_union(self):
        res = coproduct([free_monoid("a"), free_monoid("a")])
        assert res.monoid.events == ("0:a", "1:a")
        assert res.monoid.pairs() == []

    def test_cotupling_commutes(self):
        m1, m2 = free_monoid("a"), free_commutative_monoid("bc")
        res = coproduct([m1, m2])
        x = free_commutative_monoid("xy")
        f1 = make_hom(m1, x, {"a": "x"})
        f2 = make_hom(m2, x, {"b": "y", "c": None})
        med = cotupling([f1, f2], res)
        assert compose(med, res.injections[0]).mapping == f1.mapping
        assert compose(med, res.injections[1]).mapping == f2.mapping

    @settings(max_examples=200, deadline=None)
    @given(st.lists(small_monoids(), max_size=4), st.sampled_from(BOTH))
    def test_matches_tagged_union(self, ms, flag):
        res = coproduct(ms, flag)
        tagged = [(f"{j}:{a}", f"{j}:{b}") for j, m in enumerate(ms) for a, b in m.pairs()]
        assert res.monoid == make_monoid([f"{j}:{e}" for j, m in enumerate(ms) for e in m.events], tagged)
        oracles.check_monoid_order(res.monoid)
        for j, (m, inj) in enumerate(zip(ms, res.injections)):
            assert_checked_hom(inj)
            assert inj.source == m and inj.mapping == {e: f"{j}:{e}" for e in m.events}


class TestCoequalizer:
    def test_fpcm_example_collapses_to_one_generator(self):
        _, _, f, g = coeq_example()
        res = coequalizer(f, g)
        assert res.monoid.events == ("c",)
        assert res.monoid.pairs() == []
        assert res.classes == {"c": "c", "d": "c", "e": "c"}
        assert monoids_isomorphic(res.monoid, free_commutative_monoid("z")) is not None

    def test_ip_example_is_trivial(self):
        _, _, f, g = coeq_example()
        res = coequalizer(f, g, Category.FPCM_PAR)
        assert res.monoid == TRIVIAL
        assert res.classes == {"c": None, "d": None, "e": None}

    def test_dispatcher(self):
        _, _, f, g = coeq_example()
        assert coequalizer(f, g, Category.FPCM).monoid.events == ("c",)
        assert coequalizer(f, g, Category.FPCM_PAR).monoid == TRIVIAL

    def test_erased_events_become_identity(self):
        src = free_monoid("a")
        tgt = free_monoid("bc")
        f = make_hom(src, tgt, {"a": "b"})
        g = make_hom(src, tgt, {"a": None})
        res = coequalizer(f, g)
        assert res.monoid.events == ("c",)
        assert res.classes == {"b": None, "c": "c"}

    def test_quotient_coequalizes(self):
        _, _, f, g = coeq_example()
        for flag in BOTH:
            res = coequalizer(f, g, flag)
            assert compose(res.quotient, f).mapping == compose(res.quotient, g).mapping


class TestMalformedImages:
    """A library-built hom whose image is short or names an event outside
    its target ends in a ``TraceError``."""

    def test_short_image_on_call(self):
        h = BasicHom(free_monoid("ab"), free_monoid("c"), ("c",))
        assert h("a") == "c"
        with pytest.raises(InvalidHom, match=r"event 'b'.*1 entries"):
            h("b")
        with pytest.raises(UnknownEvent):
            h("z")

    def test_short_image_on_independence_check(self):
        h = BasicHom(make_monoid("ab", [("a", "b")]), free_monoid("c"), ("c",))
        with pytest.raises(InvalidHom, match="1 entries for 2"):
            is_independence_preserving(h)

    @pytest.mark.parametrize("flag", BOTH)
    @pytest.mark.parametrize("image, problem", [(("c",), "1 entries for 2"), (("c", "z"), "unknown target event 'z'")])
    @pytest.mark.parametrize("construction", [coequalizer, equalizer])
    def test_coequalizer_and_equalizer(self, construction, image, problem, flag):
        s, t = free_monoid("ab"), free_monoid("c")
        good = BasicHom(s, t, ("c", "c"))
        for f, g in ((BasicHom(s, t, image), good), (good, BasicHom(s, t, image))):
            with pytest.raises(UnknownEvent, match=problem):
                construction(f, g, flag)


class TestNoRecheck:
    """Every construction builds its monoid and arrows valid by
    construction: at the benchmark's four-factor size (143 generators) none
    of them calls the checked constructors."""

    @pytest.mark.parametrize("flag", BOTH)
    def test_constructions_call_no_checked_constructor(self, monkeypatch, flag):
        ms = [make_monoid("abc", [("a", "b")]), make_monoid("de", [("d", "e")]),
              make_monoid("fgh", [("g", "h")]), free_monoid("ij")]
        calls = []
        for name in ("make_monoid", "make_hom"):
            real = getattr(fpcm_cat, name)
            monkeypatch.setattr(fpcm_cat, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
        prod = product(ms, flag)
        p = prod.monoid
        assert len(p.events) == 143
        cone = limit(Diagram(discrete(4), dict(zip(discrete(4).objects, ms)), {}), flag)
        assert cone.apex == p
        cop = coproduct([p, p], flag)
        inj = cop.injections
        coeq = coequalizer(*inj, flag)
        assert len(coeq.monoid.events) == 143
        cocone = colimit(Diagram(parallel_pair(), {"src": p, "dst": cop.monoid}, dict(zip("fg", inj))), flag)
        assert cocone.apex == coeq.monoid
        sub, _ = equalizer(prod.projections[0], BasicHom(p, ms[0], (None,) * 143), flag)
        assert len(sub.events) == 35
        assert calls == []
        right_adjoint_R(["1"], [["1"]])  # the counter is live
        assert calls == ["make_monoid"]


class TestLimitsColimits:
    def test_limit_of_discrete_is_product(self):
        ms = [free_monoid("a"), free_monoid("b")]
        d = Diagram(discrete(2), {"o0": ms[0], "o1": ms[1]}, {})
        cone = limit(d, Category.FPCM)
        assert monoids_isomorphic(cone.apex, product(ms, Category.FPCM).monoid) is not None

    def test_limit_of_parallel_pair_is_equalizer(self):
        src = free_monoid("ab")
        tgt = free_monoid("cd")
        f = make_hom(src, tgt, {"a": "c", "b": "c"})
        g = make_hom(src, tgt, {"a": "c", "b": "d"})
        d = Diagram(parallel_pair(), {"src": src, "dst": tgt}, {"f": f, "g": g})
        cone = limit(d, Category.FPCM)
        sub, _ = equalizer(f, g)
        assert monoids_isomorphic(cone.apex, sub) is not None

    def test_colimit_of_parallel_pair_is_coequalizer(self):
        _, tgt, f, g = coeq_example()
        d = Diagram(
            parallel_pair(), {"src": f.source, "dst": tgt}, {"f": f, "g": g}
        )
        for flag in BOTH:
            cocone = colimit(d, flag)
            assert monoids_isomorphic(cocone.apex, coequalizer(f, g, flag).monoid) is not None

    def test_pushout_glues_along_shared_generator(self):
        apex = free_monoid("x")
        left = free_monoid("ab")
        right = free_monoid("cd")
        l = make_hom(apex, left, {"x": "a"})
        r = make_hom(apex, right, {"x": "c"})
        d = Diagram(span(), {"apex": apex, "left": left, "right": right}, {"l": l, "r": r})
        cocone = colimit(d, Category.FPCM)
        assert len(cocone.apex.events) == 3
        assert cocone.legs["left"]("a") == cocone.legs["right"]("c")

    def test_cone_legs_commute_with_arrows(self):
        src = free_monoid("ab")
        tgt = free_monoid("cd")
        f = make_hom(src, tgt, {"a": "c", "b": "c"})
        g = make_hom(src, tgt, {"a": "c", "b": "d"})
        d = Diagram(parallel_pair(), {"src": src, "dst": tgt}, {"f": f, "g": g})
        cone = limit(d, Category.FPCM)
        for arrow in ("f", "g"):
            h = d.on_arrows[arrow]
            assert compose(h, cone.legs["src"]).mapping == cone.legs["dst"].mapping


class TestRightAdjoint:
    def test_cyclic_group_of_order_two(self):
        res = right_adjoint_R(["1", "g"], [["1", "g"], ["g", "1"]])
        assert res.monoid.events == ("g",)
        assert res.monoid.pairs() == []
        assert res.identity == "1"

    def test_cyclic_group_of_order_three(self):
        table = [["1", "g", "h"], ["g", "h", "1"], ["h", "1", "g"]]
        res = right_adjoint_R(["1", "g", "h"], table)
        assert res.monoid.events == ("g", "h")
        assert res.monoid.pairs() == [("g", "h")]

    def test_noncommuting_elements_stay_dependent(self):
        # smallest noncommutative monoid: left zeroes plus an identity
        elements = ["1", "p", "q"]
        table = [["1", "p", "q"], ["p", "p", "p"], ["q", "q", "q"]]
        res = right_adjoint_R(elements, table)
        assert res.monoid.pairs() == []

    def test_accepts_idempotent_table(self):
        res = right_adjoint_R(["1", "a"], [["1", "a"], ["a", "a"]])
        assert res.monoid.events == ("a",)

    def test_rejects_non_associative_table(self):
        with pytest.raises(NotAMonoid):
            right_adjoint_R(
                ["1", "a", "b"],
                [["1", "a", "b"], ["a", "b", "b"], ["b", "a", "a"]],
            )

    def test_rejects_table_without_identity(self):
        with pytest.raises(NotAMonoid):
            right_adjoint_R(["a", "b"], [["a", "a"], ["a", "a"]])

    @pytest.mark.parametrize(
        "elements, table, message",
        [
            ([["1"]], [[["1"]]], r"carrier element \['1'\] is not a name"),
            ([1], [[1]], "carrier element 1 is not a name"),
            (["1"], [[["1"]]], r"table entry \['1'\] outside the carrier"),
        ],
        ids=["unhashable-element", "int-element", "unhashable-entry"],
    )
    def test_rejects_carrier_elements_that_are_not_names(self, elements, table, message):
        with pytest.raises(NotAMonoid, match=message):
            right_adjoint_R(elements, table)

    def test_size_limit(self):
        elements = [f"x{i}" for i in range(65)]
        with pytest.raises(SizeLimit):
            right_adjoint_R(elements, [[e] * 65 for e in elements])


class TestHomEnumeration:
    def test_counts_free_case(self):
        # each of the two generators maps to one generator or the identity
        homs = enumerate_homs(free_monoid("ab"), free_monoid("c"))
        assert len(homs) == 4

    def test_fpcm_par_excludes_collisions(self):
        src = make_monoid("ab", [("a", "b")])
        tgt = free_monoid("c")
        assert len(enumerate_homs(src, tgt, Category.FPCM)) == 4
        assert len(enumerate_homs(src, tgt, Category.FPCM_PAR)) == 3

    def test_isomorphic_positive_and_negative(self):
        assert monoids_isomorphic(
            make_monoid("ab", [("a", "b")]), make_monoid("xy", [("x", "y")])
        )
        assert (
            monoids_isomorphic(make_monoid("ab", [("a", "b")]), free_monoid("ab"))
            is None
        )

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 2**32), st.booleans())
    def test_isomorphic_matches_the_brute_force(self, seed, copy):
        # the same answer as trying every permutation, the map and its order included
        rng = random.Random(seed)
        m1 = oracles.random_monoid(rng, 6, density=rng.random())
        if copy:
            m2, _ = oracles.relabelled_monoid(rng, m1)
        else:
            m2 = oracles.random_monoid(rng, 6, density=rng.random(), prefix="z")
        got, want = monoids_isomorphic(m1, m2), oracles.reference_monoids_isomorphic(m1, m2)
        assert got == want
        if want is not None:
            assert list(got.items()) == list(want.items())

    def test_the_budget_holds_every_monoid_search(self):
        # a monoid search over 8 events tries at most sum(8!/(8-j)!) prefixes
        assert sum(math.perm(8, j) for j in range(9)) == 109_601 < fpcm_cat.SEARCH_NODES

    def test_isomorphism_size_limit(self):
        big = free_monoid([f"e{i}" for i in range(9)])
        with pytest.raises(SizeLimit):
            monoids_isomorphic(big, big)
