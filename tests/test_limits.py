"""Finite limits as compatible families, and monoid colimits as the
objects' coproduct modulo the congruence that the arrows generate.

Both limits are judged by ``oracles.reference_limit`` and
``oracles.reference_space_limit``: the product, tupling and equalizer driver
that they replaced, which must give the same apex and legs, in order.  The
monoid colimit is judged by ``oracles.reference_colimit``, the coproduct,
cotupling and coequalizer driver that it replaced.  Malformed diagrams over
every base must end in a ``TraceError`` at every (co)limit."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from asyntrace import async_system, fpcm_cat, state_space
from asyntrace.async_system import WeakAsyncSystem
from asyntrace.diagrams import Cone, Diagram, DiagramShape, cospan, discrete, parallel_pair, span
from asyntrace.errors import DuplicateEvent, InvalidSpace, MalformedDiagram, TraceError
from asyntrace.fpcm_cat import Category
from asyntrace.state_space import StateSpaceMorphism, make_space, make_space_morphism
from asyntrace.trace_core import (
    STAR,
    BasicHom,
    compose,
    free_monoid,
    identity_hom,
    is_independence_preserving,
    make_hom,
    make_monoid,
)

import oracles
from oracles import enumerate_homs

BOTH = (Category.FPCM, Category.FPCM_PAR)
PATH = DiagramShape(("o0", "o1", "o2"), (("f", "o0", "o1"), ("g", "o1", "o2")))
SHAPES = (discrete(2), discrete(3), span(), cospan(), parallel_pair(), PATH)


def random_monoid_diagram(rng, shape, flag):
    """Up to 3 events per object; each arrow a random hom of the category."""
    on_objects = {o: oracles.random_monoid(rng, 3, prefix=o[0]) for o in shape.objects}
    on_arrows = {
        name: rng.choice(enumerate_homs(on_objects[src], on_objects[dst], flag)) for name, src, dst in shape.arrows
    }
    return Diagram(shape, on_objects, on_arrows)


def random_space_diagram(rng, shape):
    """Spaces of up to 3 events and 4 states over one monoid; each arrow an
    equivariant state map over the identity, or the map to star when the
    search finds none."""
    m = oracles.random_monoid(rng, 3)
    on_objects = {o: oracles.random_space(rng, m, 4, prefix=o[0]) for o in shape.objects}
    on_arrows = {}
    for name, src, dst in shape.arrows:
        s, t = on_objects[src], on_objects[dst]
        smap = oracles.random_equivariant_map(rng, s, t) or {x: STAR for x in s.states}
        on_arrows[name] = StateSpaceMorphism(s, t, identity_hom(m), smap)
    return Diagram(shape, on_objects, on_arrows)


def random_system_diagram(rng, shape):
    """One random system and a copy with renamed states, on the objects at
    random; each arrow the identity or the renaming between them."""
    a = oracles.random_system(rng, 3, 2)
    rename = {x: "r" + x for x in a.states}
    b = WeakAsyncSystem(
        a.monoid,
        tuple(rename.values()),
        {(rename[x], e): rename[y] for (x, e), y in a.action.items()},
        rename[a.initial],
    )
    on_objects = {o: rng.choice((a, b)) for o in shape.objects}
    on_arrows = {}
    for name, src, dst in shape.arrows:
        s, t = on_objects[src], on_objects[dst]
        states = dict(zip(s.states, t.states))
        on_arrows[name] = oracles.system_morphism(s, t, {e: e for e in s.monoid.events}, states)
    return Diagram(shape, on_objects, on_arrows)


def assert_valid_hom(h, flag):
    assert make_hom(h.source, h.target, h.mapping) == h
    assert flag is Category.FPCM or is_independence_preserving(h)


def assert_same_monoid_cone(got, want):
    assert got.apex.events == want.apex.events
    assert got.apex.pairs() == want.apex.pairs()
    assert list(got.legs.items()) == list(want.legs.items())


def assert_same_space_cone(got, want):
    assert got.apex.monoid.events == want.apex.monoid.events
    assert got.apex.monoid.pairs() == want.apex.monoid.pairs()
    assert got.apex.states == want.apex.states
    assert list(got.apex.action.items()) == list(want.apex.action.items())
    assert list(got.legs) == list(want.legs)
    for o, leg in got.legs.items():
        assert leg.monoid_part == want.legs[o].monoid_part
        assert leg.target == want.legs[o].target
        assert list(leg.state_part.items()) == list(want.legs[o].state_part.items())


class TestLimitReference:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(SHAPES), st.sampled_from(BOTH))
    def test_monoid_limit_matches_reference(self, seed, shape, flag):
        d = random_monoid_diagram(random.Random(seed), shape, flag)
        got = fpcm_cat.limit(d, flag)
        oracles.check_monoid_order(got.apex)
        assert_same_monoid_cone(got, oracles.reference_limit(d, flag))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(SHAPES), st.sampled_from(BOTH))
    def test_space_limit_matches_reference(self, seed, shape, flag):
        d = random_space_diagram(random.Random(seed), shape)
        got = state_space.limit(d, flag)
        oracles.check_monoid_order(got.apex.monoid)
        assert_same_space_cone(got, oracles.reference_space_limit(d, flag))


class TestProductsAreDiscreteLimits:
    """A product is the limit of the discrete diagram on its factors: the
    same apex, in the same order, and its projections are the legs."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 3), st.sampled_from(BOTH))
    def test_monoid_product_is_the_discrete_limit(self, seed, k, flag):
        rng = random.Random(seed)
        ms = [oracles.random_monoid(rng, 3) for _ in range(k)]
        prod = fpcm_cat.product(ms, flag)
        cone = fpcm_cat.limit(Diagram(discrete(k), {f"o{j}": m for j, m in enumerate(ms)}, {}), flag)
        assert_same_monoid_cone(Cone(prod.monoid, dict(zip(cone.legs, prod.projections))), cone)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 3), st.sampled_from(BOTH))
    def test_space_product_is_the_discrete_limit(self, seed, k, flag):
        rng = random.Random(seed)
        spaces = [oracles.random_space(rng, oracles.random_monoid(rng, 3), n=rng.randint(0, 3)) for _ in range(k)]
        prod = state_space.product(spaces, flag)
        cone = state_space.limit(Diagram(discrete(k), {f"o{j}": s for j, s in enumerate(spaces)}, {}), flag)
        assert_same_space_cone(Cone(prod.space, dict(zip(cone.legs, prod.projections))), cone)
        assert list(prod.state_components) == list(cone.apex.states)

    @pytest.mark.parametrize("flag", BOTH)
    def test_discrete_limit_is_computed_by_product(self, monkeypatch, flag):
        calls = []
        product = fpcm_cat.product
        monkeypatch.setattr(fpcm_cat, "product", lambda ms, flag: calls.append(len(ms)) or product(ms, flag))
        ms = {"o0": free_monoid("ab"), "o1": make_monoid("xy", [("x", "y")])}
        fpcm_cat.limit(Diagram(discrete(2), ms, {}), flag)
        assert calls == [2]


class TestColimitReference:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(SHAPES), st.sampled_from(BOTH))
    def test_monoid_colimit_matches_reference(self, seed, shape, flag):
        d = random_monoid_diagram(random.Random(seed), shape, flag)
        got = fpcm_cat.colimit(d, flag)
        oracles.check_monoid_order(got.apex)
        assert_same_monoid_cone(got, oracles.reference_colimit(d, flag))
        for leg in got.legs.values():
            assert_valid_hom(leg, flag)
        if shape == parallel_pair():
            f, g = d.on_arrows["f"], d.on_arrows["g"]
            res = fpcm_cat.coequalizer(f, g, flag)
            oracles.check_monoid_order(res.monoid)
            q = res.quotient
            assert_valid_hom(q, flag)
            assert compose(q, f) == compose(q, g)


def clash_cospan():
    """A cospan L -> T <- R whose legs send their one event and state to
    ``a,b``.  T's names ``a,b``, ``c``, ``a`` and ``b,c`` render ``(a,b,c)``
    twice in T x T, a product the limit does not need."""
    names = ("a,b", "c", "a", "b,c")
    spaces = {
        "left": make_space(free_monoid(["x"]), ["x"], {("x", "x"): "x"}),
        "right": make_space(free_monoid(["y"]), ["y"], {("y", "y"): "y"}),
        "apex": make_space(make_monoid(names), names, {("a,b", "a,b"): "a,b"}),
    }
    arrows = {}
    for name, o in (("l", "left"), ("r", "right")):
        s, t = spaces[o], spaces["apex"]
        e = s.states[0]
        arrows[name] = make_space_morphism(s, t, make_hom(s.monoid, t.monoid, {e: "a,b"}), {e: "a,b"})
    return Diagram(cospan(), spaces, arrows)


class TestNameClashes:
    @pytest.mark.parametrize("flag", BOTH)
    def test_clash_outside_the_object_product_is_not_built(self, flag):
        d = clash_cospan()
        cone = fpcm_cat.limit(d.map(lambda s: s.monoid, lambda m: m.monoid_part), flag)
        assert cone.apex.events == ("(x,y,a,b)",)
        assert {o: leg.image for o, leg in cone.legs.items()} == {
            "left": ("x",), "right": ("y",), "apex": ("a,b",)
        }
        space_cone = state_space.limit(d, flag)
        assert space_cone.apex.states == ("(x,y,a,b)",)
        assert space_cone.apex.monoid.events == ("(x,y,a,b)",)
        assert space_cone.apex.action == {("(x,y,a,b)", "(x,y,a,b)"): "(x,y,a,b)"}
        assert space_cone.legs["apex"].state_part == {"(x,y,a,b)": "a,b"}

    @pytest.mark.parametrize("arrows", [(), (("f", "o0", "o1"),)])
    def test_clash_in_the_object_product_raises(self, arrows):
        # "(a,b,c)" renders both ("a,b", "c") and ("a", "b,c"); the arrow, which
        # erases everything, keeps neither tuple, and the clash still raises
        shape = DiagramShape(("o0", "o1"), arrows)
        m0, m1 = make_monoid(["a,b", "a"]), make_monoid(["c", "b,c"])
        maps = {"f": make_hom(m0, m1, {"a,b": None, "a": None})} if arrows else {}
        with pytest.raises(DuplicateEvent, match=r"'\(a,b,c\)'"):
            fpcm_cat.limit(Diagram(shape, {"o0": m0, "o1": m1}, maps))
        s0 = make_space(free_monoid(["e"]), ["a,b", "a"], {})
        s1 = make_space(free_monoid(["g"]), ["c", "b,c"], {})
        erase = make_hom(s0.monoid, s1.monoid, {"e": None})
        maps = {"f": make_space_morphism(s0, s1, erase, {"a,b": STAR, "a": STAR})} if arrows else {}
        with pytest.raises(InvalidSpace, match=r"'\(a,b,c\)'"):
            state_space.limit(Diagram(shape, {"o0": s0, "o1": s1}, maps))


class TestUncheckedArrows:
    """An arrow built without its constructor's check is reported by the
    diagram, so a (co)limit never returns legs that are not morphisms."""

    ONE_ARROW = DiagramShape(("o0", "o1"), (("f", "o0", "o1"),))

    @pytest.mark.parametrize("flag", BOTH)
    def test_space_arrow_that_is_not_equivariant_raises(self, flag):
        # p.a = q, but u.a = u: the image of p.a is v, not u.a
        m = free_monoid("a")
        s = make_space(m, ["p", "q"], {("p", "a"): "q"})
        t = make_space(m, ["u", "v"], {("u", "a"): "u"})
        f = StateSpaceMorphism(s, t, identity_hom(m), {"p": "u", "q": "v"})
        d = Diagram(self.ONE_ARROW, {"o0": s, "o1": t}, {"f": f})
        with pytest.raises(MalformedDiagram, match=r"arrow 'f': equivariance violation at \('p', 'a'\)"):
            state_space.limit(d, flag)
        with pytest.raises(MalformedDiagram, match="arrow 'f': equivariance violation"):
            state_space.colimit(d, flag, bound=2)

    @pytest.mark.parametrize("flag", BOTH)
    def test_monoid_arrow_that_is_not_well_defined_raises(self, flag):
        # a and b commute, their images c and d do not
        src, tgt = make_monoid("ab", [("a", "b")]), free_monoid("cd")
        d = Diagram(self.ONE_ARROW, {"o0": src, "o1": tgt}, {"f": BasicHom(src, tgt, ("c", "d"))})
        with pytest.raises(MalformedDiagram, match=r"arrow 'f': independent pair \('a', 'b'\)"):
            fpcm_cat.limit(d, flag)
        with pytest.raises(MalformedDiagram, match=r"arrow 'f': independent pair \('a', 'b'\)"):
            fpcm_cat.colimit(d, flag)

    @pytest.mark.parametrize("flag", BOTH)
    @pytest.mark.parametrize("image, problem", [
        (("c",), "image has 1 entries for 2 source events"),
        ((None, "z"), "image of 'b' is unknown target event 'z'"),
    ])
    def test_monoid_arrow_whose_image_cannot_be_read_raises(self, flag, image, problem):
        src, tgt = make_monoid("ab", [("a", "b")]), free_monoid("cd")
        d = Diagram(self.ONE_ARROW, {"o0": src, "o1": tgt}, {"f": BasicHom(src, tgt, image)})
        for construction in (fpcm_cat.limit, fpcm_cat.colimit):
            with pytest.raises(MalformedDiagram, match=rf"^arrow 'f': {problem}$"):
                construction(d, flag)

    @pytest.mark.parametrize("flag", BOTH)
    @pytest.mark.parametrize("image, problem", [
        ((), "image has 0 entries for 1 source events"),
        (("z",), "image of 'a' is unknown target event 'z'"),
    ])
    def test_space_arrow_whose_monoid_part_cannot_be_read_raises(self, flag, image, problem):
        m = free_monoid("a")
        s = make_space(m, ["p"], {})
        f = StateSpaceMorphism(s, s, BasicHom(m, m, image), {"p": "p"})
        d = Diagram(self.ONE_ARROW, {"o0": s, "o1": s}, {"f": f})
        with pytest.raises(MalformedDiagram, match=rf"^arrow 'f': monoid part: {problem}$"):
            state_space.limit(d, flag)
        with pytest.raises(MalformedDiagram, match=rf"^arrow 'f': monoid part: {problem}$"):
            state_space.colimit(d, flag, bound=2)


MALFORMATIONS = (
    "missing object",
    "missing arrow",
    "swapped endpoints",
    "short image",
    "unknown image",
    "unchecked state map",
    "extra arrow",
)
ARROW_SHAPES = (span(), cospan(), parallel_pair(), PATH)


def malform_arrow(rng, base, arrow, how):
    """``arrow`` with a short or unknown image, or with a state map that
    sends its first state outside the target; a monoid arrow, which has no
    state map, gets an unchecked random image instead."""
    if base == "system":
        events, states = arrow.monoid_part.mapping, dict(arrow.state_part)
        first_event = next(iter(events))
        if how == "short image":
            del events[first_event]
        elif how == "unknown image":
            events[first_event] = "zz"
        else:
            states[next(iter(states))] = "zz"
        return oracles.system_morphism(arrow.source, arrow.target, events, states)
    if base == "space" and how == "unchecked state map":
        states = dict(arrow.state_part)
        states[next(iter(states))] = "zz"
        return StateSpaceMorphism(arrow.source, arrow.target, arrow.monoid_part, states)
    h = arrow if base == "monoid" else arrow.monoid_part
    if how == "short image":
        image = h.image[:-1]
    elif how == "unknown image":
        image = ("zz",) + h.image[1:]
    else:
        image = tuple(oracles.random_basic_hom_map(rng, h.source, h.target).values())
    h = BasicHom(h.source, h.target, image)
    return h if base == "monoid" else StateSpaceMorphism(arrow.source, arrow.target, h, arrow.state_part)


def malformed_diagram(rng, base, shape, flag, how):
    if base == "monoid":
        d = random_monoid_diagram(rng, shape, flag)
    elif base == "space":
        d = random_space_diagram(rng, shape)
    else:
        d = random_system_diagram(rng, shape)
    name = rng.choice(shape.arrows)[0]
    if how == "missing object":
        del d.on_objects[rng.choice(shape.objects)]
    elif how == "missing arrow":
        del d.on_arrows[name]
    elif how == "swapped endpoints":
        a = d.on_arrows[name]
        rest = (a.image,) if base == "monoid" else (a.monoid_part, a.state_part)
        d.on_arrows[name] = type(a)(a.target, a.source, *rest)
    elif how == "extra arrow":
        d.on_arrows["extra"] = malform_arrow(rng, base, d.on_arrows[name], "short image")
    else:
        d.on_arrows[name] = malform_arrow(rng, base, d.on_arrows[name], how)
    return d


ENTRY_POINTS = {
    "monoid": (fpcm_cat.limit, fpcm_cat.colimit),
    "space": (state_space.limit, lambda d, flag: state_space.colimit(d, flag, bound=2)),
    "system": (lambda d, flag: async_system.limit(d), lambda d, flag: async_system.colimit(d, bound=2)),
}


class TestMalformedDiagrams:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.sampled_from(sorted(ENTRY_POINTS)),
        st.sampled_from(ARROW_SHAPES),
        st.sampled_from(BOTH),
        st.sampled_from(MALFORMATIONS),
    )
    def test_every_construction_returns_or_raises_a_trace_error(self, seed, base, shape, flag, how):
        d = malformed_diagram(random.Random(seed), base, shape, flag, how)
        for construction in ENTRY_POINTS[base]:
            try:
                construction(d, flag)
            except TraceError:
                pass
