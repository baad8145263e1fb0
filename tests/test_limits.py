"""Finite limits of monoids and of state spaces as compatible families.

Both limits are judged by ``oracles.reference_limit`` and
``oracles.reference_space_limit``: the product, tupling and equalizer driver
that they replaced, which must give the same apex and legs, in order."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from asyntrace import fpcm_cat, state_space
from asyntrace.diagrams import DiagramShape, MonoidDiagram, cospan, discrete, parallel_pair, span
from asyntrace.errors import DuplicateEvent, InvalidSpace, MalformedDiagram
from asyntrace.fpcm_cat import Category, enumerate_homs
from asyntrace.state_space import SpaceDiagram, StateSpaceMorphism, make_space, make_space_morphism
from asyntrace.trace_core import STAR, BasicHom, free_monoid, identity_hom, make_hom, make_monoid

import oracles

BOTH = (Category.FPCM, Category.FPCM_PAR)
PATH = DiagramShape(("o0", "o1", "o2"), (("f", "o0", "o1"), ("g", "o1", "o2")))
SHAPES = (discrete(2), discrete(3), span(), cospan(), parallel_pair(), PATH)


def random_monoid_diagram(rng, shape, flag):
    """Up to 3 events per object; each arrow a random hom of the category."""
    on_objects = {o: oracles.random_monoid(rng, 3, prefix=o[0]) for o in shape.objects}
    on_arrows = {
        name: rng.choice(enumerate_homs(on_objects[src], on_objects[dst], flag)) for name, src, dst in shape.arrows
    }
    return MonoidDiagram(shape, on_objects, on_arrows)


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
    return SpaceDiagram(shape, on_objects, on_arrows)


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
        assert_same_monoid_cone(fpcm_cat.limit(d, flag), oracles.reference_limit(d, flag))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(SHAPES), st.sampled_from(BOTH))
    def test_space_limit_matches_reference(self, seed, shape, flag):
        d = random_space_diagram(random.Random(seed), shape)
        assert_same_space_cone(state_space.limit(d, flag), oracles.reference_space_limit(d, flag))


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
    return SpaceDiagram(cospan(), spaces, arrows)


class TestNameClashes:
    @pytest.mark.parametrize("flag", BOTH)
    def test_clash_outside_the_object_product_is_not_built(self, flag):
        d = clash_cospan()
        cone = fpcm_cat.limit(d.monoid_diagram(), flag)
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
            fpcm_cat.limit(MonoidDiagram(shape, {"o0": m0, "o1": m1}, maps))
        s0 = make_space(free_monoid(["e"]), ["a,b", "a"], {})
        s1 = make_space(free_monoid(["g"]), ["c", "b,c"], {})
        erase = make_hom(s0.monoid, s1.monoid, {"e": None})
        maps = {"f": make_space_morphism(s0, s1, erase, {"a,b": STAR, "a": STAR})} if arrows else {}
        with pytest.raises(InvalidSpace, match=r"'\(a,b,c\)'"):
            state_space.limit(SpaceDiagram(shape, {"o0": s0, "o1": s1}, maps))


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
        d = SpaceDiagram(self.ONE_ARROW, {"o0": s, "o1": t}, {"f": f})
        with pytest.raises(MalformedDiagram, match=r"arrow 'f': equivariance violation at \('p', 'a'\)"):
            state_space.limit(d, flag)
        with pytest.raises(MalformedDiagram, match="arrow 'f': equivariance violation"):
            state_space.colimit(d, flag, bound=2)

    @pytest.mark.parametrize("flag", BOTH)
    def test_monoid_arrow_that_is_not_well_defined_raises(self, flag):
        # a and b commute, their images c and d do not
        src, tgt = make_monoid("ab", [("a", "b")]), free_monoid("cd")
        d = MonoidDiagram(self.ONE_ARROW, {"o0": src, "o1": tgt}, {"f": BasicHom(src, tgt, ("c", "d"))})
        with pytest.raises(MalformedDiagram, match=r"arrow 'f': independent pair \('a', 'b'\)"):
            fpcm_cat.limit(d, flag)
        with pytest.raises(MalformedDiagram, match=r"arrow 'f': independent pair \('a', 'b'\)"):
            fpcm_cat.colimit(d, flag)
