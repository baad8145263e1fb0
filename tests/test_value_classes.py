"""The contract of the 19 value classes: constructor parameters and
defaults, field-wise and class-strict ``==``, ``hash`` and immutability for
the frozen four, and ``repr``, each checked on sample instances.

Each sample is built twice from fresh, equal field values, so equality is
seen to compare the fields, not the objects that hold them.
"""

from __future__ import annotations

import pytest

from asyntrace.async_system import WeakAsyncSystem
from asyntrace.diagrams import Cone, Diagram, DiagramShape
from asyntrace.fpcm_cat import CoequalizerResult, CoproductResult, ProductResult, RightAdjointResult
from asyntrace.interchange import Bundle, MonoidTable
from asyntrace.state_space import (
    PresentedAction,
    SaturationResult,
    SpaceColimitResult,
    SpaceProductResult,
    StateSpace,
    StateSpaceMorphism,
)
from asyntrace.trace_core import BasicHom, Trace, TraceMonoid


def monoid():
    return TraceMonoid(("a", "b"), frozenset({("a", "b")}))


def hom():
    return BasicHom(monoid(), monoid(), ("a", None))


def space():
    return StateSpace(monoid(), ("x", "y"), {("x", "a"): "y"})


def morphism():
    return StateSpaceMorphism(space(), space(), hom(), {"x": "x", "y": "*"})


def shape():
    return DiagramShape(("o0", "o1"), (("f", "o0", "o1"),))


# class -> (its parameters in order, a function making fresh sample values)
SAMPLES = {
    TraceMonoid: (("events", "independence"), lambda: (("a", "b"), frozenset({("a", "b")}))),
    Trace: (("monoid", "letters"), lambda: (monoid(), ("a", "b"))),
    BasicHom: (("source", "target", "image"), lambda: (monoid(), monoid(), ("b", None))),
    DiagramShape: (("objects", "arrows"), lambda: (("o0", "o1"), (("f", "o0", "o1"),))),
    Cone: (("apex", "legs"), lambda: (monoid(), {"o0": hom()})),
    Diagram: (("shape", "on_objects", "on_arrows"), lambda: (shape(), {"o0": monoid(), "o1": monoid()}, {"f": hom()})),
    ProductResult: (("monoid", "projections", "components"), lambda: (monoid(), (hom(),), {"a": ("a", "*")})),
    CoproductResult: (("monoid", "injections"), lambda: (monoid(), (hom(), hom()))),
    CoequalizerResult: (("monoid", "quotient", "classes"), lambda: (monoid(), hom(), {"a": "a", "b": None})),
    RightAdjointResult: (("monoid", "identity", "counit"), lambda: (monoid(), "1", {"a": "a"})),
    StateSpace: (("monoid", "states", "action"), lambda: (monoid(), ("x",), {("x", "a"): "x"})),
    StateSpaceMorphism: (("source", "target", "monoid_part", "state_part"), lambda: (space(), space(), hom(), {"x": "y", "y": "*"})),
    SpaceProductResult: (
        ("space", "projections", "monoid_product", "state_components"),
        lambda: (space(), (morphism(),), ProductResult(monoid(), (), {}), {"x": ("x",)}),
    ),
    PresentedAction: (
        ("monoid", "generators", "transitions", "identifications"),
        lambda: (monoid(), ("g",), (("g", "a", "*"),), ((("g", ()), "*"),)),
    ),
    SaturationResult: (("status", "space", "class_map", "_buckets"), lambda: ("EXACT", space(), {"g": "x"}, ((), ()))),
    SpaceColimitResult: (("saturation", "cocone"), lambda: ("EXACT", Cone(space(), {}))),
    WeakAsyncSystem: (("monoid", "states", "action", "initial"), lambda: (monoid(), ("x",), {("x", "b"): "x"}, "x")),
    MonoidTable: (("elements", "table"), lambda: (("1", "p"), (("1", "p"), ("p", "1")))),
    Bundle: (("documents", "kinds", "bases"), lambda: ({"m": monoid()}, {"m": "monoid"}, {"d": "monoid"})),
}

FROZEN = {TraceMonoid, Trace, BasicHom, DiagramShape}
DEFAULTS = {PresentedAction: {"identifications": ()}, Bundle: {"bases": {}}}

REPRS = {
    TraceMonoid: "TraceMonoid(['a', 'b'], [('a', 'b')])",
    Trace: "Trace[ab]",
    BasicHom: "BasicHom(a->b, b->1)",
    DiagramShape: "DiagramShape(objects=('o0', 'o1'), arrows=(('f', 'o0', 'o1'),))",
    Cone: "Cone(apex=TraceMonoid(['a', 'b'], [('a', 'b')]), legs={'o0': BasicHom(a->a, b->1)})",
    Diagram: (
        "Diagram(shape=DiagramShape(objects=('o0', 'o1'), arrows=(('f', 'o0', 'o1'),)), "
        "on_objects={'o0': TraceMonoid(['a', 'b'], [('a', 'b')]), 'o1': TraceMonoid(['a', 'b'], [('a', 'b')])}, "
        "on_arrows={'f': BasicHom(a->a, b->1)})"
    ),
    ProductResult: (
        "ProductResult(monoid=TraceMonoid(['a', 'b'], [('a', 'b')]), projections=(BasicHom(a->a, b->1),), "
        "components={'a': ('a', '*')})"
    ),
    CoproductResult: (
        "CoproductResult(monoid=TraceMonoid(['a', 'b'], [('a', 'b')]), "
        "injections=(BasicHom(a->a, b->1), BasicHom(a->a, b->1)))"
    ),
    CoequalizerResult: (
        "CoequalizerResult(monoid=TraceMonoid(['a', 'b'], [('a', 'b')]), quotient=BasicHom(a->a, b->1), "
        "classes={'a': 'a', 'b': None})"
    ),
    RightAdjointResult: "RightAdjointResult(monoid=TraceMonoid(['a', 'b'], [('a', 'b')]), identity='1', counit={'a': 'a'})",
    StateSpace: "StateSpace(monoid=TraceMonoid(['a', 'b'], [('a', 'b')]), states=('x',), action={('x', 'a'): 'x'})",
    StateSpaceMorphism: (
        "StateSpaceMorphism(source=StateSpace(monoid=TraceMonoid(['a', 'b'], [('a', 'b')]), states=('x', 'y'), "
        "action={('x', 'a'): 'y'}), target=StateSpace(monoid=TraceMonoid(['a', 'b'], [('a', 'b')]), "
        "states=('x', 'y'), action={('x', 'a'): 'y'}), monoid_part=BasicHom(a->a, b->1), state_part={'x': 'y', 'y': '*'})"
    ),
    SpaceProductResult: (
        "SpaceProductResult(space=StateSpace(monoid=TraceMonoid(['a', 'b'], [('a', 'b')]), states=('x', 'y'), "
        "action={('x', 'a'): 'y'}), projections=(StateSpaceMorphism(source=StateSpace(monoid=TraceMonoid(['a', 'b'], "
        "[('a', 'b')]), states=('x', 'y'), action={('x', 'a'): 'y'}), target=StateSpace(monoid=TraceMonoid(['a', 'b'], "
        "[('a', 'b')]), states=('x', 'y'), action={('x', 'a'): 'y'}), monoid_part=BasicHom(a->a, b->1), "
        "state_part={'x': 'x', 'y': '*'}),), monoid_product=ProductResult(monoid=TraceMonoid(['a', 'b'], "
        "[('a', 'b')]), projections=(), components={}), state_components={'x': ('x',)})"
    ),
    PresentedAction: (
        "PresentedAction(monoid=TraceMonoid(['a', 'b'], [('a', 'b')]), generators=('g',), "
        "transitions=(('g', 'a', '*'),), identifications=((('g', ()), '*'),))"
    ),
    SaturationResult: (
        "SaturationResult(status='EXACT', space=StateSpace(monoid=TraceMonoid(['a', 'b'], [('a', 'b')]), "
        "states=('x', 'y'), action={('x', 'a'): 'y'}), class_map={'g': 'x'}, _buckets=((), ()))"
    ),
    SpaceColimitResult: (
        "SpaceColimitResult(saturation='EXACT', cocone=Cone(apex=StateSpace(monoid=TraceMonoid(['a', 'b'], "
        "[('a', 'b')]), states=('x', 'y'), action={('x', 'a'): 'y'}), legs={}))"
    ),
    WeakAsyncSystem: (
        "WeakAsyncSystem(monoid=TraceMonoid(['a', 'b'], [('a', 'b')]), states=('x',), "
        "action={('x', 'b'): 'x'}, initial='x')"
    ),
    MonoidTable: "MonoidTable(elements=('1', 'p'), table=(('1', 'p'), ('p', '1')))",
    Bundle: (
        "Bundle(documents={'m': TraceMonoid(['a', 'b'], [('a', 'b')])}, kinds={'m': 'monoid'}, "
        "bases={'d': 'monoid'})"
    ),
}

CLASSES = list(SAMPLES)


def by_keyword(cls):
    names, values = SAMPLES[cls]
    return cls(**dict(zip(names, values())))


def test_nineteen_classes():
    assert len(CLASSES) == len(REPRS) == 19


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_parameters_by_position_and_keyword(cls):
    names, values = SAMPLES[cls]
    args = values()
    x = cls(*args)
    assert all(getattr(x, n) is v for n, v in zip(names, args))
    assert by_keyword(cls) == x
    with pytest.raises(TypeError):
        cls(*args, "extra")
    with pytest.raises(TypeError):
        cls(*args, zz=1)
    with pytest.raises(TypeError):
        cls(*args[1:], **{names[0]: args[0]})  # the first value given twice
    required = [n for n in names if n not in DEFAULTS.get(cls, {})]
    for n in required:
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in zip(names, values()) if k != n})


@pytest.mark.parametrize("cls", list(DEFAULTS), ids=lambda c: c.__name__)
def test_defaults(cls):
    names, values = SAMPLES[cls]
    given = len(names) - len(DEFAULTS[cls])
    x, y = cls(*values()[:given]), cls(*values()[:given])
    for n, default in DEFAULTS[cls].items():
        assert getattr(x, n) == default
        if isinstance(default, dict):
            assert getattr(x, n) is not getattr(y, n)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_is_field_wise(cls):
    names, values = SAMPLES[cls]
    x = cls(*values())
    assert x == cls(*values()) and not x != cls(*values())
    assert x != values() and x != object()
    if cls is StateSpaceMorphism:
        return  # its own __eq__, below
    for i in range(len(names)):
        args = list(values())
        args[i] = "other"
        assert x != cls(*args)


def test_equality_is_class_strict():
    m, states, action = monoid(), ("x",), {("x", "a"): "x"}
    s, a = StateSpace(m, states, action), WeakAsyncSystem(m, states, action, "x")
    assert s != a and a != s
    assert not s == a and not a == s
    assert ProductResult(m, (), {}) != SpaceProductResult(m, (), {}, {})


def test_morphism_equality_reads_the_monoid_part_and_the_state_map():
    f = morphism()
    assert f == StateSpaceMorphism(f.source, None, hom(), {"x": "x", "y": "*"})
    assert f != StateSpaceMorphism(space(), space(), hom(), {"x": "y", "y": "*"})
    assert f != StateSpaceMorphism(space(), space(), BasicHom(monoid(), monoid(), ("b", None)), f.state_part)
    with pytest.raises(TypeError):
        hash(f)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_hash_and_assignment(cls):
    names, values = SAMPLES[cls]
    x = cls(*values())
    if cls in FROZEN:
        assert hash(x) == hash(cls(*values()))
        for n in names:
            with pytest.raises(AttributeError):
                setattr(x, n, getattr(x, n))
            with pytest.raises(AttributeError):
                delattr(x, n)
        assert x == cls(*values())
    else:
        with pytest.raises(TypeError):
            hash(x)
        setattr(x, names[-1], "new")
        assert getattr(x, names[-1]) == "new"


def test_frozen_hash_is_field_wise():
    assert hash(monoid()) != hash(TraceMonoid(("a", "b"), frozenset()))
    assert hash(hom()) == hash(BasicHom(monoid(), monoid(), ("a", None)))
    assert len({monoid(), monoid(), TraceMonoid(("b", "a"), frozenset({("a", "b")}))}) == 2


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr(cls):
    assert repr(by_keyword(cls)) == REPRS[cls]


def test_instances_have_a_dict():
    m = monoid()
    m.__dict__["_probe"] = 1
    assert m._probe == 1 and m == monoid() and repr(m) == REPRS[TraceMonoid]
    assert "index" in vars(TraceMonoid) and "pairs" in vars(TraceMonoid)
