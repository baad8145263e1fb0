"""Malformed arguments to the checked constructors, the word functions, the
bounded explorations and the diagram (co)limits end in a ``TraceError``.

Hypothesis draws names that are not strings (numbers, None, bools, bytes,
tuples, lists), letters outside the alphabet, and bounds or depths that are
not ints >= 0, mixed with valid ones.  It calls ``make_monoid``,
``make_hom``, ``make_space``, ``make_space_morphism``, ``make_system``,
``async_system.make_morphism`` (on sources built with and without
``make_system``), ``normalize``, ``equivalent``,
``extend_normal_form``, ``act_trace``, ``saturate`` or ``unfold`` on them;
the morphisms get them as event images and state-map values.  Each call
returns or raises a ``TraceError`` subclass, and a constructor that returns
holds only names that are strings.

The limits and colimits of spaces and of systems get discrete and one-arrow
diagrams of spaces and systems built without a check: drawn states and
action entries on unknown states or events, or with values outside the
states, are mixed into valid tables.  A diagram with an object that its
validator faults raises ``MalformedDiagram``; any other returns or raises a
``TraceError`` subclass.  So do the space ``equalizer`` and ``space_tupling``
of morphisms built without a check, whose state maps may miss a source state
or hold junk.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from asyntrace import async_system, state_space
from asyntrace.async_system import WeakAsyncSystem, make_morphism, make_system, unfold, validate_system
from asyntrace.diagrams import Diagram, DiagramShape, discrete
from asyntrace.errors import MalformedDiagram, TraceError
from asyntrace.fpcm_cat import Category
from asyntrace.state_space import (
    PresentedAction,
    StateSpace,
    StateSpaceMorphism,
    act_trace,
    make_space,
    make_space_morphism,
    saturate,
    validate_space,
)
from asyntrace.trace_core import (
    STAR,
    BasicHom,
    equivalent,
    extend_normal_form,
    free_commutative_monoid,
    free_monoid,
    make_hom,
    make_monoid,
    normal_form,
    normalize,
)

import oracles
from test_state_space import assert_same_saturation

HASHABLE_JUNK = st.one_of(
    st.integers(-2, 2), st.none(), st.booleans(), st.floats(allow_nan=False), st.binary(max_size=1), st.tuples(st.just("a"))
)
JUNK = st.one_of(HASHABLE_JUNK, st.lists(st.just("a"), max_size=1))
VALID = st.sampled_from(["a", "b", "c", "x", "y", STAR])
NAMES = st.one_of(VALID, VALID, JUNK)  # names, mostly valid
KEYS = st.one_of(VALID, VALID, HASHABLE_JUNK)  # names that can key a dict
PAIR_KEYS = st.one_of(st.tuples(KEYS, KEYS), st.tuples(KEYS, KEYS), KEYS, st.tuples(KEYS), st.tuples(KEYS, KEYS, KEYS))
BOUNDS = st.one_of(st.integers(-2, 3), st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=1))
MONOIDS = st.sampled_from([free_monoid("ab"), free_commutative_monoid("ab"), make_monoid("abc", [("a", "b")])])
TERMS = st.one_of(st.just(STAR), st.tuples(NAMES, st.lists(NAMES, max_size=2)), NAMES)
IND = make_monoid("ab", [("a", "b")])
DIAMOND = {("x", "a"): "y", ("x", "b"): "z", ("y", "b"): "w", ("z", "a"): "w"}
IMAGES = st.one_of(NAMES, st.none())  # event images, None erasing
TABLES = (  # (monoid, states, initial, action) of valid spaces and systems
    (IND, "xyzw", "x", DIAMOND),
    (free_monoid("ab"), "xy", "x", {("x", "a"): "y"}),
    (free_commutative_monoid("ab"), "x", STAR, {}),
)
SPACES = st.sampled_from([make_space(m, states, action) for m, states, _, action in TABLES])
SYSTEMS = st.sampled_from([make_system(states, initial, m, action) for m, states, initial, action in TABLES])


def _names_are_strings(names) -> bool:
    return all(isinstance(x, str) for x in names)


@settings(max_examples=300, deadline=None)
@given(st.lists(NAMES, max_size=4), st.lists(st.one_of(st.tuples(NAMES, NAMES), st.lists(NAMES, max_size=3), JUNK), max_size=3))
def test_make_monoid(events, independence):
    with contextlib.suppress(TraceError):
        assert _names_are_strings(make_monoid(events, independence).events)


@settings(max_examples=300, deadline=None)
@given(st.data(), MONOIDS, MONOIDS)
def test_make_hom(data, source, target):
    image = data.draw(st.fixed_dictionaries({e: NAMES for e in source.events}))
    image.update(data.draw(st.dictionaries(KEYS, NAMES, max_size=2)))
    with contextlib.suppress(TraceError):
        make_hom(source, target, image)


@settings(max_examples=300, deadline=None)
@given(MONOIDS, st.lists(NAMES, max_size=4), st.dictionaries(PAIR_KEYS, NAMES, max_size=4))
def test_make_space(monoid, states, action):
    with contextlib.suppress(TraceError):
        assert _names_are_strings(make_space(monoid, states, action).states)


@settings(max_examples=300, deadline=None)
@given(MONOIDS, st.lists(NAMES, max_size=4), NAMES, st.dictionaries(PAIR_KEYS, NAMES, max_size=4))
def test_make_system(monoid, states, initial, transitions):
    with contextlib.suppress(TraceError):
        assert _names_are_strings(make_system(states, initial, monoid, transitions).states)


@settings(max_examples=300, deadline=None)
@given(NAMES, st.lists(NAMES, max_size=3))
def test_act_trace(state, letters):
    with contextlib.suppress(TraceError):
        act_trace(make_space(IND, "xyzw", DIAMOND), state, letters)


@settings(max_examples=300, deadline=None)
@given(
    MONOIDS,
    st.lists(NAMES, max_size=3),
    st.lists(st.tuples(NAMES, NAMES, NAMES), max_size=3),
    st.lists(st.tuples(TERMS, TERMS), max_size=2),
    BOUNDS,
)
def test_saturate(monoid, generators, rules, identifications, bound):
    p = PresentedAction(monoid, tuple(generators), tuple(rules), tuple(identifications))
    with contextlib.suppress(TraceError):
        saturate(p, bound)


class Name(str):
    """A ``str`` subclass: the bulk checks hand it to the per-item scans,
    which accept it."""


def _names_and_subclasses(names):
    return st.sampled_from(names).flatmap(lambda x: st.sampled_from([x, Name(x)]))


def _tuple_or_list(items):
    return items.flatmap(lambda t: st.sampled_from([tuple(t), list(t)]))


@st.composite
def checked_presentations(draw):
    """Presentations over ``MONOIDS`` whose names are plain or ``str``
    subclasses, with rules and identifications as tuples or lists and
    identification words of 0, 1 or more letters; then up to two defects
    go in at drawn places: a generator that is junk or star, a rule that is
    short, holds junk or has an event outside the alphabet, an
    identification that is short or holds junk, and a word letter outside
    the alphabet or unhashable."""
    m = draw(MONOIDS)
    gen = _names_and_subclasses(["g", "h", "k"])
    letter = _names_and_subclasses(m.events)
    word = _tuple_or_list(st.one_of(st.lists(letter, max_size=1), st.lists(letter, min_size=2, max_size=3)))
    term = st.one_of(st.just(STAR), _tuple_or_list(st.tuples(gen, word)))
    generators = draw(st.lists(gen, max_size=3))
    rules = draw(st.lists(_tuple_or_list(st.tuples(gen, letter, st.one_of(gen, st.just(STAR)))), max_size=4))
    pairs = draw(st.lists(_tuple_or_list(st.tuples(term, term)), max_size=3))
    unknown = st.sampled_from(["z", Name("z")])
    defects = {  # kind -> the list it goes into, and the defect
        "junk generator": (generators, JUNK),
        "star generator": (generators, st.sampled_from([STAR, Name(STAR)])),
        "short rule": (rules, _tuple_or_list(st.tuples(gen, letter))),
        "junk in a rule": (rules, st.tuples(gen, JUNK, gen)),
        "rule on an unknown event": (rules, st.tuples(gen, unknown, gen)),
        "short identification": (pairs, _tuple_or_list(st.tuples(term))),
        "junk term": (pairs, st.tuples(term, JUNK)),
        "junk in a term": (pairs, st.tuples(st.tuples(JUNK, word), term)),
        "bad letter": (pairs, st.tuples(gen, st.lists(st.one_of(letter, unknown, st.sampled_from([["a"], 5])),
                                                      min_size=1, max_size=3)).map(lambda t: (t, STAR))),
    }
    for kind in draw(st.lists(st.sampled_from(sorted(defects)), max_size=2)):
        items, defect = defects[kind]
        items.insert(draw(st.integers(0, len(items))), draw(defect))
    return PresentedAction(m, tuple(generators), tuple(rules), tuple(pairs))


@settings(max_examples=400, deadline=None)
@given(checked_presentations(), st.integers(0, 2))
def test_saturate_checks_name_the_first_defect(p, bound):
    # the checks run in bulk and scan item by item only to name a defect:
    # the error is the one the per-item checks raise, and an accepted
    # presentation saturates as the reference does
    want = oracles.presentation_error(p)
    if want is None:
        assert_same_saturation(saturate(p, bound), oracles.reference_saturate(p, bound))
    else:
        with pytest.raises(TraceError) as exc:
            saturate(p, bound)
        assert (type(exc.value), str(exc.value)) == want


@settings(max_examples=200, deadline=None)
@given(BOUNDS)
def test_unfold(depth):
    with contextlib.suppress(TraceError):
        unfold(make_system("xyzw", "x", IND, DIAMOND), depth)


@settings(max_examples=300, deadline=None)
@given(st.data(), SPACES, SPACES, st.sampled_from(Category))
def test_make_space_morphism(data, source, target, flag):
    n = len(source.monoid.events)
    image = data.draw(st.one_of(st.lists(IMAGES, min_size=n, max_size=n), st.lists(IMAGES, max_size=3)))
    state_part = data.draw(st.fixed_dictionaries({x: NAMES for x in source.states}))
    state_part.update(data.draw(st.dictionaries(KEYS, NAMES, max_size=2)))
    with contextlib.suppress(TraceError):
        make_space_morphism(source, target, BasicHom(source.monoid, target.monoid, tuple(image)), state_part, flag)


@settings(max_examples=300, deadline=None)
@given(st.data(), SPACES, SPACES, st.sampled_from(Category))
def test_space_equalizer_and_tupling(data, source, target, flag):
    # unchecked morphisms whose state maps may miss a source state or hold
    # junk, with images and values in the target half the time
    n = len(source.monoid.events)
    images = st.one_of(st.sampled_from((*target.monoid.events, None)), IMAGES)
    values = st.one_of(st.sampled_from((*target.states, STAR)), NAMES)

    def morphism():
        image = data.draw(st.one_of(st.lists(images, min_size=n, max_size=n), st.lists(IMAGES, max_size=3)))
        state_part = data.draw(st.dictionaries(st.sampled_from(source.states), values, max_size=len(source.states)))
        state_part.update(data.draw(st.dictionaries(KEYS, values, max_size=2)))
        return StateSpaceMorphism(source, target, BasicHom(source.monoid, target.monoid, tuple(image)), state_part)

    f, g = morphism(), morphism()
    with contextlib.suppress(TraceError):
        state_space.equalizer(f, g, flag)
    with contextlib.suppress(TraceError):
        state_space.space_tupling([f, g], state_space.product([target, target], flag))


@settings(max_examples=300, deadline=None)
@given(st.data(), SYSTEMS, st.booleans())
def test_make_morphism(data, target, checked):
    # half the sources are built without make_system, as unchecked_objects draws them
    source = data.draw(SYSTEMS if checked else unchecked_objects("system"))
    # images and values in the target, half the time, so that the maps often pass
    images = st.one_of(st.sampled_from((*target.monoid.events, None)), IMAGES)
    values = st.one_of(st.sampled_from((*target.states, STAR)), NAMES)
    event_part = data.draw(st.fixed_dictionaries({e: images for e in source.monoid.events}))
    event_part.update(data.draw(st.dictionaries(KEYS, images, max_size=2)))
    names = [x for x in source.states if not isinstance(x, list)]  # the ones that can key a state map
    state_part = data.draw(st.fixed_dictionaries({x: values for x in names}))
    state_part.update(data.draw(st.dictionaries(KEYS, values, max_size=2)))
    with contextlib.suppress(TraceError):
        async_system.is_polygonal(make_morphism(source, target, event_part, state_part))


@settings(max_examples=300, deadline=None)
@given(MONOIDS, st.lists(NAMES, max_size=4))
def test_normalize(monoid, letters):
    with contextlib.suppress(TraceError):
        assert _names_are_strings(normalize(letters, monoid).letters)


@settings(max_examples=300, deadline=None)
@given(MONOIDS, st.lists(NAMES, max_size=4), st.lists(NAMES, max_size=4))
def test_equivalent(monoid, w1, w2):
    with contextlib.suppress(TraceError):
        equivalent(w1, w2, monoid)


@settings(max_examples=300, deadline=None)
@given(MONOIDS, st.lists(NAMES, max_size=4), NAMES)
def test_extend_normal_form(monoid, word, letter):
    u = normal_form([x for x in word if x in monoid.events], monoid)
    for prefix in (u, word):
        with contextlib.suppress(TraceError):
            assert _names_are_strings(extend_normal_form(prefix, letter, monoid))


DIAGRAM_BASES = {  # base -> the object check and the constructions, each taking (diagram, flag)
    "space": (validate_space, (state_space.limit, lambda d, flag: state_space.colimit(d, flag, bound=2))),
    "system": (validate_system, (lambda d, _: async_system.limit(d), lambda d, _: async_system.colimit(d, bound=2))),
}
ONE_ARROW = DiagramShape(("o0", "o1"), (("f", "o0", "o1"),))


@st.composite
def unchecked_objects(draw, base):
    """A valid table with drawn states, action entries and, for a system, an
    initial state mixed in, built without a check."""
    m, states, initial, action = draw(st.sampled_from(TABLES))
    states = (*states, *draw(st.lists(NAMES, max_size=1)))
    action = {**action, **draw(st.dictionaries(PAIR_KEYS, NAMES, max_size=2))}
    if base == "space":
        return StateSpace(m, states, action)
    return WeakAsyncSystem(m, states, action, draw(st.one_of(st.just(initial), NAMES)))


def _unchecked_arrow(data, source, target):
    """The identity when the ends are one object, half the time; else drawn
    event images and state-map values."""
    names = [x for x in source.states if not isinstance(x, list)]  # the ones that can key a state map
    if source is target and data.draw(st.booleans()):
        image, state_part = source.monoid.events, {x: x for x in names}
    else:
        n = len(source.monoid.events)
        image = data.draw(st.lists(IMAGES, min_size=n, max_size=n))
        state_part = data.draw(st.fixed_dictionaries({x: NAMES for x in names}))
    return StateSpaceMorphism(source, target, BasicHom(source.monoid, target.monoid, tuple(image)), state_part)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(sorted(DIAGRAM_BASES)), st.sampled_from([discrete(1), discrete(2), ONE_ARROW]),
       st.sampled_from(Category), st.booleans())
def test_diagram_limit_and_colimit(data, base, shape, flag, loop):
    check, constructions = DIAGRAM_BASES[base]
    objects = {o: data.draw(unchecked_objects(base)) for o in shape.objects}
    if shape.arrows and loop:
        objects["o1"] = objects["o0"]
    arrows = {name: _unchecked_arrow(data, objects[src], objects[dst]) for name, src, dst in shape.arrows}
    d = Diagram(shape, objects, arrows)
    faulted = any(check(x) for x in objects.values())
    for construction in constructions:
        if faulted:
            with pytest.raises(MalformedDiagram):
                construction(d, flag)
        else:
            with contextlib.suppress(TraceError):
                construction(d, flag)
