"""Malformed arguments to the checked constructors and the bounded
explorations end in a ``TraceError``.

Hypothesis draws names that are not strings (numbers, None, bools, bytes,
tuples, lists), letters outside the alphabet, and bounds or depths that are
not ints >= 0, mixed with valid ones.  It calls ``make_monoid``,
``make_hom``, ``make_space``, ``make_system``, ``act_trace``, ``saturate``
or ``unfold`` on them.  Each call returns or raises a ``TraceError``
subclass, and a constructor that returns holds only names that are strings.
"""

from __future__ import annotations

import contextlib

from hypothesis import given, settings, strategies as st

from asyntrace.async_system import make_system, unfold
from asyntrace.errors import TraceError
from asyntrace.state_space import PresentedAction, act_trace, make_space, saturate
from asyntrace.trace_core import STAR, free_commutative_monoid, free_monoid, make_hom, make_monoid

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


@settings(max_examples=200, deadline=None)
@given(BOUNDS)
def test_unfold(depth):
    with contextlib.suppress(TraceError):
        unfold(make_system("xyzw", "x", IND, DIAMOND), depth)
