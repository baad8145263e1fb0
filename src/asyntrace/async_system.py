"""Weak asynchronous systems and polygonal morphisms.

A weak asynchronous system is a pointed state space over a trace monoid of
events with one more field, an initial state (possibly star), and the one
extra rule that no transition names star as its target: ``WeakAsyncSystem``
is a ``StateSpace`` whose ``action`` is the transition table.  A system
morphism is a ``StateSpaceMorphism`` between systems that meets three
conditions: it keeps the initial state, maps transitions to transitions and
preserves the independence of events.  It is polygonal when it is also a
space morphism, so validation, limits and colimits are the state-space ones,
taken in FPCM_PAR, on the system diagram itself.  Colimits add the
comma-category gluing of initial states as extra identifications.
"""

from __future__ import annotations

from typing import Sequence

from . import state_space
from .diagrams import Cone, Diagram, discrete, refuse
from .errors import InvalidBound, InvalidSystem, NotAMorphism
from .fpcm_cat import Category, render_tuple, tag
from .state_space import (
    StateSpace,
    StateSpaceMorphism,
    SaturationResult,
    _mapping,
    validate_morphism,
    validate_space,
)
from .trace_core import STAR, BasicHom, TraceMonoid, extend_normal_form


class WeakAsyncSystem(StateSpace):
    """A state space with an initial state; ``action`` is the transition
    table, (state, event) -> state."""

    def __init__(
        self, monoid: TraceMonoid, states: tuple[str, ...], action: dict[tuple[str, str], str], initial: str
    ) -> None:
        self.monoid, self.states, self.action = monoid, states, action
        self.initial = initial  # state name or star


WEAK = "WEAK"
BEDNARCZYK = "BEDNARCZYK"
ATS = "ATS"


def validate_system(a: WeakAsyncSystem) -> list[str]:
    """The space's problems, an unknown initial state, and transitions into
    star, which a space allows but a system's table does not hold."""
    problems = validate_space(a)
    if a.initial != STAR and a.initial not in a.states:
        problems.append(f"initial state {a.initial!r} unknown")
    if STAR in a.action.values():
        problems.append(f"transition into unknown state {STAR!r}")
    return problems


def make_system(states, initial, monoid, transitions) -> WeakAsyncSystem:
    a = WeakAsyncSystem(monoid, tuple(states), _mapping(transitions, "the transitions", InvalidSystem), initial)
    refuse(validate_system(a), InvalidSystem)
    return a


def classify(a: WeakAsyncSystem) -> str:
    if a.initial == STAR or not a.states:
        return WEAK
    occurring = {e for (_, e) in a.action}
    if all(e in occurring for e in a.monoid.events):
        return ATS
    return BEDNARCZYK


def _map_problems(a: WeakAsyncSystem, b: WeakAsyncSystem, event_part: dict, state_part: dict) -> list[str]:
    """The events and states that the maps leave out or send outside ``b``,
    then the source's initial state and transitions that are not on its own
    states and events, which the morphism conditions could not read."""
    problems = []
    for e in a.monoid.events:
        if e not in event_part:
            problems.append(f"event map missing for {e!r}")
        elif event_part[e] is not None and event_part[e] not in b.monoid.events:
            problems.append(f"event map sends {e!r} outside the target")
    for s in a.states:
        if not isinstance(s, str):
            problems.append(f"source state {s!r} is not a name")
        elif s not in state_part:
            problems.append(f"state map missing for {s!r}")
        elif state_part[s] != STAR and state_part[s] not in b.states:
            problems.append(f"state map sends {s!r} outside the target")
    states = {s for s in a.states if isinstance(s, str)}
    if not (a.initial == STAR or isinstance(a.initial, str) and a.initial in states):
        problems.append(f"source initial state {a.initial!r} unknown")
    events = set(a.monoid.events)
    for key, y in a.action.items():
        if not (isinstance(key, tuple) and len(key) == 2 and key[0] in states and key[1] in events
                and isinstance(y, str) and (y == STAR or y in states)):
            problems.append(f"source transition {key!r} -> {y!r} is not on the source's states and events")
    return problems


def morphism_violations(m: StateSpaceMorphism) -> list[str]:
    """Check the three morphism conditions; empty list means valid."""
    return _map_problems(m.source, m.target, m.monoid_part.mapping, m.state_part) or _condition_problems(m)


def _condition_problems(m: StateSpaceMorphism) -> list[str]:
    """The three morphism conditions, for maps without ``_map_problems``."""
    a, b = m.source, m.target
    event_part = m.monoid_part.mapping
    f = {**m.state_part, STAR: STAR}
    problems = []
    if f[a.initial] != b.initial:
        problems.append(f"condition 1: initial state maps to {f[a.initial]!r}, expected {b.initial!r}")
    # condition 2, in the pointed reading: along every transition, the image
    # state is the image source acted on by the image event (star absorbing).
    # For total state maps this is exactly "transitions map to transitions".
    step = b.action.get
    moved = [((s1, e), s2) for (s1, e), s2 in a.action.items()  # sorted below, as they are few
             if f[s2] != (f[s1] if event_part[e] is None or f[s1] == STAR else step((f[s1], event_part[e]), STAR))]
    for (s1, e), s2 in sorted(moved):
        problems.append(
            f"condition 2: transition ({s1!r}, {e!r}, {s2!r}) maps to"
            f" ({f[s1]!r}, {event_part[e]!r}, {f[s2]!r})"
        )
    for x, y in a.monoid.pairs():
        fx, fy = event_part[x], event_part[y]
        if fx is not None and fy is not None and not b.monoid.independent(fx, fy):
            problems.append(f"condition 3: independent pair ({x!r}, {y!r}) maps to dependent pair")
    return problems


def make_morphism(source, target, event_part, state_part) -> StateSpaceMorphism:
    """The system morphism with these event and state maps (an event to
    None is erased, a state to star is undefined), checked."""
    event_part = _mapping(event_part, "the event map", NotAMorphism)
    state_part = _mapping(state_part, "the state map", NotAMorphism)
    refuse(_map_problems(source, target, event_part, state_part), NotAMorphism)
    image = tuple(event_part[e] for e in source.monoid.events)
    m = StateSpaceMorphism(source, target, BasicHom(source.monoid, target.monoid, image), state_part)
    refuse(_condition_problems(m), NotAMorphism)
    return m


def is_polygonal(m: StateSpaceMorphism) -> bool:
    """A morphism is polygonal when it is a state-space morphism, commuting
    with the actions: wherever the image state can do the image event (the
    identity included), the source state can do the event."""
    refuse(morphism_violations(m), NotAMorphism)
    return not validate_morphism(m)


# ---------------------------------------------------------------------------
# Limits and colimits (comma category over the point), in FPCM_PAR


def diagram_problems(d: Diagram) -> list[str]:
    """A system diagram's problems: each system's, then each arrow's
    ``morphism_violations``."""
    return d.problems("system", morphism_violations, validate_system)


def _pointed(cone: Cone, initial: str, end: str) -> Cone:
    """A space (co)limit's ``cone`` with its apex pointed at ``initial``
    (sharing the apex's action) and put at each leg's ``end``."""
    s = cone.apex
    apex = WeakAsyncSystem(s.monoid, s.states, s.action, initial)
    return Cone(apex, {o: StateSpaceMorphism(**{**vars(m), end: apex}) for o, m in cone.legs.items()})


def product(systems: Sequence[WeakAsyncSystem]) -> Cone:
    """Product system: product of state spaces with the tuple of initial
    states as the distinguished point."""
    systems = list(systems)
    shape = discrete(len(systems))
    return limit(Diagram(shape, dict(zip(shape.objects, systems)), {}))


def limit(d: Diagram) -> Cone:
    """State-space limit pointed at the tuple of initial states (star when
    all of them are star), a compatible family by condition 1."""
    refuse(diagram_problems(d) or d.problems("system", lambda m: state_space._arrow_problems(m, Category.FPCM_PAR)))
    cone = state_space._limit(d, Category.FPCM_PAR)
    combo = tuple(d.on_objects[o].initial for o in d.shape.objects)
    return _pointed(cone, STAR if all(x == STAR for x in combo) else render_tuple(combo), "source")


def colimit(d: Diagram, bound: int = 8) -> tuple[Cone, SaturationResult]:
    """State-space colimit with all injected initial states glued into one
    class (star if any component initial is star)."""
    refuse(diagram_problems(d) or d.problems("system", lambda m: state_space._arrow_problems(m, Category.FPCM_PAR)))
    systems = [d.on_objects[o] for o in d.shape.objects]
    initials = [(tag(i, a.initial), ()) for i, a in enumerate(systems) if a.initial != STAR]
    no_star = len(initials) == len(systems)
    glue = tuple(zip(initials, initials[1:])) if no_star else tuple((t, STAR) for t in initials)
    res = state_space._colimit(d, Category.FPCM_PAR, bound, glue)
    sat = res.saturation
    initial = sat.class_map[initials[0][0]] if initials and no_star else STAR
    return _pointed(res.cocone, initial, "target"), sat


# ---------------------------------------------------------------------------
# Exploration helpers


def reachable(a: WeakAsyncSystem) -> WeakAsyncSystem:
    keep = set()
    if a.initial != STAR:
        keep.add(a.initial)
        frontier = [a.initial]
        while frontier:
            nxt = []
            for s in frontier:
                for e in a.monoid.events:
                    s2 = a.step(s, e)
                    if s2 != STAR and s2 not in keep:
                        keep.add(s2)
                        nxt.append(s2)
            frontier = nxt
    states = tuple(s for s in a.states if s in keep)
    transitions = {
        (s, e): s2 for (s, e), s2 in a.action.items() if s in keep and s2 in keep
    }
    return WeakAsyncSystem(a.monoid, states, transitions, a.initial if a.initial in keep else STAR)


def unfold(a: WeakAsyncSystem, depth: int) -> list[tuple[tuple[str, ...], str]]:
    """Canonical traces of length <= depth with their end states, sorted."""
    if isinstance(depth, bool) or not isinstance(depth, int):
        raise InvalidBound(f"unfold depth must be an int, got {depth!r}")
    if depth < 0:
        raise InvalidBound(f"unfold depth must be >= 0, got {depth}")
    if a.initial == STAR:
        return []
    current = {(): a.initial}
    out = dict(current)
    for _ in range(depth):
        nxt = {}
        for t, s in current.items():
            for e in a.monoid.events:
                s2 = a.step(s, e)
                if s2 == STAR:
                    continue
                t2 = extend_normal_form(t, e, a.monoid)
                nxt[t2] = s2
        current = nxt
        out.update(nxt)
    return sorted(out.items())
