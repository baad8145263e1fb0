"""Weak asynchronous systems and polygonal morphisms.

A weak asynchronous system is a pointed state space over a trace monoid of
events together with an initial state (possibly star), with the one extra
rule that no transition names star as its target.  ``WeakAsyncSystem.space``
is that state space, so validation, limits and colimits are the state-space
ones, taken in FPCM_PAR: a polygonal morphism commutes with the actions and
preserves the independence of events.  Colimits add the comma-category
gluing of initial states as extra identifications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import state_space
from .diagrams import Cone, Diagram, discrete, refuse
from .errors import InvalidBound, InvalidSpace, InvalidSystem, NotAMorphism
from .fpcm_cat import Category, render_tuple, tag
from .state_space import (
    StateSpace,
    StateSpaceMorphism,
    SaturationResult,
    validate_morphism,
    validate_space,
)
from .trace_core import STAR, BasicHom, TraceMonoid, extend_normal_form


@dataclass
class WeakAsyncSystem:
    states: tuple[str, ...]
    initial: str  # state name or star
    monoid: TraceMonoid
    transitions: dict[tuple[str, str], str]  # (state, event) -> state

    @property
    def space(self) -> StateSpace:
        """The underlying state space; it shares the transition table."""
        return StateSpace(self.monoid, self.states, self.transitions)

    def step(self, s: str, e: str) -> str:
        if s == STAR:
            return STAR
        return self.transitions.get((s, e), STAR)


WEAK = "WEAK"
BEDNARCZYK = "BEDNARCZYK"
ATS = "ATS"


def validate_system(a: WeakAsyncSystem) -> list[str]:
    """The space's problems, an unknown initial state, and transitions into
    star, which a space allows but a system's table does not hold."""
    problems = validate_space(a.space)
    if a.initial != STAR and a.initial not in a.states:
        problems.append(f"initial state {a.initial!r} unknown")
    if STAR in a.transitions.values():
        problems.append(f"transition into unknown state {STAR!r}")
    return problems


def make_system(states, initial, monoid, transitions) -> WeakAsyncSystem:
    a = WeakAsyncSystem(tuple(states), initial, monoid, dict(transitions))
    problems = validate_system(a)
    if problems:
        raise InvalidSystem("; ".join(problems))
    return a


def classify(a: WeakAsyncSystem) -> str:
    if a.initial == STAR or not a.states:
        return WEAK
    occurring = {e for (_, e) in a.transitions}
    if all(e in occurring for e in a.monoid.events):
        return ATS
    return BEDNARCZYK


def from_state_space(s: StateSpace, initial: str) -> WeakAsyncSystem:
    problems = validate_space(s)
    if problems:
        raise InvalidSpace("; ".join(problems))
    return _pointed(s, initial)


def _pointed(s: StateSpace, initial: str) -> WeakAsyncSystem:
    """The system of a valid space and an initial state, which is checked."""
    if initial != STAR and initial not in s.states:
        raise InvalidSpace(f"initial state {initial!r} unknown")
    return WeakAsyncSystem(s.states, initial, s.monoid, dict(s.action))


@dataclass
class SystemMorphism:
    """Partial event and state maps, encoded total with sentinels."""

    source: WeakAsyncSystem
    target: WeakAsyncSystem
    event_part: dict[str, Optional[str]]  # event -> target event or None
    state_part: dict[str, str]  # state -> target state or star

    def event(self, e: str) -> Optional[str]:
        return self.event_part[e]

    def state(self, s: str) -> str:
        if s == STAR:
            return STAR
        return self.state_part[s]


def morphism_violations(m: SystemMorphism) -> list[str]:
    """Check the three morphism conditions; empty list means valid."""
    a, b = m.source, m.target
    problems = []
    for e in a.monoid.events:
        if e not in m.event_part:
            problems.append(f"event map missing for {e!r}")
        elif m.event_part[e] is not None and m.event_part[e] not in b.monoid.events:
            problems.append(f"event map sends {e!r} outside the target")
    for s in a.states:
        if s not in m.state_part:
            problems.append(f"state map missing for {s!r}")
        elif m.state_part[s] != STAR and m.state_part[s] not in b.states:
            problems.append(f"state map sends {s!r} outside the target")
    if problems:
        return problems
    if m.state(a.initial) != b.initial:
        problems.append(
            f"condition 1: initial state maps to {m.state(a.initial)!r}, expected {b.initial!r}"
        )
    # condition 2, in the pointed reading: along every transition, the image
    # state is the image source acted on by the image event (star absorbing).
    # For total state maps this is exactly "transitions map to transitions".
    for (s1, e), s2 in sorted(a.transitions.items()):
        fe = m.event(e)
        expected = m.state(s1) if fe is None else b.step(m.state(s1), fe)
        if m.state(s2) != expected:
            problems.append(
                f"condition 2: transition ({s1!r}, {e!r}, {s2!r}) maps to"
                f" ({m.state(s1)!r}, {fe!r}, {m.state(s2)!r})"
            )
    for x, y in a.monoid.pairs():
        fx, fy = m.event(x), m.event(y)
        if fx is not None and fy is not None and not b.monoid.independent(fx, fy):
            problems.append(f"condition 3: independent pair ({x!r}, {y!r}) maps to dependent pair")
    return problems


def is_morphism(m: SystemMorphism) -> bool:
    return not morphism_violations(m)


def make_morphism(source, target, event_part, state_part) -> SystemMorphism:
    m = SystemMorphism(source, target, dict(event_part), dict(state_part))
    problems = morphism_violations(m)
    if problems:
        raise NotAMorphism("; ".join(problems))
    return m


def event_hom(m: SystemMorphism) -> BasicHom:
    """The event part as a basic homomorphism (always valid and
    independence-preserving for a system morphism)."""
    return BasicHom(
        m.source.monoid,
        m.target.monoid,
        tuple(m.event_part[e] for e in m.source.monoid.events),
    )


def induced_space_morphism(m: SystemMorphism) -> StateSpaceMorphism:
    """The candidate state-space morphism; equivariance holds iff the system
    morphism is polygonal."""
    return StateSpaceMorphism(m.source.space, m.target.space, event_hom(m), dict(m.state_part))


def is_polygonal(m: SystemMorphism) -> bool:
    """A morphism is polygonal when its induced state-space map commutes
    with the actions: wherever the image state can do the image event (the
    identity included), the source state can do the event."""
    problems = morphism_violations(m)
    if problems:
        raise NotAMorphism("; ".join(problems))
    return not validate_morphism(induced_space_morphism(m))


def compose_system_morphisms(m2: SystemMorphism, m1: SystemMorphism) -> SystemMorphism:
    event_part = {
        e: (None if v is None else m2.event_part[v]) for e, v in m1.event_part.items()
    }
    state_part = {s: m2.state(m1.state_part[s]) for s in m1.source.states}
    return SystemMorphism(m1.source, m2.target, event_part, state_part)


# ---------------------------------------------------------------------------
# Limits and colimits (comma category over the point), in FPCM_PAR


def diagram_problems(d: Diagram) -> list[str]:
    """A system diagram's problems: each system's, then each arrow's
    ``morphism_violations``."""
    return d.problems("system", morphism_violations, validate_system)


def _space_to_system_morphism(m: StateSpaceMorphism, src: WeakAsyncSystem, dst: WeakAsyncSystem) -> SystemMorphism:
    event_part = dict(zip(m.monoid_part.source.events, m.monoid_part.image))
    return SystemMorphism(src, dst, event_part, dict(m.state_part))


def _checked(d: Diagram) -> Diagram:
    refuse(diagram_problems(d))
    return d.map(lambda a: a.space, induced_space_morphism)


def product(systems: Sequence[WeakAsyncSystem]) -> Cone:
    """Product system: product of state spaces with the tuple of initial
    states as the distinguished point."""
    systems = list(systems)
    shape = discrete(len(systems))
    return limit(Diagram(shape, dict(zip(shape.objects, systems)), {}))


def limit(d: Diagram) -> Cone:
    """State-space limit pointed at the tuple of initial states (star when
    all of them are star).  The apex space is valid by construction, so only
    the initial state is checked."""
    cone = state_space.limit(_checked(d), Category.FPCM_PAR)
    objs = list(d.shape.objects)
    combo = tuple(d.on_objects[o].initial for o in objs)
    apex = _pointed(cone.apex, STAR if all(x == STAR for x in combo) else render_tuple(combo))
    legs = {o: _space_to_system_morphism(cone.legs[o], apex, d.on_objects[o]) for o in objs}
    return Cone(apex, legs)


def colimit(d: Diagram, bound: int = 8) -> tuple[Cone, SaturationResult]:
    """State-space colimit with all injected initial states glued into one
    class (star if any component initial is star)."""
    sd = _checked(d)
    objs = list(d.shape.objects)
    systems = [d.on_objects[o] for o in objs]
    initials = [(tag(i, a.initial), ()) for i, a in enumerate(systems) if a.initial != STAR]
    no_star = len(initials) == len(objs)
    glue = tuple(zip(initials, initials[1:])) if no_star else tuple((t, STAR) for t in initials)
    res = state_space.colimit(sd, Category.FPCM_PAR, bound, glue)
    sat = res.saturation
    initial = sat.class_map[initials[0][0]] if initials and no_star else STAR
    apex = WeakAsyncSystem(sat.space.states, initial, sat.space.monoid, dict(sat.space.action))
    legs = {o: _space_to_system_morphism(res.cocone.legs[o], a, apex) for o, a in zip(objs, systems)}
    return Cone(apex, legs), sat


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
        (s, e): s2 for (s, e), s2 in a.transitions.items() if s in keep and s2 in keep
    }
    return WeakAsyncSystem(states, a.initial if a.initial in keep else STAR, a.monoid, transitions)


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
