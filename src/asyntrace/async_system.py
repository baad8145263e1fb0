"""Weak asynchronous systems and polygonal morphisms.

A weak asynchronous system is states + initial state (possibly star) + a
trace monoid of events + a deterministic transition table satisfying the
independence diamond.  Systems correspond one-to-one with pointed state
spaces; limits and colimits are computed on the state-space side, with the
comma-category gluing of initial states on colimits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import fpcm_cat, state_space
from .diagrams import DiagramShape, validate_shape
from .errors import (
    InvalidSpace,
    InvalidSystem,
    MalformedDiagram,
    NotAMorphism,
)
from .fpcm_cat import Category, tag
from .state_space import (
    SpaceDiagram,
    StateSpace,
    StateSpaceMorphism,
    SaturationResult,
    act_trace,
    validate_space,
)
from .trace_core import (
    STAR,
    BasicHom,
    TraceMonoid,
    extend_normal_form,
    is_independence_preserving,
)


@dataclass
class WeakAsyncSystem:
    states: tuple[str, ...]
    initial: str  # state name or star
    monoid: TraceMonoid
    transitions: dict[tuple[str, str], str]  # (state, event) -> state

    def step(self, s: str, e: str) -> str:
        if s == STAR:
            return STAR
        return self.transitions.get((s, e), STAR)


WEAK = "WEAK"
BEDNARCZYK = "BEDNARCZYK"
ATS = "ATS"


def validate_system(a: WeakAsyncSystem) -> list[str]:
    problems = []
    states = set(a.states)
    if len(states) != len(a.states):
        problems.append("duplicate state names")
    if STAR in states:
        problems.append(f"{STAR!r} is reserved and cannot be a state name")
    if a.initial != STAR and a.initial not in states:
        problems.append(f"initial state {a.initial!r} unknown")
    events = set(a.monoid.events)
    for (s, e), s2 in sorted(a.transitions.items()):
        if s not in states:
            problems.append(f"transition from unknown state {s!r}")
        if e not in events:
            problems.append(f"transition on unknown event {e!r}")
        if s2 not in states:
            problems.append(f"transition into unknown state {s2!r}")
    # the transition table is a map, so determinism is structural; check the
    # independence diamond
    for x, y in a.monoid.pairs():
        for pair in ((x, y), (y, x)):
            p, q = pair
            for s in a.states:
                s1 = a.step(s, p)
                if s1 == STAR:
                    continue
                s2 = a.step(s1, q)
                if s2 == STAR:
                    continue
                mid = a.step(s, q)
                if mid == STAR or a.step(mid, p) != s2:
                    problems.append(
                        f"diamond violation at state {s!r} with events ({p!r}, {q!r})"
                    )
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


def to_state_space(a: WeakAsyncSystem) -> tuple[StateSpace, str]:
    problems = validate_system(a)
    if problems:
        raise InvalidSystem("; ".join(problems))
    return StateSpace(a.monoid, a.states, dict(a.transitions)), a.initial


def from_state_space(s: StateSpace, initial: str) -> WeakAsyncSystem:
    problems = validate_space(s)
    if problems:
        raise InvalidSpace("; ".join(problems))
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
    src, _ = to_state_space(m.source)
    tgt, _ = to_state_space(m.target)
    return StateSpaceMorphism(src, tgt, event_hom(m), dict(m.state_part))


def is_polygonal(m: SystemMorphism) -> bool:
    """Transition-reflection criterion: wherever the image state can do the
    image event, the source state must be able to do the event.  An event
    sent to the identity can always be done by the image state, so the
    source state must be able to do it."""
    problems = morphism_violations(m)
    if problems:
        raise NotAMorphism("; ".join(problems))
    a, b = m.source, m.target
    for s1 in a.states:
        t1 = m.state(s1)
        if t1 == STAR:
            continue
        for e in a.monoid.events:
            fe = m.event(e)
            image = t1 if fe is None else b.step(t1, fe)
            if image != STAR and a.step(s1, e) == STAR:
                return False
    return True


def compose_system_morphisms(m2: SystemMorphism, m1: SystemMorphism) -> SystemMorphism:
    event_part = {
        e: (None if v is None else m2.event_part[v]) for e, v in m1.event_part.items()
    }
    state_part = {s: m2.state(m1.state_part[s]) for s in m1.source.states}
    return SystemMorphism(m1.source, m2.target, event_part, state_part)


# ---------------------------------------------------------------------------
# Limits and colimits (comma category over the point)


@dataclass
class SystemDiagram:
    shape: DiagramShape
    on_objects: dict[str, WeakAsyncSystem]
    on_arrows: dict[str, SystemMorphism]

    def problems(self, flag=None) -> list[str]:
        out = validate_shape(self.shape)
        for o, a in self.on_objects.items():
            out.extend(f"object {o!r}: {p}" for p in validate_system(a))
        for o in self.shape.objects:
            if o not in self.on_objects:
                out.append(f"object {o!r} has no system assigned")
        for name, src, dst in self.shape.arrows:
            m = self.on_arrows.get(name)
            if m is None:
                out.append(f"arrow {name!r} has no morphism assigned")
                continue
            if src in self.on_objects and m.source != self.on_objects[src]:
                out.append(f"arrow {name!r}: source system mismatch")
            if dst in self.on_objects and m.target != self.on_objects[dst]:
                out.append(f"arrow {name!r}: target system mismatch")
            out.extend(f"arrow {name!r}: {p}" for p in morphism_violations(m))
        return out

    def space_diagram(self) -> SpaceDiagram:
        on_objects = {}
        for o, a in self.on_objects.items():
            space, _ = to_state_space(a)
            on_objects[o] = space
        on_arrows = {}
        for name, src, dst in self.shape.arrows:
            m = self.on_arrows[name]
            on_arrows[name] = StateSpaceMorphism(
                on_objects[src], on_objects[dst], event_hom(m), dict(m.state_part)
            )
        return SpaceDiagram(self.shape, on_objects, on_arrows)


@dataclass
class SystemCone:
    apex: WeakAsyncSystem
    legs: dict[str, SystemMorphism]


@dataclass
class SystemCocone:
    apex: WeakAsyncSystem
    legs: dict[str, SystemMorphism]


def _space_to_system_morphism(m: StateSpaceMorphism, src: WeakAsyncSystem, dst: WeakAsyncSystem) -> SystemMorphism:
    event_part = dict(zip(m.monoid_part.source.events, m.monoid_part.image))
    return SystemMorphism(src, dst, event_part, dict(m.state_part))


def product(systems: Sequence[WeakAsyncSystem], flag: Category = Category.FPCM_PAR) -> SystemCone:
    """Product system: product of state spaces with the tuple of initial
    states as the distinguished point."""
    systems = list(systems)
    shape = DiagramShape(tuple(f"o{i}" for i in range(len(systems))), ())
    d = SystemDiagram(shape, {f"o{i}": a for i, a in enumerate(systems)}, {})
    return limit(d, flag)


def limit(d: SystemDiagram, flag: Category = Category.FPCM_PAR) -> SystemCone:
    problems = d.problems(flag)
    if problems:
        raise MalformedDiagram("; ".join(problems))
    sd = d.space_diagram()
    cone = state_space.limit(sd, flag)
    objs = list(d.shape.objects)
    if objs:
        combo = tuple(d.on_objects[o].initial for o in objs)
        initial = STAR if all(x == STAR for x in combo) else fpcm_cat.render_tuple(combo)
    else:
        initial = STAR
    apex = from_state_space(cone.apex, initial)
    legs = {o: _space_to_system_morphism(cone.legs[o], apex, d.on_objects[o]) for o in objs}
    return SystemCone(apex, legs)


def colimit(d: SystemDiagram, flag: Category = Category.FPCM_PAR, bound: int = 8) -> tuple[SystemCocone, SaturationResult]:
    """State-space colimit with all injected initial states glued into one
    class (star if any component initial is star)."""
    problems = d.problems(flag)
    if problems:
        raise MalformedDiagram("; ".join(problems))
    sd = d.space_diagram()
    monoid_cocone = fpcm_cat.colimit(sd.monoid_diagram(), flag)
    presentation = state_space.build_presentation(sd, monoid_cocone)
    objs = list(d.shape.objects)
    initials = [(i, d.on_objects[o].initial) for i, o in enumerate(objs)]
    extra = []
    if any(s == STAR for _, s in initials):
        for i, s in initials:
            if s != STAR:
                extra.append(((tag(i, s), ()), STAR))
    else:
        for (i, s), (j, t) in zip(initials, initials[1:]):
            extra.append(((tag(i, s), ()), (tag(j, t), ())))
    presentation = state_space.PresentedAction(
        presentation.monoid,
        presentation.generators,
        presentation.transitions,
        presentation.identifications + tuple(extra),
    )
    sat = state_space.saturate(presentation, bound)
    if initials and all(s != STAR for _, s in initials):
        initial = sat.class_map[tag(initials[0][0], initials[0][1])]
    else:
        initial = STAR
    apex = WeakAsyncSystem(sat.space.states, initial, sat.space.monoid, dict(sat.space.action))
    legs = {}
    for i, o in enumerate(objs):
        a = d.on_objects[o]
        event_part = {e: monoid_cocone.legs[o](e) for e in a.monoid.events}
        state_part = {x: sat.class_map[tag(i, x)] for x in a.states}
        legs[o] = SystemMorphism(a, apex, event_part, state_part)
    return SystemCocone(apex, legs), sat


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
