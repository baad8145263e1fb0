"""Pointed sets with trace-monoid actions, their limits and colimits.

The basepoint ``*`` is an absorbing "undefined" state: the action is total on
states plus star, and star is a sink.  Limits are computed pointwise, as the
compatible families of the product's states.  Colimits go through a presented
action (generators, transition rules, identifications) which is materialized
by bounded saturation; the result carries an EXACT/TRUNCATED certificate so
an infinite free extension is never silently cut off.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, Union

from . import fpcm_cat
from .diagrams import Diagram, refuse
from .errors import (
    InvalidBound,
    InvalidSpace,
    MalformedDiagram,
    MalformedRelation,
    MonoidMismatch,
    NotAMorphism,
    NotParallel,
    SizeLimit,
    UnknownEvent,
    UnknownState,
)
from .fpcm_cat import Category, PointedGrid, ProductResult, render_tuple, tag
from .trace_core import (
    STAR,
    BasicHom,
    Trace,
    TraceMonoid,
    compose,
    extend_normal_form,
    is_independence_preserving,
    malformed_image,
    normal_form,
)


@dataclass
class StateSpace:
    """Trace monoid acting on a pointed finite state set.

    ``action`` holds only the entries that do not lead to star; ``step``
    fills in the sink behaviour.
    """

    monoid: TraceMonoid
    states: tuple[str, ...]
    action: dict[tuple[str, str], str]

    def step(self, x: str, e: str) -> str:
        if x == STAR:
            return STAR
        return self.action.get((x, e), STAR)


def make_space(monoid: TraceMonoid, states: Sequence[str], action) -> StateSpace:
    s = StateSpace(monoid, tuple(states), dict(action))
    problems = validate_space(s)
    if problems:
        raise InvalidSpace("; ".join(problems))
    return s


def act_trace(s: StateSpace, x: str, t: Union[Trace, Sequence[str]]) -> str:
    letters = t.letters if isinstance(t, Trace) else tuple(t)
    if isinstance(t, Trace) and t.monoid != s.monoid:
        raise MonoidMismatch("trace is not over the space's monoid")
    if x != STAR and x not in s.states:
        raise UnknownState(f"unknown state {x!r}")
    for e in letters:
        x = s.step(x, e)
    return x


def validate_space(s: StateSpace) -> list[str]:
    problems = []
    states = set(s.states)
    if len(states) != len(s.states):
        problems.append("duplicate state names")
    if STAR in states:
        problems.append(f"{STAR!r} is reserved and cannot be a state name")
    events = set(s.monoid.events)
    for key, y in sorted(s.action.items()):
        try:
            x, e = key
        except (TypeError, ValueError):
            problems.append(f"action key {key!r} is not a (state, event) pair")
            continue
        if x not in states:
            problems.append(f"action entry on unknown state {x!r}")
        if e not in events:
            problems.append(f"action entry on unknown event {e!r}")
        if y != STAR and y not in states:
            problems.append(f"action value {y!r} is not a state")
    for a, b in s.monoid.pairs():
        for x in s.states:
            left = s.step(s.step(x, a), b)
            right = s.step(s.step(x, b), a)
            if left != right:
                problems.append(
                    f"diamond violation at state {x!r} with pair ({a!r}, {b!r}):"
                    f" {left!r} != {right!r}"
                )
    return problems


@dataclass
class StateSpaceMorphism:
    """Monoid part plus pointed state map, equivariant on generators."""

    source: StateSpace
    target: StateSpace
    monoid_part: BasicHom
    state_part: dict[str, str]  # proper source states -> target state or star

    def state(self, x: str) -> str:
        if x == STAR:
            return STAR
        return self.state_part[x]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StateSpaceMorphism)
            and self.monoid_part == other.monoid_part
            and all(self.state(x) == other.state(x) for x in self.source.states)
        )


def validate_morphism(m: StateSpaceMorphism, flag: Category = Category.FPCM) -> list[str]:
    if m.monoid_part.source != m.source.monoid or m.monoid_part.target != m.target.monoid:
        return ["monoid part endpoints do not match the spaces"]
    bad = malformed_image(m.monoid_part)
    if bad is not None:
        return [f"monoid part: {bad}"]
    problems = []
    tgt_states = set(m.target.states)
    for x in m.source.states:
        if x not in m.state_part:
            problems.append(f"state map missing for {x!r}")
        elif m.state_part[x] != STAR and m.state_part[x] not in tgt_states:
            problems.append(f"state map sends {x!r} outside the target")
    if problems:
        return problems
    if flag is Category.FPCM_PAR and not is_independence_preserving(m.monoid_part):
        problems.append("monoid part is not independence-preserving")
    for x in tuple(m.source.states) + (STAR,):
        for e in m.source.monoid.events:
            fe = m.monoid_part(e)
            expected = m.state(x) if fe is None else m.target.step(m.state(x), fe)
            got = m.state(m.source.step(x, e))
            if got != expected:
                problems.append(
                    f"equivariance violation at ({x!r}, {e!r}): {got!r} != {expected!r}"
                )
    return problems


def make_space_morphism(source, target, monoid_part, state_part, flag=Category.FPCM) -> StateSpaceMorphism:
    m = StateSpaceMorphism(source, target, monoid_part, dict(state_part))
    problems = validate_morphism(m, flag)
    if problems:
        raise NotAMorphism("; ".join(problems))
    return m


def identity_morphism(s: StateSpace) -> StateSpaceMorphism:
    from .trace_core import identity_hom

    return StateSpaceMorphism(s, s, identity_hom(s.monoid), {x: x for x in s.states})


def compose_morphisms(m2: StateSpaceMorphism, m1: StateSpaceMorphism) -> StateSpaceMorphism:
    if m1.target is not m2.source and m1.target != m2.source:
        raise MonoidMismatch("composition endpoints do not match")
    state_part = {x: m2.state(m1.state(x)) for x in m1.source.states}
    return StateSpaceMorphism(m1.source, m2.target, compose(m2.monoid_part, m1.monoid_part), state_part)


# ---------------------------------------------------------------------------
# Products, equalizers, limits


@dataclass
class SpaceProductResult:
    space: StateSpace
    projections: tuple[StateSpaceMorphism, ...]
    monoid_product: ProductResult
    state_components: dict[str, tuple[str, ...]]  # state name -> pointed tuple


def product(spaces: Sequence[StateSpace], flag: Category = Category.FPCM) -> SpaceProductResult:
    """Monoid product acting componentwise on the product of pointed state
    sets; only the all-star tuple plays the basepoint.

    States and generators are indexed by ``fpcm_cat.PointedGrid``.  Factor
    ``j`` gives a table: for each axis index ``x`` of its states and ``u`` of
    its events, the axis index of ``x`` acted on by ``u`` (``x`` itself when
    ``u`` is star) times the state stride.  Spread over the generators, the
    table's rows add up, factor by factor, to the target index of every
    (state, generator) entry; entries that reach the all-star index are left
    out of the action.
    """
    spaces = list(spaces)
    mp = fpcm_cat.product([s.monoid for s in spaces], flag)
    if not spaces:
        space = StateSpace(mp.monoid, (), {})
        return SpaceProductResult(space, (), mp, {})
    grid = PointedGrid([s.states for s in spaces])
    state_components = grid.components(InvalidSpace, "state")
    states = list(state_components)
    gens = mp.monoid.events
    gen_grid = PointedGrid([s.monoid.events for s in spaces])
    rows = [[0] * len(gens)]  # per state index so far, target offsets by generator
    for j, s in enumerate(spaces):
        offset = {x: i * grid.strides[j] for i, x in enumerate(grid.axes[j])}
        events = s.monoid.events
        table = [[offset[s.step(x, e)] for e in events] + [offset[x]] for x in grid.axes[j]]
        digits = gen_grid.digits(j)
        spread = [[row[u] for u in digits] for row in table]
        rows = [[a + b for a, b in zip(r, t)] for r in rows for t in spread]
    basepoint = grid.size
    action = {}
    for name, row in zip(states, rows):
        for gen, t in zip(gens, row):
            if t != basepoint:
                action[(name, gen)] = states[t]
    space = StateSpace(mp.monoid, tuple(states), action)
    projections = []
    for i, s in enumerate(spaces):
        state_part = {name: state_components[name][i] for name in states}
        projections.append(StateSpaceMorphism(space, s, mp.projections[i], state_part))
    return SpaceProductResult(space, tuple(projections), mp, state_components)


def space_tupling(
    morphisms: Sequence[StateSpaceMorphism], prod: SpaceProductResult, source: Optional[StateSpace] = None
) -> StateSpaceMorphism:
    if not morphisms:
        if source is None:
            raise MalformedDiagram("tupling of an empty family needs an explicit source")
        monoid_part = fpcm_cat.tupling([], prod.monoid_product, source.monoid)
        return StateSpaceMorphism(source, prod.space, monoid_part, {x: STAR for x in source.states})
    src = morphisms[0].source
    monoid_part = fpcm_cat.tupling([m.monoid_part for m in morphisms], prod.monoid_product)
    state_part = {}
    for x in src.states:
        combo = tuple(m.state(x) for m in morphisms)
        state_part[x] = STAR if all(y == STAR for y in combo) else render_tuple(combo)
    return StateSpaceMorphism(src, prod.space, monoid_part, state_part)


def equalizer(
    m1: StateSpaceMorphism, m2: StateSpaceMorphism, flag: Category = Category.FPCM
) -> tuple[StateSpace, StateSpaceMorphism]:
    if m1.source != m2.source or m1.target != m2.target:
        raise NotParallel("equalizer needs a parallel pair of space morphisms")
    sub_monoid, inclusion = fpcm_cat.equalizer(m1.monoid_part, m2.monoid_part, flag)
    states = tuple(x for x in m1.source.states if m1.state(x) == m2.state(x))
    keep = set(states)
    action = {
        (x, e): y
        for (x, e), y in m1.source.action.items()
        if x in keep and e in sub_monoid.events and y in keep
    }
    sub = StateSpace(sub_monoid, states, action)
    incl = StateSpaceMorphism(sub, m1.source, inclusion, {x: x for x in states})
    return sub, incl


def diagram_problems(d: Diagram, flag: Optional[Category] = None) -> list[str]:
    """A space diagram's problems: per arrow, a collapsed independent pair
    under FPCM_PAR when the monoid part can be read, then
    ``validate_morphism``'s problems."""

    def check(m: StateSpaceMorphism) -> list[str]:
        h, out = m.monoid_part, validate_morphism(m)
        if flag is Category.FPCM_PAR and malformed_image(h) is None and not is_independence_preserving(h):
            out.insert(0, "not independence-preserving")
        return out

    return d.problems("space", check)


@dataclass
class SpaceCone:
    apex: StateSpace
    legs: dict[str, StateSpaceMorphism]


def limit(d: Diagram, flag: Category = Category.FPCM) -> SpaceCone:
    """The limit as the compatible families, pointwise: ``fpcm_cat.limit`` of
    the monoid parts acting on the states of the objects' product, in its
    order and with its names, whose components agree along every arrow,
    ``m(x_src) == x_dst``.  Generators act component by component, as in the
    product; the legs are the component maps."""
    refuse(diagram_problems(d, flag))
    objs = list(d.shape.objects)
    spaces = [d.on_objects[o] for o in objs]
    cone = fpcm_cat.limit(d.map(lambda s: s.monoid, lambda m: m.monoid_part), flag)
    maps = {a: m.state_part for a, m in d.on_arrows.items()}
    states = PointedGrid([s.states for s in spaces]).matching(d.shape, maps, InvalidSpace, "state")
    name_of = {t: x for x, t in states.items()}
    columns = list(zip(*states.values()))  # factor -> its component of every state
    steps = [{u: {x: s.step(x, u) for x in (*s.states, STAR)} for u in s.monoid.events} for s in spaces]
    targets = []  # generator -> the state each state goes to, None for star
    for us in zip(*[[STAR if v is None else v for v in cone.legs[o].image] for o in objs]):
        parts = [col if u == STAR else map(step[u].__getitem__, col) for step, col, u in zip(steps, columns, us)]
        targets.append(map(name_of.get, zip(*parts)))
    events = cone.apex.events
    action = {(x, e): y for x, ys in zip(states, zip(*targets)) for e, y in zip(events, ys) if y is not None}
    apex = StateSpace(cone.apex, tuple(states), action)
    legs = {
        o: StateSpaceMorphism(apex, s, cone.legs[o], {x: t[j] for x, t in states.items()})
        for j, (o, s) in enumerate(zip(objs, spaces))
    }
    return SpaceCone(apex, legs)


# ---------------------------------------------------------------------------
# Presented actions and saturation


Term = tuple[str, tuple[str, ...]]  # (generator, canonical trace); star stands alone

EXACT = "EXACT"
TRUNCATED = "TRUNCATED"


@dataclass
class PresentedAction:
    """Generators-and-relations form of a state space.

    ``transitions`` are rules (generator, event, generator-or-star); several
    rules may share a (generator, event) pair, forcing identifications.
    ``identifications`` equate two terms; a term is ``(generator, trace)`` or
    the star sentinel.
    """

    monoid: TraceMonoid
    generators: tuple[str, ...]
    transitions: tuple[tuple[str, str, str], ...]
    identifications: tuple[tuple[Union[Term, str], Union[Term, str]], ...] = ()


class SaturationResult:
    """A materialized quotient: ``status`` is EXACT or TRUNCATED, ``space``
    holds the settled classes and their action, and ``class_map`` sends each
    input generator to its state or star.

    ``frontier`` is the tuple of unexplored terms ``(generator, trace)`` in
    tuple order, and ``frontier_names()`` renders them as ``term_name``
    does.  Built with a tuple of terms, the result keeps it.  ``saturate``
    gives buckets instead: the distinct frontier traces, sorted, and per
    generator with frontier terms, in order, the positions of its traces
    among them.  Then ``frontier`` decodes the buckets on first access, and
    ``frontier_names()`` reads them without building any term, with one
    ``".".join`` per distinct trace.
    """

    def __init__(self, status: str, space: StateSpace, class_map: dict[str, str],
                 frontier: tuple[Term, ...] = (), *, buckets=None):
        self.status = status
        self.space = space
        self.class_map = class_map
        self._buckets = buckets
        if buckets is None:
            self.frontier = tuple(frontier)

    @cached_property
    def frontier(self) -> tuple[Term, ...]:
        traces, buckets = self._buckets
        return tuple([(g, traces[j]) for g, positions in buckets for j in positions])

    def frontier_names(self) -> list[str]:
        """The frontier's state names, ``term_name`` of each term, in order."""
        if self._buckets is None:
            return [term_name(t) for t in self.frontier]
        traces, buckets = self._buckets
        tails = ["@" + ".".join(t) if t else "" for t in traces]
        return [g + tails[j] for g, positions in buckets for j in positions]


def term_name(t: Term) -> str:
    """The state name of a term: ``g`` for ``(g, ())``, ``g@a.b`` for
    ``(g, ("a", "b"))``."""
    g, trace = t
    return g + "@" + ".".join(trace) if trace else g


def saturate(p: PresentedAction, bound: int) -> SaturationResult:
    """Materialize the quotient of a presented action up to trace depth
    ``bound``.

    Breadth-first congruence closure over terms (generator, canonical trace):
    union-find seeded by rules and identifications, merging of classes merges
    their explored successors, star absorbs.  EXACT when the settled classes
    are closed under every event.

    The call keeps a trace table: each canonical trace gets an integer id,
    and the first time a term on it is extended, a row of its successors by
    every event, shared by every generator, since the successor of a trace
    does not depend on its generator.  The row is filled by one-letter
    ``extend_normal_form``, so it runs once per (trace, event);
    identifications, whose words are arbitrary, go through ``normal_form``.
    There is no term table: a term is the integer code ``trace id * width +
    generator index``, where the generator index is the position among the
    sorted generators that the presentation names anywhere, and star is the
    code -1.  A row holds its successor trace ids times ``width``, so the
    successor codes of a term are its trace's row plus its generator index.
    ``parent`` and the sort key ``(len(trace), generator, trace)`` are dicts
    over the present terms (those that belong to the closure), in the order
    they joined.  This is the memoized successor table of congruence closure
    (Downey, Sethi and Tarjan, JACM 27(4), 1980; Nelson and Oppen, JACM
    27(2), 1980).

    Each fixpoint pass groups the present terms by class and visits the
    classes in key order.  ``union`` keeps the term with the smaller key as
    root, so the root of a class without star is its least member: it names
    the class and is the term extended at the bound, the root the class had
    when the pass started.  A class with one member only extends its root,
    since unions among its successors would be no-ops.

    The last pass changed nothing, so its classes and sorted roots are the
    final ones, and at that fixpoint the present successors of a class's
    members by one event all lie in one class.  The classification reads
    them: a class below the bound takes the class of its root's successor,
    which the last pass found present.  A class at the bound scans its
    members for a present successor, unless no present term is deeper than
    the bound (a deeper one can only come from a rule or an
    identification): then every successor of the class is unexplored, so
    each of its events goes to the frontier.  The scan would find no
    present successor there either; skipping it cuts the colimits
    benchmark's p90 latency by about a fifth.  The successors of such a
    trace are read once for all the generators on it, from its row if the
    closure made one and by ``extend_normal_form`` otherwise, and are not
    interned: past the bound they would only be named on the frontier.  A
    name that two classes render raises ``InvalidSpace``.

    The frontier is collected as a map from each frontier trace to the
    indices of its generators.  Its distinct traces are sorted once; one
    pass over them in that order fills, per generator index, a bucket of
    the positions of its traces, so the buckets, read in generator order,
    list the frontier in the tuple order of ``(generator, trace)``.  The
    result keeps the buckets: ``SaturationResult.frontier`` decodes them on
    first access and ``frontier_names()`` renders them, one ``".".join``
    per distinct trace.
    """
    if bound < 0:
        raise InvalidBound(f"saturation bound must be >= 0, got {bound}")
    m = p.monoid
    events = m.events
    bad = next((rule for rule in p.transitions if len(rule) != 3), None)
    if bad is not None:
        raise MalformedRelation(f"rule {bad!r} is not a (generator, event, target) triple")
    named = set(p.generators).union(g for g, _, _ in p.transitions)
    named.update(rhs for _, _, rhs in p.transitions if rhs != STAR)
    named.update(t[0] for pair in p.identifications for t in pair if t != STAR)
    if STAR in named:
        raise InvalidSpace(f"{STAR!r} is reserved and cannot be a generator name")
    unknown = sorted({e for _, e, _ in p.transitions}.difference(events))
    if unknown:
        raise UnknownEvent(f"rule event {unknown[0]!r} not in alphabet {list(events)}")
    gens = sorted(named)
    gen_index = {g: k for k, g in enumerate(gens)}
    width = len(gens)
    traces: list[tuple[str, ...]] = []  # trace id -> canonical trace
    trace_ids: dict = {}
    rows: list = []  # trace id -> successor trace ids times width, by event; None until asked
    star = -1
    parent = {star: star}  # present code -> parent code, in the order the terms joined
    keys: dict = {star: (-1, "", ())}  # star sorts first, so it is always its own root

    def trace_id(t: tuple[str, ...]) -> int:
        i = trace_ids.get(t)
        if i is None:
            i = trace_ids[t] = len(traces)
            traces.append(t)
            rows.append(None)
        return i

    def successors(c: int) -> list[int]:
        i, k = divmod(c, width)
        row = rows[i]
        if row is None:
            t = traces[i]
            row = rows[i] = [trace_id(extend_normal_form(t, e, m)) * width for e in events]
        return [b + k for b in row]

    def code(t: Union[Term, str]) -> int:
        return star if t == STAR else trace_id(t[1]) * width + gen_index[t[0]]

    def add(c: int) -> int:
        if c not in parent:
            i, k = divmod(c, width)
            parent[c] = c
            keys[c] = (len(traces[i]), gens[k], traces[i])
        return c

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> bool:
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        if keys[rx] < keys[ry]:
            rx, ry = ry, rx
        parent[rx] = ry
        return True

    def groups() -> dict[int, list[int]]:
        out: dict = {}
        for t, r in parent.items():
            out.setdefault(t if r == t else find(t), []).append(t)
        return out

    for g in p.generators:
        add(code((g, ())))
    for g, e, rhs in p.transitions:
        union(add(code((g, (e,)))), add(code(rhs if rhs == STAR else (rhs, ()))))
    for pair in p.identifications:
        union(*[add(code(t if t == STAR else (t[0], normal_form(t[1], m)))) for t in pair])
    # the closure adds only terms up to the bound, so this holds to the end
    shallow = max(key[0] for key in keys.values()) <= bound

    changed = True
    while changed:
        changed = False
        classes = groups()
        roots = sorted(classes, key=keys.__getitem__)
        for root in roots:
            members = classes[root]
            if root == star:
                for t in members[1:]:  # star joined first
                    for s in successors(t):
                        if s in parent:
                            changed |= union(s, star)
                continue
            extend = keys[root][0] < bound
            if len(members) == 1:
                if extend:
                    for s in successors(root):
                        if s not in parent:
                            add(s)
                            changed = True
                continue
            columns = zip(*[successors(t) for t in members])
            for column, s0 in zip(columns, successors(root)):
                collected = [s for s in column if s in parent]
                if extend:
                    if s0 not in parent:
                        add(s0)
                        changed = True
                    collected.append(s0)
                for a, b in zip(collected, collected[1:]):
                    changed |= union(a, b)

    # name and classify the last pass's classes, then read off the action
    names = {root: term_name(keys[root][1:]) for root in roots[1:] if keys[root][0] <= bound}  # star sorts first
    if len(set(names.values())) < len(names):
        seen: dict = {}
        for root, name in names.items():
            if name in seen:
                raise InvalidSpace(
                    f"colimit state name {name!r} renders both {keys[seen[name]][1:]!r} and {keys[root][1:]!r}"
                )
            seen[name] = root
    front = defaultdict(set)  # frontier trace -> generator indices
    at_bound = defaultdict(list)  # trace id -> generator indices of its classes at the bound
    action = {}
    for root, members in classes.items():
        if root not in names:
            if root != star:
                front[traces[root // width]].add(root % width)
            continue
        if keys[root][0] < bound:
            succ0 = successors(root)
            reached = [find(s) for s in succ0]  # the last pass extended the root
        elif shallow:
            at_bound[root // width].append(root % width)  # no term past the bound is present
            continue
        else:
            succ0 = successors(root)
            columns = zip(*[successors(t) for t in members])
            reached = [next((find(s) for s in column if s in parent), None) for column in columns]
        name = names[root]
        for e, s0, r in zip(events, succ0, reached):
            if r in names:
                action[(name, e)] = names[r]
            elif r != star:
                front[traces[s0 // width]].add(s0 % width)
    for i, ks in at_bound.items():
        row = rows[i]
        t = traces[i]
        succ = [extend_normal_form(t, e, m) for e in events] if row is None else [traces[b // width] for b in row]
        for u in succ:
            front[u].update(ks)
    frontier_traces = sorted(front)
    buckets: list = [[] for _ in gens]  # generator index -> positions of its frontier traces
    for j, u in enumerate(frontier_traces):
        for k in front[u]:
            buckets[k].append(j)
    status = EXACT if not front else TRUNCATED
    space = StateSpace(m, tuple(names.values()), action)
    class_map = {g: names.get(find(code((g, ()))), STAR) for g in p.generators}
    bucketed = [(g, b) for g, b in zip(gens, buckets) if b]
    return SaturationResult(status, space, class_map, buckets=(frontier_traces, bucketed))


# ---------------------------------------------------------------------------
# Colimits of space diagrams


@dataclass
class SpaceCocone:
    apex: StateSpace
    legs: dict[str, StateSpaceMorphism]


@dataclass
class SpaceColimitResult:
    monoid_cocone: fpcm_cat.MonoidCocone
    presentation: PresentedAction
    saturation: SaturationResult
    cocone: SpaceCocone


def build_presentation(
    d: Diagram, monoid_cocone: fpcm_cat.MonoidCocone, identifications: tuple = ()
) -> PresentedAction:
    """Presented action of a colimit: tagged states, action rules pushed
    through the colimit cocone, identifications along diagram arrows, then
    the given ``identifications`` of tagged terms.

    An event erased by the cocone whose action was undefined collapses the
    state to star (the free extension in pointed sets forces it)."""
    objs = list(d.shape.objects)
    monoid = monoid_cocone.apex
    generators = []
    transitions = []
    equations = []
    for i, o in enumerate(objs):
        space = d.on_objects[o]
        q = monoid_cocone.legs[o]
        for x in space.states:
            generators.append(tag(i, x))
        for x in space.states:
            for e in space.monoid.events:
                y = space.step(x, e)
                qe = q(e)
                if qe is not None:
                    transitions.append((tag(i, x), qe, STAR if y == STAR else tag(i, y)))
                elif y == STAR:
                    equations.append(((tag(i, x), ()), STAR))
                else:
                    equations.append(((tag(i, x), ()), (tag(i, y), ())))
    index = {o: i for i, o in enumerate(objs)}
    for name, src, dst in sorted(d.shape.arrows):
        mor = d.on_arrows[name]
        for x in d.on_objects[src].states:
            y = mor.state(x)
            lhs = (tag(index[src], x), ())
            if y == STAR:
                equations.append((lhs, STAR))
            else:
                equations.append((lhs, (tag(index[dst], y), ())))
    equations.extend(identifications)
    return PresentedAction(monoid, tuple(generators), tuple(transitions), tuple(equations))


def colimit(
    d: Diagram, flag: Category = Category.FPCM, bound: int = 8, identifications: tuple = ()
) -> SpaceColimitResult:
    """Colimit by saturating the presentation of ``build_presentation``;
    ``identifications`` equate further tagged terms, such as the initial
    states of systems."""
    refuse(diagram_problems(d, flag))
    monoid_cocone = fpcm_cat.colimit(d.map(lambda s: s.monoid, lambda m: m.monoid_part), flag)
    presentation = build_presentation(d, monoid_cocone, identifications)
    sat = saturate(presentation, bound)
    objs = list(d.shape.objects)
    legs = {}
    for i, o in enumerate(objs):
        space = d.on_objects[o]
        state_part = {x: sat.class_map[tag(i, x)] for x in space.states}
        legs[o] = StateSpaceMorphism(space, sat.space, monoid_cocone.legs[o], state_part)
    return SpaceColimitResult(monoid_cocone, presentation, sat, SpaceCocone(sat.space, legs))


# ---------------------------------------------------------------------------
# Isomorphism testing (brute force with pruning; test support)


def is_isomorphic(s1: StateSpace, s2: StateSpace) -> Optional[tuple[dict[str, str], dict[str, str]]]:
    """Event bijection preserving independence plus jointly equivariant state
    bijection; returns (event_map, state_map) or None."""
    if len(s1.monoid.events) > 8 or len(s1.states) > 12:
        raise SizeLimit("isomorphism search limited to 8 events and 12 states")
    if len(s1.states) != len(s2.states) or len(s1.monoid.events) != len(s2.monoid.events):
        return None
    for perm in itertools.permutations(s2.monoid.events):
        emap = dict(zip(s1.monoid.events, perm))
        if not all(s2.monoid.independent(emap[a], emap[b]) for a, b in s1.monoid.pairs()):
            continue
        if len(s1.monoid.independence) != len(s2.monoid.independence):
            return None
        smap = _match_states(s1, s2, emap)
        if smap is not None:
            return emap, smap
    return None


def _match_states(s1: StateSpace, s2: StateSpace, emap) -> Optional[dict[str, str]]:
    order = list(s1.states)

    def extend(assignment, used):
        if len(assignment) == len(order):
            return dict(assignment)
        x = order[len(assignment)]
        for y in s2.states:
            if y in used:
                continue
            trial = dict(assignment)
            trial[x] = y
            if _consistent(s1, s2, emap, trial):
                res = extend(trial, used | {y})
                if res is not None:
                    return res
        return None

    return extend({}, set())


def _consistent(s1, s2, emap, partial) -> bool:
    get = partial.get
    for x, y in partial.items():
        for e in s1.monoid.events:
            x2 = s1.step(x, e)
            y2 = s2.step(y, emap[e])
            if x2 == STAR:
                if y2 != STAR:
                    return False
            else:
                if y2 == STAR:
                    return False
                mapped = get(x2)
                if mapped is not None and mapped != y2:
                    return False
    return True
