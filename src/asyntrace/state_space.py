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
from bisect import bisect_left, bisect_right
from functools import cached_property
from typing import Mapping, Optional, Sequence, Union

from . import fpcm_cat
from .diagrams import Cone, Diagram, discrete, refuse
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
from .fpcm_cat import Category, PointedGrid, ProductResult, render_tuple, tag, union_find
from .trace_core import (
    STAR,
    BasicHom,
    Trace,
    TraceMonoid,
    check_word,
    is_independence_preserving,
    malformed_image,
    normal_form,
)
from .value import Value


class StateSpace(Value):
    """Trace monoid acting on a pointed finite state set.

    ``action`` holds only the entries that do not lead to star; ``step``
    fills in the sink behaviour.
    """

    def __init__(self, monoid: TraceMonoid, states: tuple[str, ...], action: dict[tuple[str, str], str]) -> None:
        self.monoid, self.states, self.action = monoid, states, action

    def step(self, x: str, e: str) -> str:
        if x == STAR:
            return STAR
        return self.action.get((x, e), STAR)


def _mapping(value, what: str, error: type) -> dict:
    """``value`` copied into a dict; ``error``, naming ``what``, if it is not a mapping."""
    if not isinstance(value, Mapping):
        raise error(f"{what} must be a mapping, not {type(value).__name__!r}")
    return dict(value)


def make_space(monoid: TraceMonoid, states: Sequence[str], action) -> StateSpace:
    s = StateSpace(monoid, tuple(states), _mapping(action, "the action", InvalidSpace))
    refuse(validate_space(s), InvalidSpace)
    return s


def act_trace(s: StateSpace, x: str, t: Union[Trace, Sequence[str]]) -> str:
    if not isinstance(t, Trace):
        letters = check_word(t, s.monoid)
    elif t.monoid != s.monoid:
        raise MonoidMismatch("trace is not over the space's monoid")
    else:
        letters = t.letters
    if x != STAR and x not in s.states:
        raise UnknownState(f"unknown state {x!r}")
    for e in letters:
        x = s.step(x, e)
    return x


def validate_space(s: StateSpace) -> list[str]:
    """The space's problems; a state, action key or action value that is not made of
    names is reported alone, before anything reads it.  Only the faulty entries are sorted."""
    problems = [f"state {x!r} is not a name" for x in s.states if not isinstance(x, str)]
    columns: dict = {e: {} for e in s.monoid.events}  # event -> state other than star -> its step
    for key, y in s.action.items():
        if not (isinstance(key, tuple) and len(key) == 2 and isinstance(key[0], str) and isinstance(key[1], str)):
            problems.append(f"action key {key!r} is not a (state, event) pair of names")
        elif not isinstance(y, str):
            problems.append(f"action value {y!r} is not a name")
        elif key[1] in columns and key[0] != STAR:
            columns[key[1]][key[0]] = y
    if problems:
        return problems
    states = set(s.states)
    if len(states) != len(s.states):
        problems.append("duplicate state names")
    if STAR in states:
        problems.append(f"{STAR!r} is reserved and cannot be a state name")
    for (x, e), y in sorted([((x, e), y) for (x, e), y in s.action.items()
                             if x not in states or e not in columns or y != STAR and y not in states]):
        if x not in states:
            problems.append(f"action entry on unknown state {x!r}")
        if e not in columns:
            problems.append(f"action entry on unknown event {e!r}")
        if y != STAR and y not in states:
            problems.append(f"action value {y!r} is not a state")
    for a, b in s.monoid.pairs():
        by_a, by_b = columns[a].get, columns[b].get
        for x in s.states:
            left, right = by_b(by_a(x, STAR), STAR), by_a(by_b(x, STAR), STAR)
            if left != right:
                problems.append(
                    f"diamond violation at state {x!r} with pair ({a!r}, {b!r}):"
                    f" {left!r} != {right!r}"
                )
    return problems


class StateSpaceMorphism(Value):
    """Monoid part plus pointed state map, equivariant on generators."""

    def __init__(
        self, source: StateSpace, target: StateSpace, monoid_part: BasicHom, state_part: dict[str, str]
    ) -> None:
        self.source, self.target, self.monoid_part = source, target, monoid_part
        self.state_part = state_part  # proper source states -> target state or star

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
    """Unreadable parts alone; else FPCM_PAR independence, then equivariance read by source rows."""
    if m.monoid_part.source != m.source.monoid or m.monoid_part.target != m.target.monoid:
        return ["monoid part endpoints do not match the spaces"]
    bad = malformed_image(m.monoid_part)
    if bad is not None:
        return [f"monoid part: {bad}"]
    states, events, f, get = m.source.states, m.source.monoid.events, m.state_part, m.source.action.get
    problems = [f"source state {x!r} is not a name" for x in states if not isinstance(x, str)]
    problems = problems or _state_map_problems(states, m)
    if problems:
        return problems
    rows = [(x, [get((x, e), STAR) for e in events]) for x in states if x != STAR]  # star, a sink, has no row
    inside = {*states, STAR}
    problems = [f"source transition {(x, e)!r} -> {y!r} leads outside the source's states"
                for x, row in rows for e, y in zip(events, row) if not (isinstance(y, str) and y in inside)]
    if problems:
        return problems
    if flag is Category.FPCM_PAR and not is_independence_preserving(m.monoid_part):
        problems.append("monoid part is not independence-preserving")
    step = m.target.action.get
    for x, row in rows:
        for e, fe, y in zip(events, m.monoid_part.image, row):
            expected = f[x] if fe is None or f[x] == STAR else step((f[x], fe), STAR)
            got = STAR if y == STAR else f[y]
            if got != expected:
                problems.append(f"equivariance violation at ({x!r}, {e!r}): {got!r} != {expected!r}")
    return problems


def _state_map_problems(states, *morphisms: StateSpaceMorphism) -> list[str]:
    """Per morphism, each of ``states`` that its state map misses or sends outside its target."""
    problems = []
    for m in morphisms:
        targets = {STAR, *[y for y in m.target.states if isinstance(y, str)]}  # only a name is a value
        for x in states:
            if x not in m.state_part:
                problems.append(f"state map missing for {x!r}")
            elif not isinstance(m.state_part[x], str) or m.state_part[x] not in targets:
                problems.append(f"state map sends {x!r} outside the target")
    return problems


def make_space_morphism(source, target, monoid_part, state_part, flag=Category.FPCM) -> StateSpaceMorphism:
    m = StateSpaceMorphism(source, target, monoid_part, _mapping(state_part, "the state map", NotAMorphism))
    refuse(validate_morphism(m, flag), NotAMorphism)
    return m


# ---------------------------------------------------------------------------
# Products, equalizers, limits


class SpaceProductResult(Value):
    def __init__(
        self, space: StateSpace, projections: tuple[StateSpaceMorphism, ...], monoid_product: ProductResult,
        state_components: dict[str, tuple[str, ...]],
    ) -> None:
        self.space, self.projections, self.monoid_product = space, projections, monoid_product
        self.state_components = state_components  # state name -> pointed tuple


def product(spaces: Sequence[StateSpace], flag: Category = Category.FPCM) -> SpaceProductResult:
    """Monoid product acting componentwise on the product of pointed state
    sets; only the all-star tuple plays the basepoint, and more than
    ``fpcm_cat.PRODUCT_SIZE`` states raise ``SizeLimit``.  It is the limit of
    the discrete diagram: ``_componentwise`` over ``fpcm_cat.product``,
    whose result it keeps for ``space_tupling``."""
    spaces = list(spaces)
    mp = fpcm_cat.product([s.monoid for s in spaces], flag)
    grid = PointedGrid([s.states for s in spaces])
    state_components = grid.matching(discrete(len(spaces)), {}, InvalidSpace, "state")
    space = _componentwise(spaces, mp.monoid, state_components, [h.image for h in mp.projections])
    projections = tuple(
        StateSpaceMorphism(space, s, mp.projections[j], {x: t[j] for x, t in state_components.items()})
        for j, s in enumerate(spaces)
    )
    return SpaceProductResult(space, projections, mp, state_components)


def space_tupling(
    morphisms: Sequence[StateSpaceMorphism], prod: SpaceProductResult, source: Optional[StateSpace] = None
) -> StateSpaceMorphism:
    if not morphisms:
        if source is None:
            raise MalformedDiagram("tupling of an empty family needs an explicit source")
        monoid_part = fpcm_cat.tupling([], prod.monoid_product, source.monoid)
        return StateSpaceMorphism(source, prod.space, monoid_part, {x: STAR for x in source.states})
    src = morphisms[0].source
    refuse(_state_map_problems(src.states, *morphisms), NotAMorphism)
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
    refuse(_state_map_problems(m1.source.states, m1, m2), NotAMorphism)
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
    """A space diagram's problems: each space's ``validate_space``'s, then each arrow's ``_arrow_problems``."""
    return d.problems("space", lambda m: _arrow_problems(m, flag), validate_space)


def _arrow_problems(m: StateSpaceMorphism, flag: Optional[Category]) -> list[str]:
    """An FPCM_PAR collapsed independent pair, if the monoid part reads, then ``validate_morphism``'s problems."""
    h, out = m.monoid_part, validate_morphism(m)
    if flag is Category.FPCM_PAR and malformed_image(h) is None and not is_independence_preserving(h):
        out.insert(0, "not independence-preserving")
    return out


def limit(d: Diagram, flag: Category = Category.FPCM) -> Cone:
    """``_limit`` of a diagram that passes ``diagram_problems``."""
    refuse(diagram_problems(d, flag))
    return _limit(d, flag)


def _limit(d: Diagram, flag: Category) -> Cone:
    """The limit as the compatible families, pointwise: ``fpcm_cat.limit`` of
    the monoid parts acting on the states of the objects' product, in its
    order and with its names, whose components agree along every arrow,
    ``m(x_src) == x_dst``.  Generators act component by component
    (``_componentwise``); the legs are the component maps."""
    objs = list(d.shape.objects)
    spaces = [d.on_objects[o] for o in objs]
    cone = fpcm_cat.limit(d.map(lambda s: s.monoid, lambda m: m.monoid_part), flag)
    maps = {a: m.state_part for a, m in d.on_arrows.items()}
    states = PointedGrid([s.states for s in spaces]).matching(d.shape, maps, InvalidSpace, "state")
    apex = _componentwise(spaces, cone.apex, states, [cone.legs[o].image for o in objs])
    legs = {
        o: StateSpaceMorphism(apex, s, cone.legs[o], {x: t[j] for x, t in states.items()})
        for j, (o, s) in enumerate(zip(objs, spaces))
    }
    return Cone(apex, legs)


def _componentwise(spaces: list[StateSpace], monoid: TraceMonoid, states: dict, images: list) -> StateSpace:
    """``monoid`` acting on ``states``, name -> tuple of components, closed
    under the action: a generator whose image in factor ``j`` is
    ``images[j]``'s entry acts on component ``j`` by that event, or not at
    all for None.  Entries that reach a tuple outside ``states`` (the
    all-star one) are left out."""
    name_of = {t: x for x, t in states.items()}
    columns = list(zip(*states.values()))  # factor -> its component of every state
    steps = [{u: {x: s.step(x, u) for x in (*s.states, STAR)} for u in s.monoid.events} for s in spaces]
    targets = []  # generator -> the state each state goes to, None for star
    for us in zip(*images):
        parts = [col if u is None else map(step[u].__getitem__, col) for step, col, u in zip(steps, columns, us)]
        targets.append(map(name_of.get, zip(*parts)))
    events = monoid.events
    action = {(x, e): y for x, ys in zip(states, zip(*targets)) for e, y in zip(events, ys) if y is not None}
    return StateSpace(monoid, tuple(states), action)


# ---------------------------------------------------------------------------
# Presented actions and saturation


Term = tuple[str, tuple[str, ...]]  # (generator, canonical trace); star stands alone

EXACT = "EXACT"
TRUNCATED = "TRUNCATED"


class PresentedAction(Value):
    """Generators-and-relations form of a state space.

    ``transitions`` are rules (generator, event, generator-or-star); several
    rules may share a (generator, event) pair, forcing identifications.
    ``identifications`` equate two terms; a term is ``(generator, trace)`` or
    the star sentinel.
    """

    def __init__(
        self, monoid: TraceMonoid, generators: tuple[str, ...], transitions: tuple[tuple[str, str, str], ...],
        identifications: tuple[tuple[Union[Term, str], Union[Term, str]], ...] = (),
    ) -> None:
        self.monoid, self.generators = monoid, generators
        self.transitions, self.identifications = transitions, identifications


class SaturationResult(Value):
    """A materialized quotient: ``status`` is EXACT or TRUNCATED, ``space``
    holds the settled classes and their action, and ``class_map`` sends each
    input generator to its state or star.

    The unexplored terms ``(generator, trace)`` are kept as buckets: the
    distinct frontier traces, as sorted code strings (``_coding``), and per
    generator with frontier terms, in order, the positions of its traces
    among them.  ``frontier`` decodes them, on first access, into the tuple
    of terms in tuple order; ``frontier_names()`` renders them (``_suffixes``).
    """

    def __init__(self, status: str, space: StateSpace, class_map: dict[str, str], _buckets: tuple) -> None:
        self.status, self.space, self.class_map, self._buckets = status, space, class_map, _buckets

    @cached_property
    def frontier(self) -> tuple[Term, ...]:
        traces, buckets = self._buckets
        names = sorted(self.space.monoid.events)
        words = [tuple([names[ord(c)] for c in t]) for t in traces]
        return tuple([(g, words[j]) for g, positions in buckets for j in positions])

    def frontier_names(self) -> list[str]:
        """The frontier's state names, ``g@a.b`` for ``(g, ("a", "b"))``, in order."""
        traces, buckets = self._buckets
        tails = _suffixes(traces, self.space.monoid.events)
        return [g + tails[j] for g, positions in buckets for j in positions]


def _coding(m: TraceMonoid) -> tuple[dict[str, str], list[tuple[str, str, str]]]:
    """``saturate``'s trace code: per event, the character ``chr(r)`` of its
    rank ``r`` among the sorted event names, so that code strings sort as
    the tuples of names do; and, per event in declared order, its code and
    its two strings of ``TraceMonoid._insertion``, re-coded."""
    code = {e: chr(r) for r, e in enumerate(sorted(m.events))}
    recode = {i: code[e] for i, e in enumerate(m.events)}
    return code, [(code[e], *(s.translate(recode) for s in m._insertion[chr(i)])) for i, e in enumerate(m.events)]


def _successors(t: str, insertion: list[tuple[str, str, str]]) -> list[str]:
    """The code strings of the normal form ``t`` followed by each event of
    ``insertion`` (``_coding``): ``normal_form``'s insertion rule, one
    ``rstrip`` of the codes independent of the event, then one ``lstrip``
    of the lower codes."""
    out = []
    for ch, independent, lower in insertion:
        u = t.rstrip(independent)
        if u is t:
            out.append(t + ch)
        else:
            r = t[len(u) :].lstrip(lower)
            out.append(t[: len(t) - len(r)] + ch + r)
    return out


def _suffixes(traces: Sequence[str], events: Sequence[str]) -> list[str]:
    """The state-name suffix of each code string of ``traces`` (``_coding``):
    ``""`` for the empty trace, ``"@a.b"`` for ``("a", "b")``.  A trace
    extends the suffix of its one-shorter prefix, translated once for each
    run of traces with that prefix, such as sorted siblings."""
    names = sorted(events)
    last = {chr(r): e for r, e in enumerate(names)}
    dotted = str.maketrans({chr(r): e + "." for r, e in enumerate(names)})
    tails, head, prefix = [], None, ""
    for t in traces:
        if t[:-1] != head:
            head = t[:-1]
            prefix = "@" + head.translate(dotted)
        tails.append(prefix + last[t[-1]] if t else "")
    return tails


def _is_term(t) -> bool:
    """Whether ``t`` is star or a (generator name, sequence of event names) pair."""
    return t == STAR or (
        isinstance(t, (tuple, list)) and len(t) == 2 and isinstance(t[0], str)
        and isinstance(t[1], (tuple, list)) and all(isinstance(x, str) for x in t[1])
    )


def saturate(p: PresentedAction, bound: int) -> SaturationResult:
    """The quotient of a presented action up to trace depth ``bound`` (``_saturate``), checked by ``_check_items``."""
    _check_items(p, bound)
    return _saturate(p, bound)


def _check_items(p: PresentedAction, bound: int) -> None:
    """Name the first defect of the bound, the generators, the rules or the identifications, in that
    order, item by item; a ``str`` subclass or a list where a tuple is expected is accepted."""
    if isinstance(bound, bool) or not isinstance(bound, int):
        raise InvalidBound(f"saturation bound must be an int, got {bound!r}")
    if bound < 0:
        raise InvalidBound(f"saturation bound must be >= 0, got {bound}")
    rules, pairs = p.transitions, p.identifications
    bad = [g for g in p.generators if not isinstance(g, str)]
    if bad:
        raise MalformedRelation(f"generator {bad[0]!r} is not a name")
    bad = [r for r in rules if not (isinstance(r, (tuple, list)) and len(r) == 3
                                    and isinstance(r[0], str) and isinstance(r[1], str) and isinstance(r[2], str))]
    if bad:
        raise MalformedRelation(f"rule {bad[0]!r} is not a (generator, event, target) triple of names")
    bad = [pair for pair in pairs
           if not (isinstance(pair, (tuple, list)) and len(pair) == 2 and _is_term(pair[0]) and _is_term(pair[1]))]
    if bad:
        raise MalformedRelation(f"identification {bad[0]!r} is not a pair of terms")
    if STAR in p.generators or STAR in [r[0] for r in rules] or STAR in [t[0] for q in pairs for t in q if t != STAR]:
        raise InvalidSpace(f"{STAR!r} is reserved and cannot be a generator name")
    unknown = sorted({r[1] for r in rules}.difference(p.monoid.events))
    if unknown:
        raise UnknownEvent(f"rule event {unknown[0]!r} not in alphabet {list(p.monoid.events)}")


def _saturate(p: PresentedAction, bound: int) -> SaturationResult:
    """``saturate`` on checked items.  Breadth-first congruence closure over
    terms (generator, canonical trace): union-find seeded by rules and
    identifications, merging of classes merges their explored successors,
    star absorbs.  EXACT when the settled classes are closed under every event.

    The call keeps a trace table.  A canonical trace is a code string
    (``_coding``), interned with an integer id, the empty trace first.  A
    term is the integer code ``trace id * width + generator index``, the
    index among the sorted generators that the presentation names, and star
    is -1; a generator, or a term on the empty word, is its index.  The
    first time a term is extended, its trace gets a row: its successors'
    ids times ``width``, by every event, made once by ``_successors`` and
    shared by every generator, so a term's successors are its trace's row
    plus its generator index.  An identification's word goes through
    ``normal_form`` only when it has two letters or more.  ``parent`` and
    the key ``(len(trace), generator index, code string)``, which sorts as
    ``(len(trace), generator, trace)`` does on names, are dicts over the
    present terms, in the order they joined, for ``fpcm_cat.union_find``.
    This is the memoized successor table of congruence closure (Downey,
    Sethi and Tarjan, JACM 27(4), 1980; Nelson and Oppen, JACM 27(2), 1980).

    Each fixpoint pass visits, in key order, the classes that it can
    change: the classes of several members, star's class, and the
    single-member classes below the bound that joined since the previous
    pass began.  Any other single-member class was visited before, when all
    its successors joined, or lies at the bound, which it never extends.
    ``union`` keeps the term with the smaller key as root, so the root of a
    class without star is its least member: it names the class and is the
    term extended at the bound, the root the class had when the pass
    started.  A single-member class only extends its root, since unions
    among its successors would be no-ops; a run of them between two other
    visits is extended at once, its new successors joining in order, so the
    terms join in the order of one visit at a time.

    The last pass changed nothing, so its classes are the final ones, and at
    that fixpoint the present successors of a class's members by one event
    all lie in one class.  The roots are sorted once, and a state is named
    by its root's generator and trace (``_suffixes``).  The classification
    reads the classes in the order they joined: a class below the bound
    takes the class of its root's successor, which the last pass found
    present.  A class at the bound scans its members for a present
    successor, unless no present term is deeper than the bound (a deeper
    one can only come from a rule or an identification): then every
    successor of the class is unexplored, so each of its events goes to the
    frontier, and the classes at the bound, a slice of the sorted roots,
    are not scanned: each hands its trace's successors to the frontier, as
    code strings made once per trace and never interned.  A name that two
    classes render raises ``InvalidSpace``.

    The frontier is collected per generator index, as lists of code
    strings.  Its distinct traces are sorted once, and each generator's
    bucket is the sorted positions of its traces among them, so the buckets
    list the frontier in the tuple order of ``(generator, trace)``.
    Generators whose frontier comes from the same lists, as the generators
    of one system in a free extension often do, share one bucket.
    """
    m = p.monoid
    events = m.events
    rules, pairs = p.transitions, p.identifications
    flat = list(itertools.chain.from_iterable(rules))
    lhs, letters, rhs = flat[::3], flat[1::3], flat[2::3]
    named = {*p.generators, *lhs, *rhs, *[t[0] for pair in pairs for t in pair if t != STAR]}
    named.discard(STAR)
    gens = sorted(named)
    gen_index = {g: k for k, g in enumerate(gens)}
    width = len(gens)
    code_of, insertion = _coding(m)
    traces: list[str] = [""]  # trace id -> code string; a generator's code is its index
    trace_ids: dict = {"": 0}
    rows: dict = {}  # trace id -> successor trace ids times width, by event, once asked
    star = -1
    parent = {star: star}  # present code -> parent code, in the order the terms joined
    keys: dict = {star: (-1, -1, "")}  # star sorts first, so it is always its own root
    find, union = union_find(parent, keys)

    def trace_id(t: str) -> int:
        i = trace_ids.get(t)
        if i is None:
            i = trace_ids[t] = len(traces)
            traces.append(t)
        return i

    def row(i: int) -> list[int]:
        r = rows.get(i)
        if r is None:
            r = rows[i] = [trace_id(t) * width for t in _successors(traces[i], insertion)]
        return r

    def successors(c: int) -> list[int]:
        i, k = divmod(c, width)
        return [b + k for b in row(i)]

    def join(codes) -> bool:
        """Add the codes that are not present, in order; whether any was."""
        new = [c for c in dict.fromkeys(codes) if c not in parent]
        parent.update(zip(new, new))
        keys.update([(c, (len(t), c % width, t)) for c in new for t in [traces[c // width]]])
        return bool(new)

    def code(t: Union[Term, str]) -> int:
        if t == STAR:
            return star
        g, word = t
        if not word:
            return gen_index[g]
        word = normal_form(word, m) if len(word) > 1 else check_word(word, m)
        return trace_id("".join(map(code_of.__getitem__, word))) * width + gen_index[g]

    rule_pairs = [(trace_id(code_of[e]) * width + gen_index[g], star if target == STAR else gen_index[target])
                  for g, e, target in zip(lhs, letters, rhs)]
    glued = [(code(a), code(b)) for a, b in pairs]
    join([*map(gen_index.__getitem__, p.generators), *itertools.chain.from_iterable(rule_pairs),
          *itertools.chain.from_iterable(glued)])
    for a, b in rule_pairs:
        union(a, b)
    for a, b in glued:
        union(a, b)
    # the closure adds only terms up to the bound, so this holds to the end
    shallow = max(map(len, traces)) <= bound

    seen = 1  # the terms that joined before the previous pass began; star joined first
    changed = True
    while changed:
        changed = False
        joined = len(parent)
        classes: dict = {}  # root of a class of several members -> its other members
        for t in [t for t, r in parent.items() if r != t]:
            classes.setdefault(find(t), []).append(t)
        fresh = [c for c in itertools.islice(parent, seen, joined)
                 if parent[c] == c and c not in classes and keys[c][0] < bound]
        seen = joined
        run: list = []
        for root in sorted([*classes, *fresh], key=keys.__getitem__):
            others = classes.get(root)
            if others is None:
                run.append(root)
                continue
            if run:
                changed |= join([b + r % width for r in run for b in row(r // width)])
                run = []
            if root == star:
                for t in others:
                    for s in successors(t):
                        if s in parent:
                            changed |= union(s, star)
                continue
            extend_root = keys[root][0] < bound
            for column in zip(*[[b + t % width for b in row(t // width)] for t in (root, *others)]):
                if extend_root and column[0] not in parent:  # the root's successor
                    join(column[:1])
                    changed = True
                collected = [s for s in column if s in parent]
                if len(collected) > 1 and len(set(map(find, collected))) > 1:
                    for a, b in zip(collected, collected[1:]):
                        union(a, b)
                    changed = True
        if run:
            changed |= join([b + r % width for r in run for b in row(r // width)])

    # name and classify the last pass's classes, then read off the action
    order = list(dict.fromkeys([t if r == t else find(t) for t, r in parent.items()]))  # roots, as classes joined
    roots = sorted(order, key=keys.__getitem__)  # star first, then by depth
    at = bisect_left(roots, bound, key=lambda r: keys[r][0])
    past = bisect_right(roots, bound, lo=at, key=lambda r: keys[r][0])
    tails = _suffixes(traces, events)
    names = {root: gens[root % width] + tails[root // width] for root in roots[1:past]}
    if len(set(names.values())) < len(names):
        seen_names: dict = {}
        for root, name in names.items():
            if name in seen_names:
                a, b = ((gens[r % width], tuple(map(sorted(events).__getitem__, map(ord, traces[r // width]))))
                        for r in (seen_names[name], root))
                raise InvalidSpace(f"colimit state name {name!r} renders both {a!r} and {b!r}")
            seen_names[name] = root
    reach: list = [[] for _ in gens]  # generator index -> lists of its frontier traces
    for root in roots[past:]:
        reach[root % width].append((traces[root // width],))
    if shallow:  # no term past the bound is present: the classes at the bound reach only the frontier
        made: dict = {}  # trace id -> the code strings of its successors, made once
        for root in roots[at:past]:
            i = root // width
            if i not in made:
                made[i] = [traces[b // width] for b in rows[i]] if i in rows else _successors(traces[i], insertion)
            reach[root % width].append(made[i])
        read = set(roots[1:at])
    else:
        read = set(roots[1:past])
    action = {}
    for root in order:
        if root not in read:
            continue
        succ0 = successors(root)
        if keys[root][0] < bound:
            reached = [s if parent[s] == s else find(s) for s in succ0]  # the last pass extended the root
        else:
            columns = zip(*[successors(t) for t in (root, *classes.get(root, ()))])
            reached = [next((find(s) for s in column if s in parent), None) for column in columns]
        name = names[root]
        for e, s0, r in zip(events, succ0, reached):
            target = names.get(r)
            if target is not None:
                action[(name, e)] = target
            elif r != star:
                reach[s0 % width].append((traces[s0 // width],))
    # generators whose frontier comes from the same lists share a bucket
    origins = [tuple(map(id, rs)) for rs in reach]
    shared: dict = {}  # lists by identity -> their distinct frontier traces, then positions
    for origin, rs in zip(origins, reach):
        if origin not in shared:
            shared[origin] = dict.fromkeys(itertools.chain.from_iterable(rs))
    ranked = sorted(dict.fromkeys(itertools.chain.from_iterable(shared.values())))
    position = {t: j for j, t in enumerate(ranked)}
    for origin, ts in shared.items():
        shared[origin] = sorted(map(position.__getitem__, ts))
    status = EXACT if not ranked else TRUNCATED
    space = StateSpace(m, tuple(names.values()), action)
    class_map = {g: names.get(find(gen_index[g]), STAR) for g in p.generators}
    bucketed = [(g, shared[origin]) for g, origin in zip(gens, origins) if origin]
    return SaturationResult(status, space, class_map, (ranked, bucketed))


# ---------------------------------------------------------------------------
# Colimits of space diagrams


class SpaceColimitResult(Value):
    def __init__(self, saturation: SaturationResult, cocone: Cone) -> None:
        self.saturation, self.cocone = saturation, cocone


def build_presentation(
    d: Diagram, monoid_cocone: Cone, identifications: tuple = ()
) -> PresentedAction:
    """Presented action of a colimit: tagged states, action rules pushed
    through the colimit cocone, identifications along diagram arrows, then
    the given ``identifications`` of tagged terms.

    An event erased by the cocone whose action was undefined collapses the
    state to star (the free extension in pointed sets forces it)."""
    objs = list(d.shape.objects)
    monoid = monoid_cocone.apex
    generators, transitions, equations = [], [], []
    for i, o in enumerate(objs):
        space = d.on_objects[o]
        q = monoid_cocone.legs[o]
        generators.extend(tag(i, x) for x in space.states)
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
            equations.append(((tag(index[src], x), ()), STAR if y == STAR else (tag(index[dst], y), ())))
    equations.extend(identifications)
    return PresentedAction(monoid, tuple(generators), tuple(transitions), tuple(equations))


def colimit(
    d: Diagram, flag: Category = Category.FPCM, bound: int = 8, identifications: tuple = ()
) -> SpaceColimitResult:
    """Colimit by saturating the presentation of ``build_presentation``; ``identifications`` equate
    further tagged terms, such as the initial states of systems.  ``_colimit`` of a checked diagram."""
    refuse(diagram_problems(d, flag))
    return _colimit(d, flag, bound, identifications)


def _colimit(d: Diagram, flag: Category, bound: int, identifications: tuple) -> SpaceColimitResult:
    """``colimit``'s body: of its presentation's items, only the caller's ``identifications`` are checked."""
    monoid_cocone = fpcm_cat.colimit(d.map(lambda s: s.monoid, lambda m: m.monoid_part), flag)
    identifications = tuple(identifications)  # read twice: into the presentation and by the check
    p = build_presentation(d, monoid_cocone, identifications)
    _check_items(PresentedAction(p.monoid, (), (), identifications), bound)
    sat = _saturate(p, bound)
    legs = {o: StateSpaceMorphism(s, sat.space, monoid_cocone.legs[o], {x: sat.class_map[tag(i, x)] for x in s.states})
            for i, (o, s) in enumerate((o, d.on_objects[o]) for o in d.shape.objects)}
    return SpaceColimitResult(sat, Cone(sat.space, legs))


# ---------------------------------------------------------------------------
# Isomorphism testing (the CLI's iso-check)


def is_isomorphic(s1: StateSpace, s2: StateSpace) -> Optional[tuple[dict[str, str], dict[str, str]]]:
    """Event bijection preserving independence plus jointly equivariant state
    bijection, as (event_map, state_map), or None, at once for spaces of other
    sizes; two of one size are validated first.  ``fits`` gives
    ``fpcm_cat.search_isomorphism`` the first state bijection equivariant for the
    mapped events: once the sorted signatures (per state, the mapped events defined
    there) agree, ``assign`` propagates pending images one-to-one and star to star,
    then seeds the first unmapped state of ``s1`` with each free state of ``s2`` in turn."""
    if len(s1.states) != len(s2.states) or len(s1.monoid.events) != len(s2.monoid.events):
        return None
    if len(s1.monoid.events) > 8 or len(s1.states) > 12:
        raise SizeLimit("isomorphism search limited to 8 events and 12 states")
    refuse(validate_space(s1) + validate_space(s2), InvalidSpace)
    rows1, rows2 = ({x: {e: s.step(x, e) for e in s.monoid.events} for x in s.states} for s in (s1, s2))

    def fits(f: dict[str, str], tick) -> Optional[dict[str, str]]:
        def assign(phi: dict, inv: dict, todo: list) -> Optional[dict[str, str]]:
            while todo:
                x = todo.pop()
                tick(len(f))
                row1, row2 = rows1[x], rows2[phi[x]]
                for a, b in f.items():
                    x2, y2 = row1[a], row2[b]
                    if x2 not in phi and y2 not in inv:
                        phi[x2], inv[y2] = y2, x2
                        todo.append(x2)
                    elif phi.get(x2) != y2:
                        return None
            x = next((x for x in s1.states if x not in phi), None)
            if x is None:
                return {x: phi[x] for x in s1.states}
            tries = (assign({**phi, x: y}, {**inv, y: x}, [x]) for y in s2.states if y not in inv)
            return next((found for found in tries if found is not None), None)

        tick(len(rows1) * len(f))
        signatures = [sorted(tuple(r[e] != STAR for e in events) for r in rows.values())
                      for rows, events in ((rows1, f), (rows2, f.values()))]
        return assign({STAR: STAR}, {STAR: STAR}, []) if signatures[0] == signatures[1] else None

    return fpcm_cat.search_isomorphism(s1.monoid, s2.monoid, fits)
