"""Finite limits and colimits of trace monoids, in two flavours.

``Category.FPCM`` works with all basic homomorphisms; ``Category.FPCM_PAR``
restricts to independence-preserving ones.  A limit is the compatible
families of the objects' product, and a product the limit of a discrete
shape; both pair families componentwise in ``pointed_relation`` (the
commutativity relation T for FPCM, the partial independence relation R
for FPCM_PAR), by one fold.  Equalizers keep the generators two homs agree
on, coproducts are tagged disjoint unions, and coequalizers and colimits
(the objects' coproduct modulo the arrows' congruence) are closures.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Optional, Sequence

from .diagrams import Cone, Diagram, discrete, refuse
from .errors import (
    DuplicateEvent,
    MalformedDiagram,
    NotAMonoid,
    NotIndependencePreserving,
    NotParallel,
    SizeLimit,
    TraceError,
    UnknownEvent,
)
from .trace_core import (
    STAR,
    BasicHom,
    TraceMonoid,
    _invalid_pair,
    _ordered_monoid,
    compose,
    is_independence_preserving,
    make_hom,
    make_monoid,
    malformed_image,
)
from .value import Value


class Category(Enum):
    FPCM = "fpcm"
    FPCM_PAR = "fpcm-par"


TRIVIAL = make_monoid(())


# ---------------------------------------------------------------------------
# Products


def render_tuple(parts: Sequence[str]) -> str:
    return "(" + ",".join(parts) + ")"


PRODUCT_SIZE = 10_000  # elements of one product or limit: 6 factors of 3 (4 095) pass, 7 (16 383) do not


class PointedGrid:
    """The tuples of a product of pointed sets, indexed in mixed radix.

    Factor ``j`` contributes the axis ``axes[j]``: its names with ``*`` last.
    ``itertools.product(*axes)`` lists the tuples so that the one with axis
    indices ``(i_0, ..., i_{k-1})`` has index ``sum(i_j * strides[j])``.  The
    all-star tuple, the basepoint, has the last index, ``size``; the product's
    elements are the ``size`` tuples before it.  Products and limits, of
    monoids and of spaces, list their generators and states by ``matching``;
    a product is the limit of a discrete shape, whose tuples all match.
    """

    def __init__(self, factors: Sequence[Sequence[str]]):
        self.axes = tuple(tuple(f) + (STAR,) for f in factors)
        strides = []
        size = 1
        for axis in reversed(self.axes):
            strides.append(size)
            size *= len(axis)
        self.strides = tuple(reversed(strides))
        self.size = size - 1

    def matching(self, shape, maps, clash: type[TraceError], what: str) -> dict[str, tuple[str, ...]]:
        """Rendered name -> tuple for the elements, in index order, that agree
        along every arrow ``(name, src, dst)`` of ``shape``, whose objects are
        the factors: ``maps[name]`` sends component ``src`` to component
        ``dst``, and a component it lacks, star among them, to star.  Tuples
        grow one factor at a time, and an arrow is checked once both its ends
        are placed.  The first arrow from a placed factor into the new one
        fixes the new component, which is kept only if it lies on the axis.
        More than ``PRODUCT_SIZE`` of them raise ``SizeLimit``, after the walk
        (a discrete shape's before it).

        ``render_tuple`` is not injective once an axis holds names ``x`` and
        ``x + "," + ...``; a name rendered from two tuples of the whole grid
        raises ``clash``, checked with such names by the discrete walk."""
        index = {o: j for j, o in enumerate(shape.objects)}
        arrows = [(index[src], index[dst], maps[name]) for name, src, dst in shape.arrows]
        if not arrows and self.size > PRODUCT_SIZE:
            raise SizeLimit(f"a product of {self.size} {what}s is over the limit of {PRODUCT_SIZE}")
        tuples = [()]
        for j, axis in enumerate(self.axes):
            checks = [(s, d, f) for s, d, f in arrows if max(s, d) == j]
            into = next((c for c in checks if c[0] < j), None)
            if into:  # an arrow from a placed factor fixes component j
                s, _, f = into
                checks.remove(into)
                on_axis = set(axis)
                tuples = [t + (x,) for t in tuples if (x := f.get(t[s], STAR)) in on_axis]
            else:
                tuples = [t + (x,) for t in tuples for x in axis]
            if checks:
                tuples = [t for t in tuples if all(f.get(t[s], STAR) == t[d] for s, d, f in checks)]
        tuples.pop()  # the all-star basepoint, last in index order, always matches
        if len(tuples) > PRODUCT_SIZE:
            raise SizeLimit(f"a limit of {len(tuples)} {what}s is over the limit of {PRODUCT_SIZE}")
        names = {render_tuple(t): t for t in tuples}
        if arrows and any(y[:i] in on for on in map(set, self.axes) for y in on if "," in y
                          for i, c in enumerate(y) if c == ","):
            self.matching(discrete(len(self.axes)), {}, clash, what)
        elif len(names) < len(tuples):
            seen: dict = {}
            for t in tuples:
                name = render_tuple(t)
                if name in seen:
                    raise clash(f"product {what} name {name!r} renders both {seen[name]!r} and {t!r}")
                seen[name] = t
        return names

    def related_pairs(self, elements: dict[str, tuple[str, ...]], relations) -> tuple[tuple[str, str], ...]:
        """The pairs of ``elements``, as listed by ``matching``, related by
        ``relations[j]`` in every component ``j``: names in position order.
        Folded from the last factor to the first, each suffix code ``g % span``
        of a kept index ``g`` (the basepoint one, which ends each row) gets the
        ascending codes related to it and above it, each pair built once.  A
        code is an axis index times the stride plus a lower code; a partner's
        rows are filtered to the lower codes kept under it, unless all are, as
        on every level of a product."""
        names = tuple(elements)
        if len(names) < 2:
            return ()
        full = len(names) == self.size
        if full:
            kept = range(self.size + 1)
        else:
            offsets = [{x: i * s for i, x in enumerate(axis)} for axis, s in zip(self.axes, self.strides)]
            kept = [sum(map(dict.__getitem__, offsets, t)) for t in elements.values()] + [self.size]
        related, above = {0: [0]}, {0: []}  # suffix code -> ascending related codes, all and those above it
        levels = [j for j, axis in enumerate(self.axes) if len(axis) > 1]  # star alone changes no row
        for j in reversed(levels):
            axis, stride, rel = self.axes[j], self.strides[j], relations[j]
            if full:  # axis index -> the lower codes kept under it
                lower = dict.fromkeys(range(len(axis)), range(stride))
            else:
                lower = {}
                for u in sorted({g % (stride * len(axis)) for g in kept}):
                    lower.setdefault(u // stride, []).append(u % stride)
            # the codes a partner's rows keep: None, read whole, where every lower code is kept
            fit = {i: None if len(rs) == len(above) else set(rs) for i, rs in lower.items()}
            moves = {k: [(i * stride, related, fit[i]) for i in lower if (axis[k], axis[i]) in rel] for k in lower}
            # above k * stride + r: k with the rows above r, if x ~ x, then each greater partner with all rows
            steps = {k: [(dv, above if dv == k * stride else rows, f) for dv, rows, f in ms if dv >= k * stride]
                     for k, ms in moves.items()}
            above = _rows(steps, lower, stride)
            if j != levels[0]:
                related = _rows(moves, lower, stride)
        name_of = names if full else dict(zip(kept, names))
        return tuple([(a, name_of[v]) for a, g in zip(names, kept) for v in above[g][:-1]])


def _rows(steps, lower, stride: int) -> dict[int, list[int]]:
    """Code ``k * stride + r`` -> ``dv + w`` for each step ``(dv, rows, fit)``
    of ``steps[k]`` and each ``w`` of ``rows[r]`` in ``fit`` (all if None)."""
    return {k * stride + r: [dv + w for dv, rows, f in steps[k]
                             for w in (rows[r] if f is None else filter(f.__contains__, rows[r]))]
            for k, rs in lower.items() for r in rs}


class ProductResult(Value):
    def __init__(
        self, monoid: TraceMonoid, projections: tuple[BasicHom, ...], components: dict[str, tuple[str, ...]]
    ) -> None:
        self.monoid, self.projections = monoid, projections
        self.components = components  # generator name -> pointed tuple


def pointed_relation(m: TraceMonoid, flag: Category) -> frozenset[tuple[str, str]]:
    """The relation a product compares components by, on the events and
    star: star is related to everything and each independent pair both
    ways.  That is the partial independence relation R under FPCM_PAR; the
    commutativity relation T under FPCM holds the diagonal too."""
    rel = {(STAR, STAR)}
    for e in m.events:
        rel.update([(e, STAR), (STAR, e)])
    for a, b in m.independence:
        rel.update([(a, b), (b, a)])
    if flag is Category.FPCM:
        rel.update((e, e) for e in m.events)
    return frozenset(rel)


def _families(ms: list[TraceMonoid], shape, maps, flag: Category) -> ProductResult:
    """The compatible families of ``ms`` along ``shape``, their pairs and the component maps."""
    grid = PointedGrid([m.events for m in ms])
    families = grid.matching(shape, maps, DuplicateEvent, "generator")
    pairs = grid.related_pairs(families, [pointed_relation(m, flag) for m in ms])
    apex = TraceMonoid(tuple(families), frozenset(pairs))
    apex.__dict__["_pairs"] = pairs
    # a component map is valid by construction: independent generators have
    # components in the factor's pointed relation, which commute
    legs = tuple(BasicHom(apex, m, tuple(None if c[j] == STAR else c[j] for c in families.values()))
                 for j, m in enumerate(ms))
    return ProductResult(apex, legs, families)


def product(ms: Sequence[TraceMonoid], flag: Category = Category.FPCM) -> ProductResult:
    """Product of a finite family: the limit of the discrete shape on it,
    whose legs are the projections.  Two generators are independent when
    they are distinct and every pair of components lies in the factor's
    ``pointed_relation``.  The empty product is the trivial monoid, and one
    of more than ``PRODUCT_SIZE`` generators raises ``SizeLimit``."""
    ms = list(ms)
    return _families(ms, discrete(len(ms)), {}, flag)


def tupling(
    homs: Sequence[BasicHom], prod: ProductResult, source: Optional[TraceMonoid] = None
) -> BasicHom:
    """Mediating morphism into a product from a common source.

    ``source`` is only needed for the empty family (mediating into the
    terminal monoid)."""
    if not homs:
        if source is None:
            raise MalformedDiagram("tupling of an empty family needs an explicit source")
        return make_hom(source, prod.monoid, {e: None for e in source.events})
    _readable(*homs)
    src = homs[0].source
    image = {}
    for e in src.events:
        combo = tuple(STAR if h(e) is None else h(e) for h in homs)
        image[e] = None if all(x == STAR for x in combo) else render_tuple(combo)
    return make_hom(src, prod.monoid, image)


# ---------------------------------------------------------------------------
# Equalizers


def _readable(*homs: BasicHom) -> None:
    """Raise ``UnknownEvent``, as ``make_hom`` does, for an image that cannot be read."""
    for bad in filter(None, map(malformed_image, homs)):
        raise UnknownEvent(bad)


def equalizer(f: BasicHom, g: BasicHom, flag: Category = Category.FPCM) -> tuple[TraceMonoid, BasicHom]:
    """The events that ``f`` and ``g`` agree on, with the independent pairs
    among them; the inclusion is valid by construction."""
    _readable(f, g)
    if f.source != g.source or f.target != g.target:
        raise NotParallel("equalizer needs a parallel pair")
    if flag is Category.FPCM_PAR:
        for h in (f, g):
            if not is_independence_preserving(h):
                raise NotIndependencePreserving("equalizer in FPCM_PAR needs independence-preserving homs")
    src = f.source
    kept = [i for i, (a, b) in enumerate(zip(f.image, g.image)) if a == b]
    new = {i: k for k, i in enumerate(kept)}
    sub = _ordered_monoid(tuple(src.events[i] for i in new),
                          [(new[i], new[j]) for i, j in src._pair_positions if i in new and j in new])
    return sub, BasicHom(sub, src, sub.events)


# ---------------------------------------------------------------------------
# Coproducts


def tag(index: int, name: str) -> str:
    return f"{index}:{name}"


class CoproductResult(Value):
    def __init__(self, monoid: TraceMonoid, injections: tuple[BasicHom, ...]) -> None:
        self.monoid, self.injections = monoid, injections


def coproduct(ms: Sequence[TraceMonoid], flag: Category = Category.FPCM) -> CoproductResult:
    """Tagged disjoint union; serves both categories."""
    ms = list(ms)
    offsets = list(itertools.accumulate((len(m.events) for m in ms), initial=0))
    events = tuple(tag(j, e) for j, m in enumerate(ms) for e in m.events)
    monoid = _ordered_monoid(events, [(k + i, k + j) for m, k in zip(ms, offsets) for i, j in m._pair_positions])
    # an injection is valid by construction: it sends each pair of its summand to a pair
    injections = tuple(BasicHom(m, monoid, events[k : k + len(m.events)]) for m, k in zip(ms, offsets))
    return CoproductResult(monoid, injections)


def cotupling(homs: Sequence[BasicHom], coprod: CoproductResult) -> BasicHom:
    """Mediating morphism out of a coproduct into a common target."""
    if not homs:
        raise MalformedDiagram("cotupling needs the target; give at least one hom")
    tgt = homs[0].target
    image = {}
    for j, h in enumerate(homs):
        for e in h.source.events:
            image[tag(j, e)] = h(e)
    return make_hom(coprod.monoid, tgt, image)


# ---------------------------------------------------------------------------
# Coequalizers


def union_find(parent: dict, keys: dict):
    """``find`` and ``union`` over the forest ``parent`` (a root is its own
    parent), with path halving.  ``union`` joins two classes under the root
    with the smaller ``keys`` entry, so each root is the least member of its
    class, and says whether the classes were distinct.  Both dicts stay the
    caller's: elements added to them later take part."""

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y) -> bool:
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        if keys[rx] < keys[ry]:
            rx, ry = ry, rx
        parent[rx] = ry
        return True

    return find, union


class CoequalizerResult(Value):
    def __init__(self, monoid: TraceMonoid, quotient: BasicHom, classes: dict[str, Optional[str]]) -> None:
        self.monoid, self.quotient = monoid, quotient
        self.classes = classes  # target event -> class name, None if killed


def _closure(target: TraceMonoid, equations, flag: Category) -> CoequalizerResult:
    """``target`` modulo the congruence generated by ``equations``, pairs of
    target events or None for the empty trace.  A class equated with the
    empty trace is removed with its independence pairs.  Under FPCM_PAR a
    class holding an independent pair is removed too; a removal only grows
    the identity class, so one pass over the pairs settles it.

    The union-find is keyed by target position with None first, so each
    class is rooted at, and named by, its first event in target order, and
    the identity class at None.  Two classes are independent when two of
    their members are.  The quotient is valid by construction: independent
    events go to independent classes, to one class, or to the empty trace."""
    elements = (None, *target.events)
    find, union = union_find({x: x for x in elements}, {x: k for k, x in enumerate(elements)})
    for a, b in equations:
        union(a, b)
    if flag is Category.FPCM_PAR:
        for a, b in target.pairs():
            if find(a) == find(b):
                union(a, None)
    classes = {e: find(e) for e in target.events}
    gens = [e for e, c in classes.items() if c == e]
    number = {c: k for k, c in enumerate(gens)}
    code = [number.get(c) for c in classes.values()]  # class index, None if removed
    ends = [(code[i], code[j]) for i, j in target._pair_positions]
    pairs = {(min(p), max(p)) for p in ends if None not in p and p[0] != p[1]}
    monoid = _ordered_monoid(tuple(gens), sorted(pairs))
    quotient = BasicHom(target, monoid, tuple(classes.values()))
    return CoequalizerResult(monoid, quotient, classes)


def coequalizer(f: BasicHom, g: BasicHom, flag: Category = Category.FPCM) -> CoequalizerResult:
    """Target generators modulo ``f(e) ~ g(e)``; in FPCM_PAR, followed by the
    smallest congruence killing independent target pairs with equal images."""
    _readable(f, g)
    if f.source != g.source or f.target != g.target:
        raise NotParallel("coequalizer needs a parallel pair")
    if flag is Category.FPCM_PAR and not (is_independence_preserving(f) and is_independence_preserving(g)):
        raise NotIndependencePreserving("coequalizer in FPCM_PAR needs independence-preserving homs")
    return _closure(f.target, [(f(e), g(e)) for e in f.source.events], flag)


# ---------------------------------------------------------------------------
# Limits and colimits of finite diagrams


def diagram_problems(d: Diagram, flag: Optional[Category] = None) -> list[str]:
    """A monoid diagram's problems: per arrow, an image that cannot be read,
    or else a collapsed independent pair under FPCM_PAR and an independent
    pair sent to a non-commuting one."""

    def check(h: BasicHom) -> list[str]:
        bad = malformed_image(h)
        if bad is not None:
            return [bad]
        out = []
        if flag is Category.FPCM_PAR and not is_independence_preserving(h):
            out.append("not independence-preserving")
        pair = _invalid_pair(h)
        if pair is not None:
            out.append(f"independent pair {pair!r} maps to a non-commuting pair")
        return out

    return d.problems("monoid", check)


def limit(d: Diagram, flag: Category = Category.FPCM) -> Cone:
    """The limit as the compatible families (Mac Lane, Categories for the
    Working Mathematician, V.2): the generators of the objects' product, in
    its order and with its names, whose components agree along every arrow,
    ``h(x_src) == x_dst`` with star for the empty trace, and the product's
    pairs among them; the legs are the component maps.  More than
    ``PRODUCT_SIZE`` families raise ``SizeLimit`` before any pair."""
    refuse(diagram_problems(d, flag))
    maps = {a: {e: v for e, v in zip(h.source.events, h.image) if v is not None} for a, h in d.on_arrows.items()}
    res = _families([d.on_objects[o] for o in d.shape.objects], d.shape, maps, flag)
    return Cone(res.monoid, dict(zip(d.shape.objects, res.projections)))


def colimit(d: Diagram, flag: Category = Category.FPCM) -> Cone:
    """The dual of the compatible families: the coproduct of the objects
    modulo the congruence generated by ``tag(src, e) ~ tag(dst, h(e))``
    along every arrow ``h``, the identity class standing for an empty
    image.  The legs are the injections followed by the quotient."""
    refuse(diagram_problems(d, flag))
    objs = list(d.shape.objects)
    cop = coproduct([d.on_objects[o] for o in objs], flag)
    index = {o: j for j, o in enumerate(objs)}
    equations = [
        (tag(index[src], e), None if v is None else tag(index[dst], v))
        for name, src, dst in sorted(d.shape.arrows)
        for e, v in zip(d.on_objects[src].events, d.on_arrows[name].image)
    ]
    res = _closure(cop.monoid, equations, flag)
    return Cone(res.monoid, {o: compose(res.quotient, inj) for o, inj in zip(objs, cop.injections)})


# ---------------------------------------------------------------------------
# Right adjoint to the inclusion into Mon


class RightAdjointResult(Value):
    def __init__(self, monoid: TraceMonoid, identity: str, counit: dict[str, str]) -> None:
        self.monoid, self.identity = monoid, identity
        self.counit = counit  # generator -> carrier element (here the identity map)


def right_adjoint_R(elements: Sequence[str], table: Sequence[Sequence[str]]) -> RightAdjointResult:
    """Trace monoid on the non-identity elements, independent when they are
    distinct and commute in the multiplication table."""
    try:
        rows = list(table)
        if isinstance(elements, str) or any(isinstance(row, str) for row in rows):
            raise NotAMonoid("the carrier and each row of the table must be sequences of names, not a str")
        elements, table = list(elements), [list(row) for row in rows]
    except TypeError:
        raise NotAMonoid("the carrier, the table and each of its rows must be sequences") from None
    n = len(elements)
    if n > 64:
        raise SizeLimit("multiplication tables are limited to 64 elements")
    bad = [x for x in elements if not isinstance(x, str)]
    if bad:
        raise NotAMonoid(f"carrier element {bad[0]!r} is not a name")
    if len(set(elements)) != n:
        raise NotAMonoid("duplicate carrier elements")
    idx = {x: i for i, x in enumerate(elements)}
    if len(table) != n or any(len(row) != n for row in table):
        raise NotAMonoid("table shape does not match the carrier")
    for row in table:
        for x in row:
            if not isinstance(x, str) or x not in idx:
                raise NotAMonoid(f"table entry {x!r} outside the carrier")
    def mul(x, y):
        return table[idx[x]][idx[y]]
    identity = None
    for e in elements:
        if all(mul(e, x) == x == mul(x, e) for x in elements):
            identity = e
            break
    if identity is None:
        raise NotAMonoid("no identity element")
    for x in elements:
        for y in elements:
            for z in elements:
                if mul(mul(x, y), z) != mul(x, mul(y, z)):
                    raise NotAMonoid(f"associativity fails at ({x!r}, {y!r}, {z!r})")
    gens = [x for x in elements if x != identity]
    pairs = [
        (a, b)
        for i, a in enumerate(gens)
        for b in gens[i + 1 :]
        if mul(a, b) == mul(b, a)
    ]
    monoid = make_monoid(gens, pairs)
    return RightAdjointResult(monoid, identity, {g: g for g in gens})


# ---------------------------------------------------------------------------
# Isomorphism (one search, shared with state spaces)


SEARCH_NODES = 500_000  # event prefixes, and states read along one mapped event, per search


def search_isomorphism(m1: TraceMonoid, m2: TraceMonoid, fits=None) -> Optional[tuple[dict[str, str], object]]:
    """The first event bijection ``f`` in ``itertools.permutations(m2.events)``
    order that preserves independence both ways and that ``fits`` accepts, as
    ``(f, fits(f, tick))``; else None.  Images are chosen one event at a time,
    and a prefix is cut when it breaks independence or ``fits`` answers None
    for it, which ``fits`` must do only when no answer extends it.  ``tick(n)``
    spends ``n`` of the ``SEARCH_NODES`` that the prefixes and ``fits`` share;
    without ``fits``, 8 events make at most 109 601 prefixes, well within."""
    def degrees(m):
        return sorted(sum(1 for p in m.independence if e in p) for e in m.events)
    if len(m1.events) != len(m2.events) or len(m1.independence) != len(m2.independence) or degrees(m1) != degrees(m2):
        return None
    left = [SEARCH_NODES]

    def tick(nodes: int = 1) -> None:
        left[0] -= nodes
        if left[0] < 0:
            raise SizeLimit(f"isomorphism search gave up after {SEARCH_NODES} nodes")

    def extend(f: dict[str, str]):
        tick()
        found = fits(f, tick) if fits else f
        if found is None or len(f) == len(m1.events):
            return None if found is None else (f, found)
        a = m1.events[len(f)]
        grown = ({**f, a: b} for b in m2.events
                 if b not in f.values() and all(m1.independent(a, x) == m2.independent(b, y) for x, y in f.items()))
        return next(filter(None, map(extend, grown)), None)

    return extend({})


def monoids_isomorphic(m1: TraceMonoid, m2: TraceMonoid) -> Optional[dict[str, str]]:
    """Event bijection preserving independence both ways, or None."""
    if len(m1.events) > 8 and (len(m1.events), len(m1.independence)) == (len(m2.events), len(m2.independence)):
        raise SizeLimit("isomorphism search is limited to 8 events")
    found = search_isomorphism(m1, m2)
    return found and found[0]
