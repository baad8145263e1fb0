"""Trace monoids, canonical trace representatives and basic homomorphisms.

A trace monoid is the quotient of the free monoid over a finite alphabet by
the commutations of adjacent independent letters.  Traces are represented by
the lexicographically least word of their class, with "lexicographic" taken
with respect to the declared alphabet order.  Basic homomorphisms send each
generator to a generator of the target or to the empty trace (encoded as
``None``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    DuplicateEvent,
    InvalidHom,
    MalformedRelation,
    MonoidMismatch,
    ReflexivePair,
    UnknownEvent,
)

# Reserved sentinel used throughout for the basepoint / "undefined" element of
# pointed sets.  Never a legal event or state name.
STAR = "*"


@dataclass(frozen=True)
class TraceMonoid:
    """Finite alphabet with an irreflexive symmetric independence relation.

    ``events`` is kept in declaration order; that order is the total order
    used for canonical forms and for deterministic output everywhere else.
    ``independence`` stores each unordered pair once, ordered by alphabet
    position.

    The alphabet is indexed once: the position map on construction, the
    sorted pair list by ``make_monoid`` and the ``fpcm_cat`` constructions
    (on first use for a monoid built directly), the dependence tables on
    first use.  These caches are plain instance attributes, not dataclass
    fields, so they take no part in ``==``, ``hash`` or ``repr``.
    """

    events: tuple[str, ...]
    independence: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_position", {e: i for i, e in enumerate(self.events)})

    def _positions_of(self, pair: tuple[str, str]) -> tuple[int, int]:
        try:
            return self._position[pair[0]], self._position[pair[1]]
        except KeyError as exc:
            raise UnknownEvent(f"independence pair mentions unknown event {exc.args[0]!r}") from None

    @cached_property
    def _pair_positions(self) -> tuple[tuple[int, int], ...]:
        """The independent pairs as position pairs, in alphabet order."""
        return tuple(sorted(map(self._positions_of, self.independence)))

    @cached_property
    def _pairs(self) -> tuple[tuple[str, str], ...]:
        events = self.events
        return tuple((events[i], events[j]) for i, j in self._pair_positions)

    @cached_property
    def _dependents(self) -> tuple[tuple[int, ...], ...]:
        """Per letter position, the positions of the letters that depend on it."""
        k = len(self.events)
        indep = [set() for _ in range(k)]
        for i, j in self._pair_positions:
            indep[i].add(j)
            indep[j].add(i)
        return tuple(tuple(d for d in range(k) if d not in indep[c]) for c in range(k))

    @cached_property
    def _cones(self) -> tuple[dict[str, str], tuple[dict[int, int], ...], dict[int, None]]:
        """The tables of :func:`equivalent`, for ``k`` letters: each event's
        code character ``chr(position)``; per letter position, a
        ``str.translate`` table that sends the letter to ``chr(k)`` and its
        other dependents to ``chr(k + 1)``; and one table that erases every
        code below ``k``.  The per-letter tables hold one entry per dependent,
        so the tables take space linear in the size of ``_dependents``."""
        k = len(self.events)
        codes = {e: chr(i) for i, e in enumerate(self.events)}
        cones = tuple({**dict.fromkeys(ds, k + 1), c: k} for c, ds in enumerate(self._dependents))
        return codes, cones, dict.fromkeys(range(k))

    @cached_property
    def _insertion(self) -> dict[str, tuple[str, str]]:
        """The table of :func:`normal_form`: per code character (``_cones``),
        the string of the codes independent of it and the string of the codes
        below it."""
        codes = "".join(map(chr, range(len(self.events))))
        return {
            codes[c]: (codes.translate(dict.fromkeys(ds)), codes[:c])
            for c, ds in enumerate(self._dependents)
        }

    def index(self, e: str) -> int:
        try:
            return self._position[e]
        except (KeyError, TypeError):
            raise UnknownEvent(f"unknown event {e!r}") from None

    def independent(self, a: str, b: str) -> bool:
        return (a, b) in self.independence or (b, a) in self.independence

    def pairs(self) -> list[tuple[str, str]]:
        """Unordered independent pairs in deterministic (alphabet) order."""
        return list(self._pairs)

    def __repr__(self) -> str:
        return f"TraceMonoid({list(self.events)!r}, {list(self._pairs)!r})"


def make_monoid(events: Sequence[str], independence: Iterable[Sequence[str]] = ()) -> TraceMonoid:
    events = tuple(events)
    bad = [e for e in events if not isinstance(e, str)]
    if bad:
        raise MalformedRelation(f"event {bad[0]!r} is not a name")
    if len(set(events)) != len(events):
        raise DuplicateEvent(f"duplicate event names in {list(events)}")
    if STAR in events:
        raise DuplicateEvent(f"{STAR!r} is reserved and cannot be an event name")
    pos = {e: i for i, e in enumerate(events)}
    pairs = set()
    for pair in independence:
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise MalformedRelation(f"independence entry {pair!r} is not a pair of events") from None
        for x in (a, b):
            if not isinstance(x, str) or x not in pos:
                raise UnknownEvent(f"independence pair mentions unknown event {x!r}")
        if a == b:
            raise ReflexivePair(f"reflexive independence pair ({a!r}, {b!r})")
        i, j = pos[a], pos[b]
        pairs.add((i, j) if i < j else (j, i))
    return _ordered_monoid(events, sorted(pairs))


def _ordered_monoid(events: tuple[str, ...], positions: Sequence[tuple[int, int]]) -> TraceMonoid:
    """The monoid on ``events`` whose independent pairs are ``positions``, sorted
    position pairs ``i < j`` without duplicates, preset as its caches; not checked."""
    pairs = tuple([(events[i], events[j]) for i, j in positions])
    m = TraceMonoid(events, frozenset(pairs))
    m.__dict__.update(_pair_positions=tuple(positions), _pairs=pairs)
    return m


def free_monoid(events: Sequence[str]) -> TraceMonoid:
    return make_monoid(events, ())


def free_commutative_monoid(events: Sequence[str]) -> TraceMonoid:
    events = tuple(events)
    pairs = [(a, b) for i, a in enumerate(events) for b in events[i + 1 :]]
    return make_monoid(events, pairs)


def check_word(letters: Sequence[str], m: TraceMonoid) -> tuple[str, ...]:
    letters = tuple(letters)
    _encode(letters, m)
    return letters


def _unknown_letter(letters: Sequence[str], m: TraceMonoid) -> UnknownEvent:
    """The error for the first letter of ``letters`` that is not an event of
    ``m``, an unhashable one included; the caller has found that there is one."""
    x = next(x for x in letters if not isinstance(x, str) or x not in m._position)
    return UnknownEvent(f"letter {x!r} not in alphabet {list(m.events)}")


_TAIL = 64  # normal_form inserts letters into a tail of fewer than 2 * _TAIL of them
_PULLS = 2  # settled chunks that normal_form takes back into the tail for one letter


def normal_form(letters: Sequence[str], m: TraceMonoid) -> tuple[str, ...]:
    """Lexicographically least word equivalent to ``letters``.

    The normal form of Anisimov and Knuth (Inhomogeneous sorting, IJCIS 8,
    1979; see also Diekert and Rozenberg (eds.), The Book of Traces, 1995),
    built from left to right: each letter is inserted into the normal form
    of the letters before it by the rule of :func:`extend_normal_form`,
    over the word's string of code characters.  One C-level ``str.rstrip``
    of the codes independent of the letter finds the last letter that
    depends on it; one ``lstrip`` of the lower codes then finds the first
    later letter with a greater code, which the letter goes before.

    Insertions happen only in a tail of fewer than ``2 * _TAIL`` letters;
    the letters that leave it are settled in chunks of ``_TAIL``.  A letter
    that is independent of the whole tail may belong further left, so the
    last settled chunk is pulled back into the tail and the letter tried
    again, at most ``_PULLS`` times; no insertion copies more than
    O(``_TAIL``) characters.  A letter independent of all that too sends
    the whole word to :func:`_heap_normal_form`, as introsort falls back to
    heap sort (Musser, Software: Practice and Experience 27(8), 1997).  A
    word of n letters costs O(n * ``_TAIL``) in C and O(n) Python steps when
    the fallback does not run, and at most O(n * |alphabet| + n * log
    |alphabet|) more when it does.
    """
    s = _encode(letters, m)
    table = m._insertion
    limit = 2 * _TAIL
    head = []  # settled chunks of _TAIL letters
    tail = ""
    for ch in s:
        independent, lower = table[ch]
        t = tail.rstrip(independent)
        if t is not tail:  # a letter at the end of the tail is independent of ch
            if not t and head:  # so is the whole tail: take settled chunks back
                for _ in range(_PULLS):
                    tail = head.pop() + tail
                    t = tail.rstrip(independent)
                    if t or not head:
                        break
                else:
                    return _heap_normal_form(s, m)
            r = tail[len(t) :].lstrip(lower)
            if r:
                tail = tail[: -len(r)] + ch + r
            else:
                tail += ch
        else:
            tail += ch
        while len(tail) >= limit:
            head.append(tail[:_TAIL])
            tail = tail[_TAIL:]
    head.append(tail)
    events = m.events
    return tuple([events[ord(c)] for c in "".join(head)])


def _heap_normal_form(s: str, m: TraceMonoid) -> tuple[str, ...]:
    """:func:`normal_form` of the word with code string ``s``, by the
    lexicographic sort of Anisimov and Knuth: a topological sort of the
    word's dependence graph that always emits the least available letter.
    Each position gets an edge from the previous occurrence of its own
    letter, kept in ``nxt``, and from the last earlier occurrence of every
    other dependent letter that comes after that one (earlier ones are
    implied through the previous occurrence), kept in ``cross``.  Kahn's
    algorithm then pops letter codes from a min-heap; at most one occurrence
    of each letter is available at a time, so the heap holds at most one
    entry per letter.  Cost O(n * |alphabet| + n * log |alphabet|) for a
    word of n letters.
    """
    events = m.events
    dependents = m._dependents
    word = list(map(ord, s))
    n = len(word)
    last = [-1] * len(events)  # letter code -> its last position read so far
    at = [0] * len(events)  # letter code -> its available position
    nxt = [0] * n  # position -> the next position of its letter; 0 for none
    cross = {}  # position -> the later positions of other letters that wait for it
    indeg = [0] * n
    heap = []
    for j, c in enumerate(word):
        p = last[c]
        k = 0
        if p >= 0:
            nxt[p] = j
            k = 1
        for d in dependents[c]:
            i = last[d]
            if i > p:
                if i in cross:
                    cross[i].append(j)
                else:
                    cross[i] = [j]
                k += 1
        if k:
            indeg[j] = k
        else:
            at[c] = j
            heap.append(c)
        last[c] = j
    heapify(heap)
    out = []
    while heap:
        c = heappop(heap)
        out.append(events[c])
        i = at[c]
        j = nxt[i]
        if j:
            indeg[j] -= 1
            if not indeg[j]:
                at[c] = j
                heappush(heap, c)
        for j in cross.get(i, ()):
            indeg[j] -= 1
            if not indeg[j]:
                d = word[j]
                at[d] = j
                heappush(heap, d)
    return tuple(out)


def extend_normal_form(u: tuple[str, ...], e: str, m: TraceMonoid) -> tuple[str, ...]:
    """``normal_form(u + (e,), m)`` for a word ``u`` that is already a normal
    form, by the insertion rule of :func:`normal_form` over the code string
    of ``e`` followed by ``u``.

    Precondition: ``u == normal_form(u, m)``; it is not checked, but ``e``
    and then the letters of ``u`` are.  The new letter cannot move left of
    the last letter of ``u`` that depends on it, say at position ``k - 1``.
    Deleting that ``e`` from the normal form of ``u.e`` leaves a word with
    no Anisimov-Knuth factor, so it is ``u`` itself: the result is ``u``
    with ``e`` inserted at some position ``>= k``.  Of those, the least word
    puts ``e`` before the first letter of ``u[k:]`` whose code is greater
    than that of ``e``, or at the end if there is none.
    """
    s = _encode((e, *u), m)
    independent, lower = m._insertion[s[0]]
    t = s.rstrip(independent)  # stops at s[0] at the latest: e depends on itself
    j = len(s) - 1 - len(s[len(t) :].lstrip(lower))
    return (*u[:j], e, *u[j:])


@dataclass(frozen=True)
class Trace:
    """A trace, held by its canonical (lex-least) representative.

    Build traces through :func:`normalize` or :func:`concat`; the constructor
    trusts that ``letters`` is already canonical.
    """

    monoid: TraceMonoid
    letters: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.letters)

    def __repr__(self) -> str:
        return f"Trace[{''.join(self.letters) or '1'}]"


def normalize(letters: Sequence[str], m: TraceMonoid) -> Trace:
    return Trace(m, normal_form(letters, m))


def empty_trace(m: TraceMonoid) -> Trace:
    return Trace(m, ())


def _encode(letters: Sequence[str], m: TraceMonoid) -> str:
    """The word as a string of its letters' code characters."""
    codes = m._cones[0]
    try:
        return "".join(map(codes.__getitem__, letters))
    except (KeyError, TypeError):
        raise _unknown_letter(letters, m) from None


def equivalent(w1: Sequence[str], w2: Sequence[str], m: TraceMonoid) -> bool:
    """Whether two words are the same trace, decided without normal forms.

    The projection lemma (Cori and Perrin, RAIRO ITA 19, 1985; Diekert and
    Rozenberg (eds.), The Book of Traces, 1995, ch. 1), in the form of one
    dependence cone per letter: ``w1 ~ w2`` iff, for every letter ``a``,
    their projections onto ``D(a)``, the letters that depend on ``a`` (``a``
    included), are equal, where ``a`` is kept distinct and every other
    dependent becomes one marker.  Equal projections count ``a`` alike, so
    the words are then permutations of each other; a letter in only one of
    them is caught by comparing their letter sets, and a letter in neither
    has two empty projections.

    Only if: swapping two adjacent independent letters changes no
    projection, since if both lie in ``D(a)``, neither is ``a`` (each
    depends on ``a``), so both are markers.  If, by induction on the length:
    let ``x`` be the first letter of ``w1``.  Its own projection of ``w1``
    starts with ``x``, so the one of ``w2`` does too, and every letter of
    ``w2`` before its first ``x`` is independent of ``x``: ``w2 ~ x.v``
    where ``v`` is ``w2`` without that ``x``.  Deleting the first ``x`` of
    both words keeps every projection equal: in a cone of ``a != x`` that
    holds ``x``, no ``a`` precedes that ``x`` in either word, so its marker
    lies in the leading run of markers of both projections.  So
    ``w1[1:] ~ v`` and ``w1 ~ x.v ~ w2``.

    Each word is encoded once as a string of code characters; each
    projection is two C-level ``str.translate`` passes over it, with the
    tables of ``TraceMonoid._cones``.
    """
    s1, s2 = _encode(w1, m), _encode(w2, m)
    if s1 == s2:
        return True
    letters = set(s1)
    if letters != set(s2):
        return False
    _, cones, erase = m._cones
    for c in letters:
        cone = cones[ord(c)]
        if s1.translate(cone).translate(erase) != s2.translate(cone).translate(erase):
            return False
    return True


def concat(t1: Trace, t2: Trace) -> Trace:
    if t1.monoid != t2.monoid:
        raise MonoidMismatch("cannot concatenate traces over different monoids")
    return Trace(t1.monoid, normal_form(t1.letters + t2.letters, t1.monoid))


@dataclass(frozen=True)
class BasicHom:
    """Generator-level homomorphism; ``image`` is aligned with source events.

    ``None`` encodes the empty trace.  Validity (well-definedness on the
    quotient): every independent source pair must land on a commuting pair of
    the target, i.e. one image empty, or equal images, or independent images.
    """

    source: TraceMonoid
    target: TraceMonoid
    image: tuple[Optional[str], ...]

    def __call__(self, e: str) -> Optional[str]:
        try:
            return self.image[self.source._position[e]]
        except (KeyError, TypeError):
            raise UnknownEvent(f"unknown event {e!r}") from None
        except IndexError:
            raise InvalidHom(f"no image for event {e!r}: image has {len(self.image)} entries") from None

    @property
    def mapping(self) -> dict[str, Optional[str]]:
        return dict(zip(self.source.events, self.image))

    def __repr__(self) -> str:
        body = ", ".join(f"{e}->{v if v is not None else '1'}" for e, v in zip(self.source.events, self.image))
        return f"BasicHom({body})"


def make_hom(
    source: TraceMonoid, target: TraceMonoid, image: Mapping[str, Optional[str]]
) -> BasicHom:
    for e in image:
        if e not in source._position:
            raise UnknownEvent(f"image defined on unknown event {e!r}")
    for e in source.events:
        if e not in image:
            raise UnknownEvent(f"image missing for event {e!r}")
    h = BasicHom(source, target, tuple(image[e] for e in source.events))
    bad = malformed_image(h)
    if bad is not None:
        raise UnknownEvent(bad)
    bad = _invalid_pair(h)
    if bad is not None:
        a, b = bad
        raise InvalidHom(
            f"independent pair ({a!r}, {b!r}) maps to non-commuting pair "
            f"({h(a)!r}, {h(b)!r})"
        )
    return h


def _invalid_pair(h: BasicHom) -> Optional[tuple[str, str]]:
    """The first independent source pair, in alphabet order, whose images do
    not commute; images are read by position."""
    image = h.image
    independence = h.target.independence
    for i, j in h.source._pair_positions:
        fa, fb = image[i], image[j]
        if fa is None or fb is None or fa == fb:
            continue
        if (fa, fb) not in independence and (fb, fa) not in independence:
            events = h.source.events
            return (events[i], events[j])
    return None


def malformed_image(h: BasicHom) -> Optional[str]:
    """Why ``h.image`` cannot be read against its endpoints: a length other
    than the source's, or a value outside the target; None when it can."""
    if len(h.image) != len(h.source.events):
        return f"image has {len(h.image)} entries for {len(h.source.events)} source events"
    for e, v in zip(h.source.events, h.image):
        if v is not None and (not isinstance(v, str) or v not in h.target._position):
            return f"image of {e!r} is unknown target event {v!r}"
    return None


def identity_hom(m: TraceMonoid) -> BasicHom:
    return BasicHom(m, m, tuple(m.events))


def apply(h: BasicHom, t: Trace) -> Trace:
    if t.monoid != h.source:
        raise MonoidMismatch("trace is not over the homomorphism's source")
    return apply_word(h, t.letters)


def apply_word(h: BasicHom, letters: Sequence[str]) -> Trace:
    """The trace of the word ``letters`` under ``h``: one normal form, of the
    letter-wise image in the target.

    Precondition: ``h`` is a homomorphism, as ``make_hom`` and every
    ``fpcm_cat`` construction guarantee; then equivalent words have
    equivalent images, and the result is ``apply(h, normalize(letters,
    h.source))`` without the source's normal form.
    """
    position = h.source._position
    image = h.image
    try:
        images = [image[position[x]] for x in letters]
    except (KeyError, TypeError):
        raise _unknown_letter(letters, h.source) from None
    except IndexError:
        raise InvalidHom(malformed_image(h)) from None
    return Trace(h.target, normal_form([x for x in images if x is not None], h.target))


def is_independence_preserving(h: BasicHom) -> bool:
    image = h.image
    if len(image) < len(h.source.events):
        raise InvalidHom(f"image has {len(image)} entries for {len(h.source.events)} source events")
    for i, j in h.source._pair_positions:
        fa = image[i]
        if fa is not None and fa == image[j]:
            return False
    return True


def compose(h2: BasicHom, h1: BasicHom) -> BasicHom:
    """h2 after h1; the empty image is absorbing."""
    if h1.target != h2.source:
        raise MonoidMismatch("composition endpoints do not match")
    values = tuple(None if v is None else h2(v) for v in h1.image)
    return BasicHom(h1.source, h2.target, values)
