import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from asyntrace.errors import (
    DuplicateEvent,
    InvalidHom,
    MalformedRelation,
    MonoidMismatch,
    ReflexivePair,
    UnknownEvent,
)
from asyntrace.trace_core import (
    BasicHom,
    TraceMonoid,
    apply,
    apply_word,
    compose,
    concat,
    equivalent,
    extend_normal_form,
    free_commutative_monoid,
    free_monoid,
    identity_hom,
    is_independence_preserving,
    make_hom,
    make_monoid,
    normal_form,
    normalize,
)

from asyntrace import trace_core

import oracles

MUTEX = make_monoid(
    "abcde", [("a", "e"), ("c", "e"), ("d", "e"), ("b", "c"), ("c", "d")]
)


def small_monoid(alphabets=("a", "ab", "abc", "abcd")):
    alphabets = st.sampled_from(alphabets)

    def build(events):
        pairs = list(itertools.combinations(events, 2))
        return st.builds(
            lambda chosen: make_monoid(events, chosen),
            st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]),
        )

    return alphabets.flatmap(build)


def word_over(m):
    return st.lists(st.sampled_from(list(m.events)), max_size=7)


monoid_and_word = small_monoid().flatmap(
    lambda m: st.tuples(st.just(m), word_over(m))
)
monoid_and_two_words = small_monoid().flatmap(
    lambda m: st.tuples(st.just(m), word_over(m), word_over(m))
)


monoid_and_long_word = small_monoid(["abcdefghij"[:k] for k in range(1, 11)]).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(st.sampled_from(m.events), max_size=60))
)



@st.composite
def monoid_and_canonical_word(draw):
    """A monoid of at most 8 letters, declared in a random order, and the
    normal form of a word of at most 30 letters over it."""
    events = draw(st.permutations("abcdefgh"[: draw(st.integers(1, 8))]))
    pairs = list(itertools.combinations(events, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    m = make_monoid(events, chosen)
    word = draw(st.lists(st.sampled_from(events), max_size=30))
    return m, normal_form(word, m)


@st.composite
def monoid_and_word_past_the_tail(draw):
    """A monoid of at most 8 letters, declared in a random order, and a word
    of up to 400 letters over it, long enough to settle letters out of
    ``normal_form``'s tail of fewer than ``2 * _TAIL`` of them.  Half the
    words end in a run of up to 320 letters independent of a letter ``x``,
    then ``x``: the run reaches past the tail, so ``x`` takes settled chunks
    back into it, 1 or 2 of them, or more, which is the fallback."""
    events = draw(st.permutations("abcdefgh"[: draw(st.integers(1, 8))]))
    pairs = list(itertools.combinations(events, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    m = make_monoid(events, chosen)
    n = draw(st.integers(0, 400))
    word = draw(st.lists(st.sampled_from(events), min_size=n, max_size=n))
    x = draw(st.sampled_from(events))
    free = [e for e in events if m.independent(e, x)]
    if free and draw(st.booleans()):
        k = draw(st.integers(64, 320))
        word += draw(st.lists(st.sampled_from(free), min_size=k, max_size=k)) + [x]
    return m, word


def has_ak_factor(word, m):
    """Anisimov-Knuth: a word is its lexicographic normal form iff it has no
    factor b.u.a with a < b and a independent of every letter of b.u.
    Such a factor exists iff some letter a is preceded, within the run of
    letters independent of a that ends just before it, by a larger letter."""
    pos = {e: i for i, e in enumerate(m.events)}
    for j, a in enumerate(word):
        i = j - 1
        while i >= 0 and m.independent(word[i], a):
            if pos[word[i]] > pos[a]:
                return True
            i -= 1
    return False


class TestMonoidConstruction:
    def test_symmetric_closure(self):
        m = make_monoid("ab", [("a", "b")])
        assert m.independent("a", "b")
        assert m.independent("b", "a")

    def test_duplicate_events_rejected(self):
        with pytest.raises(DuplicateEvent):
            make_monoid("aa")

    def test_star_reserved(self):
        with pytest.raises(DuplicateEvent):
            make_monoid(["a", "*"])

    def test_reflexive_pair_rejected(self):
        with pytest.raises(ReflexivePair):
            make_monoid("ab", [("a", "a")])

    def test_unknown_event_in_pair(self):
        with pytest.raises(UnknownEvent):
            make_monoid("ab", [("a", "z")])

    def test_free_commutative(self):
        m = free_commutative_monoid("abc")
        assert len(m.pairs()) == 3

    @pytest.mark.parametrize("bad", [("a", "b", "c"), ("a",), 3])
    def test_non_pair_rejected(self, bad):
        with pytest.raises(MalformedRelation):
            make_monoid("abc", [bad])

    @pytest.mark.parametrize("events, name", [([1, 2], "1"), ([None], "None"), (["a", ["b"]], r"\['b'\]")])
    def test_event_that_is_not_a_name_rejected(self, events, name):
        with pytest.raises(MalformedRelation, match=rf"^event {name} is not a name$"):
            make_monoid(events)

    def test_pair_of_non_names_is_unknown(self):
        with pytest.raises(UnknownEvent, match=r"unknown event \['a'\]"):
            make_monoid("ab", [(["a"], "b")])


class TestMonoidIndex:
    def test_caches_stay_out_of_eq_hash_repr(self):
        m1 = make_monoid("abc", [("a", "b"), ("b", "c")])
        m2 = make_monoid("abc", [("c", "b"), ("b", "a")])
        normal_form(tuple("cba"), m1)  # fills m1's caches, not m2's
        m1.pairs()
        assert "_insertion" in vars(m1) and "_insertion" not in vars(m2)
        assert m1 == m2
        assert hash(m1) == hash(m2)
        assert repr(m1) == repr(m2) == "TraceMonoid(['a', 'b', 'c'], [('a', 'b'), ('b', 'c')])"
        # the constructor takes exactly events, then independence
        assert TraceMonoid(independence=m1.independence, events=m1.events) == TraceMonoid(m1.events, m1.independence) == m1
        for args in ((m1.events,), (m1.events, m1.independence, m1.independence)):
            with pytest.raises(TypeError):
                TraceMonoid(*args)
        for m in (m1, m2, MUTEX, free_commutative_monoid("abcd")):
            oracles.check_monoid_order(m)

    @given(st.data())
    def test_make_monoid_presets_the_ordered_caches(self, data):
        """Pairs in either orientation, repeated, over an alphabet declared
        in any order."""
        events = data.draw(st.permutations("abcdef"[: data.draw(st.integers(0, 6))]))
        pairs = list(itertools.permutations(events, 2))
        chosen = data.draw(st.lists(st.sampled_from(pairs))) if pairs else []
        m = make_monoid(events, chosen)
        oracles.check_monoid_order(m)
        assert m.independence == {p if events.index(p[0]) < events.index(p[1]) else p[::-1] for p in chosen}

    def test_direct_construction_with_reversed_pair(self):
        m = TraceMonoid(("a", "b", "c"), frozenset({("c", "a")}))
        for w in itertools.product("abc", repeat=4):
            assert normal_form(w, m) == oracles.greedy_normal_form(w, m)
        assert normal_form(tuple("ca"), m) == ("a", "c")

    def test_direct_construction_with_unknown_event(self):
        m = TraceMonoid(("a", "b"), frozenset({("a", "z")}))
        with pytest.raises(UnknownEvent):
            m.pairs()
        with pytest.raises(UnknownEvent):
            normal_form(("a", "b"), m)

    def test_index(self):
        assert [MUTEX.index(e) for e in "abcde"] == [0, 1, 2, 3, 4]
        with pytest.raises(UnknownEvent):
            MUTEX.index("z")
        with pytest.raises(UnknownEvent):
            identity_hom(MUTEX)("z")


class TestNormalForm:
    def test_running_example(self):
        assert normal_form(tuple("adecc"), MUTEX) == tuple("accde")

    def test_running_example_has_no_ak_factor(self):
        assert has_ak_factor(tuple("adecc"), MUTEX)
        assert not has_ak_factor(tuple("accde"), MUTEX)

    def test_running_example_equivalence(self):
        assert equivalent(tuple("adecc"), tuple("accde"), MUTEX)

    def test_running_example_negative(self):
        # value fixed by the BFS closure: c cannot move past both a and d
        assert not oracles.words_equivalent_bfs(tuple("adecc"), tuple("cadce"), MUTEX)
        assert not equivalent(tuple("adecc"), tuple("cadce"), MUTEX)

    def test_dependent_letters_stay_put(self):
        m = free_monoid("ba")
        assert normal_form(("b", "a"), m) == ("b", "a")

    def test_uses_declared_order_not_codepoints(self):
        # with the alphabet declared as (b, a) and full independence, the
        # least representative starts with b
        m = make_monoid("ba", [("b", "a")])
        assert normal_form(("a", "b"), m) == ("b", "a")

    @settings(max_examples=150)
    @given(monoid_and_word)
    def test_idempotent(self, mw):
        m, w = mw
        nf = normal_form(w, m)
        assert normal_form(nf, m) == nf

    @settings(max_examples=150)
    @given(monoid_and_word)
    def test_preserves_letter_counts(self, mw):
        m, w = mw
        assert sorted(normal_form(w, m)) == sorted(w)

    @settings(max_examples=150)
    @given(monoid_and_word)
    def test_agrees_with_bfs_closure(self, mw):
        m, w = mw
        cls = oracles.transposition_class(w, m)
        assert normal_form(w, m) == min(
            cls, key=lambda v: [m.events.index(x) for x in v]
        )

    @settings(max_examples=200)
    @given(monoid_and_long_word)
    def test_agrees_with_greedy(self, mw):
        m, w = mw
        assert normal_form(w, m) == oracles.greedy_normal_form(w, m)

    def test_long_mutex_word(self):
        rng = random.Random(20000)
        w = tuple(rng.choice(MUTEX.events) for _ in range(20000))
        nf = normal_form(w, MUTEX)
        assert Counter(nf) == Counter(w)
        assert normal_form(nf, MUTEX) == nf
        assert not has_ak_factor(nf, MUTEX)

    @settings(max_examples=150, deadline=None)
    @given(monoid_and_word_past_the_tail())
    def test_insertion_agrees_with_the_heap_sort(self, mw):
        """Both paths of ``normal_form``: insertion near the end of the word,
        and the heap sort it falls back to when a letter's run of
        independent letters reaches past the tail."""
        m, w = mw
        assert normal_form(w, m) == trace_core._heap_normal_form(trace_core._encode(w, m), m)

    def test_long_commutative_word_takes_the_heap_sort(self, monkeypatch):
        m = free_commutative_monoid("hgfedcba")
        rng = random.Random(2000)
        w = [rng.choice(m.events) for _ in range(2000)]
        calls = []
        heap_sort = trace_core._heap_normal_form
        monkeypatch.setattr(trace_core, "_heap_normal_form", lambda s, m: calls.append(s) or heap_sort(s, m))
        assert normal_form(w, m) == tuple(sorted(w, key=m.events.index))
        assert len(calls) == 1

    @pytest.mark.parametrize("run, fallbacks", [(150, 0), (200, 0), (300, 1)], ids=["1 pull", "2 pulls", "3 pulls"])
    def test_a_letter_takes_settled_chunks_back_before_the_heap_sort(self, monkeypatch, run, fallbacks):
        # the last a is independent of every b: it must pass them all and
        # reach the first a, settled in the first of (run + 1) // _TAIL - 1
        # chunks of _TAIL letters
        m = free_commutative_monoid("ab")
        calls = []
        heap_sort = trace_core._heap_normal_form
        monkeypatch.setattr(trace_core, "_heap_normal_form", lambda s, m: calls.append(s) or heap_sort(s, m))
        assert normal_form(["a"] + ["b"] * run + ["a"], m) == ("a", "a") + ("b",) * run
        assert len(calls) == fallbacks

    def test_unknown_letter(self):
        with pytest.raises(UnknownEvent):
            normal_form(("a", "z"), MUTEX)

    @settings(max_examples=300)
    @given(monoid_and_canonical_word())
    def test_extension_agrees_with_both_sorts(self, mu):
        m, u = mu
        for e in m.events:
            longer = u + (e,)
            got = extend_normal_form(u, e, m)
            assert got == normal_form(longer, m)
            assert got == oracles.greedy_normal_form(longer, m)

    def test_extension_examples(self):
        # e commutes with a, c and d but is the largest letter: it goes last
        assert extend_normal_form(tuple("accd"), "e", MUTEX) == tuple("accde")
        # c commutes with b and d: it goes before d, the first larger letter
        assert extend_normal_form(tuple("bd"), "c", MUTEX) == tuple("bcd")
        # a commutes with e and comes first in the alphabet
        assert extend_normal_form(tuple("e"), "a", MUTEX) == tuple("ae")
        # b cannot move left of e, on which it depends
        assert extend_normal_form(tuple("ce"), "b", MUTEX) == tuple("ceb")
        assert extend_normal_form((), "c", MUTEX) == ("c",)

    def test_extension_unknown_letter(self):
        with pytest.raises(UnknownEvent):
            extend_normal_form(("a",), "z", MUTEX)

    @pytest.mark.parametrize("prefix", [("z",), (["x"],)], ids=["unknown", "unhashable"])
    def test_extension_checks_the_prefix(self, prefix):
        with pytest.raises(UnknownEvent):
            extend_normal_form(prefix, "a", MUTEX)

    @settings(max_examples=100)
    @given(monoid_and_two_words)
    def test_equivalent_matches_oracle(self, mww):
        m, w1, w2 = mww
        assert equivalent(w1, w2, m) == oracles.words_equivalent_bfs(w1, w2, m)


def swap_independent(rng, word, m, swaps):
    """``swaps`` random adjacent transpositions of independent letters."""
    w = list(word)
    for _ in range(swaps if len(w) > 1 else 0):
        i = rng.randrange(len(w) - 1)
        if m.independent(w[i], w[i + 1]):
            w[i], w[i + 1] = w[i + 1], w[i]
    return w


@st.composite
def equivalence_case(draw):
    """A monoid over multi-character event names in a random declared order,
    possibly with a letter independent of every other, and two words: an
    equivalent pair, a near miss one swap of dependent letters away from
    one, a pair of which one word holds a letter the other lacks, or two
    independent draws; either word may be empty."""
    names = draw(st.permutations(["ev0", "x", "ab1", "q22", "zz", "m"][: draw(st.integers(1, 6))]))
    pairs = list(itertools.combinations(names, 2))
    chosen = set(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else set()
    if draw(st.booleans()):
        loner = names[0]
        chosen.update(pair for pair in pairs if loner in pair)
    m = make_monoid(names, sorted(chosen))
    w1 = draw(st.lists(st.sampled_from(names), max_size=8))
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["same", "near", "extra", "free"]))
    w2 = swap_independent(rng, w1, m, 20)
    spots = [i for i in range(len(w2) - 1) if w2[i] != w2[i + 1] and not m.independent(w2[i], w2[i + 1])]
    missing = [e for e in names if e not in w1]
    if kind == "near" and spots:
        i = rng.choice(spots)
        w2[i], w2[i + 1] = w2[i + 1], w2[i]
        w2 = swap_independent(rng, w2, m, 20)
    elif kind == "extra" and missing and w2:
        w2[rng.randrange(len(w2))] = rng.choice(missing)
    elif kind == "free":
        w2 = draw(st.lists(st.sampled_from(names), max_size=8))
    else:
        kind = "same"
    return m, w1, w2, kind


def cone_table_entries(m):
    """Entries held by the per-letter translate tables and the erasing one."""
    _, cones, erase = m._cones
    return sum(map(len, cones)) + len(erase)


class TestEquivalentByCones:
    @settings(max_examples=400)
    @given(equivalence_case())
    def test_agrees_with_normal_forms_and_closure(self, case):
        m, w1, w2, kind = case
        expected = normal_form(w1, m) == normal_form(w2, m)
        assert equivalent(w1, w2, m) == expected
        assert equivalent(w2, w1, m) == expected
        if kind != "free":
            assert expected == (kind == "same")
        if len(w1) <= 6 and len(w2) <= 6:
            assert expected == oracles.words_equivalent_bfs(w1, w2, m)

    def test_near_miss_and_loner(self):
        m = make_monoid(["q22", "ev0", "x"], [("q22", "ev0"), ("q22", "x")])
        assert equivalent(["ev0", "q22", "x"], ["q22", "ev0", "x"], m)
        assert not equivalent(["ev0", "q22", "x"], ["x", "q22", "ev0"], m)
        assert not equivalent(["ev0"], ["q22"], m)
        assert equivalent([], [], m)
        assert not equivalent([], ["x"], m)

    def test_two_hundred_events(self):
        # codes 128 and up are not ASCII, so translate leaves its fast path
        rng = random.Random(1717)
        events = [f"e{i:03d}" for i in range(200)]
        rng.shuffle(events)
        pairs = [p for p in itertools.combinations(events, 2) if rng.random() < 0.6]
        m = make_monoid(events, pairs)
        for _ in range(40):
            w1 = [rng.choice(events[120:]) if rng.random() < 0.5 else rng.choice(events) for _ in range(60)]
            w2 = swap_independent(rng, w1, m, 400)
            assert equivalent(w1, w2, m)
            spots = [i for i in range(59) if w2[i] != w2[i + 1] and not m.independent(w2[i], w2[i + 1])]
            if spots:
                i = rng.choice(spots)
                w3 = w2[:i] + [w2[i + 1], w2[i]] + w2[i + 2 :]
                assert not equivalent(w1, w3, m)
                assert normal_form(w1, m) != normal_form(w3, m)
        assert cone_table_entries(m) <= sum(map(len, m._dependents)) + len(events)

    def test_every_monoid_on_three_letters(self):
        events = "abc"
        pairs = list(itertools.combinations(events, 2))
        for k in range(len(pairs) + 1):
            for chosen in itertools.combinations(pairs, k):
                m = make_monoid(events, chosen)
                for n in range(5):
                    words = list(itertools.product(events, repeat=n))
                    nf = {w: normal_form(w, m) for w in words}
                    for w1 in words:
                        for w2 in words:
                            assert equivalent(w1, w2, m) == (nf[w1] == nf[w2]), (chosen, w1, w2)

    @settings(max_examples=100)
    @given(small_monoid(["abcdefghij"[:k] for k in range(1, 11)]))
    def test_tables_are_linear_in_the_dependence(self, m):
        assert cone_table_entries(m) <= sum(map(len, m._dependents)) + len(m.events)


class TestUnknownLetter:
    MESSAGE = r"^letter 'z' not in alphabet \['a', 'b', 'c', 'd', 'e'\]$"

    def test_normalize(self):
        with pytest.raises(UnknownEvent, match=self.MESSAGE):
            normalize(("a", "z", "y"), MUTEX)

    def test_equivalent_either_word(self):
        with pytest.raises(UnknownEvent, match=self.MESSAGE):
            equivalent(("a", "z"), ("a",), MUTEX)
        with pytest.raises(UnknownEvent, match=self.MESSAGE):
            equivalent(("a",), ("z", "a"), MUTEX)

    def test_apply_word(self):
        tgt = free_commutative_monoid("xy")
        h = make_hom(MUTEX, tgt, {"a": "x", "b": None, "c": None, "d": "y", "e": "y"})
        with pytest.raises(UnknownEvent, match=self.MESSAGE):
            apply_word(h, ("a", "z", "y"))

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda m: normalize([["a"]], m), id="normalize"),
            pytest.param(lambda m: equivalent([["a"]], ["a"], m), id="equivalent-left"),
            pytest.param(lambda m: equivalent(["a"], ["a", ["a"]], m), id="equivalent-right"),
            pytest.param(lambda m: extend_normal_form((), ["a"], m), id="extend_normal_form"),
            pytest.param(lambda m: identity_hom(m)(["a"]), id="hom"),
            pytest.param(lambda m: apply_word(identity_hom(m), ["b", ["a"]]), id="apply_word"),
            pytest.param(lambda m: m.index(["a"]), id="index"),
        ],
    )
    def test_unhashable_letter_is_named(self, call):
        with pytest.raises(UnknownEvent, match=r"\['a'\]"):
            call(MUTEX)


class TestTraceOps:
    def test_concat_normalizes(self):
        t = concat(normalize("ad", MUTEX), normalize("ecc", MUTEX))
        assert t.letters == tuple("accde")

    def test_concat_mismatch(self):
        with pytest.raises(MonoidMismatch):
            concat(normalize("a", MUTEX), normalize("a", free_monoid("a")))

    @settings(max_examples=100)
    @given(monoid_and_two_words)
    def test_concat_associative_with_normalize(self, mww):
        m, w1, w2 = mww
        assert concat(normalize(w1, m), normalize(w2, m)) == normalize(
            list(w1) + list(w2), m
        )


class TestBasicHom:
    def test_erasing_and_collapsing_allowed(self):
        src = make_monoid("ab", [("a", "b")])
        tgt = free_commutative_monoid("c")
        h = make_hom(src, tgt, {"a": "c", "b": None})
        assert h("a") == "c" and h("b") is None

    def test_dependent_images_of_independent_pair_rejected(self):
        src = make_monoid("ab", [("a", "b")])
        tgt = free_monoid("cd")
        with pytest.raises(InvalidHom):
            make_hom(src, tgt, {"a": "c", "b": "d"})

    def test_equal_images_of_independent_pair_allowed_but_not_ip(self):
        src = make_monoid("ab", [("a", "b")])
        tgt = free_monoid("c")
        h = make_hom(src, tgt, {"a": "c", "b": "c"})
        assert not is_independence_preserving(h)

    def test_missing_image_rejected(self):
        with pytest.raises(UnknownEvent):
            make_hom(free_monoid("ab"), free_monoid("c"), {"a": "c"})

    def test_identity_is_ip(self):
        assert is_independence_preserving(identity_hom(MUTEX))

    @settings(max_examples=120)
    @given(monoid_and_two_words, st.randoms(use_true_random=False))
    def test_apply_respects_equivalence(self, mww, rng):
        m, w1, w2 = mww
        tgt = oracles.random_monoid(rng, max_events=3)
        hmap = oracles.random_basic_hom_map(rng, m, tgt)
        try:
            h = make_hom(m, tgt, hmap)
        except InvalidHom:
            return
        if equivalent(w1, w2, m):
            assert apply_word(h, w1) == apply_word(h, w2)

    @settings(max_examples=200)
    @given(monoid_and_word, st.randoms(use_true_random=False))
    def test_apply_word_normalizes_once(self, mw, rng):
        m, w = mw
        tgt = oracles.random_monoid(rng, max_events=4, density=rng.random())
        try:
            h = make_hom(m, tgt, oracles.random_basic_hom_map(rng, m, tgt))
        except InvalidHom:
            return
        assert apply_word(h, w) == apply(h, normalize(w, h.source))

    def test_apply_short_image(self):
        h = BasicHom(MUTEX, MUTEX, ("a", "b"))
        with pytest.raises(InvalidHom, match="image has 2 entries for 5 source events"):
            apply(h, normalize("ae", MUTEX))

    def test_apply_word_short_image(self):
        h = BasicHom(MUTEX, MUTEX, ("a", "b"))
        with pytest.raises(InvalidHom, match="image has 2 entries for 5 source events"):
            apply_word(h, ("a", "e"))

    def test_compose_agrees_pointwise(self):
        src = make_monoid("ab", [("a", "b")])
        mid = free_commutative_monoid("cd")
        tgt = free_commutative_monoid("e")
        h1 = make_hom(src, mid, {"a": "c", "b": "d"})
        h2 = make_hom(mid, tgt, {"c": "e", "d": None})
        h = compose(h2, h1)
        for e in src.events:
            v = h1(e)
            assert h(e) == (None if v is None else h2(v))

    def test_apply_on_trace(self):
        src = MUTEX
        tgt = free_commutative_monoid("xy")
        h = make_hom(
            src, tgt, {"a": "x", "b": None, "c": None, "d": "y", "e": "y"}
        )
        t = apply(h, normalize("adecc", src))
        assert t == normalize("xyy", tgt)
