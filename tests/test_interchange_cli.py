import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from asyntrace import async_system, interchange as ix, state_space
from asyntrace.cli import main, parse_word
from asyntrace.errors import (
    DanglingReference,
    InvalidHom,
    ParseError,
    SchemaError,
)
from asyntrace.fpcm_cat import product
from asyntrace.trace_core import STAR, BasicHom, free_monoid, make_monoid

import oracles
from test_state_space import cycle_space


FULL_BUNDLE = {
    "version": 1,
    "documents": {
        "m": {
            "kind": "monoid",
            "events": ["a", "b"],
            "independence": [["a", "b"]],
        },
        "n": {"kind": "monoid", "events": ["c"], "independence": []},
        "h": {
            "kind": "hom",
            "source": "m",
            "target": "n",
            "image": {"a": "c", "b": None},
        },
        "sp": {
            "kind": "space",
            "monoid": "n",
            "states": ["x", "y"],
            "action": {"x": {"c": "y"}},
        },
        "sp2": {
            "kind": "space",
            "monoid": "n",
            "states": ["u"],
            "action": {},
        },
        "sm": {
            "kind": "space_morphism",
            "source": "sp2",
            "target": "sp",
            "events": {"c": "c"},
            "states": {"u": None},
        },
        "sys": {
            "kind": "system",
            "states": ["p", "q"],
            "initial": "p",
            "events": ["a"],
            "independence": [],
            "transitions": [["p", "a", "q"]],
        },
        "sys2": {
            "kind": "system",
            "states": ["r"],
            "initial": None,
            "events": ["a"],
            "independence": [],
            "transitions": [],
        },
        "symo": {
            "kind": "system_morphism",
            "source": "sys2",
            "target": "sys2",
            "events": {"a": "a"},
            "states": {"r": None},
        },
        "shape": {
            "kind": "shape",
            "objects": ["o0", "o1"],
            "arrows": [["f", "o0", "o1"]],
        },
        "disc": {"kind": "shape", "objects": ["w0"], "arrows": []},
        "diag": {
            "kind": "diagram",
            "shape": "disc",
            "over": "monoid",
            "objects": {"w0": "m"},
            "arrows": {},
        },
        "tbl": {
            "kind": "monoid_table",
            "elements": ["1", "g"],
            "table": [["1", "g"], ["g", "1"]],
        },
    },
}


class TestParsing:
    def test_full_bundle_parses(self):
        b = ix.parse(json.dumps(FULL_BUNDLE))
        assert set(b.documents) == set(FULL_BUNDLE["documents"])
        assert b.get("m").events == ("a", "b")
        assert b.get("h")("b") is None
        assert b.get("sp").step("x", "c") == "y"
        assert b.get("sys").initial == "p"
        assert b.get("sys2").initial == STAR
        assert b.get("symo").state("r") == STAR

    def test_bad_json(self):
        with pytest.raises(ParseError):
            ix.parse("{not json")

    def test_wrong_version(self):
        with pytest.raises(SchemaError):
            ix.parse(json.dumps({"version": 99, "documents": {}}))

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            ix.parse(json.dumps({"version": 1, "documents": {"x": {"kind": "nope"}}}))

    def test_dangling_reference(self):
        bad = {
            "version": 1,
            "documents": {
                "h": {"kind": "hom", "source": "gone", "target": "gone", "image": {}}
            },
        }
        with pytest.raises(DanglingReference):
            ix.parse(json.dumps(bad))

    def test_kind_mismatch_on_reference(self):
        bad = {
            "version": 1,
            "documents": {
                "m": {"kind": "monoid", "events": ["a"], "independence": []},
                "sp": {"kind": "space", "monoid": "m", "states": [], "action": {}},
                "h": {"kind": "hom", "source": "sp", "target": "m", "image": {}},
            },
        }
        with pytest.raises(SchemaError):
            ix.parse(json.dumps(bad))

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "monoid", "events": ["a", 1]},
            {"kind": "monoid", "events": ["a", "b"], "independence": [["a", 2]]},
            {"kind": "monoid", "events": ["a", "b"], "independence": ["ab"]},
            {"kind": "system", "states": [["p"]], "events": ["a"]},
            {"kind": "system", "states": ["p"], "events": ["a"], "transitions": [["p", "a", "p", "p"]]},
            {"kind": "shape", "objects": ["x"], "arrows": [["f", "x"]]},
        ],
        ids=["event-name", "pair-member", "pair-string", "state-name", "transition-quad", "shape-arrow"],
    )
    def test_malformed_entries_are_schema_errors(self, doc):
        with pytest.raises(SchemaError):
            ix.parse(json.dumps({"version": 1, "documents": {"d": doc}}))

    def test_order_independent(self):
        docs = FULL_BUNDLE["documents"]
        reordered = {
            "version": 1,
            "documents": {k: docs[k] for k in reversed(list(docs))},
        }
        b = ix.parse(json.dumps(reordered))
        assert b.get("h").target.events == ("c",)


class TestRoundTrip:
    def test_monoid(self):
        b = ix.parse(json.dumps(FULL_BUNDLE))
        doc = ix.monoid_doc(b.get("m"))
        assert ix.parse(
            json.dumps({"version": 1, "documents": {"m": doc}})
        ).get("m") == b.get("m")

    def test_hom(self):
        b = ix.parse(json.dumps(FULL_BUNDLE))
        docs = {
            "m": ix.monoid_doc(b.get("m")),
            "n": ix.monoid_doc(b.get("n")),
            "h": ix.hom_doc(b.get("h"), "m", "n"),
        }
        b2 = ix.parse(json.dumps({"version": 1, "documents": docs}))
        assert b2.get("h") == b.get("h")

    def test_space_and_morphism(self):
        b = ix.parse(json.dumps(FULL_BUNDLE))
        docs = {
            "n": ix.monoid_doc(b.get("n")),
            "sp": ix.space_doc(b.get("sp"), "n"),
            "sp2": ix.space_doc(b.get("sp2"), "n"),
            "sm": ix.space_morphism_doc(b.get("sm"), "sp2", "sp"),
        }
        b2 = ix.parse(json.dumps({"version": 1, "documents": docs}))
        assert b2.get("sp") == b.get("sp")
        assert b2.get("sm") == b.get("sm")

    def test_system_and_morphism(self):
        b = ix.parse(json.dumps(FULL_BUNDLE))
        docs = {
            "sys": ix.system_doc(b.get("sys")),
            "sys2": ix.system_doc(b.get("sys2")),
            "symo": ix.system_morphism_doc(b.get("symo"), "sys2", "sys2"),
        }
        b2 = ix.parse(json.dumps({"version": 1, "documents": docs}))
        assert b2.get("sys") == b.get("sys")
        assert b2.get("symo").state_part == b.get("symo").state_part

    def test_shape_and_table(self):
        b = ix.parse(json.dumps(FULL_BUNDLE))
        docs = {
            "shape": ix.shape_doc(b.get("shape")),
            "tbl": {"kind": "monoid_table", "elements": b.get("tbl").elements, "table": b.get("tbl").table},
        }
        b2 = ix.parse(json.dumps({"version": 1, "documents": docs}))
        assert b2.get("shape") == b.get("shape")
        assert b2.get("tbl") == b.get("tbl")


class TestDocuments:
    def test_hom_doc_of_a_short_image_raises(self):
        h = BasicHom(free_monoid("ab"), free_monoid("c"), ("c",))
        with pytest.raises(InvalidHom):
            ix.hom_doc(h, "m", "n")

    def test_system_doc_lists_transitions_in_sorted_order(self):
        rng = random.Random(19)
        m = make_monoid("abcd", [("a", "b"), ("c", "d")])
        for _ in range(20):
            s = oracles.random_space(rng, m, max_states=12)
            a = async_system.WeakAsyncSystem(m, s.states, s.action, s.states[0])
            rows = ix.system_doc(a)["transitions"]
            assert rows == [(x, e, y) for (x, e), y in sorted(a.action.items())]


class Name(str):
    """A ``str`` subclass, which ``json`` writes as a plain string."""


# quotes, backslashes, control characters, non-ASCII and astral text
TEXT = st.text(max_size=5) | st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é", "\u2028", "\U0001f600", ""])
STRS = TEXT | TEXT.map(Name)
SCALARS = STRS | st.integers() | st.integers(-(2**200), 2**200) | st.booleans() | st.none()
# rows of one width over a few names, each name repeated across rows
NAME = st.sampled_from(["a", "b", '"', "é"])
NAMED_ROWS = st.integers(1, 3).flatmap(
    lambda width: st.lists(st.lists(NAME | NAME.map(Name), min_size=width, max_size=width), max_size=6)
)
# rows that mix strings with other scalars or nested lists, of unequal widths
MIXED_ROWS = st.lists(
    st.lists(STRS | st.integers() | st.booleans() | st.none() | st.lists(STRS, max_size=2), max_size=3)
    | st.tuples(STRS, STRS),
    max_size=4,
)
ROWS = NAMED_ROWS | MIXED_ROWS
# names that JSON writes as they are, and ones with a character it escapes
PLAIN = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E, blacklist_characters='"\\'), max_size=3) | st.just("null")
ESCAPED = st.builds(lambda n, c: n + c, PLAIN, st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "é", "\U0001f600"]))


def _spoil(names, bad, at):
    """``names`` with the one that ``at`` picks replaced by ``bad``, unless that is None."""
    if bad is not None:
        names[at % len(names)] = bad
    return names


def _rows(names, width):
    """``names`` cut into rows of ``width``, every other row a tuple."""
    rows = [names[i : i + width] for i in range(0, len(names) - width + 1, width)]
    return [tuple(r) if i % 2 else r for i, r in enumerate(rows)]


# long enough to be written by one join: plain but for at most one name
LONG_NAMES = st.builds(
    _spoil, st.lists(PLAIN | PLAIN.map(Name), min_size=ix._BULK, max_size=ix._BULK + 6), st.none() | ESCAPED, st.integers(0, 99)
)
MIXED_NAMES = LONG_NAMES | st.builds(_rows, LONG_NAMES, st.integers(1, 3))
LONG_ENTRIES = st.lists(
    st.tuples(PLAIN | PLAIN.map(Name), PLAIN | st.none()), min_size=ix._BULK, max_size=ix._BULK + 6, unique_by=lambda kv: kv[0]
)
NAME_MAPS = st.dictionaries(STRS, STRS | st.none(), max_size=4) | st.builds(
    _spoil, LONG_ENTRIES, st.none() | st.tuples(ESCAPED, PLAIN) | st.tuples(PLAIN, ESCAPED), st.integers(0, 99)
).map(dict)


# maps of name maps, as a space's action: plain and long enough for the joins,
# and such maps, or short ones, with one more key (plain or not) whose value
# is a name map, empty, holds None or is not a dict
PLAIN_MAPS = st.dictionaries(PLAIN | PLAIN.map(Name), PLAIN | PLAIN.map(Name), min_size=1, max_size=3)
LONG_MAP_MAPS = st.lists(
    st.tuples(PLAIN | PLAIN.map(Name), PLAIN_MAPS), min_size=ix._BULK, max_size=ix._BULK + 3, unique_by=lambda kv: kv[0]
).map(dict)
MAP_MAPS = LONG_MAP_MAPS | st.builds(
    lambda maps, k, v: {**maps, k: v},
    LONG_MAP_MAPS | st.dictionaries(PLAIN, PLAIN_MAPS, max_size=3),
    PLAIN | ESCAPED,
    PLAIN_MAPS | NAME_MAPS | st.sampled_from([{}, {"a": None}, "a", ["a"]]),
)


def _nest(rows, wrappers):
    for w in wrappers:
        rows = {"k": rows} if w else [rows]
    return rows


# a list of rows at least 6 containers deep
DEEP_ROWS = st.builds(_nest, ROWS, st.lists(st.booleans(), min_size=6, max_size=8))
TREES = st.recursive(
    SCALARS | st.lists(STRS, max_size=4) | ROWS | DEEP_ROWS | MIXED_NAMES | NAME_MAPS | MAP_MAPS,
    lambda kids: st.lists(kids, max_size=4) | st.lists(kids, max_size=3).map(tuple) | st.dictionaries(STRS, kids, max_size=4),
    max_leaves=24,
)


class TestDumps:
    """``ix.dumps`` writes the bytes of the standard library's indented
    encoder, ``oracles.reference_dumps``."""

    @settings(max_examples=200, deadline=None)
    @given(TREES)
    def test_matches_reference(self, payload):
        assert ix.dumps(payload) == oracles.reference_dumps(payload)

    @pytest.mark.parametrize(
        "payload",
        [{}, [], (), [[]], [[], []], [[], ["a"]], [["a"], []], {"a": {}}, {"a": [{}]}, ([(), ()],), [[[]]]],
    )
    def test_nested_empty_containers(self, payload):
        assert ix.dumps(payload) == oracles.reference_dumps(payload)

    @pytest.mark.parametrize(
        "payload",
        [[["a", 1]], [["a", None]], [["a"], ["b", "c"]], [[["a"]]], [("a", True)], [["a", "b"], "cd"], [Name("a")]],
    )
    def test_rows_that_are_not_string_rows(self, payload):
        assert ix.dumps(payload) == oracles.reference_dumps(payload)

    @pytest.mark.parametrize(
        "payload",
        [{"a": None}, {"a": "\x00", "b": None}, {"b": "null", "a": None}, {"a": None, "b": 1}, ["a", "\x7f"], [["a", "é"]], {"a": Name("b")}],
    )
    @pytest.mark.parametrize("pad", [0, ix._BULK], ids=["short", "long"])
    def test_name_maps_and_names_next_to_escapes(self, payload, pad):
        """Each case alone, and padded with plain names up to the length that one join writes."""
        names = [f"p{i}" for i in range(pad)]
        payload = {**dict.fromkeys(names, "v"), **payload} if isinstance(payload, dict) else names + payload
        assert ix.dumps(payload) == oracles.reference_dumps(payload)

    def test_plain_names_are_never_quoted_one_by_one(self, monkeypatch):
        """No name of a plain row list, or of a plain list, name map or map
        of name maps as long as ``_BULK``, reaches ``_quote``: only the other
        dicts' keys do."""
        names = [f"e{i}" for i in range(ix._BULK)]
        payload = {
            "doc": {
                "action": {x: {names[1]: x, names[0]: names[2]} for x in names},
                "events": names,
                "independence": [[names[i], names[(i + 3) % len(names)]] for i in range(len(names))],
                "image": dict(zip(names, [None, *names[1:]])),
            }
        }
        calls = []
        quote = ix._quote
        monkeypatch.setattr(ix, "_quote", lambda s: calls.append(s) or quote(s))
        assert ix.dumps(payload) == oracles.reference_dumps(payload)
        assert sorted(calls) == ["action", "doc", "events", "image", "independence"]

    @pytest.mark.parametrize("row", [list, tuple])
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_plain_row_lists_never_reach_quote(self, monkeypatch, width, row):
        """A row list is written by its joins whatever its length, a
        product's pairs included; the fallback writes the same bytes, so
        only a spy on ``_quote`` tells the two paths apart."""
        names = [f"e{i}" for i in range(5)]
        pairs = product([make_monoid("ab", [("a", "b")]), free_monoid("cd")]).monoid.pairs()
        payload = {"pairs": pairs, "rows": [row(names[(i + k) % 5] for k in range(width)) for i in range(3)]}
        calls = []
        quote = ix._quote
        monkeypatch.setattr(ix, "_quote", lambda s: calls.append(s) or quote(s))
        assert ix.dumps(payload) == oracles.reference_dumps(payload)
        assert len(pairs) > 10 and calls == ["pairs", "rows"]

    @pytest.mark.parametrize("row", [list, tuple])
    @pytest.mark.parametrize(
        "rows",
        [
            [["a", "b"], ['c"', "d"], ["e", "f"]],
            [["a", "b"], ["c\\", "d"], ["e", "f"]],
            [["a", "b"], ["c\n", "d"], ["e", "f"]],
            [["a", "b"], ["c\t", "d"], ["e", "f"]],
            [["a", "b"], ["c", "dé"], ["e", "f"]],
            [["a", "b"], [], ["e", "f"]],
            [["a", "b"], "cd", ["e", "f"]],
            [["a", "b"], ["c"], ["d", "e", "f"]],
            [["a", "b"], ['c"\n"d'], ["e", "f"]],
        ],
        ids=["quote", "backslash", "newline", "tab", "non-ASCII", "empty row", "str row", "unequal widths", "stand-in separator"],
    )
    def test_a_row_list_with_one_defect_falls_back(self, monkeypatch, rows, row):
        """Each defect sends the row list item by item, so its names reach
        ``_quote``.  The widths of the last two add up to what equal widths
        would; in the last, a name holds the quotes and newline of the
        separator that its short row lacks."""
        payload = [x if isinstance(x, str) else row(x) for x in rows]
        calls = []
        quote = ix._quote
        monkeypatch.setattr(ix, "_quote", lambda s: calls.append(s) or quote(s))
        assert ix.dumps(payload) == oracles.reference_dumps(payload)
        assert "a" in calls

    @pytest.mark.parametrize(
        "payload",
        [1.5, {"a": [0.0]}, {"a", "b"}, [{"a"}], {1: "a"}, {"a": {None: "b"}}, {True: 1}, [("a", 2.0)], b"a"],
    )
    def test_rejects_floats_sets_bytes_and_non_str_keys(self, payload):
        with pytest.raises(TypeError):
            ix.dumps(payload)

    def test_quotes_each_name_of_a_row_list_once(self, monkeypatch):
        """1 000 pair rows over 10 names take at most one quoting per name
        and one per dict key."""
        names = [f"e{i}" for i in range(10)]
        rows = [[names[i % 10], names[(3 * i + 1) % 10]] for i in range(1000)]
        payload = {"documents": {"m": {"independence": rows}}}
        calls = []
        quote = ix._quote
        monkeypatch.setattr(ix, "_quote", lambda s: calls.append(s) or quote(s))
        text = ix.dumps(payload)
        assert text == oracles.reference_dumps(payload)
        assert 0 < len(calls) <= len(names) + 3


class TestWordParsing:
    def test_splits_on_commas_and_spaces(self):
        m = free_monoid("ab")
        assert parse_word("a, b a", m) == ["a", "b", "a"]

    def test_single_token_char_split(self):
        m = free_monoid("ab")
        assert parse_word("aba", m) == ["a", "b", "a"]

    def test_multichar_events_survive(self):
        m = free_monoid(["(a,*)", "(*,b)"])
        assert parse_word("(a,*) (*,b)", m) == ["(a,*)", "(*,b)"]


class TestCli:
    def test_normalize(self, fixtures_dir, capsys):
        rc = main(
            [
                "normalize",
                str(fixtures_dir / "mutex.json"),
                "--monoid",
                "mutex",
                "--word",
                "adecc",
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == "a.c.c.d.e"

    def test_equiv_json(self, fixtures_dir, capsys):
        rc = main(
            [
                "equiv",
                str(fixtures_dir / "mutex.json"),
                "--monoid",
                "mutex",
                "--left",
                "adecc",
                "--right",
                "accde",
                "--format",
                "json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["equivalent"] is True

    def test_json_output_reparses(self, fixtures_dir, capsys):
        rc = main(
            [
                "monoid",
                "product",
                str(fixtures_dir / "product.json"),
                "--objects",
                "ma",
                "mb",
                "--format",
                "json",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        b = ix.parse(out)
        assert len(b.get("result", "monoid").events) == 3
        assert b.get("proj_0", "hom").target.events == ("a",)

    def test_colimit_reports_status(self, fixtures_dir, capsys):
        rc = main(
            [
                "asys",
                "colimit",
                str(fixtures_dir / "systems.json"),
                "--diagram",
                "pair",
                "--bound",
                "2",
            ]
        )
        assert rc == 0
        assert "status: TRUNCATED" in capsys.readouterr().out

    def test_colimit_never_decodes_the_frontier(self, fixtures_dir, capsys, monkeypatch):
        # the summary's frontier names are rendered from the saturation's
        # buckets; the tuple of (generator, trace) terms is never built
        results = []
        real = state_space._saturate

        def spy(p, bound):
            results.append(real(p, bound))
            return results[-1]

        monkeypatch.setattr(state_space, "_saturate", spy)
        argv = ["asys", "colimit", str(fixtures_dir / "systems.json"), "--diagram", "pair", "--bound", "2"]
        assert main([*argv, "--format", "json"]) == 0
        frontier = json.loads(capsys.readouterr().out)["summary"]["frontier"]
        [sat] = results
        assert "frontier" not in vars(sat)
        assert frontier == [oracles.term_name(t) for t in sat.frontier] and frontier

    @pytest.mark.parametrize(
        "argv",
        [
            ["product", "--objects", "A", "B"],
            ["product", "--objects", "B", "A", "A"],
            ["limit", "--diagram", "pair"],
            ["colimit", "--diagram", "pair", "--bound", "3"],
        ],
    )
    def test_system_legs_pass_morphism_check(self, fixtures_dir, tmp_path, capsys, argv):
        # every projection and leg written for a system (co)limit is itself
        # a system morphism, as the morphism-check command reads it back
        path = tmp_path / "out.json"
        bundle = str(fixtures_dir / "systems.json")
        assert main(["asys", argv[0], bundle, *argv[1:], "--format", "json", "--output", str(path)]) == 0
        docs = json.loads(path.read_text())["documents"]
        legs = [n for n, doc in docs.items() if doc["kind"] == "system_morphism"]
        assert legs and all(n.startswith(("proj_", "leg_")) for n in legs)
        for name in legs:
            assert main(["asys", "morphism-check", str(path), "--morphism", name]) == 0, name
        assert "valid system morphism" in capsys.readouterr().out

    def test_space_colimit_checks_each_arrow_once_at_parse(self, tmp_path, capsys, monkeypatch):
        # parsing checks each morphism as it builds it and the diagram for
        # its shape only; state_space.colimit checks each arrow once more
        docs = {
            "m": {"kind": "monoid", "events": ["c"], "independence": []},
            "apex": {"kind": "space", "monoid": "m", "states": ["u"], "action": {"u": {"c": "u"}}},
            "side": {"kind": "space", "monoid": "m", "states": ["x", "y"], "action": {"x": {"c": "y"}, "y": {"c": "y"}}},
            "span": {"kind": "shape", "objects": ["apex", "left", "right"], "arrows": [["l", "apex", "left"], ["r", "apex", "right"]]},
            "d": {"kind": "diagram", "shape": "span", "over": "space", "objects": {"apex": "apex", "left": "side", "right": "side"},
                  "arrows": {"l": "to_y", "r": "to_y2"}},
        }
        for name in ("to_y", "to_y2"):
            docs[name] = {"kind": "space_morphism", "source": "apex", "target": "side", "events": {"c": "c"}, "states": {"u": "y"}}
        path = tmp_path / "span.json"
        path.write_text(json.dumps({"version": 1, "documents": docs}))
        calls = []
        real = state_space.validate_morphism
        monkeypatch.setattr(state_space, "validate_morphism", lambda *a: calls.append(a[0]) or real(*a))
        assert main(["space", "colimit", str(path), "--diagram", "d", "--bound", "3", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["status"] == "EXACT"
        assert len(calls) == 4

    def test_deterministic_bytes(self, fixtures_dir, tmp_path):
        outs = []
        for i in range(2):
            path = tmp_path / f"run{i}.json"
            rc = main(
                [
                    "monoid",
                    "coequalize",
                    str(fixtures_dir / "coequalizer.json"),
                    "--left",
                    "f",
                    "--right",
                    "g",
                    "--format",
                    "json",
                    "--output",
                    str(path),
                ]
            )
            assert rc == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_domain_error_exits_one(self, fixtures_dir, capsys):
        rc = main(
            [
                "normalize",
                str(fixtures_dir / "mutex.json"),
                "--monoid",
                "mutex",
                "--word",
                "zz",
            ]
        )
        assert rc == 1
        assert "UnknownEvent" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["asys", "colimit", "--diagram", "pair", "--bound", "-1"], ["asys", "unfold", "--system", "A", "--depth", "-1"]],
        ids=["bound", "depth"],
    )
    def test_negative_bound_exits_one(self, fixtures_dir, capsys, argv):
        rc = main([*argv[:2], str(fixtures_dir / "systems.json"), *argv[2:]])
        err = capsys.readouterr().err
        assert rc == 1
        assert "[InvalidBound]" in err
        assert "Traceback" not in err

    def test_dangling_name_exits_two(self, fixtures_dir, capsys):
        rc = main(
            [
                "normalize",
                str(fixtures_dir / "mutex.json"),
                "--monoid",
                "nope",
                "--word",
                "a",
            ]
        )
        assert rc == 2

    def test_malformed_bundle_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        rc = main(["normalize", str(bad), "--monoid", "m", "--word", "a"])
        assert rc == 2

    @pytest.mark.parametrize(
        "bundle, output, reason",
        [
            ("mutex.json", "missing/x.txt", "No such file or directory"),
            (".", None, "Is a directory"),
        ],
        ids=["output-in-missing-directory", "bundle-is-a-directory"],
    )
    def test_os_error_exits_two(self, fixtures_dir, tmp_path, capsys, bundle, output, reason):
        argv = ["normalize", str(fixtures_dir / bundle), "--monoid", "mutex", "--word", "adecc"]
        if output:
            argv += ["--output", str(tmp_path / output)]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("asyntrace: error: ")
        assert reason in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "doc, argv",
        [
            (
                {"kind": "monoid", "events": ["a", "b", "c"], "independence": [["a", "b", "c"]]},
                ["normalize", "BUNDLE", "--monoid", "d", "--word", "ab"],
            ),
            (
                {"kind": "system", "states": ["p"], "initial": "p", "events": ["a"],
                 "transitions": [["p", "a"]]},
                ["asys", "validate", "BUNDLE", "--system", "d"],
            ),
        ],
        ids=["independence-triple", "transition-pair"],
    )
    def test_wrong_arity_exits_two(self, tmp_path, capsys, doc, argv):
        bundle = tmp_path / "bad.json"
        bundle.write_text(json.dumps({"version": 1, "documents": {"d": doc}}))
        rc = main([str(bundle) if a == "BUNDLE" else a for a in argv])
        err = capsys.readouterr().err
        assert rc == 2
        assert "[SchemaError]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["monoid", "product", "BUNDLE", "--objects", "m1", "m2"], "DuplicateEvent"),
            (["space", "product", "BUNDLE", "--objects", "s1", "s2"], "InvalidSpace"),
            (["asys", "product", "BUNDLE", "--objects", "A", "B"], "InvalidSpace"),
        ],
        ids=["monoid", "space", "asys"],
    )
    def test_product_name_clash_exits_one(self, tmp_path, capsys, argv, code):
        # "(a,b,c)" renders both ("a,b", "c") and ("a", "b,c")
        docs = {
            "m1": {"kind": "monoid", "events": ["a,b", "a"], "independence": []},
            "m2": {"kind": "monoid", "events": ["c", "b,c"], "independence": []},
            "n": {"kind": "monoid", "events": ["e"], "independence": []},
            "s1": {"kind": "space", "monoid": "n", "states": ["a,b", "a"], "action": {}},
            "s2": {"kind": "space", "monoid": "n", "states": ["c", "b,c"], "action": {}},
            "A": {"kind": "system", "states": ["a,b", "a"], "initial": "a", "events": ["e"], "transitions": []},
            "B": {"kind": "system", "states": ["c", "b,c"], "initial": "c", "events": ["e"], "transitions": []},
        }
        bundle = tmp_path / "clash.json"
        bundle.write_text(json.dumps({"version": 1, "documents": docs}))
        rc = main([str(bundle) if a == "BUNDLE" else a for a in argv])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert f"[{code}]" in captured.err
        assert "'(a,b,c)'" in captured.err
        assert "Traceback" not in captured.err

    def test_product_of_seven_factors_exits_one_at_once(self, tmp_path, capsys):
        # 4^7 - 1 = 16 383 generators, refused before any is built
        docs = {f"m{i}": {"kind": "monoid", "events": [f"{c}{i}" for c in "abc"], "independence": [[f"a{i}", f"b{i}"]]}
                for i in range(7)}
        bundle = tmp_path / "seven.json"
        bundle.write_text(json.dumps({"version": 1, "documents": docs}))
        start = time.perf_counter()
        rc = main(["monoid", "product", str(bundle), "--objects", *docs])
        seconds = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (rc, captured.out) == (1, "") and "[SizeLimit]" in captured.err
        assert "Traceback" not in captured.err and seconds < 1

    def test_limit_of_seven_arms_exits_one_at_once(self, tmp_path, capsys):
        # seven three-event arms erased into the trivial monoid: 16 383
        # compatible families, refused before their pairs are tested
        objs = [f"o{i}" for i in range(7)]
        docs = {f"m{i}": {"kind": "monoid", "events": [f"{c}{i}" for c in "abc"], "independence": [[f"a{i}", f"b{i}"]]}
                for i in range(7)}
        docs["t"] = {"kind": "monoid", "events": []}
        docs |= {f"h{i}": {"kind": "hom", "source": f"m{i}", "target": "t", "image": dict.fromkeys(docs[f"m{i}"]["events"])}
                 for i in range(7)}
        docs["star"] = {"kind": "shape", "objects": ["t", *objs], "arrows": [[f"f{i}", o, "t"] for i, o in enumerate(objs)]}
        docs["d"] = {"kind": "diagram", "shape": "star", "over": "monoid", "objects": {"t": "t", **{o: f"m{i}" for i, o in enumerate(objs)}},
                     "arrows": {f"f{i}": f"h{i}" for i in range(7)}}
        bundle = tmp_path / "arms.json"
        bundle.write_text(json.dumps({"version": 1, "documents": docs}))
        start = time.perf_counter()
        rc = main(["monoid", "limit", str(bundle), "--diagram", "d"])
        seconds = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (rc, captured.out) == (1, "") and "[SizeLimit]" in captured.err
        assert "16383 generators" in captured.err and "Traceback" not in captured.err and seconds < 1

    @pytest.mark.parametrize("group, kind", [("space", "space"), ("asys", "system")])
    def test_colimit_name_clash_exits_one(self, tmp_path, capsys, group, kind):
        # "0:x@1:b" renders both the state x@1:b and x acted on by b; the
        # systems glue x@1:b, not x, to y, since y cannot do b
        docs = {
            "ma": {"kind": "monoid", "events": ["a"], "independence": []},
            "mb": {"kind": "monoid", "events": ["b"], "independence": []},
            "S": {"kind": "space", "monoid": "ma", "states": ["x", "x@1:b"], "action": {}},
            "T": {"kind": "space", "monoid": "mb", "states": ["y"], "action": {}},
            "A": {"kind": "system", "states": ["x", "x@1:b"], "initial": "x@1:b", "events": ["a"], "transitions": []},
            "B": {"kind": "system", "states": ["y"], "initial": "y", "events": ["b"], "transitions": []},
            "disc2": {"kind": "shape", "objects": ["o0", "o1"], "arrows": []},
            "space": {"kind": "diagram", "shape": "disc2", "over": "space", "objects": {"o0": "S", "o1": "T"}, "arrows": {}},
            "system": {"kind": "diagram", "shape": "disc2", "over": "system", "objects": {"o0": "A", "o1": "B"}, "arrows": {}},
        }
        bundle = tmp_path / "clash.json"
        bundle.write_text(json.dumps({"version": 1, "documents": docs}))
        rc = main([group, "colimit", str(bundle), "--diagram", kind, "--bound", "1", "--format", "json"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "[InvalidSpace]" in captured.err
        assert "'0:x@1:b'" in captured.err
        assert "Traceback" not in captured.err

    def test_iso_check(self, fixtures_dir, capsys):
        rc = main(
            [
                "iso-check",
                str(fixtures_dir / "product.json"),
                "--left",
                "ma",
                "--right",
                "mb",
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == "isomorphic"

    # a commuting square over two independent events, a relabelled copy of
    # it, two a-steps on the same four states, and a 9-event space
    ISO_DOCS = {
        "m": {"kind": "monoid", "events": ["a", "b"], "independence": [["a", "b"]]},
        "n": {"kind": "monoid", "events": ["d", "c"], "independence": [["c", "d"]]},
        "big": {"kind": "monoid", "events": list("abcdefghi"), "independence": []},
        "S": {"kind": "space", "monoid": "m", "states": ["x0", "x1", "x2", "x3"],
              "action": {"x0": {"a": "x1", "b": "x2"}, "x1": {"b": "x3"}, "x2": {"a": "x3"}}},
        "T": {"kind": "space", "monoid": "n", "states": ["y3", "y1", "y0", "y2"],
              "action": {"y0": {"c": "y2", "d": "y1"}, "y2": {"d": "y3"}, "y1": {"c": "y3"}}},
        "U": {"kind": "space", "monoid": "m", "states": ["x0", "x1", "x2", "x3"],
              "action": {"x0": {"a": "x1"}, "x2": {"a": "x3"}}},
        "B": {"kind": "space", "monoid": "big", "states": ["z"], "action": {}},
        "S12": {"kind": "space", "monoid": "m", "states": [f"x{i}" for i in range(12)], "action": {}},
        "S13": {"kind": "space", "monoid": "m", "states": [f"x{i}" for i in range(13)], "action": {}},
    }

    def _iso_check(self, tmp_path, capsys, left, right, *more):
        bundle = tmp_path / "iso.json"
        bundle.write_text(json.dumps({"version": 1, "documents": self.ISO_DOCS}))
        rc = main(["iso-check", str(bundle), "--left", left, "--right", right, *more])
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        return rc, out, err

    def test_iso_check_finds_a_relabelled_space(self, tmp_path, capsys):
        rc, out, err = self._iso_check(tmp_path, capsys, "S", "T")
        assert (rc, out, err) == (0, "isomorphic\n", "")
        rc, out, _ = self._iso_check(tmp_path, capsys, "S", "T", "--format", "json")
        summary = json.loads(out)["summary"]
        assert rc == 0 and summary["isomorphic"]
        emap, smap = summary["events"], summary["states"]
        left, right = self.ISO_DOCS["S"], self.ISO_DOCS["T"]
        assert sorted(emap.values()) == ["c", "d"] and sorted(smap) == sorted(left["states"])
        assert sorted(smap.values()) == sorted(right["states"])
        moved = {(smap[x], emap[e]): smap[y] for x, row in left["action"].items() for e, y in row.items()}
        assert moved == {(x, e): y for x, row in right["action"].items() for e, y in row.items()}

    def test_iso_check_tells_spaces_of_one_size_apart(self, tmp_path, capsys):
        assert self._iso_check(tmp_path, capsys, "S", "U") == (0, "not isomorphic\n", "")

    def test_iso_check_of_a_monoid_and_a_space_exits_two(self, tmp_path, capsys):
        rc, out, err = self._iso_check(tmp_path, capsys, "m", "S")
        assert (rc, out) == (2, "") and "[SchemaError]" in err

    def test_iso_check_of_a_space_over_nine_events_exits_one(self, tmp_path, capsys):
        rc, out, err = self._iso_check(tmp_path, capsys, "B", "B")
        assert (rc, out) == (1, "") and "[SizeLimit]" in err

    def test_iso_check_of_spaces_of_other_sizes_answers_in_either_order(self, tmp_path, capsys):
        # 13 states are over the search's limit, but sizes that differ answer first
        for left, right in (("S12", "S13"), ("S13", "S12")):
            assert self._iso_check(tmp_path, capsys, left, right) == (0, "not isomorphic\n", "")
        rc, out, err = self._iso_check(tmp_path, capsys, "S13", "S13")
        assert (rc, out) == (1, "") and "[SizeLimit]" in err

    def _cycle_check(self, tmp_path, capsys, left, right):
        spaces = {"C12": cycle_space(8, [12]), "C66": cycle_space(8, [6, 6]), "C12x5": cycle_space(8, [12], last=5)}
        docs = {"e8": ix.monoid_doc(spaces["C12"].monoid), **{n: ix.space_doc(x, "e8") for n, x in spaces.items()}}
        bundle = tmp_path / "cycles.json"
        bundle.write_text(json.dumps({"version": 1, "documents": docs}))
        start = time.perf_counter()
        rc = main(["iso-check", str(bundle), "--left", left, "--right", right])
        seconds = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert "Traceback" not in err and seconds < 1
        return rc, out, err

    def test_iso_check_tells_a_cycle_from_two_halves(self, tmp_path, capsys):
        assert self._cycle_check(tmp_path, capsys, "C12", "C66") == (0, "not isomorphic\n", "")

    def test_iso_check_of_interchangeable_events_ends(self, tmp_path, capsys):
        rc, out, err = self._cycle_check(tmp_path, capsys, "C12", "C12x5")
        assert (rc, out, err) == (0, "not isomorphic\n", "") or ((rc, out) == (1, "") and "[SizeLimit]" in err)


class TestEntryPoint:
    """The installed ``asyntrace`` script runs ``asyntrace.cli:main`` in a
    process of its own; these run the same code that way."""

    ROOT = pathlib.Path(__file__).resolve().parent.parent

    def _run(self, *argv):
        path = os.pathsep.join(filter(None, [str(self.ROOT / "src"), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        return subprocess.run(
            [sys.executable, *argv], capture_output=True, cwd=self.ROOT, env=env, timeout=60
        )

    def test_module_run_matches_in_process_main(self, fixtures_dir, capsys):
        argv = ["normalize", str(fixtures_dir / "mutex.json"), "--monoid", "mutex",
                "--word", "adecc", "--format", "json"]
        rc = main(argv)
        out = capsys.readouterr().out
        proc = self._run("-m", "asyntrace.cli", *argv)
        assert (proc.returncode, proc.stdout) == (rc, out.encode())
        assert rc == 0

    def test_worked_examples_script_exits_zero(self):
        proc = self._run("scripts/worked_examples.py")
        assert proc.returncode == 0, proc.stderr.decode()
