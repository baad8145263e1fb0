import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from asyntrace import interchange as ix, state_space
from asyntrace.cli import main, parse_word
from asyntrace.errors import (
    DanglingReference,
    ParseError,
    SchemaError,
)
from asyntrace.trace_core import STAR, free_monoid, make_monoid

import oracles


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
            "tbl": ix.table_doc(b.get("tbl")),
        }
        b2 = ix.parse(json.dumps({"version": 1, "documents": docs}))
        assert b2.get("shape") == b.get("shape")
        assert b2.get("tbl") == b.get("tbl")


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


def _nest(rows, wrappers):
    for w in wrappers:
        rows = {"k": rows} if w else [rows]
    return rows


# a list of rows at least 6 containers deep
DEEP_ROWS = st.builds(_nest, ROWS, st.lists(st.booleans(), min_size=6, max_size=8))
TREES = st.recursive(
    SCALARS | st.lists(STRS, max_size=4) | ROWS | DEEP_ROWS,
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
        real = state_space.saturate

        def spy(p, bound):
            results.append(real(p, bound))
            return results[-1]

        monkeypatch.setattr(state_space, "saturate", spy)
        argv = ["asys", "colimit", str(fixtures_dir / "systems.json"), "--diagram", "pair", "--bound", "2"]
        assert main([*argv, "--format", "json"]) == 0
        frontier = json.loads(capsys.readouterr().out)["summary"]["frontier"]
        [sat] = results
        assert "frontier" not in vars(sat)
        assert frontier == [state_space.term_name(t) for t in sat.frontier] and frontier

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
