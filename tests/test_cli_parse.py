"""How ``cli.main`` parses a command line: ``cli._scan`` takes a
well-formed line against its row's options alone, without building the
argparse tree, and hands every other line to the tree.  Either way the line
must come out exactly as the tree parses it, in its namespace, its exit
code and its help, usage and error text: on 17 shapes of line per row, and
on random lines of a row's words, option names, abbreviations, ``--``,
``-h``, ``--format=json`` and values that argparse's ``int`` reads in ways
the scan must match."""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyntrace import cli


VALUES = {"--category": ["fpcm-par"], "--objects": ["x", "y"], "--bound": ["3"], "--depth": ["2"]}


def _full(cmd: cli.Command) -> list[str]:
    """A well-formed command line for ``cmd``, its bundle first."""
    argv = list(cmd.words) + ["b.json"]
    names = (("--category",) if cmd.category else ()) + cli.STYLES.get(cmd.options, cmd.options) + cmd.extra
    for name in names:
        argv += [name, *VALUES.get(name, ["x"])]
    return argv


def _shapes(cmd: cli.Command) -> list[list[str]]:
    words, full = list(cmd.words), _full(cmd)
    opts = full[len(words) + 1 :]  # the options after the bundle
    return [
        full,
        words,
        words + ["-h"],
        words + ["--help"],
        words + ["b.json"],
        full + ["--format=json"],
        full + ["--form", "json"],
        words + opts[:2] + ["b.json"] + opts[2:],
        full + ["extra"],
        full + ["--bogus"],
        full + ["--format", "xml"],
        full + ["--format", "json", "--format", "text"],
        full + ["--objects"],
        words + ["--", "b.json"] + opts,
        words + ["b.json", "--"] + opts,
        full + ["--category", "par"],
        full + ["--bound", "x"],
    ]


LINES = [argv for cmd in cli.COMMANDS for argv in _shapes(cmd)] + [
    [],
    ["-h"],
    ["bogus"],
    ["monoid"],
    ["monoid", "-h"],
    ["monoid", "bogus", "b.json"],
]


def _outcome(parse, argv):
    """``parse(argv)``: the namespace (its command by its words), the exit
    code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    ns, code = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns = vars(parse(list(argv)))
        except SystemExit as exc:
            code = exc.code
    if ns is not None:
        ns["cmd"] = ns["cmd"].words
    return ns, code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", LINES, ids=[" ".join(argv) or "(empty)" for argv in LINES])
def test_parsing_matches_the_tree(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _outcome(cli._parse, argv) == _outcome(cli._tree().parse_args, argv)


def test_a_command_line_is_parsed_by_its_own_parser_only(tmp_path, monkeypatch, capsys):
    docs = {
        "m": {"kind": "monoid", "events": ["a", "b"], "independence": [["a", "b"]]},
        "n": {"kind": "monoid", "events": ["c"], "independence": []},
        "disc2": {"kind": "shape", "objects": ["o0", "o1"], "arrows": []},
        "d": {"kind": "diagram", "shape": "disc2", "over": "monoid", "objects": {"o0": "m", "o1": "n"}, "arrows": {}},
    }
    bundle = tmp_path / "b.json"
    bundle.write_text(json.dumps({"version": 1, "documents": docs}))
    top = cli._tree()

    def refuse(*args, **kwargs):
        raise AssertionError("the top parser parsed a well-formed command line")

    monkeypatch.setattr(top, "parse_args", refuse)
    monkeypatch.setattr(top, "parse_known_args", refuse)
    assert cli.main(["monoid", "limit", str(bundle), "--diagram", "d", "--format", "json"]) == 0
    assert "(a,c)" in json.loads(capsys.readouterr().out)["summary"]["events"]


def test_a_well_formed_line_never_builds_the_tree(monkeypatch):
    lines = [argv for cmd in cli.COMMANDS for argv in (_full(cmd), _full(cmd) + ["--format", "json", "--output", "o"])]
    want = [_outcome(cli._tree().parse_args, argv) for argv in lines]

    def refuse():
        raise AssertionError("a well-formed command line reached the argparse tree")

    monkeypatch.setattr(cli, "_tree", refuse)
    assert [_outcome(cli._parse, argv) for argv in lines] == want


ODD = ["--", "-h", "--help", "--format=json"]
INTS = ["3", "03", "+3", "3_0", " 3", "\u0663"]  # each of them int() reads as 3
GOOD = {"--format": ["json", "text"], "--category": ["fpcm", "fpcm-par"], "--bound": INTS, "--depth": INTS}
BAD = ["", "-1", "xml", "x", "b.json"]
ONE = [1, 1, 1, 1, 1, 0, 2]  # how many: mostly one


@st.composite
def command_lines(draw) -> list[str]:
    """A row's words, then bundles and options of the row in any order, each
    option followed by values that fit it or not; now and then an option is
    left out, repeated, abbreviated or one of ``ODD``."""
    cmd = draw(st.sampled_from(cli.COMMANDS))
    row = list(cli._options(cmd))
    names = draw(st.permutations(row))[draw(st.sampled_from([0, 0, 0, 1, 2])) :]
    extra = row + ODD + [n[:k] for n in row for k in (3, len(n) - 1)]
    names += draw(st.lists(st.sampled_from(extra), max_size=draw(st.sampled_from([0, 0, 1, 2]))))
    values = {name: st.sampled_from(GOOD.get(name, ["x", "y"]) * 3 + BAD) for name in names}
    groups = [[name, *(draw(values[name]) for _ in range(draw(st.sampled_from(ONE))))] for name in names]
    groups += [["b.json"]] * draw(st.sampled_from(ONE))
    return list(cmd.words) + [word for group in draw(st.permutations(groups)) for word in group]


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_random_lines_parse_as_the_tree_parses_them(argv):
    assert _outcome(cli._parse, argv) == _outcome(cli._tree().parse_args, argv)
