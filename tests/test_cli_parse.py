"""How ``cli.main`` parses a command line: a line whose first words name a
row of ``COMMANDS`` goes straight to that row's own parser, and must come
out exactly as the whole argparse tree parses it, in its namespace, its
exit code and its help, usage and error text."""

from __future__ import annotations

import contextlib
import io
import json

import pytest

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
    assert _outcome(cli._parse, argv) == _outcome(cli._parsers()[0].parse_args, argv)


def test_a_command_line_is_parsed_by_its_own_parser_only(tmp_path, monkeypatch, capsys):
    docs = {
        "m": {"kind": "monoid", "events": ["a", "b"], "independence": [["a", "b"]]},
        "n": {"kind": "monoid", "events": ["c"], "independence": []},
        "disc2": {"kind": "shape", "objects": ["o0", "o1"], "arrows": []},
        "d": {"kind": "diagram", "shape": "disc2", "over": "monoid", "objects": {"o0": "m", "o1": "n"}, "arrows": {}},
    }
    bundle = tmp_path / "b.json"
    bundle.write_text(json.dumps({"version": 1, "documents": docs}))
    top = cli._parsers()[0]

    def refuse(*args, **kwargs):
        raise AssertionError("the top parser parsed a well-formed command line")

    monkeypatch.setattr(top, "parse_args", refuse)
    monkeypatch.setattr(top, "parse_known_args", refuse)
    assert cli.main(["monoid", "limit", str(bundle), "--diagram", "d", "--format", "json"]) == 0
    assert "(a,c)" in json.loads(capsys.readouterr().out)["summary"]["events"]
