"""CLI golden digests: every command on every fixture, in text and JSON,
and argparse's own help and usage-error output.

Each case runs ``cli.main`` in-process and compares the SHA-256 of its
stdout, the SHA-256 of its stderr and its exit code (the code of argparse's
``SystemExit`` where it exits) with the values stored in
``tests/data/cli_golden.json``.  A command is given the first documents
of the kinds it needs from the fixture, or, where the fixture has none of
that kind, its first document, so that wrong-kind and missing-document
errors are pinned too.  Help text is wrapped to ``COLUMNS=80``; its digests
hold for the argparse of the Python that captured them (3.11).

Every ``--format json`` case that exits 0 is also re-parsed with
``interchange.parse`` and checked against the same construction run
in-process, and a bundle whose inputs are named like the output's own
documents (``result``, ``proj_0``, ...) checks that no document is
overwritten and that each morphism names its own endpoints.

Regenerate the digests (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
from unittest import mock

import pytest

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.json"
FIXTURE_FILES = ("coequalizer.json", "mutex.json", "product.json", "systems.json")

# command words, then (option, document kind or literal) pairs; an option of
# "--objects" takes two documents of the kind
COMMANDS = (
    (("normalize",), (("--monoid", "monoid"), ("--word", "=abca"))),
    (("equiv",), (("--monoid", "monoid"), ("--left", "=abca"), ("--right", "=baac"))),
    (("hom-check",), (("--hom", "hom"),)),
    (("radjoint",), (("--table", "monoid_table"),)),
    (("iso-check",), (("--left", "monoid"), ("--right", "monoid"))),
    (("monoid", "product"), (("--objects", "monoid"),)),
    (("monoid", "coproduct"), (("--objects", "monoid"),)),
    (("monoid", "equalize"), (("--left", "hom"), ("--right", "hom"))),
    (("monoid", "coequalize"), (("--left", "hom"), ("--right", "hom"))),
    (("monoid", "limit"), (("--diagram", "diagram"),)),
    (("monoid", "colimit"), (("--diagram", "diagram"),)),
    (("space", "product"), (("--objects", "space"),)),
    (("space", "equalize"), (("--left", "space_morphism"), ("--right", "space_morphism"))),
    (("space", "limit"), (("--diagram", "diagram"),)),
    (("space", "colimit"), (("--diagram", "diagram"), ("--bound", "=3"))),
    (("asys", "validate"), (("--system", "system"),)),
    (("asys", "classify"), (("--system", "system"),)),
    (("asys", "reach"), (("--system", "system"),)),
    (("asys", "unfold"), (("--system", "system"), ("--depth", "=3"))),
    (("asys", "morphism-check"), (("--morphism", "system_morphism"),)),
    (("asys", "polygonal-check"), (("--morphism", "system_morphism"),)),
    (("asys", "product"), (("--objects", "system"),)),
    (("asys", "limit"), (("--diagram", "diagram"),)),
    (("asys", "colimit"), (("--diagram", "diagram"), ("--bound", "=3"))),
)

# commands that take --category; the asys constructions live in FPCM_PAR
# and take none
CATEGORIES = {"hom-check", "product", "coproduct", "equalize", "coequalize", "limit", "colimit"}

# argparse's own exits: (label, argv); "{fixture}" is systems.json, which
# argparse never opens
USAGE_ERRORS = (
    ("usage no command", []),
    ("usage monoid no subcommand", ["monoid"]),
    ("usage space no subcommand", ["space"]),
    ("usage asys no subcommand", ["asys"]),
    ("usage unknown command", ["bogus"]),
    ("usage monoid unknown subcommand", ["monoid", "bogus", "{fixture}"]),
    ("usage space unknown subcommand", ["space", "bogus", "{fixture}"]),
    ("usage asys unknown subcommand", ["asys", "bogus", "{fixture}"]),
    ("usage normalize missing bundle", ["normalize", "--monoid", "m", "--word", "a"]),
    ("usage equiv missing options", ["equiv", "{fixture}"]),
    ("usage monoid product missing --objects", ["monoid", "product", "{fixture}"]),
    ("usage space limit missing --diagram", ["space", "limit", "{fixture}"]),
    ("usage asys colimit missing --diagram", ["asys", "colimit", "{fixture}", "--bound", "3"]),
    ("usage asys unfold missing --depth", ["asys", "unfold", "{fixture}", "--system", "A"]),
    ("usage normalize bad --format", ["normalize", "{fixture}", "--monoid", "m", "--word", "a", "--format", "xml"]),
    ("usage monoid product bad --category", ["monoid", "product", "{fixture}", "--objects", "A", "--category", "par"]),
    ("usage asys product bad --category", ["asys", "product", "{fixture}", "--objects", "A", "--category", "par"]),
    ("usage space colimit non-integer --bound", ["space", "colimit", "{fixture}", "--diagram", "pair", "--bound", "x"]),
    ("usage asys colimit non-integer --bound", ["asys", "colimit", "{fixture}", "--diagram", "pair", "--bound", "3.5"]),
    ("usage asys unfold non-integer --depth", ["asys", "unfold", "{fixture}", "--system", "A", "--depth", "x"]),
    ("usage normalize unknown option", ["normalize", "{fixture}", "--monoid", "m", "--word", "a", "--bogus"]),
    ("usage asys reach takes no --category", ["asys", "reach", "{fixture}", "--system", "A", "--category", "fpcm"]),
    ("usage monoid colimit takes no --bound", ["monoid", "colimit", "{fixture}", "--diagram", "pair", "--bound", "3"]),
)


def _names_by_kind(fixture: str) -> tuple[dict, str]:
    docs = json.loads((FIXTURES / fixture).read_text())["documents"]
    by_kind: dict = {}
    for name, doc in docs.items():
        by_kind.setdefault(doc["kind"], []).append(name)
    return by_kind, next(iter(docs))


def cases() -> list[tuple[str, list[str]]]:
    """(case id, argv with ``{fixture}`` standing for the bundle path)."""
    out = []
    for fixture in FIXTURE_FILES:
        by_kind, first = _names_by_kind(fixture)
        for words, opts in COMMANDS:
            base = list(words) + ["{fixture}"]
            for opt, want in opts:
                if want.startswith("="):
                    base += [opt, want[1:]]
                    continue
                names = by_kind.get(want, [first])
                if opt == "--objects":
                    base += [opt, names[0], names[-1]]
                else:
                    # a pair of options takes the first and the last name
                    pick = names[-1] if opt == "--right" else names[0]
                    base += [opt, pick]
            cats = ("fpcm", "fpcm-par") if words[-1] in CATEGORIES and words[0] != "asys" else (None,)
            for cat in cats:
                for fmt in ("text", "json"):
                    argv = base + (["--category", cat] if cat else []) + ["--format", fmt]
                    label = " ".join(words) + f" {fixture}" + (f" {cat}" if cat else "") + f" {fmt}"
                    out.append((label, argv))
    helps = [()]
    for words, _ in COMMANDS:
        if len(words) == 2 and words[:1] not in helps:
            helps.append(words[:1])
        helps.append(words)
    out.extend((" ".join(words + ("--help",)), list(words) + ["--help"]) for words in helps)
    out.extend((label, list(argv)) for label, argv in USAGE_ERRORS)
    return out


def call(argv: list[str], fixture_path: str) -> tuple[int, str, str]:
    """``cli.main`` on ``argv``: its exit code, stdout and stderr."""
    from asyntrace import cli

    argv = [fixture_path if a == "{fixture}" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse's --help and usage errors
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def run(argv: list[str], fixture_path: str) -> dict:
    rc, out, err = call(argv, fixture_path)
    return {
        "stdout": hashlib.sha256(out.encode()).hexdigest(),
        "stderr": hashlib.sha256(err.encode()).hexdigest(),
        "exit": rc,
    }


def _fixture_of(label: str) -> str:
    return str(FIXTURES / next((f for f in FIXTURE_FILES if f in label.split()), "systems.json"))


CASES = cases()


def test_golden_covers_every_case():
    stored = json.loads(GOLDEN.read_text())
    assert sorted(stored) == sorted(label for label, _ in CASES)


@pytest.mark.parametrize("label, argv", CASES, ids=[label for label, _ in CASES])
def test_cli_output_matches_golden(label, argv):
    stored = json.loads(GOLDEN.read_text())
    assert run(argv, _fixture_of(label)) == stored[label]


def test_repeated_calls_in_one_process_leak_no_state():
    # every case in reverse order, each followed by a usage error that
    # leaves argparse mid-parse, in one process: a parser or handler that
    # kept state from an earlier call would change some digest
    stored = json.loads(GOLDEN.read_text())
    errors = [(label, argv) for label, argv in CASES if label.startswith("usage ")]
    for i, (label, argv) in enumerate(reversed(CASES)):
        assert run(argv, _fixture_of(label)) == stored[label], label
        err_label, err_argv = errors[i % len(errors)]
        assert run(err_argv, _fixture_of(err_label)) == stored[err_label], err_label


def test_output_file_holds_the_stdout_bytes(tmp_path):
    label = "asys product systems.json json"
    argv, path = dict(CASES)[label], tmp_path / "out.json"
    got = run(argv + ["--output", str(path)], _fixture_of(label))
    empty = hashlib.sha256(b"").hexdigest()
    want = json.loads(GOLDEN.read_text())[label]
    assert got == {"stdout": empty, "stderr": want["stderr"], "exit": 0}
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want["stdout"]


def reparse(argv: list[str], fixture_path: str):
    """Run ``argv`` (a ``--format json`` construction that exits 0), re-parse
    its output, and check it against the same construction run in-process:
    ``result`` is the result, each morphism is under its name, its source
    and target name documents equal to its endpoints, and every
    ``--objects`` input is in the bundle.  Returns the output documents, as
    written and as parsed."""
    from asyntrace import cli, interchange

    rc, text, err = call(argv, fixture_path)
    assert (rc, err) == (0, "")
    parsed = interchange.parse(text)
    args = cli._tree().parse_args([fixture_path if a == "{fixture}" else a for a in argv])
    bundle = interchange.parse_file(args.bundle)
    inputs = cli._inputs(args.cmd, args, bundle) if args.cmd.options in cli.STYLES else (bundle,)
    out = args.cmd.handler(args, *inputs)
    docs = json.loads(text)["documents"]
    if out.result is None:
        assert docs == {}
        return docs, parsed
    assert parsed.get("result") == out.result
    for name, m in out.morphisms:
        assert parsed.get(name) == m, name
        assert parsed.get(docs[name]["source"]) == m.source, name
        assert parsed.get(docs[name]["target"]) == m.target, name
    if args.cmd.options == "objects":
        for obj in inputs[0]:
            assert obj in parsed.documents.values()
    return docs, parsed


JSON_OK = [(label, argv) for label, argv in CASES
           if label.endswith(" json") and json.loads(GOLDEN.read_text())[label]["exit"] == 0]


@pytest.mark.parametrize("label, argv", JSON_OK, ids=[label for label, _ in JSON_OK])
def test_json_output_reparses(label, argv):
    reparse(argv, _fixture_of(label))


# inputs named like the output's own documents, and a monoid with no events,
# whose product with nothing else equals it
COLLISIONS = {
    "result": {"kind": "monoid", "events": ["a", "b"], "independence": [["a", "b"]]},
    "proj_0": {"kind": "monoid", "events": ["c"], "independence": []},
    "inj_1": {"kind": "monoid", "events": ["d"], "independence": []},
    "e": {"kind": "monoid", "events": [], "independence": []},
    "result_monoid": {"kind": "space", "monoid": "proj_0", "states": ["x", "y"], "action": {"x": {"c": "y"}}},
    "proj_1": {"kind": "space", "monoid": "inj_1", "states": ["u"], "action": {"u": {"d": "u"}}},
    "sys_result": {"kind": "system", "states": ["p0", "p1"], "initial": "p0", "events": ["a"],
                   "independence": [], "transitions": [["p0", "a", "p1"]]},
    "proj_o0": {"kind": "system", "states": ["q0"], "initial": "q0", "events": ["b"],
                 "independence": [], "transitions": [["q0", "b", "q0"]]},
}


@pytest.mark.parametrize(
    "argv, inputs, morphisms",
    [
        (["monoid", "product", "--objects", "result", "proj_0"],
         {"result": "result_2", "proj_0": "proj_0_2"},
         {"proj_0": ("result", "result_2"), "proj_1": ("result", "proj_0_2")}),
        (["monoid", "coproduct", "--objects", "inj_1", "result"],
         {"inj_1": "inj_1_2", "result": "result_2"},
         {"inj_0": ("inj_1_2", "result"), "inj_1": ("result_2", "result")}),
        (["monoid", "product", "--objects", "e"], {"e": "e"}, {"proj_0": ("result", "e")}),
        (["space", "product", "--objects", "result_monoid", "proj_1"],
         {"result_monoid": "result_monoid", "proj_1": "proj_1_2"},
         {"proj_0": ("result", "result_monoid"), "proj_1": ("result", "proj_1_2")}),
        (["asys", "product", "--objects", "sys_result", "proj_o0"],
         {"sys_result": "sys_result", "proj_o0": "proj_o0_2"},
         {"proj_o0": ("result", "sys_result"), "proj_o1": ("result", "proj_o0_2")}),
    ],
    ids=["monoid product", "monoid coproduct", "monoid product of an empty monoid", "space product", "asys product"],
)
def test_output_names_never_collide(tmp_path, argv, inputs, morphisms):
    from asyntrace import interchange

    path = tmp_path / "collisions.json"
    path.write_text(json.dumps({"version": 1, "documents": COLLISIONS}))
    docs, written = reparse(argv[:2] + ["{fixture}"] + argv[2:] + ["--format", "json"], str(path))
    assert {name: (docs[name]["source"], docs[name]["target"]) for name in morphisms} == morphisms
    given = interchange.parse_file(path)
    for name, out_name in inputs.items():
        assert written.get(out_name) == given.get(name)


if __name__ == "__main__":
    digests = {label: run(argv, _fixture_of(label)) for label, argv in CASES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    codes = [d["exit"] for d in digests.values()]
    sys.stdout.write(f"{len(digests)} cases: " + ", ".join(f"exit {c}: {codes.count(c)}" for c in sorted(set(codes))) + "\n")
