"""CLI golden digests: every command on every fixture, in text and JSON.

Each case runs ``cli.main`` in-process and compares the SHA-256 of its
stdout, the SHA-256 of its stderr and its exit code with the values stored
in ``tests/data/cli_golden.json``.  A command is given the first documents
of the kinds it needs from the fixture, or, where the fixture has none of
that kind, its first document, so that wrong-kind and missing-document
errors are pinned too.

Regenerate the digests (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys

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

CATEGORIES = {"hom-check", "product", "coproduct", "equalize", "coequalize", "limit", "colimit"}


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
            cats = ("fpcm", "fpcm-par") if words[-1] in CATEGORIES else (None,)
            for cat in cats:
                for fmt in ("text", "json"):
                    argv = base + (["--category", cat] if cat else []) + ["--format", fmt]
                    label = " ".join(words) + f" {fixture}" + (f" {cat}" if cat else "") + f" {fmt}"
                    out.append((label, argv))
    return out


def run(argv: list[str], fixture_path: str) -> dict:
    from asyntrace import cli

    argv = [fixture_path if a == "{fixture}" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return {
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
        "exit": rc,
    }


def _fixture_of(label: str) -> str:
    return str(FIXTURES / next(f for f in FIXTURE_FILES if f in label.split()))


CASES = cases()


def test_golden_covers_every_case():
    stored = json.loads(GOLDEN.read_text())
    assert sorted(stored) == sorted(label for label, _ in CASES)


@pytest.mark.parametrize("label, argv", CASES, ids=[label for label, _ in CASES])
def test_cli_output_matches_golden(label, argv):
    stored = json.loads(GOLDEN.read_text())
    assert run(argv, _fixture_of(label)) == stored[label]


if __name__ == "__main__":
    digests = {label: run(argv, _fixture_of(label)) for label, argv in CASES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    codes = [d["exit"] for d in digests.values()]
    sys.stdout.write(f"{len(digests)} cases: " + ", ".join(f"exit {c}: {codes.count(c)}" for c in sorted(set(codes))) + "\n")
