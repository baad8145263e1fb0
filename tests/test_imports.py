"""No module of the package imports a name that it never uses, and none
defines private code that nothing reads.

The checks read each module's syntax tree with the standard library: a name
bound by an ``import`` counts as used when the module reads it as a name
(an attribute's base included) or lists it in ``__all__``.  A private
function, method or class, one whose name has one leading underscore,
counts as used when some module of the package reads its name, as a name
or as an attribute.

A cold start of the command line, in a fresh interpreter, loads neither
``dataclasses`` nor ``inspect``: each costs milliseconds on every one-shot
call.  A well-formed call loads no ``argparse`` either, while a malformed
one still gets argparse's own usage error.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import asyntrace
from asyntrace import cli

MODULES = sorted(Path(asyntrace.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read - exported)


def unread_private_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private function, method or class that one of
    ``sources`` (module name -> source) defines and none of them reads, sorted."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, definitions) and node.name[:1] == "_" and node.name[1:2] != "_" and node.name not in read
    )


def test_the_check_finds_an_unused_import():
    source = "import os.path\nimport sys\nfrom a import b as c, d\nfrom __future__ import annotations\n"
    source += "__all__ = ['d']\nc(sys.argv)\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_unread_private_code():
    sources = {
        "a": "def _used(): pass\ndef _unused(): pass\nclass _C:\n    def _m(self): pass\n    def __init__(self): pass\n",
        "b": "import a\na._used()\nx = _C\n",
    }
    assert unread_private_definitions(sources) == ["a._m", "a._unused"]


def test_no_unread_private_code():
    assert unread_private_definitions({path.stem: path.read_text() for path in MODULES}) == []


def test_cold_start_loads_no_dataclasses_nor_inspect():
    code = "import sys, asyntrace.cli; asyntrace.cli.build_parser(); print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(asyntrace.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_a_well_formed_call_loads_no_argparse(fixtures_dir, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code = ("import sys; from asyntrace import cli; rc = cli.main(sys.argv[1:]); "
            "print('argparse' in sys.modules, file=sys.stderr); sys.exit(rc)")
    env = {**os.environ, "PYTHONPATH": str(Path(asyntrace.__file__).parent.parent)}
    argv = ["monoid", "product", str(fixtures_dir / "product.json"), "--objects", "ma", "mb"]
    run = [subprocess.run([sys.executable, "-c", code, *line], env=env, capture_output=True, text=True)
           for line in (argv, argv + ["--format", "xml"])]
    assert (run[0].returncode, run[0].stderr) == (0, "False\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit):
        cli._tree().parse_args(argv + ["--format", "xml"])
    assert "invalid choice: 'xml'" in err.getvalue()
    assert (run[1].returncode, run[1].stderr) == (2, err.getvalue())
