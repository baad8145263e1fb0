"""Mutated fixtures never crash the CLI.

Hypothesis takes one of the four fixtures, applies one to three mutations
anywhere in its JSON tree (a dropped field or entry, a value of the wrong
type, an entry of the wrong arity, ``*`` as a name or key, a duplicated
entry) and runs on it, in-process, one of the golden-digest commands that
succeed on the unmutated fixture.  Every run must end with exit 0, 1 or 2,
a non-zero exit must carry a coded error (``[Code]``) on stderr, and nothing
may print a traceback.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re

from hypothesis import given, settings, strategies as st

from asyntrace import cli
from test_cli_golden import CASES, FIXTURE_FILES, FIXTURES, GOLDEN

CODED = re.compile(r"^asyntrace: error \[[A-Za-z]+\]: ", re.M)
WRONG_TYPES = (None, 0, 1.5, True, "x", [], {}, ["a"], [["a", "b"]], {"a": "b"})
MUTATIONS = ("drop", "type", "arity", "star", "duplicate")
SUCCEEDING = {label for label, digest in json.loads(GOLDEN.read_text()).items() if digest["exit"] == 0}


def _slots(node):
    """Every (container, key) under ``node``, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


def _mutate(draw, raw) -> None:
    container, key = draw(st.sampled_from(list(_slots(raw))))
    value = container[key]
    how = draw(st.sampled_from(MUTATIONS))
    if how == "drop":
        del container[key]
    elif how == "type":
        container[key] = copy.deepcopy(draw(st.sampled_from(WRONG_TYPES)))
    elif how == "arity":
        if isinstance(value, list) and value and draw(st.booleans()):
            value.pop()
        elif isinstance(value, list):
            value.append(copy.deepcopy(value[-1]) if value else "a")
        else:
            container[key] = [value]
    elif how == "star":
        if isinstance(container, dict) and draw(st.booleans()):
            container["*"] = container.pop(key)
        else:
            container[key] = "*"
    elif isinstance(container, list):
        container.insert(key, copy.deepcopy(value))
    else:
        container[key] = [copy.deepcopy(value), copy.deepcopy(value)]


@st.composite
def mutated_runs(draw):
    fixture = draw(st.sampled_from(FIXTURE_FILES))
    raw = json.loads((FIXTURES / fixture).read_text())
    for _ in range(draw(st.integers(1, 3))):
        if raw:
            _mutate(draw, raw)
    argv = draw(st.sampled_from([argv for label, argv in CASES if label in SUCCEEDING and fixture in label.split()]))
    return raw, argv


@settings(max_examples=200, deadline=None)
@given(mutated_runs())
def test_mutated_fixtures_end_in_a_coded_exit(tmp_path_factory, run):
    raw, argv = run
    path = tmp_path_factory.mktemp("fuzz") / "bundle.json"
    path.write_text(json.dumps(raw))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(path) if a == "{fixture}" else a for a in argv])
    stderr = err.getvalue()
    assert rc in (0, 1, 2)
    assert "Traceback" not in stderr
    if rc:
        assert CODED.search(stderr), stderr
