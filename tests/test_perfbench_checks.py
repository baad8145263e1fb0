"""The benchmark's correctness checkers pass their own self-test, one seeded
round of each workload passes them and writes every payload as ``json.dumps``
would, and every name the tracer wraps exists, so a broken checker, a broken
output or a deleted traced name fails the test run rather than the
benchmark."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent


def test_checks_self_test_passes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "perfbench/checks.py"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "checks self-test: ok" in proc.stdout


@pytest.mark.parametrize("workload", ["words", "constructions", "colimits"])
def test_one_round_passes_its_checks(workload, tmp_path, monkeypatch):
    """Also: every payload the round hands ``interchange.dumps`` is written as
    ``json.dumps`` writes it (``words`` writes none)."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import oracles
    import workloads
    from asyntrace import interchange

    payloads = []
    dumps = interchange.dumps

    def capture(payload):
        payloads.append(payload)
        return dumps(payload)

    monkeypatch.setattr(interchange, "dumps", capture)
    jobs = workloads.build(workload, 1, tmp_path, ROOT)
    assert jobs
    for job in jobs:
        job.check(job.call())
    assert bool(payloads) == (workload != "words")
    for payload in payloads:
        assert dumps(payload) == oracles.reference_dumps(payload)


def test_traced_names_resolve(monkeypatch):
    """Every name the tracer wraps exists, so a refactor that deletes one
    fails here and not first in a traced benchmark run."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer

    for layer, names in tracer.SPANS.items():
        module = importlib.import_module("asyntrace." + layer)
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    for layer, cls_name, meth in tracer.COUNTED_METHODS:
        cls = getattr(importlib.import_module("asyntrace." + layer), cls_name)
        assert meth in vars(cls), f"{layer}.{cls_name}.{meth}"
    spans = {f"{layer}.{name}" for layer, names in tracer.SPANS.items() for name in names}
    assert set(tracer.WORK) <= spans
