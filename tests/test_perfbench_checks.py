"""The benchmark's correctness checkers pass their own self-test, and one
seeded round of each workload passes them, so a broken checker or a broken
output fails the test run rather than the benchmark."""

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
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    jobs = workloads.build(workload, 1, tmp_path, ROOT)
    assert jobs
    for job in jobs:
        job.check(job.call())
