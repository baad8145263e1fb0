"""The statistics of ``scripts/bench_pairs.py`` on hand-made numbers, its
run over several workloads with ``run_once`` stubbed, ``run_once`` on
stubbed child output, and its refusal to compare checkouts whose
benchmarks differ; no benchmark runs here."""

import importlib.util
import json
import pathlib
import subprocess

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_quartiles_are_the_inclusive_method():
    assert bench_pairs.quartiles([1, 2, 3, 4, 5]) == {"q1": 2, "median": 3, "q3": 4}
    # 10 runs: positions 3.25, 5.5 and 7.75 of the sorted list, counted from 1
    assert bench_pairs.quartiles([10, 1, 9, 2, 8, 3, 7, 4, 6, 5]) == {"q1": 3.25, "median": 5.5, "q3": 7.75}


PARENT = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # q1 102.25, median 104.5, q3 106.75


def test_gain_rule_met_on_nine_wins_and_a_gain_past_the_spread():
    change = [p + 10 for p in PARENT[:9]] + [PARENT[9] - 1]
    v = bench_pairs.judge(PARENT, change, "higher", 0.2)
    assert (v["change_wins"], v["change_losses"]) == (9, 1)
    assert v["parent"] == {"q1": 102.25, "median": 104.5, "q3": 106.75}
    assert v["gain_rule_met"] and not v["regression_beyond_bound"] and not v["spread_wider_than_bound"]


def test_gain_rule_not_met_on_eight_wins():
    change = [p + 10 for p in PARENT[:8]] + [p - 1 for p in PARENT[8:]]
    v = bench_pairs.judge(PARENT, change, "higher", 0.2)
    assert v["change_wins"] == 8 and not v["gain_rule_met"]


def test_gain_rule_not_met_when_the_gain_is_inside_the_parents_spread():
    # every pair won, but the median moves by 4 and the parent's IQR is 4.5
    v = bench_pairs.judge(PARENT, [p + 4 for p in PARENT], "higher", 0.2)
    assert v["change_wins"] == 10 and not v["gain_rule_met"]


def test_lower_is_better_and_ties_count_for_neither():
    change = [p - 10 for p in PARENT[:9]] + [PARENT[9]]
    v = bench_pairs.judge(PARENT, change, "lower", 0.2)
    assert (v["change_wins"], v["change_losses"]) == (9, 0)
    assert v["gain_rule_met"]
    assert v["median_change_pct"] == pytest.approx(100 * (94.5 - 104.5) / 104.5, abs=1e-3)


def test_regression_and_spread_against_the_bound():
    v = bench_pairs.judge(PARENT, [p * 1.06 for p in PARENT], "lower", 0.05)
    assert v["regression_beyond_bound"] and not v["gain_rule_met"]
    v = bench_pairs.judge(PARENT, [p * 1.04 for p in PARENT], "lower", 0.05)
    assert not v["regression_beyond_bound"]
    wide = [50, 60, 70, 80, 90, 100, 110, 120, 130, 140]
    assert bench_pairs.judge(PARENT, wide, "higher", 0.05)["spread_wider_than_bound"]


def test_judge_needs_paired_runs():
    with pytest.raises(ValueError):
        bench_pairs.judge([1, 2], [1], "lower", 0.2)


@pytest.mark.parametrize("value, cached", [(None, True), ("", True), ("1", False)], ids=["unset", "empty", "set"])
def test_block_records_whether_the_runs_cache_byte_code(monkeypatch, value, cached):
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    if value is not None:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    config = {"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}
    run = {"correct": True, "failed": 0, "attempted": 3, "metrics": {"setup_s": {"value": 0.07}}}
    entry = bench_pairs.block(config, [1, 2], {"parent": [run, run], "change": [run, run]})
    assert entry["caches_byte_code"] is cached
    assert entry["metrics"]["setup_s"]["runs"] == {"parent": [0.07, 0.07], "change": [0.07, 0.07]}


def _checkout(root: pathlib.Path, files: dict) -> pathlib.Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


BENCH = {"BENCHMARK.json": "{}", "perfbench/run.py": "run", "perfbench/tracer.py": "trace", "perfbench/README.md": "a"}


@pytest.mark.parametrize(
    "change, differs",
    [
        ({}, None),
        ({"perfbench/README.md": "b", "src/x.py": "y"}, None),
        ({"perfbench/tracer.py": "trace2", "perfbench/run.py": "run2"}, "perfbench/run.py"),
        ({"BENCHMARK.json": "{ }"}, "BENCHMARK.json"),
        ({"perfbench/extra.py": ""}, "perfbench/extra.py"),
    ],
    ids=["identical", "other files differ", "first of two", "config", "one side only"],
)
def test_first_difference_names_the_first_benchmark_file_that_differs(tmp_path, change, differs):
    parent = _checkout(tmp_path / "parent", BENCH)
    changed = _checkout(tmp_path / "change", {**BENCH, **change})
    assert bench_pairs.first_difference(parent, changed) == differs
    assert bench_pairs.first_difference(changed, parent) == differs


def test_differing_benchmarks_exit_two_before_any_run(tmp_path, monkeypatch, capsys):
    parent = _checkout(tmp_path / "parent", BENCH)
    changed = _checkout(tmp_path / "change", {**BENCH, "perfbench/tracer.py": "trace2"})
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("a benchmark ran"))
    argv = [str(parent), str(changed), "--workload", "words", "--first-seed", "1"]
    assert bench_pairs.main(argv) == 2
    assert "perfbench/tracer.py" in capsys.readouterr().err


CONFIG = {"end_to_end": [{"name": "latency_p50_ms", "unit": "ref_ms", "better": "lower", "bound": 0.2}]}


def _run(p50, correct=True, failed=0):
    return {"correct": correct, "failed": failed, "attempted": 5, "metrics": {"latency_p50_ms": {"value": p50}}}


@pytest.mark.parametrize(
    "changed, code, why",
    [
        ({}, 0, None),
        ({"correct": False}, 1, "constructions: not correct"),
        ({"failed": 1}, 1, "constructions: failed operations"),
        ({"p50": 1.3}, 1, "constructions: latency_p50_ms regressed beyond its bound"),
    ],
    ids=["clean", "incorrect", "failed", "regression"],
)
def test_several_workloads_run_in_turn_and_fail_on_a_bad_block(tmp_path, monkeypatch, capsys, changed, code, why):
    # run_once is stubbed: the change's constructions runs take the drawn
    # fault, every other run is clean at 1.0 ref_ms
    files = {**BENCH, "BENCHMARK.json": json.dumps(CONFIG)}
    parent, change = _checkout(tmp_path / "parent", files), _checkout(tmp_path / "change", files)
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed))
        if checkout == change and workload == "constructions":
            return _run(changed.get("p50", 1.0), changed.get("correct", True), changed.get("failed", 0))
        return _run(1.0)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"end_to_end": {"words": "kept"}, "other": 1}))
    argv = [str(parent), str(change), "--workload", "colimits", "constructions",
            "--first-seed", "7", "--pairs", "2", "--out", str(out)]
    assert bench_pairs.main(argv) == code
    # each workload's pairs in turn, alternating which side runs first
    assert calls == [(side, w, seed) for w in ("colimits", "constructions")
                     for seed, sides in ((7, ("parent", "change")), (8, ("change", "parent"))) for side in sides]
    doc = json.loads(out.read_text())
    assert doc["other"] == 1 and doc["end_to_end"]["words"] == "kept"
    assert [doc["end_to_end"][w]["seeds"] for w in ("colimits", "constructions")] == [[7, 8], [7, 8]]
    printed = capsys.readouterr()
    assert printed.out.startswith("colimits: correct True") and "\nconstructions: correct " in printed.out
    assert (why is None) == ("bench_pairs:" not in printed.err)
    if why is not None:
        assert why in printed.err


@pytest.mark.parametrize(
    "stdout, result",
    [
        ('# seed 5\n{"correct": true}\n', {"correct": True}),
        ("", None),
        ("# seed 5\n# warm-up round\n", None),
        ('# seed 5\n{"correct": tr\n', None),
        ("# seed 5\n3\n", None),
    ],
    ids=["result", "no output", "crash after comments", "cut line", "not an object"],
)
def test_run_once_names_the_run_that_gave_no_result(tmp_path, monkeypatch, stdout, result):
    argvs = []

    def run(argv, **kwargs):
        argvs.append(argv)
        return subprocess.CompletedProcess(argv, 0 if result else 3, stdout, "Traceback: boom\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    if result is not None:
        assert bench_pairs.run_once(tmp_path, "words", 5, 2.0) == result
        assert argvs[0][1:] == ["perfbench/run.py", "--workload", "words", "--seed", "5", "--seconds", "2.0"]
        return
    with pytest.raises(SystemExit) as exc:
        bench_pairs.run_once(tmp_path, "words", 5, None)
    assert str(exc.value) == f"bench_pairs: no result from {tmp_path}, workload words, seed 5 (exit 3): Traceback: boom"
