#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and judge the change.

Each pair runs ``perfbench/run.py --workload W --seed S`` once in each of two
checkouts, on one fresh seed per pair; even pairs run the parent first, odd
pairs the change.  Several workloads run their pairs in turn, on the same
seeds.  The script prints, per workload and end-to-end metric of
``BENCHMARK.json``, the quartiles of each side, the pairs the change wins
and loses, and the gain-rule verdict of ROADMAP.md: the change wins at least
9 of 10 pairs and its median beats the parent's by more than the parent's
interquartile range.  With ``--out`` it writes each workload's block into
the ``end_to_end`` part of a ``BENCH_<n>.json``, keeping the other
workloads a file already has.  It exits 1 when a block is not correct,
counts a failed operation on either side, or has a metric that regressed
beyond its bound.
The block records whether the runs could cache byte code: a child that
inherits a non-empty ``PYTHONDONTWRITEBYTECODE`` compiles the package from
source in every fresh interpreter, so its ``setup_s`` includes compiling.

The two checkouts must hold byte-identical ``BENCHMARK.json`` and
``perfbench/*.py``; if they do not, the script runs nothing, names the
first file that differs and exits 2.  Run from anywhere:

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload colimits constructions words \\
        --first-seed 2301 --pairs 10 --out BENCH_23.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(xs) -> dict:
    """q1, median and q3 of ``xs``, as ``statistics.quantiles(method="inclusive")``."""
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def judge(parent, change, better: str, bound: float) -> dict:
    """Compare paired runs of one metric: ``parent[i]`` and ``change[i]``
    ran on the same seed.  ``better`` is ``"lower"`` or ``"higher"``;
    ``bound`` is the metric's allowed regression as a share of the parent's
    median.

    - ``gain_rule_met``: the change wins at least 9 of every 10 pairs, and
      its median is better than the parent's by more than the parent's
      interquartile range.
    - ``regression_beyond_bound``: the change's median is worse than the
      parent's by more than ``bound`` of the parent's median.
    - ``spread_wider_than_bound``: either side's interquartile range is more
      than ``bound`` of its median.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("judge needs two equal-length lists of at least 2 runs")
    sign = 1 if better == "higher" else -1
    qp, qc = quartiles(parent), quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    gain = sign * (qc["median"] - qp["median"])
    return {
        "parent": qp,
        "change": qc,
        "change_wins": wins,
        "change_losses": losses,
        "median_change_pct": round(100 * (qc["median"] - qp["median"]) / qp["median"], 4),
        "bound_pct": round(100 * bound, 4),
        "gain_rule_met": wins >= math.ceil(0.9 * len(parent)) and gain > qp["q3"] - qp["q1"],
        "regression_beyond_bound": -gain > bound * qp["median"],
        "spread_wider_than_bound": any(q["q3"] - q["q1"] > bound * q["median"] for q in (qp, qc)),
    }


def first_difference(parent: Path, change: Path):
    """The first of ``BENCHMARK.json`` and ``perfbench/*.py`` (in either
    checkout) whose bytes differ between the two checkouts, or is missing
    from one of them; ``None`` when they are all identical."""
    names = {"BENCHMARK.json"}
    for root in (parent, change):
        names.update(p.relative_to(root).as_posix() for p in (root / "perfbench").glob("*.py"))
    for name in sorted(names):
        sides = [root / name for root in (parent, change)]
        if not all(p.is_file() for p in sides) or sides[0].read_bytes() != sides[1].read_bytes():
            return name
    return None


def run_once(checkout: Path, workload: str, seed: int, seconds) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``; its result line, the
    last line of its output.  A run whose last line is missing or is not a
    JSON object, as after a crash, ends the script with a message that
    names the checkout, workload, seed and exit code."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if not isinstance(result, dict):
        raise SystemExit(f"bench_pairs: no result from {checkout}, workload {workload}, seed {seed}"
                         f" (exit {proc.returncode}): {proc.stderr.strip()}")
    return result


def block(config: dict, seeds, results: dict) -> dict:
    """The ``end_to_end`` entry of one workload from the paired results."""
    out = {
        "pairs": len(seeds),
        "seeds": list(seeds),
        "correct": all(r["correct"] for side in SIDES for r in results[side]),
        "failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "caches_byte_code": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "metrics": {},
    }
    for metric in config["end_to_end"]:
        name = metric["name"]
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        verdict = judge(runs["parent"], runs["change"], metric["better"], metric["bound"])
        rounded = {side: [round(x, 4) for x in xs] for side, xs in runs.items()}
        out["metrics"][name] = {"unit": metric["unit"], **verdict, "runs": rounded}
    return out


def faults(entry: dict) -> list[str]:
    """Why a block fails the run: not correct, a failed operation, or a
    metric that regressed beyond its bound."""
    out = [] if entry["correct"] else ["not correct"]
    if any(entry["failed"].values()):
        out.append(f"failed operations {entry['failed']}")
    return out + [f"{name} regressed beyond its bound" for name, m in entry["metrics"].items()
                  if m["regression_beyond_bound"]]


def report(workload: str, entry: dict) -> None:
    print(f"{workload}: correct {entry['correct']}, failed {entry['failed']}")
    for name, m in entry["metrics"].items():
        p, c = m["parent"], m["change"]
        print(f"  {name:16s} parent {p['q1']:.4f} {p['median']:.4f} {p['q3']:.4f}"
              f"  change {c['q1']:.4f} {c['median']:.4f} {c['q3']:.4f}"
              f"  {m['median_change_pct']:+.2f}%  wins {m['change_wins']}/{entry['pairs']}"
              f"  gain rule {'met' if m['gain_rule_met'] else 'not met'}"
              f"{'  REGRESSION beyond bound' if m['regression_beyond_bound'] else ''}"
              f"{'  spread wider than bound' if m['spread_wider_than_bound'] else ''}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True, nargs="+", help="one or more; their pairs run in turn")
    ap.add_argument("--first-seed", type=int, required=True, help="pair i runs seed first-seed + i")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--out", type=Path, help="BENCH_<n>.json to write the end_to_end blocks into")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    differs = first_difference(args.parent, args.change)
    if differs is not None:
        print(f"bench_pairs: the checkouts' benchmarks differ: {differs}", file=sys.stderr)
        return 2
    config = json.loads((args.parent / "BENCHMARK.json").read_text())
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    failing = []
    for workload in args.workload:
        results: dict = {side: [] for side in SIDES}
        for i, seed in enumerate(seeds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                results[side].append(run_once(checkouts[side], workload, seed, args.seconds))
            print(f"{workload} pair {i + 1}/{args.pairs} seed {seed} done", file=sys.stderr, flush=True)
        entry = block(config, seeds, results)
        report(workload, entry)
        failing += [f"{workload}: {why}" for why in faults(entry)]
        if args.out:
            doc = json.loads(args.out.read_text()) if args.out.exists() else {}
            doc.setdefault("end_to_end", {})[workload] = entry
            args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for why in failing:
        print(f"bench_pairs: {why}", file=sys.stderr)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
