"""Steadiness of the benchmark: run each workload on several seeds and print,
for each end-to-end metric, its median, quartiles and spreads.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads words --traced

The spread that matters is the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median;
it is compared with the metric's bound in BENCHMARK.json, and should stay
under a third of it.  ``--traced`` also makes two traced runs on the first
seed and checks that every work count repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med, (max(values) - min(values)) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=["words", "constructions", "colimits"])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for w in args.workloads:
        results = [run(w, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{w}: {args.runs} runs of {seconds} s, seeds 1..{args.runs}; "
              f"correct {all(r['correct'] for r in results)}; failed share {sorted(shares)}")
        print(f"  {'metric':16s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'iqr/med':>8s} {'range/med':>9s}"
              f" {'bound':>6s}  verdict")
        report[w] = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, iqr, rng = spread(values)
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                "steady" if iqr < bound / 3 else "within bound" if iqr <= bound else "TOO NOISY")
            print(f"  {name:16s} {med:10.4g} {q1:10.4g} {q3:10.4g} {iqr:8.3f} {rng:9.3f}"
                  f" {bound if bound is not None else '':>6}  {verdict}")
            report[w][name] = {"values": values, "median": med, "q1": q1, "q3": q3, "iqr_share": iqr}
        if args.traced:
            a, b = (run(w, 1, seconds, 1) for _ in range(2))
            counts = [n for n, m in a["metrics"].items() if m["unit"] in ("count", "bytes")]
            differ = [n for n in counts if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
            job = a["metrics"]["trace.job_ms"]["value"]
            nf = a["metrics"]["trace_core.normal_form.self_ms"]["value"]
            print(f"  traced twice on seed 1: {len(counts)} counts, "
                  f"{'all repeat exactly' if not differ else 'DIFFER: ' + ', '.join(differ)}; "
                  f"normal_form self time {100 * nf / job:.1f}% of traced job time; "
                  f"overhead {a['metrics']['trace.overhead_pct']['value']:+.1f}% and "
                  f"{b['metrics']['trace.overhead_pct']['value']:+.1f}% of the untraced round")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
