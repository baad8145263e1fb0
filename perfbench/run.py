"""asyntrace benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload words --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One single-threaded process drives the library and ``cli.main`` in-process;
each job starts when the previous one has finished.  The first round of jobs
warms up and is checked against independent computations
(``perfbench/checks.py``); later rounds must reproduce its outputs exactly.
Rounds repeat until ``--seconds`` have passed, and only whole rounds run.

Times are in ``ref_ms``: a job's wall time divided by the time of a fixed
pure-Python calibration loop run right before and after it, scaled by the
loop's nominal duration.  The machine's own speed swings between runs; the
ratio to a loop timed beside the job does not.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Nominal duration of calibrate() at reference speed, in ms; a job that takes
# as long as the loop reads CALIB_NOMINAL_MS ref_ms.
CALIB_NOMINAL_MS = 2.5
MIN_JOBS = 110  # the 90th percentile keeps ten jobs beyond it
WORKLOADS = ("words", "constructions", "colimits")

# What a traced run reports, on every workload (zero where a layer is idle).
# The tracer records more spans; they go to the trace file.
PER_LAYER = (
    "trace_core.normal_form.calls", "trace_core.normal_form.letters", "trace_core.normal_form.self_ms",
    "trace_core.TraceMonoid.index.calls", "trace_core.TraceMonoid.pairs.calls",
    "trace_core.make_monoid.self_ms", "trace_core.make_hom.calls", "trace_core.make_hom.self_ms",
    "fpcm_cat.product.gens", "fpcm_cat.product.pairs", "fpcm_cat.product.self_ms",
    "fpcm_cat.coequalizer.self_ms", "fpcm_cat.limit.self_ms", "fpcm_cat.colimit.self_ms",
    "state_space.saturate.calls", "state_space.saturate.states", "state_space.saturate.frontier",
    "state_space.saturate.self_ms", "state_space.build_presentation.self_ms",
    "state_space.product.self_ms", "state_space.limit.self_ms",
    "async_system.validate_system.calls", "async_system.validate_system.self_ms",
    "async_system.colimit.self_ms", "async_system.limit.self_ms", "async_system.unfold.self_ms",
    "interchange.parse.bytes", "interchange.parse.self_ms", "interchange.dumps.bytes", "interchange.dumps.self_ms",
    "cli.main.self_ms",
    "trace.job_ms", "trace.overhead_pct",
)


_REL = frozenset((f"e{i}", f"e{j}") for i in range(12) for j in range(12) if (i * j) % 3 == 1)
_LETTERS = tuple(f"e{(i * 5) % 12}" for i in range(48))
_POS = {e: i for i, e in enumerate(sorted(set(_LETTERS)))}


def _related(x, y):
    return (x, y) in _REL or (y, x) in _REL


def layer_unit(name):
    if name.endswith("_ms"):
        return "ref_ms"
    if name.endswith("_pct"):
        return "%"
    return "bytes" if name.endswith(".bytes") else "count"


def calibrate():
    """Fixed pure-Python work in the program's own mix: building and using
    an argument parser, dict and set lookups of tuples, calls, generator
    expressions, list surgery, string building.  Calls no asyntrace code."""
    top = argparse.ArgumentParser(prog="calibrate")
    sub = top.add_subparsers(dest="command")
    for i in range(12):
        p = sub.add_parser(f"cmd{i}")
        p.add_argument("bundle")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--objects", nargs="+")
    acc = len(vars(top.parse_args(["cmd3", "b.json", "--objects", "x", "y"])))
    table = {}
    for i in range(1500):
        k = (i * 7919) & 255
        acc += table.get(k, 0) + (i ^ k)
        table[k] = acc & 1023
    rem = list(_LETTERS)
    out = []
    while rem:
        best, rank = 0, None
        for i, x in enumerate(rem[:8]):
            if all(_related(x, y) for y in rem[:i]):
                r = _POS[x]
                if rank is None or r < rank:
                    best, rank = i, r
        out.append(rem.pop(best))
    acc += len({f"({a},{b})" for a in out[:10] for b in out[10:20]})
    return acc


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def quantile(values, q):
    """Exclusive-method quantile, as statistics.quantiles gives it."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="exclusive")[round(q * 100) - 1]


# ---------------------------------------------------------------------------
# Set-up cost of a CLI call


# The set-up reference: stdlib modules that a fresh interpreter imports in
# about SETUP_NOMINAL_S here.  It is timed in children of its own, so what
# asyntrace imports cannot change it.
SETUP_REFERENCE = "unittest, http.client, xml.dom.minidom, email.mime.multipart, logging, configparser, zipfile, tarfile, pydoc"
SETUP_NOMINAL_S = 0.065
SETUP_CHILDREN = 21

SETUP_CODE = f"""
import sys, time
if sys.argv[1:]:
    sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
if sys.argv[1:]:
    import asyntrace.cli
    asyntrace.cli.build_parser()
else:
    import {SETUP_REFERENCE}
print(time.perf_counter() - start)
"""


def setup_child(*args):
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, *args],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def setup_times(n):
    """Import of asyntrace.cli plus building its parser, timed inside fresh
    interpreters.  Like a job, each is scaled by a reference timed right
    before and after it: the reference import, in fresh interpreters too,
    whose import work tracks the machine's speed far better than a loop.
    One unmeasured child first compiles the byte code.  Returns (ref_s,
    raw_s) pairs."""
    src = str(ROOT / "src")
    setup_child(src)
    before = setup_child()
    times = []
    for _ in range(n):
        wall = setup_child(src)
        after = setup_child()
        times.append((wall * SETUP_NOMINAL_S / min(before, after), wall))
        before = after
    return times


# ---------------------------------------------------------------------------
# The closed loop


def digest(output):
    return hashlib.sha256(repr(output).encode()).hexdigest()


class Run:
    def __init__(self, jobs):
        self.jobs = jobs
        self.expected = []
        self.attempted = 0
        self.failed = 0
        self.problems = []  # wrong outputs
        self.failures = []  # jobs that raised, the CLI's non-zero exits included
        self.calib_s = []
        self.raw_ms = []

    def _call(self, job):
        self.attempted += 1
        try:
            return True, job.call()
        except Exception as exc:  # a failed job is counted, never fatal
            self.failed += 1
            self.failures.append(f"{job.label}: {type(exc).__name__}: {exc}")
            return False, None

    def warm_up(self):
        """First round: every output is checked independently."""
        import checks

        for job in self.jobs:
            ok, out = self._call(job)
            if ok:
                try:
                    job.check(out)
                except checks.CheckFailed as exc:
                    self.problems.append(f"{job.label}: {exc}")
            self.expected.append(digest(out) if ok else None)

    def round(self, on_job=None):
        """One timed round; returns the jobs' times in ref_ms."""
        ref = []
        before, _ = timed(calibrate)
        for i, job in enumerate(self.jobs):
            start = time.perf_counter()
            ok, out = self._call(job)
            wall = time.perf_counter() - start
            after, _ = timed(calibrate)
            scale = CALIB_NOMINAL_MS / (1e3 * min(before, after))
            self.calib_s.append(after)
            before = after
            if on_job is not None:
                on_job(scale)
            if not ok:
                continue  # a failed job's time is no answer's time
            if digest(out) != self.expected[i]:
                self.problems.append(f"{job.label}: output differs from the checked first round")
            self.raw_ms.append(wall * 1e3)
            ref.append(wall * 1e3 * scale)
        return ref


def end_to_end(run, seconds):
    samples, rounds = [], 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or rounds * len(run.jobs) < MIN_JOBS:
        samples += run.round()
        rounds += 1
    if not samples:
        raise SystemExit(f"every job failed: {run.failures[0]}")
    return {
        "latency_p50_ms": (statistics.median(samples), "ref_ms"),
        "latency_p90_ms": (quantile(samples, 0.9), "ref_ms"),
        "jobs_per_s": (len(samples) / (sum(samples) / 1e3), "1/s"),
    }, samples, rounds


def per_layer(run, seconds, spans_path):
    """Untraced rounds for a quarter of the time, then traced rounds; work
    counts must repeat exactly in every traced round."""
    from tracer import Tracer

    untraced = []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds / 4:
        untraced.append(sum(run.round()))
    tracer = Tracer().install()
    rounds = []
    try:
        while len(rounds) < 2 or time.perf_counter() - start < seconds:
            self_ms, counts = {}, {}
            tracer.take()

            def on_job(scale):
                tracer.job += 1
                s, c = tracer.take()
                for k, v in s.items():
                    self_ms[k] = self_ms.get(k, 0.0) + v * 1e3 * scale
                for k, v in c.items():
                    counts[k] = counts.get(k, 0) + v

            job_ms = sum(run.round(on_job))
            tracer.keep_spans = False
            rounds.append((job_ms, self_ms, counts))
    finally:
        tracer.uninstall()
    counts = rounds[0][2]
    for _, _, c in rounds[1:]:
        if c != counts:
            run.problems.append("work counts differ between traced rounds")
    traced = statistics.median(r[0] for r in rounds)
    base = statistics.median(untraced)
    every = {}
    for name in sorted({k for r in rounds for k in r[1]}):
        every[name + ".self_ms"] = (statistics.median(r[1].get(name, 0.0) for r in rounds), "ref_ms")
    for name, v in sorted(counts.items()):
        every[name] = (v, layer_unit(name))
    every["trace.job_ms"] = (traced, "ref_ms")
    every["trace.overhead_pct"] = (100.0 * (traced - base) / base, "%")
    metrics = {name: (every.get(name, (0,))[0], layer_unit(name)) for name in PER_LAYER}
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({
            "columns": ["id", "parent", "job", "name", "start_s", "end_s"],
            "overhead": {"traced_round_ref_ms": traced, "untraced_round_ref_ms": base,
                         "base": "untraced round"},
            "metrics": every,
            "spans": tracer.spans,
        }, fh)
    print(f"# trace overhead: {metrics['trace.overhead_pct'][0]:+.1f}% of the untraced round "
          f"(base: untraced round, median {base:.1f} ref_ms over {len(untraced)} rounds; "
          f"traced median {traced:.1f} ref_ms over {len(rounds)} rounds)")
    print(f"# spans of the first traced round: {spans_path}")
    return metrics


def bench(workload, seed, seconds, trace):
    sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]
    import checks
    import workloads

    checks.self_test()
    setup = setup_times(SETUP_CHILDREN) if not trace else []
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        run = Run(workloads.build(workload, seed, workdir, ROOT))
        gc.collect()
        gc.freeze()
        run.warm_up()
        if trace:
            metrics = per_layer(run, seconds, OUT / f"trace-{workload}-{seed}.json")
        else:
            metrics, samples, rounds = end_to_end(run, seconds)
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
            metrics["setup_s"] = (statistics.median(ref for ref, _ in setup), "s")
            print(f"# {len(samples)} timed jobs in {rounds} rounds of {len(run.jobs)}")
            print(f"# raw wall: p50 {statistics.median(run.raw_ms):.2f} ms, "
                  f"p90 {quantile(run.raw_ms, 0.9):.2f} ms; calibration loop median "
                  f"{statistics.median(run.calib_s) * 1e3:.3f} ms "
                  f"(min {min(run.calib_s) * 1e3:.3f}, max {max(run.calib_s) * 1e3:.3f})")
            print(f"# setup children, ref ms (raw ms): "
                  f"{', '.join(f'{ref * 1e3:.1f} ({raw * 1e3:.1f})' for ref, raw in setup)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in (run.failures + run.problems)[:20]:
        print(f"# problem: {p}")
    return {
        "correct": not run.problems and not run.failed,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "asyntrace" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"run.py: no asyntrace checkout at {ROOT} (need src/asyntrace and tests/oracles.py)",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    result = bench(args.workload, args.seed, args.seconds, args.trace)
    for name, m in result["metrics"].items():
        print(f"{args.workload:14s} {name:40s} {m['value']:14.4f} {m['unit']}")
    print(f"{args.workload:14s} attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']}")
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Every workload in a fresh process of its own."""
    results = {}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        results[w] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
