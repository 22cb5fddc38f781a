"""Benchmark of the bundlecert program.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass of the workload runs in a
fresh interpreter (bench/child.py) with `src` on PYTHONPATH, one process
at a time with threads=1, as the CLI runs.  Passes repeat until --seconds
have gone by; extra set-up-only interpreters make at least
MIN_SETUP_SAMPLES set-up samples.  Every job's output is checked against
bench/references.json and must be identical in every pass.

With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json:
medians over passes.  With --trace 1 traced and untraced passes alternate;
the result holds the per-layer metrics (medians over traced passes) and the
tracing overhead (traced minus untraced work time).

End-to-end times are scaled to a reference machine speed.  On a shared
machine the speed drifts by up to a third over tens of seconds, which no
median over one run removes.  Every child times a fixed calibration mix
between its jobs (child.calibrate); the set-up time and every job shorter
than LONG_JOB_S are multiplied by CALIBRATION_REF_S / (the child's median
calibration time) before the medians over passes are taken.  A longer job
is left as measured: the few samples around it follow its speed worse than
its own length averages the drift.  Per-layer times are as measured.  The
raw medians are in the metadata line.

Output: a metadata line, then, last, one JSON line
{"correct", "attempted", "failed", "metrics"}.  Exit code 0 on a result,
1 when a pass crashed or ran out of time, 2 when the checkout has no program.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import gen
from child import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
CHILD = BENCH / "child.py"

MIN_SETUP_SAMPLES = 7
CALIBRATION_REF_S = 0.019  # calibration mix time at the reference speed
LONG_JOB_S = 5.0
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


class Runner:
    """Starts the child interpreters of one run, one at a time."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def child(self, mode: str, workload: str | None = None, trace: bool = False, stdin: str | None = None) -> dict:
        workload = workload or self.workload
        cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(self.seed),
               "--mode", mode, "--trace", str(int(trace))]
        try:
            # run() kills the child and waits for it when the timeout expires
            proc = subprocess.run(cmd, input=stdin or "", capture_output=True, text=True,
                                  cwd=ROOT, env=self.env, timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} {mode} pass did not end within the run's deadline") from None
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            raise BenchError(f"{workload} {mode} pass exited with {proc.returncode}:\n{tail}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, spec: dict) -> tuple:
    runner = Runner(args.workload, args.seed)
    stdin = None
    if args.workload == "verify":
        stdin = json.dumps(runner.child("prep", workload="certify"))
    runner.child("setup", stdin=stdin)  # warm-up, discarded: compiles bytecode, fills the file cache

    passes = []  # (traced, report)
    longest = 0.0
    t0 = time.monotonic()
    while True:
        kinds = {traced for traced, _ in passes}
        enough = passes and (not args.trace or kinds == {False, True})
        if enough and (time.monotonic() - t0 >= args.seconds or runner.remaining() < 2 * longest):
            break
        if runner.remaining() < 1.5 * longest:
            raise BenchError("not enough time left for the passes a result needs")
        traced = bool(args.trace) and len(passes) % 2 == 1
        started = time.monotonic()
        passes.append((traced, runner.child("pass", trace=traced, stdin=stdin)))
        longest = max(longest, time.monotonic() - started)

    untraced = [rep for traced, rep in passes if not traced]
    setup_reps = list(untraced)
    while len(setup_reps) < MIN_SETUP_SAMPLES and runner.remaining() > 5.0:
        setup_reps.append(runner.child("setup", stdin=stdin))

    attempted, failed, problems = check_passes(passes)
    work = [work_s(rep) for rep in untraced]
    values = {}
    overhead = None
    if args.trace:
        traced_reps = [rep for traced, rep in passes if traced]
        for rep in traced_reps:
            if rep["missing_spans"]:
                raise BenchError(f"spans with no calls (misplaced wrappers): {rep['missing_spans']}")
        problems += counts_repeat(traced_reps)
        overhead = statistics.median(work_s(rep) for rep in traced_reps) - statistics.median(work)
        for name in traced_reps[0]["layers"]:
            values[name] = statistics.median(rep["layers"][name] for rep in traced_reps)
        values["trace.overhead_s"] = overhead
        wanted = spec["per_layer"]
    else:
        values["work_s"] = statistics.median(work)
        values["setup_s"] = statistics.median(scale(rep) * rep["setup_s"] for rep in setup_reps)
        values["peak_rss_mb"] = statistics.median(rep["rss_mb"] for rep in untraced)
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} is declared in BENCHMARK.json but not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    job_s = {}
    for rep in untraced:
        for j in rep["jobs"]:
            job_s.setdefault(j["name"], []).append(j["s"])
    notes = sorted({note for _, rep in passes for note in rep["notes"]})
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "baseline_seed": gen.BASELINE_SEED,
        "confirm_seed": gen.CONFIRM_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(untraced),
        "traced_passes": len(passes) - len(untraced),
        "setup_samples": len(setup_reps),
        "trace_overhead_s": overhead,
        "raw_work_s": statistics.median(sum(j["s"] for j in rep["jobs"]) for rep in untraced),
        "raw_setup_s": statistics.median(rep["setup_s"] for rep in setup_reps),
        "median_scale": statistics.median(scale(rep) for _, rep in passes),
        "job_median_s": {name: statistics.median(v) for name, v in job_s.items()},
        "notes": notes,
        "problems": problems,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "src_lines": src_line_count(),
        "elapsed_s": time.monotonic() - runner.started,
    }
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return meta, result


def scale(rep: dict) -> float:
    """Factor from this interpreter's measured speed to the reference speed."""
    return CALIBRATION_REF_S / statistics.median(rep["calibration"])


def work_s(rep: dict) -> float:
    """Time of one pass in its jobs, short jobs scaled to the reference speed."""
    factor = scale(rep)
    return sum(j["s"] * factor if j["s"] < LONG_JOB_S else j["s"] for j in rep["jobs"])


def check_passes(passes) -> tuple:
    """Count failed jobs: a job fails on its own check, or when its output
    differs from the first pass's (tracing must not change any output)."""
    attempted = failed = 0
    problems = []
    first = {}
    for traced, rep in passes:
        for job in rep["jobs"]:
            attempted += 1
            problem = job["problem"]
            if problem is None and first.setdefault(job["name"], job["digest"]) != job["digest"]:
                problem = "output differs from the first pass" + (" (traced)" if traced else "")
            if problem:
                failed += 1
                problems.append(f"{job['name']}: {problem}")
    return attempted, failed, sorted(set(problems))


def counts_repeat(traced_reps) -> list:
    """Counters (calls, cells, fibers) must be identical in every traced pass."""
    first = traced_reps[0]["layers"]
    out = []
    for rep in traced_reps[1:]:
        for name, value in rep["layers"].items():
            if not name.endswith(".s") and not name.endswith("_per_s") and value != first[name]:
                out.append(f"counter {name} differs between passes: {value} != {first[name]}")
    return out


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "bundlecert" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"no bundlecert source under {SRC} or no {SPEC.name}: run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    try:
        meta, result = measure(args, spec)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    for problem in meta["problems"]:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
