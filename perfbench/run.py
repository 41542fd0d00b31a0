#!/usr/bin/env python3
"""Benchmark of soficgibbs: time to verdict on four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

One closed-loop client in one process repeats the workload's fixed batch of
operations until --seconds have been measured, checks every result, and
prints each metric by name with its unit.  Every latency is scaled to a
reference host speed by calibration loops timed between operations.
`--trace 0` gives the end-to-end metrics; `--trace 1` alternates untraced
and traced batches and gives the per-layer metrics.  The last line of standard output is one JSON
object.  The machine-format reports of the first batch, and the metrics, are
written under perfbench/out/.  See perfbench/README.md.
"""

import os

# One BLAS thread; set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("desk", "window", "sofic", "cover")
# op_tail_s is this percentile of the run's latency samples.  A run takes at
# least MIN_SAMPLES of them, so at least ten lie beyond it.
TAIL_PERCENTILE = 90
MIN_SAMPLES = 100
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 120

# The host's speed changes by up to 2x for seconds to minutes at a time, from
# load outside this process.  Two fixed loops are timed before and after each
# operation: an interpreter loop and a small eigenvalue problem, because the
# operations mix interpreted Python with numpy and the two slow by different
# amounts.  The calibration is the geometric mean of their times, each the
# best of CALIBRATION_SPINS runs so that one interruption does not count as
# a slow host.  An operation's latency is scaled by REF_CALIBRATION_S over
# the mean of the calibrations before and after it: latencies read as
# seconds on a host whose calibration takes REF_CALIBRATION_S (this host at
# its faster speed).  The interpreter loop allocates no container objects,
# so the library's heap does not slow it through the garbage collector.
REF_CALIBRATION_S = 3.7e-4
CALIBRATION_SPINS = 3
_SPIN_TABLE = list(range(7, 7 + 256 * 13, 13))
_SPIN_MAP = dict.fromkeys(range(1024), 3)
_SPIN_MATRIX = np.random.default_rng(0).random((40, 40))


def interpreter_spin():
    table, lookup = _SPIN_TABLE, _SPIN_MAP
    acc = 1
    for i in range(3000):
        acc = (acc * 31 + table[(acc ^ i) & 255] + lookup[i & 1023]) % 1000003
    return acc


def linalg_spin():
    return np.linalg.eigvals(_SPIN_MATRIX)


def calibrate():
    """Geometric mean of the best-of-CALIBRATION_SPINS times of the two
    spins, in seconds."""
    clock = time.perf_counter
    product = 1.0
    for spin in (interpreter_spin, linalg_spin):
        best = math.inf
        for _ in range(CALIBRATION_SPINS):
            start = clock()
            spin()
            best = min(best, clock() - start)
        product *= best
    return math.sqrt(product)


def nearest_rank(samples, q):
    ordered = sorted(samples)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[rank - 1]


def src_lines():
    """Non-blank lines under src/soficgibbs."""
    return sum(1 for path in sorted((SRC / "soficgibbs").rglob("*.py"))
               for line in path.read_text(encoding="utf-8").splitlines()
               if line.strip())


def setup_probe(workload, seed):
    """Seconds from starting a fresh process to its first operation being
    ready: interpreter start, imports, fixtures and spec files.  Returns
    (scaled, raw) seconds."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            workload, "--seed", str(seed), "--setup-probe"]
    before = calibrate()
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    speed = REF_CALIBRATION_S / ((before + calibrate()) / 2)
    return ready * speed, ready


def run_batch(ops):
    """Run every operation once, timing each; returns (raw latencies,
    scaled latencies, [(result, exception)])."""
    state = {}
    latencies = []
    outcomes = []
    clock = time.perf_counter
    spins = [calibrate()]
    for op in ops:
        start = clock()
        try:
            outcome = (op.run(state), None)
        except Exception as exc:  # a raising operation counts as failed
            outcome = (None, exc)
        latencies.append(clock() - start)
        outcomes.append(outcome)
        spins.append(calibrate())
    scaled = [t * REF_CALIBRATION_S / ((a + b) / 2)
              for t, a, b in zip(latencies, spins, spins[1:])]
    return latencies, scaled, outcomes


class Tally:
    """Failures and uncertified verdicts over every operation attempted."""

    def __init__(self, seed):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.uncertified = 0
        self.problems = {}      # op name -> first problems seen
        self.uncertified_ops = {}  # op name -> listing line

    def add(self, ops, outcomes):
        for op, (result, exc) in zip(ops, outcomes):
            self.attempted += 1
            uncertified = False
            if exc is not None:
                problems = [f"raised {type(exc).__name__}: {exc}"]
            else:
                try:
                    problems = op.check(result)
                    uncertified = (op.certified is not None
                                   and not op.certified(result))
                except Exception as err:  # a check that cannot read the result
                    problems = [f"check raised {type(err).__name__}: {err}"]
            if problems:
                self.failed += 1
                self.problems.setdefault(op.name, problems)
            if uncertified:
                self.uncertified += 1
                self.uncertified_ops.setdefault(
                    op.name, f"seed={self.seed} input={op.name.split('/')[0]} "
                             f"{op.size} pipeline={op.name.split('/')[-1]}")


def write_reports(path, ops, outcomes):
    lines = []
    for op, (result, exc) in zip(ops, outcomes):
        lines.append(f"## {op.name}")
        if exc is not None:
            lines.append(f"error = {type(exc).__name__}: {exc}")
            continue
        try:
            lines += op.report(result)
        except Exception as err:
            lines.append(f"report error = {type(err).__name__}: {err}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def measure_untraced(ops, seconds, tally):
    """Repeat the batch for `seconds` and until MIN_SAMPLES latencies are
    taken; returns the raw and scaled latencies, one list per batch, and
    the first batch's outcomes."""
    raw, scaled = [], []
    first = None
    start = time.perf_counter()
    while (len(ops) * len(raw) < MIN_SAMPLES
           or time.perf_counter() - start < seconds):
        lat, lat_scaled, outcomes = run_batch(ops)
        raw.append(lat)
        scaled.append(lat_scaled)
        tally.add(ops, outcomes)
        first = first or outcomes
    return raw, scaled, first


def measure_traced(ops, seconds, tally):
    """Alternate untraced and traced batches; per-layer metrics are medians
    over the traced batches."""
    import spans

    tracer = spans.Tracer()
    plain, traced, per_batch = [], [], []
    first = None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        _, lat_scaled, outcomes = run_batch(ops)
        plain.append(sum(lat_scaled))
        tally.add(ops, outcomes)
        first = first or outcomes
        tracer.install()
        try:
            lat, lat_scaled, outcomes = run_batch(ops)
        finally:
            tracer.uninstall()
        traced.append(sum(lat_scaled))
        tally.add(ops, outcomes)
        per_batch.append(tracer.recorder.metrics(sum(lat)))
    metrics = {key: statistics.median(batch[key] for batch in per_batch)
               for key in per_batch[0]}
    metrics["trace.overhead_frac"] = (statistics.median(traced)
                                      / statistics.median(plain) - 1.0)
    return metrics, tracer.recorder.table(), first


def unit_of(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("residual_max"):
        return "abs"
    if name == "repo.src_lines":
        return "lines"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "soficgibbs" / "__init__.py").is_file():
        print(f"error: no soficgibbs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import soficgibbs
    import workloads

    if Path(soficgibbs.__file__).resolve().parent != SRC / "soficgibbs":
        print(f"error: soficgibbs imported from {soficgibbs.__file__}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.build(args.workload, args.seed, ROOT)
        print("ready", flush=True)
        return 0

    setup = []
    if not args.trace:
        setup = [setup_probe(args.workload, args.seed)
                 for _ in range(SETUP_PROBES)]
    ops = workloads.build(args.workload, args.seed, ROOT)
    tally = Tally(args.seed)
    summary = {}
    if args.trace:
        metrics, table, first = measure_traced(ops, args.seconds, tally)
        summary["spans"] = table
    else:
        raw, scaled, first = measure_untraced(ops, args.seconds, tally)
        samples = [t for batch in scaled for t in batch]
        metrics = {
            "wall_s": statistics.median(sum(batch) for batch in scaled),
            "op_p50_s": nearest_rank(samples, 50),
            "op_tail_s": nearest_rank(samples, TAIL_PERCENTILE),
            "setup_s": statistics.median(s for s, _ in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        summary.update(
            batches=len(scaled), ops_per_batch=len(ops),
            op_samples=len(samples),
            raw_wall_s=statistics.median(sum(batch) for batch in raw),
            raw_setup_s=statistics.median(r for _, r in setup),
            speed=statistics.median(s / r for batch_s, batch_r in zip(scaled, raw)
                                    for s, r in zip(batch_s, batch_r)),
            op_median_s={op.name: statistics.median(batch[i] for batch in scaled)
                         for i, op in enumerate(ops)})
    failed_frac = tally.failed / tally.attempted
    uncertified_frac = tally.uncertified / tally.attempted
    lines = src_lines()
    if args.trace:
        metrics.update({"failed_frac": failed_frac,
                        "uncertified_frac": uncertified_frac,
                        "repo.src_lines": lines})

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    write_reports(OUT / f"{stem}.reports", ops, first)
    result = {name: {"value": value, "unit": unit_of(name)}
              for name, value in metrics.items()}
    summary.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   metrics=result, failed_frac=failed_frac,
                   uncertified_frac=uncertified_frac, src_lines=lines,
                   problems=tally.problems,
                   uncertified=sorted(tally.uncertified_ops.values()))
    (OUT / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    for name, entry in result.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        print(f"op_p50_s and op_tail_s are p50 and p{TAIL_PERCENTILE} of "
              f"{summary['op_samples']} operation latencies "
              f"({summary['batches']} batches of {len(ops)} operations)")
        print(f"times are scaled to the reference speed; this run's median "
              f"speed factor is {summary['speed']:.4g} (raw wall_s "
              f"{summary['raw_wall_s']:.6g} s, raw setup_s "
              f"{summary['raw_setup_s']:.6g} s)")
        print(f"failed_frac = {failed_frac:.6g} "
              f"({tally.failed} of {tally.attempted})")
        print(f"uncertified_frac = {uncertified_frac:.6g} "
              f"({tally.uncertified} of {tally.attempted})")
        print(f"repo.src_lines = {lines}")
    for line in summary["uncertified"]:
        print(f"uncertified: {line}")
    for name, problems in tally.problems.items():
        print(f"FAILED {name}: {'; '.join(problems)}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
