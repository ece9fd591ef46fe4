"""posverif benchmark: seeded closed-loop workloads over the public API.

    python3 perfbench/run.py --workload timed_k1 --seed 1 --seconds 30 --trace 0

Each workload is one client in a closed loop: the next run starts when the
previous one returns. With --trace 0 the runs execute unmodified library
code and the end-to-end metrics are reported; with --trace 1 the same
inputs run once untraced and once under spans.Instrumentation, and the
per-layer metrics come from the traced half. Without --workload and
--trace, every workload runs both ways in turn.

Every run's output is checked: runs that raise and honest runs that miss a
deadline count as failed, each run kind's acceptance count must match its
closed form (workloads.gate_rows), and a sha256 over every run's record
must repeat between the warm-up, the measured runs and fresh processes.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is 0 only when correct.
Run times are in reference units, scaled by a fixed kernel timed between
runs (see REF_KERNEL_NS), so that host speed drift cancels out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = Path(__file__).resolve().parent / "out"

# One BLAS thread on both sides of every comparison: the dense engine's
# matrices are small, and idle OpenBLAS workers spinning on a shared
# 2-core host add CPU time and noise without adding throughput.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 9   # fresh processes timed per run; setup_s is their median

# Run times are reported in reference units (ref_us). On a shared host the
# interpreter's speed drifts by +-30% over seconds to minutes, and every
# run slows with it. So a fixed pure-Python kernel is timed between runs,
# at most every KERNEL_EVERY_NS, and each run's wall and CPU time is scaled
# by REF_KERNEL_NS over the mean kernel time of its slice of about
# SLICE_NS: a reference microsecond is a microsecond at the speed where the
# kernel takes exactly REF_KERNEL_NS. The kernel never touches the library.
# It runs twice and only the second call is timed: the first absorbs the
# cache misses the run left behind (13-30% of a call), so the scale does
# not depend on the library's cache footprint (the second call is within
# 3% of a third). Of the kernels tried (an integer LCG, a pointer chase
# over 64k list entries, this mix), the mix tracked all three workloads'
# drift most closely. Raw figures are printed too.
REF_KERNEL_NS = 60_000
KERNEL_EVERY_NS = 2_000_000
SLICE_NS = 50_000_000
_REF_FRACTIONS = [Fraction(3 * i + 1, 7 * i + 2) for i in range(13)]

END_TO_END_UNITS = {
    "runs_per_s": "1/ref_s",
    "run_p50_us": "ref_us",
    "run_p99_us": "ref_us",
    "cpu_us_per_run": "ref_us",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def reference_kernel() -> list[int]:
    """Fraction arithmetic, string formatting, dict stores and a sort."""
    acc = Fraction(0)
    table = {}
    for i in range(12):
        acc += _REF_FRACTIONS[i] * _REF_FRACTIONS[i + 1]
        table[format(i, "08b")] = acc.numerator & 0xFF
    return sorted(table.values())


@dataclass
class Phase:
    """What one pass over the workload's inputs observed.

    Per-run values live in flat arrays so that the benchmark's own memory
    barely grows with the run count, which peak_rss_mb would otherwise show.
    """

    kinds: list
    latencies_ns: array = field(default_factory=lambda: array("q"))
    cpu_ns: array = field(default_factory=lambda: array("q"))
    scale: array = field(default_factory=lambda: array("d"))
    fingerprints: array = field(default_factory=lambda: array("Q"))
    records: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    prefix_sha256: str = ""
    successes: list[int] = field(default_factory=list)
    trials: list[int] = field(default_factory=list)
    failed: int = 0
    errors: list[str] = field(default_factory=list)  # the first three

    def __post_init__(self):
        self.successes = [0] * len(self.kinds)
        self.trials = [0] * len(self.kinds)

    @property
    def runs(self) -> int:
        return len(self.latencies_ns)

    def ref_latencies_ns(self) -> list[float]:
        return [t * f for t, f in zip(self.latencies_ns, self.scale)]


def run_phase(kinds, seed: int, *, runs: int | None = None,
              seconds: float | None = None, recorder=None) -> Phase:
    """Run inputs 0, 1, 2, ... until `runs` are done or `seconds` pass."""
    phase = Phase(kinds)
    count = len(kinds)
    start = slice_start = last_kernel = time.perf_counter_ns()
    deadline = start + int((seconds or 0) * 1e9)
    slice_first = kernel_ns = kernel_calls = i = 0
    while True:
        kind = kinds[i % count]
        inputs = workloads.run_seed(seed, i)
        if recorder is not None:
            recorder.run_id = i
        c0 = time.process_time_ns()
        t0 = time.perf_counter_ns()
        try:
            result = kind.play(inputs)
            error = None
        except Exception:
            error = traceback.format_exc()
        t1 = time.perf_counter_ns()
        phase.cpu_ns.append(time.process_time_ns() - c0)
        phase.latencies_ns.append(t1 - t0)
        if error is None:
            accepted, reason, record = kind.summarize(result)
            if kind.honest and reason.startswith("timing"):
                error = f"honest run failed {reason}"
            phase.successes[i % count] += accepted
            phase.trials[i % count] += 1
        else:
            record = b"raised"
        if error is not None:
            phase.failed += 1
            if len(phase.errors) < 3:
                phase.errors.append(f"run {i} ({kind.label}): {error}")
        digest = hashlib.sha256(record).digest()
        phase.records.update(digest)
        phase.fingerprints.append(int.from_bytes(digest[:8], "little"))
        if i + 1 == count:
            phase.prefix_sha256 = phase.records.hexdigest()
        i += 1
        done = t1 >= deadline if seconds is not None else i >= runs
        if done or t1 - last_kernel >= KERNEL_EVERY_NS:
            reference_kernel()
            k0 = time.perf_counter_ns()
            reference_kernel()
            last_kernel = time.perf_counter_ns()
            kernel_ns += last_kernel - k0
            kernel_calls += 1
            if done or last_kernel - slice_start >= SLICE_NS:
                in_slice = i - slice_first
                phase.scale.extend([REF_KERNEL_NS * kernel_calls / kernel_ns] * in_slice)
                slice_first, slice_start = i, last_kernel
                kernel_ns = kernel_calls = 0
        if done:
            return phase


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


@dataclass
class Setup:
    lib: object
    kinds: list
    warmup: Phase
    seconds: float


def set_up(name: str, seed: int) -> Setup:
    """Import the library, build the workload and warm every run kind once."""
    t0 = time.perf_counter()
    lib = workloads.load_library(ROOT)
    kinds = workloads.WORKLOADS[name](lib)
    warmup = run_phase(kinds, seed, runs=len(kinds))
    return Setup(lib, kinds, warmup, time.perf_counter() - t0)


def setup_samples(name: str, seed: int) -> list[dict]:
    """Time set_up in fresh processes, one after another."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(child.stdout.strip().splitlines()[-1]))
    return samples


class Report:
    """Collects the human-readable lines and the outcome of every check."""

    def __init__(self):
        self.correct = True

    def check(self, ok: bool, what: str):
        print(f"check {'ok  ' if ok else 'FAIL'} {what}")
        self.correct = self.correct and ok

    def gate(self, lib, phase: Phase):
        for row in workloads.gate_rows(lib, phase.kinds, phase.successes,
                                       phase.trials):
            self.check(row.passed,
                       f"{row.experiment} n={row.n} k={row.k} "
                       f"{row.successes}/{row.trials} theory {row.theory:.6g} "
                       f"in {workloads.Z_GATE:g}-sigma "
                       f"[{row.ci_low:.6g}, {row.ci_high:.6g}]")
        for error in phase.errors:
            print(error, file=sys.stderr)
        self.check(phase.failed == 0,
                   f"failed_frac {phase.failed / max(phase.runs, 1):.6g} ratio "
                   f"({phase.failed}/{phase.runs} runs failed)")


def end_to_end(name: str, seed: int, seconds: float, report: Report):
    setup = set_up(name, seed)
    prefix = setup.warmup.prefix_sha256
    samples = setup_samples(name, seed)
    for sample in samples:
        report.check(sample["prefix_sha256"] == prefix,
                     f"fresh-process warm-up sha256 {sample['prefix_sha256'][:16]} "
                     f"== {prefix[:16]}")
    phase = run_phase(setup.kinds, seed, seconds=seconds)
    count = len(setup.kinds)
    report.check(phase.prefix_sha256 == prefix,
                 f"first {count} runs repeat the warm-up byte for byte")
    report.gate(setup.lib, phase)
    print(f"sha256 over the first {count} runs {prefix}")
    print(f"sha256 over all {phase.runs} runs {phase.records.hexdigest()}")
    ref = sorted(phase.ref_latencies_ns())
    raw = sorted(phase.latencies_ns)
    ref_cpu = sum(c * f for c, f in zip(phase.cpu_ns, phase.scale))
    metrics = {
        "runs_per_s": phase.runs / (sum(ref) / 1e9),
        "run_p50_us": percentile(ref, 50) / 1e3,
        "run_p99_us": percentile(ref, 99) / 1e3,
        "cpu_us_per_run": ref_cpu / 1e3 / phase.runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(s["setup_s"] for s in samples),
    }
    print(f"raw: runs_per_s {phase.runs / (sum(raw) / 1e9):.6g} 1/s, "
          f"run_p50_us {percentile(raw, 50) / 1e3:.6g} us, "
          f"run_p99_us {percentile(raw, 99) / 1e3:.6g} us, "
          f"cpu_us_per_run {sum(phase.cpu_ns) / 1e3 / phase.runs:.6g} us; "
          f"host speed {statistics.median(phase.scale):.3f} x reference (median)")
    print(f"latency samples {phase.runs}; "
          f"setup is the median of {len(samples)} processes")
    return phase.runs, phase.failed, {
        k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def per_layer(name: str, seed: int, seconds: float, report: Report):
    import spans

    setup = set_up(name, seed)
    plain = run_phase(setup.kinds, seed, seconds=seconds / 2)
    recorder = spans.Recorder()
    with spans.Instrumentation(setup.lib, recorder):
        traced = run_phase(setup.kinds, seed, seconds=seconds / 2,
                           recorder=recorder)
    common = min(plain.runs, traced.runs)
    report.check(traced.fingerprints[:common] == plain.fingerprints[:common],
                 f"traced runs repeat the untraced runs byte for byte ({common} runs)")
    report.gate(setup.lib, plain)
    report.gate(setup.lib, traced)
    overhead = (sum(traced.ref_latencies_ns()[:common])
                / sum(plain.ref_latencies_ns()[:common]) - 1)
    path = SPANS_DIR / f"{name}.spans.npz"
    recorder.save(path)
    print(f"{len(recorder.name_id)} spans over {traced.runs} traced runs written to "
          f"{path.relative_to(ROOT)}")
    totals = recorder.totals(traced.scale)
    all_self = sum(ns for _, ns in totals.values())
    for span, (calls, ns) in sorted(totals.items(), key=lambda kv: -kv[1][1])[:6]:
        print(f"self-time share {span} {ns / all_self:.3f} ({calls} spans)")
    metrics = spans.per_layer_metrics(recorder, traced.runs, overhead, traced.scale)
    runs = plain.runs + traced.runs
    return runs, plain.failed + traced.failed, metrics


def machine_line() -> str:
    import numpy

    blas = " ".join(f"{k}={v}" for k, v in BLAS_ENV.items())
    return (f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} {blas}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: both, one after the other)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.update(BLAS_ENV)  # before numpy loads

    try:
        if args.setup_only:
            setup = set_up(args.workload, args.seed)
            print(json.dumps({"setup_s": setup.seconds,
                              "prefix_sha256": setup.warmup.prefix_sha256}))
            return 0
        workloads.load_library(ROOT)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(machine_line())
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.trace is None else (args.trace,)
    report = Report()
    attempted = failed = 0
    metrics = {}
    for name in names:
        for trace in traces:
            print(f"== {name} trace={trace} seed={args.seed} seconds={args.seconds:g} "
                  f"(closed loop, one client)")
            measure = per_layer if trace else end_to_end
            runs, fails, found = measure(name, args.seed, args.seconds, report)
            attempted += runs
            failed += fails
            for metric, (value, unit) in found.items():
                print(f"{metric} {value:.6g} {unit}")
                key = metric if len(names) * len(traces) == 1 else f"{name}/{metric}"
                metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": report.correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
