"""Benchmark of arch-resonance: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload {figures,cracked,queries} \
        --seed N --seconds S --trace {0,1}

One process, one thread, one closed-loop client; the BLAS thread count is
pinned before numpy loads. A run measures set-up in fresh processes, warms
up, then makes a fixed number of timed passes over the workload's seeded
items (the number follows from ``--seconds``), checks every output, and runs
the known-defect probes.

Every time is reported at the nominal speed of the speed gauge (gauge.py):
a timer signal takes short gauge readings while the requests run, and a
request's time, less the readings' own time, is scaled by the gauge's
nominal time over the readings taken during it. The measured times are
printed too.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of the traced ones, plus the tracing overhead; the spans of the first
traced pass are written to perfbench/out/.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. The exit code is
1 when an output fails its check, and the program is imported from src/.
"""

from __future__ import annotations

import argparse
import bisect
import importlib.util
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import gauge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
OUT = Path(__file__).resolve().parent / "out"

BLAS_THREADS = 1
SETUP_REPEATS = 9
# Timed passes per run: --seconds over PASS_S, about the longest a pass of any
# workload takes at nominal speed, and at least MIN_PASSES. The count depends
# on the arguments only, so runs of two versions of the program measure the
# same number of passes however fast each is.
WORKLOADS = ("figures", "cracked", "queries")
PASS_S = 12.0
MIN_PASSES = 2
# During a timed pass a timer signal takes a gauge reading every
# SAMPLE_INTERVAL_S, inside the request that is running: the machine's speed
# changes within a second, so readings taken between requests misjudge it.
# The time the handler takes is left out of the request's latency. A request
# is scaled by the readings taken during it, or by the MIN_READINGS readings
# nearest to it when it is too short to hold that many.
SAMPLE_INTERVAL_S = 0.01
MIN_READINGS = 3
# Gauge readings next to each fresh set-up process, before and after it.
SETUP_GAUGES = 100

SETUP_CODE = """
import time
t0 = time.perf_counter()
import arch_resonance
from arch_resonance import cli, solver
cli.load_presets()
solver.find_frequencies(arch_resonance.ArchProblem(beta=1.0, eta_nd=1.0), solver.SearchConfig())
print(time.perf_counter() - t0)
"""

clock = time.perf_counter


def pin_blas() -> dict[str, str]:
    """Pin every BLAS thread pool to BLAS_THREADS before numpy is imported."""
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    pinned = {
        var: threads
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    os.environ.update(pinned)
    return pinned


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), path))))


def measure_setup() -> list[tuple[float, float]]:
    """Fresh-process set-up times (import, presets, one warm-up solve), each
    with the mean gauge reading around it."""
    times = []
    for _ in range(SETUP_REPEATS):
        readings = [gauge.reading() for _ in range(SETUP_GAUGES)]
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        readings += [gauge.reading() for _ in range(SETUP_GAUGES)]
        times.append((float(done.stdout.split()[-1]), statistics.fmean(readings)))
    return times


def call(item) -> object:
    """The item's output; a raised exception is the output, checked as a failure."""
    try:
        return item.call()
    except Exception as exc:
        return exc


class Sampler:
    """Gauge readings from a timer signal: when each handler call started, how
    long it took in all, and the reading it took."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self.reading = array("d")

    def _tick(self, signum, frame) -> None:
        t = clock()
        gauge.work()  # brings the gauge's code and data back into the caches
        warm = clock()
        gauge.work()
        self.reading.append(clock() - warm)
        self.at.append(t)
        self.took.append(clock() - t)

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


@dataclass
class Pass:
    """One timed pass: per item, its latency at nominal speed, as measured
    (both without the gauge's time) and its output, and the mean reading."""

    latencies: list[float] = field(default_factory=list)
    measured: list[float] = field(default_factory=list)
    outputs: list[object] = field(default_factory=list)
    reading_s: float = 0.0

    def slowdown(self) -> float:
        """Mean gauge reading over its nominal time."""
        return self.reading_s / gauge.NOMINAL_S


def nearest(at: array, t: float) -> list[int]:
    """Indices of the MIN_READINGS readings that started nearest to t."""
    j = bisect.bisect_left(at, t)
    around = range(max(0, j - MIN_READINGS), min(len(at), j + MIN_READINGS))
    return sorted(around, key=lambda i: abs(at[i] - t))[:MIN_READINGS]


def timed_pass(items) -> Pass:
    """Run every item once, with gauge readings inside."""
    done = Pass()
    spans = []
    with Sampler() as sampler:
        for item in items:
            t = clock()
            done.outputs.append(call(item))
            spans.append((t, clock()))
    at, took, readings = sampler.at, sampler.took, sampler.reading
    for start, end in spans:
        lo, hi = bisect.bisect_left(at, start), bisect.bisect_left(at, end)
        latency = end - start - sum(took[lo:hi])
        near = range(lo, hi) if hi - lo >= MIN_READINGS else nearest(at, (start + end) / 2)
        reading = statistics.fmean(readings[i] for i in near)
        done.measured.append(latency)
        done.latencies.append(latency * gauge.NOMINAL_S / reading)
    done.reading_s = statistics.fmean(readings)
    return done


class Verdicts:
    """Outputs of every pass: each item's first output is checked, and every
    later pass must reproduce it exactly.

    Checks run in ``finish``, after the timed passes, so that the oracle's
    imports stay out of the measured peak RSS.
    """

    def __init__(self, items):
        self.items = items
        self.first: list[object] | None = None
        self.passes = 0
        self.changed = [0] * len(items)  # passes whose output differed from the first
        self.errors: list[tuple[str, str]] = []  # (what, reason)
        self.failed = 0

    @property
    def attempted(self) -> int:
        return self.passes * len(self.items)

    def add(self, outputs: list[object]) -> None:
        self.passes += 1
        if self.first is None:
            self.first = outputs
            return
        for i, (out, first) in enumerate(zip(outputs, self.first)):
            if not same(out, first):
                self.changed[i] += 1

    def finish(self) -> None:
        for i, (item, out) in enumerate(zip(self.items, self.first)):
            error = check(item, out)
            if error:
                self.errors.append((item.label, error))
                self.failed += self.passes - self.changed[i]
            if self.changed[i]:
                self.errors.append((item.label, "output differs from the first pass"))
                self.failed += self.changed[i]


def check(item, output) -> str | None:
    if isinstance(output, Exception):
        return f"raised {type(output).__name__}: {output}"
    try:
        return item.check(output)
    except Exception as exc:  # unparseable output is a failed check
        return f"check raised {type(exc).__name__}: {exc}"


def same(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def percentile_ms(latencies: list[float], q: int) -> float:
    """The q-th percentile in ms, statistics.quantiles' exclusive method."""
    return statistics.quantiles(latencies, n=100)[q - 1] * 1e3


def pass_count(seconds: float) -> int:
    return max(MIN_PASSES, int(seconds / PASS_S))


def run_passes(items, passes: int, verdicts: Verdicts) -> list[Pass]:
    runs = []
    for _ in range(passes):
        done = timed_pass(items)
        verdicts.add(done.outputs)
        done.outputs = []
        runs.append(done)
    return runs


def median_wall(runs: list[Pass]) -> float:
    """The median over passes of a pass's time at nominal speed."""
    return statistics.median(sum(p.latencies) for p in runs)


def end_to_end(runs: list[Pass], setup, peak_rss_mb: float) -> dict:
    latencies = [x for p in runs for x in p.latencies]
    measured = statistics.median(sum(p.measured) for p in runs)
    slowdown = statistics.median(p.slowdown() for p in runs)
    p90 = percentile_ms(latencies, 90)
    setup_nominal = [t * gauge.NOMINAL_S / g for t, g in setup]
    return {
        "setup_s": (statistics.median(setup_nominal), "s",
                    f"median of {len(setup)} fresh processes; measured median"
                    f" {statistics.median(t for t, _ in setup):.4f} s"),
        "wall_s": (median_wall(runs), "s",
                   f"median of {len(runs)} passes of {len(runs[0].latencies)} items;"
                   f" measured median {measured:.4f} s at {slowdown:.3f}x the gauge's nominal time"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms",
                           f"{len(latencies)} latencies of {len(runs)} passes"),
        "latency_p90_ms": (p90, "ms", f"{sum(x * 1e3 > p90 for x in latencies)} latencies beyond p90"),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss after the timed passes"),
    }


def run_traced(items, passes: int, verdicts: Verdicts, tracer, spans_path: Path) -> dict:
    """Untraced and traced passes in turn, at least one of each."""
    from spans import layer_metrics

    untraced, traced, per_pass = [], [], []
    for _ in range(max(1, passes // 2)):
        untraced += run_passes(items, 1, verdicts)
        tracer.install()
        try:
            traced += run_passes(items, 1, verdicts)
        finally:
            tracer.uninstall()
        spans = tracer.take()
        per_pass.append(layer_metrics(spans))
        if len(per_pass) == 1:
            spans.save(spans_path)
        del spans
    return {"untraced": untraced, "traced": traced, "per_pass": per_pass}


def layer_report(traced: dict, verdicts: Verdicts) -> tuple[dict, list[str]]:
    """Per-layer metrics: self times are medians over traced passes, counts
    come from the first pass and must repeat exactly in every other."""
    per_pass = traced["per_pass"]
    first = per_pass[0]
    metrics = {}
    for name, (value, unit, base) in first.items():
        if unit == "s":
            value = statistics.median(p[name][0] for p in per_pass)
        elif any(p[name][0] != value for p in per_pass):
            verdicts.errors.append((name, "count differs between traced passes of the same items"))
        metrics[name] = (value, unit, base)
    on, off = median_wall(traced["traced"]), median_wall(traced["untraced"])
    metrics["trace.overhead_s"] = (
        on - off, "s", f"wall_s traced {on:.4f} s - untraced {off:.4f} s, at nominal speed"
    )
    lines = [f"{name} {value:.6g} {unit} ({base})" for name, (value, unit, base) in metrics.items()]
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pinned = pin_blas()
    if importlib.util.find_spec("scipy") is None:
        print("perfbench: scipy is required by the cracked-root oracle", file=sys.stderr)
        return 2
    if not (SRC / "arch_resonance").is_dir() or not GOLDEN.is_dir():
        print(f"perfbench: no program under {SRC} or goldens under {GOLDEN}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import arch_resonance
    import workloads

    setup = measure_setup()
    items = workloads.build(args.workload, args.seed, GOLDEN)
    for item in items[:3]:  # warm-up, untimed; the timed passes check the outputs
        call(item)

    verdicts = Verdicts(items)
    passes = pass_count(args.seconds)
    header = (
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g}"
        f" trace={args.trace} items/pass={len(items)} passes={passes} nproc={os.cpu_count()}"
        f" blas_threads={pinned['OPENBLAS_NUM_THREADS']} python={sys.version.split()[0]}"
    )
    lines = [header]
    if args.trace:
        from spans import Tracer

        path = OUT / f"spans-{args.workload}.npz"
        traced = run_traced(items, passes, verdicts, Tracer(arch_resonance), path)
        metrics, layer_lines = layer_report(traced, verdicts)
        lines.append(f"traced passes: {len(traced['traced'])}, spans written to {path.relative_to(ROOT)}")
        lines += layer_lines
    else:
        runs = run_passes(items, passes, verdicts)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(runs, setup, peak_rss_mb)
        lines += [f"{name} {value:.6g} {unit} ({base})" for name, (value, unit, base) in metrics.items()]

    verdicts.finish()
    fail_ratio = verdicts.failed / verdicts.attempted
    lines.append(f"fail_ratio {fail_ratio:.6g} 1 ({verdicts.failed} of {verdicts.attempted} failed)")
    lines += [f"FAILED {what}: {reason}" for what, reason in verdicts.errors]

    probes = workloads.known_defect_probes(args.seed)
    failing = [(p, error) for p in probes if (error := check(p, call(p)))]
    lines.append(f"known defects: {len(failing)} of {len(probes)} probes fail")
    lines += [f"known defect: {p.label}: {e}" for p, e in failing]
    if args.trace:
        metrics["fail_ratio"] = (fail_ratio, "1", "failed items / attempted items")
        metrics["known_defects.failed"] = (len(failing), "count", f"of {len(probes)} probes")

    print("\n".join(lines))
    correct = not verdicts.errors
    print(json.dumps({
        "correct": correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
