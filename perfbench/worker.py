"""One workload process of the attrarith benchmark (started by run.py).

It imports the library from the checkout's src/, builds the seeded inputs,
runs the untimed warm-up that fills lazy tables, prints READY with its
set-up time and reads one line from stdin: "exit" ends it there, "run" runs
the closed loop (one caller, each operation starting when the previous one
returned).  Its last stdout line is then a JSON object for run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
from importlib.util import find_spec
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MAX_FAILURES_SHOWN = 5
MIN_OPS = 100       # so that ten samples lie beyond op_p90_ms


def _import_library():
    sys.path.insert(0, str(SRC))
    import attrarith

    if SRC not in Path(attrarith.__file__).resolve().parents:
        raise SystemExit(f"attrarith imported from {attrarith.__file__}, not from {SRC}")
    import importlib

    import spans
    for layer in spans.LAYERS:
        importlib.import_module(f"attrarith.{layer}")


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (root / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return None


def fingerprint() -> dict:
    import mpmath

    digest = hashlib.sha256()
    for path in sorted((SRC / "attrarith").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numba": find_spec("numba") is not None,
        "gmpy2": find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(ROOT),
        "source_sha256": digest.hexdigest(),
    }


# The machine's speed drifts (other tenants share its cores): the same hcp pass
# took 1.7 to 3.2 s within one minute.  A fixed kernel that uses no attrarith
# code runs every CALIBRATE_EVERY_S of operation time; each latency is scaled
# by the kernel's nominal time over the mean of the two kernel times around it.
# Set-up time is scaled the same way (SetupClock).
CALIBRATE_EVERY_S = 0.1
KERNEL_PREC, KERNEL_STEPS, KERNEL_LOOP = 1500, 600, 25_000
KERNEL_NOMINAL_S = 0.0125
SETUP_KERNEL_RUNS = 3       # kernels per set-up mark; their median counts


def calibrate() -> float:
    """Seconds taken by the kernel: 1500-bit mpmath complex Horner steps and an integer loop."""
    import mpmath as mp

    t0 = perf_counter()
    with mp.workprec(KERNEL_PREC):
        x = mp.mpc(mp.mpf(1) / 3, mp.mpf(2) / 7)
        acc = mp.mpc(0)
        for k in range(KERNEL_STEPS):
            acc = acc * x + k
    s = 0
    for k in range(KERNEL_LOOP):
        s += k * k
    return perf_counter() - t0


def speed_factor(before: float, after: float) -> float:
    """Factor that turns a wall time between two kernel times into one at nominal speed."""
    return KERNEL_NOMINAL_S / ((before + after) / 2)


def setup_kernel_time() -> float:
    """Median time of SETUP_KERNEL_RUNS kernels."""
    return sorted(calibrate() for _ in range(SETUP_KERNEL_RUNS))[SETUP_KERNEL_RUNS // 2]


class SetupClock:
    """Set-up time from the worker's spawn, scaled piecewise to the kernel's nominal speed.

    `mark` closes the segment since the previous mark: it times the kernel and
    scales the segment by the mean of the kernel times on either side of it.
    Time spent in the kernels themselves is left out.  The first segment starts
    at the spawn, timed by the parent on the same clock (time.monotonic is
    CLOCK_MONOTONIC, shared by all processes on Linux), with the kernel time
    the parent measured just before it.
    """

    def __init__(self, spawned_at: float, kernel_before: float):
        self.start, self.kernel = spawned_at, kernel_before
        self.wall = self.scaled = 0.0

    def mark(self) -> None:
        seg = monotonic() - self.start
        kernel = setup_kernel_time()
        self.wall += seg
        self.scaled += seg * speed_factor(self.kernel, kernel)
        self.kernel, self.start = kernel, monotonic()


def hd_quantile(xs, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta((n+1)p, (n+1)(1-p))-weighted mean of
    the order statistics.  Unlike a single order statistic it does not jump across gaps
    in the latency distribution, which the stratified inputs have.
    """
    s = sorted(xs)
    n = len(s)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(t):
        if not 0 < t < 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    est = total = 0.0
    for i, x in enumerate(s):
        lo, hi = i / n, (i + 1) / n
        w = pdf(lo) + 4 * pdf((lo + hi) / 2) + pdf(hi)     # Simpson's rule on [lo, hi]
        est += w * x
        total += w
    return est / total


class Loop:
    """The closed loop: runs ops, times each, checks each output after timing it."""

    def __init__(self, runner, ref, mp):
        import workloads

        self.runner, self.ref, self.mp = runner, ref, mp
        self.check = workloads.check
        self.failures: list[str] = []
        self.attempted = 0

    def run(self, op, rec=None) -> float:
        t0 = perf_counter()
        sid = rec.begin("harness.op") if rec is not None else None
        try:
            out = self.runner(op)
        except Exception as exc:  # a raising op is a failed op, the loop goes on
            out = exc
        finally:
            if rec is not None:
                rec.end(sid)
        dt = perf_counter() - t0
        self.attempted += 1
        try:
            self.check(self.mp, self.ref, op, out)
        except Exception as exc:  # any check error counts the op as failed
            self.failures.append(f"{op!r}: {type(exc).__name__}: {exc}")
        return dt

    def measure(self, batches, seconds: float, rec=None):
        """Whole batches until `seconds` of operation time and at least MIN_OPS operations.

        Returns (ops run, wall latencies, speed-scaled latencies).
        """
        ran, wall, scaled, pending = [], [], [], []
        busy = since = 0.0
        cal = calibrate()

        def settle(new_cal):
            factor = speed_factor(cal, new_cal)
            scaled.extend(dt * factor for dt in pending)
            pending.clear()
            return new_cal

        while busy < seconds or len(ran) < MIN_OPS:
            batch = next(batches, None)
            if batch is None:
                break
            for op in batch:
                if rec is not None:
                    rec.op = len(ran)
                dt = self.run(op, rec)
                ran.append(op)
                wall.append(dt)
                pending.append(dt)
                busy += dt
                since += dt
                if since >= CALIBRATE_EVERY_S:
                    cal = settle(calibrate())
                    since = 0.0
        settle(calibrate())
        return ran, wall, scaled


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="write the traced run's spans here (JSONL)")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this worker")
    ap.add_argument("--kernel-before", type=float, required=True,
                    help="setup_kernel_time() of the parent just before it started this worker")
    args = ap.parse_args()

    import mpmath as mp

    clock = SetupClock(args.spawned_at, args.kernel_before)
    clock.mark()        # interpreter start and the mpmath import
    _import_library()

    import spans
    import workloads

    ref = workloads.load_reference()
    work = workloads.build(args.workload, ref)
    runner = workloads.Runner(ref)
    loop = Loop(runner, ref, mp)
    clock.mark()
    for op in work.warmup:
        loop.run(op)
        if monotonic() - clock.start >= CALIBRATE_EVERY_S:
            clock.mark()
    clock.mark()
    print(f"READY {clock.scaled!r} {clock.wall!r}", flush=True)
    if sys.stdin.readline().strip() != "run":
        return

    passes = work.passes(args.seed)
    if not args.trace:
        _, wall, scaled = loop.measure(passes, args.seconds)
        metrics = {
            "ops_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
            "op_p50_ms": {"value": hd_quantile(scaled, 0.5) * 1000, "unit": "ms"},
            "op_p90_ms": {"value": hd_quantile(scaled, 0.9) * 1000, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        unscaled = {"ops_per_s": len(wall) / sum(wall),
                    "op_p50_ms": hd_quantile(wall, 0.5) * 1000,
                    "op_p90_ms": hd_quantile(wall, 0.9) * 1000}
        samples = len(wall)
    else:
        ops, _, untraced = loop.measure(passes, args.seconds / 2)
        rec = spans.Recorder()
        uninstall = spans.install(rec)
        runner.stdout_bytes = 0
        try:
            _, wall, traced = loop.measure(iter([ops]), float("inf"), rec)
        finally:
            uninstall()
        metrics = spans.layer_metrics(rec, len(ops), sum(wall), sum(traced) / sum(untraced),
                                      runner.stdout_bytes)
        unscaled = {}
        samples = len(ops)
        if args.spans:
            rec.dump(args.spans)
    print(json.dumps({
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "failures": loop.failures[:MAX_FAILURES_SHOWN],
        "samples": samples,
        "metrics": metrics,
        "unscaled": unscaled,
        "fingerprint": fingerprint(),
    }))


if __name__ == "__main__":
    main()
