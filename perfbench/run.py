"""Benchmark of attrarith: one seeded workload, closed loop, outputs checked.

Usage (from the repository root):
  python3 perfbench/run.py --workload hcp --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --workload all --seed 1            # every workload, in turn

Each workload runs in fresh worker processes, one at a time: SETUPS of them
measure set-up (spawn, import, warm-up, scaled to the calibration kernel's
nominal speed) and the last one also runs the timed loop.  --trace 0 reports
the end-to-end metrics; --trace 1 reports the per-layer metrics of a traced
run (see perfbench/README.md).  The last stdout
line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from worker import setup_kernel_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 7
DEADLINE_S = 170.0
WORKLOADS = ("hcp", "highprec", "torsion", "cli-mix")


class RunFailed(Exception):
    pass


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def run_workload(name: str, seed: int, seconds: float, trace: int, spans_path=None,
                 deadline: float = DEADLINE_S) -> dict:
    """Set up SETUPS fresh workers, time the last; returns the result record.

    Each worker reports its set-up time (spawn to READY) speed-scaled by the
    calibration kernel, which this process times just before the spawn and the
    worker times during its set-up (worker.SetupClock).
    """
    end = monotonic() + deadline
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if spans_path:
        cmd += ["--spans", str(spans_path)]
    setup_kernel_time()     # the first call also imports mpmath
    walls, scaled = [], []
    for i in range(SETUPS):
        kernel = setup_kernel_time()
        spawned_at = monotonic()
        proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at),
                                       "--kernel-before", repr(kernel)],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            ready = proc.stdout.readline().split()
            if len(ready) != 3 or ready[0] != "READY":
                raise RunFailed(f"worker for {name} did not get ready: {' '.join(ready)!r}")
            scaled.append(float(ready[1]))
            walls.append(float(ready[2]))
            out, _ = proc.communicate("run\n" if i == SETUPS - 1 else "exit\n",
                                      timeout=max(1.0, end - monotonic()))
        except subprocess.TimeoutExpired:
            raise RunFailed(f"{name} ran past {deadline:.0f} s") from None
        finally:
            _stop(proc)
        if proc.returncode != 0:
            raise RunFailed(f"worker for {name} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RunFailed(f"worker for {name} printed no result")
    rec = json.loads(lines[-1])
    rec["setups_s"] = scaled
    if not trace:
        rec["metrics"]["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
        rec["unscaled"]["setup_s"] = statistics.median(walls)
    return rec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=None,
                    help="append the full record (fingerprint, samples, setups) to this JSONL file")
    ap.add_argument("--spans", default=None,
                    help="with --trace 1, write spans to this JSONL file "
                         "(default perfbench/results/spans-WORKLOAD-seedN.jsonl)")
    args = ap.parse_args()

    if not (ROOT / "src" / "attrarith" / "__init__.py").is_file():
        print(f"perfbench: no attrarith sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        spans_path = args.spans
        if args.trace and not spans_path:
            (HERE / "results").mkdir(exist_ok=True)
            spans_path = HERE / "results" / f"spans-{name}-seed{args.seed}.jsonl"
        try:
            rec = run_workload(name, args.seed, args.seconds, args.trace, spans_path)
        except RunFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        for failure in rec["failures"]:
            print(f"perfbench: {name}: failed op {failure}", file=sys.stderr)
        print(f"# {name} fingerprint {json.dumps(rec['fingerprint'], sort_keys=True)}")
        print(f"# {name} samples {rec['samples']}, speed-scaled setups_s {rec['setups_s']}")
        for metric, v in rec["metrics"].items():
            print(f"# {name} {metric} = {v['value']:.6g} {v['unit']}")
        print(f"# {name} error_rate = {rec['failed'] / rec['attempted']:.6g} (failed/attempted)")
        for metric, value in rec["unscaled"].items():
            print(f"# {name} {metric} (wall, not speed-scaled) = {value:.6g}")
        if args.record:
            with open(args.record, "a") as fh:
                fh.write(json.dumps({"workload": name, "seed": args.seed,
                                     "seconds": args.seconds, "trace": args.trace, **rec}) + "\n")
        total["attempted"] += rec["attempted"]
        total["failed"] += rec["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        total["metrics"].update({prefix + k: v for k, v in rec["metrics"].items()})
    total["correct"] = total["failed"] == 0
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
