"""Compare two sets of benchmark records (JSONL files written by run.py --record).

Usage: python3 perfbench/compare.py BASE.jsonl NEW.jsonl

For every workload and metric it prints both medians, the spread of each set
(distance between the quartiles over the median) and the change of the
median.  End-to-end metrics are judged against the bounds in BENCHMARK.json:
"worse" when the new median is worse by more than the bound, "unresolved"
when a spread exceeds the bound.  Records whose environment fingerprints
differ (interpreter, mpmath backend, numba, gmpy2, core count, machine) are
flagged, because their numbers are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IDENTITY_KEYS = ("git_commit", "source_sha256")


def load(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def environment(rec: dict) -> str:
    fp = {k: v for k, v in rec["fingerprint"].items() if k not in IDENTITY_KEYS}
    return json.dumps(fp, sort_keys=True)


def spread(values) -> float:
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(p) for p in argv)
    envs = {environment(r) for r in base + new}
    if len(envs) > 1:
        print("WARNING: the records come from different environments:")
        for env in sorted(envs):
            print(f"  {env}")
    bounds = {}
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}

    def group(records):
        out = defaultdict(lambda: defaultdict(list))
        for r in records:
            for name, v in r["metrics"].items():
                out[r["workload"]][name].append(v["value"])
        return out

    gb, gn = group(base), group(new)
    print(f"{'workload':<10} {'metric':<42} {'base':>12} {'new':>12} {'change':>8} "
          f"{'spread b/n':>13}  verdict")
    for wl in sorted(set(gb) & set(gn)):
        for name in sorted(set(gb[wl]) & set(gn[wl])):
            b, n = gb[wl][name], gn[wl][name]
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if mb else float("nan")
            sb, sn = spread(b), spread(n)
            verdict = ""
            if name in bounds:
                bound, better = bounds[name]
                worse = change if better == "lower" else -change
                if max(sb, sn) > bound:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "WORSE"
                else:
                    verdict = "ok"
            print(f"{wl:<10} {name:<42} {mb:>12.5g} {mn:>12.5g} {change:>+8.1%} "
                  f"{sb:>6.1%}/{sn:<6.1%}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
