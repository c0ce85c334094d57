"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workload decide_large --seeds 1 2 3 4 5 [--out summary.json]

Runs run.py once per seed (sequentially, --trace 0, BENCHMARK.json's
run_seconds) and prints, per metric, the median and the distance between
the first and third quartiles as a share of the median, next to the
metric's bound.  A spread at or above a third of its bound is flagged;
setup_s is exempt, since only its median is compared.  --out writes the
per-metric values, quartiles and spreads with the provenance of the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


def summarize(results, names):
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                     "values": values}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--out", default=None, help="write the summary to this JSON file")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    steady = True
    for workload in args.workload:
        runs = [run_once(workload, seed, args.seconds) for seed in args.seeds]
        results = [result for result, _ in runs]
        incorrect = sum(not r["correct"] for r in results)
        summary = summarize(results, bounds)
        report["workloads"][workload] = {"runs": len(results), "incorrect": incorrect,
                                         "metrics": summary}
        report["provenance"] = {k: v for k, v in runs[0][1]["provenance"].items() if k != "seed"}
        print(f"{workload}: {len(results)} runs, {incorrect} incorrect")
        steady &= not incorrect
        for name, bound in bounds.items():
            s = summary[name]
            flag = "" if s["spread"] < bound / 3 else "  <-- spread >= bound/3"
            if name != "setup_s":
                steady &= not flag
            print(f"  {name:12s} median {s['median']:10.5g}  spread {s['spread']:6.3f}  "
                  f"bound {bound}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
