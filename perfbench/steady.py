"""Steadiness check: run one workload with seeds 1..runs, one run at a
time, and report the median and quartiles of every metric.

    python3 perfbench/steady.py --workload modular --runs 10

Each run lasts BENCHMARK.json's run_seconds.  For each end-to-end
metric the spread is (Q3 - Q1) / median, with the quartiles of
`statistics.quantiles(values, n=4)`.  A metric is flagged `over_bound`
when its spread exceeds its bound in BENCHMARK.json, and `over_target`
when it exceeds a third of that bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    runs = []
    for seed in range(1, args.runs + 1):
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"]})
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(json.dumps({"seed": seed, **{k: round(v["value"], 6) for k, v in
                                           result["metrics"].items()}}),
              file=sys.stderr, flush=True)

    report = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med
        report[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                        "bound": bounds[name], "over_bound": spread > bounds[name],
                        "over_target": spread > bounds[name] / 3}
    print(json.dumps({"workload": args.workload, "runs": runs, "metrics": report},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
