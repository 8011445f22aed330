"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage::

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S]

Runs ``run.py --trace 0`` once per seed and prints, per metric, the ten
values' median and the distance between their first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    failed = 0
    for seed in _seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=200,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        failed += done.returncode != 0 or not result["correct"]
        row = {name: metric["value"] for name, metric in result["metrics"].items()}
        print(f"seed {seed}: exit {done.returncode} " + " ".join(f"{k}={v:.5g}" for k, v in sorted(row.items())), flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    for metric in bench["end_to_end"]:
        series = values.get(metric["name"], [])
        if len(series) < 2:
            continue
        q1, _, q3 = statistics.quantiles(series, n=4)
        mid = statistics.median(series)
        share = (q3 - q1) / mid
        print(f"{metric['name']}: median {mid:.5g} {metric['unit']}, spread {share:.4f} "
              f"(bound {metric['bound']}, a third {metric['bound'] / 3:.4f})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
