"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/repeat.py --workload trajectory --seeds 1-10 --seconds 25

Prints one JSON line per run (the result object with its seed), then per
metric the median, the quartiles and the spread: the distance between the
quartiles as a share of the median.  Run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True)
        report_line, result_line = proc.stdout.splitlines()[-2:]
        result = json.loads(result_line)
        print(json.dumps({"seed": seed, **result}), flush=True)
        if not result["correct"]:
            print(report_line[:2000], file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
        print(json.dumps({"metric": name, "median": median, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / median if median else None, "runs": len(vals)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
