"""Steadiness check: run a workload with several seeds and report, for each
end-to-end metric, the median and the quartile spread (IQR over median)
next to the bound ``BENCHMARK.json`` fixes for it.

    python3 perfbench/spread.py --workload serve-mixed --seeds 1-10

Runs are sequential fresh ``run.py`` processes; their result lines are
appended to ``--out`` (JSON lines) so two sets can be compared later.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def summarize(lines: list[dict], declared: list[dict]) -> list[str]:
    rows = []
    for metric in declared:
        values = [line["metrics"][metric["name"]]["value"] for line in lines]
        values = [v for v in values if v is not None]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = metric.get("bound")
        flag = "" if bound is None or spread <= bound / 3 else "  <-- over bound/3"
        rows.append(f"  {metric['name']:<14} median {median:12.4f} "
                    f"{metric['unit']:<4} spread {spread:6.3f}"
                    f"{'' if bound is None else f' bound {bound}'}{flag}")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", default=None, help="append result lines")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    lines = []
    for seed in args.seeds:
        completed = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
            check=True)
        line = json.loads(completed.stdout.strip().splitlines()[-1])
        line.update(workload=args.workload, seed=seed)
        lines.append(line)
        print(f"seed {seed}: correct={line['correct']} "
              + " ".join(f"{k}={v['value']:.4g}"
                         for k, v in line["metrics"].items()), flush=True)
        if args.out:
            with open(args.out, "a") as handle:
                handle.write(json.dumps(line) + "\n")
    print("\n".join(summarize(lines, spec["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
