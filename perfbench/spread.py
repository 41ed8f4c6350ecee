"""Repeat benchmark runs over seeds and summarise each metric.

    python3 perfbench/spread.py --workload quantumness-search --seeds 1-10 [--trace 1] [--out FILE]

For every metric: the median over the runs and the spread, the distance
between the first and third quartiles as a share of the median (the
steadiness test a bound must pass).  ``--out`` writes runs and summary as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    benchmark = json.loads(BENCHMARK_JSON.read_text())

    runs = []
    for seed in seeds(args.seeds):
        cmd = [*benchmark["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(benchmark["run_seconds"]), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    names = runs[0]["metrics"]
    summary = {name: summarise([r["metrics"][name]["value"] for r in runs]) for name in names}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    for name, s in summary.items():
        bound = f"  bound {bounds[name]}" if name in bounds else ""
        print(f"{name:48s} median {s['median']:.6g}  spread {s['spread']:.4f}{bound}")
    print(f"failed {sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)} attempted")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
