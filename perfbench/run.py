"""qcorr benchmark: one workload, one run, every metric by name and unit.

Run from the repository root:

    python3 perfbench/run.py --workload measures-sweep --seed 1 --seconds 25 --trace 0

Each run starts fresh interpreters (``worker.py``) with BLAS pinned to one
thread and the repository's ``src`` first on the path.  Set-up is timed
from interpreter start to the first timed operation, in several
interpreters; the median is reported.  One of them then runs the
operations.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced replay.  The last stdout line is the
JSON result; the lines before it describe the run and its environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd().resolve()
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("measures-sweep", "quantumness-search", "extension-maps")
SETUP_SAMPLES = 5
#: Every run ends within this many seconds.
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def start_worker(args, extra: list[str], timeout: float) -> tuple[float, str]:
    """Run one worker; return its set-up time and its last stdout line.

    Set-up ends when the worker prints ``READY``.  The worker is killed at
    ``timeout`` and always waited for.
    """
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        setup_s = None
        last = ""
        for line in proc.stdout:
            if setup_s is None and line.strip() == "READY":
                setup_s = time.perf_counter() - start
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if code != 0 or setup_s is None:
        raise RuntimeError(f"worker exited with code {code}")
    return setup_s, last


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the only value for one sample."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/qcorr/__init__.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"not a qcorr checkout: missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2

    begin = time.perf_counter()

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - begin)

    try:
        setups = [start_worker(args, ["--setup-only"], remaining())[0] for _ in range(SETUP_SAMPLES - 1)]
        setup_s, last = start_worker(args, [], remaining())
    except RuntimeError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)
    raw = json.loads(last)

    if args.trace:
        metrics = dict(raw["layers"])
        metrics["latency_ms.p90"] = (percentile(raw["latency_ms"], 90), "ms")
        metrics["latency_ms.samples"] = (len(raw["latency_ms"]), "count")
        metrics["bound_mean_bits"] = (raw["bound_mean_bits"], "bits")
        metrics["measures.order_violations"] = (raw["order_violations"], "count")
        metrics["fail_frac"] = (raw["failed"] / raw["attempted"], "fraction")
    else:
        metrics = {
            "ops_per_s": (raw["ops_per_s"], "1/s"),
            "latency_ms.p50": (statistics.median(raw["latency_ms"]), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        }

    env = {"nproc": os.cpu_count(), **{v: "1" for v in THREAD_VARS}, **raw["versions"]}
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"environment {json.dumps(env)}")
    print(f"operations {raw['ops']} timed, {raw['attempted']} attempted, {raw['failed']} failed; "
          f"set-up samples (s) {', '.join(f'{s:.4f}' for s in setups)}")
    for failure in raw["failures"]:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
