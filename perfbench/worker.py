"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py`` with BLAS pinned to one thread and ``src`` on the
path.  It writes and validates the seeded inputs, prints ``READY`` (the
end of set-up), runs operations back to back for the given seconds, and,
with ``--trace 1``, replays the same operations under the span recorder.
Outputs are checked after the timed regions.  The last stdout line is a
JSON object of raw results for ``run.py`` to report.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from spans import SpanRecorder, bindings, patch, self_times

ROOT = Path.cwd().resolve()
OUT = ROOT / ".perfbench_out"


@dataclass
class Record:
    op: tuple
    latency: float
    output: object
    error: str | None


def run_ops(run, ops, seconds: float, min_ops: int, max_ops: int | None = None) -> tuple[list[Record], float]:
    """Closed loop, one client: the next operation starts when the last ends.

    Runs for ``seconds`` and at least ``min_ops`` operations, cycling ``ops``.
    """
    records = []
    start = time.perf_counter()
    while len(records) != max_ops and (len(records) < min_ops or time.perf_counter() - start < seconds):
        op = ops[len(records) % len(ops)]
        t0 = time.perf_counter()
        try:
            output, error = run(op), None
        except Exception as exc:  # an operation's failure is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        records.append(Record(op, time.perf_counter() - t0, output, error))
    return records, time.perf_counter() - start


def span_targets():
    """Span name -> package function, for every layer the traced run times."""
    from qcorr import cli, entropy, linalg, maps, measurement, measures, quantumness, states

    return {
        "cli.load_state_file": cli.load_state_file,
        "measures.measure_report": measures.measure_report,
        "measures.maximize_measured_mi": measures.maximize_measured_mi,
        "measures.oneway_deficit": measures.oneway_deficit,
        "measures.quantum_deficit": measures.quantum_deficit,
        "quantumness.quantumness_upper_bound": quantumness.quantumness_upper_bound,
        "quantumness.residual_state": quantumness.residual_state,
        "entropy.von_neumann_entropy": entropy.von_neumann_entropy,
        "entropy.relative_entropy": entropy.relative_entropy,
        "entropy.mutual_information": entropy.mutual_information,
        "linalg.hermitian_eig": linalg.hermitian_eig,
        "linalg.partial_trace": linalg.partial_trace,
        "states.validate_density": states.validate_density,
        "measurement.pinch": measurement.pinch,
        "measurement.measure_subsystem": measurement.measure_subsystem,
        "maps.build_measurement_maps": maps.build_measurement_maps,
        "maps.classify": maps.classify,
        "maps.spectral_decompose": maps.spectral_decompose,
        "maps.dual_Q": maps.dual_Q,
        "maps.apply_amap": maps.apply_amap,
    }


#: Spans recorded besides the functions of :func:`span_targets`.
EXTRA_SPANS = ("op", "measures.refine", "measurement.ProjectiveMeasurement")


def _observe_refine(rec, args, kwargs, result):
    rec.counters["measures.refine.nfev"] += result.nfev
    rec.counters["measures.refine.converged"] += bool(result.success)


def _observe_quantumness(rec, args, kwargs, result):
    rec.counters["quantumness.candidates"] += result.restarts_used
    # A zero bound from any candidate ends the search early.
    rec.counters["quantumness.early_exits"] += result.upper_bound < 1e-12


def _observe_objective(rec, args, kwargs, result):
    rec.counters["quantumness.objective_evals"] += 1


def trace_replacements(recorder):
    """(owner, attribute, wrapper) for every binding the traced run replaces."""
    from qcorr import measurement, measures, quantumness

    observers = {"quantumness.quantumness_upper_bound": _observe_quantumness}
    out = []
    for name, fn in span_targets().items():
        for owner, attr in bindings(fn):
            observe = observers.get(name)
            if owner is quantumness and attr == "partial_trace":
                observe = _observe_objective  # one per witness-search objective evaluation
            out.append((owner, attr, recorder.span(name, fn, observe)))
    out.append((measures, "minimize", recorder.span("measures.refine", measures.minimize, _observe_refine)))
    post_init = measurement.ProjectiveMeasurement.__post_init__
    out.append(
        (measurement.ProjectiveMeasurement, "__post_init__", recorder.span("measurement.ProjectiveMeasurement", post_init))
    )
    for kernel in ("_measured_mi_batch", "_pinched_entropy_batch"):
        fn = getattr(measures, kernel)
        out.append((measures, kernel, recorder.count("measures.evaluations", fn, lambda a: a[-1].size)))
    return out


def traced_run(workload, records, seconds: float, spans_path: Path):
    """Replay the untraced run's operations under the span recorder.

    Returns the traced records and the per-layer metrics, normalised per
    operation.  Each traced operation runs right after an untraced twin of
    itself, and ``trace.overhead_frac`` compares the two, so that drift in
    machine speed between the loops does not count as overhead.
    """
    recorder = SpanRecorder()
    replacements = trace_replacements(recorder)
    traced_op = recorder.span("op", workload.run)
    twin_s, traced_s = [], []

    def run(op):
        t0 = time.perf_counter()
        workload.run(op)
        twin_s.append(time.perf_counter() - t0)
        restore = patch(replacements)
        recorder.op += 1
        t0 = time.perf_counter()
        try:
            return traced_op(op)
        finally:
            traced_s.append(time.perf_counter() - t0)
            restore()

    traced, _ = run_ops(run, [r.op for r in records], seconds, 1, len(records))
    n = len(traced)
    recorder.dump(spans_path)

    metrics = {}
    per_name = self_times(recorder.spans)
    for name in list(span_targets()) + list(EXTRA_SPANS):
        calls, self_s = per_name.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls / n, "1/op")
        metrics[f"{name}.self_ms"] = (self_s * 1e3 / n, "ms/op")
    c = recorder.counters
    refine_calls = per_name.get("measures.refine", (0, 0.0))[0]
    quant_calls = per_name.get("quantumness.quantumness_upper_bound", (0, 0.0))[0]
    metrics["measures.refine.nfev"] = (c["measures.refine.nfev"] / n, "1/op")
    metrics["measures.refine.converged_frac"] = (c["measures.refine.converged"] / refine_calls if refine_calls else 0.0, "fraction")
    metrics["measures.evaluations"] = (c["measures.evaluations"] / n, "1/op")
    metrics["quantumness.candidates"] = (c["quantumness.candidates"] / n, "1/op")
    metrics["quantumness.objective_evals"] = (c["quantumness.objective_evals"] / n, "1/op")
    metrics["quantumness.early_exit_frac"] = (c["quantumness.early_exits"] / quant_calls if quant_calls else 0.0, "fraction")
    metrics["trace.overhead_frac"] = (sum(traced_s) / sum(twin_s) - 1.0 if twin_s else 0.0, "fraction")
    metrics["trace.ops"] = (n, "count")
    return traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import qcorr.cli

    if ROOT / "src" not in Path(qcorr.cli.__file__).resolve().parents:
        print(f"qcorr imported from {qcorr.cli.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    from workloads import WORKLOADS, evaluate

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir), ROOT)
        print("READY", flush=True)
        if args.setup_only:
            return 0

        records, elapsed = run_ops(workload.run, workload.ops, args.seconds, len(workload.ops))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        layers = {}
        traced = []
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
            traced, layers = traced_run(workload, records, args.seconds, spans_path)

    everything = records + traced
    failures = evaluate(workload, everything)
    latencies_ms = [r.latency * 1e3 for r in records]
    result = {
        "attempted": len(everything),
        "failed": len(failures),
        "failures": failures[:20],
        "ops": len(records),
        "ops_per_s": len(records) / elapsed,
        "latency_ms": latencies_ms,
        "peak_rss_mb": peak_rss_mb,
        "bound_mean_bits": workload.bound_mean(records),
        "order_violations": workload.order_violations(everything),
        "layers": layers,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
