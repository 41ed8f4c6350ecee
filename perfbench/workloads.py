"""The three benchmark workloads: inputs, one operation, references and checks.

Operations call the package only through module attributes looked up at
call time, so the traced run's wrappers see every call.  The state-file
workloads go through ``qcorr.cli.main`` exactly as the command line does.
"""

from __future__ import annotations

import importlib.util
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import qcorr.cli
from qcorr import maps, measurement, quantumness, states

import checks
import corpus

#: ``qcorr quantumness`` restarts per operation.  With 0 the search refines
#: only the decohered ensemble after trying the product of marginals, so
#: ``restarts_used`` (which counts candidates, not restarts) is 2.  The
#: default of 8 takes 20 s or more per call, too few calls for a steady run.
QUANTUMNESS_RESTARTS = 0


def run_cli(argv: list[str]) -> dict:
    """Run ``qcorr <argv>`` in-process; return the parsed ``--json`` output."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = qcorr.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"qcorr {argv[0]} exited with {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def load_oracle(root: Path):
    """The test suite's dense-grid discord oracle, loaded from its file."""
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.dense_grid_measures


class Workload:
    def bound_mean(self, records) -> float:
        """Mean quantumness bound over the run's inputs; 0 where none is computed."""
        return 0.0

    def order_violations(self, records) -> int:
        """Operations whose measures break discord <= one-way deficit <= quantum deficit."""
        return 0


class StateFileWorkload(Workload):
    """Operations over two-qubit state files written from the seeded corpus."""

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.seed = seed
        self.root = root
        self.states = dict(self.corpus(seed))
        self.ops = []
        for i, (label, matrix) in enumerate(self.states.items()):
            path = workdir / f"{i:02d}-{label}.json"
            corpus.write_state(path, matrix)
            qcorr.cli.load_state_file(str(path))
            self.ops.append((label, str(path)))


class MeasuresSweep(StateFileWorkload):
    corpus = staticmethod(corpus.measures_corpus)

    def run(self, op) -> dict:
        return run_cli(["measures", op[1], "--json"])

    def references(self, labels) -> dict:
        oracle = load_oracle(self.root)
        return {
            label: {"oracle_discord": oracle(self.states[label], 721, 1441)[0], "bell": label == "bell"}
            for label in labels
        }

    check = staticmethod(checks.check_measures)

    def order_violations(self, records) -> int:
        return sum(checks.order_violated(r.output["measures"]) for r in records if r.output is not None)


class QuantumnessSearch(StateFileWorkload):
    corpus = staticmethod(corpus.quantumness_corpus)

    def run(self, op) -> dict:
        return run_cli(
            ["quantumness", op[1], "--json", "--seed", str(self.seed), "--restarts", str(QUANTUMNESS_RESTARTS)]
        )

    def references(self, labels) -> dict:
        return {
            label: {
                "coherent_bound": checks.coherent_information_bound(self.states[label]),
                "bell": label == "bell",
            }
            for label in labels
        }

    check = staticmethod(checks.check_quantumness)

    def bound_mean(self, records) -> float:
        """Mean bound over the corpus; each run covers the whole corpus at least once."""
        first = {}
        for r in records:
            if r.output is not None:
                first.setdefault(r.op[0], r.output["quantumness"]["upper_bound"])
        return float(np.mean(list(first.values()))) if first else 0.0


class ExtensionMaps(Workload):
    """The worked NCP-map example over a seeded grid of mixing weights."""

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.ops = [(f"p={p!r}", p) for p in corpus.extension_grid(seed)]

    def run(self, op) -> dict:
        p = op[1]
        m = measurement.example_extension_measurement()
        built = maps.build_measurement_maps(maps.example_assignment(), m)
        verdict = maps.classify(built.b)
        kraus = maps.spectral_decompose(built.b)
        rho_a = corpus.example_rho_a(p)
        moved = maps.apply_amap(built.a, rho_a)
        residual = quantumness.residual_state(states.example_extension(p), m)
        estimate = quantumness.quantumness_upper_bound(residual)
        demo = run_cli(["bmap-demo", repr(p), "--json"])
        return {
            "b": built.b.tensor,
            "weights": kraus.weights,
            "verdict": verdict.verdict,
            "residual": float(np.linalg.norm(moved - rho_a)),
            "bound": estimate.upper_bound,
            "demo_b": np.array([[complex(*cell) for cell in row] for row in demo["bmap"]["matrix"]]),
            "demo_eigenvalues": np.array(demo["bmap"]["eigenvalues"]),
            "demo_verdict": demo["bmap"]["verdict"],
            "demo_residual": demo["insensitivity_residual"],
        }

    def references(self, labels) -> dict:
        return {label: None for label in labels}

    def check(self, output, ref) -> list[str]:
        return checks.check_extension(output)

    def bound_mean(self, records) -> float:
        bounds = [r.output["bound"] for r in records if r.output is not None]
        return float(np.mean(bounds)) if bounds else 0.0


WORKLOADS = {
    "measures-sweep": MeasuresSweep,
    "quantumness-search": QuantumnessSearch,
    "extension-maps": ExtensionMaps,
}


def evaluate(workload, records) -> list[str]:
    """Check every record; return one problem line per failed operation.

    An operation fails on an exception (which covers a nonzero exit code)
    or on a failed output check.  References are computed once per input.
    """
    refs = workload.references(sorted({r.op[0] for r in records if r.output is not None}))
    failures = []
    for i, r in enumerate(records):
        if r.error is not None:
            failures.append(f"op {i} ({r.op[0]}): {r.error}")
            continue
        try:
            problems = workload.check(r.output, refs[r.op[0]])
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"malformed output: {exc!r}"]
        if problems:
            failures.append(f"op {i} ({r.op[0]}): " + "; ".join(problems))
    return failures
