"""Command-line front end.

State files are UTF-8 JSON of the form

    {"dims": [2, 2], "matrix": [[[re, im], ...], ...]}

with the full square matrix spelled out row by row.  Human-readable output
goes to stdout with 12 significant digits; ``--json`` switches to a
machine-readable report.  Diagnostics always go to stderr, and stdout
stays silent on failure.

Exit codes: 0 ok, 2 parse error, 3 validation failure, 4 unsupported
dimensions, 5 argument out of range, 6 no feasible witness.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from .errors import (
    NoFeasibleWitness,
    NotDensity,
    OutOfRange,
    QcorrError,
    UnsupportedDimension,
)
from .linalg import hermitian_eig
from .maps import apply_amap, build_measurement_maps, classify, example_assignment
from .measurement import example_extension_measurement
from .measures import OptimizerConfig, measure_report
from .quantumness import quantumness_upper_bound
from .states import DensityMatrix, validate_density

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_DIMENSION = 4
EXIT_RANGE = 5
EXIT_NO_WITNESS = 6


class ParseFailure(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _matrix_to_pairs(m: np.ndarray):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def load_state_file(path: str) -> tuple[DensityMatrix, str]:
    """Parse and validate a state file; returns the state and its digest."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        payload = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseFailure(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc

    if not isinstance(payload, dict) or "dims" not in payload or "matrix" not in payload:
        raise ParseFailure(f"{path}: expected an object with 'dims' and 'matrix'")
    dims = payload["dims"]
    if not isinstance(dims, list) or not all(
        isinstance(d, int) and not isinstance(d, bool) and d > 0 for d in dims
    ):
        raise ParseFailure(f"{path}: 'dims' must be a list of positive integers")
    rows = payload["matrix"]
    n = int(np.prod(dims))
    try:
        matrix = np.array(
            [[complex(cell[0], cell[1]) for cell in row] for row in rows], dtype=complex
        )
    except (TypeError, IndexError, ValueError) as exc:
        raise ParseFailure(f"{path}: matrix entries must be [re, im] pairs") from exc
    if matrix.shape != (n, n):
        raise ParseFailure(
            f"{path}: matrix shape {matrix.shape} does not match dims product {n}"
        )
    state = validate_density(matrix, dims)
    return state, digest


def _emit(report: dict, as_json: bool, human_lines):
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def cmd_measures(args) -> int:
    state, digest = load_state_file(args.path)
    if tuple(state.dims) != (2, 2):
        raise UnsupportedDimension(f"measures requires dims (2, 2), got {tuple(state.dims)}")
    cfg = OptimizerConfig(
        grid_resolution=args.grid, refine_iterations=args.refine, tolerance=args.tol
    )
    rep = measure_report(state, cfg)
    report = {
        "input_sha256": digest,
        "dims": list(state.dims),
        "measures": {
            "mutual_information": rep.mutual_information,
            "discord": rep.discord,
            "classical_correlation": rep.classical_correlation,
            "oneway_deficit": rep.oneway_deficit,
            "quantum_deficit": rep.quantum_deficit,
        },
        "optimal_measurement": {"theta": rep.optimal_theta, "phi": rep.optimal_phi},
        "warnings": list(rep.warnings),
    }
    lines = [
        f"mutual information      S(A:B) = {_fmt(rep.mutual_information)} bits",
        f"quantum discord              d = {_fmt(rep.discord)} bits",
        f"classical correlation      C_A = {_fmt(rep.classical_correlation)} bits",
        f"one-way deficit             D> = {_fmt(rep.oneway_deficit)} bits",
        f"quantum deficit           D_AB = {_fmt(rep.quantum_deficit)} bits",
        f"optimal measurement      theta = {_fmt(rep.optimal_theta)}, phi = {_fmt(rep.optimal_phi)}",
    ]
    lines.extend(f"warning: {w}" for w in rep.warnings)
    _emit(report, args.json, lines)
    return EXIT_OK


def cmd_bmap_demo(args) -> int:
    p = args.p
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"p={p} outside [0, 1]")
    maps = build_measurement_maps(example_assignment(), example_extension_measurement())
    verdict = classify(maps.b)
    eigenvalues = hermitian_eig(maps.b.tensor).eigenvalues
    rho_a = p * np.array([[1, 0], [0, 0]], dtype=complex) + (1 - p) * 0.5 * np.ones(
        (2, 2), dtype=complex
    )
    residual = float(np.linalg.norm(apply_amap(maps.a, rho_a) - rho_a))
    report = {
        "p": p,
        "bmap": {
            "matrix": _matrix_to_pairs(maps.b.tensor),
            "eigenvalues": [float(v) for v in eigenvalues],
            "verdict": verdict.verdict,
        },
        "insensitivity_residual": residual,
        "warnings": [],
    }
    lines = ["B matrix:"]
    for row in maps.b.tensor:
        lines.append("  " + "  ".join(_fmt(v.real) for v in row))
    lines.append("eigenvalues: " + ", ".join(_fmt(v) for v in eigenvalues))
    lines.append(f"verdict: {verdict.verdict} (min eigenvalue {_fmt(verdict.min_eigenvalue)})")
    lines.append(f"insensitivity residual on rho_A(p={_fmt(p)}): {_fmt(residual)}")
    _emit(report, args.json, lines)
    return EXIT_OK


def cmd_quantumness(args) -> int:
    state, digest = load_state_file(args.path)
    if tuple(state.dims) != (2, 2):
        raise UnsupportedDimension(
            f"quantumness requires dims (2, 2), got {tuple(state.dims)}"
        )
    estimate = quantumness_upper_bound(
        state, terms=args.terms, restarts=args.restarts, seed=args.seed
    )
    report = {
        "input_sha256": digest,
        "dims": list(state.dims),
        "quantumness": {
            "upper_bound": estimate.upper_bound,
            "marginal_residual": estimate.marginal_residual,
        },
        "restarts_used": estimate.restarts_used,
        "warnings": [],
    }
    lines = [
        f"quantumness upper bound = {_fmt(estimate.upper_bound)} bits",
        f"witness marginal residual = {_fmt(estimate.marginal_residual)}",
        f"restarts used = {estimate.restarts_used}",
    ]
    _emit(report, args.json, lines)
    return EXIT_OK


def cmd_validate(args) -> int:
    state, _ = load_state_file(args.path)
    eigenvalues = hermitian_eig(state.matrix).eigenvalues
    print(
        f"dims = {list(state.dims)}, trace = {_fmt(state.matrix.trace().real)}, "
        f"min eigenvalue = {_fmt(float(eigenvalues[0]))}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Correlation measures and measurement maps for small density matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_meas = sub.add_parser("measures", help="all correlation measures of a two-qubit state")
    p_meas.add_argument("path")
    p_meas.add_argument("--grid", type=int, default=64, help="theta samples per angle")
    p_meas.add_argument("--refine", type=int, default=200, help="zoom refinement rounds (0: grid only)")
    p_meas.add_argument("--tol", type=float, default=1e-6, help="optimizer tolerance")
    p_meas.add_argument("--json", action="store_true")
    p_meas.set_defaults(func=cmd_measures)

    p_bmap = sub.add_parser("bmap-demo", help="build and classify the worked measurement map")
    p_bmap.add_argument("p", type=float, help="mixing weight in [0, 1]")
    p_bmap.add_argument("--json", action="store_true")
    p_bmap.set_defaults(func=cmd_bmap_demo)

    p_quant = sub.add_parser("quantumness", help="distance to the separable states sharing rho_B")
    p_quant.add_argument("path")
    unused = "; does not change a two-qubit result"
    p_quant.add_argument("--terms", type=int, default=8, help="at least 4" + unused)
    p_quant.add_argument("--restarts", type=int, default=8, help="non-negative" + unused)
    p_quant.add_argument("--seed", type=int, default=0, help="non-negative" + unused)
    p_quant.add_argument("--json", action="store_true")
    p_quant.set_defaults(func=cmd_quantumness)

    p_val = sub.add_parser("validate", help="check a state file")
    p_val.add_argument("path")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseFailure as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NotDensity,) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except UnsupportedDimension as exc:
        print(f"unsupported dimensions: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except OutOfRange as exc:
        print(f"argument out of range: {exc}", file=sys.stderr)
        return EXIT_RANGE
    except NoFeasibleWitness as exc:
        print(f"no feasible witness: {exc}", file=sys.stderr)
        return EXIT_NO_WITNESS
    except QcorrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
