"""Output checks, one function per workload.

Each check takes one operation's output plus the harness's reference for
its input and returns a list of problems; an empty list means correct.
The references are computed with plain numpy or with the dense-grid
oracle of the test suite, never with the package under test.
"""

from __future__ import annotations

import math

import numpy as np

#: discord + classical correlation = mutual information, as in the acceptance suite.
IDENTITY_TOL = 1e-9
#: The optimizer tolerance (``OptimizerConfig.tolerance``, ``--tol``).
OPTIMIZER_TOL = 1e-6
#: The package's own feasibility threshold for a witness's B marginal.
FEASIBILITY_TOL = 1e-4
#: Exactness of the worked map example.
MAP_TOL = 1e-12
INSENSITIVITY_TOL = 1e-10
#: The package's threshold for a zero quantumness bound.
ZERO_BOUND_TOL = 1e-12

MEASURE_KEYS = (
    "mutual_information",
    "discord",
    "classical_correlation",
    "oneway_deficit",
    "quantum_deficit",
)

#: The published B matrix of the worked example and its spectrum.
KNOWN_B = np.array(
    [[1, 0, 0, 0.5], [0, 0, 0.5, 0], [0, 0.5, 0, 0], [0.5, 0, 0, 1]], dtype=complex
)
KNOWN_SPECTRUM = np.array([-0.5, 0.5, 0.5, 1.5])


def entropy_bits(matrix: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(np.asarray(matrix, dtype=complex))
    vals = vals[vals > 0.0]
    return float(-np.sum(vals * np.log2(vals)))


def coherent_information_bound(rho4: np.ndarray) -> float:
    """max(0, S(A) - S(AB), S(B) - S(AB)): a lower bound on the quantumness."""
    t = np.asarray(rho4, dtype=complex).reshape(2, 2, 2, 2)
    s_ab = entropy_bits(rho4)
    s_a = entropy_bits(t.trace(axis1=1, axis2=3))
    s_b = entropy_bits(t.trace(axis1=0, axis2=2))
    return max(0.0, s_a - s_ab, s_b - s_ab)


def order_violated(measures: dict) -> bool:
    """Whether discord <= one-way deficit <= quantum deficit fails beyond the tolerance."""
    return not (
        measures["discord"] <= measures["oneway_deficit"] + OPTIMIZER_TOL
        and measures["oneway_deficit"] <= measures["quantum_deficit"] + OPTIMIZER_TOL
    )


def check_measures(report: dict, ref: dict) -> list[str]:
    """``report`` is the parsed ``qcorr measures --json`` output.

    ``ref`` holds ``oracle_discord`` (dense-grid oracle) and ``bell``.
    """
    m = report["measures"]
    problems = []
    for key in MEASURE_KEYS:
        if not math.isfinite(m[key]) or m[key] < -OPTIMIZER_TOL:
            problems.append(f"{key} = {m[key]!r} is not finite and non-negative")
    gap = m["discord"] + m["classical_correlation"] - m["mutual_information"]
    if not abs(gap) <= IDENTITY_TOL:
        problems.append(f"discord + classical correlation - mutual information = {gap:.3e}")
    if not m["discord"] <= ref["oracle_discord"] + OPTIMIZER_TOL:
        problems.append(f"discord {m['discord']!r} above the oracle's {ref['oracle_discord']!r}")
    if ref["bell"] and not abs(m["discord"] - 1.0) <= OPTIMIZER_TOL:
        problems.append(f"Bell discord {m['discord']!r} is not 1")
    return problems


def check_quantumness(report: dict, ref: dict) -> list[str]:
    """``report`` is the parsed ``qcorr quantumness --json`` output.

    ``ref`` holds ``coherent_bound`` (:func:`coherent_information_bound`) and ``bell``.
    """
    bound = report["quantumness"]["upper_bound"]
    residual = report["quantumness"]["marginal_residual"]
    problems = []
    if not math.isfinite(bound):
        problems.append(f"bound {bound!r} is not finite")
    if not residual < FEASIBILITY_TOL:
        problems.append(f"marginal residual {residual!r} not below {FEASIBILITY_TOL}")
    if not bound >= ref["coherent_bound"] - OPTIMIZER_TOL:
        problems.append(f"bound {bound!r} below the coherent-information bound {ref['coherent_bound']!r}")
    if ref["bell"] and not abs(bound - 1.0) <= OPTIMIZER_TOL:
        problems.append(f"Bell bound {bound!r} is not 1")
    return problems


def check_extension(result: dict) -> list[str]:
    """``result`` holds one extension-maps operation's outputs (see ``workloads``)."""
    problems = []
    for label, matrix in (("library", result["b"]), ("bmap-demo", result["demo_b"])):
        if not np.max(np.abs(matrix - KNOWN_B)) <= MAP_TOL:
            problems.append(f"{label} B matrix differs from the published one")
    for label, spectrum in (("spectral_decompose", result["weights"]), ("bmap-demo", result["demo_eigenvalues"])):
        if not np.max(np.abs(np.sort(spectrum) - KNOWN_SPECTRUM)) <= MAP_TOL:
            problems.append(f"{label} spectrum {list(spectrum)} is not (-1/2, 1/2, 1/2, 3/2)")
    for label, verdict in (("classify", result["verdict"]), ("bmap-demo", result["demo_verdict"])):
        if verdict != "NCP":
            problems.append(f"{label} verdict {verdict!r} is not NCP")
    for label, residual in (("apply_amap", result["residual"]), ("bmap-demo", result["demo_residual"])):
        if not residual < INSENSITIVITY_TOL:
            problems.append(f"{label} insensitivity residual {residual!r} not below {INSENSITIVITY_TOL}")
    if not result["bound"] <= ZERO_BOUND_TOL:
        problems.append(f"residual-state bound {result['bound']!r} is not 0")
    return problems
