"""Seeded benchmark inputs.

Everything here is plain numpy, sharing no code with the package, so the
inputs for a seed stay the same when the package changes.  The same seed
always gives the same states, in the same order.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
KET_0 = np.array([1, 0], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2.0)


def _projector(vec) -> np.ndarray:
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def _wishart(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = g @ g.conj().T
    return w / w.trace().real


def _bloch(r) -> np.ndarray:
    return 0.5 * (np.eye(2, dtype=complex) + sum(c * p for c, p in zip(r, PAULIS)))


def _unit_vector(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def bell() -> np.ndarray:
    return _projector([1, 0, 0, 1])


def example_separable(p: float) -> np.ndarray:
    """p |00><00| + (1 - p) |++><++|, the worked separable-but-discordant state."""
    return p * _projector(np.kron(KET_0, KET_0)) + (1 - p) * _projector(np.kron(KET_PLUS, KET_PLUS))


def example_rho_a(p: float) -> np.ndarray:
    """A marginal of :func:`example_separable`: p |0><0| + (1 - p) |+><+|."""
    return p * _projector(KET_0) + (1 - p) * _projector(KET_PLUS)


def classical_degenerate(rng) -> np.ndarray:
    """1/2 P_n (x) tau + 1/2 P_-n (x) (I - tau): both marginals are I/2.

    Zero discord, but the degenerate marginals send the quantum deficit
    down its warning path.
    """
    n = _unit_vector(rng)
    r = rng.uniform(0.3, 0.9) * _unit_vector(rng)
    tau = _bloch(r)
    return 0.5 * np.kron(_bloch(n), tau) + 0.5 * np.kron(_bloch(-n), np.eye(2) - tau)


def measures_corpus(seed: int) -> list[tuple[str, np.ndarray]]:
    """Twelve two-qubit states of every kind the measures path treats differently."""
    rng = np.random.default_rng([seed, 1])
    states = [(f"wishart-{i}", _wishart(rng, 4)) for i in range(4)]
    states += [(f"pure-{i}", _projector(rng.standard_normal(4) + 1j * rng.standard_normal(4))) for i in range(2)]
    states += [(f"classical-degenerate-{i}", classical_degenerate(rng)) for i in range(2)]
    states.append(("product", np.kron(_wishart(rng, 2), _wishart(rng, 2))))
    states.append(("bell", bell()))
    grid = (np.arange(2) + rng.uniform(0.05, 0.95, size=2)) / 2
    states += [(f"separable-{p:.4f}", example_separable(p)) for p in grid]
    return states


def quantumness_corpus(seed: int) -> list[tuple[str, np.ndarray]]:
    """Bell, one non-maximal pure state, the worked separable state and Wishart states."""
    rng = np.random.default_rng([seed, 2])
    angle = rng.uniform(0.2, 0.6)
    p = rng.uniform(0.2, 0.8)
    states = [
        ("bell", bell()),
        (f"pure-{angle:.4f}", _projector([np.cos(angle), 0, 0, np.sin(angle)])),
        (f"separable-{p:.4f}", example_separable(p)),
    ]
    states += [(f"wishart-{i}", _wishart(rng, 4)) for i in range(9)]
    return states


def extension_grid(seed: int, points: int = 16) -> list[float]:
    """One mixing weight in each of ``points`` equal slices of [0, 1]."""
    rng = np.random.default_rng([seed, 3])
    return [float(v) for v in (np.arange(points) + rng.uniform(size=points)) / points]


def write_state(path: Path, matrix: np.ndarray) -> None:
    """Write a two-qubit state in the command-line file format."""
    rows = [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(matrix, dtype=complex)]
    path.write_text(json.dumps({"dims": [2, 2], "matrix": rows}))
