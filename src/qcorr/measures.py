"""Correlation measures of a two-qubit state and the optimizer behind them.

Quantum discord and the one-sided classical correlation are two readings of
one optimization: the maximum of the measured mutual information over
rank-1 projective measurements on subsystem A.  Both measures therefore
share a single optimizer run, which makes the identity

    discord + classical_correlation = mutual_information

hold by construction at the shared argmax; the same run minimizes the
pinched entropy for the one-way deficit.  It is a (theta, phi) grid over
the Bloch sphere, scanned in blocks of rows, then a batched zoom of both
winners in lockstep: 13x13 grids in the tangent plane at each best point,
quartering their width each round until it is below sqrt(eps).  It uses
numpy alone and is deterministic for a fixed configuration.  A measurement
is an axis {n, -n}, so the grid covers each once: phi runs over [0, pi).
Grid ties go to the first angle pair in (theta, phi) order.  The reported axis
is the one of +/-n whose first coordinate in (y, x, z) order above 6 sqrt(eps) in
magnitude is positive, smaller ones read as 0: theta in [0, pi], phi in [0, pi).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .entropy import _entropy_bits, mutual_information, relative_entropy, von_neumann_entropy
from .errors import DegenerateMarginalWarning, DimensionMismatch, OutOfRange
from .linalg import PAULI_PRODUCTS, hermitian_eig, tensor_product
from .measurement import ProjectiveMeasurement, bloch_projectors, measure_subsystem
from .states import DensityMatrix, _require_two_qubits


@dataclass(frozen=True)
class OptimizerConfig:
    """Grid density and refinement budget for the measurement search.

    ``grid_resolution`` is the number of theta samples on [0, pi]; phi gets
    as many on [0, pi).  ``refine_iterations`` caps the zoom rounds
    (0 keeps the grid winner); the default never binds, since the zoom
    reaches its sqrt(eps) width tolerance in 12 rounds at the default grid.
    Both must be integers, not bools.  A measure in ``(-tolerance, 0)`` is
    reported as 0; ``tolerance`` must be a positive finite number, not a
    bool.  The command line reads its defaults from these fields.
    """

    grid_resolution: int = 64
    refine_iterations: int = 200
    tolerance: float = 1e-6

    def __post_init__(self):
        for name in ("grid_resolution", "refine_iterations"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise OutOfRange(f"{name} {value!r} must be an integer")
        if self.grid_resolution < 8:
            raise OutOfRange(f"grid_resolution {self.grid_resolution} < 8")
        if self.refine_iterations < 0:
            raise OutOfRange(f"refine_iterations {self.refine_iterations} < 0")
        if isinstance(self.tolerance, (bool, np.bool_)) or not 0 < self.tolerance < math.inf:  # also rejects NaN
            raise OutOfRange(f"tolerance {self.tolerance} must be positive and finite")


@dataclass(frozen=True)
class OptimizationResult:
    value: float
    theta: float
    phi: float
    evaluations: int


@dataclass(frozen=True)
class DiscordDecomposition:
    """Measurement-specific discord evaluated two ways (see module docs)."""

    direct: float
    via_relative_entropies: float


@dataclass(frozen=True)
class MeasureReport:
    """All correlation measures of one state plus optimizer diagnostics.

    ``diagnostics`` holds the evaluation count, the unclipped discord and
    classical correlation, the one-way deficit's angles, and the zoom's
    round count and whether its width tolerance was reached
    (``zoom_rounds``, ``zoom_converged``).
    """

    mutual_information: float
    discord: float
    classical_correlation: float
    oneway_deficit: float
    quantum_deficit: float
    optimal_theta: float
    optimal_phi: float
    optimal_measurement: ProjectiveMeasurement
    diagnostics: dict = field(compare=False)
    warnings: tuple = ()


# ---------------------------------------------------------------------------
# Batched objective kernels (pure, used by the grid stage and by every zoom
# round so that both stages evaluate identical algebra).
# ---------------------------------------------------------------------------

def _fano_matrix(rho4: np.ndarray) -> np.ndarray:
    """The 4x4 real matrix T[mu, nu] = Tr[(sigma_mu (x) sigma_nu) rho], sigma_0 = I."""
    # Row 4 mu + nu of the flattened products dotted with rho^T flattened is that trace.
    return (PAULI_PRODUCTS.reshape(16, 16) @ rho4.T.ravel()).real.reshape(4, 4)


def _bloch_statistics(fano: np.ndarray, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Entropy terms of the outcomes of measuring A along +/-n(theta, phi).

    Row k of the Fano matrix T holds the Bloch coordinates, trace first, of
    rho_B (k = 0) and of R_k = Tr_A[(sigma_k (x) I) rho].  The B branch of
    outcome +/-n, (rho_B +/- n.R) / 2, has coordinates m = (T_0 +/- n.T) / 2:
    trace m_0 and eigenvalues (m_0 -/+ |m_1..3|) / 2.  This is the closed form
    (tr +/- sqrt((a - d)^2 + 4|b|^2)) / 2, which needs no clipping and stays
    accurate at degeneracy.  ``fano`` is :func:`_fano_matrix` of the state.
    Returns x log2 x (0 at x <= 0) of the eigenvalues and the probability,
    shape theta.shape + (2, 3): point x outcome x (lower, upper, probability).
    Both objective kernels sum these ``terms``, so one call can feed both.
    """
    st = np.sin(theta)
    n = np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)
    m = 0.5 * (fano[0] + np.array([[1.0], [-1.0]]) * (n @ fano[1:])[..., None, :])
    sq = m[..., 1:] ** 2
    probs, radius = m[..., 0], np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])
    x = np.maximum(np.stack([0.5 * (probs - radius), 0.5 * (probs + radius), probs], axis=-1), 0.0)
    return np.where(x > 0.0, x * np.log2(np.where(x > 0.0, x, 1.0)), 0.0)


def _measured_mi_batch(fano: np.ndarray, s_b: float, theta: np.ndarray, phi: np.ndarray, *, terms=None) -> np.ndarray:
    """Measured mutual information S(rho_B) - sum_a p_a S(rho_B|a) on an angle batch."""
    terms = _bloch_statistics(fano, theta, phi) if terms is None else terms
    # p * S(sigma/p) = -sum lam log lam + p log p, finite as p -> 0.
    weighted = terms[..., 2] - (terms[..., 0] + terms[..., 1])
    return s_b - (weighted[..., 0] + weighted[..., 1])


def _pinched_entropy_batch(fano: np.ndarray, theta: np.ndarray, phi: np.ndarray, *, terms=None) -> np.ndarray:
    """Entropy of sum_a (P_a (x) I) rho (P_a (x) I) on an angle batch.

    For rank-1 P_a the pinched state is sum_a P_a (x) sigma_a with sigma_a
    the unnormalized B branch, so its spectrum joins the branch spectra.
    """
    terms = _bloch_statistics(fano, theta, phi) if terms is None else terms
    return -terms[..., :2].sum(axis=(-2, -1))


@dataclass(frozen=True)
class ZoomResult:
    """Outcome of :func:`minimize`: best angles ``x`` (theta, phi) and value ``fun`` per
    start, the evaluation count of all starts, and whether the width tolerance was reached."""

    x: np.ndarray
    fun: np.ndarray
    nfev: int
    success: bool


#: Offsets of the 13x13 zoom grid along the two tangent directions, in units of the half-width.
_ZOOM_U = np.repeat(np.linspace(-1.0, 1.0, 13), 13)
_ZOOM_V = np.tile(np.linspace(-1.0, 1.0, 13), 13)
#: The zoom stops once its half-width falls below sqrt(eps).  Near a smooth
#: optimum a point at distance w is off in value by c w^2, which is below the
#: rounding of the value (eps relative) once w < sqrt(eps): narrower rounds
#: only chase rounding.
_ZOOM_XTOL = math.sqrt(np.finfo(float).eps)
#: :func:`_axis_angles` reads axis coordinates up to this as 0: the zoom places an optimum only to a
#: few ``_ZOOM_XTOL`` (y reached 4e-8 on real states, where it is 0), too coarse to pick the axis's sign.
_AXIS_ZERO = 6.0 * _ZOOM_XTOL


def minimize(objective, theta, phi, value, width: float, rounds: int) -> ZoomResult:
    """Batched zoom descent of ``objective`` from starts n(theta[i], phi[i]) of values ``value[i]``.

    The zoom works in the tangent plane at each start n: the point (u, v)
    stands for the direction of n + u e_theta + v e_phi, with e_theta and
    e_phi the unit tangents along theta and phi.  That chart is regular
    everywhere, poles included, and reaches twice the starting half-width
    in every direction.  Each round evaluates, in one call, a 13x13 (u, v)
    grid of the current half-width around each start's current point (row i
    of a (starts, 169) batch), moves a start to its first lowest point only
    when that is strictly lower, and quarters the width, so each start ends
    where it would alone.  The next half-width, w/4, is 1.5 spacings (w/6)
    of this round's grid, so the next round reaches past the chosen point's
    neighbours.  A round's cost is bound by numpy's per-call overhead more
    than by its point count.  It stops when the width is below ``_ZOOM_XTOL``
    (sqrt(eps)) or after ``rounds`` rounds.
    """
    theta, phi, value = (np.array(a, dtype=float) for a in (theta, phi, value))
    trig = [(math.sin(t), math.cos(t), math.sin(p), math.cos(p)) for t, p in zip(theta, phi)]
    frame = np.array([[[st * cp, st * sp, ct], [ct * cp, ct * sp, -st], [-sp, cp, 0.0]] for st, ct, sp, cp in trig])
    u, v, nfev = np.zeros_like(theta), np.zeros_like(theta), 0
    for _ in range(rounds):
        if width < _ZOOM_XTOL:
            break
        uu, vv = u[:, None] + width * _ZOOM_U, v[:, None] + width * _ZOOM_V
        n = frame[:, None, 0] + uu[..., None] * frame[:, None, 1] + vv[..., None] * frame[:, None, 2]
        tt = np.arctan2(np.hypot(n[..., 0], n[..., 1]), n[..., 2])
        pp = np.arctan2(n[..., 1], n[..., 0])
        values = objective(tt, pp)
        nfev += values.size
        for k, idx in enumerate(np.argmin(values, axis=1)):
            if values[k, idx] < value[k]:
                value[k], theta[k], phi[k], u[k], v[k] = values[k, idx], tt[k, idx], pp[k, idx], uu[k, idx], vv[k, idx]
        width *= 0.25
    return ZoomResult(np.stack([theta, phi], axis=-1), value, nfev, width < _ZOOM_XTOL)


#: Grid points per statistics pass, rounded down to whole theta rows.
_BLOCK_POINTS = 512


def _search(fano: np.ndarray, s_b: float, cfg: OptimizerConfig):
    """Maximum of the measured mutual information J and minimum of the pinched entropy.

    The r x r grid, theta on [0, pi] and phi on [0, pi), visits every
    measurement axis once.  It is scanned in blocks of whole theta rows with
    one statistics pass each; a block's winner replaces the running one only
    when strictly better, so each winner is the first angle pair in (theta,
    phi) order whose computed value is optimal.  The zoom (:func:`minimize`)
    refines both winners in lockstep, on -J and on the pinched entropy,
    from a half-width of two theta grid steps (2 pi/63 at the default grid,
    which quarters below sqrt(eps) in 12 rounds), for at most
    ``cfg.refine_iterations`` rounds.  Each winner, grid or zoom, is
    reported by :func:`_axis_angles`; the zoom's own result comes third.
    """

    def objective(tt, pp):
        # -J on the first angle row and the pinched entropy on the last, from one statistics pass
        terms = _bloch_statistics(fano, tt, pp)
        return np.stack([
            -_measured_mi_batch(fano, s_b, tt[0], pp[0], terms=terms[0]),
            _pinched_entropy_batch(fano, tt[-1], pp[-1], terms=terms[-1]),
        ])

    r = cfg.grid_resolution
    thetas, phis = np.linspace(0.0, math.pi, r), np.linspace(0.0, math.pi, r, endpoint=False)
    rows, best, start = max(1, _BLOCK_POINTS // r), [math.inf, math.inf], [None, None]
    for block in np.split(thetas, range(rows, r, rows)):
        tt, pp = np.repeat(block, r), np.tile(phis, block.size)
        values = objective(tt[None], pp[None])
        for k, idx in enumerate(np.argmin(values, axis=1)):
            if values[k, idx] < best[k]:
                best[k], start[k] = float(values[k, idx]), (float(tt[idx]), float(pp[idx]))

    zoom = minimize(objective, *zip(*start), best, 2.0 * (math.pi / (r - 1)), cfg.refine_iterations)
    measured, pinched = (
        OptimizationResult(sign * float(fun) + 0.0, *_axis_angles(*x), r * r + zoom.nfev // 2)  # never -0.0
        for sign, fun, x in zip((-1.0, 1.0), zoom.fun, zoom.x)
    )
    return measured, pinched, zoom


def _axis_angles(theta: float, phi: float):
    """Angles of the one of +/-n(theta, phi) whose first coordinate above ``_AXIS_ZERO`` in (y, x, z) order
    is positive, with smaller ones read as 0: theta in [0, pi], phi in [0, pi), never -0.0."""
    st = math.sin(theta)
    n = [c if abs(c) > _AXIS_ZERO else 0.0 for c in (st * math.sin(phi), st * math.cos(phi), math.cos(theta))]
    sign = next(math.copysign(1.0, c) for c in n if c != 0.0)
    y, x, z = (sign * c + 0.0 for c in n)  # + 0.0 turns -0.0 into 0.0
    return math.atan2(math.hypot(x, y), z), math.atan2(y, x)


@dataclass(frozen=True)
class _Optimum:
    """One search: the J argmax ``measured``, the pinched-entropy argmin ``pinched``, the
    zoom that refined both, and the measures."""

    mutual_information: float
    s_ab: float
    measured: OptimizationResult
    pinched: OptimizationResult
    zoom: ZoomResult
    raw_discord: float
    discord: float
    classical_correlation: float
    oneway_deficit: float


def _optimize(rho: DensityMatrix, cfg: Optional[OptimizerConfig]) -> _Optimum:
    """The set-up, search and measure formulas behind every optimized measure."""
    _require_two_qubits(rho, "measurement optimization")
    cfg = cfg or OptimizerConfig()
    s_a, s_b, s_ab = (von_neumann_entropy(x) for x in (rho.marginal([0]), rho.marginal([1]), rho))
    mi = s_a + s_b - s_ab
    measured, pinched, zoom = _search(_fano_matrix(rho.matrix), s_b, cfg)
    # discord I - J*, classical correlation J*, one-way deficit P* - S(AB); (-tolerance, 0) reads 0
    raw = (mi - measured.value, measured.value, pinched.value - s_ab)
    clipped = (0.0 if -cfg.tolerance < v < 0.0 else v for v in raw)
    return _Optimum(mi, s_ab, measured, pinched, zoom, raw[0], *clipped)


# ---------------------------------------------------------------------------
# Public measures
# ---------------------------------------------------------------------------

def measured_mutual_information(rho: DensityMatrix, m: ProjectiveMeasurement) -> float:
    """S(rho_B) - sum_a p_a S(rho_B|a) for a fixed measurement on the leading block."""
    outcome = measure_subsystem(rho, m)
    rest_dims = next(c.dims for c in outcome.conditional_states if c is not None)  # the probabilities sum to 1
    rho_b = rho.marginal(range(len(rho.dims) - len(rest_dims), len(rho.dims)))
    avg = 0.0
    for p, cond in zip(outcome.probabilities, outcome.conditional_states):
        if cond is not None:
            avg += p * von_neumann_entropy(cond)
    return von_neumann_entropy(rho_b) - avg


def maximize_measured_mi(rho: DensityMatrix, cfg: Optional[OptimizerConfig] = None) -> OptimizationResult:
    """Shared optimizer for discord and classical correlation (two qubits only)."""
    return _optimize(rho, cfg).measured


def quantum_discord(rho: DensityMatrix, cfg: Optional[OptimizerConfig] = None):
    """Minimum gap between total and measured mutual information.

    Returns (value in bits, optimizer result carrying the argmax angles).
    Each call runs the whole search; :func:`measure_report` shares one.
    """
    opt = _optimize(rho, cfg)
    return opt.discord, opt.measured


def classical_correlation_hv(rho: DensityMatrix, cfg: Optional[OptimizerConfig] = None):
    """Maximum entropy reduction of B achievable by measuring A.

    Returns (value in bits, optimizer result).  Each call runs the whole
    search; :func:`measure_report` shares one.
    """
    opt = _optimize(rho, cfg)
    return opt.classical_correlation, opt.measured


def oneway_deficit(rho: DensityMatrix, cfg: Optional[OptimizerConfig] = None) -> float:
    """Minimal entropy increase under a projective measurement on A.

    Each call runs the whole search; :func:`measure_report` shares one.
    """
    return _optimize(rho, cfg).oneway_deficit


#: Marginal eigenvalue gap below which quantum_deficit warns, kept as text
#: so that the warning quotes it as written.
_DEGENERACY_GAP = "1e-8"


def _quantum_deficit(rho: DensityMatrix, s_ab: float):
    """The quantum deficit of a bipartite ``rho`` of entropy ``s_ab``, with a message per
    nearly degenerate marginal.  Dephasing in the product of the marginal eigenbases
    keeps p_ij = <a_i b_j| rho |a_i b_j>, so it is H(p) - S(rho) (the pinching identity).
    """
    eig_a, eig_b = (hermitian_eig(rho.marginal([k]).matrix) for k in (0, 1))
    u = tensor_product(eig_a.eigenvectors, eig_b.eigenvectors)
    joint = np.real(np.diag(u.conj().T @ rho.matrix @ u))
    messages = tuple(
        f"marginal {name} has an eigenvalue gap below {_DEGENERACY_GAP}; "
        "its eigenprojectors follow the deterministic ordering convention"
        for name, vals in zip("AB", (eig_a.eigenvalues, eig_b.eigenvalues))
        if vals.size > 1 and np.min(np.diff(vals)) < float(_DEGENERACY_GAP)
    )
    return max(0.0, _entropy_bits(joint) - s_ab), messages


def quantum_deficit(rho: DensityMatrix) -> float:
    """Relative entropy to the state decohered in its marginal eigenbases.

    No optimization is involved.  When a marginal spectrum is nearly
    degenerate its eigenbasis is a convention rather than a property of the
    state, so a :class:`DegenerateMarginalWarning` is emitted.
    """
    if len(rho.dims) != 2:
        raise DimensionMismatch(f"expected a bipartite signature, got dims {rho.dims}")
    value, messages = _quantum_deficit(rho, von_neumann_entropy(rho))
    for message in messages:
        warnings.warn(message, DegenerateMarginalWarning, stacklevel=2)
    return value


def discord_relative_entropy_decomposition(
    rho: DensityMatrix, m: ProjectiveMeasurement
) -> DiscordDecomposition:
    """Discord at a fixed measurement, directly and as a relative-entropy gap.

    ``direct`` is mutual information minus measured mutual information;
    ``via_relative_entropies`` is S(rho || rho^pinched) minus
    S(rho_A || rho_A^pinched).  The two agree for rank-1 qubit measurements
    by the pinching identity.
    """
    _require_two_qubits(rho, "measurement optimization")
    if m.block_dim != 2:
        raise DimensionMismatch(f"expected a qubit measurement, got block dim {m.block_dim}")
    outcome = measure_subsystem(rho, m)
    direct = mutual_information(rho) - measured_mutual_information(rho, m)
    rho_d = outcome.pinched_state
    via = relative_entropy(rho, rho_d) - relative_entropy(
        rho.marginal([0]), rho_d.marginal([0])
    )
    return DiscordDecomposition(direct=direct, via_relative_entropies=via)


def measure_report(rho: DensityMatrix, cfg: Optional[OptimizerConfig] = None) -> MeasureReport:
    """Compute every measure of a two-qubit state in one pass.

    Discord and classical correlation come from a single optimizer run, so
    their sum reproduces the mutual information exactly.  Degenerate-marginal
    messages of the quantum deficit are stored in ``warnings``, not emitted.
    """
    opt = _optimize(rho, cfg)
    qdef, messages = _quantum_deficit(rho, opt.s_ab)
    return MeasureReport(
        mutual_information=opt.mutual_information,
        discord=opt.discord,
        classical_correlation=opt.classical_correlation,
        oneway_deficit=opt.oneway_deficit,
        quantum_deficit=qdef,
        optimal_theta=opt.measured.theta,
        optimal_phi=opt.measured.phi,
        optimal_measurement=bloch_projectors(opt.measured.theta, opt.measured.phi),
        diagnostics={
            "evaluations": opt.measured.evaluations,
            "raw_discord": opt.raw_discord,
            "raw_classical_correlation": opt.measured.value,
            "oneway_theta": opt.pinched.theta, "oneway_phi": opt.pinched.phi,
            "zoom_rounds": opt.zoom.nfev // (opt.zoom.fun.size * _ZOOM_U.size),
            "zoom_converged": opt.zoom.success,
        },
        warnings=messages,
    )
