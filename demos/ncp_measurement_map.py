"""Build the measurement-induced map that fixes a discordant separable state.

The separable mixture of |00><00| and |++><++| has nonzero discord, so no
ordinary projective measurement on A leaves it unchanged.  Measuring a
four-outcome projector set on an ancilla-extended system does leave it
unchanged -- and the induced map on the A factor, worked out below, turns
out not to be completely positive.

Run:  python3 demos/ncp_measurement_map.py
"""

import numpy as np

from qcorr import (
    apply_amap,
    build_measurement_maps,
    classify,
    example_assignment,
    example_extension_measurement,
    spectral_decompose,
)

np.set_printoptions(precision=4, suppress=True)

# The assignment map extends a qubit state to ancilla (x) system using a
# fixed operator basis and one assigned ancilla state per basis element;
# the duals follow from the basis.
assignment = example_assignment()
print("operator basis P_a:")
for p in assignment.basis:
    print(np.array(p))
print("\ndual operators Q_a (Tr[P_a Q_b] = delta_ab, sum Q = I):")
for qd in assignment.duals:
    print(np.array(qd))

# Sandwiching the extension between the measurement projectors and tracing
# out the ancilla induces a linear map on the system; its two matrix
# arrangements come out together with the derivation intermediates.
maps = build_measurement_maps(assignment, example_extension_measurement())
print("\nB matrix (Hermitian arrangement):")
print(np.real(maps.b.tensor))
print("\nA matrix (acts on flattened states):")
print(np.real(maps.a.tensor))

# The spectrum of B decides complete positivity.
kraus = spectral_decompose(maps.b)
verdict = classify(maps.b)
print(f"\nB spectrum: {np.round(kraus.weights, 6)}")
print(f"verdict: {verdict.verdict} (min eigenvalue {verdict.min_eigenvalue:.3f})")

# Yet the map leaves every state of the mixing family untouched: an NCP map
# realizing a measurement to which the state is insensitive.
print("\nfixed-point residuals of rho_A(p) = p|0><0| + (1-p)|+><+|:")
for p in (0.0, 0.25, 0.5, 0.75, 1.0):
    rho = p * np.diag([1.0, 0.0]) + (1 - p) * 0.5 * np.ones((2, 2))
    residual = np.linalg.norm(apply_amap(maps.a, rho) - rho)
    print(f"  p={p:.2f}: {residual:.2e}")
