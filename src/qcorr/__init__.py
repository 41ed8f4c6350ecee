"""Quantumness-of-correlation measures and measurement-induced maps for
small multi-qubit density matrices."""

from .entropy import (
    mutual_information,
    relative_entropy,
    shannon_entropy,
    shannon_mutual_information,
    von_neumann_entropy,
)
from .linalg import (
    HermitianEigenSystem,
    hermitian_eig,
    matrix_log_on_support,
    partial_trace,
    realign,
    tensor_product,
)
from .maps import (
    AMap,
    AssignmentMap,
    BMap,
    KrausDecomposition,
    MapClass,
    MeasurementMaps,
    apply_amap,
    assignment_apply,
    build_measurement_maps,
    check_amap_conditions,
    classify,
    dual_Q,
    example_assignment,
    qubit_basis_P,
    realign_a_to_b,
    realign_b_to_a,
    spectral_decompose,
)
from .measurement import (
    MeasurementOutcome,
    ProjectiveMeasurement,
    apply_povm_elements,
    bloch_projectors,
    example_extension_measurement,
    is_insensitive,
    measure_subsystem,
    pinch,
)
from .measures import (
    DiscordDecomposition,
    MeasureReport,
    OptimizerConfig,
    classical_correlation_hv,
    discord_relative_entropy_decomposition,
    measure_report,
    measured_mutual_information,
    oneway_deficit,
    quantum_deficit,
    quantum_discord,
)
from .quantumness import (
    QuantumnessEstimate,
    quantumness_upper_bound,
    residual_state,
    separable_decomposition,
    verify_example_insensitivity,
)
from .states import (
    DensityMatrix,
    Ket,
    SeparableEnsemble,
    bell_state,
    classical_correlated,
    example_extension,
    example_separable,
    ket,
    random_density,
    validate_density,
)

__version__ = "0.1.0"

__all__ = [
    "mutual_information", "relative_entropy", "shannon_entropy",
    "shannon_mutual_information", "von_neumann_entropy",
    "HermitianEigenSystem", "hermitian_eig", "matrix_log_on_support", "partial_trace",
    "realign", "tensor_product",
    "AMap", "AssignmentMap", "BMap", "KrausDecomposition", "MapClass",
    "MeasurementMaps", "apply_amap", "assignment_apply", "build_measurement_maps",
    "check_amap_conditions", "classify", "dual_Q", "example_assignment",
    "qubit_basis_P", "realign_a_to_b", "realign_b_to_a", "spectral_decompose",
    "MeasurementOutcome", "ProjectiveMeasurement", "apply_povm_elements",
    "bloch_projectors", "example_extension_measurement", "is_insensitive",
    "measure_subsystem", "pinch",
    "DiscordDecomposition", "MeasureReport", "OptimizerConfig",
    "classical_correlation_hv", "discord_relative_entropy_decomposition",
    "measure_report", "measured_mutual_information", "oneway_deficit",
    "quantum_deficit", "quantum_discord",
    "QuantumnessEstimate", "quantumness_upper_bound", "residual_state",
    "separable_decomposition", "verify_example_insensitivity",
    "DensityMatrix", "Ket", "SeparableEnsemble", "bell_state", "classical_correlated",
    "example_extension", "example_separable", "ket", "random_density",
    "validate_density",
]
