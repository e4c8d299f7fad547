"""netdiscern: decide whether a topology variation in a network of
identical linear subsystems is detectable from the network's natural
response, by computing the subspace of indiscernible initial states."""

from .discernibility import (
    AnalyzeOptions,
    CorrectedConditionResult,
    DiscernibilityReport,
    VERDICT_DETECTABLE,
    VERDICT_EXTRA_STATES,
    VERDICT_NO_VARIATION,
    analyze,
    analyze_rows,
    corrected_condition,
    indiscernible_subspace,
    shared_modal_subspace,
)
from .graphs import (
    Graph,
    LinkVariation,
    enumerate_single_link_variations,
    laplacian,
    validate_laplacian,
)
from .linalg import (
    Eigenpair,
    Spectrum,
    Subspace,
    eig,
    expm,
    kernel,
    subspace_intersect,
)
from .network import (
    NetworkInvariantMode,
    NetworkSystem,
    NodeDynamics,
    assemble_transition,
    network_invariant_modes,
    sync_manifold,
)
from .oracle import OracleConfig, ValidationSummary, validate_subspace

__version__ = "0.1.0"

__all__ = [
    "AnalyzeOptions",
    "CorrectedConditionResult",
    "DiscernibilityReport",
    "Eigenpair",
    "Graph",
    "LinkVariation",
    "NetworkInvariantMode",
    "NetworkSystem",
    "NodeDynamics",
    "OracleConfig",
    "Spectrum",
    "Subspace",
    "ValidationSummary",
    "VERDICT_DETECTABLE",
    "VERDICT_EXTRA_STATES",
    "VERDICT_NO_VARIATION",
    "analyze",
    "analyze_rows",
    "assemble_transition",
    "corrected_condition",
    "eig",
    "enumerate_single_link_variations",
    "expm",
    "indiscernible_subspace",
    "kernel",
    "laplacian",
    "network_invariant_modes",
    "shared_modal_subspace",
    "subspace_intersect",
    "sync_manifold",
    "validate_laplacian",
    "validate_subspace",
]
