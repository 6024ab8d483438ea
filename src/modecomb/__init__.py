"""Gaussian simulator for dual-rail cluster states on an optical spatial mode comb."""

from .blochmessiah import Decomposition, decompose, recompose
from .cluster import (
    DualRailSpec,
    GraphSpec,
    NotAGraphStateError,
    bipartite_graph,
    build_dual_rail,
    extract_graph,
    ideal_wire_graph,
    nullifier_residual,
    wire_witnesses,
)
from .comb import SpatialComb, amplify_comb, build_comb, pair_witnesses
from .detection import (
    NoiseReport,
    OverlapSpec,
    ideal_epr_noise,
    measure_witness,
    misaligned_noise,
    squeezing_db,
)
from .elements import (
    AmplifierSpec,
    beamsplitter,
    gain_to_squeezing,
    loss_channel,
    phase_shift,
    squeezing_to_gain,
    two_mode_squeezer,
)
from .gaussian import (
    FieldError,
    GaussianState,
    SymplecticTransform,
    Witness,
    apply_symplectic,
    check_physicality,
    purity,
    symplectic_form,
    vacuum_state,
    witness_variance,
)

__version__ = "0.1.0"

__all__ = [
    "AmplifierSpec",
    "Decomposition",
    "DualRailSpec",
    "FieldError",
    "GaussianState",
    "GraphSpec",
    "NoiseReport",
    "NotAGraphStateError",
    "OverlapSpec",
    "SpatialComb",
    "SymplecticTransform",
    "Witness",
    "amplify_comb",
    "apply_symplectic",
    "beamsplitter",
    "bipartite_graph",
    "build_comb",
    "build_dual_rail",
    "check_physicality",
    "decompose",
    "extract_graph",
    "gain_to_squeezing",
    "ideal_epr_noise",
    "ideal_wire_graph",
    "loss_channel",
    "measure_witness",
    "misaligned_noise",
    "nullifier_residual",
    "pair_witnesses",
    "phase_shift",
    "purity",
    "recompose",
    "squeezing_db",
    "squeezing_to_gain",
    "symplectic_form",
    "two_mode_squeezer",
    "vacuum_state",
    "wire_witnesses",
    "witness_variance",
]
