"""Coherent-state chains of the 2:1 anisotropic quantum oscillator."""

from .errors import ConvergenceError, DomainError, IllConditionedError
from .fock import (
    DEFAULT_DROP_TOL,
    FockIndex,
    FockVector,
    a_minus,
    a_plus,
    apply_hamiltonian,
    apply_momentum,
    apply_position,
    b_minus,
    b_plus,
    inner,
    level_basis,
)
from .operators import ModeParams, apply_commutator, apply_lowering, apply_raising
from .zero_modes import (
    ZeroModeCoeffs,
    level_null_space_dim,
    lowering_matrix,
    zero_mode_coeffs_recursive,
    zero_mode_state,
)
from .chains import (
    ChainLabel,
    ChainState,
    chain_state_bruteforce,
    chain_state_closed,
    gram_condition,
    gram_matrix,
    ladder_factor,
    lowering,
    lowering_decomposition,
    row_labels,
)
from .principal import (
    PrincipalState,
    UncertaintyReport,
    b_lowering_residual,
    mode_occupation,
    modified_binomial,
    principal_norm_sq,
    principal_state,
    uncertainty_direct,
    uncertainty_products,
)
from .resolution import (
    QuadratureSpec,
    fullspace_identity_check,
    measure_weight,
    subspace_identity,
    subspace_identity_matrix,
)
from .position import (
    Grid2D,
    amplitude_grid,
    best_tube_phase,
    density_grid,
    eigenfunction_table,
    l1_distance,
    lissajous_amplitudes,
    lissajous_curve,
    read_grid_binary,
    tube_mass_fraction,
    write_grid_binary,
    write_grid_csv,
)

__version__ = "0.1.0"
