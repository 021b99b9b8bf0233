"""Exact quantification of the rotating wave approximation for two coupled oscillators.

The package solves the quadratic two-oscillator dynamics in closed symplectic
form, compares the full and RWA evolutions through Gaussian-state fidelity and
particle-number statistics, reproduces the small-coupling laws, and checks
everything against a truncated Fock-space propagation.
"""

from .dynamics import (
    OMEGA,
    NormalModes,
    OscillatorParams,
    SymplecticMatrix,
    UnstableParamsError,
    critical_coupling,
    diagonalize,
    effective_evolution,
    evolution_blocks,
    full_evolution,
    hamiltonian_matrix,
    normal_mode_frequencies,
    rwa_evolution,
    time_evolution,
)
from .fockoracle import FockBasis, FockOracle, TruncationError, bound_check, fock_bound, oracle_delta_n, oracle_fidelity
from .matcore import mat_exp
from .metrics import (
    FidelityReport,
    bloch_messiah,
    delta_n,
    effective_bogoliubov,
    fidelity_eff,
    gaussian_fidelity,
    gaussian_grid,
    vacuum_fidelity_moments,
)
from .perturbation import (
    PerturbativeRegime,
    c2_coefficient,
    convergence_order,
    q_coefficients,
    vacuum_perturbative_fidelity,
)
from .states import (
    CovarianceMatrix,
    InitialState,
    NonPhysicalStateError,
    PureStateFactor,
    apply_symplectic,
    reduce_mode,
    squeezed_pair,
    symplectic_eigenvalues,
    thermal,
    vacuum,
)

__version__ = "0.1.0"
