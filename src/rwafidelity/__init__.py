"""Exact quantification of the rotating wave approximation for two coupled oscillators.

The package solves the quadratic two-oscillator dynamics in closed symplectic
form, compares the full and RWA evolutions through Gaussian-state fidelity and
particle-number statistics, reproduces the small-coupling laws, and checks
everything against a truncated Fock-space propagation.  An initial Gaussian
state is its symplectic factor s0, a ``SymplecticMatrix``.
"""

from .dynamics import (
    OMEGA,
    OscillatorParams,
    SymplecticMatrix,
    UnstableParamsError,
    critical_coupling,
    evolution_blocks,
    hamiltonian_matrix,
    normal_mode_frequencies,
    time_evolution,
)
from .fockoracle import FockBasis, FockOracle, TruncationError, bound_check, fock_bound
from .metrics import (
    FidelityReport,
    bloch_messiah,
    delta_n,
    fidelity_eff,
    gaussian_grid,
)
from .perturbation import (
    PerturbativeRegime,
    c2_coefficient,
    convergence_order,
    q_coefficients,
    vacuum_perturbative_fidelity,
)
from .states import InitialState, squeezed_pair, vacuum

__version__ = "0.1.0"
