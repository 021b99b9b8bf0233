"""Independent references the tests compare the package against.

The package does not import this module.  It holds the routes that are off
the production path: the scaling-and-squaring matrix exponential, the
closed-form equal-couplings diagonalizer, the general mixed-state Gaussian
fidelity, covariance-level operations, and one-call wrappers around the
Fock oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rwafidelity.dynamics import (
    OMEGA,
    OscillatorParams,
    SymplecticMatrix,
    effective_blocks,
    hamiltonian_matrix,
    normal_mode_frequencies,
    rwa_block,
)
from rwafidelity.fockoracle import FockOracle
from rwafidelity.states import PHYSICALITY_TOL, CovarianceMatrix, InitialState, NonPhysicalStateError, symplectic_eigenvalues

# -- matrix exponential --------------------------------------------------------

# Degree-13 diagonal Pade coefficients for exp, and the matching 1-norm bound.
_B13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_THETA_13 = 5.371920351148152


def mat_exp(m, scale: complex = 1.0) -> np.ndarray:
    """exp(scale * m) by scaling-and-squaring with the degree-13 approximant."""
    a = np.asarray(m, dtype=complex) * scale
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite scaled exponent")
    n = a.shape[0]
    norm1 = np.linalg.norm(a, 1)
    squarings = 0
    if norm1 > _THETA_13:
        squarings = int(np.ceil(np.log2(norm1 / _THETA_13)))
        a = a / (2.0**squarings)
    ident = np.eye(n, dtype=complex)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    b = _B13
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


# -- evolutions ------------------------------------------------------------------


def symplectic_defect(s: SymplecticMatrix) -> float:
    """Largest entry of S Omega S^dag - Omega."""
    s4 = s.matrix
    return float(np.max(np.abs(s4 @ OMEGA @ s4.conj().T - OMEGA)))


def inverse(s: SymplecticMatrix) -> SymplecticMatrix:
    """S^-1 = -Omega S^dag Omega, i.e. blocks (alpha^dag, -beta^T)."""
    return SymplecticMatrix(s.alpha.conj().T, -s.beta.T)


def evolution_via_exponential(p: OscillatorParams, t: float) -> SymplecticMatrix:
    """Evolution from the matrix exponential of the generator; any couplings."""
    s4 = mat_exp(OMEGA @ hamiltonian_matrix(p), t)
    return SymplecticMatrix(s4[:2, :2], s4[:2, 2:])


def rwa_evolution(p: OscillatorParams, t: float) -> SymplecticMatrix:
    return SymplecticMatrix(rwa_block(p, t), np.zeros((2, 2), dtype=complex))


def effective_evolution(p: OscillatorParams, t: float) -> SymplecticMatrix:
    """S_eff(t) = S_RWA^dag(t) S(t): the identity iff the two evolutions coincide."""
    return SymplecticMatrix(*(block[0] for block in effective_blocks(p, [t])))


@dataclass(frozen=True)
class NormalModes:
    """Normal-mode data of the equal-couplings Hamiltonian."""

    kappa_plus: float
    kappa_minus: float
    theta: float
    diagonalizer: SymplecticMatrix

    def __post_init__(self):
        if not (self.kappa_plus >= self.kappa_minus > 0):
            raise ValueError("normal-mode frequencies must satisfy kappa_+ >= kappa_- > 0")


def _mixing_angle(p: OscillatorParams) -> float:
    """Angle diagonalizing the equal-couplings Hamiltonian, in [0, pi/2].

    On resonance the defining relation degenerates and the angle is pi/4.
    """
    if p.resonant:
        return np.pi / 4.0
    g = p.g_bs
    two_theta = np.arctan2(4.0 * g * np.sqrt(p.omega_a * p.omega_b), p.omega_a**2 - p.omega_b**2)
    return 0.5 * two_theta


def diagonalize(p: OscillatorParams) -> NormalModes:
    """Closed-form diagonalizer; only the equal-couplings family has one."""
    if not p.equal_couplings:
        raise ValueError("closed-form diagonalization requires g_bs == g_sq")
    if p.g_bs < 0:
        raise ValueError("closed-form diagonalization requires g >= 0")
    kp, km = normal_mode_frequencies(p)
    th = _mixing_angle(p)
    c, s = np.cos(th), np.sin(th)
    wa, wb = p.omega_a, p.omega_b
    alpha = np.array(
        [
            [(kp + wa) / (2.0 * np.sqrt(kp * wa)) * c, (kp + wb) / (2.0 * np.sqrt(kp * wb)) * s],
            [(km + wa) / (2.0 * np.sqrt(km * wa)) * s, -(km + wb) / (2.0 * np.sqrt(km * wb)) * c],
        ]
    )
    beta = np.array(
        [
            [(kp - wa) / (2.0 * np.sqrt(kp * wa)) * c, (kp - wb) / (2.0 * np.sqrt(kp * wb)) * s],
            [(km - wa) / (2.0 * np.sqrt(km * wa)) * s, -(km - wb) / (2.0 * np.sqrt(km * wb)) * c],
        ]
    )
    return NormalModes(kp, km, th, SymplecticMatrix(alpha, beta))


def full_evolution(nm: NormalModes, t: float) -> SymplecticMatrix:
    """Closed-form evolution generated by the equal-couplings Hamiltonian."""
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    al, be = nm.diagonalizer.alpha, nm.diagonalizer.beta
    ph_m = np.diag([np.exp(-1j * nm.kappa_plus * t), np.exp(-1j * nm.kappa_minus * t)])
    ph_p = np.diag([np.exp(1j * nm.kappa_plus * t), np.exp(1j * nm.kappa_minus * t)])
    a = al.T @ ph_m @ al - be.T @ ph_p @ be
    b = al.T @ ph_m @ be - be.T @ ph_p @ al
    return SymplecticMatrix(a, b)


# -- covariance matrices -----------------------------------------------------------


def thermal(nu: float) -> CovarianceMatrix:
    """Two-mode thermal state sigma = nu * I, a mixed input for the general fidelity."""
    if nu < 1.0:
        raise NonPhysicalStateError("thermal symplectic eigenvalue must be >= 1")
    return CovarianceMatrix(nu * np.eye(4, dtype=complex))


def apply_symplectic(cov: CovarianceMatrix, s: SymplecticMatrix) -> CovarianceMatrix:
    """sigma -> S sigma S^dag."""
    s4 = s.matrix
    out = s4 @ cov.sigma @ s4.conj().T
    return CovarianceMatrix(0.5 * (out + out.conj().T))


_MODE_INDEX = {"a": [0, 2], "b": [1, 3]}


def reduce_mode(cov: CovarianceMatrix, mode: str) -> np.ndarray:
    """Single-mode reduced covariance: delete the other mode's rows and columns."""
    if mode not in _MODE_INDEX:
        raise ValueError("mode must be 'a' or 'b'")
    idx = _MODE_INDEX[mode]
    return cov.sigma[np.ix_(idx, idx)].copy()


def single_mode_symplectic_eigenvalue(sig2: np.ndarray) -> float:
    """Brute 2x2 symplectic eigenvalue |eig(i omega sig)| for one mode."""
    sig2 = np.asarray(sig2, dtype=complex)
    if sig2.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    # i*omega = diag(1, -1) in the (a, a^dag) ordering.
    ev = np.linalg.eigvals(np.diag([1.0, -1.0]) @ sig2)
    return float(0.5 * (abs(ev[0]) + abs(ev[1])))


def is_pure(cov: CovarianceMatrix, tol: float = PHYSICALITY_TOL) -> bool:
    """Purity: all symplectic eigenvalues equal to one."""
    nus = symplectic_eigenvalues(cov)
    return bool(max(abs(nu - 1.0) for nu in nus) <= tol * max(1.0, float(np.linalg.norm(cov.sigma))))


# -- general Gaussian fidelity ---------------------------------------------------------

RADICAND_TOL = 1e-9


def _safe_sqrt(x: float, what: str) -> float:
    if x < -RADICAND_TOL:
        raise NonPhysicalStateError(f"negative radicand in {what}: {x:.3e}")
    return float(np.sqrt(max(x, 0.0)))


def gaussian_fidelity(cov1: CovarianceMatrix, cov2: CovarianceMatrix) -> float:
    """Fidelity of two (possibly mixed) zero-mean two-mode Gaussian states.

    When either state is pure, Lambda vanishes and Gamma = Delta, collapsing
    the general expression to 4/sqrt(Gamma); that branch is taken explicitly
    because the general form loses half the significant digits at the pure
    boundary (a square root of the rounding-level Lambda enters linearly).
    """
    s1, s2 = cov1.sigma, cov2.sigma
    ident = np.eye(4, dtype=complex)
    gam = float(np.real(np.linalg.det(ident - OMEGA @ s1 @ OMEGA @ s2)))
    lam = float(np.real(np.linalg.det(ident + 1j * OMEGA @ s1) * np.linalg.det(ident + 1j * OMEGA @ s2)))
    root_g = _safe_sqrt(gam, "Gamma")
    if abs(lam) <= 1e-10 * max(1.0, abs(gam)):
        if root_g <= 0.0:
            raise NonPhysicalStateError("fidelity denominator is not positive")
        fid = 4.0 / root_g
    else:
        delta = float(np.real(np.linalg.det(s1 + s2)))
        root_l = _safe_sqrt(lam, "Lambda")
        inner = _safe_sqrt((root_l + root_g) ** 2 - delta, "fidelity discriminant")
        denom = root_l + root_g - inner
        if denom <= 0.0:
            raise NonPhysicalStateError("fidelity denominator is not positive")
        fid = 4.0 / denom
    if fid > 1.0 + RADICAND_TOL:
        raise NonPhysicalStateError(f"fidelity {fid} exceeds one beyond tolerance")
    return float(min(max(fid, 0.0), 1.0))


# -- Fock oracle, one time per call ------------------------------------------------------


def oracle_fidelity(p: OscillatorParams, initial: InitialState, t: float, cutoff: int) -> float:
    """Overlap fidelity |<psi_rwa(t)|psi_full(t)>|^2 on the truncated basis."""
    return FockOracle(p, cutoff).compare(initial, t).fidelity


def oracle_delta_n(p: OscillatorParams, initial: InitialState, t: float, cutoff: int) -> float:
    """Excitation surplus of the full over the RWA propagation."""
    return FockOracle(p, cutoff).compare(initial, t).delta_n
