"""Independent references the tests compare the package against.

The package does not import this module.  It holds the routes that are off
the production path: the scaling-and-squaring matrix exponential, the
closed-form RWA block (the rotation by omega_bs = sqrt(delta^2 + g_bs^2)
times the common phase exp(-i omega_Sigma t)), the quartic formula for the
normal-mode frequencies kappa_+-, the closed-form equal-couplings
diagonalizer, the covariance-matrix layer (a state as sigma = s0 s0^dag, its
symplectic eigenvalues, the general mixed-state Gaussian fidelity), the
number-moment route to the vacuum fidelity, the closed and detuning-linear
forms of the q coefficients, one-call wrappers around the Fock oracle, and
the lift of its parity-sector amplitudes to the whole number basis, the
layout of the dense references.
No reference here calls the package route it checks: the RWA evolution and
the diagonalizer rest on the closed forms, not on ``rwa_block`` or
``normal_mode_frequencies``, and S_eff composes the closed RWA block with the
matrix exponential, not the package's mode table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rwafidelity.dynamics import (
    OMEGA,
    OscillatorParams,
    SymplecticMatrix,
    colpa,
    hamiltonian_matrix,
)
from rwafidelity.fockoracle import FockBasis, FockOracle
from rwafidelity.metrics import CROSS_CHECK_TOL, gaussian_grid
from rwafidelity.states import InitialState, vacuum

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


def closed_rwa_block(p: OscillatorParams, t) -> np.ndarray:
    """exp(-i U t) for the passive block U, in closed form, stacked over the shape of t.

    U = omega_Sigma I + delta sigma_z + g_bs sigma_x with omega_Sigma = (omega_a + omega_b)/2
    and delta = (omega_a - omega_b)/2, so exp(-i U t) is the phase exp(-i omega_Sigma t)
    times the rotation ((chi, xi), (xi, chi*)) by omega_bs = sqrt(delta^2 + g_bs^2).
    """
    t = np.asarray(t, dtype=float)
    w_delta = 0.5 * (p.omega_a - p.omega_b)
    w_sigma = 0.5 * (p.omega_a + p.omega_b)
    w_bs = np.sqrt(w_delta**2 + p.g_bs**2)
    c2, s2 = (w_delta / w_bs, p.g_bs / w_bs) if w_bs > 0.0 else (0.0, 0.0)
    chi = np.cos(w_bs * t) - 1j * c2 * np.sin(w_bs * t)
    xi = -1j * s2 * np.sin(w_bs * t)
    block = np.stack([np.stack([chi, xi], axis=-1), np.stack([xi, chi.conj()], axis=-1)], axis=-2)
    return np.exp(-1j * w_sigma * t)[..., None, None] * block


def closed_normal_mode_frequencies(p: OscillatorParams) -> tuple[float, float]:
    """(kappa_+, kappa_-) from the quartic formula: kappa^2 = (wa^2 + wb^2 + 2 dg^2 +- gamma)/2.

    kappa_-^2 is a difference of nearly equal terms near the stability bound,
    so it loses digits there: at (1, 2, 0, 1.414213) it is 1.8e-4 off.
    """
    wa2, wb2 = p.omega_a**2, p.omega_b**2
    dg2 = p.g_bs**2 - p.g_sq**2
    gamma2 = (wa2 - wb2) ** 2 + 8.0 * p.omega_a * p.omega_b * (p.g_bs**2 + p.g_sq**2) + 4.0 * (wa2 + wb2) * dg2
    gamma = np.sqrt(gamma2)
    kp2 = 0.5 * ((wa2 + wb2) + 2.0 * dg2 + gamma)
    km2 = 0.5 * ((wa2 + wb2) + 2.0 * dg2 - gamma)
    return float(np.sqrt(kp2)), float(np.sqrt(km2))


def rwa_evolution(p: OscillatorParams, t: float) -> SymplecticMatrix:
    return SymplecticMatrix(closed_rwa_block(p, t), np.zeros((2, 2), dtype=complex))


def effective_evolution(p: OscillatorParams, t: float) -> SymplecticMatrix:
    """S_eff(t) = S_RWA^dag(t) S(t): the identity iff the two evolutions coincide.

    Composed from the closed RWA block and the matrix exponential, not from the
    package's ``mode_table``.
    """
    return inverse(rwa_evolution(p, t)) @ evolution_via_exponential(p, t)


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
    kp, km = closed_normal_mode_frequencies(p)
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
#
# sigma_nm is the expectation of the anticommutator {X_n, X_m^dag} with
# X = (a, b, a+, b+), so the vacuum is exactly the identity matrix.

HERMITICITY_TOL = 1e-12
PHYSICALITY_TOL = 1e-9
PAIRING_TOL = 1e-8


class NonPhysicalStateError(ValueError):
    """Raised for covariance matrices without a physical symplectic spectrum."""


@dataclass(frozen=True)
class CovarianceMatrix:
    """Second-moment matrix of a zero-mean two-mode Gaussian state."""

    sigma: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sigma, dtype=complex)
        if s.shape != (4, 4):
            raise ValueError(f"covariance matrix must be 4x4, got shape {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ValueError("covariance matrix has non-finite entries")
        scale = max(1.0, float(np.linalg.norm(s)))
        if np.max(np.abs(s - s.conj().T)) > HERMITICITY_TOL * scale:
            raise NonPhysicalStateError("covariance matrix is not Hermitian")
        object.__setattr__(self, "sigma", s)
        nus = symplectic_eigenvalues(self)
        if min(nus) < 1.0 - PHYSICALITY_TOL * scale:
            raise NonPhysicalStateError(f"symplectic eigenvalues {nus} below 1")


def covariance(s0: SymplecticMatrix) -> CovarianceMatrix:
    """Covariance sigma = s0 s0^dag of the pure state with symplectic factor s0."""
    s4 = s0.matrix
    sig = s4 @ s4.conj().T
    return CovarianceMatrix(0.5 * (sig + sig.conj().T))


def symplectic_eigenvalues(cov: CovarianceMatrix | np.ndarray) -> tuple[float, float]:
    """The two symplectic eigenvalues (descending) of a positive-definite sigma, from ``colpa(sigma)``.

    sigma has condition number about e^(4s) for the squeezed pair, so the
    pure value 1 is lost at large s: s = 9 gives 1.049.
    """
    sigma = cov.sigma if isinstance(cov, CovarianceMatrix) else np.asarray(cov, dtype=complex)
    try:
        vals = np.sort(np.abs(colpa(sigma)[1]))
    except np.linalg.LinAlgError as exc:
        raise NonPhysicalStateError("covariance matrix is not positive definite") from exc
    scale = max(1.0, float(np.linalg.norm(sigma)))
    if vals[1] - vals[0] > PAIRING_TOL * scale or vals[3] - vals[2] > PAIRING_TOL * scale:
        raise NonPhysicalStateError(f"unpaired symplectic spectrum {vals}")
    nu_small = 0.5 * (vals[0] + vals[1])
    nu_large = 0.5 * (vals[2] + vals[3])
    return float(nu_large), float(nu_small)



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


# -- number moments and q closed forms ---------------------------------------------------


def number_moments(a_block: np.ndarray, b_block: np.ndarray) -> tuple[float, float]:
    """Vacuum expectation (dN, dN^2) of the number change under a Bogoliubov pair.

    dN   = Tr(B+B)
    dN^2 = Tr(A A+ B B+) + Tr(B A^T B* A+) + (Tr B+B)^2
    """
    a = np.asarray(a_block, dtype=complex)
    b = np.asarray(b_block, dtype=complex)
    dn = float(np.real(np.trace(b.conj().T @ b)))
    dn2 = float(np.real(np.trace(a @ a.conj().T @ b @ b.conj().T) + np.trace(b @ a.T @ b.conj() @ a.conj().T))) + dn**2
    return dn, dn2


def vacuum_fidelity_moments(p: OscillatorParams, t: float) -> tuple[float, float, float, float]:
    """(F^-2, dN, dN^2, variance) for an initial vacuum, via number statistics.

    F^-2 = 1 + (3/2) dN + (1/2) dN^2_mean - (1/4) var, where dN^2_mean is the
    square of the mean and var = dN^2 - dN^2_mean.  Cross-checked against the
    determinant route.
    """
    grid = gaussian_grid(vacuum(), p, [t])
    dn, dn2 = number_moments(grid.a_f[0], grid.b_f[0])
    var = dn2 - dn**2
    f_inv2 = 1.0 + 1.5 * dn + 0.5 * dn**2 - 0.25 * var
    det_route = float(grid.report.fidelity[0]) ** -2
    if not abs(f_inv2 - det_route) <= CROSS_CHECK_TOL * max(1.0, det_route):
        raise ArithmeticError(f"moment route {f_inv2} disagrees with determinant route {det_route}")
    return f_inv2, dn, dn2, var


def q_resonant_closed(g: float) -> tuple[float, float, float, float]:
    """Resonant closed forms of q1..q4 (exact at epsilon = 0)."""
    return (
        1.0,
        (1.0 - g**2) / np.sqrt(1.0 - 4.0 * g**2),
        -(1.0 + g) / np.sqrt(1.0 + 2.0 * g),
        -(1.0 - g) / np.sqrt(1.0 - 2.0 * g),
    )


def q_epsilon_linear(g: float, eps: float) -> tuple[float, float, float, float]:
    """Detuning-linear expansions of q1..q4 (valid for |eps| << g)."""
    return (
        1.0,
        (1.0 - g**2 - g**2 * (1.0 + 2.0 * g**2) / (1.0 - 4.0 * g**2) * eps) / np.sqrt(1.0 - 4.0 * g**2),
        -(1.0 + g - g**2 * eps / (2.0 + 4.0 * g)) / np.sqrt(1.0 + 2.0 * g),
        -(1.0 - g - g**2 * eps / (2.0 - 4.0 * g)) / np.sqrt(1.0 - 2.0 * g),
    )


# -- Fock oracle: one time per call, and its amplitudes on the whole basis --------------


def oracle_fidelity(p: OscillatorParams, initial: InitialState, t: float, cutoff: int) -> float:
    """Overlap fidelity |<psi_rwa(t)|psi_full(t)>|^2 on the truncated basis."""
    return FockOracle(p, cutoff).compare(initial, t).fidelity


def oracle_delta_n(p: OscillatorParams, initial: InitialState, t: float, cutoff: int) -> float:
    """Excitation surplus of the full over the RWA propagation."""
    return FockOracle(p, cutoff).compare(initial, t).delta_n


def full_basis(basis: FockBasis, values: np.ndarray, parity: int) -> np.ndarray:
    """Sector values along the last axis, lifted to the whole basis |n_a, n_b> at flat index n_a (cutoff + 1) + n_b.

    Zero off the sector; the dead column of an odd cutoff is dropped.
    """
    n_a, n_b = basis.occupations(parity)
    live = n_b <= basis.cutoff
    out = np.zeros(values.shape[:-1] + ((basis.cutoff + 1) ** 2,), dtype=values.dtype)
    out[..., n_a[live] * (basis.cutoff + 1) + n_b[live]] = values[..., live]
    return out
