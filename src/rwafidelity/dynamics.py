"""Two coupled oscillators: parameter validation, normal modes, and evolutions.

Conventions (used everywhere downstream):
  * operator ordering (a, b, a^dag, b^dag),
  * symplectic form Omega = -i diag(I2, -I2),
  * hbar = 1, all frequencies and couplings angular (rad/time).

A 4x4 symplectic matrix is stored by its 2x2 blocks (alpha, beta); the full
matrix is ((alpha, beta), (beta*, alpha*)).  The beam-splitter-only evolution
is block diagonal (beta = 0); a nonzero beta block signals squeezing.

The full evolution comes from ``evolution_blocks`` for every coupling and a
whole array of times, through Colpa's bosonic diagonalization of the
Hamiltonian matrix (``colpa``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OMEGA",
    "UnstableParamsError",
    "OscillatorParams",
    "SymplecticMatrix",
    "hamiltonian_matrix",
    "normal_mode_frequencies",
    "critical_coupling",
    "rwa_block",
    "colpa",
    "evolution_blocks",
    "time_evolution",
    "SYMPLECTIC_TOL",
]

_I2 = np.eye(2)
_SIGMA = np.array([1.0, 1.0, -1.0, -1.0])
OMEGA = -1j * np.diag(_SIGMA)

SYMPLECTIC_TOL = 1e-10
# Margin below the critical coupling under which parameters are rejected:
# kappa_minus -> 0 there and every downstream formula turns singular.
CRITICAL_MARGIN = 1e-9


class UnstableParamsError(ValueError):
    """Raised when couplings reach or exceed the stability boundary."""


@dataclass(frozen=True)
class OscillatorParams:
    """Frequencies and couplings of the two-oscillator Hamiltonian.

    ``g_bs`` drives the excitation-conserving beam-splitter term, ``g_sq`` the
    two-mode squeezing term.  Stability requires the 4x4 Hamiltonian matrix to
    stay positive definite, which is exactly |g_bs| + |g_sq| < sqrt(wa*wb);
    this is also the first boundary crossing of the normal-mode reality
    constraint along the coupling ray.
    """

    omega_a: float
    omega_b: float
    g_bs: float = 0.0
    g_sq: float = 0.0

    def __post_init__(self):
        for name in ("omega_a", "omega_b", "g_bs", "g_sq"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
            # a Python float, so integer arguments cannot give integer arrays downstream
            object.__setattr__(self, name, float(value))
        if self.omega_a <= 0 or self.omega_b <= 0:
            raise ValueError("oscillator frequencies must be positive")
        bound = np.sqrt(self.omega_a * self.omega_b)
        if abs(self.g_bs) + abs(self.g_sq) >= bound * (1.0 - CRITICAL_MARGIN):
            raise UnstableParamsError(
                f"couplings |g_bs|+|g_sq| = {abs(self.g_bs) + abs(self.g_sq):.6g} reach the "
                f"critical coupling {critical_coupling_value(self.omega_a, self.omega_b, self.g_bs, self.g_sq):.6g} "
                f"(stability bound sqrt(omega_a*omega_b) = {bound:.6g})"
            )

    @property
    def equal_couplings(self) -> bool:
        return self.g_bs == self.g_sq

    @property
    def resonant(self) -> bool:
        return abs(self.omega_a**2 - self.omega_b**2) < 1e-12


def critical_coupling_value(omega_a: float, omega_b: float, g_bs: float, g_sq: float) -> float:
    """Critical coupling magnitude along the ray through (g_bs, g_sq).

    Scaling the coupling pair by c keeps stability while
    c*(|g_bs|+|g_sq|) < sqrt(wa*wb); the returned value is the magnitude of
    the larger coupling at the first boundary crossing.  Equal couplings give
    sqrt(wa*wb)/2, a single coupling gives sqrt(wa*wb).
    """
    bound = np.sqrt(omega_a * omega_b)
    total = abs(g_bs) + abs(g_sq)
    if total == 0.0:
        return bound / 2.0  # degenerate ray; quote the equal-couplings value
    return bound * max(abs(g_bs), abs(g_sq)) / total


def critical_coupling(p: OscillatorParams) -> float:
    return critical_coupling_value(p.omega_a, p.omega_b, p.g_bs, p.g_sq)


@dataclass(frozen=True)
class SymplecticMatrix:
    """2x2 blocks (alpha, beta) of a 4x4 symplectic matrix in (a, b, a+, b+) ordering."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=complex))
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=complex))
        defect = self.bogoliubov_defect()
        if not defect <= _defect_limit(self.alpha, self.beta):
            raise ValueError(f"blocks violate the Bogoliubov identities (defect {defect:.3e})")

    def bogoliubov_defect(self) -> float:
        return float(bogoliubov_defects(self.alpha, self.beta))

    @property
    def matrix(self) -> np.ndarray:
        a, b = self.alpha, self.beta
        return np.block([[a, b], [b.conj(), a.conj()]])

    def __matmul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        return SymplecticMatrix(*compose(self.alpha, self.beta, other.alpha, other.beta))

    @staticmethod
    def identity() -> "SymplecticMatrix":
        return SymplecticMatrix(np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex))


def hamiltonian_matrix(p: OscillatorParams) -> np.ndarray:
    """The 4x4 Hamiltonian matrix ((U, V), (V, U)) of the coupled pair."""
    u = np.array([[p.omega_a, p.g_bs], [p.g_bs, p.omega_b]])
    v = p.g_sq * np.array([[0.0, 1.0], [1.0, 0.0]])
    return np.block([[u, v], [v, u]]).astype(complex)


def normal_mode_frequencies(p: OscillatorParams) -> tuple[float, float]:
    """Normal-mode frequencies (kappa_+, kappa_-), both real and positive."""
    wa2, wb2 = p.omega_a**2, p.omega_b**2
    dg2 = p.g_bs**2 - p.g_sq**2
    gamma2 = (wa2 - wb2) ** 2 + 8.0 * p.omega_a * p.omega_b * (p.g_bs**2 + p.g_sq**2) + 4.0 * (wa2 + wb2) * dg2
    gamma = np.sqrt(gamma2)
    kp2 = 0.5 * ((wa2 + wb2) + 2.0 * dg2 + gamma)
    km2 = 0.5 * ((wa2 + wb2) + 2.0 * dg2 - gamma)
    if km2 <= 0.0:
        raise UnstableParamsError(
            f"normal mode squared frequency {km2:.3e} is not positive; "
            f"critical coupling {critical_coupling(p):.6g}"
        )
    return float(np.sqrt(kp2)), float(np.sqrt(km2))


def rwa_block(p: OscillatorParams, t) -> np.ndarray:
    """The unitary 2x2 block of the beam-splitter-only evolution, stacked over the shape of t."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("time must be finite")
    w_delta = 0.5 * (p.omega_a - p.omega_b)
    w_sigma = 0.5 * (p.omega_a + p.omega_b)
    w_bs = np.sqrt(w_delta**2 + p.g_bs**2)
    c2, s2 = (w_delta / w_bs, p.g_bs / w_bs) if w_bs > 0.0 else (0.0, 0.0)
    chi = np.cos(w_bs * t) - 1j * c2 * np.sin(w_bs * t)
    xi = -1j * s2 * np.sin(w_bs * t)
    block = np.stack([np.stack([chi, xi], axis=-1), np.stack([xi, chi.conj()], axis=-1)], axis=-2)
    return np.exp(-1j * w_sigma * t)[..., None, None] * block


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def compose(a1: np.ndarray, b1: np.ndarray, a2: np.ndarray, b2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Blocks of the product of two symplectic matrices given by (stacked) blocks."""
    return a1 @ a2 + b1 @ b2.conj(), a1 @ b2 + b1 @ a2.conj()


def bogoliubov_defects(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Largest entry of a a^dag - b b^dag - I and a b^T - b a^T, per (stacked) block pair."""
    d1 = np.abs(alpha @ _dagger(alpha) - beta @ _dagger(beta) - _I2).max(axis=(-2, -1))
    d2 = np.abs(alpha @ beta.swapaxes(-1, -2) - beta @ alpha.swapaxes(-1, -2)).max(axis=(-2, -1))
    return np.maximum(d1, d2)


def _defect_limit(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Largest accepted Bogoliubov defect, relative to the squared block norms."""
    return SYMPLECTIC_TOL * np.maximum(1.0, (np.abs(alpha) ** 2 + np.abs(beta) ** 2).sum(axis=(-2, -1)))


def check_bogoliubov(alpha: np.ndarray, beta: np.ndarray, t: np.ndarray, what: str):
    """Raise ArithmeticError, an internal failure, at the first t whose computed blocks break the identities."""
    defect = bogoliubov_defects(alpha, beta)
    bad = np.flatnonzero(~(defect <= _defect_limit(alpha, beta)))
    if bad.size:
        i = bad[0]
        raise ArithmeticError(f"{what} violates the Bogoliubov identities at t={t[i]:.17g} (defect {defect[i]:.3e})")


def colpa(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Colpa's bosonic diagonalization (L, lam, U) of a positive-definite Hermitian 4x4 m.

    m = L L^dag and L^dag Sigma L = U diag(lam) U^dag.  lam (ascending) is the
    spectrum of Sigma m: normal-mode frequencies of a Hamiltonian matrix, or
    symplectic eigenvalues of a covariance matrix, once with each sign.
    Raises ``numpy.linalg.LinAlgError`` when m is not positive definite.
    """
    low = np.linalg.cholesky(m)
    lam, u = np.linalg.eigh(_dagger(low) @ (_SIGMA[:, None] * low))
    return low, lam, u


def _modes(p: OscillatorParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normal modes (lam, left, right) of H from ``colpa(H)``: S(t) = left diag(exp(-i lam t)) right.

    left = L^-T U and right = U^T L^T are real and mutually inverse; lam is
    ascending, (-kappa_+, -kappa_-, kappa_-, kappa_+).
    """
    low, lam, u = colpa(hamiltonian_matrix(p).real)
    return lam, np.linalg.solve(low.T, u), u.T @ low.T


def evolution_blocks(p: OscillatorParams, t) -> tuple[np.ndarray, np.ndarray]:
    """Blocks (alpha, beta) of S(t) = exp(Omega H t), stacked over a 1-D array of times.

    With the real factors of ``colpa(H)``, H = L L^T and L^T Sigma L =
    U diag(lam) U^T, S(t) = L^-T U diag(exp(-i lam t)) U^T L^T for any stable
    couplings.  U diag(.) U^T is a function of L^T Sigma L, so degenerate
    spectra need no special case.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(t)):
        raise ValueError("time must be finite")
    lam, left, right = _modes(p)
    phases = np.exp(-1j * np.multiply.outer(t, lam))
    s = (left[:2] * phases[:, None, :]) @ right
    alpha, beta = s[..., :2], s[..., 2:]
    check_bogoliubov(alpha, beta, t, "S(t)")
    return alpha, beta


def time_evolution(p: OscillatorParams, t: float) -> SymplecticMatrix:
    """Full evolution S(t) at one time: the single-time case of ``evolution_blocks``."""
    return SymplecticMatrix(*(block[0] for block in evolution_blocks(p, [t])))


def effective_blocks(p: OscillatorParams, t) -> tuple[np.ndarray, np.ndarray]:
    """Blocks of S_eff(t) = S_RWA^dag(t) S(t), stacked over a 1-D array of times."""
    alpha, beta = evolution_blocks(p, t)
    u_dag = _dagger(rwa_block(p, t))
    return u_dag @ alpha, u_dag @ beta
