"""Two coupled oscillators: parameter validation, normal modes, and evolutions.

Conventions (used everywhere downstream):
  * operator ordering (a, b, a^dag, b^dag),
  * symplectic form Omega = -i diag(I2, -I2),
  * hbar = 1, all frequencies and couplings angular (rad/time).

A 4x4 symplectic matrix is stored by its 2x2 blocks (alpha, beta); the full
matrix is ((alpha, beta), (beta*, alpha*)).  The beam-splitter-only evolution
is block diagonal (beta = 0); a nonzero beta block signals squeezing.

Both evolutions are phase broadcasts over a whole array of times: S(t) and
kappa_+- come from Colpa's bosonic diagonalization of the Hamiltonian matrix
(``colpa``), the RWA block from the RWA modes, the eigenpairs of its passive block U.
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
        if abs(self.g_bs) + abs(self.g_sq) >= self.stability_bound * (1.0 - CRITICAL_MARGIN):
            raise UnstableParamsError(
                f"couplings |g_bs|+|g_sq| = {abs(self.g_bs) + abs(self.g_sq):.6g} reach the "
                f"critical coupling {critical_coupling(self):.6g} "
                f"(stability bound sqrt(omega_a*omega_b) = {self.stability_bound:.6g})"
            )

    @property
    def stability_bound(self) -> float:
        """sqrt(omega_a*omega_b), taken as sqrt(omega_a)*sqrt(omega_b) so that no product over- or underflows."""
        return np.sqrt(self.omega_a) * np.sqrt(self.omega_b)

    @property
    def equal_couplings(self) -> bool:
        return self.g_bs == self.g_sq

    @property
    def resonant(self) -> bool:
        """1 - r^2 < 1e-12 for the frequency ratio r <= 1: a test in units of the frequencies that cannot overflow."""
        r = min(self.omega_a, self.omega_b) / max(self.omega_a, self.omega_b)
        return (1.0 - r) * (1.0 + r) < 1e-12


def critical_coupling(p: OscillatorParams) -> float:
    """Critical coupling magnitude along the ray through (g_bs, g_sq).

    Scaling the coupling pair by c keeps stability while
    c*(|g_bs|+|g_sq|) < sqrt(wa*wb); the returned value is the magnitude of
    the larger coupling at the first boundary crossing.  Equal couplings give
    sqrt(wa*wb)/2, a single coupling gives sqrt(wa*wb).
    """
    total = abs(p.g_bs) + abs(p.g_sq)
    if total == 0.0:
        return p.stability_bound / 2.0  # degenerate ray; quote the equal-couplings value
    return p.stability_bound * (max(abs(p.g_bs), abs(p.g_sq)) / total)


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
    """Normal-mode frequencies (kappa_+, kappa_-), both real and positive: the positive half of ``_modes(p)``'s lam."""
    lam = _modes(p)[0]
    return float(lam[3]), float(lam[2])


def rwa_block(p: OscillatorParams, t) -> np.ndarray:
    """The unitary 2x2 block exp(-i U t) of the beam-splitter-only evolution, stacked over the shape of t.

    The phase broadcast of ``evolution_blocks`` over the RWA modes U = v diag(nu) v^T of the passive
    block U = ((omega_a, g_bs), (g_bs, omega_b)): the phases exp(-i nu_k t) times the table v[i, k] v[j, k].
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("time must be finite")
    nu, v = np.linalg.eigh(np.array([[p.omega_a, p.g_bs], [p.g_bs, p.omega_b]]))
    table = (v.T[:, :, None] * v.T[:, None, :]).reshape(2, 4)
    return (np.exp(-1j * np.multiply.outer(t, nu)) @ table).reshape(t.shape + (2, 2))


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of (stacked) 2x2 blocks, written out entrywise; a single block broadcasts against a stack.

    ``@`` on a stack of 2x2 blocks costs one BLAS call per block, an order of
    magnitude more than these four entrywise sums.
    """
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    b00, b01, b10, b11 = b[..., 0, 0], b[..., 0, 1], b[..., 1, 0], b[..., 1, 1]
    c00 = a00 * b00 + a01 * b10
    out = np.empty(np.shape(c00) + (2, 2), dtype=c00.dtype)
    out[..., 0, 0] = c00
    out[..., 0, 1] = a00 * b01 + a01 * b11
    out[..., 1, 0] = a10 * b00 + a11 * b10
    out[..., 1, 1] = a10 * b01 + a11 * b11
    return out


def _det(m: np.ndarray) -> np.ndarray:
    """Determinant of each (stacked) 2x2 block."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def compose(a1: np.ndarray, b1: np.ndarray, a2: np.ndarray, b2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Blocks of the product of two symplectic matrices given by (stacked) blocks."""
    return _mul(a1, a2) + _mul(b1, b2.conj()), _mul(a1, b2) + _mul(b1, a2.conj())


def bogoliubov_defects(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Largest entry of a a^dag - b b^dag - I and a b^T - b a^T, per (stacked) block pair."""
    d1 = np.abs(_mul(alpha, _dagger(alpha)) - _mul(beta, _dagger(beta)) - _I2).max(axis=(-2, -1))
    d2 = np.abs(_mul(alpha, beta.swapaxes(-1, -2)) - _mul(beta, alpha.swapaxes(-1, -2))).max(axis=(-2, -1))
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
    spectrum of Sigma m, once with each sign: for a Hamiltonian matrix, its
    normal-mode frequencies.  A state needs no such step: it is given by its
    symplectic factor s0, never by a covariance matrix.
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
    # S(t)[i, j] for the top block row i < 2 is sum_k left[i, k] right[k, j] exp(-i lam_k t):
    # one (n, 4) @ (4, 8) product of the phases with the table of left[i, k] right[k, j]
    table = (left[:2].T[:, :, None] * right[:, None, :]).reshape(4, 8)
    s = (np.exp(-1j * np.multiply.outer(t, lam)) @ table).reshape(-1, 2, 4)
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
    return _mul(u_dag, alpha), _mul(u_dag, beta)
