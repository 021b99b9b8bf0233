"""Two coupled oscillators: parameter validation, normal modes, and evolutions.

Conventions (used everywhere downstream):
  * operator ordering (a, b, a^dag, b^dag),
  * symplectic form Omega = -i diag(I2, -I2),
  * hbar = 1, all frequencies and couplings angular (rad/time).

A 4x4 symplectic matrix is stored by its 2x2 blocks (alpha, beta); the full
matrix is ((alpha, beta), (beta*, alpha*)).  The beam-splitter-only evolution
is block diagonal (beta = 0); a nonzero beta block signals squeezing.

Every evolution is a phase broadcast over a whole array of times.  S(t) and
kappa_+- come from Colpa's bosonic diagonalization of the Hamiltonian matrix
(``colpa``), the RWA block from the RWA modes, the eigenpairs of its passive
block U.  ``mode_table`` joins both into one real 8x8 table of S_RWA^dag S,
read at points exp(-i w t) of the mode torus (``mode_phases``).
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
    "mode_table",
    "mode_phases",
    "evolution_blocks",
    "time_evolution",
    "SYMPLECTIC_TOL",
]

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
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
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
        defect, limit = bogoliubov_defects(self.alpha, self.beta)
        if not defect <= limit:
            raise ValueError(f"blocks violate the Bogoliubov identities (defect {defect:.3e})")

    @property
    def matrix(self) -> np.ndarray:
        a, b = self.alpha, self.beta
        return np.block([[a, b], [b.conj(), a.conj()]])

    def __matmul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        m = self.matrix @ other.matrix
        return SymplecticMatrix(m[:2, :2], m[:2, 2:])

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


def _times(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("time must be finite")
    return t


def _rwa_modes(p: OscillatorParams) -> tuple[np.ndarray, np.ndarray]:
    """RWA modes (nu, v), nu ascending: the passive block U = ((omega_a, g_bs), (g_bs, omega_b)) = v diag(nu) v^T."""
    return np.linalg.eigh(np.array([[p.omega_a, p.g_bs], [p.g_bs, p.omega_b]]))


def rwa_block(p: OscillatorParams, t) -> np.ndarray:
    """exp(-i U t), the RWA evolution's unitary block, stacked over the shape of t: exp(-i nu_k t) (``mode_phases``) times v[i, k] v[j, k]."""
    nu, v = _rwa_modes(p)
    table = (v.T[:, :, None] * v.T[:, None, :]).reshape(2, 4)
    phases = np.moveaxis(mode_phases(nu, t), 0, -1)  # t's shape, then one column per RWA mode
    return (phases @ table).reshape(phases.shape[:-1] + (2, 2))


def _det(m: np.ndarray) -> np.ndarray:
    """Determinant of each (stacked) 2x2 block."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def bogoliubov_defects(alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Defect and limit per (stacked) block pair: the largest entry of a a^dag - b b^dag - I (Hermitian,
    so three entries) and of a b^T - b a^T (diagonal exactly zero, so one), against the squared norms."""
    a2, b2 = np.abs(alpha) ** 2, np.abs(beta) ** 2
    h01 = (alpha[..., 0, :] * alpha[..., 1, :].conj() - beta[..., 0, :] * beta[..., 1, :].conj()).sum(axis=-1)
    k01 = (alpha[..., 0, :] * beta[..., 1, :] - beta[..., 0, :] * alpha[..., 1, :]).sum(axis=-1)
    h_diag = np.abs((a2 - b2).sum(axis=-1) - 1.0).max(axis=-1)
    defect = np.maximum(h_diag, np.maximum(np.abs(h01), np.abs(k01)))
    return defect, SYMPLECTIC_TOL * np.maximum(1.0, (a2 + b2).sum(axis=(-2, -1)))


def check_bogoliubov(alpha: np.ndarray, beta: np.ndarray, t: np.ndarray, what: str):
    """Raise ArithmeticError, an internal failure, at the first t whose computed blocks break the identities."""
    defect, limit = bogoliubov_defects(alpha, beta)
    bad = np.flatnonzero(~(defect <= limit))
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
    lam, u = np.linalg.eigh(low.conj().T @ (_SIGMA[:, None] * low))
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

    The phase broadcast over the normal modes of ``_modes``, for any stable couplings:
    S(t)[i, j] = sum_k left[i, k] exp(-i lam_k t) right[k, j], one (n, 4) @ (4, 8) product.
    left diag(.) right is a function of L^T Sigma L, so degenerate spectra need no special case.
    The phases of -kappa_+- are the conjugates of those of kappa_+-, as in ``grid_at``: lam's
    computed pairs are not exact negatives, and at long times their phases would drift apart.
    """
    t = np.atleast_1d(_times(t))
    lam, left, right = _modes(p)
    table = (left[:2].T[:, :, None] * right[:, None, :]).reshape(4, 8)
    phases = mode_phases(lam[2:], t) - 1.0  # S(t) = I + left diag(phases - 1) right is exactly I at t = 0; left @ right is I only to rounding
    s = (np.concatenate([phases[::-1].conj(), phases]).T @ table).reshape(-1, 2, 4) + np.eye(2, 4)
    check_bogoliubov(s[..., :2], s[..., 2:], t, "S(t)")
    return s[..., :2], s[..., 2:]


def time_evolution(p: OscillatorParams, t: float) -> SymplecticMatrix:
    """Full evolution S(t) at one time: the single-time case of ``evolution_blocks``."""
    return SymplecticMatrix(*(block[0] for block in evolution_blocks(p, [t])))


def mode_table(p: OscillatorParams) -> tuple[np.ndarray, np.ndarray]:
    """Torus frequencies w = (kappa_-, kappa_+, -nu_0, -nu_1) and the real 8x8 table of S_RWA^dag S.

    Column 4 i + j is entry (i, j) of the top block row (alpha, beta); row 4 l + k goes with
    the phase exp(-i (lam_k - nu_l) t), lam being ``_modes``'s and nu, v the RWA modes':
    table[4 l + k, 4 i + j] = v[i, l] (v^T left[:2])[l, k] right[k, j].
    """
    lam, left, right = _modes(p)
    nu, v = _rwa_modes(p)
    table = np.einsum("il,lk,kj->lkij", v, v.T @ left[:2], right).reshape(8, 8)
    return np.array([lam[2], lam[3], -nu[0], -nu[1]]), table


def mode_phases(w: np.ndarray, t) -> np.ndarray:
    """The points exp(-i w t), of shape w.shape + t.shape: the mode torus, (4, n), at a 1-D array of times.

    Raises ValueError where the largest |w t| is not finite.
    """
    t = _times(t)
    # a product of Python floats, which overflows to inf with no warning
    if not math.isfinite(float(np.max(np.abs(w))) * float(np.max(np.abs(t), initial=0.0))):
        raise ValueError(f"the mode phases w t must be finite, got t = {t.flat[np.argmax(np.abs(t))]:.6g}")
    return np.exp(-1j * np.multiply.outer(w, t))
