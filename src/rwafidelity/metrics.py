"""Comparison quantities between the full and RWA-evolved states.

Central object: the effective Bogoliubov block B_f of
S_f(t) = s0^-1 S_RWA^dag(t) S(t) s0.  The fidelity between the two evolved
states is 1/sqrt(det(I + B_f^dag B_f)); the companion block A_f provides the
mandatory internal cross-check 1/|det A_f|, and the singular values of B_f
give the squeezing parameters r_+- with F = 1/(cosh r_+ cosh r_-).

``gaussian_grid`` evaluates all of these over an array of times; the
single-time functions are its one-time cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import OscillatorParams, _dagger, check_bogoliubov, compose, effective_blocks
from .states import PureStateFactor, vacuum

__all__ = [
    "FidelityReport",
    "GaussianGrid",
    "gaussian_grid",
    "effective_bogoliubov",
    "fidelity_eff",
    "bloch_messiah",
    "delta_n",
    "number_moments",
    "vacuum_fidelity_moments",
    "CROSS_CHECK_TOL",
]

CROSS_CHECK_TOL = 1e-10


@dataclass(frozen=True)
class FidelityReport:
    """Fidelity and the derived distance measures: floats at one time, arrays in a GaussianGrid."""

    fidelity: float
    bures: float
    angle: float
    r_plus: float
    r_minus: float

    def at(self, i: int) -> "FidelityReport":
        return FidelityReport(*(float(v[i]) for v in vars(self).values()))


@dataclass(frozen=True)
class GaussianGrid:
    """The Gaussian route over a 1-D array of times: one entry per time, S_f blocks stacked."""

    report: FidelityReport
    delta_n: np.ndarray
    a_f: np.ndarray
    b_f: np.ndarray


def _trace(m: np.ndarray) -> np.ndarray:
    """Real part of the trace of each (stacked) 2x2 matrix."""
    return np.real(m[..., 0, 0] + m[..., 1, 1])


def gaussian_grid(factor: PureStateFactor, p: OscillatorParams, t) -> GaussianGrid:
    """Full-vs-RWA comparison of the initial state at each time of a 1-D array.

    Checked at every time: the Bogoliubov identities of S(t) and S_f, and the
    B-route fidelity against the A-route 1/|det A_f|.  A failure raises
    ArithmeticError naming the first failing time.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    a_eff, b_eff = effective_blocks(p, t)
    al0, be0 = factor.alpha, factor.beta
    a_f, b_f = compose(*compose(_dagger(al0), -be0.T, a_eff, b_eff), al0, be0)
    check_bogoliubov(a_f, b_f, t, "S_f")

    fid = 1.0 / np.sqrt(np.real(np.linalg.det(np.eye(2) + _dagger(b_f) @ b_f)))
    fid_a = 1.0 / np.abs(np.linalg.det(a_f))
    bad = np.flatnonzero(~(np.abs(fid - fid_a) <= CROSS_CHECK_TOL * np.maximum(1.0, fid)))
    if bad.size:
        i = bad[0]
        raise ArithmeticError(f"fidelity routes disagree at t={t[i]:.17g}: {fid[i]} vs {fid_a[i]}")
    fid = np.minimum(fid, 1.0)
    root = np.sqrt(fid)
    report = FidelityReport(fid, np.sqrt(2.0 * (1.0 - root)), 0.5 * np.arccos(root), *bloch_messiah(b_f))
    return GaussianGrid(report, _delta_n(factor, a_eff, b_eff), a_f, b_f)


def effective_bogoliubov(factor: PureStateFactor, p: OscillatorParams, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Blocks (A_f, B_f) of s0^-1 S_RWA^dag(t) S(t) s0 at one time."""
    grid = gaussian_grid(factor, p, [t])
    return grid.a_f[0], grid.b_f[0]


def bloch_messiah(b_block: np.ndarray) -> tuple[float, float]:
    """Squeezing parameters (r_+, r_-) from the singular values of a beta block.

    Singular values are computed from the closed-form eigenvalues of the 2x2
    Hermitian product B^dag B, and r = arcsinh(singular value), per (stacked) block.
    """
    b = np.asarray(b_block, dtype=complex)
    m = _dagger(b) @ b
    half_tr = 0.5 * _trace(m)
    off = 0.25 * np.abs(m[..., 0, 0] - m[..., 1, 1]) ** 2 + np.abs(m[..., 0, 1]) ** 2
    spread = np.sqrt(np.maximum(off, 0.0))
    lam_plus = np.maximum(half_tr + spread, 0.0)
    lam_minus = np.maximum(half_tr - spread, 0.0)
    return np.arcsinh(np.sqrt(lam_plus)), np.arcsinh(np.sqrt(lam_minus))


def fidelity_eff(factor: PureStateFactor, p: OscillatorParams, t: float) -> FidelityReport:
    """Fidelity between the full- and RWA-evolved images of the initial state."""
    return gaussian_grid(factor, p, [t]).report.at(0)


def _delta_n(factor: PureStateFactor, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    al0, be0 = factor.alpha, factor.beta
    m = _dagger(b) @ b
    return _trace(m) + 2.0 * _trace(m @ be0.conj() @ be0.T) + 2.0 * _trace(_dagger(b) @ a @ al0 @ be0.T)


def delta_n(factor: PureStateFactor, p: OscillatorParams, t: float) -> float:
    """Average excitation surplus of the full evolution over the RWA one.

    The RWA evolution conserves the total number, so the passive 2x2 block
    cancels and the result depends only on the blocks (A, B) of the full
    evolution, or equally of S_eff:
        dN = Tr(B+B) + 2 Re Tr(B+B beta0* beta0^T) + 2 Re Tr(B+A alpha0 beta0^T).
    Vanishes identically when B = 0.
    """
    return float(gaussian_grid(factor, p, [t]).delta_n[0])


def number_moments(a_block: np.ndarray, b_block: np.ndarray) -> tuple[float, float]:
    """Vacuum expectation (dN, dN^2) of the number change under a Bogoliubov pair.

    dN   = Tr(B+B)
    dN^2 = Tr(A A+ B B+) + Tr(B A^T B* A+) + (Tr B+B)^2
    """
    a = np.asarray(a_block, dtype=complex)
    b = np.asarray(b_block, dtype=complex)
    dn = float(np.real(np.trace(b.conj().T @ b)))
    dn2 = float(
        np.real(
            np.trace(a @ a.conj().T @ b @ b.conj().T)
            + np.trace(b @ a.T @ b.conj() @ a.conj().T)
        )
    ) + dn**2
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
