"""Comparison quantities between the full and RWA-evolved states.

Central object: the effective Bogoliubov block B_f of
S_f(t) = s0^-1 S_RWA^dag(t) S(t) s0.  The fidelity between the two evolved
states is 1/sqrt(det(I + B_f^dag B_f)); the companion block A_f provides the
mandatory internal cross-check 1/|det A_f|, and the singular values of B_f
give the squeezing parameters r_+- with F = 1/(cosh r_+ cosh r_-).

``gaussian_grid`` evaluates all of these over an array of times;
``fidelity_eff`` and ``delta_n`` are its one-time cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import OscillatorParams, SymplecticMatrix, _I2, _dagger, _det, _mul, check_bogoliubov, compose, effective_blocks

__all__ = [
    "FidelityReport",
    "GaussianGrid",
    "gaussian_grid",
    "fidelity_eff",
    "bloch_messiah",
    "delta_n",
    "CROSS_CHECK_TOL",
]

CROSS_CHECK_TOL = 1e-10


@dataclass(frozen=True)
class FidelityReport:
    """Fidelity and the derived distance measures: floats at one time, arrays in a GaussianGrid."""

    fidelity: float
    bures: float
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


def gaussian_grid(factor: SymplecticMatrix, p: OscillatorParams, t) -> GaussianGrid:
    """Full-vs-RWA comparison of the initial state at each time of a 1-D array.

    Checked at every time: the Bogoliubov identities of S(t) and S_f, and the
    B-route fidelity against the A-route 1/|det A_f|.  A failure raises
    ArithmeticError naming the first failing time.  Both checks are absolute
    for F <= 1 and for blocks of unit size, so neither sees a small relative
    error in a tiny fidelity or in a small entry of S_f.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    a_eff, b_eff = effective_blocks(p, t)
    al0, be0 = factor.alpha, factor.beta
    # S_f = I + s0^-1 (S_eff - I) s0: the plain sandwich s0^-1 S_eff s0 cancels
    # blocks of size cosh^2(s) near t = 0 and breaks the identities at large s
    a_f, b_f = compose(*compose(_dagger(al0), -be0.T, a_eff - _I2, b_eff), al0, be0)
    a_f += _I2
    check_bogoliubov(a_f, b_f, t, "S_f")

    fid = 1.0 / np.sqrt(np.real(_det(_I2 + _mul(_dagger(b_f), b_f))))
    fid_a = 1.0 / np.abs(_det(a_f))
    bad = np.flatnonzero(~(np.abs(fid - fid_a) <= CROSS_CHECK_TOL * np.maximum(1.0, fid)))
    if bad.size:
        i = bad[0]
        raise ArithmeticError(f"fidelity routes disagree at t={t[i]:.17g}: {fid[i]} vs {fid_a[i]}")
    fid = np.minimum(fid, 1.0)
    root = np.sqrt(fid)
    report = FidelityReport(fid, np.sqrt(2.0 * (1.0 - root)), *bloch_messiah(b_f))
    return GaussianGrid(report, _delta_n(factor, a_eff, b_eff), a_f, b_f)


def bloch_messiah(b_block: np.ndarray) -> tuple[float, float]:
    """Squeezing parameters (r_+, r_-) from the singular values of a beta block.

    Singular values are computed from the closed-form eigenvalues of the 2x2
    Hermitian product B^dag B, and r = arcsinh(singular value), per (stacked) block.
    """
    b = np.asarray(b_block, dtype=complex)
    m = _mul(_dagger(b), b)
    half_tr = 0.5 * _trace(m)
    off = 0.25 * np.abs(m[..., 0, 0] - m[..., 1, 1]) ** 2 + np.abs(m[..., 0, 1]) ** 2
    spread = np.sqrt(np.maximum(off, 0.0))
    lam_plus = np.maximum(half_tr + spread, 0.0)
    lam_minus = np.maximum(half_tr - spread, 0.0)
    return np.arcsinh(np.sqrt(lam_plus)), np.arcsinh(np.sqrt(lam_minus))


def fidelity_eff(factor: SymplecticMatrix, p: OscillatorParams, t: float) -> FidelityReport:
    """Fidelity between the full- and RWA-evolved images of the initial state."""
    return gaussian_grid(factor, p, [t]).report.at(0)


def _delta_n(factor: SymplecticMatrix, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    al0, be0 = factor.alpha, factor.beta
    m = _mul(_dagger(b), b)
    cross = _mul(_mul(_mul(_dagger(b), a), al0), be0.T)
    return _trace(m) + 2.0 * _trace(_mul(_mul(m, be0.conj()), be0.T)) + 2.0 * _trace(cross)


def delta_n(factor: SymplecticMatrix, p: OscillatorParams, t: float) -> float:
    """Average excitation surplus of the full evolution over the RWA one.

    The RWA evolution conserves the total number, so the passive 2x2 block
    cancels and the result depends only on the blocks (A, B) of the full
    evolution, or equally of S_eff:
        dN = Tr(B+B) + 2 Re Tr(B+B beta0* beta0^T) + 2 Re Tr(B+A alpha0 beta0^T).
    Vanishes identically when B = 0.
    """
    return float(gaussian_grid(factor, p, [t]).delta_n[0])
