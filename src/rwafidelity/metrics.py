"""Comparison quantities between the full and RWA-evolved states.

Central object: the effective Bogoliubov block B_f of
S_f(t) = s0^-1 S_RWA^dag(t) S(t) s0.  The fidelity between the two evolved
states is 1/sqrt(det(I + B_f^dag B_f)); the companion block A_f provides the
mandatory internal cross-check 1/|det A_f|, and the singular values of B_f
give the squeezing parameters r_+- with F = 1/(cosh r_+ cosh r_-).

``gaussian_grid`` evaluates all of these over an array of times from one mode
table (``grid_at``); ``fidelity_eff`` and ``delta_n`` are its one-time cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import OscillatorParams, SymplecticMatrix, _det, check_bogoliubov, mode_phases, mode_table

__all__ = [
    "FidelityReport",
    "GaussianGrid",
    "gaussian_grid",
    "grid_at",
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


def gaussian_grid(factor: SymplecticMatrix, p: OscillatorParams, t) -> GaussianGrid:
    """Full-vs-RWA comparison of the initial state at each time of a 1-D array: ``grid_at`` the torus points of t."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    w, table = mode_table(p)
    return grid_at(factor, table, mode_phases(w, t), t)


def grid_at(factor: SymplecticMatrix, table: np.ndarray, torus: np.ndarray, t: np.ndarray) -> GaussianGrid:
    """The comparison at torus points (4, n) of ``mode_table``'s table; t labels the points in errors.

    S_eff = phases @ table = I + X and S_f = I + s0^-1 X s0 = I + alpha0^dag X s0 - beta0^T X* s0',
    s0' being s0 with its block rows swapped (the plain s0^-1 S_eff s0 cancels blocks of size
    cosh^2(s) near t = 0).  Checked at every point, raising ArithmeticError at the first failing
    t: the Bogoliubov identities of S_eff and S_f, and the B-route fidelity against the A-route
    1/|det A_f|.  Both are absolute for F <= 1 and unit blocks, blind to small relative errors.
    """
    al0, be0, s0 = factor.alpha, factor.beta, factor.matrix
    sandwich = np.hstack([np.kron(al0.conj().T, s0.T), np.kron(-be0.T, s0[[2, 3, 0, 1]].T)])
    # row 4 i + j: entry (i, j) of X, then of X*, which first holds the phases - 1: the outer
    # product of exp(i nu t) and exp(-i lam t), lam = (-kappa_+, -kappa_-, kappa_-, kappa_+).
    # The spare zero column: numpy sends a single column to gemv, whose sums run in another
    # order than gemm's, and a one-time call must give the bits of a column of a longer grid
    x = np.empty((16, torus.shape[1] + 1), dtype=complex)
    np.multiply(torus[2:, None], np.concatenate([torus[1::-1].conj(), torus[:2]]), out=x[8:, :-1].reshape(2, 4, -1))
    x[8:, -1] = 1.0
    x[8:] -= 1.0
    np.matmul(table.T, x[8:].view(float), out=x[:8].view(float))
    np.conjugate(x[:8], out=x[8:])
    s_f = sandwich @ x
    s_eff = x[:8]
    s_eff += table.sum(axis=0)[:, None]  # an error in the table shows at t = 0
    eff = np.moveaxis(s_eff[:, :-1].reshape(2, 4, -1), -1, 0)  # (t, i, j), each entry a contiguous row
    check_bogoliubov(eff[..., :2], eff[..., 2:], t, "S_eff")
    rows = s_eff.reshape(2, 4, -1)  # see delta_n: per row (a, b), Re b^dag ((I + 2 beta0 beta0^dag) b + 2 beta0 alpha0^T a)
    terms = np.hstack([2.0 * be0 @ al0.T, np.eye(2) + 2.0 * be0 @ be0.conj().T]) @ rows
    terms *= rows[:, 2:].conj()
    dn = terms.real.sum(axis=(0, 1))[:-1]
    del x, s_eff, rows, eff, terms  # the largest buffer, freed before S_f is checked
    s_f[[0, 5]] += 1.0
    blocks = np.moveaxis(s_f[:, :-1].reshape(2, 4, -1), -1, 0)
    a_f, b_f = blocks[..., :2], blocks[..., 2:]
    check_bogoliubov(a_f, b_f, t, "S_f")
    fid, r_plus, r_minus = _gram_report(b_f)
    fid_a = 1.0 / np.abs(_det(a_f))
    bad = np.flatnonzero(~(np.abs(fid - fid_a) <= CROSS_CHECK_TOL * np.maximum(1.0, fid)))
    if bad.size:
        i = bad[0]
        raise ArithmeticError(f"fidelity routes disagree at t={t[i]:.17g}: {fid[i]} vs {fid_a[i]}")
    fid = np.minimum(fid, 1.0)
    return GaussianGrid(FidelityReport(fid, np.sqrt(2.0 * (1.0 - np.sqrt(fid))), r_plus, r_minus), dn, a_f, b_f)


def _gram_report(b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """From B^dag B, formed once per (stacked) block B: F = 1/sqrt(det(I + B^dag B)) and
    (r_+, r_-), the arcsinh of the square roots of its closed-form eigenvalues."""
    sq = np.abs(b) ** 2
    m00, m11 = sq[..., 0, 0] + sq[..., 1, 0], sq[..., 0, 1] + sq[..., 1, 1]
    m01 = b[..., 0, 0].conj() * b[..., 0, 1] + b[..., 1, 0].conj() * b[..., 1, 1]
    m01_sq = m01.real**2 + m01.imag**2
    half_tr, spread = 0.5 * (m00 + m11), np.sqrt(0.25 * (m00 - m11) ** 2 + m01_sq)
    r_minus = np.arcsinh(np.sqrt(np.maximum(half_tr - spread, 0.0)))
    return 1.0 / np.sqrt((1.0 + m00) * (1.0 + m11) - m01_sq), np.arcsinh(np.sqrt(half_tr + spread)), r_minus


def bloch_messiah(b_block: np.ndarray) -> tuple[float, float]:
    """Squeezing parameters (r_+, r_-) = arcsinh(singular values) of a (stacked) beta block."""
    return _gram_report(np.asarray(b_block, dtype=complex))[1:]


def fidelity_eff(factor: SymplecticMatrix, p: OscillatorParams, t: float) -> FidelityReport:
    """Fidelity between the full- and RWA-evolved images of the initial state."""
    return gaussian_grid(factor, p, [t]).report.at(0)


def delta_n(factor: SymplecticMatrix, p: OscillatorParams, t: float) -> float:
    """Average excitation surplus of the full evolution over the RWA one.

    The RWA evolution conserves the total number, so the passive 2x2 block
    cancels and the result depends only on the blocks (A, B) of the full
    evolution, or equally of S_eff:
        dN = Tr(B+B) + 2 Re Tr(B+B beta0* beta0^T) + 2 Re Tr(B+A alpha0 beta0^T).
    Vanishes identically when B = 0.
    """
    return float(gaussian_grid(factor, p, [t]).delta_n[0])
