"""Dense complex linear algebra for the fixed sizes used throughout: 2x2 and 4x4.

Everything operates on plain ``numpy.ndarray`` values with dtype complex128.
The two nontrivial routines are the matrix exponential (scaling-and-squaring
with a degree-13 rational approximant) and the quartic eigenvalue solver
(characteristic polynomial, closed-form roots, Newton polish).  Both are
deliberately self-contained and share no code with the dynamics.  The
exponential is a test reference only: production evolutions come from
``dynamics.evolution_blocks``.  The eigenvalue solver yields the symplectic
spectra of covariance matrices.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mat_exp",
    "eigvals4",
    "check_matrix",
    "EIG_RESIDUAL_TOL",
]

# Contract tolerances; tests may monkeypatch these.
EIG_RESIDUAL_TOL = 1e-9

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


def check_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate a square complex matrix of dimension 2 or 4 with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] not in (2, 4):
        raise ValueError(f"{name} must have dimension 2 or 4, got {a.shape[0]}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError(f"{name} has non-finite entries")
    return a


def mat_exp(m, scale: complex = 1.0) -> np.ndarray:
    """exp(scale * m) by scaling-and-squaring with the degree-13 approximant."""
    a = check_matrix(m) * scale
    if not np.all(np.isfinite(a.view(float))):
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


def _one_cubic_root(a2: complex, a1: complex, a0: complex) -> complex:
    """One root of z^3 + a2 z^2 + a1 z + a0 (Cardano, complex arithmetic)."""
    p = a1 - a2 * a2 / 3.0
    q = 2.0 * a2**3 / 27.0 - a2 * a1 / 3.0 + a0
    sq = np.sqrt(complex((q / 2.0) ** 2 + (p / 3.0) ** 3))
    u3 = -q / 2.0 + sq
    if abs(u3) < abs(-q / 2.0 - sq):
        u3 = -q / 2.0 - sq
    if u3 == 0:
        return complex(-a2 / 3.0)
    u = u3 ** (1.0 / 3.0)
    return complex(u - p / (3.0 * u) - a2 / 3.0)


def _char_poly_coeffs(m: np.ndarray):
    """Monic characteristic polynomial coefficients via Newton's identities."""
    m2 = m @ m
    m3 = m2 @ m
    p1 = np.trace(m)
    p2 = np.trace(m2)
    p3 = np.trace(m3)
    p4 = np.trace(m3 @ m)
    e1 = p1
    e2 = (e1 * p1 - p2) / 2.0
    e3 = (p3 - e1 * p2 + e2 * p1) / 3.0
    e4 = (e1 * p3 - e2 * p2 + e3 * p1 - p4) / 4.0
    return -e1, e2, -e3, e4  # lambda^4 + c3 l^3 + c2 l^2 + c1 l + c0


def eigvals4(m) -> np.ndarray:
    """All four eigenvalues of a 4x4 matrix, order unspecified.

    Closed-form quartic (Ferrari) on the characteristic polynomial, followed
    by a keep-if-better Newton polish per root.  Near-degenerate discriminants
    are clamped so that exactly paired spectra (the +/- nu structure of every
    symplectic-form product encountered here) come out exactly paired.
    """
    a = check_matrix(m)
    if a.shape[0] != 4:
        raise ValueError("eigvals4 requires dimension 4")
    scale = np.linalg.norm(a) / 2.0
    if scale == 0.0:
        return np.zeros(4, dtype=complex)
    mm = a / scale
    c3, c2, c1, c0 = _char_poly_coeffs(mm)

    # Depressed quartic y^4 + p y^2 + q y + r with lambda = y - c3/4.
    p = c2 - 3.0 * c3 * c3 / 8.0
    q = c1 - c3 * c2 / 2.0 + c3**3 / 8.0
    r = c0 - c3 * c1 / 4.0 + c3 * c3 * c2 / 16.0 - 3.0 * c3**4 / 256.0
    mag = max(1.0, abs(p), abs(q), abs(r))

    if abs(q) < 1e-13 * mag:
        # Biquadratic: y^2 solves z^2 + p z + r = 0.
        disc = p * p / 4.0 - r
        if abs(disc) < 1e-12 * mag * mag:
            disc = 0.0
        zr = np.sqrt(complex(disc))
        y2a = -p / 2.0 + zr
        y2b = -p / 2.0 - zr
        sa, sb = np.sqrt(complex(y2a)), np.sqrt(complex(y2b))
        ys = np.array([sa, -sa, sb, -sb])
    else:
        z0 = _one_cubic_root(2.0 * p, p * p - 4.0 * r, -q * q)
        w = np.sqrt(complex(z0))
        u = (p + z0 - q / w) / 2.0
        v = (p + z0 + q / w) / 2.0
        d1 = np.sqrt(complex(w * w / 4.0 - u))
        d2 = np.sqrt(complex(w * w / 4.0 - v))
        ys = np.array([-w / 2.0 + d1, -w / 2.0 - d1, w / 2.0 + d2, w / 2.0 - d2])

    lam = ys - c3 / 4.0
    coeffs = np.array([1.0, c3, c2, c1, c0], dtype=complex)
    dcoeffs = np.array([4.0, 3.0 * c3, 2.0 * c2, c1], dtype=complex)
    for _ in range(2):
        pv = np.polyval(coeffs, lam)
        dv = np.polyval(dcoeffs, lam)
        step = np.where(np.abs(dv) > 1e-30, pv / np.where(dv == 0, 1.0, dv), 0.0)
        cand = lam - step
        better = np.abs(np.polyval(coeffs, cand)) < np.abs(pv)
        lam = np.where(better, cand, lam)

    lam = lam * scale
    worst = max(abs(np.linalg.det(a - x * np.eye(4))) for x in lam)
    if worst > EIG_RESIDUAL_TOL * max(np.linalg.norm(a), 1e-300) ** 4:
        raise ArithmeticError(f"eigenvalue polish did not converge (residual {worst:.3e})")
    return lam
