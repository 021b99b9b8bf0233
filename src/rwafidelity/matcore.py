"""Dense complex linear algebra for the fixed sizes used throughout: 2x2 and 4x4.

``check_matrix`` validates the square matrices that enter the public
constructors.  ``mat_exp`` is the matrix exponential by scaling-and-squaring
with a degree-13 rational approximant; it shares no code with the dynamics
and is a test reference only.  Production evolutions and symplectic spectra
both come from ``dynamics.colpa``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mat_exp",
    "check_matrix",
]

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
