"""Independent numpy reference for the Gaussian quantities a scan writes.

Everything here is built from the 4x4 generator Omega @ H with plain numpy
(a scaled Taylor exponential, inverse, det, eigvalsh), so it shares no code
with the package's closed-form or Pade routes.  The gate compares
well-conditioned forms: F, bures^2 = 2(1 - sqrt F), delta_n and the squared
singular values sinh(r)^2 of the effective beta block.
"""

from __future__ import annotations

import numpy as np

# Omega = -i diag(I2, -I2) in (a, b, a+, b+) ordering, as in the package docs.
_OMEGA = np.diag([-1j, -1j, 1j, 1j])
_I2 = np.eye(2)


def generator(omega_a: float, omega_b: float, g_bs: float, g_sq: float) -> np.ndarray:
    u = np.array([[omega_a, g_bs], [g_bs, omega_b]])
    v = g_sq * np.array([[0.0, 1.0], [1.0, 0.0]])
    return _OMEGA @ np.block([[u, v], [v, u]])


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling to norm <= 1/4, a degree-18 Taylor sum, and squaring."""
    norm = np.linalg.norm(a, 1)
    squarings = max(0, int(np.ceil(np.log2(norm / 0.25)))) if norm > 0 else 0
    a = a / 2.0**squarings
    term = np.eye(4, dtype=complex)
    out = term.copy()
    for k in range(1, 19):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def gaussian_point(params: dict, s: float, t: float) -> dict:
    """Reference values at time t for a squeezed pair s (s = 0 is the vacuum)."""
    wa, wb, gbs, gsq = params["omega_a"], params["omega_b"], params["g_bs"], params["g_sq"]
    full = expm(t * generator(wa, wb, gbs, gsq))
    rwa = expm(t * generator(wa, wb, gbs, 0.0))
    s0 = np.block([[np.cosh(s) * _I2, np.sinh(s) * _I2], [np.sinh(s) * _I2, np.cosh(s) * _I2]])
    s_f = np.linalg.solve(s0, np.linalg.solve(rwa, full @ s0))
    b_f = s_f[:2, 2:]
    btb = b_f.conj().T @ b_f
    fid = 1.0 / np.sqrt(np.real(np.linalg.det(_I2 + btb)))
    sinh2_minus, sinh2_plus = np.linalg.eigvalsh(btb)
    sigma0 = s0 @ s0.conj().T
    dn = np.real(np.trace(full @ sigma0 @ full.conj().T) - np.trace(sigma0)) / 4.0
    return {
        "fidelity": float(fid),
        "bures_sq": float(2.0 * (1.0 - np.sqrt(fid))),
        "delta_n": float(dn),
        "sinh2_plus": float(sinh2_plus),
        "sinh2_minus": float(sinh2_minus),
    }


def row_misses(row: dict, params: dict, s: float, tol: float) -> list[str]:
    """Names of the written columns that miss the reference by more than tol."""
    t = row["tau"] / params["omega_a"]
    ref = gaussian_point(params, s, t)
    got = {
        "fidelity": row["fidelity"],
        "bures_sq": row["bures"] ** 2,
        "delta_n": row["delta_n"],
        "sinh2_plus": np.sinh(row["r_plus"]) ** 2,
        "sinh2_minus": np.sinh(row["r_minus"]) ** 2,
    }
    return [k for k, v in got.items() if not abs(v - ref[k]) <= tol * max(1.0, abs(ref[k]))]
