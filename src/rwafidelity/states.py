"""Gaussian states as 4x4 covariance matrices with zero first moments.

The complex (a, a^dag) convention is used throughout: sigma_nm is the
expectation of the anticommutator {X_n, X_m^dag} with X = (a, b, a+, b+), so
the vacuum is exactly the identity matrix.  Displaced states are out of
scope, so no constructor takes first moments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import SymplecticMatrix, colpa

__all__ = [
    "NonPhysicalStateError",
    "CovarianceMatrix",
    "PureStateFactor",
    "InitialState",
    "vacuum",
    "squeezed_pair",
    "symplectic_eigenvalues",
    "HERMITICITY_TOL",
    "PHYSICALITY_TOL",
    "PAIRING_TOL",
    "SQUEEZING_RANGE",
]

HERMITICITY_TOL = 1e-12
PHYSICALITY_TOL = 1e-9
PAIRING_TOL = 1e-8
SQUEEZING_RANGE = 10.0


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


@dataclass(frozen=True)
class PureStateFactor:
    """Symplectic factor s0 of a pure state's covariance, sigma = s0 s0^dag."""

    s0: SymplecticMatrix

    @property
    def alpha(self) -> np.ndarray:
        return self.s0.alpha

    @property
    def beta(self) -> np.ndarray:
        return self.s0.beta

    @property
    def covariance(self) -> CovarianceMatrix:
        s4 = self.s0.matrix
        sig = s4 @ s4.conj().T
        return CovarianceMatrix(0.5 * (sig + sig.conj().T))


@dataclass(frozen=True)
class InitialState:
    """Tagged initial-state choice shared by the scan harness and the oracle.

    ``vacuum`` and ``squeezed`` have Gaussian factors; ``fock`` exists only
    for the brute-force number-basis route.
    """

    kind: str
    s: float = 0.0
    n_a: int = 0
    n_b: int = 0

    def __post_init__(self):
        if self.kind not in ("vacuum", "squeezed", "fock"):
            raise ValueError(f"unknown initial state kind {self.kind!r}")
        if self.kind == "fock" and (self.n_a < 0 or self.n_b < 0):
            raise ValueError("fock occupations must be nonnegative")
        if not np.isfinite(self.s):
            raise ValueError(f"squeezing s must be finite, got {self.s!r}")

    def factor(self) -> PureStateFactor:
        if self.kind == "vacuum":
            return vacuum()
        if self.kind == "squeezed":
            return squeezed_pair(self.s)
        raise ValueError("fock states have no Gaussian factor")


def vacuum() -> PureStateFactor:
    """The two-mode vacuum: sigma = I, s0 = I."""
    return PureStateFactor(SymplecticMatrix.identity())


def squeezed_pair(s: float) -> PureStateFactor:
    """Both modes squeezed by the same real parameter s (no squeezing phase)."""
    if not abs(s) <= SQUEEZING_RANGE:
        raise ValueError(f"|s| <= {SQUEEZING_RANGE} required, got {s}")
    alpha0 = np.cosh(s) * np.eye(2, dtype=complex)
    beta0 = np.sinh(s) * np.eye(2, dtype=complex)
    return PureStateFactor(SymplecticMatrix(alpha0, beta0))


def symplectic_eigenvalues(cov: CovarianceMatrix | np.ndarray) -> tuple[float, float]:
    """The two symplectic eigenvalues (descending) of a positive-definite sigma, from ``colpa(sigma)``."""
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
