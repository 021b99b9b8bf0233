"""Initial Gaussian states, each given by its symplectic factor s0.

A pure zero-mean two-mode Gaussian state is the image of the vacuum under a
symplectic matrix s0 (blocks in the complex (a, b, a^dag, b^dag) ordering),
and every quantity the package reports follows from s0 and the evolutions,
so no covariance matrix is formed.  Displaced states are out of scope, so no
constructor takes first moments.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dynamics import SymplecticMatrix

__all__ = [
    "InitialState",
    "vacuum",
    "squeezed_pair",
    "SQUEEZING_RANGE",
]

SQUEEZING_RANGE = 10.0


@dataclass(frozen=True)
class InitialState:
    """Tagged initial-state choice shared by the scan harness and the oracle.

    ``vacuum`` and ``squeezed`` have Gaussian factors; ``fock`` exists only
    for the brute-force number-basis route, and alone takes occupations, as
    ``squeezed`` alone takes a nonzero s.
    """

    kind: str
    s: float = 0.0
    n_a: int = 0
    n_b: int = 0

    def __post_init__(self):
        if self.kind not in ("vacuum", "squeezed", "fock"):
            raise ValueError(f"unknown initial state kind {self.kind!r}")
        if any(isinstance(n, bool) or not isinstance(n, (int, np.integer)) for n in (self.n_a, self.n_b)):
            raise ValueError(f"occupations n_a, n_b must be integers, got {self.n_a!r}, {self.n_b!r}")
        if self.kind == "fock" and (self.n_a < 0 or self.n_b < 0):
            raise ValueError("fock occupations must be nonnegative")
        if self.kind != "fock" and (self.n_a or self.n_b):
            raise ValueError(f"occupations n_a, n_b need kind fock, got kind {self.kind!r}")
        # here, so that no route does any work on an s out of range, and kept as a float
        object.__setattr__(self, "s", _check_squeezing(self.s))
        if self.kind != "squeezed" and self.s != 0.0:
            raise ValueError(f"s needs kind squeezed, got kind {self.kind!r}")

    def factor(self) -> SymplecticMatrix:
        if self.kind == "vacuum":
            return vacuum()
        if self.kind == "squeezed":
            return squeezed_pair(self.s)
        raise ValueError("fock states have no Gaussian factor")


def vacuum() -> SymplecticMatrix:
    """The two-mode vacuum: s0 = I."""
    return SymplecticMatrix.identity()


def squeezed_pair(s: float) -> SymplecticMatrix:
    """Factor s0 of both modes squeezed by the same real parameter s (no squeezing phase)."""
    s = _check_squeezing(s)
    alpha0 = np.cosh(s) * np.eye(2, dtype=complex)
    beta0 = np.sinh(s) * np.eye(2, dtype=complex)
    return SymplecticMatrix(alpha0, beta0)


def _check_squeezing(s: float) -> float:
    """s as a float, refused unless a finite real number within SQUEEZING_RANGE.

    A bool is refused, since numpy takes cosh and tanh of one in float16; a
    float32 is widened, since its cosh and sinh would miss the Bogoliubov identity.
    """
    if isinstance(s, bool) or not isinstance(s, numbers.Real) or not abs(s) < math.inf:
        raise ValueError(f"squeezing s must be a finite real number, got {s!r}")
    if not abs(s) <= SQUEEZING_RANGE:
        raise ValueError(f"|s| <= {SQUEEZING_RANGE} required, got {s}")
    return float(s)
