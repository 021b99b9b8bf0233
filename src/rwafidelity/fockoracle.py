"""Brute-force ground truth in a number-truncated two-mode Fock space.

States live on the product basis |n_a, n_b> with 0 <= n <= cutoff.  No matrix
is built: `GridHamiltonian` applies H by shifted-slice products, and only the
initial vector is propagated, by a Chebyshev expansion of exp(-i H dt) over the
Gershgorin interval of H (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)).
Every term with a Bessel factor J_k(b dt) above double-precision roundoff is
kept, so the propagation is unitary to rounding (about 1e-14), not exactly.
The cost grows as (omega_a + omega_b) * cutoff * |time span|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import OscillatorParams
from .states import InitialState

__all__ = [
    "TruncationError",
    "FockBasis",
    "FockVector",
    "GridHamiltonian",
    "chebyshev_coefficients",
    "fock_vector",
    "squeezed_vector",
    "FockOracle",
    "OraclePoint",
    "fock_bound",
    "bound_check",
    "BoundCheckResult",
    "TAIL_TOL",
    "MAX_CUTOFF",
]

TAIL_TOL = 1e-8
MAX_CUTOFF = 96
BOUND_CERT_TOL = 1e-6


class TruncationError(RuntimeError):
    """Raised when the cutoff is too small for the requested quantity."""


@dataclass(frozen=True)
class FockBasis:
    """Two-mode number basis truncated at a per-mode occupation cutoff."""

    cutoff: int

    def __post_init__(self):
        if not (1 <= self.cutoff <= MAX_CUTOFF):
            raise ValueError(f"cutoff must be in [1, {MAX_CUTOFF}]")

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** 2

    def index(self, n_a: int, n_b: int) -> int:
        c = self.cutoff
        if not (0 <= n_a <= c and 0 <= n_b <= c):
            raise ValueError(f"occupation ({n_a}, {n_b}) outside cutoff {c}")
        return n_a * (c + 1) + n_b

    def occupations(self, idx):
        """(n_a, n_b) of a flat index, or of an array of them."""
        return divmod(idx, self.cutoff + 1)

    # built once per basis and shared by every vector on it, hence read-only
    @cached_property
    def number_vector(self) -> np.ndarray:
        n = np.add(*self.occupations(np.arange(self.dim))).astype(float)
        n.flags.writeable = False
        return n

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        mask = np.maximum(*self.occupations(np.arange(self.dim))) == self.cutoff
        mask.flags.writeable = False
        return mask


@dataclass
class FockVector:
    """State vector on a FockBasis."""

    basis: FockBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.basis.dim,):
            raise ValueError("amplitude length does not match the basis dimension")
        self.amplitudes = amp

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def tail_weight(self) -> float:
        """Probability mass sitting on the boundary shell of the truncation."""
        return float(np.sum(np.abs(self.amplitudes[self.basis.boundary_mask]) ** 2))

    def number_expectation(self) -> float:
        n = self.basis.number_vector
        return float(np.real(np.vdot(self.amplitudes, n * self.amplitudes)))


@dataclass(frozen=True, eq=False)
class GridHamiltonian:
    """H = wa n_a + wb n_b + g_bs (a'b + ab') + g_sq (a'b' + ab) on flat amplitudes.

    Index k = n_a (cutoff+1) + n_b, copies of the basis stacked end to end.  A
    coupling links k to k + d (d = cutoff for a'b, cutoff + 2 for a'b') through
    weights H[k + d, k] that are zero where the shift leaves the grid; d is the
    number of entries the weights lack.
    """

    diagonal: np.ndarray  # H[k, k]
    bs: np.ndarray  # H[k + cutoff, k]
    sq: np.ndarray  # H[k + cutoff + 2, k]

    @classmethod
    def build(cls, p: OscillatorParams, basis: FockBasis, g_sq) -> "GridHamiltonian":
        """One copy of H per entry of g_sq, in place of p.g_sq; g_sq = 0 is the RWA."""
        c, g_sq = basis.cutoff, np.atleast_1d(g_sq)
        n_a, n_b = basis.occupations(np.arange(basis.dim))
        up = np.sqrt(n_a + 1.0) * (n_a < c)
        return cls(
            np.tile(p.omega_a * n_a + p.omega_b * n_b, len(g_sq)),
            np.tile(p.g_bs * up * np.sqrt(n_b), len(g_sq))[:-c],
            np.multiply.outer(g_sq, up * np.sqrt(n_b + 1.0) * (n_b < c)).ravel()[: -(c + 2)],
        )

    def __call__(self, psi: np.ndarray) -> np.ndarray:
        dtype = np.result_type(self.diagonal, psi)
        return self._apply(psi, np.empty(psi.shape, dtype), np.empty(psi.shape, dtype))

    def _apply(self, psi: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
        """H psi written into out, with work (shaped like psi) as scratch; allocates nothing."""
        np.multiply(self.diagonal, psi, out=out)
        for w in (self.bs, self.sq):
            d = len(self.diagonal) - len(w)
            part = work[..., d:]
            np.multiply(w, psi[..., :-d], out=part)
            out[..., d:] += part
            np.multiply(w, psi[..., d:], out=part)
            out[..., :-d] += part
        return out

    def spectral_bounds(self) -> tuple[float, float]:
        """Gershgorin interval: each row's diagonal plus or minus its off-diagonal row sum."""
        hops = GridHamiltonian(np.zeros_like(self.diagonal), np.abs(self.bs), np.abs(self.sq))
        radius = hops(np.ones_like(self.diagonal))
        return float(np.min(self.diagonal - radius)), float(np.max(self.diagonal + radius))


def chebyshev_coefficients(x: float) -> np.ndarray:
    """a_k with exp(-i x y) = sum_k a_k T_k(y) on [-1, 1], cut where |J_k(x)| drops below eps.

    a_k = (2 - delta_k0) (-i)^k J_k(x).  J_k(|x|) comes from Miller's backward
    recurrence J_(k-1) = (2k/|x|) J_k - J_(k+1), started well past the turning
    point k = |x| and normalized by J_0 + 2 sum_k J_2k = 1; J_k(-x) = (-1)^k J_k(x).
    """
    if x == 0.0:
        return np.ones(1, dtype=complex)
    ax = abs(x)
    top = int(ax + 16.0 * ax ** (1.0 / 3.0)) + 40
    j = np.zeros(top + 2)
    j[top] = 1.0
    for k in range(top, 0, -1):
        j[k - 1] = 2.0 * k / ax * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:
            j[k - 1 :] *= 1e-250
    j /= j[0] + 2.0 * np.sum(j[2::2])
    kept = np.nonzero(np.abs(j) >= np.finfo(float).eps)[0][-1] + 1
    k = np.arange(kept)
    return np.where(k == 0, 1.0, 2.0) * (-1j * np.sign(x)) ** (k % 4) * j[:kept]


def fock_vector(basis: FockBasis, n_a: int, n_b: int) -> FockVector:
    amp = np.zeros(basis.dim, dtype=complex)
    amp[basis.index(n_a, n_b)] = 1.0
    return FockVector(basis, amp)


def squeezed_mode_amplitudes(s: float, cutoff: int) -> np.ndarray:
    """Number-basis amplitudes of a single squeezed mode with +sinh(s) pair moment.

    Matches the covariance convention of states.squeezed_pair: <a^2> = sinh(2s)/2,
    so the even amplitudes carry (+tanh s)^k.
    """
    amp = np.zeros(cutoff + 1)
    th = np.tanh(s)
    for k in range(0, cutoff + 1, 2):
        half = k // 2
        amp[k] = th**half * math.sqrt(math.factorial(k)) / (2.0**half * math.factorial(half))
    return amp / math.sqrt(math.cosh(s))


def squeezed_vector(basis: FockBasis, s: float) -> tuple[FockVector, float]:
    """Truncated squeezed-pair state and the discarded weight before renormalization."""
    mode = squeezed_mode_amplitudes(s, basis.cutoff)
    amp = np.kron(mode, mode).astype(complex)
    weight = float(np.sum(np.abs(amp) ** 2))
    discarded = 1.0 - weight
    if discarded > TAIL_TOL:
        raise TruncationError(f"initial squeezed state loses weight {discarded:.3e} at cutoff {basis.cutoff}")
    amp /= math.sqrt(weight)
    return FockVector(basis, amp), discarded


def initial_vector(basis: FockBasis, initial: InitialState) -> tuple[FockVector, float]:
    if initial.kind == "vacuum":
        return fock_vector(basis, 0, 0), 0.0
    if initial.kind == "squeezed":
        return squeezed_vector(basis, initial.s)
    return fock_vector(basis, initial.n_a, initial.n_b), 0.0


@dataclass(frozen=True)
class OraclePoint:
    """Oracle outputs at one time or over a grid: overlap fidelity, excitation surplus, worst tail."""

    fidelity: float | np.ndarray
    delta_n: float | np.ndarray
    tail_weight: float


class FockOracle:
    """Paired full/RWA propagation of one parameter set at a fixed cutoff."""

    def __init__(self, p: OscillatorParams, cutoff: int):
        self.params = p
        self.basis = FockBasis(cutoff)
        pair = GridHamiltonian.build(p, self.basis, (p.g_sq, 0.0))
        lo, hi = pair.spectral_bounds()  # the RWA discs lie inside the full ones
        self._centre, self._half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        # 2 (H - centre) / half: its Chebyshev recurrence is T_(k+1) = L T_k - T_(k-1)
        scale = 2.0 / self._half
        self._recurrence = GridHamiltonian((pair.diagonal - self._centre) * scale, pair.bs * scale, pair.sq * scale)

    def _step(self, psi: np.ndarray, dt: float) -> np.ndarray:
        # The recurrence cycles through four fixed buffers (prev starts as a
        # copy, since its buffer is reused).  With fresh temporaries on every
        # term its speed hung on the state of the heap: a cutoff-80
        # oracle-check ran 15-50% slower after an unrelated change in what
        # else was allocated.
        coeffs = chebyshev_coefficients(self._half * dt)
        out = coeffs[0] * psi
        prev, cur, spare, work = psi.copy(), np.empty_like(psi), np.empty_like(psi), np.empty_like(psi)
        self._recurrence._apply(psi, cur, work)
        cur *= 0.5
        for k, c in enumerate(coeffs[1:]):
            if k:
                nxt = self._recurrence._apply(cur, spare, work)
                nxt -= prev
                prev, cur, spare = cur, nxt, prev
            np.multiply(c, cur, out=work)
            out += work
        return np.exp(-1j * self._centre * dt) * out

    def _trajectory(self, psi0: FockVector, ts):
        """(full, rwa) states at each time of ts, each stepped from the one before (from t = 0 first)."""
        dim, t_prev = self.basis.dim, 0.0
        pair = np.tile(psi0.amplitudes, 2)
        for t in ts:
            pair, t_prev = self._step(pair, t - t_prev), t
            yield FockVector(self.basis, pair[:dim]), FockVector(self.basis, pair[dim:])

    def evolved_pair(self, initial: InitialState, t: float) -> tuple[FockVector, FockVector, float]:
        psi0, discarded = initial_vector(self.basis, initial)
        ((psi_full, psi_rwa),) = self._trajectory(psi0, [t])
        return psi_full, psi_rwa, discarded

    def compare(self, initial: InitialState, ts) -> OraclePoint:
        """Oracle outputs over an array of times, or float fields for a scalar t."""
        psi0, tail = initial_vector(self.basis, initial)
        times = np.asarray(ts, dtype=float)
        fid, d_n = np.empty(times.shape), np.empty(times.shape)
        for i, (psi_full, psi_rwa) in enumerate(self._trajectory(psi0, times.reshape(-1))):
            tail = max(tail, psi_full.tail_weight(), psi_rwa.tail_weight())
            if tail > TAIL_TOL:
                raise TruncationError(f"truncation tail {tail:.3e} exceeds {TAIL_TOL} at cutoff {self.basis.cutoff}")
            fid.flat[i] = abs(np.vdot(psi_rwa.amplitudes, psi_full.amplitudes)) ** 2
            d_n.flat[i] = psi_full.number_expectation() - psi_rwa.number_expectation()
        if times.ndim == 0:
            fid, d_n = float(fid), float(d_n)
        return OraclePoint(fidelity=fid, delta_n=d_n, tail_weight=tail)


def fock_bound(n_a: int, n_b: int, g: float, omega: float, t: float) -> float:
    """Resonant worst-case bound on ||(U - U_RWA)|n_a, n_b>||."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    total = n_a + n_b
    return 2.0 * (g / omega) * (total + 4) ** 2 * (1.0 + 6.0 * g * t * (total + 4))


@dataclass(frozen=True)
class BoundCheckResult:
    z_exact: float
    z_max: float
    satisfied: bool


def _propagation_distance(p: OscillatorParams, n_a: int, n_b: int, t: float, cutoff: int) -> float:
    psi_full, psi_rwa, _ = FockOracle(p, cutoff).evolved_pair(InitialState("fock", n_a=n_a, n_b=n_b), t)
    return float(np.linalg.norm(psi_full.amplitudes - psi_rwa.amplitudes))


def bound_check(n_a: int, n_b: int, p: OscillatorParams, t: float, cutoff: int) -> BoundCheckResult:
    """Exact propagation distance against the analytic bound, on resonance.

    The distance is recomputed at double the cutoff; a shift beyond the
    certification tolerance means the truncation is too small.
    """
    if abs(p.omega_a - p.omega_b) > 1e-12:
        raise ValueError("the bound is derived on resonance")
    if p.g_bs != p.g_sq:
        raise ValueError("the bound compares equal couplings against their RWA")
    if 2 * cutoff > MAX_CUTOFF:
        raise ValueError(f"the certification doubles the cutoff, so it must be at most {MAX_CUTOFF // 2}")
    z_base = _propagation_distance(p, n_a, n_b, t, cutoff)
    z_doubled = _propagation_distance(p, n_a, n_b, t, 2 * cutoff)
    if abs(z_doubled - z_base) > BOUND_CERT_TOL:
        raise TruncationError(f"doubling the cutoff moves the distance by {abs(z_doubled - z_base):.3e}; raise the cutoff")
    z_max = fock_bound(n_a, n_b, p.g_bs, p.omega_a, t)
    return BoundCheckResult(z_exact=z_doubled, z_max=z_max, satisfied=z_doubled <= z_max)
