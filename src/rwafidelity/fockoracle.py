"""Brute-force ground truth in a number-truncated two-mode Fock space.

States live on the product basis |n_a, n_b> with 0 <= n <= cutoff.  No matrix
is built: `GridHamiltonian` applies H by shifted-slice products, and only the
initial vector is propagated, by a Chebyshev expansion of exp(-i H dt) over the
Gershgorin interval of H (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)).
Every term with a Bessel factor J_k(b dt) above double-precision roundoff is
kept, so the propagation is unitary to rounding (about 1e-14), not exactly.

Both couplings change n_a + n_b by 0 or 2 (a'b keeps it, a'b' raises it by
2), so the full H and its RWA copy conserve its parity, and every initial
state here (a Fock state, the vacuum, the squeezed pair) lies in one parity
sector.  Only that sector is propagated, so a Chebyshev term touches half the
basis; the other half stays exactly zero, and `evolved_pair` returns it as
zeros.  The number of terms grows as (omega_a + omega_b) * cutoff * |time
span|, and a request whose estimated work exceeds WORK_BUDGET is refused
before it starts.
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
# Largest trajectory, in amplitude updates: a Chebyshev term costs the stacked length (twice
# the sector's) plus TERM_OVERHEAD for the interpreter.  At cutoffs 1 to 96 one update took
# 11-13 ns on one core, so the budget is about a minute.
WORK_BUDGET = 4e9
TERM_OVERHEAD = 1200


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

    @property
    def stride(self) -> int:
        """Odd row stride of the sector layout: cutoff + 1, or cutoff + 2 past a dead column n_b = cutoff + 1."""
        return self.cutoff + 1 + self.cutoff % 2

    def parity(self, amplitudes: np.ndarray) -> int:
        """Parity of n_a + n_b shared by every nonzero amplitude."""
        occupied = self.number_vector[np.flatnonzero(amplitudes)] % 2
        if not occupied.size or np.any(occupied != occupied[0]):
            raise ValueError("the amplitudes do not lie in one parity sector of n_a + n_b")
        return int(occupied[0])

    def sector(self, values: np.ndarray, parity: int) -> np.ndarray:
        """Entries of a basis array with n_a + n_b of the given parity, in sector order.

        Laid out with row stride `stride`, the flat index n_a stride + n_b has the
        parity of n_a + n_b, so the sector is every second entry; the dead column
        is zero (False for a mask).
        """
        c = self.cutoff
        grid = np.zeros((c + 1, self.stride), dtype=values.dtype)
        grid[:, : c + 1] = values.reshape(c + 1, c + 1)
        return grid.ravel()[parity::2].copy()

    def from_sector(self, values: np.ndarray, parity: int) -> np.ndarray:
        """The basis array of sector entries, exactly zero off the sector."""
        c = self.cutoff
        grid = np.zeros((c + 1) * self.stride, dtype=values.dtype)
        grid[parity::2] = values
        return grid.reshape(c + 1, self.stride)[:, : c + 1].ravel()


@dataclass(frozen=True, eq=False)
class GridHamiltonian:
    """H = wa n_a + wb n_b + g_bs (a'b + ab') + g_sq (a'b' + ab) on flat amplitudes.

    Copies of the basis, or of one parity sector, are stacked end to end.  A
    coupling links k to k + d through weights H[k + d, k] that are zero where
    the shift leaves the grid; d is the number of entries the weights lack.  On
    the basis (index n_a (cutoff+1) + n_b) d is cutoff for a'b and cutoff + 2
    for a'b'; on a sector (FockBasis.sector) they are (stride - 1) / 2 and
    (stride + 1) / 2.
    """

    diagonal: np.ndarray  # H[k, k]
    bs: np.ndarray  # H[k + d, k] of a'b
    sq: np.ndarray  # H[k + d, k] of a'b'

    @classmethod
    def build(cls, p: OscillatorParams, basis: FockBasis, g_sq, parity: int | None = None) -> "GridHamiltonian":
        """One copy of H per entry of g_sq, in place of p.g_sq; g_sq = 0 is the RWA.

        On the whole basis, or on the sector of the given parity of n_a + n_b.
        """
        c, g_sq = basis.cutoff, np.atleast_1d(g_sq)
        n_a, n_b = basis.occupations(np.arange(basis.dim))
        up = np.sqrt(n_a + 1.0) * (n_a < c)
        diagonal = p.omega_a * n_a + p.omega_b * n_b
        bs, sq = p.g_bs * up * np.sqrt(n_b), up * np.sqrt(n_b + 1.0) * (n_b < c)
        d_bs, d_sq = c, c + 2
        if parity is not None:
            diagonal, bs, sq = (basis.sector(v, parity) for v in (diagonal, bs, sq))
            d_bs, d_sq = basis.stride // 2, basis.stride // 2 + 1
        return cls(np.tile(diagonal, len(g_sq)), np.tile(bs, len(g_sq))[:-d_bs], np.multiply.outer(g_sq, sq).ravel()[:-d_sq])

    def __call__(self, psi: np.ndarray) -> np.ndarray:
        dtype = np.result_type(self.diagonal, psi)
        buffers = (psi, np.empty(psi.shape, dtype), np.empty(psi.shape, dtype))
        return self._apply(*map(self._shifted, buffers))

    def _shifted(self, buf: np.ndarray) -> tuple:
        """buf with its (buf[..., d:], buf[..., :-d]) views for each coupling shift d, for _apply."""
        return buf, tuple((buf[..., d:], buf[..., :-d]) for d in (len(self.diagonal) - len(w) for w in (self.bs, self.sq)))

    def _apply(self, psi: tuple, out: tuple, work: tuple) -> np.ndarray:
        """H psi written into out, with work as scratch, all `_shifted` buffers alike; allocates nothing."""
        (psi, psi_at), (out, out_at), (_, work_at) = psi, out, work
        np.multiply(self.diagonal, psi, out=out)
        for w, (psi_hi, psi_lo), (out_hi, out_lo), (part, _) in zip((self.bs, self.sq), psi_at, out_at, work_at):
            np.multiply(w, psi_lo, out=part)
            np.add(out_hi, part, out=out_hi)
            np.multiply(w, psi_hi, out=part)
            np.add(out_lo, part, out=out_lo)
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


def fock_vector(basis: FockBasis, n_a: int, n_b: int) -> np.ndarray:
    amp = np.zeros(basis.dim, dtype=complex)
    amp[basis.index(n_a, n_b)] = 1.0
    return amp


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


def squeezed_vector(basis: FockBasis, s: float) -> tuple[np.ndarray, float]:
    """Amplitudes of the truncated squeezed-pair state and the discarded weight before renormalization."""
    mode = squeezed_mode_amplitudes(s, basis.cutoff)
    amp = np.kron(mode, mode).astype(complex)
    weight = float(np.sum(np.abs(amp) ** 2))
    discarded = 1.0 - weight
    if discarded > TAIL_TOL:
        raise TruncationError(f"initial squeezed state loses weight {discarded:.3e} at cutoff {basis.cutoff}")
    amp /= math.sqrt(weight)
    return amp, discarded


def initial_vector(basis: FockBasis, initial: InitialState) -> tuple[np.ndarray, float]:
    """Amplitudes of the initial state and their discarded weight; the vacuum is |0, 0>."""
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
        self._recurrences = tuple(
            GridHamiltonian((h.diagonal - self._centre) * scale, h.bs * scale, h.sq * scale)
            for h in (GridHamiltonian.build(p, self.basis, (p.g_sq, 0.0), parity) for parity in (0, 1))
        )

    def _step(self, psi: np.ndarray, dt: float, coeffs: np.ndarray) -> np.ndarray:
        # The recurrence cycles through four fixed buffers (prev starts as a
        # copy, since its buffer is reused), whose shifted views are built here
        # once, not on every term.  With fresh temporaries on every term its
        # speed hung on the state of the heap: a cutoff-80 oracle-check ran
        # 15-50% slower after an unrelated change in what else was allocated.
        # coeffs is shared between steps, so it is only read.
        h = self._recurrence
        out = coeffs[0] * psi
        prev, cur, spare, work = map(h._shifted, (psi.copy(), np.empty_like(psi), np.empty_like(psi), np.empty_like(psi)))
        h._apply(prev, cur, work)
        np.multiply(cur[0], 0.5, out=cur[0])
        for k, c in enumerate(coeffs[1:]):
            if k:
                h._apply(cur, spare, work)
                np.subtract(spare[0], prev[0], out=spare[0])
                prev, cur, spare = cur, spare, prev
            np.multiply(c, cur[0], out=work[0])
            np.add(out, work[0], out=out)
        return np.exp(-1j * self._centre * dt) * out

    def _trajectory(self, psi0: np.ndarray, parity: int, ts):
        """(2, sector length) rows (full, rwa) of psi0's parity sector at each time of ts, stepped from t = 0.

        Raises ValueError before the first step if the work is over WORK_BUDGET.
        """
        dts = np.diff(np.asarray(ts, dtype=float), prepend=0.0)
        x = self._half * np.abs(dts)
        pair = np.tile(self.basis.sector(psi0, parity), 2)
        work = (len(pair) + TERM_OVERHEAD) * float(np.sum(x + 16.0 * np.cbrt(x) + 40.0))
        if not work <= WORK_BUDGET:
            msg = f"the oracle would need about {work:.3g} amplitude updates, over the budget of {WORK_BUDGET:.3g}"
            raise ValueError(f"{msg}; shorten the tau span or lower the cutoff")
        coeffs = {}  # one entry per distinct step: rounding leaves a linspace grid only a few
        for dt in dts:
            if dt not in coeffs:
                coeffs[dt] = chebyshev_coefficients(self._half * dt)
            self._recurrence = self._recurrences[parity]  # what _step applies, set per step: no sector leaks between trajectories
            pair = self._step(pair, dt, coeffs[dt])
            yield pair.reshape(2, -1)

    def evolved_pair(self, initial: InitialState, t: float) -> tuple[np.ndarray, np.ndarray, float]:
        """Amplitudes (full, rwa) on the basis at time t and the initial state's discarded weight."""
        psi0, discarded = initial_vector(self.basis, initial)
        parity = self.basis.parity(psi0)
        ((psi_full, psi_rwa),) = self._trajectory(psi0, parity, [t])
        return self.basis.from_sector(psi_full, parity), self.basis.from_sector(psi_rwa, parity), discarded

    def compare(self, initial: InitialState, ts) -> OraclePoint:
        """Oracle outputs over an array of times, or float fields for a scalar t."""
        psi0, tail = initial_vector(self.basis, initial)
        parity = self.basis.parity(psi0)
        mask, n = (self.basis.sector(v, parity) for v in (self.basis.boundary_mask, self.basis.number_vector))
        times = np.asarray(ts, dtype=float)
        fid, d_n = np.empty(times.shape), np.empty(times.shape)
        for i, (psi_full, psi_rwa) in enumerate(self._trajectory(psi0, parity, times.reshape(-1))):
            tail = max(tail, *(float(np.sum(np.abs(v[mask]) ** 2)) for v in (psi_full, psi_rwa)))
            if tail > TAIL_TOL:
                raise TruncationError(f"truncation tail {tail:.3e} exceeds {TAIL_TOL} at cutoff {self.basis.cutoff}")
            fid.flat[i] = abs(np.vdot(psi_rwa, psi_full)) ** 2
            d_n.flat[i] = np.real(np.vdot(psi_full, n * psi_full)) - np.real(np.vdot(psi_rwa, n * psi_rwa))
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
    return float(np.linalg.norm(psi_full - psi_rwa))


def bound_check(n_a: int, n_b: int, p: OscillatorParams, t: float, cutoff: int) -> BoundCheckResult:
    """Exact propagation distance against the analytic bound, on resonance.

    The distance is recomputed at double the cutoff; a shift beyond the
    certification tolerance means the truncation is too small.
    """
    if not p.resonant:
        raise ValueError("the bound is derived on resonance")
    if not p.equal_couplings:
        raise ValueError("the bound compares equal couplings against their RWA")
    if 2 * cutoff > MAX_CUTOFF:
        raise ValueError(f"the certification doubles the cutoff, so it must be at most {MAX_CUTOFF // 2}")
    z_base = _propagation_distance(p, n_a, n_b, t, cutoff)
    z_doubled = _propagation_distance(p, n_a, n_b, t, 2 * cutoff)
    if abs(z_doubled - z_base) > BOUND_CERT_TOL:
        raise TruncationError(f"doubling the cutoff moves the distance by {abs(z_doubled - z_base):.3e}; raise the cutoff")
    z_max = fock_bound(n_a, n_b, p.g_bs, p.omega_a, t)
    return BoundCheckResult(z_exact=z_doubled, z_max=z_max, satisfied=z_doubled <= z_max)
