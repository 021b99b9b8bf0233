"""Brute-force ground truth in a number-truncated two-mode Fock space.

States live on the product basis |n_a, n_b> with 0 <= n <= cutoff.  No matrix
is built for the full H: `GridHamiltonian` applies it by shifted-slice
products, and only the initial vector is propagated, by a Chebyshev expansion
of exp(-i H dt) over the Gershgorin interval of H (Tal-Ezer & Kosloff,
J. Chem. Phys. 81, 3967 (1984)).  Every term with a Bessel factor J_k(b dt)
above double-precision roundoff is kept, so the propagation is unitary to
rounding (about 1e-14), not exactly.

Both couplings change n_a + n_b by 0 or 2 (a'b keeps it, a'b' raises it by
2), so H conserves its parity, and every initial state here (a Fock state,
the vacuum, the squeezed pair) lies in one parity sector.  Only that sector
is propagated, so a Chebyshev term touches half the basis; the other half
stays exactly zero, and `evolved_pair` returns it as zeros.

The RWA copy keeps only a'b + ab', which conserves N = n_a + n_b itself, so it
is solved, not propagated: `RwaBlocks` diagonalizes once each tridiagonal
block of fixed N that carries the initial state's weight (one block for the
vacuum or a Fock state), and reads the RWA state, its overlap with the full
state and its weight on the truncation boundary from that eigenbasis at any
time.  Its cost does not grow with the time span, and <N> under it keeps its
initial value exactly.  The number of Chebyshev terms grows as
(omega_a + omega_b) * cutoff * |time span|, and a request whose estimated
work exceeds WORK_BUDGET is refused before it starts.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
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
# Largest trajectory, in amplitude updates of one Chebyshev term (12 ns each on one core at
# cutoffs 4 to 96), so the budget is about a minute.  A term costs the sector's length plus
# TERM_OVERHEAD for the interpreter.  Diagonalizing the RWA blocks costs about EIGH_COST m^3
# per block of m rows (0.1-0.8 measured, m = 25 to 97); each time costs the sector's length
# plus PROJECTION_COST per entry of the padded block stack (5.2 fitted) plus TIME_OVERHEAD.
WORK_BUDGET = 4e9
TERM_OVERHEAD = 1200
EIGH_COST = 0.5
PROJECTION_COST = 5
TIME_OVERHEAD = 2000


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


def number_blocks(basis: FockBasis, psi: np.ndarray, parity: int) -> tuple[np.ndarray, np.ndarray]:
    """Occupations (n_a, n_b) of the blocks of fixed N = n_a + n_b that carry psi's weight.

    psi holds the amplitudes of the sector of the given parity.  One row per
    block, n_a rising from max(0, N - cutoff) to min(N, cutoff); rows are
    padded with -1 to the longest block.  Blocks whose weight is at most
    eps^2 / (number of blocks) are left out: together they hold at most eps^2,
    and U_RWA keeps the weight of each block, so the RWA state they omit has
    norm at most eps at every time.
    """
    c = basis.cutoff
    total = np.arange(parity, 2 * c + 1, 2)[:, None]
    n_a = np.maximum(total - c, 0) + np.arange(c + 1)
    valid = n_a <= np.minimum(total, c)
    n_a, n_b = np.where(valid, n_a, -1), np.where(valid, total - n_a, -1)
    weight = np.sum(np.abs(np.where(valid, psi[(n_a * basis.stride + n_b) // 2], 0.0)) ** 2, axis=1)
    kept = weight > np.finfo(float).eps ** 2 / len(weight)
    width = int(valid[kept].sum(axis=1).max())
    return n_a[kept, :width], n_b[kept, :width]


def _real_matmul(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Stacked real matrices (B, j, k) times complex vectors (B, k), as (B, j) complex.

    Both parts of z go through one real product: casting m to complex would
    copy it and double the arithmetic.
    """
    return np.matmul(m, np.ascontiguousarray(z).view(float).reshape(*z.shape, 2)).view(complex)[..., 0]


class RwaBlocks:
    """Exact RWA evolution of a sector state, block by block of the conserved N = n_a + n_b.

    H_RWA keeps n_a + n_b, so on the truncated basis it is a sum of
    tridiagonal blocks, one per N: diagonal omega_a n_a + omega_b n_b,
    off-diagonal g_bs sqrt((n_a + 1) n_b).  Each block that `number_blocks`
    keeps is diagonalized once, H_N = V_N diag(E_N) V_N^T, and then
    psi_rwa,N(t) = V_N e^(-i E_N t) c_N with c_N = V_N^T psi0,N at any t.  The blocks sit in
    one zero-padded (blocks, m, m) stack, so a time costs a few batched
    products, not a loop over blocks.
    """

    def __init__(self, p: OscillatorParams, basis: FockBasis, n_a: np.ndarray, n_b: np.ndarray, psi0: np.ndarray):
        """Blocks (n_a, n_b) from `number_blocks`; psi0 holds the sector amplitudes at t = 0."""
        self.valid = valid = n_a >= 0
        # padding reads sector position 0, always through a zero entry of V
        self.index = np.where(valid, (n_a * basis.stride + n_b) // 2, 0)
        sizes = valid.sum(axis=1)
        # each block is diagonalized about its mean energy, since eigh's error scales with
        # the norm it sees and E t reaches thousands of radians
        diagonal = np.where(valid, p.omega_a * n_a + p.omega_b * n_b, 0.0)
        mean = diagonal.sum(axis=1) / sizes
        rows = np.arange(n_a.shape[1])
        blocks = np.zeros(n_a.shape + rows.shape)
        blocks[:, rows, rows] = diagonal - mean[:, None]
        off = np.where(valid[:, 1:], p.g_bs * np.sqrt((n_a[:, :-1] + 1.0) * n_b[:, :-1]), 0.0)
        blocks[:, rows[1:], rows[:-1]] = blocks[:, rows[:-1], rows[1:]] = off
        self.energies = np.zeros(n_a.shape)
        vecs = np.zeros(blocks.shape)
        for b, size in enumerate(sizes):
            self.energies[b, :size], vecs[b, :size, :size] = np.linalg.eigh(blocks[b, :size, :size])
        self.energies += mean[:, None]
        self.vecs_t = np.ascontiguousarray(vecs.transpose(0, 2, 1))  # V^T, the hot product's operand
        self.c = _real_matmul(self.vecs_t, psi0[self.index])
        # rows on the truncation boundary, n_a = cutoff or n_b = cutoff, with their block
        self.edge_block, edge_row = np.nonzero(valid & (np.maximum(n_a, n_b) == basis.cutoff))
        self.edge_vecs = vecs[self.edge_block, edge_row]

    def coefficients(self, t: float) -> np.ndarray:
        """Eigenbasis amplitudes e^(-i E t) c at time t, zero in the padding."""
        return np.exp(-1j * (t * self.energies)) * self.c

    def overlap(self, coef: np.ndarray, psi: np.ndarray) -> complex:
        """<psi_rwa|psi> for the RWA state of eigenbasis amplitudes coef and sector amplitudes psi."""
        return complex(np.vdot(coef, _real_matmul(self.vecs_t, psi[self.index])))

    def boundary_weight(self, coef: np.ndarray) -> float:
        """Weight of the RWA state on the truncation boundary."""
        edge = np.einsum("km,km->k", self.edge_vecs, coef[self.edge_block])
        return float(np.sum(np.abs(edge) ** 2))

    def amplitudes(self, coef: np.ndarray, size: int) -> np.ndarray:
        """Sector amplitudes of the RWA state, exactly zero outside its blocks."""
        out = np.zeros(size, dtype=complex)
        out[self.index[self.valid]] = _real_matmul(self.vecs_t.transpose(0, 2, 1), coef)[self.valid]
        return out


class FockOracle:
    """Full propagation of one parameter set at a fixed cutoff, against its exact RWA copy."""

    def __init__(self, p: OscillatorParams, cutoff: int):
        self.params = p
        self.basis = FockBasis(cutoff)
        lo, hi = GridHamiltonian.build(p, self.basis, p.g_sq).spectral_bounds()
        self._centre, self._half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        # 2 (H - centre) / half: its Chebyshev recurrence is T_(k+1) = L T_k - T_(k-1)
        scale = 2.0 / self._half
        self._recurrences = tuple(
            GridHamiltonian((h.diagonal - self._centre) * scale, h.bs * scale, h.sq * scale)
            for h in (GridHamiltonian.build(p, self.basis, p.g_sq, parity) for parity in (0, 1))
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

    def _trajectory(self, psi0: np.ndarray, parity: int, ts) -> tuple[RwaBlocks, Iterator[np.ndarray]]:
        """psi0's RWA blocks, and its parity sector under the full H at each time of ts, stepped from t = 0.

        Raises ValueError, before any block is diagonalized or step taken, if
        the work is over WORK_BUDGET.
        """
        dts = np.diff(np.asarray(ts, dtype=float), prepend=0.0)
        x = self._half * np.abs(dts)
        psi = self.basis.sector(psi0, parity)
        n_a, n_b = number_blocks(self.basis, psi, parity)
        sizes = np.sum(n_a >= 0, axis=1)
        work = (
            (len(psi) + TERM_OVERHEAD) * float(np.sum(x + 16.0 * np.cbrt(x) + 40.0))
            + EIGH_COST * float(np.sum(sizes.astype(float) ** 3))
            + (len(psi) + PROJECTION_COST * n_a.size + TIME_OVERHEAD) * len(dts)
        )
        if not work <= WORK_BUDGET:
            msg = f"the oracle would need about {work:.3g} amplitude updates, over the budget of {WORK_BUDGET:.3g}"
            raise ValueError(f"{msg}; shorten the tau span or lower the cutoff")
        return RwaBlocks(self.params, self.basis, n_a, n_b, psi), self._states(psi, parity, dts)

    def _states(self, psi: np.ndarray, parity: int, dts: np.ndarray) -> Iterator[np.ndarray]:
        coeffs = {}  # one entry per distinct step: rounding leaves a linspace grid only a few
        for dt in dts:
            if dt not in coeffs:
                coeffs[dt] = chebyshev_coefficients(self._half * dt)
            self._recurrence = self._recurrences[parity]  # what _step applies, set per step: no sector leaks between trajectories
            psi = self._step(psi, dt, coeffs[dt])
            yield psi

    def evolved_pair(self, initial: InitialState, t: float) -> tuple[np.ndarray, np.ndarray, float]:
        """Amplitudes (full, rwa) on the basis at time t and the initial state's discarded weight."""
        psi0, discarded = initial_vector(self.basis, initial)
        parity = self.basis.parity(psi0)
        rwa, states = self._trajectory(psi0, parity, [t])
        (psi_full,) = states
        psi_rwa = rwa.amplitudes(rwa.coefficients(t), len(psi_full))
        return self.basis.from_sector(psi_full, parity), self.basis.from_sector(psi_rwa, parity), discarded

    def compare(self, initial: InitialState, ts) -> OraclePoint:
        """Oracle outputs over an array of times, or float fields for a scalar t."""
        psi0, tail = initial_vector(self.basis, initial)
        parity = self.basis.parity(psi0)
        mask, n = (self.basis.sector(v, parity) for v in (self.basis.boundary_mask, self.basis.number_vector))
        times = np.asarray(ts, dtype=float)
        fid, d_n = np.empty(times.shape), np.empty(times.shape)
        rwa, states = self._trajectory(psi0, parity, times.reshape(-1))
        # H_RWA commutes with N, so <N> keeps its initial value exactly, truncation included;
        # summed as the full side is, so that delta_n is exactly 0 at t = 0
        psi = self.basis.sector(psi0, parity)
        n_rwa = np.real(np.vdot(psi, n * psi))
        for i, (t, psi_full) in enumerate(zip(times.flat, states)):
            coef = rwa.coefficients(t)
            tail = max(tail, float(np.sum(np.abs(psi_full[mask]) ** 2)), rwa.boundary_weight(coef))
            if tail > TAIL_TOL:
                raise TruncationError(f"truncation tail {tail:.3e} exceeds {TAIL_TOL} at cutoff {self.basis.cutoff}")
            fid.flat[i] = abs(rwa.overlap(coef, psi_full)) ** 2
            d_n.flat[i] = np.real(np.vdot(psi_full, n * psi_full)) - n_rwa
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
    z_max = fock_bound(n_a, n_b, p.g_bs, p.omega_a, t)
    if p.g_sq == 0.0:
        # equal couplings, so H is its own RWA and U = U_RWA exactly; the two
        # propagation routes would disagree by rounding
        return BoundCheckResult(z_exact=0.0, z_max=z_max, satisfied=True)
    z_base = _propagation_distance(p, n_a, n_b, t, cutoff)
    z_doubled = _propagation_distance(p, n_a, n_b, t, 2 * cutoff)
    if abs(z_doubled - z_base) > BOUND_CERT_TOL:
        raise TruncationError(f"doubling the cutoff moves the distance by {abs(z_doubled - z_base):.3e}; raise the cutoff")
    return BoundCheckResult(z_exact=z_doubled, z_max=z_max, satisfied=z_doubled <= z_max)
