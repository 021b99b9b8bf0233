"""Brute-force ground truth in a number-truncated two-mode Fock space.

States live on the product basis |n_a, n_b> with 0 <= n <= cutoff.  No matrix
is built for the full H: `GridHamiltonian` applies it by shifted-slice
products, and only the initial vector is propagated, by a Chebyshev expansion
of exp(-i H dt) over the Gershgorin interval of H (Tal-Ezer & Kosloff,
J. Chem. Phys. 81, 3967 (1984)).  Every term with a Bessel factor J_k(b dt)
above double-precision roundoff is kept, so the propagation is unitary to
rounding (about 1e-14), not exactly.  That set-up, each parity sector's H and
their Gershgorin interval, is built on an oracle's first propagation.

The requested times are sorted and cut into windows.  One series is expanded
per window, from t = 0 for the first and from the last time of the window
before for the others: its terms T_k psi are formed once, CHUNK at a time, and
each chunk is summed into the states of the window's times whose series still
runs, by one matrix product per parity of k and per CHUNK // 2 times.  A window
takes times while their states, RWA eigenbasis amplitudes and coefficients fit
in WINDOW amplitudes, so a fine grid pays the series' fixed tail of terms once
per window.  The first window runs on a real state, a later one on its complex
state's (real, imaginary) float pairs under a copy of H with each weight
repeated.  A run of windows takes its coefficients from one Miller recurrence,
and a window's RWA phases are rotations by its few distinct time steps.

Both couplings change n_a + n_b by 0 or 2 (a'b keeps it, a'b' raises it by
2), so H conserves its parity, and every initial state here (a Fock state,
the vacuum, the squeezed pair) lies in one parity sector.  Amplitudes live on
that sector alone (`FockBasis`), so a Chebyshev term touches half the basis,
and `evolved_pair` returns sector amplitudes.

The RWA copy keeps only a'b + ab', which conserves N = n_a + n_b itself, so it
is solved, not propagated: `RwaBlocks` diagonalizes once each tridiagonal
block of fixed N that carries the initial state's weight (one block for the
vacuum or a Fock state), holds each at its own size, and forms the RWA state
on the kept entries from that eigenbasis at all the times of a window at once.
Its overlap with the full state and its weight on the truncation boundary are
read from that state.  Its cost does not grow with the time span, and <N>
under it keeps its initial value exactly.  The tails and <N> of the full side
are summed over the window's states, which become their densities in place.
The truncation tail is checked at every time, and a `TruncationError` names
the first time it fails.  The number of Chebyshev terms grows as (omega_a +
omega_b) * cutoff * |time span|.  The work is estimated from the window plan
alone, as each window's term bound times (sector length + TERM_OVERHEAD) plus
one row of the plan per time, and `check_work` refuses a request over
WORK_BUDGET before any block is diagonalized or coefficient built.

At exact resonance, omega_a = omega_b, `compare` builds and propagates nothing
for the vacuum or the squeezed pair: the normal modes (a +- b) / sqrt(2)
separate, the input is one single-mode state in each, and each mode's full H on
the even occupations of a box of 2 cutoff is one tridiagonal block that
`RwaBlocks` diagonalizes once (`FockOracle._factors`).  The tails and <N> are
read from the densities of the lab-frame states, and the RWA phases enter only
the overlap.  That work, about len(ts) times (cutoff + 1)^2 per mode, does not
grow with the time span; `check_work` refuses it over WORK_BUDGET as well.  On
either route `FockOracle._admit` first refuses every time whose phases E t may
round by over PHASE_TOL; a `PhaseError` names the first and the reach of |t|.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dynamics import OscillatorParams, read_times
from .states import InitialState

__all__ = [
    "TruncationError",
    "PhaseError",
    "FockBasis",
    "GridHamiltonian",
    "chebyshev_coefficients",
    "initial_vector",
    "FockOracle",
    "OraclePoint",
    "fock_bound",
    "bound_check",
    "BoundCheckResult",
    "TAIL_TOL",
]

TAIL_TOL = 1e-8
BOUND_CERT_TOL = 1e-6
# Largest trajectory, in updates of the window plan: each window's term bound times the sector's length plus
# TERM_OVERHEAD (a term's interpreter cost), and each time's row of `_windows`.  A `compare` took 2.2-4.9 ns
# per update at cutoffs 1 to 96 (2-vCPU VM, one BLAS thread), and 2.4 times that at 360, so the budget is at
# most about 20 s, or 50 s at 360.  A window holds at most WINDOW amplitudes of states, RWA eigenbasis
# amplitudes and coefficients, and a cutoff is admitted while one state of its parity sector fits (to 360);
# terms are formed CHUNK at a time in a buffer of CHUNK + 2 rows, and summed CHUNK // 2 states at a time.
WORK_BUDGET = 4e9
# Largest rounding, in rad, of a phase E t that the oracle admits: a tenth of criterion 4's 1e-5 (`FockOracle._admit`).
PHASE_TOL = 1e-6
TERM_OVERHEAD = 800
WINDOW = 2**16
CHUNK = 32


class TruncationError(RuntimeError):
    """Raised when the cutoff is too small; a check over times names the first that fails, `at`, and its flat `index`."""

    def __init__(self, reason: str, index: int | None = None, at: str = ""):
        super().__init__(f"{reason} (first at {at})" if at else reason)
        self.reason, self.index = reason, index

    def in_units(self, name: str, times: np.ndarray, scale: float) -> "TruncationError":
        """The same error naming its time times[index], from a grid called name whose values are scale times the oracle's t."""
        return TruncationError(self.reason, self.index, f"{name} = {times[self.index]:.6g}")


class PhaseError(ValueError):
    """Raised for times whose phases E t may round by over PHASE_TOL; names the reach of |t| and the first, at flat `index`."""

    def __init__(self, reach: float, index: int, at: float, name: str = "t"):
        super().__init__(f"the oracle resolves its phases E t to {PHASE_TOL:g} rad only for |{name}| <= {reach:.3g}; first refused {name} = {at:.6g}")
        self.reach, self.index = reach, index

    def in_units(self, name: str, times: np.ndarray, scale: float) -> "PhaseError":
        """As `TruncationError.in_units`, with the reach in the grid's unit too."""
        return PhaseError(self.reach * scale, self.index, times[self.index], name)


@dataclass(frozen=True)
class FockBasis:
    """The parity sectors of the two-mode number basis truncated at a per-mode occupation cutoff.

    Laid out with an odd row stride, cutoff + 1 or cutoff + 2 past a dead
    column n_b = cutoff + 1, the flat index n_a stride + n_b has the parity of
    n_a + n_b, so a sector is every second entry of that grid, dead column
    included.  The dead column holds no state, and every weight on it is zero.
    """

    cutoff: int

    def __post_init__(self):
        if isinstance(self.cutoff, bool) or not isinstance(self.cutoff, (int, np.integer)):
            raise ValueError(f"cutoff must be an integer, got {self.cutoff!r}")
        object.__setattr__(self, "cutoff", int(self.cutoff))  # so that the sector's size cannot wrap
        if not (1 <= self.cutoff and (self.cutoff + 1) * self.stride <= 2 * WINDOW):
            raise ValueError(f"cutoff must be at least 1 with a parity sector of at most WINDOW = {WINDOW} amplitudes, got {self.cutoff}")

    @property
    def stride(self) -> int:
        return self.cutoff + 1 + self.cutoff % 2

    def occupations(self, parity: int) -> tuple[np.ndarray, np.ndarray]:
        """(n_a, n_b) of each entry of the sector of the given parity of n_a + n_b; n_b = cutoff + 1 on the dead column."""
        return divmod(np.arange(parity, (self.cutoff + 1) * self.stride, 2), self.stride)

    def position(self, n_a, n_b):
        """Entry of (n_a, n_b) in its sector, or an array of them."""
        return (n_a * self.stride + n_b) // 2


@dataclass(frozen=True, eq=False)
class GridHamiltonian:
    """H = wa n_a + wb n_b + g_bs (a'b + ab') + g_sq (a'b' + ab) on the amplitudes of a parity sector.

    A coupling links k to k + d through weights H[k + d, k] that are zero
    where the shift leaves the grid; d is the number of entries the weights
    lack, (stride - 1) / 2 for a'b and (stride + 1) / 2 for a'b'.
    """

    diagonal: np.ndarray  # H[k, k]
    bs: np.ndarray  # H[k + d, k] of a'b
    sq: np.ndarray  # H[k + d, k] of a'b'

    @classmethod
    def build(cls, p: OscillatorParams, basis: FockBasis, parity: int) -> "GridHamiltonian":
        """H of p on the sector of the given parity of n_a + n_b; p with g_sq = 0 gives the RWA."""
        c = basis.cutoff
        n_a, n_b = basis.occupations(parity)
        up = np.sqrt(n_a + 1.0) * (n_a < c)
        weights = p.omega_a * n_a + p.omega_b * n_b, p.g_bs * up * np.sqrt(n_b), p.g_sq * (up * np.sqrt(n_b + 1.0) * (n_b < c))
        diagonal, bs, sq = (np.where(n_b <= c, w, 0.0) for w in weights)  # zero on the dead column
        return cls(diagonal, bs[: -(basis.stride // 2)], sq[: -(basis.stride // 2 + 1)])

    def __call__(self, psi: np.ndarray) -> np.ndarray:
        dtype = np.result_type(self.diagonal, psi)
        return self._apply(*self._shifted(psi, np.empty(psi.shape, dtype), np.empty(psi.shape, dtype)))

    def _shifted(self, psi: np.ndarray, out: np.ndarray, work: np.ndarray) -> tuple:
        """_apply's arguments for out = H psi with scratch work: per coupling shift d, its weights and psi[d:], psi[:-d], out[d:], out[:-d], work[d:]."""
        shifts = ((w, len(self.diagonal) - len(w)) for w in (self.bs, self.sq))
        return psi, out, tuple((w, psi[..., d:], psi[..., :-d], out[..., d:], out[..., :-d], work[..., d:]) for w, d in shifts)

    def _apply(self, psi: np.ndarray, out: np.ndarray, couplings: tuple) -> np.ndarray:
        """H psi written into out through the views of `_shifted`; allocates nothing."""
        np.multiply(self.diagonal, psi, out=out)
        for w, psi_hi, psi_lo, out_hi, out_lo, part in couplings:
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


def chebyshev_terms(ax):
    """Miller's starting index floor(|x| + 16 |x|^(1/3)) + 40, well past the turning point k = |x|: a bound on the terms kept.

    A float, so that the bound of a huge |x| cannot wrap as an integer would."""
    return np.floor(ax + 16.0 * np.cbrt(ax)) + 40.0


def chebyshev_coefficients(x) -> tuple[np.ndarray, np.ndarray]:
    """Real b_k and kept lengths of a_k with exp(-i x y) = sum_k a_k T_k(y) on [-1, 1], cut where |J_k(x)| drops below eps.

    a_k = (2 - delta_k0) (-i sign x)^k J_k(|x|) is b_k for even k and i b_k for
    odd k.  b[0] holds the even k and b[1] the odd k, a row per entry of x each;
    an entry keeps the terms up to one past its last |J_k| >= eps, its length,
    and is zero past them.  J_k(|x|) comes from Miller's backward recurrence
    J_(k-1) = (2k/|x|) J_k - J_(k+1), each entry started at its own
    `chebyshev_terms` from 2^-900, so that it cannot overflow, and normalized by
    J_0 + 2 sum_k J_2k = 1.  Below |x| = 2^-26, J_0 = 1 and J_1 = |x|/2 to
    double precision and J_2 < eps: those are set directly.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x).ravel()
    small = ax < 2.0**-26
    # a small column starts at k = 0, which the recurrence never reaches, and steps by 0: it stays zero
    tops = np.where(small, 0.0, chebyshev_terms(ax)).astype(int)
    starts = {}
    for col, top in enumerate(tops.tolist()):
        starts.setdefault(top, []).append(col)
    j = np.zeros((int(tops.max(initial=1)) + 2, ax.size))
    # lists of row views: indexing a list is cheaper than slicing the array in this loop
    rows, ratios = list(j), list(np.multiply.outer(np.arange(len(j)), 2.0 / np.where(small, np.inf, ax)))
    for k in range(len(j) - 2, 0, -1):
        if k in starts:
            rows[k][starts[k]] = 2.0**-900
        np.multiply(ratios[k], rows[k], out=rows[k - 1])
        np.subtract(rows[k - 1], rows[k + 1], out=rows[k - 1])
    del rows, ratios  # before the table, which would otherwise sit on top of them
    # a running sum adds each column in order whatever the table's width (np.sum adds a lone
    # column pairwise), so a column's normalization is the one it would have in a table alone
    j /= np.where(small, 1.0, j[0] + 2.0 * np.cumsum(j[2::2], axis=0)[-1])
    j[0, small], j[1, small] = 1.0, 0.5 * ax[small]
    eps = np.finfo(float).eps
    kept = len(j) - np.argmax(((j >= eps) | (j <= -eps))[::-1], axis=0)
    k, j = np.arange(kept.max()), j[: kept.max()]
    np.copyto(j, 0.0, where=k[:, None] >= kept)
    # (2 - delta_k0) (-1)^floor(k/2), exact factors: (-i)^k is that sign at even k and -i times it at odd k
    signs = np.where(k % 4 < 2, 2.0, -2.0) - (k == 0)
    b = np.zeros((2, ax.size, (len(j) + 1) // 2))  # an odd length leaves the odd half's last column 0
    np.multiply(j[0::2], signs[0::2, None], out=b[0].T)
    np.multiply(j[1::2], -signs[1::2, None] * np.sign(x).ravel(), out=b[1].T[: len(j) // 2])
    return b.reshape((2,) + x.shape + b.shape[-1:]), kept.reshape(x.shape)


def squeezed_mode_amplitudes(s: float, cutoff: int) -> np.ndarray:
    """Number-basis amplitudes of a single squeezed mode with +sinh(s) pair moment.

    Matches the factor of states.squeezed_pair, beta0 = sinh(s) I: <a^2> = sinh(2s)/2,
    so the even amplitudes carry (+tanh s)^(k/2).
    """
    amp, k = np.zeros(cutoff + 1), np.arange(2, cutoff + 1, 2)
    # a running product amp[k] = amp[k - 2] tanh(s) sqrt((k - 1) / k), since sqrt(k!) overflows a double from k = 171
    amp[::2] = np.cumprod(np.concatenate(([1.0 / math.sqrt(math.cosh(s))], math.tanh(s) * np.sqrt((k - 1.0) / k))))
    return amp


def squeezed_mode(s: float, cutoff: int, box: int) -> tuple[np.ndarray, float]:
    """A squeezed mode's amplitudes on occupations 0 to box, normalized, and a pair's discarded weight, refused over TAIL_TOL."""
    mode = squeezed_mode_amplitudes(s, box)
    weight = float(np.sum(mode[::2] ** 2))  # kept by each mode, so that the pair keeps its square
    discarded = 1.0 - weight**2
    if discarded > TAIL_TOL:
        raise TruncationError(f"initial squeezed state loses weight {discarded:.3e} at cutoff {cutoff}")
    return mode / math.sqrt(weight), discarded


def initial_vector(basis: FockBasis, initial: InitialState) -> tuple[np.ndarray, float]:
    """Amplitudes of the initial state on its sector, of parity n_a + n_b, as a product of one-mode states, and their discarded weight."""
    c = basis.cutoff
    if max(initial.n_a, initial.n_b) > c:
        raise ValueError(f"occupation ({initial.n_a}, {initial.n_b}) outside cutoff {c}")
    modes, discarded = np.eye(c + 2)[[initial.n_a, initial.n_b]], 0.0  # zero on the dead column n_b = cutoff + 1
    if initial.kind == "squeezed":
        modes[:, :-1], discarded = squeezed_mode(initial.s, c, c)
    n_a, n_b = basis.occupations((initial.n_a + initial.n_b) % 2)
    return modes[0, n_a] * modes[1, n_b], discarded


def check_work(work: float, advice: str) -> None:
    """Refuse, with a ValueError that ends in advice, work over WORK_BUDGET amplitude updates; a nan or inf estimate fails too."""
    if not work <= WORK_BUDGET:
        raise ValueError(f"the oracle would need about {work:.3g} amplitude updates, over the budget of {WORK_BUDGET:.3g}; {advice}")


@dataclass(frozen=True)
class OraclePoint:
    """Oracle outputs at one time or over a grid: overlap fidelity, excitation surplus, worst tail."""

    fidelity: float | np.ndarray
    delta_n: float | np.ndarray
    tail_weight: float


def number_blocks(basis: FockBasis, psi: np.ndarray, parity: int) -> tuple[np.ndarray, np.ndarray]:
    """Occupations (n_a, n_b) of the entries of the blocks of fixed N = n_a + n_b that carry psi's weight.

    psi holds the amplitudes of the sector of the given parity.  Each kept block holds its own entries, n_a rising
    from max(0, N - cutoff) to min(N, cutoff), and the blocks follow one another in ascending N.  Blocks whose
    weight is at most eps^2 / (number of blocks) are left out: together they hold at most eps^2, and U_RWA keeps
    the weight of each block, so the RWA state they omit has norm at most eps at every time.
    """
    c = basis.cutoff
    total = np.arange(parity, 2 * c + 1, 2)[:, None]
    n_a = np.maximum(total - c, 0) + np.arange(c + 1)
    valid = n_a <= np.minimum(total, c)
    n_a, n_b = np.where(valid, n_a, 0), np.where(valid, total - n_a, 0)
    weight = np.sum(np.abs(np.where(valid, psi[basis.position(n_a, n_b)], 0.0)) ** 2, axis=1)
    kept = valid & (weight > np.finfo(float).eps ** 2 / len(weight))[:, None]
    return n_a[kept], n_b[kept]


class RwaBlocks:
    """Exact evolution of a state under a sum of real tridiagonal blocks, each diagonalized once.

    H_RWA keeps n_a + n_b, so on the truncated basis it is a sum of tridiagonal blocks, one per N: diagonal
    omega_a n_a + omega_b n_b, off-diagonal g_bs sqrt((n_a + 1) n_b).  At exact resonance the full H of each
    normal-mode factor is one such block (`FockOracle._factors`).  Each block is diagonalized once,
    H_N = V_N diag(E_N) V_N^T, and then psi_N(t) = V_N e^(-i E_N t) c_N with c_N = V_N^T psi0,N at any t.  The
    energies and eigenbasis amplitudes are flat over the kept entries, with no padding, and the times of a window
    are their trailing axis: `amplitudes` forms the state on the kept entries by one product per block, written
    over the eigenbasis amplitudes, and every reader of the state takes it from there.
    """

    def __init__(self, diagonal: np.ndarray, off: np.ndarray, total: np.ndarray, index: np.ndarray, psi0: np.ndarray):
        """Blocks of the consecutive entries of equal total, of diagonal and off[j] between entries j and j + 1.

        psi0[index] holds the entries' amplitudes at t = 0.
        """
        self.index = index
        starts = np.flatnonzero(np.diff(total, prepend=-1)).tolist()
        self.bounds = list(zip(starts, starts[1:] + [len(total)]))
        self.energies, self.c, self.vecs_t = np.empty(len(total)), np.empty(len(total)), []
        for s, e in self.bounds:
            # each block is diagonalized about its mean energy, since eigh's error scales with
            # the norm it sees and E t reaches thousands of radians
            mean = np.mean(diagonal[s:e])
            energies, vecs = np.linalg.eigh(np.diag(diagonal[s:e] - mean) + np.diag(off[s : e - 1], -1), UPLO="L")
            self.energies[s:e] = energies + mean
            self.vecs_t.append(np.ascontiguousarray(vecs.T))  # V^T, whose transpose forms the state
            self.c[s:e] = self.vecs_t[-1] @ psi0[self.index[s:e]]

    def coefficients(self, ts: np.ndarray) -> np.ndarray:
        """Eigenbasis amplitudes e^(-i E t) c, one row per kept entry and one column per time.

        Formed at the first time and once per distinct step, then a running product of those
        rotations, whose error grows with the number of times a window bounds.
        """
        steps, which = np.unique(np.diff(ts), return_inverse=True)
        rotation = np.exp(-1j * np.multiply.outer(self.energies, np.concatenate((ts[:1], steps))))
        coef = np.take(rotation, np.concatenate(([0], 1 + which)), axis=1)
        coef[:, 0] *= self.c
        return np.cumprod(coef, axis=1, out=coef)

    def amplitudes(self, coef: np.ndarray) -> np.ndarray:
        """The state's amplitudes on the kept entries, psi[index], one column per column of coef, written over coef."""
        # both parts go through one real product per block, times side by side on the trailing axis
        rows = coef.view(float)
        for (s, e), vecs_t in zip(self.bounds, self.vecs_t):
            rows[s:e] = vecs_t.T @ rows[s:e]
        return coef


class FockOracle:
    """Full propagation of one parameter set at a fixed cutoff, against its exact RWA copy."""

    def __init__(self, p: OscillatorParams, cutoff: int):
        self.params = p
        self.basis = FockBasis(cutoff)

    @functools.cached_property
    def _chebyshev(self) -> tuple[float, float, list]:
        """Centre and half-width of H's Gershgorin interval and each sector's recurrence operators, built on first use."""
        sectors = [GridHamiltonian.build(self.params, self.basis, parity) for parity in (0, 1)]
        # every row of H is a row of one sector, so these are the whole basis's Gershgorin bounds
        lo, hi = zip(*(h.spectral_bounds() for h in sectors))
        centre, half = 0.5 * (max(hi) + min(lo)), 0.5 * (max(hi) - min(lo))
        # per sector, L = 2 (H - centre) / half for T_(k+1) = L T_k - T_(k-1): on real amplitudes, and with
        # each weight repeated (so `_shifted` doubles each shift) on complex ones as (real, imaginary) float pairs
        weights = [[w * (2.0 / half) for w in (h.diagonal - centre, h.bs, h.sq)] for h in sectors]
        return centre, half, [(GridHamiltonian(*w), GridHamiltonian(*(np.repeat(x, 2) for x in w))) for w in weights]

    def _windows(self, ts: np.ndarray, size: int) -> tuple[np.ndarray, ...]:
        """ts's positions in ascending order of time, its window edges in that order, and each window's anchor and terms.

        Window w holds the times at order[edges[w] : edges[w + 1]] and is anchored at the time before them, t = 0 for
        the first; its Chebyshev series needs at most terms[w] terms.  A window takes times while their rows of size
        amplitudes and of coefficients, times x (size + terms), fit in WINDOW amplitudes, and at least one time: a
        binary search finds how many for a window that starts at each position, and the windows are chained from the
        first.
        """
        order = np.argsort(ts, kind="stable")
        t = ts[order]
        anchor = np.concatenate(([0.0], t[:-1]))  # of a window that starts at each position

        def terms(first: np.ndarray, count: np.ndarray) -> np.ndarray:
            # t is sorted, so the times farthest from the anchor are at the ends
            reach = np.maximum(np.abs(t[first] - anchor[first]), np.abs(t[first + count - 1] - anchor[first]))
            return chebyshev_terms(self._chebyshev[1] * reach)  # finite behind `_admit`

        first = np.arange(len(t))
        fit, most = np.ones(len(t), dtype=int), np.minimum(max(WINDOW // size, 1), len(t) - first)
        while np.any(active := fit < most):
            count = np.where(active, (fit + most + 1) // 2, fit)
            fits = count * (size + terms(first, count)) <= WINDOW
            fit, most = np.where(active & fits, count, fit), np.where(active & ~fits, count - 1, most)
        edges, fit = [0], fit.tolist()
        while edges[-1] < len(t):
            edges.append(edges[-1] + fit[edges[-1]])
        first, count = np.array(edges[:-1], dtype=int), np.diff(edges)
        return order, np.array(edges), anchor[first], terms(first, count)

    def _trajectory(self, psi: np.ndarray, parity: int, ts: np.ndarray) -> tuple[RwaBlocks, Iterator[tuple]]:
        """psi's RWA blocks, and per window of ts its (positions, times, sector states under the full H).

        psi holds the amplitudes of the sector of the given parity.

        Raises ValueError, before any block is diagonalized or coefficient
        built, if the work is over WORK_BUDGET.
        """
        n_a, n_b = number_blocks(self.basis, psi, parity)
        # each time of a window holds its state and its RWA eigenbasis amplitudes, one per kept entry
        size = len(psi) + n_a.size
        order, edges, anchors, terms = self._windows(ts, size)
        check_work(float(np.sum(terms)) * (len(psi) + TERM_OVERHEAD) + len(ts) * size, "shorten the tau span or lower the cutoff")
        p = self.params
        off = p.g_bs * np.sqrt((n_a[:-1] + 1.0) * n_b[:-1])  # between entries j and j + 1 of one block
        rwa = RwaBlocks(p.omega_a * n_a + p.omega_b * n_b, off, n_a + n_b, self.basis.position(n_a, n_b), psi)
        return rwa, self._propagate(psi, parity, ts, order, edges, anchors, terms)

    def _propagate(self, psi, parity, ts, order, edges, anchors, terms) -> Iterator[tuple]:
        """Per window of `_windows` its (positions, times, sector states), from the last state of the window before.

        Set up once per trajectory: one array of states, which each window overwrites, and one buffer of CHUNK + 2
        rows of terms with the `_shifted` arguments from each row to the next, for the real operator (the first window,
        from a real state) and its interleaved copy (the later ones); fresh temporaries on every term made the
        recurrence's speed hang on the state of the heap.  A run of windows whose rows, times x term bound, fit in
        WINDOW entries shares one coefficient table, and each window cuts it at its own kept length.
        """
        rows, (centre, half, recurrences) = CHUNK + 2, self._chebyshev
        flat, scratch = np.empty(rows * 2 * len(psi)), np.empty(2 * len(psi))
        kernels = []
        for h in recurrences[parity]:
            buf = flat[: rows * len(h.diagonal)].reshape(rows, -1)
            kernels.append((buf, [h._shifted(*pair, scratch[: len(h.diagonal)]) for pair in zip(buf, buf[1:])], h))
        counts = np.diff(edges)
        states = np.empty((int(counts.max(initial=0)), len(psi)), complex)
        dts = ts[order] - np.repeat(anchors, counts)
        edges, terms, end = edges.tolist(), terms.tolist(), 0
        for w, (first, last) in enumerate(zip(edges[:-1], edges[1:])):
            if first == end:
                run, top = w + 1, terms[w]
                while run < len(terms):
                    top = max(top, terms[run])
                    if (edges[run + 1] - first) * top > WINDOW:
                        break
                    run += 1
                start, end = first, edges[run]
                table, kept = chebyshev_coefficients(half * dts[start:end])
            out, rows = states[: last - first], slice(first - start, last - start)
            self._expand(kernels[np.iscomplexobj(psi)], psi, table[:, rows], kept[rows], out)
            out *= np.exp(-1j * centre * dts[first:last])[:, None]
            psi = out[-1].copy()
            yield order[first:last], ts[order[first:last]], out

    @staticmethod
    def _expand(kernel: tuple, psi: np.ndarray, table: np.ndarray, kept: np.ndarray, states: np.ndarray) -> None:
        """Rows sum_k a_k T_k psi into states, one per row of a `chebyshev_coefficients` table and its kept lengths.

        kernel is a buffer of terms, the `_shifted` arguments from its row j to row j + 1 (steps[j]), and the
        recurrence operator: the real one for a real psi, the interleaved copy, on float pairs, for a complex psi.
        The terms T_k psi are formed CHUNK at a time in the buffer, whose last two rows seed
        the next chunk, and each chunk is summed by one product per half of the table (a_k is
        real for even k, else imaginary) and per CHUNK // 2 rows, so that the sums take no more
        room than the terms they add, into the rows from the first whose running maximum of
        kept lengths passes its first k: rows run in ascending |x|, so those are the ones still
        running, and a first window across t = 0, whose lengths fall and then rise, sums more.
        """
        terms, steps, h = kernel
        lengths, real = np.maximum.accumulate(kept), not np.iscomplexobj(psi)
        part = np.empty((min(len(kept), CHUNK // 2), terms.shape[1]))
        states[...] = 0.0
        start, count = 0, int(lengths[-1])
        for k in range(count):
            prev, cur, couplings = steps[k - start + 1]
            if k == 0:
                cur[:] = psi.view(float)
            elif k == 1:
                np.multiply(h._apply(prev, cur, couplings), 0.5, out=cur)
            else:
                np.subtract(h._apply(prev, cur, couplings), steps[k - start][0], out=cur)
            if cur is steps[-1][1] or k + 1 == count:
                # rows 2, 4, ... of the buffer hold the even terms from T_start, rows 3, 5, ... the
                # odd ones, whose sum is imaginary: i (x + i y) = -y + i x
                for top in range(int(np.searchsorted(lengths, start, side="right")), len(kept), len(part)):
                    out, sums = states[top : top + len(part)], part[: len(kept) - top]
                    for w, first in zip(table, (2, 3)):
                        block = terms[first : k - start + 3 : 2]
                        np.matmul(w[top : top + len(part), start // 2 : start // 2 + len(block)], block, out=sums)
                        if real:
                            dest = out.real if first == 2 else out.imag
                            np.add(dest, sums, out=dest)
                        elif first == 2:
                            np.add(out, sums.view(complex), out=out)
                        else:
                            np.subtract(out.real, sums.view(complex).imag, out=out.real)
                            np.add(out.imag, sums.view(complex).real, out=out.imag)
                terms[:2] = terms[-2:]
                start = k + 1

    def _admit(self, ts: np.ndarray) -> np.ndarray:
        """ts, refused with a PhaseError at its first t whose phases E t, and steps E (t - t'), may round by over PHASE_TOL.

        That rounding is at most about 2 eps R |t|, with R = 2 (cutoff + 1) (max(omega_a, omega_b) + |g_bs| + |g_sq|) >= |E|
        on a sector and on the factors' boxes of 2 cutoff.
        """
        p = self.params
        radius = 2 * (self.basis.cutoff + 1) * (max(p.omega_a, p.omega_b) + abs(p.g_bs) + abs(p.g_sq))
        reach = PHASE_TOL / (2.0 * float(np.finfo(float).eps)) / radius  # a Python float: it over- or underflows with no warning
        if (bad := np.flatnonzero(~(np.abs(ts) <= reach))).size:
            raise PhaseError(reach, int(bad[0]), ts[bad[0]])
        return ts

    def evolved_pair(self, initial: InitialState, t: float) -> tuple[np.ndarray, np.ndarray, float]:
        """Amplitudes (full, rwa) on the initial state's sector at time t and its discarded weight."""
        ts, (psi0, discarded) = self._admit(read_times(t, one=True).ravel()), initial_vector(self.basis, initial)
        rwa, windows = self._trajectory(psi0, (initial.n_a + initial.n_b) % 2, ts)
        ((_, times, states),) = windows
        rwa_state = np.zeros_like(states[0])  # exactly zero outside the blocks
        rwa_state[rwa.index] = rwa.amplitudes(rwa.coefficients(times))[:, 0]
        return states[0], rwa_state, discarded

    def compare(self, initial: InitialState, ts) -> OraclePoint:
        """Oracle outputs over an array of times of any shape, stacked over it, or float fields for a scalar t.

        At exact resonance the vacuum and the squeezed pair take `_factors`, and every other input its sector.
        """
        times = read_times(ts)
        route = self._factors if self.params.omega_a == self.params.omega_b and initial.kind != "fock" else self._sector
        psi0, tail, edge, n, windows = route(initial, self._admit(times.ravel()))
        fid, d_n = np.empty(times.size), np.empty(times.size)

        def number(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """Tail and <N> of each row of states, whose real parts become their densities."""
            re, im = states.real, states.imag
            density = np.add(np.multiply(re, re, out=re), np.multiply(im, im, out=im), out=re)
            return np.sum(density[:, edge], axis=1), np.sum(np.multiply(n, density, out=density), axis=1)

        # H_RWA commutes with N, so <N> keeps its initial value exactly, truncation included;
        # summed as the full side is, so that delta_n of a propagated sector is exactly 0 at t = 0
        n_rwa = number(psi0.astype(complex)[None])[1][0]
        for where, t, states, fidelity, boundary in windows:
            tails, n_full = number(states)  # after the overlap, since it overwrites the states
            tails, fid[where], d_n[where] = np.maximum(tails, boundary), fidelity, n_full - n_rwa
            if np.any(tails > TAIL_TOL):
                first = int(np.argmax(tails > TAIL_TOL))
                msg = f"truncation tail {tails[first]:.3e} exceeds {TAIL_TOL} at cutoff {self.basis.cutoff}"
                raise TruncationError(msg, int(where[first]), f"t = {t[first]:.6g}")
            tail = max(tail, float(np.max(tails)))
        if times.ndim == 0:
            return OraclePoint(fidelity=float(fid[0]), delta_n=float(d_n[0]), tail_weight=tail)
        return OraclePoint(fidelity=fid.reshape(times.shape), delta_n=d_n.reshape(times.shape), tail_weight=tail)

    def _sector(self, initial: InitialState, ts: np.ndarray) -> tuple:
        """`compare`'s inputs from the initial state's propagated parity sector."""
        psi0, discarded = initial_vector(self.basis, initial)
        parity, c = (initial.n_a + initial.n_b) % 2, self.basis.cutoff
        n_a, n_b = self.basis.occupations(parity)
        rwa, trajectory = self._trajectory(psi0, parity, ts)
        edge, n = np.flatnonzero(np.maximum(n_a, n_b) == c), np.where(n_b <= c, n_a + n_b, 0.0)
        on_edge = np.isin(rwa.index, edge)  # the kept entries on the truncation boundary

        def measure(t: np.ndarray, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """|<psi_rwa|psi>|^2 and the RWA state's boundary weight per time; its locals are freed before the next window."""
            # the full states gathered onto the blocks' entries, in the RWA state's layout, and conjugated in place
            phi, psi = rwa.amplitudes(rwa.coefficients(t)), states.T[rwa.index]
            boundary = phi[on_edge].view(float).reshape(-1, len(t), 2)
            return np.abs(np.einsum("kt,kt->t", np.conjugate(psi, out=psi), phi)) ** 2, np.einsum("ktc,ktc->t", boundary, boundary)

        return psi0, discarded, edge, n, ((where, t, states, *measure(t, states)) for where, t, states in trajectory)

    def _factors(self, initial: InitialState, ts: np.ndarray) -> tuple:
        """`compare`'s inputs at omega_a = omega_b for the vacuum or the squeezed pair, from two single-mode factors.

        d+- = (a +- b) / sqrt(2) separate for any g_bs: H = sum+- nu+- n+- +- (g_sq / 2)(d+-^2 + d+-'^2) and
        H_RWA = sum+- nu+- n+-, with nu+- = omega +- g_bs.  A mode's box of 2 cutoff holds the (n_a, n_b) box of
        cutoff, as n+ + n- = n_a + n_b.  The factors' lab-frame states lie side by side, and their densities give the
        tails, which add the weights on n = 2 cutoff, and <N>; each one's RWA overlap is <e^(-i nu n t) psi0|psi(t)>,
        so F = |o+ o-|^2.  A window of times holds at most WINDOW amplitudes.
        """
        p, c = self.params, self.basis.cutoff
        mode, discarded = squeezed_mode(initial.s, c, 2 * c)  # the vacuum at s = 0
        check_work(2.0 * len(ts) * (c + 1) ** 2, "use fewer times or lower the cutoff")
        psi0, sign = np.tile(mode[::2], 2), np.repeat([1.0, -1.0], c + 1)
        n, order, count = np.tile(2.0 * np.arange(c + 1), 2), np.argsort(ts, kind="stable"), WINDOW // (4 * (c + 1))
        diagonal, off = (p.omega_a + sign * p.g_bs) * n, 0.5 * sign * p.g_sq * np.sqrt((n + 1.0) * (n + 2.0))
        full, edge = RwaBlocks(diagonal, off, sign, np.arange(len(n)), psi0), np.flatnonzero(n == 2 * c)
        rwa_tail = np.sum(psi0[edge] ** 2)  # H_RWA keeps each n+-, and so the RWA state's weight on the boundary

        def windows() -> Iterator[tuple]:
            for where in (order[first : first + count] for first in range(0, len(ts), count)):
                states = full.amplitudes(full.coefficients(ts[where]))
                # psi0's RWA phases e^(-i nu n t), conjugated in the overlap: powers of each mode's phase at n = 2 along
                # n = 0, 2, ..., in a buffer of their own, since the states are written over the eigenbasis amplitudes
                phases = np.empty(states.shape, complex).reshape(2, c + 1, -1)
                phases[:, 0], phases[:, 1:] = 1.0, np.exp(1j * np.multiply.outer(diagonal[1 :: c + 1], ts[where]))[:, None]
                np.multiply(np.cumprod(phases, axis=1, out=phases), states.reshape(phases.shape), out=phases)
                o = np.matmul(psi0.reshape(2, 1, -1), phases.view(float)).view(complex)
                yield where, ts[where], states.T, np.abs(o[0, 0] * o[1, 0]) ** 2, rwa_tail

        return psi0, discarded, edge, n, windows()


def fock_bound(n_a: int, n_b: int, g: float, omega: float, t: float) -> float:
    """Resonant worst-case bound on ||(U - U_RWA)|n_a, n_b>||, even in g and t as the distance is."""
    InitialState("fock", n_a=n_a, n_b=n_b)  # refuses a bool, non-integer or negative occupation
    read_times(t, one=True)  # and an array of times; t itself keeps its type in the bound
    if not (math.isfinite(g) and math.isfinite(t) and 0 < omega < math.inf):
        raise ValueError("g and t must be finite and omega finite and positive")
    total, g = n_a + n_b, abs(g)
    return 2.0 * (g / omega) * (total + 4) ** 2 * (1.0 + 6.0 * g * abs(t) * (total + 4))


@dataclass(frozen=True)
class BoundCheckResult:
    z_exact: float
    z_max: float
    satisfied: bool


def bound_check(n_a: int, n_b: int, p: OscillatorParams, t: float, cutoff: int) -> BoundCheckResult:
    """Exact propagation distance against the analytic bound, on resonance.

    The distance is recomputed at double the cutoff; a shift beyond the
    certification tolerance means the truncation is too small.
    """
    initial = InitialState("fock", n_a=n_a, n_b=n_b)
    FockBasis(cutoff)  # with the occupations, refused before any work whatever the couplings
    if not p.resonant:
        raise ValueError("the bound is derived on resonance")
    if not p.equal_couplings:
        raise ValueError("the bound compares equal couplings against their RWA")
    try:
        FockBasis(2 * cutoff)
    except ValueError as exc:
        raise ValueError(f"the certification doubles the cutoff, and {exc}") from exc
    z_max = fock_bound(n_a, n_b, p.g_bs, p.omega_a, t)
    if p.g_sq == 0.0:
        # equal couplings, so H is its own RWA and U = U_RWA exactly; two propagations would differ by rounding
        return BoundCheckResult(z_exact=0.0, z_max=z_max, satisfied=True)
    z_base, z_doubled = (float(np.linalg.norm(np.subtract(*FockOracle(p, c).evolved_pair(initial, t)[:2]))) for c in (cutoff, 2 * cutoff))
    if abs(z_doubled - z_base) > BOUND_CERT_TOL:
        raise TruncationError(f"doubling the cutoff moves the distance by {abs(z_doubled - z_base):.3e}; raise the cutoff")
    return BoundCheckResult(z_exact=z_doubled, z_max=z_max, satisfied=z_doubled <= z_max)
