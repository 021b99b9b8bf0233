import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from reference import full_basis, oracle_delta_n, oracle_fidelity
from rwafidelity import fockoracle
from rwafidelity.dynamics import OscillatorParams
from rwafidelity.fockoracle import (
    PHASE_TOL,
    TAIL_TOL,
    WINDOW,
    WORK_BUDGET,
    BoundCheckResult,
    FockBasis,
    FockOracle,
    GridHamiltonian,
    TruncationError,
    bound_check,
    chebyshev_coefficients,
    fock_bound,
    initial_vector,
    squeezed_mode_amplitudes,
)
from rwafidelity.metrics import delta_n, fidelity_eff, gaussian_grid
from rwafidelity.states import InitialState, squeezed_pair, vacuum

# the dense references live on the whole basis |n_a, n_b>, flat index n_a (cutoff + 1) + n_b; the
# oracle's sector amplitudes reach them through reference.full_basis


def full_index(basis, n_a, n_b):
    return n_a * (basis.cutoff + 1) + n_b


def full_occupations(basis):
    """(n_a, n_b) of every entry of the whole basis."""
    return divmod(np.arange((basis.cutoff + 1) ** 2), basis.cutoff + 1)


def full_boundary(basis):
    return np.maximum(*full_occupations(basis)) == basis.cutoff


def sector_number(basis, parity):
    """n_a + n_b on the sector, 0 on the dead column, as the oracle weighs it."""
    n_a, n_b = basis.occupations(parity)
    return np.where(n_b <= basis.cutoff, n_a + n_b, 0)


def parity_of(initial):
    return (initial.n_a + initial.n_b) % 2


def assembled(x):
    """The complex a_k of chebyshev_coefficients(x): a_k = b_k for even k and i b_k for odd k, up to the longest kept length."""
    (even, odd), kept = chebyshev_coefficients(x)
    a = np.zeros(even.shape[:-1] + (2 * even.shape[-1],), dtype=complex)
    a[..., 0::2], a[..., 1::2] = even, 1j * odd
    return a[..., : kept.max()]


def build_hamiltonian(p, basis, variant="full"):
    """Dense reference H on the truncated basis, filled entry by entry."""
    c = basis.cutoff
    g_sq = 0.0 if variant == "rwa" else p.g_sq
    h = np.zeros(((c + 1) ** 2,) * 2)
    for n_a in range(c + 1):
        for n_b in range(c + 1):
            k = full_index(basis, n_a, n_b)
            h[k, k] = p.omega_a * n_a + p.omega_b * n_b
            if n_a < c and n_b > 0:
                j = full_index(basis, n_a + 1, n_b - 1)
                h[j, k] = h[k, j] = p.g_bs * math.sqrt((n_a + 1) * n_b)
            if n_a < c and n_b < c:
                j = full_index(basis, n_a + 1, n_b + 1)
                h[j, k] = h[k, j] = g_sq * math.sqrt((n_a + 1) * (n_b + 1))
    return h


def sector_matrix(p, basis, parity):
    """The production operator on one sector as a matrix: column k is H applied to sector vector k."""
    h = GridHamiltonian.build(p, basis, parity)
    return h(np.eye(len(h.diagonal))).T


def materialized(p, basis, variant="full"):
    """The production operator as a matrix on the whole basis, one parity sector at a time."""
    q = replace(p, g_sq=0.0) if variant == "rwa" else p
    return sum(full_basis(basis, full_basis(basis, sector_matrix(q, basis, parity), parity).T, parity) for parity in (0, 1))


def dense_propagate(h, amplitudes, t):
    energies, modes = np.linalg.eigh(h)
    return modes @ (np.exp(-1j * energies * t) * (modes.T @ amplitudes))


def full_initial(basis, initial):
    """The initial state's amplitudes on the whole basis."""
    return full_basis(basis, initial_vector(basis, initial)[0], parity_of(initial))


PARAMS = {
    "equal": OscillatorParams(1.0, 1.1, 0.15, 0.15),
    "negative": OscillatorParams(1.0, 1.0, -0.1, -0.12),
    "mixed-sign": OscillatorParams(1.0, 1.3, -0.21, 0.13),
    "g_sq=0": OscillatorParams(1.0, 1.2, 0.3, 0.0),
    "g_bs=0": OscillatorParams(1.0, 0.8, 0.0, 0.2),
    "detuned": OscillatorParams(0.7, 1.6, 0.1, 0.05),
}
INPUTS = {
    "vacuum": InitialState("vacuum"),
    "squeezed": InitialState("squeezed", s=0.1),
    "fock": InitialState("fock", n_a=1, n_b=2),
}
# the detuned twin of criterion 4's resonant point: there `compare` propagates the parity sector, which on
# resonance it leaves for the two normal-mode factors, so the tests of the propagation's internals run here
TWIN = OscillatorParams(1.0, 1.1, 0.05, 0.05)


class TestBasis:
    def test_dimension(self):
        # an even cutoff's stride is cutoff + 1; an odd one's adds a dead column of cutoff + 1 entries
        for cutoff, sizes in ((4, (13, 12)), (5, (21, 21))):
            basis = FockBasis(cutoff)
            assert tuple(len(basis.occupations(parity)[0]) for parity in (0, 1)) == sizes
            assert sum(sizes) == (cutoff + 1) ** 2 + cutoff % 2 * (cutoff + 1)

    def test_index_roundtrip(self):
        basis = FockBasis(7)
        for na in range(8):
            for nb in range(8):
                n_a, n_b = basis.occupations((na + nb) % 2)
                k = basis.position(na, nb)
                assert (n_a[k], n_b[k]) == (na, nb)
        for parity in (0, 1):
            n_a, n_b = basis.occupations(parity)
            assert np.array_equal(basis.position(n_a, n_b), np.arange(len(n_a)))

    def test_occupation_bounds(self):
        with pytest.raises(ValueError, match="outside cutoff 3"):
            initial_vector(FockBasis(3), InitialState("fock", n_a=4, n_b=0))[0]

    def test_cutoff_guard(self):
        # a cutoff is admitted while a state of its parity sector fits in WINDOW amplitudes, (cutoff + 1)
        # stride <= 2 WINDOW: 361 x 361 entries at cutoff 360, 362 x 363 at 361
        assert len(FockBasis(360).occupations(0)[0]) <= WINDOW
        for bad in (0, 361, 362, 2**70, np.int64(2**62)):
            with pytest.raises(ValueError, match=f"must be at least 1 with a parity sector of at most WINDOW = {WINDOW} amplitudes, got {bad}"):
                FockBasis(bad)
        # a float or a bool would be read as a cutoff it is not, or fail in a slice
        for bad in (8.0, 8.5, True, "8", np.float64(8.0)):
            with pytest.raises(ValueError, match="must be an integer"):
                FockBasis(bad)
            with pytest.raises(ValueError, match="must be an integer"):
                FockOracle(OscillatorParams(1.0, 1.0, 0.05, 0.05), bad)
        assert FockBasis(np.int64(8)).stride == 9

    @pytest.mark.parametrize("cutoff", [1, 2, 6, 7])
    def test_sectors_split_the_basis(self, cutoff):
        # the two sectors hold each (n_a, n_b) of the basis once, with the parity of n_a + n_b,
        # and the dead column of an odd cutoff, which no weight of H touches
        basis = FockBasis(cutoff)
        seen = []
        for parity in (0, 1):
            n_a, n_b = basis.occupations(parity)
            live = n_b <= cutoff
            assert np.all((n_a + n_b) % 2 == parity) and np.all(n_b[~live] == cutoff + 1)
            assert np.sum(~live) == cutoff % 2 * (cutoff + 1) // 2
            seen += list(zip(n_a[live].tolist(), n_b[live].tolist()))
            for p in PARAMS.values():
                for q in (p, replace(p, g_sq=0.0)):
                    h = sector_matrix(q, basis, parity)
                    assert np.all(h[~live] == 0.0) and np.all(h[:, ~live] == 0.0)
        assert sorted(seen) == [(na, nb) for na in range(cutoff + 1) for nb in range(cutoff + 1)]
        assert basis.stride % 2 == 1

    def test_parity_of_amplitudes(self):
        # an initial state's amplitudes live on the sector of its n_a + n_b, the even one but for a Fock state
        basis = FockBasis(7)
        for initial in (InitialState("fock", n_a=2, n_b=3), InitialState("fock", n_a=0, n_b=4), InitialState("vacuum")):
            amp, discarded = initial_vector(basis, initial)
            assert len(amp) == len(basis.occupations(parity_of(initial))[0]) and discarded == 0.0
            want = np.zeros((basis.cutoff + 1) ** 2)
            want[full_index(basis, initial.n_a, initial.n_b)] = 1.0
            assert np.array_equal(full_basis(basis, amp, parity_of(initial)), want)
        # the squeezed pair, bit for bit the product of its modes on the whole basis, each renormalized by its own weight
        amp, _ = initial_vector(basis, InitialState("squeezed", s=0.05))
        mode = squeezed_mode_amplitudes(0.05, basis.cutoff)
        mode /= math.sqrt(np.sum(mode[::2] ** 2))
        assert np.array_equal(full_basis(basis, amp, 0), np.kron(mode, mode))


class TestHamiltonian:
    def test_free_is_diagonal(self):
        basis = FockBasis(3)
        h = materialized(OscillatorParams(1.0, 2.0), basis)
        assert np.allclose(h, np.diag(np.diag(h)))
        assert h[full_index(basis, 2, 1), full_index(basis, 2, 1)] == pytest.approx(4.0)

    def test_hermitian(self):
        h = materialized(OscillatorParams(1.0, 1.3, 0.2, 0.1), FockBasis(6))
        assert np.max(np.abs(h - h.T)) < 1e-14

    def test_pair_creation_element(self):
        basis = FockBasis(3)
        h = materialized(OscillatorParams(1.0, 1.0, 0.1, 0.1), basis)
        assert h[full_index(basis, 1, 1), full_index(basis, 0, 0)] == pytest.approx(0.1)

    def test_beam_splitter_element(self):
        basis = FockBasis(3)
        h = materialized(OscillatorParams(1.0, 1.0, 0.1, 0.1), basis)
        assert h[full_index(basis, 2, 1), full_index(basis, 1, 2)] == pytest.approx(0.1 * math.sqrt(2 * 2))

    def test_rwa_commutes_with_number(self):
        basis = FockBasis(6)
        h = materialized(OscillatorParams(1.0, 1.0, 0.3, 0.3), basis, variant="rwa")
        n_op = np.diag(np.add(*full_occupations(basis)).astype(float))
        assert np.max(np.abs(h @ n_op - n_op @ h)) < 1e-12

    @pytest.mark.parametrize("name", PARAMS)
    @pytest.mark.parametrize("variant", ["full", "rwa"])
    def test_matches_reference_fill(self, name, variant):
        for cutoff in (1, 5, 8):
            basis = FockBasis(cutoff)
            ref = build_hamiltonian(PARAMS[name], basis, variant)
            assert np.max(np.abs(materialized(PARAMS[name], basis, variant) - ref)) < 1e-15

    @pytest.mark.parametrize("name", PARAMS)
    @pytest.mark.parametrize("cutoff", [5, 8])
    def test_sector_pair_is_the_restricted_operator(self, name, cutoff):
        p, basis = PARAMS[name], FockBasis(cutoff)
        refs = build_hamiltonian(p, basis), build_hamiltonian(p, basis, "rwa")
        rng = np.random.default_rng(cutoff)
        for parity in (0, 1):
            dead = basis.occupations(parity)[1] > cutoff
            # random on the dead column too, which H neither reads nor writes
            copies = [rng.normal(size=len(dead)) for _ in refs]
            pair = [GridHamiltonian.build(q, basis, parity)(v) for q, v in zip((p, replace(p, g_sq=0.0)), copies)]
            for got, ref, v in zip(pair, refs, copies):
                assert np.max(np.abs(full_basis(basis, got, parity) - ref @ full_basis(basis, v, parity))) < 1e-14
                assert np.all(got[dead] == 0.0)

    @pytest.mark.parametrize("cutoff", [12, 13])
    def test_interleaved_copy_acts_on_complex_amplitudes(self, cutoff):
        # each weight repeated, on (real, imaginary) float pairs: the shifts double by themselves
        p, basis = PARAMS["mixed-sign"], FockBasis(cutoff)
        rng = np.random.default_rng(cutoff)
        for parity in (0, 1):
            h = GridHamiltonian.build(p, basis, parity)
            pair = GridHamiltonian(*(np.repeat(w, 2) for w in (h.diagonal, h.bs, h.sq)))
            psi = rng.normal(size=len(h.diagonal)) + 1j * rng.normal(size=len(h.diagonal))
            assert np.array_equal(pair(psi.view(float)).view(complex), h(psi))

    @pytest.mark.parametrize("name", PARAMS)
    def test_gershgorin_bounds_contain_spectrum(self, name):
        # the oracle's interval spans both sectors' Gershgorin intervals, which make up the whole basis's
        p, basis = PARAMS[name], FockBasis(8)
        oracle = FockOracle(p, basis.cutoff)
        centre, half, _ = oracle._chebyshev
        lo, hi = centre - half, centre + half
        h = build_hamiltonian(p, basis)
        radius = np.sum(np.abs(h), axis=1) - np.abs(np.diag(h))
        assert lo == pytest.approx(np.min(np.diag(h) - radius), rel=1e-14, abs=1e-14)
        assert hi == pytest.approx(np.max(np.diag(h) + radius), rel=1e-14)
        energies = np.linalg.eigvalsh(h)
        assert lo <= energies[0] and energies[-1] <= hi


class TestChebyshev:
    def test_coefficients_match_bessel(self):
        special = pytest.importorskip("scipy.special")
        for x in (0.0, 1e-9, 0.3, 5.0, -12.5, 90.0, 700.0):
            coeffs = assembled(x)
            k = np.arange(len(coeffs))
            ref = np.where(k == 0, 1.0, 2.0) * (-1j) ** k * special.jv(k, x)
            assert np.max(np.abs(coeffs - ref)) < 1e-15 * (10.0 + abs(x)), x
            # the expansion stops at the first Bessel factor below double-precision roundoff
            assert abs(special.jv(len(coeffs), x)) < np.finfo(float).eps
            if x:
                assert abs(special.jv(len(coeffs) - 1, x)) > 0.5 * np.finfo(float).eps

    @pytest.mark.parametrize("x", [0.0, 0.2, -3.0, 40.0, -250.0])
    def test_series_sums_to_exponential(self, x):
        y = np.linspace(-1.0, 1.0, 101)
        coeffs = assembled(x)
        got = np.polynomial.chebyshev.chebval(y, coeffs)
        assert np.max(np.abs(got - np.exp(-1j * x * y))) < 1e-15 * (10.0 + abs(x))

    def test_table_is_real_and_carries_each_rows_kept_length(self):
        # |J_k| = |b_k| / (2 - delta_k0); a row keeps its terms up to one past its last |J_k| >= eps,
        # is zero past them, and is the table its own entry of x gets alone
        x = np.array([[0.0, 1e-9, -0.3], [5.0, -12.5, 700.0]])
        table, kept = chebyshev_coefficients(x)
        assert table.dtype == float and kept.shape == x.shape
        assert table.shape == (2,) + x.shape + ((kept.max() + 1) // 2,)
        k = np.arange(2 * table.shape[-1])
        bessel = np.abs(np.stack(tuple(table), axis=-1).reshape(x.shape + k.shape)) / np.where(k == 0, 1.0, 2.0)
        for i in np.ndindex(x.shape):
            assert kept[i] == np.flatnonzero(bessel[i] >= np.finfo(float).eps)[-1] + 1
            assert not np.any(bessel[i][kept[i] :])
            alone, length = chebyshev_coefficients(x[i])
            assert length == kept[i] and np.array_equal(table[(slice(None),) + i][:, : alone.shape[-1]], alone)


class TestPropagation:
    def test_time_zero(self):
        oracle = FockOracle(OscillatorParams(1.0, 1.0, 0.1, 0.1), 4)
        psi = initial_vector(oracle.basis, InitialState("fock", n_a=1, n_b=2))[0]
        full, rwa, _ = oracle.evolved_pair(InitialState("fock", n_a=1, n_b=2), 0.0)
        assert full.shape == rwa.shape == psi.shape
        assert np.allclose(full, psi, atol=1e-14)
        assert np.allclose(rwa, psi, atol=1e-14)

    def test_diagonal_hamiltonian_rotates_phases(self):
        p = OscillatorParams(1.0, 2.0)
        oracle = FockOracle(p, 12)
        psi = full_initial(oracle.basis, InitialState("squeezed", s=0.1))
        full, _, _ = oracle.evolved_pair(InitialState("squeezed", s=0.1), 1.3)
        expected = psi * np.exp(-1j * np.diag(build_hamiltonian(p, oracle.basis)) * 1.3)
        assert np.allclose(full_basis(oracle.basis, full, 0), expected, atol=1e-12)

    def test_norm_preserved(self):
        oracle = FockOracle(OscillatorParams(1.0, 1.0, 0.2, 0.2), 12)
        full, rwa, _ = oracle.evolved_pair(InitialState("vacuum"), 7.0)
        assert abs(np.linalg.norm(full) - 1.0) < 1e-12
        assert abs(np.linalg.norm(rwa) - 1.0) < 1e-12

    @pytest.mark.parametrize("kind", INPUTS)
    @pytest.mark.parametrize("name", PARAMS)
    def test_matches_dense_eigh(self, name, kind):
        # an even and an odd cutoff: the sector layout pads odd cutoffs with a dead column
        p, initial = PARAMS[name], INPUTS[kind]
        ts = np.array([-2.5, 0.0, 0.7, 3.0])
        for cutoff in (12, 13):
            oracle = FockOracle(p, cutoff)
            psi0 = full_initial(oracle.basis, initial)
            h_full, h_rwa = build_hamiltonian(p, oracle.basis), build_hamiltonian(p, oracle.basis, "rwa")
            n = np.add(*full_occupations(oracle.basis))
            grid = oracle.compare(initial, ts)
            for i, t in enumerate(ts):
                ref_full = dense_propagate(h_full, psi0, t)
                ref_rwa = dense_propagate(h_rwa, psi0, t)
                full, rwa = (full_basis(oracle.basis, amp, parity_of(initial)) for amp in oracle.evolved_pair(initial, t)[:2])
                assert np.max(np.abs(full - ref_full)) < 1e-12
                assert np.max(np.abs(rwa - ref_rwa)) < 1e-12
                ref_fid = abs(np.vdot(ref_rwa, ref_full)) ** 2
                ref_dn = np.vdot(ref_full, n * ref_full).real - np.vdot(ref_rwa, n * ref_rwa).real
                assert abs(grid.fidelity[i] - ref_fid) < 1e-12
                assert abs(grid.delta_n[i] - ref_dn) < 1e-12

    @pytest.mark.parametrize("cutoff", [12, 13])
    @pytest.mark.parametrize("n_a, n_b", [(1, 1), (1, 0)])
    def test_off_sector_amplitudes_are_exactly_zero(self, cutoff, n_a, n_b):
        # the amplitudes are those of the sector, and its dead column, at an odd cutoff, stays exactly zero
        oracle = FockOracle(PARAMS["mixed-sign"], cutoff)
        full, rwa, _ = oracle.evolved_pair(InitialState("fock", n_a=n_a, n_b=n_b), 2.0)
        dead = oracle.basis.occupations((n_a + n_b) % 2)[1] > cutoff
        assert np.sum(dead) == cutoff % 2 * (cutoff + 1) // 2
        for amp in (full, rwa):
            assert amp.shape == dead.shape
            assert np.all(amp[dead] == 0.0)
            assert abs(np.linalg.norm(amp) - 1.0) < 1e-12
        assert np.count_nonzero(full) > np.count_nonzero(rwa) > 1

    def test_rwa_conserves_number(self):
        p = OscillatorParams(1.0, 1.0, 0.3, 0.3)
        oracle = FockOracle(p, 14)
        _, out, _ = oracle.evolved_pair(InitialState("fock", n_a=2, n_b=1), 5.0)
        assert np.real(np.vdot(out, sector_number(oracle.basis, 1) * out)) == pytest.approx(3.0, abs=1e-10)

    def test_grid_compare_matches_scalar_calls(self):
        oracle = FockOracle(OscillatorParams(1.0, 1.2, -0.1, 0.08), 16)
        initial = InitialState("squeezed", s=0.2)
        ts = np.array([0.5, -2.0, 3.0, 3.0, 1.0, 0.0])
        grid = oracle.compare(initial, ts)
        points = [oracle.compare(initial, t) for t in ts]
        assert isinstance(grid.tail_weight, float)
        assert all(isinstance(pt.fidelity, float) and isinstance(pt.delta_n, float) for pt in points)
        assert np.max(np.abs(grid.fidelity - [pt.fidelity for pt in points])) < 1e-13
        assert np.max(np.abs(grid.delta_n - [pt.delta_n for pt in points])) < 1e-13
        assert grid.tail_weight == pytest.approx(max(pt.tail_weight for pt in points), rel=1e-6)

    def test_tail_check_over_grid(self):
        oracle = FockOracle(OscillatorParams(1.0, 1.0, 0.3, 0.3), 6)
        with pytest.raises(TruncationError, match="truncation tail"):
            oracle.compare(InitialState("vacuum"), np.linspace(0.0, 10.0, 11))

    @pytest.mark.parametrize("cutoff", [6, 7])
    def test_tail_check_on_odd_sector(self, cutoff):
        oracle = FockOracle(OscillatorParams(1.0, 1.0, 0.3, 0.3), cutoff)
        with pytest.raises(TruncationError, match=f"truncation tail .* at cutoff {cutoff}"):
            oracle.compare(InitialState("fock", n_a=1, n_b=0), np.linspace(0.0, 10.0, 11))


def chebyshev_propagate(h, psi0, ts):
    """exp(-i h t) psi0 for each t: a plain Chebyshev sum of a GridHamiltonian over its Gershgorin interval."""
    lo, hi = h.spectral_bounds()
    centre, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    eye = np.eye(len(h.diagonal))
    scaled = (h(eye).T - centre * eye) / half
    a = assembled(half * np.asarray(ts))
    # T_k(scaled) psi0, with the real and imaginary parts of psi0 side by side
    terms = np.empty((a.shape[1], len(psi0), 2))
    terms[0] = np.asarray(psi0, dtype=complex).view(float).reshape(-1, 2)
    terms[1] = scaled @ terms[0]
    for k in range(2, len(terms)):
        terms[k] = 2.0 * (scaled @ terms[k - 1]) - terms[k - 2]
    return np.exp(-1j * centre * np.asarray(ts))[:, None] * (a @ terms.view(complex)[..., 0])


def rwa_blocks(p, basis, psi0, parity, ts):
    """The RwaBlocks of psi0 that the oracle builds for times ts, with the propagation never started."""
    return FockOracle(p, basis.cutoff)._trajectory(psi0, parity, np.asarray(ts, dtype=float))[0]


def frozen_propagation(self, psi, parity, ts, order, edges, anchors, terms):
    """Stands in for FockOracle._propagate where only the RWA side or the work estimate is under test: psi never moves."""
    for first, last in zip(edges[:-1], edges[1:]):
        yield order[first:last], ts[order[first:last]], np.tile(psi.astype(complex), (last - first, 1))


def sector_measurement(oracle, initial, psi, ts):
    """The sector route's |<psi_rwa|psi>|^2 and RWA boundary weight per time, for given rows psi of full sector states at ts."""
    oracle._propagate = lambda psi0, parity, ts, order, edges, anchors, terms: (
        (order[a:b], ts[order[a:b]], psi[order[a:b]]) for a, b in zip(edges[:-1], edges[1:])
    )
    fidelity, boundary = np.empty(len(ts)), np.empty(len(ts))
    for where, _, _, f, w in oracle._sector(initial, np.asarray(ts, dtype=float))[-1]:
        fidelity[where], boundary[where] = f, w
    return fidelity, boundary


def forbid_work(monkeypatch):
    """Make building a coefficient table or propagating fail, so a test sees what is refused before either."""

    def no_work(*args):
        raise AssertionError("built a coefficient table or propagated past the work budget")

    monkeypatch.setattr(fockoracle, "chebyshev_coefficients", no_work)
    monkeypatch.setattr(FockOracle, "_propagate", no_work)


class TestWindows:
    # the full side sums one Chebyshev series per window of times; pinned against
    # chebyshev_propagate, which sums every time's own series from t = 0
    @pytest.mark.parametrize("cutoff", [12, 13])
    @pytest.mark.parametrize("kind", ["squeezed", "fock-odd"])
    def test_matches_chebyshev_propagate(self, cutoff, kind):
        p, rng = PARAMS["mixed-sign"], np.random.default_rng(cutoff)
        ts = np.concatenate([np.linspace(-6.0, 30.0, 300), [0.0, 4.5, 4.5, -6.0, 30.0, 60.0]])
        ts = ts[rng.permutation(len(ts))]
        oracle = FockOracle(p, cutoff)
        initial = InitialState("squeezed", s=0.2) if kind == "squeezed" else InitialState("fock", n_a=2, n_b=1)
        psi0, parity = initial_vector(oracle.basis, initial)[0], parity_of(initial)
        assert len(oracle._windows(ts, len(psi0))[1]) > 3
        _, windows = oracle._trajectory(psi0, parity, ts)
        got = np.empty((len(ts), len(psi0)), dtype=complex)
        for where, times, states in windows:
            assert np.array_equal(times, ts[where]) and np.all(np.diff(times) >= 0.0)
            got[where] = states
        ref = chebyshev_propagate(GridHamiltonian.build(p, oracle.basis, parity), psi0, ts)
        assert np.max(np.abs(got - ref)) < 1e-12

    @pytest.mark.parametrize("cutoff", [12, 13])
    @pytest.mark.parametrize("parity", [0, 1])
    def test_interleaved_kernel_matches_chebyshev_propagate(self, cutoff, parity):
        # a complex start state runs every window, the first too, through the interleaved copy
        p, rng = PARAMS["detuned"], np.random.default_rng(cutoff + parity)
        oracle = FockOracle(p, cutoff)
        n = len(oracle.basis.occupations(parity)[0])
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi /= np.linalg.norm(psi)
        ts = np.concatenate([np.linspace(-8.0, 30.0, 800), [3.3, 3.3]])[rng.permutation(802)]
        order, edges, anchors, terms = oracle._windows(ts, n)
        assert len(edges) > 4
        got = np.empty((len(ts), n), dtype=complex)
        for where, times, states in oracle._propagate(psi, parity, ts, order, edges, anchors, terms):
            got[where] = states
        ref = chebyshev_propagate(GridHamiltonian.build(p, oracle.basis, parity), psi, ts)
        assert np.max(np.abs(got - ref)) < 1e-12

    @pytest.mark.parametrize("cutoff", [4, 24, 96])
    def test_windows_are_full_and_fit(self, cutoff):
        oracle, rng = FockOracle(PARAMS["equal"], cutoff), np.random.default_rng(cutoff)
        size = len(oracle.basis.occupations(0)[0])
        ts = np.concatenate([rng.uniform(-5.0, 40.0, 3000), [7.0] * 5, [1e-300, 0.0, 60.0, 400.0]])
        order, edges, anchors, terms = oracle._windows(ts, size)
        t = ts[order]
        assert np.array_equal(np.sort(order), np.arange(len(ts))) and np.all(np.diff(t) >= 0.0)
        assert edges[0] == 0 and edges[-1] == len(ts) and np.all(np.diff(edges) >= 1)

        def bound(a, b, anchor):
            return fockoracle.chebyshev_terms(oracle._chebyshev[1] * np.max(np.abs(t[a:b] - anchor)))

        for w, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            anchor = t[a - 1] if a else 0.0
            assert anchors[w] == anchor and terms[w] == bound(a, b, anchor)
            assert b - a == 1 or (b - a) * (size + terms[w]) <= fockoracle.WINDOW
            if b < len(t):
                assert (b - a + 1) * (size + bound(a, b + 1, anchor)) > fockoracle.WINDOW

    @pytest.mark.parametrize("cutoff", [12, 13])
    def test_evolved_pair_agrees_with_compare(self, cutoff):
        p, initial = PARAMS["detuned"], InitialState("squeezed", s=0.2)
        oracle = FockOracle(p, cutoff)
        ts = np.linspace(-3.0, 25.0, 400)
        grid = oracle.compare(initial, ts)
        n = sector_number(oracle.basis, 0)
        for i in (0, 117, 250, 399):
            full, rwa, _ = oracle.evolved_pair(initial, ts[i])
            assert abs(abs(np.vdot(rwa, full)) ** 2 - grid.fidelity[i]) < 1e-12
            assert abs(np.vdot(full, n * full).real - np.vdot(rwa, n * rwa).real - grid.delta_n[i]) < 1e-12

    @pytest.mark.parametrize("cutoff", [6, 7])
    def test_truncation_error_names_the_first_failing_time(self, cutoff):
        p, ts = OscillatorParams(1.0, 1.0, 0.3, 0.3), np.linspace(0.0, 10.0, 41)
        oracle = FockOracle(p, cutoff)
        psi0, mask = full_initial(oracle.basis, InitialState("fock", n_a=1, n_b=0)), full_boundary(oracle.basis)
        h_full, h_rwa = build_hamiltonian(p, oracle.basis), build_hamiltonian(p, oracle.basis, "rwa")
        tails = [max(np.sum(np.abs(dense_propagate(h, psi0, t)[mask]) ** 2) for h in (h_full, h_rwa)) for t in ts]
        first = ts[np.argmax(np.array(tails) > fockoracle.TAIL_TOL)]
        assert 0.0 < first < ts[-1]
        for order in (slice(None), slice(None, None, -1)):
            with pytest.raises(TruncationError, match=re.escape(f"at cutoff {cutoff} (first at t = {first:.6g})")):
                oracle.compare(InitialState("fock", n_a=1, n_b=0), ts[order])


class TestRwaBlocks:
    # the RWA side is solved exactly per block of n_a + n_b; these pin it against an independent
    # propagation of the RWA operator, whose phases E t reach about 6000 rad at |t| = 200
    RWA_INPUTS = {
        "squeezed": InitialState("squeezed", s=0.2),  # even, every block
        "fock-interior": InitialState("fock", n_a=2, n_b=1),  # odd, a block with no boundary row
        "fock-boundary-odd": InitialState("fock", n_a=5, n_b=8),  # n_a + n_b above the cutoff
        "fock-boundary-even": InitialState("fock", n_a=7, n_b=7),
    }

    @pytest.mark.parametrize("kind", RWA_INPUTS)
    @pytest.mark.parametrize("name", ["equal", "mixed-sign", "g_bs=0", "detuned"])
    def test_matches_chebyshev_of_rwa_operator(self, name, kind, monkeypatch):
        # the RWA side never reads the full one, whose propagation to |t| = 200 is skipped
        monkeypatch.setattr(FockOracle, "_propagate", frozen_propagation)
        p, initial = PARAMS[name], self.RWA_INPUTS[kind]
        ts = [-200.0, -3.7, 0.4, 57.0, 200.0]
        for cutoff in (12, 13):
            oracle = FockOracle(p, cutoff)
            rwa = [oracle.evolved_pair(initial, t)[1] for t in ts]
            h = GridHamiltonian.build(replace(p, g_sq=0.0), oracle.basis, parity_of(initial))
            ref = chebyshev_propagate(h, initial_vector(oracle.basis, initial)[0], ts)
            for got, want in zip(rwa, ref):
                assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("cutoff", [12, 13])
    def test_time_major_projection_matches_dense(self, cutoff):
        # squeezed input: blocks of 1 to cutoff + 1 rows, each held at its own size
        p, basis = PARAMS["mixed-sign"], FockBasis(cutoff)
        sector, _ = initial_vector(basis, InitialState("squeezed", s=0.2))
        n_a, n_b = fockoracle.number_blocks(basis, sector, 0)
        sizes = np.unique(n_a + n_b, return_counts=True)[1]
        assert sizes[0] == 1 and len(set(sizes.tolist())) > 5
        ts = np.array([-40.0, 0.0, 0.9, 2.5, 130.0])
        coef = rwa_blocks(p, basis, sector, 0, ts).coefficients(ts)
        assert coef.shape == (sizes.sum(),) + ts.shape and np.all(n_a >= 0) and np.all(n_b >= 0)
        self.assert_matches_dense(p, basis, cutoff, ts)

    @staticmethod
    def assert_matches_dense(p, basis, cutoff, ts):
        """The squeezed input's RWA state, formed on the kept entries, its overlap with random full states, and the
        sector's measurement of |overlap|^2 and of the RWA boundary weight, against a dense propagation."""
        initial = InitialState("squeezed", s=0.2)
        sector, _ = initial_vector(basis, initial)
        rwa = rwa_blocks(p, basis, sector, 0, ts)
        rng = np.random.default_rng(cutoff)
        psi = rng.normal(size=(len(ts), len(sector))) + 1j * rng.normal(size=(len(ts), len(sector)))
        state = rwa.amplitudes(rwa.coefficients(ts))
        fidelity, boundary = sector_measurement(FockOracle(p, cutoff), initial, psi, ts)
        h_rwa, mask, psi0 = build_hamiltonian(p, basis, "rwa"), full_boundary(basis), full_basis(basis, sector, 0)
        for i, t in enumerate(ts):
            ref, full = dense_propagate(h_rwa, psi0, t), full_basis(basis, psi[i], 0)
            got = np.zeros(len(sector), dtype=complex)
            got[rwa.index] = state[:, i]
            got = full_basis(basis, got, 0)
            overlap = np.vdot(ref, full)
            assert abs(np.vdot(got, full) - overlap) < 1e-12 and abs(math.sqrt(fidelity[i]) - abs(overlap)) < 1e-12
            assert abs(boundary[i] - np.sum(np.abs(ref[mask]) ** 2)) < 1e-14
            assert np.max(np.abs(got - ref)) < 1e-12

    @pytest.mark.parametrize("cutoff", [12, 13])
    @pytest.mark.parametrize("name", ["mixed-sign", "detuned"])
    def test_holds_each_kept_block_at_its_own_size(self, name, cutoff):
        # the blocks of n_a + n_b that carry weight, read off the dense reference, and one amplitude per
        # time for each of their entries: nothing for the blocks left out, no padding for the others
        p, basis = PARAMS[name], FockBasis(cutoff)
        sector, _ = initial_vector(basis, InitialState("squeezed", s=0.2))
        psi0, total = full_basis(basis, sector, 0), np.add(*full_occupations(basis))
        weights = {n: np.sum(psi0[total == n] ** 2) for n in range(0, 2 * cutoff + 1, 2)}
        kept = [n for n, w in weights.items() if w > np.finfo(float).eps ** 2 / len(weights)]
        sizes = [min(n, cutoff) - max(0, n - cutoff) + 1 for n in kept]
        assert kept[-1] > cutoff  # blocks with boundary rows among them
        n_a, n_b = fockoracle.number_blocks(basis, sector, 0)
        assert (n_a + n_b).tolist() == np.repeat(kept, sizes).tolist()
        assert n_a.tolist() == [a for n, m in zip(kept, sizes) for a in range(max(0, n - cutoff), max(0, n - cutoff) + m)]
        ts = np.array([-40.0, 0.0, 0.9, 130.0])
        assert rwa_blocks(p, basis, sector, 0, ts).coefficients(ts).shape == (sum(sizes), len(ts))
        self.assert_matches_dense(p, basis, cutoff, ts)

    @pytest.mark.parametrize(
        "ts",
        [np.linspace(0.3, 40.0, 20000), np.sort(np.random.default_rng(7).uniform(-30.0, 40.0, 500)), np.array([7.3])],
        ids=["uniform-20000", "non-uniform", "one-time"],
    )
    def test_rotated_phases_match_direct_sin_cos(self, ts):
        # sin and cos at the first time and per distinct step, then a running product; a grid that
        # starts away from t = 0 fails if the product is seeded with any phase but the first time's
        p, basis = PARAMS["mixed-sign"], FockBasis(12)
        sector, _ = initial_vector(basis, InitialState("squeezed", s=0.2))
        rwa = rwa_blocks(p, basis, sector, 0, ts)
        phase = np.multiply.outer(rwa.energies, ts)
        coef = rwa.coefficients(ts)
        assert coef.shape == rwa.energies.shape + ts.shape == rwa.c.shape + ts.shape
        assert np.max(np.abs(coef - rwa.c[:, None] * (np.cos(phase) - 1j * np.sin(phase)))) < 2e-12

    @pytest.mark.parametrize("cutoff", [12, 13])
    @pytest.mark.parametrize("n_a, n_b", [(0, 0), (3, 2), (5, 8), (12, 12)])
    def test_fock_input_stays_in_its_block(self, cutoff, n_a, n_b):
        oracle = FockOracle(PARAMS["mixed-sign"], cutoff)
        n = sector_number(oracle.basis, (n_a + n_b) % 2)
        for t in (-40.0, 0.3, 7.0, 150.0):
            _, rwa, _ = oracle.evolved_pair(InitialState("fock", n_a=n_a, n_b=n_b), t)
            assert np.all(rwa[n != n_a + n_b] == 0.0)
            assert abs(np.sum(np.abs(rwa) ** 2) - 1.0) < 1e-14

    @pytest.mark.parametrize("cutoff", [12, 13])
    def test_single_entry_corner_block_is_one_boundary_row(self, cutoff):
        # |c, c> is the whole block N = 2 cutoff, whose one entry is both its first and its last row
        p, basis = PARAMS["mixed-sign"], FockBasis(cutoff)
        psi0 = initial_vector(basis, InitialState("fock", n_a=cutoff, n_b=cutoff))[0]
        n_a, n_b = fockoracle.number_blocks(basis, psi0, 0)
        assert n_a.tolist() == n_b.tolist() == [cutoff]
        ts = np.array([-40.0, 0.0, 0.9, 130.0])
        _, boundary = sector_measurement(FockOracle(p, cutoff), InitialState("fock", n_a=cutoff, n_b=cutoff), np.tile(psi0, (len(ts), 1)), ts)
        assert np.max(np.abs(boundary - 1.0)) < 1e-14

    @pytest.mark.parametrize("cutoff", [12, 13])
    def test_rwa_tail_is_read_on_the_boundary_entries_alone(self, cutoff):
        # at t = 0 the RWA state is its input, so the tail of a Fock input is 1 where max(n_a, n_b) = cutoff and 0
        # elsewhere: every entry of the truncated basis is tried, and a tail read on any other set of entries fails
        oracle = FockOracle(PARAMS["mixed-sign"], cutoff)
        for n_a in range(cutoff + 1):
            for n_b in range(cutoff + 1):
                initial = InitialState("fock", n_a=n_a, n_b=n_b)
                psi0 = initial_vector(oracle.basis, initial)[0]
                _, boundary = sector_measurement(oracle, initial, psi0[None], [0.0])
                assert abs(boundary[0] - (max(n_a, n_b) == cutoff)) < 1e-14, (n_a, n_b)

    @pytest.mark.parametrize("cutoff", [12, 13])
    def test_block_weights_conserved(self, cutoff):
        oracle = FockOracle(PARAMS["equal"], cutoff)
        psi0, _ = initial_vector(oracle.basis, InitialState("squeezed", s=0.2))
        n = sector_number(oracle.basis, 0)
        weights0 = np.bincount(n, weights=np.abs(psi0) ** 2)
        for t in (-60.0, 1.1, 200.0):
            _, rwa, _ = oracle.evolved_pair(InitialState("squeezed", s=0.2), t)
            assert np.max(np.abs(np.bincount(n, weights=np.abs(rwa) ** 2) - weights0)) < 1e-14

    def test_tail_includes_rwa_boundary_rows(self):
        # here the RWA state holds more weight on the boundary than the full one
        p, initial, t = OscillatorParams(1.0, 1.0, 0.3, 0.3), InitialState("fock", n_a=6, n_b=6), 1.0
        oracle = FockOracle(p, 8)
        psi0, mask = full_initial(oracle.basis, initial), full_boundary(oracle.basis)
        tails = [np.sum(np.abs(dense_propagate(build_hamiltonian(p, oracle.basis, v), psi0, t)[mask]) ** 2) for v in ("full", "rwa")]
        assert tails[1] > 2.0 * tails[0]
        with pytest.raises(TruncationError, match=f"truncation tail {tails[1]:.3e} exceeds"):
            oracle.compare(initial, t)

    @pytest.mark.parametrize("cutoff, tail", [(6, "4.966e-05"), (7, "6.732e-06")])
    def test_tail_check_on_odd_sector_names_the_tail(self, cutoff, tail):
        oracle = FockOracle(OscillatorParams(1.0, 1.0, 0.3, 0.3), cutoff)
        with pytest.raises(TruncationError, match=f"truncation tail {tail} exceeds"):
            oracle.compare(InitialState("fock", n_a=1, n_b=0), np.linspace(0.0, 10.0, 11))


class TestSqueezedInput:
    def test_amplitude_moments_match_convention(self):
        # <a^2> must equal +sinh(2s)/2 in the covariance convention used here
        s, cutoff = 0.2, 40
        c = squeezed_mode_amplitudes(s, cutoff)
        n_mean = float(np.sum(np.arange(cutoff + 1) * c**2))
        a2 = float(sum(c[k + 2] * c[k] * math.sqrt((k + 1) * (k + 2)) for k in range(cutoff - 1)))
        assert abs(np.sum(c**2) - 1.0) < 1e-12
        assert n_mean == pytest.approx(np.sinh(s) ** 2, abs=1e-10)
        assert a2 == pytest.approx(np.sinh(2 * s) / 2.0, abs=1e-10)

    def test_odd_amplitudes_vanish(self):
        c = squeezed_mode_amplitudes(0.3, 21)
        assert np.allclose(c[1::2], 0.0)

    @pytest.mark.parametrize("s", [0.2, 1.2, 1.5, -1.8])
    def test_amplitudes_match_closed_form_to_the_largest_cutoff(self, s):
        # tanh(s)^(k/2) sqrt(k!) / (2^(k/2) (k/2)! sqrt(cosh s)) at 50 digits; sqrt(k!) alone
        # overflows a double from k = 171, so the running product is checked past it, to cutoff 360
        mpmath = pytest.importorskip("mpmath")
        c = squeezed_mode_amplitudes(s, 360)
        with mpmath.workdps(50):
            th, root = mpmath.tanh(s), mpmath.sqrt(mpmath.cosh(s))
            ref = [th**h * mpmath.sqrt(mpmath.factorial(2 * h)) / (2**h * mpmath.factorial(h) * root) for h in range(181)]
            worst = max(abs((mpmath.mpf(float(x)) - r) / r) for x, r in zip(c[::2], ref))
        assert worst <= 2e-14
        assert np.all(c[1::2] == 0.0)

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            initial_vector(FockBasis(10), InitialState("squeezed", s=2.0))

    def test_recorded_tail_small(self):
        _, discarded = initial_vector(FockBasis(40), InitialState("squeezed", s=0.2))
        assert 0.0 <= discarded < 1e-12


class TestOracle:
    def test_integer_frequencies_match_float(self):
        # integer arguments are stored as floats, so the Fock diagonal cannot come out int64
        p = OscillatorParams(1, 1, 0.05, 0.05)
        assert p == OscillatorParams(1.0, 1.0, 0.05, 0.05)
        assert all(type(v) is float for v in vars(p).values())
        ts = np.linspace(0.0, 3.0, 7)
        got = FockOracle(p, 40).compare(InitialState("squeezed", s=0.2), ts)
        ref = FockOracle(OscillatorParams(1.0, 1.0, 0.05, 0.05), 40).compare(InitialState("squeezed", s=0.2), ts)
        assert np.array_equal(got.fidelity, ref.fidelity)
        assert np.array_equal(got.delta_n, ref.delta_n)

    @pytest.mark.parametrize("initial", [InitialState("vacuum"), InitialState("squeezed", s=0.3), InitialState("fock", n_a=2, n_b=1)], ids=["vacuum", "squeezed", "fock"])
    @pytest.mark.parametrize("omega_b", [1.0, 1.1], ids=["resonant", "detuned"])
    def test_even_in_t(self, omega_b, initial):
        # H and the initial states are real, so F and delta_n are even in t, as TestSymmetries pins for the Gaussian
        # route: on resonance the squeezed pair and the vacuum take the factors, the rest a propagated sector.  The
        # largest gap here is 1.6e-15
        oracle, ts = FockOracle(OscillatorParams(1.0, omega_b, 0.1, 0.07), 30), np.linspace(0.5, 8.5, 9)
        forward, backward = oracle.compare(initial, ts), oracle.compare(initial, -ts)
        assert np.max(np.abs(forward.fidelity - backward.fidelity)) <= 1e-14
        assert np.max(np.abs(forward.delta_n - backward.delta_n)) <= 1e-14

    def test_uncoupled_fidelity_is_one(self):
        p = OscillatorParams(1.0, 1.5)
        assert oracle_fidelity(p, InitialState("vacuum"), 3.0, 10) == pytest.approx(1.0, abs=1e-12)

    def test_beam_splitter_only_fidelity_is_one(self):
        p = OscillatorParams(1.0, 1.2, 0.3, 0.0)
        assert oracle_fidelity(p, InitialState("vacuum"), 2.0, 10) == pytest.approx(1.0, abs=1e-12)

    def test_recurrence(self):
        p = OscillatorParams(1.0, 1.0, 0.3, 0.3)
        t_star = 2.0 * np.pi / np.sqrt(0.4)
        assert oracle_fidelity(p, InitialState("vacuum"), t_star, 40) == pytest.approx(1.0, abs=1e-6)

    def test_matches_symplectic_route_squeezed(self):
        p = OscillatorParams(1.0, 1.0, 0.05, 0.05)
        got = oracle_fidelity(p, InitialState("squeezed", s=0.2), 2.0, 40)
        ref = fidelity_eff(squeezed_pair(0.2), p, 2.0).fidelity
        assert got == pytest.approx(ref, abs=1e-5)

    def test_delta_n_matches_symplectic_route(self):
        p = OscillatorParams(1.0, 1.0, 0.05, 0.05)
        got = oracle_delta_n(p, InitialState("vacuum"), 1.0, 30)
        assert got == pytest.approx(delta_n(vacuum(), p, 1.0), abs=1e-6)

    def test_cutoff_doubling_stability(self):
        p = OscillatorParams(1.0, 1.0, 0.05, 0.05)
        a = oracle_fidelity(p, InitialState("squeezed", s=0.2), 3.0, 24)
        b = oracle_fidelity(p, InitialState("squeezed", s=0.2), 3.0, 48)
        assert abs(a - b) < 1e-6

    def test_work_budget_refuses_before_propagating(self, monkeypatch):
        oracle = FockOracle(TWIN, 96)
        forbid_work(monkeypatch)
        with pytest.raises(ValueError, match=re.escape(f"over the budget of {WORK_BUDGET:.3g}")):
            oracle.evolved_pair(InitialState("vacuum"), 1e5)
        with pytest.raises(ValueError, match=re.escape(f"over the budget of {WORK_BUDGET:.3g}")):
            oracle.compare(InitialState("vacuum"), np.linspace(0.0, 1e5, 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_times(self, bad):
        oracle = FockOracle(OscillatorParams(1.0, 1.0, 0.05, 0.05), 8)
        with pytest.raises(ValueError, match="resolves its phases E t .*" + re.escape(f"; first refused t = {bad:.6g}") + "$"):
            oracle.compare(InitialState("vacuum"), np.array([0.0, bad, 1.0]))
        with pytest.raises(ValueError, match="resolves its phases E t .*" + re.escape(f"; first refused t = {bad:.6g}") + "$"):
            oracle.evolved_pair(InitialState("vacuum"), bad)

    @pytest.mark.parametrize("omega_b", [1.0, 1.1])
    @pytest.mark.parametrize("initial", [InitialState("vacuum"), InitialState("squeezed", s=0.2), InitialState("fock", n_a=1, n_b=2)])
    def test_one_time_rule_refuses_before_any_work(self, monkeypatch, omega_b, initial):
        # both routes admit |t| up to PHASE_TOL / (2 eps R), R = 2 (cutoff + 1) (max omega + |g_bs| + |g_sq|), and
        # refuse the first time past it before any eigh, window plan or coefficient table is built
        p, cutoff = OscillatorParams(1.0, omega_b, 0.05, -0.05), 40
        reach = PHASE_TOL / (2.0 * np.finfo(float).eps) / (2 * (cutoff + 1) * (omega_b + 0.05 + 0.05))
        oracle = FockOracle(p, cutoff)
        assert np.array_equal(oracle._admit(np.array([-reach, reach])), [-reach, reach])
        forbid_work(monkeypatch)

        def no_work(*args, **kwargs):
            raise AssertionError("diagonalized or planned windows past the time rule")

        monkeypatch.setattr(np.linalg, "eigh", no_work)
        monkeypatch.setattr(FockOracle, "_windows", no_work)
        past = np.nextafter(reach, np.inf)
        message = re.escape(f"only for |t| <= {reach:.3g}; first refused t = {-past:.6g}") + "$"
        with pytest.raises(ValueError, match=message):
            oracle.compare(initial, np.array([0.0, reach, -past, 2.0 * past]))
        with pytest.raises(ValueError, match=message):
            oracle.evolved_pair(initial, -past)

    @pytest.mark.parametrize("cutoff, reach", [(40, "2.5e+07"), (96, "1.06e+07")])
    def test_time_rule_reach_of_criterion_4(self, cutoff, reach):
        # g = 0.05 on resonance: |t| is admitted to about 2.5e7 at cutoff 40 and 1.06e7 at cutoff 96
        with pytest.raises(ValueError, match=re.escape(f"only for |t| <= {reach};")):
            FockOracle(OscillatorParams(1.0, 1.0, 0.05, 0.05), cutoff).compare(InitialState("vacuum"), 1e17)

    def test_work_budget_admits_long_span_at_cutoff_40(self, monkeypatch):
        # cutoff 40 to tau 1000 runs in a few seconds; only the estimate is exercised here
        monkeypatch.setattr(FockOracle, "_propagate", frozen_propagation)
        point = FockOracle(TWIN, 40).compare(InitialState("vacuum"), np.linspace(0, 1000, 101))
        assert point.tail_weight == 0.0

    def test_builds_each_sector_once_on_first_use(self, monkeypatch):
        # the resonant vacuum and squeezed pair run as two single-mode factors and build no sector; the first
        # propagation (a Fock input, or a detuned one) builds both sectors' operators, whose Gershgorin intervals
        # bound H's spectrum, and later calls reuse them
        built = []
        build = GridHamiltonian.build.__func__
        monkeypatch.setattr(GridHamiltonian, "build", classmethod(lambda cls, *args: built.append(args[2:]) or build(cls, *args)))
        ts = np.linspace(0.0, 2.0, 5)
        for omega_b, first_use in ((1.0, InitialState("fock", n_a=1, n_b=0)), (1.1, InitialState("squeezed", s=0.2))):
            p, built[:] = OscillatorParams(1.0, omega_b, 0.05, 0.05), []
            oracle = FockOracle(p, 24)
            if omega_b == 1.0:
                oracle.compare(InitialState("squeezed", s=0.2), ts)
                oracle.compare(InitialState("vacuum"), ts)
            assert built == []
            first = oracle.compare(first_use, ts)
            assert built == [(0,), (1,)]
            oracle.compare(InitialState("vacuum"), ts)
            oracle.compare(InitialState("squeezed", s=0.2), ts)
            oracle.evolved_pair(InitialState("fock", n_a=1, n_b=0), 1.0)
            assert built == [(0,), (1,)]
            # a fresh oracle's operators give the same points bit for bit
            again = FockOracle(p, 24).compare(first_use, ts)
            assert np.array_equal(first.fidelity, again.fidelity) and np.array_equal(first.delta_n, again.delta_n)

    def test_work_budget_limit_on_a_long_fine_grid(self):
        # 100001 times at cutoff 24 are estimated at 3.71e9 updates to tau 110000 and 4.19e9 to
        # tau 125000, which is refused; the limit is near tau 119000
        oracle = FockOracle(OscillatorParams(1.0, 1.0, 0.05, 0.05), 24)
        psi0 = initial_vector(oracle.basis, InitialState("vacuum"))[0]
        oracle._trajectory(psi0, 0, np.linspace(0.0, 110000.0, 100001))
        with pytest.raises(ValueError, match=re.escape(f"over the budget of {WORK_BUDGET:.3g}")):
            oracle._trajectory(psi0, 0, np.linspace(0.0, 125000.0, 100001))

    def test_work_budget_charges_each_term_its_overhead(self, monkeypatch):
        # at cutoff 1 a term updates 3 amplitudes, so the 1.05e8 terms to tau 1e8 are estimated at
        # 8.4e10 updates with TERM_OVERHEAD and 3.2e8 without it; they would run for minutes
        oracle, ts = FockOracle(OscillatorParams(1.0, 1.1, 1e-6, 1e-6), 1), np.linspace(0.0, 1e8, 3)
        forbid_work(monkeypatch)
        with pytest.raises(ValueError, match=re.escape(f"over the budget of {WORK_BUDGET:.3g}")):
            oracle.compare(InitialState("vacuum"), ts)
        monkeypatch.setattr(fockoracle, "TERM_OVERHEAD", 0)
        monkeypatch.setattr(FockOracle, "_propagate", frozen_propagation)
        assert oracle.compare(InitialState("vacuum"), ts).tail_weight == 0.0

    @pytest.mark.parametrize("tau", [1e19, 1e300])
    def test_work_budget_refuses_huge_finite_times(self, monkeypatch, tau):
        # past 2^63 terms an integer term bound would wrap negative and admit the request; `compare` refuses these
        # times by their phases first, so the sector's own estimate is called directly
        oracle = FockOracle(TWIN, 8)
        forbid_work(monkeypatch)
        with pytest.raises(ValueError, match=re.escape(f"over the budget of {WORK_BUDGET:.3g}")):
            oracle._trajectory(initial_vector(oracle.basis, InitialState("vacuum"))[0], 0, np.array([0.0, tau]))

    def test_one_miller_recurrence_per_run_of_windows(self, monkeypatch):
        calls = []

        def counted(x):
            calls.append(np.array(x))
            return chebyshev_coefficients(x)

        monkeypatch.setattr(fockoracle, "chebyshev_coefficients", counted)
        ts = np.linspace(0.0, 10.0, 401)
        oracle = FockOracle(TWIN, 24)
        oracle.compare(InitialState("vacuum"), ts)
        sector = initial_vector(oracle.basis, InitialState("vacuum"))[0]
        order, edges, anchors, terms = oracle._windows(ts, len(sector) + fockoracle.number_blocks(oracle.basis, sector, 0)[0].size)
        # the tables hold every time once, in window order, each from its own window's anchor
        assert np.array_equal(np.concatenate(calls), oracle._chebyshev[1] * (ts[order] - np.repeat(anchors, np.diff(edges))))
        # one table per run of whole windows, never one per window or per time
        assert 1 < len(calls) < len(edges) - 1
        runs = np.cumsum([0] + [len(x) for x in calls])
        assert set(runs) <= set(edges.tolist())
        for a, b in zip(runs[:-1], runs[1:]):
            w = np.flatnonzero((edges[:-1] >= a) & (edges[:-1] < b))
            assert len(w) == 1 or (b - a) * terms[w].max() <= fockoracle.WINDOW
            # a run stops only where the next window would not fit
            if b < len(ts):
                nxt = len(w) + w[0]
                assert (edges[nxt + 1] - a) * max(terms[w].max(), terms[nxt]) > fockoracle.WINDOW

    def test_each_window_sums_its_own_table_bit_for_bit(self, monkeypatch):
        # runs of windows share one recurrence, yet each window's coefficients are those of a table
        # of its own; the last window holds one time, a table of one column
        seen, expand = [], FockOracle._expand

        def spy(kernel, psi, table, kept, states):
            seen.append((table.copy(), kept.copy()))
            expand(kernel, psi, table, kept, states)

        monkeypatch.setattr(FockOracle, "_expand", staticmethod(spy))
        oracle, ts = FockOracle(OscillatorParams(1.0, 1.0, 0.05, 0.05), 12), np.linspace(0.0, 10.0, 200)
        psi0 = initial_vector(oracle.basis, InitialState("vacuum"))[0]
        order, edges, anchors, _ = oracle._windows(ts, len(psi0) + 1)
        assert np.diff(edges).tolist() == [199, 1]
        for _ in oracle._trajectory(psi0, 0, ts)[1]:
            pass
        assert len(seen) == len(edges) - 1
        for (table, kept), first, last, anchor in zip(seen, edges[:-1], edges[1:], anchors):
            own, own_kept = chebyshev_coefficients(oracle._chebyshev[1] * (ts[order[first:last]] - anchor))
            # the run's table may be wider, with zeros past the window's own
            assert np.array_equal(kept, own_kept) and not np.any(table[..., own.shape[-1] :])
            assert np.array_equal(table[..., : own.shape[-1]], own)

    @pytest.mark.parametrize("s", [0.0, 0.2])
    def test_sparse_cutoff_80_grid_runs_as_one_real_series(self, monkeypatch, s):
        # 11 times to tau 10 at cutoff 80 fit one window of WINDOW amplitudes, so no term is formed
        # on float pairs and no second series tail is paid
        seen, products, expand, matmul = [], [], FockOracle._expand, np.matmul

        def spy(kernel, psi, table, kept, states):
            seen.append((np.iscomplexobj(psi), (len(kept), int(kept.max()))))
            expand(kernel, psi, table, kept, states)

        def counted(x, y, **kwargs):
            if "out" in kwargs:  # _expand's chunk products; the RWA side passes no out
                products.append(len(y))
            return matmul(x, y, **kwargs)

        monkeypatch.setattr(FockOracle, "_expand", staticmethod(spy))
        monkeypatch.setattr(np, "matmul", counted)
        initial = InitialState("squeezed", s=s) if s else InitialState("vacuum")
        FockOracle(TWIN, 80).compare(initial, np.linspace(0.0, 10.0, 11))
        ((complex_psi, (times, terms)),) = seen
        assert not complex_psi and times == 11
        # one product per parity and chunk; every chunk but the last sums 16 terms of each parity
        assert len(products) == 2 * math.ceil(terms / fockoracle.CHUNK) and min(products[:-2]) >= 16

    def test_chunks_sum_only_the_rows_still_running(self, monkeypatch):
        # 11 times to tau 10 at cutoff 80 are one real window of about 1010 terms; the row of t = 0
        # ends after one term and that of tau 9 near 920, so the last chunk sums tau 10's row alone
        rows, matmul = [], np.matmul

        def counted(x, y, **kwargs):
            if "out" in kwargs:  # _expand's chunk products; the RWA side passes no out
                rows.append(len(x))
            return matmul(x, y, **kwargs)

        monkeypatch.setattr(np, "matmul", counted)
        FockOracle(TWIN, 80).compare(InitialState("vacuum"), np.linspace(0.0, 10.0, 11))
        assert len(rows) > 40 and rows[:2] == [11, 11] and max(rows[-2:]) <= 2
        # one product per parity and chunk, over rows that only ever drop out
        assert rows[0::2] == rows[1::2] and rows[0::2] == sorted(rows[0::2], reverse=True)

    def test_complex_window_term_buffer_is_bounded_at_cutoff_96(self, monkeypatch):
        buffers, expand = [], FockOracle._expand

        def spy(kernel, psi, table, kept, states):
            if np.iscomplexobj(psi):
                buffers.append(kernel[0])
            expand(kernel, psi, table, kept, states)

        monkeypatch.setattr(FockOracle, "_expand", staticmethod(spy))
        oracle = FockOracle(TWIN, 96)
        oracle.compare(InitialState("vacuum"), np.linspace(0.0, 10.0, 41))
        size = len(oracle.basis.occupations(0)[0])
        assert buffers
        for terms in buffers:
            # CHUNK + 2 rows of float pairs, whatever the grid; the real kernel shares the allocation
            assert terms.shape == (fockoracle.CHUNK + 2, 2 * size)
            assert terms.base.nbytes == terms.nbytes < 3e6

    def test_coefficient_tables_stay_within_the_window_on_a_long_grid(self, monkeypatch):
        # a table of all 200 000 times would hold 2.8 million entries, and its Miller recurrence 11 million
        sizes = []

        def counted(x):
            table, kept = chebyshev_coefficients(x)
            sizes.append(table.size)
            return table, kept

        monkeypatch.setattr(fockoracle, "chebyshev_coefficients", counted)
        monkeypatch.setattr(FockOracle, "_expand", staticmethod(lambda kernel, psi, table, kept, states: states.fill(0.0)))
        oracle, ts = FockOracle(OscillatorParams(1.0, 1.0, 0.05, 0.05), 8), np.linspace(0.0, 100.0, 200_000)
        psi0, _ = initial_vector(oracle.basis, InitialState("squeezed", s=0.1))
        _, windows = oracle._trajectory(psi0, 0, ts)
        assert sum(len(where) for where, _, _ in windows) == len(ts)
        assert len(sizes) > 100 and max(sizes) <= fockoracle.WINDOW

    def test_peak_memory_of_a_squeezed_dense_grid(self):
        # a window holds its states, a run's real coefficient table, chunk sums of CHUNK // 2 rows and
        # the RWA amplitudes of the kept entries alone: the traced peak is 2.32 MB (numpy 2.4, Python
        # 3.11), where a complex table with its real halves copied took it to 2.52 MB, and RWA blocks
        # padded to the widest one, chunk sums of every row and fresh density temporaries to 3.29 MB
        # (both measured on resonance, before resonant inputs went to the factors).  On this detuned
        # twin it is 2.42 MB (numpy 2.4.6, Python 3.11.7), and 3.14 MB if a window's RWA state and
        # gathered full states outlive its measurement, through the next window's expansion
        oracle = FockOracle(TWIN, 40)
        tracemalloc.start()
        try:
            oracle.compare(InitialState("squeezed", s=0.2), np.linspace(0.0, 10.0, 201))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.8e6

    def test_peak_memory_of_a_wide_squeezed_state_at_cutoff_96(self):
        # s = 1.2 keeps 97 RWA blocks, 49 of them with entries on the truncation boundary, whose RWA weight
        # is read from the state formed on the kept entries: the traced peak is 7.56 MB on this detuned twin
        # (numpy 2.4.6, Python 3.11.7), and 8.31 MB if a window's RWA state and gathered full states outlive
        # its measurement.  It was 6.96 MB (numpy 2.4, Python 3.11) with each block's one or two boundary
        # rows of V kept, and the bound fails one dense matrix of those rows over every entry of the 49
        # blocks with a complex table (8.86 MB; both measured on resonance, before resonant inputs went to
        # the factors)
        oracle = FockOracle(TWIN, 96)
        tracemalloc.start()
        try:
            oracle.compare(InitialState("squeezed", s=1.2), np.linspace(0.0, 10.0, 11))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.9e6

    def test_fidelity_bounded(self):
        p = OscillatorParams(1.0, 1.0, 0.2, 0.2)
        oracle = FockOracle(p, 24)
        for t in np.linspace(0.0, 8.0, 9):
            assert oracle.compare(InitialState("vacuum"), t).fidelity <= 1.0 + 1e-10


class TestResonantFactors:
    # at omega_a = omega_b the vacuum and the squeezed pair run through two single-mode factors, each one
    # tridiagonal block on a box of 2 cutoff; other inputs, and any detuning, propagate their sector
    COUPLINGS = {
        "equal": (0.1, 0.1),
        "negative": (-0.1, -0.12),
        "mixed-sign": (0.2, -0.1),
        "unequal": (0.3, 0.1),
        "g_bs=0": (0.0, 0.2),  # degenerate RWA modes
        "g_sq=0": (0.3, 0.0),
    }

    @staticmethod
    def propagations(monkeypatch) -> list:
        calls, propagate = [], FockOracle._propagate
        monkeypatch.setattr(FockOracle, "_propagate", lambda self, *args: calls.append(args) or propagate(self, *args))
        return calls

    @pytest.mark.parametrize("kind", ["vacuum", "squeezed"])
    def test_resonant_gaussian_input_is_not_propagated(self, monkeypatch, kind):
        calls = self.propagations(monkeypatch)
        point = FockOracle(OscillatorParams(1.0, 1.0, 0.1, 0.05), 16).compare(INPUTS[kind], np.linspace(0.0, 5.0, 6))
        assert calls == [] and np.all(point.fidelity <= 1.0 + 1e-14)

    @pytest.mark.parametrize(
        "p, kind", [(OscillatorParams(1.0, 1.0 + 1e-13, 0.1, 0.05), "vacuum"), (OscillatorParams(1.0, 1.0, 0.1, 0.05), "fock")]
    )
    def test_near_resonance_and_fock_input_are_propagated(self, monkeypatch, p, kind):
        # omega_b = 1 + 1e-13 is resonant by the params' own rule, but only exact resonance separates
        calls = self.propagations(monkeypatch)
        assert p.resonant
        FockOracle(p, 16).compare(INPUTS[kind], np.linspace(0.0, 5.0, 6))
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["vacuum", "squeezed"])
    @pytest.mark.parametrize("name", COUPLINGS)
    def test_matches_the_propagated_sector(self, name, kind):
        # evolved_pair propagates the sector at the same cutoff, where the truncation is below roundoff
        p, initial = OscillatorParams(1.0, 1.0, *self.COUPLINGS[name]), InitialState(kind, s=0.2 if kind == "squeezed" else 0.0)
        oracle, ts = FockOracle(p, 30), np.array([-2.5, 0.0, 0.7, 3.0, 9.0])
        grid, n = oracle.compare(initial, ts), sector_number(oracle.basis, 0)
        for i, t in enumerate(ts):
            full, rwa, _ = oracle.evolved_pair(initial, t)
            assert abs(abs(np.vdot(rwa, full)) ** 2 - grid.fidelity[i]) < 1e-12
            assert abs(np.vdot(full, n * full).real - np.vdot(rwa, n * rwa).real - grid.delta_n[i]) < 1e-12

    def test_vacuum_fidelity_matches_the_closed_form(self):
        # F(t) = prod+- (1 + (g_sq / kappa+-)^2 sin^2(kappa+- t))^(-1/2), kappa+- = sqrt((omega +- g_bs)^2 - g_sq^2),
        # for any resonant couplings; the factors miss it by at most 2.8e-14 here and gaussian_grid by 6.7e-16
        rng = np.random.default_rng(21)
        for _ in range(40):
            omega = rng.uniform(0.5, 2.0)
            g_bs, g_sq = rng.uniform(-0.3, 0.3, 2) * omega
            p, ts = OscillatorParams(omega, omega, g_bs, g_sq), rng.uniform(-20.0, 20.0, 9)
            kappa = np.sqrt((omega + np.array([g_bs, -g_bs])) ** 2 - g_sq**2)
            closed = np.prod((1.0 + (g_sq / kappa[:, None]) ** 2 * np.sin(np.outer(kappa, ts)) ** 2) ** -0.5, axis=0)
            assert np.max(np.abs(FockOracle(p, 40).compare(InitialState("vacuum"), ts).fidelity - closed)) < 1e-12
            assert np.max(np.abs(gaussian_grid(vacuum(), p, ts).report.fidelity - closed)) < 1e-12

    def test_vacuum_fidelity_matches_the_closed_form_at_long_spans(self):
        # the RWA phases of the overlap are powers of e^(2 i nu t), one running product along n per mode and time,
        # which rounds unlike a phase per entry; at |t| <= 1e4, negative times included, the factors miss the closed
        # form by at most 9.6e-12 here, the same as a phase per entry, since both sides' phases round at 1e4 eps
        rng = np.random.default_rng(21)
        for _ in range(20):
            omega = rng.uniform(0.5, 2.0)
            g_bs, g_sq = rng.uniform(-0.3, 0.3, 2) * omega
            p, ts = OscillatorParams(omega, omega, g_bs, g_sq), rng.uniform(-1e4, 1e4, 9)
            kappa = np.sqrt((omega + np.array([g_bs, -g_bs])) ** 2 - g_sq**2)
            closed = np.prod((1.0 + (g_sq / kappa[:, None]) ** 2 * np.sin(np.outer(kappa, ts)) ** 2) ** -0.5, axis=0)
            assert np.max(np.abs(FockOracle(p, 40).compare(InitialState("vacuum"), ts).fidelity - closed)) < 5e-11

    def test_box_of_twice_the_cutoff(self):
        # s = 1.5 loses 2.1e-5 of its weight at cutoff 96 per mode (refused on a propagated sector), and 1.06e-9
        # in the factors' boxes of 192, whose worst tail to t = 1 is 1.5e-9
        point = FockOracle(OscillatorParams(1.0, 1.0, 0.05, 0.05), 96).compare(InitialState("squeezed", s=1.5), 1.0)
        assert point.tail_weight == pytest.approx(1.5e-9, rel=0.01)
        with pytest.raises(TruncationError, match="initial squeezed state loses weight 2.082e-05 at cutoff 96"):
            FockOracle(TWIN, 96).compare(InitialState("squeezed", s=1.5), 1.0)

    def test_tail_check_names_the_first_failing_time(self):
        # vacuum at g = 0.3 and cutoff 6: each factor d+- = (a +- b) / sqrt(2) evolves under its dense one-mode H on
        # occupations 0 to 12, and the tails are the two factors' weights on n = 12; the error names the first time
        # in time order at which their sum exceeds TAIL_TOL, whatever the order of the grid
        p, c, ts = OscillatorParams(1.0, 1.0, 0.3, 0.3), 6, np.linspace(0.0, 10.0, 41)
        d = np.diag(np.sqrt(np.arange(1.0, 2 * c + 1)), 1)  # the annihilator on occupations 0 to 2 cutoff
        tails = np.zeros(len(ts))
        for sign in (1.0, -1.0):
            h = (p.omega_a + sign * p.g_bs) * (d.T @ d) + sign * 0.5 * p.g_sq * (d @ d + d.T @ d.T)
            tails += [abs(dense_propagate(h, np.eye(2 * c + 1)[0], t)[-1]) ** 2 for t in ts]
        first = int(np.argmax(tails > TAIL_TOL))
        assert 0 < first < len(ts) - 1
        oracle = FockOracle(p, c)
        for order in (slice(None), slice(None, None, -1)):
            with pytest.raises(TruncationError, match=re.escape(f"truncation tail {tails[first]:.3e} exceeds")) as error:
                oracle.compare(InitialState("vacuum"), ts[order])
            assert str(error.value).endswith(f"at cutoff {c} (first at t = {ts[first]:.6g})")
            assert ts[order][error.value.index] == ts[first]

    @pytest.mark.parametrize("omega_b, weight", [(1.0, "3.749e-01"), (1.1, "5.883e-01")])
    def test_initial_truncation_refused_before_diagonalizing(self, monkeypatch, omega_b, weight):
        # s = 2 at cutoff 10: the factors' box of 20 keeps more of the pair than the sector's box of 10 does, and
        # both refuse the input through the one squeezed mode before any block is diagonalized
        def no_eigh(*args, **kwargs):
            raise AssertionError("diagonalized a truncated input")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        oracle = FockOracle(OscillatorParams(1.0, omega_b, 0.05, 0.05), 10)
        with pytest.raises(TruncationError, match=f"^initial squeezed state loses weight {weight} at cutoff 10$"):
            oracle.compare(InitialState("squeezed", s=2.0), np.linspace(0.0, 10.0, 3))

    def test_work_budget_refuses_before_diagonalizing(self, monkeypatch):
        # about 2 len(ts) (cutoff + 1)^2 updates, whatever the span: 1e6 times at cutoff 96 are 1.9e10
        def no_eigh(*args, **kwargs):
            raise AssertionError("diagonalized past the work budget")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        oracle = FockOracle(OscillatorParams(1.0, 1.0, 0.05, 0.05), 96)
        with pytest.raises(ValueError, match=re.escape(f"about 1.88e+10 amplitude updates, over the budget of {WORK_BUDGET:.3g}")):
            oracle.compare(InitialState("vacuum"), np.linspace(0.0, 10.0, 1_000_000))
        for bad in (np.nan, np.inf, 1e307):
            with pytest.raises(ValueError, match="resolves its phases E t .*" + re.escape(f"; first refused t = {bad:.6g}") + "$"):
                oracle.compare(InitialState("vacuum"), np.array([0.0, bad]))

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_any_frequency_scale(self, scale):
        # omega t and g t are what count, so frequencies scaled by 1e-200 or 1e200 at times scaled back give the
        # points at omega = 1; the phase bound is formed so that it overflows with no warning (warnings are errors)
        p, initial, ts = OscillatorParams(1.0, 1.0, 0.1, 0.05), InitialState("squeezed", s=0.2), np.linspace(0.0, 5.0, 6)
        ref = FockOracle(p, 16).compare(initial, ts)
        got = FockOracle(OscillatorParams(*(scale * v for v in vars(p).values())), 16).compare(initial, ts / scale)
        assert np.max(np.abs(got.fidelity - ref.fidelity)) < 1e-13 and np.max(np.abs(got.delta_n - ref.delta_n)) < 1e-13

    def test_windows_hold_at_most_window_amplitudes(self, monkeypatch):
        sizes, amplitudes = [], fockoracle.RwaBlocks.amplitudes

        def spy(self, coef):
            sizes.append(coef.size)
            return amplitudes(self, coef)

        monkeypatch.setattr(fockoracle.RwaBlocks, "amplitudes", spy)
        FockOracle(OscillatorParams(1.0, 1.0, 0.05, 0.05), 40).compare(InitialState("vacuum"), np.linspace(0.0, 10.0, 2001))
        assert len(sizes) == 6 and max(sizes) <= fockoracle.WINDOW // 2

    def test_peak_memory_of_a_squeezed_dense_grid(self):
        # a window holds its states, the powers of their RWA phases and eigenbasis amplitudes, 2 (cutoff + 1) each
        # per time: the traced peak is 0.71 MB (numpy 2.4, Python 3.11), against 2.32 MB for the propagated twin
        oracle = FockOracle(OscillatorParams(1.0, 1.0, 0.05, 0.05), 40)
        tracemalloc.start()
        try:
            oracle.compare(InitialState("squeezed", s=0.2), np.linspace(0.0, 10.0, 201))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2e6


class TestTruncationCheckLimits:
    """What the oracle's truncation check can and cannot see.

    The check bounds the weight on the truncation boundary by TAIL_TOL, not
    the error that the truncation leaves in <N>: a documented limit, recorded
    here with numbers, for a propagated sector and for the resonant factors.
    """

    def test_a_passing_tail_check_leaves_delta_n_off_by_2e_5(self):
        # vacuum at g = 0.48, omega_b = 1.001, tau <= 10: at cutoff 96 every tail is at most TAIL_TOL, yet delta_n
        # misses the Gaussian route by 1.69e-5 (the same at 101 times); cutoff 140 brings that to 2.2e-8, so the
        # Gaussian side is right.  If the check ever bounds delta_n to 1e-5, compare raises at cutoff 96 and this
        # test fails, on purpose
        p = OscillatorParams(1.0, 1.001, 0.48, 0.48)
        ts = np.linspace(0.0, 10.0, 11)
        ref = np.array([delta_n(vacuum(), p, t) for t in ts])
        coarse, fine = (FockOracle(p, cutoff).compare(InitialState("vacuum"), ts) for cutoff in (96, 140))
        assert coarse.tail_weight <= TAIL_TOL
        assert np.max(np.abs(coarse.delta_n - ref)) == pytest.approx(1.69e-5, rel=0.01)
        assert np.max(np.abs(fine.delta_n - ref)) < 1e-7

    def test_the_factors_pass_the_tail_check_with_delta_n_off_by_6e_6(self, monkeypatch):
        # the same on resonance, where the factors' boxes of 2 cutoff hold more of the state: at cutoff 96 every
        # tail is at most TAIL_TOL and delta_n misses the Gaussian route by 6.22e-6 (the same at 101 times), and
        # cutoff 140 brings that to 6.7e-9
        monkeypatch.setattr(FockOracle, "_propagate", frozen_propagation)  # so a sector route would fail
        p = OscillatorParams(1.0, 1.0, 0.48, 0.48)
        ts = np.linspace(0.0, 10.0, 11)
        ref = np.array([delta_n(vacuum(), p, t) for t in ts])
        coarse, fine = (FockOracle(p, cutoff).compare(InitialState("vacuum"), ts) for cutoff in (96, 140))
        assert coarse.tail_weight <= TAIL_TOL
        assert np.max(np.abs(coarse.delta_n - ref)) == pytest.approx(6.22e-6, rel=0.01)
        assert np.max(np.abs(fine.delta_n - ref)) < 1e-8


class TestFockBound:
    def test_printed_value(self):
        assert fock_bound(0, 0, 0.1, 1.0, 1.0) == pytest.approx(10.88, abs=1e-12)

    def test_zero_coupling(self):
        assert fock_bound(2, 1, 0.0, 1.0, 5.0) == 0.0

    def test_doubling_g_at_fixed_gt(self):
        base = fock_bound(1, 1, 0.05, 1.0, 2.0)
        assert fock_bound(1, 1, 0.1, 1.0, 1.0) == pytest.approx(2.0 * base, abs=1e-12)

    def test_bound_check_is_even_in_g_and_t(self):
        # the distance is even in both, and so is the bound
        results = [bound_check(1, 0, OscillatorParams(1.0, 1.0, g, g), t, 24) for g, t in ((0.05, 2.0), (-0.05, 2.0), (0.05, -2.0))]
        assert results[0].satisfied and results[0].z_max == pytest.approx(10.0, abs=1e-12)
        for res in results[1:]:
            assert res.z_max == results[0].z_max and res.satisfied
            assert res.z_exact == pytest.approx(results[0].z_exact, abs=1e-12)

    def test_bound_check_zero_coupling(self):
        res = bound_check(0, 0, OscillatorParams(1.0, 1.0), 1.0, 8)
        assert isinstance(res, BoundCheckResult)
        assert res.z_exact == pytest.approx(0.0, abs=1e-12)
        assert res.satisfied

    def test_bound_check_holds(self):
        p = OscillatorParams(1.0, 1.0, 0.05, 0.05)
        res = bound_check(0, 0, p, 2.0, 16)
        assert res.satisfied
        assert res.z_exact < res.z_max

    def test_bound_check_ladder_slope(self):
        zs = []
        ladder = (0.1, 0.05, 0.025)
        for g in ladder:
            res = bound_check(1, 1, OscillatorParams(1.0, 1.0, g, g), 1.0, 16)
            zs.append(res.z_exact)
        assert zs[0] > zs[1] > zs[2]
        # the decay rate is linear in g; the finite ladder sees it from below
        slope = np.polyfit(np.log(ladder), np.log(zs), 1)[0]
        assert 0.95 <= slope <= 1.05

    def test_rejects_cutoff_beyond_doubling(self):
        # the doubled cutoff must be one FockBasis admits: 360 is, 362 is not
        p = OscillatorParams(1.0, 1.0, 0.05, 0.05)
        with pytest.raises(ValueError, match="doubles the cutoff"):
            bound_check(0, 0, p, 1.0, 181)
        assert bound_check(0, 0, p, 0.5, 180).satisfied

    def test_refuses_a_cutoff_that_doubling_moves(self):
        # at cutoff 2 the distance at g = 0.3, t = 5 moves by 8.4e-3 when the cutoff doubles; at 16 it does not
        p = OscillatorParams(1.0, 1.0, 0.3, 0.3)
        with pytest.raises(TruncationError, match=r"^doubling the cutoff moves the distance by 8\.388e-03; raise the cutoff$"):
            bound_check(0, 0, p, 5.0, 2)
        assert bound_check(0, 0, p, 5.0, 16).satisfied

    def test_preconditions(self):
        with pytest.raises(ValueError):
            bound_check(0, 0, OscillatorParams(1.0, 1.2, 0.05, 0.05), 1.0, 8)
        with pytest.raises(ValueError):
            bound_check(0, 0, OscillatorParams(1.0, 1.0, 0.05, 0.02), 1.0, 8)

    def test_resonance_is_the_params_rule(self):
        # |wa - wb| = 7e-13 but |wa^2 - wb^2| > 1e-12: not resonant by OscillatorParams.resonant
        p = OscillatorParams(1.0, 1.0 + 7e-13, 0.05, 0.05)
        assert not p.resonant
        with pytest.raises(ValueError, match="on resonance"):
            bound_check(0, 0, p, 1.0, 8)

    @pytest.mark.parametrize("n_a, n_b", [(1.5, 0), (True, 0), (0, 2.0), (0, "1")])
    def test_refuses_non_integer_occupations(self, n_a, n_b):
        with pytest.raises(ValueError, match="must be integers"):
            fock_bound(n_a, n_b, 0.1, 1.0, 1.0)

    def test_refuses_negative_occupations_and_nonfinite_inputs(self):
        with pytest.raises(ValueError, match="nonnegative"):
            fock_bound(-3, 0, 0.05, 1.0, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            fock_bound(0, -1, 0.05, 1.0, 1.0)
        bad = ((np.nan, 1.0, 1.0), (np.inf, 1.0, 1.0), (0.05, np.inf, 1.0), (0.05, np.nan, 1.0), (0.05, 1.0, np.nan), (0.05, 1.0, -np.inf))
        for g, omega, t in bad:
            with pytest.raises(ValueError, match="finite"):
                fock_bound(0, 0, g, omega, t)
        with pytest.raises(ValueError, match="positive"):
            fock_bound(0, 0, 0.05, 0.0, 1.0)

    @pytest.mark.parametrize("g_sq", [0.05, 0.0])
    def test_bound_check_refuses_non_integer_cutoff_and_occupations(self, g_sq):
        # refused before any work, also where equal couplings with g_sq = 0 need no propagation
        p = OscillatorParams(1.0, 1.0, g_sq, g_sq)
        for cutoff in (10.5, 10.0, True):
            with pytest.raises(ValueError, match="must be an integer"):
                bound_check(0, 0, p, 1.0, cutoff)
        for n_a, n_b in ((1.5, 0), (0, True)):
            with pytest.raises(ValueError, match="must be integers"):
                bound_check(n_a, n_b, p, 1.0, 8)
