import math

import numpy as np
import pytest

from reference import oracle_delta_n, oracle_fidelity
from rwafidelity.dynamics import OscillatorParams
from rwafidelity.fockoracle import (
    MAX_CUTOFF,
    BoundCheckResult,
    FockBasis,
    FockOracle,
    GridHamiltonian,
    TruncationError,
    bound_check,
    chebyshev_coefficients,
    fock_bound,
    fock_vector,
    squeezed_mode_amplitudes,
    squeezed_vector,
)
from rwafidelity.metrics import delta_n, fidelity_eff
from rwafidelity.states import InitialState, squeezed_pair, vacuum


def build_hamiltonian(p, basis, variant="full"):
    """Dense reference H on the truncated basis, filled entry by entry."""
    c = basis.cutoff
    g_sq = 0.0 if variant == "rwa" else p.g_sq
    h = np.zeros((basis.dim, basis.dim))
    for n_a in range(c + 1):
        for n_b in range(c + 1):
            k = basis.index(n_a, n_b)
            h[k, k] = p.omega_a * n_a + p.omega_b * n_b
            if n_a < c and n_b > 0:
                j = basis.index(n_a + 1, n_b - 1)
                h[j, k] = h[k, j] = p.g_bs * math.sqrt((n_a + 1) * n_b)
            if n_a < c and n_b < c:
                j = basis.index(n_a + 1, n_b + 1)
                h[j, k] = h[k, j] = g_sq * math.sqrt((n_a + 1) * (n_b + 1))
    return h


def materialized(p, basis, variant="full"):
    """The production operator as a matrix: column k is H applied to basis vector k."""
    g_sq = 0.0 if variant == "rwa" else p.g_sq
    return GridHamiltonian.build(p, basis, g_sq)(np.eye(basis.dim)).T


def dense_propagate(h, amplitudes, t):
    energies, modes = np.linalg.eigh(h)
    return modes @ (np.exp(-1j * energies * t) * (modes.T @ amplitudes))


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


class TestBasis:
    def test_dimension(self):
        assert FockBasis(5).dim == 36

    def test_index_roundtrip(self):
        basis = FockBasis(7)
        seen = set()
        for na in range(8):
            for nb in range(8):
                idx = basis.index(na, nb)
                assert basis.occupations(idx) == (na, nb)
                seen.add(idx)
        assert seen == set(range(basis.dim))

    def test_occupation_bounds(self):
        with pytest.raises(ValueError):
            FockBasis(3).index(4, 0)

    def test_cutoff_guard(self):
        with pytest.raises(ValueError):
            FockBasis(0)

    def test_masks_built_once_and_read_only(self):
        basis = FockBasis(4)
        assert basis.number_vector is basis.number_vector
        assert basis.boundary_mask is basis.boundary_mask
        assert basis.number_vector[basis.index(3, 4)] == 7.0
        assert basis.boundary_mask.sum() == 2 * 4 + 1
        for arr in (basis.number_vector, basis.boundary_mask):
            with pytest.raises(ValueError):
                arr[0] = 1


class TestHamiltonian:
    def test_free_is_diagonal(self):
        basis = FockBasis(3)
        h = materialized(OscillatorParams(1.0, 2.0), basis)
        assert np.allclose(h, np.diag(np.diag(h)))
        assert h[basis.index(2, 1), basis.index(2, 1)] == pytest.approx(4.0)

    def test_hermitian(self):
        h = materialized(OscillatorParams(1.0, 1.3, 0.2, 0.1), FockBasis(6))
        assert np.max(np.abs(h - h.T)) < 1e-14

    def test_pair_creation_element(self):
        basis = FockBasis(3)
        h = materialized(OscillatorParams(1.0, 1.0, 0.1, 0.1), basis)
        assert h[basis.index(1, 1), basis.index(0, 0)] == pytest.approx(0.1)

    def test_beam_splitter_element(self):
        basis = FockBasis(3)
        h = materialized(OscillatorParams(1.0, 1.0, 0.1, 0.1), basis)
        assert h[basis.index(2, 1), basis.index(1, 2)] == pytest.approx(0.1 * math.sqrt(2 * 2))

    def test_rwa_commutes_with_number(self):
        basis = FockBasis(6)
        h = materialized(OscillatorParams(1.0, 1.0, 0.3, 0.3), basis, variant="rwa")
        n_op = np.diag(basis.number_vector)
        assert np.max(np.abs(h @ n_op - n_op @ h)) < 1e-12

    @pytest.mark.parametrize("name", PARAMS)
    @pytest.mark.parametrize("variant", ["full", "rwa"])
    def test_matches_reference_fill(self, name, variant):
        for cutoff in (1, 5, 8):
            basis = FockBasis(cutoff)
            ref = build_hamiltonian(PARAMS[name], basis, variant)
            assert np.max(np.abs(materialized(PARAMS[name], basis, variant) - ref)) < 1e-15

    def test_stacked_copies_act_independently(self):
        p, basis = PARAMS["mixed-sign"], FockBasis(5)
        psi = np.random.default_rng(1).normal(size=2 * basis.dim)
        pair = GridHamiltonian.build(p, basis, (p.g_sq, 0.0))(psi)
        assert np.max(np.abs(pair[: basis.dim] - build_hamiltonian(p, basis) @ psi[: basis.dim])) < 1e-14
        assert np.max(np.abs(pair[basis.dim :] - build_hamiltonian(p, basis, "rwa") @ psi[basis.dim :])) < 1e-14

    @pytest.mark.parametrize("name", PARAMS)
    def test_gershgorin_bounds_contain_spectrum(self, name):
        basis = FockBasis(8)
        lo, hi = GridHamiltonian.build(PARAMS[name], basis, PARAMS[name].g_sq).spectral_bounds()
        energies = np.linalg.eigvalsh(build_hamiltonian(PARAMS[name], basis))
        assert lo <= energies[0] and energies[-1] <= hi


class TestChebyshev:
    def test_coefficients_match_bessel(self):
        special = pytest.importorskip("scipy.special")
        for x in (0.0, 1e-9, 0.3, 5.0, -12.5, 90.0, 700.0):
            coeffs = chebyshev_coefficients(x)
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
        coeffs = chebyshev_coefficients(x)
        got = np.polynomial.chebyshev.chebval(y, coeffs)
        assert np.max(np.abs(got - np.exp(-1j * x * y))) < 1e-15 * (10.0 + abs(x))


class TestPropagation:
    def test_time_zero(self):
        oracle = FockOracle(OscillatorParams(1.0, 1.0, 0.1, 0.1), 4)
        psi = fock_vector(oracle.basis, 1, 2)
        full, rwa, _ = oracle.evolved_pair(InitialState("fock", n_a=1, n_b=2), 0.0)
        assert np.allclose(full.amplitudes, psi.amplitudes, atol=1e-14)
        assert np.allclose(rwa.amplitudes, psi.amplitudes, atol=1e-14)

    def test_diagonal_hamiltonian_rotates_phases(self):
        p = OscillatorParams(1.0, 2.0)
        oracle = FockOracle(p, 12)
        psi, _ = squeezed_vector(oracle.basis, 0.1)
        full, _, _ = oracle.evolved_pair(InitialState("squeezed", s=0.1), 1.3)
        expected = psi.amplitudes * np.exp(-1j * np.diag(build_hamiltonian(p, oracle.basis)) * 1.3)
        assert np.allclose(full.amplitudes, expected, atol=1e-12)

    def test_norm_preserved(self):
        oracle = FockOracle(OscillatorParams(1.0, 1.0, 0.2, 0.2), 12)
        full, rwa, _ = oracle.evolved_pair(InitialState("vacuum"), 7.0)
        assert abs(full.norm() - 1.0) < 1e-12
        assert abs(rwa.norm() - 1.0) < 1e-12

    @pytest.mark.parametrize("kind", INPUTS)
    @pytest.mark.parametrize("name", PARAMS)
    def test_matches_dense_eigh(self, name, kind):
        p, initial = PARAMS[name], INPUTS[kind]
        oracle = FockOracle(p, 12)
        ts = np.array([-2.5, 0.0, 0.7, 3.0])
        psi0 = fock_vector(oracle.basis, initial.n_a, initial.n_b)
        if kind == "squeezed":
            psi0, _ = squeezed_vector(oracle.basis, initial.s)
        h_full, h_rwa = build_hamiltonian(p, oracle.basis), build_hamiltonian(p, oracle.basis, "rwa")
        n = oracle.basis.number_vector
        grid = oracle.compare(initial, ts)
        for i, t in enumerate(ts):
            ref_full = dense_propagate(h_full, psi0.amplitudes, t)
            ref_rwa = dense_propagate(h_rwa, psi0.amplitudes, t)
            full, rwa, _ = oracle.evolved_pair(initial, t)
            assert np.max(np.abs(full.amplitudes - ref_full)) < 1e-12
            assert np.max(np.abs(rwa.amplitudes - ref_rwa)) < 1e-12
            ref_fid = abs(np.vdot(ref_rwa, ref_full)) ** 2
            ref_dn = np.vdot(ref_full, n * ref_full).real - np.vdot(ref_rwa, n * ref_rwa).real
            assert abs(grid.fidelity[i] - ref_fid) < 1e-12
            assert abs(grid.delta_n[i] - ref_dn) < 1e-12

    def test_rwa_conserves_number(self):
        p = OscillatorParams(1.0, 1.0, 0.3, 0.3)
        oracle = FockOracle(p, 14)
        _, out, _ = oracle.evolved_pair(InitialState("fock", n_a=2, n_b=1), 5.0)
        assert out.number_expectation() == pytest.approx(3.0, abs=1e-10)

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

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            squeezed_vector(FockBasis(10), 2.0)

    def test_recorded_tail_small(self):
        _, discarded = squeezed_vector(FockBasis(40), 0.2)
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

    def test_fidelity_bounded(self):
        p = OscillatorParams(1.0, 1.0, 0.2, 0.2)
        oracle = FockOracle(p, 24)
        for t in np.linspace(0.0, 8.0, 9):
            assert oracle.compare(InitialState("vacuum"), t).fidelity <= 1.0 + 1e-10


class TestFockBound:
    def test_printed_value(self):
        assert fock_bound(0, 0, 0.1, 1.0, 1.0) == pytest.approx(10.88, abs=1e-12)

    def test_zero_coupling(self):
        assert fock_bound(2, 1, 0.0, 1.0, 5.0) == 0.0

    def test_doubling_g_at_fixed_gt(self):
        base = fock_bound(1, 1, 0.05, 1.0, 2.0)
        assert fock_bound(1, 1, 0.1, 1.0, 1.0) == pytest.approx(2.0 * base, abs=1e-12)

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
        p = OscillatorParams(1.0, 1.0, 0.05, 0.05)
        with pytest.raises(ValueError, match="doubles the cutoff"):
            bound_check(0, 0, p, 1.0, MAX_CUTOFF // 2 + 1)
        assert bound_check(0, 0, p, 0.5, MAX_CUTOFF // 2).satisfied

    def test_preconditions(self):
        with pytest.raises(ValueError):
            bound_check(0, 0, OscillatorParams(1.0, 1.2, 0.05, 0.05), 1.0, 8)
        with pytest.raises(ValueError):
            bound_check(0, 0, OscillatorParams(1.0, 1.0, 0.05, 0.02), 1.0, 8)
