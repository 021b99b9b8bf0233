import numpy as np
import pytest

from reference import diagonalize, gaussian_fidelity, mat_exp, oracle_delta_n, oracle_fidelity, thermal
from rwafidelity.dynamics import OMEGA, OscillatorParams, SymplecticMatrix, hamiltonian_matrix, rwa_block, time_evolution
from rwafidelity.metrics import (
    bloch_messiah,
    delta_n,
    effective_bogoliubov,
    fidelity_eff,
    number_moments,
    vacuum_fidelity_moments,
)
from rwafidelity.states import InitialState, PureStateFactor, squeezed_pair, vacuum


def random_factor(rng) -> PureStateFactor:
    """Pure-state factor with generic squeezing: product of two evolutions."""
    p1 = OscillatorParams(1.0, 1.3, 0.25, 0.25)
    p2 = OscillatorParams(0.8, 1.1, 0.0, 0.3)
    s = time_evolution(p1, rng.uniform(0, 5)) @ time_evolution(p2, rng.uniform(0, 5))
    return PureStateFactor(s)


def delta_n_from_trace(factor: PureStateFactor, p: OscillatorParams, t: float) -> float:
    """delta_n from its covariance-trace definition: reference for the block formula."""
    sigma0 = factor.covariance.sigma
    s4 = time_evolution(p, t).matrix
    return float(np.real(np.trace(s4 @ sigma0 @ s4.conj().T) - np.trace(sigma0)) / 4.0)


class TestGaussianFidelity:
    def test_identical_pure_states(self):
        cov = squeezed_pair(0.3).covariance
        assert gaussian_fidelity(cov, cov) == pytest.approx(1.0, abs=1e-10)

    def test_vacuum_vs_squeezed_pair(self):
        got = gaussian_fidelity(vacuum().covariance, squeezed_pair(0.4).covariance)
        assert got == pytest.approx(1.0 / np.cosh(0.4) ** 2, abs=1e-9)

    def test_identical_thermal_states(self):
        assert gaussian_fidelity(thermal(2.0), thermal(2.0)) == pytest.approx(1.0, abs=1e-10)

    def test_vacuum_vs_thermal(self):
        nu = 3.0
        got = gaussian_fidelity(vacuum().covariance, thermal(nu))
        assert got == pytest.approx(4.0 / (1.0 + nu) ** 2, abs=1e-10)

    def test_pure_state_reduction_of_formula(self):
        # for pure inputs Lambda vanishes, Gamma = Delta, and F = 4/sqrt(Gamma)
        rng = np.random.default_rng(30)
        for _ in range(10):
            c1 = random_factor(rng).covariance
            c2 = random_factor(rng).covariance
            s1, s2 = c1.sigma, c2.sigma
            ident = np.eye(4)
            gam = np.linalg.det(ident - OMEGA @ s1 @ OMEGA @ s2).real
            lam = (np.linalg.det(ident + 1j * OMEGA @ s1) * np.linalg.det(ident + 1j * OMEGA @ s2)).real
            dlt = np.linalg.det(s1 + s2).real
            assert abs(lam) < 1e-10 * max(1.0, gam)
            assert abs(gam - dlt) < 1e-8 * gam
            assert gaussian_fidelity(c1, c2) == pytest.approx(4.0 / np.sqrt(gam), rel=1e-9)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            f = gaussian_fidelity(random_factor(rng).covariance, random_factor(rng).covariance)
            assert 0.0 <= f <= 1.0


class TestEffectiveBogoliubov:
    def test_time_zero(self):
        a_f, b_f = effective_bogoliubov(squeezed_pair(0.3), OscillatorParams(1.0, 1.0, 0.1, 0.1), 0.0)
        assert np.allclose(a_f, np.eye(2), atol=1e-12)
        assert np.allclose(b_f, 0.0, atol=1e-12)

    def test_uncoupled_vacuum(self):
        p = OscillatorParams(1.0, 1.2, 0.0, 0.0)
        for t in (0.7, 4.0, 20.0):
            _, b_f = effective_bogoliubov(vacuum(), p, t)
            assert np.max(np.abs(b_f)) < 1e-12

    def test_recurrence_vacuum(self):
        p = OscillatorParams(1.0, 1.0, 0.3, 0.3)
        t_star = 2.0 * np.pi / diagonalize(p).kappa_minus
        _, b_f = effective_bogoliubov(vacuum(), p, t_star)
        assert np.max(np.abs(b_f)) < 1e-9


class TestFidelityEff:
    def test_time_zero_report(self):
        rep = fidelity_eff(squeezed_pair(0.2), OscillatorParams(1.0, 1.0, 0.1, 0.1), 0.0)
        assert rep.fidelity == pytest.approx(1.0, abs=1e-12)
        assert rep.bures == pytest.approx(0.0, abs=1e-12)
        assert rep.r_plus == pytest.approx(0.0, abs=1e-10)
        assert rep.r_minus == pytest.approx(0.0, abs=1e-10)

    def test_report_internal_relations(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            g = rng.uniform(0.01, 0.4)
            s = rng.uniform(-0.5, 0.5)
            t = rng.uniform(0.0, 20.0)
            rep = fidelity_eff(squeezed_pair(s), OscillatorParams(1.0, 1.0, g, g), t)
            assert rep.fidelity == pytest.approx(np.cos(2.0 * rep.angle) ** 2, abs=1e-12)
            assert rep.bures**2 == pytest.approx(2.0 * (1.0 - np.sqrt(rep.fidelity)), abs=1e-12)
            assert rep.fidelity == pytest.approx(1.0 / (np.cosh(rep.r_plus) * np.cosh(rep.r_minus)), abs=1e-10)
            assert 0.0 <= rep.angle <= np.pi / 4

    def test_against_fock_oracle_vacuum(self):
        p = OscillatorParams(1.0, 1.0, 0.05, 0.05)
        rep = fidelity_eff(vacuum(), p, 1.0)
        got = oracle_fidelity(p, InitialState("vacuum"), 1.0, 30)
        assert rep.fidelity == pytest.approx(got, abs=1e-6)

    def test_recurrence_full_fidelity(self):
        p = OscillatorParams(1.0, 1.0, 0.3, 0.3)
        t_star = 2.0 * np.pi / diagonalize(p).kappa_minus
        rep = fidelity_eff(vacuum(), p, t_star)
        assert rep.fidelity == pytest.approx(1.0, abs=1e-8)

    def test_no_squeezing_theorem(self):
        # passive dynamics + passive initial state: fidelity identically one
        p = OscillatorParams(1.0, 1.7, 0.5, 0.0)
        passive = PureStateFactor(SymplecticMatrix(rwa_block(OscillatorParams(1.0, 1.1, 0.2, 0.0), 1.3), np.zeros((2, 2))))
        for t in (0.5, 2.0, 7.0, 15.0):
            assert fidelity_eff(vacuum(), p, t).fidelity == pytest.approx(1.0, abs=1e-10)
            assert fidelity_eff(passive, p, t).fidelity == pytest.approx(1.0, abs=1e-10)

    def test_long_time_matches_high_precision_reference(self):
        mpmath = pytest.importorskip("mpmath")
        p = OscillatorParams(1.0, 1.3, 0.2, 0.05)
        t = 1e7
        rep = fidelity_eff(vacuum(), p, t)
        a_f, b_f = effective_bogoliubov(vacuum(), p, t)
        with mpmath.workdps(60):

            def expm(q):
                return mpmath.expm(mpmath.matrix((OMEGA @ hamiltonian_matrix(q)).tolist()) * t)

            # vacuum: s0 = I, so S_f = S_RWA^-1 S
            s_f = expm(OscillatorParams(p.omega_a, p.omega_b, p.g_bs, 0.0)) ** -1 * expm(p)
            b_ref = s_f[0:2, 2:4]
            f_ref = float(1 / mpmath.sqrt(mpmath.re(mpmath.det(mpmath.eye(2) + b_ref.H * b_ref))))
            ref = np.array(s_f.tolist(), dtype=complex)
        assert abs(rep.fidelity - f_ref) < 1e-9 * f_ref
        sv = np.linalg.svd(ref[:2, 2:], compute_uv=False)
        assert (rep.r_plus, rep.r_minus) == pytest.approx(tuple(np.arcsinh(sv)), abs=1e-9)
        # entries carry the phases lambda * t ~ 1e7 rad, which double precision
        # rounds by about t * eps * |lambda| ~ 3e-9
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(a_f - ref[:2, :2])) < 1e-8 * scale
        assert np.max(np.abs(b_f - ref[:2, 2:])) < 1e-8 * scale

    def test_bures_monotone_in_fidelity(self):
        p = OscillatorParams(1.0, 1.0, 0.2, 0.2)
        reports = [fidelity_eff(vacuum(), p, t) for t in np.linspace(0.0, 6.0, 40)]
        by_fid = sorted(reports, key=lambda r: r.fidelity)
        bures = [r.bures for r in by_fid]
        assert all(b1 >= b2 - 1e-12 for b1, b2 in zip(bures, bures[1:]))


class TestBlochMessiah:
    def test_zero_block(self):
        assert bloch_messiah(np.zeros((2, 2))) == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_pure_two_mode_squeezer(self):
        # exp of the pure squeezing generator: both singular values sinh(r)
        r = 0.37
        h_sq = np.zeros((4, 4), dtype=complex)
        h_sq[:2, 2:] = np.array([[0.0, 1.0], [1.0, 0.0]])
        h_sq[2:, :2] = np.array([[0.0, 1.0], [1.0, 0.0]])
        s4 = mat_exp(OMEGA @ h_sq, r)
        got = bloch_messiah(s4[:2, 2:])
        assert got == pytest.approx((r, r), abs=1e-10)

    def test_matches_svd(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            _, b_f = effective_bogoliubov(
                squeezed_pair(0.2), OscillatorParams(1.0, 1.0, 0.1, 0.1), rng.uniform(0, 10)
            )
            sv = np.linalg.svd(b_f, compute_uv=False)
            assert bloch_messiah(b_f) == pytest.approx(tuple(np.arcsinh(sv)), abs=1e-10)


class TestDeltaN:
    def test_time_zero(self):
        assert delta_n(squeezed_pair(0.4), OscillatorParams(1.0, 1.0, 0.2, 0.2), 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_no_counter_rotating_term_no_surplus(self):
        p = OscillatorParams(1.0, 1.5, 0.4, 0.0)
        for s in (0.0, 0.3):
            for t in (0.5, 3.0, 12.0):
                assert delta_n(squeezed_pair(s), p, t) == pytest.approx(0.0, abs=1e-12)

    def test_vacuum_equals_trace_of_b(self):
        p = OscillatorParams(1.0, 1.0, 0.05, 0.05)
        t = 1.0
        s = time_evolution(p, t)
        expected = float(np.real(np.trace(s.beta.conj().T @ s.beta)))
        assert delta_n(vacuum(), p, t) == pytest.approx(expected, abs=1e-14)
        assert delta_n(vacuum(), p, t) == pytest.approx(oracle_delta_n(p, InitialState("vacuum"), t, 30), abs=1e-6)

    def test_squeezed_pair_reduction_formula(self):
        s_par = 0.25
        p = OscillatorParams(1.0, 1.0, 0.1, 0.1)
        t = 2.0
        ev = time_evolution(p, t)
        expected = np.cosh(2 * s_par) * np.trace(ev.beta @ ev.beta.conj().T).real + np.sinh(2 * s_par) * np.trace(
            ev.alpha.conj().T @ ev.beta
        ).real
        assert delta_n(squeezed_pair(s_par), p, t) == pytest.approx(expected, abs=1e-12)

    def test_matches_trace_route_generic_factor(self):
        rng = np.random.default_rng(34)
        p = OscillatorParams(1.0, 1.2, 0.3, 0.3)
        for _ in range(10):
            factor = random_factor(rng)
            t = rng.uniform(0.0, 10.0)
            assert delta_n(factor, p, t) == pytest.approx(delta_n_from_trace(factor, p, t), abs=1e-10)

    def test_matches_oracle_squeezed(self):
        p = OscillatorParams(1.0, 1.0, 0.05, 0.05)
        got = delta_n(squeezed_pair(0.2), p, 2.0)
        ref = oracle_delta_n(p, InitialState("squeezed", s=0.2), 2.0, 30)
        assert got == pytest.approx(ref, abs=1e-6)


class TestVacuumMoments:
    def test_time_zero(self):
        f_inv2, dn, dn2, var = vacuum_fidelity_moments(OscillatorParams(1.0, 1.0, 0.2, 0.2), 0.0)
        assert (f_inv2, dn, dn2, var) == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=1e-12)

    def test_recurrence(self):
        p = OscillatorParams(1.0, 1.0, 0.3, 0.3)
        t_star = 2.0 * np.pi / diagonalize(p).kappa_minus
        f_inv2, dn, dn2, var = vacuum_fidelity_moments(p, t_star)
        assert f_inv2 == pytest.approx(1.0, abs=1e-8)
        assert abs(dn) < 1e-8 and abs(dn2) < 1e-8 and abs(var) < 1e-8

    def test_moment_route_equals_determinant_route(self):
        rng = np.random.default_rng(35)
        for _ in range(25):
            p = OscillatorParams(1.0, 1.0, rng.uniform(0.01, 0.4), 0.0)
            p = OscillatorParams(1.0, 1.0, p.g_bs, p.g_bs)
            t = rng.uniform(0.0, 20.0)
            f_inv2, *_ = vacuum_fidelity_moments(p, t)
            rep = fidelity_eff(vacuum(), p, t)
            assert f_inv2 == pytest.approx(rep.fidelity**-2, rel=1e-10)

    def test_quartic_trace_identity(self):
        # Tr((B+B)^2) against the number-moment combination, both from raw traces
        rng = np.random.default_rng(36)
        for _ in range(25):
            p = OscillatorParams(1.0, 1.0, rng.uniform(0.01, 0.4), rng.uniform(0.01, 0.4))
            s = time_evolution(p, rng.uniform(0.0, 20.0))
            dn, dn2 = number_moments(s.alpha, s.beta)
            m = s.beta.conj().T @ s.beta
            lhs = float(np.real(np.trace(m @ m)))
            rhs = 0.5 * (dn2 - 2.0 * dn - dn**2)
            assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(lhs)))
