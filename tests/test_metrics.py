import numpy as np
import pytest

from reference import (
    covariance,
    diagonalize,
    gaussian_fidelity,
    mat_exp,
    number_moments,
    oracle_delta_n,
    oracle_fidelity,
    thermal,
    vacuum_fidelity_moments,
)
from rwafidelity.dynamics import (
    OMEGA,
    OscillatorParams,
    SymplecticMatrix,
    check_bogoliubov,
    hamiltonian_matrix,
    rwa_block,
    time_evolution,
)
from rwafidelity import metrics
from rwafidelity.metrics import bloch_messiah, delta_n, fidelity_eff, gaussian_grid
from rwafidelity.states import InitialState, squeezed_pair, vacuum


def random_factor(rng) -> SymplecticMatrix:
    """Pure-state factor with generic squeezing: product of two evolutions."""
    p1 = OscillatorParams(1.0, 1.3, 0.25, 0.25)
    p2 = OscillatorParams(0.8, 1.1, 0.0, 0.3)
    s = time_evolution(p1, rng.uniform(0, 5)) @ time_evolution(p2, rng.uniform(0, 5))
    return s


def delta_n_from_trace(factor: SymplecticMatrix, p: OscillatorParams, t: float) -> float:
    """delta_n from its covariance-trace definition: reference for the block formula."""
    sigma0 = covariance(factor).sigma
    s4 = time_evolution(p, t).matrix
    return float(np.real(np.trace(s4 @ sigma0 @ s4.conj().T) - np.trace(sigma0)) / 4.0)


class TestGaussianFidelity:
    def test_identical_pure_states(self):
        cov = covariance(squeezed_pair(0.3))
        assert gaussian_fidelity(cov, cov) == pytest.approx(1.0, abs=1e-10)

    def test_vacuum_vs_squeezed_pair(self):
        got = gaussian_fidelity(covariance(vacuum()), covariance(squeezed_pair(0.4)))
        assert got == pytest.approx(1.0 / np.cosh(0.4) ** 2, abs=1e-9)

    def test_identical_thermal_states(self):
        assert gaussian_fidelity(thermal(2.0), thermal(2.0)) == pytest.approx(1.0, abs=1e-10)

    def test_vacuum_vs_thermal(self):
        nu = 3.0
        got = gaussian_fidelity(covariance(vacuum()), thermal(nu))
        assert got == pytest.approx(4.0 / (1.0 + nu) ** 2, abs=1e-10)

    def test_pure_state_reduction_of_formula(self):
        # for pure inputs Lambda vanishes, Gamma = Delta, and F = 4/sqrt(Gamma)
        rng = np.random.default_rng(30)
        for _ in range(10):
            c1 = covariance(random_factor(rng))
            c2 = covariance(random_factor(rng))
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
            f = gaussian_fidelity(covariance(random_factor(rng)), covariance(random_factor(rng)))
            assert 0.0 <= f <= 1.0


class TestEffectiveBogoliubov:
    def test_time_zero(self):
        grid = gaussian_grid(squeezed_pair(0.3), OscillatorParams(1.0, 1.0, 0.1, 0.1), [0.0])
        a_f, b_f = grid.a_f[0], grid.b_f[0]
        assert np.allclose(a_f, np.eye(2), atol=1e-12)
        assert np.allclose(b_f, 0.0, atol=1e-12)

    def test_uncoupled_vacuum(self):
        p = OscillatorParams(1.0, 1.2, 0.0, 0.0)
        for t in (0.7, 4.0, 20.0):
            b_f = gaussian_grid(vacuum(), p, [t]).b_f[0]
            assert np.max(np.abs(b_f)) < 1e-12

    def test_recurrence_vacuum(self):
        p = OscillatorParams(1.0, 1.0, 0.3, 0.3)
        t_star = 2.0 * np.pi / diagonalize(p).kappa_minus
        b_f = gaussian_grid(vacuum(), p, [t_star]).b_f[0]
        assert np.max(np.abs(b_f)) < 1e-9


class TestFidelityEff:
    def test_time_zero_report(self):
        rep = fidelity_eff(squeezed_pair(0.2), OscillatorParams(1.0, 1.0, 0.1, 0.1), 0.0)
        assert rep.fidelity == pytest.approx(1.0, abs=1e-12)
        assert rep.bures == pytest.approx(0.0, abs=1e-12)
        assert rep.r_plus == pytest.approx(0.0, abs=1e-10)
        assert rep.r_minus == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("scale", [1e-200, 1e-7, 1e7, 1e200])
    def test_columns_are_scale_free(self, scale):
        # scaling every frequency and coupling by lambda and every time by 1/lambda leaves each column as it is
        taus = np.linspace(0.0, 30.0, 61)
        base = gaussian_grid(squeezed_pair(0.4), OscillatorParams(1.0, 1.3, -0.21, 0.13), taus)
        scaled = gaussian_grid(squeezed_pair(0.4), OscillatorParams(scale, 1.3 * scale, -0.21 * scale, 0.13 * scale), taus / scale)
        for name in ("fidelity", "bures", "r_plus", "r_minus"):
            np.testing.assert_allclose(getattr(scaled.report, name), getattr(base.report, name), rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(scaled.delta_n, base.delta_n, rtol=0.0, atol=1e-12)

    def test_report_internal_relations(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            g = rng.uniform(0.01, 0.4)
            s = rng.uniform(-0.5, 0.5)
            t = rng.uniform(0.0, 20.0)
            rep = fidelity_eff(squeezed_pair(s), OscillatorParams(1.0, 1.0, g, g), t)
            assert rep.bures**2 == pytest.approx(2.0 * (1.0 - np.sqrt(rep.fidelity)), abs=1e-12)
            assert rep.fidelity == pytest.approx(1.0 / (np.cosh(rep.r_plus) * np.cosh(rep.r_minus)), abs=1e-10)

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
        passive = SymplecticMatrix(rwa_block(OscillatorParams(1.0, 1.1, 0.2, 0.0), 1.3), np.zeros((2, 2)))
        for t in (0.5, 2.0, 7.0, 15.0):
            assert fidelity_eff(vacuum(), p, t).fidelity == pytest.approx(1.0, abs=1e-10)
            assert fidelity_eff(passive, p, t).fidelity == pytest.approx(1.0, abs=1e-10)

    def test_long_time_matches_high_precision_reference(self):
        mpmath = pytest.importorskip("mpmath")
        p = OscillatorParams(1.0, 1.3, 0.2, 0.05)
        t = 1e7
        rep = fidelity_eff(vacuum(), p, t)
        grid = gaussian_grid(vacuum(), p, [t])
        a_f, b_f = grid.a_f[0], grid.b_f[0]
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

    def test_large_squeezing_matches_high_precision_reference(self):
        # s = 8, general couplings: S_f = I + s0^-1 (S_eff - I) s0 against a
        # 60-digit s0^-1 S_RWA^-1 S s0, with s0 built from the exact cosh and sinh
        mpmath = pytest.importorskip("mpmath")
        p = OscillatorParams(1.0, 1.3, 0.21, 0.13)
        ts = np.array([1e-3, 0.7, 5.0])
        fid = gaussian_grid(squeezed_pair(8.0), p, ts).report.fidelity
        with mpmath.workdps(60):
            c, sh = mpmath.cosh(8), mpmath.sinh(8)
            s0 = mpmath.matrix([[c, 0, sh, 0], [0, c, 0, sh], [sh, 0, c, 0], [0, sh, 0, c]])
            s0_inv = mpmath.matrix([[c, 0, -sh, 0], [0, c, 0, -sh], [-sh, 0, c, 0], [0, -sh, 0, c]])
            for t, f in zip(ts, fid):

                def expm(q):
                    return mpmath.expm(mpmath.matrix((OMEGA @ hamiltonian_matrix(q)).tolist()) * t)

                s_f = s0_inv * expm(OscillatorParams(p.omega_a, p.omega_b, p.g_bs, 0.0)) ** -1 * expm(p) * s0
                b_ref = s_f[0:2, 2:4]
                f_ref = float(1 / mpmath.sqrt(mpmath.re(mpmath.det(mpmath.eye(2) + b_ref.H * b_ref))))
                assert abs(f - f_ref) <= 1e-8 * f_ref

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
            b_f = gaussian_grid(squeezed_pair(0.2), OscillatorParams(1.0, 1.0, 0.1, 0.1), [rng.uniform(0, 10)]).b_f[0]
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


class TestCrossCheckLimits:
    """What the internal checks of `gaussian_grid` can and cannot see.

    The A/B fidelity check allows CROSS_CHECK_TOL * max(1, F), which is
    absolute for F <= 1, and the S_f Bogoliubov check is absolute for blocks
    of unit size.  Both are documented limits, recorded here with numbers.
    """

    def test_routes_agree_to_relative_1e_8_below_the_bound(self):
        # 300 stable couplings at least 1e-4 (relative) below |g_bs|+|g_sq| = sqrt(wa*wb),
        # |s| <= 10, t <= 1e4.  Seed 0 reaches 1.6e-12; over seeds 0-29 of this draw the largest
        # relative A/B gap per seed had median 2.7e-11 and maximum 1.1e-8, and 0.14% of draws
        # exceeded 1e-10.  Nearer the bound the gap grows (next test)
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(300):
            wb = rng.uniform(0.5, 2.0)
            total = (1.0 - 10.0 ** rng.uniform(-4.0, 0.0)) * np.sqrt(wb)
            share, (sign_bs, sign_sq) = rng.uniform(), rng.choice([-1.0, 1.0], 2)
            p = OscillatorParams(1.0, wb, sign_bs * share * total, sign_sq * (1.0 - share) * total)
            grid = gaussian_grid(squeezed_pair(rng.uniform(-10.0, 10.0)), p, [rng.uniform(0.0, 1e4)])
            f_a = 1.0 / abs(np.linalg.det(grid.a_f[0]))
            f_b = grid.report.fidelity[0]
            worst = max(worst, abs(f_b - f_a) / f_b)
        assert worst <= 1e-8

    def test_near_the_bound_the_reported_fidelity_drifts_unseen(self):
        # 2.5e-9 (relative) below the bound, s = 5.8, t = 4650: F ~ 2e-11, so the absolute A/B
        # check passes while the reported B route 1/sqrt(det(I + B_f^dag B_f)) is off by 1.5e-4
        # relative; the A route 1/|det A_f| stays within 1e-10 of a 60-digit reference
        mpmath = pytest.importorskip("mpmath")
        p = OscillatorParams(1.0, 1.7817465554683207, 0.6898820195848263, -0.6449387723381426)
        s, t = 5.800306359615998, 4649.9230017547725
        grid = gaussian_grid(squeezed_pair(s), p, [t])
        with mpmath.workdps(60):
            c, sh = mpmath.cosh(s), mpmath.sinh(s)
            s0 = mpmath.matrix([[c, 0, sh, 0], [0, c, 0, sh], [sh, 0, c, 0], [0, sh, 0, c]])
            s0_inv = mpmath.matrix([[c, 0, -sh, 0], [0, c, 0, -sh], [-sh, 0, c, 0], [0, -sh, 0, c]])

            def expm(q):
                return mpmath.expm(mpmath.matrix((OMEGA @ hamiltonian_matrix(q)).tolist()) * t)

            s_f = s0_inv * expm(OscillatorParams(p.omega_a, p.omega_b, p.g_bs, 0.0)) ** -1 * expm(p) * s0
            b_ref = s_f[0:2, 2:4]
            f_ref = float(1 / mpmath.sqrt(mpmath.re(mpmath.det(mpmath.eye(2) + b_ref.H * b_ref))))
        assert abs(1.0 / abs(np.linalg.det(grid.a_f[0])) - f_ref) < 1e-9 * f_ref
        assert abs(grid.report.fidelity[0] - f_ref) > 1e-6 * f_ref

    def test_bogoliubov_check_misses_a_small_relative_error(self):
        # the entries A_f[0, 1] of `fidelity-scan --g 0.05` are of order 1e-3: a relative
        # error of 1e-8 in them shifts the identities by 1e-11, under the limit of 2e-10
        ts = np.linspace(0.0, 10.0, 101)
        grid = gaussian_grid(vacuum(), OscillatorParams(1.0, 1.0, 0.05, 0.05), ts)
        a_f = grid.a_f.copy()
        a_f[..., 0, 1] *= 1.0 + 1e-8
        assert np.max(np.abs(a_f[..., 0, 1])) < 2e-3
        check_bogoliubov(a_f, grid.b_f, ts, "S_f")


class TestGridChecksFire:
    """Each internal check of `gaussian_grid` raises ArithmeticError and names the first failing t."""

    P = OscillatorParams(1.0, 1.0, 0.1, 0.1)

    def test_s_f_check(self):
        # a factor that is not symplectic (its checks bypassed): S_eff is exact, but
        # S_f = I + alpha0^dag X s0 - beta0^T X* s0' is not, once X != 0, so first at t = 0.5
        factor = object.__new__(SymplecticMatrix)
        object.__setattr__(factor, "alpha", 1.5 * np.eye(2, dtype=complex))
        object.__setattr__(factor, "beta", np.zeros((2, 2), dtype=complex))
        with pytest.raises(ArithmeticError, match="^S_f violates the Bogoliubov identities at t=0.5 "):
            gaussian_grid(factor, self.P, [0.0, 0.5, 1.0])

    def test_fidelity_cross_check(self, monkeypatch):
        # the B route off by 1e-6 relative: the A route 1/|det A_f| disagrees from t = 0 on
        gram_report = metrics._gram_report
        monkeypatch.setattr(metrics, "_gram_report", lambda b: (lambda f, *r: ((1.0 + 1e-6) * f, *r))(*gram_report(b)))
        with pytest.raises(ArithmeticError, match="^fidelity routes disagree at t=0: "):
            gaussian_grid(squeezed_pair(0.3), self.P, [0.0, 0.5])


class TestHighPrecisionSweep:
    """The mode-table route against a 60-digit reference over random draws of the stable domain."""

    @staticmethod
    def reference(mpmath, p: OscillatorParams, s: float, t: float) -> list[float]:
        """(F, bures, r_+, r_-, delta_n) from s0^-1 S_RWA^-1 S s0, with S = expm, S_RWA from the RWA modes."""
        with mpmath.workdps(60):
            c, sh = mpmath.cosh(s), mpmath.sinh(s)
            s0 = mpmath.matrix([[c, 0, sh, 0], [0, c, 0, sh], [sh, 0, c, 0], [0, sh, 0, c]])
            s0_inv = mpmath.matrix([[c, 0, -sh, 0], [0, c, 0, -sh], [-sh, 0, c, 0], [0, -sh, 0, c]])
            full = mpmath.expm(mpmath.matrix((OMEGA @ hamiltonian_matrix(p)).tolist()) * t)
            nu, v = mpmath.eigsy(mpmath.matrix([[p.omega_a, p.g_bs], [p.g_bs, p.omega_b]]))
            u_inv = v * mpmath.diag([mpmath.expj(nu[k] * t) for k in range(2)]) * v.T
            rwa_inv = mpmath.zeros(4, 4)
            rwa_inv[:2, :2], rwa_inv[2:, 2:] = u_inv, u_inv.conjugate()
            b = (s0_inv * rwa_inv * full * s0)[0:2, 2:4]
            fid = 1 / mpmath.sqrt(mpmath.re(mpmath.det(mpmath.eye(2) + b.H * b)))
            sv = mpmath.svd_c(b, compute_uv=False)
            # the RWA evolution is passive, so the surplus is |beta(S s0)|^2 - |beta0|^2
            beta = (full * s0)[0:2, 2:4]
            dn = sum(abs(beta[i, j]) ** 2 for i in range(2) for j in range(2)) - 2 * sh**2
            bures = mpmath.sqrt(2 * (1 - mpmath.sqrt(fid)))
            return [float(x) for x in (fid, bures, mpmath.asinh(max(sv)), mpmath.asinh(min(sv)), dn)]

    def test_random_draws_stay_in_the_envelope(self):
        # 40 draws: couplings 1e-4 to 1 (relative) below |g_bs|+|g_sq| = sqrt(wa*wb), |s| <= 8, t from
        # 1e-2 to 1e4.  Worst relative errors on these draws, stacked 2x2 route / mode-table route:
        # F 6.8e-12 / 7.8e-12, bures 6.9e-13 / 6.9e-13, r_+ 1.9e-13 / 2.1e-13, r_- 2.3e-11 / 2.3e-11,
        # delta_n 1.5e-10 / 1.3e-10.  Each bound is twice the first, rounded up to a 1-2-5 step
        mpmath = pytest.importorskip("mpmath")
        bounds = {"fidelity": 2e-11, "bures": 2e-12, "r_plus": 5e-13, "r_minus": 5e-11, "delta_n": 5e-10}
        rng = np.random.default_rng(0)
        worst = dict.fromkeys(bounds, 0.0)
        for _ in range(40):
            wb = rng.uniform(0.5, 2.0)
            total = (1.0 - 10.0 ** rng.uniform(-4.0, 0.0)) * np.sqrt(wb)
            share, (sign_bs, sign_sq) = rng.uniform(), rng.choice([-1.0, 1.0], 2)
            p = OscillatorParams(1.0, wb, sign_bs * share * total, sign_sq * (1.0 - share) * total)
            s, t = rng.uniform(-8.0, 8.0), 10.0 ** rng.uniform(-2.0, 4.0)
            grid = gaussian_grid(squeezed_pair(s), p, [t])
            got = [*(getattr(grid.report, name)[0] for name in list(bounds)[:4]), grid.delta_n[0]]
            for name, g, r in zip(bounds, got, self.reference(mpmath, p, s, t)):
                worst[name] = max(worst[name], abs(g - r) / abs(r))
        assert all(worst[name] <= bound for name, bound in bounds.items()), worst


class TestSymmetries:
    """Exact symmetries of the problem, which need no reference: the reported columns F, delta_n, r_+ and r_-."""

    @staticmethod
    def columns(p: OscillatorParams, s: float, t: np.ndarray) -> np.ndarray:
        grid = gaussian_grid(squeezed_pair(s), p, t)
        return np.stack([grid.report.fidelity, grid.delta_n, grid.report.r_plus, grid.report.r_minus])

    def test_random_draws_keep_their_symmetries(self):
        # 20 draws: omega_b in [0.5, 2], couplings of either sign 1e-4 to 1 (relative) below the bound, s in [-2, 2]
        # and 64 times in [0, 50].  b -> -b, (g_bs, g_sq) -> (-g_bs, -g_sq), and t -> -t (H is real) left every column
        # bit for bit; swapping omega_a and omega_b moved them by at most 3.5e-11, and (omega, g, t) -> (2^k omega,
        # 2^k g, t / 2^k), |k| <= 8, by at most 1.2e-12, each relative to max(1, |x|); 2528 of the 5120 scaled values
        # stayed bit-equal
        rng = np.random.default_rng(7)
        worst = {"swap": 0.0, "scale": 0.0}
        for _ in range(20):
            wb = rng.uniform(0.5, 2.0)
            total = (1.0 - 10.0 ** rng.uniform(-4.0, 0.0)) * np.sqrt(wb)
            share, (sign_bs, sign_sq) = rng.uniform(), rng.choice([-1.0, 1.0], 2)
            p = OscillatorParams(1.0, wb, sign_bs * share * total, sign_sq * (1.0 - share) * total)
            s, t, k = rng.uniform(-2.0, 2.0), rng.uniform(0.0, 50.0, 64), int(rng.integers(-8, 9))
            base = self.columns(p, s, t)
            assert np.array_equal(self.columns(OscillatorParams(1.0, wb, -p.g_bs, -p.g_sq), s, t), base)
            assert np.array_equal(self.columns(p, s, -t), base)
            swapped = self.columns(OscillatorParams(wb, 1.0, p.g_bs, p.g_sq), s, t)
            scaled = self.columns(OscillatorParams(*(2.0**k * x for x in (1.0, wb, p.g_bs, p.g_sq))), s, t / 2.0**k)
            for name, got in (("swap", swapped), ("scale", scaled)):
                worst[name] = max(worst[name], float(np.max(np.abs(got - base) / np.maximum(1.0, np.abs(base)))))
        assert worst["swap"] <= 1e-10 and worst["scale"] <= 1e-11, worst
