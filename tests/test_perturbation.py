import numpy as np
import pytest

from reference import q_epsilon_linear, q_resonant_closed
from rwafidelity.dynamics import OscillatorParams
from rwafidelity.metrics import fidelity_eff
from rwafidelity.perturbation import (
    PerturbativeRegime,
    c2_coefficient,
    convergence_order,
    fit_loglog_slope,
    ladder_regimes,
    perturbative_family,
    q_coefficients,
    vacuum_perturbative_bures_sq,
    vacuum_perturbative_fidelity,
)
from rwafidelity.states import squeezed_pair, vacuum

LADDER = (0.1, 0.05, 0.025)


class TestRegime:
    def test_coupling_range(self):
        with pytest.raises(ValueError):
            PerturbativeRegime(0.0, 1.0)
        with pytest.raises(ValueError):
            PerturbativeRegime(0.5, 1.0)

    @pytest.mark.parametrize("s", [float("nan"), 11.0, True, 0.3 + 0j])
    def test_squeezing_is_checked_as_the_initial_state_checks_it(self, s):
        with pytest.raises(ValueError, match="finite real number|required"):
            PerturbativeRegime(0.05, 1.0, s=s)
        assert type(PerturbativeRegime(0.05, 1.0, s=np.float32(0.5)).s) is float

    def test_covers_the_family_up_to_its_edge(self):
        # off exact resonance the family reaches a g_tilde whose resonant params (1, 1, g, g) are refused as unstable
        g = 0.5 * (1.0 - 1e-9)
        assert perturbative_family(OscillatorParams(1.0, 1.0 + 4e-13, g, g))
        assert PerturbativeRegime(g, 1.0).flags == ("g2tau-outside-window",)

    def test_window_flags(self):
        assert PerturbativeRegime(0.05, 1.0).flags == ()
        assert PerturbativeRegime(0.1, 50.0).flags == ("g2tau-outside-window",)

    def test_laws_broadcast_over_tau(self):
        # an array of taus gives what the per-tau loop gives; numpy's array
        # sin/cos may differ from the scalar call in the last bit
        taus = np.linspace(0.0, 40.0, 2001)
        for law, s in ((c2_coefficient, 0.3), (vacuum_perturbative_fidelity, 0.0), (vacuum_perturbative_bures_sq, 0.0)):
            looped = np.array([law(PerturbativeRegime(0.05, tau, s=s)) for tau in taus.tolist()])
            atol = 4.0 * np.finfo(float).eps * np.max(np.abs(looped))
            np.testing.assert_allclose(law(PerturbativeRegime(0.05, taus, s=s)), looped, rtol=0.0, atol=atol)
        assert "g2tau-outside-window" in PerturbativeRegime(0.05, taus).flags
        with pytest.raises(ValueError):
            PerturbativeRegime(0.05, np.array([1.0, -1.0]))


class TestQCoefficients:
    def test_zero_coupling_limit(self):
        assert q_resonant_closed(0.0) == (1.0, 1.0, -1.0, -1.0)
        got = q_coefficients(OscillatorParams(1.0, 1.0, 1e-8, 1e-8))
        assert got == pytest.approx((1.0, 1.0, -1.0, -1.0), abs=1e-9)

    def test_resonant_closed_forms_are_exact(self):
        for g in LADDER:
            got = q_coefficients(OscillatorParams(1.0, 1.0, g, g))
            assert got == pytest.approx(q_resonant_closed(g), abs=1e-12)

    def test_printed_value(self):
        _, q2, _, _ = q_coefficients(OscillatorParams(1.0, 1.0, 0.1, 0.1))
        assert q2 == pytest.approx(0.99 / np.sqrt(0.96), abs=1e-12)
        assert q2 == pytest.approx(1.0104145188980604, abs=1e-12)

    def test_taylor_residual_is_cubic(self):
        residuals = {2: [], 3: [], 4: []}
        for g in LADDER:
            q = q_coefficients(OscillatorParams(1.0, 1.0, g, g))
            taylor = (1.0, 1.0 + g**2, -1.0 - g**2 / 2.0, -1.0 - g**2 / 2.0)
            assert abs(q[0] - taylor[0]) < 1e-12
            for j in (1, 2, 3):
                residuals[j + 1].append(abs(q[j] - taylor[j]))
        for j in (2, 3, 4):
            assert fit_loglog_slope(np.array(LADDER), np.array(residuals[j])) >= 2.8

    def test_detuned_residual_is_quadratic_in_epsilon(self):
        g = 0.1
        res = []
        eps_values = (1e-3, 5e-4, 2.5e-4)
        for eps in eps_values:
            exact = np.array(q_coefficients(OscillatorParams(1.0, 1.0 + eps, g, g)))
            linear = np.array(q_epsilon_linear(g, eps))
            res.append(np.max(np.abs(exact - linear)))
        slope = fit_loglog_slope(np.array(eps_values), np.array(res))
        assert slope >= 1.9


    def test_slope_fit_refusals(self):
        with pytest.raises(ValueError, match="^at least two points are needed for a slope$"):
            fit_loglog_slope([0.1], [0.01])
        for x, y in (([0.1, 0.0], [0.01, 0.001]), ([0.1, 0.05], [0.01, -0.001])):
            with pytest.raises(ValueError, match="^slope fit requires positive data$"):
                fit_loglog_slope(x, y)


class TestVacuumLaw:
    def test_tiny_coupling_is_unity(self):
        regime = PerturbativeRegime(1e-8, 3.0)
        assert vacuum_perturbative_fidelity(regime) == pytest.approx(1.0, abs=1e-15)

    def test_exact_at_commensurate_times(self):
        # kappa ratio 2 at g = 0.3: both sines vanish at multiples of the slow period
        regime = PerturbativeRegime(0.3, 2.0 * np.pi / np.sqrt(0.4))
        assert vacuum_perturbative_fidelity(regime) == pytest.approx(1.0, abs=1e-12)

    def test_matches_exact_fidelity(self):
        regime = PerturbativeRegime(0.01, 5.0)
        exact = fidelity_eff(vacuum(), regime.params(), 5.0).fidelity
        assert abs(exact - vacuum_perturbative_fidelity(regime)) < 5e-6

    def test_deficit_bounded_by_g_squared(self):
        for g in (0.02, 0.1, 0.3):
            for tau in np.linspace(0.0, 30.0, 40):
                regime = PerturbativeRegime(g, tau)
                assert 0.0 <= 1.0 - vacuum_perturbative_fidelity(regime) <= g**2

    def test_bures_companion(self):
        # D_B^2 = 2(1 - sqrt(F)) holds to the order both expansions carry
        regime = PerturbativeRegime(0.05, 3.0)
        f = vacuum_perturbative_fidelity(regime)
        d2 = vacuum_perturbative_bures_sq(regime)
        assert d2 == pytest.approx(2.0 * (1.0 - np.sqrt(f)), abs=2.0 * regime.g_tilde**4)

    def test_requires_resonance(self):
        # a regime is resonant by construction; a detuned point is outside the family the laws are asked for in
        assert PerturbativeRegime(0.05, 1.0).params().resonant
        assert not perturbative_family(OscillatorParams(1.0, 1.01, 0.05, 0.05))


class TestC2:
    def test_vacuum_reduction(self):
        for g in (0.01, 0.1):
            for tau in (0.7, 3.0, 12.0):
                got = c2_coefficient(PerturbativeRegime(g, tau, s=0.0))
                assert got == pytest.approx(1.0 - np.cos(2 * tau) * np.cos(2 * g * tau), abs=1e-12)

    def test_vacuum_c2_matches_sine_form_to_first_order(self):
        g = 0.05
        taus = np.linspace(0.0, 20.0, 41)
        kp, km = np.sqrt(1 + 2 * g), np.sqrt(1 - 2 * g)
        worst = max(
            abs(c2_coefficient(PerturbativeRegime(g, t)) - (np.sin(kp * t) ** 2 + np.sin(km * t) ** 2))
            for t in taus
        )
        assert worst <= g

    def test_nonnegative_at_zero_squeezing(self):
        for tau in np.linspace(0.0, 1000.0, 500):
            assert c2_coefficient(PerturbativeRegime(0.01, tau)) >= -1e-12

    def test_bounded_on_long_grid(self):
        for tau in np.linspace(0.0, 1000.0, 500):
            assert abs(c2_coefficient(PerturbativeRegime(0.01, tau, s=0.1))) < 10.0

    def test_predicts_inverse_square_fidelity(self):
        g, s = 0.02, 0.1
        for tau in (1.0, 5.0, 12.0):
            regime = PerturbativeRegime(g, tau, s=s)
            exact = fidelity_eff(squeezed_pair(s), regime.params(), tau).fidelity
            assert exact**-2 == pytest.approx(1.0 + c2_coefficient(regime) * g**2, abs=5e-5)


class TestConvergenceOrder:
    def test_vacuum_order_two(self):
        slope = convergence_order(ladder_regimes(LADDER, g_tau=0.5))
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_squeezed_order_two(self):
        slope = convergence_order(ladder_regimes(LADDER, g_tau=0.5, s=0.2))
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_zero_deficit_points_excluded(self):
        regimes = ladder_regimes(LADDER, g_tau=0.5)
        with_zeros = regimes + [PerturbativeRegime(g, 0.0) for g in LADDER]
        assert convergence_order(with_zeros) == pytest.approx(convergence_order(regimes), abs=1e-12)

    @pytest.mark.parametrize("s", [0.0, 0.2])
    def test_matches_scalar_loop(self, s):
        # one fidelity_eff call per tau: the loop the batched rungs replace; the last regime joins a rung
        regimes = ladder_regimes(LADDER, g_tau=0.5, s=s) + [PerturbativeRegime(0.05, 3.0, s=s)]
        rungs = {}
        for regime in regimes:
            factor = vacuum() if regime.s == 0.0 else squeezed_pair(regime.s)
            for tau in np.atleast_1d(regime.tau):
                deficit = 1.0 - fidelity_eff(factor, regime.params(), tau).fidelity
                rungs[regime.g_tilde] = max(rungs.get(regime.g_tilde, 0.0), deficit)
        ladder = sorted(rungs.items())
        slope = fit_loglog_slope([g for g, _ in ladder], [d for _, d in ladder])
        assert abs(convergence_order(regimes) - slope) < 1e-12

    def test_insufficient_ladder(self):
        with pytest.raises(ValueError):
            convergence_order(ladder_regimes([0.1, 0.05], g_tau=0.5))
