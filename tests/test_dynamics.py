import ast
import re
from pathlib import Path

import numpy as np
import pytest

import reference
from reference import (
    closed_rwa_block,
    covariance,
    diagonalize,
    effective_evolution,
    evolution_via_exponential,
    full_evolution,
    inverse,
    mat_exp,
    rwa_evolution,
    symplectic_defect,
)
from rwafidelity.dynamics import (
    OMEGA,
    OscillatorParams,
    SymplecticMatrix,
    UnstableParamsError,
    _det,
    bogoliubov_defects,
    check_bogoliubov,
    critical_coupling,
    evolution_blocks,
    hamiltonian_matrix,
    normal_mode_frequencies,
    rwa_block,
    time_evolution,
)
from rwafidelity.fockoracle import FockOracle, bound_check, fock_bound
from rwafidelity.metrics import delta_n, fidelity_eff, gaussian_grid
from rwafidelity.states import InitialState, squeezed_pair, vacuum


def random_params(rng, equal=False, margin=0.9):
    wa, wb = rng.uniform(0.3, 3.0, 2)
    bound = np.sqrt(wa * wb)
    if equal:
        g = rng.uniform(0.0, margin * bound / 2.0)
        return OscillatorParams(wa, wb, g, g)
    split = rng.uniform(0.0, 1.0)
    total = rng.uniform(0.0, margin * bound)
    return OscillatorParams(wa, wb, split * total, (1.0 - split) * total)


def bogoliubov_family_defects(s: SymplecticMatrix) -> float:
    a, b = s.alpha, s.beta
    i2 = np.eye(2)
    first = max(
        np.max(np.abs(a @ a.conj().T - b @ b.conj().T - i2)),
        np.max(np.abs(a @ b.T - b @ a.T)),
    )
    second = max(
        np.max(np.abs(a.conj().T @ a - b.T @ b.conj() - i2)),
        np.max(np.abs(a.conj().T @ b - b.T @ a.conj())),
    )
    return float(max(first, second))


class TestParams:
    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            OscillatorParams(0.0, 1.0)
        with pytest.raises(ValueError):
            OscillatorParams(1.0, -2.0)

    def test_rejects_critical_coupling(self):
        with pytest.raises(UnstableParamsError, match="critical"):
            OscillatorParams(1.0, 1.0, 0.5, 0.5)
        with pytest.raises(UnstableParamsError):
            OscillatorParams(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(UnstableParamsError):
            OscillatorParams(1.0, 1.0, 0.5 * (1.0 - 1e-10), 0.5 * (1.0 - 1e-10))

    def test_accepts_just_below_critical(self):
        OscillatorParams(1.0, 1.0, 0.4999, 0.4999)

    @pytest.mark.parametrize("scale", [1e-200, 1e-7, 1e7, 1e200])
    def test_resonance_and_stability_are_scale_free(self, scale):
        # the model depends on frequency ratios only: no test may square or multiply two frequencies
        assert OscillatorParams(scale, scale, 0.4 * scale, 0.4 * scale).resonant
        assert not OscillatorParams(scale, 2.0 * scale, 0.1 * scale, 0.1 * scale).resonant
        OscillatorParams(scale, scale, 0.0, (1.0 - 1e-8) * scale)
        with pytest.raises(UnstableParamsError, match="stability bound"):
            OscillatorParams(scale, scale, 10.0 * scale, 0.0)
        assert critical_coupling(OscillatorParams(scale, 4.0 * scale, 0.3 * scale, 0.1 * scale)) == pytest.approx(1.5 * scale, rel=1e-15)

    @pytest.mark.parametrize("bad", ["1.0", None, 1j, float("nan"), float("inf"), True, False])
    def test_rejects_non_real_or_nonfinite(self, bad):
        with pytest.raises(ValueError, match="finite real number"):
            OscillatorParams(1.0, 1.0, bad, 0.0)
        with pytest.raises(ValueError, match="finite real number"):
            OscillatorParams(bad, 1.0)


class TestCriticalCoupling:
    def test_equal_couplings_resonant(self):
        assert critical_coupling(OscillatorParams(1.0, 1.0, 0.1, 0.1)) == pytest.approx(0.5)

    def test_single_coupling_ray(self):
        assert critical_coupling(OscillatorParams(1.0, 1.0, 0.0, 0.3)) == pytest.approx(1.0)
        assert critical_coupling(OscillatorParams(1.0, 1.0, 0.3, 0.0)) == pytest.approx(1.0)

    def test_detuned_equal_couplings(self):
        assert critical_coupling(OscillatorParams(4.0, 1.0, 0.2, 0.2)) == pytest.approx(1.0)

    def test_general_ray(self):
        # boundary along the ray through (0.3, 0.1): larger coupling at crossing
        assert critical_coupling(OscillatorParams(1.0, 1.0, 0.3, 0.1)) == pytest.approx(0.75)

    def test_zero_couplings_quote_equal_pattern(self):
        assert critical_coupling(OscillatorParams(1.0, 1.0)) == pytest.approx(0.5)


class TestHamiltonianMatrix:
    def test_free(self):
        assert np.allclose(hamiltonian_matrix(OscillatorParams(1.0, 1.0)), np.eye(4))

    def test_beam_splitter_blocks(self):
        h = hamiltonian_matrix(OscillatorParams(1.0, 2.0, 0.3, 0.0))
        assert np.allclose(h[:2, :2], [[1.0, 0.3], [0.3, 2.0]])
        assert np.allclose(h[:2, 2:], 0.0)
        assert np.allclose(h, h.conj().T)

    def test_squeezing_block(self):
        h = hamiltonian_matrix(OscillatorParams(1.0, 1.0, 0.1, 0.1))
        assert np.allclose(h[:2, 2:], [[0.0, 0.1], [0.1, 0.0]])


class TestNormalModes:
    def test_free_oscillators(self):
        assert normal_mode_frequencies(OscillatorParams(1.0, 1.0)) == pytest.approx((1.0, 1.0))

    def test_resonant_equal_couplings(self):
        kp, km = normal_mode_frequencies(OscillatorParams(1.0, 1.0, 0.1, 0.1))
        assert kp == pytest.approx(np.sqrt(1.2), abs=1e-12)
        assert km == pytest.approx(np.sqrt(0.8), abs=1e-12)
        assert (kp, km) == pytest.approx((1.095445, 0.894427), abs=1e-6)

    def test_beam_splitter_matches_eigensolver(self):
        p = OscillatorParams(1.0, 2.0, 0.3, 0.0)
        kp, km = normal_mode_frequencies(p)
        assert (kp, km) == pytest.approx((2.08310, 0.91690), abs=1e-4)
        vals = np.sort(np.abs(np.linalg.eigvals(1j * OMEGA @ hamiltonian_matrix(p))))
        assert abs(km - vals[0]) < 1e-9 and abs(kp - vals[-1]) < 1e-9

    def test_agrees_with_eigensolver_random(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            p = random_params(rng)
            kp, km = normal_mode_frequencies(p)
            vals = np.sort(np.abs(np.linalg.eigvals(1j * OMEGA @ hamiltonian_matrix(p))))
            assert abs(km - vals[0]) < 1e-9 * max(1.0, kp)
            assert abs(kp - vals[-1]) < 1e-9 * max(1.0, kp)

    @pytest.mark.parametrize(
        "p",
        [
            OscillatorParams(1.0, 2.0, 0.0, 1.414213),  # kappa_- = 1.6e-6: the quartic is 1.8e-4 off here
            OscillatorParams(1.0, 1.0, 0.4999, 0.4999),
            OscillatorParams(1.0, 1.0, 0.0, 0.999999),
            OscillatorParams(2.0, 0.5, 0.6, -0.39),
            OscillatorParams(1.0, 1.3, -0.21, 0.13),
            OscillatorParams(1.0, 2.0, 0.3, 0.0),
            OscillatorParams(1.0, 1.0),
        ],
    )
    def test_matches_high_precision_quartic(self, p):
        # the quartic formula at 60 digits, from the float inputs: kappa_- to 1e-9 relative even
        # where it is a millionth of kappa_+
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            wa, wb, g_bs, g_sq = (mp.mpf(x) for x in (p.omega_a, p.omega_b, p.g_bs, p.g_sq))
            dg2 = g_bs**2 - g_sq**2
            gamma = mp.sqrt((wa**2 - wb**2) ** 2 + 8 * wa * wb * (g_bs**2 + g_sq**2) + 4 * (wa**2 + wb**2) * dg2)
            exact = [mp.sqrt((wa**2 + wb**2 + 2 * dg2 + sign * gamma) / 2) for sign in (1, -1)]
            for got, want in zip(normal_mode_frequencies(p), exact, strict=True):
                assert abs((got - want) / want) < 1e-9


class TestDiagonalize:
    def test_uncoupled_resonant(self):
        nm = diagonalize(OscillatorParams(1.0, 1.0, 0.0, 0.0))
        assert nm.theta == pytest.approx(np.pi / 4)
        assert np.allclose(nm.diagonalizer.beta, 0.0, atol=1e-15)
        assert np.allclose(nm.diagonalizer.alpha, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15)

    def test_resonant_alpha11(self):
        nm = diagonalize(OscillatorParams(1.0, 1.0, 0.1, 0.1))
        assert nm.diagonalizer.alpha[0, 0].real == pytest.approx(0.7078414409479012, abs=1e-12)

    @pytest.mark.parametrize("wa,wb,g", [(1.0, 1.0, 0.1), (1.0, 2.0, 0.3), (2.0, 1.0, 0.3), (0.7, 1.3, 0.2)])
    def test_reconstruction(self, wa, wb, g):
        p = OscillatorParams(wa, wb, g, g)
        nm = diagonalize(p)
        al, be = nm.diagonalizer.alpha, nm.diagonalizer.beta
        kap = np.diag([nm.kappa_plus, nm.kappa_minus])
        u_rec = al.T @ kap @ al + be.T @ kap @ be
        v_rec = al.T @ kap @ be + be.T @ kap @ al
        h = hamiltonian_matrix(p)
        assert np.max(np.abs(u_rec - h[:2, :2])) < 1e-9
        assert np.max(np.abs(v_rec - h[:2, 2:])) < 1e-9
        assert 0.0 <= nm.theta <= np.pi / 2

    def test_rejects_unequal_couplings(self):
        with pytest.raises(ValueError):
            diagonalize(OscillatorParams(1.0, 1.0, 0.1, 0.2))

    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError):
            diagonalize(OscillatorParams(1.0, 1.0, -0.1, -0.1))


class TestFullEvolution:
    def test_time_zero(self):
        s = full_evolution(diagonalize(OscillatorParams(1.0, 1.3, 0.2, 0.2)), 0.0)
        assert np.allclose(s.alpha, np.eye(2), atol=1e-12)
        assert np.allclose(s.beta, 0.0, atol=1e-12)

    def test_free_evolution_phases(self):
        p = OscillatorParams(1.0, 2.0, 0.0, 0.0)
        s = time_evolution(p, 1.7)
        assert np.allclose(s.alpha, np.diag(np.exp(-1j * np.array([1.0, 2.0]) * 1.7)), atol=1e-12)
        assert np.allclose(s.beta, 0.0, atol=1e-12)

    def test_recurrence_kills_squeezing_block(self):
        p = OscillatorParams(1.0, 1.0, 0.3, 0.3)
        nm = diagonalize(p)
        assert nm.kappa_plus / nm.kappa_minus == pytest.approx(2.0, abs=1e-12)
        t_star = 2.0 * np.pi / nm.kappa_minus
        s = full_evolution(nm, t_star)
        assert np.max(np.abs(s.beta)) < 1e-9
        assert symplectic_defect(s) < 1e-10

    def test_alpha_block_is_symmetric(self):
        s = time_evolution(OscillatorParams(1.0, 1.6, 0.25, 0.25), 3.1)
        assert np.max(np.abs(s.alpha - s.alpha.T)) < 1e-12

    def test_matches_exponential_route(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = random_params(rng, equal=True)
            t = rng.uniform(0.0, 20.0)
            closed = full_evolution(diagonalize(p), t).matrix
            via_exp = evolution_via_exponential(p, t).matrix
            assert np.max(np.abs(closed - via_exp)) < 1e-9


class TestEvolutionBlocks:
    # one production route for every coupling, against the closed form where
    # it exists and the matrix exponential elsewhere
    @pytest.mark.parametrize(
        "reference,p",
        [
            ("closed", OscillatorParams(1.0, 1.0, 0.1, 0.1)),
            ("closed", OscillatorParams(1.0, 1.7, 0.3, 0.3)),
            ("closed", OscillatorParams(1.3, 0.8, 0.0, 0.0)),
            ("exponential", OscillatorParams(1.0, 1.2, -0.2, -0.1)),
            ("exponential", OscillatorParams(1.0, 1.2, -0.2, -0.2)),
            ("exponential", OscillatorParams(1.0, 0.9, 0.2, -0.15)),
            ("exponential", OscillatorParams(1.0, 0.8, 0.3, 0.0)),
            ("exponential", OscillatorParams(1.0, 1.0, 0.0, 0.3)),
            ("exponential", OscillatorParams(1.0, 1.0, 0.0, 0.0)),
            ("exponential", OscillatorParams(1.0, 1.0, 0.4999, 0.4999)),
        ],
    )
    def test_matches_reference_routes(self, reference, p):
        ts = np.array([0.1, 1.0, 10.0])
        alpha, beta = evolution_blocks(p, ts)
        factor = squeezed_pair(0.3)
        grid = gaussian_grid(factor, p, ts)
        for i, t in enumerate(ts):
            ref = full_evolution(diagonalize(p), t) if reference == "closed" else evolution_via_exponential(p, t)
            got = np.block([[alpha[i], beta[i]], [beta[i].conj(), alpha[i].conj()]])
            assert np.max(np.abs(got - ref.matrix)) < 1e-9
            # the single-time functions are exactly rows of the batched ones
            s = time_evolution(p, t)
            assert np.array_equal(s.alpha, alpha[i]) and np.array_equal(s.beta, beta[i])
            assert fidelity_eff(factor, p, t) == grid.report.at(i) and type(fidelity_eff(factor, p, t).fidelity) is float
            assert delta_n(factor, p, t) == grid.delta_n[i] and type(delta_n(factor, p, t)) is float

    def test_rejects_nonfinite_time(self):
        with pytest.raises(ValueError, match="finite"):
            evolution_blocks(OscillatorParams(1.0, 1.0, 0.1, 0.2), [0.0, np.inf])

    @pytest.mark.parametrize(
        "entry",
        [
            lambda p, t: rwa_block(p, t),
            lambda p, t: evolution_blocks(p, [0.0, t]),
            lambda p, t: gaussian_grid(squeezed_pair(0.3), p, [0.0, t]),
            lambda p, t: fidelity_eff(vacuum(), p, t),
        ],
        ids=["rwa_block", "evolution_blocks", "gaussian_grid", "fidelity_eff"],
    )
    def test_phases_past_the_largest_double_are_refused_where_formed(self, entry):
        # t is finite but 10 t is not: each entry point refuses it in mode_phases as invalid input, with no NaN,
        # no RuntimeWarning (warnings are errors) and no ArithmeticError, which would report an internal failure
        with pytest.raises(ValueError, match="^the mode phases w t must be finite, got t = 1e\\+308$"):
            entry(OscillatorParams(1.0, 10.0, 0.05, 0.05), 1e308)

    @pytest.mark.parametrize(
        "p",
        [OscillatorParams(1.0, 1.0, 0.2, 0.2), OscillatorParams(1.0, 1.3, -0.21, 0.13), OscillatorParams(1.0, 2.0, 0.0, 1.414213)],
        ids=["resonant", "detuned", "near-bound"],
    )
    def test_identity_at_time_zero_is_exact(self, p):
        # S(0) is I, not left @ right, which is I only to rounding
        alpha, beta = evolution_blocks(p, [0.0])
        assert np.array_equal(alpha[0], np.eye(2)) and np.array_equal(beta[0], np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "p",
        [
            OscillatorParams(1.0, 10.0, 0.05, 0.05),
            OscillatorParams(1.0, 1.3, -0.21, 0.13),
            OscillatorParams(1.0, 2.0, 0.0, 1.414213),
        ],
        ids=["detuned", "general", "near-bound"],
    )
    def test_bogoliubov_identities_hold_at_long_times(self, p):
        # the phases of -kappa_+- are the conjugates of those of kappa_+-: exponentiating the computed
        # negatives, which are not exact, drifts the pairs apart and broke the identities from t ~ 1e8
        ts = 10.0 ** np.arange(17)
        alpha, beta = evolution_blocks(p, ts)
        defect, _ = bogoliubov_defects(alpha, beta)
        assert np.all(defect < 1e-11), defect


class TestRwaEvolution:
    def test_time_zero(self):
        assert np.allclose(rwa_block(OscillatorParams(1.0, 1.2, 0.1, 0.1), 0.0), np.eye(2), atol=1e-15)

    def test_full_swap_on_resonance(self):
        p = OscillatorParams(1.0, 1.0, 0.2, 0.2)
        u = rwa_block(p, np.pi / 2 / 0.2)
        assert abs(u[0, 1]) == pytest.approx(1.0, abs=1e-12)
        assert abs(u[0, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_matches_exponential_route(self):
        p = OscillatorParams(1.0, 1.2, 0.05, 0.0)
        u = rwa_block(p, 3.0)
        s_exp = mat_exp(OMEGA @ hamiltonian_matrix(p), 3.0)
        assert np.max(np.abs(u - s_exp[:2, :2])) < 1e-10
        assert np.max(np.abs(s_exp[:2, 2:])) < 1e-14

    def test_unitary(self):
        u = rwa_block(OscillatorParams(1.0, 1.7, 0.3, 0.3), 11.0)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12

    def test_matches_closed_form_and_exponential(self):
        # the phase broadcast over the RWA modes against the closed rotation and exp(-i U t),
        # relative to |t|: g_bs = 0 on and off resonance, negative g_bs, |t| up to 1e3
        rng = np.random.default_rng(16)
        params = [
            OscillatorParams(1.0, 1.0),
            OscillatorParams(1.0, 1.7),
            OscillatorParams(1.7, 1.0, 0.0, 0.4),
            OscillatorParams(1.0, 1.0, -0.3, 0.1),
            OscillatorParams(1.0, 1.2, -0.4, 0.0),
        ] + [random_params(rng) for _ in range(20)]
        params += [OscillatorParams(p.omega_a, p.omega_b, -p.g_bs, p.g_sq) for p in params[5:15]]
        ts = np.array([0.0, 1e-3, 0.7, -3.1, 25.0, -250.0, 1e3, -1e3])
        for p in params:
            u = rwa_block(p, ts)
            passive = np.array([[p.omega_a, p.g_bs], [p.g_bs, p.omega_b]])
            via_exp = np.array([mat_exp(passive, -1j * t) for t in ts])
            scale = 1e-14 * np.maximum(1.0, np.abs(ts))[:, None, None]
            assert np.all(np.abs(u - closed_rwa_block(p, ts)) <= scale), p
            assert np.all(np.abs(u - via_exp) <= scale), p

    def test_stacks_over_the_shape_of_t(self):
        p = OscillatorParams(1.0, 1.3, 0.2, 0.1)
        ts = np.linspace(0.0, 5.0, 6).reshape(2, 3)
        u = rwa_block(p, ts)
        assert u.shape == (2, 3, 2, 2) and rwa_block(p, 0.4).shape == (2, 2)
        assert np.allclose(u[1, 2], rwa_block(p, ts[1, 2]), rtol=0.0, atol=1e-15)


class TestEffectiveEvolution:
    def test_time_zero(self):
        s = effective_evolution(OscillatorParams(1.0, 1.0, 0.1, 0.1), 0.0)
        assert np.allclose(s.matrix, np.eye(4), atol=1e-12)

    def test_uncoupled_is_identity_at_all_times(self):
        p = OscillatorParams(1.0, 1.4, 0.0, 0.0)
        for t in (0.3, 2.0, 17.0):
            s = effective_evolution(p, t)
            assert np.max(np.abs(s.matrix - np.eye(4))) < 1e-12

    def test_beta_block_matches_effective_bogoliubov(self):
        p = OscillatorParams(1.0, 1.0, 0.05, 0.05)
        s_eff = effective_evolution(p, 1.0)
        b_f = gaussian_grid(vacuum(), p, [1.0]).b_f[0]
        assert abs(np.linalg.norm(s_eff.beta) - np.linalg.norm(b_f)) < 1e-10


class TestInvariants:
    def test_symplectic_and_bogoliubov_families(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            p = random_params(rng, equal=bool(rng.integers(2)))
            for t in (0.1, 1.0, 10.0, 100.0):
                s = time_evolution(p, t)
                assert symplectic_defect(s) < 1e-10
                assert bogoliubov_family_defects(s) < 1e-10

    def test_group_property(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = random_params(rng, equal=True)
            t1, t2 = rng.uniform(0.0, 10.0, 2)
            lhs = (time_evolution(p, t1) @ time_evolution(p, t2)).matrix
            rhs = time_evolution(p, t1 + t2).matrix
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_energy_conservation(self):
        rng = np.random.default_rng(14)
        p = random_params(rng, equal=True)
        h = hamiltonian_matrix(p)
        sigma0 = covariance(vacuum()).sigma
        e0 = np.trace(h @ sigma0).real
        for t in (0.5, 3.0, 42.0):
            s4 = time_evolution(p, t).matrix
            et = np.trace(h @ s4 @ sigma0 @ s4.conj().T).real
            assert abs(et - e0) < 1e-9 * abs(e0)

    def test_rwa_passivity(self):
        p = OscillatorParams(1.0, 1.2, 0.4, 0.4)
        sigma0 = covariance(vacuum()).sigma
        for t in (0.5, 3.0, 42.0):
            s4 = rwa_evolution(p, t).matrix
            assert abs(np.trace(s4 @ sigma0 @ s4.conj().T).real - np.trace(sigma0).real) < 1e-10


class TestSymplecticMatrix:
    def test_rejects_invalid_blocks(self):
        with pytest.raises(ValueError):
            SymplecticMatrix(2.0 * np.eye(2), np.zeros((2, 2)))

    def test_nan_blocks_fail_the_checks(self):
        nan = np.full((2, 2), np.nan)
        with pytest.raises(ValueError, match="Bogoliubov"):
            SymplecticMatrix(nan, np.zeros((2, 2)))
        with pytest.raises(ArithmeticError, match="t=1 "):
            check_bogoliubov(np.stack([np.eye(2), nan]), np.zeros((2, 2, 2)), np.array([0.0, 1.0]), "S")

    def test_refuses_blocks_that_are_not_2x2(self):
        # stacked blocks once failed inside the Bogoliubov check, with numpy's ambiguous truth value
        blocks = evolution_blocks(OscillatorParams(1.0, 1.3, -0.21, 0.13), [1.0, 2.0])
        with pytest.raises(ValueError, match=r"^blocks must be 2x2, got alpha of shape \(2, 2, 2\) and beta of shape \(2, 2, 2\)$"):
            SymplecticMatrix(*blocks)
        with pytest.raises(ValueError, match=r"alpha of shape \(2, 2\) and beta of shape \(4,\)$"):
            SymplecticMatrix(np.eye(2), np.zeros(4))

    def test_stacked_check_names_a_time_by_its_flat_index(self):
        alpha = np.broadcast_to(np.eye(2), (2, 3, 2, 2)).copy()
        alpha[1, 0] *= 2.0
        with pytest.raises(ArithmeticError, match="^S violates the Bogoliubov identities at t=3 "):
            check_bogoliubov(alpha, np.zeros_like(alpha), np.arange(6.0).reshape(2, 3), "S")

    def test_inverse(self):
        s = time_evolution(OscillatorParams(1.0, 1.1, 0.2, 0.2), 1.3)
        prod = (s @ inverse(s)).matrix
        assert np.max(np.abs(prod - np.eye(4))) < 1e-12


class TestBlockAlgebra:
    # the entrywise determinant and Bogoliubov defects against numpy, relative to the
    # size of the terms that each entry sums
    @staticmethod
    def blocks(rng, *shape):
        return rng.normal(size=(*shape, 2, 2)) + 1j * rng.normal(size=(*shape, 2, 2))

    def test_defects_match_matmul(self):
        rng = np.random.default_rng(11)
        for a, b in ((self.blocks(rng, 200), self.blocks(rng, 200)), (self.blocks(rng), self.blocks(rng))):
            h = a @ a.conj().swapaxes(-1, -2) - b @ b.conj().swapaxes(-1, -2) - np.eye(2)
            k = a @ b.swapaxes(-1, -2) - b @ a.swapaxes(-1, -2)
            dense = np.maximum(np.abs(h).max(axis=(-2, -1)), np.abs(k).max(axis=(-2, -1)))
            defect, limit = bogoliubov_defects(a, b)
            norms = (np.abs(a) ** 2 + np.abs(b) ** 2).sum(axis=(-2, -1))
            assert defect.shape == a.shape[:-2] and np.all(np.abs(defect - dense) <= 1e-14 * norms)
            assert np.allclose(limit, 1e-10 * norms, rtol=1e-14, atol=0.0)

    def test_determinant_matches_linalg(self):
        rng = np.random.default_rng(12)
        for m in (self.blocks(rng, 200), self.blocks(rng)):
            scale = np.abs(m[..., 0, 0] * m[..., 1, 1]) + np.abs(m[..., 0, 1] * m[..., 1, 0])
            assert np.shape(_det(m)) == m.shape[:-2]
            assert np.all(np.abs(_det(m) - np.linalg.det(m)) <= 1e-15 * scale)


def test_references_do_not_call_the_routes_they_check():
    # the RWA evolution and the closed diagonalizer rest on closed forms held in tests/reference.py
    tree = ast.parse(Path(reference.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rwafidelity")
        for alias in node.names
    }
    assert imported and not {"rwa_block", "normal_mode_frequencies"} & imported
    assert not {"rwa_block", "normal_mode_frequencies"} & set(vars(reference))


class TestTimeContract:
    """Array entry points stack over the shape of t, a scalar being shape (); scalar entry points take exactly one time."""

    P = OscillatorParams(1.0, 1.3, -0.21, 0.13)
    Q = OscillatorParams(1.0, 1.1, 0.05, 0.05)
    SCALAR = {
        "time_evolution": lambda t: time_evolution(TestTimeContract.P, t),
        "fidelity_eff": lambda t: fidelity_eff(vacuum(), TestTimeContract.P, t),
        "delta_n": lambda t: delta_n(vacuum(), TestTimeContract.P, t),
        "evolved_pair": lambda t: FockOracle(TestTimeContract.Q, 6).evolved_pair(InitialState("vacuum"), t),
        "fock_bound": lambda t: fock_bound(0, 0, 0.05, 1.0, t),
        "bound_check": lambda t: bound_check(0, 0, OscillatorParams(1.0, 1.0, 0.05, 0.05), t, 8),
    }

    @pytest.mark.parametrize("t", [[1.0], [1.0, 2.0], np.ones((1, 1))], ids=["one-element", "two", "2-d"])
    @pytest.mark.parametrize("name", list(SCALAR))
    def test_scalar_entry_points_refuse_arrays(self, name, t, monkeypatch):
        # once: time_evolution read S at the first time, fidelity_eff and delta_n failed in a broadcast, evolved_pair
        # raised IndexError, and fock_bound and bound_check TypeError.  The refusal comes before any work
        monkeypatch.setattr(FockOracle, "_trajectory", None)
        monkeypatch.setattr("rwafidelity.dynamics._modes", None)
        with pytest.raises(ValueError, match=rf"^one time expected, got an array of shape {re.escape(str(np.shape(t)))}$"):
            self.SCALAR[name](t)

    @staticmethod
    def leaves(result) -> list[bytes]:
        """The bytes of each number or array a result holds, through dataclasses and tuples."""
        if hasattr(result, "__dataclass_fields__"):
            result = tuple(vars(result).values())
        if isinstance(result, tuple):
            return [b for v in result for b in TestTimeContract.leaves(v)]
        return [np.asarray(result).tobytes()]

    @pytest.mark.parametrize("name", list(SCALAR))
    def test_scalar_entry_points_take_one_time_of_any_type(self, name):
        # a Python float, a numpy float and a 0-d array give the same bits
        got = [self.leaves(self.SCALAR[name](t)) for t in (1.7, np.float64(1.7), np.array(1.7))]
        assert got[0] == got[1] == got[2]

    def test_array_entry_points_stack_over_the_shape_of_t(self):
        # once: evolution_blocks gave (6, 2, 2) in column-major order and gaussian_grid failed in a broadcast
        t = np.linspace(0.0, 5.0, 6).reshape(2, 3)
        for got, flat in zip(evolution_blocks(self.P, t), evolution_blocks(self.P, t.ravel())):
            assert got.shape == (2, 3, 2, 2) and np.array_equal(got, flat.reshape(got.shape))
        grid, flat = gaussian_grid(squeezed_pair(0.3), self.P, t), gaussian_grid(squeezed_pair(0.3), self.P, t.ravel())
        for name in ("fidelity", "bures", "r_plus", "r_minus"):
            assert np.array_equal(getattr(grid.report, name), getattr(flat.report, name).reshape(2, 3))
        assert np.array_equal(grid.delta_n, flat.delta_n.reshape(2, 3))
        assert np.array_equal(grid.a_f, flat.a_f.reshape(2, 3, 2, 2)) and np.array_equal(grid.b_f, flat.b_f.reshape(2, 3, 2, 2))
        for p in self.Q, OscillatorParams(1.0, 1.0, 0.05, 0.05):  # the propagated sector and the resonant factors
            oracle = FockOracle(p, 12)
            point, flat = oracle.compare(InitialState("squeezed", s=0.1), t), oracle.compare(InitialState("squeezed", s=0.1), t.ravel())
            assert np.array_equal(point.fidelity, flat.fidelity.reshape(2, 3)) and np.array_equal(point.delta_n, flat.delta_n.reshape(2, 3))

    def test_a_scalar_is_shape_empty(self):
        alpha, beta = evolution_blocks(self.P, 1.7)
        assert alpha.shape == beta.shape == (2, 2)
        grid = gaussian_grid(vacuum(), self.P, 1.7)
        assert grid.report.fidelity.shape == grid.delta_n.shape == () and grid.b_f.shape == (2, 2)
