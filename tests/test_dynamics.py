import numpy as np
import pytest

from reference import (
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
    check_bogoliubov,
    critical_coupling,
    evolution_blocks,
    hamiltonian_matrix,
    normal_mode_frequencies,
    rwa_block,
    time_evolution,
)
from rwafidelity.metrics import delta_n, effective_bogoliubov, fidelity_eff, gaussian_grid
from rwafidelity.states import squeezed_pair, vacuum


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

    @pytest.mark.parametrize("bad", ["1.0", None, 1j, float("nan"), float("inf")])
    def test_rejects_non_real_or_nonfinite(self, bad):
        with pytest.raises(ValueError, match="finite real number"):
            OscillatorParams(1.0, 1.0, bad, 0.0)


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
            a_f, b_f = effective_bogoliubov(factor, p, t)
            assert np.array_equal(a_f, grid.a_f[i]) and np.array_equal(b_f, grid.b_f[i])
            assert fidelity_eff(factor, p, t) == grid.report.at(i)
            assert delta_n(factor, p, t) == grid.delta_n[i]

    def test_rejects_nonfinite_time(self):
        with pytest.raises(ValueError, match="finite"):
            evolution_blocks(OscillatorParams(1.0, 1.0, 0.1, 0.2), [0.0, np.inf])


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
        _, b_f = effective_bogoliubov(vacuum(), p, 1.0)
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
        sigma0 = vacuum().covariance.sigma
        e0 = np.trace(h @ sigma0).real
        for t in (0.5, 3.0, 42.0):
            s4 = time_evolution(p, t).matrix
            et = np.trace(h @ s4 @ sigma0 @ s4.conj().T).real
            assert abs(et - e0) < 1e-9 * abs(e0)

    def test_rwa_passivity(self):
        p = OscillatorParams(1.0, 1.2, 0.4, 0.4)
        sigma0 = vacuum().covariance.sigma
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

    def test_inverse(self):
        s = time_evolution(OscillatorParams(1.0, 1.1, 0.2, 0.2), 1.3)
        prod = (s @ inverse(s)).matrix
        assert np.max(np.abs(prod - np.eye(4))) < 1e-12
