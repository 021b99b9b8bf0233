"""The reference matrix exponential, and the covariance-matrix validation of the references."""

import numpy as np
import pytest

from reference import CovarianceMatrix, mat_exp
from rwafidelity.dynamics import OMEGA, OscillatorParams, hamiltonian_matrix, time_evolution


def random_matrix(rng, dim=4, norm=None):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    if norm is not None:
        m *= norm / np.linalg.norm(m, 2)
    return m


class TestMatExp:
    def test_zero_exponent_is_identity(self):
        rng = np.random.default_rng(0)
        m = random_matrix(rng)
        assert np.allclose(mat_exp(m, 0.0), np.eye(4), atol=1e-15)

    def test_diagonal_pi_rotation(self):
        m = np.diag([1j * np.pi, 1j * np.pi])
        assert np.allclose(mat_exp(m), -np.eye(2), atol=1e-13)

    def test_matches_closed_form_evolution(self):
        # generator route against the closed-form coupled-oscillator solution
        p = OscillatorParams(1.0, 1.0, 0.1, 0.1)
        s_closed = time_evolution(p, 1.0).matrix
        s_exp = mat_exp(OMEGA @ hamiltonian_matrix(p), 1.0)
        assert np.max(np.abs(s_closed - s_exp)) < 1e-10

    def test_group_property(self):
        rng = np.random.default_rng(1)
        m = random_matrix(rng, norm=2.0)
        lhs = mat_exp(m, 0.7) @ mat_exp(m, 1.1)
        rhs = mat_exp(m, 1.8)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_inverse_product_on_generators(self):
        # raw 1e-12 contract on the matrices this package actually exponentiates
        rng = np.random.default_rng(2)
        for _ in range(50):
            wa, wb = rng.uniform(0.2, 3.0, 2)
            gc = np.sqrt(wa * wb)
            p = OscillatorParams(wa, wb, rng.uniform(0, 0.45) * gc, rng.uniform(0, 0.45) * gc)
            a = OMEGA @ hamiltonian_matrix(p) * rng.uniform(0, 10) / (2.0 * max(wa, wb))
            r = mat_exp(a) @ mat_exp(a, -1.0)
            assert np.max(np.abs(r - np.eye(4))) < 1e-12

    def test_inverse_product_generic(self):
        # arbitrary non-normal matrices: residual scales with the conditioning
        # of the exponential, so the bound carries the norm product
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = random_matrix(rng, norm=rng.uniform(0, 10))
            ea = mat_exp(a)
            eia = mat_exp(a, -1.0)
            bound = 1e-12 * max(1.0, np.linalg.norm(ea, 2) * np.linalg.norm(eia, 2))
            assert np.max(np.abs(ea @ eia - np.eye(4))) < bound

    def test_det_exp_equals_exp_trace(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = random_matrix(rng, norm=rng.uniform(0, 10))
            lhs = np.linalg.det(mat_exp(a))
            rhs = np.exp(np.trace(a))
            assert abs(lhs - rhs) < 1e-10 * abs(rhs)

    def test_rejects_nonfinite(self):
        m = np.full((4, 4), np.nan)
        with pytest.raises(ValueError):
            mat_exp(m)


class TestPlumbing:
    def test_det_of_symplectic_is_one(self):
        s = time_evolution(OscillatorParams(1.0, 1.3, 0.2, 0.2), 2.3).matrix
        assert abs(np.linalg.det(s) - 1.0) < 1e-10

    def test_rejects_odd_sizes(self):
        for m in (np.eye(3), np.eye(2), np.ones(4)):
            with pytest.raises(ValueError, match="4x4"):
                CovarianceMatrix(m)
        with pytest.raises(ValueError, match="non-finite"):
            CovarianceMatrix(np.diag([1.0, 1.0, 1.0, np.inf]))
