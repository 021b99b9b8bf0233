import numpy as np
import pytest

from reference import apply_symplectic, is_pure, reduce_mode, single_mode_symplectic_eigenvalue, thermal
from rwafidelity.dynamics import OscillatorParams, time_evolution
from rwafidelity.states import (
    CovarianceMatrix,
    InitialState,
    NonPhysicalStateError,
    squeezed_pair,
    symplectic_eigenvalues,
    vacuum,
)


class TestVacuum:
    def test_covariance_is_identity(self):
        cov = vacuum().covariance
        assert np.array_equal(cov.sigma, np.eye(4))

    def test_symplectic_eigenvalues(self):
        assert symplectic_eigenvalues(vacuum().covariance) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_pure(self):
        assert is_pure(vacuum().covariance)


class TestSqueezedPair:
    def test_zero_squeezing_is_vacuum(self):
        assert np.allclose(squeezed_pair(0.0).covariance.sigma, np.eye(4), atol=1e-15)

    def test_covariance_blocks(self):
        cov = squeezed_pair(0.5).covariance
        assert cov.sigma[0, 0].real == pytest.approx(np.cosh(1.0), abs=1e-12)
        assert cov.sigma[0, 0].real == pytest.approx(1.5430806348152437, abs=1e-9)
        assert cov.sigma[0, 2].real == pytest.approx(np.sinh(1.0), abs=1e-12)
        assert cov.sigma[0, 1] == 0.0

    def test_factor_blocks(self):
        f = squeezed_pair(0.3)
        assert np.allclose(f.alpha, np.cosh(0.3) * np.eye(2))
        assert np.allclose(f.beta, np.sinh(0.3) * np.eye(2))

    def test_pure_for_any_squeezing(self):
        for s in (0.1, 0.5, 0.7, 2.0):
            assert symplectic_eigenvalues(squeezed_pair(s).covariance) == pytest.approx((1.0, 1.0), abs=1e-8)
        # sigma's condition number grows as e^(4s); purity holds to the norm-relative tolerance
        for s in (7.0, 8.0, 8.5):
            assert is_pure(squeezed_pair(s).covariance)

    def test_reconstruction(self):
        f = squeezed_pair(0.4)
        s4 = f.s0.matrix
        assert np.max(np.abs(s4 @ s4.conj().T - f.covariance.sigma)) < 1e-10

    def test_range_guard(self):
        with pytest.raises(ValueError):
            squeezed_pair(10.5)

    @pytest.mark.parametrize("s", [float("nan"), float("inf")])
    def test_rejects_nonfinite(self, s):
        with pytest.raises(ValueError):
            squeezed_pair(s)
        with pytest.raises(ValueError, match="finite"):
            InitialState("squeezed", s=s)


class TestThermal:
    def test_symplectic_eigenvalues(self):
        nu = 1.0 / np.tanh(0.5)
        assert nu == pytest.approx(2.163953, abs=1e-6)
        assert symplectic_eigenvalues(thermal(nu)) == pytest.approx((nu, nu), abs=1e-10)

    def test_rejects_sub_vacuum(self):
        with pytest.raises(NonPhysicalStateError):
            thermal(0.8)


class TestCovarianceValidation:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(NonPhysicalStateError):
            CovarianceMatrix(m)

    def test_rejects_sub_vacuum_spectrum(self):
        with pytest.raises(NonPhysicalStateError):
            CovarianceMatrix(0.5 * np.eye(4))

    @pytest.mark.parametrize("diag", [[-1.0, -1.0, -1.0, -1.0], [1.0, 1.0, 1.0, -1.0]], ids=["minus-identity", "one-negative"])
    def test_rejects_indefinite(self, diag):
        # |eig(i Omega sigma)| is (1, 1, 1, 1) for both: only the sign tells them from the vacuum
        with pytest.raises(NonPhysicalStateError, match="positive definite"):
            CovarianceMatrix(np.diag(diag))

    def test_unpaired_spectrum_detected(self):
        with pytest.raises(NonPhysicalStateError, match="unpaired"):
            symplectic_eigenvalues(np.diag([1.0, 2.0, 1.5, 2.0]).astype(complex))


class TestApplySymplectic:
    def test_identity_fixes_vacuum(self):
        from rwafidelity.dynamics import SymplecticMatrix

        out = apply_symplectic(vacuum().covariance, SymplecticMatrix.identity())
        assert np.allclose(out.sigma, np.eye(4))

    def test_squeezer_creates_squeezed_pair(self):
        out = apply_symplectic(vacuum().covariance, squeezed_pair(0.35).s0)
        assert np.max(np.abs(out.sigma - squeezed_pair(0.35).covariance.sigma)) < 1e-12

    def test_purity_preserved_under_evolution(self):
        p = OscillatorParams(1.0, 1.0, 0.2, 0.2)
        out = apply_symplectic(squeezed_pair(0.3).covariance, time_evolution(p, 2.0))
        assert symplectic_eigenvalues(out) == pytest.approx((1.0, 1.0), abs=1e-9)

    def test_williamson_invariance(self):
        p = OscillatorParams(1.0, 1.4, 0.3, 0.1)
        nu = 1.7
        out = apply_symplectic(thermal(nu), time_evolution(p, 3.3))
        assert symplectic_eigenvalues(out) == pytest.approx((nu, nu), abs=1e-9)


class TestReduction:
    def test_vacuum_reduces_to_identity(self):
        assert np.allclose(reduce_mode(vacuum().covariance, "a"), np.eye(2))

    def test_squeezed_pair_reduction_is_pure(self):
        # product state: each mode is pure on its own, nu = 1 despite cosh(2s) diagonals
        sig = reduce_mode(squeezed_pair(0.5).covariance, "a")
        assert sig[0, 0].real == pytest.approx(np.cosh(1.0), abs=1e-12)
        assert sig[0, 1].real == pytest.approx(np.sinh(1.0), abs=1e-12)
        assert single_mode_symplectic_eigenvalue(sig) == pytest.approx(1.0, abs=1e-10)

    def test_two_mode_squeezed_reduction_is_thermal(self):
        # squeezing-only interaction entangles the modes: local state is hot
        p = OscillatorParams(1.0, 1.0, 0.0, 0.5)
        out = apply_symplectic(vacuum().covariance, time_evolution(p, 2.0))
        nu_a = single_mode_symplectic_eigenvalue(reduce_mode(out, "a"))
        nu_b = single_mode_symplectic_eigenvalue(reduce_mode(out, "b"))
        assert nu_a > 1.0 + 1e-6
        assert nu_a == pytest.approx(nu_b, abs=1e-9)

    def test_every_reduction_locally_thermal(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            p = OscillatorParams(1.0, 1.3, 0.2, 0.2)
            out = apply_symplectic(squeezed_pair(rng.uniform(-0.5, 0.5)).covariance, time_evolution(p, rng.uniform(0, 10)))
            for mode in ("a", "b"):
                assert single_mode_symplectic_eigenvalue(reduce_mode(out, mode)) >= 1.0 - 1e-9

    def test_mode_name_validated(self):
        with pytest.raises(ValueError):
            reduce_mode(vacuum().covariance, "c")


class TestPurityDeterminant:
    def test_purity_iff_unit_determinant(self):
        pure = squeezed_pair(0.6).covariance
        assert abs(np.linalg.det(pure.sigma).real - 1.0) < 1e-8
        hot = thermal(2.0)
        assert np.linalg.det(hot.sigma).real > 1.0 + 1e-6
        assert not is_pure(hot)


class TestInitialState:
    def test_kinds(self):
        assert InitialState("vacuum").factor() is not None
        assert InitialState("squeezed", s=0.2).factor() is not None
        with pytest.raises(ValueError):
            InitialState("coherent")

    def test_fock_has_no_factor(self):
        with pytest.raises(ValueError):
            InitialState("fock", n_a=1, n_b=0).factor()
