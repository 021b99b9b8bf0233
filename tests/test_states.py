import numpy as np
import pytest

from reference import (
    CovarianceMatrix,
    NonPhysicalStateError,
    apply_symplectic,
    covariance,
    is_pure,
    reduce_mode,
    single_mode_symplectic_eigenvalue,
    symplectic_eigenvalues,
    thermal,
)
from rwafidelity.dynamics import OscillatorParams, time_evolution
from rwafidelity.states import InitialState, squeezed_pair, vacuum


class TestVacuum:
    def test_covariance_is_identity(self):
        cov = covariance(vacuum())
        assert np.array_equal(cov.sigma, np.eye(4))

    def test_symplectic_eigenvalues(self):
        assert symplectic_eigenvalues(covariance(vacuum())) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_pure(self):
        assert is_pure(covariance(vacuum()))


class TestSqueezedPair:
    def test_zero_squeezing_is_vacuum(self):
        assert np.allclose(covariance(squeezed_pair(0.0)).sigma, np.eye(4), atol=1e-15)

    def test_covariance_blocks(self):
        cov = covariance(squeezed_pair(0.5))
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
            assert symplectic_eigenvalues(covariance(squeezed_pair(s))) == pytest.approx((1.0, 1.0), abs=1e-8)
        # sigma's condition number grows as e^(4s); purity holds to the norm-relative tolerance
        for s in (7.0, 8.0, 8.5):
            assert is_pure(covariance(squeezed_pair(s)))

    def test_reconstruction(self):
        f = squeezed_pair(0.4)
        s4 = f.matrix
        assert np.max(np.abs(s4 @ s4.conj().T - covariance(f).sigma)) < 1e-10

    def test_range_guard(self):
        with pytest.raises(ValueError):
            squeezed_pair(10.5)

    @pytest.mark.parametrize("s", [float("nan"), float("inf")])
    def test_rejects_nonfinite(self, s):
        with pytest.raises(ValueError):
            squeezed_pair(s)
        with pytest.raises(ValueError, match="finite"):
            InitialState("squeezed", s=s)

    @pytest.mark.parametrize("s", [True, np.bool_(False), 0.3 + 0j, np.complex128(0.3), "0.5", None, np.array(0.5)])
    def test_rejects_non_real(self, s):
        # numpy takes cosh and tanh of a bool in float16, which misses the Bogoliubov identities
        for make in (squeezed_pair, lambda s: InitialState("squeezed", s=s)):
            with pytest.raises(ValueError, match="must be a finite real number"):
                make(s)

    @pytest.mark.parametrize("s", [np.float32(0.5), np.int64(1), 1])
    def test_keeps_a_real_number_as_a_float(self, s):
        # a float32 s would give cosh and sinh in float32, off the identity cosh^2 - sinh^2 = 1 by 2.5e-07
        initial = InitialState("squeezed", s=s)
        assert type(initial.s) is float and initial.s == float(s)
        assert initial.factor().matrix.dtype == complex
        assert np.array_equal(initial.factor().matrix, squeezed_pair(float(s)).matrix)


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

        out = apply_symplectic(covariance(vacuum()), SymplecticMatrix.identity())
        assert np.allclose(out.sigma, np.eye(4))

    def test_squeezer_creates_squeezed_pair(self):
        out = apply_symplectic(covariance(vacuum()), squeezed_pair(0.35))
        assert np.max(np.abs(out.sigma - covariance(squeezed_pair(0.35)).sigma)) < 1e-12

    def test_purity_preserved_under_evolution(self):
        p = OscillatorParams(1.0, 1.0, 0.2, 0.2)
        out = apply_symplectic(covariance(squeezed_pair(0.3)), time_evolution(p, 2.0))
        assert symplectic_eigenvalues(out) == pytest.approx((1.0, 1.0), abs=1e-9)

    def test_williamson_invariance(self):
        p = OscillatorParams(1.0, 1.4, 0.3, 0.1)
        nu = 1.7
        out = apply_symplectic(thermal(nu), time_evolution(p, 3.3))
        assert symplectic_eigenvalues(out) == pytest.approx((nu, nu), abs=1e-9)


class TestReduction:
    def test_vacuum_reduces_to_identity(self):
        assert np.allclose(reduce_mode(covariance(vacuum()), "a"), np.eye(2))

    def test_squeezed_pair_reduction_is_pure(self):
        # product state: each mode is pure on its own, nu = 1 despite cosh(2s) diagonals
        sig = reduce_mode(covariance(squeezed_pair(0.5)), "a")
        assert sig[0, 0].real == pytest.approx(np.cosh(1.0), abs=1e-12)
        assert sig[0, 1].real == pytest.approx(np.sinh(1.0), abs=1e-12)
        assert single_mode_symplectic_eigenvalue(sig) == pytest.approx(1.0, abs=1e-10)

    def test_two_mode_squeezed_reduction_is_thermal(self):
        # squeezing-only interaction entangles the modes: local state is hot
        p = OscillatorParams(1.0, 1.0, 0.0, 0.5)
        out = apply_symplectic(covariance(vacuum()), time_evolution(p, 2.0))
        nu_a = single_mode_symplectic_eigenvalue(reduce_mode(out, "a"))
        nu_b = single_mode_symplectic_eigenvalue(reduce_mode(out, "b"))
        assert nu_a > 1.0 + 1e-6
        assert nu_a == pytest.approx(nu_b, abs=1e-9)

    def test_every_reduction_locally_thermal(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            p = OscillatorParams(1.0, 1.3, 0.2, 0.2)
            out = apply_symplectic(covariance(squeezed_pair(rng.uniform(-0.5, 0.5))), time_evolution(p, rng.uniform(0, 10)))
            for mode in ("a", "b"):
                assert single_mode_symplectic_eigenvalue(reduce_mode(out, mode)) >= 1.0 - 1e-9

    def test_mode_name_validated(self):
        with pytest.raises(ValueError):
            reduce_mode(covariance(vacuum()), "c")


class TestPurityDeterminant:
    def test_purity_iff_unit_determinant(self):
        pure = covariance(squeezed_pair(0.6))
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

    def test_occupations_need_kind_fock(self):
        # the oracle starts every kind from a number-basis vector, so an
        # occupation on a Gaussian kind would propagate a different state
        with pytest.raises(ValueError, match="need kind fock"):
            InitialState("vacuum", n_a=2)
        with pytest.raises(ValueError, match="need kind fock"):
            InitialState("squeezed", s=0.2, n_b=1)
        assert InitialState("fock", n_a=2).n_a == 2

    @pytest.mark.parametrize("kind, occupations", [("vacuum", {}), ("fock", {"n_a": 1})])
    def test_squeezing_needs_kind_squeezed(self, kind, occupations):
        # a vacuum with s would have the identity factor, and a Fock state with s would propagate |1, 0>
        with pytest.raises(ValueError, match=f"s needs kind squeezed, got kind {kind!r}"):
            InitialState(kind, s=0.5, **occupations)
        # a non-number s is refused first, as on every kind
        with pytest.raises(ValueError, match="must be a finite real number"):
            InitialState(kind, s="0.5", **occupations)
        assert InitialState(kind, s=0.0, **occupations).s == 0.0

    @pytest.mark.parametrize("kind", ["fock", "vacuum"])
    @pytest.mark.parametrize("bad", [1.5, 1.0, True, np.float64(2.0), "1"])
    def test_occupations_must_be_integers(self, kind, bad):
        # a float or bool occupation would index the number basis as something it is not
        for occupations in ({"n_a": bad}, {"n_b": bad}):
            with pytest.raises(ValueError, match="must be integers"):
                InitialState(kind, **occupations)
        assert InitialState("fock", n_a=np.int64(3)).n_a == 3
