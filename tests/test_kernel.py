import numpy as np
import pytest

from qetsim.cli import main
from qetsim.errors import NumericError, ValidationError
from qetsim.kernel import (
    ID2,
    ID4,
    SIGMA_X,
    SIGMA_Z,
    evolve_operator,
    expectation,
    hermitian_eig,
    kron,
    su2,
)

KET_PP = np.array([1, 0, 0, 0], dtype=complex)
KET_MM = np.array([0, 0, 0, 1], dtype=complex)


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def random_unitary(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(a)[0]


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(ID2, ID2), ID4)

    def test_sigma_z_left_factor_fixes_basis_order(self):
        assert np.array_equal(kron(SIGMA_Z, ID2), np.diag([1, 1, -1, -1]).astype(complex))

    def test_sigma_x_pair_maps_pp_to_mm(self):
        # hand enumeration: the only nonzero column-0 entry of the 4x4
        # product sits in row 3
        out = kron(SIGMA_X, SIGMA_X) @ KET_PP
        assert np.allclose(out, KET_MM)

    def test_bilinear_on_integer_matrices(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        b = np.array([[5, 6], [7, 8]], dtype=complex)
        assert np.array_equal(kron(3 * a, b), 3 * kron(a, b))
        assert np.array_equal(kron(a, 2 * b), 2 * kron(a, b))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValidationError):
            kron(np.eye(4), ID2)
        with pytest.raises(ValidationError):
            kron(ID2, np.eye(3))

    def test_rejects_non_finite(self):
        bad = np.array([[np.nan, 0], [0, 1]])
        with pytest.raises(ValidationError):
            kron(bad, ID2)


class TestHermitianEig:
    def test_sigma_z(self):
        spec = hermitian_eig(SIGMA_Z)
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0])

    def test_degenerate_diagonal(self):
        spec = hermitian_eig(np.diag([3.0, 1.0, 4.0, 1.0]))
        assert np.allclose(spec.eigenvalues, [1.0, 1.0, 3.0, 4.0])
        # orthonormal within the degenerate pair
        gram = spec.eigenvectors.conj().T @ spec.eigenvectors
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    @staticmethod
    def check_spectrum(hm, spec):
        n = hm.shape[0]
        scale = max(1.0, np.max(np.abs(hm)))
        for i in range(n):
            v = spec.eigenvectors[:, i]
            res = np.linalg.norm(hm @ v - spec.eigenvalues[i] * v)
            assert res <= 1e-12 * scale
        gram = spec.eigenvectors.conj().T @ spec.eigenvectors
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-12
        assert np.all(np.diff(spec.eigenvalues) >= -1e-15)

    def test_residual_and_orthonormality_random(self):
        rng = np.random.default_rng(20240817)
        for n in (2, 4):
            for _ in range(20):
                hm = random_hermitian(rng, n)
                self.check_spectrum(hm, hermitian_eig(hm))

    @pytest.mark.parametrize("diag", [(1.0, 1.0, 3.0, 3.0), (2.0, 2.0, 2.0, 5.0)])
    def test_degenerate_rotated(self, diag):
        # degenerate clusters in a non-diagonal basis, so the solver must
        # rotate inside each cluster (the diagonal case above needs none)
        rng = np.random.default_rng(20261018)
        for _ in range(10):
            u = random_unitary(rng, 4)
            hm = u @ np.diag(diag) @ u.conj().T
            hm = (hm + hm.conj().T) / 2
            spec = hermitian_eig(hm)
            self.check_spectrum(hm, spec)
            assert np.allclose(spec.eigenvalues, sorted(diag), atol=1e-12)

    def test_solver_failure_is_numeric_error(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericError):
            hermitian_eig(SIGMA_Z)
        # the CLI maps it to its numeric-failure exit code
        assert main(["model", "--h", "3", "--k", "4"]) == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_matches_numpy_eigenvalues(self):
        # consistency with numpy's eigenvalues-only LAPACK call on the
        # unsymmetrised input; the closed-form model tests are the
        # independent oracle for the spectrum
        rng = np.random.default_rng(7)
        for _ in range(25):
            hm = random_hermitian(rng, 4)
            spec = hermitian_eig(hm)
            assert np.allclose(spec.eigenvalues, np.linalg.eigvalsh(hm), atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        hm = random_hermitian(rng, 4)
        a = hermitian_eig(hm)
        b = hermitian_eig(hm)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError, match="expected a square matrix"):
            hermitian_eig(np.zeros((4, 2)))


class TestEvolveOperator:
    def test_zero_time_is_identity(self):
        assert np.allclose(evolve_operator(np.diag([1.0, 2.0, 3.0, 4.0]), 0.0), ID4)

    def test_diagonal_exponential(self):
        u = evolve_operator(SIGMA_Z, np.pi / 2)
        assert np.allclose(u, np.diag([-1j, 1j]), atol=1e-14)

    def test_forward_backward_composition(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            hm = random_hermitian(rng, 4)
            t = rng.uniform(-3.0, 3.0)
            u = evolve_operator(hm, t)
            ub = evolve_operator(hm, -t)
            assert np.max(np.abs(u @ ub - ID4)) <= 1e-12

    def test_unitary_for_large_phases(self):
        rng = np.random.default_rng(12)
        hm = random_hermitian(rng, 4)
        t = 100.0 / max(1.0, np.max(np.abs(hm)))
        u = evolve_operator(hm, t)
        assert np.max(np.abs(u @ u.conj().T - ID4)) <= 1e-10

    def test_rejects_non_finite_time(self):
        with pytest.raises(ValidationError):
            evolve_operator(SIGMA_Z, np.inf)

    def test_rejects_time_whose_phase_overflows(self):
        # max|lambda|*t = inf gave an all-NaN "unitary" and a RuntimeWarning
        with pytest.raises(ValidationError, match="finite"):
            evolve_operator(1e30 * SIGMA_Z, 1e300)


class TestExpectation:
    def test_plus_plus_sigma_z(self):
        assert expectation(KET_PP, kron(SIGMA_Z, ID2)) == pytest.approx(1.0)

    def test_real_for_hermitian(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            hm = random_hermitian(rng, 4)
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi /= np.linalg.norm(psi)
            value = expectation(psi, hm)
            assert isinstance(value, float)

    def test_non_hermitian_raises(self):
        op = np.array([[0.0, 1.0], [0.0, 0.0]])
        psi = np.array([1.0, 1.0j]) / np.sqrt(2)
        with pytest.raises(NumericError):
            expectation(psi, op)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            expectation(KET_PP, SIGMA_Z)

    def test_stack_matches_single_states(self):
        rng = np.random.default_rng(6)
        ops = np.array([random_hermitian(rng, 4) for _ in range(3)])
        psi = rng.standard_normal((5, 3, 4)) + 1j * rng.standard_normal((5, 3, 4))
        values = expectation(psi, ops)
        assert values.shape == (5, 3)
        shared = expectation(psi, ops[0])  # one operator against the stack
        for i in range(5):
            for j in range(3):
                assert values[i, j] == expectation(psi[i, j], ops[j])
                assert shared[i, j] == expectation(psi[i, j], ops[0])

    def test_overflow_is_numeric_error(self):
        # finite inputs whose value overflows must not come back as inf or nan
        with pytest.raises(NumericError):
            expectation(np.full(4, 1e200, dtype=complex), ID4)
        with pytest.raises(NumericError):
            expectation(np.full((2, 4), 1e200, dtype=complex), ID4)


class TestSu2:
    def test_zero_angle(self):
        assert np.allclose(su2(0.0, (0, 0, 1)), ID2)

    def test_quarter_turn_about_y(self):
        assert np.allclose(su2(np.pi / 2, (0, 1, 0)), np.array([[0, 1], [-1, 0]]))

    def test_inverse_composition(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            theta = rng.uniform(-np.pi, np.pi)
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            u = su2(theta, axis)
            assert np.max(np.abs(u @ su2(-theta, axis) - ID2)) <= 1e-12
            assert np.max(np.abs(u @ u.conj().T - ID2)) <= 1e-12

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValidationError):
            su2(0.3, (0, 0, 2))

    def test_rejects_non_real_axis(self):
        with pytest.raises(ValidationError):
            su2(0.3, (1j, 0, 0))

    def test_rejects_non_finite_axis(self):
        with pytest.raises(ValidationError, match="finite real 3-vector"):
            su2(0.3, (np.nan, 0.0, 0.0))

    def test_matches_pauli_exponential(self):
        # su2(theta, n) = exp(i*theta*n.sigma): check against the evolver
        theta = 0.73
        u = su2(theta, (0, 0, 1))
        assert np.allclose(u, evolve_operator(SIGMA_Z, -theta), atol=1e-13)
