import math
import sys

import mpmath
import numpy as np
import pytest

from qetsim import kernel
from qetsim.errors import ValidationError
from qetsim.model import (
    PARAM_MAX,
    PARAM_MIN,
    ModelParams,
    build_hamiltonians,
    diffusion_period,
    e_a_closed,
    e_b_closed,
    ground_state_closed_form,
    hb_expected,
    optimal_rotation_angle,
    spectrum_closed_form,
)

P34 = ModelParams(h=3.0, k=4.0)

# sqrt(73) - 41/5, the simplified form of the zero-delay optimum at (3, 4)
E_B_34 = 0.3440037453175311


def random_params(rng, n=20):
    return [ModelParams(h=h, k=k) for h, k in rng.uniform(0.1, 10.0, size=(n, 2))]


class TestParams:
    @pytest.mark.parametrize("h,k", [(0.0, 1.0), (-1.0, 2.0), (1.0, 0.0), (1.0, -3.0)])
    def test_rejects_non_positive(self, h, k):
        with pytest.raises(ValidationError):
            ModelParams(h=h, k=k)

    def test_rejects_non_finite(self):
        for h in (float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="^h must be finite"):
                ModelParams(h=h, k=1.0)

    @pytest.mark.parametrize(
        "h,k,name",
        [(1e300, 1.0, "h"), (1e-300, 1.0, "h"), (1.0, 1e31, "k"), (2.0, 9e-31, "k"),
         # one float past either end: both ends are inclusive
         (math.nextafter(PARAM_MAX, math.inf), 1.0, "h"),
         (math.nextafter(PARAM_MIN, 0.0), 1.0, "h"),
         (1.0, math.nextafter(PARAM_MAX, math.inf), "k"),
         (1.0, math.nextafter(PARAM_MIN, 0.0), "k")],
    )
    def test_rejects_points_outside_the_stated_domain(self, h, k, name):
        message = f"^{name} must be finite and >= 1e-30 and <= 1e\\+30$"
        with pytest.raises(ValidationError, match=message):
            ModelParams(h=h, k=k)

    def test_domain_ends_are_accepted(self):
        assert (PARAM_MIN, PARAM_MAX) == (1e-30, 1e30)
        for h in (PARAM_MIN, PARAM_MAX):
            for k in (PARAM_MIN, PARAM_MAX):
                p = ModelParams(h=h, k=k)
                for value in (e_a_closed(p), e_b_closed(p)):
                    assert value >= np.finfo(float).tiny and math.isfinite(value)
        ModelParams(h=1e-9, k=1.0)
        ModelParams.from_alpha(1e8)

    def test_alpha_view(self):
        p = ModelParams.from_alpha(2.0)
        assert p.h == 2.0 and p.k == 1.0 and p.alpha == 2.0


class TestHamiltonians:
    def test_offsets_at_3_4(self):
        hams = build_hamiltonians(P34)
        # identity offsets: h^2/s = 9/5 in H_A, 2k^2/s = 32/5 in V
        off_a = hams.h_a - 3.0 * kernel.kron(kernel.SIGMA_Z, kernel.ID2)
        off_v = hams.v - 8.0 * kernel.kron(kernel.SIGMA_X, kernel.SIGMA_X)
        assert np.allclose(off_a, 1.8 * np.eye(4))
        assert np.allclose(off_v, 6.4 * np.eye(4))

    def test_sum_is_exact(self):
        hams = build_hamiltonians(P34)
        assert np.array_equal(hams.h_tot, hams.h_a + hams.h_b + hams.v)

    def test_hermitian(self):
        hams = build_hamiltonians(P34)
        for m in (hams.h_a, hams.h_b, hams.v, hams.h_tot):
            assert np.max(np.abs(m - m.conj().T)) <= 1e-12

    def test_ground_energy_zero(self):
        eigenvalues, _ = kernel.hermitian_eig(build_hamiltonians(P34).h_tot)
        assert abs(eigenvalues[0]) <= 1e-10

    def test_block_structure(self):
        # sigma_x^A sigma_x^B couples only within {|++>,|-->} and {|+->,|-+>}
        h_tot = build_hamiltonians(P34).h_tot
        for i in (0, 3):
            for j in (1, 2):
                assert h_tot[i, j] == 0
                assert h_tot[j, i] == 0

    def test_spectrum_set(self):
        rng = np.random.default_rng(42)
        for p in random_params(rng):
            expected = spectrum_closed_form(p)
            eigenvalues, _ = kernel.hermitian_eig(build_hamiltonians(p).h_tot)
            assert np.allclose(eigenvalues, expected, atol=1e-9)


class TestGroundState:
    def test_amplitudes_at_3_4(self):
        g = ground_state_closed_form(P34)
        expected = [math.sqrt(0.2), 0.0, 0.0, -math.sqrt(0.8)]
        assert np.allclose(g, expected, atol=1e-15)

    def test_unit_norm_closed_form(self):
        rng = np.random.default_rng(1)
        for p in random_params(rng):
            g = ground_state_closed_form(p)
            assert abs(np.linalg.norm(g) - 1.0) <= 1e-15

    def test_fidelity_against_numeric(self):
        rng = np.random.default_rng(2)
        for p in random_params(rng):
            closed = ground_state_closed_form(p)
            _, eigenvectors = kernel.hermitian_eig(build_hamiltonians(p).h_tot)
            fidelity = abs(np.vdot(closed, eigenvectors[:, 0])) ** 2
            assert fidelity >= 1.0 - 1e-12

    def test_zero_expectation_of_every_term(self):
        rng = np.random.default_rng(3)
        for p in random_params(rng):
            hams = build_hamiltonians(p)
            g = ground_state_closed_form(p)
            for m in (hams.h_a, hams.h_b, hams.v):
                assert abs(kernel.expectation(g, m)) <= 1e-10

    def test_eigenvector_residual(self):
        rng = np.random.default_rng(4)
        for p in random_params(rng):
            hams = build_hamiltonians(p)
            g = ground_state_closed_form(p)
            assert np.linalg.norm(hams.h_tot @ g) <= 1e-10


class TestClosedForms:
    def test_e_a(self):
        assert e_a_closed(P34) == pytest.approx(1.8, abs=1e-15)

    def test_e_a_small_h_limit(self):
        assert e_a_closed(ModelParams(h=1e-9, k=1.0)) == pytest.approx(0.0, abs=1e-17)

    def test_hb_zero_time(self):
        assert hb_expected(P34, 0.0) == 0.0

    def test_hb_peak(self):
        # 4kt = pi at t = pi/16
        assert hb_expected(P34, math.pi / 16.0) == pytest.approx(1.8, abs=1e-12)

    @pytest.mark.parametrize("t", [1e-12, 1e-9, 1e-6])
    def test_hb_keeps_its_digits_at_small_time(self, t):
        # (h^2/2s)(1 - cos 4kt) read 0.0 at t = 1e-12 and was 13% off at 1e-9
        with mpmath.workdps(50):
            h, kk, tt = mpmath.mpf(P34.h), mpmath.mpf(P34.k), mpmath.mpf(t)
            s = mpmath.sqrt(h * h + kk * kk)
            exact = float(h * h / (2 * s) * (1 - mpmath.cos(4 * kk * tt)))
        assert hb_expected(P34, t) == pytest.approx(exact, rel=1e-15, abs=0.0)

    def test_hb_period(self):
        period = diffusion_period(P34)
        for t in (0.05, 0.11, 0.31):
            assert hb_expected(P34, t + period) == pytest.approx(
                hb_expected(P34, t), abs=1e-12
            )

    def test_hb_bounded_by_e_a(self):
        rng = np.random.default_rng(5)
        for p in random_params(rng, n=10):
            for t in np.linspace(0.0, 2.0 / p.k, 50):
                assert 0.0 <= hb_expected(p, float(t)) <= e_a_closed(p) + 1e-12

    def test_hb_rejects_negative_time(self):
        with pytest.raises(ValidationError):
            hb_expected(P34, -0.1)

    def test_hb_rejects_time_whose_phase_overflows(self):
        # 4kt = inf: math.cos leaked "ValueError: math domain error"
        with pytest.raises(ValidationError, match="4\\*k\\*t must be finite$"):
            hb_expected(ModelParams(1.0, 1e30), 1e300)

    def test_e_b_at_3_4(self):
        assert e_b_closed(P34) == pytest.approx(E_B_34, rel=1e-14, abs=0.0)

    def test_e_b_equals_simplified_form(self):
        rng = np.random.default_rng(6)
        for p in random_params(rng):
            simplified = math.sqrt(p.h**2 + 4 * p.k**2) - (
                p.h**2 + 2 * p.k**2
            ) / math.hypot(p.h, p.k)
            assert e_b_closed(p) == pytest.approx(simplified, rel=1e-12)

    def test_e_b_small_h_limit(self):
        assert e_b_closed(ModelParams(h=1e-8, k=1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_e_b_below_e_a(self):
        for h in np.linspace(0.1, 10.0, 12):
            for k in np.linspace(0.1, 10.0, 12):
                p = ModelParams(h=float(h), k=float(k))
                assert e_b_closed(p) < e_a_closed(p)

    def test_optimal_angle_range(self):
        rng = np.random.default_rng(7)
        for p in random_params(rng):
            theta = optimal_rotation_angle(p)
            assert -math.pi / 4 < theta < math.pi / 4

    def test_optimal_angle_at_3_4(self):
        assert optimal_rotation_angle(P34) == pytest.approx(
            -0.14236521926135604, abs=1e-15
        )

    @pytest.mark.parametrize("k", [1e-3, 1.0, 1e3])
    def test_optimal_angle_across_the_alpha_domain(self, k):
        # the difference of two angles near -pi lost up to 3.8e-8 relative
        # at alpha = 1e-8; -atan(hk/(h^2 + 2k^2))/2 at 50 digits is the oracle
        for e in range(-80, 81):
            p = ModelParams(10.0 ** (e / 10) * k, k)
            with mpmath.workdps(50):
                h, kk = mpmath.mpf(p.h), mpmath.mpf(p.k)
                exact = float(-mpmath.atan(h * kk / (h * h + 2 * kk * kk)) / 2)
            theta = optimal_rotation_angle(p)
            assert abs(theta - exact) <= 2.0 * sys.float_info.epsilon * abs(exact)

    @pytest.mark.parametrize("k", [1e-3, 1.0, 1e3])
    def test_spectrum_across_the_alpha_domain(self, k):
        # 2s - 2k cancelled at small alpha (8.9e-5 relative at alpha = 1e-6);
        # every level against 60 digits, the gap 2s - 2k as 2h^2/(s + k)
        for e in range(-80, 81):
            p = ModelParams(10.0 ** (e / 10) * k, k)
            with mpmath.workdps(60):
                h, kk = mpmath.mpf(p.h), mpmath.mpf(p.k)
                s = mpmath.sqrt(h * h + kk * kk)
                exact = [0, 2 * h * h / (s + kk), 2 * s + 2 * kk, 4 * s]
            for level, want in zip(spectrum_closed_form(p), exact):
                want = float(want)
                assert abs(level - want) <= 2.0 * sys.float_info.epsilon * want
