import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import bob_optimum, random_params, reference_round

from qetsim import kernel, protocol
from qetsim.errors import NumericError, ValidationError
from qetsim.locc import run_once, sweep_latency
from qetsim.kernel import ID2, SIGMA_X, expectation, kron, su2
from qetsim.model import (
    PARAM_MAX,
    PARAM_MIN,
    ModelParams,
    build_hamiltonians,
    e_a_closed,
    e_b_closed,
    ground_state_closed_form,
    hb_expected,
    optimal_rotation_angle,
)
from qetsim.extraction import (
    MODES,
    POLICIES,
    _branch0_entries,
    _coefficients,
    _family_amplitudes,
    extraction_curve,
)
from qetsim.protocol import (
    BobControl,
    _PROJECTORS,
    _rotation_costs,
    apply_bob,
    branch_average,
    evolve_branches,
    extracted_energy,
    infused_energy,
    measure_alice,
    optimize_bob,
)

P34 = ModelParams(h=3.0, k=4.0)


class TestMeasurement:
    def test_probabilities_are_half(self):
        rng = np.random.default_rng(10)
        for p in random_params(rng):
            _, branches = reference_round(p)
            assert np.all(np.abs(branches.probabilities - 0.5) <= 1e-12)

    def test_projector_completeness(self):
        p0, p1 = _PROJECTORS
        assert np.allclose(p0 + p1, np.eye(4))
        for proj in _PROJECTORS:
            assert np.allclose(proj @ proj, proj)

    def test_branches_are_sigma_x_eigenstates(self):
        # row mu of the states is outcome mu, sigma_x^A = (-1)^mu
        _, branches = reference_round(P34)
        sx_a = kron(SIGMA_X, ID2)
        for sign, state in zip((1.0, -1.0), branches.states):
            assert np.allclose(sx_a @ state, sign * state, atol=1e-12)

    def test_branch_norms(self):
        _, branches = reference_round(P34)
        assert np.all(np.abs(np.linalg.norm(branches.states, axis=1) - 1.0) <= 1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0))
    def test_probabilities_sum_to_one_across_the_domain(self, log_h, log_k):
        # h and k log-uniform over the whole stated domain
        p = ModelParams(h=10.0**log_h, k=10.0**log_k)
        p0, p1 = measure_alice(ground_state_closed_form(p)).probabilities
        assert abs(p0 + p1 - 1.0) <= 1e-12

    def test_rejects_a_branch_of_probability_zero(self):
        # |+>|0> is the sigma_x^A = +1 eigenstate: outcome mu = 1 never occurs
        plus_zero = np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2.0)
        with pytest.raises(NumericError, match="degenerate measurement branch mu=1"):
            measure_alice(plus_zero)

    def test_rejects_a_state_that_is_not_normalised(self):
        # twice the ground state: the probabilities sum to 4
        doubled = 2.0 * ground_state_closed_form(P34)
        with pytest.raises(NumericError, match="branch probabilities sum to"):
            measure_alice(doubled)


class TestInfusedEnergy:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(11)
        for p in random_params(rng):
            hams, branches = reference_round(p)
            simulated = infused_energy(branches, hams)
            closed = e_a_closed(p)
            assert abs(simulated - closed) <= 1e-10 * closed

    def test_site_b_unaffected_by_measurement(self):
        hams, branches = reference_round(P34)
        assert abs(branch_average(branches, hams.h_b)) <= 1e-12

    def test_coupling_average_preserved(self):
        hams, branches = reference_round(P34)
        assert abs(branch_average(branches, hams.v)) <= 1e-12


class TestEvolution:
    def test_zero_time_identity(self):
        hams, branches = reference_round(P34)
        evolved = evolve_branches(branches, hams, 0.0)
        assert np.allclose(branches.states, evolved.states, atol=1e-14)

    def test_diffusion_curve(self):
        for p in (P34, ModelParams(1.0, 1.0), ModelParams(5.0, 1.0)):
            hams, branches = reference_round(p)
            for t in np.linspace(0.0, 2.0 * math.pi / p.k, 40):
                evolved = evolve_branches(branches, hams, float(t))
                sim = branch_average(evolved, hams.h_b)
                assert abs(sim - hb_expected(p, float(t))) <= 1e-8

    def test_total_energy_conserved(self):
        hams, branches = reference_round(P34)
        e0 = infused_energy(branches, hams)
        for t in (0.1, 0.5, 2.0):
            evolved = evolve_branches(branches, hams, t)
            assert abs(infused_energy(evolved, hams) - e0) <= 1e-10

    def test_rejects_negative_time(self):
        hams, branches = reference_round(P34)
        with pytest.raises(ValidationError):
            evolve_branches(branches, hams, -0.5)

    def test_rejects_time_whose_phase_overflows(self):
        # the branches came back all NaN, with only a RuntimeWarning
        hams, branches = reference_round(ModelParams(1.0, 1e30))
        with pytest.raises(ValidationError):
            evolve_branches(branches, hams, 1e300)


class TestBobControl:
    def test_zero_angle_is_identity(self):
        _, branches = reference_round(P34)
        after = apply_bob(branches, BobControl.family(0.0))
        assert np.allclose(branches.states, after.states)

    def test_family_conjugate_sign(self):
        control = BobControl.family(0.37)
        u0, u1 = (su2(*params) for params in control.params)
        assert np.allclose(u0, su2(0.37, (0, 1, 0)))
        assert np.allclose(u1, su2(-0.37, (0, 1, 0)))
        assert np.allclose(u0 @ u1, ID2, atol=1e-14)

    def test_norm_preserved(self):
        _, branches = reference_round(P34)
        after = apply_bob(branches, BobControl.family(1.1))
        assert np.all(np.abs(np.linalg.norm(after.states, axis=1) - 1.0) <= 1e-12)

    def test_full_mode_unitary(self):
        control = BobControl(params=((0.3, (1.0, 0.0, 0.0)), (-0.2, (0.0, 0.0, 1.0))))
        _, branches = reference_round(P34)
        after = apply_bob(branches, control)
        for mu, u in enumerate((su2(0.3, (1, 0, 0)), su2(-0.2, (0, 0, 1)))):
            assert np.allclose(after.states[mu], kron(ID2, u) @ branches.states[mu])

    def test_rejects_bad_axis(self):
        control = BobControl(params=((0.3, (2.0, 0.0, 0.0)), (0.0, (0.0, 0.0, 1.0))))
        _, branches = reference_round(P34)
        with pytest.raises(ValidationError):
            apply_bob(branches, control)


class TestExtraction:
    def test_identity_control_extracts_nothing(self):
        hams, branches = reference_round(P34)
        after = apply_bob(branches, BobControl.family(0.0))
        assert extracted_energy(branches, after, hams) == pytest.approx(0.0, abs=1e-14)

    def test_result_is_probability_weighted_sum(self):
        hams, branches = reference_round(P34)
        result = optimize_bob(branches, hams)
        recombined = sum(
            p * pb for p, pb in zip(branches.probabilities, result.per_branch_energy)
        )
        assert abs(result.extracted_energy - recombined) <= 1e-12

    def test_energy_is_the_rounded_weighted_sum(self):
        # exactly p0*e0 + p1*e1 with both products rounded (no fused
        # multiply-add): the model report's residual cells pin these bits
        rng = np.random.default_rng(41)
        for p in random_params(rng, 30):
            hams, branches = reference_round(p)
            p0, p1 = branches.probabilities
            for t in (0.0, 0.3, 1.1):
                evolved = evolve_branches(branches, hams, t)
                result = optimize_bob(evolved, hams)
                e0, e1 = result.per_branch_energy
                assert result.extracted_energy == p0 * e0 + p1 * e1
                e0, e1 = (expectation(s, hams.h_b) for s in evolved.states)
                assert branch_average(evolved, hams.h_b) == p0 * e0 + p1 * e1
                after = apply_bob(evolved, BobControl.family(0.4))
                e0, e1 = (
                    expectation(s, hams.h_tot) - expectation(a, hams.h_tot)
                    for s, a in zip(evolved.states, after.states)
                )
                assert extracted_energy(evolved, after, hams) == p0 * e0 + p1 * e1

    def test_family_optimum_matches_closed_form_at_3_4(self):
        hams, branches = reference_round(P34)
        result = optimize_bob(branches, hams)
        assert result.extracted_energy == pytest.approx(e_b_closed(P34), rel=1e-6)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_family_optimum_on_alpha_grid(self, alpha):
        p = ModelParams.from_alpha(alpha)
        hams, branches = reference_round(p)
        result = optimize_bob(branches, hams)
        assert result.extracted_energy == pytest.approx(e_b_closed(p), rel=1e-6)

    def test_alpha_one_frozen_value(self):
        # (3/sqrt(2)) * (sqrt(10/9) - 1)
        p = ModelParams.from_alpha(1.0)
        hams, branches = reference_round(p)
        result = optimize_bob(branches, hams)
        assert result.extracted_energy == pytest.approx(0.11474763394014725, rel=1e-9)

    def test_optimizer_angle_matches_analytic(self):
        hams, branches = reference_round(P34)
        result = optimize_bob(branches, hams)
        assert result.control.params[0][0] == pytest.approx(
            optimal_rotation_angle(P34), abs=1e-7
        )

    def test_full_at_least_family(self):
        rng = np.random.default_rng(13)
        for p in random_params(rng, n=5):
            hams, branches = reference_round(p)
            family = optimize_bob(branches, hams).extracted_energy
            assert bob_optimum(branches, hams, "full") >= family - 1e-9

    def test_full_equals_family_at_zero_delay(self):
        # the conditioned rotation family already attains the per-branch
        # optimum at t = 0; any excess would flag a regression
        hams, branches = reference_round(P34)
        family = optimize_bob(branches, hams).extracted_energy
        assert abs(bob_optimum(branches, hams, "full") - family) <= 1e-9

    def test_no_information_no_extraction(self):
        rng = np.random.default_rng(14)
        for p in random_params(rng, n=5):
            hams, branches = reference_round(p)
            assert bob_optimum(branches, hams, "shared") <= 1e-9

    def test_ground_state_passivity(self):
        hams = build_hamiltonians(P34)
        g = ground_state_closed_form(P34)
        e0 = expectation(g, hams.h_tot)
        rng = np.random.default_rng(15)
        for _ in range(25):
            theta = rng.uniform(-math.pi, math.pi)
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            u4 = kron(ID2, su2(theta, axis))
            lowered = e0 - expectation(u4 @ g, hams.h_tot)
            assert lowered <= 1e-12
        # global unitaries cannot help either: the ground energy is the
        # bottom of the spectrum
        for _ in range(10):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            hm = (a + a.conj().T) / 2
            u = kernel.evolve_operator(hm, 0.7)
            lowered = e0 - expectation(u @ g, hams.h_tot)
            assert lowered <= 1e-12

    def test_optimizer_deterministic(self):
        hams, branches = reference_round(P34)
        a = optimize_bob(branches, hams)
        b = optimize_bob(branches, hams)
        assert a.extracted_energy == b.extracted_energy
        assert a.per_branch_energy == b.per_branch_energy
        assert a.control == b.control

    def test_optimize_bob_builds_the_branch_matrices_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _rotation_costs(*args)

        monkeypatch.setattr(protocol, "_rotation_costs", counted)
        hams, branches = reference_round(P34)
        optimize_bob(branches, hams)
        assert len(calls) == 1


# (row, column) in M of each entry `_branch0_entries` returns.
ENTRY_INDEX = ((0, 0), (0, 1), (0, 2), (2, 0), (2, 1), (2, 2))


def closed_branch0(p, times):
    """Branch 0's M at every time, shape (N, 3, 3), from `_branch0_entries`."""
    coefficients = _coefficients(p)
    m = np.zeros((len(times), 3, 3))
    for i, t in enumerate(times):
        for (row, col), entry in zip(ENTRY_INDEX, _branch0_entries(coefficients, t)):
            m[i, row, col] = entry
    return m


def measured_wahba(p, times):
    """Both branches' M measured on the evolved states, shape (N, 2, 3, 3)."""
    hams, branches = reference_round(p)
    return np.array(
        [
            _rotation_costs(evolve_branches(branches, hams, t).states, hams.h_tot)
            for t in times
        ]
    )


# Branch 1's M against branch 0's: M_xz, M_zx and M_zy change sign with mu.
MU1_SIGNS = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, 1.0], [-1.0, -1.0, 1.0]])


class TestClosedFormWahba:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.floats(math.log(0.1), math.log(10.0)).map(math.exp),
        st.floats(0.5, 2.0),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    )
    def test_matches_the_measured_branch_matrices(self, alpha, k, fractions):
        # up to 10^3 periods of the fastest Bohr frequency 2s + 2k; both
        # paths lose the same absolute phase accuracy as w*t grows
        p = ModelParams(alpha * k, k)
        w_max = 2.0 * p.energy_scale + 2.0 * k
        times = np.array(sorted(f * 1e3 * 2.0 * math.pi / w_max for f in fractions))
        measured = measured_wahba(p, times)
        bound = 1e-14 * max(p.h, 2.0 * k) * (1.0 + w_max * times)
        closed = closed_branch0(p, times)
        assert np.all(np.abs(closed - measured[:, 0]).max(axis=(1, 2)) <= bound)
        # the sweep reads branch 0 alone: branch 1 only flips three signs
        flipped = measured[:, 0] * MU1_SIGNS
        assert np.all(np.abs(measured[:, 1] - flipped).max(axis=(1, 2)) <= bound)

    def test_y_row_vanishes(self):
        # H_tot has no sigma_y term on site B, so rank(M) <= 2
        m = measured_wahba(P34, [0.0, 0.3, 1.7])
        assert np.all(m[:, :, 1, :] == 0.0)

    @pytest.mark.parametrize(
        "times", [[0.0, -0.1], [0.0, math.nan], [[0.1]], [math.inf]]
    )
    def test_rejects_bad_times(self, times):
        for policy in POLICIES:
            with pytest.raises(ValidationError, match="^latenc(ies|y) must be"):
                extraction_curve(P34, times, policy, "family")

    def test_tuple_grid_is_checked_as_its_list(self):
        # a tuple is the other grid type; its entries are checked as the
        # list's, with the list's messages
        grid = [0.0, 0.25, 1, 1.7]
        for policy, mode in [
            ("optimize", "family"),
            ("optimize", "full"),
            ("optimize", "shared"),
            ("closed-form-theta", "family"),
        ]:
            curve = extraction_curve(P34, tuple(grid), policy, mode)
            assert curve == extraction_curve(P34, grid, policy, mode)
        for bad in (
            [0.0, "0.5"], [0.0, 0.5j], [0.0, (0.5,)], [0.0, math.nan], [0.5, 0.25]
        ):
            with pytest.raises(ValidationError) as from_list:
                extraction_curve(P34, bad, "optimize", "family")
            with pytest.raises(ValidationError) as from_tuple:
                extraction_curve(P34, tuple(bad), "optimize", "family")
            assert str(from_tuple.value) == str(from_list.value)

    def test_rejects_times_whose_phase_overflows(self):
        # 2st overflowed to inf and the entries came back nan
        p = ModelParams(h=1e30, k=1.0)
        with pytest.raises(ValidationError, match="4\\*s\\*t finite"):
            extraction_curve(p, [1e300], "optimize", "full")
        for mode in ("family", "full", "shared"):
            curve = extraction_curve(p, [0.0, 1e270], "optimize", mode)
            assert np.all(np.isfinite(curve))

    def test_checks_policy_then_mode_then_times(self):
        with pytest.raises(ValidationError, match="policy"):
            extraction_curve(P34, [-1.0], "guess", "annealing")
        with pytest.raises(ValidationError, match="mode"):
            extraction_curve(P34, [-1.0], "optimize", "annealing")


def amplitude_form_wahba(h, k, t):
    """Branch 0's M(t) in mpmath from the ground amplitudes (a, b).

    The amplitude form: c+- = (b +- a)/2, frequencies 2s +- 2k and 4k.
    Independent of the two-angle form in `_branch0_entries`; the caller sets
    a working precision that covers its cancellations.  Rows of mpf.
    """
    h, k, t = mpmath.mpf(h), mpmath.mpf(k), mpmath.mpf(t)
    s = mpmath.sqrt(h * h + k * k)
    a = k / mpmath.sqrt(2 * s * (s + h))
    b = -mpmath.sqrt((1 + h / s) / 2)
    c_p, c_m = (b + a) / 2, (b - a) / 2
    cos_p, sin_p = mpmath.cos((2 * s + 2 * k) * t), mpmath.sin((2 * s + 2 * k) * t)
    cos_m, sin_m = mpmath.cos((2 * s - 2 * k) * t), mpmath.sin((2 * s - 2 * k) * t)
    m = [
        [
            2 * k * (2 * a * b),
            2 * k * (2 * c_p * c_m * mpmath.sin(4 * k * t)),
            2 * k * (-2 * c_p * c_m * (cos_p + cos_m)),
        ],
        [0, 0, 0],
        [
            h * 2 * (c_p**2 * cos_p - c_m**2 * cos_m),
            h * 2 * c_p * c_m * (sin_p - sin_m),
            h * (a * a - b * b) * (1 + mpmath.cos(4 * k * t)) / 2,
        ],
    ]
    return m


class TestWahbaAcrossTheDomain:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.floats(-60.0, 60.0),
        st.floats(0.0, 1.0),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
    )
    def test_matches_a_high_precision_oracle(self, log_alpha, k_place, fractions):
        # alpha log-uniform over the whole stated domain, k anywhere that
        # keeps h = alpha*k in it, t over five periods of 2s + 2k
        lo, hi = max(-30.0, -30.0 - log_alpha), min(30.0, 30.0 - log_alpha)
        k = 10.0 ** (lo + (hi - lo) * k_place)
        h = min(max(10.0**log_alpha * k, PARAM_MIN), PARAM_MAX)
        p = ModelParams(h=h, k=k)
        w_max = 2.0 * p.energy_scale + 2.0 * k
        times = np.array(sorted(f * 5.0 * 2.0 * math.pi / w_max for f in fractions))
        # 50 digits plus the 2|log10 alpha| that c+- and 2s - 2k cancel
        with mpmath.workdps(55 + 2 * math.ceil(abs(log_alpha))):
            exact = np.array(
                [amplitude_form_wahba(h, k, t) for t in times], dtype=float
            )
        closed = closed_branch0(p, times)
        # both forms agree to a few ulps of the largest entry per radian
        bound = 4.0 * np.finfo(float).eps * max(h, 2.0 * k) * (1.0 + w_max * times)
        assert np.all(np.abs(closed - exact).max(axis=(1, 2)) <= bound)
        e_b = run_once(p, 0.0).e_b_extracted
        assert abs(e_b - e_b_closed(p)) <= 1e-12 * e_b_closed(p)


def oracle_gains(m, theta):
    """(full, shared, family, fixed-angle) E_B from branch 0's exact M (rows
    of mpf), the fixed angle being the float theta.

    Full: tr M + sigma1 + sigma2 + sigma3 from mpmath's SVD; sigma3 = 0,
    so the sign of det M does not matter.  Shared: (M_0 + M_1)/2 keeps
    xx, xy and zz, its rows (xx, xy, 0) and (0, 0, zz) are orthogonal, and
    its singular values are hypot(xx, xy) and |zz|; with xx < 0 and
    zz <= 0 the gain is hypot(xx, xy) + xx = xy^2/(hypot(xx, xy) - xx),
    exactly 0 where xy is.  The sigma_y family at angle phi gives
    a0 (1 - cos 2phi) + a2 sin 2phi, a0 = xx + zz, a2 = xz - zx: its peak
    a0 + hypot(a0, a2) is the family's, its value at theta the fixed angle's.
    """
    sigmas = mpmath.svd_r(mpmath.matrix(m), compute_uv=False)
    xx, xy, zz = m[0][0], m[0][1], m[2][2]
    assert xx < 0 and zz <= 0
    full = xx + zz + sum(sigmas)
    shared = xy * xy / (mpmath.hypot(xx, xy) - xx)
    a0, a2 = xx + zz, m[0][2] - m[2][0]
    family = a0 + mpmath.hypot(a0, a2)
    theta = mpmath.mpf(theta)
    fixed = a0 * 2 * mpmath.sin(theta) ** 2 + a2 * mpmath.sin(2 * theta)
    return full, shared, family, fixed


class TestRank2AcrossTheDomain:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.floats(-60.0, 60.0),
        st.floats(0.0, 1.0),
        st.lists(st.floats(-3.0, 15.0), min_size=1, max_size=4),
    )
    def test_matches_a_high_precision_oracle(self, log_alpha, k_place, log_phases):
        # the (h, k) sampling of TestWahbaAcrossTheDomain, with t = 0 and
        # phases (2s + 2k)t log-uniform from 1e-3 to 1e15 radians
        lo, hi = max(-30.0, -30.0 - log_alpha), min(30.0, 30.0 - log_alpha)
        k = 10.0 ** (lo + (hi - lo) * k_place)
        h = min(max(10.0**log_alpha * k, PARAM_MIN), PARAM_MAX)
        p = ModelParams(h=h, k=k)
        w_max = 2.0 * p.energy_scale + 2.0 * k
        times = sorted({0.0, *(10.0**x / w_max for x in log_phases)})
        theta = optimal_rotation_angle(p)
        # E_B can sit 2|log10 alpha| digits below the largest entry, and a
        # phase of 1e15 radians takes 15 digits to reduce
        with mpmath.workdps(76 + 3 * math.ceil(abs(log_alpha))):
            exact = [oracle_gains(amplitude_form_wahba(h, k, t), theta) for t in times]
        controls = {
            "full": ("optimize", "full"),
            "shared": ("optimize", "shared"),
            "family": ("optimize", "family"),
            "fixed": ("closed-form-theta", "family"),
        }
        rows = {
            name: [
                r.e_b_extracted
                for r in sweep_latency(p, times, policy=policy, mode=mode)
            ]
            for name, (policy, mode) in controls.items()
        }
        eps = np.finfo(float).eps
        for i, t in enumerate(times):
            # a few ulps of E_B, plus the entries' phase error per radian
            slack = 32.0 * eps * max(h, 2.0 * k) * w_max * t
            for name, value in zip(controls, exact[i]):
                bound = 32.0 * eps * abs(float(value)) + slack
                assert abs(rows[name][i] - float(value)) <= bound
            full, family, shared = (rows[m][i] for m in ("full", "family", "shared"))
            assert full >= family - 32.0 * eps * family - slack
            assert full >= shared - 32.0 * eps * shared - slack
        assert rows["shared"][0] == 0.0  # no classical bit at t = 0


@st.composite
def family_grids(draw):
    """(p, times): h and k log-uniform over the stated domain, and 1 to 6
    ascending latencies, each 0 or with st in [1e-100, 1e18]."""
    p = ModelParams(
        h=10.0 ** draw(st.floats(-30.0, 30.0)), k=10.0 ** draw(st.floats(-30.0, 30.0))
    )
    s = p.energy_scale
    times = st.one_of(
        st.just(0.0),
        st.floats(-100.0, 18.0).map(lambda e: 10.0**e / s),  # st log-uniform
        st.floats(1e-100, 1e18).map(lambda x: x / s),
    ).filter(lambda t: math.isfinite(4.0 * s * t))
    return p, sorted(set(draw(st.lists(times, min_size=1, max_size=6))))


def bits(values):
    return [x.hex() for x in values]


class TestFamilyAmplitudes:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(family_grids())
    def test_are_the_branch0_entries_bit_for_bit(self, case):
        # (a0, a2) = (xx + zz, xz - zx) of `_branch0_entries`, -0.0 included
        p, times = case
        coefficients = _coefficients(p)
        got = list(_family_amplitudes(coefficients, times))
        want = []
        for t in times:
            xx, _, xz, zx, _, zz = _branch0_entries(coefficients, t)
            want.append((xx + zz, xz - zx))
        assert [bits(pair) for pair in got] == [bits(pair) for pair in want]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(family_grids())
    def test_family_curves_are_the_per_point_formulas(self, case):
        # the family peak and the fixed angle's energy, each formed from the
        # six entries at one time, as the loops did before the generator
        p, times = case
        coefficients = _coefficients(p)
        theta = optimal_rotation_angle(p)
        half = math.sin(theta)
        two_half2, sin_2theta = 2.0 * half * half, math.sin(2.0 * theta)
        family, fixed = [], []
        for t in times:
            xx, _, xz, zx, _, zz = _branch0_entries(coefficients, t)
            a0, a2 = xx + zz, xz - zx
            family.append(a2 * a2 / (abs(complex(a0, a2)) - a0))
            fixed.append((xx + zz) * two_half2 + (xz - zx) * sin_2theta)
        assert bits(extraction_curve(p, times, "optimize", "family")) == bits(family)
        assert bits(extraction_curve(p, times, "closed-form-theta", "family")) == bits(
            fixed
        )


class TestClosedFormEqualsSimulation:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.floats(-30.0, 30.0),
        st.floats(-30.0, 30.0),
        st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    )
    def test_across_the_domain(self, log_h, log_k, fraction):
        # h and k log-uniform over the stated domain, t = 0 or up to five
        # periods of 2s + 2k; the 4x4 simulation is the state-level path,
        # with the Kabsch oracle in full and shared modes
        p = ModelParams(h=10.0**log_h, k=10.0**log_k)
        width = 4.0 * p.energy_scale  # spectral width of H_tot
        t = fraction * 5.0 * 2.0 * math.pi / (2.0 * p.energy_scale + 2.0 * p.k)
        hams, branches = reference_round(p)
        evolved = evolve_branches(branches, hams, t)
        # absolute: the oracle rounds at the scale of the spectral width,
        # far above E_B where E_B << eps*s (alpha = 1e-8, say)
        bound = 8.0 * np.finfo(float).eps * width * (1.0 + width * t)
        for mode in MODES:
            closed = extraction_curve(p, [t], "optimize", mode)[0]
            simulated = bob_optimum(evolved, hams, mode)
            assert abs(closed - simulated) <= bound
        closed = extraction_curve(p, [t], "closed-form-theta", "family")[0]
        after = apply_bob(evolved, BobControl.family(optimal_rotation_angle(p)))
        assert abs(closed - extracted_energy(evolved, after, hams)) <= bound
