"""Closed-form extraction against brute-force oracles and over the domain.

The oracles evaluate Bob's energy for many explicit unitaries with plain
numpy, independently of the Pauli-coefficient / SVD route in
qetsim.protocol, so they check the closed forms rather than restate them.
Full and shared modes are read from the product (`extraction_curve`) or
from the Kabsch oracle on the branch states (`oracles.bob_optimum`).
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import bob_optimum

from qetsim.extraction import (
    _branch0_entries,
    _coefficients,
    _rank2_gain,
    extraction_curve,
)
from qetsim.kernel import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, su2
from qetsim.model import (
    ModelParams,
    build_hamiltonians,
    diffusion_period,
    e_b_closed,
    ground_state_closed_form,
)
from qetsim.protocol import (
    BobControl,
    _controlled_from_wahba,
    _rotation_costs,
    _turn,
    apply_bob,
    evolve_branches,
    extracted_energy,
    infused_energy,
    measure_alice,
    minimize,
    optimize_bob,
)

# Full mode must return everywhere on this (h, k, t_c) grid; an iterative
# SU(2) search failed to converge at 7 of its points (all at h = 0.1, t_c > 0).
GRID = [
    (h, k, t_c)
    for h in (0.1, 1.0, 5.0)
    for k in (0.5, 2.0)
    for t_c in (0.0, 0.05, 0.3, 0.7, 1.1)
]


def evolved_round(p, t_c):
    hams = build_hamiltonians(p)
    branches = measure_alice(ground_state_closed_form(p))
    return hams, evolve_branches(branches, hams, t_c)


def product_e_b(p, t_c, mode):
    """The product's E_B: Bob's optimum in `mode` at latency t_c."""
    return float(extraction_curve(p, [t_c], "optimize", mode)[0])


def energies_under(units, state, h_tot):
    """<(I x U)psi|H|(I x U)psi> for a stack of 2x2 unitaries U, shape (n,)."""
    psi = state.reshape(2, 2)  # psi[a, b], b the site-B index
    phi = np.einsum("nij,aj->nai", units, psi).reshape(len(units), 4)
    return np.einsum("ni,ij,nj->n", phi.conj(), h_tot, phi).real


def su2_stack(thetas, axes):
    """cos(theta)*I + i*sin(theta)*(axis . sigma) for each row."""
    n_sigma = np.einsum("nk,kij->nij", axes, np.array([SIGMA_X, SIGMA_Y, SIGMA_Z]))
    return (
        np.cos(thetas)[:, None, None] * ID2
        + 1j * np.sin(thetas)[:, None, None] * n_sigma
    )


def random_axes(rng, n):
    axes = rng.standard_normal((n, 3))
    return axes / np.linalg.norm(axes, axis=1, keepdims=True)


def random_su2(rng, n):
    return su2_stack(rng.uniform(-math.pi, math.pi, n), random_axes(rng, n))


class TestRegressionGrid:
    @pytest.mark.parametrize("h,k,t_c", GRID)
    def test_full_mode_returns_and_dominates_family(self, h, k, t_c):
        p = ModelParams(h=h, k=k)
        hams, branches = evolved_round(p, t_c)
        family = optimize_bob(branches, hams).extracted_energy
        full = product_e_b(p, t_c, "full")
        assert full >= family - 1e-12

    def test_known_failing_point(self):
        p = ModelParams(h=0.3, k=2.0)
        hams, branches = evolved_round(p, 0.05)
        family = optimize_bob(branches, hams).extracted_energy
        full = product_e_b(p, 0.05, "full")
        assert full >= family - 1e-12
        assert full > family + 1e-4


class TestFullModeOracle:
    @pytest.mark.parametrize("h,k,t_c", GRID[::3] + [(0.3, 2.0, 0.05)])
    def test_no_random_unitary_beats_closed_form(self, h, k, t_c):
        # both branches give up the same full-mode energy, the product's E_B
        p = ModelParams(h=h, k=k)
        hams, branches = evolved_round(p, t_c)
        closed = product_e_b(p, t_c, "full")
        rng = np.random.default_rng(2024)
        for state in branches.states:
            before = float(np.vdot(state, hams.h_tot @ state).real)
            drawn = before - energies_under(random_su2(rng, 3000), state, hams.h_tot)
            assert drawn.max() <= closed + 1e-12
        # and the Kabsch rotation of each branch attains it
        assert abs(bob_optimum(branches, hams, "full") - closed) <= 1e-12

    def test_shared_beats_no_random_shared_unitary(self):
        p = ModelParams(h=1.0, k=0.5)
        hams, branches = evolved_round(p, 0.7)
        shared = product_e_b(p, 0.7, "shared")
        units = random_su2(np.random.default_rng(7), 3000)
        gain = sum(
            prob
            * (
                float(np.vdot(state, hams.h_tot @ state).real)
                - energies_under(units, state, hams.h_tot)
            )
            for prob, state in zip(branches.probabilities, branches.states)
        )
        assert gain.max() <= shared + 1e-12


class TestFamilyOracle:
    @pytest.mark.parametrize("h,k,t_c", GRID[::2])
    def test_dense_grid_never_beats_closed_form(self, h, k, t_c):
        hams, branches = evolved_round(ModelParams(h=h, k=k), t_c)
        family = optimize_bob(branches, hams)
        thetas = np.linspace(-math.pi / 2.0, math.pi / 2.0, 2001)
        y_axes = np.tile([0.0, 1.0, 0.0], (len(thetas), 1))
        total = np.zeros_like(thetas)
        for sign, prob, state in zip(
            (1.0, -1.0), branches.probabilities, branches.states
        ):
            before = float(np.vdot(state, hams.h_tot @ state).real)
            units = su2_stack(sign * thetas, y_axes)
            after = energies_under(units, state, hams.h_tot)
            total += prob * (before - after)
        closed = family.extracted_energy
        assert total.max() <= closed + 1e-12
        # a sinusoid in 2*theta: the nearest grid point loses at most
        # amplitude * (1 - cos(step)) <= amplitude * step^2 / 2
        step = thetas[1] - thetas[0]
        amplitude = (total.max() - total.min()) / 2.0
        assert total.max() >= closed - amplitude * step**2 - 1e-12
        assert -math.pi / 2.0 < family.control.params[0][0] <= math.pi / 2.0


class TestSolver:
    def test_minimize_returns_a_rotation_no_rotation_beats(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = rng.standard_normal((3, 3))
            r = minimize(m)
            assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
            for _ in range(50):
                q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
                q *= np.sign(np.linalg.det(q))
                assert np.trace(r.T @ m) <= np.trace(q.T @ m) + 1e-12

    def test_minimize_on_a_stack_matches_each_matrix(self):
        rng = np.random.default_rng(23)
        stack = rng.standard_normal((6, 2, 3, 3))
        stack[0, 1] = np.outer([1.0, 0.0, 2.0], [0.5, 0.0, -1.0])  # rank 1
        rotations = minimize(stack)
        for idx in np.ndindex(6, 2):
            assert np.array_equal(rotations[idx], minimize(stack[idx]))

    @pytest.mark.parametrize(
        "theta", [0.0, 1e-9, 0.3, 1.2, math.pi / 2.0 - 1e-9, math.pi / 2.0]
    )
    def test_turn_is_one_minus_the_rotation_of_su2(self, theta):
        # I - R from (theta, axis) against R read off U^H sigma_j U
        sigmas = (SIGMA_X, SIGMA_Y, SIGMA_Z)
        axis = np.array([0.36, -0.48, 0.8])
        u = su2(theta, axis)
        r = np.array(
            [
                [np.trace(u.conj().T @ sj @ u @ sk).real / 2.0 for sk in sigmas]
                for sj in sigmas
            ]
        )
        assert np.abs(_turn(theta, axis) - (np.eye(3) - r)).max() <= 1e-15

    def test_never_builds_an_su2_matrix(self, monkeypatch):
        # the optimum's control and energies come from M and the closed-form
        # I - R; an SU(2) matrix would bring back the 1 - cos 2theta loss
        def boom(*args, **kwargs):
            raise AssertionError("su2 reached from the extraction")

        patched = 0
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "qetsim":
                continue
            for attr, value in list(vars(module).items()):
                if value is su2:
                    monkeypatch.setattr(module, attr, boom)
                    patched += 1
        assert patched >= 2  # at least kernel's own and protocol's binding
        hams, branches = evolved_round(ModelParams(h=1.0, k=0.5), 0.7)
        result = optimize_bob(branches, hams)
        m = _rotation_costs(branches.states, hams.h_tot)
        energy, _ = _controlled_from_wahba(m, branches.probabilities, result.control)
        assert float(energy) == pytest.approx(result.extracted_energy, rel=1e-12)


alphas = st.floats(math.log(0.1), math.log(10.0)).map(math.exp)
couplings = st.floats(0.5, 2.0)
fractions = st.floats(0.0, 1.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(alphas, couplings, fractions)
def test_mode_ordering_over_domain(alpha, k, fraction):
    p = ModelParams(alpha * k, k)
    t_c = fraction * 2.0 * diffusion_period(p)
    hams, branches = evolved_round(p, t_c)
    family, full, shared = (
        bob_optimum(branches, hams, mode) for mode in ("family", "full", "shared")
    )
    assert full >= family - 1e-12
    assert shared <= full + 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(alphas, couplings)
def test_zero_delay_identities_over_domain(alpha, k):
    p = ModelParams(alpha * k, k)
    hams, branches = evolved_round(p, 0.0)
    family, full, shared = (
        bob_optimum(branches, hams, mode) for mode in ("family", "full", "shared")
    )
    assert abs(full - family) <= 1e-9
    assert shared <= 1e-9
    assert abs(family - e_b_closed(p)) <= 1e-9 * e_b_closed(p)


def spherical_control(theta, polar, azimuth):
    """(theta, unit axis) with the axis given by its spherical angles."""
    axis = (
        math.sin(polar) * math.cos(azimuth),
        math.sin(polar) * math.sin(azimuth),
        math.cos(polar),
    )
    return theta, axis


angles = st.floats(-math.pi, math.pi)
su2_params = st.builds(spherical_control, angles, st.floats(0.0, math.pi), angles)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(alphas, couplings, fractions, su2_params, su2_params)
def test_controlled_extraction_matches_applied_control(
    alpha, k, fraction, params_mu0, params_mu1
):
    # any fixed control read off the branch M equals the energy measured by
    # applying its unitaries to the state vectors
    p = ModelParams(alpha * k, k)
    t_c = fraction * 2.0 * diffusion_period(p)
    hams, branches = evolved_round(p, t_c)
    control = BobControl(params=(params_mu0, params_mu1))
    m = _rotation_costs(branches.states, hams.h_tot)
    energy, _ = _controlled_from_wahba(m, branches.probabilities, control)
    applied = extracted_energy(branches, apply_bob(branches, control), hams)
    tol = 1e-12 * max(1.0, infused_energy(branches, hams))
    assert abs(float(energy) - applied) <= tol


@st.composite
def shared_cases(draw):
    """(p, times): h and k log-uniform over the stated domain, and 1 to 5
    latencies with 4st finite, from st = 1e-100 up."""
    p = ModelParams(
        h=10.0 ** draw(st.floats(-30.0, 30.0)), k=10.0 ** draw(st.floats(-30.0, 30.0))
    )
    s = p.energy_scale
    times = st.one_of(
        st.just(0.0),
        st.floats(1e-100, 100.0).map(lambda x: x / s),  # x = st
        st.floats(1e-100 / s, sys.float_info.max / (4.0 * s)),
    ).filter(lambda t: math.isfinite(4.0 * s * t))
    return p, sorted(set(draw(st.lists(times, min_size=1, max_size=5))))


def rank2_shared(p, t):
    """Shared mode as `_rank2_gain` of (M_0 + M_1)/2, whose xz, zx and zy
    are zero: the generic solve the shared closed form replaced."""
    xx, xy, _, _, _, zz = _branch0_entries(_coefficients(p), t)
    return _rank2_gain(xx, xy, 0.0, 0.0, 0.0, zz)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(shared_cases())
def test_shared_closed_form_matches_rank2_solve(case):
    # E_shared = xx + hypot(xx, xy), taken as xy*(xy/(hypot(xx, xy) - xx)),
    # against the rank-2 solve it replaced: at most 5 ulps apart over
    # 4*10^5 log-uniform draws, 6 over 10^6 latencies at alpha = 2
    p, times = case
    for t, e in zip(times, extraction_curve(p, times, "optimize", "shared")):
        want = rank2_shared(p, t)
        assert e >= 0.0
        assert abs(e - want) <= 8.0 * math.ulp(max(e, want)), (p, t)
