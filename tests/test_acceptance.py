"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import functools
import math
import threading

import numpy as np
from oracles import GOLDEN, golden_commands, random_params, reference_round

from qetsim import kernel
from qetsim.audit import (
    CLAIMED_F_MAX,
    IonParams,
    audit_ion,
    audit_minimal,
    f_alpha,
    ion_maximize,
    scan_alpha,
)
from qetsim.extraction import extraction_curve
from qetsim.kernel import ID2, expectation, kron, su2
from qetsim.locc import open_listener, run_once, wire_alice, wire_bob, sweep_latency
from qetsim.model import (
    ModelParams,
    build_hamiltonians,
    e_a_closed,
    e_b_closed,
    ground_state_closed_form,
    hb_expected,
)
from qetsim.protocol import (
    branch_average,
    evolve_branches,
    infused_energy,
    optimize_bob,
)

# fixed draw of 20 parameter points in [0.1, 10]^2
RNG_SEED = 20250810


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} [FAIL] {name}")
                raise
            print(f"criterion {num:2d} [PASS] {name}")
            return result

        return wrapper

    return decorate


@criterion(1, "ground-state suite")
def test_criterion_1_ground_state():
    for p in random_params(np.random.default_rng(RNG_SEED)):
        hams = build_hamiltonians(p)
        g = ground_state_closed_form(p)
        for term in (hams.h_a, hams.h_b, hams.v):
            assert abs(expectation(g, term)) <= 1e-10
        eigenvalues, eigenvectors = kernel.hermitian_eig(hams.h_tot)
        assert abs(eigenvalues[0]) <= 1e-10
        fidelity = abs(np.vdot(g, eigenvectors[:, 0])) ** 2
        assert fidelity >= 1.0 - 1e-12


@criterion(2, "measurement suite")
def test_criterion_2_measurement():
    for p in random_params(np.random.default_rng(RNG_SEED)):
        hams, branches = reference_round(p)
        assert np.all(np.abs(branches.probabilities - 0.5) <= 1e-12)
        simulated = infused_energy(branches, hams)
        assert abs(simulated - e_a_closed(p)) <= 1e-10 * e_a_closed(p)


@criterion(3, "diffusion suite")
def test_criterion_3_diffusion():
    for p in (ModelParams(3, 4), ModelParams(1, 1), ModelParams(5, 1)):
        hams, branches = reference_round(p)
        for t in np.linspace(0.0, 2.0 * math.pi / p.k, 200):
            evolved = evolve_branches(branches, hams, float(t))
            simulated = branch_average(evolved, hams.h_b)
            assert abs(simulated - hb_expected(p, float(t))) <= 1e-8
        peak_branches = evolve_branches(branches, hams, math.pi / (4.0 * p.k))
        peak = branch_average(peak_branches, hams.h_b)
        assert abs(peak - e_a_closed(p)) <= 1e-9


@criterion(4, "extraction suite")
def test_criterion_4_extraction():
    for alpha in (0.25, 0.5, 1.0, 2.0, 4.0):
        p = ModelParams.from_alpha(alpha)
        hams, branches = reference_round(p)
        family = optimize_bob(branches, hams).extracted_energy
        target = e_b_closed(p)
        assert abs(family - target) <= 1e-6 * target
        full = extraction_curve(p, [0.0], "optimize", "full")[0]
        assert full >= family - 1e-9
        excess = full - family
        if excess > 1e-9:
            # reported, not failed
            print(
                f"  note: full-SU(2) exceeds the family optimum by {excess:.3e} "
                f"at alpha={alpha}"
            )


@criterion(5, "passivity suite")
def test_criterion_5_passivity():
    for alpha in (0.5, 1.0, 2.0):
        p = ModelParams.from_alpha(alpha)
        assert extraction_curve(p, [0.0], "optimize", "shared")[0] <= 1e-9

    p = ModelParams(3, 4)
    hams = build_hamiltonians(p)
    g = ground_state_closed_form(p)
    base = expectation(g, hams.h_tot)
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(50):
        theta = float(rng.uniform(-math.pi, math.pi))
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        local = kron(ID2, su2(theta, axis))
        assert base - expectation(local @ g, hams.h_tot) <= 1e-12
    for _ in range(20):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u = kernel.evolve_operator((a + a.conj().T) / 2, 1.3)
        assert base - expectation(u @ g, hams.h_tot) <= 1e-12


@criterion(6, "figure-1 reproduction")
def test_criterion_6_figure_one():
    result = scan_alpha(alpha_min=0.01, alpha_max=20.0, points=10_000)
    assert np.all(np.asarray(result.values) < 1.0)
    assert 0.10 < result.max_value < 0.16
    doubled = scan_alpha(alpha_min=0.01, alpha_max=20.0, points=20_000)
    assert abs(result.max_value - doubled.max_value) < 1e-8
    print(
        f"  computed max f = {result.max_value:.9f} at alpha = "
        f"{result.argmax_alpha:.6f}; audited claim ~ {CLAIMED_F_MAX}"
    )


@criterion(7, "contradiction reproduction (minimal)")
def test_criterion_7_minimal_contradiction():
    grid = np.linspace(0.01, 20.0, 10_000)
    for k in (0.5, 1.0, 4.0):
        # closed-form product over the whole grid at the boundary time 1/k
        products = np.array([f_alpha(a) * k for a in grid[::50]]) * (1.0 / k)
        assert np.all(products < 1.0)
    for alpha in grid[::500]:
        for k in (0.5, 1.0, 4.0):
            p = ModelParams(h=float(alpha) * k, k=k)
            for frac in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
                report = audit_minimal(p, frac / k)
                assert report.product < 1.0
                assert report.verdict == "unobservable"
            boundary = audit_minimal(p, 1.0 / k)
            assert abs(boundary.product - f_alpha(float(alpha))) <= 1e-10


@criterion(8, "trapped-ion suite")
def test_criterion_8_trapped_ion():
    demo = IonParams(gamma_n=0.5, zeta_n=2.0, nu=1.0)
    phonon = ion_maximize(demo).phonon_scale_output  # the output at e_in = nu = 1
    assert abs(phonon - 0.5 * math.exp(-2.0)) <= 1e-12 * 0.5 * math.exp(-2.0)

    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(10):
        ip = IonParams(
            gamma_n=float(rng.uniform(0.05, 1.0)),
            zeta_n=float(rng.uniform(0.05, 6.0)),
            nu=float(rng.uniform(0.1, 5.0)),
        )
        maximum = ion_maximize(ip)
        target = ip.nu / ip.zeta_n
        assert abs(maximum.e_in_star - target) <= 1e-8 * target

    for _ in range(10):
        ip = IonParams(
            gamma_n=float(rng.uniform(0.05, 1.0)),
            zeta_n=float(rng.uniform(1.0, 8.0)),
            nu=float(rng.uniform(0.1, 5.0)),
        )
        t = float(rng.uniform(1e-9, 1.0)) / ip.nu
        report = audit_ion(ip, t)
        assert report.product < 1.0
        assert report.verdict == "unobservable"

    flagged = audit_ion(IonParams(gamma_n=1.0, zeta_n=0.1, nu=1.0), 1.0)
    assert flagged.flagged
    assert not audit_ion(demo, 1.0).flagged


@criterion(9, "LOCC determinism")
def test_criterion_9_locc_determinism():
    p = ModelParams(3, 4)
    first = run_once(p, 0.25)
    second = run_once(p, 0.25)
    assert first == second and first.digest() == second.digest()

    listener = open_listener("127.0.0.1:0")
    port = listener.getsockname()[1]
    box = {}

    def serve():
        box["alice"] = wire_alice(listener, p, 0.25)

    thread = threading.Thread(target=serve)
    thread.start()
    bob_trace = wire_bob(f"127.0.0.1:{port}", p, 0.25)
    thread.join(timeout=30)
    listener.close()
    assert box["alice"].digest() == bob_trace.digest() == first.digest()
    assert box["alice"] == bob_trace == first

    t_c = 1e-6 / p.k
    trace = sweep_latency(p, [t_c])[0]
    assert abs(trace.e_b_extracted - e_b_closed(p)) <= 1e-6 * e_b_closed(p)


@criterion(10, "CLI fixtures")
def test_criterion_10_cli_fixtures():
    # every golden file has exactly one manifest line and every line names a
    # golden file; tests/test_cli.py runs each line's command against its
    # file.  The last line ends in a newline, or `read` skips it in CI.
    files = sorted(path.name for path in GOLDEN.iterdir() if path.name != "COMMANDS")
    assert sorted(name for name, _ in golden_commands()) == files
    assert (GOLDEN / "COMMANDS").read_text().endswith("\n")
