import array
import collections
import hashlib
import math
import socket
import sys
import threading
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import bob_optimum

from qetsim import extraction, kernel, model, protocol
from qetsim.audit import audit_minimal, verdict_for
from qetsim.cli import _parse_latencies
from qetsim.errors import ProtocolError, ValidationError
from qetsim.formatting import fmt
from qetsim.locc import (
    TRACE_CSV_HEADER,
    ProtocolTrace,
    _parse_endpoint,
    open_listener,
    run_once,
    sweep_csv,
    sweep_latency,
    wire_alice,
    wire_bob,
)
from qetsim.model import (
    PARAM_MAX,
    PARAM_MIN,
    ModelParams,
    build_hamiltonians,
    diffusion_period,
    e_a_closed,
    e_b_closed,
    ground_state_closed_form,
    optimal_rotation_angle,
)
from qetsim.extraction import MODES, POLICIES
from qetsim.protocol import (
    BobControl,
    apply_bob,
    evolve_branches,
    extracted_energy,
    infused_energy,
    measure_alice,
    optimize_bob,
)

P34 = ModelParams(h=3.0, k=4.0)
P21 = ModelParams(h=2.0, k=1.0)

# Latencies of other real types, each counted as its float.
REAL_LATENCIES = [np.float32(0.3), np.int64(2), Fraction(1, 3), 10**20, Decimal("0.5")]
# Values that are not a real latency.
NON_REAL_LATENCIES = ["a", "0.5", b"1", 1j, None, [0.1]]

# Bob's four controls (policy, mode), in the drift grid's hash order: the
# fixed angle is a family control.
CONTROLS = [
    ("optimize", "family"),
    ("optimize", "full"),
    ("optimize", "shared"),
    ("closed-form-theta", "family"),
]


class TestRunOnce:
    def test_zero_latency_matches_engine(self):
        trace = run_once(P34, 0.0)
        hams = build_hamiltonians(P34)
        branches = measure_alice(ground_state_closed_form(P34))
        engine = optimize_bob(branches, hams)
        assert abs(trace.e_b_extracted - engine.extracted_energy) <= 1e-10

    def test_zero_latency_matches_closed_form(self):
        trace = run_once(P34, 0.0)
        assert trace.e_b_extracted == pytest.approx(e_b_closed(P34), rel=1e-6)
        assert trace.uncertainty_product == 0.0
        assert trace.verdict == "unobservable"

    @pytest.mark.parametrize(
        ("p", "t_c", "digest"),
        [
            (
                ModelParams(3, 4),
                0.5,
                "acdc5ce1ccea8084fd800486369ebb6bd5c356f873f08f86769daf5b1b142a96",
            ),
            (
                ModelParams(3.0, 4.0),
                0.0,
                "507f3da6e8a94b2f50bd90c876fd04c0c254012c180a85cd237676c3f6d151d2",
            ),
            (
                ModelParams.from_alpha(2),
                0.25,
                "9168abfb8c9903f3a7ae2a281b3983dd3a529df0d7492be4338a4e98d730c2a4",
            ),
        ],
        ids=["h3-k4-t0.5", "h3.0-k4.0-t0", "alpha2-t0.25"],
    )
    def test_digest_bytes(self, p, t_c, digest):
        # pins the serialisation: policy, mode and the printed cells
        assert run_once(p, t_c).digest() == digest

    def test_digest_hashes_policy_mode_and_printed_row(self):
        # at t = 0 family and full print the same row, and only the mode
        # tells their digests apart
        family, full = (run_once(P34, 0.0, mode=mode) for mode in ("family", "full"))
        assert family.csv_row() == full.csv_row()
        for trace in (family, full):
            row = ",".join([trace.policy, trace.mode, trace.csv_row()])
            assert trace.digest() == hashlib.sha256(row.encode("utf-8")).hexdigest()
        assert family.digest() != full.digest()

    def test_product_recomputable(self):
        for t_c in (0.0, 0.2, 0.7):
            trace = run_once(P21, t_c)
            assert abs(
                trace.uncertainty_product - trace.e_b_extracted * t_c
            ) <= 1e-12

    def test_trace_recomputable(self):
        first = run_once(P21, 0.3, policy="closed-form-theta")
        again = run_once(P21, 0.3, policy="closed-form-theta")
        assert abs(first.e_b_extracted - again.e_b_extracted) <= 1e-10

    def test_bit_identical_repeats(self):
        a = run_once(P21, 0.4)
        b = run_once(P21, 0.4)
        assert a == b
        assert a.digest() == b.digest()

    def test_closed_form_policy_at_zero_latency(self):
        trace = run_once(P34, 0.0, policy="closed-form-theta")
        assert trace.e_b_extracted == pytest.approx(e_b_closed(P34), rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            run_once(P34, -1.0)
        with pytest.raises(ValidationError):
            run_once(P34, 0.0, policy="guess")

    @pytest.mark.parametrize("policy", POLICIES)
    def test_rejects_unknown_mode(self, policy):
        with pytest.raises(ValidationError):
            run_once(P21, 0.3, policy=policy, mode="annealing")
        with pytest.raises(ValidationError):
            sweep_latency(P21, [0.0, 0.3], policy=policy, mode="annealing")


def test_controls_are_the_admitted_pairs():
    # the fixed angle is a family control: under "full" or "shared" it gave
    # the family's E_B bit for bit, under that mode's label and digest
    admitted = []
    for policy in POLICIES:
        for mode in MODES:
            try:
                extraction.extraction_at(P21, 0.3, policy, mode)
            except ValidationError as exc:
                assert f"takes only mode 'family', not {mode!r}" in str(exc)
            else:
                admitted.append((policy, mode))
    assert admitted == CONTROLS


@pytest.mark.parametrize("mode", ["full", "shared"])
@pytest.mark.parametrize(
    "call",
    [
        lambda mode: extraction.extraction_curve(P21, [0.3], "closed-form-theta", mode),
        lambda mode: extraction.extraction_at(P21, 0.3, "closed-form-theta", mode),
        lambda mode: run_once(P21, 0.3, "closed-form-theta", mode),
        lambda mode: sweep_latency(P21, [0.3], "closed-form-theta", mode),
        # no listener and a closed port: the pair is rejected before either
        # end touches a socket
        lambda mode: wire_alice(None, P21, 0.3, "closed-form-theta", mode),
        lambda mode: wire_bob("127.0.0.1:1", P21, 0.3, "closed-form-theta", mode),
    ],
    ids=["extraction_curve", "extraction_at", "run_once", "sweep_latency",
         "wire_alice", "wire_bob"],
)
def test_fixed_angle_with_another_mode_is_rejected(call, mode):
    with pytest.raises(ValidationError, match=f"only mode 'family', not '{mode}'"):
        call(mode)


@pytest.mark.parametrize(
    "bad",
    [np.array([0.0, 0.5]), range(2), collections.deque([0.0, 0.5]), np.array(0.5)],
    ids=["array", "range", "deque", "0-d-array"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda t: extraction.extraction_curve(P21, t, "optimize", "family"),
        lambda t: extraction.extraction_at(P21, t, "optimize", "family"),
        lambda t: run_once(P21, t),
        lambda t: sweep_latency(P21, t),
        lambda t: sweep_csv(P21, t),
        # no listener and a closed port: rejected before either end touches
        # a socket
        lambda t: wire_alice(None, P21, t),
        lambda t: wire_bob("127.0.0.1:1", P21, t),
    ],
    ids=["extraction_curve", "extraction_at", "run_once", "sweep_latency",
         "sweep_csv", "wire_alice", "wire_bob"],
)
def test_array_or_iterable_is_neither_a_grid_nor_a_latency(call, bad):
    # a grid is a list or a tuple and a latency one real number: an array
    # is passed as its .tolist(), a 0-d array as its float()
    message = "^(latencies must be a flat list of real numbers|latency must be finite)$"
    for value in (bad, [bad]):
        with pytest.raises(ValidationError, match=message):
            call(value)


class TestSweep:
    def test_singleton_grid(self):
        traces = sweep_latency(P34, [0.0])
        assert len(traces) == 1
        assert traces[0] == run_once(P34, 0.0)

    def test_converges_to_closed_form(self):
        t_c = 1e-6 / P34.k
        trace = sweep_latency(P34, [t_c])[0]
        assert trace.e_b_extracted == pytest.approx(e_b_closed(P34), rel=1e-6)

    def test_curve_is_continuous(self):
        grid = [i * 0.05 for i in range(21)]
        traces = sweep_latency(P21, grid)
        values = [t.e_b_extracted for t in traces]
        for a, b in zip(values, values[1:]):
            assert abs(b - a) <= 10.0 * P21.k * 0.05

    def test_products_small_inside_teleportation_regime(self):
        # well inside t_c << 1/k the product is far below threshold; the
        # re-optimised extraction near t_c ~ 1/k reflects ordinary
        # transport and is allowed to cross it (see the boundary test)
        traces = sweep_latency(P21, [0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5])
        for trace in traces:
            assert trace.uncertainty_product < 1.0
            assert trace.verdict == "unobservable"

    def test_reoptimised_product_crosses_threshold_at_boundary(self):
        # computed truth: at t_c = 1/k the re-optimised extraction already
        # contains dynamically transported energy and the product slightly
        # exceeds 1 (1.0073 for alpha = 2), unlike the zero-delay audit
        # product, which stays f(alpha) < 1
        trace = run_once(P21, 1.0)
        assert trace.uncertainty_product == pytest.approx(1.00732, abs=5e-4)
        assert trace.verdict == "observable"

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            sweep_latency(P34, [])
        with pytest.raises(ValidationError):
            sweep_latency(P34, [0.2, 0.1])
        with pytest.raises(ValidationError):
            sweep_latency(P34, [-0.1, 0.2])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_latency(self, bad):
        with pytest.raises(ValidationError):
            sweep_latency(P34, [0.0, bad])

    @pytest.mark.parametrize(
        "grid",
        [
            [math.nan],
            [math.inf],
            [0.0, math.nan, 1.0],  # passes a plain b <= a check
            [0.0, 1.0, math.inf],
            [-math.inf, 0.0],
            [[0.1]],
            0.5,  # a bare number, not a list
            None,
            # distinct Decimals that round to one float gave two rows at one t_c
            [Decimal("0.1"), Decimal("0.1000000000000000000001")],
            # byte buffers were read as lists of byte values, unlike bytes
            bytearray(b"\x00\x01"),
            memoryview(b"\x00\x01"),
        ],
    )
    def test_grid_checked_once_at_the_boundary(self, grid):
        with pytest.raises(ValidationError):
            sweep_latency(P34, grid)

    @pytest.mark.parametrize("bad", NON_REAL_LATENCIES)
    def test_rejects_non_real_latency(self, bad):
        # a str or bytes latency once came back on the trace, whose product,
        # verdict and digest then raised TypeError
        for grid in ([bad], [0.0, bad]):
            with pytest.raises(ValidationError):
                sweep_latency(P34, grid)
        with pytest.raises(ValidationError):
            run_once(P34, bad)

    @pytest.mark.parametrize(
        "grid",
        [
            [0, 1],
            [False, True],
            [np.float32(0.0), np.int64(1)],
            (np.float64(0.0), np.float64(0.5)),
            [0, 10**30],
            [Fraction(0), Fraction(1, 2)],
        ],
    )
    def test_accepts_real_latency(self, grid):
        rows = sweep_latency(P21, grid)
        for row, t_c in zip(rows, grid):
            assert type(row.latency) is float
            assert row.latency == float(t_c)
            assert row.e_b_extracted == run_once(P21, float(t_c)).e_b_extracted
            assert len(row.digest()) == 64

    @pytest.mark.parametrize("latency", REAL_LATENCIES)
    def test_latency_counts_as_its_float(self, latency):
        # an np.float32 latency gave an np.float32 product, whose CSV cell
        # and digest differed from its float twin's; a Decimal was rejected
        row, twin = run_once(P34, latency), run_once(P34, float(latency))
        assert type(row.latency) is float
        assert type(row.uncertainty_product) is float
        assert row.uncertainty_product == twin.uncertainty_product
        assert row.csv_row() == twin.csv_row()
        assert row.digest() == twin.digest()

    @pytest.mark.parametrize(
        ("latency", "admitted"),
        [(t, True) for t in REAL_LATENCIES]
        + [
            (t, True)
            for t in (0, 1, False, True, np.float32(0.0), np.int64(1), 10**30,
                      Fraction(0), Fraction(1, 2), 0.37)
        ]
        + [(t, False) for t in NON_REAL_LATENCIES]
        + [
            (t, False)
            for t in (math.nan, math.inf, -1, -0.1, 1e308, Decimal("nan"),
                      10**400, np.float64(-1.0), np.complex64(0.5), np.array([0.5]),
                      np.array(0.5), np.array(Decimal("0.5"), dtype=object),
                      bytearray(b"1"), range(1), collections.deque([0.5]),
                      array.array("d", [0.5]))
        ],
        ids=repr,
    )
    def test_round_checks_as_a_one_point_sweep(self, latency, admitted):
        # a round admits what a one-point sweep admits and rejects the rest
        # with its message (1e308 has 4*s*t = inf)
        def outcome(call):
            try:
                return call()
            except ValidationError as exc:
                return str(exc)

        single = outcome(lambda: run_once(P34, latency))
        swept = outcome(lambda: sweep_latency(P34, [latency])[0])
        assert single == swept
        assert isinstance(single, str) != admitted

    def test_rejects_latency_whose_phase_overflows(self):
        # 4*s*t_c overflows: the phases 2st and the product E_B*t_c with it
        p = ModelParams(h=1e30, k=1.0)
        with pytest.raises(ValidationError):
            sweep_latency(p, [0.0, 1e300])
        with pytest.raises(ValidationError):
            run_once(ModelParams(h=1.0, k=1.0), 1e308)
        assert math.isfinite(sweep_latency(p, [1e270])[0].uncertainty_product)

    def test_trace_fields_are_frozen(self):
        trace = run_once(P21, 0.3)
        for name in ("latency", "e_b_extracted", "policy", "e_a", "verdict"):
            with pytest.raises(AttributeError):
                setattr(trace, name, 0.0)
        assert list(vars(trace)) == [
            "params", "latency", "e_b_extracted", "policy", "mode"
        ]

    @pytest.mark.parametrize(
        ("policy", "mode"), CONTROLS, ids=[f"{m}-{p}" for p, m in CONTROLS]
    )
    def test_run_once_is_a_one_point_sweep(self, policy, mode):
        for t_c in (0.0, 0.37):
            single = run_once(P21, t_c, policy=policy, mode=mode)
            swept = sweep_latency(P21, [t_c], policy=policy, mode=mode)[0]
            assert single == swept
            assert single.digest() == swept.digest()
            for value in (single.e_a, single.e_b_extracted, single.uncertainty_product):
                assert type(value) is float  # not a numpy scalar

    @pytest.mark.parametrize(
        "alpha", [1e-8, 1e-6, 1e-4, 1e-3, 1.0, 1e3, 1e4, 1e6, 1e8]
    )
    def test_zero_latency_across_the_alpha_domain(self, alpha):
        # at t_c = 0 the branch M has rank 1, so the full optimum is the
        # family's, and the fixed zero-delay angle is the family's optimum
        p = ModelParams.from_alpha(alpha)
        for policy, mode in [
            ("optimize", "family"),
            ("optimize", "full"),
            ("closed-form-theta", "family"),
        ]:
            trace = run_once(p, 0.0, policy=policy, mode=mode)
            assert trace.e_b_extracted == pytest.approx(
                e_b_closed(p), rel=1e-12, abs=0.0
            )
        # the state-level family optimum, at the model report's e_b
        # tolerance: its M is measured on the 4-vector branch states, good to
        # about 1e-8.  Full mode is checked through the product above: the
        # Kabsch oracle's tr((I - R)^T M) cancels where E_B << |M|.
        hams = build_hamiltonians(p)
        branches = measure_alice(ground_state_closed_form(p))
        assert optimize_bob(branches, hams).extracted_energy == pytest.approx(
            e_b_closed(p), rel=1e-6, abs=0.0
        )

    def test_skips_the_numeric_model(self, monkeypatch):
        # every binding of the 4x4 model builders, the measurement, the
        # numeric expectation/eigensolver, the Kabsch SVD and su2 raises;
        # sweeps and rounds read E_B off the closed-form M entries under
        # every control, and a round does not go through the grid entry point
        numeric_model = (
            kernel.hermitian_eig,
            kernel.expectation,
            kernel.kron,
            kernel.su2,
            model.build_hamiltonians,
            model.ground_state_closed_form,
            protocol.measure_alice,
            protocol.infused_energy,
            protocol.minimize,
        )

        def boom(*args, **kwargs):
            raise AssertionError("numeric model reached from a sweep or round")

        def ban(*banned):
            patched = 0
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] != "qetsim":
                    continue
                for attr, value in list(vars(module).items()):
                    if any(value is fn for fn in banned):
                        monkeypatch.setattr(module, attr, boom)
                        patched += 1
            assert patched >= len(banned)

        ban(*numeric_model)
        rows = {
            (policy, mode): sweep_latency(
                P21, [0.0, 0.3, 1.1], policy=policy, mode=mode
            )
            for policy, mode in CONTROLS
        }
        for (policy, mode), swept in rows.items():
            written = sweep_csv(P21, [0.0, 0.3, 1.1], policy=policy, mode=mode)
            assert written.splitlines()[1:] == [row.csv_row() for row in swept]
        ban(extraction.extraction_curve)
        for (policy, mode), swept in rows.items():
            assert len(swept) == 3
            assert run_once(P21, 0.3, policy=policy, mode=mode) == swept[1]
        for sweep in (sweep_latency, sweep_csv):
            with pytest.raises(AssertionError, match="numeric model"):
                sweep(P21, [0.3])

    def test_ten_thousand_latencies(self):
        period = diffusion_period(P21)
        grid = [2.0 * period * i / 9999 for i in range(10_000)]
        rows = sweep_latency(P21, grid)
        fixed = sweep_latency(P21, grid, policy="closed-form-theta")
        assert len(rows) == len(fixed) == 10_000
        assert rows[0].e_b_extracted == pytest.approx(e_b_closed(P21), rel=1e-9)
        for row, floor in zip(rows, fixed):
            assert row.e_b_extracted >= floor.e_b_extracted - 1e-9
            assert row.uncertainty_product == row.e_b_extracted * row.latency
            assert row.verdict == verdict_for(row.uncertainty_product)
        assert {row.verdict for row in rows} == {"observable", "unobservable"}
        for i in range(0, 10_000, 997):  # a row does not depend on the grid
            assert rows[i] == run_once(P21, grid[i])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0), st.data())
def test_round_is_bit_identical_to_its_sweep_row(log_h, log_k, data):
    # h and k log-uniform over the stated domain and t >= 0 anywhere 4st
    # stays finite, in a grid of latencies at other magnitudes: the scalar
    # round and its sweep row give the same trace, bit for bit
    p = ModelParams(h=10.0**log_h, k=10.0**log_k)
    four_s = 4.0 * p.energy_scale
    times = st.floats(0.0, sys.float_info.max / four_s).filter(
        lambda t: math.isfinite(four_s * t)
    )
    t = data.draw(times)
    grid = sorted({t, *data.draw(st.lists(times, max_size=4))})
    for policy, mode in CONTROLS:
        row = sweep_latency(p, grid, policy=policy, mode=mode)[grid.index(t)]
        single = run_once(p, t, policy=policy, mode=mode)
        assert single == row
        assert single.e_b_extracted.hex() == row.e_b_extracted.hex()  # -0.0


@st.composite
def unit_changes(draw):
    """(p, j, grid): h and k log-uniform over the stated domain, a power of
    two 2^j that keeps the scaled point in it, and 1 to 5 latencies that
    t/2^j keeps exact."""
    p = ModelParams(
        h=10.0 ** draw(st.floats(-30.0, 30.0)), k=10.0 ** draw(st.floats(-30.0, 30.0))
    )
    low, high = min(p.h, p.k), max(p.h, p.k)
    j = draw(
        st.integers(
            math.ceil(math.log2(PARAM_MIN / low)),
            math.floor(math.log2(PARAM_MAX / high)),
        )
    )
    assume(PARAM_MIN <= math.ldexp(low, j) and math.ldexp(high, j) <= PARAM_MAX)
    s = p.energy_scale

    def exact(t):
        """4st is finite and t/2^j neither rounds nor overflows."""
        try:
            return math.isfinite(4.0 * s * t) and math.ldexp(math.ldexp(t, -j), j) == t
        except OverflowError:
            return False

    # t = 0, or st from 1e-100 up, where the entries of M, and the squares
    # `extraction._rank2_gain` would form of them, come near the subnormals
    times = st.one_of(
        st.just(0.0),
        st.floats(1e-100, 100.0).map(lambda x: x / s),  # x = st
        st.floats(1e-100 / s, sys.float_info.max / (4.0 * s)),
    ).filter(exact)
    return p, j, sorted(set(draw(st.lists(times, min_size=1, max_size=5))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(unit_changes())
# st = 1e-100 at h = k = 1 and j = -91: `_rank2_gain` once formed r*r, which
# is subnormal at the scaled point, and E_B came out 5 ulps off
@example((ModelParams(1.0, 1.0), -91, [7.0710678118654755e-101]))
def test_rows_are_unit_invariant(case):
    # hbar = 1 leaves the energy unit free: (h, k, t) -> (2^j h, 2^j k, t/2^j)
    # is exact in binary floating point while nothing under- or overflows,
    # so E_B scales by 2^j exactly and the product, the verdict, their
    # printed cells and the minimal audit's product are bit-identical.  The
    # model report's status is tests/test_report.py's
    # test_status_is_unit_invariant.
    p, j, grid = case
    scaled = ModelParams(h=math.ldexp(p.h, j), k=math.ldexp(p.k, j))
    scaled_grid = [math.ldexp(t, -j) for t in grid]
    for policy, mode in CONTROLS:
        rows = sweep_latency(p, grid, policy=policy, mode=mode)
        twins = sweep_latency(scaled, scaled_grid, policy=policy, mode=mode)
        for row, twin in zip(rows, twins):
            assert twin.e_b_extracted == math.ldexp(row.e_b_extracted, j)
            assert twin.uncertainty_product.hex() == row.uncertainty_product.hex()
            assert twin.verdict == row.verdict
        printed, scaled_printed = (
            [line.split(",")[5:] for line in text.splitlines()[1:]]
            for text in (
                sweep_csv(p, grid, policy=policy, mode=mode),
                sweep_csv(scaled, scaled_grid, policy=policy, mode=mode),
            )
        )
        assert scaled_printed == printed
    for t, scaled_t in zip(grid, scaled_grid):
        if t > 0.0:
            product = audit_minimal(p, t).product
            assert audit_minimal(scaled, scaled_t).product.hex() == product.hex()


def oracle_e_b(p, t_c, policy, mode):
    """Extracted energy of one round, per point, from the public branch API."""
    hams = build_hamiltonians(p)
    branches = measure_alice(ground_state_closed_form(p))
    evolved = evolve_branches(branches, hams, t_c)
    if policy == "optimize":
        return bob_optimum(evolved, hams, mode)
    after = apply_bob(evolved, BobControl.family(optimal_rotation_angle(p)))
    return extracted_energy(evolved, after, hams)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.floats(math.log(0.1), math.log(10.0)).map(math.exp),
    st.floats(0.5, 2.0),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
)
def test_sweep_rows_match_per_point_rounds(alpha, k, fractions):
    p = ModelParams(alpha * k, k)
    grid = sorted({f * 2.0 * diffusion_period(p) for f in fractions})
    hams = build_hamiltonians(p)
    infused = infused_energy(measure_alice(ground_state_closed_form(p)), hams)
    tol = 1e-12 * max(1.0, infused)
    for policy, mode in CONTROLS:
        rows = sweep_latency(p, grid, policy=policy, mode=mode)
        for row, t_c in zip(rows, grid):
            assert row.latency == t_c
            assert row.e_a == e_a_closed(p)
            assert abs(row.e_a - infused) <= 1e-12 * row.e_a
            assert abs(row.e_b_extracted - oracle_e_b(p, t_c, policy, mode)) <= tol
            assert row.uncertainty_product == row.e_b_extracted * t_c


def ulps_to_print_boundary(x):
    """Distance, in ulps of x, from x to the nearest value where fmt(x) changes.

    fmt prints 12 significant digits, so in x's decade [10^e, 10^(e+1)) the
    printed value changes at the midpoints (n + 1/2) 10^(e-11); the nearest
    one below the decade is 10^e - 10^(e-12)/2.  Exact, in Fractions.
    """
    if x == 0.0:
        return math.inf
    unit = Fraction(10) ** (Decimal(abs(x)).adjusted() - 11)
    q = abs(Fraction(x)) / unit  # in [1e11, 1e12)
    gap = min(abs(q - math.floor(q) - Fraction(1, 2)), q - 10**11 + Fraction(1, 20))
    return float(gap * unit / Fraction(math.ulp(x)))


class TestDriftGrid:
    # The drift grid pins every printed digit of 4,444 trace rows: latencies
    # 0:2.5:0.025 at k = 1, alpha-major, under the four CONTROLS.
    ALPHAS = (1e-8, 1e-4, 0.1, 0.5, 1, 1.817, 2, 3, 10, 1e4, 1e8)
    HASH = "cdf875ec4efc0910808efec41ebb761287c32bb5f3b95f5954c0e0041d882229"

    def grid_rows(self):
        """(alpha, trace) for every drift-grid row, in hash order."""
        grid = [0.025 * i for i in range(101)]
        assert grid == _parse_latencies("0:2.5:0.025")
        return [
            (alpha, row)
            for alpha in self.ALPHAS
            for policy, mode in CONTROLS
            for row in sweep_latency(
                ModelParams.from_alpha(alpha), grid, policy=policy, mode=mode
            )
        ]

    @staticmethod
    def near_boundary(rows):
        """One line per e_b or product value within 16 ulps of a printed
        digit's rounding boundary, where a platform's cos, sin or hypot
        rounding a few ulps apart can move the hash with no code change."""
        return [
            f"alpha={alpha:g} {row.policy}/{row.mode} t={row.latency:g} "
            f"{name}: {ulps:.1f} ulps"
            for alpha, row in rows
            for name, value in (
                ("e_b", row.e_b_extracted),
                ("product", row.uncertainty_product),
            )
            if (ulps := ulps_to_print_boundary(value)) <= 16.0
        ]

    def test_digest_hash(self):
        rows = self.grid_rows()
        sha = hashlib.sha256()
        for _, row in rows:
            sha.update(row.digest().encode())
        assert len(rows) == 4444
        assert sha.hexdigest() == self.HASH, "\n".join(
            ["values within 16 ulps of a 12-digit rounding boundary:"]
            + self.near_boundary(rows)
        )

    def test_near_boundary_report(self):
        # what test_digest_hash prints on failure; at the pinned hash 14
        # values lie within 16 ulps, the closest 0.3 ulps away: at 60 digits
        # that E_B is 0.13462020391650000539, 0.2 ulps above its boundary,
        # and the shared closed form lands 0.1 ulps from it
        report = self.near_boundary(self.grid_rows())
        assert len(report) == 14
        assert "alpha=3 optimize/shared t=2.475 e_b: 0.3 ulps" in report
        assert "alpha=1e+08 optimize/family t=2.375 e_b: 1.3 ulps" in report


def test_ulps_to_print_boundary():
    # 1 prints as "1" down to 1 - 5e-13, 2251.8 ulps of 1 below it
    assert ulps_to_print_boundary(1.0) == pytest.approx(5e-13 / math.ulp(1.0))
    assert ulps_to_print_boundary(-1.0) == ulps_to_print_boundary(1.0)
    x = 0.1234567890125  # the double nearest a boundary
    assert ulps_to_print_boundary(x) <= 0.5
    below, above = x - 10.0 * math.ulp(x), x + 10.0 * math.ulp(x)
    assert fmt(below) != fmt(above)
    for y in (below, above):
        assert ulps_to_print_boundary(y) == pytest.approx(10.0, abs=0.5)


@settings(max_examples=1000, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(0.0)
@example(-0.0)
@example(math.inf)
@example(-math.inf)
@example(-math.nan)
@example(5e-324)
@example(-5e-324)
def test_fmt_prints_what_its_coercing_formula_printed(x):
    # fmt was float(x), -0.0 made 0.0 by a branch, then ".12g"; every caller
    # passes a float, so format(x + 0.0, ".12g") must print the same bytes
    def coercing_fmt(x):
        x = float(x)
        if x == 0.0:
            x = 0.0
        return format(x, ".12g")

    assert fmt(x) == coercing_fmt(x)


class TestCsv:
    @staticmethod
    def joined_rows(traces):
        return "\n".join([TRACE_CSV_HEADER, *(t.csv_row() for t in traces)]) + "\n"

    def test_header_and_rows(self):
        lines = sweep_csv(P34, [0.0, 0.1]).splitlines()
        assert lines[0] == TRACE_CSV_HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "3" and first[1] == "4" and first[-1] == "unobservable"

    @pytest.mark.parametrize(
        ("policy", "mode"), CONTROLS, ids=[f"{m}-{p}" for p, m in CONTROLS]
    )
    def test_each_control_is_its_joined_rows(self, policy, mode):
        grid = [0.0, 0.05, 0.3, 1.0, 1.1, 2.5]
        traces = sweep_latency(P21, grid, policy=policy, mode=mode)
        assert sweep_csv(P21, grid, policy, mode) == self.joined_rows(traces)

    def test_long_sweep_is_its_joined_rows(self):
        grid = [2.5e-4 * i for i in range(100_000)]
        assert sweep_csv(P21, grid) == self.joined_rows(sweep_latency(P21, grid))

    @pytest.mark.parametrize(
        "grid",
        [
            [Decimal("0"), Decimal("0.1"), Decimal("1.5")],
            [np.float32(0.0), np.float32(0.3), np.float32(1.1)],
            [0, 1, 2],
        ],
        ids=["Decimal", "float32", "int"],
    )
    def test_latency_of_another_real_type(self, grid):
        # each latency prints as its float, as the trace stores it
        text = sweep_csv(P21, grid)
        assert text == self.joined_rows(sweep_latency(P21, grid))
        assert text == sweep_csv(P21, [float(t) for t in grid])

    @pytest.mark.parametrize(
        ("policy", "mode", "grid"),
        [
            ("greedy", "family", [0.0]),
            ("greedy", "annealing", [-1.0]),
            ("optimize", "annealing", [0.0]),
            ("optimize", "annealing", []),
            ("closed-form-theta", "full", [0.0]),
            ("closed-form-theta", "shared", "0.5"),
            ("optimize", "family", []),
            ("optimize", "family", [0.2, 0.1]),
            ("optimize", "family", [0.0, math.nan]),
            ("optimize", "family", [0.5, -1.0]),
            ("optimize", "family", [0.0, 1e308]),
            ("optimize", "family", ["a"]),
            ("optimize", "family", None),
        ],
        ids=repr,
    )
    def test_checks_as_the_curve(self, policy, mode, grid):
        with pytest.raises(ValidationError) as curve:
            extraction.extraction_curve(P34, grid, policy, mode)
        with pytest.raises(ValidationError) as written:
            sweep_csv(P34, grid, policy, mode)
        assert str(written.value) == str(curve.value)

    def test_negative_zero_prints_zero(self, monkeypatch):
        # a -0.0 E_B, and a -0.0 product from a negative E_B at t_c = 0,
        # print as fmt prints them
        e_b = [-0.5, -0.0]
        monkeypatch.setattr("qetsim.locc.extraction_curve", lambda *args: e_b)
        rows = sweep_csv(P34, [0.0, 0.5], "closed-form-theta").splitlines()[1:]
        assert [row.split(",")[2:6] for row in rows] == [
            ["0", "1.8", "-0.5", "0"],
            ["0.5", "1.8", "0", "0"],
        ]
        traces = [
            ProtocolTrace(P34, t_c, e, "closed-form-theta", "family")
            for t_c, e in zip([0.0, 0.5], e_b)
        ]
        assert [trace.csv_row() for trace in traces] == rows


class TestWire:
    def test_alice_frame_bytes(self):
        # a scripted Bob sends the hello and reads the three lines Alice sends
        listener = open_listener("127.0.0.1:0")
        port = listener.getsockname()[1]
        box = {}

        def serve():
            box["alice"] = wire_alice(listener, ModelParams(3, 4), 0.5)

        thread = threading.Thread(target=serve)
        thread.start()
        with (
            socket.create_connection(("127.0.0.1", port), timeout=10) as conn,
            conn.makefile("rwb") as stream,
        ):
            stream.write(b'{"kind":"hello","h":3.0,"k":4.0,"t_c":0.5,'
                         b'"policy":"optimize","mode":"family"}\n')
            stream.flush()
            lines = stream.readlines()
        thread.join(timeout=30)
        listener.close()
        assert lines == [
            b'{"kind":"hello","h":3.0,"k":4.0,"t_c":0.5,'
            b'"policy":"optimize","mode":"family"}\n',
            b'{"kind":"outcome","mu":0,"sent_at":0.0,"deliver_at":0.5}\n',
            b'{"kind":"outcome","mu":1,"sent_at":0.0,"deliver_at":0.5}\n',
        ]
        assert box["alice"] == run_once(ModelParams(3, 4), 0.5)

    def run_pair(self, p_alice, p_bob, t_c_alice, t_c_bob, host="127.0.0.1",
                 alice=("optimize", "family"), bob=("optimize", "family")):
        """Both ends of one round in this process; `alice` and `bob` are
        each side's (policy, mode)."""
        listener = open_listener(f"{host}:0")
        port = listener.getsockname()[1]
        box = {}

        def serve():
            try:
                box["alice"] = wire_alice(listener, p_alice, t_c_alice, *alice)
            except Exception as exc:  # collected and re-raised in the test
                box["alice_error"] = exc

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            box["bob"] = wire_bob(f"{host}:{port}", p_bob, t_c_bob, *bob)
        except Exception as exc:
            box["bob_error"] = exc
        thread.join(timeout=30)
        listener.close()
        return box

    def test_identical_traces_both_ends(self):
        box = self.run_pair(P34, P34, 0.25, 0.25)
        assert "alice_error" not in box and "bob_error" not in box
        assert box["alice"].digest() == box["bob"].digest()
        assert box["alice"] == box["bob"]
        # and identical to the in-process runner
        assert box["alice"].digest() == run_once(P34, 0.25).digest()

    @pytest.mark.parametrize("host", ["[::1]", "::1"])
    def test_ipv6_loopback_round(self, host):
        box = self.run_pair(P34, P34, 0.25, 0.25, host=host)
        assert "alice_error" not in box and "bob_error" not in box
        twin = run_once(P34, 0.25).digest()
        assert box["alice"].digest() == box["bob"].digest() == twin

    @pytest.mark.parametrize("t_c", [Decimal("0.5"), np.float32(0.5)], ids=repr)
    def test_latency_of_another_real_type(self, t_c):
        # the hello once carried t_c as given, and json could not encode it
        box = self.run_pair(P34, P34, t_c, t_c)
        assert "alice_error" not in box and "bob_error" not in box
        twin = run_once(P34, float(t_c)).digest()
        assert box["alice"].digest() == box["bob"].digest() == twin
        assert type(box["alice"].latency) is type(box["bob"].latency) is float

    def test_handshake_rejects_mismatched_params(self):
        box = self.run_pair(P34, ModelParams(h=3.0, k=5.0), 0.25, 0.25)
        assert isinstance(box.get("bob_error") or box.get("alice_error"), ProtocolError)

    def test_handshake_rejects_mismatched_latency(self):
        box = self.run_pair(P34, P34, 0.25, 0.5)
        assert isinstance(box.get("bob_error") or box.get("alice_error"), ProtocolError)

    @pytest.mark.parametrize(
        ("alice", "bob"),
        [
            (("closed-form-theta", "family"), ("optimize", "family")),
            (("optimize", "family"), ("optimize", "full")),
        ],
        ids=["policy", "mode"],
    )
    def test_handshake_rejects_mismatched_control(self, alice, bob):
        # the two ends would print different rows, so neither may print one
        box = self.run_pair(P34, P34, 0.5, 0.5, alice=alice, bob=bob)
        assert "alice" not in box and "bob" not in box
        assert isinstance(box.get("alice_error"), ProtocolError)
        assert "handshake rejected" in str(box["alice_error"])
        assert isinstance(box.get("bob_error"), ProtocolError)

    def test_malformed_frame_rejected(self):
        listener = open_listener("127.0.0.1:0")
        port = listener.getsockname()[1]
        box = {}

        def serve():
            try:
                box["alice"] = wire_alice(listener, P34, 0.1)
            except Exception as exc:
                box["error"] = exc

        thread = threading.Thread(target=serve)
        thread.start()
        with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
            conn.sendall(b"this is not json\n")
            conn.shutdown(socket.SHUT_WR)
            conn.recv(4096)
        thread.join(timeout=30)
        listener.close()
        assert isinstance(box.get("error"), ProtocolError)

    @pytest.mark.parametrize(
        ("endpoint", "host"),
        [("127.0.0.1:7777", "127.0.0.1"), ("[::1]:7777", "::1"), ("::1:7777", "::1")],
    )
    def test_parses_endpoint(self, endpoint, host):
        # an IPv6 host may be bracketed; the port follows the last colon
        assert _parse_endpoint(endpoint) == (host, 7777)

    @pytest.mark.parametrize(
        ("endpoint", "message"),
        [
            ("7777", "host:port"),
            (":7777", "host:port"),
            ("[]:7777", "host:port"),
            ("localhost:http", "bad port"),
            # int() reads each of these as port 80
            ("localhost:+80", "bad port"),
            ("localhost: 80", "bad port"),
            ("localhost:8_0", "bad port"),
            ("localhost:\u0668\u0660", "bad port"),  # Arabic-Indic digits
        ],
    )
    def test_rejects_malformed_endpoint(self, endpoint, message):
        with pytest.raises(ValidationError, match=message):
            open_listener(endpoint)
        with pytest.raises(ValidationError, match=message):
            wire_bob(endpoint, P34, 0.5)

    @pytest.mark.parametrize(
        "reply", [b"[1, 2]\n", b'{"h": 3}\n'], ids=["array", "no-kind"]
    )
    def test_frame_without_kind_rejected(self, reply):
        # a scripted Alice reads Bob's hello and answers with `reply`
        with socket.create_server(("127.0.0.1", 0)) as server:
            port = server.getsockname()[1]

            def peer():
                conn, _ = server.accept()
                with conn, conn.makefile("rwb") as stream:
                    stream.readline()
                    stream.write(reply)
                    stream.flush()

            thread = threading.Thread(target=peer)
            thread.start()
            with pytest.raises(ProtocolError, match="handshake rejected: peer sent"):
                wire_bob(f"127.0.0.1:{port}", P34, 0.5)
            thread.join(timeout=30)
        assert not thread.is_alive()
