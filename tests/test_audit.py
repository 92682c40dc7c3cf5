import decimal
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import ion_output

from qetsim.audit import (
    AuditReport,
    IonParams,
    audit_ion,
    audit_minimal,
    f_alpha,
    ion_maximize,
    report_to_json,
    scan_alpha,
    scan_to_csv,
    uncertainty_product,
    verdict_for,
)
from qetsim.errors import NumericError, ValidationError
from qetsim.model import ModelParams, e_b_closed

# stationary point of the extraction curve: alpha*^2 = (3 + sqrt(13)) / 2
ALPHA_STAR = 1.8173540210239707
F_MAX = 0.14596427586236027

ION_DEMO = IonParams(gamma_n=0.5, zeta_n=2.0, nu=1.0)


def f_alpha_decimal(alpha):
    """f(alpha) from its defining formula in 50-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a2 = decimal.Decimal(alpha) ** 2
        front = (a2 + 2) / (a2 + 1).sqrt()
        return float(front * ((1 + a2 / (a2 + 2) ** 2).sqrt() - 1))


class TestFAlpha:
    def test_alpha_one(self):
        # (3/sqrt(2)) * (sqrt(10/9) - 1)
        assert f_alpha(1.0) == pytest.approx(0.11474763394014725, rel=1e-14, abs=0.0)

    def test_alpha_two(self):
        # (6/sqrt(5)) * (sqrt(10/9) - 1)
        assert f_alpha(2.0) == pytest.approx(0.14514555174644264, rel=1e-14, abs=0.0)

    def test_small_alpha_limit(self):
        assert f_alpha(1e-8) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "alpha", [1e-8, 1e-6, 1e-3, 0.01, 1.0, 1e3, 1e7, 1e8]
    )
    def test_no_cancellation_at_extreme_alpha(self, alpha):
        # sqrt(1 + x) - 1 evaluated directly loses every digit at both ends
        exact = f_alpha_decimal(alpha)
        assert abs(f_alpha(alpha) - exact) <= 1e-15 * exact
        e_b = e_b_closed(ModelParams.from_alpha(alpha))
        assert abs(e_b - exact) <= 1e-15 * exact

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_consistent_with_dimensionful_extraction(self, k):
        for alpha in (0.25, 1.0, 1.8, 5.0, 12.0):
            p = ModelParams(h=alpha * k, k=k)
            assert f_alpha(alpha) * k == pytest.approx(e_b_closed(p), rel=1e-12)

    def test_rejects_non_positive(self):
        with pytest.raises(ValidationError):
            f_alpha(0.0)
        with pytest.raises(ValidationError):
            f_alpha(-1.0)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.floats(-60.0, 60.0))
    def test_bounded_across_the_domain(self, log_alpha):
        # alpha log-uniform over [1e-60, 1e60], the range of h/k
        assert 0.0 < f_alpha(10.0**log_alpha) < 0.15

    def test_largest_alpha_of_the_domain(self):
        # f(alpha) = 1/(2 alpha) + O(alpha^-3); 1.0000000000000002e60 is the
        # next float, which test_rejects_alpha_past_the_domain rejects
        assert f_alpha(1e60) == pytest.approx(0.5e-60, rel=1e-12, abs=0.0)

    def test_smallest_alpha_of_the_domain(self):
        # f(alpha) = alpha^2/4 + O(alpha^4)
        assert f_alpha(1e-60) == pytest.approx(0.25e-120, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "alpha",
        [1.0000000000000002e60, 1e100, 1e200, 1e308, math.nextafter(1e-60, 0.0)],
    )
    def test_rejects_alpha_past_the_domain(self, alpha):
        # (a^2+2)^2 overflows past alpha = 1.2e77, and a^2 past 1.3e154
        message = "^alpha must be finite and >= 1e-60 and <= 1e\\+60$"
        with pytest.raises(ValidationError, match=message):
            f_alpha(alpha)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.floats(-60.0, 60.0))
    def test_scalar_and_array_square_roots_agree(self, log_alpha):
        # the audit JSON and the scan CSV read one scalar formula, so the
        # scan's value at alpha (its last point, alpha_max itself, or its
        # first where alpha/2 is below the domain) is f_alpha(alpha) bit for bit
        alpha = 10.0**log_alpha
        if alpha / 2.0 >= 1e-60:
            value = scan_alpha(alpha / 2.0, alpha, 2).values[-1]
        else:
            value = scan_alpha(alpha, 2.0 * alpha, 2).values[0]
        assert type(value) is float
        assert value == f_alpha(alpha)


class TestScan:
    def test_below_one_everywhere(self):
        result = scan_alpha(points=10_000)
        assert np.all(np.asarray(result.values) < 1.0)

    def test_maximum_bracket_and_location(self):
        result = scan_alpha(points=10_000)
        assert 0.10 < result.max_value < 0.16
        assert result.max_value == pytest.approx(F_MAX, rel=1e-10)
        assert result.argmax_alpha == pytest.approx(ALPHA_STAR, abs=1e-6)

    def test_refinement_stable_under_grid_doubling(self):
        coarse = scan_alpha(points=10_000)
        fine = scan_alpha(points=20_000)
        assert abs(coarse.max_value - fine.max_value) < 1e-8

    def test_max_consistent_with_grid(self):
        result = scan_alpha(points=10_000)
        assert result.max_value >= float(np.max(result.values)) - 1e-12
        assert result.max_value - float(np.max(result.values)) < 1e-6

    def test_figure_shape(self):
        # rises from ~0, one interior maximum, decays toward 0
        result = scan_alpha(points=2_000)
        values = result.values
        peak = int(np.argmax(values))
        assert 0 < peak < len(values) - 1
        assert np.all(np.diff(values[: peak + 1]) > 0)
        assert np.all(np.diff(values[peak:]) < 0)
        assert values[0] < 1e-3 and values[-1] < 0.03

    def test_csv_layout(self):
        result = scan_alpha(points=50)
        lines = scan_to_csv(result).splitlines()
        assert lines[0] == "alpha,f_alpha"
        assert len(lines) == 52
        assert lines[-1].startswith("# argmax_alpha=")
        assert "claimed_max=0.13" in lines[-1]

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            scan_alpha(alpha_min=0.0)
        with pytest.raises(ValidationError):
            scan_alpha(points=1)

    @pytest.mark.parametrize("alpha_min", [1e100, 1e200, math.nextafter(1e-60, 0.0)])
    def test_rejects_alpha_past_the_domain(self, alpha_min):
        message = "^alpha_min must be finite and >= 1e-60 and <= 1e\\+60$"
        with pytest.raises(ValidationError, match=message):
            scan_alpha(alpha_min, 10.0 * alpha_min, 2)

    def test_largest_alpha_of_the_domain(self):
        result = scan_alpha(1e59, 1e60, 2)
        assert result.values[-1] == f_alpha(1e60)
        assert result.argmax_alpha == 1e59

    def test_domain_ends_are_inclusive(self):
        assert scan_alpha(1e-60, 1e60, 2).grid == (1e-60, 1e60)
        message = "^alpha_max must be finite and > 1e-60 and <= 1e\\+60$"
        with pytest.raises(ValidationError, match=message):
            scan_alpha(1e-60, math.nextafter(1e60, math.inf), 2)

    def test_maximum_is_exact(self):
        result = scan_alpha(points=100)
        assert result.argmax_alpha == pytest.approx(ALPHA_STAR, rel=1e-15, abs=0.0)
        assert result.max_value == pytest.approx(F_MAX, rel=1e-15, abs=0.0)

    def test_point_limit_is_inclusive(self, monkeypatch):
        from qetsim import audit

        assert audit.MAX_SCAN_POINTS == 10**6
        monkeypatch.setattr(audit, "MAX_SCAN_POINTS", 11)
        assert len(scan_alpha(points=11).grid) == 11
        with pytest.raises(ValidationError):
            scan_alpha(points=12)


log_alphas = st.floats(math.log(0.01), math.log(20.0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(log_alphas, log_alphas, st.integers(2, 2000))
def test_scan_maximum_beats_every_grid_value(log_a, log_b, points):
    lo, hi = sorted((math.exp(log_a), math.exp(log_b)))
    assume(lo < hi)
    result = scan_alpha(alpha_min=lo, alpha_max=hi, points=points)
    assert lo <= result.argmax_alpha <= hi
    # f is evaluated to within a few ulp; on a range only ulps wide that
    # rounding can lift a grid value above the value at the exact
    # maximiser, by no more than this slack.
    a2 = np.asarray(result.grid) ** 2
    slack = 4.0 * np.finfo(float).eps * (a2 + 2.0) / np.sqrt(a2 + 1.0)
    assert np.all(np.asarray(result.values) <= result.max_value + slack)
    if ALPHA_STAR < lo:
        assert (result.argmax_alpha, result.max_value) == (lo, result.values[0])
    if ALPHA_STAR > hi:
        assert (result.argmax_alpha, result.max_value) == (hi, result.values[-1])


class TestUncertainty:
    def test_paper_style_product(self):
        assert uncertainty_product(0.13, 1.0) == pytest.approx(0.13)

    def test_zero_energy(self):
        assert uncertainty_product(0.0, 5.0) == 0.0

    def test_minimal_example(self):
        assert uncertainty_product(e_b_closed(ModelParams(3, 4)), 0.25) == (
            pytest.approx(0.08600093632938277, rel=1e-12)
        )

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            uncertainty_product(-0.1, 1.0)
        with pytest.raises(ValidationError):
            uncertainty_product(0.1, -1.0)

    def test_rejects_product_that_overflows(self):
        # e*t = inf once reached the report, whose JSON then read Infinity
        with pytest.raises(ValidationError, match="energy\\*time must be finite"):
            uncertainty_product(1e200, 1e200)
        with pytest.raises(ValidationError):
            audit_minimal(ModelParams(1e30, 1e30), 1e300)
        with pytest.raises(ValidationError):
            audit_ion(IonParams(gamma_n=1.0, zeta_n=0.5, nu=1e300), 1e300)

    def test_report_whose_product_overflows_cannot_be_built(self):
        # the record derives its product, so its constructor checks it
        with pytest.raises(ValidationError, match="energy\\*time must be finite"):
            AuditReport("minimal", 1e300, 1e300, "n")

    def test_verdict_monotone(self):
        assert verdict_for(0.999999) == "unobservable"
        assert verdict_for(1.0) == "observable"
        assert verdict_for(14.5) == "observable"


class TestAuditMinimal:
    def test_boundary_time_product_equals_f(self):
        for alpha in (0.3, 1.0, 2.0, 7.0):
            for k in (0.5, 1.0, 4.0):
                p = ModelParams(h=alpha * k, k=k)
                report = audit_minimal(p, 1.0 / k)
                assert abs(report.product - f_alpha(alpha)) <= 1e-10
                assert report.verdict == "unobservable"

    def test_regime_demonstration_observable(self):
        report = audit_minimal(ModelParams.from_alpha(2.0), 10.0)
        assert report.product == pytest.approx(1.4514555174644264, rel=1e-12)
        assert report.verdict == "observable"

    def test_tiny_time(self):
        report = audit_minimal(ModelParams.from_alpha(2.0), 1e-12)
        assert report.product < 1e-12
        assert report.verdict == "unobservable"

    def test_rejects_non_positive_time(self):
        with pytest.raises(ValidationError):
            audit_minimal(ModelParams(3, 4), 0.0)

    def test_notes_mention_regime_and_normalization(self):
        report = audit_minimal(ModelParams(3, 4), 0.1)
        assert "1/k" in report.notes
        assert "normalization" in report.notes


class TestIonOutput:
    def test_direct_substitution(self):
        # 0.5 * 1 * exp(-2) at the phonon scale
        assert ion_output(ION_DEMO, 1.0) == pytest.approx(
            0.06766764161830635, rel=1e-12
        )

    def test_zero_input(self):
        assert ion_output(ION_DEMO, 0.0) == 0.0

    def test_rejects_negative_input(self):
        with pytest.raises(ValidationError):
            ion_output(ION_DEMO, -1.0)

    def test_params_validation(self):
        with pytest.raises(ValidationError):
            IonParams(gamma_n=0.0, zeta_n=1.0, nu=1.0)
        with pytest.raises(ValidationError):
            IonParams(gamma_n=1.5, zeta_n=1.0, nu=1.0)
        # gamma_n lies in (0, 1], its upper end included
        assert IonParams(gamma_n=1.0, zeta_n=1.0, nu=1.0).gamma_n == 1.0
        message = "^gamma_n must be finite and > 0 and <= 1$"
        with pytest.raises(ValidationError, match=message):
            IonParams(gamma_n=math.nextafter(1.0, 2.0), zeta_n=1.0, nu=1.0)
        with pytest.raises(ValidationError):
            IonParams(gamma_n=0.5, zeta_n=-1.0, nu=1.0)
        with pytest.raises(ValidationError):
            IonParams(gamma_n=0.5, zeta_n=1.0, nu=0.0)


class TestIonMaximize:
    def test_demo_values(self):
        maximum = ion_maximize(ION_DEMO)
        assert maximum.e_in_star == pytest.approx(0.5, rel=1e-8)
        assert maximum.e_out_max == pytest.approx(0.09196986029286058, rel=1e-8)
        assert maximum.phonon_scale_output == pytest.approx(
            0.06766764161830635, rel=1e-12
        )

    def test_search_matches_calculus(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            ip = IonParams(
                gamma_n=float(rng.uniform(0.05, 1.0)),
                zeta_n=float(rng.uniform(0.05, 6.0)),
                nu=float(rng.uniform(0.1, 5.0)),
            )
            maximum = ion_maximize(ip)
            assert maximum.e_in_star == pytest.approx(ip.nu / ip.zeta_n, rel=1e-8)

    def test_demo_exact(self):
        maximum = ion_maximize(ION_DEMO)
        assert maximum.e_in_star == 0.5
        assert maximum.e_out_max == 0.5 * 0.5 * math.exp(-1.0)

    @pytest.mark.parametrize("params", [(1.0, 1e-10, 1e300), (1.0, 1e300, 1e-300)])
    def test_out_of_float_range(self, params):
        # nu/zeta overflows to inf, or underflows to 0
        with pytest.raises(NumericError):
            ion_maximize(IonParams(*params))

    def test_homogeneous_in_nu(self):
        base = ion_maximize(IonParams(0.5, 2.0, 1.0))
        doubled = ion_maximize(IonParams(0.5, 2.0, 2.0))
        assert doubled.e_in_star == pytest.approx(2 * base.e_in_star, rel=1e-9)
        assert doubled.e_out_max == pytest.approx(2 * base.e_out_max, rel=1e-9)


log_unit = st.floats(-7.0, 7.0).map(math.exp)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.floats(math.log(1e-6), 0.0).map(math.exp), log_unit, log_unit)
def test_ion_maximum_beats_every_grid_value(gamma, zeta, nu):
    ip = IonParams(gamma_n=gamma, zeta_n=zeta, nu=nu)
    maximum = ion_maximize(ip)
    assert maximum.e_in_star == nu / zeta
    grid = np.linspace(0.0, 10.0 * nu / zeta, 2001)
    best = max(ion_output(ip, float(e)) for e in grid)
    assert best <= maximum.e_out_max * (1.0 + 1e-15)


class TestAuditIon:
    def test_demo_unobservable(self):
        report = audit_ion(ION_DEMO, 1.0)
        assert report.product == pytest.approx(0.06766764161830635, rel=1e-12)
        assert report.verdict == "unobservable"
        assert not report.flagged

    def test_product_independent_of_nu_at_phonon_time(self):
        # gamma*nu*exp(-zeta) * (1/nu) = gamma*exp(-zeta)
        for nu in (0.5, 1.0, 2.0, 7.0):
            ip = IonParams(gamma_n=1.0, zeta_n=2.0, nu=nu)
            report = audit_ion(ip, 1.0 / nu)
            assert report.product == pytest.approx(math.exp(-2.0), rel=1e-12)
            assert report.verdict == "unobservable"

    def test_bound_regime(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            ip = IonParams(
                gamma_n=float(rng.uniform(0.05, 1.0)),
                zeta_n=float(rng.uniform(1.0, 8.0)),
                nu=float(rng.uniform(0.1, 5.0)),
            )
            t = float(rng.uniform(1e-6, 1.0 / ip.nu))
            report = audit_ion(ip, t)
            assert report.product < 1.0
            assert report.verdict == "unobservable"

    def test_flagged_regime(self):
        ip = IonParams(gamma_n=1.0, zeta_n=0.1, nu=1.0)
        report = audit_ion(ip, 1.0)
        assert report.flagged
        # the unconstrained stationary value 10/e would cross the threshold
        assert "3.67879441171" in report.notes
        maximum = ion_maximize(ip)
        assert maximum.e_out_max * 1.0 == pytest.approx(10 * math.exp(-1), rel=1e-8)
        assert maximum.e_out_max > 1.0

    def test_flagged_note_when_the_unconstrained_product_overflows(self):
        # e_out_max*t = 3.7e308 overflows while the audited product 1e299
        # does not; the note read "would be inf"
        report = audit_ion(IonParams(gamma_n=1.0, zeta_n=1e-10, nu=1e290), 1e9)
        assert report.flagged and math.isfinite(report.product)
        assert report.notes.endswith("at t=1000000000 would exceed the float range)")
        assert "inf" not in report.notes

    def test_unflagged_regime_has_no_flag(self):
        assert "flagged" not in audit_ion(ION_DEMO, 0.5).notes


class TestReportJson:
    def test_exact_fields(self):
        payload = json.loads(report_to_json(audit_minimal(ModelParams(3, 4), 0.25)))
        assert list(payload) == [
            "protocol",
            "energy",
            "time",
            "product",
            "threshold",
            "verdict",
            "notes",
        ]
        assert payload["protocol"] == "minimal"
        assert payload["threshold"] == 1.0
        assert payload["product"] == pytest.approx(0.086000936329, rel=1e-11)

    def test_verdict_matches_product(self):
        for report in (
            audit_minimal(ModelParams(3, 4), 0.25),
            audit_minimal(ModelParams.from_alpha(2.0), 100.0),
            audit_ion(ION_DEMO, 1.0),
        ):
            payload = json.loads(report_to_json(report))
            assert (payload["product"] >= payload["threshold"]) == (
                payload["verdict"] == "observable"
            )
