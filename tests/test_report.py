"""The model report's plain-math numeric side against the 4x4 numpy path.

`qetsim.report` solves H_tot's two parity blocks with one Jacobi rotation
each; `qetsim.kernel` and `qetsim.protocol` compute the same quantities
through LAPACK and are its oracle here.  The two differ in summation order
only, so each energy agrees within a few ulps of 4s, H_tot's largest
eigenvalue.
"""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qetsim import report
from qetsim.cli import main
from qetsim.errors import NumericError, ValidationError
from qetsim.kernel import hermitian_eig
from qetsim.model import (
    ModelParams,
    build_hamiltonians,
    ground_state_closed_form,
    spectrum_closed_form,
)
from qetsim.protocol import (
    branch_average,
    evolve_branches,
    infused_energy,
    measure_alice,
    optimize_bob,
)

EPS = sys.float_info.epsilon

# Bounds in units of eps*4s.  Over 3,000 random points of the domain below
# the largest differences read 3.4 (spectrum), 2.0 (hb peak), 0.7 (e_a)
# and 0.2 (e_b).
ENERGY_ULPS = 8.0
# The ground vectors differ by LAPACK's mixing of the two lowest levels,
# eps*4s/gap with gap = 2h^2/(s + k); the largest read 1.24 of that.
VECTOR_ULPS = 4.0
# The fidelities |<g|closed>|^2 differ by at most 7 eps over those points.
FIDELITY_ULPS = 16.0

alphas = st.floats(math.log(1e-3), math.log(1e3)).map(math.exp)
couplings = st.floats(math.log(1e-5), math.log(1e5)).map(math.exp)

AMPLITUDES = ("amplitude |++>", "amplitude |+->", "amplitude |-+>", "amplitude |-->")


def numpy_side(p):
    """The report's numeric quantities on the 4x4 LAPACK path."""
    hams = build_hamiltonians(p)
    closed = ground_state_closed_form(p)
    eigenvalues, eigenvectors = hermitian_eig(hams.h_tot)
    branches = measure_alice(closed)
    peak = branch_average(
        evolve_branches(branches, hams, math.pi / (4.0 * p.k)), hams.h_b
    )
    return {
        "hams": hams,
        "spectrum": eigenvalues,
        "ground": eigenvectors[:, 0],
        "fidelity": abs(complex(np.vdot(eigenvectors[:, 0], closed))) ** 2,
        "e_a": infused_energy(branches, hams),
        "hb_peak": peak,
        "e_b": optimize_bob(branches, hams).extracted_energy,
    }


@settings(max_examples=200, deadline=None, derandomize=True)
@given(alphas, couplings)
def test_numeric_side_matches_the_4x4_path(alpha, k):
    p = ModelParams(alpha * k, k)
    want = numpy_side(p)
    got = report.numeric_side(p)
    unit = EPS * 4.0 * p.energy_scale

    # the cross-parity check: both builds agree entry by entry, and H_tot
    # couples neither parity block to the other
    hams = want["hams"]
    assert np.array_equal(
        np.array(report.hamiltonians(p)), [hams.h_a, hams.h_b, hams.v, hams.h_tot]
    )
    assert not np.any(hams.h_tot[np.ix_([0, 3], [1, 2])])

    spectrum_error = np.max(np.abs(np.array(got.spectrum) - want["spectrum"]))
    assert spectrum_error <= ENERGY_ULPS * unit
    for name in ("e_a", "hb_peak", "e_b"):
        assert abs(getattr(got, name) - want[name]) <= ENERGY_ULPS * unit, name

    # the ground vectors up to a global phase
    overlap = complex(np.vdot(want["ground"], got.ground))
    aligned = want["ground"] * (abs(overlap) / overlap)
    gap = spectrum_closed_form(p)[1]
    bound = VECTOR_ULPS * EPS * 4.0 * p.energy_scale / gap
    assert np.max(np.abs(aligned - np.array(got.ground))) <= bound

    rows, _ = report.model_rows(p)
    (fidelity,) = [r for r in rows if r[0] == "ground fidelity"]
    assert abs(fidelity[3] - abs(want["fidelity"] - 1.0)) <= FIDELITY_ULPS * EPS


def test_cross_parity_entry_is_a_numeric_error(monkeypatch):
    h_a, h_b, v, h_tot = report.hamiltonians(ModelParams(3, 4))
    h_tot[0][1] = h_tot[1][0] = 1e-300
    monkeypatch.setattr(report, "hamiltonians", lambda p: (h_a, h_b, v, h_tot))
    with pytest.raises(NumericError, match=r"couples the parity blocks at \(0, 1\)"):
        report.numeric_side(ModelParams(3, 4))


def _orthogonal_ground_rows(monkeypatch):
    p = ModelParams(3, 4)
    side = report.numeric_side(p)
    orthogonal = report.NumericSide(
        side.spectrum, (0.0, 1.0, 0.0, 0.0), side.e_a, side.hb_peak, side.e_b
    )
    monkeypatch.setattr(report, "numeric_side", lambda p: orthogonal)
    report.model_rows(p)


_R = 1.0 / math.sqrt(2.0)


@pytest.mark.parametrize(
    ("fail", "message"),
    [
        (lambda mp: report._expect([1.0, 0, 0, 0], [[1j, 0, 0, 0]] + [[0] * 4] * 3),
         r"expectation .* is not finite and real"),
        (lambda mp: report._schur2(math.inf, 1.0, 0.0),
         "parity-block eigensolver returned a non-finite value"),
        (lambda mp: report._eigenpairs([[0, 0, 0, 1]] + [[0] * 4] * 3),
         r"H_tot is not symmetric at \(0, 3\)"),
        (lambda mp: report._branches([_R, 0.0, _R, 0.0]),
         "degenerate measurement branch mu=1"),
        (lambda mp: report._branches([1.0, 0.0, 0.0, 1.0]),
         "branch probabilities sum to 2.0, not 1"),
        (_orthogonal_ground_rows,
         "numeric ground vector is orthogonal to the closed form"),
    ],
    ids=["imaginary-expectation", "non-finite-block", "asymmetric", "degenerate-branch",
         "unnormalised-state", "orthogonal-ground"],
)
def test_numeric_side_failures(monkeypatch, fail, message):
    # each NumericError the report's numeric side raises, on an input that
    # reaches it
    with pytest.raises(NumericError, match=message):
        fail(monkeypatch)


@pytest.mark.parametrize(
    "block",
    [(2.0, 0.0, -1.0), (3.0, 1.0, 3.0), (16.0, 8.0, 4.0), (1e-20, 2.0, -1e20),
     (1e20, 1.0, 1e20)],
    ids=["diagonal", "equal-diagonal", "golden-even", "wide", "rounded-gap"],
)
def test_schur2_diagonalises_its_block(block):
    app, apq, aqq = block
    triples = report._schur2(app, apq, aqq)
    assert triples[0][0] <= triples[1][0]
    scale = EPS * max(map(abs, block))
    mean = (app + aqq) / 2.0
    for value, rate, (x, y) in triples:
        assert math.hypot(x, y) == pytest.approx(1.0, abs=2 * EPS)
        assert abs(app * x + apq * y - value * x) <= 4 * scale
        assert abs(apq * x + aqq * y - value * y) <= 4 * scale
        # a rate is its eigenvalue less the mean diagonal
        assert abs(value - rate - mean) <= 4 * scale
    (_, r0, (x0, y0)), (_, r1, (x1, y1)) = triples
    assert abs(x0 * x1 + y0 * y1) <= 2 * EPS
    # the rates sum to 0 within an ulp of the mean diagonal, and keep the
    # gap hypot(app - aqq, 2 apq) where the eigenvalues round together
    assert abs(r0 + r1) <= math.ulp(mean)
    assert r1 - r0 == pytest.approx(math.hypot(app - aqq, 2.0 * apq), rel=4 * EPS)


def test_solver_failure_exit_3(monkeypatch, capsys):
    # a numeric failure of the report's own numeric side, such as its block
    # eigensolver, is the CLI's numeric-failure exit code
    def fail(*args):
        raise NumericError("parity-block eigensolver did not converge")

    monkeypatch.setattr(report, "_schur2", fail)
    assert main(["model", "--h", "3", "--k", "4"]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_near_degenerate_levels_keep_the_ground_vector(tmp_path, capsys):
    # at alpha = 1e-8 the odd block's lower level is 1e-16 above the ground
    # level; the ground vector comes from the even block, so its amplitudes
    # and fidelity hold.  The e_a row's numeric side sums O(s) terms into
    # O(h^2/s) and still fails (ROADMAP item 4, cause (c))
    out = tmp_path / "report.json"
    assert main(["model", "--alpha", "1e-8", "--format", "json",
                 "--output", str(out)]) == 3
    assert "orthogonal" not in capsys.readouterr().err
    checks = {c["quantity"]: c for c in json.loads(out.read_text())["checks"]}
    for name in (*AMPLITUDES, "ground fidelity"):
        assert checks[name]["residual"] <= checks[name]["tolerance"], name
    assert checks["e_a"]["residual"] > checks["e_a"]["tolerance"]


@pytest.mark.parametrize("k", [1e-20, 1.0, 1e20])
def test_report_holds_for_alpha_at_least_a_hundredth(k):
    # the hb peak row evolves each parity block in its own frame; with
    # eigenvalues for rates its phase reached alpha*pi and the odd block's
    # 4k beat rounded away, failing from alpha ~ 1e12 (ROADMAP item 4)
    for j in range(-4, 121):
        alpha = 10.0 ** (j / 2)
        if not 1e-30 <= alpha * k <= 1e30:
            continue
        _rows, worst = report.model_rows(ModelParams(alpha * k, k))
        assert worst <= 1.0, f"alpha={alpha:g}: x{worst:.3g}"


@pytest.mark.parametrize("form", ["xml", "JSON", ""])
def test_unknown_form_is_rejected(form):
    # any form but table and csv printed the JSON report
    with pytest.raises(ValidationError, match="table, csv or json"):
        report.model_report(ModelParams(3.0, 4.0), form)


@pytest.mark.parametrize("alpha", [10.0 ** (-10 + i / 10) for i in range(41)])
def test_ground_vector_comes_from_the_even_block(alpha):
    # below alpha ~ 1e-6 the odd block's lower level, 2h^2/(s + k), can
    # round below the ground level; the amplitude and fidelity rows read
    # the even block's vector all the same
    rows, _ = report.model_rows(ModelParams.from_alpha(alpha))
    for name, _closed, _numeric, resid, tol in rows:
        if name in AMPLITUDES or name == "ground fidelity":
            assert resid <= tol, name


def test_status_is_unit_invariant():
    # with hbar = 1 the energy unit is free, and scaling (h, k) by 2^j is
    # exact in binary floating point, so the report's status must not move
    # (ROADMAP item 13)
    statuses = [
        report.model_rows(ModelParams(3.0 * 2.0**j, 4.0 * 2.0**j))[1] <= 1.0
        for j in (0, 30)
    ]
    assert statuses[0] == statuses[1]
