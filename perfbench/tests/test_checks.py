"""Output checks, and how the closed loop counts a failing check."""

from types import SimpleNamespace

import checks
import harness
import pytest
from harness import LoopResult, Workload, closed_loop, run_op


def trace_row(t_c, e_b, product=None):
    product = e_b * t_c if product is None else product
    return SimpleNamespace(latency=t_c, e_b_extracted=e_b, uncertainty_product=product)


GRID = (0.0, 0.5, 1.0)
FIXED = [0.10, 0.05, 0.01]
GOOD = [trace_row(0.0, 0.12), trace_row(0.5, 0.07), trace_row(1.0, 0.03)]


def test_sweep_check_accepts_a_good_sweep():
    assert checks.check_sweep(GOOD, GRID, 0.12, FIXED) is None


def test_sweep_check_of_a_grid_without_zero_delay_skips_the_closed_form():
    assert checks.check_sweep(GOOD[1:], GRID[1:], 0.5, FIXED[1:]) is None
    assert checks.check_sweep(GOOD[1:], GRID[1:], 0.5, [0.1, 0.01]) is not None


@pytest.mark.parametrize(
    "rows, closed",
    [
        ([trace_row(0.0, 0.12), trace_row(0.5, 0.07, 0.1), GOOD[2]], 0.12),  # product
        ([GOOD[0], trace_row(0.5, 0.049), GOOD[2]], 0.12),  # below fixed angle
        (GOOD, 0.13),  # zero-delay row off the closed form
        (GOOD[:2], 0.12),  # row missing
        ([GOOD[0], trace_row(0.4, 0.07), GOOD[2]], 0.12),  # wrong latency
    ],
)
def test_sweep_check_rejects_a_corrupted_trace(rows, closed):
    assert checks.check_sweep(rows, GRID, closed, FIXED) is not None


def test_full_check():
    assert checks.check_full(0.2, 0.2 - 5e-10, 0.3) is None
    assert checks.check_full(0.19, 0.2, 0.3) is not None
    assert checks.check_full(0.2 + 1e-10, 0.2, 0.0) is None
    assert checks.check_full(0.21, 0.2, 0.0) is not None


def test_cli_check():
    assert checks.check_cli(0, b"a,b\n1,2\n", b"a,b\n1,2\n") is None
    assert "byte 6" in checks.check_cli(0, b"a,b\n1,3\n", b"a,b\n1,2\n")
    assert checks.check_cli(0, b"a,b\n", b"a,b\n1,2\n") is not None
    assert checks.check_cli(2, b"", b"") is not None


def test_wire_check():
    assert checks.check_wire("x", "x", "x") is None
    assert checks.check_wire("x", "y", "x") is not None
    assert checks.check_wire("x", "x", "y") is not None


class KnownDefect(Exception):
    pass


class WrongAnswer(Exception):
    pass


def workload_returning(output, check, raises=None):
    def op(_):
        if raises is not None:
            raise raises
        return output

    return Workload([0], op, check, known_errors=(KnownDefect,), errors=(WrongAnswer,))


@pytest.mark.parametrize(
    "output, check",
    [
        (GOOD[:1] + [trace_row(0.5, 0.07, 9.0), GOOD[2]],
         lambda _, rows: checks.check_sweep(rows, GRID, 0.12, FIXED)),
        ((0, b"alpha,f_alpha\n0.02\n"),
         lambda _, out: checks.check_cli(*out, b"alpha,f_alpha\n0.01\n")),
        (("d1", "d2"), lambda _, out: checks.check_wire(*out, "d1")),
    ],
    ids=["corrupted-trace", "byte-changed-cli-output", "digest-mismatch"],
)
def test_failing_check_is_a_failed_op_not_a_crash(output, check):
    result = closed_loop(workload_returning(output, check), seconds=0.0)
    assert result.attempted == 1
    assert result.failed == 1
    assert len(result.wrong) == 1


def test_known_error_is_failed_but_not_incorrect():
    workload = workload_returning(None, lambda *_: None, raises=KnownDefect("budget"))
    _, failed, reason = run_op(workload, 0)
    assert failed and reason is None


def test_other_program_error_is_failed_and_incorrect():
    workload = workload_returning(None, lambda *_: None, raises=WrongAnswer("bad"))
    _, failed, reason = run_op(workload, 0)
    assert failed and "WrongAnswer" in reason


def test_loop_metrics_are_per_input_medians_at_reference_speed():
    ref = harness.REFERENCE_S
    result = LoopResult(
        latencies=[0.1, 0.6, 0.4, 0.2, 0.3, 0.1],
        inputs=[0, 1, 2, 0, 1, 0],
        # between ops 1 and 2 the host runs at a third of its speed
        references=[ref, ref, 3 * ref, ref, ref, ref, ref],
    )
    assert result.attempted == 6
    assert result.input_latencies() == pytest.approx([0.1, 0.3, 0.2])
    assert result.ops_per_s() == pytest.approx(3 / 0.6)
    assert result.p50_ms() == pytest.approx(200.0)


def test_closed_loop_cycles_through_the_inputs(monkeypatch):
    ticks = iter(range(1000))
    monkeypatch.setattr(harness.time, "perf_counter", lambda: float(next(ticks)))
    monkeypatch.setattr(harness, "reference", lambda: harness.REFERENCE_S)
    workload = Workload([10, 20, 30], lambda x: x, lambda *_: None)
    result = closed_loop(workload, seconds=10.0)
    assert result.inputs == [0, 1, 2, 0]
    assert result.latencies == [1.0] * 4
    assert len(result.references) == 5
