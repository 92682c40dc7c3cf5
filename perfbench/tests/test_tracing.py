"""Trace tooling on synthetic span trees, and wrapper removal on qetsim."""

import importlib
import sys
import threading
import types

import pytest
import tracing
from harness import Workload, closed_loop


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def fakepkg():
    """fakepkg.low defines leaf(); fakepkg.high imports it by name and
    calls it from mid(), so leaf's span nests across a module boundary."""
    clock = FakeClock()
    pkg = types.ModuleType("fakepkg")
    low = types.ModuleType("fakepkg.low")
    high = types.ModuleType("fakepkg.high")

    def leaf():
        clock.advance(2.0)

    def boom():
        clock.advance(1.0)
        raise ValueError("boom")

    low.leaf = leaf
    low.boom = boom
    high.leaf = leaf  # `from fakepkg.low import leaf`

    def mid():
        clock.advance(1.0)
        high.leaf()
        high.leaf()
        clock.advance(3.0)

    high.mid = mid
    modules = {"fakepkg": pkg, "fakepkg.low": low, "fakepkg.high": high}
    sys.modules.update(modules)
    try:
        yield types.SimpleNamespace(clock=clock, low=low, high=high)
    finally:
        for name in modules:
            del sys.modules[name]


TARGETS = (
    ("low.leaf", "fakepkg.low", "leaf"),
    ("low.boom", "fakepkg.low", "boom"),
    ("high.mid", "fakepkg.high", "mid"),
)
STATS = (
    ("high.mid", "calls"),
    ("high.mid", "self"),
    ("low.leaf", "calls"),
    ("low.leaf", "self"),
    ("low.boom", "fail"),
    ("cli.main_ms_per_op", "timer"),
)


def run_ops(fakepkg, tracer, ops):
    with tracing.instrumented(tracer, TARGETS, package="fakepkg"):
        for op_id in range(ops):
            tracer.begin_op(op_id)
            fakepkg.high.mid()
            with pytest.raises(ValueError):
                fakepkg.low.boom()
            tracer.end_op()


def test_self_time_and_nesting_across_modules(fakepkg):
    tracer = tracing.Tracer(clock=fakepkg.clock)
    run_ops(fakepkg, tracer, ops=1)
    names = [tracer.names[i] for i in tracer.name]
    assert names == ["high.mid", "low.leaf", "low.leaf", "low.boom"]
    assert list(tracer.parent) == [-1, 0, 0, -1]
    agg = tracer.aggregate()
    assert agg["high.mid"] == (1, 4.0, 0)  # 8 s total minus 2 x 2 s of leaf
    assert agg["low.leaf"] == (2, 4.0, 0)
    assert agg["low.boom"] == (1, 1.0, 1)


def test_counts_are_normalised_per_op(fakepkg):
    tracer = tracing.Tracer(clock=fakepkg.clock)
    run_ops(fakepkg, tracer, ops=3)
    tracer.add_time("cli.main_ms_per_op", 0.6)
    metrics = tracer.layer_metrics(STATS)
    assert metrics == {
        "high.mid.calls_per_op": 1.0,
        "high.mid.self_ms_per_op": 4000.0,
        "low.leaf.calls_per_op": 2.0,
        "low.leaf.self_ms_per_op": 4000.0,
        "low.boom.fail_ratio": 1.0,
        "cli.main_ms_per_op": 200.0,
    }


def test_calls_between_ops_are_not_recorded(fakepkg):
    tracer = tracing.Tracer(clock=fakepkg.clock)
    with tracing.instrumented(tracer, TARGETS, package="fakepkg"):
        fakepkg.high.mid()
    assert len(tracer.start) == 0


def test_parents_are_per_thread(fakepkg):
    tracer = tracing.Tracer(clock=fakepkg.clock)
    with tracing.instrumented(tracer, TARGETS, package="fakepkg"):
        tracer.begin_op(0)
        thread = threading.Thread(target=fakepkg.high.leaf)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        fakepkg.high.mid()
        tracer.end_op()
    assert list(tracer.parent) == [-1, -1, 1, 1]


def test_exported_spans_merge_into_one_op(fakepkg):
    child = tracing.Tracer(clock=fakepkg.clock)
    run_ops(fakepkg, child, ops=1)
    parent = tracing.Tracer(clock=fakepkg.clock)
    run_ops(fakepkg, parent, ops=1)
    parent.begin_op(1)
    parent.extend(child.export(), op_id=parent.current_op)
    parent.end_op()
    assert list(parent.parent) == [-1, 0, 0, -1, -1, 4, 4, -1]
    assert list(parent.op) == [0, 0, 0, 0, 1, 1, 1, 1]
    assert parent.aggregate() == {
        "high.mid": (2, 8.0, 0),
        "low.leaf": (4, 8.0, 0),
        "low.boom": (2, 2.0, 2),
    }


def test_wrappers_are_removed_on_exit_even_after_an_error(fakepkg):
    originals = (fakepkg.low.leaf, fakepkg.high.leaf, fakepkg.high.mid)
    tracer = tracing.Tracer(clock=fakepkg.clock)
    with pytest.raises(RuntimeError):
        with tracing.instrumented(tracer, TARGETS, package="fakepkg"):
            assert fakepkg.high.leaf.__traced__ is originals[1]
            assert fakepkg.low.leaf is fakepkg.high.leaf
            raise RuntimeError("traced run failed")
    assert (fakepkg.low.leaf, fakepkg.high.leaf, fakepkg.high.mid) == originals


def qetsim_bindings():
    import qetsim.cli  # noqa: F401  (loads every qetsim module)

    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "qetsim" or name.startswith("qetsim.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_every_target_is_wrapped_where_qetsim_binds_it():
    before = qetsim_bindings()
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        during = qetsim_bindings()
        locc = importlib.import_module("qetsim.locc")
        protocol = importlib.import_module("qetsim.protocol")
        # each wrapper keeps the function it wraps in __traced__
        assert locc.optimize_bob.__traced__ is before[("qetsim.protocol", "optimize_bob")]
        assert protocol.expectation.__traced__ is before[("qetsim.kernel", "expectation")]
        assert protocol.minimize.__traced__ is before[("qetsim.protocol", "minimize")]
    wrapped = {key for key in before if during[key] is not before[key]}
    targets = {(module, attr) for _, module, attr in tracing.TARGETS}
    assert targets <= wrapped
    # every wrapped binding wraps one of the targets' functions
    target_fns = {before[key] for key in targets}
    assert all(during[key].__traced__ in target_fns for key in wrapped)


def test_untraced_run_after_a_traced_run_carries_no_wrappers():
    before = qetsim_bindings()
    from qetsim import locc
    from qetsim.model import ModelParams

    def op(t_c):
        p = ModelParams.from_alpha(1.5)
        return locc.run_once(p, t_c, policy="closed-form-theta")

    workload = Workload([0.0, 0.3], op, lambda *_: None)
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        closed_loop(workload, 0.0, tracer)
    spans_after_traced = len(tracer.start)
    assert spans_after_traced > 0
    assert qetsim_bindings() == before
    closed_loop(workload, 0.0)
    assert len(tracer.start) == spans_after_traced
