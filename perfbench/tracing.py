"""Span tracing for the benchmark's traced run.

The benchmark wraps each layer's public functions in place, in every
qetsim module that imported them, so calls between modules are recorded
without changing any program file.  Spans (name, start, end, parent, op id,
raised) are kept in compact in-memory arrays and aggregated at the end.

This module imports only the standard library: the cli-cold child script
loads it before `import qetsim.cli`, whose cost it must not hide.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
from array import array

# (span name, module that defines the function, attribute).  The span name
# uses the layer's module name; `protocol.nelder_mead` is scipy's `minimize`
# as imported by qetsim.protocol.
TARGETS = (
    ("kernel.hermitian_eig", "qetsim.kernel", "hermitian_eig"),
    ("kernel.evolve_operator", "qetsim.kernel", "evolve_operator"),
    ("kernel.expectation", "qetsim.kernel", "expectation"),
    ("kernel.require_finite", "qetsim.kernel", "require_finite"),
    ("kernel.su2", "qetsim.kernel", "su2"),
    ("kernel.kron", "qetsim.kernel", "kron"),
    ("model.build_hamiltonians", "qetsim.model", "build_hamiltonians"),
    ("model.ground_state_closed_form", "qetsim.model", "ground_state_closed_form"),
    ("protocol.optimize_bob", "qetsim.protocol", "optimize_bob"),
    ("protocol.apply_bob", "qetsim.protocol", "apply_bob"),
    ("protocol.nelder_mead", "qetsim.protocol", "minimize"),
    ("protocol.measure_alice", "qetsim.protocol", "measure_alice"),
    ("protocol.evolve_branches", "qetsim.protocol", "evolve_branches"),
    ("locc.run_once", "qetsim.locc", "run_once"),
    ("locc.sweep_latency", "qetsim.locc", "sweep_latency"),
    ("locc.wire_alice", "qetsim.locc", "wire_alice"),
    ("locc.wire_bob", "qetsim.locc", "wire_bob"),
    ("audit.scan_alpha", "qetsim.audit", "scan_alpha"),
    ("audit.f_alpha", "qetsim.audit", "f_alpha"),
    ("audit.ion_maximize", "qetsim.audit", "ion_maximize"),
    ("audit.audit_minimal", "qetsim.audit", "audit_minimal"),
    ("audit.verdict_for", "qetsim.audit", "verdict_for"),
    ("formatting.fmt", "qetsim.formatting", "fmt"),
)

# Per-layer metrics reported by a traced run, in output order:
# (span name or timer, statistic).  "calls", "self" and "fail" become
# `<name>.calls_per_op`, `<name>.self_ms_per_op` and `<name>.fail_ratio`;
# "timer" reports a per-op total added with Tracer.add_time.
LAYER_STATS = (
    ("kernel.hermitian_eig", "calls"),
    ("kernel.hermitian_eig", "self"),
    ("kernel.evolve_operator", "calls"),
    ("kernel.evolve_operator", "self"),
    ("kernel.expectation", "calls"),
    ("kernel.expectation", "self"),
    ("kernel.require_finite", "calls"),
    ("kernel.require_finite", "self"),
    ("kernel.su2", "calls"),
    ("kernel.kron", "calls"),
    ("model.build_hamiltonians", "calls"),
    ("model.build_hamiltonians", "self"),
    ("model.ground_state_closed_form", "calls"),
    ("protocol.optimize_bob", "calls"),
    ("protocol.optimize_bob", "self"),
    ("protocol.optimize_bob", "fail"),
    ("protocol.apply_bob", "calls"),
    ("protocol.nelder_mead", "calls"),
    ("protocol.nelder_mead", "self"),
    ("protocol.measure_alice", "self"),
    ("protocol.evolve_branches", "calls"),
    ("protocol.evolve_branches", "self"),
    ("locc.run_once", "self"),
    ("locc.sweep_latency", "self"),
    ("locc.wire_alice", "self"),
    ("locc.wire_bob", "self"),
    ("audit.scan_alpha", "self"),
    ("audit.f_alpha", "calls"),
    ("audit.ion_maximize", "self"),
    ("audit.audit_minimal", "self"),
    ("audit.verdict_for", "calls"),
    ("cli.interpreter_ms_per_op", "timer"),
    ("cli.import_ms_per_op", "timer"),
    ("cli.import_scipy_ms_per_op", "timer"),
    ("cli.main_ms_per_op", "timer"),
    ("formatting.fmt", "calls"),
    ("formatting.fmt", "self"),
)

_SUFFIX = {"calls": ".calls_per_op", "self": ".self_ms_per_op", "fail": ".fail_ratio"}


def metric_name(name: str, stat: str) -> str:
    return name + _SUFFIX.get(stat, "")


LAYER_METRICS = tuple(metric_name(name, stat) for name, stat in LAYER_STATS)


class Tracer:
    """In-memory span store.

    Spans are recorded only between begin_op and end_op, so work the
    benchmark itself does between ops (output checks) stays out of the
    per-op figures.  Parents are tracked per thread: a span's parent is the
    innermost open span of the thread that started it.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.timers: dict[str, float] = {}
        self.ops = 0
        self._op_id = -1
        self._lock = threading.Lock()
        self._local = threading.local()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id

    @property
    def current_op(self) -> int:
        """Id of the op in progress, -1 between ops."""
        return self._op_id

    def end_op(self) -> None:
        self._op_id = -1
        self.ops += 1

    def add_time(self, timer: str, seconds: float) -> None:
        self.timers[timer] = self.timers.get(timer, 0.0) + seconds

    def _open(self, nid: int) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            idx = len(self.start)
            self.name.append(nid)
            self.start.append(self.clock())
            self.end.append(0.0)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self._op_id)
            self.raised.append(0)
        stack.append(idx)
        return idx

    def _close(self, idx: int, raised: bool) -> None:
        self.end[idx] = self.clock()
        self.raised[idx] = int(raised)
        self._local.stack.pop()

    def wrap(self, name: str, fn):
        """Return fn wrapped so each call made inside an op records a span."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op_id < 0:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                self._close(idx, raised)

        traced.__traced__ = fn
        return traced

    def export(self) -> dict:
        """Spans as plain lists (for the cli-cold child to hand back)."""
        rows = [
            [self.name[i], self.start[i], self.end[i], self.parent[i], self.raised[i]]
            for i in range(len(self.start))
        ]
        return {"names": list(self.names), "rows": rows}

    def extend(self, exported: dict, op_id: int) -> None:
        """Append spans exported by another process as part of op op_id."""
        with self._lock:
            base = len(self.start)
            for nid, start, end, parent, raised in exported["rows"]:
                self.name.append(self.name_id(exported["names"][nid]))
                self.start.append(start)
                self.end.append(end)
                self.parent.append(parent + base if parent >= 0 else -1)
                self.op.append(op_id)
                self.raised.append(raised)

    def aggregate(self) -> dict[str, tuple[int, float, int]]:
        """Per span name: (calls, self seconds, calls that raised).

        Self time is a span's duration minus the durations of its direct
        children; children of one span run in its thread, inside it.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals: dict[str, list] = {}
        for i in range(n):
            entry = totals.setdefault(self.names[self.name[i]], [0, 0.0, 0])
            entry[0] += 1
            entry[1] += self.end[i] - self.start[i] - child[i]
            entry[2] += self.raised[i]
        return {name: tuple(v) for name, v in totals.items()}

    def layer_metrics(self, stats=LAYER_STATS) -> dict[str, float]:
        """The per-layer metrics, normalised per op (LAYER_STATS order)."""
        agg = self.aggregate()
        ops = max(self.ops, 1)
        out = {}
        for name, stat in stats:
            calls, self_s, raised = agg.get(name, (0, 0.0, 0))
            if stat == "calls":
                value = calls / ops
            elif stat == "self":
                value = self_s * 1e3 / ops
            elif stat == "fail":
                value = raised / calls if calls else 0.0
            else:
                value = self.timers.get(name, 0.0) * 1e3 / ops
            out[metric_name(name, stat)] = value
        return out


def _patch_sites(package: str, original):
    """Every (module, attribute) of the package bound to original."""
    prefix = package + "."
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == package or modname.startswith(prefix)):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                yield module, attr


@contextlib.contextmanager
def instrumented(tracer: Tracer, targets=TARGETS, package: str = "qetsim"):
    """Wrap every target where the package's modules bind it; undo on exit."""
    patched = []
    try:
        for name, modname, attr in targets:
            original = getattr(importlib.import_module(modname), attr)
            wrapper = tracer.wrap(name, original)
            for module, site in _patch_sites(package, original):
                setattr(module, site, wrapper)
                patched.append((module, site, original))
        yield tracer
    finally:
        for module, site, original in reversed(patched):
            setattr(module, site, original)
