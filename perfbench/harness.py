"""Closed-loop runner: one client, the next op starts when the last ends.

Times are reported at a reference speed.  On a 2-vCPU virtual machine
shared with other tenants, the same op ran up to 1.8x slower for stretches
of 1 s to over 30 s, on both CPUs at once, so a run's raw latencies follow
the host's load.  Before and after each op the loop times `reference()`,
a fixed numpy kernel of the same kind of work as the ops (4x4 Hermitian
eigendecompositions, propagators and expectation values, driven from
Python); an op's latency divided by the mean of those two reference
times, times REFERENCE_S, is what the op takes when the host runs at the
reference's quiet speed.  Over 36-s windows of 4-5 minute traces, the
median of these ratios spread 0.02-0.05 of its median, where the median
of raw latencies spread 0.17-0.23 (in-process ops, `qetsim` subprocesses
and set-ups alike).
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# The fastest time of `reference()` on the machine the benchmark was built
# on (2-vCPU Intel Xeon virtual machine, Python 3.11, numpy 2.4).
REFERENCE_S = 2.3e-3
REFERENCE_STEPS = 120

@functools.cache
def _reference_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return np, a + a.conj().T, rng.standard_normal(4) + 0j


def reference() -> float:
    """Seconds one run of the fixed reference kernel takes now.

    Needs only numpy, imported on first use so that the set-up the
    benchmark times still pays for numpy's import.
    """
    np, h, v = _reference_inputs()
    t0 = time.perf_counter()
    total = 0.0
    for _ in range(REFERENCE_STEPS):
        w, u = np.linalg.eigh(h)
        x = ((u * np.exp(-0.1j * w)) @ u.conj().T) @ v
        total += float(np.real(np.vdot(x, h @ x)))
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, reference_s: float) -> float:
    """`seconds` measured between reference runs of `reference_s` mean."""
    return seconds / reference_s * REFERENCE_S


@dataclass
class Workload:
    """A workload's inputs, its op, and the op's output check.

    `op(input)` returns the output that `check(input, output)` judges
    (None when right, else a reason).  An op raising one of `known_errors`
    is a counted failure, the program declining to answer; raising another
    of `errors` is a failed, incorrect op.  `traced_op(input, tracer)`
    replaces `op` in the traced run when the op runs in a child process.
    """

    inputs: list
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], "str | None"]
    known_errors: tuple = ()
    errors: tuple = ()
    traced_op: Callable[[Any, Any], Any] | None = None


@dataclass
class LoopResult:
    """Latency of every op of a closed loop, the input it ran, and the
    reference times measured between the ops: references[j] right before
    op j, references[j + 1] right after it."""

    latencies: list = field(default_factory=list)
    inputs: list = field(default_factory=list)  # index into Workload.inputs
    references: list = field(default_factory=list)
    failed: int = 0
    wrong: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def input_latencies(self) -> list:
        """Per input timed, the median of its ops' latencies (failed ones
        included) at reference speed.  Per input, so a run that ends in
        the middle of a cycle through the inputs is not biased."""
        per_input = {}
        refs = self.references
        for j, (i, latency) in enumerate(zip(self.inputs, self.latencies)):
            ref = (refs[j] + refs[j + 1]) / 2.0
            per_input.setdefault(i, []).append(at_reference_speed(latency, ref))
        return [statistics.median(per_input[i]) for i in sorted(per_input)]

    def ops_per_s(self) -> float:
        """Inputs timed over the sum of their median latencies."""
        latencies = self.input_latencies()
        return len(latencies) / sum(latencies)

    def p50_ms(self) -> float:
        """Median over the inputs of their median latencies."""
        return statistics.median(self.input_latencies()) * 1e3


def run_op(workload: Workload, inp, tracer=None, op_id: int = 0):
    """Run and check one op: (latency s, failed, reason if incorrect).

    With a tracer, spans are recorded during the op only, not during its
    output check.
    """
    if tracer is not None and workload.traced_op is not None:
        op = lambda x: workload.traced_op(x, tracer)  # noqa: E731
    else:
        op = workload.op
    if tracer is not None:
        tracer.begin_op(op_id)
    error = None
    t0 = time.perf_counter()
    try:
        output = op(inp)
    except workload.known_errors:
        error = ""
    except workload.errors as exc:
        error = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
    if error is not None:
        return elapsed, True, error or None
    reason = workload.check(inp, output)
    return elapsed, reason is not None, reason


def closed_loop(workload: Workload, seconds: float, tracer=None) -> LoopResult:
    """Cycle through the inputs until `seconds` of wall time have passed."""
    result = LoopResult(references=[reference()])
    deadline = time.perf_counter() + seconds
    while True:
        op_id = result.attempted
        index = op_id % len(workload.inputs)
        inp = workload.inputs[index]
        elapsed, failed, reason = run_op(workload, inp, tracer, op_id)
        result.references.append(reference())
        result.latencies.append(elapsed)
        result.inputs.append(index)
        result.failed += failed
        if reason is not None:
            result.wrong.append(f"{inp!r}: {reason}")
        if time.perf_counter() >= deadline:
            return result
