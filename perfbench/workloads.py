"""The four qetsim benchmark workloads: seeded inputs, op and output check.

Inputs come only from the seed (the same seed gives the same inputs); the
program receives nothing else.  qetsim is imported inside the constructors, so the
import is part of the set-up the benchmark times (`timed_setup`).

Why these four: `sweep-family` is the paper's E_B(t_c) curve and spends its
time in the family optimiser, model build and propagator; `extract-full`
is the only user of the SU(2) search (Nelder-Mead) in the protocol layer,
run at zero delay, where it converges everywhere in the domain;
`cli-cold` is what a user pays per command, where audit, formatting and
cli work and the optimiser does little; `wire-loopback` is the only user
of the socket path, with a cheap policy so handshake and framing dominate.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
from harness import Workload

WORKLOADS = ("sweep-family", "extract-full", "cli-cold", "wire-loopback")

ALPHA_RANGE = (0.1, 10.0)  # log-uniform, h = alpha * k
K_RANGE = (0.5, 2.0)
PERIODS = 2.0  # latencies span two diffusion periods pi/(2k)
SWEEP_POINTS = 101
SWEEP_CHUNKS = 5  # ops per 101-point curve
EXTRACT_POINTS = 8
PROBE_ALPHA_STRATA = 4
PROBE_LATENCY_BINS = 3
WIRE_POINTS = 16

# `qetsim run --h 0.3 --k 2 --latency 0.05 --mode full` raises NumericError:
# the full-mode optimiser exhausts its budget.  At positive delay the
# optimiser fails like this on about a quarter of the domain, so the
# benchmark's ops, which must not fail, run full mode at zero delay only,
# and every run probes the defect apart from its timed ops: this point in
# every run, and `full_mode_probe_inputs` in every traced run.
KNOWN_FAILING_POINT = (0.3, 2.0, 0.05)

GOLDEN_INVOCATIONS = (
    (("model", "--h", "3", "--k", "4"), "model_h3_k4.txt"),
    (("scan-alpha", "--points", "100"), "scan_alpha_100.csv"),
    (("audit", "minimal", "--alpha", "2", "--time", "0.25"), "audit_minimal.json"),
    (
        ("audit", "ion", "--gamma", "0.5", "--zeta", "2", "--nu", "1", "--time", "1"),
        "audit_ion.json",
    ),
)

HERE = Path(__file__).resolve().parent
WIRE_HOST = "127.0.0.1"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _strata(rng: random.Random, n: int, lo: float, hi: float, log: bool = False):
    """One uniform draw from each of n equal bins of [lo, hi], shuffled.

    Stratifying keeps the mix of cheap and costly inputs alike across
    seeds, so runs with different seeds stay comparable.
    """
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    values = [a + (b - a) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return [math.exp(v) for v in values] if log else values


def _period(k: float) -> float:
    return math.pi / (2.0 * k)


def sweep_family_inputs(seed: int):
    """(alpha, latencies): one seeded log-uniform alpha (k = 1), and the
    101-point grid over two periods dealt into SWEEP_CHUNKS interleaved
    grids, every fifth latency, each spanning both periods.

    An op sweeps one of them, about 0.3 s, short next to the host's slow
    stretches, so the reference runs around it see the speed it ran at
    (see harness); the five together are the paper's E_B(t_c) curve.
    """
    rng = _rng("sweep-family", seed)
    span = PERIODS * _period(1.0)
    grid = tuple(span * i / (SWEEP_POINTS - 1) for i in range(SWEEP_POINTS))
    alpha = math.exp(rng.uniform(*map(math.log, ALPHA_RANGE)))
    return [(alpha, grid[j::SWEEP_CHUNKS]) for j in range(SWEEP_CHUNKS)]


def extract_full_inputs(seed: int):
    """(h, k, t_c = 0) points: one draw from each of EXTRACT_POINTS equal
    log-alpha strata, paired in seeded order with k stratified over
    [0.5, 2].  At zero delay full mode must equal family mode.

    The optimiser's cost depends on alpha; one draw per stratum gives every
    seed a similar mix, and one cycle of the points takes a few seconds, so
    each point is timed several times in a run.
    """
    rng = _rng("extract-full", seed)
    alphas = _strata(rng, EXTRACT_POINTS, *ALPHA_RANGE, log=True)
    ks = _strata(rng, EXTRACT_POINTS, *K_RANGE)
    return [(alpha * k, k, 0.0) for alpha, k in zip(alphas, ks)]


def full_mode_probe_inputs(seed: int):
    """The known failing point, then (h, k, t_c) points over the whole
    domain: each of PROBE_ALPHA_STRATA log-alpha strata crossed with each
    of PROBE_LATENCY_BINS equal bins of (0, two periods], k stratified."""
    rng = _rng("full-mode-probe", seed)
    cells = [
        (a, c) for a in range(PROBE_ALPHA_STRATA) for c in range(PROBE_LATENCY_BINS)
    ]
    ks = _strata(rng, len(cells), *K_RANGE)
    lo, hi = math.log(ALPHA_RANGE[0]), math.log(ALPHA_RANGE[1])
    points = [KNOWN_FAILING_POINT]
    for (a, c), k in zip(cells, ks):
        alpha = math.exp(lo + (hi - lo) * (a + rng.random()) / PROBE_ALPHA_STRATA)
        t_c = (c + rng.random()) * PERIODS * _period(k) / PROBE_LATENCY_BINS
        points.append((alpha * k, k, t_c))
    return points


def cli_cold_inputs(seed: int):
    """(argv, golden file or None): the four golden invocations plus run
    (optimize), run (closed-form-theta) and sweep at seeded alphas."""
    rng = _rng("cli-cold", seed)
    alphas = [f"{a:.4f}" for a in _strata(rng, 3, *ALPHA_RANGE, log=True)]
    latencies = [f"{t:.4f}" for t in _strata(rng, 2, 0.0, PERIODS * _period(1.0))]
    rotation = list(GOLDEN_INVOCATIONS) + [
        (("run", "--alpha", alphas[0], "--latency", latencies[0]), None),
        (
            ("run", "--alpha", alphas[1], "--latency", latencies[1],
             "--policy", "closed-form-theta"),
            None,
        ),
        (("sweep", "--alpha", alphas[2], "--latencies", "0:1:0.1"), None),
    ]
    rng.shuffle(rotation)
    return rotation


def wire_loopback_inputs(seed: int):
    """(alpha, t_c) points with k = 1."""
    rng = _rng("wire-loopback", seed)
    alphas = _strata(rng, WIRE_POINTS, *ALPHA_RANGE, log=True)
    latencies = _strata(rng, WIRE_POINTS, 0.0, PERIODS * _period(1.0))
    return list(zip(alphas, latencies))


def child_env(root: Path) -> dict:
    """Environment for child interpreters: the checkout's src first, one
    BLAS thread (the ops are 4x4; this keeps every process single-threaded)."""
    env = dict(os.environ)
    paths = [str(root / "src"), *env.get("PYTHONPATH", "").split(os.pathsep)]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _sweep_family(seed: int, root: Path) -> Workload:
    from qetsim import locc
    from qetsim.errors import NumericError, QetError
    from qetsim.model import ModelParams, e_b_closed

    fixed_angle = {}  # input -> closed-form-theta e_b per latency

    def op(inp):
        alpha, grid = inp
        return locc.sweep_latency(
            ModelParams.from_alpha(alpha), grid, policy="optimize", mode="family"
        )

    def check(inp, traces):
        alpha, grid = inp
        p = ModelParams.from_alpha(alpha)
        if inp not in fixed_angle:
            fixed_angle[inp] = [
                t.e_b_extracted
                for t in locc.sweep_latency(p, grid, policy="closed-form-theta")
            ]
        return checks.check_sweep(traces, grid, e_b_closed(p), fixed_angle[inp])

    return Workload(
        sweep_family_inputs(seed), op, check,
        known_errors=(NumericError,), errors=(QetError,),
    )


def _extract_full(seed: int, root: Path) -> Workload:
    from qetsim import locc
    from qetsim.errors import NumericError, QetError
    from qetsim.model import ModelParams

    family = {}

    def op(inp):
        h, k, t_c = inp
        return locc.run_once(ModelParams(h=h, k=k), t_c, mode="full")

    def check(inp, trace):
        h, k, t_c = inp
        if inp not in family:
            family[inp] = locc.run_once(
                ModelParams(h=h, k=k), t_c, mode="family"
            ).e_b_extracted
        return checks.check_full(trace.e_b_extracted, family[inp], t_c)

    return Workload(
        extract_full_inputs(seed), op, check,
        known_errors=(NumericError,), errors=(QetError,),
    )


def probe_full_mode(points):
    """Run full mode once at each (h, k, t_c): (NumericError count, reasons
    for wrong outputs).  Not timed and not among the ops."""
    from qetsim import locc
    from qetsim.errors import NumericError
    from qetsim.model import ModelParams

    raised, wrong = 0, []
    for h, k, t_c in points:
        p = ModelParams(h=h, k=k)
        try:
            full = locc.run_once(p, t_c, mode="full").e_b_extracted
        except NumericError:
            raised += 1
            continue
        family = locc.run_once(p, t_c, mode="family").e_b_extracted
        reason = checks.check_full(full, family, t_c)
        if reason is not None:
            wrong.append(f"probe {(h, k, t_c)!r}: {reason}")
    return raised, wrong


def _wire_loopback(seed: int, root: Path) -> Workload:
    from qetsim import locc
    from qetsim.errors import NumericError, QetError
    from qetsim.model import ModelParams

    policy = "closed-form-theta"
    digests = {}

    def op(inp):
        alpha, t_c = inp
        p = ModelParams.from_alpha(alpha)
        listener = locc.open_listener(f"{WIRE_HOST}:0")
        box = {}

        def alice():
            try:
                box["trace"] = locc.wire_alice(listener, p, t_c, policy=policy)
            except BaseException as exc:  # handed to the client thread below
                box["error"] = exc

        try:
            port = listener.getsockname()[1]
            thread = threading.Thread(target=alice)
            thread.start()
            try:
                bob = locc.wire_bob(f"{WIRE_HOST}:{port}", p, t_c, policy=policy)
            finally:
                thread.join()
        finally:
            listener.close()
        if "error" in box:
            raise box["error"]
        return box["trace"], bob

    def check(inp, traces):
        alpha, t_c = inp
        if inp not in digests:
            digests[inp] = locc.run_once(
                ModelParams.from_alpha(alpha), t_c, policy=policy
            ).digest()
        alice, bob = traces
        return checks.check_wire(alice.digest(), bob.digest(), digests[inp])

    return Workload(
        wire_loopback_inputs(seed), op, check,
        known_errors=(NumericError,), errors=(QetError,),
    )


class CliNumericFailure(Exception):
    """A qetsim subprocess exited 3 (numeric failure)."""


CLI_TIMEOUT = 120.0


def parse_importtime(stderr: str) -> float:
    """Seconds of self import time of scipy modules in -X importtime output."""
    total_us = 0
    for line in stderr.splitlines():
        head, _, rest = line.partition("|")
        if not line.startswith("import time:") or not rest:
            continue
        package = rest.partition("|")[2].strip()
        if package == "scipy" or package.startswith("scipy."):
            try:
                total_us += int(head.split(":", 1)[1])
            except ValueError:
                continue
    return total_us * 1e-6


def _cli_cold(seed: int, root: Path) -> Workload:
    from qetsim import cli

    env = child_env(root)
    rotation = cli_cold_inputs(seed)
    expected = {}
    for argv, golden in rotation:
        if golden is not None:
            expected[argv] = (root / "tests" / "golden" / golden).read_bytes()
        else:
            with contextlib.redirect_stdout(io.StringIO()) as buf:
                rc = cli.main(list(argv))
            if rc != 0:
                raise RuntimeError(f"in-process qetsim {' '.join(argv)} exited {rc}")
            expected[argv] = buf.getvalue().encode("utf-8")

    def finish(proc):
        if proc.returncode == 3:
            raise CliNumericFailure(proc.stderr.decode("utf-8", "replace").strip())
        return proc.returncode

    def op(inp):
        argv, _ = inp
        proc = subprocess.run(
            [sys.executable, "-m", "qetsim.cli", *argv],
            env=env, cwd=root, capture_output=True, timeout=CLI_TIMEOUT,
        )
        return finish(proc), proc.stdout

    def traced_op(inp, tracer):
        argv, _ = inp
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", str(HERE / "cli_child.py"), *argv],
            env=env, cwd=root, capture_output=True, timeout=CLI_TIMEOUT,
        )
        if proc.returncode != 0:  # the child died before reporting
            return proc.returncode, b""
        report = json.loads(proc.stdout.decode("utf-8"))
        tracer.extend(report["spans"], op_id=tracer.current_op)
        tracer.add_time("cli.interpreter_ms_per_op", report["started"] - spawned)
        tracer.add_time("cli.import_ms_per_op", report["import_s"])
        tracer.add_time(
            "cli.import_scipy_ms_per_op",
            parse_importtime(proc.stderr.decode("utf-8", "replace")),
        )
        tracer.add_time("cli.main_ms_per_op", report["main_s"])
        if report["returncode"] == 3:
            raise CliNumericFailure(f"qetsim {' '.join(argv)} exited 3")
        return report["returncode"], report["stdout"].encode("utf-8")

    def check(inp, output):
        argv, _ = inp
        returncode, stdout = output
        return checks.check_cli(returncode, stdout, expected[argv])

    return Workload(
        rotation, op, check,
        known_errors=(CliNumericFailure,), errors=(),
        traced_op=traced_op,
    )


CONSTRUCTORS = {
    "sweep-family": _sweep_family,
    "extract-full": _extract_full,
    "cli-cold": _cli_cold,
    "wire-loopback": _wire_loopback,
}


def timed_setup(name: str, seed: int, root: Path):
    """Set up in this interpreter: (workload, seconds).

    The time covers the qetsim imports the workload uses and building its
    inputs and reference outputs.
    """
    t0 = time.perf_counter()
    workload = CONSTRUCTORS[name](seed, root)
    return workload, time.perf_counter() - t0
