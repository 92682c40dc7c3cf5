"""Run one qetsim benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints one line per metric (name, value, unit), a line with the run's
environment, and as its last line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run is split into an untraced
and a traced half and the metrics are the per-layer ones.  Apart from the
timed ops, every run checks whether full mode still fails at the known
failing point, and a traced run measures the share of a seeded set of
points over the whole domain at which it fails.  A record of the run, and
with --trace 1 its spans, are written under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

# The ops are 4x4 linear algebra: one BLAS thread keeps the process at the
# client thread plus, in wire-loopback, Alice's thread.  Set before numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5  # fresh interpreters per run; setup_s is their median
PROBE_TIMEOUT = 170.0

# name -> unit of the end-to-end metrics.
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms"}
PER_LAYER = tracing.LAYER_METRICS + (
    "protocol.full_mode.fail_ratio",
    "trace.overhead_ratio",
)


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls_per_op"):
        return "calls/op"
    if name.endswith("ms_per_op"):
        return "ms/op"
    return "ratio"


def pin_to_one_cpu() -> int | None:
    """Run this process, and the children it starts, on one CPU.

    wire-loopback's two threads hand the interpreter lock to each other
    several times per round; on two CPUs each hand-off wakes the idle one,
    which on a virtual machine takes a varying, often long time.  On one
    CPU the rounds measure the program.  Returns the CPU, or None when the
    affinity cannot be set.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def setup_seconds(name: str, seed: int) -> list[tuple[float, float]]:
    """(seconds, reference seconds) of set-ups in fresh interpreters; the
    reference is the mean of the reference runs here right before and
    right after the set-up."""
    harness.reference()  # first call: numpy's lazy initialisation
    env = workloads.child_env(ROOT)
    seconds, refs = [], [harness.reference()]
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT,
        )
        refs.append(harness.reference())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        seconds.append(float(proc.stdout.strip().splitlines()[-1]))
    return [(t, (a + b) / 2.0) for t, a, b in zip(seconds, refs, refs[1:])]


def environment(seed: int, load_before, cpu) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "seed": seed,
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
    }


def write_spans(path: Path, tracer: tracing.Tracer) -> None:
    import numpy as np

    np.savez_compressed(
        path,
        names=np.array(tracer.names),
        name=np.frombuffer(tracer.name, dtype=np.int32),
        start=np.frombuffer(tracer.start, dtype=np.float64),
        end=np.frombuffer(tracer.end, dtype=np.float64),
        parent=np.frombuffer(tracer.parent, dtype=np.int32),
        op=np.frombuffer(tracer.op, dtype=np.int32),
        raised=np.frombuffer(tracer.raised, dtype=np.int8),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qetsim" / "__init__.py").is_file():
        print(f"run.py: no qetsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    load_before = list(os.getloadavg())
    cpu = pin_to_one_cpu()

    workload = workloads.CONSTRUCTORS[args.workload](args.seed, ROOT)
    import qetsim

    if Path(qetsim.__file__).resolve().parent != ROOT / "src" / "qetsim":
        print(f"run.py: imported qetsim from {qetsim.__file__}", file=sys.stderr)
        return 2
    setups = setup_seconds(args.workload, args.seed)
    _, _, warm_reason = harness.run_op(workload, workload.inputs[0])  # untimed

    if args.trace:
        untraced = harness.closed_loop(workload, args.seconds / 2.0)
        tracer = tracing.Tracer()
        with tracing.instrumented(tracer):
            traced = harness.closed_loop(workload, args.seconds / 2.0, tracer)
        runs = (untraced, traced)
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_ratio"] = traced.ops_per_s() / untraced.ops_per_s()
        units = {name: per_layer_unit(name) for name in PER_LAYER}
    else:
        measured = harness.closed_loop(workload, args.seconds)
        runs = (measured,)
        metrics = {
            "setup_s": statistics.median(
                harness.at_reference_speed(*sample) for sample in setups
            ),
            "ops_per_s": measured.ops_per_s(),
            "op_p50_ms": measured.p50_ms(),
        }
        units = END_TO_END

    # The full-mode defect, probed apart from the timed ops (README.md).
    if args.trace:
        probe = workloads.full_mode_probe_inputs(args.seed)
    else:
        probe = [workloads.KNOWN_FAILING_POINT]
    raised, probe_wrong = workloads.probe_full_mode(probe)
    metrics["protocol.full_mode.fail_ratio"] = raised / len(probe)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    wrong = [f"warm-up {warm_reason}"] if warm_reason else []
    for r in runs:
        wrong.extend(r.wrong)
    wrong.extend(probe_wrong)
    for reason in wrong[:10]:
        print(f"incorrect: {reason}", file=sys.stderr)

    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    env = environment(args.seed, load_before, cpu)
    record = dict(
        result,
        workload=args.workload,
        seconds=args.seconds,
        trace=args.trace,
        setup_samples_s=setups,  # (seconds, reference seconds)
        fail_ratio=failed / attempted,
        full_mode_probe={"points": probe, "raised": raised},
        latencies_s=[r.latencies for r in runs],
        input_index=[r.inputs for r in runs],
        reference_s=[r.references for r in runs],
        incorrect=wrong,
        env=env,
    )
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        write_spans(OUT / f"{stem}-spans.npz", tracer)

    for name, entry in result["metrics"].items():
        print(f"{name:40} {entry['value']:.6g} {entry['unit']}")
    print(f"{'fail_ratio':40} {failed}/{attempted}")
    probed = f"{raised}/{len(probe)}"
    print(f"{'full_mode.probe_raised':40} {probed} (first: known failing point)")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
