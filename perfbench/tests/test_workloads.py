"""Seeded input generators, BENCHMARK.json consistency, and run.py itself."""

import json
import math
import shutil
import subprocess
import sys

import pytest
import run
import tracing
import workloads
from conftest import BENCH

ROOT = BENCH.parent
INPUTS = {
    "sweep-family": workloads.sweep_family_inputs,
    "extract-full": workloads.extract_full_inputs,
    "cli-cold": workloads.cli_cold_inputs,
    "wire-loopback": workloads.wire_loopback_inputs,
}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    generate = INPUTS[name]
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


@pytest.mark.parametrize("seed", range(20))
def test_extract_full_points_are_zero_delay_points_of_the_domain(seed):
    points = workloads.extract_full_inputs(seed)
    assert len(points) == workloads.EXTRACT_POINTS
    for h, k, t_c in points:
        assert 0.5 <= k <= 2.0
        assert 0.1 * k <= h <= 10.0 * k
        assert t_c == 0.0


@pytest.mark.parametrize("seed", range(20))
def test_full_mode_probe_always_starts_with_the_known_failing_point(seed):
    points = workloads.full_mode_probe_inputs(seed)
    assert points == workloads.full_mode_probe_inputs(seed)
    assert points != workloads.full_mode_probe_inputs(seed + 1)
    assert points[0] == workloads.KNOWN_FAILING_POINT == (0.3, 2.0, 0.05)
    for h, k, t_c in points:
        assert 0.5 <= k <= 2.0
        assert 0.1 * k <= h <= 10.0 * k
        assert 0.0 < t_c <= math.pi / k


def test_probe_counts_the_known_failure():
    raised, wrong = workloads.probe_full_mode([workloads.KNOWN_FAILING_POINT])
    assert (raised, wrong) == (1, [])


@pytest.mark.parametrize("seed", range(5))
def test_sweep_and_wire_inputs_stay_in_the_domain(seed):
    chunks = workloads.sweep_family_inputs(seed)
    assert len(chunks) == workloads.SWEEP_CHUNKS
    assert len({alpha for alpha, _ in chunks}) == 1
    assert 0.1 <= chunks[0][0] <= 10.0
    grid = sorted(t_c for _, part in chunks for t_c in part)
    assert len(grid) == 101 and grid[0] == 0.0 == chunks[0][1][0]
    assert grid[-1] == pytest.approx(math.pi)
    assert all(b > a for a, b in zip(grid, grid[1:]))
    for _, part in chunks:
        assert part[-1] - part[0] > 0.9 * math.pi
    for alpha, t_c in workloads.wire_loopback_inputs(seed):
        assert 0.1 <= alpha <= 10.0 and 0.0 <= t_c <= math.pi


def test_cli_rotation_holds_the_golden_invocations():
    rotation = workloads.cli_cold_inputs(3)
    assert len(rotation) == 7
    goldens = [(argv, golden) for argv, golden in rotation if golden]
    assert sorted(goldens) == sorted(workloads.GOLDEN_INVOCATIONS)
    for _, golden in goldens:
        assert (ROOT / "tests" / "golden" / golden).is_file()


def test_parse_importtime():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       120 |        120 |   scipy._lib",
            "import time:        80 |        200 | scipy",
            "import time:        50 |         50 | scipyfake",
            "qetsim: error: something",
        ]
    )
    assert workloads.parse_importtime(stderr) == pytest.approx(200e-6)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # wire-loopback runs by hand; it is not among the benchmark's workloads
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS[:3])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for m in spec["per_layer"]:
        assert m["unit"] == run.per_layer_unit(m["name"])
    assert len(tracing.LAYER_METRICS) == len(set(tracing.LAYER_METRICS))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize(
    "trace, expected", [("0", run.END_TO_END), ("1", run.PER_LAYER)]
)
def test_run_prints_every_metric(trace, expected):
    proc = bench("--workload", "wire-loopback", "--seed", "5", "--seconds", "0.4",
                 "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(expected)
    if trace == "1":
        assert result["metrics"]["locc.wire_bob.self_ms_per_op"]["value"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "wire-loopback", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
