"""Output checks of the benchmark workloads.

Each check returns None when the output is right and a one-line reason when
it is not; the closed loop counts a reason as a failed, incorrect op.
"""

from __future__ import annotations

ZERO_DELAY_REL_TOL = 1e-6  # t_c = 0 sweep row against model.e_b_closed
EXTRACTION_TOL = 1e-9  # slack of the optimiser-ordering checks


def check_sweep(traces, grid, e_b_closed: float, fixed_angle_e_b) -> str | None:
    """sweep-family: one optimised-family sweep over `grid`.

    Every row extracts at least what the fixed zero-delay angle extracts at
    the same t_c (minus 1e-9); every row's product is exactly e_b * t_c;
    the t_c = 0 row, where the grid has one, matches the closed form within
    1e-6 relative.
    """
    if len(traces) != len(grid) or len(fixed_angle_e_b) != len(grid):
        return f"sweep returned {len(traces)} rows for {len(grid)} latencies"
    for row, t_c, floor in zip(traces, grid, fixed_angle_e_b):
        if row.latency != t_c:
            return f"row latency {row.latency!r} != grid value {t_c!r}"
        if row.e_b_extracted < floor - EXTRACTION_TOL:
            return f"t_c={t_c!r}: e_b {row.e_b_extracted!r} below fixed-angle {floor!r}"
        if row.uncertainty_product != row.e_b_extracted * t_c:
            return f"t_c={t_c!r}: product {row.uncertainty_product!r} != e_b * t_c"
    if grid[0] == 0.0:
        zero = traces[0].e_b_extracted
        if abs(zero - e_b_closed) > ZERO_DELAY_REL_TOL * abs(e_b_closed):
            return f"t_c=0: e_b {zero!r} != closed form {e_b_closed!r}"
    return None


def check_full(full_e_b: float, family_e_b: float, t_c: float) -> str | None:
    """extract-full: full SU(2) extraction never below the sigma_y family,
    and equal to it at zero delay."""
    if full_e_b < family_e_b - EXTRACTION_TOL:
        return f"full {full_e_b!r} below family {family_e_b!r} at t_c={t_c!r}"
    if t_c == 0.0 and abs(full_e_b - family_e_b) > EXTRACTION_TOL:
        return f"t_c=0: full {full_e_b!r} != family {family_e_b!r}"
    return None


def check_cli(returncode: int, stdout: bytes, expected: bytes) -> str | None:
    """cli-cold: exit 0 and stdout byte-identical to the expected output."""
    if returncode != 0:
        return f"exit code {returncode}"
    if stdout != expected:
        for i, (a, b) in enumerate(zip(stdout, expected)):
            if a != b:
                return f"stdout differs from expected at byte {i}"
        return f"stdout has {len(stdout)} bytes, expected {len(expected)}"
    return None


def check_wire(alice_digest: str, bob_digest: str, in_process: str) -> str | None:
    """wire-loopback: both ends and the in-process round agree bit for bit."""
    if alice_digest != bob_digest:
        return "alice and bob trace digests differ"
    if bob_digest != in_process:
        return "wire trace digest differs from in-process run_once"
    return None
