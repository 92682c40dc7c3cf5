"""Command-line front end emitting fixture-stable CSV/JSON/table output.

Exit codes: 0 success, 2 usage or validation error, 3 numeric failure.
Every numeric printed is recomputed from module operations and formatted
at 12 significant digits; identical invocations produce byte-identical
output files.

Each command imports what it computes with: `audit`, `scan-alpha`, `run`
(one round, in or out of wire mode) and `sweep` (one scalar loop over the
grid) need only scalar closed forms, so they start without numpy; `model`
(4x4 linear algebra) loads it when it runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .audit import (
    IonParams,
    audit_ion,
    audit_minimal,
    report_to_json,
    scan_alpha,
    scan_to_csv,
)
from .errors import NumericError, ValidationError
from .formatting import fmt, fnum
from .model import (
    POLICIES,
    ModelParams,
    build_hamiltonians,
    diffusion_period,
    e_a_closed,
    e_b_closed,
    ground_state_closed_form,
    hb_expected,
    spectrum_closed_form,
)

__all__ = ["main", "entry"]


def _add_model_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--h", type=float, help="site field energy h > 0")
    parser.add_argument("--k", type=float, help="coupling energy k > 0")
    parser.add_argument(
        "--alpha", type=float, help="reparametrised point h = alpha*k with k = 1"
    )


def _resolve_params(args) -> ModelParams:
    has_hk = args.h is not None or args.k is not None
    has_alpha = args.alpha is not None
    if has_alpha and has_hk:
        raise ValidationError("supply either --h/--k or --alpha, not both")
    if has_alpha:
        return ModelParams.from_alpha(args.alpha)
    if args.h is None or args.k is None:
        raise ValidationError("supply both --h and --k, or --alpha")
    return ModelParams(h=args.h, k=args.k)


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# Largest `start:stop:step` grid a sweep admits; the count is checked before
# the list is built, so a tiny step cannot exhaust memory.
MAX_LATENCY_POINTS = 1_000_000


def _parse_latencies(spec: str) -> list[float]:
    """Grid spec: `start:stop:step` or comma-separated values.

    A range holds every start + i*step up to stop plus a rounding slack of
    1e-9*step: stop is in when whole steps reach it, and never overshot.
    """
    try:
        if ":" in spec:
            start_s, stop_s, step_s = spec.split(":")
            start, stop, step = float(start_s), float(stop_s), float(step_s)
            if not all(map(math.isfinite, (start, stop, step))):
                raise ValidationError(f"latency range {spec!r} must be finite")
            if step <= 0 or stop < start:
                raise ValidationError(f"bad latency range {spec!r}")
            span = (stop - start) / step  # inf when the division overflows
            count = int(span + 1e-9) + 1 if math.isfinite(span) else math.inf
            if count > MAX_LATENCY_POINTS:
                raise ValidationError(
                    f"latency range {spec!r} exceeds {MAX_LATENCY_POINTS} points"
                )
            return [start + i * step for i in range(count)]
        return [float(x) for x in spec.split(",")]
    except ValueError as exc:
        raise ValidationError(f"cannot parse latency grid {spec!r}") from exc


# --- model report ------------------------------------------------------------

def _model_rows(p: ModelParams) -> tuple[list[tuple[str, str, str, float, float]], float]:
    """Cross-checked rows (quantity, closed, numeric, residual, tolerance)."""
    import numpy as np

    from . import kernel
    from .protocol import (
        branch_average,
        evolve_branches,
        infused_energy,
        measure_alice,
        optimize_bob,
    )

    hams = build_hamiltonians(p)
    closed = ground_state_closed_form(p)
    spectrum_c = spectrum_closed_form(p)
    numeric = kernel.hermitian_eig(hams.h_tot)  # ground state and spectrum

    # Phase-align the numeric ground vector to the closed form for
    # amplitude-by-amplitude residuals (global phase is not physical).
    overlap = complex(np.vdot(numeric.ground_vector, closed))
    if overlap == 0.0:
        raise NumericError("numeric ground vector is orthogonal to the closed form")
    aligned = numeric.ground_vector * (overlap / abs(overlap))
    fidelity = abs(overlap) ** 2

    branches = measure_alice(closed)
    e_a_sim = infused_energy(branches, hams)
    peak_time = math.pi / (4.0 * p.k)
    hb_sim = branch_average(evolve_branches(branches, hams, peak_time), hams.h_b)
    extraction = optimize_bob(branches, hams)

    rows = []

    def row(name, closed_v, numeric_v, tol, relative=False):
        resid = abs(numeric_v - closed_v)
        if relative:
            resid /= max(abs(closed_v), 1e-300)
        rows.append((name, fmt(closed_v), fmt(numeric_v), resid, tol))

    row("ground energy", 0.0, numeric.ground_energy, 1e-10)
    for i in range(4):
        row(f"spectrum[{i}]", spectrum_c[i], float(numeric.eigenvalues[i]), 1e-9)
    basis = ("|++>", "|+->", "|-+>", "|-->")
    for i in range(4):
        row(
            f"amplitude {basis[i]}",
            float(closed[i].real),
            float(aligned[i].real),
            1e-10,
        )
    row("ground fidelity", 1.0, fidelity, 1e-12)
    row("e_a", e_a_closed(p), e_a_sim, 1e-10, relative=True)
    row("e_b", e_b_closed(p), extraction.extracted_energy, 1e-6, relative=True)
    row("hb peak", hb_expected(p, peak_time), hb_sim, 1e-9)
    worst = max(r[3] / r[4] for r in rows)
    return rows, worst


def cmd_model(args) -> int:
    p = _resolve_params(args)
    rows, worst = _model_rows(p)
    status = "ok" if worst <= 1.0 else "residual-failure"
    period = diffusion_period(p)
    head = (("h", p.h), ("k", p.k), ("alpha", p.alpha), ("diffusion period", period))

    if args.format == "table":
        lines = ["minimal-model cross-check report"]
        lines += [f"{name:24}{fmt(value)}" for name, value in head]
        lines.append(
            f"{'quantity':24}{'closed-form':20}{'numeric':20}{'residual':12}tolerance"
        )
        for name, closed_v, numeric_v, resid, tol in rows:
            lines.append(
                f"{name:24}{closed_v:20}{numeric_v:20}{resid:<12.3e}{tol:.0e}"
            )
        lines.append(f"{'status':24}{status}")
        text = "\n".join(lines) + "\n"
    elif args.format == "csv":
        lines = ["quantity,closed,numeric,residual,tolerance"]
        lines += [f"{name},{fmt(value)},,," for name, value in head]
        for name, closed_v, numeric_v, resid, tol in rows:
            lines.append(f"{name},{closed_v},{numeric_v},{fmt(resid)},{tol:.0e}")
        lines.append(f"status,{status},,,")
        text = "\n".join(lines) + "\n"
    else:
        payload = {name.replace(" ", "_"): fnum(value) for name, value in head}
        payload["checks"] = [
            {
                "quantity": name,
                "closed": float(closed_v),
                "numeric": float(numeric_v),
                "residual": fnum(resid),
                "tolerance": tol,
            }
            for name, closed_v, numeric_v, resid, tol in rows
        ]
        payload["status"] = status
        text = json.dumps(payload, indent=2) + "\n"

    _emit(text, args.output)
    if status != "ok":
        raise NumericError(f"model cross-check residual above tolerance (x{worst:.2f})")
    return 0


def cmd_scan_alpha(args) -> int:
    result = scan_alpha(
        alpha_min=args.min_alpha, alpha_max=args.max_alpha, points=args.points
    )
    _emit(scan_to_csv(result), args.output)
    return 0


def cmd_run(args) -> int:
    from . import locc

    if args.listen is not None and args.wire != "alice":
        raise ValidationError("--listen needs --wire alice")
    if args.connect is not None and args.wire != "bob":
        raise ValidationError("--connect needs --wire bob")
    round_args = (_resolve_params(args), args.latency, args.policy, args.mode)
    if args.listen:
        with locc.open_listener(args.listen) as listener:
            trace = locc.wire_alice(listener, *round_args)
    elif args.connect:
        trace = locc.wire_bob(args.connect, *round_args)
    elif args.wire:
        raise ValidationError("wire mode needs --listen (alice) or --connect (bob)")
    else:
        trace = locc.run_once(*round_args)
    _emit(locc.traces_to_csv([trace]), args.output)
    return 0


def cmd_sweep(args) -> int:
    from . import locc

    p = _resolve_params(args)
    grid = _parse_latencies(args.latencies)
    traces = locc.sweep_latency(p, grid, policy=args.policy, mode=args.mode)
    _emit(locc.traces_to_csv(traces), args.output)
    return 0


def cmd_audit(args) -> int:
    if args.protocol == "minimal":
        p = _resolve_params(args)
        report = audit_minimal(p, args.time)
    else:
        ip = IonParams(gamma_n=args.gamma, zeta_n=args.zeta, nu=args.nu)
        report = audit_ion(ip, args.time)
    _emit(report_to_json(report) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qetsim",
        description="minimal quantum-energy-teleportation laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mp = sub.add_parser("model", help="cross-checked model report")
    _add_model_params(mp)
    mp.add_argument("--format", choices=("table", "csv", "json"), default="table")
    mp.add_argument("--output", help="write to file instead of stdout")
    mp.set_defaults(func=cmd_model)

    sp = sub.add_parser("scan-alpha", help="tabulate f(alpha) as CSV")
    sp.add_argument("--points", type=int, default=10_000)
    sp.add_argument("--min-alpha", type=float, default=0.01)
    sp.add_argument("--max-alpha", type=float, default=20.0)
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_scan_alpha)

    rp = sub.add_parser("run", help="one protocol round, trace CSV")
    _add_model_params(rp)
    rp.add_argument("--latency", type=float, required=True)
    rp.add_argument("--policy", choices=POLICIES, default="optimize")
    rp.add_argument("--mode", choices=("family", "full"), default="family")
    rp.add_argument("--wire", choices=("alice", "bob"))
    rp.add_argument("--listen", help="host:port to serve on (alice)")
    rp.add_argument("--connect", help="host:port to connect to (bob)")
    rp.add_argument("--output")
    rp.set_defaults(func=cmd_run)

    wp = sub.add_parser("sweep", help="latency sweep, trace CSV")
    _add_model_params(wp)
    wp.add_argument(
        "--latencies", required=True, help="start:stop:step or comma-separated"
    )
    wp.add_argument("--policy", choices=POLICIES, default="optimize")
    wp.add_argument("--mode", choices=("family", "full"), default="family")
    wp.add_argument("--output")
    wp.set_defaults(func=cmd_sweep)

    ap = sub.add_parser("audit", help="energy-time uncertainty audit, JSON")
    asub = ap.add_subparsers(dest="protocol", required=True)

    amp = asub.add_parser("minimal", help="minimal protocol audit")
    _add_model_params(amp)
    amp.add_argument("--time", type=float, required=True)
    amp.add_argument("--output")
    amp.set_defaults(func=cmd_audit)

    aip = asub.add_parser("ion", help="trapped-ion protocol audit")
    aip.add_argument("--gamma", type=float, required=True)
    aip.add_argument("--zeta", type=float, required=True)
    aip.add_argument("--nu", type=float, required=True)
    aip.add_argument("--time", type=float, required=True)
    aip.set_defaults(func=cmd_audit)
    aip.add_argument("--output")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"qetsim: error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"qetsim: numeric failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
