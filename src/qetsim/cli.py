"""Command-line front end emitting fixture-stable CSV/JSON/table output.

Exit codes: 0 success, 2 usage or validation error, 3 numeric failure.
Every numeric printed is recomputed from module operations and formatted
at 12 significant digits; identical invocations produce byte-identical
output files.

Each command imports what it computes with, and none loads numpy:
`audit`, `scan-alpha`, `run` (one round, in or out of wire mode) and
`sweep` (one scalar loop over the grid) need only scalar closed forms;
`model` loads `qetsim.report`, whose numeric side is plain `math` on the
two parity blocks of H_tot, when it runs; `socket` loads only in wire mode.
"""

from __future__ import annotations

import argparse
import math
import os
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
from .extraction import POLICIES
from .model import ModelParams

__all__ = ["main", "entry"]


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
    """Write text to path, or stdout; an unwritable output is a ValidationError."""
    try:
        if path:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not path:  # what is left in stdout's buffer goes to devnull at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ValidationError(
            f"cannot write {path or 'stdout'}: {exc.strerror or exc}"
        ) from exc


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


def cmd_model(args) -> int:
    from .report import model_report

    text, worst = model_report(_resolve_params(args), args.format)
    _emit(text, args.output)
    if not worst <= 1.0:  # the report's status is "ok" only when worst <= 1
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

    # Flags that several commands share, each declared once.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="write to file instead of stdout")
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--h", type=float, help="site field energy h > 0")
    point.add_argument("--k", type=float, help="coupling energy k > 0")
    point.add_argument(
        "--alpha", type=float, help="reparametrised point h = alpha*k with k = 1"
    )
    control = argparse.ArgumentParser(add_help=False)
    control.add_argument("--policy", choices=POLICIES, default="optimize")
    control.add_argument("--mode", choices=("family", "full"), default="family")

    def command(group, name, summary, func, *parents):
        """A command that runs `func` and writes to --output or stdout."""
        cmd = group.add_parser(name, help=summary, parents=[*parents, output])
        cmd.set_defaults(func=func)
        return cmd

    mp = command(sub, "model", "cross-checked model report", cmd_model, point)
    mp.add_argument("--format", choices=("table", "csv", "json"), default="table")

    sp = command(sub, "scan-alpha", "tabulate f(alpha) as CSV", cmd_scan_alpha)
    sp.add_argument("--points", type=int, default=10_000)
    sp.add_argument("--min-alpha", type=float, default=0.01)
    sp.add_argument("--max-alpha", type=float, default=20.0)

    rp = command(sub, "run", "one protocol round, trace CSV", cmd_run, point, control)
    rp.add_argument("--latency", type=float, required=True)
    rp.add_argument("--wire", choices=("alice", "bob"))
    rp.add_argument("--listen", help="host:port to serve on (alice)")
    rp.add_argument("--connect", help="host:port to connect to (bob)")

    wp = command(sub, "sweep", "latency sweep, trace CSV", cmd_sweep, point, control)
    wp.add_argument(
        "--latencies", required=True, help="start:stop:step or comma-separated"
    )

    ap = sub.add_parser("audit", help="energy-time uncertainty audit, JSON")
    asub = ap.add_subparsers(dest="protocol", required=True)
    amp = command(asub, "minimal", "minimal protocol audit", cmd_audit, point)
    amp.add_argument("--time", type=float, required=True)
    aip = command(asub, "ion", "trapped-ion protocol audit", cmd_audit)
    aip.add_argument("--gamma", type=float, required=True)
    aip.add_argument("--zeta", type=float, required=True)
    aip.add_argument("--nu", type=float, required=True)
    aip.add_argument("--time", type=float, required=True)

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
