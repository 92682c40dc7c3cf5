"""Two-party protocol runner: Alice and Bob joined by a classical channel.

Model time, not wall time, drives the physics: the channel latency t_c is
the duration of unitary diffusion between Alice's measurement and Bob's
conditioned operation.  Sweeps and rounds read Bob's energy off the
closed forms in `extraction`, in scalar `math` without numpy: a sweep in
one loop over its latency grid (`extraction_curve`), a round as its
one-point case (`extraction_at`), bit-identical to its latency's row in
any sweep.  Wire mode moves the outcome frames across a real byte stream
while each side runs that same round, so the two traces agree bit for
bit.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .audit import verdict_for
from .errors import ProtocolError, ValidationError
from .extraction import extraction_at, extraction_curve
from .formatting import fmt
from .model import ModelParams, e_a_closed

if TYPE_CHECKING:  # socket and hashlib load only in wire mode and digest()
    import socket

__all__ = [
    "ProtocolTrace",
    "TRACE_CSV_HEADER",
    "run_once",
    "sweep_latency",
    "traces_to_csv",
    "open_listener",
    "wire_alice",
    "wire_bob",
]

WIRE_TIMEOUT = 30.0  # seconds of wall time before a socket read gives up
_MAX_FRAME = 512  # bytes in a frame line; the longest, a hello, has under 120

# A trace's printed values: the CSV columns, and the digest's keys.
_FIELDS = ("h", "k", "t_c", "e_a", "e_b", "product", "verdict")
TRACE_CSV_HEADER = ",".join(_FIELDS)


@dataclass(frozen=True, init=False)
class ProtocolTrace:
    """End-to-end record of one protocol round.

    Only the independent quantities are stored, a latency of another real
    type (np.float32, Decimal) as its float; E_A, the product and the
    verdict follow from them.
    """

    params: ModelParams
    latency: float
    e_b_extracted: float
    policy: str
    mode: str

    def __init__(self, params, latency, e_b_extracted, policy, mode):
        # One dict update instead of the frozen __init__'s five
        # object.__setattr__ calls: a sweep builds one trace per latency.
        self.__dict__.update(
            params=params,
            latency=float(latency),
            e_b_extracted=e_b_extracted,
            policy=policy,
            mode=mode,
        )

    @property
    def e_a(self) -> float:
        """Energy infused at site A, the closed form h^2/s."""
        return e_a_closed(self.params)

    @property
    def uncertainty_product(self) -> float:
        # Kept recomputable as e_b * t_c even when a fixed-angle policy
        # injects energy (negative extraction); the audit op's e >= 0
        # contract is not used here.
        return self.e_b_extracted * self.latency

    @property
    def verdict(self) -> str:
        return verdict_for(self.uncertainty_product)

    def _cells(self, shared: tuple[str, str, str] | None = None) -> list[str]:
        """The printed values, in `_FIELDS` order.

        `shared` is `_shared_cells(self.params)` when the caller has it
        already: the rows of one sweep share h, k and e_a.
        """
        h, k, e_a = shared or _shared_cells(self.params)
        product = self.uncertainty_product
        return [
            h,
            k,
            fmt(self.latency),
            e_a,
            fmt(self.e_b_extracted),
            fmt(product),
            verdict_for(product),
        ]

    def digest(self) -> str:
        """SHA-256 over the canonical 12-significant-digit serialisation.

        The payload holds the CSV cells with policy and mode after t_c.  The
        events rows record the round's fixed schedule: Alice measures and
        sends at t = 0, Bob receives and extracts at t_c.
        """
        import hashlib

        cells = self._cells()
        t_c = cells[2]
        payload = dict(zip(_FIELDS[:3], cells[:3]))
        payload.update(policy=self.policy, mode=self.mode)
        payload.update(zip(_FIELDS[3:], cells[3:]))
        payload["events"] = [
            ["0", "alice", "measure"],
            ["0", "alice", "send"],
            [t_c, "bob", "deliver"],
            [t_c, "bob", "extract"],
        ]
        blob = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def csv_row(self) -> str:
        return ",".join(self._cells())


def _shared_cells(p: ModelParams) -> tuple[str, str, str]:
    """The h, k and e_a cells of a trace with params p."""
    return fmt(p.h), fmt(p.k), fmt(e_a_closed(p))


def run_once(
    p: ModelParams,
    t_c: float,
    policy: str = "optimize",
    mode: str = "family",
) -> ProtocolTrace:
    """Execute one full round at classical-communication latency t_c.

    Alice measures at t = 0 and sends the outcome; the joint state diffuses
    under H_tot for t_c; on delivery Bob applies his conditioned unitary:
    re-optimised for the evolved branches under the "optimize" policy, or
    the fixed zero-delay analytic angle under "closed-form-theta".

    The round is a one-point sweep in scalar arithmetic (`extraction_at`,
    with the sweep's checks): bit-identical to t_c's row in any sweep.
    """
    return ProtocolTrace(p, t_c, extraction_at(p, t_c, policy, mode), policy, mode)


def sweep_latency(
    p: ModelParams,
    grid,
    policy: str = "optimize",
    mode: str = "family",
) -> list[ProtocolTrace]:
    """One trace per latency of a non-empty, strictly ascending, finite grid >= 0.

    Bob's energy comes for the whole grid in one scalar loop off the
    closed-form branch M (`extraction_curve`, which checks policy, mode and
    the grid), with no 4x4 model, measurement, eigendecomposition or SVD.
    """
    e_b = extraction_curve(p, grid, policy, mode)
    return [ProtocolTrace(p, t_c, e, policy, mode) for t_c, e in zip(grid, e_b)]


def traces_to_csv(traces) -> str:
    """The header and each trace's `csv_row`, one line each.

    h, k and e_a are formatted once per run of traces that share one
    params object, as in a sweep; equal params in another object are
    formatted again, to the same cells.
    """
    lines = [TRACE_CSV_HEADER]
    params = shared = None
    for trace in traces:
        if trace.params is not params:
            params = trace.params
            shared = _shared_cells(params)
        lines.append(",".join(trace._cells(shared)))
    return "\n".join(lines) + "\n"


# --- wire mode -------------------------------------------------------------

def _frames(trace: ProtocolTrace) -> list[dict]:
    """The round's three frames in wire order: hello, then outcomes mu = 0, 1.

    Both ends build this same list from their own trace, send their share
    of it and require each frame they read to equal its entry.
    """
    p, t_c = trace.params, trace.latency
    hello = {"kind": "hello", "h": p.h, "k": p.k, "t_c": t_c}
    return [hello] + [
        {"kind": "outcome", "mu": mu, "sent_at": 0.0, "deliver_at": t_c}
        for mu in (0, 1)
    ]


def _write_frame(stream, frame: dict) -> None:
    """One newline-delimited UTF-8 JSON line, fields in the dict's order."""
    stream.write(json.dumps(frame, separators=(",", ":")).encode("utf-8") + b"\n")


def _read_frame(stream, expected: dict) -> None:
    """Read one frame and reject it unless it equals `expected`."""
    line = stream.readline(_MAX_FRAME + 1)
    if not line:
        raise ProtocolError("connection closed mid-protocol")
    if len(line) > _MAX_FRAME:
        raise ProtocolError(f"malformed frame: longer than {_MAX_FRAME} bytes")
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed frame: {exc}") from exc
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ProtocolError("malformed frame: missing kind")
    if payload != expected:
        what = "handshake" if expected["kind"] == "hello" else "outcome frame"
        raise ProtocolError(f"{what} rejected: peer sent {payload}, want {expected}")


def _parse_endpoint(endpoint: str) -> tuple[str, int]:
    """(host, port) of "host:port"; an IPv6 host may be bracketed, "[::1]:7777"."""
    host, sep, port = endpoint.rpartition(":")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    if not sep or not host:
        raise ValidationError(f"endpoint must be host:port, got {endpoint!r}")
    try:
        if not (port.isascii() and port.isdigit()):  # int() reads " 80", "8_0"
            raise ValueError(port)
        number = int(port)
    except ValueError as exc:  # not ASCII digits, or past int()'s digit limit
        raise ValidationError(f"bad port in endpoint {endpoint!r}") from exc
    if not 0 <= number <= 65535:
        raise ValidationError(f"port out of range 0-65535 in endpoint {endpoint!r}")
    return host, number


@contextlib.contextmanager
def _socket_errors(what: str):
    """Re-raise a socket failure (refused, timed out, reset) as ProtocolError."""
    try:
        yield
    except OSError as exc:
        raise ProtocolError(f"{what}: {exc}") from exc


def open_listener(endpoint: str) -> socket.socket:
    """Bind and listen; use getsockname() to learn an ephemeral port.

    A host with a colon is an IPv6 address.
    """
    import socket

    host, port = _parse_endpoint(endpoint)
    family = socket.AF_INET6 if ":" in host else socket.AF_INET
    with _socket_errors(f"cannot listen on {endpoint}"):
        listener = socket.create_server((host, port), family=family)
    listener.settimeout(WIRE_TIMEOUT)
    return listener


def wire_alice(
    listener: socket.socket,
    p: ModelParams,
    t_c: float,
    policy: str = "optimize",
    mode: str = "family",
) -> ProtocolTrace:
    """Serve one protocol round: handshake, then send both outcome frames.

    The round is computed first, so bad inputs fail before any peer is
    awaited.
    """
    trace = run_once(p, t_c, policy=policy, mode=mode)
    frames = _frames(trace)
    with _socket_errors("alice wire failure"):
        conn, _addr = listener.accept()
        conn.settimeout(WIRE_TIMEOUT)
        with conn, conn.makefile("rwb") as stream:
            _read_frame(stream, frames[0])
            for frame in frames:
                _write_frame(stream, frame)
            stream.flush()
    return trace


def wire_bob(
    endpoint: str,
    p: ModelParams,
    t_c: float,
    policy: str = "optimize",
    mode: str = "family",
) -> ProtocolTrace:
    """Run one round against a listening peer: handshake, receive outcomes.

    The round is computed first, so bad inputs fail before any connection.
    """
    import socket

    trace = run_once(p, t_c, policy=policy, mode=mode)
    frames = _frames(trace)
    host, port = _parse_endpoint(endpoint)
    with (
        _socket_errors("bob wire failure"),
        socket.create_connection((host, port), timeout=WIRE_TIMEOUT) as conn,
        conn.makefile("rwb") as stream,
    ):
        _write_frame(stream, frames[0])
        stream.flush()
        for frame in frames:
            _read_frame(stream, frame)
    return trace

