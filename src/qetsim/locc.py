"""Two-party protocol runner: Alice and Bob joined by a classical channel.

Model time, not wall time, drives the physics: the channel latency t_c is
the duration of unitary diffusion between Alice's measurement and Bob's
conditioned operation.  Sweeps and rounds read Bob's energy off the
closed forms in `extraction`, in scalar `math` without numpy: a sweep in
one loop over its latency grid (`extraction_curve`), a round as its
one-point case (`extraction_at`), bit-identical to its latency's row in
any sweep; `sweep_csv` prints a sweep from its latency and E_B columns,
with no trace built.  Wire mode moves the outcome frames across a real
byte stream while each side runs that same round, so the two traces
agree bit for bit.
"""

from __future__ import annotations

import contextlib

from .errors import ProtocolError, ValidationError
from .extraction import extraction_at, extraction_curve
from .formatting import fmt
from .model import ModelParams, Record, e_a_closed, verdict_for

__all__ = [
    "ProtocolTrace",
    "TRACE_CSV_HEADER",
    "run_once",
    "sweep_latency",
    "sweep_csv",
    "open_listener",
    "wire_alice",
    "wire_bob",
]

WIRE_TIMEOUT = 30.0  # seconds of wall time before a socket read gives up
_MAX_FRAME = 512  # bytes in a frame line; the longest, a hello, has under 150

# The columns of a trace's printed row.
TRACE_CSV_HEADER = "h,k,t_c,e_a,e_b,product,verdict"


class ProtocolTrace(Record):
    """End-to-end record of one protocol round.

    Only the independent quantities are stored, a latency of another real
    type (np.float32, Decimal) as its float; E_A, the product and the
    verdict follow from them.
    """

    def __init__(self, params: ModelParams, latency: float, e_b_extracted: float,
                 policy: str, mode: str):
        # by item, building no kwargs dict per trace, and in field order,
        # which repr, hash and vars() show
        fields = self.__dict__
        fields["params"] = params
        fields["latency"] = float(latency)
        fields["e_b_extracted"] = e_b_extracted
        fields["policy"] = policy
        fields["mode"] = mode

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

    def _cells(self) -> list[str]:
        """The printed values, in `TRACE_CSV_HEADER` order."""
        return _row_cells(_shared_cells(self.params), self.latency, self.e_b_extracted)

    def digest(self) -> str:
        """SHA-256 of the comma-joined policy, mode and printed cells: equal
        exactly when those nine strings are, for none holds a comma."""
        import hashlib

        row = ",".join([self.policy, self.mode, *self._cells()])
        return hashlib.sha256(row.encode("utf-8")).hexdigest()

    def csv_row(self) -> str:
        return ",".join(self._cells())


def _shared_cells(p: ModelParams) -> tuple[str, str, str]:
    """The h, k and e_a cells of a trace with params p."""
    return fmt(p.h), fmt(p.k), fmt(e_a_closed(p))


def _row_cells(shared: tuple[str, str, str], t_c: float, e_b: float) -> list[str]:
    """A row's printed values, in `TRACE_CSV_HEADER` order, from its params'
    `_shared_cells`, its float latency and E_B."""
    h, k, e_a = shared
    product = e_b * t_c
    return [h, k, fmt(t_c), e_a, fmt(e_b), fmt(product), verdict_for(product)]


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


def sweep_csv(
    p: ModelParams,
    grid,
    policy: str = "optimize",
    mode: str = "family",
) -> str:
    """`sweep_latency`'s CSV with no trace built: the header, then each
    trace's `csv_row()`, one line each.

    E_B comes from `extraction_curve`, with its checks; h, k and e_a are
    formatted once, and each latency is printed as its float, as a trace
    stores it.
    """
    e_b = extraction_curve(p, grid, policy, mode)
    shared = _shared_cells(p)
    lines = [",".join(_row_cells(shared, float(t), e)) for t, e in zip(grid, e_b)]
    return "\n".join([TRACE_CSV_HEADER, *lines, ""])


# --- wire mode -------------------------------------------------------------

def _frames(trace: ProtocolTrace) -> list[dict]:
    """The round's three frames in wire order: hello, then outcomes mu = 0, 1.

    Both ends build it from their own trace, its hello naming all a row
    depends on, send their share and require each frame read to equal its entry.
    """
    p, t_c = trace.params, trace.latency
    hello = {"kind": "hello", "h": p.h, "k": p.k, "t_c": t_c,
             "policy": trace.policy, "mode": trace.mode}
    return [hello] + [
        {"kind": "outcome", "mu": mu, "sent_at": 0.0, "deliver_at": t_c}
        for mu in (0, 1)
    ]


def _write_frame(stream, frame: dict) -> None:
    """One newline-delimited UTF-8 JSON line, fields in the dict's order."""
    import json

    stream.write(json.dumps(frame, separators=(",", ":")).encode("utf-8") + b"\n")


def _read_frame(stream, expected: dict) -> None:
    """Read one frame and reject it unless it equals `expected`."""
    import json

    line = stream.readline(_MAX_FRAME + 1)
    if not line:
        raise ProtocolError("connection closed mid-protocol")
    if len(line) > _MAX_FRAME:
        raise ProtocolError(f"malformed frame: longer than {_MAX_FRAME} bytes")
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed frame: {exc}") from exc
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

