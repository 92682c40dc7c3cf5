"""Two-party protocol runner: Alice and Bob joined by a classical channel.

Model time, not wall time, drives the physics: the channel latency t_c is
the duration of unitary diffusion between Alice's measurement and Bob's
conditioned operation.  The in-process runner is a single-threaded
deterministic event loop over model time; wire mode moves the outcome
frames across a real byte stream while each side computes the identical
4-dim physics, so the two traces agree bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import socket
from dataclasses import dataclass
from typing import NamedTuple

from .audit import verdict_for
from .errors import ProtocolError, ValidationError
from .formatting import fmt
from .model import (
    ModelParams,
    build_hamiltonians,
    ground_state_closed_form,
    optimal_rotation_angle,
)
from .protocol import (
    MODES,
    BobControl,
    controlled_extraction,
    evolved_states,
    infused_energy,
    measure_alice,
    optimal_extraction,
)

__all__ = [
    "ChannelMessage",
    "TraceEvent",
    "ProtocolTrace",
    "TRACE_CSV_HEADER",
    "run_once",
    "sweep_latency",
    "traces_to_csv",
    "wire_mode",
    "open_listener",
    "wire_alice",
    "wire_bob",
]

POLICIES = ("optimize", "closed-form-theta")

WIRE_TIMEOUT = 30.0  # seconds of wall time before a socket read gives up


@dataclass(frozen=True)
class ChannelMessage:
    """One classical-channel record: outcome mu sent at model time sent_at."""

    kind: str
    mu: int
    sent_at: float
    deliver_at: float

    def __post_init__(self):
        if self.kind != "outcome":
            raise ValidationError("channel message kind must be 'outcome'")
        if self.mu not in (0, 1):
            raise ValidationError("outcome label must be 0 or 1")
        if self.deliver_at < self.sent_at:
            raise ValidationError("deliver_at must be >= sent_at (latency >= 0)")

    def frame(self) -> bytes:
        """Newline-delimited UTF-8 frame with fixed field order."""
        payload = {
            "kind": self.kind,
            "mu": self.mu,
            "sent_at": self.sent_at,
            "deliver_at": self.deliver_at,
        }
        return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


class TraceEvent(NamedTuple):
    time: float
    actor: str
    action: str


@dataclass(frozen=True)
class ProtocolTrace:
    """End-to-end record of one protocol round."""

    params: ModelParams
    latency: float
    e_a: float
    e_b_extracted: float
    uncertainty_product: float
    events: tuple[TraceEvent, ...]
    policy: str
    mode: str
    verdict: str

    def digest(self) -> str:
        """SHA-256 over the canonical 12-significant-digit serialisation."""
        payload = {
            "h": fmt(self.params.h),
            "k": fmt(self.params.k),
            "t_c": fmt(self.latency),
            "policy": self.policy,
            "mode": self.mode,
            "e_a": fmt(self.e_a),
            "e_b": fmt(self.e_b_extracted),
            "product": fmt(self.uncertainty_product),
            "verdict": self.verdict,
            "events": [[fmt(t), actor, action] for t, actor, action in self.events],
        }
        blob = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def csv_row(self) -> str:
        p = self.params
        return ",".join(
            [
                fmt(p.h),
                fmt(p.k),
                fmt(self.latency),
                fmt(self.e_a),
                fmt(self.e_b_extracted),
                fmt(self.uncertainty_product),
                self.verdict,
            ]
        )


TRACE_CSV_HEADER = "h,k,t_c,e_a,e_b,product,verdict"


def channel_messages(t_c: float) -> tuple[ChannelMessage, ChannelMessage]:
    """Both enumerated outcome records for one round (sent at t = 0)."""
    return tuple(
        ChannelMessage(kind="outcome", mu=mu, sent_at=0.0, deliver_at=t_c)
        for mu in (0, 1)
    )


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
    """
    return sweep_latency(p, [t_c], policy=policy, mode=mode)[0]


def sweep_latency(
    p: ModelParams,
    grid,
    policy: str = "optimize",
    mode: str = "family",
) -> list[ProtocolTrace]:
    """One trace per latency of a strictly ascending, finite grid >= 0.

    The model, the measurement and one eigendecomposition of H_tot are
    built once; the branch states at every latency are evolved as one
    stack (`evolved_states`, which rejects a non-finite or negative
    latency), and Bob's extraction is solved for all of them in one pass.
    """
    grid = list(grid)
    if not grid:
        raise ValidationError("latency grid must be non-empty")
    for a, b in zip(grid, grid[1:]):
        if b <= a:
            raise ValidationError("latency grid must be strictly ascending")
    if policy not in POLICIES:
        raise ValidationError(f"unknown policy {policy!r}, expected {POLICIES}")
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}, expected {MODES}")

    hams = build_hamiltonians(p)
    branches = measure_alice(ground_state_closed_form(p))
    e_a = infused_energy(branches, hams)
    states = evolved_states(branches, hams, grid)
    probs = [b.probability for b in branches]
    if policy == "optimize":
        e_b = optimal_extraction(states, probs, hams.h_tot, mode)[0]
    else:
        control = BobControl.family(optimal_rotation_angle(p))
        e_b = controlled_extraction(states, probs, hams.h_tot, control)[0]

    traces = []
    for t_c, e in zip(grid, e_b.tolist()):
        # Kept recomputable as e_b * t_c even when a fixed-angle policy
        # injects energy (negative extraction); the audit op's e >= 0
        # contract is not used here.
        product = e * t_c
        events = (
            TraceEvent(0.0, "alice", "measure"),
            TraceEvent(0.0, "alice", "send"),
            TraceEvent(t_c, "bob", "deliver"),
            TraceEvent(t_c, "bob", "extract"),
        )
        traces.append(
            ProtocolTrace(
                params=p,
                latency=t_c,
                e_a=e_a,
                e_b_extracted=e,
                uncertainty_product=product,
                events=events,
                policy=policy,
                mode=mode,
                verdict=verdict_for(product),
            )
        )
    return traces


def traces_to_csv(traces) -> str:
    lines = [TRACE_CSV_HEADER]
    lines.extend(trace.csv_row() for trace in traces)
    return "\n".join(lines) + "\n"


# --- wire mode -------------------------------------------------------------

def _hello_frame(p: ModelParams, t_c: float) -> bytes:
    payload = {"kind": "hello", "h": p.h, "k": p.k, "t_c": t_c}
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def _read_frame(stream) -> dict:
    line = stream.readline()
    if not line:
        raise ProtocolError("connection closed mid-protocol")
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed frame: {exc}") from exc
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ProtocolError("malformed frame: missing kind")
    return payload


def _check_hello(payload: dict, p: ModelParams, t_c: float) -> None:
    if payload.get("kind") != "hello":
        raise ProtocolError(f"expected hello frame, got {payload.get('kind')!r}")
    if set(payload) != {"kind", "h", "k", "t_c"}:
        raise ProtocolError(f"hello frame has wrong fields: {sorted(payload)}")
    theirs = (payload["h"], payload["k"], payload["t_c"])
    ours = (p.h, p.k, t_c)
    if theirs != ours:
        raise ProtocolError(
            f"handshake rejected: peer parameters {theirs} != local {ours}"
        )


def _check_outcome(payload: dict, mu: int, t_c: float) -> None:
    expected = {"kind": "outcome", "mu": mu, "sent_at": 0.0, "deliver_at": t_c}
    if set(payload) != set(expected):
        raise ProtocolError(f"outcome frame has wrong fields: {sorted(payload)}")
    for key, want in expected.items():
        if payload[key] != want:
            raise ProtocolError(
                f"outcome frame field {key}={payload[key]!r}, expected {want!r}"
            )


def _parse_endpoint(endpoint: str) -> tuple[str, int]:
    host, sep, port = endpoint.rpartition(":")
    if not sep or not host:
        raise ValidationError(f"endpoint must be host:port, got {endpoint!r}")
    try:
        number = int(port)
    except ValueError as exc:
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
    """Bind and listen; use getsockname() to learn an ephemeral port."""
    host, port = _parse_endpoint(endpoint)
    with _socket_errors(f"cannot listen on {endpoint}"):
        listener = socket.create_server((host, port))
    listener.settimeout(WIRE_TIMEOUT)
    return listener


def wire_alice(
    listener: socket.socket,
    p: ModelParams,
    t_c: float,
    policy: str = "optimize",
    mode: str = "family",
) -> ProtocolTrace:
    """Serve one protocol round: handshake, then send both outcome frames."""
    with _socket_errors("alice wire failure"):
        conn, _addr = listener.accept()
        conn.settimeout(WIRE_TIMEOUT)
        with conn, conn.makefile("rwb") as stream:
            _check_hello(_read_frame(stream), p, t_c)
            stream.write(_hello_frame(p, t_c))
            for message in channel_messages(t_c):
                stream.write(message.frame())
            stream.flush()
    return run_once(p, t_c, policy=policy, mode=mode)


def wire_bob(
    endpoint: str,
    p: ModelParams,
    t_c: float,
    policy: str = "optimize",
    mode: str = "family",
) -> ProtocolTrace:
    """Run one round against a listening peer: handshake, receive outcomes."""
    host, port = _parse_endpoint(endpoint)
    with (
        _socket_errors("bob wire failure"),
        socket.create_connection((host, port), timeout=WIRE_TIMEOUT) as conn,
        conn.makefile("rwb") as stream,
    ):
        stream.write(_hello_frame(p, t_c))
        stream.flush()
        _check_hello(_read_frame(stream), p, t_c)
        for mu in (0, 1):
            _check_outcome(_read_frame(stream), mu, t_c)
    return run_once(p, t_c, policy=policy, mode=mode)


def wire_mode(
    role: str,
    endpoint: str,
    p: ModelParams,
    t_c: float,
    policy: str = "optimize",
    mode: str = "family",
) -> ProtocolTrace:
    """Run one wire-mode round as either party; both emit identical traces."""
    if role == "alice":
        listener = open_listener(endpoint)
        try:
            return wire_alice(listener, p, t_c, policy=policy, mode=mode)
        finally:
            listener.close()
    if role == "bob":
        return wire_bob(endpoint, p, t_c, policy=policy, mode=mode)
    raise ValidationError(f"unknown wire role {role!r}, expected alice or bob")
