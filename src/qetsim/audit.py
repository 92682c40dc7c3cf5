"""Observability audit: the dimensionless extraction curve f(alpha), the
energy-time uncertainty products, and the verdicts for the minimal and
trapped-ion protocols.

The threshold is E*t >= 1 in hbar = 1 units.  Audited headline values
(the ~0.13 curve maximum, the phonon-scale output bound) are recorded next
to the computed numbers in every report rather than asserted.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields

from .errors import NumericError, ValidationError, require_real
from .formatting import fmt, fnum
from .model import PARAM_MAX, PARAM_MIN, ModelParams, _f_curve, e_b_closed

__all__ = [
    "THRESHOLD",
    "CLAIMED_F_MAX",
    "MAX_SCAN_POINTS",
    "AlphaScanResult",
    "IonParams",
    "IonMaximum",
    "AuditReport",
    "f_alpha",
    "scan_alpha",
    "uncertainty_product",
    "verdict_for",
    "audit_minimal",
    "ion_output",
    "ion_maximize",
    "audit_ion",
    "scan_to_csv",
    "report_to_json",
]

# Observability requires the energy-time product to reach 1 (hbar = 1).
THRESHOLD = 1.0

# Headline curve maximum under audit; the computed value is reported beside it.
CLAIMED_F_MAX = 0.13

# Largest scan grid; more points would allocate gigabytes before failing.
MAX_SCAN_POINTS = 1_000_000

# Largest alpha = h/k of the stated domain.  Up to it every intermediate of
# `_f_curve` is a normal float and f(alpha) ~ 1/(2 alpha); past about 1.2e77
# (a^2+2)^2 overflows, and f would read 0, then nan.
_ALPHA_MAX = PARAM_MAX / PARAM_MIN

# With x = alpha^2, f'(alpha) = 0 reduces to x^2 - 3x - 1 = 0.  Its one positive
# root is f's only stationary point, and f -> 0 at both ends: the global maximum.
_ALPHA_STAR = math.sqrt((3.0 + math.sqrt(13.0)) / 2.0)


def _require_alpha(alpha, what: str, gt: float) -> float:
    """`alpha` as a float in (gt, _ALPHA_MAX], else ValidationError."""
    alpha = require_real(alpha, what, gt=gt)
    if alpha > _ALPHA_MAX:
        raise ValidationError(f"{what} must be <= {_ALPHA_MAX:g}, the largest h/k")
    return alpha


def f_alpha(alpha: float) -> float:
    """Dimensionless optimal extraction f(alpha) = E_B/k at h = alpha*k.

    ((a^2+2)/sqrt(a^2+1)) * (sqrt(1 + a^2/(a^2+2)^2) - 1), evaluated
    without cancellation by the same helper as `e_b_closed`, so it equals
    e_b_closed(alpha*k, k)/k for every k.  alpha lies in (0, 1e60], the
    range of h/k over the stated domain.
    """
    return _f_curve(_require_alpha(alpha, "alpha", gt=0.0))


@dataclass(frozen=True)
class AlphaScanResult:
    """Tabulated f(alpha) with the exact maximum on the range and the claim."""

    grid: tuple[float, ...]
    values: tuple[float, ...]
    argmax_alpha: float
    max_value: float
    claimed_max: float = CLAIMED_F_MAX


def scan_alpha(
    alpha_min: float = 0.01, alpha_max: float = 20.0, points: int = 10_000
) -> AlphaScanResult:
    """Tabulate f over a linear grid of 2 to MAX_SCAN_POINTS points, with
    0 < alpha_min < alpha_max <= 1e60.

    Point i is i*step + alpha_min with step = (alpha_max - alpha_min)/(points - 1),
    and the last is alpha_max itself: numpy's `linspace`, in plain floats.

    The maximum is exact: f is unimodal, so its maximiser on the range is
    alpha* = sqrt((3 + sqrt(13))/2) clamped to [alpha_min, alpha_max].
    The audit-grade default covers (0.01, 20] with 10,000 points.
    """
    alpha_min = require_real(alpha_min, "alpha_min", gt=0.0)
    alpha_max = _require_alpha(alpha_max, "alpha_max", gt=alpha_min)
    if not (isinstance(points, numbers.Integral) and 2 <= points <= MAX_SCAN_POINTS):
        raise ValidationError(f"scan needs 2 to {MAX_SCAN_POINTS} grid points")
    step = (alpha_max - alpha_min) / (points - 1)
    grid = tuple([i * step + alpha_min for i in range(points - 1)] + [alpha_max])
    values = tuple(map(_f_curve, grid))
    best = min(max(_ALPHA_STAR, alpha_min), alpha_max)
    return AlphaScanResult(
        grid=grid, values=values, argmax_alpha=best, max_value=f_alpha(best)
    )


def uncertainty_product(e: float, t: float) -> float:
    """Energy-time product e*t in hbar = 1 units; ValidationError unless
    it is finite, so a report never prints an Infinity JSON forbids."""
    product = require_real(e, "energy", ge=0.0) * require_real(t, "time", ge=0.0)
    if not math.isfinite(product):
        raise ValidationError("energy*time must be finite")
    return product


def verdict_for(product: float) -> str:
    return "observable" if product >= THRESHOLD else "unobservable"


@dataclass(frozen=True)
class AuditReport:
    """Energy, time, their product in hbar units, and the verdict."""

    protocol: str
    energy: float
    time: float
    product: float
    threshold: float
    verdict: str
    notes: str

    @property
    def flagged(self) -> bool:
        return "flagged" in self.notes


def _report(protocol: str, energy: float, t: float, notes: str) -> AuditReport:
    """The report of `energy` held for time `t`, with its product and verdict."""
    product = uncertainty_product(energy, t)
    return AuditReport(
        protocol, energy, t, product, THRESHOLD, verdict_for(product), notes
    )


def audit_minimal(p: ModelParams, t: float) -> AuditReport:
    """Audit the minimal protocol: zero-delay extraction against time t.

    The extraction never exceeds f(alpha)*k < 0.15*k, so inside the
    teleportation regime t <= 1/k the product stays below 1.
    """
    t = require_real(t, "audit time", gt=0.0)
    notes = (
        f"zero-delay optimal extraction f(alpha)*k at alpha={fmt(p.alpha)}; "
        f"teleportation regime requires t well below 1/k={fmt(1.0 / p.k)}; "
        "normalization: site-A field term acts on site A and identity "
        "offsets set the ground energy to zero"
    )
    return _report("minimal", e_b_closed(p), t, notes)


@dataclass(frozen=True)
class IonParams:
    """Free inputs of the trapped-ion output formula.

    gamma_n and zeta_n are dimensionless couplings treated as inputs (no
    microscopic ion-count dependence is modelled); nu is the phonon
    frequency (energy, hbar = 1) and phi the interaction angle.
    """

    gamma_n: float
    zeta_n: float
    nu: float
    phi: float = math.pi / 4.0

    def __post_init__(self):
        set_field = object.__setattr__  # frozen: store the admitted floats
        set_field(self, "gamma_n", require_real(self.gamma_n, "gamma_n", gt=0.0))
        if self.gamma_n > 1.0:
            raise ValidationError("gamma_n must lie in (0, 1]")
        set_field(self, "zeta_n", require_real(self.zeta_n, "zeta_n", gt=0.0))
        set_field(self, "nu", require_real(self.nu, "nu", gt=0.0))
        set_field(self, "phi", require_real(self.phi, "phi"))


@dataclass(frozen=True)
class IonMaximum:
    """Exact maximiser of the ion output at sin^2(2*phi) = 1."""

    e_in_star: float
    e_out_max: float
    phonon_scale_output: float  # output evaluated at e_in = nu


def ion_output(ip: IonParams, e_in: float) -> float:
    """Trapped-ion teleported energy gamma*e_in*exp(-zeta*e_in/nu)*sin^2(2*phi)."""
    e_in = require_real(e_in, "input energy", ge=0.0)
    return (
        ip.gamma_n
        * e_in
        * math.exp(-ip.zeta_n * e_in / ip.nu)
        * math.sin(2.0 * ip.phi) ** 2
    )


def ion_maximize(ip: IonParams) -> IonMaximum:
    """Maximise the output over the input energy, with sin^2(2*phi) = 1.

    Exact: gamma*e*exp(-zeta*e/nu) peaks at e_in* = nu/zeta with value
    gamma*(nu/zeta)/e; NumericError if either is not finite and > 0.  Also
    records the phonon-scale evaluation e_out(e_in = nu).
    """
    e_star = ip.nu / ip.zeta_n
    e_out_max = ip.gamma_n * e_star * math.exp(-1.0)
    if not all(math.isfinite(v) and v > 0.0 for v in (e_star, e_out_max)):
        raise NumericError(
            f"ion maximum out of float range: e_in*={e_star}, e_out={e_out_max}"
        )
    phonon = ip.gamma_n * ip.nu * math.exp(-ip.zeta_n)
    return IonMaximum(
        e_in_star=e_star, e_out_max=e_out_max, phonon_scale_output=phonon
    )


def audit_ion(ip: IonParams, t: float) -> AuditReport:
    """Audit the trapped-ion protocol at time t.

    The audited energy is the phonon-scale output gamma*nu*exp(-zeta)
    (sin^2(2*phi) = 1), which for zeta >= 1, gamma <= 1 and t <= 1/nu keeps
    the product below 1.  When zeta < 1 the unconstrained maximiser
    nu/zeta exceeds the phonon energy and that bound chain does not apply;
    such regimes are flagged in the notes instead of being asserted away.
    """
    t = require_real(t, "audit time", gt=0.0)
    maximum = ion_maximize(ip)
    energy = maximum.phonon_scale_output
    parts = [
        f"phonon-scale output gamma*nu*exp(-zeta)={fmt(energy)} at e_in=nu "
        "with sin^2(2*phi)=1",
        f"unconstrained maximum e_out={fmt(maximum.e_out_max)} at "
        f"e_in*={fmt(maximum.e_in_star)}",
        f"phonon timescale 1/nu={fmt(1.0 / ip.nu)}",
    ]
    if ip.zeta_n < 1.0:
        unconstrained = maximum.e_out_max * t
        outcome = (
            f"be {fmt(unconstrained)}"
            if math.isfinite(unconstrained)
            else "exceed the float range"
        )
        parts.append(
            f"flagged regime: zeta_n={fmt(ip.zeta_n)} < 1, the unconstrained "
            "maximizer exceeds the phonon energy and the "
            "e_out < nu*exp(-zeta_n) bound chain does not apply "
            f"(unconstrained product at t={fmt(t)} would {outcome})"
        )
    return _report("trapped-ion", energy, t, "; ".join(parts))


def scan_to_csv(result: AlphaScanResult) -> str:
    """CSV rows `alpha,f_alpha` plus a trailing summary comment row."""
    lines = ["alpha,f_alpha"]
    for a, v in zip(result.grid, result.values):
        lines.append(f"{fmt(a)},{fmt(v)}")
    lines.append(
        f"# argmax_alpha={fmt(result.argmax_alpha)},"
        f"max_value={fmt(result.max_value)},"
        f"claimed_max={fmt(result.claimed_max)}"
    )
    return "\n".join(lines) + "\n"


def report_to_json(report: AuditReport) -> str:
    """One JSON object with exactly the report fields in declaration order,
    floats at 12 significant digits."""
    payload = {}
    for field in fields(report):
        value = getattr(report, field.name)
        payload[field.name] = fnum(value) if field.type == "float" else value
    return json.dumps(payload)
