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
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .formatting import fmt, fnum
from .model import ModelParams, _f_curve, e_b_closed

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

# With x = alpha^2, f'(alpha) = 0 reduces to x^2 - 3x - 1 = 0.  Its one positive
# root is f's only stationary point, and f -> 0 at both ends: the global maximum.
_ALPHA_STAR = math.sqrt((3.0 + math.sqrt(13.0)) / 2.0)


def f_alpha(alpha: float) -> float:
    """Dimensionless optimal extraction f(alpha) = E_B/k at h = alpha*k.

    ((a^2+2)/sqrt(a^2+1)) * (sqrt(1 + a^2/(a^2+2)^2) - 1), evaluated
    without cancellation by the same helper as `e_b_closed`, so it equals
    e_b_closed(alpha*k, k)/k for every k.
    """
    if not (isinstance(alpha, (int, float)) and math.isfinite(alpha)) or alpha <= 0:
        raise ValidationError("alpha must be finite and > 0")
    return float(_f_curve(alpha))


@dataclass(frozen=True)
class AlphaScanResult:
    """Tabulated f(alpha) with the exact maximum on the range and the claim."""

    grid: np.ndarray
    values: np.ndarray
    argmax_alpha: float
    max_value: float
    claimed_max: float = CLAIMED_F_MAX


def scan_alpha(
    alpha_min: float = 0.01, alpha_max: float = 20.0, points: int = 10_000
) -> AlphaScanResult:
    """Tabulate f over a linear grid of 2 to MAX_SCAN_POINTS points.

    The maximum is exact: f is unimodal, so its maximiser on the range is
    alpha* = sqrt((3 + sqrt(13))/2) clamped to [alpha_min, alpha_max].
    The audit-grade default covers (0.01, 20] with 10,000 points.
    """
    if not (0.0 < alpha_min < alpha_max) or not math.isfinite(alpha_max):
        raise ValidationError("need 0 < alpha_min < alpha_max, both finite")
    if not 2 <= points <= MAX_SCAN_POINTS:
        raise ValidationError(f"scan needs 2 to {MAX_SCAN_POINTS} grid points")
    grid = np.linspace(alpha_min, alpha_max, points)
    values = _f_curve(grid)
    best = float(min(max(_ALPHA_STAR, alpha_min), alpha_max))
    grid.flags.writeable = False
    values.flags.writeable = False
    return AlphaScanResult(
        grid=grid, values=values, argmax_alpha=best, max_value=f_alpha(best)
    )


def uncertainty_product(e: float, t: float) -> float:
    """Energy-time product e*t in hbar = 1 units."""
    if not (math.isfinite(e) and e >= 0):
        raise ValidationError("energy must be finite and >= 0")
    if not (math.isfinite(t) and t >= 0):
        raise ValidationError("time must be finite and >= 0")
    return e * t


def verdict_for(product: float, threshold: float = THRESHOLD) -> str:
    return "observable" if product >= threshold else "unobservable"


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


def audit_minimal(p: ModelParams, t: float) -> AuditReport:
    """Audit the minimal protocol: zero-delay extraction against time t.

    The extraction never exceeds f(alpha)*k < 0.15*k, so inside the
    teleportation regime t <= 1/k the product stays below 1.
    """
    if not (math.isfinite(t) and t > 0):
        raise ValidationError("audit time must be finite and > 0")
    energy = e_b_closed(p)
    product = uncertainty_product(energy, t)
    notes = (
        f"zero-delay optimal extraction f(alpha)*k at alpha={fmt(p.alpha)}; "
        f"teleportation regime requires t well below 1/k={fmt(1.0 / p.k)}; "
        "normalization: site-A field term acts on site A and identity "
        "offsets set the ground energy to zero"
    )
    return AuditReport(
        protocol="minimal",
        energy=energy,
        time=t,
        product=product,
        threshold=THRESHOLD,
        verdict=verdict_for(product),
        notes=notes,
    )


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
        if not (math.isfinite(self.gamma_n) and 0.0 < self.gamma_n <= 1.0):
            raise ValidationError("gamma_n must lie in (0, 1]")
        if not (math.isfinite(self.zeta_n) and self.zeta_n > 0.0):
            raise ValidationError("zeta_n must be finite and > 0")
        if not (math.isfinite(self.nu) and self.nu > 0.0):
            raise ValidationError("nu must be finite and > 0")
        if not math.isfinite(self.phi):
            raise ValidationError("phi must be finite")


@dataclass(frozen=True)
class IonMaximum:
    """Exact maximiser of the ion output at sin^2(2*phi) = 1."""

    e_in_star: float
    e_out_max: float
    phonon_scale_output: float  # output evaluated at e_in = nu


def ion_output(ip: IonParams, e_in: float) -> float:
    """Trapped-ion teleported energy gamma*e_in*exp(-zeta*e_in/nu)*sin^2(2*phi)."""
    if not (math.isfinite(e_in) and e_in >= 0):
        raise ValidationError("input energy must be finite and >= 0")
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
    if not (math.isfinite(t) and t > 0):
        raise ValidationError("audit time must be finite and > 0")
    maximum = ion_maximize(ip)
    energy = maximum.phonon_scale_output
    product = uncertainty_product(energy, t)
    parts = [
        f"phonon-scale output gamma*nu*exp(-zeta)={fmt(energy)} at e_in=nu "
        "with sin^2(2*phi)=1",
        f"unconstrained maximum e_out={fmt(maximum.e_out_max)} at "
        f"e_in*={fmt(maximum.e_in_star)}",
        f"phonon timescale 1/nu={fmt(1.0 / ip.nu)}",
    ]
    if ip.zeta_n < 1.0:
        parts.append(
            f"flagged regime: zeta_n={fmt(ip.zeta_n)} < 1, the unconstrained "
            "maximizer exceeds the phonon energy and the "
            "e_out < nu*exp(-zeta_n) bound chain does not apply "
            f"(unconstrained product at t={fmt(t)} would be "
            f"{fmt(maximum.e_out_max * t)})"
        )
    return AuditReport(
        protocol="trapped-ion",
        energy=energy,
        time=t,
        product=product,
        threshold=THRESHOLD,
        verdict=verdict_for(product),
        notes="; ".join(parts),
    )


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
    """One JSON object with exactly the report fields, 12 significant digits."""
    payload = {
        "protocol": report.protocol,
        "energy": fnum(report.energy),
        "time": fnum(report.time),
        "product": fnum(report.product),
        "threshold": fnum(report.threshold),
        "verdict": report.verdict,
        "notes": report.notes,
    }
    return json.dumps(payload)
