"""Bob's extracted energy E_B in closed form, in scalar `math`.

E_B is read off branch 0's six nonzero Wahba-matrix entries
(`_branch0_entries`), straight from (h, k, t), with no 4x4 matrix,
projector or eigendecomposition; the 4x4 reference path in `protocol`
measures the same matrix on explicit branch states.  This module imports
no numpy, so a round (`locc.run_once`, both wire ends, `qetsim run`) and a
sweep (`locc.sweep_latency`, `qetsim sweep`) start without it.

- `extraction_curve` evaluates a latency grid in one scalar loop per
  (policy, mode), over coefficients computed once per grid (`_curve`).
- `extraction_at` is its one-point case, so a round is bit-identical to
  its latency's row in any sweep.

Hypot is abs(complex(x, y)), the C library's hypot.  math.hypot is
CPython's own algorithm and differs from it in the last bit on about 0.3%
of pairs, which can move a printed digit that the golden files and the
drift-grid hash pin.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence

from .errors import ValidationError, require_real
from .model import ModelParams, optimal_rotation_angle

__all__ = ["POLICIES", "MODES", "extraction_at", "extraction_curve"]

# A round's ways of choosing Bob's control, and his control sets (described at
# `extraction_curve`); the fixed angle is a family control, so four pairs.
POLICIES = ("optimize", "closed-form-theta")
MODES = ("family", "full", "shared")

_NOT_REAL = "latencies must be a flat list of real numbers"


def _coefficients(p: ModelParams) -> tuple[float, ...]:
    """(h, h*k/s, h*h/s, xx = -2k^2/s, 2s, 2k): what `_branch0_entries`
    takes from (h, k), computed once per grid."""
    h, k = p.h, p.k
    s = p.energy_scale
    return h, h * (k / s), h * (h / s), -2.0 * (k * (k / s)), 2.0 * s, 2.0 * k


def _branch0_entries(coefficients: tuple[float, ...], t: float):
    """Branch 0's six nonzero M entries (xx, xy, xz, zx, zy, zz) at time t.

    Closed form of branch 0 of `protocol._rotation_costs` over
    `protocol.evolve_branches` for the measured ground state.  Each outcome
    mu has probability exactly 1/2, and with the ground amplitudes (a, b)
    on |00>, |11> the branch state is
    psi_mu(t) = (a|00> + b|11>)/sqrt2
                + (-1)^mu [c+ e^(-i w+ t)|+> + c- e^(-i w- t)|->],
    |+-> = (|01> +- |10>)/sqrt2, c+- = (b +- a)/2, w+- = 2s +- 2k; the
    {|00>, |11>} part is the zero-energy eigenvector of its block.  On
    site B, H_tot has only h I(x)sigma_z and 2k sigma_x(x)sigma_x, so
    M_x. = 2k<sigma_x(x)sigma_.>, M_y. = 0 and M_z. = h<I(x)sigma_.>.

    The identities ab = -k/2s, c+c- = h/4s, c+^2 = h^2/(4s(s+k)) and
    c-^2 = (s+k)/4s put the six entries on two angles, with
    C, S = cos, sin(2st) and c, d = cos, sin(2kt):
        M_xx = -2k^2/s            M_xy = (2hk/s) c d    M_xz = -(2hk/s) C c
        M_zx = -h S d - (hk/s) C c    M_zy = (h^2/s) C d    M_zz = -(h^2/s) c^2
    Every coefficient comes straight from (h, k, s) as h*(h/s) and the
    like (`_coefficients`), so none cancels or overflows at either end of
    the domain.  Branch 1's M differs in the signs of M_xz, M_zx and M_zy.

    t must be a checked float; xx does not depend on it.
    """
    h, hk_s, h2_s, xx, w, v = coefficients
    a, b = t * w, t * v
    big_c, c, big_s, d = math.cos(a), math.cos(b), math.sin(a), math.sin(b)
    cc = big_c * c
    return (
        xx,
        (2.0 * hk_s) * (c * d),
        (-2.0 * hk_s) * cc,
        -h * (big_s * d) - hk_s * cc,
        h2_s * (big_c * d),
        -h2_s * (c * c),
    )


def _rank2_gain(xx, xy, xz, zx, zy, zz):
    """tr M + sigma1 + sigma2: the most a site-B rotation extracts from M.

    M has rows a_x = (xx, xy, xz), a_z = (zx, zy, zz) and a zero y row, so
    sigma3 = 0 and the minimum over SO(3) of tr(R^T M) is -(sigma1 + sigma2)
    whatever the sign of det M; sigma1 sigma2 = |a_x x a_z| and
    sigma1^2 + sigma2^2 = |M|^2.  For tr M = xx + zz < 0 (every branch
    M(t)) the gain is n/((sigma1 + sigma2) - tr M), where
        n = (sigma1 + sigma2)^2 - tr^2
          = xy^2 + zy^2 + (xz - zx)^2 + 2(|a_x x a_z| - det),
    det = xx zz - xz zx, is a sum of terms >= 0 (|a_x x a_z| >= |det|).
    Where det > 0, |a_x x a_z| - det is taken as r^2/(|a_x x a_z| + det),
    with r = hypot(cx, cz) over the cross product's other two components,
    so nothing cancels; hypot keeps every square in range.
    """
    det = xx * zz - xz * zx
    r = abs(complex(xy * zz - xz * zy, xx * zy - xy * zx))
    cross = abs(complex(r, det))
    excess = r * r / (cross + det) if det > 0.0 else cross - det
    off = abs(complex(abs(complex(xy, zy)), xz - zx))  # sqrt(xy^2 + zy^2 + (xz - zx)^2)
    n = off * off + 2.0 * excess
    tr = xx + zz
    return n / (abs(complex(tr, math.sqrt(n))) - tr)


def _check_choices(policy: str, mode: str) -> None:
    if policy not in POLICIES:
        raise ValidationError(f"unknown policy {policy!r}, expected {POLICIES}")
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}, expected {MODES}")
    if policy == "closed-form-theta" and mode != "family":
        raise ValidationError(
            f"policy 'closed-form-theta' takes only mode 'family', not {mode!r}"
        )


def _latency(x) -> float:
    """One grid entry as a float: a numpy scalar or 0-d array counts as its
    value; a str, bytes, complex or nested list is not a latency."""
    if getattr(x, "ndim", None) == 0:
        x = x.item()
    if isinstance(x, (complex, Iterable)):
        raise ValidationError(_NOT_REAL)
    return require_real(x, "latency")


def _check_range(p: ModelParams, low: float, high: float) -> None:
    """Latencies from low to high must be >= 0 with 4*s*t finite."""
    if not (low >= 0.0 and math.isfinite(4.0 * p.energy_scale * high)):
        raise ValidationError("latencies must be finite and >= 0, with 4*s*t finite")


def _check_times(p: ModelParams, times) -> list[float]:
    """`times` as a non-empty list of floats in range, strictly ascending."""
    if type(times) is not list and (
        isinstance(times, (str, bytes, bytearray, memoryview))
        or not (isinstance(times, Sequence) or getattr(times, "ndim", None) == 1)
    ):
        raise ValidationError(_NOT_REAL)
    t = [x if type(x) is float else _latency(x) for x in times]
    if not t:
        raise ValidationError("latency grid must be a non-empty list of numbers")
    if all(map(operator.lt, t, t[1:])):
        _check_range(p, t[0], t[-1])  # only t[0] can be a NaN here
        return t
    for x in t:  # a time out of range is reported before the order
        _check_range(p, x, x)
    raise ValidationError("latency grid must be strictly ascending")


def _curve(p: ModelParams, times: list[float], policy: str, mode: str) -> list[float]:
    """E_B at every checked time; see `extraction_curve`."""
    coefficients = _coefficients(p)
    curve = []
    if policy == "closed-form-theta":
        theta = optimal_rotation_angle(p)
        half = math.sin(theta)
        two_half2, sin_2theta = 2.0 * half * half, math.sin(2.0 * theta)
        for t in times:
            xx, _, xz, zx, _, zz = _branch0_entries(coefficients, t)
            curve.append((xx + zz) * two_half2 + (xz - zx) * sin_2theta)
    elif mode == "family":
        for t in times:
            xx, _, xz, zx, _, zz = _branch0_entries(coefficients, t)
            a0, a2 = xx + zz, xz - zx
            curve.append(a2 * a2 / (abs(complex(a0, a2)) - a0))
    elif mode == "shared":
        for t in times:
            xx, xy, _, _, _, zz = _branch0_entries(coefficients, t)
            curve.append(_rank2_gain(xx, xy, 0.0, 0.0, 0.0, zz))
    else:
        for t in times:
            curve.append(_rank2_gain(*_branch0_entries(coefficients, t)))
    return curve


def extraction_curve(p: ModelParams, times, policy: str, mode: str) -> list[float]:
    """E_B at every latency of `times`, in closed form, as a list of floats.

    Checks policy, mode, their pair (closed-form-theta takes only family)
    and times, in that order.  Times must be a non-empty flat list of real
    numbers (bool, int, float, numpy's, or any value `require_real` admits;
    no str, bytes or complex, and no byte buffer as the grid) >= 0 with
    4*s*t finite: E_B <= 4s, so the bound keeps the phases 2st, 2kt and the
    product E_B*t finite; a NaN fails both comparisons.  As floats they
    must ascend strictly, so no two rows share a latency.

    The energy is read off branch 0's M entries (`_branch0_entries`).
    Both branches give up the same energy: branch 1's sign flips leave the
    family's a0 and a2, tr M, |a_x|^2, |a_z|^2 and |a_x x a_z| unchanged,
    and 0.5*g + 0.5*g is g exactly.  Under policy "closed-form-theta" Bob
    applies the family control at the zero-delay angle theta
    (`optimal_rotation_angle`), which gives a0 (1 - cos 2theta) +
    a2 sin 2theta, with a0 = xx + zz, a2 = xz - zx and 1 - cos 2theta
    taken as 2 sin^2 theta so that a small angle keeps its digits.  Under
    "optimize" the result is Bob's optimum in `mode`: over the sigma_y
    family, the peak a0 + hypot(a0, a2) of that sinusoid; over any SU(2)
    element per outcome (full), tr M + sigma1 + sigma2 of M
    (`_rank2_gain`); over one element for both outcomes (shared, the
    no-information baseline), the same of (M_0 + M_1)/2, which keeps only
    xx, xy and zz.
    xx = -2k^2/s < 0 and zz = -(h^2/s) c^2 <= 0, so a0 = tr M < 0 at every
    time and each peak is taken in its cancellation-free quotient form:
    the family's as a2^2/(hypot(a0, a2) - a0).
    """
    _check_choices(policy, mode)
    return _curve(p, _check_times(p, times), policy, mode)


def extraction_at(p: ModelParams, t, policy: str, mode: str) -> float:
    """E_B at the one latency t: `extraction_curve(p, [t], ...)[0]`.

    The same checks, in its order and with its messages: a float needs
    only the range check, any other latency is checked as the grid [t].
    """
    _check_choices(policy, mode)
    if type(t) is float:
        _check_range(p, t, t)
    else:
        (t,) = _check_times(p, [t])
    return _curve(p, [t], policy, mode)[0]
