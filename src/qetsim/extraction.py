"""Bob's extracted energy E_B in closed form: one latency with `math`, a
latency grid with numpy.

E_B is read off branch 0's six nonzero Wahba-matrix entries
(`_branch0_entries`), straight from (h, k, t), with no 4x4 matrix,
projector or eigendecomposition; the 4x4 reference path in `protocol`
measures the same matrix on explicit branch states.  Each formula is
written once, over the elementwise functions it uses (`_Ops`): the cosines
and sines of the two phases, hypot, sqrt and a guarded division.  Two
entry points evaluate it:

- `extraction_at`, one latency in `math`; this module imports no numpy, so
  a round (`locc.run_once`, both wire ends, `qetsim run`) starts without it.
- `extraction_curve`, a grid in one elementwise numpy pass (`locc`'s
  sweeps).

The two agree bit for bit at every latency.  Scalar hypot is
abs(complex(x, y)), which CPython takes from the C library's hypot, the
function np.hypot calls; math.hypot is CPython's own algorithm and differs
from it in the last bit on about 0.3% of pairs.  math.cos, math.sin and
math.sqrt round as numpy's do on the platforms the tests run on, and the
tests check the identity across the whole domain.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import ValidationError, require_real
from .model import POLICIES, ModelParams, optimal_rotation_angle

if TYPE_CHECKING:
    import numpy as np

__all__ = ["MODES", "extraction_at", "extraction_curve"]

# Bob's control sets, described at `extraction_curve`; `model.POLICIES` are
# a round's two ways of choosing his control.
MODES = ("family", "full", "shared")

_NOT_REAL = "latencies must be a flat list of real numbers"


class _Ops(NamedTuple):
    """The elementwise functions the closed forms are written over."""

    phases: Callable  # (t, w, v) -> (cos wt, cos vt, sin wt, sin vt)
    hypot: Callable
    sqrt: Callable
    divide_where: Callable  # (num, den, other, cond) -> num/den where cond, else other


def _math_phases(t, w, v):
    a, b = t * w, t * v
    return math.cos(a), math.cos(b), math.sin(a), math.sin(b)


def _c_hypot(x, y):
    """The C library's hypot(x, y), as np.hypot computes it."""
    return abs(complex(x, y))


def _math_divide_where(num, den, other, cond):
    return num / den if cond else other


_MATH = _Ops(_math_phases, _c_hypot, math.sqrt, _math_divide_where)


@functools.cache
def _numpy_ops() -> _Ops:
    import numpy as np

    def phases(t, w, v):
        # one (n, 2) cos pass and one sin pass for both phases
        angles = np.multiply.outer(t, (w, v))
        (big_c, c), (big_s, d) = np.cos(angles).T, np.sin(angles).T
        return big_c, c, big_s, d

    def divide_where(num, den, other, cond):
        return np.divide(num, den, out=other, where=cond)

    return _Ops(phases, np.hypot, np.sqrt, divide_where)


def _branch0_entries(p: ModelParams, t, ops: _Ops):
    """Branch 0's six nonzero M entries (xx, xy, xz, zx, zy, zz) at time(s) t.

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
    like, so none cancels or overflows at either end of the domain.
    Branch 1's M differs in the signs of M_xz, M_zx and M_zy.

    t must be checked (one float, or a float array under `_numpy_ops`);
    xx does not depend on t and is a float.  Elementwise only (no BLAS
    product), so a time's entries do not depend on the grid it is
    computed in.
    """
    h, k = p.h, p.k
    s = p.energy_scale
    hk_s = h * (k / s)
    h2_s = h * (h / s)
    big_c, c, big_s, d = ops.phases(t, 2.0 * s, 2.0 * k)
    cc = big_c * c
    return (
        -2.0 * (k * (k / s)),
        (2.0 * hk_s) * (c * d),
        (-2.0 * hk_s) * cc,
        -h * (big_s * d) - hk_s * cc,
        h2_s * (big_c * d),
        -h2_s * (c * c),
    )


def _family_peak(a0, a2, ops: _Ops):
    """Peak a0 + hypot(a0, a2) of a0 (1 - cos 2theta) + a2 sin 2theta.

    Taken as a2^2/(hypot(a0, a2) - a0), equal in exact arithmetic and free
    of the cancellation of a0 + hypot, for a0 < 0: every caller passes
    a0 = xx + zz with xx = -2k^2/s a normal negative float and zz <= 0.
    """
    return a2 * a2 / (ops.hypot(a0, a2) - a0)


def _rank2_gain(xx, xy, xz, zx, zy, zz, ops: _Ops):
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
    r = ops.hypot(xy * zz - xz * zy, xx * zy - xy * zx)
    cross = ops.hypot(r, det)
    excess = ops.divide_where(r * r, cross + det, cross - det, det > 0.0)
    off = ops.hypot(ops.hypot(xy, zy), xz - zx)  # sqrt(xy^2 + zy^2 + (xz - zx)^2)
    n = off * off + 2.0 * excess
    tr = xx + zz
    return n / (ops.hypot(tr, ops.sqrt(n)) - tr)


def _energy(p: ModelParams, t, policy: str, mode: str, ops: _Ops):
    """E_B at checked time(s) t; see `extraction_curve`."""
    xx, xy, xz, zx, zy, zz = _branch0_entries(p, t, ops)
    if policy == "closed-form-theta":
        theta = optimal_rotation_angle(p)
        half = math.sin(theta)
        return (xx + zz) * (2.0 * half * half) + (xz - zx) * math.sin(2.0 * theta)
    if mode == "family":
        return _family_peak(xx + zz, xz - zx, ops)
    if mode == "shared":
        return _rank2_gain(xx, xy, 0.0, 0.0, 0.0, zz, ops)
    return _rank2_gain(xx, xy, xz, zx, zy, zz, ops)


def _check_choices(policy: str, mode: str) -> None:
    if policy not in POLICIES:
        raise ValidationError(f"unknown policy {policy!r}, expected {POLICIES}")
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}, expected {MODES}")


def _check_range(p: ModelParams, low, high: float) -> None:
    """Latencies from low to high must be >= 0 with 4*s*t finite."""
    if not (low >= 0.0 and math.isfinite(4.0 * p.energy_scale * high)):
        raise ValidationError("latencies must be finite and >= 0, with 4*s*t finite")


def extraction_at(p: ModelParams, t, policy: str, mode: str) -> float:
    """E_B at the one latency t, in `math`: `extraction_curve(p, [t], ...)[0]`.

    The same checks as `extraction_curve`, in its order and with its
    messages: a float is checked here without numpy, any other latency as
    the grid [t].
    """
    _check_choices(policy, mode)
    if type(t) is not float:
        t = float(_check_times(p, [t])[0])
    _check_range(p, t, t)
    return _energy(p, t, policy, mode, _MATH)


def _check_times(p: ModelParams, times) -> np.ndarray:
    """`times` as a flat, non-empty float array in range (`extraction_curve`)."""
    import numpy as np

    try:
        t = np.asarray(times)
    except ValueError as exc:  # ragged nesting
        raise ValidationError(_NOT_REAL) from exc
    if t.dtype.kind == "O":  # ints beyond int64, Fractions, Decimals
        t = np.array([require_real(x, "latency") for x in t.flat]).reshape(t.shape)
    if t.ndim != 1 or t.dtype.kind not in "biuf":  # no str, bytes or complex
        raise ValidationError(_NOT_REAL)
    if not t.size:
        raise ValidationError("latency grid must be a non-empty list of numbers")
    t = t.astype(float, copy=False)
    _check_range(p, t.min(), float(t.max()))
    return t


def extraction_curve(p: ModelParams, times, policy: str, mode: str) -> np.ndarray:
    """E_B at every latency of `times`, in closed form, shape (len(times),).

    Checks policy, mode and times, in that order.  Times must be a
    non-empty flat list of real numbers (bool, int, float, numpy's, or any
    value `errors.require_real` admits; no str, bytes or complex) >= 0 with
    4*s*t finite: E_B <= 4s, so the bound keeps the phases 2st, 2kt and
    the product E_B*t finite; a NaN fails both comparisons.  As floats they
    must ascend strictly, so no two rows share a latency.

    The energy is read off branch 0's M entries (`_branch0_entries`).
    Both branches give up the same energy: branch 1's sign flips leave the
    family's a0 and a2, tr M, |a_x|^2, |a_z|^2 and |a_x x a_z| unchanged,
    and 0.5*g + 0.5*g is g exactly.  Under policy "closed-form-theta" Bob
    applies the family control at the zero-delay angle theta
    (`optimal_rotation_angle`), which gives a0 (1 - cos 2theta) +
    a2 sin 2theta, with 1 - cos 2theta taken as 2 sin^2 theta so that a
    small angle keeps its digits.  Under "optimize" the result is Bob's
    optimum in `mode`: the peak over the sigma_y family (`_family_peak`);
    over any SU(2) element per outcome (full), tr M + sigma1 + sigma2 of M
    (`_rank2_gain`); over one element for both outcomes (shared, the
    no-information baseline), the same of (M_0 + M_1)/2, which keeps only
    xx, xy and zz.
    xx = -2k^2/s < 0 and zz = -(h^2/s) c^2 <= 0, so a0 = tr M < 0 at every
    time and each peak is taken in its cancellation-free quotient form.
    """
    _check_choices(policy, mode)
    t = _check_times(p, times)
    if not (t[1:] > t[:-1]).all():
        raise ValidationError("latency grid must be strictly ascending")
    return _energy(p, t, policy, mode, _numpy_ops())
