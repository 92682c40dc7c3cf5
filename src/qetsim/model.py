"""Minimal two-qubit energy-teleportation model.

Builds the site Hamiltonians H_A, H_B, the coupling V (all with identity
offsets chosen so the ground energy is exactly zero), the entangled ground
state in closed form, and the closed-form protocol quantities: infused
energy, the diffusion curve at site B, and the optimal extracted energy;
the verdict on an energy-time product (E*t >= 1); the names of Bob's
controls; and `Record`, the base of every frozen record in the package.

Note on normalisation: the site-A term is h*sigma_z acting on site A and the
scalar offsets multiply the 4-dim identity, so all operators live in one
space and <g|H_A|g> = <g|H_B|g> = <g|V|g> = 0.
"""

from __future__ import annotations

import math

from .errors import require_real

__all__ = [
    "PARAM_MIN",
    "PARAM_MAX",
    "THRESHOLD",
    "POLICIES",
    "MODES",
    "Record",
    "ModelParams",
    "HamiltonianSet",
    "build_hamiltonians",
    "ground_amplitudes",
    "ground_state_closed_form",
    "spectrum_closed_form",
    "e_a_closed",
    "hb_expected",
    "e_b_closed",
    "diffusion_period",
    "optimal_rotation_angle",
    "verdict_for",
]


# The stated domain: h and k each lie in [PARAM_MIN, PARAM_MAX], so
# alpha = h/k lies in [1e-60, 1e60].  Across it every closed-form
# coefficient (h*(h/s), h*(k/s), k*(k/s)), E_A = h^2/s, the zero-delay E_B
# (about h^2/4k or k^2/2h at the ends) and alpha^4 in `_f_curve` stay
# normal floats, far from overflow and underflow.
PARAM_MIN = 1e-30
PARAM_MAX = 1e30


# Observability requires the energy-time product to reach 1 (hbar = 1).
THRESHOLD = 1.0


def verdict_for(product: float) -> str:
    return "observable" if product >= THRESHOLD else "unobservable"


# A round's ways of choosing Bob's control, and his control sets (see
# `extraction.extraction_curve`); the fixed angle is family-only: four pairs.
POLICIES = ("optimize", "closed-form-theta")
MODES = ("family", "full", "shared")


class Record:
    """A frozen record of the fields its `__init__` stores once, in order, in
    the instance dict: equal to a record of its class with equal values,
    hashed as the tuple of values, printed as `Name(field=value, ...)`."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{self.__class__.__qualname__}({fields})"


class ModelParams(Record):
    """The two positive energy constants of the model (hbar = 1).

    Each is stored as the float `require_real` returns, in the stated
    domain [PARAM_MIN, PARAM_MAX] = [1e-30, 1e30], ends included.
    """

    def __init__(self, h: float, k: float):
        self.__dict__.update(h=require_real(h, "h", ge=PARAM_MIN, le=PARAM_MAX),
                             k=require_real(k, "k", ge=PARAM_MIN, le=PARAM_MAX))

    @classmethod
    def from_alpha(cls, alpha: float) -> "ModelParams":
        """The point h = alpha at k = 1: energies in units of k."""
        return cls(h=require_real(alpha, "alpha", ge=PARAM_MIN, le=PARAM_MAX), k=1.0)

    @property
    def alpha(self) -> float:
        return self.h / self.k

    @property
    def energy_scale(self) -> float:
        """sqrt(h^2 + k^2), the gap scale of the coupled system."""
        return math.hypot(self.h, self.k)


class HamiltonianSet(Record):
    """H_A, H_B, V and their sum, all 4x4 Hermitian."""

    def __init__(self, h_a: np.ndarray, h_b: np.ndarray, v: np.ndarray,
                 h_tot: np.ndarray):
        self.__dict__.update(h_a=h_a, h_b=h_b, v=v, h_tot=h_tot)


def build_hamiltonians(p: ModelParams) -> HamiltonianSet:
    """Assemble the two site Hamiltonians and the coupling.

    H_A = h*sigma_z^A + h^2/s, H_B = h*sigma_z^B + h^2/s,
    V = 2k*sigma_x^A sigma_x^B + 2k^2/s with s = sqrt(h^2+k^2);
    the offsets cancel the raw ground energy -2s exactly.  numpy arrays for
    the 4x4 reference path (`qetsim.kernel`); the model report builds the
    same matrices as nested lists (`report.hamiltonians`).
    """
    from .kernel import ID2, ID4, SIGMA_X, SIGMA_Z, kron

    h, k = p.h, p.k
    s = p.energy_scale
    h_a = h * kron(SIGMA_Z, ID2) + (h * h / s) * ID4
    h_b = h * kron(ID2, SIGMA_Z) + (h * h / s) * ID4
    v = 2.0 * k * kron(SIGMA_X, SIGMA_X) + (2.0 * k * k / s) * ID4
    h_tot = h_a + h_b + v
    for m in (h_a, h_b, v, h_tot):
        m.flags.writeable = False
    return HamiltonianSet(h_a=h_a, h_b=h_b, v=v, h_tot=h_tot)


def ground_amplitudes(p: ModelParams) -> tuple[float, float]:
    """The ground state's two nonzero amplitudes, (amp(|++>), amp(|-->)).

    amp(|++>) = sqrt((1 - h/s)/2), amp(|-->) = -sqrt((1 + h/s)/2);
    normalised identically and an exact eigenvector with eigenvalue 0.
    amp(|++>) is computed as k/sqrt(2s(s+h)), which does not cancel when
    h >> k.
    """
    s = p.energy_scale
    return p.k / math.sqrt(2.0 * s * (s + p.h)), -math.sqrt((1.0 + p.h / s) / 2.0)


def ground_state_closed_form(p: ModelParams) -> np.ndarray:
    """Entangled ground state, a read-only (4,) complex array: amplitudes
    on |++> and |--> only (`ground_amplitudes`), energy zero in this
    normalisation.
    """
    import numpy as np

    amp_pp, amp_mm = ground_amplitudes(p)
    state = np.array([amp_pp, 0.0, 0.0, amp_mm], dtype=complex)
    state.flags.writeable = False
    return state


def spectrum_closed_form(p: ModelParams) -> tuple[float, float, float, float]:
    """Eigenvalues of H_tot after offsets: (0, 2s-2k, 2s+2k, 4s), ascending.

    2s - 2k is taken as 2h^2/(s + k), equal in exact arithmetic and free of
    the cancellation of 2s - 2k at small alpha.
    """
    h, s = p.h, p.energy_scale
    return (0.0, 2.0 * h * h / (s + p.k), 2.0 * s + 2.0 * p.k, 4.0 * s)


def e_a_closed(p: ModelParams) -> float:
    """Energy infused at site A by the projective measurement: h^2/s."""
    return p.h * p.h / p.energy_scale


def hb_expected(p: ModelParams, t: float) -> float:
    """Average site-B energy a model-time t after the measurement.

    (h^2 / 2s) * (1 - cos(4kt)), taken as (h^2/s) sin^2(2kt), which keeps
    its digits at small t where 1 - cos(4kt) cancels; period pi/(2k), peak
    h^2/s.
    """
    t = require_real(t, "diffusion time", ge=0.0)
    require_real(4.0 * p.k * t, "the diffusion phase 4*k*t")
    half = math.sin(2.0 * p.k * t)
    return e_a_closed(p) * (half * half)


def _f_curve(alpha: float) -> float:
    """E_B/k at h = alpha*k, unvalidated.

    ((a^2+2)/sqrt(a^2+1)) * (sqrt(1 + x) - 1) with x = a^2/(a^2+2)^2, the
    bracket taken as x/(sqrt(1 + x) + 1) so it does not cancel for small x.
    """
    a2 = alpha * alpha
    d = a2 + 2.0
    x = a2 / (d * d)  # not d ** 2: a float's ** is libm pow, not correctly rounded
    return d / math.sqrt(a2 + 1.0) * (x / (math.sqrt(1.0 + x) + 1.0))


def e_b_closed(p: ModelParams) -> float:
    """Optimal extractable energy at site B in the zero-delay limit.

    k*f(h/k) (`_f_curve`), algebraically equal to
    ((h^2+2k^2)/s) * (sqrt(1 + h^2 k^2/(h^2+2k^2)^2) - 1) and to
    sqrt(h^2+4k^2) - (h^2+2k^2)/s.
    """
    return p.k * _f_curve(p.alpha)


def diffusion_period(p: ModelParams) -> float:
    """Period of the site-B diffusion oscillation: pi/(2k)."""
    return math.pi / (2.0 * p.k)


def optimal_rotation_angle(p: ModelParams) -> float:
    """Optimal zero-delay rotation angle for the conditioned sigma_y family.

    The post-measurement branches live on the (|++>,|-->)-like circle; the
    family rotates that circle, and the raw energy along it is
    h*cos(2*psi) + 2k*sin(2*psi).  The minimiser gives
    theta* = (atan2(-k,-h) - atan2(-2k,-h)) / 2, always inside (-pi/4, pi/4);
    it is taken as the single angle -atan2(hk, h^2 + 2k^2) / 2, equal in
    exact arithmetic, because the difference of two angles near -pi loses
    digits at either end of the alpha range.
    """
    return -math.atan2(p.h * p.k, p.h * p.h + 2.0 * p.k * p.k) / 2.0
