"""Minimal two-qubit energy-teleportation model.

Builds the site Hamiltonians H_A, H_B, the coupling V (all with identity
offsets chosen so the ground energy is exactly zero), the entangled ground
state in closed form, and the closed-form protocol quantities: infused
energy, the diffusion curve at site B, and the optimal extracted energy.

Note on normalisation: the site-A term is h*sigma_z acting on site A and the
scalar offsets multiply the 4-dim identity, so all operators live in one
space and <g|H_A|g> = <g|H_B|g> = <g|V|g> = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import ValidationError
from .kernel import ID2, ID4, SIGMA_X, SIGMA_Z, kron

__all__ = [
    "ModelParams",
    "HamiltonianSet",
    "GroundState",
    "build_hamiltonians",
    "ground_state_closed_form",
    "ground_state_numeric",
    "spectrum_closed_form",
    "e_a_closed",
    "hb_expected",
    "e_b_closed",
    "diffusion_period",
    "optimal_rotation_angle",
]


@dataclass(frozen=True)
class ModelParams:
    """The two positive energy constants of the model (hbar = 1)."""

    h: float
    k: float

    def __post_init__(self):
        for name, value in (("h", self.h), ("k", self.k)):
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValidationError(f"{name} must be a finite number")
            if value <= 0:
                raise ValidationError(f"{name} must be strictly positive")

    @classmethod
    def from_alpha(cls, alpha: float, k: float = 1.0) -> "ModelParams":
        """Reparametrised point h = alpha*k, energies in units of k."""
        return cls(h=alpha * k, k=k)

    @property
    def alpha(self) -> float:
        return self.h / self.k

    @property
    def energy_scale(self) -> float:
        """sqrt(h^2 + k^2), the gap scale of the coupled system."""
        return math.hypot(self.h, self.k)


@dataclass(frozen=True)
class HamiltonianSet:
    """H_A, H_B, V and their sum, all 4x4 Hermitian."""

    h_a: np.ndarray
    h_b: np.ndarray
    v: np.ndarray
    h_tot: np.ndarray


@dataclass(frozen=True)
class GroundState:
    """Normalised ground state and its energy (zero in this normalisation)."""

    state: np.ndarray
    energy: float


def build_hamiltonians(p: ModelParams) -> HamiltonianSet:
    """Assemble the two site Hamiltonians and the coupling.

    H_A = h*sigma_z^A + h^2/s, H_B = h*sigma_z^B + h^2/s,
    V = 2k*sigma_x^A sigma_x^B + 2k^2/s with s = sqrt(h^2+k^2);
    the offsets cancel the raw ground energy -2s exactly.
    """
    h, k = p.h, p.k
    s = p.energy_scale
    h_a = h * kron(SIGMA_Z, ID2) + (h * h / s) * ID4
    h_b = h * kron(ID2, SIGMA_Z) + (h * h / s) * ID4
    v = 2.0 * k * kron(SIGMA_X, SIGMA_X) + (2.0 * k * k / s) * ID4
    h_tot = h_a + h_b + v
    for m in (h_a, h_b, v, h_tot):
        m.flags.writeable = False
    return HamiltonianSet(h_a=h_a, h_b=h_b, v=v, h_tot=h_tot)


def ground_state_closed_form(p: ModelParams) -> GroundState:
    """Entangled ground state: amplitudes on |++> and |--> only.

    amp(|++>) = sqrt((1 - h/s)/2), amp(|-->) = -sqrt((1 + h/s)/2);
    normalised identically and an exact eigenvector with eigenvalue 0.
    """
    ratio = p.h / p.energy_scale
    amp_pp = math.sqrt((1.0 - ratio) / 2.0)
    amp_mm = -math.sqrt((1.0 + ratio) / 2.0)
    state = np.array([amp_pp, 0.0, 0.0, amp_mm], dtype=complex)
    state.flags.writeable = False
    return GroundState(state=state, energy=0.0)


def ground_state_numeric(hams: HamiltonianSet) -> GroundState:
    """Ground state via the LAPACK eigensolver (oracle for the closed form)."""
    spec = kernel.hermitian_eig(hams.h_tot)
    state = spec.ground_vector.copy()
    state.flags.writeable = False
    return GroundState(state=state, energy=spec.ground_energy)


def spectrum_closed_form(p: ModelParams) -> tuple[float, float, float, float]:
    """Eigenvalues of H_tot after offsets: (0, 2s-2k, 2s+2k, 4s), ascending."""
    s = p.energy_scale
    return (0.0, 2.0 * s - 2.0 * p.k, 2.0 * s + 2.0 * p.k, 4.0 * s)


def e_a_closed(p: ModelParams) -> float:
    """Energy infused at site A by the projective measurement: h^2/s."""
    return p.h * p.h / p.energy_scale


def hb_expected(p: ModelParams, t: float) -> float:
    """Average site-B energy a model-time t after the measurement.

    (h^2 / 2s) * (1 - cos(4kt)); period pi/(2k), peak h^2/s.
    """
    if not math.isfinite(t) or t < 0:
        raise ValidationError("diffusion time must be finite and >= 0")
    return e_a_closed(p) / 2.0 * (1.0 - math.cos(4.0 * p.k * t))


def _f_curve(alpha):
    """E_B/k at h = alpha*k for a scalar or an array of alphas, unvalidated.

    ((a^2+2)/sqrt(a^2+1)) * (sqrt(1 + x) - 1) with x = a^2/(a^2+2)^2, the
    bracket taken as x/(sqrt(1 + x) + 1) so it does not cancel for small x.
    """
    a2 = alpha * alpha
    x = a2 / (a2 + 2.0) ** 2
    return (a2 + 2.0) / np.sqrt(a2 + 1.0) * (x / (np.sqrt(1.0 + x) + 1.0))


def e_b_closed(p: ModelParams) -> float:
    """Optimal extractable energy at site B in the zero-delay limit.

    k*f(h/k) (`_f_curve`), algebraically equal to
    ((h^2+2k^2)/s) * (sqrt(1 + h^2 k^2/(h^2+2k^2)^2) - 1) and to
    sqrt(h^2+4k^2) - (h^2+2k^2)/s.
    """
    return p.k * float(_f_curve(p.alpha))


def diffusion_period(p: ModelParams) -> float:
    """Period of the site-B diffusion oscillation: pi/(2k)."""
    return math.pi / (2.0 * p.k)


def optimal_rotation_angle(p: ModelParams) -> float:
    """Optimal zero-delay rotation angle for the conditioned sigma_y family.

    The post-measurement branches live on the (|++>,|-->)-like circle; the
    family rotates that circle, and the raw energy along it is
    h*cos(2*psi) + 2k*sin(2*psi).  The minimiser gives
    theta* = (atan2(-k,-h) - atan2(-2k,-h)) / 2, always inside (-pi/4, pi/4).
    """
    two_phi = math.atan2(-p.k, -p.h)
    two_psi = math.atan2(-2.0 * p.k, -p.h)
    return (two_phi - two_psi) / 2.0
