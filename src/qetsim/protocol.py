"""The 4x4 reference path of a protocol round: projective measurement,
diffusion, conditioned extraction, and Bob's exact family optimum.

Measurement is handled by exhaustive branch enumeration (both outcomes with
their exact probabilities, held as one pair of arrays, `Branches`), never
by sampling, so every quantity downstream is deterministic.  A branch's
energy under a site-B rotation R is const + tr(R^T M), with one 3x3 Wahba
matrix M per branch, measured on the explicit branch states
(`_rotation_costs`).  The sigma_y family is a sinusoid in 2*theta with
coefficients read off M (`optimize_bob`; the model report computes its
own family optimum, and the tests compare the two).  A fixed control's
energy is tr((I - R)^T M), with I - R built straight from its
(theta, axis) (`_turn`).  The Kabsch SVD (`minimize`) gives the optimal
rotation over all of SO(3), the tests' oracle for the full and shared
optima.

The product does not take this path: sweeps and rounds read E_B off the
same M in closed form, straight from (h, k, t) (`qetsim.extraction`), and
the model report solves H_tot's two parity blocks in plain `math`
(`qetsim.report`).  This path is their independent check in the tests.  It
needs numpy, which the `test` extra installs, and stays in `src/` with
`qetsim.kernel` only until perfbench's tracing `TARGETS`, which bind their
names, move off them.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernel
from .errors import NumericError, require_real
from .kernel import ID2, ID4, SIGMA_X, SIGMA_Y, SIGMA_Z, expectation, kron, su2
from .model import HamiltonianSet, Record

__all__ = [
    "Branches",
    "BobControl",
    "ExtractionResult",
    "measure_alice",
    "branch_average",
    "infused_energy",
    "evolve_branches",
    "apply_bob",
    "extracted_energy",
    "optimize_bob",
    "minimize",
]

Y_AXIS = (0.0, 1.0, 0.0)


class Branches(Record):
    """Both measurement outcomes of a round; row mu is outcome mu.

    Probabilities are a (2,) float array, states a (2, 4) complex array of
    unit rows; both are made read-only here.
    """

    def __init__(self, probabilities: np.ndarray, states: np.ndarray):
        probabilities.flags.writeable = False
        states.flags.writeable = False
        self.__dict__.update(probabilities=probabilities, states=states)


class BobControl(Record):
    """Outcome-conditioned local unitary on site B: U_B(mu) = su2(*params[mu]).

    Any (theta, axis) pair per outcome mu = 0, 1; `family(theta)` gives
    U_B(mu) = cos(theta)*I + i*(-1)^mu*sin(theta)*sigma_y.
    """

    def __init__(self, params: tuple[tuple[float, tuple[float, float, float]], ...]):
        self.__dict__.update(params=params)

    @classmethod
    def family(cls, theta: float) -> "BobControl":
        theta = require_real(theta, "family angle")
        return cls(params=((theta, Y_AXIS), (-theta, Y_AXIS)))


class ExtractionResult(Record):
    """Extracted energy, the control achieving it, and per-branch contributions."""

    def __init__(self, extracted_energy: float, control: BobControl,
                 per_branch_energy: tuple[float, float]):
        self.__dict__.update(extracted_energy=extracted_energy, control=control,
                             per_branch_energy=per_branch_energy)


# The sign (-1)^mu per branch.
_MU_SIGNS = np.array([1.0, -1.0])

# P_A(mu) = (1 + (-1)^mu sigma_x^A) / 2, row mu.
_PROJECTORS = (ID4 + _MU_SIGNS[:, None, None] * kron(SIGMA_X, ID2)) / 2.0


def _weighted(per_branch, probs) -> np.ndarray:
    """p0*e0 + p1*e1 over the last axis, never as a fused multiply-add."""
    return (per_branch * probs).sum(axis=-1)


def measure_alice(psi) -> Branches:
    """Project the ground state psi, a (4,) array, onto both sigma_x^A outcomes.

    Outcome mu has probability <psi|P_A(mu)|psi> and normalised state
    P_A(mu)|psi>/sqrt(p).  Probabilities sum to 1 within 1e-12.
    """
    probs = expectation(psi, _PROJECTORS)
    if probs.min() < 1e-12:
        raise NumericError(f"degenerate measurement branch mu={probs.argmin()}")
    total = probs[0] + probs[1]
    if abs(total - 1.0) > kernel.TOL:
        raise NumericError(f"branch probabilities sum to {total}, not 1")
    return Branches(probs, (_PROJECTORS @ psi) / np.sqrt(probs)[:, None])


def branch_average(branches: Branches, op) -> float:
    """Probability-weighted expectation p0*<op>_0 + p1*<op>_1."""
    return float(_weighted(expectation(branches.states, op), branches.probabilities))


def infused_energy(branches: Branches, hams: HamiltonianSet) -> float:
    """Average post-measurement energy above the (zero) ground energy."""
    return branch_average(branches, hams.h_tot)


def _each_applied(u, states) -> np.ndarray:
    """u @ state for each row of states; u is one (4, 4) or one per row.

    Each row takes the matrix-vector product of a lone state, bit for bit;
    states @ u.T is another BLAS product and moves the last digits.
    """
    return (u @ states[..., None])[..., 0]


def evolve_branches(branches: Branches, hams: HamiltonianSet, t: float) -> Branches:
    """Evolve both states under exp(-i*H_tot*t); probabilities unchanged."""
    t = require_real(t, "evolution time", ge=0.0)
    u = kernel.evolve_operator(hams.h_tot, t)
    return Branches(branches.probabilities, _each_applied(u, branches.states))


def apply_bob(branches: Branches, control: BobControl) -> Branches:
    """Apply the outcome-conditioned local unitary I_A (x) U_B(mu) to row mu."""
    u4 = np.array([kron(ID2, su2(*params)) for params in control.params])
    return Branches(branches.probabilities, _each_applied(u4, branches.states))


def extracted_energy(before: Branches, after: Branches, hams: HamiltonianSet) -> float:
    """Probability-weighted energy drop sum_mu p(mu)*(<H>_before - <H>_after).

    Positive values mean energy left the system at B: U_B commutes with H_A,
    so the drop sits entirely in <H_B + V>.
    """
    h_tot = hams.h_tot
    drop = expectation(before.states, h_tot) - expectation(after.states, h_tot)
    return float(_weighted(drop, before.probabilities))


# _PAULI_PAIRS[a, j] = sigma_a (x) sigma_j, a over (I, x, y, z), j over (x, y, z).
_PAULIS = (ID2, SIGMA_X, SIGMA_Y, SIGMA_Z)
_PAULI_PAIRS = np.array([[np.kron(a, b) for b in _PAULIS[1:]] for a in _PAULIS])


def _rotation_costs(states, h_tot) -> np.ndarray:
    """3x3 M per state, with <(I x U)psi|H|(I x U)psi> = const + tr(R^T M).

    U^H sigma_j U = sum_k R_jk sigma_k for R in SO(3), so with the Pauli
    coefficients c_aj = tr(H sigma_a (x) sigma_j)/4 and the correlators
    C_ak = <sigma_a (x) sigma_k>, M = c^T C.  H has no sigma_y^B term, so
    the y row of M vanishes and rank(M) <= 2.  states (..., 4) give
    (..., 3, 3).
    """
    c = np.einsum("ajkl,lk->aj", _PAULI_PAIRS, h_tot).real / 4.0
    corr = expectation(states[..., None, None, :], _PAULI_PAIRS)
    return np.einsum("aj,...ak->...jk", c, corr)


def _turn(theta: float, axis) -> np.ndarray:
    """I - R for the rotation R of U = su2(theta, axis) on site B.

    U^H sigma_j U = sum_k R_jk sigma_k, and by Rodrigues' formula
    I - R = 2 sin^2(theta) (I - n n^T) + sin(2 theta) [n]x, with [n]x v =
    n x v.  2 sin^2(theta) stands in for 1 - cos(2 theta), which cancels at
    small angles.
    """
    n = np.asarray(axis, dtype=float)
    cross = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    half = math.sin(theta)
    sine = math.sin(2.0 * theta)
    return (2.0 * half * half) * (np.eye(3) - np.outer(n, n)) + sine * cross


def _controlled_from_wahba(m, probs, control: BobControl):
    """(total, per branch) energy `control` extracts from branch M (..., 2, 3, 3)."""
    turns = np.array([_turn(*params) for params in control.params])
    per_branch = np.einsum("...jk,...jk->...", turns, m)
    return _weighted(per_branch, probs), per_branch


def minimize(m) -> np.ndarray:
    """The rotation R in SO(3) minimising tr(R^T m), exactly.

    Wahba's problem (Wahba 1965), solved by the Kabsch SVD (Kabsch 1976):
    with -m = U S V^T, R = U diag(1, 1, d) V^T, d = det(U V^T) = +-1.  The
    minimum is unique even where R is not (rank(m) <= 1).  m may be one
    3x3 matrix or a stack (..., 3, 3).
    """
    u, _, vt = np.linalg.svd(-np.asarray(m, dtype=float))
    u[..., 2] *= np.where(np.linalg.det(u @ vt) < 0.0, -1.0, 1.0)[..., None]
    return u @ vt


def optimize_bob(branches: Branches, hams: HamiltonianSet) -> ExtractionResult:
    """Bob's best sigma_y-family control and its extracted energy, in closed form.

    U_B(mu) = su2((-1)^mu theta, y) rotates site B about y by (-1)^mu 2theta,
    so the extracted energy is a0 (1 - cos 2theta) + a2 sin 2theta, with a0
    the weighted M_xx + M_zz and a2 the weighted (-1)^mu (M_xz - M_zx),
    maximised at theta* = atan2(a2, -a0)/2 in (-pi/2, pi/2].

    Everything is read off one M per given branch (`_rotation_costs`), and
    the energy is that of the returned control (`_controlled_from_wahba`);
    no SU(2) matrix is built.  Sweeps and rounds, in every mode, read the
    energy off the closed-form M instead (`extraction`), with no SVD.
    """
    probs = branches.probabilities
    m = _rotation_costs(branches.states, hams.h_tot)  # (2, 3, 3)
    a0 = _weighted(m[:, 0, 0] + m[:, 2, 2], probs)
    a2 = _weighted((m[:, 0, 2] - m[:, 2, 0]) * _MU_SIGNS, probs)
    control = BobControl.family(math.atan2(a2, -a0) / 2.0)
    energy, per_branch = _controlled_from_wahba(m, probs, control)
    return ExtractionResult(
        extracted_energy=float(energy),
        control=control,
        per_branch_energy=tuple(per_branch.tolist()),
    )
