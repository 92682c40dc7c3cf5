"""Full protocol round: projective measurement, diffusion, conditioned
extraction, and exact maximisation of the extracted energy.

Measurement is handled by exhaustive branch enumeration (both outcomes with
their exact probabilities), never by sampling, so every quantity downstream
is deterministic.  Bob's optimum has a closed form in every mode, with no
numerical search: in the sigma_y family the extracted energy is a sinusoid
in 2*theta, fixed by three evaluations; over all of SU(2) (full and shared
modes) it is linear in the site-B rotation R, and the best R solves Wahba's
problem exactly through one Kabsch SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import NumericError, ValidationError
from .kernel import ID2, ID4, SIGMA_X, SIGMA_Y, SIGMA_Z, expectation, kron, su2
from .model import GroundState, HamiltonianSet

__all__ = [
    "OutcomeBranch",
    "BobControl",
    "ExtractionResult",
    "measure_alice",
    "sample_outcome",
    "infused_energy",
    "evolve_branches",
    "apply_bob",
    "extracted_energy",
    "optimize_bob",
    "minimize",
]

Y_AXIS = (0.0, 1.0, 0.0)


@dataclass(frozen=True)
class OutcomeBranch:
    """One measurement outcome with its probability and post-measurement state."""

    mu: int
    probability: float
    state: np.ndarray  # (4,) complex, unit norm


@dataclass(frozen=True)
class BobControl:
    """Parametrisation of the outcome-conditioned local unitary on site B.

    mode "family": U_B(mu) = cos(theta)*I + i*(-1)^mu*sin(theta)*sigma_y.
    mode "full": independent (theta, axis) SU(2) parameters per outcome.
    """

    mode: str
    theta: float = 0.0
    full_params: tuple[tuple[float, tuple[float, float, float]], ...] | None = None

    @classmethod
    def family(cls, theta: float) -> "BobControl":
        if not math.isfinite(theta):
            raise ValidationError("family angle must be finite")
        return cls(mode="family", theta=theta)

    @classmethod
    def full(cls, params_mu0, params_mu1) -> "BobControl":
        return cls(mode="full", full_params=(tuple(params_mu0), tuple(params_mu1)))

    def unitary(self, mu: int) -> np.ndarray:
        if mu not in (0, 1):
            raise ValidationError("outcome label must be 0 or 1")
        if self.mode == "family":
            sign = 1.0 if mu == 0 else -1.0
            return su2(sign * self.theta, Y_AXIS)
        if self.mode == "full":
            theta, axis = self.full_params[mu]
            return su2(theta, axis)
        raise ValidationError(f"unknown control mode {self.mode!r}")


@dataclass(frozen=True)
class ExtractionResult:
    """Extracted energy, the control achieving it, and per-branch contributions."""

    extracted_energy: float
    control: BobControl
    per_branch_energy: tuple[float, float]


def _projector(mu: int) -> np.ndarray:
    """P_A(mu) = (1 + (-1)^mu sigma_x^A) / 2."""
    sign = 1.0 if mu == 0 else -1.0
    return (ID4 + sign * kron(SIGMA_X, ID2)) / 2.0


def measure_alice(g: GroundState) -> tuple[OutcomeBranch, OutcomeBranch]:
    """Project the ground state onto both sigma_x^A outcomes.

    Branch mu has probability <g|P_A(mu)|g> and normalised state
    P_A(mu)|g>/sqrt(p).  Probabilities sum to 1 within 1e-12.
    """
    psi = kernel.require_finite(g.state, "ground state")
    branches = []
    for mu in (0, 1):
        proj = _projector(mu)
        raw = proj @ psi
        prob = expectation(psi, proj)
        if prob < 1e-12:
            raise NumericError(f"degenerate measurement branch mu={mu}")
        state = raw / math.sqrt(prob)
        state.flags.writeable = False
        branches.append(OutcomeBranch(mu=mu, probability=prob, state=state))
    total = branches[0].probability + branches[1].probability
    if abs(total - 1.0) > kernel.TOL.structural:
        raise NumericError(f"branch probabilities sum to {total}, not 1")
    return branches[0], branches[1]


def sample_outcome(branches, seed: int) -> int:
    """Draw one outcome label from the branch probabilities.

    Demonstration output only; every physical quantity in the package is
    computed from the exhaustive branch enumeration, never from samples.
    """
    rng = np.random.default_rng(seed)
    return int(rng.random() >= branches[0].probability)


def infused_energy(branches, hams: HamiltonianSet) -> float:
    """Average post-measurement energy above the (zero) ground energy."""
    return sum(
        b.probability * expectation(b.state, hams.h_tot) for b in branches
    )


def evolve_branches(branches, hams: HamiltonianSet, t: float):
    """Evolve every branch state under exp(-i*H_tot*t); probabilities unchanged."""
    if not math.isfinite(t) or t < 0:
        raise ValidationError("evolution time must be finite and >= 0")
    u = kernel.evolve_operator(hams.h_tot, t)
    out = []
    for b in branches:
        state = u @ b.state
        state.flags.writeable = False
        out.append(OutcomeBranch(mu=b.mu, probability=b.probability, state=state))
    return tuple(out)


def apply_bob(branches, control: BobControl):
    """Apply the outcome-conditioned local unitary I_A (x) U_B(mu) per branch."""
    out = []
    for b in branches:
        u4 = kron(ID2, control.unitary(b.mu))
        state = u4 @ b.state
        state.flags.writeable = False
        out.append(OutcomeBranch(mu=b.mu, probability=b.probability, state=state))
    return tuple(out)


def extracted_energy(branches_before, branches_after, hams: HamiltonianSet) -> float:
    """Probability-weighted energy drop sum_mu p(mu)*(<H>_before - <H>_after).

    Positive values mean energy left the system at B: U_B commutes with H_A,
    so the drop sits entirely in <H_B + V>.
    """
    total = 0.0
    for before, after in zip(branches_before, branches_after):
        if before.mu != after.mu:
            raise ValidationError("branch lists must correspond outcome-by-outcome")
        total += before.probability * (
            expectation(before.state, hams.h_tot)
            - expectation(after.state, hams.h_tot)
        )
    return total


def _branch_energies(branches, hams: HamiltonianSet) -> tuple[float, float]:
    return tuple(expectation(b.state, hams.h_tot) for b in branches)


def _extraction(branches, hams, control, energies_before) -> ExtractionResult:
    """Apply `control` and measure the energy each branch gives up."""
    after = apply_bob(branches, control)
    per_branch = tuple(
        eb - expectation(a.state, hams.h_tot)
        for eb, a in zip(energies_before, after)
    )
    total = sum(b.probability * pb for b, pb in zip(branches, per_branch))
    return ExtractionResult(
        extracted_energy=total, control=control, per_branch_energy=per_branch
    )


def _optimize_family(branches, hams) -> ExtractionResult:
    """Exact family optimum from three evaluations.

    U_B(mu) rotates site B about y by 2*theta (sign (-1)^mu), so the
    extracted energy is a0 + a1*cos(2 theta) + a2*sin(2 theta).  Its values
    at theta = 0, pi/4, pi/2 give a0 +- a1 and a0 + a2; the maximiser is
    theta* = atan2(a2, a1)/2 in (-pi/2, pi/2].
    """
    energies_before = _branch_energies(branches, hams)

    def objective(theta: float) -> float:
        control = BobControl.family(theta)
        return _extraction(branches, hams, control, energies_before).extracted_energy

    f0, f1, f2 = (objective(t) for t in (0.0, math.pi / 4.0, math.pi / 2.0))
    a1 = (f0 - f2) / 2.0
    a2 = f1 - (f0 + f2) / 2.0
    theta_star = math.atan2(a2, a1) / 2.0
    return _extraction(branches, hams, BobControl.family(theta_star), energies_before)


# _PAULI_PAIRS[a, j] = sigma_a (x) sigma_j, a over (I, x, y, z), j over (x, y, z).
_PAULIS = (ID2, SIGMA_X, SIGMA_Y, SIGMA_Z)
_PAULI_PAIRS = np.array([[np.kron(a, b) for b in _PAULIS[1:]] for a in _PAULIS])


def _rotation_cost(state, h_tot) -> np.ndarray:
    """3x3 M with <(I x U)psi|H|(I x U)psi> = const + tr(R^T M).

    U^H sigma_j U = sum_k R_jk sigma_k for R in SO(3), so with the Pauli
    coefficients c_aj = tr(H sigma_a (x) sigma_j)/4 and the correlators
    C_ak = <sigma_a (x) sigma_k>, M = c^T C.  H has no sigma_y^B term, so
    the y row of M vanishes and rank(M) <= 2.
    """
    c = np.einsum("ajkl,lk->aj", _PAULI_PAIRS, h_tot).real / 4.0
    corr = np.einsum("k,ajkl,l->aj", state.conj(), _PAULI_PAIRS, state).real
    return c.T @ corr


def minimize(m) -> np.ndarray:
    """The rotation R in SO(3) minimising tr(R^T m), exactly.

    Wahba's problem (Wahba 1965), solved by the Kabsch SVD (Kabsch 1976):
    with -m = U S V^T, R = U diag(1, 1, d) V^T, d = det(U V^T) = +-1.  The
    minimum is unique even where R is not (rank(m) <= 1).
    """
    u, _, vt = np.linalg.svd(-np.asarray(m, dtype=float))
    if np.linalg.det(u @ vt) < 0.0:
        u[:, 2] = -u[:, 2]
    return u @ vt


def _su2_params(r) -> tuple[float, tuple[float, float, float]]:
    """(theta, axis) of su2(theta, axis) = U with U^H sigma_j U = sum_k r_jk sigma_k.

    U = q0*I + i*(q . sigma) for the unit quaternion q of the rotation r^T.
    The matrix 4 q q^T is read off r, and q is taken from its column with
    the largest diagonal entry (Shepperd 1978), so no component comes from
    a small pivot; theta = atan2(|q|, q0) keeps full precision near pi/2,
    where acos of the trace would not.
    """
    a = np.asarray(r, dtype=float).T
    tr = a[0, 0] + a[1, 1] + a[2, 2]
    qq = np.empty((4, 4))
    qq[0, 0] = 1.0 + tr
    qq[0, 1:] = qq[1:, 0] = (a[2, 1] - a[1, 2], a[0, 2] - a[2, 0], a[1, 0] - a[0, 1])
    qq[1:, 1:] = a + a.T + (1.0 - tr) * np.eye(3)
    q = qq[:, int(np.argmax(np.diag(qq)))]
    q = q / np.linalg.norm(q) * (1.0 if q[0] >= 0.0 else -1.0)
    sin_theta = float(np.linalg.norm(q[1:]))
    if sin_theta == 0.0:
        return 0.0, Y_AXIS
    axis = q[1:] / sin_theta
    return math.atan2(sin_theta, float(q[0])), tuple(float(x) for x in axis)


def _optimize_full(branches, hams) -> ExtractionResult:
    params = [
        _su2_params(minimize(_rotation_cost(b.state, hams.h_tot))) for b in branches
    ]
    control = BobControl.full(params[0], params[1])
    return _extraction(branches, hams, control, _branch_energies(branches, hams))


def _optimize_shared(branches, hams) -> ExtractionResult:
    """Best outcome-independent unitary (no classical information used)."""
    m = sum(b.probability * _rotation_cost(b.state, hams.h_tot) for b in branches)
    params = _su2_params(minimize(m))
    control = BobControl.full(params, params)
    return _extraction(branches, hams, control, _branch_energies(branches, hams))


def optimize_bob(
    branches, hams: HamiltonianSet, mode: str = "family"
) -> ExtractionResult:
    """Maximise the extracted energy over Bob's control, in closed form.

    mode "family": U_B(mu) = su2((-1)^mu theta, y); the extracted energy is
    a0 + a1 cos(2 theta) + a2 sin(2 theta), read off three evaluations and
    maximised at theta* = atan2(a2, a1)/2.
    mode "full": an independent SU(2) element per outcome.  Branch energy is
    const + tr(R^T M) over rotations R of site B, minimised by the Kabsch
    SVD of M (`minimize`); never below the family value.
    mode "shared": one unitary for both outcomes, from the probability-
    weighted sum of the branch M -- the no-information baseline, which
    cannot extract energy at zero delay.
    """
    if mode == "family":
        return _optimize_family(branches, hams)
    if mode == "full":
        return _optimize_full(branches, hams)
    if mode == "shared":
        return _optimize_shared(branches, hams)
    raise ValidationError(f"unknown optimiser mode {mode!r}")
