"""Full protocol round: projective measurement, diffusion, conditioned
extraction, and exact maximisation of the extracted energy.

Measurement is handled by exhaustive branch enumeration (both outcomes with
their exact probabilities), never by sampling, so every quantity downstream
is deterministic.  Bob's optimum has a closed form in every mode, with no
numerical search: a branch's energy is const + tr(R^T M) in the site-B
rotation R, with one 3x3 Wahba matrix M per branch.  The sigma_y family is a
sinusoid in 2*theta with coefficients read off M; over all of SU(2) (full
and shared modes) the best R solves Wahba's problem through one Kabsch SVD.
Evolution and extraction work on stacks of branch states, so a latency
sweep solves every point at once.
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
    "MODES",
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
    "evolved_states",
    "controlled_extraction",
    "optimal_extraction",
]

Y_AXIS = (0.0, 1.0, 0.0)

# Bob's control sets, described at `optimize_bob`.
MODES = ("family", "full", "shared")


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


def _stacked(branches) -> tuple[np.ndarray, np.ndarray]:
    """(states (2, 4), probabilities (2,)) of the outcomes mu = 0, 1."""
    if [b.mu for b in branches] != [0, 1]:
        raise ValidationError("branches must be the outcomes mu = 0, 1 in order")
    return (
        np.array([b.state for b in branches]),
        np.array([b.probability for b in branches]),
    )


def evolved_states(branches, hams: HamiltonianSet, times) -> np.ndarray:
    """Both branch states at every time, shape (len(times), 2, 4).

    Evolved in the eigenbasis of H_tot, psi(t) = V (exp(-i w t) * V^H psi),
    from one eigendecomposition and without a propagator per time.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or not np.all(np.isfinite(t)) or np.any(t < 0):
        raise ValidationError("evolution times must be a list, finite and >= 0")
    spec = kernel.hermitian_eig(hams.h_tot)
    v = spec.eigenvectors
    coeffs = _stacked(branches)[0] @ v.conj()  # rows V^H psi
    phases = np.exp(-1j * np.multiply.outer(t, spec.eigenvalues))
    return (phases[:, None, :] * coeffs) @ v.T


def _weighted(per_branch, probs) -> np.ndarray:
    """p0*e0 + p1*e1 over the last axis, never as a fused multiply-add."""
    return (per_branch * probs).sum(axis=-1)


# _PAULI_PAIRS[a, j] = sigma_a (x) sigma_j, a over (I, x, y, z), j over (x, y, z).
_PAULIS = (ID2, SIGMA_X, SIGMA_Y, SIGMA_Z)
_PAULI_PAIRS = np.array([[np.kron(a, b) for b in _PAULIS[1:]] for a in _PAULIS])
_SIGMAS = np.array(_PAULIS[1:])


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


def _gains(m, r) -> np.ndarray:
    """Energy a branch gives up under site-B rotation r: tr((I - r)^T m)."""
    return np.einsum("...jk,...jk->...", np.eye(3) - r, m)


def _rotation(u) -> np.ndarray:
    """R with U^H sigma_j U = sum_k R_jk sigma_k; the inverse of `_su2_params`."""
    turned = u.conj().T @ _SIGMAS @ u
    return np.einsum("jab,kba->jk", turned, _SIGMAS).real / 2.0


def controlled_extraction(states, probs, h_tot, control: BobControl):
    """Energy one control extracts from stacked branch states (..., 2, 4).

    Returns (total, per branch): shapes (...,) and (..., 2).
    """
    r = np.array([_rotation(control.unitary(mu)) for mu in (0, 1)])
    per_branch = _gains(_rotation_costs(states, h_tot), r)
    return _weighted(per_branch, probs), per_branch


def _family_optimum(m, probs):
    """Exact family optimum from the branch M (N, 2, 3, 3): (energy, theta*).

    U_B(mu) rotates site B about y by (-1)^mu 2theta, so branch mu gives up
    (1 - cos 2theta)(M_xx + M_zz) + (-1)^mu sin 2theta (M_xz - M_zx), and
    the total a0 (1 - cos 2theta) + a2 sin 2theta peaks at a0 + hypot(a0, a2)
    at theta* = atan2(a2, -a0)/2 in (-pi/2, pi/2].
    """
    a0 = _weighted(m[..., 0, 0] + m[..., 2, 2], probs)
    a2 = _weighted((m[..., 0, 2] - m[..., 2, 0]) * (1.0, -1.0), probs)
    return a0 + np.hypot(a0, a2), np.arctan2(a2, -a0) / 2.0


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


def optimal_extraction(states, probs, h_tot, mode: str):
    """Bob's exact optimum for stacked branch states (N, 2, 4).

    Returns (extracted energy (N,), solution): the family angles theta*
    (N,) in mode "family", the site-B rotations (N, 2, 3, 3) in mode "full"
    and (N, 1, 3, 3) in mode "shared".  See `optimize_bob` for the modes.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown optimiser mode {mode!r}")
    m = _rotation_costs(states, h_tot)  # (N, 2, 3, 3)
    if mode == "family":
        return _family_optimum(m, probs)
    if mode == "shared":
        r = minimize(np.einsum("m,nmjk->njk", probs, m))[:, None]
    else:
        r = minimize(m)
    return _weighted(_gains(m, r), probs), r


def optimize_bob(
    branches, hams: HamiltonianSet, mode: str = "family"
) -> ExtractionResult:
    """Maximise the extracted energy over Bob's control, in closed form.

    mode "family": U_B(mu) = su2((-1)^mu theta, y); the extracted energy is
    a0 (1 - cos 2theta) + a2 sin 2theta, with a0 and a2 read off the branch
    M, and is maximised at theta* = atan2(a2, -a0)/2.
    mode "full": an independent SU(2) element per outcome.  Branch energy is
    const + tr(R^T M) over rotations R of site B, minimised by the Kabsch
    SVD of M (`minimize`); never below the family value.
    mode "shared": one unitary for both outcomes, from the probability-
    weighted sum of the branch M -- the no-information baseline, which
    cannot extract energy at zero delay.

    The optimum comes from `optimal_extraction`; the returned energies are
    those of the returned control (`controlled_extraction`).
    """
    states, probs = _stacked(branches)
    solution = optimal_extraction(states[None], probs, hams.h_tot, mode)[1][0]
    if mode == "family":
        control = BobControl.family(float(solution))
    else:
        rotations = np.broadcast_to(solution, (2, 3, 3))
        control = BobControl.full(*(_su2_params(r) for r in rotations))
    energy, per_branch = controlled_extraction(states, probs, hams.h_tot, control)
    return ExtractionResult(
        extracted_energy=float(energy),
        control=control,
        per_branch_energy=tuple(per_branch.tolist()),
    )
