"""Full protocol round: projective measurement, diffusion, conditioned
extraction, and exact maximisation of the extracted energy.

Measurement is handled by exhaustive branch enumeration (both outcomes with
their exact probabilities, held as one pair of arrays, `Branches`), never
by sampling, so every quantity downstream is deterministic.  Bob's optimum has a closed form in every mode, with no
numerical search: a branch's energy is const + tr(R^T M) in the site-B
rotation R, with one 3x3 Wahba matrix M per branch.  The sigma_y family is a
sinusoid in 2*theta with coefficients read off M.  M's y row is zero, so
rank(M) <= 2 and the best rotation over all of SU(2) (full and shared
modes) gives up tr M + sigma1 + sigma2, a closed form in M's entries
(`_rank2_gain`).  A fixed control's energy is tr((I - R)^T M), with I - R
built straight from its (theta, axis) (`_turn`).  The Kabsch SVD
(`minimize`) is used only where a rotation must be returned:
`optimize_bob`'s full and shared controls.

Extraction is fed by two sources of M.  Every latency sweep and round
reads E_B off branch 0's six nonzero entries in closed form, straight
from (h, k, t), with no 4x4 matrix, projector or eigendecomposition
(`extraction_curve`, the checked entry point for a latency grid).
`_rotation_costs` measures M on explicit branch states, the path of the
state-level API (`optimize_bob`) and the tests' oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel, model
from .errors import NumericError, ValidationError, require_real
from .kernel import ID2, ID4, SIGMA_X, SIGMA_Y, SIGMA_Z, expectation, kron, su2
from .model import HamiltonianSet, ModelParams, optimal_rotation_angle

__all__ = [
    "MODES",
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
    "extraction_curve",
]

Y_AXIS = (0.0, 1.0, 0.0)

# Bob's control sets, described at `optimize_bob`; `model.POLICIES` are a
# round's two ways of choosing his control.
MODES = ("family", "full", "shared")


@dataclass(frozen=True)
class Branches:
    """Both measurement outcomes of a round; row mu is outcome mu.

    Both arrays are made read-only here.
    """

    probabilities: np.ndarray  # (2,) float
    states: np.ndarray  # (2, 4) complex, unit rows

    def __post_init__(self):
        self.probabilities.flags.writeable = False
        self.states.flags.writeable = False


@dataclass(frozen=True)
class BobControl:
    """Outcome-conditioned local unitary on site B: U_B(mu) = su2(*params[mu]).

    `family(theta)`: U_B(mu) = cos(theta)*I + i*(-1)^mu*sin(theta)*sigma_y.
    `full`: an independent (theta, axis) pair per outcome mu = 0, 1.
    """

    params: tuple[tuple[float, tuple[float, float, float]], ...]

    @classmethod
    def family(cls, theta: float) -> "BobControl":
        theta = require_real(theta, "family angle")
        return cls(params=((theta, Y_AXIS), (-theta, Y_AXIS)))

    @classmethod
    def full(cls, params_mu0, params_mu1) -> "BobControl":
        return cls(params=(tuple(params_mu0), tuple(params_mu1)))


@dataclass(frozen=True)
class ExtractionResult:
    """Extracted energy, the control achieving it, and per-branch contributions."""

    extracted_energy: float
    control: BobControl
    per_branch_energy: tuple[float, float]


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


# (row, column) in M of each entry `_branch0_entries` returns.
_ENTRY_INDEX = ((0, 0), (0, 1), (0, 2), (2, 0), (2, 1), (2, 2))


def _branch0_entries(p: ModelParams, t: np.ndarray):
    """Branch 0's six nonzero M entries (xx, xy, xz, zx, zy, zz) at times t.

    Closed form of branch 0 of `_rotation_costs` over `evolve_branches`
    for the measured ground state.  Each outcome mu has probability
    exactly 1/2, and with the ground amplitudes (a, b) on |00>, |11> the
    branch state is
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

    t must be a checked float array (`extraction_curve`); xx does not
    depend on t and is a float.  Elementwise only (no BLAS product), so a
    time's entries do not depend on the grid it is computed in.
    """
    h, k = p.h, p.k
    s = p.energy_scale
    hk_s = h * (k / s)
    h2_s = h * (h / s)
    angles = np.multiply.outer(t, (2.0 * s, 2.0 * k))
    (big_c, c), (big_s, d) = np.cos(angles).T, np.sin(angles).T
    cc = big_c * c
    return (
        -2.0 * (k * (k / s)),
        (2.0 * hk_s) * (c * d),
        (-2.0 * hk_s) * cc,
        -h * (big_s * d) - hk_s * cc,
        h2_s * (big_c * d),
        -h2_s * (c * c),
    )


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
    optimum in `mode`: the family peak, or
    tr M + sigma1 + sigma2 (`_rank2_gain`) of M in full mode and of
    (M_0 + M_1)/2, which keeps only xx, xy and zz, in shared mode.
    xx = -2k^2/s < 0 and zz = -(h^2/s) c^2 <= 0, so a0 = tr M < 0 at every
    time and each peak is taken in its cancellation-free quotient form.
    """
    if policy not in model.POLICIES:
        raise ValidationError(f"unknown policy {policy!r}, expected {model.POLICIES}")
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}, expected {MODES}")
    try:
        t = np.asarray(times)
    except ValueError as exc:  # ragged nesting
        raise ValidationError("latencies must be a flat list of real numbers") from exc
    if t.dtype.kind == "O":  # ints beyond int64, Fractions, Decimals
        t = np.array([require_real(x, "latency") for x in t.flat]).reshape(t.shape)
    if t.ndim != 1 or t.dtype.kind not in "biuf":  # no str, bytes or complex
        raise ValidationError("latencies must be a flat list of real numbers")
    if not t.size:
        raise ValidationError("latency grid must be a non-empty list of numbers")
    t = t.astype(float, copy=False)
    if not (t.min() >= 0.0 and math.isfinite(4.0 * p.energy_scale * float(t.max()))):
        raise ValidationError("latencies must be finite and >= 0, with 4*s*t finite")
    if not np.all(t[1:] > t[:-1]):
        raise ValidationError("latency grid must be strictly ascending")
    xx, xy, xz, zx, zy, zz = _branch0_entries(p, t)
    if policy == "closed-form-theta":
        theta = optimal_rotation_angle(p)
        half = math.sin(theta)
        return (xx + zz) * (2.0 * half * half) + (xz - zx) * math.sin(2.0 * theta)
    if mode == "family":
        return _family_peak(xx + zz, xz - zx)
    if mode == "shared":
        return _rank2_gain(xx, xy, 0.0, 0.0, 0.0, zz)
    return _rank2_gain(xx, xy, xz, zx, zy, zz)


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
    r = np.hypot(xy * zz - xz * zy, xx * zy - xy * zx)
    cross = np.hypot(r, det)
    excess = np.divide(r * r, cross + det, out=cross - det, where=det > 0.0)
    off = np.hypot(np.hypot(xy, zy), xz - zx)  # sqrt(xy^2 + zy^2 + (xz - zx)^2)
    n = off * off + 2.0 * excess
    tr = xx + zz
    return n / (np.hypot(tr, np.sqrt(n)) - tr)


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


def _family_peak(a0, a2):
    """Peak a0 + hypot(a0, a2) of a0 (1 - cos 2theta) + a2 sin 2theta.

    Taken as a2^2/(hypot(a0, a2) - a0), equal in exact arithmetic and free
    of the cancellation of a0 + hypot, for a0 < 0: every caller passes
    a0 = xx + zz with xx = -2k^2/s a normal negative float and zz <= 0.
    """
    return a2 * a2 / (np.hypot(a0, a2) - a0)


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


def optimize_bob(
    branches: Branches, hams: HamiltonianSet, mode: str = "family"
) -> ExtractionResult:
    """Maximise the extracted energy over Bob's control, in closed form.

    mode "family": U_B(mu) = su2((-1)^mu theta, y) rotates site B about y
    by (-1)^mu 2theta, so the extracted energy is
    a0 (1 - cos 2theta) + a2 sin 2theta, with a0 the weighted M_xx + M_zz
    and a2 the weighted (-1)^mu (M_xz - M_zx), maximised at
    theta* = atan2(a2, -a0)/2 in (-pi/2, pi/2].
    mode "full": an independent SU(2) element per outcome.  Branch energy is
    const + tr(R^T M) over rotations R of site B; each branch gives up
    tr M + sigma1 + sigma2 (`_rank2_gain`), and the control is the rotation
    the Kabsch SVD of M gives (`minimize`).  Never below the family value.
    mode "shared": one unitary for both outcomes, from the Kabsch SVD of the
    probability-weighted sum of the branch M -- the no-information
    baseline, which cannot extract energy at zero delay.

    Everything is read off one M per given branch (`_rotation_costs`).  The
    family and shared energies are those of the returned control
    (`_controlled_from_wahba`); no SU(2) matrix is built.  Sweeps and
    rounds need only the energy and read it off the closed-form M instead
    (`extraction_curve`), with no SVD.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}, expected {MODES}")
    probs = branches.probabilities
    m = _rotation_costs(branches.states, hams.h_tot)  # (2, 3, 3)
    if mode == "full":
        control = BobControl.full(*(_su2_params(r) for r in minimize(m)))
        per_branch = _rank2_gain(*(m[:, row, col] for row, col in _ENTRY_INDEX))
        energy = _weighted(per_branch, probs)
    else:
        if mode == "family":
            a0 = _weighted(m[:, 0, 0] + m[:, 2, 2], probs)
            a2 = _weighted((m[:, 0, 2] - m[:, 2, 0]) * _MU_SIGNS, probs)
            control = BobControl.family(math.atan2(a2, -a0) / 2.0)
        else:
            params = _su2_params(minimize(np.einsum("m,mjk->jk", probs, m)))
            control = BobControl.full(params, params)
        energy, per_branch = _controlled_from_wahba(m, probs, control)
    return ExtractionResult(
        extracted_energy=float(energy),
        control=control,
        per_branch_energy=tuple(per_branch.tolist()),
    )
