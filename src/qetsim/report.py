"""The model report: each closed form against an independent numeric side.

`qetsim model` prints, per quantity, the closed form of `qetsim.model`, a
numeric value computed here without it, their residual and a tolerance.
The numeric side is plain `math` on nested lists.  It builds H_A, H_B, V
and H_tot from Pauli Kronecker products; H_tot commutes with sigma_z
sigma_z, so after checking that its cross-parity entries vanish it solves
the even block {|00>, |11>} and the odd block {|01>, |10>}, each a real
2x2 matrix, with one symmetric Schur rotation (Golub & Van Loan, *Matrix
Computations*, `sym.schur2`).  The ground vector is the even block's
lower eigenvector, the block the ground state lives in, so a
near-degenerate odd level (alpha -> 0) cannot stand in for it.

From the closed-form ground amplitudes (`model.ground_amplitudes`, a
formula, not one of the checked closed forms) it measures sigma_x^A,
evolves both branches through the four eigenpairs, and reads Bob's sigma_y
family optimum off M = c^T C, with c the Pauli coefficients of H_tot and C
the branch correlators; Bob's energy is tr((I - R)^T M) of that control.
The 4x4 numpy path (`qetsim.kernel`, `qetsim.protocol`) computes the same
quantities and is this module's oracle in the tests.
"""

from __future__ import annotations

import math

from .errors import NumericError, ValidationError
from .formatting import fmt, fnum
from .model import (
    ModelParams,
    Record,
    diffusion_period,
    e_a_closed,
    e_b_closed,
    ground_amplitudes,
    hb_expected,
    spectrum_closed_form,
)

__all__ = ["hamiltonians", "NumericSide", "numeric_side", "model_rows", "model_report"]

# Structural tolerance: imaginary residues and probabilities, as kernel.TOL.
_TOL = 1e-12

_I = ((1.0, 0.0), (0.0, 1.0))
_X = ((0.0, 1.0), (1.0, 0.0))
_Y = ((0.0, -1j), (1j, 0.0))
_Z = ((1.0, 0.0), (0.0, -1.0))
_PAULIS = (_I, _X, _Y, _Z)


def _kron(a, b) -> list[list]:
    """a (x) b for 2x2 a and b, site-A factor on the left (index 2*a + b)."""
    return [[a[i >> 1][j >> 1] * b[i & 1][j & 1] for j in range(4)] for i in range(4)]


def _affine(c: float, m, d: float) -> list[list]:
    """c*m + d*I, entry by entry."""
    return [[c * m[i][j] + (d if i == j else 0.0) for j in range(4)] for i in range(4)]


def _add(a, b) -> list[list]:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _apply(m, v) -> list:
    """The matrix-vector product m v."""
    return [sum(m_ij * v_j for m_ij, v_j in zip(row, v)) for row in m]


def _vdot(a, b) -> complex | float:
    """<a|b>, a conjugated."""
    return sum(x.conjugate() * y for x, y in zip(a, b))


def _expect(psi, op) -> float:
    """<psi|op|psi>, which must be finite and real within _TOL*max(1, |op|)."""
    value = complex(_vdot(psi, _apply(op, psi)))
    scale = max(1.0, max(abs(x) for row in op for x in row))
    if not (math.isfinite(value.real) and abs(value.imag) <= _TOL * scale):
        raise NumericError(f"expectation {value:.3e} is not finite and real")
    return value.real


# The Pauli pairs sigma_a (x) sigma_j, a over (I, x, y, z), j over (x, y, z).
_PAULI_PAIRS = [[_kron(a, b) for b in _PAULIS[1:]] for a in _PAULIS]

# P_A(mu) = (1 + (-1)^mu sigma_x^A) / 2 for mu = 0, 1.
_PROJECTORS = [_affine(sign / 2.0, _kron(_X, _I), 0.5) for sign in (1.0, -1.0)]

# Each parity block's two basis indices: even {|00>, |11>}, odd {|01>, |10>};
# the parity of each basis index.
_BLOCKS = ((0, 3), (1, 2))
_PARITY = (0, 1, 1, 0)

# The basis labels of the amplitude rows, sigma_z eigenstates in index order.
_BASIS = ("|++>", "|+->", "|-+>", "|-->")


def hamiltonians(p: ModelParams):
    """(H_A, H_B, V, H_tot), real 4x4 nested lists, as `model.build_hamiltonians`."""
    h, k = p.h, p.k
    s = p.energy_scale
    h_a = _affine(h, _kron(_Z, _I), h * h / s)
    h_b = _affine(h, _kron(_I, _Z), h * h / s)
    v = _affine(2.0 * k, _kron(_X, _X), 2.0 * k * k / s)
    return h_a, h_b, v, _add(_add(h_a, h_b), v)


def _schur2(app: float, apq: float, aqq: float):
    """Both (eigenvalue, rate, eigenvector) of the real symmetric
    [[app, apq], [apq, aqq]], ascending.

    One Jacobi rotation J = [[c, s], [-s, c]] with t = s/c the smaller root
    of t^2 + 2 tau t - 1 = 0, tau = (aqq - app)/(2 apq), diagonalises it:
    the eigenvalues are app - t*apq and aqq + t*apq, the columns of J the
    eigenvectors (Golub & Van Loan, Algorithm 8.4.1).  Less the mean
    diagonal they are the rates +-((app - aqq)/2 - t*apq), which keep their
    difference where the eigenvalues round together.
    """
    if apq == 0.0:
        t, c = 0.0, 1.0
    else:
        tau = (aqq - app) / (2.0 * apq)
        t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
        c = 1.0 / math.hypot(1.0, t)
    s, rate = t * c, (app - aqq) / 2.0 - t * apq
    pairs = sorted([(app - t * apq, rate, (c, -s)), (aqq + t * apq, -rate, (s, c))])
    if not all(map(math.isfinite, (c, s, rate, pairs[0][0], pairs[1][0]))):
        raise NumericError("parity-block eigensolver returned a non-finite value")
    return pairs


def _eigenpairs(h_tot):
    """(even block's two `_schur2` triples, odd block's two), 4-vectors as lists.

    H_tot must be symmetric and couple neither parity block to the other.
    """
    for i in range(4):
        for j in range(4):
            if h_tot[i][j] != h_tot[j][i]:
                raise NumericError(f"H_tot is not symmetric at ({i}, {j})")
            if _PARITY[i] != _PARITY[j] and h_tot[i][j] != 0.0:
                raise NumericError(f"H_tot couples the parity blocks at ({i}, {j})")
    blocks = []
    for p, q in _BLOCKS:
        pairs = []
        for value, rate, (up, uq) in _schur2(h_tot[p][p], h_tot[p][q], h_tot[q][q]):
            vector = [0.0] * 4
            vector[p], vector[q] = up, uq
            pairs.append((value, rate, vector))
        blocks.append(pairs)
    return blocks


class NumericSide(Record):
    """What the report computes without the closed forms it checks:
    the four eigenvalues of H_tot, ascending (spectrum); the even block's
    lower eigenvector (ground); the infused energy sum_mu p_mu <H_tot>_mu
    (e_a); the branch-averaged <H_B> at t = pi/(4k) (hb_peak); and Bob's
    best sigma_y-family energy at zero delay (e_b)."""

    def __init__(self, spectrum: tuple[float, ...], ground: tuple[float, ...],
                 e_a: float, hb_peak: float, e_b: float):
        self.__dict__.update(spectrum=spectrum, ground=ground, e_a=e_a,
                             hb_peak=hb_peak, e_b=e_b)


def _branches(psi):
    """Both sigma_x^A outcomes of psi: (probabilities, normalised states)."""
    probs = [_expect(psi, proj) for proj in _PROJECTORS]
    if min(probs) < 1e-12:
        mu = probs.index(min(probs))
        raise NumericError(f"degenerate measurement branch mu={mu}")
    total = probs[0] + probs[1]
    if abs(total - 1.0) > _TOL:
        raise NumericError(f"branch probabilities sum to {total}, not 1")
    states = [
        [x / math.sqrt(prob) for x in _apply(proj, psi)]
        for proj, prob in zip(_PROJECTORS, probs)
    ]
    return probs, states


def _family_energy(probs, states, h_tot) -> float:
    """Bob's best sigma_y-family energy off each branch's M = c^T C.

    c_aj = tr(H_tot sigma_a (x) sigma_j)/4 and C_ak = <sigma_a (x) sigma_k>;
    U_B(mu) = su2((-1)^mu theta, y) takes tr((I - R)^T M) out of branch mu,
    with I - R = 2 sin^2(theta) (I - y y^T) + sin(2 theta) [y]x, maximised
    in sum at theta = atan2(a2, -a0)/2 (`protocol.optimize_bob`).
    """
    c = [
        [sum(pair[i][j] * h_tot[j][i] for i in range(4) for j in range(4)).real / 4.0
         for pair in row]
        for row in _PAULI_PAIRS
    ]
    ms = []
    for psi in states:
        corr = [[_expect(psi, pair) for pair in row] for row in _PAULI_PAIRS]
        ms.append([[sum(c[a][j] * corr[a][k] for a in range(4)) for k in range(3)]
                   for j in range(3)])
    a0 = sum(p * (m[0][0] + m[2][2]) for p, m in zip(probs, ms))
    a2 = sum(p * (m[0][2] - m[2][0]) * sign for p, m, sign in zip(probs, ms, (1, -1)))
    theta = math.atan2(a2, -a0) / 2.0
    energy = 0.0
    for p, m, angle in zip(probs, ms, (theta, -theta)):
        half, sine = math.sin(angle), math.sin(2.0 * angle)
        turn = ((2.0 * half * half, 0.0, sine), (0.0, 0.0, 0.0),
                (-sine, 0.0, 2.0 * half * half))
        energy += p * sum(turn[j][k] * m[j][k] for j in range(3) for k in range(3))
    return energy


def numeric_side(p: ModelParams) -> NumericSide:
    """The report's numeric values at p, by the parity-block solve."""
    _h_a, h_b, _v, h_tot = hamiltonians(p)
    even, odd = _eigenpairs(h_tot)
    pairs = sorted(even + odd)
    amp_pp, amp_mm = ground_amplitudes(p)
    probs, states = _branches([amp_pp, 0.0, 0.0, amp_mm])
    e_a = sum(prob * _expect(psi, h_tot) for prob, psi in zip(probs, states))

    # <H_B> at its first peak, pi/(4k), sums over the parity blocks (H_B is
    # diagonal), so each block evolves at its rates, in its own frame
    peak_time = diffusion_period(p) / 2.0
    hb = 0.0
    for prob, psi in zip(probs, states):
        evolved = [0j] * 4
        for _value, rate, vector in pairs:
            weight = complex(math.cos(rate * peak_time), -math.sin(rate * peak_time))
            weight *= _vdot(vector, psi)
            evolved = [x + weight * u for x, u in zip(evolved, vector)]
        hb += prob * _expect(evolved, h_b)
    return NumericSide(
        spectrum=tuple(value for value, _, _ in pairs),
        ground=tuple(even[0][2]),
        e_a=e_a,
        hb_peak=hb,
        e_b=_family_energy(probs, states, h_tot),
    )


def model_rows(p: ModelParams) -> tuple[list[tuple], float]:
    """Cross-checked rows (quantity, closed, numeric, residual, tolerance),
    the closed and numeric values formatted, and the worst
    residual/tolerance ratio.  A residual is |numeric - closed| / scale:
    energies in units of 4s, the width of H_tot's spectrum (hbar = 1 leaves
    the unit free); e_a and e_b relative; amplitudes and fidelity absolute."""
    numeric = numeric_side(p)
    amp_pp, amp_mm = ground_amplitudes(p)
    closed = (amp_pp, 0.0, 0.0, amp_mm)

    # Phase-align the numeric ground vector to the closed form for
    # amplitude-by-amplitude residuals (global phase is not physical).
    overlap = _vdot(numeric.ground, closed)
    if overlap == 0.0:
        raise NumericError("numeric ground vector is orthogonal to the closed form")
    aligned = [x * math.copysign(1.0, overlap) for x in numeric.ground]

    rows = []

    def row(name, closed_v, numeric_v, tol, scale):
        resid = abs(numeric_v - closed_v) / scale
        rows.append((name, fmt(closed_v), fmt(numeric_v), resid, tol))

    width = 4.0 * p.energy_scale
    row("ground energy", 0.0, numeric.spectrum[0], 1e-10, width)
    for i, level in enumerate(spectrum_closed_form(p)):
        row(f"spectrum[{i}]", level, numeric.spectrum[i], 1e-9, width)
    for basis, closed_v, numeric_v in zip(_BASIS, closed, aligned):
        row(f"amplitude {basis}", closed_v, numeric_v, 1e-10, 1.0)
    row("ground fidelity", 1.0, overlap * overlap, 1e-12, 1.0)
    e_a, e_b = e_a_closed(p), e_b_closed(p)
    row("e_a", e_a, numeric.e_a, 1e-10, e_a)
    row("e_b", e_b, numeric.e_b, 1e-6, e_b)
    hb_peak = hb_expected(p, diffusion_period(p) / 2.0)
    row("hb peak", hb_peak, numeric.hb_peak, 1e-9, width)
    worst = max(r[3] / r[4] for r in rows)
    return rows, worst


def model_report(p: ModelParams, form: str) -> tuple[str, float]:
    """The `qetsim model` report at p as table, csv or json text, and the
    worst residual/tolerance ratio (status ok when at most 1)."""
    if form not in ("table", "csv", "json"):
        raise ValidationError(f"unknown form {form!r}, expected table, csv or json")
    rows, worst = model_rows(p)
    status = "ok" if worst <= 1.0 else "residual-failure"
    period = diffusion_period(p)
    head = (("h", p.h), ("k", p.k), ("alpha", p.alpha), ("diffusion period", period))

    if form == "table":
        lines = ["minimal-model cross-check report"]
        lines += [f"{name:24}{fmt(value)}" for name, value in head]
        lines.append(
            f"{'quantity':24}{'closed-form':20}{'numeric':20}{'residual':12}tolerance"
        )
        for name, closed_v, numeric_v, resid, tol in rows:
            lines.append(
                f"{name:24}{closed_v:20}{numeric_v:20}{resid:<12.3e}{tol:.0e}"
            )
        lines.append(f"{'status':24}{status}")
        return "\n".join(lines) + "\n", worst
    if form == "csv":
        lines = ["quantity,closed,numeric,residual,tolerance"]
        lines += [f"{name},{fmt(value)},,," for name, value in head]
        for name, closed_v, numeric_v, resid, tol in rows:
            lines.append(f"{name},{closed_v},{numeric_v},{fmt(resid)},{tol:.0e}")
        lines.append(f"status,{status},,,")
        return "\n".join(lines) + "\n", worst
    import json

    payload = {name.replace(" ", "_"): fnum(value) for name, value in head}
    payload["checks"] = [
        {
            "quantity": name,
            "closed": float(closed_v),
            "numeric": float(numeric_v),
            "residual": fnum(resid),
            "tolerance": tol,
        }
        for name, closed_v, numeric_v, resid, tol in rows
    ]
    payload["status"] = status
    return json.dumps(payload, indent=2) + "\n", worst
