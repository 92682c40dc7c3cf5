"""Dense complex linear algebra for the 2- and 4-dimensional operator spaces.

Everything here is a pure function of its inputs; returned arrays are marked
read-only so callers can share them without copying.  The eigensolver
wraps LAPACK's Hermitian routine (``numpy.linalg.eigh``) with input
validation; eigenvectors keep the arbitrary phase LAPACK gives them.

With `qetsim.protocol` this is the 4x4 reference path, which no command
runs: the tests use it as the oracle of the closed forms and of the model
report's plain-math numeric side (`qetsim.report`).  It needs numpy, which
the `test` extra installs; qetsim itself has no runtime dependency.  Both
modules stay in `src/` only until perfbench's tracing `TARGETS`, which
bind their names, move off them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, ValidationError, require_real

__all__ = [
    "TOL",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "ID2",
    "ID4",
    "require_finite",
    "kron",
    "hermitian_eig",
    "evolve_operator",
    "expectation",
    "su2",
]


# Structural tolerance: hermiticity, axis norms, imaginary residues, probabilities.
TOL = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


SIGMA_X = _frozen(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Y = _frozen(np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_Z = _frozen(np.array([[1, 0], [0, -1]], dtype=complex))
ID2 = _frozen(np.eye(2, dtype=complex))
ID4 = _frozen(np.eye(4, dtype=complex))


def require_finite(values, what: str) -> np.ndarray:
    """Convert to a complex array, rejecting NaN/Inf entries."""
    a = np.asarray(values, dtype=complex)
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValidationError(f"{what}: non-finite entries are not admitted")
    return a


def _require_square(a: np.ndarray, what: str, dims=(2, 4)) -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{what}: expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n not in dims:
        raise ValidationError(f"{what}: dimension {n} not in {dims}")
    return n


def kron(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 matrices, site-A factor on the left.

    Consistent with the |s_A s_B> basis ordering index = 2*a + b.
    """
    a = require_finite(a, "kron left factor")
    b = require_finite(b, "kron right factor")
    _require_square(a, "kron left factor", dims=(2,))
    _require_square(b, "kron right factor", dims=(2,))
    return np.kron(a, b)


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a Hermitian matrix of dimension 2 or 4.

    LAPACK's Hermitian eigensolver via ``numpy.linalg.eigh``, applied to the
    exactly symmetrised input, and its pair (eigenvalues, eigenvectors),
    both read-only: the eigenvalues (n,) ascend, and column i of the
    eigenvectors (n, n) pairs eigenvalues[i].  The columns are
    orthonormal, each with the arbitrary phase LAPACK returns: compare
    them through |<a|b>|^2 or projectors, not entry by entry.

    Raises ValidationError for non-finite, misshapen or non-Hermitian input
    and NumericError if LAPACK reports that it did not converge.
    """
    m = require_finite(m, "eigensolver input")
    _require_square(m, "eigensolver input")
    if float(np.max(np.abs(m - m.conj().T))) > TOL:
        raise ValidationError("eigensolver input is not Hermitian within 1e-12")

    try:
        w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Hermitian eigensolver failed: {exc}") from exc
    return _frozen(w), _frozen(v)


def evolve_operator(h_tot, t: float) -> np.ndarray:
    """Unitary exp(-i*H*t) built from the eigendecomposition of Hermitian H;
    ValidationError unless every phase max|eigenvalue|*t is finite."""
    t = require_real(t, "evolution time")
    w, v = hermitian_eig(h_tot)
    if not math.isfinite(float(np.max(np.abs(w))) * t):
        raise ValidationError("evolution time must keep max|eigenvalue|*t finite")
    phases = np.exp(-1j * w * t)
    return (v * phases) @ v.conj().T


def expectation(state, op) -> float | np.ndarray:
    """Real expectation value <psi|op|psi> of a Hermitian operator.

    Broadcasts over leading axes: states of shape (..., n) against an
    operator (n, n) or a stack (..., n, n) give an array of values; one
    state and one operator give a float.  Each value must be finite with an
    imaginary residue below the structural tolerance (scaled by the
    operator magnitude), which is then discarded; otherwise NumericError
    (a non-Hermitian operator, or an overflow).
    """
    psi = require_finite(state, "state vector")
    a = require_finite(op, "expectation operator")
    n = psi.shape[-1] if psi.ndim else 0
    if n not in (2, 4) or a.ndim < 2 or a.shape[-2:] != (n, n):
        raise ValidationError(
            f"state/operator dimension mismatch: {psi.shape} vs {a.shape}"
        )
    with np.errstate(all="ignore"):  # an overflow is reported below
        values = (psi.conj()[..., None, :] @ (a @ psi[..., None]))[..., 0, 0]
    tol = TOL * max(1.0, float(np.max(np.abs(a))))
    bad = ~np.isfinite(values) | (np.abs(values.imag) > tol)
    if np.any(bad):
        first = complex(values[bad][0])
        raise NumericError(
            f"expectation {first:.3e} is not finite and real "
            "(operator not Hermitian?)"
        )
    return values.real if values.ndim else float(values.real)


def su2(theta: float, axis) -> np.ndarray:
    """SU(2) element cos(theta)*I + i*sin(theta)*(axis . sigma).

    ``axis`` must be a real unit 3-vector (within 1e-12).
    """
    theta = require_real(theta, "su2 angle")
    try:
        ax = np.asarray(axis, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"su2 axis must be a real 3-vector: {exc}") from exc
    if ax.shape != (3,) or not np.all(np.isfinite(ax)):
        raise ValidationError("su2 axis must be a finite real 3-vector")
    if abs(float(np.linalg.norm(ax)) - 1.0) > TOL:
        raise ValidationError("su2 axis must have unit norm within 1e-12")
    n_dot_sigma = ax[0] * SIGMA_X + ax[1] * SIGMA_Y + ax[2] * SIGMA_Z
    return math.cos(theta) * ID2 + 1j * math.sin(theta) * n_dot_sigma
