"""Dense complex linear algebra for the 2- and 4-dimensional operator spaces.

Everything here is a pure function of its inputs; returned arrays are marked
read-only so values can be shared freely between sweep workers.  The
eigensolver wraps LAPACK's Hermitian routine (``numpy.linalg.eigh``) with input
validation and a canonical eigenvector phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError

__all__ = [
    "TOL",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "ID2",
    "ID4",
    "Spectrum",
    "kron",
    "hermitian_eig",
    "evolve_operator",
    "expectation",
    "su2",
]


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances used across the package, fixed in one place.

    structural: hermiticity, unitarity, norms, phase canonicalisation.
    """

    structural: float = 1e-12


TOL = Tolerances()


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


def _hermiticity_defect(a: np.ndarray) -> float:
    return float(np.max(np.abs(a - a.conj().T)))


def kron(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 matrices, site-A factor on the left.

    Consistent with the |s_A s_B> basis ordering index = 2*a + b.
    """
    a = require_finite(a, "kron left factor")
    b = require_finite(b, "kron right factor")
    _require_square(a, "kron left factor", dims=(2,))
    _require_square(b, "kron right factor", dims=(2,))
    return np.kron(a, b)


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition: ascending real eigenvalues, orthonormal columns."""

    eigenvalues: np.ndarray  # shape (n,), float, ascending
    eigenvectors: np.ndarray  # shape (n, n), complex; column i pairs eigenvalues[i]

    @property
    def ground_vector(self) -> np.ndarray:
        return self.eigenvectors[:, 0]

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude component is real-positive."""
    out = v.copy()
    for i in range(out.shape[1]):
        col = out[:, i]
        j = int(np.argmax(np.abs(col)))
        z = col[j]
        if abs(z) > 0.0:
            out[:, i] = col * (np.conj(z) / abs(z))
    return out


def hermitian_eig(m) -> Spectrum:
    """Eigendecompose a Hermitian matrix of dimension 2 or 4.

    LAPACK's Hermitian eigensolver via ``numpy.linalg.eigh``, applied to the
    exactly symmetrised input.  Eigenvalues ascend; eigenvectors are
    orthonormal, and each is phase-canonicalised (largest-magnitude
    component real-positive).

    Raises ValidationError for non-finite, misshapen or non-Hermitian input
    and NumericError if LAPACK reports that it did not converge.
    """
    m = require_finite(m, "eigensolver input")
    _require_square(m, "eigensolver input")
    if _hermiticity_defect(m) > TOL.structural:
        raise ValidationError("eigensolver input is not Hermitian within 1e-12")

    try:
        w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Hermitian eigensolver failed: {exc}") from exc
    return Spectrum(eigenvalues=_frozen(w), eigenvectors=_frozen(_canonical_phase(v)))


def evolve_operator(h_tot, t: float) -> np.ndarray:
    """Unitary exp(-i*H*t) built from the eigendecomposition of Hermitian H."""
    if not math.isfinite(t):
        raise ValidationError("evolution time must be finite")
    spec = hermitian_eig(h_tot)
    phases = np.exp(-1j * spec.eigenvalues * t)
    v = spec.eigenvectors
    return (v * phases) @ v.conj().T


def expectation(state, op) -> float:
    """Real expectation value <psi|op|psi> of a Hermitian operator.

    The imaginary residue is asserted below the structural tolerance
    (scaled by the operator magnitude) and discarded; a larger residue
    signals a non-Hermitian operator and raises NumericError.
    """
    psi = require_finite(state, "state vector")
    a = require_finite(op, "expectation operator")
    n = _require_square(a, "expectation operator")
    if psi.shape != (n,):
        raise ValidationError(
            f"state/operator dimension mismatch: {psi.shape} vs {a.shape}"
        )
    value = complex(np.vdot(psi, a @ psi))
    tol = TOL.structural * max(1.0, float(np.max(np.abs(a))))
    if abs(value.imag) > tol:
        raise NumericError(
            f"expectation has imaginary residue {value.imag:.3e} "
            "(operator not Hermitian?)",
            best=value.real,
        )
    return value.real


def su2(theta: float, axis) -> np.ndarray:
    """SU(2) element cos(theta)*I + i*sin(theta)*(axis . sigma).

    ``axis`` must be a real unit 3-vector (within 1e-12).
    """
    if not math.isfinite(theta):
        raise ValidationError("su2 angle must be finite")
    try:
        ax = np.asarray(axis, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"su2 axis must be a real 3-vector: {exc}") from exc
    if ax.shape != (3,) or not np.all(np.isfinite(ax)):
        raise ValidationError("su2 axis must be a finite real 3-vector")
    if abs(float(np.linalg.norm(ax)) - 1.0) > TOL.structural:
        raise ValidationError("su2 axis must have unit norm within 1e-12")
    n_dot_sigma = ax[0] * SIGMA_X + ax[1] * SIGMA_Y + ax[2] * SIGMA_Z
    return math.cos(theta) * ID2 + 1j * math.sin(theta) * n_dot_sigma
