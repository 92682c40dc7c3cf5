"""Exception taxonomy shared by all qetsim modules, and the one scalar check.

Exit-code mapping used by the CLI: ValidationError -> 2, NumericError -> 3.
"""

import math


class QetError(Exception):
    """Base class for all qetsim errors."""


class ValidationError(QetError):
    """Rejected input: bad dimensions, non-finite values, parameter ranges."""


class NumericError(QetError):
    """Numeric failure: non-convergence, lost hermiticity, exhausted budgets.

    May carry the best value found so far in ``best``.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class ProtocolError(ValidationError):
    """Wire-protocol failure: handshake mismatch or malformed frame."""


def require_real(value, what: str, *, gt=None, ge=None) -> float:
    """`value` as a float if it is a finite real, > gt and >= ge.

    Anything `math.isfinite` takes counts (a Decimal, a Fraction, a big int);
    a str, None, a complex or an int past the float range fails like NaN.
    """
    try:
        x = float(value) if math.isfinite(value) else math.nan
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if math.isfinite(x) and (gt is None or x > gt) and (ge is None or x >= ge):
        return x
    bound = "" if gt is None else f" and > {float(gt):g}"
    bound += "" if ge is None else f" and >= {float(ge):g}"
    raise ValidationError(f"{what} must be finite{bound}")
