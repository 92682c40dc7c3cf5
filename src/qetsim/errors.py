"""Exception taxonomy shared by all qetsim modules, and the one scalar check.

Exit-code mapping used by the CLI: ValidationError -> 2, NumericError -> 3.
"""

import math


class QetError(Exception):
    """Base class for all qetsim errors."""


class ValidationError(QetError):
    """Rejected input: bad dimensions, non-finite values, parameter ranges."""


class NumericError(QetError):
    """Numeric failure: a failed eigensolver, lost hermiticity, an overflow,
    a degenerate measurement branch or a cross-check above tolerance."""


class ProtocolError(ValidationError):
    """Wire-protocol failure: handshake mismatch or malformed frame."""


def require_real(value, what: str, *, gt=None, ge=None, le=None) -> float:
    """`value` as a float if it is a finite real, > gt, >= ge and <= le.

    This is the one rule for a real number.  Anything `math.isfinite` takes
    counts as its float (a Decimal, a Fraction, a bool, a big int, a numpy
    real scalar); a str, None, a complex (numpy's too), an array (0-d too)
    or an int past the float range fails like NaN.
    """
    if type(value) is not float and type(value) is not int:
        from collections.abc import Iterable  # here: the CLI sends floats
        from numbers import Complex, Real

        if not isinstance(value, Real) and isinstance(value, (Complex, Iterable)):
            value = math.nan
    try:
        x = float(value) if math.isfinite(value) else math.nan
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if (math.isfinite(x) and (gt is None or x > gt) and (ge is None or x >= ge)
            and (le is None or x <= le)):
        return x
    bound = "" if gt is None else f" and > {float(gt):g}"
    bound += "" if ge is None else f" and >= {float(ge):g}"
    bound += "" if le is None else f" and <= {float(le):g}"
    raise ValidationError(f"{what} must be finite{bound}")
