"""Fixture-stable numeric formatting: 12 significant digits everywhere."""

from __future__ import annotations


def fmt(x: float) -> str:
    """Format a float at 12 significant digits (machine-output convention);
    x + 0.0 turns -0.0 into 0.0 and leaves every other float as it is."""
    return format(x + 0.0, ".12g")


def fnum(x: float) -> float:
    """Round a float to 12 significant digits (for JSON payloads)."""
    return float(fmt(x))
