"""Exact rational scalars on the unit interval.

All arithmetic in this package runs on ``fractions.Fraction``. Floats are
rejected at every boundary: float literals such as ``0.8`` are binary
approximations of the intended rational, and silently admitting them would
poison the exact-equality guarantees everything else relies on. Decimal
strings ("0.8") and ratio strings ("4/5") parse exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError

ZERO = Fraction(0)
ONE = Fraction(1)

# CPython's default limit on the digits of an int converted to or from str
_MAX_DIGITS = 4300


def _digit_bound(text: str) -> int:
    """Bounds the digits of the numerator and denominator Fraction(text) builds."""
    mantissa, _, exponent = text.lower().partition("e")
    try:
        return len(mantissa) + abs(int(exponent or 0))
    except ValueError:  # a malformed exponent, which Fraction rejects
        return len(mantissa)


def to_rational(value) -> Fraction:
    """Coerce an int, Fraction, or string to an exact Fraction."""
    if isinstance(value, float):
        raise ValidationError(
            f"float {value!r} rejected: pass a string like '4/5' or a Fraction"
        )
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str) and _digit_bound(value) >= _MAX_DIGITS:
        raise ValidationError(f"rational too large: {_MAX_DIGITS} digits or more")
    if isinstance(value, (int, str)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"not a rational number: {value!r}") from exc
    raise ValidationError(f"cannot interpret {type(value).__name__} as a rational")


def to_unit(value) -> Fraction:
    """Coerce to an exact rational and require it to lie in [0, 1]."""
    q = to_rational(value)
    if not ZERO <= q <= ONE:
        raise ValidationError(f"{q} lies outside [0, 1]")
    return q


def format_rational(q: Fraction, decimal: bool = False) -> str:
    """Render a rational, exactly by default or as 15 significant digits."""
    if decimal:
        return f"{float(q):.15g}"
    return str(q)
