"""Exact rational scalars on the unit interval.

All arithmetic in this package runs on ``fractions.Fraction``. Floats are
rejected at every boundary: float literals such as ``0.8`` are binary
approximations of the intended rational, and silently admitting them would
poison the exact-equality guarantees everything else relies on. Decimal
strings ("0.8") and ratio strings ("4/5") parse exactly. An integer or "p/q"
string of ASCII digits, as ``dumps`` writes, is read by ``int()`` first if it
is shorter than ``_MAX_DIGITS`` (its digit bound) with a nonzero denominator,
and memoised; any other value takes the type checks, the digit bound and
``Fraction(str)`` on every read. A string holding "_", or whitespace between
non-space characters, is refused before ``Fraction(str)``, so every
interpreter reads Python 3.10's grammar.

The slot comparisons ``_lt``, ``_same``, ``_min`` and ``_max`` cross-multiply
the integer slots ``_numerator`` and ``_denominator``, not ``Fraction``'s
rich comparisons, which dispatch through the ``numbers`` ABCs on every call:
a ``Fraction`` holds lowest terms over a positive denominator, so p < q
exactly when p.num * q.den < q.num * p.den, and p == q when both slots agree.
``_ratio``, the one integer slot builder, writes them without that dispatch, for
the kernel, the JSON reader, the grid oracle, the generators and ``eval``'s rows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import ValidationError

ZERO = Fraction(0)
ONE = Fraction(1)

# CPython's default limit on the digits of an int converted to or from str
_MAX_DIGITS = 4300
UNPRINTABLE = "result too long to print: a rational over the digit limit"

# Every memo's size: the least power of two at least twice one bench job's misses in
# _shape (1,742 at most) and _indicator (218). _ascii_ratio takes 39,285 hits and 17,639
# misses per fresh-pairs job; filled with 4,096 keys just under _MAX_DIGITS, it holds 25 MiB.
_CACHE = 4096


def _digit_bound(text: str) -> int:
    """Bounds the digits of the numerator and denominator Fraction(text) builds."""
    mantissa, _, exponent = text.lower().partition("e")
    try:
        return len(mantissa) + abs(int(exponent or 0))
    except ValueError:  # a malformed exponent, which Fraction rejects
        return len(mantissa)


def _ratio(n: int, d: int, reduced: bool = False) -> Fraction:
    """n/d for d > 0, in lowest terms: divided by their gcd unless reduced."""
    g = 1 if reduced else gcd(n, d)
    q = object.__new__(Fraction)  # its two slots, which a test pins, are set here
    q._numerator, q._denominator = n // g, d // g
    return q


@lru_cache(maxsize=_CACHE)
def _ascii_ratio(text: str) -> Fraction | None:
    """The value of an integer or "p/q" (q not 0) string of ASCII digits, else None."""
    num, slash, den = text.partition("/")
    digits = text.isascii() and num.removeprefix("-").isdigit()
    if digits and (den.isdigit() and den.strip("0") or not slash):
        return _ratio(int(num), int(den or 1))
    return None


def to_rational(value) -> Fraction:
    """Coerce an int, Fraction, or string to an exact Fraction."""
    if type(value) is str and len(value) < _MAX_DIGITS and (q := _ascii_ratio(value)) is not None:
        return q
    if isinstance(value, float):
        raise ValidationError(
            f"float {value!r} rejected: pass a string like '4/5' or a Fraction"
        )
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        if _digit_bound(value) >= _MAX_DIGITS:
            raise ValidationError(f"rational too large: {_MAX_DIGITS} digits or more")
        if "_" in value or len(value.split()) > 1:  # 3.11 reads "1_0", 3.12 "1 / 2"
            raise ValidationError(f"not a rational number: {value!r}")
    # bool is an int subclass, but JSON true/false are not numbers
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"not a rational number: {value!r}") from exc
    raise ValidationError(f"cannot interpret {type(value).__name__} as a rational")


def _lt(p: Fraction, q: Fraction) -> bool:
    return p._numerator * q._denominator < q._numerator * p._denominator


def _same(p: Fraction, q: Fraction) -> bool:
    return p._numerator == q._numerator and p._denominator == q._denominator


def _min(p: Fraction, q: Fraction) -> Fraction:
    return q if _lt(q, p) else p  # the first of equals, as builtins.min


def _max(p: Fraction, q: Fraction) -> Fraction:
    return q if _lt(p, q) else p  # the first of equals, as builtins.max


def _in_unit(q: Fraction) -> bool:
    return 0 <= q._numerator <= q._denominator  # lowest terms, positive denominator


def to_unit(value) -> Fraction:
    """Coerce to an exact rational and require it to lie in [0, 1]."""
    q = to_rational(value)
    if not _in_unit(q):
        raise ValidationError(f"{q} lies outside [0, 1]")
    return q


def format_rational(q: Fraction, decimal: bool = False) -> str:
    """Render a rational, exactly by default or as 15 significant digits."""
    if decimal:
        return f"{float(q):.15g}"
    try:
        return str(q)
    except ValueError:  # past CPython's int/str digit limit
        raise ValidationError(UNPRINTABLE) from None
