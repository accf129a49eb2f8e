"""Binary connectives on the unit interval: t-norms, t-conorms, and friends.

Every built-in evaluates exactly on rational inputs (they are all closed
over the rationals), so they can feed the exact convolution machinery
without introducing rounding. Their functions take ``Fraction`` arguments
and compare them in integer slots (``rationals._min``/``_max``/``_same``),
not through ``Fraction``'s rich comparisons; min and max return the operand
``builtins.min``/``max`` would.

Each built-in also declares the integer forms that the grid oracle
(``convolution``) uses in place of its function. A form is valid only for a
connective nondecreasing in each argument (T3), as tests check each one is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import DomainError, ValidationError
from .rationals import ONE, ZERO, _in_unit, _max, _min, _same, to_rational, to_unit

T_NORM = "t-norm"
T_CONORM = "t-conorm"
UNCONSTRAINED = "unconstrained"


@dataclass(frozen=True)
class ScalarConnective:
    name: str
    fn: Callable[[Fraction, Fraction], Fraction]
    profile: str = UNCONSTRAINED

    def __call__(self, x, y) -> Fraction:
        value = self.fn(to_unit(x), to_unit(y))
        try:
            result = to_rational(value)
        except ValidationError as exc:
            raise ValidationError(f"{self.name}({x}, {y}) = {value}: {exc}") from exc
        if not _in_unit(result):
            raise DomainError(f"{self.name}({x}, {y}) = {result} escapes [0, 1]")
        return result


def _drastic(x: Fraction, y: Fraction) -> Fraction:
    if _same(y, ONE):
        return x
    if _same(x, ONE):
        return y
    return ZERO


def _drastic_conorm(x: Fraction, y: Fraction) -> Fraction:
    if _same(y, ZERO):
        return x
    if _same(x, ZERO):
        return y
    return ONE


MINIMUM = ScalarConnective("min", _min, T_NORM)
PRODUCT = ScalarConnective("product", lambda x, y: x * y, T_NORM)
LUKASIEWICZ = ScalarConnective(
    "lukasiewicz", lambda x, y: _max(x + y - ONE, ZERO), T_NORM
)
DRASTIC = ScalarConnective("drastic", _drastic, T_NORM)
MAXIMUM = ScalarConnective("max", _max, T_CONORM)
PROBABILISTIC_SUM = ScalarConnective(
    "probabilistic-sum", lambda x, y: x + y - x * y, T_CONORM
)
BOUNDED_SUM = ScalarConnective("bounded-sum", lambda x, y: _min(x + y, ONE), T_CONORM)
DRASTIC_CONORM = ScalarConnective("drastic-conorm", _drastic_conorm, T_CONORM)

# not a t-norm; kept around as the standard counterexample input
PROJECTION = ScalarConnective("projection", lambda x, y: x, UNCONSTRAINED)

# the integer forms of the library's own t-norms and t-conorms, keyed by
# identity, so that a user-built connective, even one wrapping a builtin's
# function, takes the reference path: row i of the values at (i/n, j/n),
# j = 0..n, as numerators over one denominator, nondecreasing in j (T3) ...
_ROW_FORMS = {
    id(MINIMUM): lambda i, n: ([min(i, j) for j in range(n + 1)], n),
    id(PRODUCT): lambda i, n: ([i * j for j in range(n + 1)], n * n),
    id(LUKASIEWICZ): lambda i, n: ([0] * (n - i) + list(range(i + 1)), n),
    id(DRASTIC): lambda i, n: ([0] * n + [i] if i < n else list(range(n + 1)), n),
    id(MAXIMUM): lambda i, n: ([max(i, j) for j in range(n + 1)], n),
    id(PROBABILISTIC_SUM): lambda i, n: ([n * i + (n - i) * j for j in range(n + 1)], n * n),
    id(BOUNDED_SUM): lambda i, n: (list(range(i, n)) + [n] * (i + 1), n),
    id(DRASTIC_CONORM): lambda i, n: ([i] + [n] * n if i else list(range(n + 1)), n),
}

# ... and x * y for x = a/b and y = c/d (b, d > 0) as an unreduced ratio, also
# for the projection (no row form: a combiner is a t-norm or a t-conorm)
_SLOT_FORMS = {
    id(MINIMUM): lambda a, b, c, d: (a, b) if a * d <= c * b else (c, d),
    id(PRODUCT): lambda a, b, c, d: (a * c, b * d),
    id(LUKASIEWICZ): lambda a, b, c, d: (max(a * d + c * b - b * d, 0), b * d),
    id(DRASTIC): lambda a, b, c, d: (a, b) if c == d else (c, d) if a == b else (0, 1),
    id(MAXIMUM): lambda a, b, c, d: (a, b) if a * d >= c * b else (c, d),
    id(PROBABILISTIC_SUM): lambda a, b, c, d: (a * d + c * b - a * c, b * d),
    id(BOUNDED_SUM): lambda a, b, c, d: (min(a * d + c * b, b * d), b * d),
    id(DRASTIC_CONORM): lambda a, b, c, d: (a, b) if not c else (c, d) if not a else (1, 1),
    id(PROJECTION): lambda a, b, c, d: (a, b),
}

_REGISTRY = {
    c.name: c
    for c in (
        MINIMUM,
        PRODUCT,
        LUKASIEWICZ,
        DRASTIC,
        MAXIMUM,
        PROBABILISTIC_SUM,
        BOUNDED_SUM,
        DRASTIC_CONORM,
        PROJECTION,
    )
}


def builtin_connectives() -> tuple[ScalarConnective, ...]:
    return tuple(c for c in _REGISTRY.values() if c.profile != UNCONSTRAINED)


def connective_by_name(name: str) -> ScalarConnective:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValidationError(f"unknown connective {name!r}") from None


def dual_connective(op: ScalarConnective) -> ScalarConnective:
    """De Morgan dual: x ▽ y = 1 - ((1-x) △ (1-y)). Involutive on evaluations."""
    profile = {T_NORM: T_CONORM, T_CONORM: T_NORM}.get(op.profile, UNCONSTRAINED)
    return ScalarConnective(
        f"dual({op.name})", lambda x, y: ONE - op.fn(ONE - x, ONE - y), profile
    )

