"""Binary connectives on the unit interval: t-norms, t-conorms, and friends.

Every built-in evaluates exactly on rational inputs (they are all closed
over the rationals), so they can feed the exact convolution machinery
without introducing rounding. Their functions take ``Fraction`` arguments
and compare them in integer slots (``piecewise._min``/``_max``/``_same``),
not through ``Fraction``'s rich comparisons; min and max return the operand
``builtins.min``/``max`` would.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import DomainError, ValidationError
from .piecewise import _max, _min, _same
from .rationals import ONE, ZERO, _in_unit, to_rational, to_unit

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

