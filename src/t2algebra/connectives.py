"""Binary connectives on the unit interval: t-norms, t-conorms, and friends.

Every built-in evaluates exactly on rational inputs (they are all closed
over the rationals), so they can feed the exact convolution machinery
without introducing rounding. Axiom checking is finite-sample: passing a
check over a rational sample is necessary, never sufficient, for the
universally quantified axiom -- the role here is falsification of concrete
instances, not proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Callable

from .errors import DomainError, ValidationError
from .rationals import ONE, ZERO, to_unit
from .report import AxiomReport, falsify

T_NORM = "t-norm"
T_CONORM = "t-conorm"
UNCONSTRAINED = "unconstrained"


@dataclass(frozen=True)
class ScalarConnective:
    name: str
    fn: Callable[[Fraction, Fraction], Fraction]
    profile: str = UNCONSTRAINED

    def __call__(self, x, y) -> Fraction:
        result = self.fn(to_unit(x), to_unit(y))
        if not ZERO <= result <= ONE:
            raise DomainError(f"{self.name}({x}, {y}) = {result} escapes [0, 1]")
        return result


def _drastic(x: Fraction, y: Fraction) -> Fraction:
    if y == ONE:
        return x
    if x == ONE:
        return y
    return ZERO


def _drastic_conorm(x: Fraction, y: Fraction) -> Fraction:
    if y == ZERO:
        return x
    if x == ZERO:
        return y
    return ONE


MINIMUM = ScalarConnective("min", lambda x, y: min(x, y), T_NORM)
PRODUCT = ScalarConnective("product", lambda x, y: x * y, T_NORM)
LUKASIEWICZ = ScalarConnective("lukasiewicz", lambda x, y: max(x + y - 1, ZERO), T_NORM)
DRASTIC = ScalarConnective("drastic", _drastic, T_NORM)
MAXIMUM = ScalarConnective("max", lambda x, y: max(x, y), T_CONORM)
PROBABILISTIC_SUM = ScalarConnective(
    "probabilistic-sum", lambda x, y: x + y - x * y, T_CONORM
)
BOUNDED_SUM = ScalarConnective("bounded-sum", lambda x, y: min(x + y, ONE), T_CONORM)
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
    if op.profile == T_NORM:
        profile = T_CONORM
    elif op.profile == T_CONORM:
        profile = T_NORM
    else:
        profile = UNCONSTRAINED
    return ScalarConnective(
        f"dual({op.name})", lambda x, y: ONE - op.fn(ONE - x, ONE - y), profile
    )


def _scalar_witness(**values) -> dict:
    return {k: str(v) for k, v in values.items()}


def check_connective_axioms(
    op: ScalarConnective, sample: tuple | list
) -> list[AxiomReport]:
    """Exhaustive commutativity/associativity/monotonicity/neutrality check.

    ``sample`` must contain 0 and 1. The first violating tuple per axiom is
    reported (tuples enumerated in sorted-lexicographic order). Monotonicity
    counts only the triples with x <= y as trials.
    """
    pts = sorted(to_unit(x) for x in sample)
    if not pts or ZERO not in pts or ONE not in pts:
        raise DomainError("sample must be nonempty and contain 0 and 1")
    neutral = ZERO if op.profile == T_CONORM else ONE
    return [
        falsify(
            "T1",
            iter_product(pts, repeat=2),
            lambda x, y: op(x, y) == op(y, x),
            lambda x, y: _scalar_witness(x=x, y=y, lhs=op(x, y), rhs=op(y, x)),
        ),
        falsify(
            "T2",
            iter_product(pts, repeat=3),
            lambda x, y, z: op(op(x, y), z) == op(x, op(y, z)),
            lambda x, y, z: _scalar_witness(
                x=x, y=y, z=z, lhs=op(op(x, y), z), rhs=op(x, op(y, z))
            ),
        ),
        falsify(
            "T3",
            ((x, y, z) for x, y, z in iter_product(pts, repeat=3) if x <= y),
            lambda x, y, z: op(x, z) <= op(y, z) and op(z, x) <= op(z, y),
            lambda x, y, z: _scalar_witness(x=x, y=y, z=z, lhs=op(x, z), rhs=op(y, z)),
        ),
        falsify(
            "T4'" if op.profile == T_CONORM else "T4",
            ((x,) for x in pts),
            lambda x: op(neutral, x) == x and op(x, neutral) == x,
            lambda x: _scalar_witness(x=x, lhs=op(neutral, x), rhs=x),
        ),
    ]


def check_boundary_characterization(
    op: ScalarConnective, sample: tuple | list
) -> AxiomReport:
    """The extremal-value characterization forced on t-norms and t-conorms.

    For a t-norm, x*y = 1 exactly at (1,1); for a t-conorm, x*y = 0 exactly
    at (0,0). Checked over sample x sample.
    """
    if op.profile not in (T_NORM, T_CONORM):
        raise DomainError("profile must be t-norm or t-conorm")
    pts = sorted(to_unit(x) for x in sample)
    extreme = ONE if op.profile == T_NORM else ZERO
    return falsify(
        "boundary",
        iter_product(pts, repeat=2),
        lambda x, y: (op(x, y) == extreme) == (x == extreme and y == extreme),
        lambda x, y: _scalar_witness(x=x, y=y, value=op(x, y)),
    )
