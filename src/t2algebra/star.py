"""The threshold product on normal convex functions, and its dual.

Away from the neutral element (the unit spike at 1), the product of f and g
is assembled from four regions governed by two thresholds: eta, where the
pointwise join of the left envelopes first reaches 1, and xi, where the
right envelopes stop being 1. The output follows the envelope join below
eta, sits at 1 on [eta, xi), takes the meet of the right envelopes at xi,
and vanishes beyond. The resulting operation is commutative, associative,
neutral at the unit spike, monotone, and closed on singleton and interval
indicators -- yet provably not expressible as any sup-convolution, which is
the whole point of building it.

The dual of any closed binary operation conjugates by reflection:
(f op* g) = neg((neg f) op (neg g)). Dualizing the threshold product gives
the co-product directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import DomainError, ValidationError
from .lattice import TOP, join as lattice_join, meet as lattice_meet
from .piecewise import (
    Affine,
    PiecewiseFn,
    _build_canonical,
    _combine_parts,
    _lt,
    _min,
    canonicalize,
    envelope_left,
    envelope_right,
    equals,
    evaluate,
    in_lattice,
    reflect,
    thresholds,
)
from .rationals import ONE, ZERO


@dataclass(frozen=True)
class TruthValueOp:
    """A named binary operation on normal convex functions."""

    name: str
    fn: Callable[[PiecewiseFn, PiecewiseFn], PiecewiseFn]

    def __call__(self, f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
        return self.fn(f, g)


def _require_lattice(what: str, *fns: PiecewiseFn) -> None:
    if not all(in_lattice(f) for f in fns):
        raise DomainError(f"{what} requires normal convex inputs")


def _envelope_join(f: PiecewiseFn, g: PiecewiseFn):
    # the parts of max(fL, gL); _splice canonicalizes what it keeps of them
    return _combine_parts(envelope_left(f), envelope_left(g), take_min=False)


def _splice(head, eta: Fraction, xi: Fraction, tail_value: Fraction) -> PiecewiseFn:
    """The function that follows head on [0, eta), is 1 on [eta, xi), takes
    tail_value at xi and is 0 on (xi, 1]. head is a (breakpoints, values,
    pieces) triple, and may be None when eta is 0."""
    breaks: list[Fraction] = []
    values: list[Fraction] = []
    pieces: list[Affine] = []
    if head is not None:
        for b, v, p in zip(*head):
            if not _lt(b, eta):
                break
            breaks.append(b)
            values.append(v)
            pieces.append(p)
    if _lt(eta, xi):
        breaks.append(eta)
        values.append(ONE)
        pieces.append((ZERO, ONE))
    breaks.append(xi)
    values.append(tail_value)
    if _lt(xi, ONE):
        pieces.append((ZERO, ZERO))
        breaks.append(ONE)
        values.append(ZERO)
    # canonicalize's memo hands back the first object built for each value,
    # so callers that keep many products hold each distinct one only once
    return canonicalize(_build_canonical(breaks, values, pieces))


def star(f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
    """Threshold product of two normal convex functions."""
    _require_lattice("star", f, g)
    return _product(f, g)


def _product(f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
    """star without its input check: f and g must be normal and convex."""
    if equals(f, TOP):
        return canonicalize(g)
    if equals(g, TOP):
        return canonicalize(f)
    t = thresholds(f, g)
    # the envelope join is only consulted below eta
    head = _envelope_join(f, g) if _lt(ZERO, t.eta) else None
    return _splice(head, t.eta, t.xi, _tail_value(f, g, t.xi))


def _tail_value(f: PiecewiseFn, g: PiecewiseFn, xi: Fraction) -> Fraction:
    # the product's value at xi: the meet of the right envelopes there
    return _min(evaluate(envelope_right(f), xi), evaluate(envelope_right(g), xi))


def star_envelopes(
    f: PiecewiseFn, g: PiecewiseFn
) -> tuple[PiecewiseFn, PiecewiseFn]:
    """Closed-form left and right envelopes of the threshold product.

    Defined away from the neutral element only. Must agree exactly with
    re-running the envelope operators on the product itself.
    """
    _require_lattice("star_envelopes", f, g)
    if equals(f, TOP) or equals(g, TOP):
        raise DomainError("closed-form envelopes exclude the unit spike at 1")
    t = thresholds(f, g)
    left = _splice(_envelope_join(f, g), t.eta, ONE, ONE)
    right = _splice(None, ZERO, t.xi, _tail_value(f, g, t.xi))
    return left, right


def costar(f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
    """Dual of the threshold product: reflect inputs, multiply, reflect back."""
    _require_lattice("costar", f, g)
    # reflection keeps f and g normal and convex: no second check is needed
    return reflect(_product(reflect(f), reflect(g)))


def dualize(op: TruthValueOp) -> TruthValueOp:
    """Conjugate a closed binary operation by complementation. Involutive."""
    return TruthValueOp(
        f"dual({op.name})", lambda f, g: reflect(op(reflect(f), reflect(g)))
    )


STAR = TruthValueOp("star", star)
COSTAR = TruthValueOp("costar", costar)
MEET = TruthValueOp("meet", lattice_meet)
JOIN = TruthValueOp("join", lattice_join)

# conv-* names resolve to exact operations only where the convolution stays
# inside the piecewise-affine class: inner connective min with combiner
# min/max is precisely the lattice meet/join.
_EXACT_OPS = {
    "star": STAR,
    "costar": COSTAR,
    "meet": MEET,
    "join": JOIN,
    "conv-meet:min:min": MEET,
    "conv-join:max:min": JOIN,
}


def resolve_operation(name: str) -> TruthValueOp:
    """Look up an exactly-computable operation by its CLI name."""
    try:
        return _EXACT_OPS[name]
    except KeyError:
        raise ValidationError(
            f"no exact operation named {name!r}; exact names: "
            + ", ".join(sorted(_EXACT_OPS))
        ) from None
