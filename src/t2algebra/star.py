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
(f op* g) = neg((neg f) op (neg g)), as ``dualize`` computes it. The
co-product is the threshold product's dual, built directly as its mirror
image from the inputs' own memoised envelopes and thresholds, with no
reflection; ``dualize(STAR)`` is its reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import DomainError, ValidationError
from .lattice import BOTTOM, TOP, join as lattice_join, meet as lattice_meet
from .piecewise import (
    Affine,
    PiecewiseFn,
    _build_canonical,
    _combine_parts,
    _left_end,
    _lt,
    _max,
    _min,
    _right_end,
    _same,
    canonicalize,
    envelope_left,
    envelope_right,
    equals,
    in_lattice,
    reflect,
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


def _plateau(f: PiecewiseFn, g: PiecewiseFn, rightward: bool = True):
    """(cut, end, tail value) of the product, walking from 0 (rightward), or
    of its dual, walking from 1: 1 from cut up to end, the tail value at end.
    For the product, cut is eta and end is xi."""
    first = _min if rightward else _max
    near, far = (_left_end, _right_end) if rightward else (_right_end, _left_end)
    t_f, v_f = far(f)
    t_g, v_g = far(g)
    end = first(t_f, t_g)
    # The tail value is the meet of the far envelopes at end. The threshold
    # scan keeps each one's value at its own threshold; one whose threshold
    # lies beyond end is 1 at end, as it is 1 short of its threshold.
    tail_value = _min(v_f if _same(t_f, end) else ONE, v_g if _same(t_g, end) else ONE)
    return first(near(f)[0], near(g)[0]), end, tail_value


def _splice(head, cut, end, tail_value, rightward: bool = True) -> PiecewiseFn:
    """Walking from 0 (rightward) or from 1: the function that follows head
    up to cut, is 1 from cut up to end, takes tail_value at end and is 0
    beyond it. head is a (breakpoints, values, pieces) triple of lists, or ()
    when the walk starts at cut."""
    step = 1 if rightward else -1
    before = _lt if rightward else lambda p, q: _lt(q, p)  # on the walk
    breaks: list[Fraction] = []
    values: list[Fraction] = []
    pieces: list[Affine] = []
    # each breakpoint of head with the piece beyond it on the walk
    for b, v, p in zip(*(part[::step] for part in head)):
        if not before(b, cut):
            break
        breaks.append(b)
        values.append(v)
        pieces.append(p)
    if before(cut, end):
        breaks.append(cut)
        values.append(ONE)
        pieces.append((ZERO, ONE))
    breaks.append(end)
    values.append(tail_value)
    far = ONE if rightward else ZERO
    if before(end, far):
        pieces.append((ZERO, ZERO))
        breaks.append(far)
        values.append(ZERO)
    # canonicalize's memo hands back the first object built for each value,
    # so callers that keep many products hold each distinct one only once
    return canonicalize(_build_canonical(breaks[::step], values[::step], pieces[::step]))


def star(f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
    """Threshold product of two normal convex functions."""
    _require_lattice("star", f, g)
    return _product(f, g)


def costar(f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
    """Dual of the threshold product, built directly from the inputs' own
    envelopes and thresholds; ``dualize(STAR)`` is its reference."""
    _require_lattice("costar", f, g)
    return _product(f, g, rightward=False)


def _product(f: PiecewiseFn, g: PiecewiseFn, rightward: bool = True) -> PiecewiseFn:
    """star (rightward) or costar without the input check: f and g must be
    normal and convex."""
    neutral = TOP if rightward else BOTTOM
    if equals(f, neutral):
        return canonicalize(g)
    if equals(g, neutral):
        return canonicalize(f)
    cut, end, tail_value = _plateau(f, g, rightward)
    # the join of the near envelopes is only consulted short of cut
    envelope = envelope_left if rightward else envelope_right
    head = ()
    if not _same(cut, ZERO if rightward else ONE):
        head = _combine_parts(envelope(f), envelope(g), take_min=False)
    return _splice(head, cut, end, tail_value, rightward)


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
    eta, xi, tail_value = _plateau(f, g)
    left = _splice(_combine_parts(envelope_left(f), envelope_left(g), False), eta, ONE, ONE)
    right = _splice((), ZERO, xi, tail_value)
    return left, right


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
