"""The threshold product on normal convex functions, and its dual.

Away from the neutral element (the unit spike at 1), the product of f and g
is assembled from four regions governed by two thresholds: eta, where the
pointwise join of the left envelopes first reaches 1, and xi, where the
right envelopes stop being 1. The output follows the envelope join below
eta, sits at 1 on [eta, xi), takes the meet of the right envelopes at xi,
and vanishes beyond. The resulting operation is commutative, associative,
neutral at the unit spike, monotone, and closed on singleton and interval
indicators (axioms O6, O7) -- yet provably not expressible as any sup-convolution,
which is the whole point of building it. It is the sealed ``piecewise._splice``,
as meet and join are: a head of one envelope-join pass that
stops at eta, the plateau, and a zero tail. Two interval indicators skip it:
the product of those of [a1, b1] and [a2, b2] is their meet, the indicator of
[a1 ^ a2, b1 ^ b2] (the co-product's is their join, of [a1 v a2, b1 v b2]),
from ``_indicator``'s memo by ``piecewise._interval_op``. O7 rests on that
form and its test against the splice.

The dual of any closed binary operation conjugates by reflection:
(f op* g) = neg((neg f) op (neg g)), as ``dualize`` computes it. The
co-product is the threshold product's dual, built directly as its mirror
image with no reflection: a zero head, and a tail of one right-envelope-join
pass from the greater right threshold on. ``dualize(STAR)`` is its
reference. Both products read the inputs' envelopes and threshold ends off
``piecewise._shape``, one lookup per input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, ValidationError
from .lattice import BOTTOM, TOP, join as lattice_join, meet as lattice_meet
from .piecewise import (
    _ZERO_PARTS,
    PiecewiseFn,
    _combine_parts,
    _cut,
    _interval_op,
    _shape,
    _splice,
    reflect,
)
from .rationals import ONE, _max, _min


@dataclass(frozen=True)
class TruthValueOp:
    """A named binary operation on normal convex functions."""

    name: str
    fn: Callable[[PiecewiseFn, PiecewiseFn], PiecewiseFn]

    def __call__(self, f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
        return self.fn(f, g)


def _lattice_shapes(what: str, f: PiecewiseFn, g: PiecewiseFn):
    """The ``_shape`` of f and of g, which must be normal and convex."""
    sf, sg = _shape(f), _shape(g)
    if not (sf.lattice and sg.lattice):
        raise DomainError(f"{what} requires normal convex inputs")
    return sf, sg


def star(f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
    """Threshold product of two normal convex functions."""
    sf, sg = _lattice_shapes("star", f, g)
    if sf.indicator and sg.indicator:  # two interval indicators, TOP among them: the closed form
        return _interval_op(_min, sf, sg)
    if f == TOP:
        return g
    if g == TOP:
        return f
    return _star_splice(sf, sg)


def _star_splice(sf, sg) -> PiecewiseFn:  # the general path: the closed form's reference
    eta = _min(sf.left_end[0], sg.left_end[0])
    head = _combine_parts(sf.left, sg.left, False, stop=eta)
    _, xi, tail_value = _cut(sf.right_end, sg.right_end, _min)
    return _splice(head, eta, ONE, xi, tail_value, _ZERO_PARTS)


def costar(f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
    """Dual of the threshold product, built directly from the inputs' own
    envelopes and thresholds; ``dualize(STAR)`` is its reference."""
    sf, sg = _lattice_shapes("costar", f, g)
    if sf.indicator and sg.indicator:
        return _interval_op(_max, sf, sg)
    if f == BOTTOM:
        return g
    if g == BOTTOM:
        return f
    return _costar_splice(sf, sg)


def _costar_splice(sf, sg) -> PiecewiseFn:  # as _star_splice
    xi = _max(sf.right_end[0], sg.right_end[0])
    tail = _combine_parts(sf.right, sg.right, False, start=xi)
    _, eta, at_eta = _cut(sf.left_end, sg.left_end, _max)
    return _splice(_ZERO_PARTS, eta, at_eta, xi, ONE, tail)


def star_envelopes(f: PiecewiseFn, g: PiecewiseFn) -> tuple[PiecewiseFn, PiecewiseFn]:
    """Left and right envelopes of the threshold product: products of envelopes.

    Defined away from the neutral element only. Must agree exactly with
    re-running the envelope operators on the product itself.
    """
    sf, sg = _lattice_shapes("star_envelopes", f, g)
    if f == TOP or g == TOP:
        raise DomainError("closed-form envelopes exclude the unit spike at 1")
    # fL's right threshold is 1, with tail value 1, and fR's left one is 0, so
    # these products keep the product's head to eta and its cut at xi; no
    # envelope is TOP short of f or g being TOP, so star takes no early return
    return star(sf.left, sg.left), star(sf.right, sg.right)


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
