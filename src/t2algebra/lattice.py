"""Meet, join, and the two induced partial orders on truth-value functions.

The defining forms are suprema over solution sets of min/max constraints.
Because min(y, z) = x forces one coordinate to equal x and the other to sit
above it (dually for max), the suprema collapse to closed forms in terms of
one-sided envelopes:

    (f meet g)(x) = (f(x) ^ gR(x)) v (fR(x) ^ g(x))
    (f join g)(x) = (f(x) ^ gL(x)) v (fL(x) ^ g(x))

These are implementation devices; the brute-force grid convolution oracle
independently validates them (see the acceptance suite).
"""

from __future__ import annotations

from .piecewise import (
    PiecewiseFn,
    envelope_left,
    envelope_right,
    equals,
    in_lattice,
    indicator,
    pointwise_leq,
    pointwise_max,
    pointwise_min,
    unit_spike,
)
from .errors import DomainError
from .rationals import ONE, ZERO

BOTTOM = unit_spike(ZERO)
TOP = unit_spike(ONE)
FULL = indicator(ZERO, ONE)


def meet(f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
    return pointwise_max(
        pointwise_min(f, envelope_right(g)),
        pointwise_min(envelope_right(f), g),
    )


def join(f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
    return pointwise_max(
        pointwise_min(f, envelope_left(g)),
        pointwise_min(envelope_left(f), g),
    )


def leq_sub(f: PiecewiseFn, g: PiecewiseFn) -> bool:
    """The meet-induced order: f below g iff meet(f, g) = f.

    On normal convex functions this is decided by the cheap envelope
    criterion (left envelopes reversed, right envelopes aligned); elsewhere
    by the defining equation. Both paths agree on the convex class.
    """
    if in_lattice(f) and in_lattice(g):
        return pointwise_leq(envelope_left(g), envelope_left(f)) and pointwise_leq(
            envelope_right(f), envelope_right(g)
        )
    return leq_sub_by_definition(f, g)


def leq_sub_by_definition(f: PiecewiseFn, g: PiecewiseFn) -> bool:
    return equals(meet(f, g), f)


def leq_pre(f: PiecewiseFn, g: PiecewiseFn) -> bool:
    """The join-induced order: f below g iff join(f, g) = g."""
    return equals(join(f, g), g)


def order_equivalence_check(f: PiecewiseFn, g: PiecewiseFn) -> bool:
    """Do the two orders agree on this pair? Requires normal convex inputs."""
    if not (in_lattice(f) and in_lattice(g)):
        raise DomainError("order coincidence is only guaranteed for normal convex inputs")
    return leq_sub(f, g) == leq_pre(f, g)
