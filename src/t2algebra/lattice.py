"""Meet, join, and the two induced partial orders on truth-value functions.

The defining forms are suprema over solution sets of min/max constraints.
Because min(y, z) = x forces one coordinate to equal x and the other to sit
above it (dually for max), the suprema collapse to closed forms in terms of
one-sided envelopes, and distributivity (f <= fL, fR) gives the second form:

    (f meet g)(x) = (f(x) ^ gR(x)) v (fR(x) ^ g(x)) = (f v g)(x) ^ fR(x) ^ gR(x)
    (f join g)(x) = (f(x) ^ gL(x)) v (fL(x) ^ g(x)) = (f v g)(x) ^ fL(x) ^ gL(x)

On normal convex inputs (Walker and Walker's envelope form) both right
envelopes are 1 short of the lesser right threshold xi, f's, and fR = f
beyond it, so the meet is f v g on [0, xi) and f ^ gR on (xi, 1], spliced
at xi by ``piecewise._splice`` as the threshold product is. The join is the
mirror case at g's greater left threshold. Both read the inputs' envelopes
and threshold ends off ``piecewise._shape``, and ``piecewise._cut`` picks
the cut from the two ends. Off the lattice, and in ``leq_sub_by_definition``,
the envelope formula runs as written (``_by_envelopes``): the splice's reference.
The grid convolution oracle checks meet and join independently (see the
acceptance suite).
"""

from __future__ import annotations

from .piecewise import (
    PiecewiseFn,
    _combine_parts,
    _cut,
    _shape,
    _splice,
    envelope_left,
    envelope_right,
    in_lattice,
    indicator,
    pointwise_leq,
    pointwise_max,
    pointwise_min,
    unit_spike,
)
from .errors import DomainError
from .rationals import ONE, ZERO, _max, _min

BOTTOM = unit_spike(ZERO)
TOP = unit_spike(ONE)
FULL = indicator(ZERO, ONE)


def meet(f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
    sf, sg = _shape(f), _shape(g)
    if not (sf.lattice and sg.lattice):
        return _by_envelopes(f, g, envelope_right)
    at_f, cut, at_cut = _cut(sf.right_end, sg.right_end, _min)
    f, g, sg = (f, g, sg) if at_f else (g, f, sf)  # the cut is f's right threshold
    # f is or tends to 1 at its threshold, a breakpoint: the head ends on it
    head = _combine_parts(f, g, False, stop=cut)
    tail = _combine_parts(f, sg.right, True, start=cut)
    return _splice(head, cut, head[1][-1], cut, at_cut, tail)


def join(f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
    sf, sg = _shape(f), _shape(g)
    if not (sf.lattice and sg.lattice):
        return _by_envelopes(f, g, envelope_left)
    at_f, cut, at_cut = _cut(sf.left_end, sg.left_end, _max)
    f, g, sf = (g, f, sg) if at_f else (f, g, sf)  # the cut is g's left threshold
    head = _combine_parts(g, sf.left, True, stop=cut)
    tail = _combine_parts(f, g, False, start=cut)
    return _splice(head, cut, tail[1][0], cut, at_cut, tail)


def _by_envelopes(f: PiecewiseFn, g: PiecewiseFn, envelope) -> PiecewiseFn:
    # (f ^ gE) v (fE ^ g): the meet for E the right envelope, the join for the left
    return pointwise_max(pointwise_min(f, envelope(g)), pointwise_min(envelope(f), g))


def leq_sub(f: PiecewiseFn, g: PiecewiseFn) -> bool:
    """The meet-induced order: f below g iff meet(f, g) = f.

    On normal convex functions this is decided by the cheap envelope
    criterion (left envelopes reversed, right envelopes aligned); elsewhere
    by the defining equation. Both paths agree on the convex class.
    """
    sf, sg = _shape(f), _shape(g)
    if sf.lattice and sg.lattice:
        return pointwise_leq(sg.left, sf.left) and pointwise_leq(sf.right, sg.right)
    return leq_sub_by_definition(f, g)


def leq_sub_by_definition(f: PiecewiseFn, g: PiecewiseFn) -> bool:
    """The defining equation meet(f, g) = f, with the meet taken by the
    envelope formula: the reference that ``leq_sub`` is tested against."""
    return _by_envelopes(f, g, envelope_right) == f


def leq_pre(f: PiecewiseFn, g: PiecewiseFn) -> bool:
    """The join-induced order: f below g iff join(f, g) = g."""
    return join(f, g) == g


def order_equivalence_check(f: PiecewiseFn, g: PiecewiseFn) -> bool:
    """Do the two orders agree on this pair? Requires normal convex inputs."""
    if not (in_lattice(f) and in_lattice(g)):
        raise DomainError("order coincidence is only guaranteed for normal convex inputs")
    return leq_sub(f, g) == leq_pre(f, g)
