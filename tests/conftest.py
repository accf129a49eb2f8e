import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

import t2algebra as t
from t2algebra import piecewise

HALF = Fraction(1, 2)
# a t-norm and an inner operation that are not builtins; |x - y| is not monotone
HAMACHER = t.ScalarConnective(
    "hamacher", lambda x, y: x * y / (x + y - x * y) if x or y else x, "t-norm"
)
ABS_DIFF = t.ScalarConnective("abs-diff", lambda x, y: abs(x - y))


@pytest.fixture
def plateau_step():
    """1 on [0, 3/4], 1/2 on (3/4, 1]: the separation fixture."""
    return t.step(Fraction(3, 4), 1, HALF)


@pytest.fixture
def spike_pair():
    return t.unit_spike(Fraction(3, 10)), t.unit_spike(Fraction(7, 10))


def clear_memos():
    for memo in vars(piecewise).values():
        if hasattr(memo, "cache_clear"):
            memo.cache_clear()  # so every result is computed afresh


def unit_fracs(den: int = 16):
    return st.integers(0, den).map(lambda k: Fraction(k, den))


@st.composite
def raw_parts(draw, den: int = 16, max_interior: int = 4):
    """(breakpoints, values, pieces) of an arbitrary member of the
    representable class, as tuples of Fractions, not yet canonical."""
    interior_count = draw(st.integers(0, max_interior))
    ks = draw(
        st.lists(
            st.integers(1, den - 1),
            min_size=interior_count,
            max_size=interior_count,
            unique=True,
        )
    )
    breaks = [Fraction(0)] + sorted(Fraction(k, den) for k in ks) + [Fraction(1)]
    values = tuple(draw(unit_fracs(den)) for _ in breaks)
    pieces = []
    for a, b in zip(breaks, breaks[1:]):
        y0 = draw(unit_fracs(den))
        y1 = draw(unit_fracs(den))
        slope = (y1 - y0) / (b - a)
        pieces.append((slope, y0 - slope * a))
    return tuple(breaks), values, tuple(pieces)


@st.composite
def split_parts(draw, den: int = 16, max_interior: int = 4):
    """Raw parts with up to three pieces split at an interior point, where
    the new breakpoint takes the piece's own value (removable) or another."""
    breaks, values, pieces = map(list, draw(raw_parts(den, max_interior)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(pieces) - 1))
        a, b = breaks[i], breaks[i + 1]
        x = a + (b - a) * draw(st.sampled_from([Fraction(1, 3), HALF, Fraction(3, 4)]))
        s, c = pieces[i]
        on_piece = s * x + c
        v = draw(st.one_of(st.just(on_piece), unit_fracs(den)))
        breaks.insert(i + 1, x)
        values.insert(i + 1, v)
        pieces.insert(i + 1, pieces[i])
    return tuple(breaks), tuple(values), tuple(pieces)


def piecewise_fns(den: int = 16, max_interior: int = 4):
    """Arbitrary members of the representable class (usually not convex)."""
    return raw_parts(den, max_interior).map(lambda parts: t.PiecewiseFn(*parts))


@st.composite
def lattice_fns(draw, den: int = 16):
    """Normal convex functions, built shape-by-shape (independent of the
    library's random generator)."""
    shape = draw(st.integers(0, 6))
    if shape == 0:
        return t.unit_spike(draw(unit_fracs(den)))
    if shape == 1:
        a = draw(unit_fracs(den))
        b = draw(unit_fracs(den).filter(lambda q: q >= a))
        return t.indicator(a, b)
    if shape == 2:
        return t.step(draw(unit_fracs(den)), 1, draw(unit_fracs(den)))
    if shape == 3:
        a = draw(unit_fracs(den))
        return t.pointwise_max(t.indicator(a, 1), t.constant(draw(unit_fracs(den))))
    if shape == 4:
        return t.rising_ramp(draw(unit_fracs(den)))
    if shape == 5:
        return t.falling_ramp(draw(unit_fracs(den)))
    peak = draw(st.integers(1, den - 1))
    p = Fraction(peak, den)
    v0 = draw(unit_fracs(den))
    v1 = draw(unit_fracs(den))
    up = ((1 - v0) / p, v0)
    down = ((v1 - 1) / (1 - p), 1 - (v1 - 1) * p / (1 - p))
    return t.PiecewiseFn(
        (Fraction(0), p, Fraction(1)), (v0, Fraction(1), v1), (up, down)
    )


def normal_fns():
    """Normal functions, often not convex: the join of two lattice members."""
    return st.builds(t.pointwise_max, lattice_fns(), lattice_fns())


@st.composite
def open_peak_fns(draw, den: int = 16):
    """Normal convex functions that reach 1 only as a limit from the left at
    some b < 1, with a lower value at b: 1 on [a, b) for a < b, or a rise to
    1 at b for a = b, and a fall after b."""
    b = Fraction(draw(st.integers(1, den - 1)), den)
    a = draw(unit_fracs(den).filter(lambda q: q <= b))
    at_b = Fraction(draw(st.integers(0, den - 1)), den)
    w1 = draw(unit_fracs(den).filter(lambda q: q <= at_b))
    w2 = draw(unit_fracs(den).filter(lambda q: q <= w1))
    v0 = draw(unit_fracs(den))
    fall = ((w2 - w1) / (1 - b), w1 - (w2 - w1) / (1 - b) * b)
    if a == 0:
        head = ((Fraction(0),), (Fraction(1),), ((Fraction(0), Fraction(1)),))
    elif a == b:
        head = ((Fraction(0),), (v0,), (((1 - v0) / b, v0),))
    else:
        head = (
            (Fraction(0), a),
            (v0, Fraction(1)),
            (((1 - v0) / a, v0), (Fraction(0), Fraction(1))),
        )
    breaks, values, pieces = head
    return t.PiecewiseFn(
        breaks + (b, Fraction(1)), values + (at_b, w2), pieces + (fall,)
    )


@st.composite
def plateau_fns(draw, a: Fraction, b: Fraction, den: int = 16):
    """Normal convex functions that are 1 on the open interval (a, b), rise
    to it over [0, a) and fall from it over (b, 1], each with one piece. The
    value at a lies between the limit beside it and 1, and so does the one
    at b; at a = b the peak is 1 or approached from one side. Two of these
    with a common end have tied thresholds there."""

    def between(lo, hi=Fraction(1)):
        return Fraction(draw(st.integers(int(lo * den), int(hi * den))), den)

    # the limits at a from the left and at b from the right
    up = between(0) if a > 0 else Fraction(0)
    down = between(0) if b < 1 else Fraction(0)
    if a < b:
        at_a, at_b = between(up), between(down)
    else:
        at_a = at_b = between(min(up, down)) if max(up, down) == 1 else Fraction(1)
    breaks, values, pieces = [], [], []
    if a > 0:
        v0 = between(0, up)  # the limit at 0 from the right
        breaks.append(Fraction(0))
        values.append(between(0, v0))
        pieces.append(((up - v0) / a, v0))
    breaks.append(a)
    values.append(at_a)
    if a < b:
        breaks.append(b)
        values.append(at_b)
        pieces.append((Fraction(0), Fraction(1)))
    if b < 1:
        w = between(0, down)  # the limit at 1 from the left
        slope = (w - down) / (1 - b)
        breaks.append(Fraction(1))
        values.append(between(0, w))
        pieces.append((slope, down - slope * b))
    return t.PiecewiseFn(tuple(breaks), tuple(values), tuple(pieces))


@st.composite
def tied_pairs(draw, den: int = 16):
    """Two plateau functions with a common left end or a common right end,
    so with tied left or right thresholds (or both)."""
    p, e1, e2 = (draw(unit_fracs(den)) for _ in range(3))
    if draw(st.booleans()):
        ends = [(min(e, p), p) for e in (e1, e2)]
    else:
        ends = [(p, max(e, p)) for e in (e1, e2)]
    return tuple(draw(plateau_fns(a, b, den)) for a, b in ends)


# Normal functions at the edges of the threshold reads, by name: envelopes of
# one piece, plateaus open at their inner end (the shapes of the generator's
# kinds 6 and 7, and open peaks), jumps onto a plateau, the named constants,
# and four normal functions that are not convex, each with a dip in its
# sequence of values and piece limits that ``_shape``'s walk reads.
THRESHOLD_EDGE_CASES = {
    "FULL": t.FULL,
    "TOP": t.TOP,
    "BOTTOM": t.BOTTOM,
    "rising ramp": t.rising_ramp(Fraction(1, 4)),
    "falling ramp": t.falling_ramp(Fraction(1, 4)),
    # 1 approached at x = 1 but not reached there (kind 6)
    "open 1 at 1": t.PiecewiseFn((0, 1), ("1/4", "1/2"), (("3/4", "1/4"),)),
    "open 1 at 1, 0 there": t.PiecewiseFn((0, 1), (0, 0), ((1, 0),)),
    # 1 approached at x = 0 but not reached there (kind 7)
    "open 1 at 0": t.PiecewiseFn((0, 1), ("1/2", "1/4"), (("-3/4", 1),)),
    # 1 approached from the left at 1/2 and never reached
    "open peak": t.PiecewiseFn(
        (0, "1/2", 1), (0, "1/4", 0), ((2, 0), ("-1/2", "1/2"))
    ),
    # 1 on the open interval (1/4, 3/4) only
    "open plateau": t.PiecewiseFn(
        (0, "1/4", "3/4", 1), (0, "1/2", "1/2", 0), ((0, 0), (0, 1), (0, 0))
    ),
    # 1 approached from the right at 1/2 and never reached: the mirror of "open peak"
    "open peak from the right": t.PiecewiseFn(
        (0, "1/2", 1), (0, "1/4", 0), (("1/2", 0), (-2, 2))
    ),
    # a rising jump onto the plateau (1/4, 3/4] whose value at 1/4 lies between
    # the limits beside it, 1/2 and 1: convex, with the left envelope at 3/4 there
    "jump onto a plateau": t.PiecewiseFn(
        (0, "1/4", "3/4", 1), (0, "3/4", 1, 0), ((2, 0), (0, 1), (0, 0))
    ),
    # not convex: the same jump with its value below both limits
    "jump onto a plateau, dipping": t.PiecewiseFn(
        (0, "1/4", "3/4", 1), (0, "1/4", 1, 0), ((2, 0), (0, 1), (0, 0))
    ),
    # not convex: 1 approached from both sides at 1/2, with 1/2 there
    "1 approached from both sides": t.PiecewiseFn(
        (0, "1/2", 1), (0, "1/2", 0), ((2, 0), (-2, 2))
    ),
    # not convex: 1 at 1/4 and at 3/4 with 1/2 between them
    "two points at 1": t.PiecewiseFn(
        (0, "1/4", "3/4", 1), (0, 1, 1, 0), ((0, 0), (0, "1/2"), (0, 0))
    ),
    # not convex: 1 on [1/4, 3/4] but 1/2 at 1/2
    "plateau with a dip": t.PiecewiseFn(
        (0, "1/4", "1/2", "3/4", 1), (0, 1, "1/2", 1, 0), ((0, 0), (0, 1), (0, 1), (0, 0))
    ),
}


# Functions that never reach 1, where the walk behind ``is_convex`` still decides
# convexity: a constant, an open peak, a jump onto a plateau, and two that are
# not convex.
NON_NORMAL_CASES = {
    "constant 1/3": t.constant(Fraction(1, 3)),
    # 3/4 approached at x = 1 but not reached there
    "open 3/4 at 1": t.PiecewiseFn((0, 1), (0, "1/4"), (("3/4", 0),)),
    # a rising jump onto the plateau (1/4, 3/4] at 1/2, whose value at 1/4 lies
    # between the limits beside it, 1/4 and 1/2: convex
    "jump onto a plateau at 1/2": t.PiecewiseFn(
        (0, "1/4", "3/4", 1), (0, "3/8", "1/2", 0), ((1, 0), (0, "1/2"), (0, 0))
    ),
    # not convex: 3/4 at 1/4 and at 3/4, 0 elsewhere
    "twin peaks at 3/4": t.PiecewiseFn(
        (0, "1/4", "3/4", 1), (0, "3/4", "3/4", 0), ((0, 0), (0, 0), (0, 0))
    ),
    # not convex: 1/2 on [1/4, 3/4] but 1/4 at 1/2
    "plateau at 1/2 with a dip": t.PiecewiseFn(
        (0, "1/4", "1/2", "3/4", 1),
        (0, "1/2", "1/4", "1/2", 0),
        ((0, 0), (0, "1/2"), (0, "1/2"), (0, 0)),
    ),
}
