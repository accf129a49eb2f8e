import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

import t2algebra as t
from t2algebra import piecewise

HALF = Fraction(1, 2)


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
def piecewise_fns(draw, den: int = 16, max_interior: int = 4):
    """Arbitrary members of the representable class (usually not convex)."""
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
    return t.PiecewiseFn(tuple(breaks), values, tuple(pieces))


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
