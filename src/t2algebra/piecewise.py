"""Exact piecewise-affine functions from the unit interval to itself.

This is the representable slice of the truth-value space of type-2 fuzzy
sets: total functions [0,1] -> [0,1] made of finitely many affine pieces,
with the value *at* each breakpoint stored separately from the one-sided
limits, so jump discontinuities (indicator functions, step functions,
isolated spikes) are represented exactly. Every construction used by the
rest of the package -- pointwise lattice operations, reflection, running
suprema, the threshold-based product -- stays inside this class, and all
coordinates are exact rationals, so function equality is decidable by
comparing canonical forms.

Representation: ``breakpoints`` is a strictly increasing tuple of rationals
starting at 0 and ending at 1; ``values[i]`` is the function value at
``breakpoints[i]``; ``pieces[i] = (slope, intercept)`` gives the value
``slope*x + intercept`` on the open interval between breakpoints i and i+1.
Canonical form removes every breakpoint at which the function is affine-
continuous, so two instances describe the same pointwise function iff their
canonical forms are equal componentwise. Every build is canonicalized in
``PiecewiseFn._seal``, so ``==`` (and ``equals``) is pointwise equality and
``canonicalize`` hands back its argument.

Validation happens once, at the boundary: ``PiecewiseFn(...)`` coerces each
slot once and checks every part, and only ``from_json_dict``/``loads`` (the
slots as given) and ``from_affine`` (a line may leave [0, 1]) call it. The
other named constructors check their arguments and, like the generators in
``axioms``, assemble valid parts; a function computed from valid ones
(pointwise min/max, reflection, envelopes, the threshold product) has parts
made by an operation closed on the class. All of these are ``_sealed``
unchecked, as a check could only re-prove that; a test routes ``_sealed``
through the constructor.

Equality and hashing are structural over an integer key precomputed at
construction. Fraction hashing is too slow to sit under the memos, so every
memo key is integers: a function's ``_key``, or ``_indicator``'s end slots.
The envelopes, thresholds, lattice membership and indicator test of a
function are fields of one memoised record, ``_shape``.

This module compares rationals in their integer slots, by the slot
comparisons of ``rationals`` (``_lt``, ``_same``, ``_min``, ``_max``) and by
``_same_piece`` for two pieces. Arguments and results stay ``Fraction`` at
the API. The kernel compares in integer slots first and builds a
``Fraction``, by ``rationals._ratio``, only for a value kept in a result: a
piece limit or a crossing stays an unreduced integer ratio until it wins.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError, ValidationError
from .rationals import (
    _CACHE, ONE, UNPRINTABLE, ZERO, _lt, _max, _min, _ratio, _same, format_rational,
    to_rational, to_unit,
)

Affine = tuple[Fraction, Fraction]


def _flat(v: Fraction):
    """The parts of the constant v: a ``_splice`` head or tail, or sealed whole."""
    return (ZERO, ONE), (v, v), ((ZERO, v),)


_ZERO_PARTS, _ONE_PARTS = _flat(ZERO), _flat(ONE)


def _same_piece(p: Affine, q: Affine) -> bool:
    return _same(p[0], q[0]) and _same(p[1], q[1])


def _affine_ratio(piece: Affine, x: Fraction) -> tuple[int, int]:
    # slope*x + intercept as an unreduced numerator over a positive denominator
    s, c = piece
    den = s._denominator * x._denominator
    num = s._numerator * x._numerator * c._denominator + c._numerator * den
    return num, den * c._denominator


def _cmp(q: Fraction, num: int, den: int) -> int:
    # an int with the sign of q - num/den, for den > 0
    return q._numerator * den - num * q._denominator


def _raised(q: Fraction, num: int, den: int) -> Fraction:
    # max(q, num/den), building a Fraction only where num/den is larger
    return _ratio(num, den) if _cmp(q, num, den) < 0 else q


def _affine_above(p1: Affine, p2: Affine, x: Fraction) -> bool:
    # p1(x) > p2(x)
    n1, d1 = _affine_ratio(p1, x)
    n2, d2 = _affine_ratio(p2, x)
    return n1 * d2 > n2 * d1


@dataclass(frozen=True, eq=False)
class PiecewiseFn:
    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    pieces: tuple[Affine, ...]

    def __post_init__(self):
        try:
            pieces = tuple(self.pieces)
            parts = (self.breakpoints, self.values, self.pieces, *pieces)
            if any(isinstance(part, str) for part in parts):  # it iterates as characters
                raise TypeError("a string is not a sequence of slots")
            breaks = tuple(map(to_unit, self.breakpoints))
            values = tuple(map(to_unit, self.values))
            pieces = tuple((to_rational(s), to_rational(c)) for s, c in pieces)
        except ValidationError:
            raise
        except (TypeError, ValueError) as exc:  # a part not iterable, a piece not a pair
            raise ValidationError(f"malformed function parts: {exc}") from exc
        if len(breaks) < 2:
            raise ValidationError("need at least the two endpoint breakpoints")
        if not (_same(breaks[0], ZERO) and _same(breaks[-1], ONE)):
            raise ValidationError("breakpoints must start at 0 and end at 1")
        if any(not _lt(a, b) for a, b in zip(breaks, breaks[1:])):
            raise ValidationError("breakpoints must be strictly increasing")
        if len(values) != len(breaks):
            raise ValidationError("one value per breakpoint required")
        if len(pieces) != len(breaks) - 1:
            raise ValidationError("one affine piece per open interval required")
        for i, piece in enumerate(pieces):
            for k in (i, i + 1):
                num, den = _affine_ratio(piece, breaks[k])
                if not 0 <= num <= den:
                    # named by index: the value may be too long to print
                    raise ValidationError(
                        f"piece {i} reaches outside [0, 1] at breakpoint {k}"
                    )
        self._seal(breaks, values, pieces)

    def _seal(self, breaks, values, pieces) -> PiecewiseFn:
        """Store the canonical parts, unchecked, and the integer key of equality."""
        breaks, values, pieces = _canonical_parts(breaks, values, pieces)
        key = []  # the integer slots of the parts in order: equal keys, equal parts
        for q in breaks:
            key.append(q._numerator)
            key.append(q._denominator)
        for q in values:
            key.append(q._numerator)
            key.append(q._denominator)
        for s, c in pieces:
            key.append(s._numerator)
            key.append(s._denominator)
            key.append(c._numerator)
            key.append(c._denominator)
        key = tuple(key)
        object.__setattr__(self, "breakpoints", breaks)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))
        return self

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, PiecewiseFn):
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __call__(self, x) -> Fraction:
        return evaluate(self, x)

    def piece_containing(self, x) -> Affine:
        """Affine piece of the open interval strictly containing x."""
        q = to_unit(x)
        i = _piece_index(self.breakpoints, q)
        if _same(self.breakpoints[i], q):
            raise DomainError(f"{q} is a breakpoint, not interior to a piece")
        return self.pieces[i]

    def left_limit(self, i: int) -> Fraction:
        """Limit from below at breakpoint i (1 <= i <= len-1)."""
        if not 1 <= i < len(self.breakpoints):
            raise DomainError(f"no limit from below at breakpoint {i}")
        return _ratio(*_affine_ratio(self.pieces[i - 1], self.breakpoints[i]))

    def right_limit(self, i: int) -> Fraction:
        """Limit from above at breakpoint i (0 <= i <= len-2)."""
        if not 0 <= i < len(self.pieces):
            raise DomainError(f"no limit from above at breakpoint {i}")
        return _ratio(*_affine_ratio(self.pieces[i], self.breakpoints[i]))


def _piece_index(breaks, x: Fraction) -> int:
    # the i with breaks[i] <= x < breaks[i + 1], or the last index at x = 1
    n, d = x._numerator, x._denominator
    return bisect_right(breaks, 0, key=lambda b: b._numerator * d - n * b._denominator) - 1


def _value_at(f: PiecewiseFn, i: int, q: Fraction) -> Fraction:
    # f(q) for breakpoint i <= q short of breakpoint i + 1
    on_break = _same(f.breakpoints[i], q)
    return f.values[i] if on_break else _ratio(*_affine_ratio(f.pieces[i], q))


def evaluate(f: PiecewiseFn, x) -> Fraction:
    """Exact value of f at x: breakpoint value or affine piece value."""
    q = to_unit(x)
    return _value_at(f, _piece_index(f.breakpoints, q), q)


def _canonical_parts(breaks, values, pieces):
    keep = [0]
    for i in range(1, len(breaks) - 1):
        if _same_piece(pieces[i - 1], pieces[i]):
            num, den = _affine_ratio(pieces[i], breaks[i])
            v = values[i]
            if v._numerator * den == num * v._denominator:
                continue  # removable: affine-continuous through breaks[i]
        keep.append(i)
    keep.append(len(breaks) - 1)
    if len(keep) == len(breaks):
        return tuple(breaks), tuple(values), tuple(pieces)
    return (
        tuple(breaks[i] for i in keep),
        tuple(values[i] for i in keep),
        tuple(pieces[i] for i in keep[:-1]),
    )


def _sealed(breaks, values, pieces) -> PiecewiseFn:
    """The one trusted build: a library-built function, sealed unchecked."""
    return object.__new__(PiecewiseFn)._seal(breaks, values, pieces)


def canonicalize(f: PiecewiseFn) -> PiecewiseFn:
    """f itself: every instance is canonical, as ``_seal`` stores it."""
    return f


def equals(f: PiecewiseFn, g: PiecewiseFn) -> bool:
    """Pointwise equality: ``f == g``, as every instance is canonical."""
    return f == g


# ---------------------------------------------------------------------------
# constructors


def constant(c) -> PiecewiseFn:
    return _sealed(*_flat(to_unit(c)))


def from_affine(slope, intercept) -> PiecewiseFn:
    """The affine function slope*x + intercept, which must stay in [0, 1]."""
    s, c = to_rational(slope), to_rational(intercept)
    return PiecewiseFn((ZERO, ONE), (c, s + c), ((s, c),))


@lru_cache(maxsize=_CACHE)
def _indicator(ln: int, ld: int, hn: int, hd: int) -> PiecewiseFn:  # of [ln/ld, hn/hd], by slots
    return _splice(_ZERO_PARTS, _ratio(ln, ld), ONE, _ratio(hn, hd), ONE, _ZERO_PARTS)


def _interval_op(first, sf, sg) -> PiecewiseFn:  # star (first _min) and costar (_max)
    # of two interval indicators, from their _shape: the indicator of the first
    # threshold ends, as each indicator's threshold ends are its interval's ends
    lo, hi = first(sf.left_end[0], sg.left_end[0]), first(sf.right_end[0], sg.right_end[0])
    return _indicator(lo._numerator, lo._denominator, hi._numerator, hi._denominator)


def indicator(a, b) -> PiecewiseFn:
    """Characteristic function of the closed interval [a, b]."""
    lo, hi = to_unit(a), to_unit(b)
    if _lt(hi, lo):
        raise DomainError(f"indicator needs a <= b, got {lo} > {hi}")
    return _indicator(lo._numerator, lo._denominator, hi._numerator, hi._denominator)


def unit_spike(x) -> PiecewiseFn:
    """Indicator of the singleton {x}."""
    return indicator(x, x)


def step(drop_at, high, low) -> PiecewiseFn:
    """Two-level step: ``high`` on [0, drop_at], ``low`` on (drop_at, 1]."""
    d, hi, lo = to_unit(drop_at), to_unit(high), to_unit(low)
    return _splice(_flat(hi), d, hi, d, hi, _flat(lo))


def rising_ramp(floor) -> PiecewiseFn:
    """Affine ramp from ``floor`` at 0 up to 1 at 1."""
    c = to_unit(floor)
    return _sealed((ZERO, ONE), (c, ONE), ((ONE - c, c),))


def falling_ramp(end) -> PiecewiseFn:
    """Affine ramp from 1 at 0 down to ``end`` at 1."""
    e = to_unit(end)
    return _sealed((ZERO, ONE), (ONE, e), ((e - ONE, ONE),))


# ---------------------------------------------------------------------------
# pointwise lattice operations and reflection


def _merged(f: PiecewiseFn, g: PiecewiseFn, start=ZERO, stop=None, i=0, j=0):
    """(a, b, p1, p2, fx, gx) for each open interval (a, b) between merged
    breakpoints of f and g, left to right, where f and g are the pieces p1
    and p2; fx = f(b) as (num, den > 0, kept), kept being f's stored value
    at b or None off its breakpoints, and gx likewise. The first has
    a = start, which must lie in f's piece i and g's piece j, and the last
    has b = 1, or the least b at or beyond stop if stop is not None."""
    fb, fv, fp = f.breakpoints, f.values, f.pieces
    gb, gv, gp = g.breakpoints, g.values, g.pieces
    if not _lt(start, ONE if stop is None else stop):
        return
    a = start
    last_f = len(fp) - 1
    while True:
        p1, p2 = fp[i], gp[j]
        # the nearer of the two next breakpoints, and whether each sweep is on it
        bf, bg = fb[i + 1], gb[j + 1]
        d = bf._numerator * bg._denominator - bg._numerator * bf._denominator
        on_f, on_g = d <= 0, d >= 0
        b = bf if on_f else bg
        last = on_f and i == last_f if stop is None else not _lt(b, stop)
        q, r = fv[i + 1], gv[j + 1]
        fx = (q._numerator, q._denominator, q) if on_f else (*_affine_ratio(p1, b), None)
        gx = (r._numerator, r._denominator, r) if on_g else (*_affine_ratio(p2, b), None)
        yield a, b, p1, p2, fx, gx
        if last:
            return
        i += on_f
        j += on_g
        a = b


def _combine_parts(f: PiecewiseFn, g: PiecewiseFn, take_min: bool, start=ZERO, stop=None):
    """Canonical breakpoints, values and pieces of min(f, g) or max(f, g):
    one pass over the merged intervals, from start on and up to the first
    merged breakpoint at or beyond stop, or to 1 (stop None)."""
    # Where the pieces of f and g cross strictly inside a merged interval,
    # the crossing becomes a breakpoint and the winner swaps there.
    i = j = 0
    if start._numerator:
        i, j = _piece_index(f.breakpoints, start), _piece_index(g.breakpoints, start)
    breaks = [start]
    values = [(_min if take_min else _max)(_value_at(f, i, start), _value_at(g, j, start))]
    pieces: list[Affine] = []
    for a, b, p1, p2, fx, gx in _merged(f, g, start, stop, i, j):
        (s1, c1), (s2, c2) = p1, p2
        # ds has the sign of s1 - s2, as has f - g right of a crossing
        ds = s1._numerator * s2._denominator - s2._numerator * s1._denominator
        x = None  # a crossing strictly inside (a, b), where after takes over
        if not ds:
            # parallel: the lower (for min) or higher intercept wins
            piece = p1 if _lt(c1, c2) == take_min else p2
        else:
            # the crossing (c2 - c1) / (s1 - s2) as xn / xd with xd > 0
            xn = c2._numerator * c1._denominator - c1._numerator * c2._denominator
            xn *= s1._denominator * s2._denominator * (1 if ds > 0 else -1)
            xd = abs(ds) * c1._denominator * c2._denominator
            piece = after = p1 if (ds < 0) == take_min else p2
            if _cmp(a, xn, xd) < 0:
                piece = p2 if after is p1 else p1
                if _cmp(b, xn, xd) > 0:
                    x = _ratio(xn, xd)
        # a is removable where the piece left of it runs on through a's value v
        v = values[-1]
        if pieces and _same_piece(pieces[-1], piece) and not _cmp(v, *_affine_ratio(piece, a)):
            del breaks[-1], values[-1]
        else:
            pieces.append(piece)
        if x is not None:
            breaks.append(x)
            values.append(_ratio(*_affine_ratio(p1, x)))
            pieces.append(after)
        breaks.append(b)
        # the first of equals, as _min and _max: g only where it strictly wins
        dv = gx[0] * fx[1] - fx[0] * gx[1]
        win = gx if (dv < 0 if take_min else dv > 0) else fx
        values.append(win[2] if win[2] is not None else _ratio(win[0], win[1]))
    return breaks, values, pieces


def pointwise_min(f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
    return _sealed(*_combine_parts(f, g, take_min=True))


def pointwise_max(f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
    return _sealed(*_combine_parts(f, g, take_min=False))


def _splice(head, a, at_a, b, at_b, tail) -> PiecewiseFn:
    """The function that follows head on [0, a), takes at_a at a, is 1 on
    (a, b), takes at_b at b and follows tail on (b, 1] (at a = b the lesser of
    at_a and at_b), ``_sealed``; it builds meet, join, star, costar, the
    indicators, ``step``, the drawn lattice functions and ``_shape``'s envelopes
    and test. head and tail are parts that cover [0, a] and [b, 1]. Each cut
    walks in from the part's near end: exact anywhere, a step or two where heads
    end at a, as drawn ones do, and a walk over f's breakpoints past its
    threshold where ``_shape`` cuts f."""
    (hb, hv, hp), (tb, tv, tp) = head, tail
    i, k, last = len(hb), 0, len(tb) - 1
    while i and not _lt(hb[i - 1], a):  # i: the number of head breakpoints short of a
        i -= 1
    while k < last and not _lt(b, tb[k + 1]):  # k: the tail's piece beyond b, none at b = 1
        k += 1
    if _lt(a, b):
        breaks, values, pieces = [a, b], [at_a, at_b], [(ZERO, ONE)]
    else:
        breaks, values, pieces = [a], [_min(at_a, at_b)], []
    return _sealed(
        [*hb[:i], *breaks, *tb[k + 1 :]],
        [*hv[:i], *values, *tv[k + 1 :]],
        [*hp[:i], *pieces, *tp[k:]],
    )


def pointwise_leq(f: PiecewiseFn, g: PiecewiseFn) -> bool:
    """True iff f(x) <= g(x) for every x in [0, 1]. Exact."""
    if _lt(g.values[0], f.values[0]):
        return False
    for a, b, p1, p2, fx, gx in _merged(f, g):
        if gx[0] * fx[1] < fx[0] * gx[1]:
            return False
        # affine comparison on an interval reduces to its endpoints
        if not _same_piece(p1, p2) and (
            _affine_above(p1, p2, a) or _affine_above(p1, p2, b)
        ):
            return False
    return True


def reflect(f: PiecewiseFn) -> PiecewiseFn:
    """The complementation x -> f(1-x); an involution. In slots, 1 - p/q is
    (q - p)/q and -s is -p/q, in lowest terms, and s + c is the piece at 1."""
    breaks = [_ratio(b._denominator - b._numerator, b._denominator, True) for b in f.breakpoints]
    pieces = [
        (_ratio(-p[0]._numerator, p[0]._denominator, True), _ratio(*_affine_ratio(p, ONE)))
        if p[0]._numerator else p  # a flat piece is its own image
        for p in f.pieces[::-1]
    ]
    return _sealed(breaks[::-1], f.values[::-1], pieces)


# ---------------------------------------------------------------------------
# envelopes (running suprema)


def _running_sup(f: PiecewiseFn):
    """Breakpoints, values and pieces of the running supremum of f from 0, not
    yet canonical; the one from 1 is the reflection of reflect(f)'s.

    Each interval is entered at its left end and left at its right end; a
    piece that rises is kept from where it passes the running supremum on,
    and one-sided limits count toward the supremum.
    """
    fb, fv, fp = f.breakpoints, f.values, f.pieces
    running = fv[0]
    breaks, values = [fb[0]], [running]
    pieces: list[Affine] = []
    for i, piece in enumerate(fp):
        s, c = piece
        if s._numerator > 0:
            # rising: only the limit at the right end can raise the running supremum
            right_lim = _affine_ratio(piece, fb[i + 1])
            if _cmp(running, *_affine_ratio(piece, fb[i])) <= 0:
                pieces.append(piece)
            elif _cmp(running, *right_lim) >= 0:
                pieces.append((ZERO, running))
            else:
                pieces.append((ZERO, running))
                breaks.append((running - c) / s)  # where the piece passes it
                values.append(running)
                pieces.append(piece)
            running = _raised(_max(running, fv[i + 1]), *right_lim)
        else:
            # flat or falling: only the limit at the left end can raise it
            running = _raised(running, *_affine_ratio(piece, fb[i]))
            pieces.append((ZERO, running))
            running = _max(running, fv[i + 1])
        breaks.append(fb[i + 1])
        values.append(running)
    return breaks, values, pieces


class _Shape(NamedTuple):
    left: PiecewiseFn  # the left and right envelopes
    right: PiecewiseFn
    # (threshold, that envelope's value there) at each end, None unless normal
    left_end: tuple[Fraction, Fraction] | None
    right_end: tuple[Fraction, Fraction] | None
    lattice: bool  # normal and convex
    indicator: bool  # f is the indicator of [left_end[0], right_end[0]]


def _lattice_ends(f: PiecewiseFn):
    """In one walk: None if f is not convex, else f's threshold ends, or () if
    f is not normal.

    With breakpoints b, values v, pieces p and their limits R_i = p_i(b_i) and
    L_i = p_i(b_{i+1}), f is convex exactly when its values and limits in order,
    v0, R0, L0, v1, ..., v_m, rise and then fall, and normal when they reach 1.
    The left end is read at their first 1: (b_i, 1) at v_i, (b_i, v_i) at R_i,
    (b_{i+1}, 1) at L_i; the right end at their last: (b_i, 1) at v_i or R_i,
    (b_{i+1}, v_{i+1}) at L_i.
    """
    fb, fv, fp = f.breakpoints, f.values, f.pieces
    seq = [(fv[0]._numerator, fv[0]._denominator)]  # each as num / den, den > 0
    for p, x, y, v in zip(fp, fb, fb[1:], fv[1:]):
        seq += _affine_ratio(p, x), _affine_ratio(p, y), (v._numerator, v._denominator)
    (pn, pd), last = seq[0], -1
    for n, d in seq:  # the rise, to its last element: the last 1 if f is normal
        if n * pd < pn * d:
            break
        pn, pd, last = n, d, last + 1
    for n, d in seq[last + 1 :]:  # the fall
        if n * pd > pn * d:
            return None
        pn, pd = n, d
    if seq[last][0] != seq[last][1]:  # the peak is below 1
        return ()
    first = bisect_left(seq, True, 0, last, key=lambda e: e[0] == e[1])  # the rise's first 1
    (i, r), (j, s) = divmod(first, 3), divmod(last, 3)
    left = (fb[i], fv[i]) if r == 1 else (fb[i + r // 2], ONE)
    return left, (fb[j + 1], fv[j + 1]) if s == 2 else (fb[j], ONE)


@lru_cache(maxsize=_CACHE)
def _shape(f: PiecewiseFn) -> _Shape:
    """f's envelopes, threshold ends, lattice membership and indicator test.

    On the lattice (see ``_lattice_ends``) the left envelope is f short of its
    threshold and 1 from there on, a splice of f, and the right one mirrors it;
    f is an interval indicator iff it equals zero parts so spliced, 1 at both
    thresholds: 4 breakpoints at most. Off it the left envelope is f's running
    supremum and the right one the reflection of reflect(f)'s; a normal f's left
    threshold is where the (canonical) left envelope's last piece starts if that
    piece is the constant 1, else 1, and its right one is 1 minus reflect(f)'s.
    """
    ends = _lattice_ends(f)
    if ends:
        (a, at_a), (b, at_b) = ends
        parts = f.breakpoints, f.values, f.pieces
        h = _splice(parts, a, at_a, ONE, ONE, _ONE_PARTS)
        k = _splice(_ONE_PARTS, ZERO, ONE, b, at_b, parts)
        short = len(f.breakpoints) <= 4
        indicator = short and f == _splice(_ZERO_PARTS, a, ONE, b, ONE, _ZERO_PARTS)
        return _Shape(h, k, *ends, True, indicator)
    h, m = _sealed(*_running_sup(f)), _sealed(*_running_sup(reflect(f)))
    if not _same(h.values[-1], ONE):
        return _Shape(h, reflect(m), None, None, False, False)
    i, j = (-2 if _same_piece(e.pieces[-1], (ZERO, ONE)) else -1 for e in (h, m))
    ends = (h.breakpoints[i], h.values[i]), (ONE - m.breakpoints[j], m.values[j])
    return _Shape(h, reflect(m), *ends, False, False)


def envelope_left(f: PiecewiseFn) -> PiecewiseFn:
    """Running supremum from the left: x -> sup{f(y) | y <= x}.

    Increasing, idempotent, and exact: one-sided limits of pieces count
    toward the supremum even where the bound is not attained.
    """
    return _shape(f).left


def envelope_right(f: PiecewiseFn) -> PiecewiseFn:
    """Running supremum from the right: x -> sup{f(y) | y >= x}. Decreasing."""
    return _shape(f).right


def envelope_left_strict(f: PiecewiseFn) -> PiecewiseFn:
    """Strict left envelope: sup over y < x, with value f(0) at x = 0.

    Coincides with the plain left envelope except at breakpoints, where it
    takes the limit from below instead of the attained value.
    """
    g = envelope_left(f)
    values = [f.values[0]]
    values.extend(g.left_limit(i) for i in range(1, len(g.breakpoints)))
    return _sealed(g.breakpoints, values, g.pieces)


def envelope_right_strict(f: PiecewiseFn) -> PiecewiseFn:
    """Strict right envelope: sup over y > x, with value f(1) at x = 1."""
    return reflect(envelope_left_strict(reflect(f)))


def sup_value(f: PiecewiseFn) -> Fraction:
    """Exact supremum over [0, 1], attained or approached: the value the left
    envelope ends on."""
    return _shape(f).left.values[-1]


def is_normal(f: PiecewiseFn) -> bool:
    return _shape(f).left_end is not None


def is_convex(f: PiecewiseFn) -> bool:
    """Fuzzy convexity (quasiconcavity): f equals the meet of its envelopes,
    as its values and limits rise and then fall (see ``_lattice_ends``)."""
    return _lattice_ends(f) is not None


def in_lattice(f: PiecewiseFn) -> bool:
    """Membership in the normal convex class the threshold product lives on."""
    return _shape(f).lattice


def is_point_indicator(f: PiecewiseFn) -> bool:
    """True iff f is the characteristic function of some singleton."""
    shape = _shape(f) if len(f.breakpoints) <= 3 else None
    return shape is not None and shape.indicator and _same(shape.left_end[0], shape.right_end[0])


def is_interval_indicator(f: PiecewiseFn) -> bool:
    """True iff f is the characteristic function of some closed interval, read
    off ``_shape``, which compares f with the splice that builds one: a known f
    costs one memo hit, and one with more breakpoints than a canonical
    indicator (4) none."""
    return len(f.breakpoints) <= 4 and _shape(f).indicator


# ---------------------------------------------------------------------------
# envelope level-set thresholds


@dataclass(frozen=True)
class EnvelopeThresholds:
    eta: Fraction
    xi: Fraction


def _threshold(end: tuple[Fraction, Fraction] | None, side: str) -> Fraction:
    if end is None:
        raise DomainError(f"{side}_threshold requires a normal function")
    return end[0]


def left_threshold(f: PiecewiseFn) -> Fraction:
    """inf{x | left envelope of f reaches 1}; requires f normal."""
    return _threshold(_shape(f).left_end, "left")


def right_threshold(f: PiecewiseFn) -> Fraction:
    """sup{x | right envelope of f reaches 1}; requires f normal."""
    return _threshold(_shape(f).right_end, "right")


def _cut(end_f, end_g, first):
    """(at_f, cut, value): the cut first(t_f, t_g) of the ends (threshold,
    envelope value there) of f and g, whether it is f's threshold (ties are
    f's), and the meet of their envelopes at the cut, where each is 1 short
    of its own."""
    (t_f, v_f), (t_g, v_g) = end_f, end_g
    cut = first(t_f, t_g)
    at_f, at_g = _same(t_f, cut), _same(t_g, cut)
    return at_f, cut, _min(v_f if at_f else ONE, v_g if at_g else ONE)


def thresholds(f: PiecewiseFn, g: PiecewiseFn) -> EnvelopeThresholds:
    """Pairwise thresholds: min of the per-function envelope levels.

    eta <= xi is guaranteed for normal inputs because each function's own
    left threshold never exceeds its right threshold.
    """
    eta = _min(left_threshold(f), left_threshold(g))
    xi = _min(right_threshold(f), right_threshold(g))
    return EnvelopeThresholds(eta, xi)


# ---------------------------------------------------------------------------
# JSON serialization (exact round-trip)


def to_json_dict(f: PiecewiseFn) -> dict:
    fmt = format_rational  # raises ValidationError(UNPRINTABLE) past the digit limit
    return {
        "breakpoints": [{"x": fmt(b), "v": fmt(v)} for b, v in zip(f.breakpoints, f.values)],
        "pieces": [{"slope": fmt(s), "intercept": fmt(c)} for s, c in f.pieces],
    }


def from_json_dict(data) -> PiecewiseFn:
    if not isinstance(data, dict):
        raise ValidationError("function JSON must be an object")
    try:  # the slots as given: PiecewiseFn coerces each slot once
        bks = data["breakpoints"]
        breaks = tuple(entry["x"] for entry in bks)
        values = tuple(entry["v"] for entry in bks)
    except (KeyError, TypeError):
        raise ValidationError('"breakpoints" must be a list of objects with "x" and "v"') from None
    try:
        pieces = tuple((p["slope"], p["intercept"]) for p in data["pieces"])
    except (KeyError, TypeError):
        msg = '"pieces" must be a list of objects with "slope" and "intercept"'
        raise ValidationError(msg) from None
    return PiecewiseFn(breaks, values, pieces)


def dumps(f: PiecewiseFn, indent: int | None = None) -> str:
    """Compact text is written directly; ``json.dumps(to_json_dict(f))``, the
    indented path, is its reference. A slot, str(Fraction), needs no escaping."""
    if indent is not None:
        return json.dumps(to_json_dict(f), indent=indent)
    try:
        bks = ", ".join(f'{{"x": "{b!s}", "v": "{v!s}"}}' for b, v in zip(f.breakpoints, f.values))
        pcs = ", ".join(f'{{"slope": "{s!s}", "intercept": "{c!s}"}}' for s, c in f.pieces)
    except ValueError:  # str() of a rational past the digit limit
        raise ValidationError(UNPRINTABLE) from None
    return f'{{"breakpoints": [{bks}], "pieces": [{pcs}]}}'


def loads(text: str) -> PiecewiseFn:
    try:
        data = json.loads(text)
    except ValueError as exc:  # malformed, or an int literal over the digit limit
        raise ValidationError(f"invalid JSON: {exc}") from exc
    except RecursionError:  # arrays or objects nested deeper than json can read
        raise ValidationError("invalid JSON: nested too deeply") from None
    return from_json_dict(data)
