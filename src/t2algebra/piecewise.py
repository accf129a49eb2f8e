"""Exact piecewise-affine functions from the unit interval to itself.

This is the representable slice of the truth-value space of type-2 fuzzy
sets: total functions [0,1] -> [0,1] made of finitely many affine pieces,
with the value *at* each breakpoint stored separately from the one-sided
limits, so jump discontinuities (indicator functions, step functions,
isolated spikes) are represented exactly. Every construction used by the
rest of the package -- pointwise lattice operations, reflection, running
suprema from either side, the threshold-based product -- stays inside this
class, and all coordinates are exact rationals, so function equality is
decidable by comparing canonical forms.

Representation: ``breakpoints`` is a strictly increasing tuple of rationals
starting at 0 and ending at 1; ``values[i]`` is the function value at
``breakpoints[i]``; ``pieces[i] = (slope, intercept)`` gives the value
``slope*x + intercept`` on the open interval between breakpoints i and i+1.
Canonical form removes every breakpoint at which the function is affine-
continuous, so two instances describe the same pointwise function iff their
canonical forms are equal componentwise.

Validation happens once, at the boundary: ``PiecewiseFn(...)``,
``from_json_dict``/``loads`` and the named constructors check every part.
A function the library computes from valid ones (pointwise min/max,
reflection, envelopes, canonical forms, the threshold product) is sealed by
``_sealed`` unchecked: its parts are exact rationals derived from valid
parts by an operation closed on the class, so a check could only re-prove
that on every build. A test routes ``_sealed`` through the constructor.

Equality and hashing are structural over an integer key precomputed at
construction; Fraction hashing is too slow to sit under the memoized
envelope operators otherwise.

This module (and ``star``, through its helpers) compares rationals by
cross-multiplying their integer slots ``_numerator`` and ``_denominator``
rather than through ``Fraction``'s rich comparisons, which dispatch through
the ``numbers`` ABCs on every call. ``Fraction`` always holds lowest terms
with a positive denominator, so p < q exactly when p.num * q.den <
q.num * p.den, and p == q exactly when both slots agree. Arguments and
results stay ``Fraction`` at the API. The kernel compares in integer slots
first and builds a ``Fraction`` only for a value kept in a result: a piece
limit or a crossing stays an unreduced integer ratio until it wins.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, ValidationError
from .rationals import ONE, UNPRINTABLE, ZERO, _in_unit, format_rational, to_rational, to_unit

Affine = tuple[Fraction, Fraction]

_CACHE = 16384


def _lt(p: Fraction, q: Fraction) -> bool:
    return p._numerator * q._denominator < q._numerator * p._denominator


def _same(p: Fraction, q: Fraction) -> bool:
    return p._numerator == q._numerator and p._denominator == q._denominator


def _same_piece(p: Affine, q: Affine) -> bool:
    return _same(p[0], q[0]) and _same(p[1], q[1])


def _min(p: Fraction, q: Fraction) -> Fraction:
    return q if _lt(q, p) else p  # the first of equals, as builtins.min


def _max(p: Fraction, q: Fraction) -> Fraction:
    return q if _lt(p, q) else p  # the first of equals, as builtins.max


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
    return Fraction(num, den) if _cmp(q, num, den) < 0 else q


def _affine_above(p1: Affine, p2: Affine, x: Fraction) -> bool:
    # p1(x) > p2(x)
    n1, d1 = _affine_ratio(p1, x)
    n2, d2 = _affine_ratio(p2, x)
    return n1 * d2 > n2 * d1


def _fraction_tuple(items, coerce) -> tuple[Fraction, ...]:
    if isinstance(items, tuple) and all(type(x) is Fraction for x in items):
        return items
    return tuple(coerce(x) for x in items)


@dataclass(frozen=True, eq=False)
class PiecewiseFn:
    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    pieces: tuple[Affine, ...]

    def __post_init__(self):
        breaks = _fraction_tuple(self.breakpoints, to_unit)
        values = _fraction_tuple(self.values, to_unit)
        pieces = tuple((to_rational(p[0]), to_rational(p[1])) for p in self.pieces)
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
        for q in values:
            if not _in_unit(q):
                raise ValidationError(f"value {q} outside [0, 1]")
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
        """Store the parts, unchecked, and the integer key of equality."""
        object.__setattr__(self, "breakpoints", breaks)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "pieces", pieces)
        key = []
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
        q, i, on_break = _locate(self, x)
        if on_break:
            raise DomainError(f"{q} is a breakpoint, not interior to a piece")
        return self.pieces[i - 1]

    def left_limit(self, i: int) -> Fraction:
        """Limit from below at breakpoint i (1 <= i <= len-1)."""
        if not 1 <= i < len(self.breakpoints):
            raise DomainError(f"no limit from below at breakpoint {i}")
        return Fraction(*_affine_ratio(self.pieces[i - 1], self.breakpoints[i]))

    def right_limit(self, i: int) -> Fraction:
        """Limit from above at breakpoint i (0 <= i <= len-2)."""
        if not 0 <= i < len(self.pieces):
            raise DomainError(f"no limit from above at breakpoint {i}")
        return Fraction(*_affine_ratio(self.pieces[i], self.breakpoints[i]))


def _locate(f: PiecewiseFn, x) -> tuple[Fraction, int, bool]:
    # (x coerced to q in [0, 1], the first i with q <= b_i, whether q = b_i)
    q = to_unit(x)
    n, d = q._numerator, q._denominator
    # b < q exactly when b.num * d - n * b.den < 0, so this is bisect_left
    i = bisect_left(f.breakpoints, 0, key=lambda b: b._numerator * d - n * b._denominator)
    return q, i, _same(f.breakpoints[i], q)  # q <= 1, the last breakpoint


def evaluate(f: PiecewiseFn, x) -> Fraction:
    """Exact value of f at x: breakpoint value or affine piece value."""
    q, i, on_break = _locate(f, x)
    return f.values[i] if on_break else Fraction(*_affine_ratio(f.pieces[i - 1], q))


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
        return None
    return (
        tuple(breaks[i] for i in keep),
        tuple(values[i] for i in keep),
        tuple(pieces[i] for i in keep[:-1]),
    )


def _sealed(breaks, values, pieces) -> PiecewiseFn:
    """A library-built function, sealed unchecked (see the module docstring)."""
    return object.__new__(PiecewiseFn)._seal(breaks, values, pieces)


def _build_canonical(breaks, values, pieces) -> PiecewiseFn:
    # construct once, directly in canonical form (hot-path constructor)
    parts = _canonical_parts(breaks, values, pieces)
    if parts is None:
        return _sealed(tuple(breaks), tuple(values), tuple(pieces))
    return _sealed(*parts)


@lru_cache(maxsize=_CACHE)
def canonicalize(f: PiecewiseFn) -> PiecewiseFn:
    """Unique minimal representation of the same pointwise function."""
    parts = _canonical_parts(f.breakpoints, f.values, f.pieces)
    if parts is None:
        return f
    return _sealed(*parts)


def equals(f: PiecewiseFn, g: PiecewiseFn) -> bool:
    """Pointwise equality, decided via canonical forms."""
    return canonicalize(f) == canonicalize(g)


# ---------------------------------------------------------------------------
# constructors


def constant(c) -> PiecewiseFn:
    v = to_unit(c)
    return PiecewiseFn((ZERO, ONE), (v, v), ((ZERO, v),))


def from_affine(slope, intercept) -> PiecewiseFn:
    """The affine function slope*x + intercept, which must stay in [0, 1]."""
    s, c = to_rational(slope), to_rational(intercept)
    return PiecewiseFn((ZERO, ONE), (c, s + c), ((s, c),))


@lru_cache(maxsize=4096)
def _indicator(lo: Fraction, hi: Fraction) -> PiecewiseFn:
    breaks = sorted({ZERO, lo, hi, ONE})
    values = tuple(ONE if lo <= x <= hi else ZERO for x in breaks)
    pieces = tuple(
        (ZERO, ONE) if lo <= l and r <= hi else (ZERO, ZERO)
        for l, r in zip(breaks, breaks[1:])
    )
    return _build_canonical(breaks, values, pieces)


def indicator(a, b) -> PiecewiseFn:
    """Characteristic function of the closed interval [a, b]."""
    lo, hi = to_unit(a), to_unit(b)
    if _lt(hi, lo):
        raise DomainError(f"indicator needs a <= b, got {lo} > {hi}")
    return _indicator(lo, hi)


def unit_spike(x) -> PiecewiseFn:
    """Indicator of the singleton {x}."""
    return indicator(x, x)


def step(drop_at, high, low) -> PiecewiseFn:
    """Two-level step: ``high`` on [0, drop_at], ``low`` on (drop_at, 1]."""
    d = to_unit(drop_at)
    hi, lo = to_unit(high), to_unit(low)
    if d == ZERO:
        return PiecewiseFn((ZERO, ONE), (hi, lo), ((ZERO, lo),))
    if d == ONE:
        return constant(hi)
    return _build_canonical(
        (ZERO, d, ONE), (hi, hi, lo), ((ZERO, hi), (ZERO, lo))
    )


def rising_ramp(floor) -> PiecewiseFn:
    """Affine ramp from ``floor`` at 0 up to 1 at 1."""
    c = to_unit(floor)
    return from_affine(ONE - c, c)


def falling_ramp(end) -> PiecewiseFn:
    """Affine ramp from 1 at 0 down to ``end`` at 1."""
    e = to_unit(end)
    return from_affine(e - ONE, ONE)


# ---------------------------------------------------------------------------
# pointwise lattice operations and reflection


def _merged(f: PiecewiseFn, g: PiecewiseFn):
    """(a, b, p1, p2, fx, gx) for each open interval (a, b) between merged
    breakpoints of f and g, left to right, where f and g are the pieces p1
    and p2; fx = f(b) as (num, den > 0, kept), kept being f's stored value
    at b or None off its breakpoints, and gx likewise. The last has b = 1."""
    fb, fv, fp = f.breakpoints, f.values, f.pieces
    gb, gv, gp = g.breakpoints, g.values, g.pieces
    a = ZERO
    i = j = 0
    last_f = len(fp) - 1
    while True:
        p1, p2 = fp[i], gp[j]
        # the nearer of the two next breakpoints, and whether each sweep is on it
        bf, bg = fb[i + 1], gb[j + 1]
        d = bf._numerator * bg._denominator - bg._numerator * bf._denominator
        on_f, on_g = d <= 0, d >= 0
        b = bf if on_f else bg
        q, r = fv[i + 1], gv[j + 1]
        fx = (q._numerator, q._denominator, q) if on_f else (*_affine_ratio(p1, b), None)
        gx = (r._numerator, r._denominator, r) if on_g else (*_affine_ratio(p2, b), None)
        yield a, b, p1, p2, fx, gx
        if on_f and i == last_f:
            return
        i += on_f
        j += on_g
        a = b


def _combine_parts(f: PiecewiseFn, g: PiecewiseFn, take_min: bool):
    """Breakpoints, values and pieces of min(f, g) or max(f, g), not yet
    canonical: one pass over the merged intervals."""
    # Where the pieces of f and g cross strictly inside a merged interval,
    # the crossing becomes a breakpoint and the winner swaps there.
    breaks = [ZERO]
    values = [(_min if take_min else _max)(f.values[0], g.values[0])]
    pieces: list[Affine] = []
    for a, b, p1, p2, fx, gx in _merged(f, g):
        (s1, c1), (s2, c2) = p1, p2
        # ds has the sign of s1 - s2, as has f - g right of a crossing
        ds = s1._numerator * s2._denominator - s2._numerator * s1._denominator
        if _same_piece(p1, p2):
            pieces.append(p1)
        elif not ds:
            # parallel: the lower (for min) or higher intercept wins
            pieces.append(p1 if _lt(c1, c2) == take_min else p2)
        else:
            # the crossing (c2 - c1) / (s1 - s2) as xn / xd with xd > 0
            xn = c2._numerator * c1._denominator - c1._numerator * c2._denominator
            xn *= s1._denominator * s2._denominator * (1 if ds > 0 else -1)
            xd = abs(ds) * c1._denominator * c2._denominator
            after = p1 if (ds < 0) == take_min else p2
            if _cmp(a, xn, xd) >= 0:
                pieces.append(after)
            else:
                pieces.append(p2 if after is p1 else p1)
                if _cmp(b, xn, xd) > 0:
                    x = Fraction(xn, xd)
                    breaks.append(x)
                    values.append(Fraction(*_affine_ratio(p1, x)))
                    pieces.append(after)
        breaks.append(b)
        # the first of equals, as _min and _max: g only where it strictly wins
        dv = gx[0] * fx[1] - fx[0] * gx[1]
        win = gx if (dv < 0 if take_min else dv > 0) else fx
        values.append(win[2] if win[2] is not None else Fraction(win[0], win[1]))
    return breaks, values, pieces


def pointwise_min(f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
    return _build_canonical(*_combine_parts(f, g, take_min=True))


def pointwise_max(f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
    return _build_canonical(*_combine_parts(f, g, take_min=False))


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


@lru_cache(maxsize=_CACHE)
def reflect(f: PiecewiseFn) -> PiecewiseFn:
    """The complementation x -> f(1-x); an involution."""
    breaks = tuple(ONE - b for b in reversed(f.breakpoints))
    values = tuple(reversed(f.values))
    pieces = tuple((-s, s + c) for (s, c) in reversed(f.pieces))
    return _build_canonical(breaks, values, pieces)


# ---------------------------------------------------------------------------
# envelopes (running suprema)


def _running_sup(f: PiecewiseFn, rightward: bool):
    """Breakpoints, values and pieces of the running supremum of f, walked
    from 0 (rightward) or from 1, in ascending order and not yet canonical.

    Each interval is entered at its near end and left at its far end; a
    piece that rises toward the far end is kept from where it passes the
    running supremum on, and one-sided limits count toward the supremum.
    """
    fb, fv, fp = f.breakpoints, f.values, f.pieces
    start, near, far, rising = (0, 0, 1, 1) if rightward else (-1, 1, 0, -1)
    order = range(len(fp)) if rightward else reversed(range(len(fp)))
    running = fv[start]
    breaks, values = [fb[start]], [running]
    pieces: list[Affine] = []
    for i in order:
        s, c = piece = fp[i]
        if s._numerator * rising > 0:
            # rising: only the far limit can raise the running supremum
            far_lim = _affine_ratio(piece, fb[i + far])
            if _cmp(running, *_affine_ratio(piece, fb[i + near])) <= 0:
                pieces.append(piece)
            elif _cmp(running, *far_lim) >= 0:
                pieces.append((ZERO, running))
            else:
                pieces.append((ZERO, running))
                breaks.append((running - c) / s)  # where the piece passes it
                values.append(running)
                pieces.append(piece)
            running = _raised(_max(running, fv[i + far]), *far_lim)
        else:
            # flat or falling: only the near limit can raise it
            running = _raised(running, *_affine_ratio(piece, fb[i + near]))
            pieces.append((ZERO, running))
            running = _max(running, fv[i + far])
        breaks.append(fb[i + far])
        values.append(running)
    if rightward:
        return breaks, values, pieces
    return breaks[::-1], values[::-1], pieces[::-1]


@lru_cache(maxsize=_CACHE)
def envelope_left(f: PiecewiseFn) -> PiecewiseFn:
    """Running supremum from the left: x -> sup{f(y) | y <= x}.

    Increasing, idempotent, and exact: one-sided limits of pieces count
    toward the supremum even where the bound is not attained.
    """
    return _build_canonical(*_running_sup(f, rightward=True))


@lru_cache(maxsize=_CACHE)
def envelope_right(f: PiecewiseFn) -> PiecewiseFn:
    """Running supremum from the right: x -> sup{f(y) | y >= x}. Decreasing."""
    return _build_canonical(*_running_sup(f, rightward=False))


def envelope_left_strict(f: PiecewiseFn) -> PiecewiseFn:
    """Strict left envelope: sup over y < x, with value f(0) at x = 0.

    Coincides with the plain left envelope except at breakpoints, where it
    takes the limit from below instead of the attained value.
    """
    g = envelope_left(f)
    values = [f.values[0]]
    values.extend(g.left_limit(i) for i in range(1, len(g.breakpoints)))
    return _build_canonical(g.breakpoints, values, g.pieces)


def envelope_right_strict(f: PiecewiseFn) -> PiecewiseFn:
    """Strict right envelope: sup over y > x, with value f(1) at x = 1."""
    g = envelope_right(f)
    values = [g.right_limit(i) for i in range(len(g.breakpoints) - 1)]
    values.append(f.values[-1])
    return _build_canonical(g.breakpoints, values, g.pieces)


def sup_value(f: PiecewiseFn) -> Fraction:
    """Exact supremum over [0, 1], attained or approached: the value the left
    envelope ends on."""
    return envelope_left(f).values[-1]


def is_normal(f: PiecewiseFn) -> bool:
    return _same(sup_value(f), ONE)


@lru_cache(maxsize=_CACHE)
def is_convex(f: PiecewiseFn) -> bool:
    """Fuzzy convexity (quasiconcavity): f equals the meet of its envelopes."""
    return equals(f, pointwise_min(envelope_left(f), envelope_right(f)))


def in_lattice(f: PiecewiseFn) -> bool:
    """Membership in the normal-and-convex class the threshold product lives on."""
    return is_normal(f) and is_convex(f)


def _indicator_ones(f: PiecewiseFn) -> list[Fraction]:
    # the breakpoints at which f is 1 if f is the indicator of the closed
    # interval they span, and no breakpoints otherwise
    g = canonicalize(f)
    ones = [b for b, v in zip(g.breakpoints, g.values) if _same(v, ONE)]
    return ones if ones and g == _indicator(ones[0], ones[-1]) else []


def is_point_indicator(f: PiecewiseFn) -> bool:
    """True iff f is the characteristic function of some singleton."""
    return len(_indicator_ones(f)) == 1


def is_interval_indicator(f: PiecewiseFn) -> bool:
    """True iff f is the characteristic function of some closed interval."""
    return bool(_indicator_ones(f))


# ---------------------------------------------------------------------------
# envelope level-set thresholds


@dataclass(frozen=True)
class EnvelopeThresholds:
    eta: Fraction
    xi: Fraction


def _one_level_end(h: PiecewiseFn, rightward: bool) -> tuple[Fraction, Fraction]:
    # The first breakpoint, walking from 0 (rightward) or from 1, at which
    # the monotone envelope h is 1 or is 1 just beyond, with h's value there:
    # the inf (rightward) or sup of {x | h(x) = 1}, maybe a piece's open end.
    # There is none exactly when the function h envelops is not normal.
    last = len(h.pieces)
    for k in range(last + 1):
        i = k if rightward else last - k
        beyond = i if rightward else i - 1
        if _same(h.values[i], ONE) or (
            0 <= beyond < last and _same_piece(h.pieces[beyond], (ZERO, ONE))
        ):
            return h.breakpoints[i], h.values[i]
    side = "left" if rightward else "right"
    raise DomainError(f"{side}_threshold requires a normal function")


@lru_cache(maxsize=_CACHE)
def left_threshold(f: PiecewiseFn) -> Fraction:
    """inf{x | left envelope of f reaches 1}; requires f normal."""
    return _one_level_end(envelope_left(f), rightward=True)[0]


@lru_cache(maxsize=_CACHE)
def _right_end(f: PiecewiseFn) -> tuple[Fraction, Fraction]:
    # (right threshold of f, its right envelope's value there), for star
    return _one_level_end(envelope_right(f), rightward=False)


def right_threshold(f: PiecewiseFn) -> Fraction:
    """sup{x | right envelope of f reaches 1}; requires f normal."""
    return _right_end(f)[0]


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
    try:
        return {
            "breakpoints": [
                {"x": str(b), "v": str(v)} for b, v in zip(f.breakpoints, f.values)
            ],
            "pieces": [{"slope": str(s), "intercept": str(c)} for s, c in f.pieces],
        }
    except ValueError:  # str() of a rational past the digit limit
        raise ValidationError(UNPRINTABLE) from None


def from_json_dict(data) -> PiecewiseFn:
    if not isinstance(data, dict):
        raise ValidationError("function JSON must be an object")
    try:
        bks = data["breakpoints"]
        pcs = data["pieces"]
        breaks = tuple(to_unit(entry["x"]) for entry in bks)
        values = tuple(to_unit(entry["v"]) for entry in bks)
        pieces = tuple(
            (to_rational(p["slope"]), to_rational(p["intercept"])) for p in pcs
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed function JSON: {exc}") from exc
    return PiecewiseFn(breaks, values, pieces)


def dumps(f: PiecewiseFn, indent: int | None = None) -> str:
    return json.dumps(to_json_dict(f), indent=indent)


def loads(text: str) -> PiecewiseFn:
    try:
        data = json.loads(text)
    except ValueError as exc:  # malformed, or an int literal over the digit limit
        raise ValidationError(f"invalid JSON: {exc}") from exc
    except RecursionError:  # arrays or objects nested deeper than json can read
        raise ValidationError("invalid JSON: nested too deeply") from None
    return from_json_dict(data)


def sample_rows(
    f: PiecewiseFn, sample_count: int = 11, decimal: bool = False
) -> list[tuple[str, str]]:
    """(x, value) rows at evenly spaced samples plus all breakpoints."""
    if sample_count < 2:
        raise ValidationError("need at least 2 sample points")
    xs = {Fraction(k, sample_count - 1) for k in range(sample_count)}
    xs.update(f.breakpoints)
    return [
        (format_rational(x, decimal), format_rational(evaluate(f, x), decimal))
        for x in sorted(xs)
    ]
