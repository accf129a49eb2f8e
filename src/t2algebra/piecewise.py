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

Equality and hashing are structural over an integer key precomputed at
construction; Fraction hashing is too slow to sit under the memoized
envelope operators otherwise.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, ValidationError
from .rationals import ONE, ZERO, format_rational, to_rational, to_unit

Affine = tuple[Fraction, Fraction]

_CACHE = 16384


def _affine_at(piece: Affine, x: Fraction) -> Fraction:
    slope, intercept = piece
    return slope * x + intercept


def _in_unit(q: Fraction) -> bool:
    # denominators are positive after normalization, so [0,1] is an int check;
    # the slot attributes skip two property calls on a very hot path
    return 0 <= q._numerator <= q._denominator


def _affine_in_unit(piece: Affine, x: Fraction) -> bool:
    # slope*x + intercept in [0, 1], cross-multiplied over positive integers
    s, c = piece
    den = s._denominator * x._denominator
    num = s._numerator * x._numerator * c._denominator + c._numerator * den
    return 0 <= num <= den * c._denominator


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
        pieces = self.pieces
        if not (
            isinstance(pieces, tuple)
            and all(
                type(p) is tuple
                and len(p) == 2
                and type(p[0]) is Fraction
                and type(p[1]) is Fraction
                for p in pieces
            )
        ):
            pieces = tuple(
                (to_rational(p[0]), to_rational(p[1])) for p in pieces
            )
        object.__setattr__(self, "breakpoints", breaks)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "pieces", pieces)
        if len(breaks) < 2:
            raise ValidationError("need at least the two endpoint breakpoints")
        if breaks[0] != ZERO or breaks[-1] != ONE:
            raise ValidationError("breakpoints must start at 0 and end at 1")
        if any(a >= b for a, b in zip(breaks, breaks[1:])):
            raise ValidationError("breakpoints must be strictly increasing")
        if len(values) != len(breaks):
            raise ValidationError("one value per breakpoint required")
        if len(pieces) != len(breaks) - 1:
            raise ValidationError("one affine piece per open interval required")
        for q in breaks:
            if not _in_unit(q):
                raise ValidationError(f"breakpoint {q} outside [0, 1]")
        for q in values:
            if not _in_unit(q):
                raise ValidationError(f"value {q} outside [0, 1]")
        for i, piece in enumerate(pieces):
            for x in (breaks[i], breaks[i + 1]):
                if not _affine_in_unit(piece, x):
                    raise ValidationError(
                        f"piece {i} reaches {_affine_at(piece, x)} at {x}, "
                        "outside [0, 1]"
                    )
        key = []
        for q in breaks:
            key.append(q.numerator)
            key.append(q.denominator)
        for q in values:
            key.append(q.numerator)
            key.append(q.denominator)
        for s, c in pieces:
            key.append(s.numerator)
            key.append(s.denominator)
            key.append(c.numerator)
            key.append(c.denominator)
        key = tuple(key)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

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

    def piece_containing(self, x: Fraction) -> Affine:
        """Affine piece of the open interval strictly containing x."""
        i = bisect_left(self.breakpoints, x)
        if i < len(self.breakpoints) and self.breakpoints[i] == x:
            raise ValueError(f"{x} is a breakpoint, not interior to a piece")
        return self.pieces[i - 1]

    def left_limit(self, i: int) -> Fraction:
        """Limit from below at breakpoint i (i >= 1)."""
        return _affine_at(self.pieces[i - 1], self.breakpoints[i])

    def right_limit(self, i: int) -> Fraction:
        """Limit from above at breakpoint i (i <= len-2)."""
        return _affine_at(self.pieces[i], self.breakpoints[i])


def evaluate(f: PiecewiseFn, x) -> Fraction:
    """Exact value of f at x: breakpoint value or affine piece value."""
    if type(x) is Fraction:
        q = x
        if not _in_unit(q):
            raise ValidationError(f"{q} lies outside [0, 1]")
    else:
        q = to_unit(x)
    i = bisect_left(f.breakpoints, q)
    if i < len(f.breakpoints) and f.breakpoints[i] == q:
        return f.values[i]
    return _affine_at(f.pieces[i - 1], q)


def _canonical_parts(breaks, values, pieces):
    keep = [0]
    for i in range(1, len(breaks) - 1):
        removable = (
            pieces[i - 1] == pieces[i]
            and values[i] == _affine_at(pieces[i], breaks[i])
        )
        if not removable:
            keep.append(i)
    keep.append(len(breaks) - 1)
    if len(keep) == len(breaks):
        return None
    return (
        tuple(breaks[i] for i in keep),
        tuple(values[i] for i in keep),
        tuple(pieces[i] for i in keep[:-1]),
    )


def _build_canonical(breaks, values, pieces) -> PiecewiseFn:
    # construct once, directly in canonical form (hot-path constructor)
    parts = _canonical_parts(breaks, values, pieces)
    if parts is None:
        return PiecewiseFn(tuple(breaks), tuple(values), tuple(pieces))
    return PiecewiseFn(*parts)


@lru_cache(maxsize=_CACHE)
def canonicalize(f: PiecewiseFn) -> PiecewiseFn:
    """Unique minimal representation of the same pointwise function."""
    parts = _canonical_parts(f.breakpoints, f.values, f.pieces)
    if parts is None:
        return f
    return PiecewiseFn(*parts)


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
    if lo > hi:
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


def _next_break(bf: Fraction, bg: Fraction) -> tuple[Fraction, bool, bool]:
    # the nearer of the two next breakpoints, and whether each sweep is on it
    if bf < bg:
        return bf, True, False
    if bg < bf:
        return bg, False, True
    return bf, True, True


def _combine_parts(f: PiecewiseFn, g: PiecewiseFn, take_min: bool):
    """Breakpoints, values and pieces of min(f, g) or max(f, g), not yet
    canonical: one two-pointer sweep over both piece lists."""
    # Each step covers the open interval (a, b) between consecutive merged
    # breakpoints, on which f and g are the single pieces p1 and p2; where
    # those cross strictly inside, the crossing becomes a breakpoint and the
    # winner swaps there.
    fb, fv, fp = f.breakpoints, f.values, f.pieces
    gb, gv, gp = g.breakpoints, g.values, g.pieces
    pick = min if take_min else max
    breaks = [ZERO]
    values = [pick(fv[0], gv[0])]
    pieces: list[Affine] = []
    a = ZERO
    i = j = 0
    last_f = len(fp) - 1
    while True:
        p1, p2 = fp[i], gp[j]
        b, on_f, on_g = _next_break(fb[i + 1], gb[j + 1])
        if p1 == p2:
            pieces.append(p1)
        else:
            s1, c1 = p1
            s2, c2 = p2
            if s1 == s2:
                # parallel: the lower (for min) or higher intercept wins
                pieces.append(p1 if (c1 < c2) == take_min else p2)
            else:
                x = (c2 - c1) / (s1 - s2)
                # right of the crossing f - g has the sign of s1 - s2
                after = p1 if (s1 < s2) == take_min else p2
                if x <= a:
                    pieces.append(after)
                else:
                    before = p2 if after is p1 else p1
                    pieces.append(before)
                    if x < b:
                        breaks.append(x)
                        values.append(s1 * x + c1)
                        pieces.append(after)
        fx = fv[i + 1] if on_f else p1[0] * b + p1[1]
        gx = gv[j + 1] if on_g else p2[0] * b + p2[1]
        breaks.append(b)
        values.append(pick(fx, gx))
        if on_f and i == last_f:
            return breaks, values, pieces
        i += on_f
        j += on_g
        a = b


def pointwise_min(f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
    return _build_canonical(*_combine_parts(f, g, take_min=True))


def pointwise_max(f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
    return _build_canonical(*_combine_parts(f, g, take_min=False))


def pointwise_leq(f: PiecewiseFn, g: PiecewiseFn) -> bool:
    """True iff f(x) <= g(x) for every x in [0, 1]. Exact."""
    fb, fv, fp = f.breakpoints, f.values, f.pieces
    gb, gv, gp = g.breakpoints, g.values, g.pieces
    if fv[0] > gv[0]:
        return False
    a = ZERO
    i = j = 0
    last_f = len(fp) - 1
    while True:
        p1, p2 = fp[i], gp[j]
        b, on_f, on_g = _next_break(fb[i + 1], gb[j + 1])
        if p1 != p2:
            # affine comparison on an interval reduces to its endpoints
            (s1, c1), (s2, c2) = p1, p2
            if s1 * a + c1 > s2 * a + c2 or s1 * b + c1 > s2 * b + c2:
                return False
        fx = fv[i + 1] if on_f else p1[0] * b + p1[1]
        gx = gv[j + 1] if on_g else p2[0] * b + p2[1]
        if fx > gx:
            return False
        if on_f and i == last_f:
            return True
        i += on_f
        j += on_g
        a = b


@lru_cache(maxsize=_CACHE)
def reflect(f: PiecewiseFn) -> PiecewiseFn:
    """The complementation x -> f(1-x); an involution."""
    breaks = tuple(ONE - b for b in reversed(f.breakpoints))
    values = tuple(reversed(f.values))
    pieces = tuple((-s, s + c) for (s, c) in reversed(f.pieces))
    return _build_canonical(breaks, values, pieces)


# ---------------------------------------------------------------------------
# envelopes (running suprema)


@lru_cache(maxsize=_CACHE)
def envelope_left(f: PiecewiseFn) -> PiecewiseFn:
    """Running supremum from the left: x -> sup{f(y) | y <= x}.

    Increasing, idempotent, and exact: one-sided limits of pieces count
    toward the supremum even where the bound is not attained.
    """
    breaks = [f.breakpoints[0]]
    values = [f.values[0]]
    pieces: list[Affine] = []
    running = f.values[0]
    for i, (s, c) in enumerate(f.pieces):
        a, b = f.breakpoints[i], f.breakpoints[i + 1]
        lo_lim = s * a + c
        hi_lim = s * b + c
        if s.numerator > 0:
            if lo_lim >= running:
                pieces.append((s, c))
            elif hi_lim <= running:
                pieces.append((ZERO, running))
            else:
                crossing = (running - c) / s
                pieces.append((ZERO, running))
                breaks.append(crossing)
                values.append(running)
                pieces.append((s, c))
        else:
            pieces.append((ZERO, max(running, lo_lim)))
        running = max(running, lo_lim, hi_lim, f.values[i + 1])
        breaks.append(b)
        values.append(running)
    return _build_canonical(breaks, values, pieces)


@lru_cache(maxsize=_CACHE)
def envelope_right(f: PiecewiseFn) -> PiecewiseFn:
    """Running supremum from the right: x -> sup{f(y) | y >= x}. Decreasing."""
    breaks = [f.breakpoints[-1]]
    values = [f.values[-1]]
    pieces: list[Affine] = []
    running = f.values[-1]
    for i in range(len(f.pieces) - 1, -1, -1):
        s, c = f.pieces[i]
        a, b = f.breakpoints[i], f.breakpoints[i + 1]
        lo_lim = s * a + c
        hi_lim = s * b + c
        if s.numerator < 0:
            if hi_lim >= running:
                pieces.append((s, c))
            elif lo_lim <= running:
                pieces.append((ZERO, running))
            else:
                crossing = (running - c) / s
                pieces.append((ZERO, running))
                breaks.append(crossing)
                values.append(running)
                pieces.append((s, c))
        else:
            pieces.append((ZERO, max(running, hi_lim)))
        running = max(running, lo_lim, hi_lim, f.values[i])
        breaks.append(a)
        values.append(running)
    breaks.reverse()
    values.reverse()
    pieces.reverse()
    return _build_canonical(breaks, values, pieces)


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


@lru_cache(maxsize=_CACHE)
def sup_value(f: PiecewiseFn) -> Fraction:
    """Exact supremum over [0, 1], attained or approached."""
    best = max(f.values)
    for i, piece in enumerate(f.pieces):
        best = max(
            best,
            _affine_at(piece, f.breakpoints[i]),
            _affine_at(piece, f.breakpoints[i + 1]),
        )
    return best


def is_normal(f: PiecewiseFn) -> bool:
    return sup_value(f) == ONE


@lru_cache(maxsize=_CACHE)
def is_convex(f: PiecewiseFn) -> bool:
    """Fuzzy convexity (quasiconcavity): f equals the meet of its envelopes."""
    return equals(f, pointwise_min(envelope_left(f), envelope_right(f)))


def in_lattice(f: PiecewiseFn) -> bool:
    """Membership in the normal-and-convex class the threshold product lives on."""
    return is_normal(f) and is_convex(f)


def is_point_indicator(f: PiecewiseFn) -> bool:
    """True iff f is the characteristic function of some singleton."""
    g = canonicalize(f)
    for b, v in zip(g.breakpoints, g.values):
        if v == ONE:
            return g == indicator(b, b)
    return False


def is_interval_indicator(f: PiecewiseFn) -> bool:
    """True iff f is the characteristic function of some closed interval."""
    g = canonicalize(f)
    ones = [b for b, v in zip(g.breakpoints, g.values) if v == ONE]
    if not ones:
        return False
    return g == indicator(ones[0], ones[-1])


# ---------------------------------------------------------------------------
# envelope level-set thresholds


@dataclass(frozen=True)
class EnvelopeThresholds:
    eta: Fraction
    xi: Fraction


def _first_at_one(h: PiecewiseFn) -> Fraction:
    # inf of {x | h(x) = 1} for an increasing h that reaches 1; the inf of a
    # piece that sits at 1 on an open interval is the interval's left end.
    for i in range(len(h.breakpoints)):
        if h.values[i] == ONE:
            return h.breakpoints[i]
        if i < len(h.pieces) and h.pieces[i] == (ZERO, ONE):
            return h.breakpoints[i]
    raise DomainError("function never reaches 1: not normal")


def _last_at_one(h: PiecewiseFn) -> Fraction:
    # sup of {x | h(x) = 1} for a decreasing h that starts at 1.
    for i in range(len(h.breakpoints) - 1, -1, -1):
        if h.values[i] == ONE:
            return h.breakpoints[i]
        if i > 0 and h.pieces[i - 1] == (ZERO, ONE):
            return h.breakpoints[i]
    raise DomainError("function never reaches 1: not normal")


@lru_cache(maxsize=_CACHE)
def left_threshold(f: PiecewiseFn) -> Fraction:
    """inf{x | left envelope of f reaches 1}; requires f normal."""
    if not is_normal(f):
        raise DomainError("left_threshold requires a normal function")
    return _first_at_one(envelope_left(f))


@lru_cache(maxsize=_CACHE)
def right_threshold(f: PiecewiseFn) -> Fraction:
    """sup{x | right envelope of f reaches 1}; requires f normal."""
    if not is_normal(f):
        raise DomainError("right_threshold requires a normal function")
    return _last_at_one(envelope_right(f))


def thresholds(f: PiecewiseFn, g: PiecewiseFn) -> EnvelopeThresholds:
    """Pairwise thresholds: min of the per-function envelope levels.

    eta <= xi is guaranteed for normal inputs because each function's own
    left threshold never exceeds its right threshold.
    """
    eta = min(left_threshold(f), left_threshold(g))
    xi = min(right_threshold(f), right_threshold(g))
    return EnvelopeThresholds(eta, xi)


# ---------------------------------------------------------------------------
# JSON serialization (exact round-trip)


def to_json_dict(f: PiecewiseFn) -> dict:
    return {
        "breakpoints": [
            {"x": str(b), "v": str(v)} for b, v in zip(f.breakpoints, f.values)
        ],
        "pieces": [{"slope": str(s), "intercept": str(c)} for s, c in f.pieces],
    }


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
