"""Independent test oracles.

These deliberately avoid the library's envelope and closed-form machinery:
suprema are found by enumerating candidate extrema straight off the
representation (breakpoint values and one-sided piece limits), and
convolutions by literal enumeration over grid pairs. Agreement between
these and the production paths is what the dual-route tests assert.

``exact_sup`` enumerates only the breakpoints and pieces that meet the
interval, found by bisection; ``exact_sup_full_scan`` is the literal scan
over the whole representation that it is checked against. The probe of
``quasiconcave_violation`` gets the suprema over [0, y] and [y, 1] at all
its sorted probes from two sweeps, one from each end. Each walks the probes
and f's breakpoints together and keeps a running maximum of the same
candidates: the breakpoint values and piece limits it has passed.

The pointwise min/max/leq reference routes re-derive each merged interval's
pieces by a midpoint lookup and each breakpoint value by ``evaluate``; the
library's one-sweep versions are checked against them.

``reference_tail_value`` is the threshold product's value at xi evaluated
on both right envelopes, which the library reads off its threshold scan.

``reference_indicator_ends`` finds the set where f is 1 from f's raw parts,
canonical or not, and checks it is a closed interval by evaluation; the
library compares f with the splice of zero parts at its threshold ends instead.

``reference_star_value`` is the threshold product's value at x away from
its neutral element, from its definition: the join of the left envelopes
below eta, 1 on [eta, xi), the meet of the right envelopes at xi and 0
beyond, with every envelope value an ``exact_sup`` and the thresholds from
``oracle_level_one_ends``.

``reference_splice`` finds ``_splice``'s cuts by bisection, where the library
walks in from the near ends, and builds the result through the checked
constructor.

``raw_value`` evaluates raw (breakpoints, values, pieces) parts, canonical
or not, without building a ``PiecewiseFn``: the constructor's canonical form
is checked against it.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import ge, le

from t2algebra import PiecewiseFn, envelope_right, evaluate

ZERO = Fraction(0)
ONE = Fraction(1)


def raw_value(parts, x: Fraction) -> Fraction:
    """The value at x of the raw parts (breakpoints, values, pieces): the
    value stored at a breakpoint, else that of the piece whose open interval
    holds x."""
    breaks, values, pieces = parts
    for b, v in zip(breaks, values):
        if b == x:
            return v
    for a, b, (s, c) in zip(breaks, breaks[1:], pieces):
        if a < x < b:
            return s * x + c
    raise ValueError(f"{x} lies outside [0, 1]")


def exact_sup(
    f: PiecewiseFn,
    lo: Fraction,
    hi: Fraction,
    include_lo: bool = True,
    include_hi: bool = True,
) -> Fraction:
    """Supremum of f over an interval, by candidate enumeration.

    A piecewise-affine function attains its supremum over any interval at a
    breakpoint or as a one-sided limit at an interval end; both are
    enumerable. Suprema count limits whether or not they are attained. Only
    the breakpoints in [lo, hi] and the pieces meeting (lo, hi) are visited.
    """
    if lo == hi:
        if not (include_lo and include_hi):
            raise ValueError("empty interval")
        return evaluate(f, lo)
    bks = f.breakpoints
    # breakpoints first..stop-1 lie in [lo, hi]; only the outer two can sit
    # on an end of the interval
    first = bisect_left(bks, lo)
    stop = bisect_right(bks, hi)
    on_lo = first < stop and bks[first] == lo
    on_hi = first < stop and bks[stop - 1] == hi
    drop_lo = on_lo and not include_lo
    drop_hi = on_hi and not include_hi
    candidates = list(f.values[first + drop_lo : stop - drop_hi])
    # the pieces i with bks[i] < hi and bks[i + 1] > lo, clipped to [lo, hi]
    ends = [lo, *bks[first + on_lo : stop - on_hi], hi]
    pieces = f.pieces[first - (not on_lo) : stop - 1 + (not on_hi)]
    for i, (s, c) in enumerate(pieces):
        candidates.append(s * ends[i] + c)
        candidates.append(s * ends[i + 1] + c)
    return max(candidates)


def exact_sup_full_scan(
    f: PiecewiseFn,
    lo: Fraction,
    hi: Fraction,
    include_lo: bool = True,
    include_hi: bool = True,
) -> Fraction:
    """``exact_sup`` by a literal scan of every breakpoint and every piece."""
    if lo == hi:
        if not (include_lo and include_hi):
            raise ValueError("empty interval")
        return evaluate(f, lo)
    candidates = []
    for b, v in zip(f.breakpoints, f.values):
        if (lo < b < hi) or (b == lo and include_lo) or (b == hi and include_hi):
            candidates.append(v)
    for i, (s, c) in enumerate(f.pieces):
        a, b = f.breakpoints[i], f.breakpoints[i + 1]
        left = max(a, lo)
        right = min(b, hi)
        if left < right:
            candidates.append(s * left + c)
            candidates.append(s * right + c)
    return max(candidates)


def oracle_envelope_left(f: PiecewiseFn, x: Fraction) -> Fraction:
    return exact_sup(f, ZERO, x)


def oracle_envelope_right(f: PiecewiseFn, x: Fraction) -> Fraction:
    return exact_sup(f, x, ONE)


def oracle_envelope_left_strict(f: PiecewiseFn, x: Fraction) -> Fraction:
    if x == ZERO:
        return evaluate(f, ZERO)
    return exact_sup(f, ZERO, x, include_hi=False)


def oracle_envelope_right_strict(f: PiecewiseFn, x: Fraction) -> Fraction:
    if x == ONE:
        return evaluate(f, ONE)
    return exact_sup(f, x, ONE, include_lo=False)


def oracle_level_one_ends(f: PiecewiseFn) -> tuple[Fraction, Fraction] | None:
    """Least and greatest breakpoints at which f's value or a one-sided piece
    limit is 1, read straight off the representation; None if there are none.

    For a normal f these are the inf and the sup of where its left and right
    envelopes reach 1: an affine piece bounded by 1 can only touch 1 at an
    end of its interval, unless it is 1 throughout.
    """
    bks, last = f.breakpoints, len(f.pieces)
    ends = [
        b
        for i, b in enumerate(bks)
        if f.values[i] == ONE
        or (i > 0 and f.pieces[i - 1][0] * b + f.pieces[i - 1][1] == ONE)
        or (i < last and f.pieces[i][0] * b + f.pieces[i][1] == ONE)
    ]
    return (ends[0], ends[-1]) if ends else None


def oracle_meet_value(f: PiecewiseFn, g: PiecewiseFn, x: Fraction) -> Fraction:
    """sup{f(y)^g(z) | min(y,z)=x} via the solution-set split {y=x,z>=x} u {z=x,y>=x}."""
    return max(
        min(evaluate(f, x), exact_sup(g, x, ONE)),
        min(exact_sup(f, x, ONE), evaluate(g, x)),
    )


def oracle_join_value(f: PiecewiseFn, g: PiecewiseFn, x: Fraction) -> Fraction:
    return max(
        min(evaluate(f, x), exact_sup(g, ZERO, x)),
        min(exact_sup(f, ZERO, x), evaluate(g, x)),
    )


def probe_points(*fns: PiecewiseFn, splits: int = 4) -> list[Fraction]:
    """Merged breakpoints of the arguments plus interior subdivision points,
    in increasing order."""
    merged = sorted({b for f in fns for b in f.breakpoints})
    points = [merged[0]]
    for a, b in zip(merged, merged[1:]):
        step = (b - a) / splits
        x = a
        for _ in range(1, splits):
            x += step
            points.append(x)
        points.append(b)
    return points


def _running_sups(bks, vals, pieces, ys, reached) -> list[Fraction]:
    # One sweep in the order in which bks and ys are listed; pieces[k] spans
    # bks[k] to bks[k + 1], and reached(b, y) says the sweep meets b no later
    # than y. Candidates are breakpoint values and the one-sided piece limits,
    # plus the value at each probe inside a piece: an affine piece is
    # monotone, so its ends bound it.
    last = len(pieces) - 1
    k = 0
    s, c = pieces[0]
    enter = s * bks[0] + c
    running = vals[0]
    out = []
    for y in ys:
        while k <= last and reached(bks[k + 1], y):
            b = bks[k + 1]
            running = max(running, enter, s * b + c, vals[k + 1])
            k += 1
            if k <= last:
                s, c = pieces[k]
                enter = s * b + c
        if bks[k] != y:
            # y lies inside piece k, which the sweep has entered
            running = max(running, enter, s * y + c)
        out.append(running)
    return out


def swept_suprema(f: PiecewiseFn, ys) -> tuple[list, list]:
    """sup of f over [0, y] and over [y, 1] at each of the strictly
    increasing probes ys: one sweep left to right over the probes and f's
    breakpoints, and its mirror image from 1 downwards."""
    left = _running_sups(f.breakpoints, f.values, f.pieces, ys, le)
    right = _running_sups(
        f.breakpoints[::-1], f.values[::-1], f.pieces[::-1], ys[::-1], ge
    )
    right.reverse()
    return left, right


def quasiconcave_violation(f: PiecewiseFn, points=None):
    """The least probe y with f(y) < min(sup left of y, sup right of y), if
    there is one. Finding one proves non-convexity; finding none at the
    probe points is evidence, not proof."""
    ys = probe_points(f, splits=8) if points is None else sorted(set(points))
    for y, left, right in zip(ys, *swept_suprema(f, ys)):
        if evaluate(f, y) < min(left, right):
            return y
    return None


def _affine_on(f: PiecewiseFn, a: Fraction, b: Fraction):
    # valid when (a, b) contains no breakpoint of f
    return f.piece_containing((a + b) / 2)


def _merged_breakpoints(f: PiecewiseFn, g: PiecewiseFn) -> list[Fraction]:
    return sorted(set(f.breakpoints) | set(g.breakpoints))


def reference_combine(f: PiecewiseFn, g: PiecewiseFn, take_min: bool) -> PiecewiseFn:
    """Pointwise min (or max) by midpoint lookups on the merged intervals."""
    merged = _merged_breakpoints(f, g)
    refined: list[Fraction] = [merged[0]]
    for a, b in zip(merged, merged[1:]):
        (s1, c1) = _affine_on(f, a, b)
        (s2, c2) = _affine_on(g, a, b)
        if s1 != s2:
            x = (c2 - c1) / (s1 - s2)
            if a < x < b:
                refined.append(x)
        refined.append(b)
    pick = min if take_min else max
    values = tuple(pick(evaluate(f, x), evaluate(g, x)) for x in refined)
    pieces = []
    for a, b in zip(refined, refined[1:]):
        p1 = _affine_on(f, a, b)
        p2 = _affine_on(g, a, b)
        mid = (a + b) / 2
        winner = pick((p1[0] * mid + p1[1], p1), (p2[0] * mid + p2[1], p2))
        pieces.append(winner[1])
    return PiecewiseFn(tuple(refined), values, tuple(pieces))


def reference_leq(f: PiecewiseFn, g: PiecewiseFn) -> bool:
    """f <= g everywhere, by breakpoint values and merged-interval endpoints."""
    merged = _merged_breakpoints(f, g)
    if any(evaluate(f, x) > evaluate(g, x) for x in merged):
        return False
    for a, b in zip(merged, merged[1:]):
        (s1, c1) = _affine_on(f, a, b)
        (s2, c2) = _affine_on(g, a, b)
        # affine comparison on an interval reduces to its endpoints
        if s1 * a + c1 > s2 * a + c2 or s1 * b + c1 > s2 * b + c2:
            return False
    return True


def reference_tail_value(f: PiecewiseFn, g: PiecewiseFn, xi: Fraction) -> Fraction:
    """The meet of the right envelopes of f and g at xi, by evaluation."""
    return min(evaluate(envelope_right(f), xi), evaluate(envelope_right(g), xi))


def reference_indicator_ends(f: PiecewiseFn) -> tuple[Fraction, Fraction] | None:
    """(lo, hi) if f is the characteristic function of the closed interval
    [lo, hi], else None: every value and one-sided piece limit is 0 or 1, no
    piece rises or falls between them, and f is 1 at every breakpoint and
    piece midpoint from the least point of the set where f is 1 to its
    greatest, both of which f must attain."""
    bks = f.breakpoints
    ones = []  # breakpoints bounding the parts of the set where f is 1
    for b, v in zip(bks, f.values):
        if v not in (ZERO, ONE):
            return None
        if v == ONE:
            ones.append(b)
    for a, b, (s, c) in zip(bks, bks[1:], f.pieces):
        limits = {s * a + c, s * b + c}
        if len(limits) > 1 or not limits <= {ZERO, ONE}:
            return None
        if limits == {ONE}:
            ones += [a, b]
    if not ones:
        return None
    lo, hi = min(ones), max(ones)
    probes = [b for b in bks if lo <= b <= hi]
    probes += [(a + b) / 2 for a, b in zip(bks, bks[1:]) if lo <= a and b <= hi]
    return (lo, hi) if all(evaluate(f, x) == ONE for x in probes) else None


def reference_star_value(f: PiecewiseFn, g: PiecewiseFn, x: Fraction) -> Fraction:
    """star(f, g) at x for normal convex f and g, neither the unit spike at 1."""
    (eta_f, xi_f), (eta_g, xi_g) = oracle_level_one_ends(f), oracle_level_one_ends(g)
    eta, xi = min(eta_f, eta_g), min(xi_f, xi_g)
    if x > xi:
        return ZERO
    if x == xi:
        return min(oracle_envelope_right(f, xi), oracle_envelope_right(g, xi))
    if x < eta:
        return max(oracle_envelope_left(f, x), oracle_envelope_left(g, x))
    return ONE


def reference_splice(head, a, at_a, b, at_b, tail) -> PiecewiseFn:
    """head on [0, a), at_a at a, 1 on (a, b), at_b at b and tail on (b, 1],
    the lesser of at_a and at_b at a = b: head and tail are (breakpoints,
    values, pieces) parts that cover [0, a] and [b, 1]. Each cut is the piece
    index found by bisection: breaks[i] <= x < breaks[i + 1], or the last
    index at x = 1."""
    (hb, hv, hp), (tb, tv, tp) = head, tail
    i = bisect_right(hb, a) - 1
    i += hb[i] < a  # the number of head breakpoints short of a
    k = bisect_right(tb, b) - 1  # the tail's piece beyond b, none at b = 1
    if a < b:
        breaks, values, pieces = [a, b], [at_a, at_b], [(ZERO, ONE)]
    else:
        breaks, values, pieces = [a], [min(at_a, at_b)], []
    return PiecewiseFn(
        (*hb[:i], *breaks, *tb[k + 1 :]),
        (*hv[:i], *values, *tv[k + 1 :]),
        (*hp[:i], *pieces, *tp[k:]),
    )


def brute_convolution_grid(
    f: PiecewiseFn, g: PiecewiseFn, star, combine, n: int
) -> list[Fraction | None]:
    """Literal O(n^2) enumeration of grid pairs, bucketed by the combiner."""
    pts = [Fraction(k, n) for k in range(n + 1)]
    fv = [evaluate(f, x) for x in pts]
    gv = [evaluate(g, x) for x in pts]
    best: list[Fraction | None] = [None] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1):
            target = combine(pts[i], pts[j])
            k = target * n
            if k.denominator != 1:
                continue
            k = int(k)
            v = star(fv[i], gv[j])
            if best[k] is None or v > best[k]:
                best[k] = v
    return best
