"""Brute-force grid oracle for generic sup-convolutions.

The generic convolution of two truth-value functions under an inner
connective * and a combiner (a t-norm for the meet form, a t-conorm for the
join form) is

    (f conv g)(x) = sup{ f(y) * g(z) | combiner(y, z) = x }.

No closed form exists for arbitrary connectives, so this module evaluates
the supremum over a uniform rational grid. When the combiner is min (resp.
max) the solution set is computed exactly -- min(y, z) = x means one
coordinate is x and the other is at least (resp. at most) x -- and the grid
value is the true supremum over grid pairs. For any other combiner, pairs
match a target within a tolerance band, and the result is a certified lower
bound for the true supremum (every reported pair is a genuine admissible
pair up to the band). Lower bounds are first-class here: the separation
arguments this oracle backs only ever need one admissible pair with a large
value.

Fast paths. When the inner connective is one of the library's own t-norms
or t-conorms (``builtin_connectives()``, matched by identity), it is
nondecreasing in each argument (T3), so a supremum of x * y over a set of
y is x * (the largest y). Grid values are attained maxima, so this is an
equality, not a bound, and both fast paths return exactly what the per-pair
paths return:

- exact path (min/max combiner), O(n): the value at x_k is
  max(f_k * sup_{j>=k} g_j, sup_{j>=k} f_j * g_k) for the meet form, with
  j <= k for the join form; both maxima come from one running-max sweep;
- banded path, one * per row and reached grid point instead of one per
  pair: row i contributes f_i * (the largest g_j over the partners j whose
  band holds x_k).

Every other inner connective, including a user-built one that declares a
t-norm or t-conorm profile, takes the per-pair paths: a declared profile is
not checked for monotonicity, and a non-monotone one would make the fast
paths wrong. A single banded point (``convolve_*_at``) calls * only on the
pairs whose band holds it; when the combiner is a builtin too, so monotone,
those pairs are a run in each row, found by bisection without trying the
others.
"""

from __future__ import annotations

import io
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import accumulate

from .connectives import (
    MAXIMUM,
    MINIMUM,
    ScalarConnective,
    T_CONORM,
    T_NORM,
    builtin_connectives,
)
from .errors import DomainError, ValidationError
from .piecewise import PiecewiseFn, falling_ramp, to_json_dict, unit_spike
from .rationals import ONE, ZERO, format_rational, to_rational
from .report import AxiomReport, falsify


@dataclass(frozen=True)
class GridSpec:
    resolution: int
    tolerance: Fraction | None = None

    def __post_init__(self):
        if self.resolution < 2:
            raise ValidationError("grid resolution must be at least 2")
        tol = self.tolerance
        if tol is None:
            tol = Fraction(1, 2 * self.resolution)
        else:
            tol = to_rational(tol)
            if tol < 0:
                raise ValidationError("tolerance must be nonnegative")
        object.__setattr__(self, "tolerance", tol)

    def points(self) -> list[Fraction]:
        n = self.resolution
        return [Fraction(k, n) for k in range(n + 1)]

    def index_of(self, x) -> int:
        q = to_rational(x)
        k = q * self.resolution
        if k.denominator != 1 or not 0 <= k <= self.resolution:
            raise DomainError(f"{q} is not a point of the 1/{self.resolution} grid")
        return int(k)


@dataclass(frozen=True)
class GridFn:
    resolution: int
    values: tuple[Fraction | None, ...]

    def __post_init__(self):
        if len(self.values) != self.resolution + 1:
            raise ValidationError("need one slot per grid point")

    @property
    def defined(self) -> tuple[bool, ...]:
        return tuple(v is not None for v in self.values)

    def value_at(self, x) -> Fraction | None:
        return self.values[GridSpec(self.resolution).index_of(x)]

    def to_csv(self, decimal: bool = False) -> str:
        out = io.StringIO()
        out.write("x,value,defined\n")
        n = self.resolution
        for k, v in enumerate(self.values):
            x = format_rational(Fraction(k, n), decimal)
            val = "" if v is None else format_rational(v, decimal)
            out.write(f"{x},{val},{'true' if v is not None else 'false'}\n")
        return out.getvalue()


def _grid_values(f: PiecewiseFn, pts: list[Fraction]) -> list[Fraction]:
    """f at each of the ascending points pts, in one walk over f's breakpoints."""
    breaks, values, pieces = f.breakpoints, f.values, f.pieces
    out = []
    i = 0  # the first breakpoint at or beyond x; the last one is 1
    for x in pts:
        while breaks[i] < x:
            i += 1
        if breaks[i] == x:
            out.append(values[i])
        else:
            slope, intercept = pieces[i - 1]
            out.append(slope * x + intercept)
    return out


def _running_max(values: list[Fraction], reverse: bool) -> list[Fraction]:
    """Prefix maxima of values, or suffix maxima when reverse."""
    if reverse:
        return list(accumulate(reversed(values), max))[::-1]
    return list(accumulate(values, max))


def _exact_value(fv, gv, star, k, js) -> Fraction:
    return max(v for j in js for v in (star(fv[k], gv[j]), star(fv[j], gv[k])))


# the library's own t-norms and t-conorms, nondecreasing in each argument
# (T3) and each with a neutral element; matched by identity, so a user-built
# connective, even one wrapping a builtin's function, takes the reference paths
_MONOTONE = builtin_connectives()


def _is_monotone(conn: ScalarConnective) -> bool:
    return any(conn is c for c in _MONOTONE)


def _bands(combiner, pts, i, tol, lo, hi):
    """(j, k_lo, k_hi) for each partner j of x_i whose tolerance band around
    combiner(x_i, x_j) holds the grid points k_lo..k_hi (at least one).

    Partners whose band cannot meet lo..hi may be left out: for a monotone
    combiner only the run of j with combiner(x_i, x_j) within tol of
    x_lo..x_hi is visited, found by bisection. That run still reaches every
    target x_k, from (x_k, e) for the combiner's neutral element e, so the
    left-out pairs never decide whether any grid point is reached.
    """
    n = len(pts) - 1
    a, b = tol.as_integer_ratio()
    x = pts[i]
    js = range(n + 1)
    if (lo, hi) != (0, n) and _is_monotone(combiner):
        key = partial(combiner, x)
        js = range(
            bisect_left(pts, pts[lo] - tol, key=key),
            bisect_right(pts, pts[hi] + tol, key=key),
        )
    for j in js:
        p, q = combiner(x, pts[j]).as_integer_ratio()
        # ceil((w - tol) * n) and floor((w + tol) * n) for w = p/q, in integers
        k_lo = max(0, -((a * q - p * b) * n // (q * b)))
        k_hi = min(n, (p * b + a * q) * n // (q * b))
        if k_lo <= k_hi:
            yield j, k_lo, k_hi


def _banded_pairs(fv, gv, star, combiner, grid: GridSpec, lo, hi):
    """Banded values at k = lo..hi, one star call per pair whose band meets
    lo..hi; also whether any pair reaches any grid point."""
    pts = grid.points()
    best: list[Fraction | None] = [None] * len(pts)
    reached = False
    for i in range(len(pts)):
        for j, k_lo, k_hi in _bands(combiner, pts, i, grid.tolerance, lo, hi):
            reached = True
            k_lo, k_hi = max(k_lo, lo), min(k_hi, hi)
            if k_lo > k_hi:
                continue
            value = star(fv[i], gv[j])
            for k in range(k_lo, k_hi + 1):
                if best[k] is None or value > best[k]:
                    best[k] = value
    return best[lo : hi + 1], reached


def _banded_rows(fv, gv, star, combiner, grid: GridSpec, lo, hi):
    """_banded_pairs for a monotone star, one star call per row and reached k.

    Row i's supremum at k is star(fv[i], m) for m the largest gv[j] over the
    partners j whose band holds k, since star is nondecreasing in g's value.
    """
    pts = grid.points()
    best: list[Fraction | None] = [None] * len(pts)
    reached = False
    for i in range(len(pts)):
        row: list[Fraction | None] = [None] * len(pts)
        for j, k_lo, k_hi in _bands(combiner, pts, i, grid.tolerance, lo, hi):
            reached = True
            v = gv[j]
            for k in range(max(k_lo, lo), min(k_hi, hi) + 1):
                if row[k] is None or v > row[k]:
                    row[k] = v
        for k in range(lo, hi + 1):
            if row[k] is not None:
                value = star(fv[i], row[k])
                if best[k] is None or value > best[k]:
                    best[k] = value
    return best[lo : hi + 1], reached


# per form: the profile its combiner must declare, the combiner whose solution
# set is computed exactly, and whether its partners j with combiner(x_k, x_j)
# = x_k lie above k (meet: j >= k) rather than below (join: j <= k)
_FORMS = {
    "meet": (T_NORM, MINIMUM, True),
    "join": (T_CONORM, MAXIMUM, False),
}


def _convolve(form, f, g, star, combiner, grid: GridSpec, x=None):
    """The whole grid of a convolution form, or its value at x alone."""
    profile, exact, above = _FORMS[form]
    if combiner.profile != profile:
        raise DomainError(f"combiner {combiner.name!r} is not declared a {profile}")
    n = grid.resolution
    lo, hi = (0, n) if x is None else (grid.index_of(x),) * 2
    pts = grid.points()
    fv = _grid_values(f, pts)
    gv = _grid_values(g, pts)
    monotone = _is_monotone(star)
    if combiner == exact and monotone:
        # sup_j star(fv[k], gv[j]) = star(fv[k], sup_j gv[j]) for a star
        # nondecreasing in each argument, and likewise with f and g swapped
        fm = _running_max(fv, above)
        gm = _running_max(gv, above)
        values = [
            max(star(fv[k], gm[k]), star(fm[k], gv[k])) for k in range(lo, hi + 1)
        ]
    elif combiner == exact:
        values = [
            _exact_value(fv, gv, star, k, range(k, n + 1) if above else range(k + 1))
            for k in range(lo, hi + 1)
        ]
    else:
        banded = _banded_rows if monotone else _banded_pairs
        values, reached = banded(fv, gv, star, combiner, grid, lo, hi)
        if not reached:
            raise DomainError("empty constraint set at every grid point")
    return GridFn(n, tuple(values)) if x is None else values[0]


def convolve_meet(
    f: PiecewiseFn,
    g: PiecewiseFn,
    star: ScalarConnective,
    tnorm: ScalarConnective,
    grid: GridSpec,
) -> GridFn:
    """Grid evaluation of the meet-form convolution sup{f(y)*g(z) | y△z = x}."""
    return _convolve("meet", f, g, star, tnorm, grid)


def convolve_join(
    f: PiecewiseFn,
    g: PiecewiseFn,
    star: ScalarConnective,
    tconorm: ScalarConnective,
    grid: GridSpec,
) -> GridFn:
    """Grid evaluation of the join-form convolution sup{f(y)*g(z) | y▽z = x}."""
    return _convolve("join", f, g, star, tconorm, grid)


def convolve_meet_at(f, g, star, tnorm, grid: GridSpec, x) -> Fraction | None:
    """Single grid point of the meet-form convolution (x must lie on the grid)."""
    return _convolve("meet", f, g, star, tnorm, grid, x)


def convolve_join_at(f, g, star, tconorm, grid: GridSpec, x) -> Fraction | None:
    """Single grid point of the join-form convolution (x must lie on the grid)."""
    return _convolve("join", f, g, star, tconorm, grid, x)


# ---------------------------------------------------------------------------
# properties any inner connective must satisfy to make the convolutions
# (co)norms: evaluating the meet form at 1 collapses to f(1)*g(1), so a
# decreasing affine pair pins down commutativity of * itself, and indicator
# pairs pin down its boundary values.

_COMMUTATIVITY_PAIR = (Fraction(1, 5), Fraction(4, 5))


def verify_star_forced_properties(star: ScalarConnective, grid: GridSpec) -> AxiomReport:
    """Check the boundary values and commutativity forced on the inner connective.

    Failures carry the witnessing identity: indicator pairs pushed through
    the oracle for boundary values, the canonical decreasing affine pair for
    commutativity. The trials of both checks add up in one report.
    """

    def ramp_product(u: Fraction, v: Fraction) -> Fraction:
        f, g = falling_ramp(u), falling_ramp(v)
        return convolve_meet_at(f, g, star, MINIMUM, grid, ONE)

    def spike_product(x: Fraction, y: Fraction) -> Fraction | None:
        f, g = unit_spike(x), unit_spike(y)
        return convolve_meet_at(f, g, star, MINIMUM, grid, ONE)

    sample = [_COMMUTATIVITY_PAIR]
    eighths = [Fraction(k, 8) for k in range(9)]
    sample.extend((u, v) for u in eighths for v in eighths if u < v)
    commutes = falsify(
        "forced-properties",
        sample,
        lambda u, v: ramp_product(u, v) == ramp_product(v, u),
        lambda u, v: {
            "check": "commutativity",
            "u": str(u),
            "v": str(v),
            "lhs": str(ramp_product(u, v)),
            "rhs": str(ramp_product(v, u)),
            "fixtures": [to_json_dict(falling_ramp(u)), to_json_dict(falling_ramp(v))],
        },
    )
    if not commutes.passed:
        w = commutes.witness
        detail = f"meet-form convolution not commutative at u={w['u']}, v={w['v']}"
        return replace(commutes, detail=detail)

    boundary = falsify(
        "forced-properties",
        ((ZERO, ZERO, ZERO), (ZERO, ONE, ZERO), (ONE, ZERO, ZERO), (ONE, ONE, ONE)),
        lambda x, y, expected: spike_product(x, y) == expected,
        lambda x, y, expected: {
            "check": "boundary",
            "x": str(x),
            "y": str(y),
            "lhs": str(spike_product(x, y)),
            "rhs": str(expected),
            "fixtures": [to_json_dict(unit_spike(x)), to_json_dict(unit_spike(y))],
        },
    )
    trials = commutes.trials + boundary.trials
    if not boundary.passed:
        w = boundary.witness
        detail = f"boundary value {w['x']}*{w['y']} = {w['lhs']}, expected {w['rhs']}"
        return replace(boundary, trials=trials, detail=detail)
    return replace(boundary, trials=trials)
