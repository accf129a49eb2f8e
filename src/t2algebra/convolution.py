"""Brute-force grid oracle for generic sup-convolutions.

The generic convolution of two truth-value functions under an inner
connective * and a combiner (a t-norm for the meet form, a t-conorm for the
join form) is

    (f conv g)(x) = sup{ f(y) * g(z) | combiner(y, z) = x }.

No closed form exists for arbitrary connectives, so this module evaluates
the supremum over a uniform rational grid. Pairs match a target within a
tolerance band, and the result is a certified lower bound for the true
supremum (every reported pair is a genuine admissible pair up to the band).
Lower bounds are first-class here: the separation arguments this oracle
backs only ever need one admissible pair with a large value. The exact
combiners min and max take the zero-width band whatever the tolerance: on
the grid, min(x_i, x_j) = x_k (resp. max) exactly when that band of (i, j)
holds k, so the grid value is the true supremum over grid pairs.

Fast paths. Each connective the library defines declares its integer forms
in ``connectives``, looked up here by identity; each is nondecreasing in
each argument (T3). A combiner's row form gives row i of its values at
(i/n, j/n) as numerators p over one q, so a band ceil((p/q - tol) * n) ..
floor((p/q + tol) * n) is integer arithmetic and the combiner is never
called. An inner connective's slot form gives x * y for x = a/b, y = c/d as
an unreduced integer ratio. Elsewhere a builtin * is called through its
``fn``, unchecked: its arguments are grid values of built functions, and a
property test checks that every builtin maps [0, 1]^2 into [0, 1]. As * is
nondecreasing, a supremum of x * y over a set of y is x * (the largest y),
an attained maximum on the grid, so each fast path returns what the
per-pair path does:

- exact path (min/max combiner), O(n) and no Fraction compare: the value
  at x_k is max(f_k * sup_{j>=k} g_j, sup_{j>=k} f_j * g_k) for the meet
  form, with j <= k for the join form. The grid values come from an
  integer walk over each piece (``_grid_values``), both maxima from one
  running-max sweep, and every max compares integer slots (``_max``);
- the whole banded grid (``_banded_window``), at most one * per row and
  reached point: a row's band ends are nondecreasing in j, so the partners
  whose band holds x_k are one run of j that slides right with k, and row i
  gives f_i * (the largest g_j over it), kept by one monotone deque of g's
  ranks. Rows go by descending f_i, and a row whose rank at x_k is no
  higher than an earlier row's is dominated (T3): no * there. Values are
  integer slots; a Fraction is built only for each value returned;
- a single banded point (``convolve_*_at``) takes the per-pair path on the
  run of partners in each row whose band can hold it, found by bisection.

Every other connective, one the library does not define, is called through
``ScalarConnective.__call__`` on every pair it is asked about, even if it
declares a t-norm or t-conorm profile or wraps a builtin's function: as a
combiner on every pair of the grid, as the inner connective, under any
combiner, on every pair whose band meets the requested points. This one
per-pair path (``_banded_pairs``) is the reference the fast paths are
tested against.
"""

from __future__ import annotations

import io
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import lcm

from .connectives import (
    MAXIMUM, MINIMUM, ScalarConnective, T_CONORM, T_NORM, _ROW_FORMS, _SLOT_FORMS
)
from .errors import DomainError, ValidationError
from .piecewise import PiecewiseFn
from .rationals import ZERO, _lt, _max, _ratio, format_rational, to_rational, to_unit


@dataclass(frozen=True)
class GridSpec:
    resolution: int
    tolerance: Fraction | None = None

    def __post_init__(self):
        if isinstance(self.resolution, bool) or not isinstance(self.resolution, int):
            raise ValidationError("grid resolution must be an integer")
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
        GridSpec(self.resolution)  # the same checks of the resolution
        try:
            values = tuple(self.values)
        except TypeError:
            raise ValidationError("grid values must be an iterable of slots") from None
        if len(values) != self.resolution + 1:
            raise ValidationError("need one slot per grid point")
        slots = tuple(None if v is None else to_unit(v) for v in values)
        object.__setattr__(self, "values", slots)

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


def _grid_values(f: PiecewiseFn, n: int) -> list[Fraction]:
    """f at the grid points k/n, k = 0..n, piece by piece in integers.

    Piece i holds the points after breaks[i] up to ceil(breaks[i+1] * n) - 1;
    a breakpoint b is the grid point k when b.num * n == k * b.den, and takes
    its stored value. A constant piece repeats its intercept object; a sloped
    one builds one Fraction per point, by ``_ratio``. The values lie in [0, 1]
    unchecked: a built PiecewiseFn stays there."""
    breaks, values = f.breakpoints, f.values
    out = [values[0]]  # breaks[0] = 0 is the grid point 0
    for b, v, (s, c) in zip(breaks[1:], values[1:], f.pieces):
        start, end = len(out), -(-b._numerator * n // b._denominator)  # ceil(b * n)
        if s._numerator:
            # s * k/n + c = (sn * cd * k + cn * sd * n) / (sd * cd * n)
            sn, sd, cn, cd = s._numerator, s._denominator, c._numerator, c._denominator
            num0, den = cn * sd * n, sd * cd * n
            out += [_ratio(sn * cd * k + num0, den) for k in range(start, end)]
        else:
            out += [c] * (end - start)
        if b._numerator * n == end * b._denominator:
            out.append(v)
    return out


def _running_max(values: list[Fraction], reverse: bool) -> list[Fraction]:
    """Prefix maxima of values, or suffix maxima when reverse."""
    if reverse:
        return list(accumulate(reversed(values), _max))[::-1]
    return list(accumulate(values, _max))


def _bands(combiner, pts, tol, lo, hi, i):
    """Row i's bands as one list of (j, k_lo, k_hi): each partner j of x_i
    whose tolerance band around combiner(x_i, x_j) meets lo..hi, clipped to
    lo..hi. For a builtin combiner only the run of j whose band meets lo..hi
    is visited, found by bisection in its row form."""
    n = len(pts) - 1
    a, b = tol.as_integer_ratio()
    form = _ROW_FORMS.get(id(combiner))
    if form is None:
        js = range(n + 1)
        ratios = [combiner(pts[i], x).as_integer_ratio() for x in pts]
    else:
        ps, q = form(i, n)
        # the run of j with x_lo - tol <= p_j/q <= x_hi + tol, in integers
        low, high = -((a * n - lo * b) * q // (n * b)), (hi * b + a * n) * q // (n * b)
        js = range(bisect_left(ps, low), bisect_right(ps, high))
        ratios = [(ps[j], q) for j in js]
    out = []
    for j, (p, q) in zip(js, ratios):
        # ceil((p/q - tol) * n) and floor((p/q + tol) * n), in integers
        d = q * b
        k_lo = -((a * q - p * b) * n // d)
        k_hi = (p * b + a * q) * n // d
        k_lo, k_hi = (k_lo if k_lo > lo else lo), (k_hi if k_hi < hi else hi)
        if k_lo <= k_hi:
            out.append((j, k_lo, k_hi))
    return out


def _banded_pairs(fv, gv, star, bands, lo, hi):
    """Banded values at k = lo..hi, one star call per pair whose band meets
    lo..hi; values are compared in integer slots (_lt)."""
    best: list[Fraction | None] = [None] * len(fv)
    for i in range(len(fv)):
        for j, k_lo, k_hi in bands(i):
            value = star(fv[i], gv[j])
            for k in range(k_lo, k_hi + 1):
                if best[k] is None or _lt(best[k], value):
                    best[k] = value
    return best[lo : hi + 1]


def _banded_window(fv, gv, slot, row_form, tol):
    """_banded_pairs over the whole grid, for a builtin combiner (row_form)
    and a builtin inner connective (slot); see the module docstring. Row i's
    partner j holds k = kl[j]..kh[j] and joins the deque at k = kl[j];
    top[k] is the largest g rank met at k so far."""
    n = len(fv) - 1
    a, b = tol.as_integer_ratio()
    # f and g as numerators over one denominator: integer keys to order them
    cd = lcm(*{v._denominator for v in fv + gv})
    fk, gk = ([v._numerator * (cd // v._denominator) for v in vs] for vs in (fv, gv))
    levels = sorted(set(gk))
    rank = {v: r for r, v in enumerate(levels)}
    gr = [rank[v] for v in gk]
    top = [-1] * (n + 1)
    nums, dens = [-1] * (n + 1), [1] * (n + 1)  # -1/1: below every value
    m = b * n
    for i in sorted(range(n + 1), key=fk.__getitem__, reverse=True):
        ps, q = row_form(i, n)
        # ceil((p/q - tol) * n) and floor((p/q + tol) * n), in integers
        d, e = q * b, a * q * n
        kl = [-((e - p * m) // d) for p in ps] + [n + 1]  # a sentinel past every k
        kh = [(p * m + e) // d for p in ps]
        x = fv[i]
        run = deque()  # partners whose band holds k, g ranks falling
        j = 0
        for k in range(max(kl[0], 0), min(kh[n], n) + 1):
            while kl[j] <= k:
                r = gr[j]
                while run and gr[run[-1]] <= r:
                    run.pop()
                run.append(j)
                j += 1
            while run and kh[run[0]] < k:
                run.popleft()
            if run and gr[run[0]] > top[k]:
                r = top[k] = gr[run[0]]
                p, q = slot(x._numerator, x._denominator, levels[r], cd)
                if p * dens[k] > nums[k] * q:
                    nums[k], dens[k] = p, q
    return [_ratio(p, q) if p >= 0 else None for p, q in zip(nums, dens)]


# per form: the profile its combiner must declare, the combiner whose solution
# set is computed exactly, and whether its partners j with combiner(x_k, x_j)
# = x_k lie above k (meet: j >= k) rather than below (join: j <= k)
_FORMS = {
    "meet": (T_NORM, MINIMUM, True),
    "join": (T_CONORM, MAXIMUM, False),
}


def _convolve(form, f, g, star, combiner, grid: GridSpec, at=None):
    """The whole grid of a convolution form, or its value at grid index at."""
    profile, exact, above = _FORMS[form]
    if combiner.profile != profile:
        raise DomainError(f"combiner {combiner.name!r} is not declared a {profile}")
    n = grid.resolution
    lo, hi = (0, n) if at is None else (at, at)
    fv = _grid_values(f, n)
    gv = _grid_values(g, n)
    slot = _SLOT_FORMS.get(id(star))
    if slot is not None:
        # a builtin, on grid values of built functions: both lie in [0, 1]
        star = star.fn
    if combiner == exact and slot is not None:
        # sup_j star(fv[k], gv[j]) = star(fv[k], sup_j gv[j]) for a star
        # nondecreasing in each argument, and likewise with f and g swapped
        fm = _running_max(fv, above)
        gm = _running_max(gv, above)
        values = [
            _max(star(fv[k], gm[k]), star(fm[k], gv[k])) for k in range(lo, hi + 1)
        ]
    else:
        # the exact combiner's solution set is its zero-width band
        tol = ZERO if combiner == exact else grid.tolerance
        if at is None and slot is not None and id(combiner) in _ROW_FORMS:
            values = _banded_window(fv, gv, slot, _ROW_FORMS[id(combiner)], tol)
        else:
            bands = partial(_bands, combiner, grid.points(), tol, lo, hi)
            values = _banded_pairs(fv, gv, star, bands, lo, hi)
        # a band gives each point it holds a value, so the constraint set is
        # empty everywhere only if no row of the full grid has a band
        if values.count(None) == len(values):
            pts = grid.points()
            if not any(_bands(combiner, pts, tol, 0, n, i) for i in range(n + 1)):
                raise DomainError("empty constraint set at every grid point")
    if at is not None:
        return values[0]
    result = object.__new__(GridFn)  # sealed unchecked: its slots are built here
    result.__dict__.update(resolution=n, values=tuple(values))
    return result


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
    return _convolve("meet", f, g, star, tnorm, grid, grid.index_of(x))


def convolve_join_at(f, g, star, tconorm, grid: GridSpec, x) -> Fraction | None:
    """Single grid point of the join-form convolution (x must lie on the grid)."""
    return _convolve("join", f, g, star, tconorm, grid, grid.index_of(x))

