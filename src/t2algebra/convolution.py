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
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .connectives import MINIMUM, ScalarConnective, T_CONORM, T_NORM
from .errors import DomainError, ValidationError
from .piecewise import PiecewiseFn, evaluate, falling_ramp, to_json_dict, unit_spike
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
    return [evaluate(f, x) for x in pts]


def _exact_value(fv, gv, star, k, js) -> Fraction:
    return max(v for j in js for v in (star(fv[k], gv[j]), star(fv[j], gv[k])))


def _banded(f, g, star, combiner, grid: GridSpec) -> GridFn:
    n = grid.resolution
    pts = grid.points()
    fv = _grid_values(f, pts)
    gv = _grid_values(g, pts)
    tol = grid.tolerance
    best: list[Fraction | None] = [None] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1):
            w = combiner(pts[i], pts[j])
            k_lo = max(0, math.ceil((w - tol) * n))
            k_hi = min(n, math.floor((w + tol) * n))
            if k_lo > k_hi:
                continue
            value = star(fv[i], gv[j])
            for k in range(k_lo, k_hi + 1):
                if best[k] is None or value > best[k]:
                    best[k] = value
    if all(v is None for v in best):
        raise DomainError("empty constraint set at every grid point")
    return GridFn(n, tuple(best))


# per form: the profile its combiner must declare, the combiner whose solution
# set is computed exactly, and the indices j with combiner(x_k, x_j) = x_k on
# the grid x_0..x_n
_FORMS = {
    "meet": (T_NORM, "min", lambda k, n: range(k, n + 1)),
    "join": (T_CONORM, "max", lambda k, n: range(k + 1)),
}


def _convolve(form, f, g, star, combiner, grid: GridSpec, x=None):
    """The whole grid of a convolution form, or its value at x alone."""
    profile, exact, partners = _FORMS[form]
    if combiner.profile != profile:
        raise DomainError(f"combiner {combiner.name!r} is not declared a {profile}")
    n = grid.resolution
    ks = range(n + 1) if x is None else [grid.index_of(x)]
    if combiner.name == exact:
        pts = grid.points()
        fv = _grid_values(f, pts)
        gv = _grid_values(g, pts)
        values = [_exact_value(fv, gv, star, k, partners(k, n)) for k in ks]
    else:
        banded = _banded(f, g, star, combiner, grid).values
        values = [banded[k] for k in ks]
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
