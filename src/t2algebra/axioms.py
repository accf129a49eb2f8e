"""Random generators and every axiom check: tr-axioms, connectives, separation.

Axioms here are universally quantified over an uncountable class, so the
checkers are falsification-oriented: equalities are tested exactly (zero
tolerance, canonical forms) on seeded random samples plus exhaustive
rational parameter lattices for the indicator-shaped axioms. A pass is
evidence, not proof; a failure is a theorem-grade counterexample, and every
failing report carries a replayable witness, shrunk when it was drawn.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product as iter_product
from operator import eq, le
from random import Random
from typing import Callable, Iterable, Sequence

from .connectives import MINIMUM, T_CONORM, T_NORM, ScalarConnective
from .convolution import GridSpec, convolve_join_at, convolve_meet, convolve_meet_at
from .errors import DomainError, ValidationError
from .lattice import BOTTOM, FULL, TOP, leq_sub, meet as lattice_meet
from .piecewise import (
    _ZERO_PARTS,
    PiecewiseFn,
    _flat,
    _sealed,
    _splice,
    envelope_left,
    envelope_right,
    evaluate,
    falling_ramp,
    in_lattice,
    indicator,
    is_interval_indicator,
    is_point_indicator,
    pointwise_max,
    pointwise_min,
    rising_ramp,
    step,
    to_json_dict,
    unit_spike,
)
from .rationals import ONE, ZERO, to_unit
from .report import AxiomReport, falsify
from .star import TruthValueOp, star

TR_NORM = "tr-norm"
TR_CONORM = "tr-conorm"

HALF = Fraction(1, 2)
_SEPARATION_POINT = Fraction(4, 5)
# the largest denominator_bound: rng.sample's range lengths must fit a ssize_t
MAX_DENOMINATOR = sys.maxsize


def separation_fixture() -> PiecewiseFn:
    """The plateau-then-drop function driving the non-convolution argument."""
    return step(Fraction(3, 4), ONE, HALF)


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0
    max_breakpoints: int = 7
    denominator_bound: int = 64

    def __post_init__(self):
        for field in ("seed", "max_breakpoints", "denominator_bound"):
            if type(getattr(self, field)) is not int:  # refuses bool as well
                raise ValidationError(f"{field} must be an integer")
        if self.max_breakpoints < 2:
            raise ValidationError("max_breakpoints must be at least 2")
        if self.denominator_bound < 2:
            raise ValidationError("denominator_bound must be at least 2")
        if self.denominator_bound > MAX_DENOMINATOR:
            raise ValidationError(f"denominator_bound must be at most {MAX_DENOMINATOR}")


# ---------------------------------------------------------------------------
# sampling


def _coord(rng: Random, den: int, lo: Fraction = ZERO, hi: Fraction = ONE) -> Fraction:
    lo_k = lo._numerator * den // lo._denominator
    hi_k = hi._numerator * den // hi._denominator
    return Fraction(rng.randint(lo_k, hi_k), den)


def _interior_coords(
    rng: Random, den: int, count: int, lo: Fraction, hi: Fraction
) -> list[Fraction]:
    lo_k = lo._numerator * den // lo._denominator + 1
    hi_k = hi._numerator * den // hi._denominator - 1
    avail = hi_k - lo_k + 1
    if avail <= 0 or count <= 0:
        return []
    picks = rng.sample(range(lo_k, hi_k + 1), min(count, avail))
    return [Fraction(k, den) for k in sorted(picks)]


def _ladder(rng: Random, den: int, count: int, descending: bool) -> list[Fraction]:
    vals = sorted(rng.randint(0, den) for _ in range(count))
    fracs = [Fraction(v, den) for v in vals]
    return list(reversed(fracs)) if descending else fracs


def _affine_between(x0, y0, x1, y1) -> tuple[Fraction, Fraction]:
    # slope (y1 - y0) / (x1 - x0) and intercept (y0 x1 - y1 x0) / (x1 - x0)
    a, b, c, d = x0._numerator, x0._denominator, y0._numerator, y0._denominator
    e, f, g, h = x1._numerator, x1._denominator, y1._numerator, y1._denominator
    den = d * h * (e * b - a * f)
    slope = Fraction((g * d - c * h) * b * f, den)
    return slope, Fraction(c * e * h * b - g * a * d * f, den)


def _fixture(rng: Random, cfg: GeneratorConfig) -> PiecewiseFn:
    den = cfg.denominator_bound
    kind = rng.randrange(10)
    if kind == 0:
        return unit_spike(_coord(rng, den))
    if kind == 1:
        a = _coord(rng, den)
        return indicator(a, _coord(rng, den, a))
    if kind == 2:
        # high plateau then a lower tail
        return step(_coord(rng, den), ONE, _coord(rng, den))
    if kind == 3:
        # lower head then a plateau at 1
        a = _coord(rng, den)
        return _splice(_flat(_coord(rng, den)), a, ONE, ONE, ONE, _ZERO_PARTS)
    if kind == 4:
        return rising_ramp(_coord(rng, den))
    if kind == 5:
        return falling_ramp(_coord(rng, den))
    if kind == 6:
        # supremum 1 approached at the right endpoint, not attained there
        floor = _coord(rng, den, hi=Fraction(den - 1, den))
        drop = _coord(rng, den)
        return _sealed((ZERO, ONE), (floor, drop), ((ONE - floor, floor),))
    if kind == 7:
        # supremum 1 approached at the left endpoint
        end = _coord(rng, den, hi=Fraction(den - 1, den))
        start = _coord(rng, den)
        return _sealed((ZERO, ONE), (start, end), ((end - ONE, ONE),))
    if kind == 8:
        return FULL
    return TOP if rng.random() < HALF else BOTTOM


def _rungs(pos: list[Fraction], rungs: list[Fraction]):
    """Parts through the breakpoints pos, with rungs[::3] at them, whose
    piece i runs from rungs[3i + 1] to rungs[3i + 2]."""
    ends = zip(pos, rungs[1::3], pos[1:], rungs[2::3])
    return pos, rungs[::3], [_affine_between(*end) for end in ends]


def _draw_lattice(rng: Random, cfg: GeneratorConfig) -> PiecewiseFn:
    if rng.random() < 0.3:
        return _fixture(rng, cfg)
    den = cfg.denominator_bound
    peak_lo = _coord(rng, den)
    peak_hi = peak_lo if rng.random() < 0.3 else _coord(rng, den, lo=peak_lo)
    budget = cfg.max_breakpoints - 2
    left_count = rng.randint(0, budget // 2)
    right_count = rng.randint(0, budget - left_count)
    # the head is drawn before the tail: every seeded output depends on the order
    head = tail = _ZERO_PARTS
    if peak_lo > ZERO:
        pos = [ZERO] + _interior_coords(rng, den, left_count, ZERO, peak_lo) + [peak_lo]
        head = _rungs(pos, _ladder(rng, den, 3 * (len(pos) - 1), descending=False) + [ONE])
    if peak_hi < ONE:
        pos = [peak_hi] + _interior_coords(rng, den, right_count, peak_hi, ONE) + [ONE]
        tail = _rungs(pos, [ONE] + _ladder(rng, den, 3 * (len(pos) - 1), descending=True))
    return _splice(head, peak_lo, ONE, peak_hi, ONE, tail)


def _draw_arbitrary(rng: Random, cfg: GeneratorConfig) -> PiecewiseFn:
    den = cfg.denominator_bound
    interior = _interior_coords(
        rng, den, rng.randint(0, cfg.max_breakpoints - 2), ZERO, ONE
    )
    breaks = [ZERO] + interior + [ONE]
    values = [_coord(rng, den) for _ in breaks]
    pieces = []
    for a, b in zip(breaks, breaks[1:]):
        pieces.append(_affine_between(a, _coord(rng, den), b, _coord(rng, den)))
    return _sealed(breaks, values, pieces)


def random_normal_convex(config: GeneratorConfig, rng: Random | None = None) -> PiecewiseFn:
    """One normal convex function; deterministic for a fixed config seed."""
    if rng is None:
        rng = Random(config.seed)
    return _draw_lattice(rng, config)


def random_piecewise(config: GeneratorConfig, rng: Random | None = None) -> PiecewiseFn:
    """One arbitrary (rarely convex) piecewise function."""
    if rng is None:
        rng = Random(config.seed)
    return _draw_arbitrary(rng, config)


def generate_lattice_functions(config: GeneratorConfig, count: int) -> list[PiecewiseFn]:
    rng = Random(config.seed)
    return [_draw_lattice(rng, config) for _ in range(count)]


def generate_nonlattice_functions(config: GeneratorConfig, count: int) -> list[PiecewiseFn]:
    """Arbitrary functions filtered to lie outside the normal-convex class."""
    rng = Random(config.seed)
    out = []
    while len(out) < count:
        f = _draw_arbitrary(rng, config)
        if not in_lattice(f):
            out.append(f)
    return out


def comparable_pair(
    rng: Random, config: GeneratorConfig
) -> tuple[PiecewiseFn, PiecewiseFn]:
    """A pair (f, g) of normal convex functions with f below g in the meet order.

    Primary construction raises g's left envelope and lowers its right
    envelope with a second random function's envelopes; each candidate is
    verified exactly and resampled on failure. Degenerate pairs and lattice
    meets are mixed in for coverage of boundary cases.
    """
    g = _draw_lattice(rng, config)
    roll = rng.random()
    if roll < 0.08:
        return g, g
    if roll < 0.16:
        return BOTTOM, g
    if roll < 0.24:
        return g, TOP
    for _ in range(12):
        u = _draw_lattice(rng, config)
        if roll < 0.5:
            f = lattice_meet(g, u)
        else:
            raised = pointwise_max(envelope_left(g), envelope_left(u))
            lowered = pointwise_min(envelope_right(g), envelope_right(u))
            f = pointwise_min(raised, lowered)
        if in_lattice(f) and leq_sub(f, g):
            return f, g
    return BOTTOM, g


# ---------------------------------------------------------------------------
# witness shrinking


def _interpolate_through(points: list[tuple[Fraction, Fraction]]) -> PiecewiseFn:
    pos, vs = zip(*points)  # piece i runs from vs[i] to vs[i + 1]
    return _sealed(*_rungs(pos, [v for rung in zip(vs, vs, vs[1:]) for v in rung] + [vs[-1]]))


def _shrink_points(f: PiecewiseFn) -> Iterable[list[tuple[Fraction, Fraction]]]:
    """The (x, value) lists the shrinker interpolates, in the order it tries
    them: every other breakpoint of f, then f's breakpoints snapped to ever
    coarser grids. Each starts at 0 and ends at 1, as f does (and 0 and 1
    snap to themselves), strictly increases in x and has values in [0, 1],
    so it always interpolates to a valid function."""
    points = list(zip(f.breakpoints, f.values))
    if len(points) > 2:
        kept = points[::2]
        if kept[-1][0] != ONE:
            kept.append(points[-1])
        yield kept
    for den in (16, 8, 4, 2):
        snapped: dict[Fraction, Fraction] = {}
        for b, v in points:
            x = Fraction(round(b * den), den)
            if x not in snapped:
                snapped[x] = Fraction(round(v * den), den)
        yield sorted(snapped.items())


def _simplify_candidates(f: PiecewiseFn) -> Iterable[PiecewiseFn]:
    for points in _shrink_points(f):
        g = _interpolate_through(points)
        if in_lattice(g) and g != f:
            yield g


_SHRINK_ROUNDS = 6


def shrink_witness(
    args: tuple[PiecewiseFn, ...],
    still_fails: Callable[[tuple[PiecewiseFn, ...]], bool],
) -> tuple[PiecewiseFn, ...]:
    """Greedy witness minimization: halve breakpoints, snap to coarser grids.
    Every candidate stays normal and convex."""
    current = tuple(args)
    for _ in range(_SHRINK_ROUNDS):
        improved = False
        for i in range(len(current)):
            for candidate in _simplify_candidates(current[i]):
                trial = current[:i] + (candidate,) + current[i + 1 :]
                try:
                    if still_fails(trial):
                        current = trial
                        improved = True
                        break
                except (DomainError, ValidationError):
                    continue
        if not improved:
            break
    return current


# ---------------------------------------------------------------------------
# restrictive-axiom suite


def _check_sides(
    axiom: str,
    cases: Iterable[tuple[PiecewiseFn, ...]],
    sides: Callable[..., tuple[PiecewiseFn, PiecewiseFn]],
    relation: Callable[[PiecewiseFn, PiecewiseFn], bool] = eq,
    keep: Callable[..., bool] = lambda *args: True,
) -> AxiomReport:
    """The first case whose two sides fail ``relation``, shrunk over the
    trials that ``keep`` admits; its witness holds the inputs and both sides."""

    def failure(*args: PiecewiseFn) -> dict | None:
        lhs, rhs = sides(*args)
        if relation(lhs, rhs):
            return None
        inputs = [to_json_dict(f) for f in args]
        return {"inputs": inputs, "lhs": to_json_dict(lhs), "rhs": to_json_dict(rhs)}

    return falsify(
        axiom,
        cases,
        failure,
        lambda args: shrink_witness(
            args, lambda trial: keep(*trial) and failure(*trial) is not None
        ),
    )


def check_tr_axioms(
    op: TruthValueOp,
    kind: str,
    config: GeneratorConfig,
    *,
    pairs: int = 200,
    triples: int = 100,
    neutral_trials: int = 100,
    monotone_trials: int = 100,
    closure_denominator: int = 16,
) -> list[AxiomReport]:
    """Run the full restrictive-axiom battery against a closed operation.

    Commutativity/associativity/neutrality run on seeded random samples with
    canonical-form equality; monotonicity runs on constructed comparable
    pairs; the indicator axioms run exhaustively over the k/closure_denominator
    parameter lattice. O6 and O7 count their pairs up to the failing one.
    """
    if kind == TR_NORM:
        neutral, neutral_axiom = TOP, "O3"
        boundary_axiom = "O5"
        boundary_expected = lambda a, b: indicator(ZERO, b)
    elif kind == TR_CONORM:
        neutral, neutral_axiom = BOTTOM, "O3'"
        boundary_axiom = "O5'"
        boundary_expected = lambda a, b: indicator(a, ONE)
    else:
        raise ValidationError(f"kind must be {TR_NORM!r} or {TR_CONORM!r}")
    sizes = dict(pairs=pairs, triples=triples, neutral_trials=neutral_trials)
    sizes.update(monotone_trials=monotone_trials, closure_denominator=closure_denominator)
    for name, value in sizes.items():
        if type(value) is not int or value < 1:  # refuses bool as well
            raise ValidationError(f"{name} must be a positive integer")

    rng = Random(config.seed)

    def draw(count: int) -> tuple[PiecewiseFn, ...]:
        return tuple(_draw_lattice(rng, config) for _ in range(count))

    den = closure_denominator
    lattice_pts = [Fraction(k, den) for k in range(den + 1)]
    # the interval indicators, each with its endpoints, built once for O5 and O7
    intervals = [
        ((a, b), indicator(a, b)) for a in lattice_pts for b in lattice_pts if a <= b
    ]

    def boundary(ab: tuple[Fraction, Fraction], ind: PiecewiseFn) -> dict | None:
        lhs, rhs = op(FULL, ind), boundary_expected(*ab)
        if lhs == rhs:
            return None
        a, b = (str(x) for x in ab)
        return {"a": a, "b": b, "lhs": to_json_dict(lhs), "rhs": to_json_dict(rhs)}

    def point_closure(x1: Fraction, x2: Fraction) -> dict | None:
        result = op(unit_spike(x1), unit_spike(x2))
        if is_point_indicator(result):
            return None
        return {"x1": str(x1), "x2": str(x2), "result": to_json_dict(result)}

    def interval_closure(p, q) -> dict | None:
        result = op(p[1], q[1])
        if is_interval_indicator(result):
            return None
        interval1, interval2 = [str(x) for x in p[0]], [str(x) for x in q[0]]
        return {"interval1": interval1, "interval2": interval2, "result": to_json_dict(result)}

    # the checks run in list order, which is also the order of the seeded draws
    return [
        _check_sides("O1", [draw(2) for _ in range(pairs)], lambda f, g: (op(f, g), op(g, f))),
        _check_sides(
            "O2",
            [draw(3) for _ in range(triples)],
            lambda f, g, h: (op(op(f, g), h), op(f, op(g, h))),
        ),
        _check_sides(
            neutral_axiom, [draw(1) for _ in range(neutral_trials)], lambda f: (op(f, neutral), f)
        ),
        _check_sides(
            "O4",
            ((*comparable_pair(rng, config), *draw(1)) for _ in range(monotone_trials)),
            lambda f, g, h: (op(f, h), op(g, h)),
            relation=leq_sub,
            keep=lambda f, g, h: leq_sub(f, g),
        ),
        falsify(boundary_axiom, intervals, boundary),
        falsify("O6", iter_product(lattice_pts, repeat=2), point_closure),
        falsify("O7", iter_product(intervals, repeat=2), interval_closure),
    ]


# ---------------------------------------------------------------------------
# the scalar connectives' axioms, and those forced on an inner connective


def _unit_sample(sample) -> list[Fraction]:
    pts = sorted(to_unit(x) for x in sample)
    if ZERO not in pts or ONE not in pts:
        raise DomainError("sample must be nonempty and contain 0 and 1")
    return pts


def _scalar_failure(relation, sides, **values) -> dict | None:
    """None if every pair of sides holds ``relation``, else the values, then
    lhs and rhs of the first pair that does not."""
    for lhs, rhs in sides:
        if not relation(lhs, rhs):
            return {k: str(v) for k, v in {**values, "lhs": lhs, "rhs": rhs}.items()}
    return None


def check_connective_axioms(
    op: ScalarConnective, sample: tuple | list
) -> list[AxiomReport]:
    """Exhaustive commutativity/associativity/monotonicity/neutrality check.

    ``sample`` must contain 0 and 1. The first violating tuple per axiom is
    reported (tuples enumerated in sorted-lexicographic order). Monotonicity
    counts only the triples with x <= y as trials.
    """
    pts = _unit_sample(sample)
    neutral = ZERO if op.profile == T_CONORM else ONE
    return [
        falsify(
            "T1",
            iter_product(pts, repeat=2),
            lambda x, y: _scalar_failure(eq, [(op(x, y), op(y, x))], x=x, y=y),
        ),
        falsify(
            "T2",
            iter_product(pts, repeat=3),
            lambda x, y, z: _scalar_failure(
                eq, [(op(op(x, y), z), op(x, op(y, z)))], x=x, y=y, z=z
            ),
        ),
        falsify(
            "T3",
            ((x, y, z) for x, y, z in iter_product(pts, repeat=3) if x <= y),
            lambda x, y, z: _scalar_failure(
                le, [(op(x, z), op(y, z)), (op(z, x), op(z, y))], x=x, y=y, z=z
            ),
        ),
        falsify(
            "T4'" if op.profile == T_CONORM else "T4",
            ((x,) for x in pts),
            lambda x: _scalar_failure(eq, [(op(neutral, x), x), (op(x, neutral), x)], x=x),
        ),
    ]


def check_boundary_characterization(
    op: ScalarConnective, sample: tuple | list
) -> AxiomReport:
    """The extremal-value characterization forced on t-norms and t-conorms.

    For a t-norm, x*y = 1 exactly at (1,1); for a t-conorm, x*y = 0 exactly
    at (0,0). Checked over sample x sample, which must contain 0 and 1.
    """
    if op.profile not in (T_NORM, T_CONORM):
        raise DomainError("profile must be t-norm or t-conorm")
    pts = _unit_sample(sample)
    extreme = ONE if op.profile == T_NORM else ZERO

    def failure(x: Fraction, y: Fraction) -> dict | None:
        value = op(x, y)
        if (value == extreme) == (x == extreme and y == extreme):
            return None
        return {"x": str(x), "y": str(y), "value": str(value)}

    return falsify("boundary", iter_product(pts, repeat=2), failure)


def verify_star_forced_properties(star: ScalarConnective, grid: GridSpec) -> AxiomReport:
    """Check the boundary values and commutativity forced on the inner connective.

    Any inner connective must have these to make the convolutions (co)norms.
    The meet form at 1 is f(1)*g(1) on every grid, as y min z = 1 only at
    y = z = 1 (the paper's fact (a)), so each side is that product, with no
    convolution run: decreasing affine pairs pin down commutativity of *
    itself, and indicator pairs its boundary values. One run tries the
    commutativity pairs, the canonical one first, then the boundary corners,
    and counts the trials of both; a failure carries the witnessing pair.
    ``grid`` is kept in the signature and does not change the report.
    """

    def failure(check: str, a: Fraction, b: Fraction) -> dict | None:
        # each fixture at 1 is its parameter; min(a, b) is a t-norm's corner value
        lhs, rhs = star(a, b), (min(a, b) if check == "boundary" else star(b, a))
        if lhs == rhs:
            return None
        fixture = unit_spike if check == "boundary" else falling_ramp
        a_name, b_name = "xy" if check == "boundary" else "uv"
        return {
            "check": check,
            a_name: str(a),
            b_name: str(b),
            "lhs": str(lhs),
            "rhs": str(rhs),
            "fixtures": [to_json_dict(fixture(a)), to_json_dict(fixture(b))],
        }

    eighths = [Fraction(k, 8) for k in range(9)]
    cases = [("commutativity", Fraction(1, 5), Fraction(4, 5))]
    cases += [("commutativity", u, v) for u in eighths for v in eighths if u < v]
    cases += [("boundary", x, y) for x in (ZERO, ONE) for y in (ZERO, ONE)]
    report = falsify("forced-properties", cases, failure)
    if report.passed:
        return report
    w = report.witness
    if w["check"] == "commutativity":
        detail = f"meet-form convolution not commutative at u={w['u']}, v={w['v']}"
    else:
        detail = f"boundary value {w['x']}*{w['y']} = {w['lhs']}, expected {w['rhs']}"
    return replace(report, detail=detail)


# ---------------------------------------------------------------------------
# replications of the separation results


def _rows_report(axiom: str, rows: list[dict], key: str, detail: str) -> AxiomReport:
    """One trial per row; a failure's witness lists the rows whose ``key`` is false."""
    failing = [r for r in rows if not r[key]]
    witness = {"rows": failing} if failing else None
    return AxiomReport(axiom, not failing, len(rows), witness, detail=detail)


def _rows(star_choices: Sequence[ScalarConnective], fields) -> list[dict]:
    """One row per inner connective: its name, then ``fields`` of it."""
    if not star_choices:
        raise ValidationError("at least one inner connective is required")
    return [{"star": sc.name, **fields(sc)} for sc in star_choices]


def separation_rows(
    star_choices: Sequence[ScalarConnective], grid: GridSpec
) -> list[dict]:
    """Per-connective comparison of the exact product against the oracle bound.

    The oracle convolves with min, whose band is zero-width at every tolerance,
    so the grid's tolerance does not change the rows."""
    plateau = separation_fixture()
    spike = unit_spike(_SEPARATION_POINT)
    exact = evaluate(star(plateau, spike), _SEPARATION_POINT)

    def fields(sc: ScalarConnective) -> dict:
        bound = convolve_meet_at(plateau, spike, sc, MINIMUM, grid, _SEPARATION_POINT)
        return {
            "exact_product_value": str(exact),
            "oracle_lower_bound": "" if bound is None else str(bound),
            "separated": exact == ZERO and bound is not None and bound >= HALF,
        }

    return _rows(star_choices, fields)


def replicate_separation(
    star_choices: Sequence[ScalarConnective], grid: GridSpec
) -> AxiomReport:
    """The product differs from every meet-form convolution at one point.

    The exact product of the plateau fixture and the spike at 4/5 vanishes
    at 4/5, while the convolution oracle certifies a lower bound of at least
    1/2 there for every admissible inner connective: a strict gap.
    """
    return _rows_report(
        "separation",
        separation_rows(star_choices, grid),
        "separated",
        "exact value 0 at 4/5 vs oracle lower bound >= 1/2",
    )


def neutrality_gap_rows(
    tconorm: ScalarConnective, star_choices: Sequence[ScalarConnective], grid: GridSpec
) -> list[dict]:
    """Witnesses that the join-form convolution has no neutral unit spike at 1
    and the meet form none at 0."""
    ramp = rising_ramp(HALF)
    descent = falling_ramp(ZERO)
    half_spike = unit_spike(HALF)
    # the same for every inner connective
    pts = grid.points()
    bottom_at = [evaluate(BOTTOM, x) for x in pts]
    spike_at = [evaluate(half_spike, x) for x in pts]
    ramp_at_zero, descent_at_half = evaluate(ramp, ZERO), evaluate(descent, HALF)

    def fields(sc: ScalarConnective) -> dict:
        at_zero = convolve_join_at(ramp, TOP, sc, tconorm, grid, ZERO)
        at_half = convolve_join_at(descent, TOP, sc, tconorm, grid, HALF)
        meet_grid = convolve_meet(half_spike, BOTTOM, sc, MINIMUM, grid)
        matches_bottom = all(v == b for v, b in zip(meet_grid.values, bottom_at))
        differs_from_spike = any(v != s for v, s in zip(meet_grid.values, spike_at))
        return {
            "join_with_top_at_0": "" if at_zero is None else str(at_zero),
            "expected_if_neutral_at_0": str(ramp_at_zero),
            "join_with_top_at_half": "" if at_half is None else str(at_half),
            "expected_if_neutral_at_half": str(descent_at_half),
            "meet_with_bottom_is_bottom": matches_bottom,
            "meet_with_bottom_differs_from_input": differs_from_spike,
            "gap_confirmed": (
                at_zero != ramp_at_zero
                and at_half != descent_at_half
                and matches_bottom
                and differs_from_spike
            ),
        }

    return _rows(star_choices, fields)


def replicate_notnorm_conorm_gap(
    tconorm: ScalarConnective,
    star_choices: Sequence[ScalarConnective],
    grid: GridSpec,
) -> AxiomReport:
    """The join-form convolution fails t-norm neutrality; the meet form fails
    the t-conorm's."""
    return _rows_report(
        "neutrality-gap",
        neutrality_gap_rows(tconorm, star_choices, grid),
        "gap_confirmed",
        "unit spikes are not neutral for the convolution forms",
    )
