"""Random generators, restrictive-axiom checkers, and separation replications.

Axioms here are universally quantified over an uncountable class, so the
checkers are falsification-oriented: equalities are tested exactly (zero
tolerance, canonical forms) on seeded random samples plus exhaustive
rational parameter lattices for the indicator-shaped axioms. A pass is
evidence, not proof; a failure is a theorem-grade counterexample, and every
failing report carries a minimized, replayable witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from random import Random
from typing import Callable, Iterable, Sequence

from .connectives import MINIMUM, ScalarConnective
from .convolution import GridSpec, convolve_join_at, convolve_meet, convolve_meet_at
from .errors import DomainError, ValidationError
from .lattice import BOTTOM, FULL, TOP, leq_sub, meet as lattice_meet
from .piecewise import (
    PiecewiseFn,
    canonicalize,
    constant,
    envelope_left,
    envelope_right,
    equals,
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
from .rationals import ONE, ZERO
from .report import AxiomReport, falsify
from .star import TruthValueOp, star

TR_NORM = "tr-norm"
TR_CONORM = "tr-conorm"

HALF = Fraction(1, 2)
_SEPARATION_POINT = Fraction(4, 5)


def separation_fixture() -> PiecewiseFn:
    """The plateau-then-drop function driving the non-convolution argument."""
    return step(Fraction(3, 4), ONE, HALF)


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0
    max_breakpoints: int = 7
    denominator_bound: int = 64
    include_fixtures: bool = True

    def __post_init__(self):
        if self.max_breakpoints < 2:
            raise ValidationError("max_breakpoints must be at least 2")
        if self.denominator_bound < 2:
            raise ValidationError("denominator_bound must be at least 2")


# ---------------------------------------------------------------------------
# sampling


def _coord(rng: Random, den: int, lo: Fraction = ZERO, hi: Fraction = ONE) -> Fraction:
    lo_k = int(lo * den)
    hi_k = int(hi * den)
    return Fraction(rng.randint(lo_k, hi_k), den)


def _interior_coords(
    rng: Random, den: int, count: int, lo: Fraction, hi: Fraction
) -> list[Fraction]:
    lo_k = int(lo * den) + 1
    hi_k = int(hi * den) - 1
    avail = hi_k - lo_k + 1
    if avail <= 0 or count <= 0:
        return []
    picks = rng.sample(range(lo_k, hi_k + 1), min(count, avail))
    return sorted(Fraction(k, den) for k in picks)


def _ladder(rng: Random, den: int, count: int, descending: bool) -> list[Fraction]:
    vals = sorted(rng.randint(0, den) for _ in range(count))
    fracs = [Fraction(v, den) for v in vals]
    return list(reversed(fracs)) if descending else fracs


def _affine_between(x0, y0, x1, y1) -> tuple[Fraction, Fraction]:
    slope = (y1 - y0) / (x1 - x0)
    return slope, y0 - slope * x0


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
        return pointwise_max(indicator(a, ONE), constant(_coord(rng, den)))
    if kind == 4:
        return rising_ramp(_coord(rng, den))
    if kind == 5:
        return falling_ramp(_coord(rng, den))
    if kind == 6:
        # supremum 1 approached at the right endpoint, not attained there
        floor = _coord(rng, den, hi=Fraction(den - 1, den))
        drop = _coord(rng, den)
        return PiecewiseFn(
            (ZERO, ONE), (floor, drop), ((ONE - floor, floor),)
        )
    if kind == 7:
        # supremum 1 approached at the left endpoint
        end = _coord(rng, den, hi=Fraction(den - 1, den))
        start = _coord(rng, den)
        return PiecewiseFn((ZERO, ONE), (start, end), ((end - ONE, ONE),))
    if kind == 8:
        return FULL
    return TOP if rng.random() < HALF else BOTTOM


def _draw_lattice(rng: Random, cfg: GeneratorConfig) -> PiecewiseFn:
    if cfg.include_fixtures and rng.random() < 0.3:
        return canonicalize(_fixture(rng, cfg))
    den = cfg.denominator_bound
    peak_lo = _coord(rng, den)
    peak_hi = peak_lo if rng.random() < 0.3 else _coord(rng, den, lo=peak_lo)
    budget = cfg.max_breakpoints - 2
    left_count = rng.randint(0, budget // 2)
    right_count = rng.randint(0, budget - left_count)

    breaks: list[Fraction] = []
    values: list[Fraction] = []
    pieces: list[tuple[Fraction, Fraction]] = []

    if peak_lo > ZERO:
        pos = [ZERO] + _interior_coords(rng, den, left_count, ZERO, peak_lo) + [peak_lo]
        rungs = _ladder(rng, den, 3 * (len(pos) - 1), descending=False) + [ONE]
        for i in range(len(pos) - 1):
            values.append(rungs[3 * i])
            pieces.append(
                _affine_between(pos[i], rungs[3 * i + 1], pos[i + 1], rungs[3 * i + 2])
            )
        breaks.extend(pos[:-1])
    breaks.append(peak_lo)
    values.append(ONE)
    if peak_hi > peak_lo:
        pieces.append((ZERO, ONE))
        breaks.append(peak_hi)
        values.append(ONE)
    if peak_hi < ONE:
        pos = [peak_hi] + _interior_coords(rng, den, right_count, peak_hi, ONE) + [ONE]
        rungs = [ONE] + _ladder(rng, den, 3 * (len(pos) - 1), descending=True)
        for i in range(len(pos) - 1):
            pieces.append(
                _affine_between(pos[i], rungs[3 * i + 1], pos[i + 1], rungs[3 * i + 2])
            )
            values.append(rungs[3 * i + 3])
        breaks.extend(pos[1:])
    return canonicalize(PiecewiseFn(tuple(breaks), tuple(values), tuple(pieces)))


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
    return canonicalize(PiecewiseFn(tuple(breaks), tuple(values), tuple(pieces)))


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
    breaks = tuple(p[0] for p in points)
    values = tuple(p[1] for p in points)
    pieces = tuple(
        _affine_between(points[i][0], points[i][1], points[i + 1][0], points[i + 1][1])
        for i in range(len(points) - 1)
    )
    return canonicalize(PiecewiseFn(breaks, values, pieces))


def _simplify_candidates(f: PiecewiseFn, require_lattice: bool) -> Iterable[PiecewiseFn]:
    def admit(g: PiecewiseFn) -> bool:
        return (not require_lattice or in_lattice(g)) and not equals(g, f)

    if len(f.breakpoints) > 2:
        kept = list(f.breakpoints[::2])
        if kept[-1] != ONE:
            kept.append(ONE)
        try:
            g = _interpolate_through([(b, evaluate(f, b)) for b in kept])
            if admit(g):
                yield g
        except ValidationError:
            pass
    for den in (16, 8, 4, 2):
        snapped: dict[Fraction, Fraction] = {}
        for b in f.breakpoints:
            x = Fraction(round(b * den), den)
            if x not in snapped:
                snapped[x] = Fraction(round(evaluate(f, b) * den), den)
        snapped[ZERO] = snapped.get(ZERO, Fraction(round(f.values[0] * den), den))
        snapped[ONE] = snapped.get(ONE, Fraction(round(f.values[-1] * den), den))
        try:
            g = _interpolate_through(sorted(snapped.items()))
            if admit(g):
                yield g
        except ValidationError:
            continue


def shrink_witness(
    args: tuple[PiecewiseFn, ...],
    still_fails: Callable[[tuple[PiecewiseFn, ...]], bool],
    require_lattice: bool = True,
    max_rounds: int = 6,
) -> tuple[PiecewiseFn, ...]:
    """Greedy witness minimization: halve breakpoints, snap to coarser grids."""
    current = tuple(args)
    for _ in range(max_rounds):
        improved = False
        for i in range(len(current)):
            for candidate in _simplify_candidates(current[i], require_lattice):
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


def _fn_witness(inputs: Sequence[PiecewiseFn], lhs: PiecewiseFn, rhs: PiecewiseFn) -> dict:
    return {
        "inputs": [to_json_dict(f) for f in inputs],
        "lhs": to_json_dict(canonicalize(lhs)),
        "rhs": to_json_dict(canonicalize(rhs)),
    }


def _check_equation(
    axiom: str,
    cases: Iterable[tuple[PiecewiseFn, ...]],
    lhs_fn: Callable[..., PiecewiseFn],
    rhs_fn: Callable[..., PiecewiseFn],
) -> AxiomReport:
    def holds(*args: PiecewiseFn) -> bool:
        return equals(lhs_fn(*args), rhs_fn(*args))

    return falsify(
        axiom,
        cases,
        holds,
        lambda *args: _fn_witness(args, lhs_fn(*args), rhs_fn(*args)),
        lambda args: shrink_witness(args, lambda trial: not holds(*trial)),
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

    rng = Random(config.seed)

    def draw(count: int) -> tuple[PiecewiseFn, ...]:
        return tuple(_draw_lattice(rng, config) for _ in range(count))

    def monotone(f: PiecewiseFn, g: PiecewiseFn, h: PiecewiseFn) -> bool:
        return leq_sub(op(f, h), op(g, h))

    def spike_product(x1: Fraction, x2: Fraction) -> PiecewiseFn:
        return op(unit_spike(x1), unit_spike(x2))

    den = closure_denominator
    lattice_pts = [Fraction(k, den) for k in range(den + 1)]
    # the interval indicators, each with its endpoints, built once for O5 and O7
    intervals = [
        ((a, b), indicator(a, b)) for a in lattice_pts for b in lattice_pts if a <= b
    ]
    # the checks run in list order, which is also the order of the seeded draws
    return [
        _check_equation(
            "O1", [draw(2) for _ in range(pairs)], op, lambda f, g: op(g, f)
        ),
        _check_equation(
            "O2",
            [draw(3) for _ in range(triples)],
            lambda f, g, h: op(op(f, g), h),
            lambda f, g, h: op(f, op(g, h)),
        ),
        _check_equation(
            neutral_axiom,
            [draw(1) for _ in range(neutral_trials)],
            lambda f: op(f, neutral),
            lambda f: f,
        ),
        falsify(
            "O4",
            ((*comparable_pair(rng, config), *draw(1)) for _ in range(monotone_trials)),
            monotone,
            lambda f, g, h: _fn_witness((f, g, h), op(f, h), op(g, h)),
            lambda args: shrink_witness(
                args, lambda trial: leq_sub(trial[0], trial[1]) and not monotone(*trial)
            ),
        ),
        falsify(
            boundary_axiom,
            intervals,
            lambda ab, ind: equals(op(FULL, ind), boundary_expected(*ab)),
            lambda ab, ind: {
                "a": str(ab[0]),
                "b": str(ab[1]),
                "lhs": to_json_dict(canonicalize(op(FULL, ind))),
                "rhs": to_json_dict(boundary_expected(*ab)),
            },
        ),
        falsify(
            "O6",
            iter_product(lattice_pts, repeat=2),
            lambda x1, x2: is_point_indicator(spike_product(x1, x2)),
            lambda x1, x2: {
                "x1": str(x1),
                "x2": str(x2),
                "result": to_json_dict(canonicalize(spike_product(x1, x2))),
            },
        ),
        falsify(
            "O7",
            iter_product(intervals, repeat=2),
            lambda p, q: is_interval_indicator(op(p[1], q[1])),
            lambda p, q: {
                "interval1": [str(x) for x in p[0]],
                "interval2": [str(x) for x in q[0]],
                "result": to_json_dict(canonicalize(op(p[1], q[1]))),
            },
        ),
    ]


# ---------------------------------------------------------------------------
# replications of the separation results


def _rows_report(axiom: str, rows: list[dict], key: str, detail: str) -> AxiomReport:
    """One trial per row; a failure's witness lists the rows whose ``key`` is false."""
    failing = [r for r in rows if not r[key]]
    witness = {"rows": failing} if failing else None
    return AxiomReport(axiom, not failing, len(rows), witness, detail=detail)


def separation_rows(
    star_choices: Sequence[ScalarConnective], grid: GridSpec
) -> list[dict]:
    """Per-connective comparison of the exact product against the oracle bound."""
    if not star_choices:
        raise ValidationError("at least one inner connective is required")
    plateau = separation_fixture()
    spike = unit_spike(_SEPARATION_POINT)
    exact = evaluate(star(plateau, spike), _SEPARATION_POINT)
    rows = []
    for sc in star_choices:
        bound = convolve_meet_at(plateau, spike, sc, MINIMUM, grid, _SEPARATION_POINT)
        separated = exact == ZERO and bound is not None and bound >= HALF
        rows.append(
            {
                "star": sc.name,
                "exact_product_value": str(exact),
                "oracle_lower_bound": "" if bound is None else str(bound),
                "separated": separated,
            }
        )
    return rows


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
    if not star_choices:
        raise ValidationError("at least one inner connective is required")
    rows = []
    ramp = rising_ramp(HALF)
    descent = falling_ramp(ZERO)
    half_spike = unit_spike(HALF)
    for sc in star_choices:
        at_zero = convolve_join_at(ramp, TOP, sc, tconorm, grid, ZERO)
        at_half = convolve_join_at(descent, TOP, sc, tconorm, grid, HALF)
        meet_grid = convolve_meet(half_spike, BOTTOM, sc, MINIMUM, grid)
        pts = grid.points()
        matches_bottom = all(
            v == evaluate(BOTTOM, x) for x, v in zip(pts, meet_grid.values)
        )
        differs_from_spike = any(
            v != evaluate(half_spike, x) for x, v in zip(pts, meet_grid.values)
        )
        rows.append(
            {
                "star": sc.name,
                "join_with_top_at_0": "" if at_zero is None else str(at_zero),
                "expected_if_neutral_at_0": str(evaluate(ramp, ZERO)),
                "join_with_top_at_half": "" if at_half is None else str(at_half),
                "expected_if_neutral_at_half": str(evaluate(descent, HALF)),
                "meet_with_bottom_is_bottom": matches_bottom,
                "meet_with_bottom_differs_from_input": differs_from_spike,
                "gap_confirmed": (
                    at_zero != evaluate(ramp, ZERO)
                    and at_half != evaluate(descent, HALF)
                    and matches_bottom
                    and differs_from_spike
                ),
            }
        )
    return rows


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
