import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import t2algebra as t
from t2algebra import DomainError, ValidationError, piecewise
from t2algebra.piecewise import (
    _affine_above,
    _affine_ratio,
    _lt,
    _max,
    _min,
    _same,
    _same_piece,
)

from conftest import clear_memos as _clear_memos
from conftest import lattice_fns, piecewise_fns, unit_fracs
from oracles import (
    exact_sup,
    exact_sup_full_scan,
    oracle_envelope_left,
    oracle_envelope_left_strict,
    oracle_envelope_right,
    oracle_envelope_right_strict,
    oracle_level_one_ends,
    probe_points,
    quasiconcave_violation,
    reference_combine,
    reference_leq,
)

F = Fraction


def rational_points(count, seed=0, max_den=97):
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        den = rng.randint(1, max_den)
        pts.append(F(rng.randint(0, den), den))
    return pts


class TestEvaluate:
    def test_indicator_includes_endpoints(self):
        f = t.indicator(F(1, 5), F(3, 5))
        assert t.evaluate(f, F(1, 5)) == 1
        assert t.evaluate(f, F(3, 5)) == 1
        assert t.evaluate(f, F(2, 5)) == 1
        assert t.evaluate(f, F(1, 10)) == 0

    def test_plateau_step_value_in_tail(self, plateau_step):
        assert t.evaluate(plateau_step, F(4, 5)) == F(1, 2)
        assert t.evaluate(plateau_step, F(3, 4)) == 1

    def test_affine_ramp_at_origin(self):
        assert t.evaluate(t.rising_ramp(F(1, 2)), 0) == F(1, 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            t.evaluate(t.constant(0), F(3, 2))

    def test_piece_containing_rejects_a_breakpoint(self):
        f = t.indicator(F(1, 5), F(3, 5))
        assert f.piece_containing(F(2, 5)) == (0, 1)
        with pytest.raises(DomainError, match="is a breakpoint"):
            f.piece_containing(F(1, 5))

    @pytest.mark.parametrize("x", [-1, 2])
    def test_piece_containing_rejects_out_of_range(self, x):
        with pytest.raises(ValidationError, match="outside"):
            t.indicator(F(1, 5), F(3, 5)).piece_containing(x)

    def test_piece_containing_coerces_like_evaluate(self):
        assert t.indicator(F(1, 5), F(3, 5)).piece_containing("1/4") == (0, 1)

    @pytest.mark.parametrize("i", [-1, 0, 3])
    def test_left_limit_outside_its_indices(self, i):
        with pytest.raises(DomainError, match="from below"):
            t.step(F(1, 2), 1, F(1, 4)).left_limit(i)

    @pytest.mark.parametrize("i", [-1, 2, 3])
    def test_right_limit_outside_its_indices(self, i):
        with pytest.raises(DomainError, match="from above"):
            t.step(F(1, 2), 1, F(1, 4)).right_limit(i)


class TestCanonicalize:
    def test_merges_collinear_split(self):
        split = t.PiecewiseFn(
            (F(0), F(1, 2), F(1)),
            (F(1), F(1), F(1)),
            ((F(0), F(1)), (F(0), F(1))),
        )
        assert t.canonicalize(split) == t.constant(1)

    def test_drops_redundant_breakpoint_of_spike(self):
        f = t.PiecewiseFn(
            (F(0), F(3, 10), F(3, 5), F(1)),
            (F(0), F(1), F(0), F(0)),
            ((F(0), F(0)), (F(0), F(0)), (F(0), F(0))),
        )
        g = t.canonicalize(f)
        assert g == t.unit_spike(F(3, 10))
        assert len(g.breakpoints) == 3

    @given(piecewise_fns())
    def test_idempotent(self, f):
        once = t.canonicalize(f)
        assert t.canonicalize(once) == once

    @given(piecewise_fns())
    def test_preserves_pointwise_values(self, f):
        g = t.canonicalize(f)
        for x in probe_points(f, splits=3):
            assert t.evaluate(f, x) == t.evaluate(g, x)


class TestEquals:
    def test_degenerate_interval_is_spike(self):
        assert t.equals(t.indicator(0, 0), t.unit_spike(0))

    def test_plateau_step_is_not_indicator(self, plateau_step):
        assert not t.equals(plateau_step, t.indicator(0, F(3, 4)))

    @given(piecewise_fns())
    def test_canonical_form_agrees_with_sampling(self, f):
        g = t.canonicalize(f)
        assert t.equals(f, g)
        for x in rational_points(50, seed=7):
            assert t.evaluate(f, x) == t.evaluate(g, x)


class TestPointwiseMinMax:
    def test_interval_intersection(self):
        lhs = t.pointwise_min(t.indicator(0, F(1, 2)), t.indicator(F(3, 10), 1))
        assert t.equals(lhs, t.indicator(F(3, 10), F(1, 2)))

    def test_max_idempotent(self, plateau_step):
        assert t.equals(t.pointwise_max(plateau_step, plateau_step), plateau_step)

    def test_crossing_produces_tent(self):
        # min(x, 1-x): crossing computed exactly at (1/2, 1/2)
        tent = t.pointwise_min(t.from_affine(1, 0), t.from_affine(-1, 1))
        assert tent.breakpoints == (F(0), F(1, 2), F(1))
        assert tent.values == (F(0), F(1, 2), F(0))
        assert tent.pieces == ((F(1), F(0)), (F(-1), F(1)))

    @given(piecewise_fns(), piecewise_fns())
    def test_exactness_against_scalar_min_max(self, f, g):
        lo = t.pointwise_min(f, g)
        hi = t.pointwise_max(f, g)
        for x in probe_points(f, g, splits=3):
            fx, gx = t.evaluate(f, x), t.evaluate(g, x)
            assert t.evaluate(lo, x) == min(fx, gx)
            assert t.evaluate(hi, x) == max(fx, gx)

    @given(piecewise_fns(), piecewise_fns())
    def test_leq_matches_max(self, f, g):
        assert t.pointwise_leq(f, g) == t.equals(t.pointwise_max(f, g), g)


def _line(slope, intercept, *extra_breaks):
    # one affine function, optionally split at extra (removable) breakpoints
    breaks = (F(0),) + tuple(extra_breaks) + (F(1),)
    s, c = F(slope), F(intercept)
    values = tuple(s * b + c for b in breaks)
    return t.PiecewiseFn(breaks, values, ((s, c),) * (len(breaks) - 1))


SWEEP_CASES = {
    # x against 1 - x: they cross at 1/2, which neither has as a breakpoint
    "crossing_inside_interval": (_line(1, 0), _line(-1, 1)),
    # the same lines, split at their crossing point
    "crossing_at_merged_breakpoint": (_line(1, 0), _line(-1, 1, F(1, 2))),
    "crossing_at_breakpoint_of_both": (_line(1, 0, F(1, 2)), _line(-1, 1, F(1, 2))),
    "equal_slopes_other_intercepts": (
        _line(F(1, 2), 0, F(1, 4)),
        _line(F(1, 2), F(1, 4), F(3, 4)),
    ),
    "identical_pieces": (t.step(F(1, 2), 1, F(1, 4)), t.step(F(3, 4), 1, 0)),
    "identical_functions": (t.step(F(1, 2), 1, F(1, 4)), t.step(F(1, 2), 1, F(1, 4))),
    "opposite_jumps_at_shared_breakpoint": (
        t.step(F(1, 2), 1, 0),
        t.PiecewiseFn(
            (F(0), F(1, 2), F(1)),
            (F(1, 4), F(1, 2), F(3, 4)),
            ((F(0), F(1, 4)), (F(0), F(3, 4))),
        ),
    ),
    "spike_on_a_jump": (t.unit_spike(F(1, 2)), t.indicator(F(1, 2), 1)),
    "twin_spikes": (t.unit_spike(F(3, 10)), t.unit_spike(F(7, 10))),
    # 2x climbs to a limit of 1 at 1/2 that the value there (0) does not
    # reach: each running supremum takes that limit as its new level
    "limit_beats_the_value_beyond": (
        t.PiecewiseFn(
            (F(0), F(1, 2), F(1)), (F(0), F(0), F(0)), ((F(2), F(0)), (F(0), F(0)))
        ),
        _line(F(-1, 3), F(2, 3), F(1, 3)),
    ),
    # x against (1 - x) / 2 on thirds and fifths: they cross at 1/3
    "crossing_at_merged_breakpoint_coprime": (
        _line(1, 0, F(1, 3)),
        _line(F(-1, 2), F(1, 2), F(1, 5)),
    ),
}


class TestSweepAgainstMidpointReference:
    """The one-sweep min/max/leq against the midpoint-and-bisect routes."""

    @staticmethod
    def _agree(f, g):
        assert t.pointwise_min(f, g) == reference_combine(f, g, take_min=True)
        assert t.pointwise_max(f, g) == reference_combine(f, g, take_min=False)
        assert t.pointwise_leq(f, g) == reference_leq(f, g)
        assert t.pointwise_leq(g, f) == reference_leq(g, f)

    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_targeted_cases(self, case):
        f, g = SWEEP_CASES[case]
        self._agree(f, g)
        self._agree(g, f)

    def test_targeted_cases_are_exact(self):
        f, g = SWEEP_CASES["crossing_at_merged_breakpoint"]
        assert t.pointwise_max(f, g) == t.PiecewiseFn(
            (F(0), F(1, 2), F(1)),
            (F(1), F(1, 2), F(1)),
            ((F(-1), F(1)), (F(1), F(0))),
        )
        f, g = SWEEP_CASES["equal_slopes_other_intercepts"]
        assert t.pointwise_min(f, g) == _line(F(1, 2), 0)
        assert t.pointwise_leq(f, g) and not t.pointwise_leq(g, f)
        f, g = SWEEP_CASES["opposite_jumps_at_shared_breakpoint"]
        assert t.evaluate(t.pointwise_min(f, g), F(1, 2)) == F(1, 2)
        assert t.evaluate(t.pointwise_max(f, g), F(1, 2)) == 1

    @given(piecewise_fns(), piecewise_fns())
    def test_random_pairs(self, f, g):
        self._agree(f, g)

    @given(piecewise_fns(), piecewise_fns(den=15))
    def test_random_pairs_on_coprime_grids(self, f, g):
        # breakpoints on the 16ths and 15ths coincide only at 0 and 1
        self._agree(f, g)
        self._agree(g, f)

    @given(piecewise_fns())
    def test_pairs_sharing_pieces(self, f):
        # pointwise ops of f with a function built from it share whole pieces
        g = t.pointwise_max(f, t.constant(F(1, 2)))
        self._agree(f, g)
        self._agree(g, f)


class TestReflect:
    def test_interval_maps_to_mirror_interval(self):
        assert t.equals(
            t.reflect(t.indicator(F(1, 5), F(3, 5))), t.indicator(F(2, 5), F(4, 5))
        )

    def test_spike_at_one_maps_to_zero(self):
        assert t.equals(t.reflect(t.unit_spike(1)), t.unit_spike(0))

    @given(piecewise_fns())
    def test_involution(self, f):
        assert t.equals(t.reflect(t.reflect(f)), f)

    @given(piecewise_fns())
    def test_pointwise_mirror(self, f):
        g = t.reflect(f)
        for x in probe_points(f, splits=3):
            assert t.evaluate(g, F(1) - x) == t.evaluate(f, x)


def _assert_envelopes_match_oracles(f):
    envelopes = [
        (t.envelope_left(f), oracle_envelope_left),
        (t.envelope_right(f), oracle_envelope_right),
        (t.envelope_left_strict(f), oracle_envelope_left_strict),
        (t.envelope_right_strict(f), oracle_envelope_right_strict),
    ]
    for x in probe_points(f, *(env for env, _ in envelopes), splits=3):
        for env, oracle in envelopes:
            assert t.evaluate(env, x) == oracle(f, x)


class TestEnvelopes:
    def test_left_envelope_of_interval(self):
        env = t.envelope_left(t.indicator(F(1, 5), F(3, 5)))
        assert t.equals(env, t.pointwise_max(t.indicator(F(1, 5), 1), t.constant(0)))
        assert t.evaluate(env, F(1, 10)) == 0
        assert t.evaluate(env, F(9, 10)) == 1

    def test_left_envelope_at_one_is_sup(self, plateau_step):
        for f in (plateau_step, t.rising_ramp(F(1, 4)), t.constant(F(3, 10))):
            assert t.evaluate(t.envelope_left(f), 1) == t.sup_value(f)
            assert t.evaluate(t.envelope_right(f), 0) == t.sup_value(f)

    def test_falling_ramp_left_envelope_constant(self):
        assert t.equals(t.envelope_left(t.from_affine(-1, 1)), t.constant(1))

    def test_right_envelope_of_plateau_step(self, plateau_step):
        assert t.equals(t.envelope_right(plateau_step), plateau_step)

    def test_right_envelope_of_interval(self):
        env = t.envelope_right(t.indicator(F(1, 5), F(3, 5)))
        assert t.equals(env, t.indicator(0, F(3, 5)))

    @given(piecewise_fns())
    def test_left_envelope_matches_enumeration_oracle(self, f):
        env = t.envelope_left(f)
        for x in probe_points(f, env, splits=3):
            assert t.evaluate(env, x) == oracle_envelope_left(f, x)

    @given(piecewise_fns())
    def test_right_envelope_matches_enumeration_oracle(self, f):
        env = t.envelope_right(f)
        for x in probe_points(f, env, splits=3):
            assert t.evaluate(env, x) == oracle_envelope_right(f, x)

    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_targeted_cases_match_enumeration_oracles(self, case):
        f, g = SWEEP_CASES[case]
        for h in (f, g, t.pointwise_min(f, g), t.pointwise_max(f, g)):
            _assert_envelopes_match_oracles(h)

    def test_limit_beyond_the_value_is_the_new_level(self):
        f, _ = SWEEP_CASES["limit_beats_the_value_beyond"]
        assert t.equals(t.envelope_left(f), t.pointwise_max(f, t.indicator(F(1, 2), 1)))
        # sup over [1/2, 1] leaves the limit out: 1 only left of 1/2
        assert t.envelope_right(f) == t.PiecewiseFn(
            (F(0), F(1, 2), F(1)), (F(1), F(0), F(0)), ((F(0), F(1)), (F(0), F(0)))
        )

    @given(piecewise_fns(), piecewise_fns(den=15))
    def test_combinations_on_coprime_grids_match_enumeration_oracles(self, f, g):
        # min and max of these add crossings at rationals off both grids
        _assert_envelopes_match_oracles(t.pointwise_min(f, g))
        _assert_envelopes_match_oracles(t.pointwise_max(f, g))

    @given(piecewise_fns())
    def test_idempotence(self, f):
        left = t.envelope_left(f)
        right = t.envelope_right(f)
        assert t.equals(t.envelope_left(left), left)
        assert t.equals(t.envelope_right(right), right)

    @given(piecewise_fns())
    def test_reflect_swaps_envelopes(self, f):
        assert t.equals(
            t.envelope_left(t.reflect(f)), t.reflect(t.envelope_right(f))
        )
        assert t.equals(
            t.envelope_right(t.reflect(f)), t.reflect(t.envelope_left(f))
        )

    @given(piecewise_fns())
    def test_function_below_both_envelopes(self, f):
        both = t.pointwise_min(t.envelope_left(f), t.envelope_right(f))
        assert t.pointwise_leq(f, both)

    @given(piecewise_fns())
    def test_cross_envelopes_are_constant_sup(self, f):
        sup = t.constant(t.sup_value(f))
        assert t.equals(t.envelope_right(t.envelope_left(f)), sup)
        assert t.equals(t.envelope_left(t.envelope_right(f)), sup)
        assert t.equals(
            t.pointwise_max(t.envelope_left(f), t.envelope_right(f)), sup
        )


class TestStrictEnvelopes:
    def test_spike_strict_left_values(self):
        env = t.envelope_left_strict(t.unit_spike(F(1, 2)))
        assert t.evaluate(env, F(1, 2)) == 0
        assert t.evaluate(env, F(3, 5)) == 1
        assert t.evaluate(env, 0) == 0

    def test_boundary_conventions(self, plateau_step):
        assert t.evaluate(t.envelope_left_strict(plateau_step), 0) == t.evaluate(
            plateau_step, 0
        )
        assert t.evaluate(t.envelope_right_strict(plateau_step), 1) == t.evaluate(
            plateau_step, 1
        )

    @given(piecewise_fns())
    def test_matches_enumeration_oracle(self, f):
        left = t.envelope_left_strict(f)
        right = t.envelope_right_strict(f)
        for x in probe_points(f, left, right, splits=3):
            assert t.evaluate(left, x) == oracle_envelope_left_strict(f, x)
            assert t.evaluate(right, x) == oracle_envelope_right_strict(f, x)

    @given(piecewise_fns())
    def test_strict_left_is_left_limit_of_left_envelope(self, f):
        # the strict envelope agrees with sup over [0, x) of the plain one
        strict = t.envelope_left_strict(f)
        plain = t.envelope_left(f)
        for x in probe_points(f, strict, splits=2):
            if x == 0:
                continue
            assert t.evaluate(strict, x) == exact_sup(
                plain, F(0), x, include_hi=False
            )


class TestSupNormalConvex:
    def test_sup_values(self, plateau_step):
        assert t.sup_value(plateau_step) == 1
        assert t.sup_value(t.rising_ramp(F(1, 2))) == 1
        assert t.sup_value(t.constant(F(3, 10))) == F(3, 10)

    @given(piecewise_fns())
    def test_sup_matches_full_scan(self, f):
        assert t.sup_value(f) == exact_sup_full_scan(f, F(0), F(1))

    def test_sup_counts_unattained_limits(self):
        # climbs to 1 at the right endpoint but drops at the point itself
        f = t.PiecewiseFn((F(0), F(1)), (F(0), F(1, 4)), ((F(1), F(0)),))
        assert t.sup_value(f) == 1
        assert t.is_normal(f)

    def test_plateau_step_in_lattice(self, plateau_step):
        assert t.is_normal(plateau_step)
        assert t.is_convex(plateau_step)

    def test_twin_spikes_not_convex(self):
        f = t.pointwise_max(t.unit_spike(F(3, 10)), t.unit_spike(F(7, 10)))
        assert t.is_normal(f)
        assert not t.is_convex(f)
        assert quasiconcave_violation(f) is not None

    def test_low_constant_convex_not_normal(self):
        f = t.constant(F(9, 10))
        assert not t.is_normal(f)
        assert t.is_convex(f)

    @given(piecewise_fns())
    def test_convexity_agrees_with_quasiconcavity_probe(self, f):
        violation = quasiconcave_violation(f)
        if t.is_convex(f):
            assert violation is None
        if violation is not None:
            assert not t.is_convex(f)

    @given(lattice_fns())
    def test_lattice_strategy_members_pass_predicates(self, f):
        assert t.is_normal(f)
        assert t.is_convex(f)
        assert quasiconcave_violation(f) is None


class TestThresholds:
    def test_spike_pair(self, spike_pair):
        lo, hi = spike_pair
        th = t.thresholds(lo, hi)
        assert th.eta == F(3, 10)
        assert th.xi == F(3, 10)

    def test_full_against_interval(self):
        th = t.thresholds(t.indicator(0, 1), t.indicator(F(1, 5), F(3, 5)))
        assert th.eta == 0
        assert th.xi == F(3, 5)

    def test_full_against_full(self):
        th = t.thresholds(t.indicator(0, 1), t.indicator(0, 1))
        assert (th.eta, th.xi) == (0, 1)

    def test_unattained_peak_thresholds(self):
        f = t.PiecewiseFn((F(0), F(1)), (F(0), F(1, 4)), ((F(1), F(0)),))
        assert t.left_threshold(f) == 1
        assert t.right_threshold(f) == 1

    def test_requires_normal_inputs(self):
        with pytest.raises(DomainError):
            t.thresholds(t.constant(F(1, 2)), t.constant(1))

    # arbitrary functions add level sets that are open at an end and
    # functions that never reach 1
    @given(st.one_of(lattice_fns(), piecewise_fns()))
    def test_thresholds_are_the_level_one_ends(self, f):
        ends = oracle_level_one_ends(f)
        if ends is None:
            with pytest.raises(DomainError, match="requires a normal function"):
                t.left_threshold(f)
            with pytest.raises(DomainError, match="requires a normal function"):
                t.right_threshold(f)
        else:
            assert (t.left_threshold(f), t.right_threshold(f)) == ends

    @given(lattice_fns(), lattice_fns())
    def test_eta_never_exceeds_xi(self, f, g):
        th = t.thresholds(f, g)
        assert th.eta <= th.xi


class TestIndicator:
    def test_full_interval_is_constant_one(self):
        assert t.equals(t.indicator(0, 1), t.constant(1))

    def test_spike_at_one(self):
        f = t.indicator(1, 1)
        assert t.evaluate(f, 1) == 1
        assert t.evaluate(f, F(99, 100)) == 0

    def test_rejects_reversed_bounds(self):
        with pytest.raises(DomainError):
            t.indicator(F(3, 5), F(1, 5))


class TestValidation:
    def test_unsorted_breakpoints(self):
        with pytest.raises(ValidationError):
            t.PiecewiseFn(
                (F(0), F(3, 4), F(1, 2), F(1)),
                (F(0), F(0), F(0), F(0)),
                ((F(0), F(0)),) * 3,
            )

    def test_value_out_of_range(self):
        with pytest.raises(ValidationError):
            t.PiecewiseFn((F(0), F(1)), (F(0), F(2)), ((F(0), F(0)),))

    def test_piece_escapes_range(self):
        with pytest.raises(ValidationError):
            t.PiecewiseFn((F(0), F(1)), (F(0), F(0)), ((F(2), F(0)),))

    @given(
        st.fractions(-3, 3, max_denominator=12),
        st.fractions(-3, 3, max_denominator=12),
        unit_fracs(12).filter(lambda q: 0 < q < 1),
    )
    def test_piece_range_check_matches_exact_arithmetic(self, slope, intercept, mid):
        breaks = (F(0), mid, F(1))
        piece = (slope, intercept)
        reached = [slope * x + intercept for x in breaks]
        inside = all(0 <= y <= 1 for y in reached)

        def build():
            return t.PiecewiseFn(breaks, (F(0),) * 3, (piece, piece))

        if inside:
            assert build().pieces == (piece, piece)
        else:
            with pytest.raises(ValidationError, match="outside"):
                build()

    def test_pieces_are_coerced(self):
        f = t.PiecewiseFn((0, 1), ("0", "1"), [["1", 0]])
        assert f == t.from_affine(1, 0)
        assert all(type(q) is F for q in f.pieces[0])

    def test_one_value_per_breakpoint(self):
        with pytest.raises(ValidationError, match="^one value per breakpoint required$"):
            t.PiecewiseFn((F(0), F(1)), (F(0),), ((F(0), F(0)),))

    def test_endpoints_required(self):
        with pytest.raises(ValidationError):
            t.PiecewiseFn((F(1, 4), F(1)), (F(0), F(0)), ((F(0), F(0)),))

    @pytest.mark.parametrize(
        "breaks, message",
        [
            # equal neighbours held in distinct objects, one built unreduced
            ((F(0), F(1, 2), F(1, 2), F(1)), "breakpoints must be strictly increasing"),
            ((F(0), F(1, 2), F(2, 4), F(1)), "breakpoints must be strictly increasing"),
            ((F(0), F(3, 2), F(1)), "breakpoints must be strictly increasing"),
            ((F(0), F(-1, 2), F(1)), "breakpoints must be strictly increasing"),
            ((F(0), F(2)), "breakpoints must start at 0 and end at 1"),
            ((F(0), F(1, 2)), "breakpoints must start at 0 and end at 1"),
            # coerced inputs are range-checked while they are coerced
            ((0, "3/2", 1), "3/2 lies outside [0, 1]"),
        ],
    )
    def test_breakpoint_messages(self, breaks, message):
        zeros = (F(0),) * len(breaks)
        flat = ((F(0), F(0)),) * (len(breaks) - 1)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            t.PiecewiseFn(breaks, zeros, flat)

    def test_float_rejected(self):
        with pytest.raises(ValidationError):
            t.indicator(0.2, 0.6)

    @pytest.mark.parametrize("flag", [False, True])
    def test_bool_rejected(self, flag):
        with pytest.raises(ValidationError, match="bool"):
            t.indicator(flag, 1)


def signed_rationals():
    """Signed rationals, some with numerators and denominators of hundreds of
    digits (slopes are negative, and crossings grow long)."""
    small = st.fractions(min_value=-4, max_value=4, max_denominator=60)
    huge = st.builds(
        Fraction,
        st.integers(-(10**400), 10**400),
        st.integers(1, 10**300),
    )
    return st.one_of(small, huge)


@st.composite
def rational_pairs(draw):
    """Two rationals; often equal values held in distinct objects."""
    p = draw(signed_rationals())
    k = draw(st.integers(1, 5))
    twin = Fraction(p.numerator * k, p.denominator * k)
    q = draw(st.one_of(signed_rationals(), st.just(twin)))
    return p, q


class TestIntegerComparators:
    """The kernel's slot comparisons agree with Fraction's operators."""

    @given(rational_pairs())
    def test_lt_and_same(self, pair):
        p, q = pair
        assert _lt(p, q) == (p < q)
        assert _lt(q, p) == (q < p)
        assert _same(p, q) == (p == q)

    @given(rational_pairs())
    def test_min_max_return_the_same_object(self, pair):
        p, q = pair
        assert _min(p, q) is min(p, q)
        assert _max(p, q) is max(p, q)
        assert _min(q, p) is min(q, p)
        assert _max(q, p) is max(q, p)

    @given(rational_pairs(), rational_pairs())
    def test_piece_equality(self, first, second):
        assert _same_piece(first, second) == (first == second)
        twin = tuple(Fraction(q.numerator, q.denominator) for q in first)
        assert _same_piece(first, twin)

    @given(rational_pairs(), rational_pairs(), signed_rationals())
    def test_affine_ratio_and_above(self, p1, p2, x):
        num, den = _affine_ratio(p1, x)
        assert den > 0
        assert Fraction(num, den) == p1[0] * x + p1[1]
        assert _affine_above(p1, p2, x) == (p1[0] * x + p1[1] > p2[0] * x + p2[1])

    @given(piecewise_fns(den=97, max_interior=12), st.data())
    def test_evaluate_bisection(self, f, data):
        # at a breakpoint held in another object, and inside each piece
        for i, b in enumerate(f.breakpoints):
            assert t.evaluate(f, Fraction(b.numerator, b.denominator)) is f.values[i]
        for (s, c), lo, hi in zip(f.pieces, f.breakpoints, f.breakpoints[1:]):
            x = data.draw(st.fractions(lo, hi).filter(lambda x: lo < x < hi))
            assert t.evaluate(f, x) == s * x + c


class TestKernelMakesNoFractionCompare:
    """The operators compare in integers: with Fraction's comparisons made
    to fail, they still give their usual results."""

    def test_operators_without_fraction_comparisons(self, monkeypatch):
        config = t.GeneratorConfig(seed=5)
        fns = t.generate_lattice_functions(config, 12)
        odd = t.generate_nonlattice_functions(config, 6)
        pairs = list(zip(fns, fns[1:])) + list(zip(odd, fns))
        points = [F(k, 7) for k in range(8)]
        ops = (t.meet, t.join, t.pointwise_min, t.pointwise_max, t.pointwise_leq)
        lattice_ops = (t.star, t.costar, t.leq_sub, t.thresholds)
        expected = [op(f, g) for f, g in pairs for op in ops]
        expected += [op(f, g) for f, g in pairs[:11] for op in lattice_ops]
        expected += [t.evaluate(f, x) for f in fns + odd for x in points]

        def refuse(*args):
            raise AssertionError("Fraction comparison inside the kernel")

        monkeypatch.setattr(Fraction, "_richcmp", refuse)
        monkeypatch.setattr(Fraction, "__eq__", refuse)
        _clear_memos()
        got = [op(f, g) for f, g in pairs for op in ops]
        got += [op(f, g) for f, g in pairs[:11] for op in lattice_ops]
        got += [t.evaluate(f, x) for f in fns + odd for x in points]
        monkeypatch.undo()
        assert got == expected


def _unary_results(f):
    return [
        t.canonicalize(f),
        t.reflect(f),
        t.envelope_left(f),
        t.envelope_right(f),
        t.envelope_left_strict(f),
        t.envelope_right_strict(f),
    ]


def _pair_results(f, g):
    return [
        t.pointwise_min(f, g),
        t.pointwise_max(f, g),
        t.meet(f, g),
        t.join(f, g),
        t.leq_sub(f, g),
        *_unary_results(f),
        *_unary_results(g),
    ]


def _lattice_results(f, g):
    out = _pair_results(f, g) + [t.star(f, g), t.costar(f, g)]
    if not (t.equals(f, t.TOP) or t.equals(g, t.TOP)):
        out.extend(t.star_envelopes(f, g))
    return out


def _small_batteries():
    config = t.GeneratorConfig(seed=3)
    sizes = dict(pairs=6, triples=3, neutral_trials=3, monotone_trials=3)
    return [
        t.check_tr_axioms(t.STAR, "tr-norm", config, closure_denominator=4, **sizes),
        t.check_tr_axioms(t.COSTAR, "tr-conorm", config, closure_denominator=4, **sizes),
    ]


class TestSealedBuilds:
    """Functions the library computes are sealed without the constructor's
    checks; routing them through the constructor changes nothing."""

    @given(lattice_fns(), lattice_fns())
    def test_library_builds_skip_the_constructor(self, f, g):
        calls = []
        checked = t.PiecewiseFn.__post_init__

        def counting(self):
            calls.append(self)
            checked(self)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(t.PiecewiseFn, "__post_init__", counting)
            _clear_memos()
            _lattice_results(f, g)
        assert calls == []

    @staticmethod
    def _through_constructor(compute):
        built = []

        def validated(breaks, values, pieces):
            built.append(None)
            return t.PiecewiseFn(breaks, values, pieces)

        _clear_memos()
        expected = compute()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(piecewise, "_sealed", validated)
            _clear_memos()
            got = compute()
        _clear_memos()
        assert built
        return got, expected

    @given(lattice_fns(), lattice_fns())
    def test_reference_path_on_lattice_functions(self, f, g):
        got, expected = self._through_constructor(lambda: _lattice_results(f, g))
        assert got == expected

    @given(piecewise_fns(), piecewise_fns())
    def test_reference_path_on_arbitrary_functions(self, f, g):
        got, expected = self._through_constructor(lambda: _pair_results(f, g))
        assert got == expected

    def test_reference_path_through_the_batteries(self):
        got, expected = self._through_constructor(_small_batteries)
        assert got == expected


class TestJsonRoundTrip:
    def test_bit_exact_round_trip(self, plateau_step):
        text = t.dumps(plateau_step)
        again = t.loads(text)
        assert again == plateau_step
        assert t.dumps(again) == text

    @given(piecewise_fns(den=97))
    def test_round_trip_arbitrary(self, f):
        g = t.canonicalize(f)
        assert t.loads(t.dumps(g)) == g

    @pytest.mark.parametrize("name", ["meet", "join", "star", "costar"])
    @given(f=lattice_fns(), g=lattice_fns())
    def test_binary_results_are_canonical_and_round_trip(self, name, f, g):
        result = getattr(t, name)(f, g)
        assert t.canonicalize(result) == result
        assert t.loads(t.dumps(result)) == result

    @pytest.mark.parametrize("name", ["reflect", "envelope_left", "envelope_right"])
    @given(f=lattice_fns())
    def test_unary_results_are_canonical_and_round_trip(self, name, f):
        result = getattr(t, name)(f)
        assert t.canonicalize(result) == result
        assert t.loads(t.dumps(result)) == result

    def test_malformed_json_rejected(self):
        with pytest.raises(ValidationError):
            t.loads("{not json")
        with pytest.raises(ValidationError):
            t.loads('{"breakpoints": []}')
        with pytest.raises(ValidationError):
            t.loads('{"breakpoints": [{"x": "0", "v": "0"}], "pieces": []}')

    def test_nesting_past_the_recursion_limit_rejected(self):
        with pytest.raises(ValidationError, match="nested too deeply"):
            t.loads("[" * 100_000 + "]" * 100_000)


@given(lattice_fns())
def test_indicator_membership_predicates(f):
    if t.is_point_indicator(f):
        assert t.is_interval_indicator(f)


def test_indicator_predicates_on_examples():
    assert t.is_point_indicator(t.unit_spike(F(5, 16)))
    assert not t.is_point_indicator(t.indicator(F(1, 4), F(1, 2)))
    assert t.is_interval_indicator(t.indicator(F(1, 4), F(1, 2)))
    assert t.is_interval_indicator(t.constant(1))
    assert not t.is_interval_indicator(t.step(F(1, 2), 1, F(1, 4)))
    assert not t.is_interval_indicator(t.constant(F(1, 2)))


@given(st.integers(0, 16).map(lambda k: F(k, 16)), st.integers(0, 16).map(lambda k: F(k, 16)))
def test_indicator_always_convex(a, b):
    lo, hi = min(a, b), max(a, b)
    f = t.indicator(lo, hi)
    assert t.is_convex(f)
    assert t.is_normal(f)


def test_composed_operations_are_exact_at_random_points(plateau_step):
    # evaluating a composed result equals composing the evaluations
    f = plateau_step
    g = t.indicator(F(1, 5), F(3, 5))
    composed = t.pointwise_max(t.reflect(t.pointwise_min(f, g)), t.envelope_left(g))
    for x in rational_points(1000, seed=11):
        direct = max(
            min(t.evaluate(f, 1 - x), t.evaluate(g, 1 - x)),
            oracle_envelope_left(g, x),
        )
        assert t.evaluate(composed, x) == direct
