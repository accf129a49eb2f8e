import importlib
from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import t2algebra as t
from t2algebra import DomainError, piecewise

from conftest import clear_memos, lattice_fns, open_peak_fns
from oracles import probe_points, reference_tail_value

# the module; the package's name ``star`` is the function
star_module = importlib.import_module("t2algebra.star")

F = Fraction

SIXTEENTHS = tuple(F(k, 16) for k in range(17))


def seeded_lattice(count, seed=0):
    return t.generate_lattice_functions(t.GeneratorConfig(seed=seed), count)


class TestStarFixedCases:
    def test_full_against_interval_truncates_right(self):
        got = t.star(t.indicator(0, 1), t.indicator(F(1, 5), F(3, 5)))
        assert t.equals(got, t.indicator(0, F(3, 5)))

    def test_spikes_multiply_to_minimum(self, spike_pair):
        lo, hi = spike_pair
        assert t.equals(t.star(lo, hi), lo)
        assert t.equals(t.star(hi, lo), lo)

    def test_plateau_step_against_spike(self, plateau_step):
        got = t.star(plateau_step, t.unit_spike(F(4, 5)))
        assert t.equals(got, t.indicator(0, F(3, 4)))
        assert t.evaluate(got, F(4, 5)) == 0

    def test_top_is_neutral(self, plateau_step):
        assert t.equals(t.star(plateau_step, t.TOP), plateau_step)
        assert t.equals(t.star(t.TOP, plateau_step), plateau_step)
        assert t.equals(t.star(t.TOP, t.TOP), t.TOP)

    def test_overlapping_intervals(self):
        got = t.star(t.indicator(F(1, 10), F(2, 5)), t.indicator(F(3, 10), F(9, 10)))
        assert t.equals(got, t.indicator(F(1, 10), F(2, 5)))

    def test_degenerate_interval_at_zero(self):
        got = t.star(t.indicator(0, 1), t.indicator(0, 0))
        assert t.equals(got, t.unit_spike(0))

    def test_rejects_inputs_outside_lattice(self):
        with pytest.raises(DomainError):
            t.star(t.constant(F(1, 2)), t.TOP)
        with pytest.raises(DomainError):
            t.star(
                t.TOP,
                t.pointwise_max(t.unit_spike(F(1, 4)), t.unit_spike(F(3, 4))),
            )


class TestStarClosedFormsOnIndicators:
    def test_point_indicators_exhaustive(self):
        for x1, x2 in iter_product(SIXTEENTHS, repeat=2):
            got = t.star(t.unit_spike(x1), t.unit_spike(x2))
            assert t.equals(got, t.unit_spike(min(x1, x2)))

    def test_interval_indicators_exhaustive_on_coarse_lattice(self):
        eighths = tuple(F(k, 8) for k in range(9))
        intervals = [(a, b) for a in eighths for b in eighths if a <= b]
        for (a1, b1), (a2, b2) in iter_product(intervals, repeat=2):
            got = t.star(t.indicator(a1, b1), t.indicator(a2, b2))
            assert t.equals(got, t.indicator(min(a1, a2), min(b1, b2)))


class TestStarStructure:
    @given(lattice_fns(), lattice_fns())
    def test_closed_on_lattice(self, f, g):
        out = t.star(f, g)
        assert t.in_lattice(out)

    @given(lattice_fns(), lattice_fns())
    def test_never_degenerates_to_top(self, f, g):
        if not t.equals(f, t.TOP) and not t.equals(g, t.TOP):
            assert not t.equals(t.star(f, g), t.TOP)

    @given(lattice_fns(), lattice_fns())
    def test_increasing_then_zero_shape(self, f, g):
        if t.equals(f, t.TOP) or t.equals(g, t.TOP):
            return
        out = t.star(f, g)
        xi = t.thresholds(f, g).xi
        pts = [x for x in probe_points(out, splits=2)]
        below = [x for x in pts if x < xi]
        for a, b in zip(below, below[1:]):
            assert t.evaluate(out, a) <= t.evaluate(out, b)
        for x in pts:
            if x > xi:
                assert t.evaluate(out, x) == 0

    def test_collapsed_thresholds_still_normal(self):
        # when the two thresholds coincide the peak survives either as an
        # attained 1 or as a left limit
        fns = seeded_lattice(400, seed=17)
        checked = 0
        for f, g in zip(fns[::2], fns[1::2]):
            if t.equals(f, t.TOP) or t.equals(g, t.TOP):
                continue
            th = t.thresholds(f, g)
            if th.eta != th.xi:
                continue
            checked += 1
            out = t.star(f, g)
            strict = t.envelope_left_strict(out)
            assert (
                t.evaluate(strict, th.xi) == 1 or t.evaluate(out, th.xi) == 1
            )
        assert checked >= 5


class TestStarEnvelopes:
    def test_full_pair_trivial(self):
        left, right = t.star_envelopes(t.indicator(0, 1), t.indicator(0, 1))
        assert t.equals(left, t.constant(1))
        assert t.equals(right, t.constant(1))

    def test_plateau_step_pair_frozen(self, plateau_step):
        left, right = t.star_envelopes(plateau_step, t.unit_spike(F(4, 5)))
        assert t.equals(left, t.constant(1))
        assert t.equals(right, t.indicator(0, F(3, 4)))

    def test_rejects_the_neutral_spike(self, plateau_step):
        with pytest.raises(DomainError):
            t.star_envelopes(plateau_step, t.TOP)

    @given(lattice_fns(), lattice_fns())
    def test_closed_forms_match_recomputation(self, f, g):
        if t.equals(f, t.TOP) or t.equals(g, t.TOP):
            return
        left, right = t.star_envelopes(f, g)
        out = t.star(f, g)
        assert t.equals(left, t.envelope_left(out))
        assert t.equals(right, t.envelope_right(out))


class TestTailValue:
    """The product's value at xi comes from the threshold scan, not from
    evaluating the right envelopes."""

    # of these shapes only an open peak has a right envelope below 1 at its
    # own threshold
    @given(
        st.one_of(lattice_fns(), open_peak_fns()),
        st.one_of(lattice_fns(), open_peak_fns()),
    )
    def test_matches_the_evaluated_envelopes(self, f, g):
        xi = t.thresholds(f, g).xi
        expected = reference_tail_value(f, g, xi)
        assert star_module._tail_value(f, g, xi) == expected
        if not (t.equals(f, t.TOP) or t.equals(g, t.TOP)):
            assert t.evaluate(t.star(f, g), xi) == expected

    @given(lattice_fns(), lattice_fns())
    def test_products_make_no_evaluate_calls(self, f, g):
        calls = []

        def counting(*args):
            calls.append(args)
            return t.evaluate(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(piecewise, "evaluate", counting)
            mp.setattr(star_module, "evaluate", counting, raising=False)
            clear_memos()
            t.star(f, g)
            t.costar(f, g)
            if not (t.equals(f, t.TOP) or t.equals(g, t.TOP)):
                t.star_envelopes(f, g)
        assert calls == []


class TestDuality:
    def test_dual_of_star_on_full_and_interval(self):
        dual = t.dualize(t.STAR)
        got = dual(t.indicator(0, 1), t.indicator(F(1, 5), F(3, 5)))
        assert t.equals(got, t.indicator(F(1, 5), 1))

    def test_double_dual_is_identity(self):
        double = t.dualize(t.dualize(t.STAR))
        fns = seeded_lattice(200, seed=23)
        for f, g in zip(fns[::2], fns[1::2]):
            assert t.equals(double(f, g), t.star(f, g))

    def test_dual_neutral_is_bottom(self):
        dual = t.dualize(t.STAR)
        for f in seeded_lattice(25, seed=29):
            assert t.equals(dual(f, t.BOTTOM), f)

    def test_costar_equals_dualized_star(self):
        dual = t.dualize(t.STAR)
        fns = seeded_lattice(100, seed=31)
        for f, g in zip(fns[::2], fns[1::2]):
            assert t.equals(t.costar(f, g), dual(f, g))


class TestCostar:
    def test_spikes_combine_at_maximum(self, spike_pair):
        lo, hi = spike_pair
        assert t.equals(t.costar(lo, hi), hi)

    def test_bottom_is_neutral(self, plateau_step):
        assert t.equals(t.costar(plateau_step, t.BOTTOM), plateau_step)

    def test_full_against_interval_truncates_left(self):
        got = t.costar(t.indicator(0, 1), t.indicator(F(1, 5), F(3, 5)))
        assert t.equals(got, t.indicator(F(1, 5), 1))

    def test_point_indicators_exhaustive(self):
        for x1, x2 in iter_product(SIXTEENTHS, repeat=2):
            got = t.costar(t.unit_spike(x1), t.unit_spike(x2))
            assert t.equals(got, t.unit_spike(max(x1, x2)))

    def test_interval_closed_form_on_coarse_lattice(self):
        eighths = tuple(F(k, 8) for k in range(9))
        intervals = [(a, b) for a in eighths for b in eighths if a <= b]
        for (a1, b1), (a2, b2) in iter_product(intervals, repeat=2):
            got = t.costar(t.indicator(a1, b1), t.indicator(a2, b2))
            assert t.equals(got, t.indicator(max(a1, a2), max(b1, b2)))

    @given(lattice_fns(), lattice_fns())
    def test_closed_on_lattice(self, f, g):
        assert t.in_lattice(t.costar(f, g))


# each operation with its neutral element: O3 for a tr-norm, O3' for a tr-conorm
NEUTRALS = [(t.star, t.TOP), (t.costar, t.BOTTOM)]


class TestTrLawsAsProperties:
    """O1 (commutativity), O2 (associativity) and O3/O3' (the neutral
    element) for star and costar, shrunk to a minimal counterexample."""

    @pytest.mark.parametrize("op", [t.star, t.costar])
    @given(f=lattice_fns(), g=lattice_fns())
    def test_commutative(self, op, f, g):
        assert t.equals(op(f, g), op(g, f))

    @pytest.mark.parametrize("op", [t.star, t.costar])
    @given(f=lattice_fns(), g=lattice_fns(), h=lattice_fns())
    def test_associative(self, op, f, g, h):
        assert t.equals(op(op(f, g), h), op(f, op(g, h)))

    @pytest.mark.parametrize("op, neutral", NEUTRALS)
    @given(f=lattice_fns())
    def test_neutral_element(self, op, neutral, f):
        assert t.equals(op(f, neutral), f)
        assert t.equals(op(neutral, f), f)


def test_resolve_operation_names():
    assert t.resolve_operation("star") is t.STAR
    assert t.resolve_operation("conv-meet:min:min") is t.MEET
    assert t.resolve_operation("conv-join:max:min") is t.JOIN
    with pytest.raises(t.ValidationError):
        t.resolve_operation("conv-meet:product:min")
