import importlib
from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import t2algebra as t
from t2algebra import DomainError, piecewise

from conftest import THRESHOLD_EDGE_CASES, clear_memos, lattice_fns, open_peak_fns
from oracles import probe_points, reference_star_value, reference_tail_value

# the module; the package's name ``star`` is the function
star_module = importlib.import_module("t2algebra.star")

F = Fraction

SIXTEENTHS = tuple(F(k, 16) for k in range(17))


def seeded_lattice(count, seed=0):
    return t.generate_lattice_functions(t.GeneratorConfig(seed=seed), count)


SPLICES = {t.star: star_module._star_splice, t.costar: star_module._costar_splice}


def spliced(op, f, g):
    """op(f, g) by its general path, the splice, called directly: the
    reference for the closed form on interval indicators."""
    return SPLICES[op](piecewise._shape(f), piecewise._shape(g))


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


# FULL, BOTTOM, a spike, the separation fixture and the 153 indicators on 16ths
STAR_FIXTURES = (
    t.FULL,
    t.BOTTOM,
    t.unit_spike(F(5, 16)),
    t.step(F(3, 4), 1, F(1, 2)),
    *(t.indicator(a, b) for a in SIXTEENTHS for b in SIXTEENTHS if a <= b),
)


class TestStarAgainstItsDefinition:
    """star equals, at every probe, the pointwise reference built from the
    oracle envelopes and level-one ends; at TOP it is the other operand. The
    open peaks reach 1 only as a limit, so the value at xi can fall short of 1."""

    @given(
        st.one_of(lattice_fns(), open_peak_fns(), st.sampled_from(STAR_FIXTURES)),
        st.one_of(lattice_fns(), open_peak_fns(), st.sampled_from(STAR_FIXTURES)),
    )
    def test_pointwise(self, f, g):
        product = t.star(f, g)
        if t.TOP in (f, g):
            assert product == (g if f == t.TOP else f)
            return
        for x in probe_points(f, g, product):
            assert t.evaluate(product, x) == reference_star_value(f, g, x)


class TestSealedSplice:
    """Away from the neutral element, star and costar are the sealed splice,
    called directly; at it they hand back the other operand."""

    @staticmethod
    def _agree(pairs):
        for f, g in pairs:
            for op, neutral in ((t.star, t.TOP), (t.costar, t.BOTTOM)):
                p = op(f, g)
                assert type(p) is t.PiecewiseFn
                if neutral in (f, g):
                    other = g if f == neutral else f
                    # an interval indicator's product with it takes the closed
                    # form: an equal function, not always the same object
                    assert p == other and (p is other or t.is_interval_indicator(other))
                    continue
                q = spliced(op, f, g)
                assert (p.breakpoints, p.values, p.pieces) == (q.breakpoints, q.values, q.pieces)

    @given(
        st.one_of(lattice_fns(), open_peak_fns(), st.sampled_from(STAR_FIXTURES)),
        st.one_of(lattice_fns(), open_peak_fns(), st.sampled_from(STAR_FIXTURES)),
    )
    def test_equals_the_sealed_splice(self, f, g):
        self._agree([(f, g)])

    def test_equals_the_sealed_splice_on_indicators(self):
        # two interval indicators take the closed form: compare it with the
        # splice called directly, not with itself
        indicators = STAR_FIXTURES[4:]
        for f in indicators[::3]:
            for g in indicators:
                for op in (t.star, t.costar):
                    assert op(f, g) == spliced(op, f, g)

    def test_the_neutral_element_hands_back_the_other_operand(self):
        # indicators take the closed form, [min(1, a), min(1, b)] = [a, b] for
        # TOP and its mirror for BOTTOM, even a loaded indicator, a separate object
        loaded = piecewise.loads(piecewise.dumps(t.indicator(F(1, 4), F(1, 2))))
        assert loaded is not t.indicator(F(1, 4), F(1, 2))
        plain = t.step(F(3, 4), 1, F(1, 2))
        for op, neutral in ((t.star, t.TOP), (t.costar, t.BOTTOM)):
            for g in EIGHTHS_INDICATORS + [loaded]:
                assert op(neutral, g) == g and op(g, neutral) == g
            assert op(plain, neutral) is plain and op(neutral, plain) is plain

    def test_equals_the_sealed_splice_on_generator_functions(self):
        fns = seeded_lattice(20, seed=3)
        self._agree([(f, g) for f in fns for g in fns])

    @pytest.mark.parametrize("op", [t.star, t.costar], ids=["star", "costar"])
    def test_a_cold_product_carries_the_key_of_its_parts(self, op):
        # a rising ramp and an indicator: not both interval indicators, so the
        # product is the splice's seal
        f, g = t.from_affine(1, 0), t.indicator(F(1, 4), F(3, 4))
        clear_memos()
        product = op(f, g)
        rebuilt = t.PiecewiseFn(product.breakpoints, product.values, product.pieces)
        slots = [
            *product.breakpoints,
            *product.values,
            *(q for piece in product.pieces for q in piece),
        ]
        assert product._key == rebuilt._key
        assert product._key == tuple(n for q in slots for n in (q.numerator, q.denominator))
        assert hash(product) == hash(rebuilt) and product == rebuilt


INTERVALS = tuple((a, b) for a in SIXTEENTHS for b in SIXTEENTHS if a <= b)
ENDS = {t.star: min, t.costar: max}


def count_splices(compute):
    """compute() and the number of calls it made of ``_star_splice`` and
    ``_costar_splice``."""
    calls = []

    def counting(splice):
        def call(*args):
            calls.append(args)
            return splice(*args)

        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_star_splice", "_costar_splice"):
            mp.setattr(star_module, name, counting(getattr(star_module, name)))
        return compute(), len(calls)


class TestIntervalClosedForm:
    """On two interval indicators, of [a1, b1] and [a2, b2], star is the
    indicator of [a1 ^ a2, b1 ^ b2] and costar of [a1 v a2, b1 v b2], handed
    back by ``_indicator`` with no splice; the splice, called directly, is
    the reference. Any other pair takes the splice."""

    def test_every_pair_of_sixteenths_equals_the_splice(self):
        clear_memos()
        indicators = {ends: t.indicator(*ends) for ends in INTERVALS}
        entries = piecewise._indicator.cache_info().currsize
        pairs = list(iter_product(indicators.items(), repeat=2))
        ops = tuple(ENDS.items())
        products, splices = count_splices(
            lambda: [op(f, g) for (_, f), (_, g) in pairs for op, _ in ops]
        )
        assert splices == 0
        # each product is the memo's indicator of the lesser (greater) ends,
        # neutral pairs included, and the memo gains no entry
        assert piecewise._indicator.cache_info().currsize == entries
        expected = (
            indicators[first(a1, a2), first(b1, b2)]
            for ((a1, b1), _), ((a2, b2), _) in pairs
            for _, first in ops
        )
        assert all(p is q for p, q in zip(products, expected, strict=True))
        references = (spliced(op, f, g) for (_, f), (_, g) in pairs for op, _ in ops)
        assert all(p == q for p, q in zip(products, references, strict=True))

    @staticmethod
    def _built_outside_the_memo(a, b):
        f = t.indicator(a, b)
        yield t.PiecewiseFn(f.breakpoints, f.values, f.pieces)
        yield t.loads(t.dumps(f))
        if b == 1:
            yield t.pointwise_max(t.indicator(a, 1), t.constant(0))

    def test_indicators_built_outside_the_memo(self):
        ends = [*INTERVALS[::11], (F(0), F(0)), (F(1), F(1)), (F(0), F(1)), (F(3, 8), F(1))]
        built = [(h, t.indicator(a, b)) for a, b in ends for h in self._built_outside_the_memo(a, b)]
        assert all(h == f and h is not f and t.is_interval_indicator(h) for h, f in built)
        outside = [h for h, _ in built]
        pairs = [(f, g) for f in outside for g in outside + [t.indicator(a, b) for a, b in ends]]
        for op in (t.star, t.costar):
            for f, g in pairs + [(g, f) for f, g in pairs]:
                product, splices = count_splices(lambda: op(f, g))
                assert splices == 0
                assert product == spliced(op, f, g)

    def test_mixed_pairs_take_the_splice(self):
        others = [
            t.from_affine(1, 0),
            t.from_affine(-1, 1),
            t.step(F(3, 4), 1, F(1, 2)),
            *(h for h in seeded_lattice(12, seed=4) if not t.is_interval_indicator(h)),
        ]
        assert len(others) > 6 and not any(t.is_interval_indicator(h) for h in others)
        indicators = [t.indicator(a, b) for a, b in INTERVALS[::7]] + [t.BOTTOM, t.TOP, t.FULL]
        pairs = [(f, g) for f in indicators for g in others]
        for op, neutral in ((t.star, t.TOP), (t.costar, t.BOTTOM)):
            for f, g in pairs + [(g, f) for f, g in pairs]:
                product, splices = count_splices(lambda: op(f, g))
                if neutral in (f, g):  # the splice holds away from it only
                    assert splices == 0 and product is (g if f == neutral else f)
                else:
                    assert splices == 1 and product == spliced(op, f, g)

    def test_against_the_pointwise_reference(self):
        indicators = [t.indicator(a, b) for a, b in INTERVALS]
        for f, g in iter_product(indicators[::13], indicators[::7]):
            if t.TOP not in (f, g):
                product = t.star(f, g)
                for x in probe_points(f, g, product):
                    assert t.evaluate(product, x) == reference_star_value(f, g, x)
            if t.BOTTOM not in (f, g):
                product, nf, ng = t.costar(f, g), t.reflect(f), t.reflect(g)
                for x in probe_points(f, g, product):
                    assert t.evaluate(product, x) == reference_star_value(nf, ng, 1 - x)

    def test_star_is_the_meet_and_costar_the_join(self):
        # on interval truth values the products coincide with the lattice
        # operations (Walker and Walker): the closed form rests on it
        eighths = [F(k, 8) for k in range(9)]
        indicators = [t.indicator(a, b) for a in eighths for b in eighths if a <= b]
        for f, g in iter_product(indicators, repeat=2):
            assert t.star(f, g) == t.meet(f, g)
            assert t.costar(f, g) == t.join(f, g)


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


def scanned_end(f, g, rightward=True):
    # (xi, the right envelopes' meet there) as star reads them off the
    # threshold scans, or (the greater left threshold, the left envelopes'
    # meet there) as costar does
    sf, sg = piecewise._shape(f), piecewise._shape(g)
    if rightward:
        return piecewise._cut(sf.right_end, sg.right_end, piecewise._min)[1:]
    return piecewise._cut(sf.left_end, sg.left_end, piecewise._max)[1:]


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
        t_fg = t.thresholds(f, g)
        xi = t_fg.xi
        expected = reference_tail_value(f, g, xi)
        assert scanned_end(f, g) == (xi, expected)
        if not (t.equals(f, t.TOP) or t.equals(g, t.TOP)):
            assert t.evaluate(t.star(f, g), xi) == expected

    @pytest.mark.parametrize("first", sorted(THRESHOLD_EDGE_CASES))
    def test_edge_cases_match_the_evaluated_envelopes(self, first):
        f = THRESHOLD_EDGE_CASES[first]
        for g in THRESHOLD_EDGE_CASES.values():
            t_fg = t.thresholds(f, g)
            expected = reference_tail_value(f, g, t_fg.xi)
            assert scanned_end(f, g) == (t_fg.xi, expected)
            # the dual's plateau is the mirror image of the reflections' one
            rf, rg = t.reflect(f), t.reflect(g)
            t_r = t.thresholds(rf, rg)
            assert max(t.right_threshold(f), t.right_threshold(g)) == 1 - t_r.eta
            expected = (1 - t_r.xi, reference_tail_value(rf, rg, t_r.xi))
            assert scanned_end(f, g, rightward=False) == expected

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


EIGHTHS = tuple(F(k, 8) for k in range(9))
# point and interval indicators on the eighths: BOTTOM and TOP among them
EIGHTHS_INDICATORS = [t.indicator(a, b) for a in EIGHTHS for b in EIGHTHS if a <= b]
# shapes whose left envelope is below 1 at its own threshold, the mirror of
# an open peak, so that costar's tail value is not always 1
mirrored_peaks = open_peak_fns().map(t.reflect)
# x on [0, 1/2], 1 on (1/2, 1]: reaches 1 only as a limit from the right
OPEN_AT_HALF = t.PiecewiseFn((0, F(1, 2), 1), (0, F(1, 2), 1), ((1, 0), (0, 1)))


def assert_costar_is_the_dual(f, g):
    expected = piecewise.dumps(t.dualize(t.STAR)(f, g))
    assert piecewise.dumps(t.costar(f, g)) == expected


class TestCostarAgainstTheDual:
    """costar is built directly from its inputs' envelopes; reflecting star,
    dualize(STAR), is its reference, byte for byte."""

    @given(
        st.one_of(lattice_fns(), open_peak_fns(), mirrored_peaks),
        st.one_of(lattice_fns(), open_peak_fns(), mirrored_peaks),
    )
    def test_matches_the_reflected_product(self, f, g):
        assert_costar_is_the_dual(f, g)

    @pytest.mark.parametrize(
        "f, g",
        [
            (t.BOTTOM, t.indicator(F(1, 4), F(1, 2))),
            (t.rising_ramp(F(1, 3)), t.BOTTOM),
            (t.BOTTOM, t.BOTTOM),
            (t.TOP, t.indicator(F(1, 4), F(1, 2))),
            (t.falling_ramp(F(1, 3)), t.TOP),
            (t.TOP, t.TOP),
            # lo = 0: both left thresholds are 0
            (t.indicator(0, F(1, 2)), t.falling_ramp(F(1, 3))),
            # hi = 1 > lo: one right threshold is 1, so there is no head
            (t.indicator(F(1, 4), 1), t.falling_ramp(F(1, 3))),
            # the tail value at lo is f's left envelope there, 1/2
            (OPEN_AT_HALF, t.indicator(F(1, 8), F(1, 4))),
            # lo = hi: no plateau, only the tail value
            (t.indicator(0, F(1, 2)), t.unit_spike(F(1, 2))),
            (t.step(F(3, 4), 1, F(1, 2)), t.unit_spike(F(3, 4))),
        ],
        ids=[
            "bottom-left", "bottom-right", "bottom-bottom",
            "top-left", "top-right", "top-top",
            "lo-zero", "hi-one", "open-lo", "lo-hi", "lo-hi-step",
        ],
    )
    def test_edge_cases(self, f, g):
        assert_costar_is_the_dual(f, g)

    def test_indicators_on_eighths(self):
        for f, g in iter_product(EIGHTHS_INDICATORS, repeat=2):
            assert_costar_is_the_dual(f, g)

    @given(lattice_fns(), lattice_fns())
    def test_makes_no_reflect_calls(self, f, g):
        calls = []
        reflect = piecewise.reflect

        def counting(h):
            calls.append(h)
            return reflect(h)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(piecewise, "reflect", counting)
            mp.setattr(star_module, "reflect", counting)
            clear_memos()
            t.costar(f, g)
        assert calls == []


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
