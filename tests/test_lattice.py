from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import t2algebra as t
from t2algebra import DomainError, lattice, piecewise

from conftest import (
    THRESHOLD_EDGE_CASES,
    lattice_fns,
    normal_fns,
    open_peak_fns,
    piecewise_fns,
    tied_pairs,
)
from oracles import oracle_join_value, oracle_meet_value, probe_points

F = Fraction


def seeded_lattice(count, seed=0):
    return t.generate_lattice_functions(t.GeneratorConfig(seed=seed), count)


class TestMeet:
    def test_spikes_meet_at_minimum(self, spike_pair):
        lo, hi = spike_pair
        assert t.equals(t.meet(lo, hi), lo)

    def test_top_is_neutral_on_lattice(self):
        for f in seeded_lattice(30, seed=5):
            assert t.equals(t.meet(f, t.TOP), f)

    def test_plateau_meet_spike_frozen_value(self, plateau_step):
        # brute-force solution-set supremum at 4/5 gives 1/2
        got = t.meet(plateau_step, t.unit_spike(F(4, 5)))
        assert t.evaluate(got, F(4, 5)) == F(1, 2)

    @given(lattice_fns(), lattice_fns())
    def test_matches_pointwise_oracle(self, f, g):
        got = t.meet(f, g)
        for x in probe_points(f, g, got, splits=2):
            assert t.evaluate(got, x) == oracle_meet_value(f, g, x)


class TestJoin:
    def test_spikes_join_at_maximum(self, spike_pair):
        lo, hi = spike_pair
        assert t.equals(t.join(lo, hi), hi)

    def test_bottom_is_neutral_on_lattice(self):
        for f in seeded_lattice(30, seed=6):
            assert t.equals(t.join(f, t.BOTTOM), f)

    @given(lattice_fns(), lattice_fns())
    def test_matches_pointwise_oracle(self, f, g):
        got = t.join(f, g)
        for x in probe_points(f, g, got, splits=2):
            assert t.evaluate(got, x) == oracle_join_value(f, g, x)

    @given(piecewise_fns(), piecewise_fns())
    def test_de_morgan(self, f, g):
        assert t.equals(
            t.reflect(t.meet(t.reflect(f), t.reflect(g))), t.join(f, g)
        )
        assert t.equals(
            t.reflect(t.join(t.reflect(f), t.reflect(g))), t.meet(f, g)
        )


class TestAlgebraicLaws:
    def test_commutative_and_associative_on_lattice_triples(self):
        fns = seeded_lattice(300, seed=9)
        triples = [tuple(fns[3 * i : 3 * i + 3]) for i in range(100)]
        for f, g, h in triples:
            assert t.equals(t.meet(f, g), t.meet(g, f))
            assert t.equals(t.join(f, g), t.join(g, f))
            assert t.equals(t.meet(t.meet(f, g), h), t.meet(f, t.meet(g, h)))
            assert t.equals(t.join(t.join(f, g), h), t.join(f, t.join(g, h)))

    def test_closure_on_lattice(self):
        fns = seeded_lattice(60, seed=12)
        for f, g in zip(fns[::2], fns[1::2]):
            assert t.in_lattice(t.meet(f, g))
            assert t.in_lattice(t.join(f, g))


class TestOrders:
    def test_bottom_and_top_are_extremes(self):
        for f in seeded_lattice(40, seed=21):
            assert t.leq_sub(t.BOTTOM, f)
            assert t.leq_sub(f, t.TOP)

    def test_reflexive(self, plateau_step):
        assert t.leq_sub(plateau_step, plateau_step)
        assert t.leq_pre(plateau_step, plateau_step)

    def test_wide_interval_below_narrow_one(self):
        # derived by envelope comparison: left envelopes reversed, right equal
        assert t.leq_sub(t.indicator(0, F(3, 5)), t.indicator(F(1, 5), F(3, 5)))

    def test_envelope_path_agrees_with_defining_equation(self):
        fns = seeded_lattice(80, seed=33)
        for f, g in zip(fns[::2], fns[1::2]):
            assert t.leq_sub(f, g) == t.leq_sub_by_definition(f, g)

    def test_orders_coincide_on_lattice(self):
        fns = seeded_lattice(1000, seed=40)
        for f, g in zip(fns[::2], fns[1::2]):
            assert t.order_equivalence_check(f, g)

    def test_full_and_interior_spike_agree_in_both_orders(self):
        # the pair is incomparable (the spike's left envelope is not above
        # the constant-1 envelope, and the right envelopes fail the other
        # way), but both orders agree on that verdict
        full, spike = t.indicator(0, 1), t.unit_spike(F(1, 2))
        assert not t.leq_sub(spike, full)
        assert not t.leq_pre(spike, full)
        assert not t.leq_sub(full, spike)
        assert t.order_equivalence_check(spike, full)
        assert t.order_equivalence_check(full, spike)
        # the lattice meet of the pair sits below both
        glb = t.meet(full, spike)
        assert t.equals(glb, t.indicator(0, F(1, 2)))
        assert t.leq_sub(glb, full) and t.leq_sub(glb, spike)

    def test_order_equivalence_requires_lattice_members(self):
        with pytest.raises(DomainError):
            t.order_equivalence_check(t.constant(F(1, 2)), t.constant(1))

    @given(piecewise_fns(), piecewise_fns())
    def test_meet_order_characterization(self, f, g):
        # f below g in the meet order iff fR^g <= f <= gR
        lhs = t.leq_sub_by_definition(f, g)
        rhs = t.pointwise_leq(
            t.pointwise_min(t.envelope_right(f), g), f
        ) and t.pointwise_leq(f, t.envelope_right(g))
        assert lhs == rhs

    @given(piecewise_fns(), piecewise_fns())
    def test_join_order_characterization(self, f, g):
        # f below g in the join order iff f^gL <= g <= fL
        lhs = t.leq_pre(f, g)
        rhs = t.pointwise_leq(
            t.pointwise_min(f, t.envelope_left(g)), g
        ) and t.pointwise_leq(g, t.envelope_left(f))
        assert lhs == rhs


def assert_splices_match_the_envelope_formula(f, g):
    assert t.meet(f, g) == lattice._by_envelopes(f, g, t.envelope_right)
    assert t.join(f, g) == lattice._by_envelopes(f, g, t.envelope_left)


class TestSpliceAgainstEnvelopeFormula:
    """On lattice inputs meet and join splice two partial passes at a
    threshold; the envelope formula, which runs everywhere else, must give
    the same canonical function."""

    @given(
        st.one_of(lattice_fns(), open_peak_fns()),
        st.one_of(lattice_fns(), open_peak_fns()),
    )
    def test_lattice_pairs(self, f, g):
        assert_splices_match_the_envelope_formula(f, g)

    @given(tied_pairs())
    def test_tied_thresholds(self, pair):
        f, g = pair
        assert t.in_lattice(f) and t.in_lattice(g)
        assert_splices_match_the_envelope_formula(f, g)
        assert_splices_match_the_envelope_formula(g, f)

    @pytest.mark.parametrize("first", sorted(THRESHOLD_EDGE_CASES))
    def test_threshold_edge_cases(self, first):
        f = THRESHOLD_EDGE_CASES[first]
        for g in THRESHOLD_EDGE_CASES.values():
            assert_splices_match_the_envelope_formula(f, g)

    @given(lattice_fns())
    def test_with_itself(self, f):
        assert t.meet(f, f) == t.join(f, f) == t.canonicalize(f)

    @given(
        st.one_of(piecewise_fns(), normal_fns(), lattice_fns()),
        st.one_of(piecewise_fns(), normal_fns()),
    )
    def test_fallback_off_the_lattice(self, f, g):
        assert_splices_match_the_envelope_formula(f, g)
        assert_splices_match_the_envelope_formula(g, f)


class TestSpliceCounts:
    @staticmethod
    def _counted(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    @given(lattice_fns(), lattice_fns())
    def test_lattice_meet_and_join_build_once_without_a_max_pass(self, f, g):
        for op in (t.meet, t.join):
            op(f, g)  # fills the envelope and threshold memos
            with pytest.MonkeyPatch.context() as mp:
                maxes = self._counted(mp, lattice, "pointwise_max")
                kernel_maxes = self._counted(mp, piecewise, "pointwise_max")
                builds = self._counted(mp, piecewise, "_sealed")
                op(f, g)
            assert maxes == kernel_maxes == []
            assert len(builds) == 1

    @given(lattice_fns(), lattice_fns())
    def test_each_operand_shape_is_looked_up_once(self, f, g):
        # star, costar, meet, join and leq_sub read all they need of an
        # operand off one _shape lookup, on warm operands a hit
        for op in (t.star, t.costar, t.meet, t.join, t.leq_sub):
            op(f, g)
            before = piecewise._shape.cache_info()
            op(f, g)
            after = piecewise._shape.cache_info()
            assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)

    def test_the_definition_takes_the_envelope_formula(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("leq_sub_by_definition spliced")

        monkeypatch.setattr(lattice, "_splice", refuse)
        fns = seeded_lattice(20, seed=3)
        for f, g in zip(fns, fns[1:]):
            assert t.leq_sub_by_definition(f, g) == t.leq_sub(f, g)
        with pytest.raises(AssertionError, match="spliced"):
            t.meet(fns[0], fns[1])

    def test_off_the_lattice_meet_and_join_take_the_formula(self, monkeypatch):
        monkeypatch.setattr(lattice, "_splice", None)  # any call would fail
        f, g = t.constant(Fraction(1, 2)), t.pointwise_max(t.TOP, t.BOTTOM)
        for h in (f, g, t.TOP):
            assert t.equals(t.meet(h, f), lattice._by_envelopes(h, f, t.envelope_right))
            assert t.equals(t.join(g, h), lattice._by_envelopes(g, h, t.envelope_left))
