import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import t2algebra as t
from t2algebra import DomainError, ValidationError, axioms, cli, piecewise, rationals
from t2algebra.piecewise import _affine_above, _affine_ratio, _same_piece
from t2algebra.rationals import _lt, _max, _min, _same

from conftest import clear_memos as _clear_memos
from conftest import (
    NON_NORMAL_CASES,
    THRESHOLD_EDGE_CASES,
    lattice_fns,
    normal_fns,
    open_peak_fns,
    piecewise_fns,
    raw_parts,
    split_parts,
    tied_pairs,
    unit_fracs,
)
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
    raw_value,
    reference_combine,
    reference_indicator_ends,
    reference_leq,
    reference_splice,
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

    def test_limits_and_value_at_the_jump(self):
        f = t.step(F(1, 2), 1, F(1, 4))
        assert (f.left_limit(1), f("1/2"), f.right_limit(1)) == (1, 1, F(1, 4))


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

    @given(split_parts())
    def test_constructor_stores_the_canonical_form_of_raw_parts(self, parts):
        f = t.PiecewiseFn(*parts)
        raw = parts[0]
        assert set(f.breakpoints) <= set(raw)
        probes = set(probe_points(f, splits=3)) | set(raw)
        probes.update((a + b) / 2 for a, b in zip(raw, raw[1:]))
        for x in probes:
            assert t.evaluate(f, x) == raw_value(parts, x)
        for i in range(1, len(f.breakpoints) - 1):
            (s, c), b = f.pieces[i], f.breakpoints[i]
            assert f.pieces[i - 1] != (s, c) or s * b + c != f.values[i]

    def test_constructor_drops_a_removable_breakpoint(self):
        half = t.PiecewiseFn((0, F(1, 2), 1), (1, 1, 1), ((0, 1), (0, 1)))
        assert half.breakpoints == (0, 1)
        assert t.dumps(half) == t.dumps(t.constant(1))


class TestEquals:
    def test_degenerate_interval_is_spike(self):
        assert t.equals(t.indicator(0, 0), t.unit_spike(0))

    def test_plateau_step_is_not_indicator(self, plateau_step):
        assert not t.equals(plateau_step, t.indicator(0, F(3, 4)))

    def test_against_other_objects(self):
        assert (t.FULL == object()) is False
        assert (t.FULL != object()) is True
        rebuilt = t.PiecewiseFn(*_parts(t.FULL))
        assert rebuilt is not t.FULL
        assert rebuilt == t.FULL and t.FULL == rebuilt
        assert hash(rebuilt) == hash(t.FULL)
        assert t.FULL != t.BOTTOM and t.BOTTOM != t.FULL


def _is_canonical(f):
    parts = f.breakpoints, f.values, f.pieces
    return piecewise._canonical_parts(*parts) == parts


def _json_text(parts):
    breaks, values, pieces = parts
    return json.dumps(
        {
            "breakpoints": [{"x": str(b), "v": str(v)} for b, v in zip(breaks, values)],
            "pieces": [{"slope": str(s), "intercept": str(c)} for s, c in pieces],
        }
    )


class TestEveryInstanceIsCanonical:
    @given(split_parts())
    def test_constructor_and_loads(self, parts):
        assert _is_canonical(t.PiecewiseFn(*parts))
        assert _is_canonical(t.loads(_json_text(parts)))

    @given(unit_fracs(), unit_fracs(), unit_fracs())
    def test_named_constructors(self, a, b, c):
        lo, hi = min(a, b), max(a, b)
        built = [
            t.constant(a),
            t.from_affine(hi - lo, lo),
            t.indicator(lo, hi),
            t.unit_spike(a),
            t.step(a, b, c),
            t.rising_ramp(a),
            t.falling_ramp(a),
        ]
        assert all(map(_is_canonical, built))

    @given(split_parts(), split_parts())
    def test_pointwise_operations_and_envelopes(self, p, q):
        f, g = t.PiecewiseFn(*p), t.PiecewiseFn(*q)
        built = [
            t.pointwise_min(f, g),
            t.pointwise_max(f, g),
            t.reflect(f),
            t.envelope_left(f),
            t.envelope_right(f),
            t.envelope_left_strict(f),
            t.envelope_right_strict(f),
            t.meet(f, g),
            t.join(f, g),
        ]
        assert all(map(_is_canonical, built))

    @given(lattice_fns(), lattice_fns())
    def test_products_and_lattice_operations(self, f, g):
        built = [t.star(f, g), t.costar(f, g), t.meet(f, g), t.join(f, g)]
        if not (f == t.TOP or g == t.TOP):
            built.extend(t.star_envelopes(f, g))
        assert all(map(_is_canonical, built))

    def test_draws(self):
        config = t.GeneratorConfig(seed=6)
        draws = _generator_draws()
        draws += [t.random_normal_convex(config), t.random_piecewise(config)]
        assert all(map(_is_canonical, draws))


class TestCanonicalizeLookups:
    """canonicalize hands back its argument, and no library function calls it."""

    @staticmethod
    def _lookups(compute):
        compute()  # warms the operands' memos
        before = piecewise._indicator.cache_info()
        compute()
        after = piecewise._indicator.cache_info()
        return after.hits + after.misses - before.hits - before.misses

    @given(lattice_fns(), lattice_fns())
    def test_warm_operands(self, f, g):
        # a product is the sealed splice, or one _indicator lookup for two
        # interval indicators, the neutral element among them
        once = 1 if t.is_interval_indicator(f) and t.is_interval_indicator(g) else 0
        for op in (t.star, t.costar):
            assert self._lookups(lambda: op(f, g)) == once

    @given(
        st.one_of(
            raw_parts(), split_parts(), lattice_fns().map(lambda f: (f.breakpoints, f.values, f.pieces))
        )
    )
    def test_canonicalize_hands_back_any_build_itself(self, parts):
        for f in (t.PiecewiseFn(*parts), piecewise._sealed(*parts)):
            assert t.canonicalize(f) is f

    def test_equal_functions_stay_distinct_and_interval_products_share(self):
        first = t.PiecewiseFn((0, 1), (0, 1), ((1, 0),))
        again = t.from_affine(1, 0)
        assert again == first and again is not first
        assert t.canonicalize(first) is first
        assert t.canonicalize(again) is again
        # two products of interval indicators, both the indicator of [1/8, 1/2],
        # are the one object _indicator holds
        p = t.star(t.indicator(F(1, 4), F(1, 2)), t.indicator(F(1, 8), F(3, 4)))
        q = t.star(t.indicator(F(1, 8), F(1, 2)), t.indicator(F(1, 4), F(3, 4)))
        assert p is q


def test_the_cli_batteries_evict_nothing(capsys):
    # each memo is sized to hold a whole battery at the default --trials
    _clear_memos()
    assert cli.main(["axioms", "star", "tr-norm"]) == 0
    assert cli.main(["axioms", "costar", "tr-conorm"]) == 0
    capsys.readouterr()
    for memo in (piecewise._indicator, piecewise._shape):
        info = memo.cache_info()
        assert 0 < info.misses == info.currsize


class TestIndicatorMemoKey:
    """_indicator is keyed by the integer slots of its ends, never by Fractions,
    whose hash takes a modular inverse on every lookup."""

    def test_warm_interval_operations_hash_no_fraction(self, monkeypatch):
        eighths = [F(k, 8) for k in range(9)]
        ends = [(a, b) for a in eighths for b in eighths if a <= b]
        indicators = [t.indicator(a, b) for a, b in ends]
        pairs = [(f, g) for f in indicators[::4] for g in indicators]

        def work():
            for a, b in ends:
                t.indicator(a, b)
            for f, g in pairs:
                for op in (t.star, t.costar, t.meet, t.join):
                    op(f, g)

        work()  # warms every memo
        calls = []
        original = Fraction.__hash__

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Fraction, "__hash__", counting)
        work()
        assert calls == []
        assert len({F(1, 3)}) == 1 and calls == [F(1, 3)]  # the hook sees a hash

    def test_every_input_form_of_the_ends_is_one_entry(self):
        _clear_memos()
        forms = ("1/2", "2/4", "0.5", F(1, 2))
        built = [t.indicator(a, b) for a in forms for b in forms]
        assert all(f is built[0] for f in built)
        assert piecewise._indicator.cache_info().currsize == 1
        assert built[0] == t.PiecewiseFn((0, F(1, 2), 1), (0, 1, 0), ((0, 0), (0, 0)))


class TestSplicedMerge:
    def test_merge_drops_the_removable_breakpoint(self):
        # g's breakpoint 1/4 lies under f's piece of the join of the left
        # envelopes; the merge drops it, so star's product is f, with f's own
        # parts; costar mirrors it
        f = t.PiecewiseFn((0, F(1, 2), 1), (0, 1, 1), ((2, 0), (0, 1)))
        g = t.PiecewiseFn((0, F(1, 4), 1), (0, 0, 1), ((0, 0), (F(4, 3), F(-1, 3))))
        for op, f, g in ((t.star, f, g), (t.costar, t.reflect(f), t.reflect(g))):
            product = op(f, g)
            assert product == f
            assert _parts(product) == _parts(f)

    def test_a_warm_product_is_sealed_once(self, monkeypatch):
        # pairs that are not both interval indicators and not the neutral
        # element: each product is one splice, canonicalized once by its seal
        fns = t.generate_lattice_functions(t.GeneratorConfig(seed=5), 12)
        ramps = [t.from_affine(1, 0), t.from_affine(-1, 1)]
        sixteenths = [F(k, 16) for k in range(17)]
        indicators = [t.indicator(a, b) for a in sixteenths[::3] for b in sixteenths[::3] if a <= b]
        pairs = list(zip(fns, fns[1:])) + [(f, g) for f in ramps for g in indicators]
        pairs = [(f, g) for f, g in pairs if not all(map(t.is_interval_indicator, (f, g)))]
        ops = ((t.star, t.TOP), (t.costar, t.BOTTOM))
        products = [(op, f, g) for f, g in pairs for op, neutral in ops if neutral not in (f, g)]
        assert products
        warm = [op(f, g) for op, f, g in products]
        calls = []
        merge = piecewise._canonical_parts

        def counting(*parts):
            calls.append(parts)
            return merge(*parts)

        monkeypatch.setattr(piecewise, "_canonical_parts", counting)
        again = [op(f, g) for op, f, g in products]
        monkeypatch.undo()
        assert len(calls) == len(products)
        assert again == warm


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

    @given(
        piecewise_fns(),
        piecewise_fns(den=15),
        unit_fracs(),
        st.one_of(st.none(), unit_fracs()),
        st.booleans(),
    )
    def test_ranged_pass_is_the_full_one_restricted(self, f, g, start, stop, take_min):
        # from start up to the first merged breakpoint at or beyond stop
        if stop is not None and stop < start:
            start, stop = stop, start
        full = reference_combine(f, g, take_min)
        merged = set(f.breakpoints) | set(g.breakpoints)
        end = min(b for b in merged if b >= (1 if stop is None else stop))
        breaks, values, pieces = piecewise._combine_parts(f, g, take_min, start, stop)
        assert breaks[0] == start
        assert breaks[-1] == (start if start == stop else end)
        assert values == [t.evaluate(full, x) for x in breaks]
        assert len(pieces) == len(breaks) - 1
        for (s, c), x, y in zip(pieces, breaks, breaks[1:]):
            assert x < y
            for z in (x + (y - x) / 3, x + 2 * (y - x) / 3):
                assert s * z + c == t.evaluate(full, z)

    @given(
        st.one_of(
            st.tuples(piecewise_fns(), piecewise_fns()),
            st.tuples(lattice_fns(), lattice_fns()),
        ),
        st.booleans(),
        st.data(),
    )
    def test_merge_emits_canonical_parts(self, pair, take_min, data):
        # start and stop at 0, 1, merged breakpoints and cuts between them
        f, g = pair
        merged = sorted({*f.breakpoints, *g.breakpoints})
        cuts = sorted({*merged, *((x + y) / 2 for x, y in zip(merged, merged[1:]))})
        start = data.draw(st.sampled_from(cuts[:-1]))
        stop = data.draw(st.sampled_from([None, *(x for x in cuts if x > start)]))
        parts = tuple(map(tuple, piecewise._combine_parts(f, g, take_min, start, stop)))
        assert piecewise._canonical_parts(*parts) == parts

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


def convex_by_formula(f):
    return t.equals(f, t.pointwise_min(t.envelope_left(f), t.envelope_right(f)))


class TestConvexitySplice:
    """is_convex reads whether f's values and piece limits rise and then fall,
    in place of the pointwise min of its envelopes; the min, the
    quasiconcavity probe and that walk must agree."""

    @staticmethod
    def _agree(f):
        convex = t.is_convex(f)
        assert convex == convex_by_formula(f)
        violation = quasiconcave_violation(f)
        assert not (convex and violation is not None)

    @given(st.one_of(lattice_fns(), open_peak_fns(), normal_fns(), piecewise_fns()))
    def test_against_the_formula_and_the_probe(self, f):
        self._agree(f)

    @given(tied_pairs())
    def test_joins_of_tied_plateaus(self, pair):
        f, g = pair
        self._agree(t.pointwise_max(f, g))
        self._agree(t.pointwise_min(f, g))

    @pytest.mark.parametrize("first", sorted(THRESHOLD_EDGE_CASES))
    def test_threshold_edge_cases_and_their_joins(self, first):
        f = THRESHOLD_EDGE_CASES[first]
        self._agree(f)
        for g in THRESHOLD_EDGE_CASES.values():
            self._agree(t.pointwise_max(f, g))

    @pytest.mark.parametrize("first", sorted(NON_NORMAL_CASES))
    def test_non_normal_cases_and_their_joins(self, first):
        f = NON_NORMAL_CASES[first]
        for h in (f, *(t.pointwise_max(f, g) for g in NON_NORMAL_CASES.values())):
            assert not t.is_normal(h)
            self._agree(h)
            assert t.is_convex(h) == (quasiconcave_violation(h) is None)

    def test_twin_plateaus_are_not_convex(self):
        f = t.pointwise_max(t.indicator(0, F(1, 4)), t.indicator(F(3, 4), 1))
        assert t.is_normal(f) and not t.is_convex(f)
        assert quasiconcave_violation(f) is not None

    @given(st.one_of(lattice_fns(), normal_fns(), piecewise_fns()))
    def test_no_function_takes_a_merged_pass_or_a_shape(self, f):
        calls = []
        original = piecewise._combine_parts

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(piecewise, "_combine_parts", counting)
            _clear_memos()
            t.is_convex(f)
        assert calls == []
        assert piecewise._shape.cache_info().currsize == 0


def running_sup_shape(f):
    """``_shape``'s fields from running suprema, the reference for its walk:
    the left envelope as the running supremum of f, the right one as the mirror
    image of the running supremum of f's mirror image, each end read off its
    envelope, and lattice membership by comparing f with the splice of the
    envelopes at those ends."""
    h = piecewise._sealed(*piecewise._running_sup(f))
    k = t.reflect(piecewise._sealed(*piecewise._running_sup(t.reflect(f))))
    if h.values[-1] != 1:
        return h, k, None, None, False, False
    i = -2 if h.pieces[-1] == (0, 1) else -1
    j = 1 if k.pieces[0] == (0, 1) else 0
    ends = (h.breakpoints[i], h.values[i]), (k.breakpoints[j], k.values[j])
    head, tail = (h.breakpoints, h.values, h.pieces), (k.breakpoints, k.values, k.pieces)
    lattice = f == piecewise._splice(head, *ends[0], *ends[1], tail)
    (a, _), (b, _) = ends
    indicator = lattice and len(f.breakpoints) <= 4 and f == t.indicator(a, b)
    return h, k, *ends, lattice, indicator


class TestShape:
    """The one memoised record of a function's envelopes, threshold ends and
    lattice membership, against references that do not read it, and against
    the running-sup construction that its walk replaces on the lattice."""

    @staticmethod
    def _agree(f):
        shape = piecewise._shape(f)
        assert shape == running_sup_shape(f)
        for x in probe_points(f, shape.left, shape.right, splits=3):
            assert t.evaluate(shape.left, x) == oracle_envelope_left(f, x)
            assert t.evaluate(shape.right, x) == oracle_envelope_right(f, x)
        ends = oracle_level_one_ends(f)  # None exactly when f is not normal
        if ends is None:
            assert shape.left_end is shape.right_end is None
        else:
            lo, hi = ends
            assert shape.left_end == (lo, oracle_envelope_left(f, lo))
            assert shape.right_end == (hi, oracle_envelope_right(f, hi))
        assert shape.lattice == (ends is not None and convex_by_formula(f))

    @given(st.one_of(lattice_fns(), piecewise_fns()))
    def test_against_the_references(self, f):
        self._agree(f)

    @pytest.mark.parametrize("name", sorted(THRESHOLD_EDGE_CASES))
    def test_threshold_edge_cases(self, name):
        _clear_memos()
        self._agree(THRESHOLD_EDGE_CASES[name])

    @pytest.mark.parametrize("max_breakpoints, den", [(3, 4), (7, 64), (16, 720)])
    def test_the_walk_on_generator_draws(self, max_breakpoints, den):
        for seed in range(25):
            cfg = axioms.GeneratorConfig(seed, max_breakpoints, den)
            for f in [
                *axioms.generate_lattice_functions(cfg, 6),
                *axioms.generate_nonlattice_functions(cfg, 6),
            ]:
                assert piecewise._shape(f) == running_sup_shape(f)

    @pytest.mark.parametrize("c", [F(0), F(1, 3), F(15, 16)])
    def test_non_normal_constants(self, c):
        f = t.constant(c)
        self._agree(f)
        assert piecewise._shape(f).left_end is None and not t.is_normal(f)
        assert t.is_convex(f) and not t.in_lattice(f)


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

    @pytest.mark.parametrize("name", sorted(THRESHOLD_EDGE_CASES))
    def test_edge_cases_are_the_level_one_ends(self, name):
        f = THRESHOLD_EDGE_CASES[name]
        _clear_memos()
        lo, hi = oracle_level_one_ends(f)
        # each end with its envelope's value there, which may be below 1
        shape = piecewise._shape(f)
        assert shape.left_end == (lo, t.evaluate(t.envelope_left(f), lo))
        assert shape.right_end == (hi, t.evaluate(t.envelope_right(f), hi))

    # climbs toward 1 but tops out below it, as a limit and as a value
    @pytest.mark.parametrize(
        "f",
        [
            t.PiecewiseFn((0, 1), (0, 0), ((F(15, 16), 0),)),
            t.PiecewiseFn((0, F(1, 2), 1), (0, F(15, 16), 0), ((F(15, 8), 0), (0, 0))),
        ],
    )
    def test_messages_below_one(self, f):
        assert oracle_level_one_ends(f) is None
        with pytest.raises(DomainError, match=r"^left_threshold requires a normal function$"):
            t.left_threshold(f)
        with pytest.raises(DomainError, match=r"^right_threshold requires a normal function$"):
            t.right_threshold(f)

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


@st.composite
def zero_one_fns(draw, den: int = 8):
    """Functions with values 0 and 1 and flat pieces at 0 or 1, now and then
    a piece sloping between them: interval indicators and their near misses
    (ends open, gaps, slopes), often with removable breakpoints."""
    ks = draw(st.lists(st.integers(1, den - 1), max_size=4, unique=True))
    breaks = [F(0)] + sorted(F(k, den) for k in ks) + [F(1)]
    values = tuple(F(draw(st.integers(0, 1))) for _ in breaks)
    pieces = []
    for a, b in zip(breaks, breaks[1:]):
        y0 = F(draw(st.integers(0, 1)))
        y1 = 1 - y0 if draw(st.integers(0, 5)) == 0 else y0
        slope = (y1 - y0) / (b - a)
        pieces.append((slope, y0 - slope * a))
    return t.PiecewiseFn(tuple(breaks), values, tuple(pieces))


def _open_run(lo, hi, at_lo, at_hi):
    # 1 on the open interval (lo, hi) and 0 elsewhere but at_lo, at_hi there
    return t.PiecewiseFn(
        (0, lo, hi, 1), (0, at_lo, at_hi, 0), ((0, 0), (0, 1), (0, 0))
    )


INDICATOR_CASES = {
    "spike at 0": (t.unit_spike(0), (0, 0)),
    "spike at 1": (t.unit_spike(1), (1, 1)),
    "FULL": (t.FULL, (0, 1)),
    "TOP": (t.TOP, (1, 1)),
    "BOTTOM": (t.BOTTOM, (0, 0)),
    "constant 0": (t.constant(0), None),
    "(1/4, 3/4)": (_open_run(F(1, 4), F(3, 4), 0, 0), None),
    "[1/4, 3/4)": (_open_run(F(1, 4), F(3, 4), 1, 0), None),
    "(1/4, 3/4]": (_open_run(F(1, 4), F(3, 4), 0, 1), None),
    "[1/2, 1)": (t.PiecewiseFn((0, F(1, 2), 1), (0, 1, 0), ((0, 0), (0, 1))), None),
    "[0, 1/2)": (t.PiecewiseFn((0, F(1, 2), 1), (1, 0, 0), ((0, 1), (0, 0))), None),
    "(0, 1/2]": (t.PiecewiseFn((0, F(1, 2), 1), (0, 1, 0), ((0, 1), (0, 0))), None),
    "two runs": (
        t.pointwise_max(t.indicator(F(1, 8), F(1, 4)), t.indicator(F(1, 2), 1)),
        None,
    ),
    "two spikes": (t.pointwise_max(t.unit_spike(F(1, 4)), t.unit_spike(F(3, 4))), None),
    "slope": (t.rising_ramp(0), None),
    "slope to a spike": (
        t.PiecewiseFn((0, F(1, 2), 1), (0, 1, 0), ((2, 0), (0, 0))),
        None,
    ),
    "removable in the run": (
        t.PiecewiseFn(
            (0, F(1, 4), F(1, 2), F(3, 4), 1),
            (0, 1, 1, 1, 0),
            ((0, 0), (0, 1), (0, 1), (0, 0)),
        ),
        (F(1, 4), F(3, 4)),
    ),
    "removable outside a spike": (
        t.PiecewiseFn((0, F(1, 4), F(1, 2), 1), (0, 0, 1, 0), ((0, 0),) * 3),
        (F(1, 2), F(1, 2)),
    ),
    "removable in FULL": (
        t.PiecewiseFn((0, F(1, 2), 1), (1, 1, 1), ((0, 1),) * 2),
        (0, 1),
    ),
    # lattice, at most 4 breakpoints and 1 at both threshold ends: only the
    # zero head and tail of the indicator splice tell these apart from one
    "step off a plateau": (t.step(F(1, 2), 1, F(1, 4)), None),
    "plateau on a floor": (
        t.pointwise_max(t.indicator(F(1, 4), F(3, 4)), t.constant(F(1, 8))),
        None,
    ),
    "ramp into a closed plateau": (
        t.PiecewiseFn((0, F(1, 4), F(3, 4), 1), (0, 1, 1, 0), ((4, 0), (0, 1), (0, 0))),
        None,
    ),
}


class TestIndicatorShape:
    """The indicator predicates read the shape off the canonical form; the
    oracle finds the set where f is 1 from the raw parts, by evaluation."""

    @staticmethod
    def _agree(f):
        ends = reference_indicator_ends(f)
        assert t.is_interval_indicator(f) == (ends is not None)
        assert t.is_point_indicator(f) == (ends is not None and ends[0] == ends[1])

    @given(lattice_fns())
    def test_lattice_functions(self, f):
        self._agree(f)

    @given(piecewise_fns())
    def test_arbitrary_functions(self, f):
        self._agree(f)

    @given(zero_one_fns())
    def test_zero_one_functions(self, f):
        self._agree(f)

    @pytest.mark.parametrize("name", THRESHOLD_EDGE_CASES)
    def test_threshold_edge_cases(self, name):
        self._agree(THRESHOLD_EDGE_CASES[name])

    @pytest.mark.parametrize("name", INDICATOR_CASES)
    def test_fixed_cases(self, name):
        f, ends = INDICATOR_CASES[name]
        assert reference_indicator_ends(f) == ends
        self._agree(f)


class TestIndicatorField:
    """The indicator test is a field of the _shape record, computed once per
    miss by comparing f with the splice of its threshold ends, so a known
    function's check is one hit."""

    @given(st.one_of(lattice_fns(), piecewise_fns(), normal_fns(), zero_one_fns()))
    def test_field_is_the_reference(self, f):
        shape, ends = piecewise._shape(f), reference_indicator_ends(f)
        assert shape.indicator == (ends is not None)
        if shape.indicator:
            assert (shape.left_end[0], shape.right_end[0]) == ends

    @given(st.one_of(lattice_fns(), piecewise_fns(), zero_one_fns()))
    def test_warm_check_is_one_shape_hit(self, f):
        # or none, for f longer than a canonical indicator of that kind
        for pred, most in ((t.is_interval_indicator, 4), (t.is_point_indicator, 3)):
            pred(f)
            before = piecewise._shape.cache_info()
            pred(f)
            after = piecewise._shape.cache_info()
            hits = 1 if len(f.breakpoints) <= most else 0
            assert (after.hits - before.hits, after.misses - before.misses) == (hits, 0)

    def test_cold_check_of_a_longer_function_makes_no_shape_lookup(self):
        config = t.GeneratorConfig(seed=3)
        fns = t.generate_lattice_functions(config, 40) + t.generate_nonlattice_functions(config, 40)
        fns += [t.indicator(F(1, 4), F(1, 2)), t.unit_spike(F(1, 2))]
        _clear_memos()
        for f in fns:
            t.is_interval_indicator(f)
        interval = piecewise._shape.cache_info()
        _clear_memos()
        for f in fns:
            t.is_point_indicator(f)
        point = piecewise._shape.cache_info()
        # one lookup each for the functions short enough to be indicators
        assert interval.hits + interval.misses == sum(len(f.breakpoints) <= 4 for f in fns)
        assert point.hits + point.misses == sum(len(f.breakpoints) <= 3 for f in fns)
        assert any(len(f.breakpoints) > 4 for f in fns)

    def test_predicates_match_the_reference(self):
        config = t.GeneratorConfig(seed=3)
        sixteenths = [F(k, 16) for k in range(17)]
        fns = t.generate_lattice_functions(config, 200) + t.generate_nonlattice_functions(config, 200)
        fns += [t.indicator(a, b) for a in sixteenths for b in sixteenths if a <= b]
        _clear_memos()
        for f in fns:
            ends = reference_indicator_ends(f)
            assert t.is_interval_indicator(f) == (ends is not None)
            assert t.is_point_indicator(f) == (ends is not None and ends[0] == ends[1])


def _parts(f):
    return f.breakpoints, f.values, f.pieces


@st.composite
def splice_cases(draw):
    """(head, a, at_a, b, at_b, tail) for _splice: raw or canonical parts
    that cover [0, 1], and cuts a <= b anywhere in them, on a breakpoint of
    either part or between, with a = b, a = 0 and b = 1 drawn on purpose."""
    parts = st.one_of(raw_parts(), split_parts(), lattice_fns().map(_parts))
    head, tail = draw(parts), draw(parts)
    cuts = sorted({*head[0], *tail[0], *(F(k, 32) for k in range(33))})
    a = draw(st.sampled_from(cuts))
    b = draw(st.sampled_from([c for c in cuts if c >= a]))
    mode = draw(st.sampled_from(["any", "a = b", "a = 0", "b = 1"]))
    if mode == "a = b":
        b = a
    elif mode == "a = 0":
        a = F(0)
    elif mode == "b = 1":
        b = F(1)
    return head, a, draw(unit_fracs()), b, draw(unit_fracs()), tail


class TestSpliceWalk:
    """_splice walks in from the near end of each part to its cut; the
    reference finds the cuts by bisection and builds through the constructor."""

    @given(splice_cases())
    def test_equals_the_bisection_reference(self, case):
        assert piecewise._splice(*case) == reference_splice(*case)

    def test_makes_no_bisection(self, monkeypatch):
        fns = t.generate_lattice_functions(t.GeneratorConfig(seed=4), 8)
        fns += [t.FULL, t.BOTTOM, t.TOP, t.step(F(3, 4), 1, F(1, 2))]
        cases = []
        for f, g in zip(fns, fns[1:] + fns[:1]):
            cuts = sorted({*f.breakpoints, *g.breakpoints})
            cuts += [(p + q) / 2 for p, q in zip(cuts, cuts[1:])]
            for a in cuts:
                for b in (c for c in cuts if c >= a):
                    cases.append((_parts(f), a, F(1, 3), b, F(2, 3), _parts(g)))
        expected = [reference_splice(*case) for case in cases]

        def refuse(*args):
            raise AssertionError("_splice bisected")

        monkeypatch.setattr(piecewise, "_piece_index", refuse)
        assert [piecewise._splice(*case) for case in cases] == expected


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
            assert all(p == piece for p in build().pieces)
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
            ((F(0), F(1, 2)), "breakpoints must start at 0 and end at 1"),
            # every slot is range-checked while it is coerced, whatever its type
            ((F(0), F(3, 2), F(1)), "3/2 lies outside [0, 1]"),
            ((F(0), F(-1, 2), F(1)), "-1/2 lies outside [0, 1]"),
            ((F(0), F(2)), "2 lies outside [0, 1]"),
            ((0, "3/2", 1), "3/2 lies outside [0, 1]"),
        ],
    )
    def test_breakpoint_messages(self, breaks, message):
        zeros = (F(0),) * len(breaks)
        flat = ((F(0), F(0)),) * (len(breaks) - 1)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            t.PiecewiseFn(breaks, zeros, flat)

    @pytest.mark.parametrize(
        "slot, forms",
        [
            ("breakpoint", (F(3, 2), "3/2")),
            ("value", (F(2), 2, "2")),
            ("value", (F(-1, 2), "-1/2")),
        ],
    )
    def test_a_bad_slot_gets_one_message_whatever_its_type(self, slot, forms):
        messages = set()
        for bad in forms:
            breaks = (F(0), bad if slot == "breakpoint" else F(1, 2), F(1))
            values = (F(0), bad if slot == "value" else F(0), F(0))
            with pytest.raises(ValidationError) as caught:
                t.PiecewiseFn(breaks, values, ((F(0), F(0)),) * 2)
            messages.add(str(caught.value))
        assert messages == {f"{forms[0]} lies outside [0, 1]"}

    @pytest.mark.parametrize(
        "breaks, pieces, message",
        [
            ((0, 1), ((0,),), "malformed function parts: "),  # a piece of one slot
            ((0, 1), ((0, 0, 5),), "malformed function parts: "),  # of three slots
            ((0, 1), (0,), "malformed function parts: "),  # not a pair
            (None, ((0, 0),), "malformed function parts: "),  # not iterable
            # a slot's own fault keeps its message
            ((0, 1), (("x", 0),), "not a rational number: 'x'"),
            ((0, None), ((0, 0),), "cannot interpret NoneType as a rational"),
        ],
    )
    def test_malformed_parts_rejected(self, breaks, pieces, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
            t.PiecewiseFn(breaks, (0, 0), pieces)

    @pytest.mark.parametrize(
        "parts",
        [
            ("01", (1, 0), ((-1, 1),)),
            ((0, 1), "10", ((-1, 1),)),
            ((0, 1), (1, 0), "01"),  # the pieces
            ((0, 1), (1, 0), ("01",)),  # a single piece
            ("01", "10", ["10"]),
        ],
        ids=["breakpoints", "values", "pieces", "piece", "all"],
    )
    def test_a_string_part_is_not_read_as_slots(self, parts):
        # each string here iterates as characters that are valid slots
        message = "malformed function parts: a string is not a sequence of slots"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            t.PiecewiseFn(*parts)

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
        expected += [t.is_convex(f) for f in fns + odd]
        expected += [t.is_interval_indicator(f) for f in fns + odd]

        def refuse(*args):
            raise AssertionError("Fraction comparison inside the kernel")

        monkeypatch.setattr(Fraction, "_richcmp", refuse)
        monkeypatch.setattr(Fraction, "__eq__", refuse)
        _clear_memos()
        got = [op(f, g) for f, g in pairs for op in ops]
        got += [op(f, g) for f, g in pairs[:11] for op in lattice_ops]
        got += [t.evaluate(f, x) for f in fns + odd for x in points]
        _clear_memos()
        got += [t.is_convex(f) for f in fns + odd]
        got += [t.is_interval_indicator(f) for f in fns + odd]
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
        # fails O3, so the shrinker interpolates candidate witnesses
        t.check_tr_axioms(t.JOIN, "tr-norm", config, closure_denominator=4, **sizes),
    ]


def _generator_draws():
    config = t.GeneratorConfig(seed=4)
    rng = random.Random(4)
    pairs = [t.comparable_pair(rng, config) for _ in range(20)]
    return (
        t.generate_lattice_functions(config, 40)
        + t.generate_nonlattice_functions(config, 20)
        + [f for pair in pairs for f in pair]
    )


class TestSealedBuilds:
    """Functions the library computes are sealed without the constructor's
    checks; routing them through the constructor changes nothing."""

    @staticmethod
    def _constructor_calls(compute):
        calls = []
        checked = t.PiecewiseFn.__post_init__

        def counting(self):
            calls.append(self)
            checked(self)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(t.PiecewiseFn, "__post_init__", counting)
            _clear_memos()
            compute()
        return calls

    @given(lattice_fns(), lattice_fns())
    def test_library_builds_skip_the_constructor(self, f, g):
        assert self._constructor_calls(lambda: _lattice_results(f, g)) == []

    def test_batteries_and_generators_skip_the_constructor(self):
        # the draws, the named constructors they use and the shrinker's
        # interpolations are all sealed unchecked
        calls = self._constructor_calls(lambda: (_small_batteries(), _generator_draws()))
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
            mp.setattr(axioms, "_sealed", validated)  # the draws
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
        o3 = expected[2][2]  # its witness was shrunk, so interpolations ran too
        assert (o3.axiom, o3.passed) == ("O3", False)

    def test_reference_path_through_the_generators(self):
        got, expected = self._through_constructor(_generator_draws)
        assert got == expected


class TestJsonRoundTrip:
    def test_bit_exact_round_trip(self, plateau_step):
        text = t.dumps(plateau_step)
        again = t.loads(text)
        assert again == plateau_step
        assert t.dumps(again) == text

    @given(piecewise_fns(den=97))
    def test_round_trip_arbitrary(self, f):
        assert t.loads(t.dumps(f)) == f

    @given(st.one_of(piecewise_fns(den=97), lattice_fns()))
    def test_compact_text_equals_the_json_module(self, f):
        # dumps writes its compact text directly; this is its reference
        assert t.dumps(f) == json.dumps(t.to_json_dict(f))

    @pytest.mark.parametrize("name", ["meet", "join", "star", "costar"])
    @given(f=lattice_fns(), g=lattice_fns())
    def test_binary_results_are_canonical_and_round_trip(self, name, f, g):
        result = getattr(t, name)(f, g)
        # loads stores the canonical form, so equality shows result is canonical
        assert t.loads(t.dumps(result)) == result

    @pytest.mark.parametrize("name", ["reflect", "envelope_left", "envelope_right"])
    @given(f=lattice_fns())
    def test_unary_results_are_canonical_and_round_trip(self, name, f):
        result = getattr(t, name)(f)
        assert t.loads(t.dumps(result)) == result

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_loads_coerces_each_slot_once(self, monkeypatch, k):
        # 2(k + 1) breakpoint and value slots and 2k piece slots
        f = t.PiecewiseFn(
            tuple(F(i, k) for i in range(k + 1)),
            tuple(F(i, k) for i in range(k + 1)),
            tuple((F(0), F(i, k)) for i in range(k)),
        )
        text = t.dumps(f)
        calls = []
        original = rationals.to_rational

        def counting(value):
            calls.append(value)
            return original(value)

        monkeypatch.setattr(rationals, "to_rational", counting)
        monkeypatch.setattr(piecewise, "to_rational", counting)
        assert t.loads(text) == f
        assert len(calls) == 4 * k + 2

    def test_malformed_json_rejected(self):
        with pytest.raises(ValidationError):
            t.loads("{not json")
        with pytest.raises(ValidationError):
            t.loads('{"breakpoints": []}')
        with pytest.raises(ValidationError):
            t.loads('{"breakpoints": [{"x": "0", "v": "0"}], "pieces": []}')

    ENDS = [{"x": "0", "v": "0"}, {"x": "1", "v": "1"}]
    RISE = [{"slope": "1", "intercept": "0"}]
    BREAKS = '"breakpoints" must be a list of objects with "x" and "v"'
    PIECES = '"pieces" must be a list of objects with "slope" and "intercept"'

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"breakpoints": ENDS, "pieces": [{"slope": "1"}]}, PIECES),
            ({"breakpoints": [["0", "0"], ENDS[1]], "pieces": RISE}, BREAKS),
            ({"breakpoints": "01", "pieces": RISE}, BREAKS),
            ({"breakpoints": ENDS, "pieces": "ab"}, PIECES),
            ({"breakpoints": ENDS, "pieces": ["ab"]}, PIECES),
            ({"pieces": RISE}, BREAKS),
            ({"breakpoints": ENDS}, PIECES),
            ({"breakpoints": "01", "pieces": "ab"}, BREAKS),  # breakpoints are read first
        ],
        ids=[
            "missing_key",
            "list_entry",
            "string_breakpoints",
            "string_pieces",
            "string_piece",
            "no_breakpoints",
            "no_pieces",
            "both",
        ],
    )
    def test_each_fault_is_named_in_the_programs_words(self, data, message):
        # the same text on every interpreter: none of CPython's own is chained
        with pytest.raises(ValidationError) as info:
            t.from_json_dict(data)
        assert str(info.value) == message
        assert info.value.__cause__ is None and info.value.__suppress_context__

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
