from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import t2algebra as t
from t2algebra import DomainError, ValidationError
from t2algebra.connectives import _REGISTRY, _ROW_FORMS, _SLOT_FORMS
from t2algebra.convolution import _banded_pairs, _banded_window, _bands, _grid_values

from conftest import ABS_DIFF, HAMACHER, piecewise_fns
from oracles import brute_convolution_grid

F = Fraction

CONVOLVE = {"meet": t.convolve_meet, "join": t.convolve_join}
CONVOLVE_AT = {"meet": t.convolve_meet_at, "join": t.convolve_join_at}
EXACT_COMBINER = {"meet": t.MINIMUM, "join": t.MAXIMUM}
BANDED_COMBINERS = {
    "meet": (t.PRODUCT, t.LUKASIEWICZ, t.DRASTIC),
    "join": (t.PROBABILISTIC_SUM, t.BOUNDED_SUM, t.DRASTIC_CONORM),
}


def grid(n, tol=None):
    return t.GridSpec(n, tol)


def reference_copy(conn):
    """A user-built connective with conn's function: the per-pair paths."""
    return t.ScalarConnective(conn.name, conn.fn, conn.profile)


class TestGridSpec:
    def test_default_tolerance(self):
        assert grid(100).tolerance == F(1, 200)

    def test_rejects_tiny_resolution(self):
        with pytest.raises(ValidationError):
            grid(1)

    @pytest.mark.parametrize("resolution", ["200", 2.5, F(4), True, None])
    def test_rejects_a_resolution_that_is_not_an_integer(self, resolution):
        with pytest.raises(ValidationError, match="grid resolution must be an integer"):
            t.GridSpec(resolution)

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValidationError):
            t.GridSpec(10, F(-1, 10))

    def test_index_of_off_grid_point(self):
        with pytest.raises(DomainError):
            grid(10).index_of(F(1, 3))


class TestExactMeetForm:
    def test_matches_literal_pair_enumeration(self, plateau_step):
        f = plateau_step
        g = t.indicator(F(1, 4), F(5, 8))
        got = t.convolve_meet(f, g, t.MINIMUM, t.MINIMUM, grid(16))
        expected = brute_convolution_grid(f, g, min, min, 16)
        assert list(got.values) == expected

    def test_separation_point_lower_bound(self, plateau_step):
        for star_conn in (t.MINIMUM, t.PRODUCT, t.LUKASIEWICZ):
            val = t.convolve_meet_at(
                plateau_step,
                t.unit_spike(F(4, 5)),
                star_conn,
                t.MINIMUM,
                grid(200),
                F(4, 5),
            )
            assert val == F(1, 2)

    def test_endpoint_identity_all_builtins(self):
        # the meet form at 1 collapses to f(1) * g(1)
        f = t.falling_ramp(F(3, 10))
        g = t.falling_ramp(F(1, 2))
        for conn in t.builtin_connectives():
            got = t.convolve_meet_at(f, g, conn, t.MINIMUM, grid(64), 1)
            assert got == conn(F(3, 10), F(1, 2))

    @pytest.mark.parametrize(
        "star",
        [HAMACHER, ABS_DIFF, reference_copy(t.PRODUCT)],
        ids=["hamacher", "abs-diff", "user-built-product"],
    )
    @given(
        f=piecewise_fns(),
        g=piecewise_fns(),
        n=st.sampled_from((2, 3, 16)),
        tol=st.sampled_from((None, F(1, 5), F(0))),
    )
    def test_endpoint_identity_of_user_built_connectives(self, star, f, g, n, tol):
        # fact (a), which verify_star_forced_properties reads without the oracle:
        # y min z = 1 only at y = z = 1, whatever the grid and its tolerance
        got = t.convolve_meet_at(f, g, star, t.MINIMUM, grid(n, tol), 1)
        assert got == star(t.evaluate(f, 1), t.evaluate(g, 1))

    def test_requires_tnorm_combiner(self):
        with pytest.raises(DomainError):
            t.convolve_meet(t.TOP, t.TOP, t.MINIMUM, t.MAXIMUM, grid(8))


class TestExactJoinForm:
    def test_spikes_land_on_maximum(self):
        got = t.convolve_join(
            t.unit_spike(F(3, 10)),
            t.unit_spike(F(3, 5)),
            t.MINIMUM,
            t.MAXIMUM,
            grid(10),
        )
        expected = [F(1) if F(k, 10) == F(3, 5) else F(0) for k in range(11)]
        assert list(got.values) == expected

    def test_zero_endpoint_identity(self):
        f = t.rising_ramp(F(1, 4))
        g = t.rising_ramp(F(2, 5))
        for conn in t.builtin_connectives():
            got = t.convolve_join_at(f, g, conn, t.MAXIMUM, grid(64), 0)
            assert got == conn(F(1, 4), F(2, 5))

    def test_top_spike_is_not_neutral(self):
        # every admissible pair at 1/2 hits the spike's zero side
        descent = t.falling_ramp(0)
        got = t.convolve_join_at(
            descent, t.TOP, t.MINIMUM, t.MAXIMUM, grid(8), F(1, 2)
        )
        assert got == 0
        assert t.evaluate(descent, F(1, 2)) == F(1, 2)

    def test_matches_literal_pair_enumeration(self):
        f = t.rising_ramp(F(1, 8))
        g = t.indicator(F(1, 4), F(3, 4))
        got = t.convolve_join(f, g, t.MINIMUM, t.MAXIMUM, grid(16))
        expected = brute_convolution_grid(f, g, min, max, 16)
        assert list(got.values) == expected

    def test_requires_tconorm_combiner(self):
        with pytest.raises(DomainError):
            t.convolve_join(t.TOP, t.TOP, t.MINIMUM, t.MINIMUM, grid(8))


class TestBandedPath:
    def test_product_combiner_reproduces_spike_product(self):
        got = t.convolve_meet(
            t.unit_spike(F(2, 5)),
            t.unit_spike(F(9, 10)),
            t.MINIMUM,
            t.PRODUCT,
            grid(100),
        )
        target = F(9, 25)  # 2/5 * 9/10 lands on the 1/100 grid
        for k, v in enumerate(got.values):
            x = F(k, 100)
            if x == target:
                assert v == 1
            elif v is not None:
                assert v == 0

    def test_product_combiner_reaches_every_point_through_its_neutral(self):
        # x = x * 1, so a genuine t-norm leaves no grid point undefined even
        # at zero tolerance
        got = t.convolve_meet(
            t.constant(1), t.constant(1), t.MINIMUM, t.PRODUCT, grid(4, F(0))
        )
        assert all(v is not None for v in got.values)

    def test_neutral_free_combiner_leaves_unreachable_points_undefined(self):
        # (x+y)/3 over the half-grid reaches 0 and 1/2 exactly, never 1
        third_mean = t.ScalarConnective("third-mean", lambda x, y: (x + y) / 3, "t-norm")
        got = t.convolve_meet(
            t.constant(1), t.constant(1), t.MINIMUM, third_mean, grid(2, F(0))
        )
        assert got.values[0] is not None
        assert got.values[1] is not None
        assert got.values[2] is None
        assert got.defined == (True, True, False)
        one, spec = t.constant(1), grid(2, F(0))
        for x, v in zip(spec.points(), got.values):
            assert t.convolve_meet_at(one, one, t.MINIMUM, third_mean, spec, x) == v

    def test_empty_constraint_set_everywhere_raises(self):
        stuck = t.ScalarConnective("third", lambda x, y: F(1, 3), "t-norm")
        with pytest.raises(DomainError):
            t.convolve_meet(t.TOP, t.TOP, t.MINIMUM, stuck, grid(2, F(0)))
        for x in grid(2).points():
            with pytest.raises(DomainError, match="empty constraint set"):
                t.convolve_meet_at(t.TOP, t.TOP, t.MINIMUM, stuck, grid(2, F(0)), x)

    def test_refining_grid_never_lowers_defined_values(self):
        f = t.step(F(1, 2), 1, F(1, 4))
        g = t.indicator(F(1, 4), F(3, 4))
        tol = F(1, 32)
        coarse = t.convolve_meet(f, g, t.MINIMUM, t.PRODUCT, grid(16, tol))
        fine = t.convolve_meet(f, g, t.MINIMUM, t.PRODUCT, grid(32, tol))
        for k, v in enumerate(coarse.values):
            if v is None:
                continue
            refined = fine.values[2 * k]
            assert refined is not None
            assert refined >= v


class TestGridEquivalenceWithExactOps:
    def test_piecewise_constant_meet_join_agree_with_oracle(self):
        # breakpoints on the 1/16 sub-lattice keep every gap visible to the
        # 1/64 grid, so grid and exact computations agree at every point
        f = t.step(F(5, 16), 1, F(3, 8))
        g = t.pointwise_max(t.indicator(F(1, 2), F(3, 4)), t.constant(F(1, 4)))
        spec = grid(64)
        pts = spec.points()
        got_meet = t.convolve_meet(f, g, t.MINIMUM, t.MINIMUM, spec)
        exact_meet = t.meet(f, g)
        assert [t.evaluate(exact_meet, x) for x in pts] == list(got_meet.values)
        got_join = t.convolve_join(f, g, t.MINIMUM, t.MAXIMUM, spec)
        exact_join = t.join(f, g)
        assert [t.evaluate(exact_join, x) for x in pts] == list(got_join.values)


SECOND = t.ScalarConnective("second", lambda x, y: y)


class TestForcedProperties:
    def test_min_passes(self):
        assert t.verify_star_forced_properties(t.MINIMUM, grid(40)).passed

    def test_all_builtin_tnorms_pass(self):
        for conn in (t.MINIMUM, t.PRODUCT, t.LUKASIEWICZ, t.DRASTIC):
            assert t.verify_star_forced_properties(conn, grid(40)).passed

    @pytest.mark.parametrize(  # the last three are user-built; SECOND is not commutative
        "conn",
        [t.MINIMUM, t.PRODUCT, t.MAXIMUM, t.PROJECTION, t.DRASTIC, HAMACHER, ABS_DIFF, SECOND],
    )
    def test_the_report_is_the_same_on_every_grid(self, conn):
        # at x = 1 the only pair with y min z = 1 is (1, 1), a point of every grid
        reports = [t.verify_star_forced_properties(conn, grid(n)) for n in (2, 3, 5, 8, 40)]
        assert reports == [reports[0]] * 5

    def test_projection_fails_commutativity_with_affine_pair(self):
        report = t.verify_star_forced_properties(t.PROJECTION, grid(40))
        assert not report.passed
        assert report.witness["check"] == "commutativity"
        assert (report.witness["u"], report.witness["v"]) == ("1/5", "4/5")
        assert (report.witness["lhs"], report.witness["rhs"]) == ("1/5", "4/5")
        detail = "meet-form convolution not commutative at u=1/5, v=4/5"
        table = t.format_report_table([report]).split("\n")
        assert table[0] == f"forced-properties  FAIL  trials=1  ({detail})"

    def test_max_fails_boundary(self):
        report = t.verify_star_forced_properties(t.MAXIMUM, grid(40))
        assert not report.passed
        assert report.witness["check"] == "boundary"
        assert (report.witness["x"], report.witness["y"]) == ("0", "1")
        assert report.witness["lhs"] == "1"

    def test_failure_witness_replays(self):
        report = t.verify_star_forced_properties(t.PROJECTION, grid(40))
        f = t.from_json_dict(report.witness["fixtures"][0])
        g = t.from_json_dict(report.witness["fixtures"][1])
        lhs = t.convolve_meet_at(f, g, t.PROJECTION, t.MINIMUM, grid(40), 1)
        rhs = t.convolve_meet_at(g, f, t.PROJECTION, t.MINIMUM, grid(40), 1)
        assert str(lhs) == report.witness["lhs"]
        assert str(rhs) == report.witness["rhs"]
        assert lhs != rhs


class TestGridFnCsv:
    def test_csv_includes_defined_flag(self):
        third_mean = t.ScalarConnective("third-mean", lambda x, y: (x + y) / 3, "t-norm")
        got = t.convolve_meet(
            t.constant(1), t.constant(1), t.MINIMUM, third_mean, grid(2, F(0))
        )
        text = got.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "x,value,defined"
        assert "1,,false" in lines
        assert "0,1,true" in lines

    def test_decimal_rendering(self):
        got = t.convolve_meet(
            t.unit_spike(F(1, 2)), t.TOP, t.MINIMUM, t.MINIMUM, grid(2)
        )
        text = got.to_csv(decimal=True)
        assert "0.5,1,true" in text


class TestGridFnValueAt:
    def test_needs_one_slot_per_grid_point(self):
        with pytest.raises(ValidationError, match="one slot per grid point"):
            t.GridFn(4, (F(0),) * 4)

    def test_reads_the_slot_of_a_grid_point(self):
        got = t.GridFn(4, (F(1), None, F(1, 2), F(0), F(1, 3)))
        assert got.value_at(0) == 1
        assert got.value_at(F(1, 4)) is None
        assert got.value_at("1/2") == F(1, 2)
        assert got.value_at(1) == F(1, 3)

    def test_agrees_with_the_grid(self):
        spec = grid(8)
        f, g = t.step(F(1, 2), 1, F(1, 4)), t.indicator(F(1, 4), F(3, 4))
        full = t.convolve_meet(f, g, t.PRODUCT, t.LUKASIEWICZ, spec)
        assert [full.value_at(x) for x in spec.points()] == list(full.values)

    @pytest.mark.parametrize("x", [F(1, 3), F(5, 4), -1])
    def test_off_grid_point_raises(self, x):
        with pytest.raises(DomainError):
            t.GridFn(4, (F(0),) * 5).value_at(x)


class TestGridFnSlots:
    @pytest.mark.parametrize(
        "values", [(1, 2, 3), (F(0), F(-1, 2), None), (0, "x", 1), (0, 0.5, 1)]
    )
    def test_rejects_a_slot_outside_the_unit_interval(self, values):
        with pytest.raises(ValidationError):
            t.GridFn(2, values)

    def test_coerces_its_slots_to_rationals(self):
        got = t.GridFn(2, [1, None, "1/2"])
        assert got.values == (F(1), None, F(1, 2))
        assert got.to_csv() == "x,value,defined\n0,1,true\n1/2,,false\n1,1/2,true\n"

    def test_takes_any_iterable_of_slots(self):
        assert t.GridFn(2, iter([0, None, 1])) == t.GridFn(2, (0, None, 1))

    @pytest.mark.parametrize(
        "values", [None, 3, F(1, 2)], ids=["None", "int", "Fraction"]
    )
    def test_rejects_slots_that_are_not_iterable(self, values):
        with pytest.raises(ValidationError, match="iterable of slots"):
            t.GridFn(2, values)

    @pytest.mark.parametrize("resolution", ["2", 1])
    def test_checks_its_resolution_as_a_grid_does(self, resolution):
        with pytest.raises(ValidationError, match="grid resolution must be"):
            t.GridFn(resolution, (0, 0, 0))

    def test_convolutions_build_their_results_unchecked(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "t2algebra.convolution.to_unit", lambda v: calls.append(v) or v
        )
        f, g = t.step(F(1, 2), 1, F(1, 4)), t.indicator(F(1, 4), F(3, 4))
        exact = t.convolve_meet(f, g, t.PRODUCT, t.MINIMUM, grid(8))
        banded = t.convolve_join(f, g, t.PRODUCT, t.BOUNDED_SUM, grid(8))
        assert calls == []
        assert t.GridFn(8, banded.values) == banded
        assert len(calls) == 9
        assert all(0 <= v <= 1 for v in exact.values + banded.values)


def _pwf(breaks, values, pieces):
    return t.PiecewiseFn(
        tuple(map(F, breaks)),
        tuple(map(F, values)),
        tuple((F(a), F(b)) for a, b in pieces),
    )


# breakpoints 1/4, 1/3 and 3/5, with a jump at each, between a rising, a
# constant, a falling and a constant piece
_JUMPY = _pwf(
    ("0", "1/4", "1/3", "3/5", "1"),
    ("1/8", "1", "0", "2/7", "1/9"),
    (("3/2", "1/10"), ("0", "2/3"), ("-3/4", "9/10"), ("0", "1/2")),
)
_RAMPS = _pwf(
    ("0", "1/2", "1"), ("0", "1", "1/3"), (("2", "0"), ("-4/3", "5/3"))
)


class TestGridValues:
    """The integer sampler against evaluate, the slow reference, at every
    grid point."""

    @staticmethod
    def check(f, n):
        values = _grid_values(f, n)
        assert values == [t.evaluate(f, F(k, n)) for k in range(n + 1)]
        assert all(0 <= v <= 1 for v in values)

    @pytest.mark.parametrize("n", [2, 3, 16, 45, 97, 131])
    @given(f=piecewise_fns() | piecewise_fns(den=97, max_interior=8))
    def test_one_sweep_matches_evaluate(self, n, f):
        self.check(f, n)

    @pytest.mark.parametrize(
        "f, n",
        [
            (_JUMPY, 60),  # every breakpoint on the grid
            (_JUMPY, 8),  # 1/4 on the grid, 1/3 and 3/5 between points
            (_JUMPY, 7),  # coprime to every denominator: none on the grid
            (_JUMPY, 2),  # pieces that hold no grid point
            (_RAMPS, 7),
            (_RAMPS, 2),
            (_JUMPY, 2000),
            (_RAMPS, 2000),
        ],
        ids=[
            "all-on-grid",
            "some-on-grid",
            "coprime",
            "pieces-without-points",
            "ramps-7",
            "ramps-2",
            "jumpy-2000",
            "ramps-2000",
        ],
    )
    def test_breakpoints_on_and_between_grid_points(self, f, n):
        self.check(f, n)


class TestExactPathChoice:
    @pytest.mark.parametrize(
        "form, impostor, genuine",
        [
            ("meet", t.ScalarConnective("min", lambda x, y: x * y, "t-norm"), t.PRODUCT),
            (
                "join",
                t.ScalarConnective("max", lambda x, y: x + y - x * y, "t-conorm"),
                t.PROBABILISTIC_SUM,
            ),
        ],
        ids=["meet", "join"],
    )
    def test_combiner_is_matched_by_identity_not_name(self, form, impostor, genuine):
        f = t.step(F(1, 2), 1, F(1, 4))
        g = t.indicator(F(1, 4), F(3, 4))
        conv = CONVOLVE[form]
        got = conv(f, g, t.MINIMUM, impostor, grid(16))
        assert got == conv(f, g, t.MINIMUM, genuine, grid(16))


@pytest.mark.parametrize("form", ["meet", "join"])
@pytest.mark.parametrize("inner", _REGISTRY.values(), ids=lambda c: c.name)
class TestMonotoneFastPaths:
    """The fast paths for the library's connectives against the per-pair
    reference paths and the literal enumeration, on arbitrary functions."""

    @settings(max_examples=25)
    @given(f=piecewise_fns(), g=piecewise_fns(), n=st.sampled_from((2, 3, 16)))
    def test_exact_path(self, form, inner, f, g, n):
        combiner = EXACT_COMBINER[form]
        fast = CONVOLVE[form](f, g, inner, combiner, grid(n))
        slow = CONVOLVE[form](f, g, reference_copy(inner), combiner, grid(n))
        assert fast == slow
        assert list(fast.values) == brute_convolution_grid(f, g, inner, combiner, n)

    @settings(max_examples=25, deadline=None)
    @given(
        f=piecewise_fns(),
        g=piecewise_fns(),
        n=st.sampled_from((2, 3, 16, 40)),
        pick=st.integers(0, 2),
        user_built=st.booleans(),
        at=st.integers(0, 40),
    )
    def test_banded_path(self, form, inner, f, g, n, pick, user_built, at):
        combiner = BANDED_COMBINERS[form][pick]
        if user_built:
            # a monotone combiner outside the index table: the row path with
            # bands from calling the combiner
            combiner = reference_copy(combiner)
        k = min(at, n)
        # a wide tolerance makes bands span many grid points
        for tol in (None, F(1, 5), F(0)):
            spec = grid(n, tol)
            fast = CONVOLVE[form](f, g, inner, combiner, spec)
            slow = CONVOLVE[form](f, g, reference_copy(inner), combiner, spec)
            assert fast == slow
            for conn in (inner, reference_copy(inner)):
                point = CONVOLVE_AT[form](f, g, conn, combiner, spec, F(k, n))
                assert point == fast.values[k]
        # at zero tolerance a band is the one grid point the combiner hits
        assert list(fast.values) == brute_convolution_grid(f, g, inner, combiner, n)


class TestDominatedRowsAreSkipped:
    """_banded_window calls the slot function at most once per row and grid
    point the row reaches, and not at all where an earlier row (a larger f
    value) with a rank at least as high dominates; its values are
    _banded_pairs'."""

    @staticmethod
    def calls_and_reached(f, g, combiner, spec):
        n = spec.resolution
        pts = spec.points()
        fv, gv = _grid_values(f, n), _grid_values(g, n)
        bands = partial(_bands, combiner, pts, spec.tolerance, 0, n)
        calls = []
        product = _SLOT_FORMS[id(t.PRODUCT)]

        def slot(*args):
            calls.append(args)
            return product(*args)

        got = _banded_window(fv, gv, slot, _ROW_FORMS[id(combiner)], spec.tolerance)
        assert got == _banded_pairs(fv, gv, t.PRODUCT.fn, bands, 0, n)
        reached = 0
        for i in range(n + 1):
            reached += len({k for _, lo, hi in bands(i) for k in range(lo, hi + 1)})
        return len(calls), reached

    @pytest.mark.parametrize("form", ["meet", "join"])
    @settings(max_examples=30)
    @given(
        f=piecewise_fns(),
        g=piecewise_fns(),
        n=st.sampled_from((2, 3, 16)),
        pick=st.integers(0, 2),
        tol=st.sampled_from((None, F(0), F(1, 5))),
    )
    def test_at_most_one_call_per_row_and_reached_point(self, form, f, g, n, pick, tol):
        combiner = BANDED_COMBINERS[form][pick]
        calls, reached = self.calls_and_reached(f, g, combiner, grid(n, tol))
        assert calls <= reached

    @pytest.mark.parametrize("tol", [None, F(1, 5)], ids=["default-tol", "wide-tol"])
    def test_a_dominating_row_leaves_the_others_uncalled(self, tol):
        # f rises to its largest value at x = 1 alone and g is constant: the
        # row of x = 1 reaches every grid point through the product's neutral
        # element, so no other row makes a call
        rising = t.PiecewiseFn((F(0), F(1)), (F(0), F(1)), ((F(1), F(0)),))
        spec = grid(16, tol)
        calls, reached = self.calls_and_reached(rising, t.constant(F(1, 2)), t.PRODUCT, spec)
        assert calls == 17 < reached


BUILTINS = t.builtin_connectives()
ALL_COMBINERS = pytest.mark.parametrize(
    "form, combiner",
    [(form, EXACT_COMBINER[form]) for form in CONVOLVE]
    + [(form, c) for form, cs in BANDED_COMBINERS.items() for c in cs],
    ids=lambda v: getattr(v, "name", v),
)


def assert_window_equals_pairs(f, g, combiner, inners, n, tol):
    """_banded_window against the reference _banded_pairs for each inner
    connective, on bands found once."""
    fv, gv = _grid_values(f, n), _grid_values(g, n)
    pts = grid(n).points()
    rows = [_bands(combiner, pts, tol, 0, n, i) for i in range(n + 1)]
    for inner in inners:
        slot, row_form = _SLOT_FORMS[id(inner)], _ROW_FORMS[id(combiner)]
        got = _banded_window(fv, gv, slot, row_form, tol)
        assert got == _banded_pairs(fv, gv, inner.fn, rows.__getitem__, 0, n), (
            inner.name,
            tol,
        )


def _pool(count):
    fns = t.generate_lattice_functions(t.GeneratorConfig(seed=1908), 2 * count)
    return list(zip(fns[::2], fns[1::2]))


@ALL_COMBINERS
@pytest.mark.parametrize("n", [2, 7, 40])
def test_window_equals_the_per_pair_path(form, combiner, n):
    for f, g in _pool(3):
        for tol in (grid(n).tolerance, F(0), F(1, 5)):
            assert_window_equals_pairs(f, g, combiner, _REGISTRY.values(), n, tol)


@ALL_COMBINERS
def test_window_equals_the_per_pair_path_at_resolution_200(form, combiner):
    # the reference takes up to 0.6 s a call here, so each tolerance takes one
    # inner connective per combiner, turning so that it meets all eight
    c = BUILTINS.index(combiner)
    ((f, g),) = _pool(1)
    for turn, tol in enumerate((grid(200).tolerance, F(0), F(1, 5))):
        inner = BUILTINS[(c + 3 * turn) % len(BUILTINS)]
        assert_window_equals_pairs(f, g, combiner, [inner], 200, tol)


class TestDeclaredProfileIsNotTrusted:
    """A user-built connective declared a t-conorm but not monotone (T3 fails)
    keeps the per-pair result, which a running maximum would miss."""

    GAP = t.ScalarConnective("gap", lambda x, y: abs(x - y), "t-conorm")

    @pytest.mark.parametrize("form", ["meet", "join"])
    @settings(max_examples=40)
    @given(f=piecewise_fns(), g=piecewise_fns())
    def test_exact_path_matches_literal_pair_enumeration(self, form, f, g):
        combiner = EXACT_COMBINER[form]
        got = CONVOLVE[form](f, g, self.GAP, combiner, grid(16))
        assert list(got.values) == brute_convolution_grid(f, g, self.GAP, combiner, 16)

    @pytest.mark.parametrize("form", ["meet", "join"])
    @settings(max_examples=40)
    @given(f=piecewise_fns(), g=piecewise_fns())
    def test_banded_path_matches_literal_pair_enumeration(self, form, f, g):
        combiner = BANDED_COMBINERS[form][0]
        got = CONVOLVE[form](f, g, self.GAP, combiner, grid(16, F(0)))
        assert list(got.values) == brute_convolution_grid(f, g, self.GAP, combiner, 16)


class TestProjectionReference:
    @pytest.mark.parametrize("form", ["meet", "join"])
    @given(f=piecewise_fns(), g=piecewise_fns(), n=st.sampled_from((2, 3, 16)))
    def test_matches_literal_pair_enumeration(self, form, f, g, n):
        combiner = EXACT_COMBINER[form]
        got = CONVOLVE[form](f, g, t.PROJECTION, combiner, grid(n))
        assert list(got.values) == brute_convolution_grid(
            f, g, t.PROJECTION, combiner, n
        )


@pytest.mark.parametrize("form", ["meet", "join"])
@pytest.mark.parametrize("inner", [t.MINIMUM, t.PRODUCT], ids=lambda c: c.name)
@pytest.mark.parametrize("tol", [F(1, 7), F(0)], ids=["tol-1/7", "zero-tol"])
@pytest.mark.parametrize("n", [3, 16])
class TestUserBuiltInnerUnderExactCombiner:
    """A user-built inner connective under min/max is banded at zero
    tolerance, whatever tolerance the grid carries: the exact solution set."""

    @settings(max_examples=10)
    @given(f=piecewise_fns(), g=piecewise_fns())
    def test_grid_and_points_equal_literal_enumeration(self, form, inner, tol, n, f, g):
        combiner = EXACT_COMBINER[form]
        copy = reference_copy(inner)
        spec = grid(n, tol)
        expected = brute_convolution_grid(f, g, inner, combiner, n)
        assert list(CONVOLVE[form](f, g, copy, combiner, spec).values) == expected
        points = [CONVOLVE_AT[form](f, g, copy, combiner, spec, x) for x in spec.points()]
        assert points == expected


class TestBandedSinglePoint:
    @pytest.mark.parametrize("tol", [None, F(0)], ids=["default-tol", "zero-tol"])
    @pytest.mark.parametrize(
        "form, combiner",
        [
            ("meet", t.PRODUCT),
            ("meet", t.LUKASIEWICZ),
            ("join", t.PROBABILISTIC_SUM),
            ("join", t.BOUNDED_SUM),
        ],
        ids=lambda c: getattr(c, "name", c),
    )
    @pytest.mark.parametrize(
        "inner", [t.PRODUCT, reference_copy(t.PRODUCT)], ids=["builtin", "user-built"]
    )
    def test_point_equals_full_grid(self, form, combiner, tol, inner):
        f = t.step(F(1, 2), 1, F(1, 4))
        g = t.indicator(F(1, 4), F(3, 4))
        spec = grid(16, tol)
        full = CONVOLVE[form](f, g, inner, combiner, spec)
        points = [
            CONVOLVE_AT[form](f, g, inner, combiner, spec, x) for x in spec.points()
        ]
        assert points == list(full.values)


@pytest.mark.parametrize("form", ["meet", "join"])
@pytest.mark.parametrize("banded", [False, True], ids=["exact", "banded"])
def test_a_single_point_needs_a_grid_point(form, banded):
    # None is not the whole grid: the result is one value or None
    combiner = BANDED_COMBINERS[form][0] if banded else EXACT_COMBINER[form]
    conv = CONVOLVE_AT[form]
    f, g = t.step(F(1, 2), 1, F(1, 4)), t.indicator(F(1, 4), F(3, 4))
    with pytest.raises(ValidationError):
        conv(f, g, t.MINIMUM, combiner, grid(8), None)
    with pytest.raises(DomainError):
        conv(f, g, t.MINIMUM, combiner, grid(8), F(1, 3))


class TestExactPathMakesNoFractionCompare:
    """The exact path compares in integers: with Fraction's comparisons made
    to fail, every builtin inner connective gives its usual grid."""

    def test_convolutions_without_fraction_comparisons(self, monkeypatch):
        fns = [t.step(F(3, 8), 1, F(1, 4)), t.indicator(F(1, 4), F(5, 8))]
        fns += t.generate_lattice_functions(t.GeneratorConfig(seed=3), 4)
        fns += [_JUMPY, _RAMPS, t.falling_ramp(F(1, 3))]
        pairs = list(zip(fns, fns[1:]))
        calls = [
            (CONVOLVE[form], f, g, inner, EXACT_COMBINER[form], grid(n))
            for form in CONVOLVE
            for f, g in pairs
            for inner in t.builtin_connectives()
            for n in (2, 7, 200)
        ]
        expected = [conv(*args) for conv, *args in calls]

        def refuse(*args):
            raise AssertionError("Fraction comparison on the exact path")

        monkeypatch.setattr(Fraction, "_richcmp", refuse)
        monkeypatch.setattr(Fraction, "__eq__", refuse)
        got = [conv(*args) for conv, *args in calls]
        monkeypatch.undo()
        assert got == expected


class TestRowAndSlotForms:
    """The integer forms of the library's connectives: rows of combiner
    values on grid indices for its t-norms and t-conorms, and inner
    connective values on integer slots for every connective it names."""

    def test_keys_are_exactly_the_builtins(self):
        assert set(_ROW_FORMS) == {id(c) for c in t.builtin_connectives()}
        assert set(_SLOT_FORMS) == {id(c) for c in _REGISTRY.values()}

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 40, 45])
    @pytest.mark.parametrize("conn", t.builtin_connectives(), ids=lambda c: c.name)
    def test_row_equals_the_connective_on_grid_points(self, conn, n):
        for i in range(n + 1):
            ps, q = _ROW_FORMS[id(conn)](i, n)
            row = [conn(F(i, n), F(j, n)) for j in range(n + 1)]
            assert [F(p, q) for p in ps] == row, i
            assert ps == sorted(ps), i  # nondecreasing in j

    @pytest.mark.parametrize("conn", _REGISTRY.values(), ids=lambda c: c.name)
    @given(
        x=st.fractions(min_value=0, max_value=1, max_denominator=10**6),
        y=st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    )
    def test_slot_equals_the_connective(self, conn, x, y):
        slot = _SLOT_FORMS[id(conn)]
        p, q = slot(x.numerator, x.denominator, y.numerator, y.denominator)
        assert q > 0
        assert F(p, q) == conn.fn(x, y)

    @pytest.mark.parametrize("conn", _REGISTRY.values(), ids=lambda c: c.name)
    @given(
        xs=st.lists(st.fractions(0, 1, max_denominator=1000), min_size=2, max_size=2),
        ys=st.lists(st.fractions(0, 1, max_denominator=1000), min_size=2, max_size=2),
    )
    def test_slot_is_nondecreasing_in_each_argument(self, conn, xs, ys):
        # the fast paths' premise (T3): the lower pair's value is no greater
        slot = _SLOT_FORMS[id(conn)]
        (x1, x2), (y1, y2) = sorted(xs), sorted(ys)
        assert F(*slot(*x1.as_integer_ratio(), *y1.as_integer_ratio())) <= F(
            *slot(*x2.as_integer_ratio(), *y2.as_integer_ratio())
        )

    @pytest.mark.parametrize("conn", _REGISTRY.values(), ids=lambda c: c.name)
    @given(
        x=st.fractions(min_value=0, max_value=1, max_denominator=10**6),
        y=st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    )
    def test_builtin_maps_the_unit_square_into_the_unit_interval(self, conn, x, y):
        assert 0 <= conn.fn(x, y) <= 1


def counting_copy(conn):
    """A user-built connective with conn's function, and the list of its calls."""
    calls = []

    def fn(x, y):
        calls.append((x, y))
        return conn.fn(x, y)

    return t.ScalarConnective(conn.name, fn, conn.profile), calls


@pytest.mark.parametrize(
    "form, combiner",
    [(form, c) for form, cs in BANDED_COMBINERS.items() for c in cs],
    ids=lambda v: getattr(v, "name", v),
)
class TestUserBuiltCopyTakesPerPairPath:
    """A copy of a builtin is not in the index table: it is called on every
    pair it is asked about, and gives the builtin's grid."""

    PAIR = (t.step(F(1, 2), 1, F(1, 4)), t.indicator(F(1, 4), F(3, 4)))

    def test_combiner_copy(self, form, combiner):
        spec = grid(16, F(0))
        copy, calls = counting_copy(combiner)
        got = CONVOLVE[form](*self.PAIR, t.PRODUCT, copy, spec)
        assert len(calls) == 17**2
        assert got == CONVOLVE[form](*self.PAIR, t.PRODUCT, combiner, spec)
        # a single point tries every pair too: no bisection without the table
        calls.clear()
        point = CONVOLVE_AT[form](*self.PAIR, t.PRODUCT, copy, spec, F(1, 2))
        assert len(calls) == 17**2
        assert point == got.value_at(F(1, 2))

    def test_inner_copy(self, form, combiner):
        spec = grid(16, F(0))
        copy, calls = counting_copy(t.PRODUCT)
        got = CONVOLVE[form](*self.PAIR, copy, combiner, spec)
        pts = spec.points()
        # at zero tolerance a pair is banded when the combiner hits a grid point
        hits = sum((combiner(x, y) * 16).denominator == 1 for x in pts for y in pts)
        assert len(calls) == hits
        assert got == CONVOLVE[form](*self.PAIR, t.PRODUCT, combiner, spec)
