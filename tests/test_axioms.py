import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import t2algebra as t
from t2algebra import ValidationError
from t2algebra.axioms import (
    _affine_between,
    _check_sides,
    _interpolate_through,
    _shrink_points,
)
from conftest import ABS_DIFF, HAMACHER, lattice_fns, piecewise_fns

F = Fraction


def small_budget(op, kind, seed=0):
    return t.check_tr_axioms(
        op,
        kind,
        t.GeneratorConfig(seed=seed),
        pairs=40,
        triples=20,
        neutral_trials=20,
        monotone_trials=20,
        closure_denominator=8,
    )


class TestGenerator:
    def test_deterministic_per_seed(self):
        cfg = t.GeneratorConfig(seed=42)
        assert t.random_normal_convex(cfg) == t.random_normal_convex(cfg)
        assert t.generate_lattice_functions(cfg, 10) == t.generate_lattice_functions(
            cfg, 10
        )

    def test_random_piecewise_deterministic_per_seed(self):
        cfg = t.GeneratorConfig(seed=42)
        assert t.random_piecewise(cfg) == t.random_piecewise(cfg)
        draws = {t.random_piecewise(t.GeneratorConfig(seed=s)) for s in range(5)}
        assert len(draws) > 1

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_breakpoints": 1}, "max_breakpoints must be at least 2"),
            ({"denominator_bound": 1}, "denominator_bound must be at least 2"),
            (
                {"denominator_bound": sys.maxsize + 1},
                f"denominator_bound must be at most {sys.maxsize}",
            ),
            ({"max_breakpoints": 2.5}, "max_breakpoints must be an integer"),
            ({"max_breakpoints": "7"}, "max_breakpoints must be an integer"),
            ({"max_breakpoints": True}, "max_breakpoints must be an integer"),
            ({"denominator_bound": 2.5}, "denominator_bound must be an integer"),
            ({"denominator_bound": Fraction(64)}, "denominator_bound must be an integer"),
            ({"denominator_bound": True}, "denominator_bound must be an integer"),
            # None would draw from the clock and [1] fail inside random
            ({"seed": None}, "seed must be an integer"),
            ({"seed": [1]}, "seed must be an integer"),
            ({"seed": 1.0}, "seed must be an integer"),
            ({"seed": "7"}, "seed must be an integer"),
            ({"seed": True}, "seed must be an integer"),
        ],
        ids=[
            "breakpoints",
            "denominator-low",
            "denominator-high",
            "breakpoints-float",
            "breakpoints-str",
            "breakpoints-bool",
            "denominator-float",
            "denominator-fraction",
            "denominator-bool",
            "seed-none",
            "seed-list",
            "seed-float",
            "seed-str",
            "seed-bool",
        ],
    )
    def test_config_out_of_bounds_rejected(self, kwargs, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            t.GeneratorConfig(**kwargs)

    # sha256 of the dumps of every draw below, one per line: a change to the
    # random stream, or to any draw's value, fails
    DRAW_DIGEST = "ebc58239fb8c2f4ec2f96e9c57a2b83c87a1b1244e214d8609141e552116ee4c"

    def test_draws_match_the_recorded_stream(self):
        digest = hashlib.sha256()
        for seed, breakpoints, den in [
            (0, 7, 64),
            (7321, 7, 64),
            (3, 2, 2),
            (11, 12, 1000),
            (5, 5, 2**40),
            (9, 9, 3),
        ]:
            cfg = t.GeneratorConfig(seed, breakpoints, den)
            fns = t.generate_lattice_functions(cfg, 40)
            fns += t.generate_nonlattice_functions(cfg, 20)
            rng = Random(seed)
            for _ in range(20):
                fns.extend(t.comparable_pair(rng, cfg))
            for f in fns:
                digest.update(t.dumps(f).encode() + b"\n")
        assert digest.hexdigest() == self.DRAW_DIGEST

    @given(st.fractions(), st.fractions(), st.fractions(), st.fractions())
    def test_integer_affine_between(self, x0, y0, x1, y1):
        assume(x0 != x1)
        slope = (y1 - y0) / (x1 - x0)
        assert _affine_between(x0, y0, x1, y1) == (slope, y0 - slope * x0)

    def test_largest_denominator_bound_draws(self):
        # past it, sampling coordinates raises OverflowError
        cfg = t.GeneratorConfig(seed=3, denominator_bound=sys.maxsize)
        assert all(t.in_lattice(f) for f in t.generate_lattice_functions(cfg, 30))
        assert not t.in_lattice(t.generate_nonlattice_functions(cfg, 1)[0])

    def test_different_seeds_differ_somewhere(self):
        a = t.generate_lattice_functions(t.GeneratorConfig(seed=1), 20)
        b = t.generate_lattice_functions(t.GeneratorConfig(seed=2), 20)
        assert a != b

    def test_contract_every_output_in_lattice(self):
        for f in t.generate_lattice_functions(t.GeneratorConfig(seed=7), 500):
            assert t.is_normal(f)
            assert t.is_convex(f)

    def test_threshold_coverage_over_thousand_samples(self):
        fns = t.generate_lattice_functions(t.GeneratorConfig(seed=11), 1000)
        split = strict = 0
        for f in fns:
            eta = t.left_threshold(f)
            xi = t.right_threshold(f)
            if eta == xi:
                split += 1
            else:
                strict += 1
        assert split >= 1
        assert strict >= 1

    def test_nonlattice_generator_stays_outside(self):
        for f in t.generate_nonlattice_functions(t.GeneratorConfig(seed=13), 100):
            assert not t.in_lattice(f)

    def test_comparable_pairs_are_comparable(self):
        rng = Random(3)
        cfg = t.GeneratorConfig(seed=3)
        for _ in range(60):
            f, g = t.comparable_pair(rng, cfg)
            assert t.in_lattice(f) and t.in_lattice(g)
            assert t.leq_sub(f, g)

    def test_a_pair_with_no_comparable_candidate_falls_back_to_bottom(self, monkeypatch):
        refused = []
        monkeypatch.setattr(t.axioms, "leq_sub", lambda f, g: refused.append(f) or False)
        rng, cfg = Random(3), t.GeneratorConfig(seed=3)
        fallbacks = []
        for _ in range(20):
            before = len(refused)
            pair = t.comparable_pair(rng, cfg)
            if len(refused) > before:  # candidates were tried, and every one refused
                fallbacks.append(pair)
        monkeypatch.undo()
        assert fallbacks
        for f, g in fallbacks:
            assert f is t.BOTTOM and t.in_lattice(g) and t.leq_sub(f, g)


class TestSuiteVerdicts:
    def test_star_passes_as_tr_norm(self):
        reports = small_budget(t.STAR, "tr-norm")
        assert [r.axiom for r in reports] == [
            "O1",
            "O2",
            "O3",
            "O4",
            "O5",
            "O6",
            "O7",
        ]
        assert all(r.passed for r in reports)

    def test_costar_passes_as_tr_conorm(self):
        reports = small_budget(t.COSTAR, "tr-conorm")
        assert [r.axiom for r in reports] == [
            "O1",
            "O2",
            "O3'",
            "O4",
            "O5'",
            "O6",
            "O7",
        ]
        assert all(r.passed for r in reports)

    def test_meet_and_join_pass_their_suites(self):
        # the sup-convolution meet/join are themselves known (co)norms,
        # which doubles as a self-test of the harness
        assert all(r.passed for r in small_budget(t.MEET, "tr-norm", seed=5))
        assert all(r.passed for r in small_budget(t.JOIN, "tr-conorm", seed=5))

    def test_join_fails_as_tr_norm_with_neutrality_witness(self):
        reports = small_budget(t.JOIN, "tr-norm", seed=8)
        by_axiom = {r.axiom: r for r in reports}
        o3 = by_axiom["O3"]
        assert not o3.passed
        assert o3.witness is not None
        # the witness replays: join with the unit spike at 1 loses the input
        f = t.from_json_dict(o3.witness["inputs"][0])
        lhs = t.join(f, t.TOP)
        assert not t.equals(lhs, f)
        assert t.equals(lhs, t.from_json_dict(o3.witness["lhs"]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            t.check_tr_axioms(t.STAR, "norm", t.GeneratorConfig(seed=0))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("closure_denominator", 0),  # divided by zero
            ("closure_denominator", -1),  # passed O5-O7 with no trials
            ("pairs", -3),  # passed O1 with no trials
            ("closure_denominator", 2.5),  # a TypeError from range()
            ("triples", True),
            ("neutral_trials", 0),
            ("monotone_trials", "4"),
        ],
    )
    def test_sizes_must_be_positive_integers(self, name, value):
        with pytest.raises(ValidationError, match=rf"^{name} must be a positive integer$"):
            t.check_tr_axioms(t.STAR, "tr-norm", t.GeneratorConfig(seed=0), **{name: value})

    def test_sizes_of_one_run_every_axiom(self):
        sizes = dict(pairs=1, triples=1, neutral_trials=1, monotone_trials=1)
        reports = t.check_tr_axioms(
            t.STAR, "tr-norm", t.GeneratorConfig(seed=0), closure_denominator=1, **sizes
        )
        assert all(r.passed and r.trials >= 1 for r in reports)


class TestWitnessShrinking:
    def test_shrinks_noncommutative_projection_op(self):
        first_arg = t.TruthValueOp("first", lambda f, g: t.canonicalize(f))
        cfg = t.GeneratorConfig(seed=19)
        reports = t.check_tr_axioms(
            first_arg,
            "tr-norm",
            cfg,
            pairs=30,
            triples=1,
            neutral_trials=1,
            monotone_trials=1,
            closure_denominator=4,
        )
        o1 = reports[0]
        assert o1.axiom == "O1" and not o1.passed
        shrunk = [t.from_json_dict(d) for d in o1.witness["inputs"]]
        # still a counterexample after minimization
        assert not t.equals(first_arg(*shrunk), first_arg(*reversed(shrunk)))
        assert all(len(f.breakpoints) <= 4 for f in shrunk)

    def test_a_candidate_the_op_refuses_is_skipped(self):
        # an op that fails O1 on its drawn pair and raises on anything else:
        # every shrink candidate raises, so the witness is the drawn pair
        f, g = t.generate_lattice_functions(t.GeneratorConfig(seed=19), 2)
        refused = []

        def first(a, b):
            if {a, b} != {f, g}:
                refused.append((a, b))
                raise t.DomainError("not the drawn pair")
            return a

        report = _check_sides("O1", [(f, g)], lambda a, b: (first(a, b), first(b, a)))
        assert (report.passed, report.trials) == (False, 1)
        assert [t.from_json_dict(d) for d in report.witness["inputs"]] == [f, g]
        assert report.witness["lhs"] == t.to_json_dict(f)
        assert refused

    def test_shrink_witness_respects_failure_predicate(self):
        bulky = t.generate_lattice_functions(t.GeneratorConfig(seed=23), 8)
        target = bulky[0]

        def still_fails(args):
            return not t.equals(args[0], t.TOP)

        shrunk = t.shrink_witness((target,), still_fails)
        assert not t.equals(shrunk[0], t.TOP)
        assert len(shrunk[0].breakpoints) <= len(target.breakpoints)

    # a denominator of 45 makes the snap to 16ths, 8ths, ... round and merge
    # breakpoints, which 16ths alone never do
    @given(st.one_of(lattice_fns(), piecewise_fns(), piecewise_fns(den=45)))
    def test_every_candidate_is_a_valid_function(self, f):
        # the shrinker drops no candidate for being invalid: each must build,
        # whether or not it would be admitted
        for points in _shrink_points(f):
            _interpolate_through(points)


class TestSeparation:
    def test_confirmed_for_the_three_continuous_norms(self):
        report = t.replicate_separation(
            [t.MINIMUM, t.PRODUCT, t.LUKASIEWICZ], t.GridSpec(200)
        )
        assert report.passed
        assert report.trials == 3

    def test_rows_carry_exact_gap(self):
        rows = t.separation_rows([t.MINIMUM], t.GridSpec(200))
        assert rows[0]["exact_product_value"] == "0"
        assert rows[0]["oracle_lower_bound"] == "1/2"
        assert rows[0]["separated"]

    def test_coarse_grid_containing_the_witness_point_suffices(self):
        report = t.replicate_separation([t.MINIMUM], t.GridSpec(50))
        assert report.passed

    def test_empty_choice_list_rejected(self):
        with pytest.raises(ValidationError):
            t.replicate_separation([], t.GridSpec(50))


P = t.separation_fixture()  # 1 on [0, 3/4], 1/2 on (3/4, 1]
RP = t.reflect(P)
SPIKE, DUAL_SPIKE = t.unit_spike(F(4, 5)), t.unit_spike(F(1, 5))
# every connective the CLI names, as the inner operation
STARS = (*t.builtin_connectives(), t.PROJECTION)
T_NORMS = [c for c in STARS if c.profile == "t-norm"]
T_CONORMS = [c for c in STARS if c.profile == "t-conorm"]

# per form: the convolution at one grid point, the certificate's f, the
# neutral element and the spike, the points x0 and x1, and the product
FORMS = {
    "meet": (t.convolve_meet_at, P, t.TOP, SPIKE, F(1), F(4, 5), t.star),
    "join": (t.convolve_join_at, RP, t.BOTTOM, DUAL_SPIKE, F(0), F(1, 5), t.costar),
}


def assert_certificate(form, combiner, star, grid):
    """For a t-norm, y △ z = 1 only at y = z = 1, and 1 △ 4/5 = 4/5; for a
    t-conorm, y ▽ z = 0 only at y = z = 0, and 0 ▽ 1/5 = 1/5. So the
    convolution is f(x0) ∗ 1 at x0 and at least that at x1, where the
    product is f(x0) = 1/2 and 0: the two differ at x0 or at x1."""
    conv, f, neutral, spike, x0, x1, product = FORMS[form]
    at_x0 = conv(f, neutral, star, combiner, grid, x0)
    at_x1 = conv(f, spike, star, combiner, grid, x1)
    assert at_x0 == star(t.evaluate(f, x0), 1)
    assert at_x1 >= star(t.evaluate(f, x0), 1)
    products = (t.evaluate(product(f, neutral), x0), t.evaluate(product(f, spike), x1))
    assert (at_x0, at_x1) != products


class TestCertificate:
    """The main theorem: the tr-norm star and the tr-conorm costar are no
    convolution, for any (t-norm or t-conorm, inner operation) pair."""

    def test_meet_half(self):
        assert t.star(P, t.TOP) == P
        assert t.evaluate(P, 1) == F(1, 2)
        assert t.evaluate(t.star(P, SPIKE), F(4, 5)) == 0

    def test_join_half(self):
        assert t.costar(RP, t.BOTTOM) == RP
        assert t.evaluate(RP, 0) == F(1, 2)
        assert t.evaluate(t.costar(RP, DUAL_SPIKE), F(1, 5)) == 0

    def test_the_halves_are_dual(self):
        dual = t.costar(RP, DUAL_SPIKE)
        assert t.reflect(t.star(P, SPIKE)) == dual == t.dualize(t.STAR)(RP, DUAL_SPIKE)

    def test_meet_and_join_are_not_separated(self):
        assert t.evaluate(t.meet(P, SPIKE), F(4, 5)) == F(1, 2)
        assert t.evaluate(t.join(RP, DUAL_SPIKE), F(1, 5)) == F(1, 2)

    @pytest.mark.parametrize(
        "form, combiners", [("meet", T_NORMS), ("join", T_CONORMS)], ids=["meet", "join"]
    )
    @pytest.mark.parametrize("star", STARS, ids=lambda c: c.name)
    def test_grid_rows_agree_with_the_certificate(self, form, combiners, star):
        for combiner in combiners:
            assert_certificate(form, combiner, star, t.GridSpec(200, 0))

    @pytest.mark.parametrize(
        "form, user_built",
        [("meet", HAMACHER), ("join", t.dual_connective(HAMACHER))],
        ids=["meet", "join"],
    )
    def test_user_built_connectives(self, form, user_built):
        builtins = T_NORMS if form == "meet" else T_CONORMS
        pairs = [(user_built, star) for star in (*STARS, ABS_DIFF)]
        pairs += [(combiner, ABS_DIFF) for combiner in builtins]
        for combiner, star in pairs:
            assert_certificate(form, combiner, star, t.GridSpec(20, 0))


class TestNeutralityGap:
    def test_gap_confirmed_for_all_three(self):
        report = t.replicate_notnorm_conorm_gap(
            t.MAXIMUM, [t.MINIMUM, t.PRODUCT, t.LUKASIEWICZ], t.GridSpec(64)
        )
        assert report.passed

    def test_rows_expose_failed_neutrality(self):
        rows = t.neutrality_gap_rows(t.MAXIMUM, [t.MINIMUM], t.GridSpec(64))
        row = rows[0]
        assert row["join_with_top_at_0"] == "0"
        assert row["expected_if_neutral_at_0"] == "1/2"
        assert row["join_with_top_at_half"] == "0"
        assert row["expected_if_neutral_at_half"] == "1/2"
        assert row["meet_with_bottom_is_bottom"]
        assert row["meet_with_bottom_differs_from_input"]

    def test_empty_choice_list_rejected(self):
        with pytest.raises(ValidationError):
            t.neutrality_gap_rows(t.MAXIMUM, [], t.GridSpec(8))


class TestReportPlumbing:
    def test_reports_serialize_to_json(self):
        reports = small_budget(t.STAR, "tr-norm")
        payload = json.loads(t.reports_to_json(reports))
        assert [entry["axiom"] for entry in payload] == [
            "O1",
            "O2",
            "O3",
            "O4",
            "O5",
            "O6",
            "O7",
        ]
        assert all(entry["status"] == "pass" for entry in payload)

    def test_table_contains_one_row_per_axiom(self):
        reports = small_budget(t.STAR, "tr-norm")
        table = t.format_report_table(reports)
        lines = table.split("\n")
        assert len(lines) == 7
        assert lines[0].startswith("O1")

    def test_failing_report_table_shows_witness(self):
        reports = small_budget(t.JOIN, "tr-norm", seed=8)
        table = t.format_report_table(reports)
        assert "FAIL" in table
        assert "witness:" in table


RECORDED = json.loads(
    (Path(__file__).parent / "failing_reports.json").read_text(encoding="utf-8")
)
HALF_RAMP = t.rising_ramp(F(1, 2))
ZERO_STAR = t.ScalarConnective("zero", lambda x, y: F(0), "t-norm")
PROBE_BATTERIES = {
    "first": (lambda f, g: f, "tr-norm"),
    "reflect": (lambda f, g: t.reflect(f), "tr-conorm"),
    "ramp": (lambda f, g: HALF_RAMP, "tr-norm"),
    "full": (lambda f, g: t.FULL, "tr-conorm"),
    "pmax": (t.pointwise_max, "tr-norm"),
}


class TestFailingReportContract:
    """Axiom id, verdict, trial count, witness and detail of checks built to
    fail, against the reports in failing_reports.json.

    O6 and O7 count their pairs up to the failing one; forced-properties adds
    its boundary trials to its commutativity trials."""

    @pytest.mark.parametrize("name", sorted(PROBE_BATTERIES))
    def test_battery(self, name):
        fn, kind = PROBE_BATTERIES[name]
        reports = t.check_tr_axioms(
            t.TruthValueOp(name, fn),
            kind,
            t.GeneratorConfig(seed=0),
            pairs=8,
            triples=6,
            neutral_trials=6,
            monotone_trials=8,
            closure_denominator=4,
        )
        assert [r.to_json_dict() for r in reports] == RECORDED[name]

    def test_separation_with_a_zero_inner_connective(self):
        report = t.replicate_separation([t.MINIMUM, ZERO_STAR], t.GridSpec(5))
        assert report.to_json_dict() == RECORDED["separation"]

    def test_neutrality_gap_with_a_zero_inner_connective(self):
        report = t.replicate_notnorm_conorm_gap(
            t.MAXIMUM, [ZERO_STAR, t.MINIMUM], t.GridSpec(4)
        )
        assert report.to_json_dict() == RECORDED["gap"]

    @pytest.mark.parametrize(
        "name, star", [("forced-proj", t.PROJECTION), ("forced-max", t.MAXIMUM)]
    )
    def test_forced_properties(self, name, star):
        report = t.verify_star_forced_properties(star, t.GridSpec(8))
        assert report.to_json_dict() == RECORDED[name]
