import json
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import t2algebra as t
from t2algebra import ValidationError

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

    def test_shrink_witness_respects_failure_predicate(self):
        bulky = t.generate_lattice_functions(t.GeneratorConfig(seed=23), 8)
        target = bulky[0]

        def still_fails(args):
            return not t.equals(args[0], t.TOP)

        shrunk = t.shrink_witness((target,), still_fails)
        assert not t.equals(shrunk[0], t.TOP)
        assert len(shrunk[0].breakpoints) <= len(target.breakpoints)


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
