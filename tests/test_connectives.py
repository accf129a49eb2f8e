from fractions import Fraction
from itertools import product as iter_product

import pytest

import t2algebra as t
from t2algebra import DomainError

F = Fraction

SIXTEENTHS = tuple(F(k, 16) for k in range(17))
FIVE_POINT = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))


def test_builtin_values():
    assert t.MINIMUM(F(3, 10), F(7, 10)) == F(3, 10)
    assert t.LUKASIEWICZ(F(1, 2), F(7, 10)) == F(1, 5)
    assert t.DRASTIC(F(2, 5), F(9, 10)) == 0
    assert t.DRASTIC(F(2, 5), 1) == F(2, 5)
    assert t.PRODUCT(F(1, 2), F(1, 2)) == F(1, 4)
    assert t.MAXIMUM(F(3, 10), F(7, 10)) == F(7, 10)
    assert t.BOUNDED_SUM(F(3, 4), F(3, 4)) == 1
    assert t.PROBABILISTIC_SUM(F(3, 10), F(2, 5)) == F(29, 50)


def test_registry_names():
    for name in (
        "min",
        "product",
        "lukasiewicz",
        "drastic",
        "max",
        "probabilistic-sum",
        "bounded-sum",
        "drastic-conorm",
    ):
        assert t.connective_by_name(name).name == name
    assert len(t.builtin_connectives()) == 8


def test_dual_of_min_is_max():
    dual = t.dual_connective(t.MINIMUM)
    assert dual.profile == "t-conorm"
    for x, y in iter_product(FIVE_POINT, repeat=2):
        assert dual(x, y) == max(x, y)


def test_dual_of_product_value():
    assert t.dual_connective(t.PRODUCT)(F(3, 10), F(2, 5)) == F(29, 50)


def test_dual_is_involution_on_grid():
    grid = tuple(F(k, 20) for k in range(21))
    double = t.dual_connective(t.dual_connective(t.LUKASIEWICZ))
    for x, y in iter_product(grid, repeat=2):
        assert double(x, y) == t.LUKASIEWICZ(x, y)


def test_duals_pair_up_as_expected():
    pairs = (
        (t.MINIMUM, t.MAXIMUM),
        (t.PRODUCT, t.PROBABILISTIC_SUM),
        (t.LUKASIEWICZ, t.BOUNDED_SUM),
        (t.DRASTIC, t.DRASTIC_CONORM),
    )
    for norm, conorm in pairs:
        dual = t.dual_connective(norm)
        for x, y in iter_product(FIVE_POINT, repeat=2):
            assert dual(x, y) == conorm(x, y)


def test_axioms_pass_for_product():
    reports = t.check_connective_axioms(t.PRODUCT, FIVE_POINT)
    assert [r.axiom for r in reports] == ["T1", "T2", "T3", "T4"]
    assert all(r.passed for r in reports)


def test_axioms_pass_exhaustively_for_all_builtins():
    for conn in t.builtin_connectives():
        reports = t.check_connective_axioms(conn, SIXTEENTHS)
        assert all(r.passed for r in reports), (conn.name, reports)


def test_projection_fails_commutativity_with_boundary_witness():
    reports = t.check_connective_axioms(t.PROJECTION, (F(0), F(1)))
    t1 = reports[0]
    assert t1.axiom == "T1"
    assert not t1.passed
    assert t1.witness == {"x": "0", "y": "1", "lhs": "0", "rhs": "1"}


def test_min_has_neutral_one():
    reports = t.check_connective_axioms(t.MINIMUM, FIVE_POINT)
    t4 = [r for r in reports if r.axiom == "T4"][0]
    assert t4.passed


def test_conorm_neutrality_axiom_id():
    reports = t.check_connective_axioms(t.MAXIMUM, FIVE_POINT)
    assert [r.axiom for r in reports] == ["T1", "T2", "T3", "T4'"]
    assert all(r.passed for r in reports)


def test_sample_must_contain_extremes():
    with pytest.raises(DomainError):
        t.check_connective_axioms(t.MINIMUM, (F(1, 2),))


class TestBoundaryCharacterization:
    def test_lukasiewicz_reaches_one_only_at_ones(self):
        report = t.check_boundary_characterization(t.LUKASIEWICZ, SIXTEENTHS)
        assert report.passed

    def test_max_reaches_zero_only_at_zeros(self):
        report = t.check_boundary_characterization(t.MAXIMUM, SIXTEENTHS)
        assert report.passed

    def test_product_stays_below_one_off_the_corner(self):
        assert t.PRODUCT(F(9, 10), F(9, 10)) == F(81, 100) != 1
        report = t.check_boundary_characterization(t.PRODUCT, SIXTEENTHS)
        assert report.passed

    def test_all_builtins_pass(self):
        for conn in t.builtin_connectives():
            assert t.check_boundary_characterization(conn, SIXTEENTHS).passed

    def test_requires_declared_profile(self):
        with pytest.raises(DomainError):
            t.check_boundary_characterization(t.PROJECTION, FIVE_POINT)

    def test_violator_is_reported_with_witness(self):
        fake = t.ScalarConnective("fake", lambda x, y: F(1), "t-norm")
        report = t.check_boundary_characterization(fake, FIVE_POINT)
        assert not report.passed
        assert report.witness == {"x": "0", "y": "0", "value": "1"}


class TestFailingReportContract:
    """First counterexample, trial count and witness of each failing check.

    T3 counts only the triples with x <= y, so its trial count is not the
    position of the witness in the full product."""

    MEAN = t.ScalarConnective("mean", lambda x, y: (x + y) / 2, "t-norm")
    GAP = t.ScalarConnective("gap", lambda x, y: abs(x - y), "t-conorm")

    def test_mean_fails_associativity_and_neutrality(self):
        reports = t.check_connective_axioms(self.MEAN, FIVE_POINT)
        assert [r.to_json_dict() for r in reports] == [
            {"axiom": "T1", "status": "pass", "trials": 25},
            {
                "axiom": "T2",
                "status": "fail",
                "trials": 2,
                "witness": {"x": "0", "y": "0", "z": "1/4", "lhs": "1/8", "rhs": "1/16"},
            },
            {"axiom": "T3", "status": "pass", "trials": 75},
            {
                "axiom": "T4",
                "status": "fail",
                "trials": 1,
                "witness": {"x": "0", "lhs": "1/2", "rhs": "0"},
            },
        ]
        report = t.check_boundary_characterization(self.MEAN, FIVE_POINT)
        assert report == t.AxiomReport("boundary", True, 25)

    def test_gap_fails_associativity_monotonicity_and_boundary(self):
        reports = t.check_connective_axioms(self.GAP, FIVE_POINT)
        assert [r.to_json_dict() for r in reports] == [
            {"axiom": "T1", "status": "pass", "trials": 25},
            {
                "axiom": "T2",
                "status": "fail",
                "trials": 33,
                "witness": {"x": "1/4", "y": "1/4", "z": "1/2", "lhs": "1/2", "rhs": "0"},
            },
            {
                "axiom": "T3",
                "status": "fail",
                "trials": 7,
                "witness": {"x": "0", "y": "1/4", "z": "1/4", "lhs": "1/4", "rhs": "0"},
            },
            {"axiom": "T4'", "status": "pass", "trials": 5},
        ]
        report = t.check_boundary_characterization(self.GAP, FIVE_POINT)
        assert report == t.AxiomReport(
            "boundary", False, 7, {"x": "1/4", "y": "1/4", "value": "0"}
        )
