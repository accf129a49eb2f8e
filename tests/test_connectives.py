from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import t2algebra as t
from t2algebra import ONE, ZERO, DomainError, ValidationError

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


# each builtin written with builtins.min/max and Fraction's own compares
BUILTIN_REFERENCE = {
    "min": lambda x, y: min(x, y),
    "product": lambda x, y: x * y,
    "lukasiewicz": lambda x, y: max(x + y - 1, ZERO),
    "drastic": lambda x, y: x if y == 1 else y if x == 1 else ZERO,
    "max": lambda x, y: max(x, y),
    "probabilistic-sum": lambda x, y: x + y - x * y,
    "bounded-sum": lambda x, y: min(x + y, ONE),
    "drastic-conorm": lambda x, y: x if y == 0 else y if x == 0 else ONE,
}
UNIT = st.one_of(
    st.sampled_from((F(0), F(1))), st.fractions(0, 1, max_denominator=64)
)


@pytest.mark.parametrize("conn", t.builtin_connectives(), ids=lambda c: c.name)
@given(x=UNIT, y=UNIT, twin=st.booleans())
def test_builtin_returns_what_the_builtins_would(conn, x, y, twin):
    """The integer compares give the builtins' value, and the same object
    where that is an operand or a constant: the first of equal operands."""
    if twin:
        y = F(x.numerator, x.denominator)  # equal to x, another object
    got, want = conn.fn(x, y), BUILTIN_REFERENCE[conn.name](x, y)
    assert type(got) is Fraction and got == want
    if any(want is v for v in (x, y, ZERO, ONE)):
        assert got is want


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


def test_dual_of_an_unconstrained_connective_stays_unconstrained():
    dual = t.dual_connective(t.PROJECTION)
    assert dual.profile == "unconstrained"
    assert dual(F(1, 4), F(3, 4)) == F(1, 4)


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
    assert list(t1.witness) == ["x", "y", "lhs", "rhs"]


def test_monotonicity_witness_shows_the_failing_argument_position():
    # x(1 - y) is monotone in x and fails only in y, the second position
    falling = t.ScalarConnective("x(1-y)", lambda x, y: x * (1 - y))
    t3 = t.check_connective_axioms(falling, FIVE_POINT)[2]
    assert (t3.axiom, t3.passed) == ("T3", False)
    assert t3.witness == {"x": "0", "y": "1/4", "z": "1/4", "lhs": "1/4", "rhs": "3/16"}
    assert list(t3.witness) == ["x", "y", "z", "lhs", "rhs"]
    assert F(t3.witness["lhs"]) > F(t3.witness["rhs"])


def test_neutrality_witness_shows_the_failing_argument_position():
    # the second projection has 1 as its left neutral element only
    second = t.ScalarConnective("second", lambda x, y: y)
    t4 = t.check_connective_axioms(second, FIVE_POINT)[3]
    assert (t4.axiom, t4.passed) == ("T4", False)
    assert t4.witness == {"x": "0", "lhs": "1", "rhs": "0"}
    assert list(t4.witness) == ["x", "lhs", "rhs"]


def test_user_built_result_escaping_unit_interval_raises():
    doubled = t.ScalarConnective("doubled", lambda x, y: 2 * x * y, "t-norm")
    assert doubled(F(1, 2), F(1, 2)) == F(1, 2)
    with pytest.raises(DomainError, match=r"^doubled\(3/4, 3/4\) = 9/8 escapes"):
        doubled(F(3, 4), F(3, 4))


def test_user_built_float_result_is_rejected():
    # a float in [0, 1] passes a range check; it must not pass at all
    half = t.ScalarConnective("half", lambda x, y: 0.5 * x * y, "t-norm")
    with pytest.raises(ValidationError, match=r"^half\(1/2, 1/2\) = 0\.125: float"):
        half(F(1, 2), F(1, 2))
    with pytest.raises(ValidationError, match="float"):
        t.convolve_meet(t.indicator(0, 1), t.indicator(0, 1), half, t.MINIMUM, t.GridSpec(4))


def test_user_built_int_result_comes_back_a_fraction():
    one = t.ScalarConnective("one", lambda x, y: 1, "t-norm")
    assert type(one(F(1, 2), F(1, 3))) is F
    assert type(one(1, 1)) is F and one(1, 1) == 1


def test_min_has_neutral_one():
    reports = t.check_connective_axioms(t.MINIMUM, FIVE_POINT)
    t4 = [r for r in reports if r.axiom == "T4"][0]
    assert t4.passed


def test_conorm_neutrality_axiom_id():
    reports = t.check_connective_axioms(t.MAXIMUM, FIVE_POINT)
    assert [r.axiom for r in reports] == ["T1", "T2", "T3", "T4'"]
    assert all(r.passed for r in reports)


LACKING_AN_EXTREME = [(), (F(1, 2),), (F(0), F(1, 2)), (F(1, 2), F(1))]
EXTREMES_MESSAGE = r"^sample must be nonempty and contain 0 and 1$"


@pytest.mark.parametrize("sample", LACKING_AN_EXTREME)
def test_sample_must_contain_extremes(sample):
    with pytest.raises(DomainError, match=EXTREMES_MESSAGE):
        t.check_connective_axioms(t.MINIMUM, sample)


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

    # an empty sample passed with no trials, and one without the extreme
    # corner passed without trying it
    @pytest.mark.parametrize("sample", LACKING_AN_EXTREME)
    def test_sample_must_contain_extremes(self, sample):
        for conn in (t.PRODUCT, t.MAXIMUM):
            with pytest.raises(DomainError, match=EXTREMES_MESSAGE):
                t.check_boundary_characterization(conn, sample)

    def test_requires_declared_profile(self):
        with pytest.raises(DomainError):
            t.check_boundary_characterization(t.PROJECTION, FIVE_POINT)

    def test_violator_is_reported_with_witness(self):
        fake = t.ScalarConnective("fake", lambda x, y: F(1), "t-norm")
        report = t.check_boundary_characterization(fake, FIVE_POINT)
        assert not report.passed
        assert report.witness == {"x": "0", "y": "0", "value": "1"}
        assert list(report.witness) == ["x", "y", "value"]


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
        assert [list(r.witness or ()) for r in reports] == [
            [],
            ["x", "y", "z", "lhs", "rhs"],
            [],
            ["x", "lhs", "rhs"],
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
        assert [list(r.witness or ()) for r in reports] == [
            [],
            ["x", "y", "z", "lhs", "rhs"],
            ["x", "y", "z", "lhs", "rhs"],
            [],
        ]
        report = t.check_boundary_characterization(self.GAP, FIVE_POINT)
        assert report == t.AxiomReport(
            "boundary", False, 7, {"x": "1/4", "y": "1/4", "value": "0"}
        )
        assert list(report.witness) == ["x", "y", "value"]
