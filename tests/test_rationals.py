import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from t2algebra import ValidationError, rationals
from t2algebra.rationals import to_rational

SRC = Path(__file__).resolve().parent.parent / "src" / "t2algebra"

# 2,150 + 1 + 2,149 = 4,300 characters, the digit bound; one digit fewer parses
AT_THE_BOUND = "7" * 2150 + "/" + "3" * 2149
UNDER_THE_BOUND = "7" * 2149 + "/" + "3" * 2149

# Python 3.10's Fraction(str) grammar; 3.11 adds "_" between digits and 3.12
# whitespace around "/", which to_rational refuses on every interpreter
GRAMMAR_3_10 = re.compile(
    r"\A\s*[-+]?(?=\d|\.\d)\d*(?:/\d+|(?:\.\d*)?(?:E[-+]?\d+)?)\s*\Z", re.IGNORECASE
)
REFUSED = ["1_000", "1_0/3", "0.1_2", "1e1_0", "1_000/3", "1 / 2", "1/ 2", "1 /2", "1\t/2"]


def outcome(text):
    try:
        q = to_rational(text)
    except ValidationError as exc:
        return "error", str(exc)
    assert type(q) is Fraction
    return "value", q


def fraction_parse(text):
    # to_rational's contract for a string: the digit bound, then the refusal
    # of what 3.10's grammar does not read, then Fraction(str)
    if rationals._digit_bound(text) >= rationals._MAX_DIGITS:
        return "error", "rational too large: 4300 digits or more"
    try:
        if not GRAMMAR_3_10.match(text):
            raise ValueError
        return "value", Fraction(text)
    except (ValueError, ZeroDivisionError):
        return "error", f"not a rational number: {text!r}"


def fraction_calls(text):
    """The arguments of each Fraction that to_rational(text) builds."""
    calls = []

    class Recording(Fraction):
        def __new__(cls, *args):
            calls.append(args)
            return Fraction(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rationals, "Fraction", Recording)
        outcome(text)
    return calls


class TestIntegerPathParity:
    """Integer and "p/q" strings are built from int() slots; every string
    gives the value or the error text that 3.10's Fraction(str) gives."""

    @given(st.text(alphabet="0123456789-+/_.e ", max_size=12))
    @example("1/0")
    @example("0/0")
    def test_matches_the_fraction_parser(self, text):
        assert outcome(text) == fraction_parse(text)

    @pytest.mark.parametrize(
        "text",
        [
            "+1/2", " 1/2", "1/2 ", "٣/4", "3/٤", "²", "-", "/2", "1/",
            "1/-2", "--1", "1/2/3", "1/0", "0/0", "-0", "-0/5", "2/4", "-6/4",
            "0", "1", "007/010", "1.5", "3e2", UNDER_THE_BOUND,
            "1/00", "-0/0", "0/007", "-1/0", *REFUSED,
        ],
    )
    def test_fixed_strings(self, text):
        assert outcome(text) == fraction_parse(text)

    def test_division_by_zero_is_not_a_rational(self):
        assert outcome("1/0") == ("error", "not a rational number: '1/0'")

    def test_digit_bound_still_refuses_long_ratios(self):
        assert len(AT_THE_BOUND) == rationals._MAX_DIGITS
        assert outcome(AT_THE_BOUND) == (
            "error", "rational too large: 4300 digits or more"
        )

    @pytest.mark.parametrize(
        "text, ints", [("3/4", (3, 4)), ("-12", (-12, 1)), ("0", (0, 1)), ("2/4", (2, 4))]
    )
    def test_ratio_strings_take_the_integer_path(self, text, ints):
        assert fraction_calls(text) == [ints]

    def test_ratio_strings_skip_the_digit_bound(self, monkeypatch):
        calls = []
        monkeypatch.setattr(rationals, "_digit_bound", lambda text: calls.append(text) or 0)
        assert to_rational("3/4") == Fraction(3, 4)
        assert to_rational("-12") == -12
        assert calls == []
        assert to_rational("1.5") == Fraction(3, 2)  # the general path reads the bound
        assert calls == ["1.5"]

    @pytest.mark.parametrize("text", ["+1/2", " 1/2", "٣/4", "1.5", "1/-2"])
    def test_other_strings_take_the_fraction_parser(self, text):
        assert fraction_calls(text) == [(text,)]

    @pytest.mark.parametrize("text", REFUSED)
    def test_underscores_and_inner_whitespace_are_refused(self, text):
        assert outcome(text) == ("error", f"not a rational number: {text!r}")
        assert fraction_calls(text) == []  # whatever this interpreter's parser reads


@pytest.mark.parametrize("name", ["_normalize=", "_from_coprime_ints"])
def test_no_version_bound_fraction_internals(name):
    # requires-python is >=3.10: Fraction(..., _normalize=False) is gone from
    # 3.12 on, and Fraction._from_coprime_ints exists only from 3.12 on
    users = [p.name for p in sorted(SRC.rglob("*.py")) if name in p.read_text()]
    assert users == []
