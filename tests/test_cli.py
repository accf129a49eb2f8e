import json
from fractions import Fraction

import pytest

import t2algebra as t
from t2algebra.cli import main

F = Fraction


@pytest.fixture
def files(tmp_path):
    out = {}
    fixtures = {
        "full": t.indicator(0, 1),
        "band": t.indicator(F(1, 5), F(3, 5)),
        "one": t.unit_spike(1),
        "plateau": t.step(F(3, 4), 1, F(1, 2)),
        "spike_half": t.unit_spike(F(1, 2)),
    }
    for name, fn in fixtures.items():
        path = tmp_path / f"{name}.json"
        path.write_text(t.dumps(fn))
        out[name] = str(path)
    return out


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_star_of_full_and_band(self, capsys, files):
        code, out, _ = run(capsys, ["eval", "star", files["full"], files["band"]])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,value"
        rows = dict(line.split(",") for line in lines[1:])
        assert rows["3/5"] == "1"
        assert rows["7/10"] == "0"
        assert rows["0"] == "1"

    def test_neg_reflects_interval(self, capsys, files):
        code, out, _ = run(capsys, ["eval", "neg", files["band"]])
        assert code == 0
        rows = dict(line.split(",") for line in out.strip().split("\n")[1:])
        assert rows["2/5"] == "1"
        assert rows["4/5"] == "1"
        assert rows["1/5"] == "0"
        assert rows["9/10"] == "0"

    def test_star_with_neutral_returns_input(self, capsys, files):
        code, out, _ = run(
            capsys, ["eval", "star", files["plateau"], files["one"], "--samples", "5"]
        )
        assert code == 0
        rows = dict(line.split(",") for line in out.strip().split("\n")[1:])
        assert rows["3/4"] == "1"
        assert rows["1"] == "1/2"

    def test_decimal_flag(self, capsys, files):
        code, out, _ = run(
            capsys, ["eval", "neg", files["band"], "--decimal", "--samples", "3"]
        )
        assert code == 0
        assert "0.4,1" in out

    def test_conv_op_emits_grid_csv(self, capsys, files):
        code, out, _ = run(
            capsys,
            [
                "eval",
                "conv-meet:min:min",
                files["spike_half"],
                files["one"],
                "--grid",
                "4",
            ],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,value,defined"
        assert "1/2,1,true" in lines

    def test_unknown_op_is_usage_error(self, capsys, files):
        code, _, err = run(capsys, ["eval", "frobnicate", files["full"]])
        assert code == 2
        assert "unknown op" in err

    def test_wrong_arity_is_usage_error(self, capsys, files):
        code, _, _ = run(capsys, ["eval", "star", files["full"]])
        assert code == 2

    def test_malformed_file_is_validation_error(self, capsys, tmp_path, files):
        bad = tmp_path / "bad.json"
        bad.write_text('{"breakpoints": "nope"}')
        code, _, err = run(capsys, ["eval", "star", str(bad), files["full"]])
        assert code == 3
        assert "invalid input" in err

    @pytest.mark.parametrize(
        "huge", ['"1e-200000"', "1" * 5000], ids=["exponent", "int-literal"]
    )
    def test_oversized_rational_is_validation_error(self, capsys, tmp_path, huge):
        doc = t.to_json_dict(t.indicator(F(1, 5), F(3, 5)))
        doc["breakpoints"][0]["v"] = "HUGE"
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc).replace('"HUGE"', huge))
        code, out, err = run(capsys, ["eval", "neg", str(path)])
        assert code == 3
        assert out == ""
        assert err.startswith("invalid input:")
        assert err.count("\n") == 1

    def test_missing_file_is_validation_error(self, capsys, files):
        code, _, _ = run(capsys, ["eval", "neg", "/nonexistent/f.json"])
        assert code == 3

    def test_json_round_trip_preserves_canonical_form(
        self, capsys, tmp_path, files
    ):
        out_json = tmp_path / "result.json"
        code, _, _ = run(
            capsys,
            [
                "eval",
                "star",
                files["full"],
                files["band"],
                "--json-out",
                str(out_json),
            ],
        )
        assert code == 0
        result = t.loads(out_json.read_text())
        expected = t.indicator(0, F(3, 5))
        assert result == expected
        assert t.dumps(result, indent=2) + "\n" == out_json.read_text()

    def test_out_flag_writes_file(self, capsys, tmp_path, files):
        target = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys, ["eval", "neg", files["band"], "--out", str(target)]
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("x,value\n")


class TestAxiomsCommand:
    def test_star_passes(self, capsys):
        code, out, _ = run(
            capsys, ["axioms", "star", "tr-norm", "--seed", "7", "--trials", "20"]
        )
        assert code == 0
        assert "O1" in out and "FAIL" not in out

    def test_costar_passes(self, capsys):
        code, out, _ = run(
            capsys, ["axioms", "costar", "tr-conorm", "--seed", "7", "--trials", "20"]
        )
        assert code == 0
        assert "O3'" in out

    def test_join_as_tr_norm_fails_neutrality(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "axioms",
                "conv-join:max:min",
                "tr-norm",
                "--seed",
                "7",
                "--trials",
                "20",
            ],
        )
        assert code == 1
        o3_line = [line for line in out.split("\n") if line.startswith("O3 ")]
        assert o3_line and "FAIL" in o3_line[0]
        assert "witness" in out

    def test_inexact_conv_op_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["axioms", "conv-meet:product:min", "tr-norm"])
        assert code == 2
        assert "exact" in err

    def test_byte_stable_for_fixed_seed(self, capsys):
        argv = ["axioms", "star", "tr-norm", "--seed", "11", "--trials", "15"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


class TestPlotCommand:
    def test_plateau_plot_marks_the_jump(self, capsys, tmp_path, files):
        target = tmp_path / "plot.svg"
        code, _, _ = run(capsys, ["plot", files["plateau"], "--out", str(target)])
        assert code == 0
        svg = target.read_text()
        assert svg.startswith("<svg")
        # closed dot at the attained (3/4, 1), open circle at the 1/2 limit
        assert svg.count("<circle") >= 3
        assert 'fill="#ffffff"' in svg

    def test_spike_plot_has_isolated_marker(self, capsys, tmp_path, files):
        target = tmp_path / "spike.svg"
        code, _, _ = run(capsys, ["plot", files["spike_half"], "--out", str(target)])
        assert code == 0
        assert 'fill="#1f6fb4"' in target.read_text()

    def test_multiple_labeled_series(self, capsys, tmp_path, files):
        target = tmp_path / "two.svg"
        code, _, _ = run(
            capsys,
            [
                "plot",
                files["plateau"],
                files["band"],
                "--out",
                str(target),
                "--labels",
                "input,product",
            ],
        )
        assert code == 0
        svg = target.read_text()
        assert ">input</text>" in svg
        assert ">product</text>" in svg

    def test_unwritable_path_is_io_error(self, capsys, files):
        code, _, err = run(
            capsys, ["plot", files["band"], "--out", "/nonexistent/dir/x.svg"]
        )
        assert code == 4
        assert "i/o error" in err

    def test_byte_stable(self, capsys, tmp_path, files):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, ["plot", files["plateau"], "--out", str(a)])
        run(capsys, ["plot", files["plateau"], "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSeparationCommand:
    def test_default_three_rows_all_separated(self, capsys):
        code, out, _ = run(capsys, ["separation", "--grid", "50"])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        assert lines[1].startswith("min,0,1/2,yes")
        assert lines[2].startswith("product,0,1/2,yes")
        assert lines[3].startswith("lukasiewicz,0,1/2,yes")

    def test_coarser_grid_same_verdict(self, capsys):
        code_fine, out_fine, _ = run(capsys, ["separation", "--grid", "200"])
        code_coarse, out_coarse, _ = run(capsys, ["separation", "--grid", "50"])
        assert code_fine == code_coarse == 0
        assert out_fine == out_coarse

    def test_empty_star_list_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["separation", "--star", ""])
        assert code == 2

    def test_byte_stable(self, capsys):
        _, first, _ = run(capsys, ["separation", "--grid", "50"])
        _, second, _ = run(capsys, ["separation", "--grid", "50"])
        assert first == second


def test_usage_error_for_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
