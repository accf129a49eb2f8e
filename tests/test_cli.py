import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import t2algebra as t
from t2algebra.cli import MAX_GRID, MAX_SAMPLES, MAX_TRIALS, main
from t2algebra.rationals import UNPRINTABLE

F = Fraction

# two 2,200-digit integers, each well under the input digit bound; the
# numbers built from both reach about 4,400 digits, past str()'s limit
P = 10**2199 + 7
Q = 6 * 10**2199 + 1


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

    def test_rows_at_the_samples_and_the_breakpoints(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(t.dumps(t.indicator(F(1, 3), F(1, 2))))
        code, out, _ = run(capsys, ["eval", "meet", str(path), str(path), "--samples", "3"])
        assert code == 0
        assert out == "x,value\n0,0\n1/3,1\n1/2,1\n1,0\n"

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
        "huge",
        [
            {"v": '"1e-200000"'},
            {"v": "1" * 5000},
            # the first piece is 1/Q at 0 and 1/Q - 1/(5P) < 0 at 1/5
            {"slope": f'"-1/{P}"', "intercept": f'"1/{Q}"'},
        ],
        ids=["exponent", "int-literal", "piece-leaves-range"],
    )
    def test_oversized_rational_is_validation_error(self, capsys, tmp_path, huge):
        doc = t.to_json_dict(t.indicator(F(1, 5), F(3, 5)))
        slots = {"v": doc["breakpoints"][0], "slope": doc["pieces"][0]}
        slots["intercept"] = slots["slope"]
        for key in huge:
            slots[key][key] = f"HUGE-{key}"
        text = json.dumps(doc)
        for key, literal in huge.items():
            text = text.replace(f'"HUGE-{key}"', literal)
        path = tmp_path / "huge.json"
        path.write_text(text)
        code, out, err = run(capsys, ["eval", "neg", str(path)])
        assert code == 3
        assert out == ""
        assert err.startswith("invalid input:")
        assert err.count("\n") == 1

    def test_unprintable_result_is_validation_error(self, capsys, tmp_path):
        # valid inputs, each one affine piece over [0, 1] with short values at
        # the ends; their join breaks at the crossing of the two pieces, a
        # point of about 4,400 digits that cannot be written out
        ends = (F(0), F(1))
        fns = {
            "f": t.PiecewiseFn(ends, ends, ((F(1, P), F(1, P + Q + 2)),)),
            "g": t.PiecewiseFn(ends, ends, ((F(-1, Q), F(1, Q)),)),
        }
        paths = []
        for name, fn in fns.items():
            path = tmp_path / f"{name}.json"
            path.write_text(t.dumps(fn))
            paths.append(str(path))
        code, out, err = run(capsys, ["eval", "join", *paths])
        assert code == 3
        assert out == ""
        assert err.startswith("invalid input: result too long to print")
        assert err.count("\n") == 1

    # the reflection's one piece has intercept 1/P + 1/(P+Q+2), about 4,400
    # digits; its sampled values, at 0 and 1, are short
    _UNPRINTABLE_INPUT = t.PiecewiseFn((F(0), F(1)), (F(0), F(1)), ((F(1, P), F(1, P + Q + 2)),))

    @classmethod
    def _unprintable_reflection(cls, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(t.dumps(cls._UNPRINTABLE_INPUT))
        return ["eval", "neg", str(path), "--samples", "2"]

    @pytest.mark.parametrize("indent", [None, 2])
    def test_unprintable_result_in_json(self, indent):
        # the compact text is written directly, the indented one by json.dumps
        result = t.reflect(self._UNPRINTABLE_INPUT)
        with pytest.raises(t.ValidationError) as info:
            t.dumps(result, indent=indent)
        assert str(info.value) == UNPRINTABLE

    def test_unprintable_json_result_after_its_csv(self, capsys, tmp_path):
        # the CSV can be built, but a failed command writes nothing
        out_json = tmp_path / "out.json"
        argv = self._unprintable_reflection(tmp_path) + ["--json-out", str(out_json)]
        code, out, err = run(capsys, argv)
        assert code == 3
        assert out == ""
        assert err.startswith("invalid input: result too long to print")
        assert err.count("\n") == 1
        assert not out_json.exists()

    def test_unprintable_json_result_writes_no_csv_file(self, capsys, tmp_path):
        out_csv, out_json = tmp_path / "out.csv", tmp_path / "out.json"
        argv = self._unprintable_reflection(tmp_path)
        code, out, err = run(capsys, argv + ["--out", str(out_csv), "--json-out", str(out_json)])
        assert code == 3
        assert out == ""
        assert err.startswith("invalid input: result too long to print")
        assert err.count("\n") == 1
        assert not out_csv.exists()
        assert not out_json.exists()

    def test_single_sample_is_validation_error(self, capsys, files):
        code, out, err = run(capsys, ["eval", "neg", files["band"], "--samples", "1"])
        assert code == 3
        assert out == ""
        assert err == "invalid input: need at least 2 sample points\n"

    # Fraction(str) reads "1_0/20" from Python 3.11 on and "1 / 2" from 3.12 on
    @pytest.mark.parametrize("v", ["1 / 2", "1_0/20"])
    def test_rational_outside_the_3_10_grammar_is_validation_error(self, capsys, tmp_path, v):
        path = tmp_path / "f.json"
        doc = t.to_json_dict(t.indicator(0, 1))
        doc["breakpoints"][0]["v"] = v
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["eval", "neg", str(path)])
        assert code == 3
        assert out == ""
        assert err == f"invalid input: not a rational number: {v!r}\n"

    def test_deeply_nested_json_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, ["eval", "neg", str(path)])
        assert code == 3
        assert out == ""
        assert err.startswith("invalid input:")
        assert err.count("\n") == 1

    # each boolean stands where it would read as the right number, 0 or 1
    @pytest.mark.parametrize("index, literal", [(0, "false"), (-1, "true")])
    def test_json_boolean_is_not_a_rational(
        self, capsys, tmp_path, files, index, literal
    ):
        doc = t.to_json_dict(t.indicator(F(1, 5), F(3, 5)))
        doc["breakpoints"][index]["x"] = "BOOL"
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc).replace('"BOOL"', literal))
        code, out, err = run(capsys, ["eval", "meet", str(path), files["band"]])
        assert code == 3
        assert out == ""
        assert err.startswith("invalid input:")
        assert err.count("\n") == 1

    def test_missing_file_is_validation_error(self, capsys, files):
        code, _, _ = run(capsys, ["eval", "neg", "/nonexistent/f.json"])
        assert code == 3

    def test_file_not_in_utf8_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, ["eval", "neg", str(path)])
        assert code == 3
        assert out == ""
        assert err.startswith(f"invalid input: cannot read {path}: 'utf-8' codec")
        assert err.count("\n") == 1

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

    def test_unwritable_json_out_writes_no_csv(self, capsys, tmp_path, files):
        # every destination is opened before any text is written
        argv = ["eval", "star", files["full"], files["band"], "--json-out", str(tmp_path)]
        code, out, err = run(capsys, argv)
        assert code == 4
        assert out == ""
        assert err.startswith(f"i/o error: cannot write {tmp_path}")
        assert err.count("\n") == 1

    def test_unwritable_json_out_keeps_an_existing_out_file(self, capsys, tmp_path, files):
        target = tmp_path / "F.csv"
        target.write_text("kept\n")
        argv = ["eval", "star", files["full"], files["band"], "--out", str(target)]
        code, out, err = run(capsys, argv + ["--json-out", str(tmp_path)])
        assert code == 4
        assert out == ""
        assert err.startswith(f"i/o error: cannot write {tmp_path}")
        assert err.count("\n") == 1
        assert target.read_text() == "kept\n"

    def test_unwritable_json_out_creates_no_out_file(self, capsys, tmp_path, files):
        target = tmp_path / "NEW.csv"
        argv = ["eval", "star", files["full"], files["band"], "--out", str(target)]
        code, out, err = run(capsys, argv + ["--json-out", str(tmp_path)])
        assert code == 4
        assert out == ""
        assert err.startswith(f"i/o error: cannot write {tmp_path}")
        assert err.count("\n") == 1
        assert not target.exists()

    def test_out_flag_replaces_a_longer_file(self, capsys, tmp_path, files):
        target = tmp_path / "rows.csv"
        target.write_text("x" * 10_000)
        code, _, _ = run(capsys, ["eval", "neg", files["band"], "--out", str(target)])
        assert code == 0
        code, expected, _ = run(capsys, ["eval", "neg", files["band"]])
        assert target.read_text() == expected

    def test_out_flag_takes_a_device(self, capsys, files):
        code, out, err = run(capsys, ["eval", "neg", files["band"], "--out", os.devnull])
        assert (code, out, err) == (0, "", "")

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

    def test_label_text_is_escaped(self, capsys, tmp_path, files):
        target = tmp_path / "label.svg"
        argv = ["plot", files["band"], "--out", str(target), "--labels", "R&D <draft>"]
        code, _, _ = run(capsys, argv)
        assert code == 0
        texts = ET.parse(target).getroot().iter("{http://www.w3.org/2000/svg}text")
        assert "R&D <draft>" in [node.text for node in texts]

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


@pytest.mark.parametrize(
    "argv",
    [
        [
            "eval",
            "conv-meet:min:min",
            "/nonexistent/f.json",
            "/nonexistent/g.json",
            "--grid",
            str(MAX_GRID + 1),
        ],
        ["separation", "--grid", str(MAX_GRID + 1)],
        ["eval", "neg", "/nonexistent/f.json", "--samples", str(MAX_SAMPLES + 1)],
        ["axioms", "star", "tr-norm", "--trials", str(MAX_TRIALS + 1)],
    ],
    ids=["eval-grid", "separation-grid", "samples", "trials"],
)
def test_size_flag_over_its_bound_is_usage_error(capsys, argv):
    # rejected before any file is read or any function is built
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and "at most" in err


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_trials_below_one_is_usage_error(capsys, trials):
    code, out, err = run(capsys, ["axioms", "star", "tr-norm", "--trials", trials])
    assert code == 2
    assert out == ""
    assert err == f"usage error: --trials is at least 1, got {trials}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "conv-meet:min", "F", "F"], "conv-meet:<tnorm>:<star>"),
        (["eval", "conv-meet:min:min", "F"], "takes exactly two function files"),
        (["eval", "env-left", "F", "F"], "takes exactly one function file"),
        (["plot", "F", "F", "--out", "OUT", "--labels", "a"], "one label per file"),
    ],
    ids=["conv-name", "conv-arity", "unary-arity", "labels"],
)
def test_malformed_command_is_usage_error(capsys, tmp_path, files, argv, message):
    argv = [{"F": files["band"], "OUT": str(tmp_path / "x.svg")}.get(a, a) for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and message in err
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("op", ["conv-meet:min:min", "conv-join:max:product"])
def test_conv_op_with_json_out_is_usage_error(capsys, tmp_path, op):
    # a grid convolution has no function JSON; refused before any file is read
    out_json = tmp_path / "o.json"
    argv = ["eval", op, "/nonexistent/f.json", "/nonexistent/g.json"]
    code, out, err = run(capsys, argv + ["--grid", "4", "--json-out", str(out_json)])
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and "--json-out" in err
    assert err.count("\n") == 1
    assert not out_json.exists()


def test_conv_tolerance_not_a_rational_is_validation_error(capsys, files):
    argv = ["eval", "conv-meet:product:min", files["band"], files["full"]]
    code, out, err = run(capsys, argv + ["--grid", "4", "--tolerance", "abc"])
    assert code == 3
    assert out == ""
    assert err == "invalid input: not a rational number: 'abc'\n"


@pytest.mark.parametrize(
    "argv",
    [["separation", "--star", "nosuch"], ["eval", "conv-meet:nosuch:min", "F", "F"]],
    ids=["separation", "conv-op"],
)
def test_unknown_connective_is_validation_error(capsys, files, argv):
    argv = [files["band"] if a == "F" else a for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err == "invalid input: unknown connective 'nosuch'\n"


def test_unexpected_failure_is_one_line_internal_error(capsys, monkeypatch):
    def fail(*args):
        raise RuntimeError("bad\n  thing")

    monkeypatch.setattr(t.axioms, "separation_rows", fail)
    code, out, err = run(capsys, ["separation"])
    assert code == 5
    assert out == ""
    assert err == "internal error: RuntimeError: bad thing\n"


# --- faults from outside the process: a closed stdout and an interrupt, in a
# child process with the package on its path

CHILD_ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(t.__file__)))


def run_child(argv, stdout_closed=True, stdout=subprocess.PIPE, env=CHILD_ENV):
    return subprocess.run(
        [sys.executable, "-m", "t2algebra.cli", *argv],
        env=env,
        preexec_fn=(lambda: os.close(1)) if stdout_closed else None,
        stdout=None if stdout_closed else stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "star", "{band}", "{full}"],
        ["eval", "star", "{band}", "{full}", "--json-out", "{tmp}/f.json"],
        ["axioms", "star", "tr-norm", "--trials", "20"],
        ["separation", "--grid", "10"],
    ],
)
def test_output_to_a_closed_stdout_is_an_io_error(files, tmp_path, argv):
    argv = [a.format(tmp=tmp_path, **files) for a in argv]
    child = run_child(argv)
    assert child.returncode == 4
    assert child.stderr == "i/o error: cannot write stdout: it is closed\n"
    assert not (tmp_path / "f.json").exists()  # no file is written either


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "star", "{band}", "{full}", "--out", "{tmp}/out"],
        ["eval", "conv-meet:min:min", "{band}", "{full}", "--grid", "8", "--out", "{tmp}/out"],
        ["plot", "{band}", "{full}", "--out", "{tmp}/out"],
    ],
)
def test_output_all_to_files_never_touches_stdout(files, tmp_path, argv):
    argv = [a.format(tmp=tmp_path, **files) for a in argv]
    child = run_child(argv)
    assert (child.returncode, child.stderr) == (0, "")
    written = (tmp_path / "out").read_text()
    argv[-1] = str(tmp_path / "again")
    assert run_child(argv, stdout_closed=False).stdout == ""
    assert written == (tmp_path / "again").read_text() != ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_failing_buffered_stdout_is_an_io_error(files):
    # with PYTHONUNBUFFERED unset the output waits in stdout's buffer: its
    # failure must end the command, not surface at interpreter exit
    env = {k: v for k, v in CHILD_ENV.items() if k != "PYTHONUNBUFFERED"}
    argv = ["eval", "star", files["band"], files["full"]]
    with open("/dev/full", "w") as full:
        child = run_child(argv, stdout_closed=False, stdout=full, env=env)
    assert child.returncode == 4
    assert child.stderr == "i/o error: [Errno 28] No space left on device\n"


# the child reports on stderr when its battery starts, then runs on for
# seconds; the handler is set because a child may inherit SIGINT ignored
STARTED_BATTERY = """
import signal, sys
from t2algebra import axioms, cli
signal.signal(signal.SIGINT, signal.default_int_handler)
battery = axioms.check_tr_axioms

def started(*args, **kwargs):
    print("started", file=sys.stderr, flush=True)
    return battery(*args, **kwargs)

axioms.check_tr_axioms = started
sys.exit(cli.main(["axioms", "star", "tr-norm", "--trials", "10000"]))
"""


def test_interrupt_is_one_line_and_exit_130():
    child = subprocess.Popen(
        [sys.executable, "-c", STARTED_BATTERY],
        env=CHILD_ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        assert child.stderr.readline() == "started\n"
        child.send_signal(signal.SIGINT)
        out, err = child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
        child.wait()
    assert (child.returncode, out, err) == (130, "", "interrupted\n")


def test_a_closed_stdout_is_found_before_the_battery_starts():
    child = subprocess.run(
        [sys.executable, "-c", STARTED_BATTERY],
        env=CHILD_ENV,
        preexec_fn=lambda: os.close(1),
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    assert child.returncode == 4
    assert child.stderr == "i/o error: cannot write stdout: it is closed\n"  # no "started"


# the child reports on stderr when the separation rows start; at --grid 2000
# they run for a second or more
STARTED_SEPARATION = """
import sys
from t2algebra import axioms, cli
rows = axioms.separation_rows

def started(*args, **kwargs):
    print("started", file=sys.stderr, flush=True)
    return rows(*args, **kwargs)

axioms.separation_rows = started
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "grid, code, err",
    [
        ("2000", 4, "i/o error: cannot write stdout: it is closed\n"),
        ("3", 3, "invalid input: 4/5 is not a point of the 1/3 grid\n"),
    ],
)
def test_a_closed_stdout_is_found_before_the_separation_rows_start(grid, code, err):
    stars = "min,product,lukasiewicz,drastic,projection"
    child = subprocess.run(
        [sys.executable, "-c", STARTED_SEPARATION, "separation", "--grid", grid, "--star", stars],
        env=CHILD_ENV,
        preexec_fn=lambda: os.close(1),
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    assert (child.returncode, child.stderr) == (code, err)  # no "started"


# the child reports on stderr when eval's operation starts: a convolution, or
# the op that resolve_operation hands back
STARTED_EVAL = """
import sys
from t2algebra import cli

def started(op):
    def run(*args, **kwargs):
        print("started", file=sys.stderr, flush=True)
        return op(*args, **kwargs)
    return run

cli.convolve_meet = started(cli.convolve_meet)
resolve = cli.resolve_operation
cli.resolve_operation = lambda name: started(resolve(name))
sys.exit(cli.main(sys.argv[1:]))
"""
CLOSED = (4, "i/o error: cannot write stdout: it is closed\n")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["conv-meet:product:product", "{fall}", "{rise}", "--grid", "2000"], CLOSED),
        (["star", "{band}", "{full}"], CLOSED),
        (
            ["conv-meet:product:product", "{fall}", "{rise}", "--tolerance", "x"],
            (3, "invalid input: not a rational number: 'x'\n"),
        ),
        (["star", "{band}", "{tmp}/missing.json"], (3, "invalid input: cannot read ")),
        (["nope", "{band}", "{full}"], (2, "usage error: unknown op 'nope'")),
        (
            ["star", "{band}", "{full}", "--samples", "1"],
            (3, "invalid input: need at least 2 sample points\n"),
        ),
    ],
)
def test_a_closed_stdout_is_found_before_eval_starts(files, tmp_path, argv, expected):
    for name, fn in (("fall", t.falling_ramp(0)), ("rise", t.rising_ramp(0))):
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(t.dumps(fn))
    argv = [a.format(tmp=tmp_path, **files) for a in argv]
    child = subprocess.run(
        [sys.executable, "-c", STARTED_EVAL, "eval", *argv],
        env=CHILD_ENV,
        preexec_fn=lambda: os.close(1),
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    code, err = expected
    assert child.returncode == code
    assert child.stderr.startswith(err) and child.stderr.count("\n") == 1  # no "started"


def test_usage_error_for_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


# --- fuzzing the file boundary: every eval op and plot, on arbitrary JSON and
# on valid function files with a few entries mutated

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=16,
)
RATIONAL_TEXTS = st.fractions(-3, 3, max_denominator=40).map(str) | st.sampled_from(
    ["1/0", "0.5", "-0", "1e-3", "1e400", " 1/2", "1/2/3", "nan", "inf", ""]
)
FUZZ_FUNCTIONS = [
    t.indicator(F(1, 5), F(3, 5)),
    t.step(F(3, 4), 1, F(1, 2)),
    t.unit_spike(1),
    t.rising_ramp(F(1, 4)),
    t.pointwise_min(t.from_affine(1, 0), t.from_affine(-1, 1)),
    t.pointwise_max(t.unit_spike(F(1, 4)), t.unit_spike(F(3, 4))),  # not convex
]
UNARY_EVAL_OPS = ["neg", "env-left", "env-right"]
BINARY_EVAL_OPS = [
    "star",
    "costar",
    "meet",
    "join",
    "conv-meet:product:min",
    "conv-join:probabilistic-sum:lukasiewicz",
]
MUTATIONS = ["value", "drop-field", "drop-entry", "repeat-entry", "swap", "replace-list"]


@st.composite
def mutated_function_texts(draw):
    doc = t.to_json_dict(draw(st.sampled_from(FUZZ_FUNCTIONS)))
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(["breakpoints", "pieces"]))
        entries = doc[key]
        kind = draw(st.sampled_from(MUTATIONS))
        if kind == "replace-list" or not isinstance(entries, list) or not entries:
            doc[key] = draw(JSON_VALUES)
            continue
        i = draw(st.integers(0, len(entries) - 1))
        entry = entries[i]
        fields = sorted(entry) if isinstance(entry, dict) else []
        if kind == "value" and fields:
            entry[draw(st.sampled_from(fields))] = draw(RATIONAL_TEXTS | JSON_VALUES)
        elif kind == "drop-field" and fields:
            del entry[draw(st.sampled_from(fields))]
        elif kind == "drop-entry":
            del entries[i]
        elif kind == "repeat-entry":
            entries.insert(i, json.loads(json.dumps(entry)))
        elif kind == "swap":
            j = draw(st.integers(0, len(entries) - 1))
            entries[i], entries[j] = entries[j], entries[i]
    return json.dumps(doc)


def assert_every_op_keeps_the_contract(text, partner):
    """text is the function file's content, as a str or as raw bytes."""
    data = text.encode("utf-8") if isinstance(text, str) else text
    with tempfile.TemporaryDirectory() as tmp:
        path, other = os.path.join(tmp, "f.json"), os.path.join(tmp, "g.json")
        with open(path, "wb") as handle:
            handle.write(data)
        with open(other, "w", encoding="utf-8") as handle:
            handle.write(t.dumps(partner))
        argvs = [["eval", op, path] for op in UNARY_EVAL_OPS]
        argvs += [["eval", op, path, other, "--grid", "6"] for op in BINARY_EVAL_OPS]
        argvs.append(["plot", path, "--out", os.path.join(tmp, "f.svg")])
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2, 3, 4), (argv, text, err.getvalue())
            assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())


@settings(max_examples=40, deadline=None)
@given(JSON_VALUES, st.sampled_from(FUZZ_FUNCTIONS))
def test_fuzz_arbitrary_json_keeps_the_exit_code_contract(value, partner):
    assert_every_op_keeps_the_contract(json.dumps(value), partner)


@settings(max_examples=60, deadline=None)
@given(mutated_function_texts(), st.sampled_from(FUZZ_FUNCTIONS))
def test_fuzz_mutated_function_files_keep_the_exit_code_contract(text, partner):
    assert_every_op_keeps_the_contract(text, partner)


@settings(max_examples=40, deadline=None)
@given(st.binary(max_size=64), st.sampled_from(FUZZ_FUNCTIONS))
@example(b"\xff\xfe{}", FUZZ_FUNCTIONS[0])  # not UTF-8
def test_fuzz_arbitrary_bytes_keep_the_exit_code_contract(data, partner):
    assert_every_op_keeps_the_contract(data, partner)
