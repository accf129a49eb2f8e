"""Record the CLI byte corpus in cli_corpus.json, next to this file.

Each entry is one command run in process through ``cli.main``: its argv, its
exit code, the sha256 of its stdout, its stderr text and the sha256 of each
file it wrote. Input files are written by ``write_inputs`` from exact
rationals and a seeded generator of its own, not by the library, so a change
to the library cannot change its inputs. Paths appear in argv and stderr as
``{dir}``. ``tests/test_cli_corpus.py`` replays the corpus.

Run from the repository root, on a commit whose CLI output is trusted:

    PYTHONPATH=src python3 tests/record_cli_corpus.py

Re-recording is a deliberate change of the CLI contract. With ``--check`` the
corpus is replayed instead, under whichever interpreter runs this script and
without pytest: each entry that differs is printed with the fields that
differ, nothing is written (``-B`` keeps bytecode out too), and the exit code
is 1 if any entry differs:

    PYTHONPATH=src python3 -B tests/record_cli_corpus.py --check
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from random import Random

from t2algebra.cli import main

CORPUS_PATH = Path(__file__).with_name("cli_corpus.json")
DIR = "{dir}"

F = Fraction


def _function(breaks, values, ends) -> str:
    """JSON text of the function with these breakpoints and values whose
    piece i runs from ends[i][0] at breaks[i] to ends[i][1] at breaks[i + 1]."""
    breaks, values = [F(b) for b in breaks], [F(v) for v in values]
    pieces = []
    for a, b, (ya, yb) in zip(breaks, breaks[1:], ends):
        slope = (F(yb) - F(ya)) / (b - a)
        pieces.append({"slope": str(slope), "intercept": str(F(ya) - slope * a)})
    points = [{"x": str(b), "v": str(v)} for b, v in zip(breaks, values)]
    return json.dumps({"breakpoints": points, "pieces": pieces})


def _indicator(a, b) -> str:
    if a == b:
        return _function((0, a, 1), (0, 1, 0), ((0, 0), (0, 0)))
    return _function((0, a, b, 1), (0, 1, 1, 0), ((0, 0), (1, 1), (0, 0)))


def _drawn(seed: int, lattice: bool) -> str:
    """A seeded function on the 16ths: normal and convex, rising to 1 at its
    third breakpoint and falling after it, if lattice, else drawn at random."""
    rng = Random(seed)
    breaks = [F(0), *sorted(F(k, 16) for k in rng.sample(range(1, 16), 4)), F(1)]
    # each breakpoint's value and the two ends of the piece after it, in order
    levels = [F(rng.randint(0, 16), 16) for _ in range(3 * len(breaks) - 2)]
    if lattice:
        levels = sorted(levels[:6]) + [F(1)] + sorted(levels[7:], reverse=True)
    return _function(breaks, levels[::3], zip(levels[1::3], levels[2::3]))


INPUTS = {
    "ind_a": _indicator(F(3, 16), F(11, 16)),
    "ind_b": _indicator(F(5, 16), F(13, 16)),
    "spike": _indicator(F(1, 2), F(1, 2)),
    # 1 on [0, 3/4] and 1/2 on (3/4, 1]: the separation fixture
    "fixture": _function((0, "3/4", 1), (1, 1, "1/2"), ((1, 1), ("1/2", "1/2"))),
    "ramp": _function((0, 1), ("1/4", 1), (("1/4", 1),)),
    "falling": _function((0, 1), (1, 0), ((1, 0),)),
    # off the lattice: twin spikes, a plateau with a dip, a ramp to 3/4
    "twin": _function(
        (0, "3/10", "7/10", 1), (0, 1, 1, 0), ((0, 0), (0, 0), (0, 0))
    ),
    "dip": _function(
        (0, "1/4", "1/2", "3/4", 1), (0, 1, "1/2", 1, 0), ((0, 0), (1, 1), (1, 1), (0, 0))
    ),
    "low_ramp": _function((0, 1), (0, "3/4"), ((0, "3/4"),)),
    # sevenths, whose decimals run past 15 digits
    "sevenths": _function((0, "1/3", 1), ("1/7", 1, "2/7"), (("1/7", 1), (1, "2/7"))),
    "drawn": _drawn(7321, lattice=True),
    "scrawl": _drawn(11, lattice=False),
}
_ZERO, _ONE = {"x": "0", "v": "0"}, {"x": "1", "v": "1"}
_RISE = [{"slope": "1", "intercept": "0"}]


def _parts(breakpoints=(_ZERO, _ONE), pieces=_RISE) -> str:
    """JSON text of these parts as given, a rising ramp by default."""
    return json.dumps({"breakpoints": list(breakpoints), "pieces": pieces})


# one fault each, but double_fault; out_of_range and bad_json were the first
FAULTY = {
    "out_of_range": _function((0, 1), (0, "3/2"), ((0, 0),)),
    "piece": _parts(pieces=[{"slope": "2", "intercept": "0"}]),
    "float": _parts([{"x": 0, "v": 0.5}, _ONE]),
    "bool": _parts([_ZERO, {"x": True, "v": "1"}]),
    "missing_key": _parts(pieces=[{"slope": "1"}]),
    "bad_rational": _parts([_ZERO, {"x": "1", "v": "one"}]),
    "order": _parts(
        [_ZERO, {"x": "3/4", "v": "0"}, {"x": "1/2", "v": "0"}, _ONE],
        [{"slope": "0", "intercept": "0"}] * 3,
    ),
    "endpoints": _parts([{"x": "1/4", "v": "0"}, _ONE]),
    "count": _parts(pieces=_RISE * 2),
    "list_entry": _parts([["0", "0"], _ONE]),
    "string_breakpoints": json.dumps({"breakpoints": "01", "pieces": _RISE}),
    "string_pieces": _parts(pieces="ab"),
    "string_piece": _parts(pieces=["ab"]),
    "double_fault": _parts([{"x": "1/2", "v": 0.5}, _ONE]),  # endpoints, float
    "array": json.dumps([[_ZERO, _ONE], _RISE]),
    "bad_json": '{"breakpoints": [',
    # Fraction(str) reads these from Python 3.12 and 3.11 on; the CLI does not
    "spaced_ratio": _parts([{"x": "0", "v": "1 / 2"}, _ONE]),
    "underscore": _parts([{"x": "0", "v": "1_0/20"}, _ONE]),
}
INPUTS.update(FAULTY)
LATIN1 = "latin1"  # a file whose bytes are not UTF-8


def write_inputs(directory: str) -> None:
    for name, text in INPUTS.items():
        Path(directory, f"{name}.json").write_text(text, encoding="utf-8")
    Path(directory, f"{LATIN1}.json").write_bytes(b'{"breakpoints": "\xff"}')


def _f(name: str) -> str:
    return f"{DIR}/{name}.json"


def _commands() -> list[list[str]]:
    commands = []
    for seed in ("7321", "11"):
        for op in ("star", "costar", "meet", "join"):
            for kind in ("tr-norm", "tr-conorm"):
                commands.append(["axioms", op, kind, "--seed", seed])
    commands += [
        ["axioms", "star", "tr-norm", "--trials", "20"],
        ["separation"],
        ["separation", "--star", "projection"],
        ["separation", "--grid", "40", "--star", "min,product,lukasiewicz,drastic,projection"],
    ]
    lattice_pairs = [
        ("ind_a", "ind_b"),
        ("fixture", "ramp"),
        ("ramp", "ind_a"),
        ("spike", "fixture"),
        ("drawn", "falling"),
    ]
    for op in ("star", "costar", "meet", "join"):
        for f, g in lattice_pairs:
            commands.append(["eval", op, _f(f), _f(g)])
    for op in ("star", "costar", "meet", "join"):
        commands.append(["eval", op, _f("sevenths"), _f("fixture"), "--decimal"])
    commands += [
        ["eval", "neg", _f("sevenths"), "--decimal"],
        ["eval", "env-left", _f("sevenths"), "--decimal", "--samples", "4"],
        ["eval", "env-right", _f("drawn"), "--decimal"],
        ["eval", "join", _f("sevenths"), _f("twin")],
        ["eval", "star", _f("sevenths"), _f("ind_a"), "--samples", "3", "--json-out", f"{DIR}/out.json"],
        ["eval", "star", _f("fixture"), _f("drawn"), "--decimal", "--samples", "5"],
        ["eval", "costar", _f("ind_a"), _f("ramp"), "--json-out", f"{DIR}/out.json"],
        ["eval", "meet", _f("ind_b"), _f("fixture"), "--out", f"{DIR}/out.csv"],
    ]
    for op in ("env-left", "env-right", "neg"):
        for f in ("twin", "dip", "low_ramp", "scrawl"):
            commands.append(["eval", op, _f(f)])
    for op in ("meet", "join"):
        commands += [
            ["eval", op, _f("twin"), _f("dip")],
            ["eval", op, _f("low_ramp"), _f("scrawl")],
        ]
    for name in FAULTY:
        commands += [
            ["eval", "neg", _f(name)],
            ["eval", "star", _f(name), _f("ind_a")],
            ["plot", _f(name), "--out", f"{DIR}/out.svg"],
        ]
    commands += [
        ["eval", "conv-meet:min:min", _f("fixture"), _f("ramp"), "--grid", "8"],
        ["eval", "conv-meet:product:product", _f("falling"), _f("ramp"), "--grid", "10"],
        ["eval", "conv-join:max:min", _f("ind_a"), _f("spike"), "--grid", "16", "--decimal"],
        ["eval", "conv-meet:product:product", _f("sevenths"), _f("ramp"), "--grid", "7", "--decimal"],
        ["eval", "conv-join:probabilistic-sum:product", _f("sevenths"), _f("falling"), "--grid", "6"],
        ["eval", "conv-meet:product:projection", _f("drawn"), _f("ramp"), "--grid", "24"],
        ["eval", "conv-join:max:projection", _f("fixture"), _f("dip"), "--grid", "30"],
        ["separation", "--grid", "10", "--tolerance", "1/100"],
        ["plot", _f("sevenths"), _f("ramp"), "--out", f"{DIR}/out.svg"],
        ["plot", _f("ind_a"), _f("fixture"), _f("twin"), "--out", f"{DIR}/out.svg"],
        ["plot", _f("spike"), _f("dip"), "--labels", "spike,dip", "--out", f"{DIR}/out.svg"],
        # usage errors (exit 2)
        ["frobnicate"],
        ["eval", "nope", _f("ind_a"), _f("ind_b")],
        ["eval", "star", _f("ind_a")],
        ["eval", "neg", _f("ind_a"), _f("ind_b")],
        ["eval", "conv-meet:min", _f("ind_a"), _f("ind_b")],
        ["eval", "conv-meet:min:min", _f("ind_a"), _f("ind_b"), "--json-out", f"{DIR}/o"],
        ["eval", "star", _f("ind_a"), _f("ind_b"), "--samples", "100001"],
        ["axioms", "star", "tr-norm", "--trials", "0"],
        ["axioms", "nope", "tr-norm"],
        ["separation", "--star", ","],
        ["plot", _f("ind_a"), "--labels", "a,b", "--out", f"{DIR}/out.svg"],
        # invalid input (exit 3)
        ["eval", "star", _f(LATIN1), _f("ind_a")],
        ["eval", "star", _f("missing"), _f("ind_a")],
        ["eval", "star", _f("twin"), _f("ind_a")],
        ["eval", "star", _f("ind_a"), _f("ind_b"), "--samples", "1"],
        ["eval", "conv-meet:min:min", _f("ind_a"), _f("ind_b"), "--tolerance", "x"],
        ["eval", "conv-meet:min:nope", _f("ind_a"), _f("ind_b")],
        ["separation", "--grid", "3"],
        # i/o errors (exit 4)
        ["eval", "star", _f("ind_a"), _f("ind_b"), "--out", f"{DIR}/no/out.csv"],
        ["eval", "neg", _f("ind_a"), "--json-out", f"{DIR}/no/out.json"],
        ["plot", _f("ind_a"), "--out", f"{DIR}/no/out.svg"],
    ]
    return commands


COMMANDS = _commands()


def run_entry(argv: list[str], directory: str) -> dict:
    """Run argv in process with {dir} set to directory, which holds the
    inputs; the files it writes, out.* there, are read and removed. Each text
    is kept with {dir} for the directory, stdout and the files as digests."""

    def placed(text: str) -> str:
        return text.replace(directory, DIR)

    def digest(text: str) -> str:
        return hashlib.sha256(placed(text).encode("utf-8")).hexdigest()

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([arg.replace(DIR, directory) for arg in argv])
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    files = {}
    for path in sorted(Path(directory).glob("out.*")):
        files[path.name] = digest(path.read_text(encoding="utf-8"))
        path.unlink()
    return {
        "argv": argv,
        "exit": code,
        "stdout_sha256": digest(out.getvalue()),
        "stderr": placed(err.getvalue()),
        "files": files,
    }


def record() -> list[dict]:
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(directory)
        return [run_entry(argv, directory) for argv in COMMANDS]


def check() -> int:
    """Replay the recorded corpus; print each entry that differs, field by
    field, and return the number of such entries."""
    corpus = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))
    differing = 0
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(directory)
        for entry in corpus:
            replayed = run_entry(entry["argv"], directory)
            fields = [key for key in entry if replayed[key] != entry[key]]
            differing += bool(fields)
            for key in fields:
                print(f"{' '.join(entry['argv'])}: {key} was {entry[key]!r}, is {replayed[key]!r}")
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"{differing} of {len(corpus)} entries differ under Python {version}", file=sys.stderr)
    return differing


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Record or check the CLI byte corpus.")
    parser.add_argument("--check", action="store_true", help="replay the corpus, write nothing")
    if parser.parse_args().check:
        sys.exit(1 if check() else 0)
    entries = record()
    codes = sorted({entry["exit"] for entry in entries})
    lines = ",\n".join(json.dumps(entry) for entry in entries)  # one entry a line
    CORPUS_PATH.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"{len(entries)} commands, exit codes {codes}", file=sys.stderr)
