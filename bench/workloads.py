"""The benchmark's three workloads and the CLI probes.

Each workload is built from a seed (set-up, untimed), runs one fixed job
(timed) and then checks every output (untimed) against a closed form or a
digest recorded in ``expected.json`` by ``record.py``.

Times come from the ``clock`` a job is given; benchmark runs pass the
reference clock (refclock.py). Library functions are looked up on the ``t2algebra`` modules at call time,
never bound at import, so that the traced run sees the calls it wraps.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from time import perf_counter

import t2algebra as t2
from t2algebra import cli

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# "full" is the benchmark proper; "tiny" is for the self-test.
SIZES = {
    "full": {
        "tr-battery": {"trials": 200, "star_sample": 8000},
        "grid-oracle": {"resolution": 200, "exact_pairs": 6},
        "fresh-pairs": {"pairs": 800},
    },
    "tiny": {
        "tr-battery": {"trials": 8, "star_sample": 50},
        "grid-oracle": {"resolution": 24, "exact_pairs": 2},
        "fresh-pairs": {"pairs": 20},
    },
}

# Banded convolutions are checked against recorded digests, so their inputs
# come from a fixed pool of pairs; the run's seed picks one pair per combiner.
# One inner connective per combiner keeps the job's cost independent of the
# seed. The pool is drawn with the generator's defaults.
BANDED = (
    ("meet", "product", "min"),
    ("meet", "lukasiewicz", "product"),
    ("join", "probabilistic-sum", "lukasiewicz"),
    ("join", "bounded-sum", "min"),
)
BANDED_POOL = 8
BANDED_POOL_SEED = 1908

# fresh-pairs draws its pairs from a pool of recorded pairs; pair k is drawn
# from generator seed k with longer functions and larger denominators than
# the defaults, so the memoised operators rarely hit.
FRESH_POOL = 1000
FRESH_CONFIG = {"max_breakpoints": 16, "denominator_bound": 720}
FRESH_OPS = ("meet", "join", "star", "costar", "leq_sub")

STAR_SAMPLE_DENOMINATOR = 16  # the battery's O7 interval lattice

# Exact-path inputs are step functions with breakpoints on this lattice. It
# divides every grid resolution in SIZES with grid points inside each piece,
# so every supremum is attained on the grid and the grid values must equal
# the closed-form meet and join.
STEP_DENOMINATOR = 8
STEP_VALUE_DENOMINATOR = 64


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def clear_memos() -> None:
    """Empty every lru_cache in t2algebra, as in a process that only imported it."""
    for name, module in list(sys.modules.items()):
        if name == "t2algebra" or name.startswith("t2algebra."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def _report_exception(what: str) -> None:
    print(f"bench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


@dataclass
class Outcome:
    """What one job produced: its wall time, per-operation latencies, outputs."""

    wall_s: float
    latencies: list[float]
    outputs: list


def _run_cli(argv: list[str]) -> tuple[int | None, str]:
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = cli.main(argv)
    except Exception:
        _report_exception(" ".join(argv))
        code = None
    return code, buf.getvalue()


class TrBattery:
    """The CLI's two axiom batteries, then timed star calls on O7's indicators."""

    name = "tr-battery"

    def __init__(self, seed: int, size: str):
        self.size = size
        self.sizes = SIZES[size][self.name]
        seed_arg, trials = str(seed), str(self.sizes["trials"])
        self.commands = [
            ["axioms", "star", "tr-norm", "--seed", seed_arg, "--trials", trials],
            ["axioms", "costar", "tr-conorm", "--seed", seed_arg, "--trials", trials],
        ]
        den = STAR_SAMPLE_DENOMINATOR
        pts = [Fraction(k, den) for k in range(den + 1)]
        intervals = [(a, b) for a in pts for b in pts if a <= b]
        rng = Random(seed)
        self.intervals = [
            (rng.choice(intervals), rng.choice(intervals))
            for _ in range(self.sizes["star_sample"])
        ]
        self.pairs = [
            (t2.indicator(*first), t2.indicator(*second))
            for first, second in self.intervals
        ]

    def run(self, clock=perf_counter) -> Outcome:
        start = clock()
        texts = [_run_cli(argv) for argv in self.commands]
        wall = clock() - start
        latencies, products = [], []
        for f, g in self.pairs:
            begin = clock()
            try:
                result = t2.star(f, g)
            except Exception:
                _report_exception("star")
                result = None
            latencies.append(clock() - begin)
            products.append(result)
        return Outcome(wall, latencies, [texts, products])

    def check(self, outputs: list, expected: dict) -> tuple[int, int]:
        texts, products = outputs
        tables = expected[self.name][self.size]
        failed = sum(
            code != 0 or text != table for (code, text), table in zip(texts, tables)
        )
        for ((a1, b1), (a2, b2)), result in zip(self.intervals, products):
            # the product of two interval indicators, in closed form
            want = t2.indicator(min(a1, a2), min(b1, b2))
            if result is None or not t2.equals(result, want):
                failed += 1
        return len(texts) + len(products), failed


def lattice_step(rng: Random) -> t2.PiecewiseFn:
    """A seeded normal convex step function: levels rise to 1, then fall."""
    den, value_den = STEP_DENOMINATOR, STEP_VALUE_DENOMINATOR
    ks = sorted(rng.sample(range(1, den), rng.randint(0, 5)))
    breaks = [Fraction(0)] + [Fraction(k, den) for k in ks] + [Fraction(1)]
    count = len(breaks) - 1
    peak = rng.randrange(count)

    def level() -> Fraction:
        return Fraction(rng.randint(0, value_den), value_den)

    levels = (
        sorted(level() for _ in range(peak))
        + [Fraction(1)]
        + sorted((level() for _ in range(count - peak - 1)), reverse=True)
    )
    # a value between its neighbours' levels keeps every upper level set an interval
    values = [Fraction(rng.randint(0, int(levels[0] * value_den)), value_den)]
    values.extend(rng.choice(levels[i - 1 : i + 1]) for i in range(1, count))
    values.append(Fraction(rng.randint(0, int(levels[-1] * value_den)), value_den))
    pieces = tuple((Fraction(0), c) for c in levels)
    return t2.PiecewiseFn(tuple(breaks), tuple(values), pieces)


def banded_pool() -> list[tuple[t2.PiecewiseFn, t2.PiecewiseFn]]:
    fns = t2.generate_lattice_functions(
        t2.GeneratorConfig(seed=BANDED_POOL_SEED), 2 * BANDED_POOL
    )
    return list(zip(fns[::2], fns[1::2]))


class GridOracle:
    """Full-grid convolutions: exact min/max combiners, then banded ones."""

    name = "grid-oracle"

    def __init__(self, seed: int, size: str):
        self.size = size
        self.sizes = SIZES[size][self.name]
        self.grid = t2.GridSpec(self.sizes["resolution"])
        rng = Random(seed)
        fns = [lattice_step(rng) for _ in range(2 * self.sizes["exact_pairs"])]
        # (form, f, g, combiner, inner, digest key or None for exact calls)
        self.calls = []
        for f, g in zip(fns[::2], fns[1::2]):
            self.calls.append(("meet", f, g, "min", "min", None))
            self.calls.append(("join", f, g, "max", "min", None))
        pool = banded_pool()
        for form, combiner, inner in BANDED:
            k = rng.randrange(len(pool))
            f, g = pool[k]
            key = f"{form}:{combiner}:{inner}/{k}"
            self.calls.append((form, f, g, combiner, inner, key))
        self.sizes = dict(self.sizes, banded_calls=len(BANDED), banded_pool=BANDED_POOL)

    def banded_connective(self, name: str, role: str) -> t2.ScalarConnective:
        """The connective a banded call is given; the traced run counts its calls."""
        return t2.connective_by_name(name)

    def run(self, clock=perf_counter) -> Outcome:
        resolved = []
        for form, f, g, combiner, inner, key in self.calls:
            if key is None:
                pair = t2.connective_by_name(combiner), t2.connective_by_name(inner)
            else:
                pair = (
                    self.banded_connective(combiner, "combiner"),
                    self.banded_connective(inner, "inner"),
                )
            resolved.append((form, f, g) + pair)
        latencies, grids = [], []
        start = clock()
        for form, f, g, combiner, inner in resolved:
            conv = t2.convolve_meet if form == "meet" else t2.convolve_join
            begin = clock()
            try:
                result = conv(f, g, inner, combiner, self.grid)
            except Exception:
                _report_exception(f"convolve_{form}")
                result = None
            latencies.append(clock() - begin)
            grids.append(result)
        return Outcome(clock() - start, latencies, grids)

    def check(self, outputs: list, expected: dict) -> tuple[int, int]:
        digests = expected[self.name][self.size]
        pts = self.grid.points()
        failed = 0
        for (form, f, g, _, _, key), result in zip(self.calls, outputs):
            if result is None:
                ok = False
            elif key is None:
                # with inner connective min the convolution is the lattice op
                exact = t2.meet(f, g) if form == "meet" else t2.join(f, g)
                ok = list(result.values) == [t2.evaluate(exact, x) for x in pts]
            else:
                ok = digest(result.to_csv()) == digests[key]
            failed += not ok
        return len(outputs), failed


def fresh_pair(k: int) -> tuple[t2.PiecewiseFn, t2.PiecewiseFn]:
    f, g = t2.generate_lattice_functions(t2.GeneratorConfig(seed=k, **FRESH_CONFIG), 2)
    return f, g


def fresh_row_digest(row: list[str]) -> str:
    return digest("\n".join(row))


class FreshPairs:
    """Distinct long pairs parsed from JSON, run through five ops, dumped."""

    name = "fresh-pairs"

    def __init__(self, seed: int, size: str):
        self.size = size
        self.sizes = dict(SIZES[size][self.name], pool=FRESH_POOL, **FRESH_CONFIG)
        self.indices = Random(seed).sample(range(FRESH_POOL), self.sizes["pairs"])
        self.texts = [tuple(t2.dumps(h) for h in fresh_pair(k)) for k in self.indices]

    def run(self, clock=perf_counter) -> Outcome:
        ops = [getattr(t2, name) for name in FRESH_OPS]
        latencies, rows = [], []
        start = clock()
        for first, second in self.texts:
            try:
                f, g = t2.loads(first), t2.loads(second)
                row = []
                for op in ops:
                    begin = clock()
                    result = op(f, g)
                    latencies.append(clock() - begin)
                    row.append(
                        json.dumps(result) if isinstance(result, bool) else t2.dumps(result)
                    )
            except Exception:
                _report_exception("a fresh pair")
                row = None
            rows.append(row)
        return Outcome(clock() - start, latencies, rows)

    def check(self, outputs: list, expected: dict) -> tuple[int, int]:
        digests = expected[self.name]
        failed = sum(
            len(FRESH_OPS)
            for k, row in zip(self.indices, outputs)
            if row is None or fresh_row_digest(row) != digests[k]
        )
        return len(FRESH_OPS) * len(outputs), failed


WORKLOADS = {w.name: w for w in (TrBattery, GridOracle, FreshPairs)}


def cli_probes(workdir: Path, clock=perf_counter) -> tuple[dict[str, float], int]:
    """Time one cli.main call per command on fixed small inputs.

    Returns the seconds per command and how many exited with a non-zero code.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    f_path, g_path = workdir / "f.json", workdir / "g.json"
    f_path.write_text(t2.dumps(t2.rising_ramp("1/4")), encoding="utf-8")
    g_path.write_text(t2.dumps(t2.indicator("1/5", "3/5")), encoding="utf-8")
    probes = {
        "eval": ["eval", "star", str(f_path), str(g_path)],
        "axioms": ["axioms", "star", "tr-norm", "--trials", "8"],
        "separation": ["separation"],
        "plot": ["plot", str(f_path), str(g_path), "--out", str(workdir / "plot.svg")],
    }
    seconds, failed = {}, 0
    for name, argv in probes.items():
        begin = clock()
        code, _ = _run_cli(argv)
        seconds[name] = clock() - begin
        failed += code != 0
    return seconds, failed
