"""Acceptance suite: one test per criterion, printed pass lines included.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every equality here is exact (canonical forms or rational compares);
the only tolerances are the stated runtime budgets.
"""

import time
from fractions import Fraction
from random import Random

import pytest

import t2algebra as t
from t2algebra.cli import main as cli_main

from oracles import (
    exact_sup,
    oracle_envelope_left,
    oracle_envelope_right,
    probe_points,
    quasiconcave_violation,
)

F = Fraction
HALF = F(1, 2)


def _finish(number, name, started, budget=None):
    elapsed = time.perf_counter() - started
    budget_note = f" (budget {budget:.0f}s)" if budget else ""
    print(f"ACCEPTANCE {number} {name}: PASS in {elapsed:.2f}s{budget_note}")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} overran: {elapsed:.2f}s"


def test_criterion_1_envelope_suite():
    started = time.perf_counter()
    lattice_sample = t.generate_lattice_functions(t.GeneratorConfig(seed=101), 500)
    wild_sample = t.generate_nonlattice_functions(t.GeneratorConfig(seed=102), 100)

    for f in lattice_sample + wild_sample:
        left = t.envelope_left(f)
        right = t.envelope_right(f)
        sup = t.sup_value(f)
        sup_fn = t.constant(sup)

        # f <= fL ^ fR, exact on the whole domain
        assert t.pointwise_leq(f, t.pointwise_min(left, right))
        # envelope idempotence
        assert t.equals(t.envelope_left(left), left)
        assert t.equals(t.envelope_right(right), right)
        # reflection swaps the envelopes
        assert t.equals(t.envelope_left(t.reflect(f)), t.reflect(right))
        assert t.equals(t.envelope_right(t.reflect(f)), t.reflect(left))
        # cross-envelopes collapse to the constant supremum
        assert t.equals(t.envelope_right(left), sup_fn)
        assert t.equals(t.envelope_left(right), sup_fn)
        assert t.equals(t.pointwise_max(left, right), sup_fn)
        # endpoint identities
        assert t.evaluate(left, 1) == sup == t.evaluate(right, 0)

        probes = probe_points(f, left, right, splits=2)
        strict_left = t.envelope_left_strict(f)
        for x in probes:
            # envelopes against the enumeration oracle
            assert t.evaluate(left, x) == oracle_envelope_left(f, x)
            assert t.evaluate(right, x) == oracle_envelope_right(f, x)
            # strict left envelope as sup of the plain one below x
            if x > 0:
                assert t.evaluate(strict_left, x) == exact_sup(
                    left, F(0), x, include_hi=False
                )
        assert t.evaluate(strict_left, 0) == t.evaluate(f, 0)

        # convexity characterization vs the quasiconcavity probe
        violation = quasiconcave_violation(f)
        if t.is_convex(f):
            assert violation is None
        if violation is not None:
            assert not t.is_convex(f)

        if t.is_normal(f):
            assert t.left_threshold(f) <= t.right_threshold(f)

    for f in lattice_sample:
        assert t.is_normal(f) and t.is_convex(f)
    for f in wild_sample:
        assert not t.in_lattice(f)

    # order characterizations on consecutive pairs from both samples
    mixed = lattice_sample[:100] + wild_sample
    for f, g in zip(mixed[::2], mixed[1::2]):
        meet_below = t.equals(t.meet(f, g), f)
        envelope_check = t.pointwise_leq(
            t.pointwise_min(t.envelope_right(f), g), f
        ) and t.pointwise_leq(f, t.envelope_right(g))
        assert meet_below == envelope_check
        join_below = t.equals(t.join(f, g), g)
        envelope_check_join = t.pointwise_leq(
            t.pointwise_min(f, t.envelope_left(g)), g
        ) and t.pointwise_leq(g, t.envelope_left(f))
        assert join_below == envelope_check_join

    _finish(1, "envelope suite", started, budget=5)


def test_criterion_2_star_is_tr_norm():
    started = time.perf_counter()
    reports = t.check_tr_axioms(
        t.STAR,
        "tr-norm",
        t.GeneratorConfig(seed=201),
        pairs=200,
        triples=100,
        neutral_trials=100,
        monotone_trials=100,
        closure_denominator=16,
    )
    assert [r.axiom for r in reports] == ["O1", "O2", "O3", "O4", "O5", "O6", "O7"]
    failures = [r for r in reports if not r.passed]
    assert not failures, failures
    _finish(2, "threshold product is a tr-norm", started, budget=10)


def test_criterion_3_costar_is_tr_conorm():
    started = time.perf_counter()
    reports = t.check_tr_axioms(
        t.COSTAR,
        "tr-conorm",
        t.GeneratorConfig(seed=301),
        pairs=200,
        triples=100,
        neutral_trials=100,
        monotone_trials=100,
        closure_denominator=16,
    )
    assert [r.axiom for r in reports] == ["O1", "O2", "O3'", "O4", "O5'", "O6", "O7"]
    failures = [r for r in reports if not r.passed]
    assert not failures, failures

    double = t.dualize(t.dualize(t.STAR))
    fns = t.generate_lattice_functions(t.GeneratorConfig(seed=302), 200)
    for f, g in zip(fns[::2], fns[1::2]):
        assert t.equals(double(f, g), t.star(f, g))
    _finish(3, "dual product is a tr-conorm", started, budget=10)


def test_criterion_4_separation_from_convolutions():
    started = time.perf_counter()
    plateau = t.separation_fixture()
    spike = t.unit_spike(F(4, 5))
    exact = t.evaluate(t.star(plateau, spike), F(4, 5))
    assert exact == 0

    grid = t.GridSpec(200)
    assert grid.index_of(F(4, 5)) == 160
    for conn in (t.MINIMUM, t.PRODUCT, t.LUKASIEWICZ):
        bound = t.convolve_meet_at(plateau, spike, conn, t.MINIMUM, grid, F(4, 5))
        assert bound is not None
        assert bound >= HALF
        assert exact < bound

    report = t.replicate_separation([t.MINIMUM, t.PRODUCT, t.LUKASIEWICZ], grid)
    assert report.passed
    _finish(4, "product is not a meet-form convolution", started, budget=5)


def test_criterion_5_convolutions_fail_neutrality():
    started = time.perf_counter()
    grid = t.GridSpec(64)
    descent = t.falling_ramp(0)

    got = t.convolve_join_at(descent, t.TOP, t.MINIMUM, t.MAXIMUM, grid, HALF)
    assert got == 0
    assert t.evaluate(descent, HALF) == HALF
    assert got != t.evaluate(descent, HALF)

    half_spike = t.unit_spike(HALF)
    conv = t.convolve_meet(half_spike, t.BOTTOM, t.MINIMUM, t.MINIMUM, grid)
    pts = grid.points()
    assert [t.evaluate(t.BOTTOM, x) for x in pts] == list(conv.values)
    assert [t.evaluate(half_spike, x) for x in pts] != list(conv.values)

    report = t.replicate_notnorm_conorm_gap(
        t.MAXIMUM, [t.MINIMUM, t.PRODUCT, t.LUKASIEWICZ], grid
    )
    assert report.passed
    _finish(5, "unit spikes are not convolution neutrals", started)


def _random_step_function(rng, position_den=16, value_den=64):
    ks = sorted(rng.sample(range(1, position_den), rng.randint(0, 5)))
    breaks = [F(0)] + [F(k, position_den) for k in ks] + [F(1)]
    values = tuple(F(rng.randint(0, value_den), value_den) for _ in breaks)
    pieces = tuple(
        (F(0), F(rng.randint(0, value_den), value_den)) for _ in breaks[:-1]
    )
    return t.PiecewiseFn(tuple(breaks), values, pieces)


def test_criterion_6_grid_oracle_matches_exact_ops():
    started = time.perf_counter()
    rng = Random(601)
    grid = t.GridSpec(64)
    pts = grid.points()
    for _ in range(50):
        f = _random_step_function(rng)
        g = _random_step_function(rng)
        exact_meet = t.meet(f, g)
        conv_meet = t.convolve_meet(f, g, t.MINIMUM, t.MINIMUM, grid)
        assert [t.evaluate(exact_meet, x) for x in pts] == list(conv_meet.values)
        exact_join = t.join(f, g)
        conv_join = t.convolve_join(f, g, t.MINIMUM, t.MAXIMUM, grid)
        assert [t.evaluate(exact_join, x) for x in pts] == list(conv_join.values)
    _finish(6, "grid oracle equals closed-form meet/join", started, budget=10)


def test_criterion_7_forced_inner_connective_properties():
    started = time.perf_counter()
    grid = t.GridSpec(64)

    assert t.verify_star_forced_properties(t.MINIMUM, grid).passed

    projection_report = t.verify_star_forced_properties(t.PROJECTION, grid)
    assert not projection_report.passed
    assert projection_report.witness["check"] == "commutativity"
    assert list(projection_report.witness) == ["check", "u", "v", "lhs", "rhs", "fixtures"]
    assert (projection_report.witness["u"], projection_report.witness["v"]) == (
        "1/5",
        "4/5",
    )
    assert (projection_report.witness["lhs"], projection_report.witness["rhs"]) == (
        "1/5",
        "4/5",
    )

    max_report = t.verify_star_forced_properties(t.MAXIMUM, grid)
    assert not max_report.passed
    assert max_report.witness["check"] == "boundary"
    assert list(max_report.witness) == ["check", "x", "y", "lhs", "rhs", "fixtures"]
    assert (max_report.witness["x"], max_report.witness["y"]) == ("0", "1")

    # endpoint identities of the convolution forms, all built-ins, 20 pairs
    fns = t.generate_lattice_functions(t.GeneratorConfig(seed=701), 40)
    for f, g in zip(fns[::2], fns[1::2]):
        f1, g1 = t.evaluate(f, 1), t.evaluate(g, 1)
        f0, g0 = t.evaluate(f, 0), t.evaluate(g, 0)
        for conn in t.builtin_connectives():
            assert (
                t.convolve_meet_at(f, g, conn, t.MINIMUM, grid, 1) == conn(f1, g1)
            )
            assert (
                t.convolve_join_at(f, g, conn, t.MAXIMUM, grid, 0) == conn(f0, g0)
            )
    _finish(7, "forced properties of the inner connective", started)


def test_criterion_8_closed_form_envelopes_of_the_product():
    started = time.perf_counter()
    fns = t.generate_lattice_functions(t.GeneratorConfig(seed=801), 400)
    pairs = [
        (f, g)
        for f, g in zip(fns[::2], fns[1::2])
        if not (t.equals(f, t.TOP) or t.equals(g, t.TOP))
    ]
    assert len(pairs) >= 190
    for f, g in pairs[:200]:
        left, right = t.star_envelopes(f, g)
        out = t.star(f, g)
        assert t.equals(left, t.envelope_left(out))
        assert t.equals(right, t.envelope_right(out))
    _finish(8, "closed-form envelopes match recomputation", started)


def test_criterion_9_cli_contract(tmp_path, capsys):
    started = time.perf_counter()
    full = tmp_path / "full.json"
    band = tmp_path / "band.json"
    full.write_text(t.dumps(t.indicator(0, 1)))
    band.write_text(t.dumps(t.indicator(F(1, 5), F(3, 5))))

    def run(argv):
        code = cli_main(argv)
        out = capsys.readouterr().out
        return code, out

    # byte-stable outputs for all four commands
    eval_argv = ["eval", "star", str(full), str(band), "--samples", "11"]
    assert run(eval_argv) == run(eval_argv)
    ax_argv = ["axioms", "star", "tr-norm", "--seed", "7", "--trials", "25"]
    assert run(ax_argv) == run(ax_argv)
    sep_argv = ["separation", "--grid", "50"]
    assert run(sep_argv) == run(sep_argv)
    plot_a, plot_b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run(["plot", str(full), str(band), "--out", str(plot_a)])[0] == 0
    assert run(["plot", str(full), str(band), "--out", str(plot_b)])[0] == 0
    assert plot_a.read_bytes() == plot_b.read_bytes()

    # JSON -> compute -> JSON preserves canonical forms
    result_json = tmp_path / "result.json"
    code, _ = run(
        ["eval", "star", str(full), str(band), "--json-out", str(result_json)]
    )
    assert code == 0
    computed = t.loads(result_json.read_text())
    assert computed == t.indicator(0, F(3, 5))
    reread = tmp_path / "reread.json"
    code, _ = run(["eval", "env-left", str(result_json), "--json-out", str(reread)])
    assert code == 0
    assert t.loads(reread.read_text()) == t.envelope_left(computed)

    # exit codes are a stable contract
    assert cli_main(["eval", "nonsense-op", str(full)]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert cli_main(["eval", "neg", str(bad)]) == 3
    capsys.readouterr()
    assert cli_main(["plot", str(full), "--out", "/nonexistent/x.svg"]) == 4
    capsys.readouterr()
    assert (
        cli_main(["axioms", "conv-join:max:min", "tr-norm", "--trials", "10"]) == 1
    )
    capsys.readouterr()
    _finish(9, "CLI contract", started)
