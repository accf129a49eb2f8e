"""Self-test of the benchmark at tiny sizes (about half a minute):

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import t2algebra as t2  # noqa: E402
import workloads as w  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(w.WORKLOADS))
def test_run_prints_every_metric_with_its_unit(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _corrupt_tr_battery(outputs):
    texts, products = outputs
    texts[0] = (0, texts[0][1].replace("pass", "FAIL", 1))
    products[0] = t2.FULL


def _corrupt_grid_oracle(outputs):
    for i in (0, -1):  # one exact-path grid, one banded grid
        grid = outputs[i]
        outputs[i] = t2.GridFn(grid.resolution, (t2.ONE,) + grid.values[1:])


def _corrupt_fresh_pairs(outputs):
    outputs[0][0] = t2.dumps(t2.FULL)


@pytest.mark.parametrize(
    "workload, corrupt, failures",
    [
        ("tr-battery", _corrupt_tr_battery, 2),
        ("grid-oracle", _corrupt_grid_oracle, 2),
        ("fresh-pairs", _corrupt_fresh_pairs, len(w.FRESH_OPS)),
    ],
)
def test_a_wrong_output_counts_as_failed(workload, corrupt, failures):
    job = w.WORKLOADS[workload](5, "tiny")
    outputs = job.run().outputs
    expected = w.load_expected()
    attempted, failed = job.check(outputs, expected)
    assert failed == 0 and attempted >= failures
    corrupt(outputs)
    assert job.check(outputs, expected) == (attempted, failures)


def test_exact_path_inputs_are_lattice_functions():
    rng = Random(0)
    assert all(t2.in_lattice(w.lattice_step(rng)) for _ in range(500))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    done = _run(tmp_path, "grid-oracle", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
