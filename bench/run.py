"""The t2algebra benchmark. Run from the repository root:

    python3 bench/run.py --workload tr-battery --seed 1 --seconds 30 --trace 0

Each measurement runs in a fresh single-threaded interpreter (child.py),
one caller in a closed loop. With --trace 0 the run repeats the workload's
job for --seconds (at least twice) and reports the end-to-end metrics; with
--trace 1 it runs the job once untraced and once traced and reports the
per-layer metrics. The last line of standard output is the result as JSON.
See bench/NOTES.md for what each metric means and what is not measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("tr-battery", "grid-oracle", "fresh-pairs")
HELD_OUT_SEED = 7321  # later claims must also hold on this seed
MIN_ROUNDS = 2
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170  # the whole run, including set-up probes

BENCH_DIR = Path(__file__).resolve().parent


class BenchError(Exception):
    pass


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "t2algebra").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


class Runner:
    def __init__(self, root: Path, args):
        self.root = root
        self.args = args
        self.started = time.monotonic()
        self.out = BENCH_DIR / "out"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def child(self, mode: str) -> dict:
        remaining = TIME_LIMIT_S - self.elapsed()
        if remaining <= 0:
            raise BenchError(f"time limit of {TIME_LIMIT_S} s reached")
        launched = time.monotonic()
        argv = [
            sys.executable,
            str(BENCH_DIR / "child.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--size", self.args.size,
            "--mode", mode,
            "--launched", repr(launched),
            "--out", str(self.out),
        ]
        try:
            done = subprocess.run(
                argv, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} process exceeded the time limit") from None
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise BenchError(f"{mode} process exited with code {done.returncode}")
        return json.loads(lines[-1])

    def setup_samples(self, rounds: list[dict]) -> list[float]:
        samples = [r["setup_s"] for r in rounds]
        while len(samples) < SETUP_SAMPLES:
            samples.append(self.child("setup")["setup_s"])
        return samples


def _tail(latencies: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(latencies)
    if n <= 10:
        return f"no percentile has 10 samples beyond it (n={n})"
    value = sorted(latencies)[n - 11]
    return f"p{100 * (n - 10) / n:.4g} {value * 1e6:.1f} us (n={n}, 10 beyond)"


def end_to_end(runner: Runner) -> tuple[dict, list[dict], list[str]]:
    rounds = []
    while len(rounds) < MIN_ROUNDS or (
        runner.elapsed() + max(r["round_s"] for r in rounds) <= runner.args.seconds
    ):
        begin = time.monotonic()
        result = runner.child("job")
        result["round_s"] = time.monotonic() - begin
        rounds.append(result)
    setups = runner.setup_samples(rounds)
    latencies = [x for r in rounds for x in r["latencies"]]
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "op_p50_us": (statistics.median(latencies) * 1e6, "us"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    notes = [
        f"rounds {len(rounds)}: wall_s " + " ".join(f"{r['wall_s']:.4f}" for r in rounds),
        "  raw seconds per job run " + " ".join(f"{r['raw_s']:.4f}" for r in rounds),
        "  kernel ms per round (median) "
        + " ".join(f"{statistics.median(r['kernel_s']) * 1e3:.3f}" for r in rounds),
        "setup_s samples " + " ".join(f"{s:.4f}" for s in setups),
        f"op tail (not gated): {_tail(latencies)}",
    ]
    return metrics, rounds, notes


def per_layer(runner: Runner) -> tuple[dict, list[dict], list[str]]:
    plain = runner.child("job")
    probes = runner.child("cli")
    traced = runner.child("traced")
    metrics = {name: tuple(value) for name, value in traced["per_layer"].items()}
    for name, seconds in probes["cli_s"].items():
        metrics[f"cli.{name}_s"] = (seconds, "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    notes = [
        f"untraced wall_s {plain['wall_s']:.4f}, traced wall_s {traced['wall_s']:.4f}",
        f"spans written to {runner.out.relative_to(runner.root)}"
        f"/spans-{runner.args.workload}-seed{runner.args.seed}.json",
    ]
    probe_check = {"attempted": probes["attempted"], "failed": probes["failed"]}
    return metrics, [plain, traced, probe_check], notes


def parse_args(argv: list[str] | None = None):
    parser = argparse.ArgumentParser(description="t2algebra benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny is for the benchmark's self-test",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "t2algebra" / "__init__.py").is_file():
        print("bench: run from the repository root; src/t2algebra not found", file=sys.stderr)
        return 2
    runner = Runner(root, args)
    try:
        metrics, checked, notes = (per_layer if args.trace else end_to_end)(runner)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "size": args.size,
        "sizes": checked[0]["sizes"],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": _git_sha(root),
        "src_sha256": _source_digest(root),
    }
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_frac {failed / attempted:.6g} ({failed}/{attempted} failed)")
    print("meta " + json.dumps(meta))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    runner.out.mkdir(parents=True, exist_ok=True)
    record = runner.out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(dict(result, meta=meta), indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
