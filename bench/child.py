"""One benchmark process: set up a workload, run its job once, check it.

run.py starts this in a fresh interpreter per measurement and reads the
JSON object it prints as its last line. Modes:

  setup   build the inputs and stop (a set-up time sample)
  job     set up, run the job untraced, check the outputs
  traced  the same with the tracer installed around the job; also writes
          the aggregated spans to --out
  cli     time the four CLI probes
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--mode", choices=("setup", "job", "traced", "cli"), required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    import workloads
    from refclock import ReferenceClock

    if args.mode == "cli":
        clock = ReferenceClock()
        with clock.sampling():
            seconds, failed = workloads.cli_probes(args.out / "cli", clock)
        print(json.dumps({"cli_s": seconds, "attempted": len(seconds), "failed": failed}))
        return

    workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
    workloads.clear_memos()
    setup_raw_s = time.monotonic() - args.launched
    # calibrated right after set-up, before the first timed call
    clock = ReferenceClock()
    setup_s = setup_raw_s * clock.factor
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer(clock)
        if hasattr(workload, "banded_connective"):
            workload.banded_connective = lambda name, role: tracer.counting_connective(
                workloads.t2.connective_by_name(name), role
            )
        before = tracer.memo_counts()
        tracer.install()
    raw_start = time.perf_counter()
    with clock.sampling():
        outcome = workload.run(clock)
    raw_s = time.perf_counter() - raw_start
    peak_rss_mb = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
        after = tracer.memo_counts()
    attempted, failed = workload.check(outcome.outputs, workloads.load_expected())
    result = {
        "setup_s": setup_s,
        "wall_s": outcome.wall_s,
        "raw_s": raw_s,
        "kernel_s": clock.samples,
        "latencies": outcome.latencies,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "sizes": workload.sizes,
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics(before, after)
        spans = tracer.spans(before, after)
        spans.update(workload=args.workload, seed=args.seed, wall_s=outcome.wall_s)
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(spans, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
