"""Record the correct outputs the benchmark checks against, in expected.json.

Run from the repository root, on a commit whose outputs are trusted (the
tier-1 suite passes its functional checks there):

    PYTHONPATH=src python3 bench/record.py

Takes about 80 s on one core. Outputs are exact rationals, so a
correct optimisation reproduces every digest.
"""

from __future__ import annotations

import json
import sys

import t2algebra as t2
import workloads as w


def battery_tables(size: str) -> list[str]:
    tables = []
    for argv in w.TrBattery(0, size).commands:
        code, text = w._run_cli(argv)
        if code != 0:
            sys.exit(f"record: {' '.join(argv)} exited with {code}")
        tables.append(text)
    return tables


def banded_digests(size: str) -> dict[str, str]:
    grid = t2.GridSpec(w.SIZES[size]["grid-oracle"]["resolution"])
    digests = {}
    for form, combiner, inner in w.BANDED:
        conv = t2.convolve_meet if form == "meet" else t2.convolve_join
        for k, (f, g) in enumerate(w.banded_pool()):
            result = conv(f, g, t2.connective_by_name(inner), t2.connective_by_name(combiner), grid)
            digests[f"{form}:{combiner}:{inner}/{k}"] = w.digest(result.to_csv())
    return digests


def fresh_digests() -> list[str]:
    workload = w.FreshPairs(0, "tiny")
    workload.indices = list(range(w.FRESH_POOL))
    workload.texts = [tuple(t2.dumps(h) for h in w.fresh_pair(k)) for k in workload.indices]
    rows = workload.run().outputs
    if any(row is None for row in rows):
        sys.exit("record: a fresh pair raised")
    return [w.fresh_row_digest(row) for row in rows]


def main() -> None:
    expected = {
        "tr-battery": {size: battery_tables(size) for size in w.SIZES},
        "grid-oracle": {size: banded_digests(size) for size in w.SIZES},
        "fresh-pairs": fresh_digests(),
    }
    with open(w.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=0)
        handle.write("\n")


if __name__ == "__main__":
    main()
