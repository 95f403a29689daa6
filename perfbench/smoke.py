"""Smoke test of the benchmark: tiny inputs for every workload, untraced and
traced.  Asserts that every metric named in BENCHMARK.json is printed with
its unit and that nothing fails.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import gen
import run

TINY = {
    "CARD_FILES": (("card-oe4", "oe4", ((24, "<=", 3), (16, ">=", 13)), 8, 12),
                   ("card-oe2", "oe2", ((20, "=", 4),), 8, 12)),
    "QUEENS_N": 6,
    "PB_FILES": (("pb-small", 12, 10 ** 3, ">="), ("pb-large", 10, 10 ** 6, "<=")),
    "OPT_INSTANCES": ((5, 10, 10, "bin", True), (6, 10, 100, "seq", False)),
}


def main() -> int:
    for name, value in TINY.items():
        setattr(gen, name, value)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                          "--trace", str(trace)])
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            where = f"{workload} --trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']}/{result['attempted']}")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != wanted:
                problems.append(f"{where}: metrics {printed} != {wanted}")
            print(f"{where}: {result['attempted']} operations, {result['failed']} failed")
    for problem in problems:
        print("FAIL", problem)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
