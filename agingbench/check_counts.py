#!/usr/bin/env python3
"""Exact-count test: every per-layer count repeats across runs of one seed.

Runs the traced run of each workload twice with the same seed and asserts
that every per-layer metric whose unit is ``count`` is identical, so a later
change can rest a claim on a count.  Usage, from the repository root::

    python3 agingbench/check_counts.py [--seed 7] [--seconds 12] [workload ...]

Exits 0 when every count repeats, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent


def traced_counts(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=REPO_ROOT, capture_output=True, text=True, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload}: traced run failed\n{completed.stderr}")
    metrics = json.loads(completed.stdout.strip().splitlines()[-1])["metrics"]
    return {name: entry["value"] for name, entry in metrics.items() if entry["unit"] == "count"}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args(argv)
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [workload["name"] for workload in spec["workloads"]]
    differing = 0
    for workload in workloads:
        first = traced_counts(workload, args.seed, args.seconds)
        second = traced_counts(workload, args.seed, args.seconds)
        for name in sorted(first):
            same = first[name] == second[name]
            differing += not same
            print(f"{workload:12s} {name:28s} {first[name]:>12} {second[name]:>12} {'ok' if same else 'DIFFERS'}")
    print("every count repeats exactly" if not differing else f"{differing} counts differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
