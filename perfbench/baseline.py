#!/usr/bin/env python3
"""Rebuild the ROADMAP baseline table from the benchmark's own output.

    python3 perfbench/baseline.py --seed 1

Runs ``run.py --trace 1`` for census-distance and census-walk, reads the
``family`` lines it prints (graphs/s from the untraced pass, kernel share
from the traced pass) and prints a markdown table next to the single-run
figures recorded in ROADMAP.md.  Those were wall-clock figures, so the
comparison uses wall-clock graphs/s; the reference-second figure is shown
beside it.  A row whose graphs/s or kernel share differs from the recorded
one by more than 2x is marked.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: family -> (graphs/s, share of census time in the vector kernel) as
#: ROADMAP.md records them
RECORDED = {
    "degree": (17_100, 0.17),
    "closeness": (8_400, 0.36),
    "decay": (4_100, 0.68),
    "betweenness": (4_500, 0.42),
    "gametheoretic": (7_600, 0.52),
    "rwcloseness": (590, 1.00),
    "rwbetweenness": (285, 0.90),
    "eigenvector": (2_600, 0.95),
    "pagerank": (1_800, 0.95),
}


def family_rows(workload: str, seed: int) -> list:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: checks failed\n{done.stdout}")
    return [json.loads(line[len("family "):]) for line in done.stdout.splitlines() if line.startswith("family ")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    print("| measure | n | graphs/s (wall) | recorded | graphs/s (reference) | kernel share | recorded | over 2x |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for workload in ("census-distance", "census-walk"):
        for row in family_rows(workload, args.seed):
            rate, share = row["wall_graphs_per_s"], row["kernel_share"]
            was_rate, was_share = RECORDED[row["family"]]
            off = max(rate / was_rate, was_rate / rate, share / was_share, was_share / share) > 2
            print(
                f"| {row['family']} | {row['n']} | {rate:,.0f} | {was_rate:,} | "
                f"{row['graphs_per_s']:,.0f} | {share:.0%} | {was_share:.0%} | {'yes' if off else 'no'} |"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
