#!/usr/bin/env python3
"""Benchmark two checkouts in alternating pairs and write BENCH_<label>.json.

    python3 scripts/bench_compare.py --base ../apsn-parent --label spectral_kernels

For every workload in BENCHMARK.json, each of ten pairs runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in the base checkout and once in this one, with seed S = pair number
and T = BENCHMARK.json's run_seconds, and alternates which side runs first.
The JSON file at this repository's root holds every run's end-to-end metrics
and, per workload and metric, each side's median and quartiles and the
number of pairs this checkout won.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent
PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(runs: list[dict], spec: dict) -> dict:
    name = spec["name"]
    base = [r["base"]["metrics"][name] for r in runs]
    head = [r["head"]["metrics"][name] for r in runs]
    sign = 1 if spec["better"] == "higher" else -1
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "base": summary(base),
        "head": summary(head),
        "head_over_base": statistics.median(head) / statistics.median(base),
        "head_wins": sum(sign * (h - b) > 0 for b, h in zip(base, head)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path, help="checkout to compare against")
    parser.add_argument("--label", required=True)
    args = parser.parse_args()

    bench = json.loads((HEAD / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    report = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "pairs": PAIRS,
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(1, PAIRS + 1):
            sides = ["base", "head"] if seed % 2 else ["head", "base"]
            run = {"seed": seed, "first": sides[0]}
            for side in sides:
                checkout = args.base if side == "base" else HEAD
                run[side] = run_once(checkout, workload, seed, seconds)
            runs.append(run)
            print(workload, json.dumps(run), file=sys.stderr)
        report["workloads"][workload] = {
            "correct": all(r[s]["correct"] for r in runs for s in ("base", "head")),
            "failed": {s: sum(r[s]["failed"] for r in runs) for s in ("base", "head")},
            "metrics": {spec["name"]: compare(runs, spec) for spec in bench["end_to_end"]},
            "runs": runs,
        }
    out = HEAD / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
