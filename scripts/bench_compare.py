#!/usr/bin/env python3
"""Benchmark two checkouts in alternating pairs and write BENCH_<label>.json.

    python3 scripts/bench_compare.py --base ../apsn-parent --label spectral_kernels

First every workload in BENCHMARK.json runs traced (``--trace 1``) with
seeds 1, 2 and 3 on both sides.  Then, for every workload, each of ten pairs
runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in the base checkout and once in this one, with seed S = pair number
and T = BENCHMARK.json's run_seconds, and alternates which side runs first.
The JSON file at this repository's root holds every run's end-to-end metrics
and, per workload and metric, each side's median and quartiles and the
number of pairs this checkout won, and whether each traced run was correct.

A traced run that exits 0 is recorded with the wall milliseconds of its
untraced and traced phases, read from the ``ops`` of the results file it
left in that checkout's ``.perfbench/results/``, and each workload records
its shortest phase per side: ``RefClock`` cannot time a phase that ends
before its first probe.  A traced run that exits non-zero is recorded with
its exit code and the tail of its stderr, and the comparison goes on; the
script still writes the JSON file and then exits non-zero.  An untraced
run that exits non-zero stops the comparison: its workload, seed, side and
the tail of its stderr go to stderr and the script exits non-zero.
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
#: seeds of the traced runs made on each side before the pairs
TRACED_SEEDS = (1, 2, 3)
#: stderr lines of a failed run worth showing
STDERR_TAIL = 20


def run_once(
    checkout: Path, workload: str, seed: int, seconds: float, side: str, trace: int = 0
) -> dict:
    """One run's correctness and end-to-end metrics.  A failed run exits
    this script unless it was traced; a failed traced run is returned as
    ``{"exit": code, "stderr_tail": text}``."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if out.returncode:
        tail = "\n".join(out.stderr.splitlines()[-STDERR_TAIL:])
        message = (
            f"{workload} seed {seed}{' traced' if trace else ''} on {side} ({checkout}) "
            f"exited {out.returncode}; stderr ends:\n{tail}"
        )
        if not trace:
            sys.exit(message)
        print(message, file=sys.stderr)
        return {"exit": out.returncode, "stderr_tail": tail}
    result = json.loads(out.stdout.strip().splitlines()[-1])
    run = {
        "exit": 0,
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }
    if trace:
        run["phase_ms"] = phase_ms(checkout, workload, seed)
    return run


def phase_ms(checkout: Path, workload: str, seed: int) -> dict:
    """Wall ms of a traced run's untraced and traced phases, each from its
    first operation's start to its last one's end.  Its results file lists
    the operations of both phases in turn, and the two run the same ones,
    so each is one half of the list."""
    path = checkout / ".perfbench" / "results" / f"{workload}-seed{seed}-trace1.json"
    ops = json.loads(path.read_text())["ops"]  # [label, start, wall, seconds]
    half = len(ops) // 2

    def span(phase: list) -> float:
        return (phase[-1][1] + phase[-1][2] - phase[0][1]) * 1000

    return {"untraced": span(ops[:half]), "traced": span(ops[half:])}


def shortest_phase_ms(traced: list[dict]) -> dict:
    """Per side, the shortest phase of its traced runs that exited 0 (None
    when none did)."""
    return {
        side: min(
            (ms for t in traced if t["side"] == side and not t["exit"] for ms in t["phase_ms"].values()),
            default=None,
        )
        for side in ("base", "head")
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path, help="checkout to compare against")
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)

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
    names = [w["name"] for w in bench["workloads"]]
    traced = {name: [] for name in names}
    for workload in names:
        for seed in TRACED_SEEDS:
            for side, checkout in (("base", args.base), ("head", HEAD)):
                run = run_once(checkout, workload, seed, seconds, side, trace=1)
                run.pop("metrics", None)
                traced[workload].append({"seed": seed, "side": side, **run})
    for workload in names:
        runs = []
        for seed in range(1, PAIRS + 1):
            sides = ["base", "head"] if seed % 2 else ["head", "base"]
            run = {"seed": seed, "first": sides[0]}
            for side in sides:
                checkout = args.base if side == "base" else HEAD
                run[side] = run_once(checkout, workload, seed, seconds, side)
            runs.append(run)
            print(workload, json.dumps(run), file=sys.stderr)
        report["workloads"][workload] = {
            "correct": all(r[s]["correct"] for r in runs for s in ("base", "head")),
            "failed": {s: sum(r[s]["failed"] for r in runs) for s in ("base", "head")},
            "metrics": {spec["name"]: compare(runs, spec) for spec in bench["end_to_end"]},
            "runs": runs,
            "traced": traced[workload],
            "shortest_phase_ms": shortest_phase_ms(traced[workload]),
        }
    out = HEAD / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(out)
    failed = [
        f"{workload} seed {t['seed']} on {t['side']} exited {t['exit']}"
        for workload, runs in traced.items()
        for t in runs
        if t["exit"]
    ]
    if failed:
        print("failed traced runs: " + "; ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
