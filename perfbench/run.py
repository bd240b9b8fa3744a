#!/usr/bin/env python3
"""Benchmark of the apsn package: census throughput, dynamics latency and,
in a traced run, per-layer figures.

    python3 perfbench/run.py --workload census-distance --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the workload runs untraced for at least ``--seconds``
seconds (whole passes, and at least the workload's minimum operation count)
and the last line of standard output is one JSON object with the end-to-end
metrics.  With ``--trace 1`` the workload runs a fixed amount of work twice,
untraced and then traced, and the JSON object carries the per-layer metrics
and the tracing overhead.  Every operation's output is checked after it is
timed.  Run it from the repository root; it imports apsn from ``src/`` of
the checkout it sits in, and writes only under ``.perfbench/`` there.
See ``perfbench/README.md`` for the metrics and workloads.
"""
from __future__ import annotations

import os

# Pin BLAS threads before anything imports numpy, so one process never uses
# more than one core; worker and set-up processes inherit the setting.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from refclock import RefClock  # noqa: E402
from workloads import ROOT, WORKLOADS  # noqa: E402

OUT_DIR = ROOT / ".perfbench"
#: set-ups repeated in fresh interpreters after the run; setup_s is the
#: median of these and the run's own set-up
SETUP_REPEATS = 6
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
    "print(workloads.timed_setup(sys.argv[2], int(sys.argv[3]), None)[2])"
)


@dataclass
class Record:
    op: workloads.Op
    out: object  # the op's output, or a Failure
    start: float  # perf_counter readings around the call
    end: float
    seconds: float = 0.0  # reference seconds (see refclock)

    @property
    def wall(self) -> float:
        return self.end - self.start


@dataclass
class Failure:
    text: str


def run_phase(workload, state, workdir: Path, min_ops: int, seconds: float | None, tracer=None) -> list:
    """Run whole passes until ``min_ops`` operations are done and, when
    ``seconds`` is given, that many wall seconds have passed."""
    records: list[Record] = []
    with RefClock(workdir) as clock:
        begin = time.perf_counter()
        for ops in workload.passes(state):
            for op in ops:
                scope = tracer.op(op.label) if tracer else nullcontext()
                t0 = time.perf_counter()
                try:
                    with scope:
                        out = op.call()
                except Exception:  # a failed operation is counted, and the run goes on
                    out = Failure(traceback.format_exc())
                records.append(Record(op, out, t0, time.perf_counter()))
            if len(records) >= min_ops and (seconds is None or time.perf_counter() - begin >= seconds):
                break
        for record in records:
            record.seconds = clock.seconds(record.start, record.end)
    return records


def check(records: list) -> tuple[int, list]:
    """Number of failed operations, and the first messages of each."""
    failed, messages = 0, []
    for record in records:
        if isinstance(record.out, Failure):
            found = [record.out.text]
        else:
            try:
                found = record.op.check(record.out)
            except Exception:  # a check that crashes fails its operation
                found = [traceback.format_exc()]
        if found:
            failed += 1
            messages += [f"{record.op.label}: {m}" for m in found[:3]]
    return failed, messages


def fresh_setups(name: str, seed: int) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(HERE), name, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def latency_ms(records: list) -> dict:
    """Median, 90th and 95th percentile (inclusive method) of the
    operations' reference milliseconds."""
    ms = [r.seconds * 1e3 for r in records]
    cuts = statistics.quantiles(ms, n=20, method="inclusive")
    return {"p50": statistics.median(ms), "p90": cuts[17], "p95": cuts[18]}


def family_rows(records: list) -> list:
    rows = {}
    for r in records:
        key = r.op.family or "start"
        row = rows.setdefault(key, {"family": key, "calls": 0, "work": 0, "seconds": 0.0, "wall": 0.0})
        row["calls"] += 1
        row["work"] += r.op.work
        row["seconds"] += r.seconds
        row["wall"] += r.wall
    for key, row in rows.items():
        if key == "start":
            row["starts_per_s"] = row["work"] / row["seconds"]
            row.update({f"start_ms.{k}": v for k, v in latency_ms(records).items()})
            row["wall_starts_per_s"] = row["work"] / row["wall"]
        else:
            row["n"] = workloads.FAMILIES[key][0]
            row["graphs_per_s"] = row["work"] / row["seconds"]
            row["wall_graphs_per_s"] = row["work"] / row["wall"]
    return list(rows.values())


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    """HEAD of the repository the benchmark sits in, read from ``.git``
    without running git; None in an export with no ``.git``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
    }


def untraced(workload, state, workdir: Path, args, setup_s: float) -> tuple[dict, list, list]:
    records = run_phase(workload, state, workdir, workload.min_ops, args.seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # largest worker process (census-parallel); read before the set-up
    # repeats below start processes of their own
    peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setups = [setup_s] + fresh_setups(workload.name, args.seed)
    latency = latency_ms(records)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "work_per_s": (sum(r.op.work for r in records) / sum(r.seconds for r in records), "1/s"),
        "op_ms.p50": (latency["p50"], "ms"),
        "op_ms.p90": (latency["p90"], "ms"),
    }
    return metrics, records, family_rows(records)


def traced(workload, state, workdir: Path) -> tuple[dict, list, list, list]:
    from tracer import Tracer

    plain = run_phase(workload, state, workdir, workload.min_ops, None)
    with Tracer(workdir) as tracer:
        traced_records = run_phase(workload, state, workdir, workload.min_ops, None, tracer)
    tracer.merge_workers()
    plain_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in traced_records)
    metrics = tracer.metrics()
    metrics.update(workloads.layer_stats([r.out for r in plain]))
    metrics["trace.overhead"] = ((traced_s / plain_s - 1) * 100, "%")
    rows = family_rows(plain)
    for row in rows:
        if row["family"] in tracer.kinds:
            kernel_s = tracer.kinds[row["family"]][1]
            census_s = sum(r.wall for r in traced_records if r.op.family == row["family"])
            row["kernel_share"] = kernel_s / census_s
    return metrics, plain + traced_records, rows, tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    workloads.require_src()  # exit before writing anything

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        state, _, setup_s = workloads.timed_setup(args.workload, args.seed, workdir)
        spans: list = []
        if args.trace:
            metrics, records, rows, spans = traced(workload, state, workdir)
        else:
            metrics, records, rows = untraced(workload, state, workdir, args, setup_s)
        failed, messages = check(records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "families": rows,
        "failures": messages,
        "result": result,
        "ops": [[r.op.label, r.start, r.wall, r.seconds] for r in records],
        "spans": spans,
    }
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    with open(results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env))
    for row in rows:
        print("family " + json.dumps(row))
    for message in messages:
        print("FAILED " + message.rstrip().replace("\n", " | "))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
