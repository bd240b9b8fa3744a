"""Reference clock: wall time rescaled by the speed of a fixed probe loop.

On a shared host a vCPU's speed drifts by a quarter or more over a few
seconds as other tenants load the machine, so raw wall times of identical
runs spread by a third.  ``RefClock`` runs a short probe of
exact rational arithmetic, the kind of work apsn's inner loops do, from a
``SIGALRM`` handler every ``PROBE_INTERVAL_S`` of wall time, and rescales an
interval's wall time by the probe's mean speed in that interval:

    reference seconds = wall seconds * mean(REF_PROBE_S / probe seconds)

A reference second is a wall second at the speed where one probe takes
``REF_PROBE_S``.  Program changes move reference seconds exactly as they
move wall seconds; host drift cancels.

Worker processes forked while the clock runs probe themselves and write
their samples to the clock's directory when they exit; an interval in which
workers probed is rescaled by the workers' speed, since they did the work.
"""
from __future__ import annotations

import json
import multiprocessing.util
import os
import signal
import statistics
import time
from fractions import Fraction
from pathlib import Path

perf = time.perf_counter

PROBE_INTERVAL_S = 0.025
#: about the probe's duration inside a census on a 2-vCPU Xeon VM; it
#: only sets the scale of a reference second
REF_PROBE_S = 2.5e-4
#: an interval with few probes of its own borrows those this close to it
WINDOW_S = 0.25
SETUP_PROBES = 20


def probe() -> float:
    """Seconds one fixed batch of small-Fraction arithmetic takes now."""
    t0 = perf()
    for i in range(1, 60):
        Fraction(i % 5, 6) + Fraction(1, i % 4 + 1)
    return perf() - t0


def speed(durations: list) -> float:
    return statistics.mean(REF_PROBE_S / d for d in durations)


def rescaled_call(fn, *args):
    """``fn(*args)``, its wall seconds, and those seconds rescaled by probes
    taken right before and after it (for calls made outside a RefClock)."""
    before = [probe() for _ in range(SETUP_PROBES)]
    t0 = perf()
    out = fn(*args)
    wall = perf() - t0
    after = [probe() for _ in range(SETUP_PROBES)]
    return out, wall, wall * speed(before + after)


class RefClock:
    def __init__(self, workdir: Path):
        self.workdir = Path(workdir)
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.worker_samples: list[tuple[float, float]] = []
        self.running = False

    def __enter__(self) -> "RefClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self.running = True
        multiprocessing.util.register_after_fork(self, RefClock._after_fork)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.running = False

    def _tick(self, signum, frame) -> None:
        t0 = perf()
        self.samples.append((t0, probe()))

    def _after_fork(self) -> None:
        """Runs in a forked worker: the handler is inherited, the timer is not."""
        if not self.running:
            return
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        multiprocessing.util.Finalize(None, self._dump_worker, exitpriority=10)

    def _dump_worker(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        with open(self.workdir / f"probes-{os.getpid()}.json", "w") as fh:
            json.dump(self.samples, fh)

    def _merge_workers(self) -> None:
        for path in sorted(self.workdir.glob("probes-*.json")):
            with open(path) as fh:
                self.worker_samples += [tuple(s) for s in json.load(fh)]
            path.unlink()

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds between two ``perf_counter`` readings taken
        while the clock ran."""
        self._merge_workers()
        durations = [d for t, d in self.worker_samples if t0 <= t <= t1]
        if not durations:
            durations = [d for t, d in self.samples if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        return (t1 - t0) * speed(durations)
