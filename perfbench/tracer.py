"""Per-layer tracing of apsn from outside the package.

``Tracer`` replaces a fixed set of public apsn functions with timing
wrappers for the duration of a ``with`` block and puts the originals back
when the block ends.  Every module attribute that holds a target (for
example ``apsn.census.is_apsn``, the name ``run_census`` calls) is patched,
so calls made inside the package are seen as well as calls made by the
benchmark.

Coarse calls (``run_census``, ``best_response_dynamics``,
``canonical_form``) become spans with a parent; per-graph and per-flip calls
are only aggregated as counts, busy time and self time.  Self time is a
call's duration minus the time of the traced calls made directly inside
it.

Census workers forked while the tracer is installed inherit the wrappers;
each worker writes its aggregates to the tracer's directory when it exits
and ``merge_workers`` folds them into the parent's totals.  Workers started
another way (spawn, forkserver) are not traced.
"""
from __future__ import annotations

import json
import multiprocessing.util
import os
import sys
import time
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

perf = time.perf_counter

#: (module, attribute, whether each call is a span) for every traced
#: function.  The attribute may be ``Class.method``.
TARGETS = (
    ("apsn.census", "run_census", True),
    ("apsn.game", "best_response_dynamics", True),
    ("apsn.graphs", "canonical_form", True),
    ("apsn.game", "is_apsn", False),
    ("apsn.game", "candidate_flips", False),
    ("apsn.game", "EvalCache.vector", False),
    ("apsn.centrality", "centrality_vector", False),
    ("apsn.linalg", "solve_rational", False),
)


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Spans and per-function aggregates for one traced phase."""

    def __init__(self, workdir: Path):
        self.workdir = Path(workdir)
        self.installed = False
        self.patches: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        # name -> [calls, busy seconds, self seconds]
        self.aggs: dict[str, list] = {attr.split(".")[-1]: [0, 0.0, 0.0] for _, attr, _ in TARGETS}
        # centrality kind -> [calls, busy seconds]
        self.kinds: dict[str, list] = {}
        self.counters = {"cache.evictions": 0, "cache.vectors_held": 0, "dynamics.steps": 0}
        self.spans: list[dict] = []
        self._frames: list[list] = []  # [child seconds, span record or None]
        self._op: int | None = None

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        originals = {}
        for module, attr, span in TARGETS:
            owner, name = _resolve(module, attr)
            original = owner.__dict__[name]
            originals[id(original)] = self._wrap(name, original, span)
            self.patches.append((owner, name, original))
        # other modules import the targets by name; patch those references too
        for modname, mod in list(sys.modules.items()):
            if modname == "apsn" or modname.startswith("apsn."):
                for name, value in list(vars(mod).items()):
                    wrapper = originals.get(id(value))
                    if wrapper is not None and (mod, name, value) not in self.patches:
                        self.patches.append((mod, name, value))
        for owner, name, original in self.patches:
            setattr(owner, name, originals[id(original)])
        self.installed = True
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)
        self.patches.clear()
        self.installed = False

    def _after_fork(self) -> None:
        """Runs in a forked worker: count its work from zero and write it out
        when the worker exits."""
        if not self.installed:
            return
        self._reset()
        multiprocessing.util.Finalize(None, self._dump_worker, exitpriority=10)

    def _dump_worker(self) -> None:
        path = self.workdir / f"worker-{os.getpid()}.json"
        with open(path, "w") as fh:
            json.dump({"aggs": self.aggs, "kinds": self.kinds, "counters": self.counters}, fh)

    def merge_workers(self) -> int:
        """Fold the aggregates of exited workers into this tracer; returns how
        many worker files were merged."""
        merged = 0
        for path in sorted(self.workdir.glob("worker-*.json")):
            with open(path) as fh:
                data = json.load(fh)
            path.unlink()
            for name, (calls, busy, self_s) in data["aggs"].items():
                agg = self.aggs[name]
                agg[0] += calls
                agg[1] += busy
                agg[2] += self_s
            for kind, (calls, busy) in data["kinds"].items():
                agg = self.kinds.setdefault(kind, [0, 0.0])
                agg[0] += calls
                agg[1] += busy
            for key, value in data["counters"].items():
                if key == "cache.vectors_held":
                    self.counters[key] = max(self.counters[key], value)
                else:
                    self.counters[key] += value
            merged += 1
        return merged

    # -- wrappers -----------------------------------------------------------

    def _enter(self, name: str, span: bool) -> list:
        record = None
        if span:
            parent = next((f[1]["id"] for f in reversed(self._frames) if f[1]), None)
            record = {"id": len(self.spans), "parent": parent, "op": self._op, "name": name}
            self.spans.append(record)
        frame = [0.0, record]
        self._frames.append(frame)
        return frame

    def _leave(self, name: str, frame: list, t0: float, t1: float) -> float:
        self._frames.pop()
        dur = t1 - t0
        if self._frames:
            self._frames[-1][0] += dur
        agg = self.aggs[name]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - frame[0]
        record = frame[1]
        if record is not None:
            record.update(start=t0, end=t1, self=dur - frame[0])
        return dur

    def _wrap(self, name: str, fn, span: bool):
        tracer = self
        if name == "vector":
            # EvalCache.vector: a lookup is a miss when it computes a vector;
            # a miss that leaves the memo size unchanged evicted an entry

            @wraps(fn)
            def vector(cache, m, g):
                computed = tracer.aggs["centrality_vector"]
                held, misses = len(cache.vectors), computed[0]
                frame = tracer._enter(name, False)
                t0 = perf()
                try:
                    return fn(cache, m, g)
                finally:
                    tracer._leave(name, frame, t0, perf())
                    now = len(cache.vectors)
                    if computed[0] != misses and now == held:
                        tracer.counters["cache.evictions"] += 1
                    if now > tracer.counters["cache.vectors_held"]:
                        tracer.counters["cache.vectors_held"] = now

            return vector

        if name == "centrality_vector":

            @wraps(fn)
            def centrality_vector(m, g):
                frame = tracer._enter(name, False)
                t0 = perf()
                try:
                    return fn(m, g)
                finally:
                    dur = tracer._leave(name, frame, t0, perf())
                    agg = tracer.kinds.setdefault(m.kind, [0, 0.0])
                    agg[0] += 1
                    agg[1] += dur

            return centrality_vector

        @wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, span)
            if frame[1] is not None and name == "run_census":
                frame[1]["resume"] = bool(kwargs.get("resume"))
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._leave(name, frame, t0, perf())
            if name == "best_response_dynamics":
                tracer.counters["dynamics.steps"] += len(out.steps)
            return out

        return wrapper

    # -- spans made by the benchmark --------------------------------------

    @contextmanager
    def op(self, label: str):
        """Root span of one benchmark operation; spans inside it share its id."""
        frame = self._enter("op", True)
        frame[1]["label"] = label
        self._op = frame[1]["id"]
        frame[1]["op"] = self._op
        t0 = perf()
        try:
            yield
        finally:
            t1 = perf()
            self._frames.pop()
            frame[1].update(start=t0, end=t1, self=(t1 - t0) - frame[0])
            self._op = None

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures of this phase by name, as (value, unit)."""
        a = self.aggs
        lookups, misses = a["vector"][0], a["centrality_vector"][0]
        out = {
            "census.busy_s": (a["run_census"][1], "s"),
            "census.self_s": (a["run_census"][2], "s"),
            "census.resume_s": (
                sum(s["end"] - s["start"] for s in self.spans if s.get("resume")),
                "s",
            ),
            "game.is_apsn.calls": (a["is_apsn"][0], "count"),
            "game.is_apsn.self_s": (a["is_apsn"][2], "s"),
            "game.candidate_flips.busy_s": (a["candidate_flips"][1], "s"),
            "game.flips_per_graph": (lookups / 4 / a["is_apsn"][0] if a["is_apsn"][0] else 0.0, "count"),
            "game.dynamics.steps": (self.counters["dynamics.steps"], "count"),
            "cache.lookups": (lookups, "count"),
            "cache.misses": (misses, "count"),
            "cache.hit_ratio": (1 - misses / lookups if lookups else 0.0, "ratio"),
            "cache.evictions": (self.counters["cache.evictions"], "count"),
            "cache.vectors_held": (self.counters["cache.vectors_held"], "count"),
            "cache.lookup_self_s": (a["vector"][2], "s"),
            "linalg.solve.calls": (a["solve_rational"][0], "count"),
            "linalg.solve.busy_s": (a["solve_rational"][1], "s"),
            "linalg.solve.us_per_call": (_per_call(a["solve_rational"], 1e6), "us"),
            "graphs.canonical_form.calls": (a["canonical_form"][0], "count"),
            "graphs.canonical_form.busy_s": (a["canonical_form"][1], "s"),
            "graphs.canonical_form.ms_per_call": (_per_call(a["canonical_form"], 1e3), "ms"),
        }
        for kind in KINDS:
            agg = self.kinds.get(kind, [0, 0.0])
            out[f"centrality.calls.{kind}"] = (agg[0], "count")
            out[f"centrality.busy_s.{kind}"] = (agg[1], "s")
            out[f"centrality.us_per_call.{kind}"] = (_per_call(agg, 1e6), "us")
        return out


#: the nine measure kinds the census workloads run
KINDS = (
    "degree",
    "closeness",
    "decay",
    "betweenness",
    "gametheoretic",
    "rwcloseness",
    "rwbetweenness",
    "eigenvector",
    "pagerank",
)


def _per_call(agg: list, scale: float) -> float:
    return agg[1] / agg[0] * scale if agg[0] else 0.0
