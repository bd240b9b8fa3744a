#!/usr/bin/env python3
"""Probe the three open families (random-walk betweenness, eigenvector,
PageRank) for stable networks beyond the conjectured ones and write the
reports.

Any ambiguity under the tolerant policy lands in its own bucket in the
report instead of being rounded into a verdict.
"""
import argparse
import json
import pathlib
import sys
import time

from apsn.census import conjecture_report
from apsn.errors import SizeGuardError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--max-n", type=int, default=4, help="largest n; each family stops at its own cap"
    )
    parser.add_argument("--tolerance", type=float, default=1e-9)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--outdir", default="results")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for kind in ("rwbetweenness", "eigenvector", "pagerank"):
        for n in range(3, args.max_n + 1):
            start = time.monotonic()
            try:
                report = conjecture_report(kind, n, tol=args.tolerance, jobs=args.jobs)
            except SizeGuardError as exc:
                print(f"{kind} n={n}: skipped ({exc})")
                break
            elapsed = time.monotonic() - start
            path = outdir / f"conjecture_{kind}_n{n}.json"
            path.write_text(json.dumps(report, indent=2) + "\n")
            print(
                f"{kind} n={n}: {report['verdict']} "
                f"(stable: {report['stable']}, ambiguous: {len(report['ambiguous'])}, "
                f"{elapsed:.1f}s)"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
