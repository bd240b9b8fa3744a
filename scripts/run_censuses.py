#!/usr/bin/env python3
"""Run the headline stability censuses and drop JSON reports plus graph6
lists under results/.

Covers the four families with proven structural characterizations: decay
agents (complete graphs), coverage-Shapley agents (stratified cliques),
betweenness agents (the domination criterion) and eccentricity agents
(necessary/sufficient structural tests), each cross-checked against its
predicate while running.  The predicates do not depend on vertex labels,
so each is evaluated once per isomorphism class and the classes that pass
are expanded to their labeled orbits (``passing_masks``): the labeled sets
compared stay exact.
"""
import argparse
import json
import pathlib
import sys
import time
from fractions import Fraction

from apsn.census import run_census
from apsn.centrality import betweenness, decay, eccentricity, game_theoretic
from apsn.game import GT_HOMOPHILY, NumericAgent, uniform_game
from apsn.graphs import Graph, passing_masks
from apsn.structure import (
    betweenness_condition,
    ecc_necessary,
    ecc_sufficient,
    is_stratified,
)

FAMILIES = {
    "decay": (lambda: NumericAgent(decay(Fraction(1, 2))), None),
    "coverage-shapley": (
        lambda: NumericAgent(game_theoretic()),
        lambda g: is_stratified(g, GT_HOMOPHILY),
    ),
    "betweenness": (lambda: NumericAgent(betweenness()), betweenness_condition),
    "eccentricity": (lambda: NumericAgent(eccentricity()), None),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--outdir", default="results")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, (make_agent, predicate) in FAMILIES.items():
        for n in range(3, args.max_n + 1):
            spec = uniform_game(n, make_agent())
            start = time.monotonic()
            result = run_census(spec, n, jobs=args.jobs)
            elapsed = time.monotonic() - start
            payload = result.to_json()
            payload["family"] = name
            stable = set(result.stable_masks)
            if predicate is not None:
                payload["predicate_matches_census"] = set(passing_masks(n, predicate)) == stable
            if name == "eccentricity":
                payload["necessary_test_holds"] = all(
                    ecc_necessary(Graph(n, m)) for m in result.stable_masks
                )
                sufficient = set(passing_masks(n, ecc_sufficient))
                payload["sufficient_family_stable"] = sufficient <= stable
            stem = outdir / f"census_{name}_n{n}"
            stem.with_suffix(".json").write_text(json.dumps(payload, indent=2) + "\n")
            stem.with_suffix(".g6").write_text(
                "".join(g6 + "\n" for _, g6 in result.apsn_canonical)
            )
            print(
                f"{name} n={n}: {result.stable_count} stable labeled graphs, "
                f"{len(result.apsn_canonical)} classes, {elapsed:.1f}s"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
