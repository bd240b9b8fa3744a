#!/usr/bin/env python3
"""Build the atlas of every uniform game's stable classes at n = 3..7.

    PYTHONPATH=src python3 scripts/build_atlas.py

A uniform game gives every vertex the same agent.  The games are the twelve
label-free measure kinds (decay at 1/2, Katz with its automatic alpha and
with 0.1, PageRank at 0.85 and 0.5), the four monotone types and the
game-theoretic homophilic agent; a spectral measure is read under the
tolerant policy at ``TOLERANCE``.  For each game and n the atlas holds the
stable isomorphism classes as graph6, the number of ambiguous labeled
graphs and the sha256 of the census payload without its ``shards`` field,
the digest ``perfbench`` records for its families.  ``groups`` lists the
games at n = 7 by their stable classes, with the reason the repository
gives for each group, where it has one.  Every census runs on one shard
with a fresh cache, so the atlas does not depend on any other run.
"""
from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from fractions import Fraction

from apsn.census import run_census
from apsn.centrality import (
    betweenness,
    closeness,
    decay,
    degree,
    eccentricity,
    eigenvector,
    game_theoretic,
    harmonic,
    katz,
    pagerank,
    rw_betweenness,
    rw_closeness,
)
from apsn.game import (
    MONOTONE_KINDS,
    ExactPolicy,
    HomophilicAgent,
    MonotoneAgent,
    NumericAgent,
    TolerantPolicy,
    uniform_game,
)
from apsn.profiles import measure_grammar

ATLAS = pathlib.Path(__file__).resolve().parent.parent / "data" / "atlas.json"
SIZES = range(3, 8)
TOLERANCE = 1e-9

MEASURES = [
    degree(), closeness(), eccentricity(), rw_closeness(), decay(Fraction(1, 2)),
    harmonic(), betweenness(), rw_betweenness(), game_theoretic(), eigenvector(),
    katz(), katz(0.1), pagerank(0.85), pagerank(0.5),
]

#: game name -> agent: a measure by its grammar, the rest by their type
AGENTS = {
    **{measure_grammar(m): NumericAgent(m) for m in MEASURES},
    **{f"monotone:{kind}": MonotoneAgent(kind) for kind in MONOTONE_KINDS},
    "homophilic:gt": HomophilicAgent(),
}

#: why the games of one n = 7 group have their stable classes, where the
#: repository says so (the ``Kind`` docstring, ``game.rule_willing`` and the
#: characterizations in ``apsn.structure``)
REASONS = {
    ("decay:1/2", "degree", "eigenvector", "harmonic", "katz:0.1", "monotone:1"): (
        "degree, decay, harmonic and monotone type 1 gain from every added edge "
        "(rule '1'), so K_n is their only stable graph; eigenvector and katz:0.1 "
        "have no proof in the repository"
    ),
    ("closeness", "rwcloseness"): (
        "closeness gains by rule '2 or isolated'; rwcloseness follows the same rule "
        "on every class to n = 7, with no proof in the repository"
    ),
    ("gametheoretic", "homophilic:gt"): (
        "game-theoretic centrality gains exactly by GT_HOMOPHILY, the homophilic "
        "agent's threshold (rule 'homophily')"
    ),
    ("betweenness",): "the domination criterion, structure.betweenness_condition",
    ("monotone:1p",): "type 1p gains from no added edge, so only the empty graph is stable",
    ("monotone:2",): "the shape structure.check_monotone_structure gives type 2",
    ("monotone:2p",): "the shape structure.check_monotone_structure gives type 2p",
}
NO_REASON = "no explanation in the repository"


def game(name: str, n: int):
    agent = AGENTS[name]
    approximate = isinstance(agent, NumericAgent) and not agent.measure.is_exact
    return uniform_game(n, agent, TolerantPolicy(TOLERANCE) if approximate else ExactPolicy())


def payload_digest(result) -> str:
    payload = result.payload()
    payload.pop("shards")
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def entry(name: str, n: int) -> dict:
    result = run_census(game(name, n), n)
    return {
        "stable": [g6 for _, g6 in result.apsn_canonical],
        "ambiguous_count": len(result.ambiguous_masks),
        "digest": payload_digest(result),
    }


def build() -> dict:
    games = {name: {str(n): entry(name, n) for n in SIZES} for name in AGENTS}
    top = str(SIZES[-1])
    by_classes: dict[tuple, list[str]] = {}
    for name in AGENTS:
        by_classes.setdefault(tuple(games[name][top]["stable"]), []).append(name)
    groups = [
        {
            "games": sorted(names),
            "stable_classes": len(classes),
            "reason": REASONS.get(tuple(sorted(names)), NO_REASON),
        }
        for classes, names in by_classes.items()
    ]
    groups.sort(key=lambda group: (-len(group["games"]), group["games"]))
    return {"sizes": list(SIZES), "tolerance": TOLERANCE, "games": games, "groups": groups}


def main() -> int:
    atlas = build()
    ATLAS.write_text(json.dumps(atlas, indent=1) + "\n")
    print(f"wrote {ATLAS}: {len(atlas['games'])} games at n = {SIZES[0]}..{SIZES[-1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
