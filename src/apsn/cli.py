"""Command-line surface: stability checks, censuses, axiom hunts, structural
predictions, truncated-game constructions, threshold learning, dynamics and
DOT export.  Reports are JSON on stdout (or ``--out``); domain errors become
a one-line JSON object on stderr with exit code 1; usage errors exit 2.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import census as census_mod
from . import structure
from .centrality import centrality, centrality_vector
from .errors import ApsnError, ParameterError
from .game import (
    EvalCache,
    GameSpec,
    HomophilicAgent,
    MonotoneAgent,
    NumericAgent,
    TolerantPolicy,
    best_response_dynamics,
    default_policy,
    is_apsn,
    uniform_game,
)
from .graphs import Graph, from_graph6, passing_masks, read_edge_list, to_graph6
from .learning import ApsnOracle, learn_threshold
from .profiles import (
    load_profile_file,
    measure_grammar,
    parse_homophily,
    parse_measure,
    parse_threshold,
)
from .truncation import (
    greedy_linear_apsn,
    maximal_member,
    pareto_check,
    read_weight_table,
    truncated_game,
    universality_thresholds,
)
from .values import Approx, Exact, format_rational, value_to_json


def load_graph(path: str, fmt: str = "auto") -> Graph:
    with open(path) as fh:
        text = fh.read()
    if fmt == "edges":
        return read_edge_list(text)
    if fmt == "g6":
        return from_graph6(text)
    first = text.strip().splitlines()[0].split() if text.strip() else []
    if len(first) == 2 and all(tok.lstrip("-").isdigit() for tok in first):
        return read_edge_list(text)
    return from_graph6(text)


def _parse_thresholds(text: str, n: int, what: str = "thresholds") -> list[Fraction | None]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ParameterError(f"expected {n} {what}, got {len(parts)}")
    return [parse_threshold(p) for p in parts]


def _uniform_agent(args):
    if getattr(args, "rule", None):
        return MonotoneAgent(args.rule)
    if getattr(args, "homophily", None):
        return HomophilicAgent(parse_homophily(args.homophily))
    if getattr(args, "measure", None):
        threshold = parse_threshold(getattr(args, "threshold", None))
        return NumericAgent(parse_measure(args.measure), threshold)
    raise ParameterError("give --profile or one of --measure/--rule/--homophily")


def build_game(args, n: int) -> GameSpec:
    if getattr(args, "profile", None):
        return load_profile_file(args.profile, n)
    agent = _uniform_agent(args)
    if getattr(args, "tolerant", None) is not None:
        return uniform_game(n, agent, TolerantPolicy(args.tolerant))
    return uniform_game(n, agent, default_policy([agent]))


def emit(args, payload) -> None:
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_centrality(args) -> int:
    g = load_graph(args.graph, args.format)
    m = parse_measure(args.measure)
    vec = centrality_vector(m, g)
    values = [
        value_to_json(Exact(v) if m.is_exact else Approx(float(v))) for v in vec
    ]
    payload = {"graph6": to_graph6(g), "measure": measure_grammar(m), "values": values}
    if args.vertex is not None:
        payload["vertex"] = args.vertex
        payload["value"] = value_to_json(centrality(m, g, args.vertex))
    emit(args, payload)
    return 0


def cmd_check(args) -> int:
    g = load_graph(args.graph, args.format)
    spec = build_game(args, g.n)
    report = is_apsn(spec, g)
    emit(args, {"graph6": to_graph6(g), "n": g.n, **report.to_json()})
    return 0


def cmd_census(args) -> int:
    spec = build_game(args, args.n)
    result = census_mod.run_census(
        spec,
        args.n,
        shards=args.shards,
        jobs=args.jobs,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    if args.g6_out:
        with open(args.g6_out, "w") as fh:
            fh.writelines(g6 + "\n" for _, g6 in result.apsn_canonical)
    emit(args, result.to_json())
    return 0


def cmd_axiom(args) -> int:
    m = parse_measure(args.measure)
    result = structure.falsify_axiom(m, args.axiom, args.max_n)
    emit(
        args,
        {
            "measure": measure_grammar(m),
            "axiom": args.axiom,
            "max_n": args.max_n,
            **result.to_json(),
        },
    )
    return 0


def cmd_predict(args) -> int:
    payload: dict = {"family": args.family}
    if args.family == "monotone":
        if not args.types:
            raise ParameterError("monotone predictions need --types")
        types = tuple(t.strip() for t in args.types.split(","))
        n = len(types)
        colours = census_mod.colouring(GameSpec(tuple(MonotoneAgent(t) for t in types)))
        masks = passing_masks(n, lambda g: structure.check_monotone_structure(g, types), colours)
        payload.update(
            n=n,
            types=list(types),
            graphs=[to_graph6(Graph(n, m)) for m in masks],
            explanation="graphs whose shape matches a stable monotone mixture",
        )
    elif args.family == "stratified":
        if args.n is None:
            raise ParameterError("stratified predictions need --n")
        f = parse_homophily(args.homophily or "gt")
        seqs = structure.stratified_sequences(args.n, f)
        payload.update(
            n=args.n,
            sequences=[{"cliques": list(s.sizes), "isolated": s.isolated} for s in seqs],
            graphs=[to_graph6(structure.realize_sequence(s)) for s in seqs],
            explanation="disjoint unions of strictly shrinking cliques stable "
            "under the degree-homophily threshold",
        )
    else:
        if args.n is None:
            raise ParameterError("structural predictions need --n")
        predicate = {
            "betweenness": structure.betweenness_condition,
            "ecc-necessary": structure.ecc_necessary,
            "ecc-sufficient": structure.ecc_sufficient,
        }[args.family]
        payload.update(
            n=args.n,
            graphs=[to_graph6(Graph(args.n, m)) for m in passing_masks(args.n, predicate)],
            explanation=f"graphs passing the {args.family} structural test",
        )
    emit(args, payload)
    return 0


def cmd_truncated(args) -> int:
    cache = EvalCache()
    if args.op == "universality":
        if not (args.graph and args.measure):
            raise ParameterError("universality needs --graph and --measure")
        g = load_graph(args.graph, args.format)
        measures = [parse_measure(args.measure)] * g.n
        thetas = universality_thresholds(g, measures, cache)
        payload = {
            "op": "universality",
            "graph6": to_graph6(g),
            "thresholds": [t if isinstance(t, float) else format_rational(t) for t in thetas],
            "stable": is_apsn(truncated_game(measures, thetas), g, cache).stable,
        }
    elif args.op == "pareto":
        if not (args.graph and args.measure and args.thresholds):
            raise ParameterError("pareto needs --graph, --measure and --thresholds")
        g = load_graph(args.graph, args.format)
        thetas = _parse_thresholds(args.thresholds, g.n)
        payload = {
            "op": "pareto",
            "graph6": to_graph6(g),
            "pareto": pareto_check(g, [parse_measure(args.measure)] * g.n, thetas, cache),
        }
    elif args.op == "greedy":
        if not (args.weights and args.thresholds):
            raise ParameterError("greedy needs --weights and --thresholds")
        with open(args.weights) as fh:
            weights = read_weight_table(fh.read())
        thetas = _parse_thresholds(args.thresholds, len(weights))
        g = greedy_linear_apsn(weights, thetas)
        payload = {
            "op": "greedy",
            "graph6": to_graph6(g),
            "edges": [list(e) for e in g.edges()],
        }
    else:  # maximal
        if not (args.n and args.measure and args.thresholds):
            raise ParameterError("maximal needs --n, --measure and --thresholds")
        thetas = _parse_thresholds(args.thresholds, args.n)
        caps = _parse_thresholds(args.caps, args.n, "caps") if args.caps else None
        if caps is not None and None in caps:
            raise ParameterError("caps must be finite")
        result = maximal_member(args.n, [parse_measure(args.measure)] * args.n, thetas, caps, cache)
        payload = {"op": "maximal", **result.to_json()}
    emit(args, payload)
    return 0


def cmd_learn(args) -> int:
    spec = load_profile_file(args.profile, args.n)
    oracle = ApsnOracle(spec, jobs=args.jobs)
    result = learn_threshold(oracle, args.agent)
    emit(args, {"n": args.n, "agent": args.agent, **result.to_json()})
    return 0


def cmd_dynamics(args) -> int:
    g = load_graph(args.graph, args.format)
    spec = build_game(args, g.n)
    traj = best_response_dynamics(
        spec, g, max_steps=args.max_steps, seed=args.seed, rule=args.order
    )
    payload = {
        "start": to_graph6(g),
        "seed": args.seed,
        "order": args.order,
        "steps_taken": len(traj.steps),
        **traj.to_json(),
    }
    emit(args, payload)
    return 0


def cmd_export_dot(args) -> int:
    g = load_graph(args.graph, args.format)
    has_game = args.profile or args.measure or args.rule or args.homophily
    spec = build_game(args, g.n) if has_game else None
    cache = EvalCache()
    lines = ["graph g {"]
    for v in range(g.n):
        parts = [str(v)]
        if spec is not None:
            agent = spec.agents[v]
            if isinstance(agent, NumericAgent):
                parts.append(measure_grammar(agent.measure))
                raw = cache.vector(agent.measure, g)[v]
                parts.append(
                    "C=" + (format_rational(raw) if isinstance(raw, Fraction) else f"{float(raw):.6g}")
                )
                if agent.threshold is not None:
                    parts.append(f"theta={format_rational(agent.threshold)}")
            elif isinstance(agent, MonotoneAgent):
                parts.append(f"rule {agent.kind}")
            else:
                parts.append("homophilic")
        label = "\\n".join(parts)
        lines.append(f'  {v} [label="{label}"];')
    for i, j in g.edges():
        lines.append(f"  {i} -- {j};")
    lines.append("}")
    emit(args, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_graph_arg(p):
    p.add_argument("--graph", required=True, help="edge-list or graph6 file")
    p.add_argument("--format", choices=["auto", "edges", "g6"], default="auto")


def _add_game_args(p):
    p.add_argument("--profile", help="agent profile JSON file")
    p.add_argument("--measure", help="uniform numeric measure (grammar string)")
    p.add_argument("--threshold", help="uniform truncation threshold p/q")
    p.add_argument("--rule", choices=["1", "1p", "2", "2p"], help="uniform monotone rule")
    p.add_argument("--homophily", help="'gt' or a JSON threshold table")
    p.add_argument("--tolerant", type=float, help="tolerant policy with this tolerance")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apsn",
        description="centrality-driven network formation games at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("centrality", help="centrality values of one graph")
    _add_graph_arg(p)
    p.add_argument("--measure", required=True)
    p.add_argument("--vertex", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_centrality)

    p = sub.add_parser("check", help="stability report for one graph")
    _add_graph_arg(p)
    _add_game_args(p)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("census", help="exhaustive stability census")
    p.add_argument("--n", type=int, required=True)
    _add_game_args(p)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--checkpoint")
    p.add_argument("--resume")
    p.add_argument("--g6-out", dest="g6_out", help="also write the stable set as a graph6 list file")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("axiom", help="hunt for axiom violations")
    p.add_argument("--measure", required=True)
    p.add_argument("--axiom", required=True, choices=["1", "1p", "2", "2p", "3", "4"])
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_axiom)

    p = sub.add_parser("predict", help="structural predictions of stable sets")
    p.add_argument(
        "--family",
        required=True,
        choices=["monotone", "stratified", "betweenness", "ecc-necessary", "ecc-sufficient"],
    )
    p.add_argument("--n", type=int)
    p.add_argument("--types", help="comma list of monotone types per vertex")
    p.add_argument("--homophily", help="'gt' or a JSON threshold table")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("truncated", help="truncated-game constructions")
    p.add_argument("--op", required=True, choices=["universality", "pareto", "greedy", "maximal"])
    p.add_argument("--graph")
    p.add_argument("--format", choices=["auto", "edges", "g6"], default="auto")
    p.add_argument("--measure")
    p.add_argument("--thresholds", help="comma list of p/q or inf")
    p.add_argument("--weights", help="weight-table file for the greedy op")
    p.add_argument("--n", type=int)
    p.add_argument("--caps", help="comma list of p/q overriding exhaustive caps")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_truncated)

    p = sub.add_parser("learn", help="threshold learning transcript")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--agent", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_learn)

    p = sub.add_parser("dynamics", help="seeded best-response dynamics")
    _add_graph_arg(p)
    _add_game_args(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-steps", type=int, default=1000, dest="max_steps")
    p.add_argument("--order", choices=["random", "first"], default="random",
                   help="flip selection: random draw or first in scan order")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_dynamics)

    p = sub.add_parser("export-dot", help="DOT text annotated with agents and values")
    _add_graph_arg(p)
    _add_game_args(p)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ApsnError as exc:
        print(json.dumps(exc.payload()), file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
