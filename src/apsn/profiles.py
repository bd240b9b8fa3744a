"""Measure grammar strings and agent-profile JSON files.

Grammar: ``degree``, ``linear:<weightfile>``, ``closeness``, ``eccentricity``,
``rwcloseness``, ``decay:<p>/<q>``, ``harmonic``, ``betweenness``,
``rwbetweenness``, ``eigenvector``, ``katz:<alpha>``, ``pagerank:<damping>``,
``gametheoretic``.

Profile files hold an array of agent entries, each with a ``node`` index and
exactly one of ``measure`` (plus optional ``threshold``), ``rule``
(``1|1p|2|2p``) or ``homophily_f`` (``"gt"`` or ``{"table": [...]}`` of
integers).  ``parse_threshold`` and ``parse_homophily`` also read the CLI's
``--threshold``/``--thresholds``/``--caps`` and ``--homophily`` values.
A top-level object form adds ``policy`` and a ``default`` entry applied to
nodes without their own row.
"""
from __future__ import annotations

import json
import os
from fractions import Fraction

from .centrality import KINDS, Measure
from .errors import MeasureGrammarError, ParameterError, ProfileError
from .game import (
    GT_HOMOPHILY,
    Agent,
    ExactPolicy,
    GameSpec,
    HomophilicAgent,
    HomophilyFunction,
    MonotoneAgent,
    NumericAgent,
    TolerantPolicy,
    default_policy,
)
from .truncation import read_weight_table
from .values import format_rational, parse_rational

def parse_measure(text: str, base_dir: str | None = None) -> Measure:
    text = text.strip()
    kind, _, arg = text.partition(":")
    try:
        if kind == "decay":
            if not arg:
                raise MeasureGrammarError("decay needs a rational parameter p/q")
            return Measure("decay", beta=parse_rational(arg))
        if kind == "katz":
            return Measure("katz", alpha=float(arg) if arg else None)
        if kind == "pagerank":
            return Measure("pagerank", damping=float(arg) if arg else 0.85)
        if kind == "linear":
            if not arg:
                raise MeasureGrammarError("linear needs a weight-table file")
            path = arg if base_dir is None else os.path.join(base_dir, arg)
            with open(path) as fh:
                return Measure("linear", weights=read_weight_table(fh.read()))
    except (ValueError, ZeroDivisionError) as exc:
        raise MeasureGrammarError(f"cannot parse measure {text!r}: {exc}")
    if kind not in KINDS:
        raise MeasureGrammarError(f"unknown measure {text!r}")
    if arg:
        raise MeasureGrammarError(f"{kind} takes no parameter, got {arg!r}")
    return Measure(kind)


def measure_grammar(m: Measure) -> str:
    if m.kind == "decay":
        return f"decay:{format_rational(m.beta)}"
    if m.kind == "katz":
        return "katz" if m.alpha is None else f"katz:{m.alpha}"
    if m.kind == "pagerank":
        return f"pagerank:{m.damping}"
    if m.kind == "linear":
        return "linear:<inline>"
    return m.kind


def parse_threshold(text) -> Fraction | None:
    """A truncation threshold: ``p/q`` or a decimal, or None for ``inf``
    (and for a missing one)."""
    if text is None or text == "inf":
        return None
    try:
        return parse_rational(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"{text!r} is neither p/q nor inf: {exc}")


def parse_homophily(spec) -> HomophilyFunction:
    """``"gt"`` (the game-theoretic closed form) or an integer threshold
    table, given as a list or as the JSON text of one."""
    if spec == "gt":
        return GT_HOMOPHILY
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"homophily table is not valid JSON: {exc}")
    if not (isinstance(spec, list) and all(type(d) is int for d in spec)):
        raise ParameterError(f"homophily table must be a list of integers, got {spec!r}")
    return HomophilyFunction(table=tuple(spec))


def _entry_to_agent(entry: dict, base_dir: str | None) -> Agent:
    if not isinstance(entry, dict):
        raise ProfileError(f"agent entry must be a JSON object, got {entry!r}")
    keys = [k for k in ("measure", "rule", "homophily_f") if k in entry]
    if len(keys) != 1:
        raise ProfileError(
            f"agent entry needs exactly one of measure/rule/homophily_f, got {entry!r}"
        )
    if "measure" in entry:
        measure = parse_measure(entry["measure"], base_dir)
        return NumericAgent(measure, parse_threshold(entry.get("threshold")))
    if "threshold" in entry:
        raise ProfileError("thresholds apply to numeric agents only")
    if "rule" in entry:
        return MonotoneAgent(str(entry["rule"]))
    spec = entry["homophily_f"]
    if spec == "gt":
        return HomophilicAgent()
    if isinstance(spec, dict) and isinstance(spec.get("table"), list):
        return HomophilicAgent(parse_homophily(spec["table"]))
    raise ProfileError(f"homophily_f must be 'gt' or {{'table': [...]}}, got {spec!r}")


def _parse_policy(raw):
    if raw is None:
        return None
    if raw == "exact":
        return ExactPolicy()
    if isinstance(raw, dict) and "tolerant" in raw:
        try:
            return TolerantPolicy(float(raw["tolerant"]))
        except (TypeError, ValueError) as exc:
            raise ProfileError(f"bad tolerance {raw['tolerant']!r}: {exc}")
    raise ProfileError(f"policy must be 'exact' or {{'tolerant': tol}}, got {raw!r}")


def load_profile(text: str, n: int, base_dir: str | None = None) -> GameSpec:
    """Build the n-agent game described by a profile JSON document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProfileError(f"profile is not valid JSON: {exc}")
    if isinstance(doc, list):
        entries, default, policy_raw = doc, None, None
    elif isinstance(doc, dict):
        entries = doc.get("agents", [])
        default = doc.get("default")
        policy_raw = doc.get("policy")
    else:
        raise ProfileError("profile must be a JSON array or object")
    if not isinstance(entries, list):
        raise ProfileError(f"profile agents must be a JSON array, got {entries!r}")
    agents: list[Agent | None] = [None] * n
    for entry in entries:
        if not isinstance(entry, dict) or "node" not in entry:
            raise ProfileError(f"agent entry without node index: {entry!r}")
        k = entry["node"]
        if not (isinstance(k, int) and 0 <= k < n):
            raise ProfileError(f"node index {k!r} outside 0..{n - 1}")
        if agents[k] is not None:
            raise ProfileError(f"duplicate entry for node {k}")
        agents[k] = _entry_to_agent(entry, base_dir)
    if default is not None:
        filler = _entry_to_agent(default, base_dir)
        agents = [a if a is not None else filler for a in agents]
    missing = [k for k, a in enumerate(agents) if a is None]
    if missing:
        raise ProfileError(f"no agent for nodes {missing} and no default entry")
    policy = _parse_policy(policy_raw)
    if policy is None:
        policy = default_policy(agents)
    return GameSpec(tuple(agents), policy)


def load_profile_file(path: str, n: int) -> GameSpec:
    with open(path) as fh:
        return load_profile(fh.read(), n, base_dir=os.path.dirname(path) or ".")
