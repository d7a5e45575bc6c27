"""Synthetic diagnostic networks and test cases.

Stands in for a real fault-diagnosis chart: a layer of hidden causes with
small leak priors wired to observable effect nodes, with a controllable
amount of competing-cause structure (effects claimed by several causes).
Everything is deterministic in the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .network import MODEL, SENSORY, Network, build_network, validate

TWO_LAYER = "two-layer"
LAYERED_CAUSAL = "layered-causal"

_MAX_ATTEMPTS = 5000  # forward-sampled worlds drawn per case before giving up


@dataclass(frozen=True)
class GeneratorParams:
    n_model: int
    n_sensory: int
    n_links: int
    prior_range: tuple = (0.001, 0.05)
    link_range: tuple = (0.2, 0.9)
    sensory_leak_range: tuple = (0.001, 0.01)
    layering: str = TWO_LAYER
    depth: int = 3
    competing_fraction: float = 0.5
    seed: int = 0


@dataclass(frozen=True)
class TestCase:
    evidence: dict
    n_positive: int


def _check_range(name, rng_pair):
    lo, hi = rng_pair
    if not (0.0 < lo <= hi < 1.0):
        raise ValueError(f"{name} must satisfy 0 < lo <= hi < 1, got {rng_pair}")


def _node_name(prefix, i, width):
    return f"{prefix}{i:0{width}d}"


def generate_network(params: GeneratorParams) -> Network:
    """Build a random two-layer or layered causal DAG with sensory sinks.

    Every sensory node gets at least one model parent; a competing_fraction
    share of them gets a second. Remaining links are drawn uniformly from
    the still-unused admissible pairs (model->sensory always; model->model
    only forward across layers in the layered variant).
    """
    p = params
    if p.n_model < 1 or p.n_sensory < 1:
        raise ValueError("need at least one model and one sensory node")
    if p.layering not in (TWO_LAYER, LAYERED_CAUSAL):
        raise ValueError(f"unknown layering {p.layering!r}")
    if p.layering == LAYERED_CAUSAL and p.depth < 1:
        raise ValueError("depth must be at least 1")
    if not 0.0 <= p.competing_fraction <= 1.0:
        raise ValueError("competing_fraction must be in [0, 1]")
    _check_range("prior_range", p.prior_range)
    _check_range("link_range", p.link_range)
    _check_range("sensory_leak_range", p.sensory_leak_range)

    rng = random.Random(p.seed)
    mw = len(str(p.n_model))
    sw = len(str(p.n_sensory))
    model_ids = [_node_name("m", i + 1, mw) for i in range(p.n_model)]
    sensory_ids = [_node_name("s", i + 1, sw) for i in range(p.n_sensory)]

    depth = p.depth if p.layering == LAYERED_CAUSAL else 1
    layer = {mid: (i * depth) // p.n_model for i, mid in enumerate(model_ids)}

    nodes = []
    for mid in model_ids:
        nodes.append((mid, MODEL, rng.uniform(*p.prior_range)))
    for sid in sensory_ids:
        nodes.append((sid, SENSORY, rng.uniform(*p.sensory_leak_range)))

    n_competing = round(p.competing_fraction * p.n_sensory)
    required = p.n_sensory + n_competing
    if p.n_links < required:
        raise ValueError(
            f"n_links={p.n_links} too small: {p.n_sensory} sensory nodes need a parent "
            f"and {n_competing} of them need a second ({required} links minimum)"
        )
    if n_competing > 0 and p.n_model < 2:
        raise ValueError("competing parents need at least two model nodes")

    chosen = set()
    for sid in sensory_ids:
        chosen.add((rng.choice(model_ids), sid))
    shuffled = list(sensory_ids)
    rng.shuffle(shuffled)
    for sid in shuffled[:n_competing]:
        options = [m for m in model_ids if (m, sid) not in chosen]
        chosen.add((rng.choice(options), sid))

    admissible = [(m, s) for m in model_ids for s in sensory_ids]
    if p.layering == LAYERED_CAUSAL:
        admissible += [
            (a, b)
            for a in model_ids
            for b in model_ids
            if layer[a] < layer[b]
        ]
    remaining = sorted(set(admissible) - chosen)
    extra = p.n_links - len(chosen)
    if extra > len(remaining):
        raise ValueError(
            f"n_links={p.n_links} exceeds the {len(chosen) + len(remaining)} "
            "admissible distinct links"
        )
    chosen.update(rng.sample(remaining, extra))

    edges = []
    for u, v in sorted(chosen):
        edges.append((u, v, rng.uniform(*p.link_range)))
    net = build_network(nodes, edges)
    problems = validate(net)
    assert not problems, problems
    return net


def generate_cases(
    net: Network,
    n_cases: int,
    evidence_range: tuple,
    positive_range: tuple,
    seed: int,
) -> list:
    """Draw diagnostic test cases by observing forward-sampled worlds.

    Each case forward-samples a complete world and reveals a random subset
    of sensory nodes, retrying until the number of true observations lands
    inside positive_range, for at most `_MAX_ATTEMPTS` worlds per case.
    Evidence generated this way is always consistent and carries the
    correlations a real case would.
    """
    if n_cases < 1:
        raise ValueError(f"n_cases must be at least 1, got {n_cases}")
    sensory = [nid for nid in net.ids if net.kind[net.index[nid]] == SENSORY]
    ev_lo, ev_hi = evidence_range
    pos_lo, pos_hi = positive_range
    if not 1 <= ev_lo <= ev_hi:
        raise ValueError(f"bad evidence_range {evidence_range}")
    if ev_hi > len(sensory):
        raise ValueError(
            f"evidence_range {evidence_range} exceeds the {len(sensory)} sensory nodes"
        )
    if not 0 <= pos_lo <= pos_hi:
        raise ValueError(f"bad positive_range {positive_range}")
    if pos_lo > ev_hi:
        raise ValueError("positive_range demands more true observations than evidence slots")
    rng = random.Random(seed)
    cases = []
    x = [0] * len(net.ids)
    for case_idx in range(n_cases):
        for attempt in range(_MAX_ATTEMPTS):
            for j in net.topo:
                x[j] = 1 if rng.random() < 1.0 - net.survival(j, x) else 0
            k = rng.randint(ev_lo, ev_hi)
            observed = rng.sample(sensory, k)
            n_pos = sum(x[net.index[sid]] for sid in observed)
            if pos_lo <= n_pos <= pos_hi:
                ev = {sid: bool(x[net.index[sid]]) for sid in sorted(observed)}
                cases.append(TestCase(evidence=ev, n_positive=n_pos))
                break
        else:
            raise ValueError(
                f"could not hit positive_range {positive_range} for case {case_idx} "
                f"in {_MAX_ATTEMPTS} attempts; ranges look infeasible for this network"
            )
    return cases


def cases_to_jsonable(cases) -> list:
    return [{"evidence": c.evidence, "n_positive": c.n_positive} for c in cases]


def cases_from_jsonable(raw, net: Network) -> list:
    if not isinstance(raw, list):
        raise ValueError(f"cases must be a list, got {raw!r}")
    out = []
    for k, item in enumerate(raw):
        for key in ("evidence", "n_positive"):
            if not isinstance(item, dict) or key not in item:
                raise ValueError(f"case {k} lacks the required key {key!r}")
        if not isinstance(item["evidence"], dict) or type(item["n_positive"]) is not int:
            raise ValueError(f"case {k}: 'evidence' must be an object and 'n_positive' an integer")
        ev = {}
        for nid, value in item["evidence"].items():
            if nid not in net.index:
                raise ValueError(f"case references unknown node {nid!r}")
            if not isinstance(value, bool):
                raise ValueError(f"case evidence for {nid!r} must be boolean")
            ev[nid] = value
        out.append(TestCase(evidence=ev, n_positive=int(item["n_positive"])))
    return out
