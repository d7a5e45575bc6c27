"""Noisy-or belief networks over binary variables.

Every node carries a leak probability: the chance the node turns on even
though no modelled parent caused it.  An edge i -> j with strength p gives
parent i an independent chance p of activating j, so

    P(j = 1 | parents) = 1 - (1 - leak_j) * prod_{i true} (1 - p_ij)

The leak behaves exactly like one extra parent that is always on.  Node ids
are strings at the API surface; dense integer indices are used internally.
"""

from __future__ import annotations

import json

MODEL = "model"
SENSORY = "sensory"

STRICT = "strict"
PERMISSIVE = "permissive"

_NODE_KEYS = {"id", "kind", "leak"}
_EDGE_KEYS = {"from", "to", "p"}


class NetworkError(ValueError):
    """Raised for malformed network or evidence input."""


class Network:
    """Immutable noisy-or network.  Build via `build_network` or `parse_network`."""

    def __init__(self, nodes, edges):
        # nodes: list of (id, kind, leak); edges: list of (from_id, to_id, p)
        self.ids = [nid for nid, _, _ in nodes]
        self.index = {nid: i for i, nid in enumerate(self.ids)}
        if len(self.index) != len(self.ids):
            seen = set()
            for nid in self.ids:
                if nid in seen:
                    raise NetworkError(f"duplicate node id {nid!r}")
                seen.add(nid)
        self.kind = [kind for _, kind, _ in nodes]
        self.leak = [leak for _, _, leak in nodes]
        n = len(self.ids)
        self.parents = [[] for _ in range(n)]
        self.parent_p = [[] for _ in range(n)]
        self.children = [[] for _ in range(n)]
        self.child_p = [[] for _ in range(n)]
        self.edge_p = {}
        for uid, vid, p in edges:
            try:
                u, v = self.index[uid], self.index[vid]
            except KeyError as exc:
                raise NetworkError(f"edge references unknown node {exc.args[0]!r}")
            if (u, v) in self.edge_p:
                raise NetworkError(f"duplicate edge {uid!r} -> {vid!r}")
            self.edge_p[(u, v)] = p
            self.parents[v].append(u)
            self.parent_p[v].append(p)
            self.children[u].append(v)
            self.child_p[u].append(p)
        self.topo = self._toposort()

    def _toposort(self):
        n = len(self.ids)
        indeg = [len(ps) for ps in self.parents]
        queue = [i for i in range(n) if indeg[i] == 0]
        order = []
        while queue:
            i = queue.pop()
            order.append(i)
            for c in self.children[i]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        if len(order) != n:
            stuck = next(self.ids[i] for i in range(n) if indeg[i] > 0)
            raise NetworkError(f"cycle detected through node {stuck!r}")
        return order

    def survival(self, j, x) -> float:
        """P(node j stays off | its parents), with x[i] the value of node i:
        1 - leak, times 1 - p for each parent that is on, in parent order."""
        s = 1.0 - self.leak[j]
        for i, p in zip(self.parents[j], self.parent_p[j]):
            if x[i]:
                s *= 1.0 - p
        return s


def build_network(nodes, edges) -> Network:
    """Construct and structurally check a network.

    nodes: iterable of (id, kind, leak); edges: iterable of (from, to, p).
    Raises NetworkError on duplicate ids or edges, unknown references,
    probabilities outside [0, 1], or cycles.
    """
    nodes = list(nodes)
    edges = list(edges)
    for nid, kind, leak in nodes:
        if kind not in (MODEL, SENSORY):
            raise NetworkError(f"node {nid!r}: unknown kind {kind!r}")
        if not (isinstance(leak, (int, float)) and 0.0 <= leak <= 1.0):
            raise NetworkError(f"node {nid!r}: leak {leak!r} outside [0, 1]")
    for uid, vid, p in edges:
        if not (isinstance(p, (int, float)) and 0.0 <= p <= 1.0):
            raise NetworkError(f"edge {uid!r} -> {vid!r}: p {p!r} outside [0, 1]")
    return Network(nodes, edges)


def validate(net: Network) -> list[str]:
    """Check the strict profile's constraints, returning a list of violations.

    The strict profile guarantees every assignment has strictly positive
    probability (needed for sampler irreducibility): each leak must lie in
    the open interval (0, 1) and no edge may have p = 1.  The permissive
    profile adds nothing to the structural checks, so it has no validation.
    """
    problems = []
    for i, nid in enumerate(net.ids):
        leak = net.leak[i]
        if not (0.0 < leak < 1.0):
            problems.append(f"node {nid!r}: leak {leak} not in (0, 1)")
    for (u, v), p in net.edge_p.items():
        if p >= 1.0:
            problems.append(
                f"edge {net.ids[u]!r} -> {net.ids[v]!r}: p {p} leaves zero-probability states"
            )
    return problems


def _reject_unknown_keys(obj, allowed, what):
    extra = set(obj) - allowed
    if extra:
        raise NetworkError(f"{what}: unknown keys {sorted(extra)}")


def parse_network(text: str, profile: str = STRICT) -> Network:
    """Parse a network from its JSON file format.

    The format is an object with "nodes" ([{"id", "kind", "leak"}, ...]) and
    "edges" ([{"from", "to", "p"}, ...]).  Structural problems (bad syntax,
    duplicates, unknown references, out-of-range probabilities, cycles) are
    always errors; the strict profile additionally rejects unknown keys and
    any violation reported by `validate`.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkError(f"network file is not valid JSON: {exc}")
    if not isinstance(doc, dict) or not all(isinstance(doc.get(k), list) for k in ("nodes", "edges")):
        raise NetworkError('network file must be an object with "nodes" and "edges" lists')
    if profile == STRICT:
        _reject_unknown_keys(doc, {"nodes", "edges"}, "network")
    nodes = []
    for entry in doc["nodes"]:
        if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
            raise NetworkError(f"malformed node entry {entry!r}: needs a string \"id\"")
        if profile == STRICT:
            _reject_unknown_keys(entry, _NODE_KEYS, f"node {entry.get('id')!r}")
        nodes.append((entry["id"], entry.get("kind", MODEL), entry.get("leak", 0.0)))
    edges = []
    for entry in doc["edges"]:
        if not isinstance(entry, dict) or not all(isinstance(entry.get(k), str) for k in ("from", "to")):
            raise NetworkError(f"malformed edge entry {entry!r}: needs string \"from\" and \"to\"")
        if profile == STRICT:
            _reject_unknown_keys(entry, _EDGE_KEYS, f"edge {entry.get('from')!r} -> {entry.get('to')!r}")
        edges.append((entry["from"], entry["to"], entry.get("p", 0.0)))
    net = build_network(nodes, edges)
    if profile == STRICT:
        problems = validate(net)
        if problems:
            raise NetworkError("; ".join(problems))
    return net


def serialize_network(net: Network) -> str:
    """Render the network back to its JSON file format (parse round-trips)."""
    doc = {
        "nodes": [
            {"id": nid, "kind": net.kind[i], "leak": net.leak[i]}
            for i, nid in enumerate(net.ids)
        ],
        "edges": [
            {"from": net.ids[u], "to": net.ids[v], "p": p}
            for (u, v), p in sorted(net.edge_p.items())
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _detect_duplicate_keys(pairs):
    seen = set()
    out = {}
    for key, value in pairs:
        if key in seen:
            raise NetworkError(f"evidence assigns node {key!r} twice")
        seen.add(key)
        out[key] = value
    return out


def parse_evidence(text: str, net: Network) -> dict:
    """Parse an evidence file ({"node_id": bool, ...}) against a network."""
    try:
        doc = json.loads(text, object_pairs_hook=_detect_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise NetworkError(f"evidence file is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise NetworkError("evidence file must be a JSON object")
    for nid, value in doc.items():
        if nid not in net.index:
            raise NetworkError(f"evidence references unknown node {nid!r}")
        if not isinstance(value, bool):
            raise NetworkError(f"evidence for {nid!r} must be true or false")
    return dict(doc)
