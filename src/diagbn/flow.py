"""Evidence geometry: clamping and per-node evidence-flow classification.

Diagnostic queries fix a handful of sensory nodes and ask for posteriors over
the model nodes.  Two structural facts about the evidence make sampling much
cheaper and both are computed here.

Clamping: a node can only have been involved in the observed positive
evidence if it is an ancestor of a true evidence node or a consequence of
such an ancestor.  Everything else is pinned false for the whole run.  A
true evidence node counts as its own ancestor; false evidence emits no
signals (false observations rule causes out, they never implicate them).

Flow classification: a free node whose children carry no evidence sees only
causal flow from its parents and can be redrawn directly from its noisy-or
distribution (forward-sampled).  A node with at least one child that is an
evidence node, or has an evidence descendant, must be conditioned on those
children too (diagnostic-sampled).  The blanket mode is the map a sampler
without flow-awareness runs on: every child counts as evidential and every
free node is diagnostic-sampled, so each conditional is the textbook Markov
blanket one.  The flow map is the only place flow-awareness enters a chain.

Both facts are closures of the evidence under one graph walk, `_closure`.
The evidence cover is the true evidence closed over parents; clamping keeps
free the cover closed over children; a child carries evidence when it lies
in the closure of all the evidence over parents.  Both clamp passes, and so
every chain, first hold the evidence to `network.check_evidence`.
"""

from __future__ import annotations

from collections import namedtuple

from .network import Network, check_evidence

CLAMPED = "clamped"
FORWARD_SAMPLED = "forward-sampled"
DIAGNOSTIC_SAMPLED = "diagnostic-sampled"


class ClampResult(namedtuple("ClampResult", "clamped_false unclamped")):
    """Partition of the non-evidence nodes into pinned-false and free."""

    __slots__ = ()


class FlowInfo(namedtuple("FlowInfo", "status evidential_children conditioning_set")):
    """A non-evidence node's status, its evidential children (a tuple) and
    the node ids its conditional reads (a frozenset)."""

    __slots__ = ()


def clamp_pass(net: Network, ev: dict) -> ClampResult:
    """Two-phase reachability: the evidence cover, then its descendants.

    Returns the partition, which is a function of the evidence *set*: the
    order evidence nodes are listed in does not matter.
    """
    check_evidence(net, ev)
    reached = _closure(evidence_cover(net, ev), net.children)
    evidence_idx = {net.index[nid] for nid in ev}
    unclamped = reached - evidence_idx
    clamped = set(range(len(net.ids))) - reached - evidence_idx
    return ClampResult(
        clamped_false=frozenset(net.ids[i] for i in clamped),
        unclamped=frozenset(net.ids[i] for i in unclamped),
    )


def no_clamp(net: Network, ev: dict) -> ClampResult:
    """The trivial partition used when a strategy runs without clamping."""
    check_evidence(net, ev)
    free = frozenset(nid for nid in net.ids if nid not in ev)
    return ClampResult(clamped_false=frozenset(), unclamped=free)


def classify_flow(net: Network, ev: dict, clamp: ClampResult, blanket: bool = False) -> dict:
    """FlowInfo for every non-evidence node.

    Free nodes are diagnostic-sampled exactly when they have at least one
    evidential child; their conditioning set is parents + evidential children
    + those children's other parents.  Forward-sampled nodes condition on
    their parents alone.  Clamped nodes get an empty FlowInfo.  With
    blanket=True every child is evidential and every free node, childless or
    not, is diagnostic-sampled: the whole Markov blanket is conditioned on.
    Evidence failing `check_evidence` raises ValueError.
    """
    check_evidence(net, ev)
    # every evidence node and every node with an evidence descendant
    carries = None if blanket else _closure((net.index[nid] for nid in ev), net.parents)
    out = {}
    for j, nid in enumerate(net.ids):
        if nid in ev:
            continue
        if nid in clamp.clamped_false:
            out[nid] = FlowInfo(CLAMPED, (), frozenset())
            continue
        lam = tuple(net.ids[c] for c in net.children[j] if blanket or c in carries)
        cond = {net.ids[i] for i in net.parents[j]}
        for cid in lam:
            cond.add(cid)
            cond.update(net.ids[i] for i in net.parents[net.index[cid]])
        cond.discard(nid)
        status = DIAGNOSTIC_SAMPLED if lam or blanket else FORWARD_SAMPLED
        out[nid] = FlowInfo(status, lam, frozenset(cond))
    return out


def evidence_cover(net: Network, ev: dict) -> set:
    """Indices of the true evidence nodes and all their ancestors: the nodes
    with positive diagnostic reach, which cover-gated pair moves pair through
    and clamping keeps free, with their descendants."""
    return _closure((net.index[nid] for nid, value in ev.items() if value), net.parents)


def _closure(start, links) -> set:
    """The nodes in `start` and every node reached from them through
    `links`: `net.parents` for ancestors, `net.children` for descendants."""
    seen = set(start)
    stack = list(seen)
    while stack:
        for i in links[stack.pop()]:
            if i not in seen:
                seen.add(i)
                stack.append(i)
    return seen
