"""Independent reference implementations used only by tests.

Deliberately written in the most naive style available (dict-based, full
enumeration, no caching, no log-space tricks) so that agreement with the
library is evidence of correctness rather than shared bugs.
"""

import itertools
import random
from dataclasses import dataclass

from diagbn.sampler import GIBBS


def factor(net, values, nid):
    """P(nid = values[nid] | parent values), straight from the definition."""
    j = net.index[nid]
    stay_off = 1.0 - net.leak[j]
    for i, p in zip(net.parents[j], net.parent_p[j]):
        if values[net.ids[i]]:
            stay_off *= 1.0 - p
    return 1.0 - stay_off if values[nid] else stay_off


def joint_prob(net, values):
    w = 1.0
    for nid in net.ids:
        w *= factor(net, values, nid)
    return w


def posteriors_by_enumeration(net, ev):
    """Exact posterior marginals: sum the joint over every completion."""
    free = [nid for nid in net.ids if nid not in ev]
    total = 0.0
    sums = {nid: 0.0 for nid in free}
    for bits in itertools.product((False, True), repeat=len(free)):
        values = dict(ev)
        values.update(zip(free, bits))
        w = joint_prob(net, values)
        total += w
        for nid, bit in zip(free, bits):
            if bit:
                sums[nid] += w
    out = {nid: (1.0 if v else 0.0) for nid, v in ev.items()}
    for nid in free:
        out[nid] = sums[nid] / total
    return out


def conditional_by_enumeration(net, fixed, nid):
    """P(nid=true | fixed assignment), marginalizing everything else."""
    assert nid not in fixed
    free = [n for n in net.ids if n not in fixed and n != nid]
    w = {False: 0.0, True: 0.0}
    for value in (False, True):
        for bits in itertools.product((False, True), repeat=len(free)):
            values = dict(fixed)
            values[nid] = value
            values.update(zip(free, bits))
            w[value] += joint_prob(net, values)
    return w[True] / (w[True] + w[False])


def ancestors(net, nid):
    out = set()
    stack = [net.index[nid]]
    while stack:
        j = stack.pop()
        for i in net.parents[j]:
            if net.ids[i] not in out:
                out.add(net.ids[i])
                stack.append(i)
    return out


def descendants(net, nid):
    out = set()
    stack = [net.index[nid]]
    while stack:
        j = stack.pop()
        for c in net.children[j]:
            if net.ids[c] not in out:
                out.add(net.ids[c])
                stack.append(c)
    return out


def unclamped_by_reachability(net, ev):
    """Free nodes kept by the clamp rule, computed declaratively:
    ancestors of true evidence (each true evidence node counting as its own
    ancestor), plus all descendants of those ancestors, minus evidence."""
    anc = set()
    for nid, value in ev.items():
        if value:
            anc.add(nid)
            anc |= ancestors(net, nid)
    keep = set(anc)
    for nid in anc:
        keep |= descendants(net, nid)
    return keep - set(ev)


def d_separated_by_trails(net, x, given, targets):
    """Active-trail search by explicit path enumeration.

    Walks every simple undirected path from x, tracking edge directions,
    and applies the chain/fork/collider rules directly.  Exponential, fine
    for the small graphs tests use.
    """
    given = set(given)
    targets = set(targets) - given - {x}
    if not targets:
        return True
    cond_anc = set(given)
    for z in given:
        cond_anc |= ancestors(net, z)

    def neighbors(nid):
        j = net.index[nid]
        for i in net.parents[j]:
            yield net.ids[i], "up"
        for c in net.children[j]:
            yield net.ids[c], "down"

    def walk(nid, came_in, visited):
        # came_in: None at the start; "down" if the previous edge pointed
        # into nid (nid is a head), "up" if it pointed out of nid's parent
        if nid in targets and came_in is not None:
            return True
        for nxt, step in neighbors(nid):
            if nxt in visited:
                continue
            if came_in is not None:
                if _triple_blocked(net, came_in, nid, step, given, cond_anc):
                    continue
            if walk(nxt, step, visited | {nxt}):
                return True
        return False

    return not walk(x, None, {x})


def _triple_blocked(net, came_in, mid, step_out, given, cond_anc):
    # came_in is the direction of the edge that reached mid; step_out the
    # direction of the edge leaving mid. mid is a collider iff the first
    # edge points into mid and the second also points into mid, i.e. we
    # arrived going "down" (parent->mid) and leave going "up" (mid<-child).
    if came_in == "down" and step_out == "up":
        return mid not in cond_anc  # collider: open iff mid or a descendant is conditioned
    return mid in given  # chain or fork: blocked iff conditioned


def random_dag(rng, n_nodes, edge_prob=0.3, p_range=(0.05, 0.95), leak_range=(0.01, 0.4)):
    """Arbitrary random DAG (not the package generator): nodes n0..nK with
    edges only from lower to higher index."""
    names = [f"n{i}" for i in range(n_nodes)]
    nodes = []
    for i, nid in enumerate(names):
        kind = "sensory" if rng.random() < 0.3 else "model"
        nodes.append((nid, kind, rng.uniform(*leak_range)))
    edges = []
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() < edge_prob:
                edges.append((names[i], names[j], rng.uniform(*p_range)))
    return nodes, edges


def random_evidence(rng, net, max_nodes=3, p_true=0.6):
    picks = rng.sample(list(net.ids), min(len(net.ids), rng.randint(0, max_nodes)))
    return {nid: rng.random() < p_true for nid in picks}


@dataclass(frozen=True)
class MoveProposal:
    """A candidate move: the nodes that may change and the joint values offered."""

    delta_nodes: tuple
    candidate_states: tuple
    rule: str = GIBBS


def metropolis_accept(weight_current, weight_proposed, rng) -> bool:
    """Accept a proposed state by probability min(1, proposed / current)."""
    if weight_current <= 0.0 or weight_proposed <= 0.0:
        raise ValueError("metropolis_accept needs strictly positive weights")
    if weight_proposed >= weight_current:
        return True
    return rng.random() < weight_proposed / weight_current


def transition_distribution(net, state, proposal: MoveProposal, scope=None) -> list:
    """Distribution over the proposal's candidate states under the Gibbs rule.

    Weights are products of the factors of the changed nodes and their
    children (their whole restricted neighbourhood); factors untouched by the
    move cancel and are skipped.  `scope` optionally narrows each changed
    node's children to the flow map's evidential children.
    """
    if proposal.rule != GIBBS:
        raise ValueError("transition_distribution applies to the Gibbs rule")
    delta = [net.index[nid] for nid in proposal.delta_nodes]
    current = tuple(bool(state.x[j]) for j in delta)
    candidates = list(proposal.candidate_states)
    if len(set(candidates)) != len(candidates):
        raise ValueError("candidate states must be distinct")
    if current not in candidates:
        raise ValueError("candidate states must include the current assignment")
    touched = []
    seen = set()
    for j in delta:
        if j not in seen:
            seen.add(j)
            touched.append(j)
        kids = net.children[j] if scope is None else scope.get(j, net.children[j])
        for c in kids:
            if c not in seen:
                seen.add(c)
                touched.append(c)
    overlay = {}
    weights = []
    for cand in candidates:
        if len(cand) != len(delta):
            raise ValueError("candidate state arity differs from delta_nodes")
        overlay = dict(zip(delta, cand))
        w = 1.0
        for k in touched:
            s = 1.0 - net.leak[k]
            for i, p in zip(net.parents[k], net.parent_p[k]):
                val = overlay.get(i, state.x[i])
                if val:
                    s *= 1.0 - p
            val = overlay.get(k, state.x[k])
            w *= (1.0 - s) if val else s
        weights.append(w)
    total = sum(weights)
    if total <= 0.0:
        raise ValueError("all candidate states have zero probability")
    return [w / total for w in weights]


def _reference_qualifying_children(state, strategy):
    """Per free node, the children whose shared parents may pair this sweep."""
    net = state.net
    if strategy.cover_gated:
        # true evidence nodes and their ancestors: positive diagnostic reach
        good = [False] * len(net.ids)
        stack = [net.index[nid] for nid, value in state.ev.items() if value]
        for j in stack:
            good[j] = True
        while stack:
            j = stack.pop()
            for i in net.parents[j]:
                if not good[i]:
                    good[i] = True
                    stack.append(i)
        return lambda c: good[c]
    # child-true policies: the shared child is currently on, observed or sampled
    x = state.x
    return lambda c: bool(x[c])


def reference_pair_nodes(state, strategy):
    """The pairing as first written: every candidate structure rebuilt per
    call.  The library's per-chain plan must reproduce its pairs, its
    singles and its RNG draws exactly."""
    net = state.net
    qualifies = _reference_qualifying_children(state, strategy)
    if strategy.flow_aware:
        movable = [j for j in state.free if not state.forward_sampled[j]]
    else:
        movable = list(state.free)
    movable_set = set(movable)
    candidates = {}
    for j in movable:
        kids = [c for c in net.children[j] if qualifies(c)]
        if strategy.flow_aware:
            # pair only through children that carry evidence flow: a
            # forward-sampled child couples nothing in the collapsed
            # posterior, and gating on its sampled value biases the chain
            kids = [c for c in kids if not state.forward_sampled[c]]
        if kids:
            candidates[j] = kids
    order = list(candidates)
    state.rng.shuffle(order)
    matched = {}
    for a in order:
        if a in matched:
            continue
        partners = []
        seen = set()
        for c in candidates[a]:
            for b in net.parents[c]:
                if b != a and b in candidates and b not in matched and b not in seen:
                    seen.add(b)
                    partners.append(b)
        if partners:
            b = partners[state.rng.randrange(len(partners))]
            matched[a] = b
            matched[b] = a
    pairs = []
    done = set()
    for a in order:
        if a in matched and a not in done:
            b = matched[a]
            pairs.append((a, b))
            done.add(a)
            done.add(b)
    singles = [j for j in movable if j not in done]
    assert 2 * len(pairs) + len(singles) == len(movable_set)
    return pairs, singles
