"""Independent reference implementations used only by tests.

Deliberately written in the most naive style available (dict-based, full
enumeration, no caching, no log-space tricks) so that agreement with the
library is evidence of correctness rather than shared bugs.  The
`reference_*` functions are earlier library versions kept verbatim: a
rewrite of the library must reproduce them exactly.

`noisy_or_prob`, `joint_log_prob`, `markov_blanket` and `d_separated` are
references that only tests call, kept verbatim from the library, which
does not ship them: tests check `Network.survival` and `classify_flow`
against them.  `ForkRng` and `sweep_kernel` give the exact transition
kernel of the sweep the library runs, by replaying the unmodified
`run_sweep` down every path its random draws can take.
"""

import itertools
import math
import random
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from diagbn import flow as flowmod
from diagbn.exact import EnumerationCapError, TransitionMatrix
from diagbn.flow import FlowInfo, evidence_cover
from diagbn.network import Network, NetworkError, validate
from diagbn.sampler import (
    GIBBS,
    OPTIMIZED_FWD_BWD,
    SWAP_FRACTION,
    ChainRandom,
    SamplerState,
    StrategySpec,
    _PairPlan,
    block_pair_move,
    clamp_and_flow,
    estimate_marginals,
    forward_redraw,
    pair_scope,
    run_sweep,
    setup_chain,
    single_site_move,
    swap_pair_move,
)


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


def posteriors_by_fractions(net, ev):
    """Exact posterior marginals in rational arithmetic: every leak and link
    probability is taken as the exact value of its float, so the only
    rounding is the final conversion of each marginal to a float."""
    from fractions import Fraction

    leak = [Fraction(q) for q in net.leak]
    keep = [[(i, 1 - Fraction(p)) for i, p in zip(net.parents[j], net.parent_p[j])]
            for j in range(len(net.ids))]
    free = [net.index[nid] for nid in net.ids if nid not in ev]
    x = [0] * len(net.ids)
    for nid, value in ev.items():
        x[net.index[nid]] = 1 if value else 0
    total = Fraction(0)
    sums = [Fraction(0)] * len(free)
    for bits in itertools.product((0, 1), repeat=len(free)):
        for j, bit in zip(free, bits):
            x[j] = bit
        w = Fraction(1)
        for j in range(len(net.ids)):
            stay_off = 1 - leak[j]
            for i, q in keep[j]:
                if x[i]:
                    stay_off *= q
            w *= (1 - stay_off) if x[j] else stay_off
        total += w
        for k, bit in enumerate(bits):
            if bit:
                sums[k] += w
    out = {nid: (1.0 if v else 0.0) for nid, v in ev.items()}
    for j, acc in zip(free, sums):
        out[net.ids[j]] = float(acc / total)
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


def noisy_or_prob(net: Network, nid: str, parent_values: dict) -> float:
    """P(nid = 1 | parents) for one assignment of the node's parents.

    parent_values must assign a bool to exactly the parents of nid.
    """
    j = net.index[nid]
    given = set(parent_values)
    expected = {net.ids[i] for i in net.parents[j]}
    if given != expected:
        missing = expected - given
        extra = given - expected
        raise NetworkError(
            f"node {nid!r}: parent assignment mismatch"
            + (f", missing {sorted(missing)}" if missing else "")
            + (f", extraneous {sorted(extra)}" if extra else "")
        )
    return 1.0 - net.survival(j, {net.index[k]: v for k, v in parent_values.items()})


def joint_log_prob(net: Network, assignment: dict) -> float:
    """Log probability of a complete assignment; -inf for impossible states."""
    if set(assignment) != set(net.ids):
        raise NetworkError("assignment must cover every node exactly once")
    values = [bool(assignment[nid]) for nid in net.ids]
    total = 0.0
    for j in range(len(values)):
        surv = net.survival(j, values)
        prob = 1.0 - surv if values[j] else surv
        if prob <= 0.0:
            return float("-inf")
        total += math.log(prob)
    return total


def markov_blanket(net: Network, nid: str) -> set:
    """Parents, children and co-parents of the node's children."""
    j = net.index[nid]
    blanket = set(net.parents[j])
    for c in net.children[j]:
        blanket.add(c)
        blanket.update(net.parents[c])
    blanket.discard(j)
    return {net.ids[i] for i in blanket}


def d_separated(net: Network, nid: str, given, targets) -> bool:
    """True iff no active trail joins nid to any target given the conditioning set.

    Standard ball-bouncing reachability: chains and forks are blocked at
    conditioned nodes, colliders are open only when the collider or one of
    its descendants is conditioned on.  Targets inside the conditioning set
    are fixed values and count as separated.
    """
    for name in itertools.chain([nid], given, targets):
        if name not in net.index:
            raise ValueError(f"unknown node {name!r}")
    x = net.index[nid]
    z = {net.index[g] for g in given}
    if x in z:
        raise ValueError(f"{nid!r} cannot be in its own conditioning set")
    goal = {net.index[t] for t in targets} - z - {x}
    if not goal:
        return True
    # ancestors of the conditioning set, inclusive
    anc_z = set(z)
    stack = list(z)
    while stack:
        j = stack.pop()
        for i in net.parents[j]:
            if i not in anc_z:
                anc_z.add(i)
                stack.append(i)
    visited = set()
    queue = [(x, "up")]
    while queue:
        j, direction = queue.pop()
        if (j, direction) in visited:
            continue
        visited.add((j, direction))
        if j in goal and j != x:
            return False
        if direction == "up":
            if j in z:
                continue
            for i in net.parents[j]:
                queue.append((i, "up"))
            for c in net.children[j]:
                queue.append((c, "down"))
        else:
            if j not in z:
                for c in net.children[j]:
                    queue.append((c, "down"))
            if j in anc_z:
                for i in net.parents[j]:
                    queue.append((i, "up"))
    return True


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


def conditional_prob(net, state, nid, info: FlowInfo) -> float:
    """P(nid = 1 | its conditioning scope) computed fresh from the state values.

    For a forward-sampled node this is exactly the noisy-or distribution given
    its parents.  For a diagnostic-sampled node the evidential children's
    factors are folded in and the two-value distribution normalized.  This is
    the reference implementation; the sweep loops use the cached equivalent.
    """
    if nid in state.ev or info.status == flowmod.CLAMPED:
        raise ValueError(f"{nid!r} is fixed by evidence or clamping, not sampled")
    x = state.x
    j = net.index[nid]
    s = 1.0 - net.leak[j]
    for i, p in zip(net.parents[j], net.parent_p[j]):
        if x[i]:
            s *= 1.0 - p
    p_on = 1.0 - s
    if info.status == flowmod.FORWARD_SAMPLED or not info.evidential_children:
        return p_on
    w1 = p_on
    w0 = s
    for cid in info.evidential_children:
        c = net.index[cid]
        sc = 1.0 - net.leak[c]
        q_self = 1.0
        for i, p in zip(net.parents[c], net.parent_p[c]):
            if i == j:
                q_self = 1.0 - p
            elif x[i]:
                sc *= 1.0 - p
        s1 = sc * q_self
        s0 = sc
        if x[c]:
            w1 *= 1.0 - s1
            w0 *= 1.0 - s0
        else:
            w1 *= s1
            w0 *= s0
    return w1 / (w1 + w0)


def reference_block_pair_move(state: SamplerState, a, b, rule):
    """The block move as first written: weights in a list, masses by
    generator sums.  The library's straight-line move must reproduce its
    values, credits, cost and RNG draws exactly."""
    acc = state.acc
    touched = pair_scope(state, a, b)
    stale = reference_stale(state)
    cache = state.odds_cache
    for k in stale[a] + stale[b]:
        cache[k] = None
    # walk the four assignments by single flips: (a,b), (a,!b), (!a,!b), (!a,b)
    weights = [0.0] * 4
    weights[0] = state.restricted_weight(touched)
    state.toggle(b)
    weights[1] = state.restricted_weight(touched)
    state.toggle(a)
    weights[2] = state.restricted_weight(touched)
    state.toggle(b)
    weights[3] = state.restricted_weight(touched)
    state.cost += 4 * len(touched)
    # current position in the walk is state 3; values of a at each walk state
    x = state.x
    av = 1 - x[a]  # a's original value (a was flipped once)
    bv = x[b]  # b is back to its original value
    a_vals = [av, av, 1 - av, 1 - av]
    b_vals = [bv, 1 - bv, 1 - bv, bv]
    total = sum(weights)
    a_mass = sum(w for w, v in zip(weights, a_vals) if v)
    b_mass = sum(w for w, v in zip(weights, b_vals) if v)
    acc.sums[a] += a_mass / total
    acc.sums[b] += b_mass / total
    acc.counts[a] += 1
    acc.counts[b] += 1
    if rule == GIBBS:
        u = state.rng.random() * total
        target = 3
        run = 0.0
        for k in range(4):
            run += weights[k]
            if u < run:
                target = k
                break
    else:
        # the chain is logically still at walk state 0; propose one of the others
        target = 1 + state.rng.randrange(3)
        if not (weights[target] >= weights[0] or state.rng.random() < weights[target] / weights[0]):
            target = 0
    if a_vals[target] != x[a]:
        state.toggle(a)
    if b_vals[target] != x[b]:
        state.toggle(b)


def reference_single_site_move(state: SamplerState, n, rule):
    """The single-site move as the single-site sweep called it, once per
    node.  The library's sweep loop must reproduce its values, credits,
    cached conditionals, cost and RNG draws exactly."""
    hit = state.odds_cache[n]
    if hit is None:
        odds = reference_cond_odds(state, n)
        hit = state.odds_cache[n] = (odds, odds / (1.0 + odds))
    odds, p_on = hit
    acc = state.acc
    acc.sums[n] += p_on
    acc.counts[n] += 1
    state.cost += state.move_cost[n]
    if rule == GIBBS:
        want = 1 if state.rng.random() < p_on else 0
        if want != state.x[n]:
            state.flip(n)
    else:
        ratio = (1.0 - p_on) / p_on if state.x[n] else odds
        if ratio >= 1.0 or state.rng.random() < ratio:
            state.flip(n)


def reference_cond_odds(state: SamplerState, n) -> float:
    """Odds of n being on given its conditioning scope, from the caches."""
    surv = state.surv
    x = state.x
    sn = surv[n]
    odds = (1.0 - sn) / sn
    xn = x[n]
    for c, q in zip(state.scope_children[n], state.scope_q[n]):
        sc = surv[c]
        if xn:
            s1 = sc
            s0 = sc / q
        else:
            s0 = sc
            s1 = sc * q
        if x[c]:
            odds *= (1.0 - s1) / (1.0 - s0)
        else:
            odds *= q
    return odds


def reference_stale(state: SamplerState) -> list:
    """The invalidation rule as first written, blind to values: k -> every
    diagnostic-sampled node whose conditional reads x or surv of a node
    that a flip of k may change."""
    net = state.net
    # cond_odds(d) reads x and surv of d and of its scope children, and
    # surv of a node changes when one of its parents flips
    stale = [[] for _ in range(len(net.ids))]
    for d in state.diagnostic:
        reads = {d, *net.parents[d]}
        for c in state.scope_children[d]:
            reads.add(c)
            reads.update(net.parents[c])
        for k in reads:
            stale[k].append(d)
    return stale


def reference_flip(state: SamplerState, stale, n):
    """The flip as first written, clearing `reference_stale`'s list."""
    x = state.x
    surv = state.surv
    if x[n]:
        x[n] = 0
        for c, q in zip(state.net.children[n], state.child_q[n]):
            surv[c] /= q
    else:
        x[n] = 1
        for c, q in zip(state.net.children[n], state.child_q[n]):
            surv[c] *= q
    cache = state.odds_cache
    for k in stale[n]:
        cache[k] = None


def reference_run_chains(net, ev, strategy, sweeps, seeds, burn_in, checkpoints=()):
    """The chain loop as first written, one `run_sweep` call per sweep with
    the checkpoint, burn-in and refresh checks after each.  The library's
    stretch-at-a-time loop must reproduce its chains exactly."""
    if sweeps < 1:
        raise ValueError(f"sweeps must be at least 1, got {sweeps}")
    if not 0 <= burn_in < sweeps:
        raise ValueError(f"burn-in must be within [0, sweeps), got {burn_in} with {sweeps} sweeps")
    problems = validate(net)
    if problems:
        raise ValueError("network fails strict validation: " + "; ".join(problems))
    wanted = set(checkpoints)
    runs = []
    for seed in seeds:
        state = setup_chain(net, ev, strategy, ChainRandom(seed))
        marks = {}
        t0 = time.perf_counter()
        for s in range(1, sweeps + 1):
            run_sweep(state, strategy, 1)
            if s in wanted:
                marks[s] = estimate_marginals(net, ev, state.clamp, state.acc)
            if s == burn_in:
                state.acc.reset()
            if s % 20000 == 0:
                state.refresh_survivals()  # bound float drift on very long runs
        runs.append((state, marks, time.perf_counter() - t0))
    return runs


def reference_pair_nodes(state: SamplerState, strategy: StrategySpec):
    """`pair_nodes` as first written on the fixed plan, with a set of
    matched nodes.  The library's pairing must make the same pairs and
    draws."""
    plan = state.pair_plan
    if plan is None or plan.strategy is not strategy:
        plan = state.pair_plan = _PairPlan(state, strategy)
    spouses = plan.spouses
    rng = state.rng
    order = list(spouses)
    rng.shuffle(order)
    matched = set()
    pairs = []
    for a in order:
        if a in matched:
            continue
        partners = [b for b in spouses[a] if b not in matched]
        if partners:
            b = partners[rng.randrange(len(partners))]
            matched.add(a)
            matched.add(b)
            pairs.append((a, b))
    singles = [j for j in state.diagnostic if j not in matched]
    assert 2 * len(pairs) + len(singles) == len(state.diagnostic)
    return pairs, singles


def reference_pair_event(state: SamplerState, strategy: StrategySpec, a, b):
    """Move a pair from `pair_nodes` once.

    A pair whose gate children are all off moves as two single-site moves;
    otherwise a block policy makes the block move, and a swap policy swaps
    on a fraction `SWAP_FRACTION` of events and moves a and b single-site
    on the rest.  No move on a or b changes a gate child, so every branch
    keeps the posterior invariant on its own.
    """
    gate = state.pair_plan.gates.get((a, b))
    rule = strategy.rule
    if gate is None or any(state.x[c] for c in gate):
        if strategy.pair_move == "block":
            block_pair_move(state, a, b, rule)
            return
        if state.rng.random() < SWAP_FRACTION:
            swap_pair_move(state, a, b, rule)
            return
    single_site_move(state, a, rule)
    single_site_move(state, b, rule)


def _reference_run_pair_events(state, strategy, pairs, singles):
    events = pairs + singles
    state.rng.shuffle(events)
    for ev in events:
        if type(ev) is tuple:
            reference_pair_event(state, strategy, *ev)
        else:
            single_site_move(state, ev, strategy.rule)


def _reference_fwd_bwd_sweep(state: SamplerState, strategy: StrategySpec):
    """One pass of the alternating schedule.

    Forward passes visit every free node in topological order, redrawing
    forward-sampled nodes from their freshly updated parents; backward passes
    revisit only the diagnostic-sampled nodes, in reverse order.  Pairings
    are fresh per pass, and a pair makes its `reference_pair_event` at the
    position of whichever of its nodes the pass reaches first, gate shut or
    not.
    """
    backward = state.sweep_idx % 2 == 1
    pairs, _ = reference_pair_nodes(state, strategy)
    partner = dict(pairs)
    partner.update((b, a) for a, b in pairs)
    order = state.topo_diagnostic_reversed if backward else state.topo_free
    done = set()
    for j in order:
        if j in done:
            continue
        if state.forward_sampled[j]:
            forward_redraw(state, j)
            continue
        if j in partner:
            reference_pair_event(state, strategy, j, partner[j])
            done.add(partner[j])
        else:
            single_site_move(state, j, strategy.rule)


def reference_pair_sweep(state: SamplerState, strategy: StrategySpec):
    """One sweep of a pair schedule as first written: a call per pair
    event, per single-site move and per forward redraw.  The library's
    stretch loop must reproduce its values, credits, cached conditionals,
    cost and RNG draws exactly."""
    if strategy.move_policy == OPTIMIZED_FWD_BWD:
        _reference_fwd_bwd_sweep(state, strategy)
    else:
        pairs, singles = reference_pair_nodes(state, strategy)
        _reference_run_pair_events(state, strategy, pairs, singles)
        for j in state.topo_forward:
            forward_redraw(state, j)
    state.sweep_idx += 1


# ---------------------------------------------------------------------------
# the exact oracle as first written: one Python pass per enumerated state


def _reference_factor(net, x, j) -> float:
    s = 1.0 - net.leak[j]
    for i, p in zip(net.parents[j], net.parent_p[j]):
        if x[i]:
            s *= 1.0 - p
    return (1.0 - s) if x[j] else s

def reference_exact_posteriors(net: Network, ev: dict, cap: int = 22) -> dict:
    """The enumeration posteriors as first written (Gray-code scan).

    Posterior marginals by summing the joint over all free assignments.

    Iterates free states in Gray-code order so each step flips one node and
    touches only that node's factor and its children's factors.  Zero factors
    are counted rather than multiplied so permissive networks (zero leaks,
    p = 1 edges) enumerate exactly.  Two passes: one to find the peak log
    weight, one to accumulate stably relative to it.
    """
    free = [net.index[nid] for nid in net.ids if nid not in ev]
    if len(free) > cap:
        raise EnumerationCapError(
            f"{len(free)} free nodes exceed the enumeration cap of {cap}"
        )
    n = len(net.ids)
    x = [0] * n
    for nid, value in ev.items():
        x[net.index[nid]] = 1 if value else 0

    def scan(peak, accumulate):
        # reset free nodes to the all-false Gray origin
        for j in free:
            x[j] = 0
        logw = 0.0
        zeros = 0
        for j in range(n):
            f = _reference_factor(net, x, j)
            if f == 0.0:
                zeros += 1
            else:
                logw += math.log(f)
        total = 0.0
        sums = [0.0] * len(free)
        best = float("-inf")
        if zeros == 0:
            best = logw
            if accumulate:
                total += math.exp(logw - peak)
        for step in range(1, 1 << len(free)):
            k = (step & -step).bit_length() - 1
            i = free[k]
            affected = [i] + net.children[i]
            for j in affected:
                f = _reference_factor(net, x, j)
                if f == 0.0:
                    zeros -= 1
                else:
                    logw -= math.log(f)
            x[i] ^= 1
            for j in affected:
                f = _reference_factor(net, x, j)
                if f == 0.0:
                    zeros += 1
                else:
                    logw += math.log(f)
            if zeros == 0:
                if logw > best:
                    best = logw
                if accumulate:
                    w = math.exp(logw - peak)
                    total += w
                    for idx, j in enumerate(free):
                        if x[j]:
                            sums[idx] += w
        return best, total, sums

    peak, _, _ = scan(0.0, accumulate=False)
    if peak == float("-inf"):
        raise ValueError("evidence has zero probability under this network")
    _, total, sums = scan(peak, accumulate=True)
    out = {}
    for nid, value in ev.items():
        out[nid] = 1.0 if value else 0.0
    for idx, j in enumerate(free):
        out[net.ids[j]] = sums[idx] / total
    return out

def _reference_scoped_children(net, flow, j):
    # empty for forward-sampled nodes: they have no evidential children
    return [net.index[c] for c in flow[net.ids[j]].evidential_children]


def _reference_restricted_weight(net, x, nodes) -> float:
    w = 1.0
    for k in nodes:
        w *= _reference_factor(net, x, k)
    return w


def _reference_pair_scope(net, flow, a, b):
    touched = [a, b]
    seen = {a, b}
    for j in (a, b):
        for c in _reference_scoped_children(net, flow, j):
            if c not in seen:
                seen.add(c)
                touched.append(c)
    return touched

def reference_transition_matrix(
    net: Network,
    ev: dict,
    strategy: StrategySpec,
    cap: int = 12,
    collapse_forward: bool = False,
) -> TransitionMatrix:
    """The transition-matrix oracle as first written: every kernel entry
    computed state by state from scalar factors.

    Build every kernel the strategy's sweeps are made of, exactly.

    With collapse_forward=True the state space enumerates only the
    diagnostic-sampled nodes and pi is the posterior with the forward
    region summed out; flow-aware single and pair kernels are honest
    reversible chains on that space.  Otherwise the space covers all free
    nodes and forward redraws appear as explicit kernels in product stages.
    """
    clamp, flow = clamp_and_flow(net, ev, strategy)
    free = sorted(net.index[nid] for nid in clamp.unclamped)
    fs = {j for j in free if flow[net.ids[j]].status == flowmod.FORWARD_SAMPLED}
    ds = [j for j in free if j not in fs]
    chain_nodes = ds if collapse_forward else free
    if len(chain_nodes) > cap:
        raise EnumerationCapError(
            f"{len(chain_nodes)} chain nodes exceed the transition matrix cap of {cap}"
        )
    size = 1 << len(chain_nodes)
    pos = {j: k for k, j in enumerate(chain_nodes)}

    base = [0] * len(net.ids)
    for nid, value in ev.items():
        base[net.index[nid]] = 1 if value else 0
    states = []
    xvecs = []
    for s in range(size):
        x = list(base)
        for k, j in enumerate(chain_nodes):
            x[j] = (s >> k) & 1
        states.append(tuple((s >> k) & 1 for k in range(len(chain_nodes))))
        xvecs.append(x)

    if collapse_forward:
        # forward region sums out: weigh only the remaining nodes' factors
        scored = [j for j in range(len(net.ids)) if j not in fs]
        weights = np.array([_reference_restricted_weight(net, x, scored) for x in xvecs])
    else:
        weights = np.array([_reference_restricted_weight(net, x, range(len(net.ids))) for x in xvecs])
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("state space has zero total probability")
    pi = weights / total

    moves = []

    def add_move(label, entries):
        rows, cols, vals = zip(*entries)
        mat = sparse.csr_matrix((vals, (rows, cols)), shape=(size, size))
        sums = np.asarray(mat.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0, atol=1e-12)
        moves.append((label, mat))

    def single_entries(j, rule):
        scope = [j] + _reference_scoped_children(net, flow, j)
        entries = []
        for s, x in enumerate(xvecs):
            old = x[j]
            x[j] = 1
            w1 = _reference_restricted_weight(net, x, scope)
            x[j] = 0
            w0 = _reference_restricted_weight(net, x, scope)
            x[j] = old
            q1 = w1 / (w1 + w0)
            s_on = s | (1 << pos[j])
            s_off = s & ~(1 << pos[j])
            if rule == GIBBS:
                entries.append((s, s_on, q1))
                entries.append((s, s_off, 1.0 - q1))
            else:
                w_cur = w1 if old else w0
                w_flip = w0 if old else w1
                alpha = min(1.0, w_flip / w_cur)
                flip = s_off if old else s_on
                entries.append((s, flip, alpha))
                if alpha < 1.0:
                    entries.append((s, s, 1.0 - alpha))
        return entries

    def redraw_entries(j):
        entries = []
        for s, x in enumerate(xvecs):
            sself = 1.0 - net.leak[j]
            for i, p in zip(net.parents[j], net.parent_p[j]):
                if x[i]:
                    sself *= 1.0 - p
            q1 = 1.0 - sself
            entries.append((s, s | (1 << pos[j]), q1))
            entries.append((s, s & ~(1 << pos[j]), 1.0 - q1))
        return entries

    def pair_entries(a, b, kind, rule, gate_children):
        scope = _reference_pair_scope(net, flow, a, b)
        bit_a, bit_b = 1 << pos[a], 1 << pos[b]
        entries = []
        for s, x in enumerate(xvecs):
            if gate_children is not None and not any(x[c] for c in gate_children):
                entries.append((s, s, 1.0))
                continue
            va, vb = x[a], x[b]
            if kind == "swap":
                if va == vb:
                    entries.append((s, s, 1.0))
                    continue
                x[a], x[b] = vb, va
                w_swap = _reference_restricted_weight(net, x, scope)
                x[a], x[b] = va, vb
                w_cur = _reference_restricted_weight(net, x, scope)
                t = (s & ~(bit_a | bit_b)) | (bit_a if vb else 0) | (bit_b if va else 0)
                if rule == GIBBS:
                    p_move = w_swap / (w_cur + w_swap)
                else:
                    p_move = min(1.0, w_swap / w_cur)
                entries.append((s, t, p_move))
                if p_move < 1.0:
                    entries.append((s, s, 1.0 - p_move))
            else:
                ws = {}
                for ca in (0, 1):
                    for cb in (0, 1):
                        x[a], x[b] = ca, cb
                        ws[(ca, cb)] = _reference_restricted_weight(net, x, scope)
                x[a], x[b] = va, vb
                targets = {
                    (ca, cb): (s & ~(bit_a | bit_b)) | (bit_a if ca else 0) | (bit_b if cb else 0)
                    for (ca, cb) in ws
                }
                if rule == GIBBS:
                    z = sum(ws.values())
                    for key, w in ws.items():
                        entries.append((s, targets[key], w / z))
                else:
                    w_cur = ws[(va, vb)]
                    stay = 1.0
                    for key, w in ws.items():
                        if key == (va, vb):
                            continue
                        alpha = min(1.0, w / w_cur) / 3.0
                        entries.append((s, targets[key], alpha))
                        stay -= alpha
                    entries.append((s, s, stay))
        merged = {}
        for r, c, v in entries:
            merged[(r, c)] = merged.get((r, c), 0.0) + v
        return [(r, c, v) for (r, c), v in merged.items()]

    def spouse_pairs():
        """Unordered diagnostic-sampled pairs sharing a child that is not
        forward-sampled, with the policy's gate."""
        cover = evidence_cover(net, ev) if strategy.cover_gated else None
        seenp = {}
        movable = set(ds)
        for c in range(len(net.ids)):
            if c in fs:
                continue
            ps = [i for i in net.parents[c] if i in movable]
            for ai in range(len(ps)):
                for bi in range(ai + 1, len(ps)):
                    a, b = sorted((ps[ai], ps[bi]))
                    if cover is not None:
                        if c in cover:
                            seenp[(a, b)] = None
                    else:
                        seenp.setdefault((a, b), set()).add(c)
        return sorted((a, b, None if gate is None else sorted(gate)) for (a, b), gate in seenp.items())

    mixture_labels = []
    # every policy keeps single-site moves for nodes the pairing leaves over
    for j in ds:
        label = ("single", net.ids[j])
        add_move(label, single_entries(j, strategy.rule))
        mixture_labels.append(label)
    kind = strategy.pair_move
    if kind is not None:
        for a, b, gate in spouse_pairs():
            label = (kind, net.ids[a], net.ids[b])
            add_move(label, pair_entries(a, b, kind, strategy.rule, gate))
            mixture_labels.append(label)
    fs_labels = []
    if not collapse_forward:
        for j in net.topo:
            if j in fs:
                label = ("fs", net.ids[j])
                add_move(label, redraw_entries(j))
                fs_labels.append(label)

    if strategy.move_policy == OPTIMIZED_FWD_BWD and not collapse_forward:
        fwd = []
        for j in net.topo:
            if j in fs:
                fwd.append(("fs", net.ids[j]))
            elif j in ds:
                fwd.append(("single", net.ids[j]))
        bwd = [("single", net.ids[j]) for j in reversed(net.topo) if j in ds]
        stages = [("product", bwd), ("product", fwd)]
    else:
        stages = [("mixture", mixture_labels)] if mixture_labels else []
        if fs_labels:
            stages.append(("product", fs_labels))
    return TransitionMatrix(
        node_order=tuple(net.ids[j] for j in chain_nodes),
        states=states,
        pi=pi,
        moves=moves,
        sweep_stages=stages,
    )


def collapsed_space(tm: TransitionMatrix) -> TransitionMatrix:
    """The full-space matrix `tm` cut down to its diagnostic-sampled nodes,
    as `reference_transition_matrix(..., collapse_forward=True)` builds it:
    the rows and columns whose forward-sampled bits are 0, pi summed over
    those bits, the forward redraws dropped and the rest one mixture stage.
    No diagnostic move reads a forward-sampled value, so the cut kernels
    are the collapsed ones."""
    forward = {label[1] for label, _ in tm.moves if label[0] == "fs"}
    keep = [k for k, nid in enumerate(tm.node_order) if nid not in forward]
    mask = sum(1 << k for k, nid in enumerate(tm.node_order) if nid in forward)
    full = np.arange(len(tm.states))
    rows = full[(full & mask) == 0]
    # a cut state's index packs its kept bits, in the order rows lists them
    packed = np.zeros(len(full), dtype=int)
    packed[rows] = np.arange(len(rows))
    moves = [(label, mat[rows][:, rows]) for label, mat in tm.moves if label[0] != "fs"]
    return TransitionMatrix(
        node_order=tuple(tm.node_order[k] for k in keep),
        states=[tuple(tm.states[s][k] for k in keep) for s in rows],
        pi=np.bincount(packed[full & ~mask], weights=tm.pi, minlength=len(rows)),
        moves=moves,
        sweep_stages=[("mixture", [label for label, _ in moves])] if moves else [],
    )


def reference_apply_sweep(tm: TransitionMatrix, vec: np.ndarray) -> np.ndarray:
    """`TransitionMatrix.apply_sweep` as first written: each kernel found by
    label and applied as `out @ kernel`."""
    kernel = dict(tm.moves)
    out = np.asarray(vec, dtype=float)
    for kind, labels in tm.sweep_stages:
        if kind == "mixture":
            mixed = np.zeros_like(out)
            for lab in labels:
                mixed += out @ kernel[lab]
            out = mixed / len(labels)
        else:
            for lab in labels:
                out = out @ kernel[lab]
    return out


# ---------------------------------------------------------------------------
# the exact kernel of the shipped sweep, by enumerating its random choices


class _Uniform:
    """A symbolic draw of `random()`: a uniform u known to lie in [lo, hi),
    standing for the value u * scale.

    Comparing it with a threshold splits the interval.  When both sides are
    nonempty that is a two-way decision of the owning ForkRng, weighted by
    the two lengths, and the interval narrows to the branch taken, so later
    comparisons of the same draw stay consistent with it.
    """

    def __init__(self, rng, lo, hi, scale):
        self.rng = rng
        self.lo = lo
        self.hi = hi
        self.scale = scale

    def __lt__(self, threshold):
        cut = threshold / self.scale
        if cut <= self.lo:
            return False
        if cut >= self.hi:
            return True
        if self.rng._decide([cut - self.lo, self.hi - cut]) == 0:
            self.hi = cut
            return True
        self.lo = cut
        return False

    def __ge__(self, threshold):
        return not self < threshold

    def __mul__(self, factor):
        return _Uniform(self.rng, self.lo, self.hi, self.scale * factor)


class ForkRng:
    """A random source that makes every outcome of every draw happen, one
    program run per path.

    `paths(run)` calls `run()` again and again, walking the tree of random
    decisions depth first: each call replays the decisions of the path
    before it up to the deepest one with an untried branch, takes that
    branch, and takes the first branch of every decision after it.  It
    yields each run's result with the probability of its path.  Only the
    three draws below exist; a program that asks for any other raises
    AttributeError, so a sampler that starts using one cannot be
    mis-enumerated silently.
    """

    def __init__(self):
        self._path = []  # branch taken at each decision of the current path
        self._arity = []  # number of branches of each of those decisions
        self._pos = 0
        self._prob = 1.0

    def _decide(self, weights):
        if self._pos == len(self._path):
            self._path.append(0)
            self._arity.append(len(weights))
        k = self._path[self._pos]
        self._pos += 1
        self._prob *= weights[k] / sum(weights)
        return k

    def random(self):
        return _Uniform(self, 0.0, 1.0, 1.0)

    def randrange(self, n):
        if n < 1:
            raise ValueError(f"empty range for randrange({n})")
        return self._decide([1.0] * n) if n > 1 else 0

    def shuffle(self, xs):
        # Fisher-Yates, in the order random.shuffle draws
        for i in reversed(range(1, len(xs))):
            j = self.randrange(i + 1)
            xs[i], xs[j] = xs[j], xs[i]

    def paths(self, run):
        self._path = []
        self._arity = []
        while True:
            self._pos = 0
            self._prob = 1.0
            result = run()
            assert self._pos == len(self._path), "a replay took fewer decisions than its path"
            yield result, self._prob
            while self._path and self._path[-1] + 1 == self._arity[-1]:
                self._path.pop()
                self._arity.pop()
            if not self._path:
                return
            self._path[-1] += 1


def sweep_kernel(net, ev, strategy, sweep_idx):
    """The exact transition matrix of one `run_sweep` call, as shipped.

    Builds the strategy's chain on a ForkRng and, from every assignment of
    its free nodes, runs the unmodified `run_sweep` down every path of its
    random draws with `sweep_idx` set first.  Returns (chain, P): state s
    sets chain.free[k] to bit k of s, clamped nodes are false, and P[s, t]
    is the probability that the sweep takes s to t.
    """
    clamp, flow = clamp_and_flow(net, ev, strategy)
    rng = ForkRng()
    chain = SamplerState(net, ev, clamp, flow, rng)
    for nid, value in ev.items():
        chain.x[net.index[nid]] = 1 if value else 0
    free = chain.free
    size = 1 << len(free)
    P = np.zeros((size, size))

    def run(s):
        for k, j in enumerate(free):
            chain.x[j] = (s >> k) & 1
        chain.refresh_survivals()
        chain.sweep_idx = sweep_idx
        run_sweep(chain, strategy, 1)
        return sum(chain.x[j] << k for k, j in enumerate(free))

    for s in range(size):
        for t, prob in rng.paths(lambda: run(s)):
            P[s, t] += prob
    return chain, P
