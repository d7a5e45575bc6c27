"""Independent reference implementations used only by tests.

Deliberately written in the most naive style available (dict-based, full
enumeration, no caching, no log-space tricks) so that agreement with the
library is evidence of correctness rather than shared bugs.  The
`reference_*` functions are earlier library versions kept verbatim: a
rewrite of the library must reproduce them exactly.  Two changes since:
`reference_exact_posteriors` weighs a state from scratch every
`REFERENCE_CHUNK` steps of its scan, so its rounding does not build up;
and, as in the library, no move counts its visit, so the reference moves
credit sums and cost only and `reference_pair_sweep` adds, once per
sweep, to the chain's two visit totals, after checking that the sweep
visited each node as those totals count it.  `reference_toggle` is the
library's toggle as it stood before every value change became a `flip`:
the block move as first written toggles and clears its stale lists
itself.  `reference_stale` is now the library's cache rule as well, and
stays as the independent build of it that `SamplerState.stale` is
checked against.

`noisy_or_prob`, `joint_log_prob`, `markov_blanket` and `d_separated` are
references that only tests call, kept verbatim from the library, which
does not ship them: tests check `Network.survival` and `classify_flow`
against them.  `ForkRng` and `sweep_kernel` give the exact transition
kernel of the sweep the library runs, by replaying the unmodified
`run_sweep` down every path its random draws can take.  `move_kernels`
gives the same way the exact kernel of every move a sweep is made of,
from the shipped `single_site_move`, `block_pair_move`, `swap_pair_move`
and `forward_redraw`, and `apply_sweep` composes them into a sweep as
`TransitionMatrix.apply_sweep` does: detailed balance and the sweep's
fixed point are checked on them, and `explicit_transition_matrix` is
held to them.
"""

import collections
import functools
import itertools
import math
import time

import numpy as np

from diagbn import flow as flowmod
from diagbn.exact import EnumerationCapError
from diagbn.flow import FlowInfo
from diagbn.network import Network, NetworkError, validate
from diagbn.sampler import (
    GIBBS,
    OPTIMIZED_FWD_BWD,
    SWAP_FRACTION,
    ChainRandom,
    SamplerState,
    _MIN_NORMAL,
    _REFRESH_SWEEPS,
    block_pair_move,
    estimate_marginals,
    forward_redraw,
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


def reference_block_pair_move(state: SamplerState, a, b):
    """The block move as first written, with its weights from the network:
    each joint state weighed from the parents by
    `_reference_restricted_weight`, over a scope listed from the chain's
    scope children, masses by generator sums, and the draw landed by
    `reference_toggle` from the start state, a then b, each toggle clearing
    `reference_stale`'s list.  The library's move must reproduce its
    values, survivals, cost and RNG draws exactly, and its credits to
    rounding."""
    touched = [a, b]
    seen = {a, b}
    for j in (a, b):
        for c in state.scope_children[j]:
            if c not in seen:
                seen.add(c)
                touched.append(c)
    x = state.x
    av, bv = x[a], x[b]
    # the joint states: (a, b), (a, !b), (!a, !b), (!a, b)
    a_vals = [av, av, 1 - av, 1 - av]
    b_vals = [bv, 1 - bv, 1 - bv, bv]
    weights = []
    for va, vb in zip(a_vals, b_vals):
        values = list(x)
        values[a], values[b] = va, vb
        weights.append(_reference_restricted_weight(state.net, values, touched))
    state.cost += 4 * len(touched)
    total = sum(weights)
    a_mass = sum(w for w, v in zip(weights, a_vals) if v)
    b_mass = sum(w for w, v in zip(weights, b_vals) if v)
    state.sums[a] += a_mass / total
    state.sums[b] += b_mass / total
    if state.strategy.rule == GIBBS:
        u = state.rng.random() * total
        target = 3
        run = 0.0
        for k in range(4):
            run += weights[k]
            if u < run:
                target = k
                break
    else:
        # propose one of the three other states
        target = 1 + state.rng.randrange(3)
        if not (weights[target] >= weights[0] or state.rng.random() < weights[target] / weights[0]):
            target = 0
    stale = reference_stale(state)
    for n, want in ((a, a_vals[target]), (b, b_vals[target])):
        if x[n] != want:
            reference_toggle(state, n)
            for k in stale[n]:
                state.odds_cache[k] = None


def reference_toggle(state: SamplerState, n):
    """Toggle node n and update the survival caches of all its children,
    leaving the cached conditionals to the caller to clear.  Turning
    n off recomputes from its parents, rather than divides, a survival
    that underflowed below the smallest normal float."""
    x = state.x
    surv = state.surv
    if x[n]:
        x[n] = 0
        for c, q in state.child_links[n]:
            s = surv[c]
            surv[c] = s / q if s >= _MIN_NORMAL else state.net.survival(c, x)
    else:
        x[n] = 1
        for c, q in state.child_links[n]:
            surv[c] *= q


def reference_single_site_move(state: SamplerState, n):
    """The single-site move as the single-site sweep called it, once per
    node.  The library's sweep loop must reproduce its values, credits,
    cached conditionals, cost and RNG draws exactly."""
    hit = state.odds_cache[n]
    if hit is None:
        odds = reference_cond_odds(state, n)
        hit = state.odds_cache[n] = (odds, odds / (1.0 + odds))
    odds, p_on = hit
    state.sums[n] += p_on
    state.cost += state.move_cost[n]
    if state.strategy.rule == GIBBS:
        want = 1 if state.rng.random() < p_on else 0
        if want != state.x[n]:
            state.flip(n)
    else:
        ratio = (1.0 - p_on) / p_on if state.x[n] else odds
        if ratio >= 1.0 or state.rng.random() < ratio:
            state.flip(n)


def reference_cond_odds(state: SamplerState, n) -> float:
    """Odds of n being on given its conditioning scope, from the caches,
    with each child's 1 - p taken from the network, not the chain's links."""
    surv = state.surv
    x = state.x
    sn = surv[n]
    odds = (1.0 - sn) / sn
    xn = x[n]
    for c in state.scope_children[n]:
        q = 1.0 - state.net.edge_p[(n, c)]
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
    """The flip as first written, clearing `reference_stale`'s list, with
    each child's 1 - p taken from the network, not the chain's links."""
    x = state.x
    surv = state.surv
    net = state.net
    if x[n]:
        x[n] = 0
        for c in net.children[n]:
            surv[c] /= 1.0 - net.edge_p[(n, c)]
    else:
        x[n] = 1
        for c in net.children[n]:
            surv[c] *= 1.0 - net.edge_p[(n, c)]
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
            run_sweep(state, 1)
            if s in wanted:
                marks[s] = estimate_marginals(state)
            if s == burn_in:
                state.sums = [0.0] * len(state.sums)
                state.sweeps = state.redraws = 0
            if s % _REFRESH_SWEEPS == 0:
                state.refresh_survivals()  # bound float drift on very long runs
        runs.append((state, marks, time.perf_counter() - t0))
    return runs


def reference_pair_nodes(state: SamplerState):
    """`pair_nodes` as first written on the chain's fixed plan, with a set
    of matched nodes.  The library's pairing must make the same pairs and
    draws."""
    spouses = state.pair_plan.spouses
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
            # the last partner left is taken without a draw
            b = partners[rng.randrange(len(partners))] if len(partners) > 1 else partners[0]
            matched.add(a)
            matched.add(b)
            pairs.append((a, b))
    singles = [j for j in state.diagnostic if j not in matched]
    assert 2 * len(pairs) + len(singles) == len(state.diagnostic)
    return pairs, singles


def reference_pair_event(state: SamplerState, a, b):
    """Move a pair from `pair_nodes` once, under the chain's strategy.

    A pair whose gate children are all off moves as two single-site moves;
    otherwise a block policy makes the block move, and a swap policy swaps
    on a fraction `SWAP_FRACTION` of events and moves a and b single-site
    on the rest.  No move on a or b changes a gate child, so every branch
    keeps the posterior invariant on its own.
    """
    gate = state.pair_plan.gates.get((a, b))
    if gate is None or any(state.x[c] for c in gate):
        if state.strategy.pair_move == "block":
            block_pair_move(state, a, b)
            return
        if state.rng.random() < SWAP_FRACTION:
            swap_pair_move(state, a, b)
            return
    single_site_move(state, a)
    single_site_move(state, b)


def _reference_run_pair_events(state, pairs, singles):
    events = pairs + singles
    state.rng.shuffle(events)
    for ev in events:
        if type(ev) is tuple:
            reference_pair_event(state, *ev)
        else:
            single_site_move(state, ev)


def _reference_fwd_bwd_sweep(state: SamplerState):
    """One pass of the alternating schedule.

    Forward passes visit every free node in topological order, redrawing
    forward-sampled nodes from their freshly updated parents; backward passes
    revisit only the diagnostic-sampled nodes, in reverse order.  Pairings
    are fresh per pass, and a pair makes its `reference_pair_event` at the
    position of whichever of its nodes the pass reaches first, gate shut or
    not.  Returns the nodes the pass visited.
    """
    backward = state.sweep_idx % 2 == 1
    pairs, _ = reference_pair_nodes(state)
    partner = dict(pairs)
    partner.update((b, a) for a, b in pairs)
    order = state.topo_diagnostic_reversed if backward else state.topo_free
    done = set()
    visited = []
    for j in order:
        if j in done:
            continue
        visited.append(j)
        if state.forward_sampled[j]:
            forward_redraw(state, j)
            continue
        if j in partner:
            reference_pair_event(state, j, partner[j])
            done.add(partner[j])
            visited.append(partner[j])
        else:
            single_site_move(state, j)
    return visited


def reference_pair_sweep(state: SamplerState):
    """One sweep of the chain's pair schedule as first written: a call per
    pair event, per single-site move and per forward redraw.  The library's
    stretch loop must reproduce its values, credits, visit totals, cached
    conditionals, cost and RNG draws exactly.  The sweep must visit every
    diagnostic-sampled node once and, on a forward pass (every sweep of
    the random schedule), every forward-sampled node once, which is what
    lets the chain count visits by two totals."""
    forward_pass = True
    if state.strategy.move_policy == OPTIMIZED_FWD_BWD:
        forward_pass = state.sweep_idx % 2 == 0
        visited = _reference_fwd_bwd_sweep(state)
    else:
        pairs, singles = reference_pair_nodes(state)
        _reference_run_pair_events(state, pairs, singles)
        for j in state.topo_forward:
            forward_redraw(state, j)
        visited = [j for pair in pairs for j in pair] + singles + state.topo_forward
    assert sorted(j for j in visited if not state.forward_sampled[j]) == state.diagnostic
    assert [j for j in visited if state.forward_sampled[j]] == (state.topo_forward if forward_pass else [])
    state.sweeps += 1
    state.redraws += forward_pass
    state.sweep_idx += 1


# ---------------------------------------------------------------------------
# the exact oracle as first written: one Python pass per enumerated state


def _reference_factor(net, x, j) -> float:
    s = 1.0 - net.leak[j]
    for i, p in zip(net.parents[j], net.parent_p[j]):
        if x[i]:
            s *= 1.0 - p
    return (1.0 - s) if x[j] else s


REFERENCE_CHUNK = 8  # Gray-code steps between weighings from scratch


def reference_exact_posteriors(net: Network, ev: dict, cap: int = 22) -> dict:
    """The enumeration posteriors as first written (Gray-code scan).

    Posterior marginals by summing the joint over all free assignments.

    Iterates free states in Gray-code order so each step flips one node and
    touches only that node's factor and its children's factors, except every
    `REFERENCE_CHUNK`-th step, which weighs the new state afresh.  Zero factors
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

    def weigh():
        # the log weight of x and its count of zero factors, from scratch
        logw = 0.0
        zeros = 0
        for j in range(n):
            f = _reference_factor(net, x, j)
            if f == 0.0:
                zeros += 1
            else:
                logw += math.log(f)
        return logw, zeros

    def scan(peak, accumulate):
        # reset free nodes to the all-false Gray origin
        for j in free:
            x[j] = 0
        logw, zeros = weigh()
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
            if step % REFERENCE_CHUNK:
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
            else:
                # each chunk weighs its first state afresh, so the rounding
                # of the running weight builds up over one chunk at most
                x[i] ^= 1
                logw, zeros = weigh()
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


# ---------------------------------------------------------------------------
# min-fill elimination as first written, on sets


def _reference_fill(adj, v) -> int:
    """Edges that eliminating v would add between its neighbours."""
    nb = adj[v]
    linked = sum(map(len, map(nb.intersection, map(adj.__getitem__, nb))))
    return (len(nb) * (len(nb) - 1) - linked) // 2


def reference_eliminate(nodes, scopes):
    """Min-fill elimination order, ties to the lower index, and each node's
    elimination clique as a set: itself and its neighbours when it is
    eliminated."""
    adj = {v: set() for v in nodes}
    for scope in scopes:
        for v in scope:
            adj[v].update(scope)
    for v, nb in adj.items():
        nb.discard(v)
    fill = {v: _reference_fill(adj, v) for v in nodes}
    order, cliques = [], {}
    while fill:
        v = min(fill, key=lambda u: (fill[u], u))
        added = fill.pop(v)
        nb = adj.pop(v)
        order.append(v)
        cliques[v] = nb | {v}
        for a in nb:
            adj[a] |= nb
            adj[a].discard(a)
            adj[a].discard(v)
        # without added edges only v's neighbours see their neighbourhood change
        touched = set(nb)
        if added:
            for a in nb:
                touched |= adj[a]
        for u in touched:
            fill[u] = _reference_fill(adj, u)
    return order, cliques


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


# ---------------------------------------------------------------------------
# exact kernels of the shipped sweep and moves, by enumerating their random
# choices


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


def _starts(chain):
    """Every state of the chain's free nodes as (values, survivals): state
    s sets chain.free[k] to bit k of s, and the nodes that are not free
    keep their values, evidence as observed and clamped nodes off."""
    starts = []
    for s in range(1 << len(chain.free)):
        for k, j in enumerate(chain.free):
            chain.x[j] = (s >> k) & 1
        chain.refresh_survivals()
        starts.append((list(chain.x), list(chain.surv)))
    return starts


def _kernel(chain, step, starts):
    """P[s, t], the probability that `step()` takes the chain from state s
    of `starts` to state t, down every path of the draws of its ForkRng,
    each path from the state's values and survivals with no conditional
    cached."""
    index = {tuple(x): t for t, (x, _) in enumerate(starts)}
    moves = collections.defaultdict(float)  # (s, t) -> probability

    def run(x, surv):
        chain.x[:] = x
        chain.surv[:] = surv
        chain.odds_cache = [None] * len(x)
        step()
        return index[tuple(chain.x)]

    for s, start in enumerate(starts):
        for t, prob in chain.rng.paths(functools.partial(run, *start)):
            moves[s, t] += prob
    P = np.zeros((len(starts), len(starts)))
    P[tuple(zip(*moves))] = list(moves.values())
    return P


def sweep_kernel(net, ev, strategy, sweep_idx):
    """The exact transition matrix of one `run_sweep` call, as shipped.

    Builds the strategy's chain on a ForkRng and, from every assignment of
    its free nodes, runs the unmodified `run_sweep` down every path of its
    random draws with `sweep_idx` set first.  Returns (chain, P), with the
    states of `_starts` and P as `_kernel` gives it.
    """
    chain = SamplerState(net, ev, strategy, ForkRng())

    def sweep():
        chain.sweep_idx = sweep_idx
        run_sweep(chain, 1)

    return chain, _kernel(chain, sweep, _starts(chain))


def move_kernels(net, ev, strategy):
    """The exact kernel of every move the strategy's chain is made of, each
    read from the shipped move by `_kernel`, as `sweep_kernel` reads a
    sweep.

    Returns (states, pi, kernels).  states[s] maps each free node, in the
    chain's order, to its value 0 or 1 in state s of `_starts`.  pi is the
    chain's target: each state's joint probability by `joint_prob`, with
    the evidence at its values and clamped nodes off, normalized.  kernels
    lists (label, P) under the labels `explicit_transition_matrix` gives:
    ("single", d) for each diagnostic-sampled d, running
    `single_site_move`; (move, a, b) for each pair a < b of the chain's
    `_PairPlan`, running `block_pair_move` or `swap_pair_move` while the
    pair's gate is open and nothing while it is shut, as a sweep does (a
    swap of two equal values is the identity by the move itself); then
    ("fs", f) for each forward-sampled f in topological order, running
    `forward_redraw`.
    """
    chain = SamplerState(net, ev, strategy, ForkRng())
    starts = _starts(chain)
    ids = net.ids
    kernels = [(("single", ids[j]), _kernel(chain, functools.partial(single_site_move, chain, j), starts))
               for j in chain.diagnostic]
    plan = chain.pair_plan
    if plan is not None:
        move = block_pair_move if strategy.pair_move == "block" else swap_pair_move
        for a, b in sorted((a, b) for a, partners in plan.spouses.items() for b in partners if a < b):

            def step(a=a, b=b, gate=plan.gates.get((a, b))):
                if gate is None or any(chain.x[c] for c in gate):
                    move(chain, a, b)

            kernels.append(((strategy.pair_move, ids[a], ids[b]), _kernel(chain, step, starts)))
    kernels += [(("fs", ids[j]), _kernel(chain, functools.partial(forward_redraw, chain, j), starts))
                for j in chain.topo_forward]
    states = [{ids[j]: x[j] for j in chain.free} for x, _ in starts]
    weights = np.array([joint_prob(net, dict(zip(ids, x))) for x, _ in starts])
    return states, weights / weights.sum(), kernels


def apply_sweep(net, strategy, kernels, vec):
    """The distribution `vec` (or each row of a matrix) after one sweep,
    composed from the kernels of `move_kernels` as
    `TransitionMatrix.apply_sweep` composes the library's: the uniform
    mixture of the single-site and pair kernels, then the forward redraws
    in topological order.  Under optimized-fwd-bwd it is, as in the
    library, a backward pass of the single-site kernels in reverse
    topological order, then a forward pass of the single-site and forward
    kernels in topological order.  Its swap kernels never enter, although
    the sweep that ships swaps pairs, so that composition is not the
    shipped chain's kernel; `sweep_kernel` is."""
    kernel = dict(kernels)
    if strategy.move_policy == OPTIMIZED_FWD_BWD:
        at = {net.ids[j]: k for k, j in enumerate(net.topo)}
        forward = sorted((lab for lab in kernel if lab[0] in ("single", "fs")), key=lambda lab: at[lab[1]])
        order = [lab for lab in reversed(forward) if lab[0] == "single"] + forward
    else:
        mixture = [lab for lab in kernel if lab[0] != "fs"]
        if mixture:
            vec = sum(vec @ kernel[lab] for lab in mixture) / len(mixture)
        order = [lab for lab in kernel if lab[0] == "fs"]
    for lab in order:
        vec = vec @ kernel[lab]
    return vec
