"""Markov chain samplers for diagnostic posteriors.

The chains are built from three move types over the free nodes:

  single-site   resample one node from its conditional
  block-pair    resample a pair of spouses jointly over all four joint values
  swap-pair     propose exchanging the values of a pair of spouses

Each move draws its target state from the restricted distribution over the
touched nodes and their in-scope children (Gibbs rule), or proposes a state
and accepts by probability ratio (Metropolis rule).  Swapping two competing
causes moves between explanations directly, without passing through the low
probability both-on or both-off states that single-site chains must cross.
Swap moves preserve the number of active nodes in the pair, so they are
never run alone: a swap policy swaps a pair on a fraction `SWAP_FRACTION`
of its visits and moves the two nodes single-site on the rest.

Marginals are estimated Rao-Blackwell style: every move credits each touched
node with its conditional probability of being on under the move's restricted
distribution, and the estimate is the running mean of those credits.

A strategy combines clamping on/off, flow-aware conditioning on/off, a move
policy, and an acceptance rule.  The ten named presets cover the grid that
the benchmark harness reports on.

Flow-awareness enters a chain only through its flow map (`clamp_and_flow`).
A flow-aware chain runs on `classify_flow`'s map: nodes with no evidential
child are forward-sampled, redrawn from their parents after the sweep's
moves, and never paired.  Any other chain runs on the blanket map, under
which no node is forward-sampled, so the same sweep loop serves both: its
forward tail is empty and every free node is movable.

A single-site move reuses a node's conditional until a value it read
changes, as in Pearl's message-passing Gibbs, where a node recomputes only
when a neighbour announces a change.  `SamplerState` caches each
diagnostic-sampled node's (odds, p_on).  The conditional of d reads x and
the survival cache of d, x of each scope child, and the survival cache of a
scope child only while that child is on.  So flipping k makes stale every
node with k as a scope child, k's children, and, for each child of k that
is on, every node with that child as a scope child (k among them when the
child is in k's scope).  A hit returns the floats a recompute would, so
chains are bit-identical with or without the cache.

Every chain draws from a `ChainRandom`, which draws the numbers
`random.Random` draws from the same seed and leaves it in the same state,
but shuffles and picks below n without a Python call per draw.  A
single-site sweep runs in one loop per rule and then redraws its forward
tail inline, with lookups bound once and its fixed cost charged once per
sweep; pair schedules call `single_site_move` and `forward_redraw` per
node, and both paths fill a missing conditional through
`SamplerState.fill_odds`.
"""

from __future__ import annotations

import functools
import hashlib
import operator
import random
import time
from dataclasses import dataclass

from . import flow as flowmod
from .flow import ClampResult, clamp_pass, classify_flow, evidence_cover, no_clamp
from .network import validate

GIBBS = "gibbs"
METROPOLIS = "metropolis"

SINGLE_SITE = "single-site"
BLOCK_SPOUSES_COVER = "block-spouses-cover"
BLOCK_SPOUSES_PARENT_TRUE = "block-spouses-parent-true"
SWAP_SPOUSES_COVER = "swap-spouses-cover"
SWAP_SPOUSES_CHILD_TRUE = "swap-spouses-child-true"
OPTIMIZED_RANDOM = "optimized-random"
OPTIMIZED_FWD_BWD = "optimized-fwd-bwd"

# per move policy: the pair move it makes (None, "block" or "swap") and
# whether its pairs are gated on the evidence cover; every other pair policy
# gates on the shared child being true
_POLICIES = {
    SINGLE_SITE: (None, False),
    BLOCK_SPOUSES_COVER: ("block", True),
    BLOCK_SPOUSES_PARENT_TRUE: ("block", False),
    SWAP_SPOUSES_COVER: ("swap", True),
    SWAP_SPOUSES_CHILD_TRUE: ("swap", False),
    OPTIMIZED_RANDOM: ("swap", False),
    OPTIMIZED_FWD_BWD: ("swap", False),
}

# share of a swap policy's pair visits that swap; the rest move single-site
SWAP_FRACTION = 0.8


@dataclass(frozen=True)
class StrategySpec:
    """One sampling configuration: what to pin, what to condition on, how to move."""

    name: str
    clamp: bool
    flow_aware: bool
    move_policy: str
    rule: str

    def __post_init__(self):
        if self.move_policy not in _POLICIES:
            raise ValueError(f"unknown move policy {self.move_policy!r}")
        if self.rule not in (GIBBS, METROPOLIS):
            raise ValueError(f"unknown rule {self.rule!r}; rules: {GIBBS!r}, {METROPOLIS!r}")

    @property
    def pair_move(self):
        """The pair move the policy makes: None, "block" or "swap"."""
        return _POLICIES[self.move_policy][0]

    @property
    def cover_gated(self) -> bool:
        """True when pairs may move through any child in the evidence cover,
        False when the shared child must be true."""
        return _POLICIES[self.move_policy][1]


PRESETS = {
    spec.name: spec
    for spec in [
        StrategySpec("gibbs", False, False, SINGLE_SITE, GIBBS),
        StrategySpec("gibbs-clamp", True, False, SINGLE_SITE, GIBBS),
        StrategySpec("gibbs-flow", False, True, SINGLE_SITE, GIBBS),
        StrategySpec("block-spouses-cover", False, False, BLOCK_SPOUSES_COVER, GIBBS),
        # gates on the shared child being true, like swap-spouses-child-true
        StrategySpec("block-spouses-parent-true", False, False, BLOCK_SPOUSES_PARENT_TRUE, GIBBS),
        StrategySpec("swap-spouses-cover", False, False, SWAP_SPOUSES_COVER, GIBBS),
        StrategySpec("swap-spouses-child-true", False, False, SWAP_SPOUSES_CHILD_TRUE, GIBBS),
        StrategySpec("metropolis", False, False, SINGLE_SITE, METROPOLIS),
        StrategySpec("optimized-random", True, True, OPTIMIZED_RANDOM, METROPOLIS),
        StrategySpec("optimized-fwd-bwd", True, True, OPTIMIZED_FWD_BWD, METROPOLIS),
    ]
}


class ChainRandom(random.Random):
    """`random.Random` with `shuffle` and `randrange(n)` inlined.

    Both draw as CPython's `_randbelow_with_getrandbits` does: with k the
    bit length of n, `getrandbits(k)` until the value is below n.  So they
    return what `random.Random` returns and leave the generator in the
    state it would, and a chain is the same whichever of the two it runs on.
    """

    def randrange(self, start, *args, **kwargs):
        if args or kwargs or type(start) is not int or start < 1:
            return super().randrange(start, *args, **kwargs)
        getrandbits = self.getrandbits
        k = start.bit_length()
        r = getrandbits(k)
        while r >= start:
            r = getrandbits(k)
        return r

    def shuffle(self, x):
        # Fisher-Yates from the back, drawing j below n for position n - 1
        getrandbits = self.getrandbits
        for n, k, last in _shuffle_steps(len(x)):
            j = getrandbits(k)
            while j >= n:
                j = getrandbits(k)
            x[last], x[j] = x[j], x[last]


@functools.lru_cache(maxsize=128)
def _shuffle_steps(size):
    """(n, bit length of n, n - 1) for each step of a shuffle of `size` items."""
    return tuple((n, n.bit_length(), n - 1) for n in range(size, 1, -1))


def derive_seed(master, *tags) -> int:
    """Stable 63-bit seed for a labelled sub-stream of a master seed."""
    text = ":".join([str(master)] + [str(t) for t in tags])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class MarginalAccumulator:
    """Per-node running sums of Rao-Blackwell credits and visit counts."""

    sums: list
    counts: list

    @classmethod
    def zeros(cls, n):
        return cls([0.0] * n, [0] * n)

    def merge(self, other: "MarginalAccumulator"):
        for i in range(len(self.sums)):
            self.sums[i] += other.sums[i]
            self.counts[i] += other.counts[i]

    def reset(self):
        for i in range(len(self.sums)):
            self.sums[i] = 0.0
            self.counts[i] = 0


class SamplerState:
    """Mutable chain state: values, cached noisy-or survivals, scores, rng.

    `odds_cache[n]` holds (odds, p_on) of n's conditional for a
    diagnostic-sampled node n, or None when `fill_odds` must recompute it.
    A flip of k clears the nodes `stale[k]` lists, whatever the values, and
    for each (c, readers) in `stale_via[k]` clears the readers when c is on;
    `refresh_survivals` clears every entry.  A flip and a flip back still
    invalidate, since `s * q / q` may differ from `s` in the last bit.
    """

    def __init__(self, net, ev, clamp, flow, rng):
        self.net = net
        self.ev = ev
        self.clamp = clamp
        self.rng = rng
        n = len(net.ids)
        self.x = [0] * n
        self.surv = [0.0] * n
        self.free = sorted(
            net.index[nid] for nid in net.ids if nid not in ev and nid not in clamp.clamped_false
        )
        self.is_free = [False] * n
        for j in self.free:
            self.is_free[j] = True
        # children each node's conditional actually conditions on, per the flow map
        self.scope_children = [[] for _ in range(n)]
        self.scope_q = [[] for _ in range(n)]
        self.forward_sampled = [False] * n
        for nid, info in flow.items():
            # only diagnostic-sampled nodes have evidential children
            j = net.index[nid]
            self.forward_sampled[j] = info.status == flowmod.FORWARD_SAMPLED
            for cid in info.evidential_children:
                c = net.index[cid]
                self.scope_children[j].append(c)
                self.scope_q[j].append(1.0 - net.edge_p[(j, c)])
        # visit orders, fixed for the chain: free diagnostic-sampled nodes by
        # index, all free nodes in topological order, the diagnostic ones in
        # reverse topological order, and the forward-sampled ones in order
        self.diagnostic = [j for j in self.free if not self.forward_sampled[j]]
        self.topo_free = [j for j in net.topo if self.is_free[j]]
        self.topo_diagnostic_reversed = [
            j for j in reversed(self.topo_free) if not self.forward_sampled[j]
        ]
        self.topo_forward = [j for j in self.topo_free if self.forward_sampled[j]]
        self.pair_plan = None  # built by pair_nodes on first use
        self.pair_memo = {}  # (a, b) -> _pair_memo(state, a, b)
        # full child lists with 1-p factors, needed to keep surv caches exact
        self.child_q = [
            [1.0 - p for p in net.child_p[j]] for j in range(n)
        ]
        self.acc = MarginalAccumulator.zeros(n)
        self.sweep_idx = 0
        self.cost = 0
        # deterministic per-node move cost, used for the benchmark cost ratios;
        # a single-site sweep moves every diagnostic node and redraws the rest
        self.move_cost = [1 + len(self.scope_children[j]) for j in range(n)]
        self.sweep_cost = sum(self.move_cost[j] for j in self.diagnostic) + len(self.topo_forward)
        # the conditional of d reads x and surv of d, x of its scope children
        # and surv of the scope children that are on; surv of a node changes
        # when one of its parents flips
        readers = [[] for _ in range(n)]  # c -> the nodes with c as a scope child
        stale = [[] for _ in range(n)]  # k -> k's diagnostic children
        for d in self.diagnostic:
            for c in self.scope_children[d]:
                readers[c].append(d)
            for k in net.parents[d]:
                stale[k].append(d)
        self.stale = [r + s for r, s in zip(readers, stale)]
        self.stale_via = [[(c, readers[c]) for c in net.children[k] if readers[c]] for k in range(n)]
        self.odds_cache = [None] * n

    def refresh_survivals(self):
        for j in range(len(self.x)):
            self.surv[j] = self.net.survival(j, self.x)
        self.odds_cache = [None] * len(self.x)

    def flip(self, n):
        """Toggle node n, update its children's survival caches and drop
        the cached conditionals that read a value this changed."""
        self.toggle(n)
        cache = self.odds_cache
        for k in self.stale[n]:
            cache[k] = None
        x = self.x
        for c, readers in self.stale_via[n]:
            if x[c]:
                for k in readers:
                    cache[k] = None

    def toggle(self, n):
        """Toggle node n and update the survival caches of all its children,
        leaving the cached conditionals to the caller to invalidate."""
        x = self.x
        surv = self.surv
        if x[n]:
            x[n] = 0
            for c, q in zip(self.net.children[n], self.child_q[n]):
                surv[c] /= q
        else:
            x[n] = 1
            for c, q in zip(self.net.children[n], self.child_q[n]):
                surv[c] *= q

    def fill_odds(self, n):
        """Compute, cache and return the odds and probability of n being on
        given its conditioning scope, for a cache miss.  An off child
        contributes q alone; an on child the ratio of its on-probabilities
        with n on and off, from its survival cache."""
        surv = self.surv
        x = self.x
        sn = surv[n]
        odds = (1.0 - sn) / sn
        xn = x[n]
        for c, q in zip(self.scope_children[n], self.scope_q[n]):
            if not x[c]:
                odds *= q
            elif xn:
                sc = surv[c]
                odds *= (1.0 - sc) / (1.0 - sc / q)
            else:
                sc = surv[c]
                odds *= (1.0 - sc * q) / (1.0 - sc)
        hit = self.odds_cache[n] = (odds, odds / (1.0 + odds))
        return hit

    def restricted_weight(self, nodes) -> float:
        """Product of current factor values over a set of node indices."""
        w = 1.0
        for k in nodes:
            w *= (1.0 - self.surv[k]) if self.x[k] else self.surv[k]
        return w


def initialize_state(net, ev, clamp, rng, flow) -> SamplerState:
    """Start a chain: evidence fixed, clamped nodes false, free nodes forward-drawn."""
    state = SamplerState(net, ev, clamp, flow, rng)
    x = state.x
    for nid, value in ev.items():
        x[net.index[nid]] = 1 if value else 0
    for j in state.topo_free:
        x[j] = 1 if rng.random() < (1.0 - net.survival(j, x)) else 0
    state.refresh_survivals()
    return state


# ---------------------------------------------------------------------------
# moves


def single_site_move(state: SamplerState, n, rule):
    """Resample one free node; always credit its conditional into the scores.
    `_single_site_sweep` makes the same move, visit for visit."""
    odds, p_on = state.odds_cache[n] or state.fill_odds(n)
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


def pair_scope(state, a, b):
    """The nodes a pair move on (a, b) weighs: a, b, then their scope
    children in order, without repeats.  Memoized per chain."""
    return _pair_memo(state, a, b)[0]


def _pair_memo(state, a, b):
    """(pair_scope, the nodes whose cached conditional a flip of a or b
    makes stale), built once per pair and chain.  A pair move's flips clear
    the stale nodes once per move, not once per flip."""
    memo = state.pair_memo.get((a, b))
    if memo is None:
        touched = [a, b]
        seen = {a, b}
        for j in (a, b):
            for c in state.scope_children[j]:
                if c not in seen:
                    seen.add(c)
                    touched.append(c)
        # every node a flip of a or b may clear, whatever the values
        stale = list(dict.fromkeys(
            [a, b] + state.stale[a] + state.stale[b]
            + [d for k in (a, b) for _, readers in state.stale_via[k] for d in readers]
        ))
        memo = state.pair_memo[(a, b)] = (touched, stale)
    return memo


def swap_pair_move(state: SamplerState, a, b, rule):
    """Exchange the values of two spouses, or keep them, by restricted weight.

    When the two values are already equal the exchange is the identity; the
    move still scores both nodes (with their current indicator, the one-state
    distribution) so that the estimator keeps its per-visit accounting.
    """
    acc = state.acc
    x = state.x
    if x[a] == x[b]:
        acc.sums[a] += float(x[a])
        acc.sums[b] += float(x[b])
        acc.counts[a] += 1
        acc.counts[b] += 1
        state.cost += 1
        return
    touched, stale = _pair_memo(state, a, b)
    cache = state.odds_cache
    for k in stale:
        cache[k] = None
    w_cur = state.restricted_weight(touched)
    state.toggle(a)
    state.toggle(b)
    w_swap = state.restricted_weight(touched)
    state.cost += 2 * len(touched)
    total = w_cur + w_swap
    # credit using the pre-move values: a held x[a], now flipped
    on_weight_a = w_cur if x[b] else w_swap  # weight of the state where a is on
    acc.sums[a] += on_weight_a / total
    acc.sums[b] += (total - on_weight_a) / total
    acc.counts[a] += 1
    acc.counts[b] += 1
    if rule == GIBBS:
        stay = state.rng.random() >= w_swap / total
    else:
        stay = w_swap < w_cur and state.rng.random() >= w_swap / w_cur
    if stay:
        state.toggle(a)
        state.toggle(b)


def block_pair_move(state: SamplerState, a, b, rule):
    """Resample two spouses jointly over their four joint assignments."""
    acc = state.acc
    touched, stale = _pair_memo(state, a, b)
    cache = state.odds_cache
    for k in stale:
        cache[k] = None
    # walk the four assignments by single flips: (a,b), (a,!b), (!a,!b), (!a,b)
    w0 = state.restricted_weight(touched)
    state.toggle(b)
    w1 = state.restricted_weight(touched)
    state.toggle(a)
    w2 = state.restricted_weight(touched)
    state.toggle(b)
    w3 = state.restricted_weight(touched)
    state.cost += 4 * len(touched)
    # the walk now stands at state 3: a flipped, b at its original value.
    # The sums add in walk order, as a running sum from 0 would, and 0 + w
    # is w for every float, so each mass is the same float it always was.
    x = state.x
    total = w0 + w1 + w2 + w3
    acc.sums[a] += (w2 + w3 if x[a] else w0 + w1) / total
    acc.sums[b] += (w0 + w3 if x[b] else w1 + w2) / total
    acc.counts[a] += 1
    acc.counts[b] += 1
    if rule == GIBBS:
        u = state.rng.random() * total
        if u < w0:
            target = 0
        elif u < w0 + w1:
            target = 1
        elif u < w0 + w1 + w2:
            target = 2
        else:
            target = 3
    else:
        # the chain is logically still at walk state 0; propose one of the others
        target = 1 + state.rng.randrange(3)
        w = (w1, w2, w3)[target - 1]
        if not (w >= w0 or state.rng.random() < w / w0):
            target = 0
    # from state 3, a moves back for targets 0 and 1, b moves for 1 and 2
    if target < 2:
        state.toggle(a)
    if target == 1 or target == 2:
        state.toggle(b)


def forward_redraw(state: SamplerState, n):
    """Draw a forward-sampled node straight from its noisy-or distribution."""
    p_on = 1.0 - state.surv[n]
    acc = state.acc
    acc.sums[n] += p_on
    acc.counts[n] += 1
    state.cost += 1
    want = 1 if state.rng.random() < p_on else 0
    if want != state.x[n]:
        state.flip(n)


# ---------------------------------------------------------------------------
# pairing


def spouse_links(state: SamplerState, strategy: StrategySpec) -> dict:
    """The one rule for which spouse pairs may move.

    Maps each diagnostic-sampled node, in index order, to its links: one
    (child, other diagnostic-sampled parents of that child) entry per scope
    child, inside the evidence cover for cover-gated policies.  A node may
    pair with any parent listed in its links; child-true policies further
    require that link's child to be on.  Pairs form only through children
    that carry evidence flow: a forward-sampled child couples nothing in the
    collapsed posterior, and gating on its sampled value biases the chain.
    """
    net = state.net
    is_diagnostic = [False] * len(net.ids)
    for j in state.diagnostic:
        is_diagnostic[j] = True
    cover = evidence_cover(net, state.ev) if strategy.cover_gated else None
    return {
        j: [
            (c, [b for b in net.parents[c] if b != j and is_diagnostic[b]])
            for c in state.scope_children[j]
            if cover is None or c in cover
        ]
        for j in state.diagnostic
    }


class _PairPlan:
    """The gates of `spouse_links` that stay fixed for one chain.

    Cover gates read the evidence alone, and evidence and clamped nodes
    never change value within a chain, so a node's spouse list (the union of
    its links' parents, in link order, without repeats) is fixed unless a
    child-true gate reads a free child.  `spouses` maps every node with
    links, in index order, to its fixed spouse list, or to None when `links`
    keeps its links for the gate to read on every sweep.

    The gated spouse map is then a function of the values of the free
    children those links name, `gate_values(x)`, and of nothing else.  The
    plan keeps the last such values and the map built from them (`last`);
    `pair_nodes` reuses that map while the values are equal, so it holds the
    same lists in the same order a rebuild would.  Keying on values rather
    than on flips keeps it right when a caller writes `x` directly.
    """

    def __init__(self, state: SamplerState, strategy: StrategySpec):
        x = state.x
        cover_gated = strategy.cover_gated
        self.strategy = strategy
        self.spouses = {}
        self.links = {}
        for j, links in spouse_links(state, strategy).items():
            if not links:
                continue
            if not cover_gated and any(state.is_free[c] for c, _ in links):
                self.spouses[j] = None
                self.links[j] = links
                continue
            # child-true policies: the shared child is on, here fixed by evidence
            on = [others for c, others in links if cover_gated or x[c]]
            if on:
                self.spouses[j] = _spouse_union(on)
        gate = sorted({c for links in self.links.values() for c, _ in links if state.is_free[c]})
        self.gate_values = operator.itemgetter(*gate) if gate else None
        self.last = (None, None)  # (gate values, the spouse map built from them)


def _spouse_union(groups):
    if len(groups) == 1:
        return groups[0]
    return list(dict.fromkeys(b for others in groups for b in others))


def pair_nodes(state: SamplerState, strategy: StrategySpec):
    """Greedy random pairing of eligible spouses; everyone else moves alone.

    Returns (pairs, singles) covering every diagnostic-sampled node exactly
    once; forward-sampled nodes are redrawn from their parents and never
    paired.  Child-true gates on free children read the current state on
    every call, through the plan's last spouse map when the gated children
    hold the values it was built from; everything else comes from the
    chain's plan for this strategy.
    """
    plan = state.pair_plan
    if plan is None or plan.strategy is not strategy:
        plan = state.pair_plan = _PairPlan(state, strategy)
    spouses = plan.spouses
    if plan.links:
        # child-true policies: the shared child is currently on, observed or sampled
        x = state.x
        key = plan.gate_values(x)
        seen, spouses = plan.last
        if key != seen:
            spouses = {}
            for j, mates in plan.spouses.items():
                if mates is None:
                    live = [others for c, others in plan.links[j] if x[c]]
                    if not live:
                        continue
                    mates = _spouse_union(live)
                spouses[j] = mates
            plan.last = (key, spouses)
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


# ---------------------------------------------------------------------------
# sweeps


def _run_pair_events(state, strategy, pairs, singles):
    events = [("p",) + p for p in pairs] + [("s", j) for j in singles]
    state.rng.shuffle(events)
    swap = strategy.pair_move == "swap"
    for ev in events:
        if ev[0] == "s":
            single_site_move(state, ev[1], strategy.rule)
        elif swap:
            if state.rng.random() < SWAP_FRACTION:
                swap_pair_move(state, ev[1], ev[2], strategy.rule)
            else:
                single_site_move(state, ev[1], strategy.rule)
                single_site_move(state, ev[2], strategy.rule)
        else:
            block_pair_move(state, ev[1], ev[2], strategy.rule)


def _single_site_sweep(state: SamplerState, rule):
    """`single_site_move` on every diagnostic-sampled node in shuffled
    order, then `forward_redraw` on the forward tail, each in one loop: the
    lookups are bound and the cost is charged once per sweep, with the same
    sum."""
    order = list(state.diagnostic)
    rng = state.rng
    rng.shuffle(order)
    draw = rng.random
    cache = state.odds_cache
    fill = state.fill_odds
    flip = state.flip
    x = state.x
    sums = state.acc.sums
    counts = state.acc.counts
    if rule == GIBBS:
        for n in order:
            p_on = (cache[n] or fill(n))[1]
            sums[n] += p_on
            counts[n] += 1
            if (draw() < p_on) != x[n]:
                flip(n)
    else:
        for n in order:
            odds, p_on = cache[n] or fill(n)
            sums[n] += p_on
            counts[n] += 1
            ratio = (1.0 - p_on) / p_on if x[n] else odds
            if ratio >= 1.0 or draw() < ratio:
                flip(n)
    surv = state.surv
    for n in state.topo_forward:
        p_on = 1.0 - surv[n]
        sums[n] += p_on
        counts[n] += 1
        if (draw() < p_on) != x[n]:
            flip(n)
    state.cost += state.sweep_cost


def _fwd_bwd_sweep(state: SamplerState, strategy: StrategySpec):
    """One pass of the alternating schedule.

    Forward passes visit every free node in topological order, redrawing
    forward-sampled nodes from their freshly updated parents; backward passes
    revisit only the diagnostic-sampled nodes, in reverse order.  Pairings
    and swap coins are fresh per pass.

    Only the posterior of the diagnostic-sampled nodes stays invariant, not
    the joint: the backward pass leaves forward-sampled nodes stale, no
    longer drawn from their moved parents.  That marginal is the target,
    since forward-sampled nodes carry no evidence back to it.
    """
    backward = state.sweep_idx % 2 == 1
    pairs, singles = pair_nodes(state, strategy)
    partner = {}  # both ways, for the pairs whose swap coin came up
    for a, b in pairs:
        if state.rng.random() < SWAP_FRACTION:
            partner[a] = b
            partner[b] = a
    order = state.topo_diagnostic_reversed if backward else state.topo_free
    done = set()
    for j in order:
        if j in done:
            continue
        if state.forward_sampled[j]:
            forward_redraw(state, j)
            continue
        if j in partner:
            swap_pair_move(state, j, partner[j], strategy.rule)
            done.add(partner[j])
        else:
            single_site_move(state, j, strategy.rule)


def run_sweep(state: SamplerState, strategy: StrategySpec):
    """Visit every free node once under the strategy's policy.

    The diagnostic-sampled nodes move in random order, alone or in pairs;
    then the forward-sampled ones, if the flow map has any, are redrawn in
    topological order.
    """
    if strategy.move_policy == SINGLE_SITE:
        _single_site_sweep(state, strategy.rule)
    elif strategy.move_policy == OPTIMIZED_FWD_BWD:
        _fwd_bwd_sweep(state, strategy)
    else:
        pairs, singles = pair_nodes(state, strategy)
        _run_pair_events(state, strategy, pairs, singles)
        for j in state.topo_forward:
            forward_redraw(state, j)
    state.sweep_idx += 1


def estimate_marginals(net, ev, clamp: ClampResult, acc: MarginalAccumulator) -> dict:
    """Posterior estimates for every node: evidence is its indicator, clamped
    nodes report 0, free nodes report their mean Rao-Blackwell credit."""
    out = {}
    for j, nid in enumerate(net.ids):
        if nid in ev:
            out[nid] = 1.0 if ev[nid] else 0.0
        elif nid in clamp.clamped_false:
            out[nid] = 0.0
        else:
            c = acc.counts[j]
            out[nid] = acc.sums[j] / c if c else 0.0
    return out


# ---------------------------------------------------------------------------
# whole runs


@dataclass
class ChainResult:
    checkpoint_estimates: dict  # checkpoint sweep -> estimates after it
    cost: int
    seconds: float


def clamp_and_flow(net, ev, strategy: StrategySpec):
    """The (clamp, flow) maps a strategy's chain runs on.  Flow-aware
    strategies get the evidence-flow map, all others the blanket map."""
    clamp = clamp_pass(net, ev) if strategy.clamp else no_clamp(net, ev)
    return clamp, classify_flow(net, ev, clamp, blanket=not strategy.flow_aware)


def setup_chain(net, ev, strategy: StrategySpec, rng) -> SamplerState:
    clamp, flow = clamp_and_flow(net, ev, strategy)
    return initialize_state(net, ev, clamp, rng, flow)


def _run_chains(net, ev, strategy, sweeps, seeds, burn_in, checkpoints=()):
    """Validate once, then run one chain per seed.

    Each chain is set up and swept `sweeps` times.  A checkpoint estimates
    from the credits held after that sweep; the credits are cleared after
    sweep `burn_in`, so a checkpoint at or before it covers burn-in sweeps
    only (the benchmark grid rejects such checkpoints).  Returns (state,
    checkpoint estimates, sweep-loop seconds) per chain.
    """
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
            run_sweep(state, strategy)
            if s in wanted:
                marks[s] = estimate_marginals(net, ev, state.clamp, state.acc)
            if s == burn_in:
                state.acc.reset()
            if s % 20000 == 0:
                state.refresh_survivals()  # bound float drift on very long runs
        runs.append((state, marks, time.perf_counter() - t0))
    return runs


def run_chain(net, ev, strategy, sweeps, seed, burn_in=0, checkpoints=()) -> ChainResult:
    """Run one chain and return its estimates at each checkpoint, its move
    cost and its sweep-loop seconds.  List `sweeps` among the checkpoints
    for the estimates at the end of the chain."""
    [(state, marks, seconds)] = _run_chains(net, ev, strategy, sweeps, [seed], burn_in, checkpoints)
    return ChainResult(marks, state.cost, seconds)


def sample_posteriors(net, ev, strategy, sweeps, seed, burn_in=0, chains=1) -> dict:
    """Merge one or more chains into a single marginal estimate per node."""
    if chains < 1:
        raise ValueError("need at least one chain")
    seeds = [derive_seed(seed, "chain", k) for k in range(chains)] if chains > 1 else [seed]
    runs = _run_chains(net, ev, strategy, sweeps, seeds, burn_in)
    merged = runs[0][0].acc
    for state, _, _ in runs[1:]:
        merged.merge(state.acc)
    return estimate_marginals(net, ev, runs[0][0].clamp, merged)
