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

Pairs are drawn from a candidate map fixed for the chain, so which pairs
form never depends on the chain's values.  A child-true policy moves a pair
jointly only while a child linking it is on; that gate is read when the
pair moves, and a shut gate moves the two nodes single-site instead.
Neither move changes the gate, so each pair event keeps the posterior
invariant whatever the gate reads.

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
scope child only while that child is on.  So toggling k makes stale every
node with k as a scope child, k's children, and, for each child of k that
is on, every node with that child as a scope child (k among them when the
child is in k's scope).  `SamplerState.invalidate` applies that rule for
every move: a flip after its toggle, a pair move to both nodes after its
last toggle.  The rule reads only whether a child is on, and a pair move
changes no value but its own nodes', whose readers are on their own lists,
so that clears all it must.  A hit returns the floats a recompute would, so
chains are bit-identical with or without the cache.

Every chain draws from a `ChainRandom`, which draws the numbers
`random.Random` draws from the same seed and leaves it in the same state,
but shuffles and picks below n without a Python call per draw.  Every
chain runs a stretch of sweeps per `run_sweep` call, from one checkpoint
or the end of burn-in to the next, with lookups bound once per stretch.
A single-site sweep runs one loop per rule and then redraws its forward
tail inline, and its visit counts and cost are charged once per stretch.
A pair sweep lists its visits and runs them in one loop, making its
single-site moves, forward redraws and identity swaps inline and calling
the block and swap moves; the cost of its inline moves is charged once
per stretch.  Both loops fill a missing conditional through
`SamplerState.fill_odds`.
"""

from __future__ import annotations

import functools
import hashlib
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
        False when a child linking the pair must be on when it moves."""
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
    `invalidate(k)` clears the nodes `stale[k]` lists, whatever the values,
    and for each (c, readers) in `stale_via[k]` clears the readers when c is
    on; `refresh_survivals` clears every entry.  A toggle and a toggle back
    still invalidate, since `s * q / q` may differ from `s` in the last bit.
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
        self.pair_memo = {}  # (a, b) -> pair_scope(self, a, b)
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
        self.invalidate(n)

    def invalidate(self, n):
        """Drop the cached conditionals that read a value a toggle of n
        changes, judged by the current values of n's children."""
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
    Both sweep loops make this move inline, visit for visit, and call
    neither it nor `forward_redraw`; the two stay as the moves' reference
    form, which the benchmark's tracer wraps by name."""
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
    touched = state.pair_memo.get((a, b))
    if touched is None:
        touched = [a, b]
        seen = {a, b}
        for j in (a, b):
            for c in state.scope_children[j]:
                if c not in seen:
                    seen.add(c)
                    touched.append(c)
        state.pair_memo[(a, b)] = touched
    return touched


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
    touched = pair_scope(state, a, b)
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
    state.invalidate(a)
    state.invalidate(b)


def block_pair_move(state: SamplerState, a, b, rule):
    """Resample two spouses jointly over their four joint assignments."""
    acc = state.acc
    touched = pair_scope(state, a, b)
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
    state.invalidate(a)
    state.invalidate(b)


def forward_redraw(state: SamplerState, n):
    """Draw a forward-sampled node straight from its noisy-or distribution.
    Both sweep loops make this move inline (see `single_site_move`)."""
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
    pair with any parent listed in its links; under child-true policies the
    pair moves jointly only while one of the children linking it is on, and
    that gate is read when the pair moves, never when pairs are chosen.
    Pairs form only through children that carry evidence flow: a
    forward-sampled child couples nothing in the collapsed posterior.
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
    """The candidate pairs of `spouse_links` for one chain, and their gates.

    `spouses` maps every node with a link, in index order, to its partners
    in link order without repeats; `gates` maps a child-true pair (either
    way round) to the free children that link it.  A cover link always
    counts.  A child-true link through a child fixed on (true evidence)
    leaves the pair ungated, one through a free child gates it on that
    child, and one through a child fixed off (false evidence or clamped)
    is dropped, since it could never open.  Neither map reads a free value.
    """

    def __init__(self, state: SamplerState, strategy: StrategySpec):
        x = state.x
        is_free = state.is_free
        self.strategy = strategy
        self.spouses = {}
        self.gates = {}
        for j, links in spouse_links(state, strategy).items():
            if not strategy.cover_gated:
                links = [(c, others) for c, others in links if is_free[c] or x[c]]
                ungated = {b for c, others in links if not is_free[c] for b in others}
                for c, others in links:
                    for b in others:
                        if is_free[c] and b not in ungated:
                            self.gates.setdefault((j, b), []).append(c)
            if links:
                self.spouses[j] = list(dict.fromkeys(b for _, others in links for b in others))
        self.order = list(self.spouses)


def pair_nodes(state: SamplerState, strategy: StrategySpec):
    """Greedy random pairing of candidate spouses; everyone else moves alone.

    Returns (pairs, singles) covering every diagnostic-sampled node exactly
    once; forward-sampled nodes are redrawn from their parents and never
    paired.  The candidates come from the chain's plan for this strategy
    and the draws from the chain's rng alone: pairing reads no value of the
    chain, and a child-true gate is read when its pair moves (`_pair_sweeps`).
    """
    plan = state.pair_plan
    if plan is None or plan.strategy is not strategy:
        plan = state.pair_plan = _PairPlan(state, strategy)
    spouses = plan.spouses
    rng = state.rng
    randrange = rng.randrange
    order = list(plan.order)
    rng.shuffle(order)
    matched = [False] * len(state.x)
    pairs = []
    for a in order:
        if matched[a]:
            continue
        partners = [b for b in spouses[a] if not matched[b]]
        if partners:
            b = partners[randrange(len(partners))]
            matched[a] = matched[b] = True
            pairs.append((a, b))
    return pairs, [j for j in state.diagnostic if not matched[j]]


# ---------------------------------------------------------------------------
# sweeps


def _single_site_sweeps(state: SamplerState, rule, count):
    """`count` sweeps of `single_site_move` on every diagnostic-sampled node
    in shuffled order, then `forward_redraw` on the forward tail, each in
    one loop: the lookups are bound, and the visit counts, cost and sweep
    index charged, once for all `count` sweeps, with the same totals."""
    diagnostic = state.diagnostic
    forward = state.topo_forward
    rng = state.rng
    shuffle = rng.shuffle
    draw = rng.random
    cache = state.odds_cache
    fill = state.fill_odds
    flip = state.flip
    x = state.x
    surv = state.surv
    sums = state.acc.sums
    gibbs = rule == GIBBS
    for _ in range(count):
        order = list(diagnostic)
        shuffle(order)
        if gibbs:
            for n in order:
                p_on = (cache[n] or fill(n))[1]
                sums[n] += p_on
                if (draw() < p_on) != x[n]:
                    flip(n)
        else:
            for n in order:
                odds, p_on = cache[n] or fill(n)
                sums[n] += p_on
                ratio = (1.0 - p_on) / p_on if x[n] else odds
                if ratio >= 1.0 or draw() < ratio:
                    flip(n)
        for n in forward:
            p_on = 1.0 - surv[n]
            sums[n] += p_on
            if (draw() < p_on) != x[n]:
                flip(n)
    counts = state.acc.counts
    for n in diagnostic + forward:
        counts[n] += count
    state.cost += count * state.sweep_cost
    state.sweep_idx += count


def _pair_sweeps(state: SamplerState, strategy: StrategySpec, count):
    """`count` sweeps of a pair schedule, each a visit list and one loop
    over it, with the lookups bound and the cost of the inline moves
    charged once for all `count` sweeps.

    The visit list reads no chain value.  The random schedule shuffles
    `pair_nodes`'s pairs and singles together and appends the forward tail.
    The alternating schedule walks every free node in topological order on
    forward passes, and only the diagnostic-sampled ones, in reverse, on
    backward passes; pairings are fresh per pass, and a pair moves at the
    position of whichever of its nodes the pass reaches first.

    A node visit is a forward redraw for a forward-sampled node and a
    single-site move otherwise, each the move `forward_redraw` or
    `single_site_move` makes, written inline.  A pair reads its gate when
    it is visited: while every child linking it is off, its two nodes move
    single-site.  Otherwise a block policy makes the block move, and a swap
    policy swaps on a fraction `SWAP_FRACTION` of visits, crediting an
    exchange of equal values inline as `swap_pair_move` would, and moves
    the two nodes single-site on the rest.  No move on a pair changes a
    gate child, so every branch keeps the posterior invariant on its own.

    Under the alternating schedule only the posterior of the
    diagnostic-sampled nodes stays invariant, not the joint: the backward
    pass leaves forward-sampled nodes stale, no longer drawn from their
    moved parents.  That marginal is the target, since forward-sampled
    nodes carry no evidence back to it.
    """
    rule = strategy.rule
    gibbs = rule == GIBBS
    block = strategy.pair_move == "block"
    alternating = strategy.move_policy == OPTIMIZED_FWD_BWD
    rng = state.rng
    shuffle = rng.shuffle
    draw = rng.random
    cache = state.odds_cache
    fill = state.fill_odds
    flip = state.flip
    x = state.x
    is_on = x.__getitem__
    surv = state.surv
    sums = state.acc.sums
    counts = state.acc.counts
    move_cost = state.move_cost
    forward_sampled = state.forward_sampled
    tail = state.topo_forward
    cost = 0
    for sweep in range(state.sweep_idx, state.sweep_idx + count):
        pairs, singles = pair_nodes(state, strategy)
        if not alternating:
            visits = pairs + singles
            shuffle(visits)
            visits += tail
        else:
            first = {}
            for a, b in pairs:
                first[a] = (a, b)
                first[b] = (b, a)
            visits = []
            for j in state.topo_diagnostic_reversed if sweep % 2 else state.topo_free:
                if j in first:
                    pair = first[j]
                    if pair is not None:
                        visits.append(pair)
                        first[pair[1]] = None
                else:
                    visits.append(j)
        gates = state.pair_plan.gates
        for v in visits:
            if type(v) is tuple:
                gate = gates.get(v)
                if gate is None or any(map(is_on, gate)):
                    a, b = v
                    if block:
                        block_pair_move(state, a, b, rule)
                        continue
                    if draw() < SWAP_FRACTION:
                        if x[a] == x[b]:
                            # the identity exchange: each node credited its value
                            sums[a] += x[a]
                            sums[b] += x[b]
                            counts[a] += 1
                            counts[b] += 1
                            cost += 1
                        else:
                            swap_pair_move(state, a, b, rule)
                        continue
                nodes = v
            elif forward_sampled[v]:
                p_on = 1.0 - surv[v]
                sums[v] += p_on
                counts[v] += 1
                cost += 1
                if (draw() < p_on) != x[v]:
                    flip(v)
                continue
            else:
                nodes = (v,)
            for n in nodes:
                odds, p_on = cache[n] or fill(n)
                sums[n] += p_on
                counts[n] += 1
                cost += move_cost[n]
                if gibbs:
                    if (draw() < p_on) != x[n]:
                        flip(n)
                else:
                    ratio = (1.0 - p_on) / p_on if x[n] else odds
                    if ratio >= 1.0 or draw() < ratio:
                        flip(n)
    state.cost += cost
    state.sweep_idx += count


def run_sweep(state: SamplerState, strategy: StrategySpec, count):
    """Sweep `count` times under the strategy's policy, each sweep visiting
    every diagnostic-sampled node once, alone or in a pair, and redrawing
    the forward-sampled ones from their parents (under the alternating
    schedule, on forward passes only)."""
    if strategy.move_policy == SINGLE_SITE:
        _single_site_sweeps(state, strategy.rule, count)
    else:
        _pair_sweeps(state, strategy, count)


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
    only (the benchmark grid rejects such checkpoints); the survival caches
    are recomputed after every 20000th sweep.  The chain runs in stretches
    between those stops, one `run_sweep` call per stretch.  Returns (state,
    checkpoint estimates, sweep-loop seconds) per chain.
    """
    if sweeps < 1:
        raise ValueError(f"sweeps must be at least 1, got {sweeps}")
    if type(burn_in) is not int or not 0 <= burn_in < sweeps:
        raise ValueError(
            f"burn-in must be an integer in [0, sweeps), got {burn_in} with {sweeps} sweeps")
    bad = [c for c in checkpoints if type(c) is not int or not 1 <= c <= sweeps]
    if bad:
        raise ValueError(f"checkpoints must be integers in [1, {sweeps}], got {bad}")
    problems = validate(net)
    if problems:
        raise ValueError("network fails strict validation: " + "; ".join(problems))
    wanted = set(checkpoints)
    stops = sorted({*wanted, burn_in, sweeps, *range(20000, sweeps + 1, 20000)} - {0})
    runs = []
    for seed in seeds:
        state = setup_chain(net, ev, strategy, ChainRandom(seed))
        marks = {}
        t0 = time.perf_counter()
        done = 0
        for s in stops:
            run_sweep(state, strategy, s - done)
            done = s
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
