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
the benchmark harness reports on.  A chain is bound to one strategy when it
is set up: its `SamplerState` builds the clamp, flow map and pair plan, with
each pair's scope, once, and every move and estimate reads them, the rule
and the credits from the chain.

Flow-awareness enters a chain only through its flow map.  A flow-aware
chain runs on `classify_flow`'s map: nodes with no evidential child are
forward-sampled, redrawn from their parents after the sweep's moves, and
never paired.  Any other chain runs on the blanket map, under which no
node is forward-sampled, so the same sweep loop serves both: its forward
tail is empty and every free node is movable.

A single-site move reuses a node's conditional until a value it read
changes, as in Pearl's message-passing Gibbs, where a node recomputes only
when a neighbour announces a change.  `SamplerState` caches each
diagnostic-sampled node's (odds, p_on).  The conditional of d reads x and
the survival cache of d and of each scope child, and a survival changes
when a parent flips.  So flipping k makes d stale when k is d, a parent of
d, a scope child of d or a parent of one, whatever the values.
`SamplerState` holds that rule as one list per node, and every change of
a value after set-up is a `flip`, which clears its node's list.  A pair
move weighs its joint states from the caches without changing a value,
each survival moved by the same float operations, a's flip then b's, that
landing there applies, and flips only the nodes whose value its draw
changes: a move that stays writes and clears nothing.  A hit returns the
floats a recompute would, so chains are bit-identical with or without the
cache.

Every chain draws from a `ChainRandom`, which draws the numbers
`random.Random` draws from the same seed and leaves it in the same state,
but shuffles and picks below n without a Python call per draw.  Every
chain runs a stretch of sweeps per `run_sweep` call, from one checkpoint
or the end of burn-in to the next, with lookups bound once per stretch.
A single-site sweep runs one loop per rule and then redraws its forward
tail in a loop of its own.  A pair sweep lists its visits and runs them in
one loop, making its single-site moves, forward redraws and identity swaps
inline and calling the block and swap moves.  Under the random schedule the
visits are the shuffled pairs and singles, and the forward tail is redrawn
after them in a loop of its own, as in the single-site sweep.  Under the
alternating schedule they are the pass's walk, its forward redraws
included, with each pair put at its first node by a node-to-position table
per walk, built once per stretch.  The pair path draws only through the
rng's `random`, `randrange` and `shuffle`: the tests find a sweep's exact
kernel by replaying it down every outcome of those three draws
(`tests/oracles.py`, `ForkRng`), and a draw through any other method would
fail that replay.  Moves credit the chain's sums and charge cost but count
no visit: both loops end a stretch with one
`_close_stretch`, which adds its sweeps and its forward redraws to the
chain's two visit totals, charges the inline moves' cost and advances the
sweep index.  Both loops fill a missing conditional by
`SamplerState.fill_odds`.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
import time
from dataclasses import dataclass

from . import flow as flowmod
from .flow import clamp_pass, classify_flow, evidence_cover, no_clamp
from .network import validate

GIBBS = "gibbs"
METROPOLIS = "metropolis"

SINGLE_SITE = "single-site"
BLOCK_SPOUSES_COVER = "block-spouses-cover"
BLOCK_SPOUSES_PARENT_TRUE = "block-spouses-parent-true"
SWAP_SPOUSES_COVER = "swap-spouses-cover"
SWAP_SPOUSES_CHILD_TRUE = "swap-spouses-child-true"
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
    OPTIMIZED_FWD_BWD: ("swap", False),
}

# share of a swap policy's pair visits that swap; the rest move single-site
SWAP_FRACTION = 0.8

# the smallest normal float: a survival or a pair move's total weight below
# it may have lost factors to underflow, so it is recomputed from the parents
_MIN_NORMAL = 2.2250738585072014e-308

# a run recomputes the survival caches after every this many sweeps, which
# bounds the float drift of their running products on very long chains
_REFRESH_SWEEPS = 20000


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
        StrategySpec("optimized-random", True, True, SWAP_SPOUSES_CHILD_TRUE, METROPOLIS),
        StrategySpec("optimized-fwd-bwd", True, True, OPTIMIZED_FWD_BWD, METROPOLIS),
    ]
}


def preset(name) -> StrategySpec:
    """The preset strategy called `name`; ValueError naming the presets if none is."""
    if name not in PRESETS:
        raise ValueError(f"unknown strategy {name!r}; presets: {sorted(PRESETS)}")
    return PRESETS[name]


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

    def shuffle(self, items):
        # Fisher-Yates from the back, drawing j below n for position n - 1
        getrandbits = self.getrandbits
        for n, k, last in _shuffle_steps(len(items)):
            j = getrandbits(k)
            while j >= n:
                j = getrandbits(k)
            items[last], items[j] = items[j], items[last]


@functools.lru_cache(maxsize=128)
def _shuffle_steps(size):
    """(n, bit length of n, n - 1) for each step of a shuffle of `size` items."""
    return tuple((n, n.bit_length(), n - 1) for n in range(size, 1, -1))


def derive_seed(master, *tags) -> int:
    """Stable 63-bit seed for a labelled sub-stream of a master seed."""
    text = ":".join([str(master)] + [str(t) for t in tags])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class SamplerState:
    """Mutable chain state: values, cached noisy-or survivals, credits, rng.

    The chain runs under `strategy` for life.  It clamps by `clamp_pass` if
    the strategy clamps and by `no_clamp` if not; the flow map is the
    blanket map unless the strategy is flow-aware; `pair_plan` is the
    strategy's `_PairPlan`, or None under the single-site policy.  `x`
    starts with the evidence at its observed values and every other node
    off, and only free nodes ever change.  The free nodes are the clamp's
    `unclamped`, split into the `forward_sampled` ones and the `diagnostic`
    ones.  `surv` caches the survivals as running products, which `flip`
    updates over the `child_links` and recomputes on underflow.
    `odds_cache[n]` holds (odds, p_on) of n's conditional for a
    diagnostic-sampled node n, or None when `fill_odds` must recompute it
    over the `scope_links`.  `flip(k)` toggles k and clears the nodes
    `stale[k]` lists, whatever the values; `refresh_survivals` clears every
    entry.  A flip and a flip back both clear, since `s * q / q` may differ
    from `s` in the last bit.  So pair moves never flip to weigh: they read
    every joint state's weight from the caches and flip only to land.

    The chain keeps its own book since the last reset: `sums`, each node's
    summed Rao-Blackwell credits, which the moves add to, and two visit
    totals, which only `_close_stretch` adds to: `sweeps`, the visits every
    diagnostic-sampled node has had, and `redraws`, the visits every
    forward-sampled node has had.
    """

    def __init__(self, net, ev, strategy: StrategySpec, rng):
        self.net = net
        self.ev = ev
        self.strategy = strategy
        clamp = clamp_pass(net, ev) if strategy.clamp else no_clamp(net, ev)
        flow = classify_flow(net, ev, clamp, blanket=not strategy.flow_aware)
        self.rng = rng
        n = len(net.ids)
        self.x = [0] * n
        for nid, value in ev.items():
            self.x[net.index[nid]] = 1 if value else 0
        self.surv = [0.0] * n
        self.free = sorted(net.index[nid] for nid in clamp.unclamped)
        self.is_free = [False] * n
        for j in self.free:
            self.is_free[j] = True
        # children each node's conditional actually conditions on, per the flow map
        self.scope_children = [[] for _ in range(n)]
        self.scope_links = [[] for _ in range(n)]  # (c, 1 - p) per scope child
        self.forward_sampled = [False] * n
        for nid, info in flow.items():
            # only diagnostic-sampled nodes have evidential children
            j = net.index[nid]
            self.forward_sampled[j] = info.status == flowmod.FORWARD_SAMPLED
            for cid in info.evidential_children:
                c = net.index[cid]
                self.scope_children[j].append(c)
                self.scope_links[j].append((c, 1.0 - net.edge_p[(j, c)]))
        # visit orders, fixed for the chain: free diagnostic-sampled nodes by
        # index, all free nodes in topological order, the diagnostic ones in
        # reverse topological order, and the forward-sampled ones in order
        self.diagnostic = [j for j in self.free if not self.forward_sampled[j]]
        self.topo_free = [j for j in net.topo if self.is_free[j]]
        self.topo_diagnostic_reversed = [
            j for j in reversed(self.topo_free) if not self.forward_sampled[j]
        ]
        self.topo_forward = [j for j in self.topo_free if self.forward_sampled[j]]
        # (c, 1 - p) per child, needed to keep surv caches exact
        self.child_links = [[(c, 1.0 - net.edge_p[(j, c)]) for c in net.children[j]] for j in range(n)]
        self.sums = [0.0] * n
        self.sweeps = self.redraws = 0
        self.sweep_idx = 0
        self.cost = 0
        # deterministic per-node move cost, used for the benchmark cost ratios;
        # a single-site sweep moves every diagnostic node and redraws the rest
        self.move_cost = [1 + len(self.scope_children[j]) for j in range(n)]
        self.sweep_cost = sum(self.move_cost[j] for j in self.diagnostic) + len(self.topo_forward)
        # the conditional of d reads x and surv of d and of its scope
        # children, and surv of a node changes when one of its parents flips
        self.stale = [[] for _ in range(n)]
        for d in self.diagnostic:
            scope = [d, *self.scope_children[d]]
            for k in {*scope, *(i for c in scope for i in net.parents[c])}:
                self.stale[k].append(d)
        self.odds_cache = [None] * n
        # the plan reads x at fixed nodes only, which hold their values by now
        self.pair_plan = _PairPlan(self) if strategy.pair_move else None

    def refresh_survivals(self):
        for j in range(len(self.x)):
            self.surv[j] = self.net.survival(j, self.x)
        self.odds_cache = [None] * len(self.x)

    def flip(self, n):
        """Toggle node n, update the survival caches of all its children and
        drop the cached conditionals on `stale[n]`.  Turning n off
        recomputes from its parents, rather than divides, a survival that
        underflowed below the smallest normal float."""
        x = self.x
        surv = self.surv
        if x[n]:
            x[n] = 0
            for c, q in self.child_links[n]:
                s = surv[c]
                surv[c] = s / q if s >= _MIN_NORMAL else self.net.survival(c, x)
        else:
            x[n] = 1
            for c, q in self.child_links[n]:
                surv[c] *= q
        cache = self.odds_cache
        for k in self.stale[n]:
            cache[k] = None

    def fill_odds(self, n):
        """Compute, cache and return the odds and probability of n being on
        given its conditioning scope, for a cache miss.  An off child
        contributes q alone; an on child the ratio of its on-probabilities
        with n on and off, from its survival cache.  A survival of 0.0, or
        odds past the float range, mean n is on for certain."""
        surv = self.surv
        x = self.x
        sn = surv[n]
        odds = (1.0 - sn) / sn if sn else float("inf")
        if x[n]:
            for c, q in self.scope_links[n]:
                if x[c]:
                    sc = surv[c]
                    odds *= (1.0 - sc) / (1.0 - sc / q)
                else:
                    odds *= q
        else:
            for c, q in self.scope_links[n]:
                if x[c]:
                    sc = surv[c]
                    odds *= (1.0 - sc * q) / (1.0 - sc)
                else:
                    odds *= q
        hit = self.odds_cache[n] = (odds, odds / (1.0 + odds) if odds < 1e308 else 1.0)
        return hit


def setup_chain(net, ev, strategy: StrategySpec, rng) -> SamplerState:
    """Start a chain under `strategy`: evidence fixed, clamped nodes false,
    free nodes forward-drawn."""
    state = SamplerState(net, ev, strategy, rng)
    x = state.x
    for j in state.topo_free:
        x[j] = 1 if rng.random() < (1.0 - net.survival(j, x)) else 0
    state.refresh_survivals()
    return state


# ---------------------------------------------------------------------------
# moves


def single_site_move(state: SamplerState, n):
    """Resample one free node; always credit its conditional into the sums.
    Both sweep loops make this move inline, visit for visit, and call
    neither it nor `forward_redraw`; the two stay as the moves' reference
    form, which the benchmark's tracer wraps by name."""
    odds, p_on = state.odds_cache[n] or state.fill_odds(n)
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


def _log(v):
    return math.log(v) if v > 0.0 else -math.inf


def _underflow_weights(state, a, b, joint):
    """The restricted weights, over the plan's scope for (a, b), of a pair
    move's joint states, each an (x[a], x[b]) pair in `joint`, for when the
    caches cannot give them: a survival the move would divide, or the
    weights' total, is below the smallest normal float, so some weights may
    have lost factors to underflow.  Each is summed as logs of factors
    computed from the parents, not the caches, and scaled so the largest is
    1.0.  Leaves the values and the caches as they were."""
    net = state.net
    x = state.x
    held = x[a], x[b]
    logs = []
    for xa, xb in joint:
        x[a], x[b] = xa, xb
        lw = 0.0
        for k, _, _ in state.pair_plan.scope[(a, b)]:
            ls = _log(1.0 - net.leak[k])
            for i, p in zip(net.parents[k], net.parent_p[k]):
                if x[i]:
                    ls += _log(1.0 - p)
            lw += _log(-math.expm1(ls)) if x[k] else ls
        logs.append(lw)
    x[a], x[b] = held
    top = max(logs)
    return [math.exp(lw - top) for lw in logs]


def swap_pair_move(state: SamplerState, a, b):
    """Exchange the values of two spouses, or keep them, by restricted weight.

    When the two values are already equal the exchange is the identity; the
    move still credits both nodes (with their current indicator, the
    one-state distribution), since the sweep counts the visit all the same.
    Otherwise it weighs the exchanged state from the caches, each survival
    moved as `flip` of a, then of b, would move it, and makes those two
    flips only if the exchange is taken: a move that stays changes nothing.
    """
    sums = state.sums
    x = state.x
    if x[a] == x[b]:
        sums[a] += float(x[a])
        sums[b] += float(x[b])
        state.cost += 1
        return
    table = state.pair_plan.scope[(a, b)]
    state.cost += 2 * len(table)
    surv = state.surv
    a_on = x[a]  # the exchange turns a off and b on, or a on and b off
    w_cur = w_swap = 1.0
    total = 0.0  # stays 0.0 if a survival to divide is below the normal floats
    for k, qa, qb in table:
        s = surv[k]
        if a_on:
            if s < _MIN_NORMAL:
                break
            t = s / qa * qb
        else:
            t = s * qa
            if t < _MIN_NORMAL:
                break
            t /= qb
        on = x[k]
        w_cur *= 1.0 - s if on else s
        if k == a or k == b:
            on = not on
        w_swap *= 1.0 - t if on else t
    else:
        total = w_cur + w_swap
    if total < _MIN_NORMAL:
        w_cur, w_swap = _underflow_weights(state, a, b, ((x[a], x[b]), (x[b], x[a])))
        total = w_cur + w_swap
    on_weight_a = w_cur if a_on else w_swap  # weight of the state where a is on
    sums[a] += on_weight_a / total
    sums[b] += (total - on_weight_a) / total
    if state.strategy.rule == GIBBS:
        stay = state.rng.random() >= w_swap / total
    else:
        stay = w_swap < w_cur and state.rng.random() >= w_swap / w_cur
    if not stay:
        state.flip(a)
        state.flip(b)


def block_pair_move(state: SamplerState, a, b):
    """Resample two spouses jointly over their four joint assignments.

    It weighs each of them from the caches, each survival moved as `flip`
    of a, then of b, from the start would move it, and then flips, in that
    order, only the nodes whose value the draw changes: a move that lands
    where it started changes nothing.
    """
    table = state.pair_plan.scope[(a, b)]
    state.cost += 4 * len(table)
    surv = state.surv
    x = state.x
    xa, xb = x[a], x[b]
    # the joint states (a, b), (a, !b), (!a, !b) and (!a, b), with a and b
    # at their start values and negated
    w0 = w1 = w2 = w3 = 1.0
    total = 0.0  # stays 0.0 if a survival to divide is below the normal floats
    for k, qa, qb in table:
        s = surv[k]
        if xa:
            if s < _MIN_NORMAL:
                break
            s3 = s / qa
        else:
            s3 = s * qa
        if xb:
            if s < _MIN_NORMAL or s3 < _MIN_NORMAL:
                break
            s1 = s / qb
            s2 = s3 / qb
        else:
            s1 = s * qb
            s2 = s3 * qb
        on0 = on1 = on2 = on3 = x[k]
        if k == a:
            on2 = on3 = not on0
        elif k == b:
            on1 = on2 = not on0
        w0 *= 1.0 - s if on0 else s
        w1 *= 1.0 - s1 if on1 else s1
        w2 *= 1.0 - s2 if on2 else s2
        w3 *= 1.0 - s3 if on3 else s3
    else:
        total = w0 + w1 + w2 + w3
    if total < _MIN_NORMAL:
        w0, w1, w2, w3 = _underflow_weights(
            state, a, b, ((xa, xb), (xa, 1 - xb), (1 - xa, 1 - xb), (1 - xa, xb)))
        total = w0 + w1 + w2 + w3
    state.sums[a] += (w0 + w1 if xa else w2 + w3) / total
    state.sums[b] += (w0 + w3 if xb else w1 + w2) / total
    if state.strategy.rule == GIBBS:
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
        # propose one of the three other states
        target = 1 + state.rng.randrange(3)
        w = (w1, w2, w3)[target - 1]
        if not (w >= w0 or state.rng.random() < w / w0):
            target = 0
    # a moves for targets 2 and 3, then b for 1 and 2
    if target >= 2:
        state.flip(a)
    if target == 1 or target == 2:
        state.flip(b)


def forward_redraw(state: SamplerState, n):
    """Draw a forward-sampled node straight from its noisy-or distribution.
    Both sweep loops make this move inline (see `single_site_move`)."""
    p_on = 1.0 - state.surv[n]
    state.sums[n] += p_on
    state.cost += 1
    want = 1 if state.rng.random() < p_on else 0
    if want != state.x[n]:
        state.flip(n)


# ---------------------------------------------------------------------------
# pairing


class _PairPlan:
    """The one rule for which spouse pairs may move: the candidate pairs of
    one chain under its strategy, their gates and their scopes, built once
    when the chain's `SamplerState` is.

    Each diagnostic-sampled node links, through each scope child (inside
    the evidence cover for cover-gated policies), to that child's other
    diagnostic-sampled parents.  Pairs form only through children that
    carry evidence flow: a forward-sampled child couples nothing in the
    collapsed posterior.  A cover link always counts.  A child-true link
    through a child fixed on (true evidence) leaves the pair ungated, one
    through a free child gates it on that child, and one through a child
    fixed off (false evidence; a free node's children are never clamped)
    is dropped, since it could never open.

    `spouses` maps every node with a partner, in index order, to its
    partners in link order without repeats; `gates` maps a gated
    child-true pair (either way round) to the free children whose being on
    opens it.  The gate is read when the pair moves, never when pairs are
    chosen, and neither map reads a free value.  Links run both ways, so
    `scope` maps both orders (a, b) of each pair to the nodes a move on it
    weighs, each as (k, qa, qb): a, b, then their scope children in order,
    without repeats, with the factor 1 - p of the link from a and from b
    to k, or 1.0 where there is none, which a move may multiply or divide
    by without changing the survival.
    """

    def __init__(self, state: SamplerState):
        net = state.net
        x = state.x
        is_free = state.is_free
        forward_sampled = state.forward_sampled
        cover = evidence_cover(net, state.ev) if state.strategy.cover_gated else None
        self.spouses = {}
        self.gates = {}
        for j in state.diagnostic:
            links = [
                (c, [b for b in net.parents[c] if b != j and is_free[b] and not forward_sampled[b]])
                for c in state.scope_children[j]
                if (c in cover if cover is not None else is_free[c] or x[c])
            ]
            if cover is None:
                ungated = {b for c, others in links if not is_free[c] for b in others}
                for c, others in links:
                    for b in others:
                        if is_free[c] and b not in ungated:
                            self.gates.setdefault((j, b), []).append(c)
            partners = list(dict.fromkeys(b for _, others in links for b in others))
            if partners:
                self.spouses[j] = partners
        scope_children = state.scope_children
        factor = {j: dict(state.child_links[j]) for j in self.spouses}
        self.scope = {}
        for a, partners in self.spouses.items():
            to_a = factor[a]
            for b in partners:
                to_b = factor[b]
                self.scope[(a, b)] = [
                    (k, to_a.get(k, 1.0), to_b.get(k, 1.0))
                    for k in dict.fromkeys([a, b, *scope_children[a], *scope_children[b]])
                ]


def pair_nodes(state: SamplerState):
    """Greedy random pairing of candidate spouses; everyone else moves alone.

    Returns (pairs, singles) covering every diagnostic-sampled node exactly
    once; forward-sampled nodes are redrawn from their parents and never
    paired.  The candidates come from the pair plan built with the chain
    and the draws from the chain's rng alone: pairing reads no value of the
    chain, and a child-true gate is read when its pair moves (`_pair_sweeps`).
    It draws through `shuffle` and `randrange` only, two of the three draws
    the exact-kernel replay in `tests/oracles.py` (`ForkRng`) can enumerate.
    `_pair_sweeps` calls it by this name once per sweep, so the benchmark's
    tracer, which wraps it by name, times every pairing.
    """
    spouses = state.pair_plan.spouses
    rng = state.rng
    randrange = rng.randrange
    order = list(spouses)
    rng.shuffle(order)
    matched = [False] * len(state.x)
    pairs = []
    for a in order:
        if matched[a]:
            continue
        partners = [b for b in spouses[a] if not matched[b]]
        if partners:
            b = partners[randrange(len(partners))] if len(partners) > 1 else partners[0]
            matched[a] = matched[b] = True
            pairs.append((a, b))
    return pairs, [j for j in state.diagnostic if not matched[j]]


# ---------------------------------------------------------------------------
# sweeps


def _single_site_sweeps(state: SamplerState, count):
    """`count` sweeps of `single_site_move` on every diagnostic-sampled node
    in shuffled order, then `forward_redraw` on the forward tail, each in
    one loop, with the lookups bound once per stretch; each sweep costs
    the chain's `sweep_cost`."""
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
    sums = state.sums
    gibbs = state.strategy.rule == GIBBS
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
    _close_stretch(state, count, count * state.sweep_cost)


def _pair_sweeps(state: SamplerState, count):
    """`count` sweeps of a pair schedule, each a visit list and one loop
    over it, with the lookups bound once and the stretch closed by
    `_close_stretch` with the summed cost of the inline moves.

    The visit list reads no chain value.  The random schedule shuffles
    `pair_nodes`'s pairs and singles together, visits them, and then
    redraws the forward tail in a loop of its own.  The alternating
    schedule walks every free node in topological order on forward passes,
    and only the diagnostic-sampled ones, in reverse, on backward passes;
    pairings are fresh per pass.  Its visit list is a copy of the pass's
    walk in which each pair takes the slot of whichever of its nodes the
    pass reaches first, oriented (that node, the other), and the other
    node's slot is dropped; both walks' node-to-position tables are built
    once per stretch.  The draws go through `random` here and `shuffle` and
    `randrange` in `pair_nodes`, the only draws `tests/oracles.py`'s
    `ForkRng` replays.

    A node visit is a forward redraw for a forward-sampled node and a
    single-site move otherwise, each the move `forward_redraw` or
    `single_site_move` makes, written inline.  A pair reads its gate when
    it is visited: while every child linking it is off, its two nodes move
    single-site.  Otherwise a block policy makes the block move, and a swap
    policy swaps on a fraction `SWAP_FRACTION` of visits, crediting an
    exchange of equal values inline as `swap_pair_move` would, and moves
    the two nodes single-site on the rest.

    Under the alternating schedule only the posterior of the
    diagnostic-sampled nodes stays invariant, not the joint: the backward
    pass leaves forward-sampled nodes stale, no longer drawn from their
    moved parents.  That marginal is the target, since forward-sampled
    nodes carry no evidence back to it.
    """
    strategy = state.strategy
    gibbs = strategy.rule == GIBBS
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
    sums = state.sums
    move_cost = state.move_cost
    forward_sampled = state.forward_sampled
    gates = state.pair_plan.gates
    if alternating:
        # each pass's walk, with a table of each node's position in it
        passes = []
        for walk in (state.topo_free, state.topo_diagnostic_reversed):
            pos = [0] * len(x)
            for i, j in enumerate(walk):
                pos[j] = i
            passes.append((walk, pos))
        tail = ()  # the forward walk visits the forward-sampled nodes
    else:
        tail = state.topo_forward
    cost = count * len(tail)  # a forward redraw costs 1
    for sweep in range(state.sweep_idx, state.sweep_idx + count):
        pairs, singles = pair_nodes(state)
        if alternating:
            walk, pos = passes[sweep % 2]
            visits = list(walk)
            for pair in pairs:
                a, b = pair
                i = pos[a]
                k = pos[b]
                if i < k:
                    visits[i] = pair
                    visits[k] = None
                else:
                    visits[k] = (b, a)
                    visits[i] = None
            visits = [v for v in visits if v is not None]
        else:
            visits = pairs + singles
            shuffle(visits)
        for v in visits:
            if type(v) is tuple:
                gate = gates.get(v)
                if gate is None or any(map(is_on, gate)):
                    a, b = v
                    if block:
                        block_pair_move(state, a, b)
                        continue
                    if draw() < SWAP_FRACTION:
                        if x[a] == x[b]:
                            # the identity exchange: each node credited its value
                            sums[a] += x[a]
                            sums[b] += x[b]
                            cost += 1
                        else:
                            swap_pair_move(state, a, b)
                        continue
                nodes = v
            elif forward_sampled[v]:
                p_on = 1.0 - surv[v]
                sums[v] += p_on
                cost += 1
                if (draw() < p_on) != x[v]:
                    flip(v)
                continue
            else:
                nodes = (v,)
            for n in nodes:
                odds, p_on = cache[n] or fill(n)
                sums[n] += p_on
                cost += move_cost[n]
                if gibbs:
                    if (draw() < p_on) != x[n]:
                        flip(n)
                else:
                    ratio = (1.0 - p_on) / p_on if x[n] else odds
                    if ratio >= 1.0 or draw() < ratio:
                        flip(n)
        for n in tail:
            p_on = 1.0 - surv[n]
            sums[n] += p_on
            if (draw() < p_on) != x[n]:
                flip(n)
    _close_stretch(state, count, cost)


def forward_passes(strategy: StrategySpec, first, count) -> int:
    """How many of `count` sweeps from sweep index `first` redraw the
    forward-sampled nodes under `strategy`: every one, or under the
    alternating schedule the forward passes, the even sweeps."""
    return (count + 1 - first % 2) // 2 if strategy.move_policy == OPTIMIZED_FWD_BWD else count


def _close_stretch(state: SamplerState, count, cost):
    """End a stretch of `count` sweeps: add `count` to the chain's `sweeps`
    and its `forward_passes` to its `redraws`, charge `cost` and advance
    the sweep index.  Every sweep visits each diagnostic-sampled node once,
    alone or in a pair, and each forward-sampled node on every forward
    pass, so one total per kind of node counts every node's visits."""
    state.sweeps += count
    state.redraws += forward_passes(state.strategy, state.sweep_idx, count)
    state.cost += cost
    state.sweep_idx += count


def run_sweep(state: SamplerState, count):
    """Sweep `count` times under the chain's strategy, each sweep visiting
    every diagnostic-sampled node once, alone or in a pair, and redrawing
    the forward-sampled ones from their parents (under the alternating
    schedule, on forward passes only)."""
    if state.strategy.move_policy == SINGLE_SITE:
        _single_site_sweeps(state, count)
    else:
        _pair_sweeps(state, count)


def estimate_marginals(state: SamplerState) -> dict:
    """The chain's posterior estimates for every node.  A node that is not
    free reports its fixed value: evidence its indicator, clamped nodes 0.
    A free node reports its mean Rao-Blackwell credit, its sum over the
    chain's `redraws` if forward-sampled and over its `sweeps` if not;
    ValueError naming the node if it has had no visit since the reset."""
    x = state.x
    sums = state.sums
    is_free = state.is_free
    forward_sampled = state.forward_sampled
    out = {}
    for j, nid in enumerate(state.net.ids):
        if not is_free[j]:
            out[nid] = float(x[j])
            continue
        visits = state.redraws if forward_sampled[j] else state.sweeps
        if not visits:
            why = "every sweep was a backward pass" if state.sweeps else "no sweep has run"
            raise ValueError(f"node {nid!r} has no visit to estimate from: {why} since burn-in")
        out[nid] = sums[j] / visits
    return out


# ---------------------------------------------------------------------------
# whole runs


@dataclass
class ChainResult:
    checkpoint_estimates: dict  # checkpoint sweep -> estimates after it
    cost: int
    seconds: float


def _run_chains(net, ev, strategy, sweeps, seeds, burn_in, checkpoints=()):
    """Validate once, then run one chain per seed, in seed order.

    Each chain is set up and swept `sweeps` times.  A checkpoint estimates
    from the chain's book after that sweep; its sums and visit totals are
    cleared after sweep `burn_in`, so a checkpoint at or before it covers
    burn-in sweeps only (the benchmark grid rejects such checkpoints); the
    survival caches are recomputed every `_REFRESH_SWEEPS` sweeps.  The
    chain runs in stretches between those stops, one `run_sweep` call per
    stretch.
    Yields (state, checkpoint estimates, sweep-loop seconds) as each chain
    finishes, and takes the next seed only then, so a caller that keeps no
    finished chain holds only the running one, however many it runs.
    """
    if type(sweeps) is not int or sweeps < 1:
        raise ValueError(f"sweeps must be an integer of at least 1, got {sweeps!r}")
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
    refreshes = range(_REFRESH_SWEEPS, sweeps + 1, _REFRESH_SWEEPS)
    stops = sorted({*wanted, burn_in, sweeps, *refreshes} - {0})
    for seed in seeds:
        state = setup_chain(net, ev, strategy, ChainRandom(seed))
        marks = {}
        t0 = time.perf_counter()
        done = 0
        for s in stops:
            run_sweep(state, s - done)
            done = s
            if s in wanted:
                marks[s] = estimate_marginals(state)
            if s == burn_in:
                state.sums = [0.0] * len(state.sums)
                state.sweeps = state.redraws = 0
            if s % _REFRESH_SWEEPS == 0:
                state.refresh_survivals()
        yield state, marks, time.perf_counter() - t0
        del state, marks  # hold no finished chain while the next one runs


def run_chain(net, ev, strategy, sweeps, seed, burn_in=0, checkpoints=()) -> ChainResult:
    """Run one chain and return its estimates at each checkpoint, its move
    cost and its sweep-loop seconds.  List `sweeps` among the checkpoints
    for the estimates at the end of the chain."""
    [(state, marks, seconds)] = _run_chains(net, ev, strategy, sweeps, [seed], burn_in, checkpoints)
    return ChainResult(marks, state.cost, seconds)


def sample_posteriors(net, ev, strategy, sweeps, seed, burn_in=0, chains=1) -> dict:
    """Merge one or more chains into a single marginal estimate per node:
    each chain's sums and visit totals are added into the first chain's
    book as the chain finishes, in chain order, so memory stays flat in the
    number of chains."""
    if type(chains) is not int or chains < 1:
        raise ValueError(f"chains must be an integer of at least 1, got {chains!r}")
    seeds = (derive_seed(seed, "chain", k) for k in range(chains)) if chains > 1 else [seed]
    runs = _run_chains(net, ev, strategy, sweeps, seeds, burn_in)
    first, _, _ = next(runs)
    for state, _, _ in runs:
        first.sums = [s + t for s, t in zip(first.sums, state.sums)]
        first.sweeps += state.sweeps
        first.redraws += state.redraws
        del state  # let it go before the next chain is set up
    return estimate_marginals(first)
