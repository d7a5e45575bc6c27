"""Ground truth: exact posteriors by a junction tree, and explicit
transition matrices for the sampler's moves.

Posteriors come from a calibrated junction tree (Lauritzen & Spiegelhalter
1988).  Each node contributes one factor.  A free node gets a table over
itself and its free parents.  A node observed on gets a table over its free
parents.  A node observed off contributes a constant and, for each free
parent, a unary term, because a negative noisy-or finding factors over its
parents (Zhang & Poole 1996); those terms are folded into the parents' own
tables.  The free nodes are eliminated in min-fill order, ties going to the
lower node index, so a call repeats bit for bit.  An elimination clique
folds into its parent's table where one wider table costs less than two.
Each table holds its factors' product, as logs, so no product of many
small factors underflows; a collect pass and a distribute pass, with every
message scaled, leave each table proportional to its posterior joint.  No
table holds more nodes than the largest elimination clique, so the cost
grows exponentially in that clique's size, not in the number of free
nodes.  A tree over the evidence's ancestors alone leaves the other free
nodes barren: one with no free parent, or whose free parents share a
calibrated table, is read in closed form or from that table, and each
other one costs a collect pass with it observed off.

Transition matrices read one factor table: a row per enumerated state and
a column per node, holding each node's noisy-or survival and its factor.
The factors come from first principles rather than from the sampler's
cached fast paths, so agreement between the two is meaningful.  Each
column is the scalar noisy-or product taken vectorwise, with the same float
operations in the same parent order, so every kernel entry is the one a
state-by-state loop computes.

The chain layout does come from the sampler: a transition matrix builds
the strategy's own `SamplerState` and reads from it the free,
diagnostic-sampled and forward-sampled nodes, scope children and visit
orders, and the pairs, their gates and their scopes from the pair plan the
state built at set-up, so its kernels are the moves the sampler can make,
weighing the lists the moves weigh, and no others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .flow import _closure
from .network import Network, check_evidence
from .sampler import (
    GIBBS,
    OPTIMIZED_FWD_BWD,
    SamplerState,
    StrategySpec,
    _log,
)

_MATRIX_CAP = 12  # chain nodes a transition matrix may enumerate
# a junction tree's Python work, in the table entries that take as long:
# on a 2.1 GHz x86-64 core a table's messages take about 30 us, and a
# node's factor and elimination step about 25 us, against 55-130 ns per
# entry, more in tables that hold more factors
_CLIQUE_ENTRIES = 1 << 8  # per table
_NODE_ENTRIES = 1 << 9  # per node


class EnumerationCapError(ValueError):
    """More nodes would be enumerated jointly than the cap allows."""


def _factor_table(net, base, chain_nodes):
    """Values X, noisy-or survivals S and factors F of every chain state.

    State s sets chain_nodes[k] to bit k of s and every other node to its
    value in base; row s holds state s and column j node j.  S[s, j] is the
    probability that node j stays off given its parents and F[s, j] the
    probability of its value: 1 - S when on, S when off.
    """
    index = np.arange(1 << len(chain_nodes))
    # node-major storage keeps each column contiguous
    X = np.repeat(np.asarray(base, dtype=bool)[:, None], len(index), axis=1)
    for k, j in enumerate(chain_nodes):
        X[j] = (index >> k) & 1
    varies = set(chain_nodes)
    S = np.empty(X.shape)
    for j in range(len(net.ids)):
        S[j] = 1.0 - net.leak[j]
        for i, p in zip(net.parents[j], net.parent_p[j]):
            if i in varies:
                np.multiply(S[j], 1.0 - p, out=S[j], where=X[i])
            elif base[i]:
                S[j] *= 1.0 - p
    F = np.where(X, 1.0 - S, S)
    return X.T, S.T, F.T


# ---------------------------------------------------------------------------
# exact posteriors by a junction tree


def exact_posteriors(net: Network, ev: dict, cap: int = 22) -> dict:
    """Posterior marginals of every node given the evidence, exactly.

    Two plans can answer.  One junction tree covers every free node.  The
    other covers the evidence's ancestors only, since the other free nodes
    are barren and do not change their posterior.  A barren node c with no
    free parent, or whose free parents share a table, is read from the
    calibrated tree (`_JunctionTree.read`); any other gets P(c = 1 | e) =
    1 - Z(e, c = 0) / Z(e), from one collect pass over the ancestors of the
    evidence and c, with c observed off.  The plan of lower `cost` runs,
    the pruned tree's counted once for the evidence and once per barren
    node; `cap` only refuses a plan whose largest clique holds more nodes.
    Past the cap on both plans, or on a barren node's tree, or where a
    table cannot be allocated, it raises EnumerationCapError; evidence of
    probability zero, or failing `check_evidence`, raises ValueError.
    """
    check_evidence(net, ev)
    observed = {net.index[nid]: value for nid, value in ev.items()}
    tree, barren = _plan(net, observed, cap)
    z = tree.collect()
    if z == -math.inf:
        raise ValueError("evidence has zero probability under this network")
    marginals = tree.distribute()
    for c in barren:
        marginals[c] = tree.read(_split(net, observed, c))
        if marginals[c] is None:
            off = {**observed, c: False}
            c_tree = _JunctionTree(net, off, _free_ancestors(net, off))
            c_tree.check_cap(cap)
            # rounding can take the ratio a few ulps past 1
            marginals[c] = max(0.0, -math.expm1(c_tree.collect() - z))
    out = {nid: 1.0 if value else 0.0 for nid, value in ev.items()}
    for j in sorted(marginals):
        out[net.ids[j]] = marginals[j]
    return out


def _plan(net, observed, cap):
    """The junction tree to calibrate and the barren nodes it leaves out."""
    free = [j for j in range(len(net.ids)) if j not in observed]
    full = _JunctionTree(net, observed, free)
    kept = _free_ancestors(net, observed)
    barren = sorted(set(free).difference(kept))
    # a pruned pass eliminates the n kept nodes in some t tables, each at
    # least as wide as the nodes it eliminates, so it costs at least n nodes
    # and t tables with the n nodes split as evenly as can be; the pruned
    # tree need not be built when the full one is no dearer than that
    n = len(kept)
    tables = min((t * _CLIQUE_ENTRIES + ((t + n % t) << n // t) for t in range(1, n + 1)), default=0)
    floor = (1 + len(barren)) * (n * _NODE_ENTRIES + tables)
    if not barren or full.width <= cap and full.cost <= floor:
        full.check_cap(cap)
        return full, []
    pruned = _JunctionTree(net, observed, kept)
    fitting = [(tree, out) for tree, out in ((full, []), (pruned, barren)) if tree.width <= cap]
    if not fitting:
        min(full, pruned, key=lambda tree: tree.width).check_cap(cap)
    return min(fitting, key=lambda plan: plan[0].cost * (1 + len(plan[1])))


def _free_ancestors(net, observed) -> list:
    """The unobserved ancestors of the observed nodes, in index order."""
    return sorted(_closure(observed, net.parents).difference(observed))


def _split(net, observed, j):
    """Node j's stay-off weight with its free parents off, 1 - leak times
    1 - p over its parents observed on, as (value, log), and its free
    parents, in index order, each paired with its 1 - p."""
    s0 = 1.0 - net.leak[j]
    log_s0 = _log(s0)
    links = []
    for i, p in sorted(zip(net.parents[j], net.parent_p[j])):
        if i not in observed:
            links.append((i, 1.0 - p))
        elif observed[i]:
            s0 *= 1.0 - p
            log_s0 += _log(1.0 - p)
    return (s0, log_s0), links


def _factors(net, observed, nodes):
    """The joint of the observed nodes and the free `nodes`, which must hold
    every free parent of each, as a log constant, log `kept` terms and a
    list of factors.

    A factor is (scope, node, s0, links), with s0 and links from `_split`.
    `node` is the free node the factor gives the probability of, or None
    for a node observed on.  The
    scope lists the factor's free nodes in index order, one table axis
    each.  A node observed off adds log s0 to the constant and, to each
    free parent's `kept` term, log(1 - p), which that parent's own factor
    adds to its on entries.
    """
    const = 0.0
    kept = {}  # free node -> sum of log(1 - p) over its children observed off
    factors = []
    for j in sorted(observed):
        s0, links = _split(net, observed, j)
        if not observed[j]:
            const += s0[1]
            for i, q in links:
                kept[i] = kept.get(i, 0.0) + _log(q)
        elif links:
            factors.append((tuple(i for i, _ in links), None, s0, links))
        else:
            const += _log(1.0 - s0[0])
    for j in nodes:
        s0, links = _split(net, observed, j)
        factors.append((tuple(sorted([j] + [i for i, _ in links])), j, s0, links))
    return const, kept, factors


def _log_table(factor, kept):
    """A factor's log table, one axis per node of its scope.  Stay-off
    weights are summed as logs, so none underflows, and an on weight is 1
    less the stay-off weight, taken as -expm1 of its log.  The log of a
    weight 0 is -inf: call with numpy's divide warnings off."""
    scope, node, (_, log_s0), links = factor
    log_off = _log_off(log_s0, links)
    log_on = np.log(-np.expm1(log_off))
    if node is None:
        return log_on
    # the node's off/on pair along a new first axis, moved to its place
    k = scope.index(node)
    axes = (*range(1, k + 1), 0, *range(k + 1, len(scope)))
    return np.array((log_off, log_on + kept.get(node, 0.0))).transpose(axes)


def _log_off(log_s0, links):
    """Log stay-off weights, one axis per free parent in `links`, off then on."""
    log_off = np.float64(log_s0)
    for _, q in links:
        log_off = np.add.outer(log_off, (0.0, _log(q)))
    return log_off


def _bits(mask):
    """The nodes of a bitmask, bit v for node v, in index order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _fill(adj, v) -> int:
    """Edges that eliminating v would add between its neighbours."""
    nb = rest = adj[v]
    missing = nb.bit_count() * (nb.bit_count() - 1)
    while rest:
        low = rest & -rest
        missing -= (adj[low.bit_length() - 1] & nb).bit_count()
        rest ^= low
    return missing // 2


def _eliminate(nodes, scopes):
    """Min-fill elimination order, ties to the lower index, and each node's
    elimination clique as a bitmask, bit v for node v: itself and its
    neighbours when it is eliminated."""
    adj = dict.fromkeys(sorted(nodes), 0)
    for scope in scopes:
        mask = sum(1 << v for v in scope)
        for v in scope:
            adj[v] |= mask ^ 1 << v
    fill = {v: _fill(adj, v) for v in adj}
    order, cliques = [], {}
    while fill:
        v = min(fill, key=fill.__getitem__)  # the first, so the lowest, of least fill
        added = fill.pop(v)
        nb = touched = adj.pop(v)
        order.append(v)
        cliques[v] = nb | 1 << v
        for a in _bits(nb):
            adj[a] = (adj[a] | nb) & ~(1 << a | 1 << v)
            # without added edges only v's neighbours see their neighbourhood change
            if added:
                touched |= adj[a]
        for u in _bits(touched):
            fill[u] = _fill(adj, u)
    return order, cliques


def _shape(scope, nodes):
    """The shape that lays a table over `scope` along the axes of `nodes`;
    both list nodes in index order."""
    return tuple([2 if v in scope else 1 for v in nodes])


class _JunctionTree:
    """The junction tree of the free `nodes` of a network with the observed
    nodes fixed; `nodes` must hold every free parent of each of them and of
    each observed node.

    Node v's elimination clique holds v and its neighbours when it is
    eliminated, and hangs below the clique of the first of those eliminated
    after it.  In elimination order, each clique's table folds into its
    parent's when one table over their union costs less than the two, a
    table costing its entries and `_CLIQUE_ENTRIES`, and holds no more
    nodes than `width`, the largest clique.  A table, keyed by the last
    node it eliminates, sends its parent one message over what is left of
    it once the nodes it eliminates are summed out.  Building the tree
    enumerates nothing, so `width` and `cost` (its tables' costs and
    `_NODE_ENTRIES` per node) are known before `collect` allocates the
    tables.  Tables and messages hold logs, so no product of many small
    factors underflows before the weights it is weighed against."""

    def __init__(self, net, observed, nodes):
        self.const, self.kept, factors = _factors(net, observed, nodes)
        order, scope = _eliminate(nodes, [f[0] for f in factors])
        at = {v: k for k, v in enumerate(order)}
        self.width = max(map(int.bit_count, scope.values()), default=0)
        up = {v: min(_bits(scope[v] ^ 1 << v), key=at.__getitem__, default=None) for v in order}
        home = {}  # node -> the clique its table folded into, then the table itself
        for v in order:
            u = up[v]
            if u is not None:
                size = (scope[u] | scope[v]).bit_count()
                split = (1 << scope[u].bit_count()) + (1 << scope[v].bit_count()) + _CLIQUE_ENTRIES
                if size <= self.width and 1 << size < split:
                    scope[u] |= scope.pop(v)
                    home[v] = u
        for v in reversed(order):
            home[v] = home[home[v]] if v in home else v
        self.nodes = {v: tuple(_bits(scope[v])) for v in order if home[v] == v}
        self.parent = {v: None if up[v] is None else home[up[v]] for v in self.nodes}
        self.eliminated = {v: [] for v in self.nodes}
        for v in order:
            self.eliminated[home[v]].append(v)
        tables = sum(_CLIQUE_ENTRIES + (1 << len(table)) for table in self.nodes.values())
        self.cost = len(order) * _NODE_ENTRIES + tables
        self.factors = {v: [] for v in self.nodes}
        for f in factors:
            self.factors[home[min(f[0], key=at.__getitem__)]].append(f)

    def check_cap(self, cap):
        if self.width > cap:
            raise EnumerationCapError(
                f"the junction tree's largest clique has {self.width} nodes, "
                f"over the cap of {cap} nodes enumerated jointly"
            )

    def collect(self):
        """Fill each table with its factors' product, then sum the nodes it
        eliminates out of it into its parent's, scaling every message to a
        largest entry of 1.  Returns log Z, the log of the evidence's total
        weight: -inf when it is 0."""
        self.tables, self.messages = {}, {}
        with np.errstate(divide="ignore"):
            for v, nodes in self.nodes.items():
                try:
                    table = self.tables[v] = np.zeros((2,) * len(nodes))
                except MemoryError:
                    n = len(nodes)
                    raise EnumerationCapError(
                        f"the junction tree's table over {n} nodes needs {(8 << n) / 2**30:g} GiB, "
                        f"more than could be allocated; set a cap below {n} nodes (--cap)"
                    ) from None
                for f in self.factors[v]:
                    table += _log_table(f, self.kept).reshape(_shape(f[0], nodes))
        z = self.const
        for v, nodes in self.nodes.items():
            message, u = self.tables[v], self.parent[v]
            # logaddexp sums weights of 0 without taking the log of 0
            for k in sorted(map(nodes.index, self.eliminated[v]), reverse=True):
                lead = (slice(None),) * k
                message = np.logaddexp(message[lead + (0,)], message[lead + (1,)])
            peak = message.max()
            if peak == -math.inf:
                return peak
            message -= peak
            z += peak
            if u is not None:
                self.tables[u] += message.reshape(_shape(nodes, self.nodes[u]))
                # log 0 - 0 is still log 0: `distribute` divides by one subtraction
                # and a separator state of weight 0 below stays at weight 0
                message[message == -math.inf] = 0.0
                self.messages[v] = message
        return z

    def distribute(self):
        """Pass messages back from the roots after `collect`, and read each
        node's posterior from the table that eliminates it.  Keeps each
        table's weights, proportional to its posterior joint, for `read`."""
        marginals = {}
        weights = self.weights = {}
        with np.errstate(divide="ignore"):
            for v in reversed(self.nodes):
                nodes, u, table = self.nodes[v], self.parent[v], self.tables[v]
                if u is not None:
                    axes = tuple(a for a, w in enumerate(self.nodes[u]) if w not in nodes)
                    ratio = np.log(weights[u].sum(axis=axes))
                    ratio -= self.messages[v]
                    table += ratio.reshape(_shape(self.nodes[u], nodes))
                w = weights[v] = np.exp(table - table.max())
                total = w.sum()
                for x in self.eliminated[v]:
                    on = (slice(None),) * nodes.index(x) + (1,)
                    marginals[x] = float(w[on].sum() / total)
        return marginals

    def read(self, split):
        """P(c = 1 | e) for a barren node c, from its `_split`, after
        `distribute`: 1 - s0 with no free parent, else the mean of 1 - c's
        stay-off weight, summed as a log per state so a tiny P does not
        cancel, under the smallest table holding every free parent; None
        when no table does."""
        (_, log_s0), links = split
        if not links:
            return max(0.0, -math.expm1(log_s0))  # no -0.0
        parents = {i for i, _ in links}
        holding = [v for v, nodes in self.nodes.items() if parents.issubset(nodes)]
        if not holding:
            return None
        v = min(holding, key=lambda v: len(self.nodes[v]))
        on = -np.expm1(_log_off(log_s0, links)).reshape(_shape(parents, self.nodes[v]))
        w = self.weights[v]
        return max(0.0, float((w * on).sum() / w.sum()))


# ---------------------------------------------------------------------------
# explicit transition matrices


@dataclass
class TransitionMatrix:
    """Every per-move kernel of a strategy on an enumerable state space.

    states[s] is the assignment (tuple of 0/1 over node_order) of row/column
    s.  moves is a list of (label, kernel) with each kernel a sparse row
    stochastic matrix.  sweep_stages composes one sweep: a "mixture" stage
    applies the uniform average of its kernels (the expected move of a
    randomized schedule), a "product" stage applies its kernels in order.
    pi is the chain's target distribution on this space.
    """

    node_order: tuple
    states: list
    pi: np.ndarray
    moves: list
    sweep_stages: list
    # label -> the kernel's transpose, built on the first sweep
    _transposed: dict = field(default=None, init=False, repr=False, compare=False)

    def apply_sweep(self, vec: np.ndarray) -> np.ndarray:
        """One sweep applied to a distribution (or to each row of a matrix)."""
        if self._transposed is None:
            self._transposed = {lab: mat.T.tocsr() for lab, mat in self.moves}
        out = np.asarray(vec, dtype=float)
        for kind, labels in self.sweep_stages:
            steps = [self._transposed[lab] for lab in labels]
            if kind == "mixture":
                mixed = np.zeros_like(out)
                for kt in steps:
                    mixed += (kt @ out.T).T
                out = mixed / len(labels)
            else:
                for kt in steps:
                    out = (kt @ out.T).T
        return out


def explicit_transition_matrix(
    net: Network,
    ev: dict,
    strategy: StrategySpec,
) -> TransitionMatrix:
    """Build every kernel the strategy's sweeps are made of, exactly.

    The state space covers all free nodes, and forward redraws appear as
    explicit kernels in product stages.  A move whose conditional has zero
    weight in some state it may run from raises ValueError naming the move.

    For optimized-fwd-bwd the composed sweep is a backward pass, then a
    forward pass, of single-site and forward kernels only.  Its swap
    kernels are built, but no stage applies them, although the sampler's
    sweep swaps pairs: `apply_sweep` is not that chain's sweep.
    """
    # the one user of scipy, imported here so `exact_posteriors` never loads it
    from scipy import sparse

    # the chain's own layout: its nodes, scopes, pair rule and visit orders
    chain = SamplerState(net, ev, strategy, None)
    chain_nodes = chain.free
    if len(chain_nodes) > _MATRIX_CAP:
        raise EnumerationCapError(
            f"{len(chain_nodes)} chain nodes exceed the transition matrix cap of {_MATRIX_CAP}"
        )
    size = 1 << len(chain_nodes)
    bit = {j: 1 << k for k, j in enumerate(chain_nodes)}
    X, S, F = _factor_table(net, chain.x, chain_nodes)
    rows = np.arange(size)
    states = [tuple(state) for state in X[:, chain_nodes].astype(int).tolist()]

    def weight(nodes):
        # product of the nodes' factors, taken in list order
        w = np.ones(size)
        for k in nodes:
            w *= F[:, k]
        return w

    weights = weight(range(len(net.ids)))
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("state space has zero total probability")
    pi = weights / total

    moves = []

    def add_move(label, entries, *args):
        try:
            with np.errstate(divide="raise", invalid="raise"):
                parts = entries(*args)
        except FloatingPointError:
            raise ValueError(
                f"move {label} has a zero-weight conditional: every value it "
                "may give its nodes has probability zero in some state"
            ) from None
        rs, cs, vs = (np.concatenate(col) for col in zip(*parts))
        mat = sparse.csr_matrix((vs, (rs, cs)), shape=(size, size))
        sums = np.asarray(mat.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0, atol=1e-12)
        moves.append((label, mat))

    def move_or_stay(s, t, p):
        # from each state s: to t with probability p, else stay at s
        stay = p < 1.0
        return [(s, t, p), (s[stay], s[stay], 1.0 - p[stay])]

    def single_entries(j, rule):
        w = weight([j] + chain.scope_children[j])
        on, off = rows | bit[j], rows & ~bit[j]
        if rule == GIBBS:
            q1 = w[on] / (w[on] + w[off])
            return [(rows, on, q1), (rows, off, 1.0 - q1)]
        flip = np.where(X[:, j], off, on)
        return move_or_stay(rows, flip, np.minimum(1.0, w[flip] / w))

    def redraw_entries(j):
        q1 = 1.0 - S[:, j]
        return [(rows, rows | bit[j], q1), (rows, rows & ~bit[j], 1.0 - q1)]

    def pair_entries(a, b, kind, rule, gate_children):
        w = weight([k for k, _, _ in chain.pair_plan.scope[(a, b)]])
        both = bit[a] | bit[b]
        active = np.ones(size, dtype=bool)
        if gate_children is not None:
            active = X[:, gate_children].any(axis=1)
        if kind == "swap":
            active &= X[:, a] != X[:, b]
        idle = rows[~active]
        out = [(idle, idle, np.ones(len(idle)))]
        s = rows[active]
        if kind == "swap":
            t = s ^ both  # the pair differs, so swapping flips both bits
            if rule == GIBBS:
                return out + move_or_stay(s, t, w[t] / (w[s] + w[t]))
            return out + move_or_stay(s, t, np.minimum(1.0, w[t] / w[s]))
        clear = s & ~both
        targets = [clear, clear | bit[b], clear | bit[a], clear | both]
        ws = [w[t] for t in targets]
        if rule == GIBBS:
            z = ws[0] + ws[1] + ws[2] + ws[3]
            return out + [(s, t, wk / z) for t, wk in zip(targets, ws)]
        w_cur = w[s]
        stay = np.ones(len(s))
        for t, wk in zip(targets, ws):
            moving = t != s
            alpha = np.minimum(1.0, wk[moving] / w_cur[moving]) / 3.0
            out.append((s[moving], t[moving], alpha))
            stay[moving] -= alpha
        return out + [(s, s, stay)]

    mixture_labels = []
    # every policy keeps single-site moves for nodes the pairing leaves over
    for j in chain.diagnostic:
        label = ("single", net.ids[j])
        add_move(label, single_entries, j, strategy.rule)
        mixture_labels.append(label)
    kind = strategy.pair_move
    plan = chain.pair_plan
    if plan is not None:
        for a, b in sorted((a, b) for a, partners in plan.spouses.items() for b in partners if a < b):
            label = (kind, net.ids[a], net.ids[b])
            add_move(label, pair_entries, a, b, kind, strategy.rule, plan.gates.get((a, b)))
            mixture_labels.append(label)
    fs_labels = []
    for j in chain.topo_forward:
        label = ("fs", net.ids[j])
        add_move(label, redraw_entries, j)
        fs_labels.append(label)

    if strategy.move_policy == OPTIMIZED_FWD_BWD:
        fwd = [("fs" if chain.forward_sampled[j] else "single", net.ids[j]) for j in chain.topo_free]
        bwd = [("single", net.ids[j]) for j in chain.topo_diagnostic_reversed]
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
