"""Brute-force ground truth: enumeration posteriors and explicit
transition matrices for the sampler's moves.

Enumeration and transition matrices read one factor table: a row per
enumerated state and a column per node, holding each node's noisy-or
survival and its factor.  The factors come from first principles rather
than from the sampler's cached fast paths, so agreement between the two is
meaningful.  Each column is the scalar noisy-or product taken vectorwise,
with the same float operations in the same parent order, so every weight
and kernel entry is the one a state-by-state loop computes.

The chain layout does come from the sampler: a transition matrix reads
its free, diagnostic-sampled and forward-sampled nodes, scope children,
pair scopes, visit orders and spouse-pair rule (`spouse_links`) from the
chain's own `SamplerState`, so its kernels are the moves the sampler can
make.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .network import Network
from .sampler import (
    GIBBS,
    OPTIMIZED_FWD_BWD,
    SamplerState,
    StrategySpec,
    clamp_and_flow,
    pair_scope,
    spouse_links,
)

_CHUNK = 1 << 15  # rows per factor table when enumerating posteriors
_MATRIX_CAP = 12  # chain nodes a transition matrix may enumerate


class EnumerationCapError(ValueError):
    """The free-node count exceeds what brute force is willing to chew."""


def _factor_table(net, base, chain_nodes, lo, hi):
    """Values X, noisy-or survivals S and factors F of states lo..hi-1.

    State s sets chain_nodes[k] to bit k of s and every other node to its
    value in base; row r holds state lo + r and column j node j.  S[r, j] is
    the probability that node j stays off given its parents and F[r, j] the
    probability of its value: 1 - S when on, S when off.
    """
    index = np.arange(lo, hi)
    # node-major storage keeps each column contiguous
    X = np.repeat(np.asarray(base, dtype=bool)[:, None], hi - lo, axis=1)
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


def _evidence_base(net, ev) -> list:
    base = [0] * len(net.ids)
    for nid, value in ev.items():
        base[net.index[nid]] = 1 if value else 0
    return base


def exact_posteriors(net: Network, ev: dict, cap: int = 22) -> dict:
    """Posterior marginals by summing the joint over all free assignments.

    Free states are enumerated in factor tables of at most 2^15 rows.  A
    state's log weight is the sum of its nodes' log factors; zero factors
    are counted rather than multiplied, so permissive networks (zero leaks,
    p = 1 edges) enumerate exactly.  A first pass finds the peak log weight
    and a second accumulates every weight relative to it.  Each state's log
    weight is summed afresh, so no running sum drifts across the scan.
    """
    free = [net.index[nid] for nid in net.ids if nid not in ev]
    if len(free) > cap:
        raise EnumerationCapError(
            f"{len(free)} free nodes exceed the enumeration cap of {cap}"
        )
    base = _evidence_base(net, ev)
    size = 1 << len(free)
    starts = range(0, size, _CHUNK)
    logws = []
    for lo in starts:
        _, _, F = _factor_table(net, base, free, lo, min(size, lo + _CHUNK))
        positive = F > 0.0
        logf = np.log(F, out=np.zeros(F.shape), where=positive)
        logws.append(np.where(positive.all(axis=1), logf.sum(axis=1), -np.inf))
    peak = max(logw.max() for logw in logws)
    if peak == -np.inf:
        raise ValueError("evidence has zero probability under this network")
    total = 0.0
    sums = np.zeros(len(free))
    bits = 1 << np.arange(len(free))
    for lo, logw in zip(starts, logws):
        w = np.exp(logw - peak)
        total += w.sum()
        sums += w @ ((np.arange(lo, lo + len(w))[:, None] & bits) != 0)
    out = {}
    for nid, value in ev.items():
        out[nid] = 1.0 if value else 0.0
    for j, marginal in zip(free, (sums / total).tolist()):
        out[net.ids[j]] = marginal
    return out


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
    collapse_forward: bool = False,
) -> TransitionMatrix:
    """Build every kernel the strategy's sweeps are made of, exactly.

    With collapse_forward=True the state space enumerates only the
    diagnostic-sampled nodes and pi is the posterior with the forward
    region summed out; flow-aware single and pair kernels are honest
    reversible chains on that space.  Otherwise the space covers all free
    nodes and forward redraws appear as explicit kernels in product stages.
    A move whose conditional has zero weight in some state it may run from
    raises ValueError naming the move.
    """
    # the chain's own layout: its nodes, scopes, pair rule and visit orders
    clamp, flow = clamp_and_flow(net, ev, strategy)
    chain = SamplerState(net, ev, clamp, flow, None)
    fs = chain.forward_sampled
    chain_nodes = chain.diagnostic if collapse_forward else chain.free
    if len(chain_nodes) > _MATRIX_CAP:
        raise EnumerationCapError(
            f"{len(chain_nodes)} chain nodes exceed the transition matrix cap of {_MATRIX_CAP}"
        )
    size = 1 << len(chain_nodes)
    bit = {j: 1 << k for k, j in enumerate(chain_nodes)}
    X, S, F = _factor_table(net, _evidence_base(net, ev), chain_nodes, 0, size)
    rows = np.arange(size)
    states = [tuple(state) for state in X[:, chain_nodes].astype(int).tolist()]

    def weight(nodes):
        # product of the nodes' factors, taken in list order
        w = np.ones(size)
        for k in nodes:
            w *= F[:, k]
        return w

    # the forward region sums out of a collapsed space: weigh only the rest
    weights = weight(j for j in range(len(net.ids)) if not (collapse_forward and fs[j]))
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
        w = weight(pair_scope(chain, a, b))
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

    def spouse_pairs():
        """Unordered pairs the sampler may form, each with the children whose
        being on gates it (None for cover-gated policies)."""
        gates = {}
        for a, links in spouse_links(chain, strategy).items():
            for c, others in links:
                for b in others:
                    if a < b:
                        gates.setdefault((a, b), []).append(c)
        gated = not strategy.cover_gated
        return sorted((a, b, sorted(gate) if gated else None) for (a, b), gate in gates.items())

    mixture_labels = []
    # every policy keeps single-site moves for nodes the pairing leaves over
    for j in chain.diagnostic:
        label = ("single", net.ids[j])
        add_move(label, single_entries, j, strategy.rule)
        mixture_labels.append(label)
    kind = strategy.pair_move
    if kind is not None:
        for a, b, gate in spouse_pairs():
            label = (kind, net.ids[a], net.ids[b])
            add_move(label, pair_entries, a, b, kind, strategy.rule, gate)
            mixture_labels.append(label)
    fs_labels = []
    if not collapse_forward:
        for j in chain.topo_forward:
            label = ("fs", net.ids[j])
            add_move(label, redraw_entries, j)
            fs_labels.append(label)

    if strategy.move_policy == OPTIMIZED_FWD_BWD and not collapse_forward:
        fwd = [("fs" if fs[j] else "single", net.ids[j]) for j in chain.topo_free]
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
