"""Brute-force ground truth: enumeration posteriors, d-separation, and
explicit transition matrices for the sampler's moves.

Enumeration and transition matrices read one factor table: a row per
enumerated state and a column per node, holding each node's noisy-or
survival and its factor.  The table recomputes factors from first
principles rather than sharing the sampler's cached fast paths, so
agreement between the two is meaningful.  Each column is the scalar
noisy-or product taken vectorwise, with the same float operations in the
same parent order, so every weight and kernel entry is the one a
state-by-state loop computes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import flow as flowmod
from .flow import evidence_cover
from .network import Network
from .sampler import GIBBS, OPTIMIZED_FWD_BWD, StrategySpec, clamp_and_flow

_CHUNK = 1 << 15  # rows per factor table when enumerating posteriors


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


def prior_marginals_forward(net: Network, n_samples: int, rng) -> dict:
    """Monte Carlo prior marginals by ancestral sampling."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    n = len(net.ids)
    counts = [0] * n
    x = [0] * n
    for _ in range(n_samples):
        for j in net.topo:
            s = 1.0 - net.leak[j]
            for i, p in zip(net.parents[j], net.parent_p[j]):
                if x[i]:
                    s *= 1.0 - p
            x[j] = 1 if rng.random() < (1.0 - s) else 0
            counts[j] += x[j]
    return {nid: counts[j] / n_samples for j, nid in enumerate(net.ids)}


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

    def kernel(self, label):
        for lab, mat in self.moves:
            if lab == label:
                return mat
        raise KeyError(label)

    def apply_sweep(self, vec: np.ndarray) -> np.ndarray:
        out = np.asarray(vec, dtype=float)
        for kind, labels in self.sweep_stages:
            if kind == "mixture":
                mixed = np.zeros_like(out)
                for lab in labels:
                    mixed += out @ self.kernel(lab)
                out = mixed / len(labels)
            else:
                for lab in labels:
                    out = out @ self.kernel(lab)
        return out

    def sweep_matrix(self) -> np.ndarray:
        if len(self.states) > 512:
            raise EnumerationCapError("sweep matrix materialization capped at 512 states")
        size = len(self.states)
        out = np.eye(size)
        for kind, labels in self.sweep_stages:
            if kind == "mixture":
                mixed = np.zeros((size, size))
                for lab in labels:
                    mixed += out @ self.kernel(lab).toarray()
                out = mixed / len(labels)
            else:
                for lab in labels:
                    out = out @ self.kernel(lab).toarray()
        return out


def _scoped_children(net, flow, j):
    # empty for forward-sampled nodes: they have no evidential children
    return [net.index[c] for c in flow[net.ids[j]].evidential_children]


def _pair_scope(net, flow, a, b):
    touched = [a, b]
    seen = {a, b}
    for j in (a, b):
        for c in _scoped_children(net, flow, j):
            if c not in seen:
                seen.add(c)
                touched.append(c)
    return touched


def explicit_transition_matrix(
    net: Network,
    ev: dict,
    strategy: StrategySpec,
    cap: int = 12,
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
    weights = weight(j for j in range(len(net.ids)) if not (collapse_forward and j in fs))
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
        w = weight([j] + _scoped_children(net, flow, j))
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
        w = weight(_pair_scope(net, flow, a, b))
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
        for j in net.topo:
            if j in fs:
                label = ("fs", net.ids[j])
                add_move(label, redraw_entries, j)
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
