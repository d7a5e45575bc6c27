"""Brute-force ground truth: enumeration posteriors, d-separation, and
explicit transition matrices for the sampler's moves.

Everything here recomputes factors from first principles rather than sharing
the sampler's cached fast paths, so agreement between the two is meaningful.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import flow as flowmod
from .flow import evidence_cover
from .network import Network
from .sampler import GIBBS, OPTIMIZED_FWD_BWD, StrategySpec, clamp_and_flow


class EnumerationCapError(ValueError):
    """The free-node count exceeds what brute force is willing to chew."""


def _factor(net, x, j) -> float:
    s = 1.0 - net.leak[j]
    for i, p in zip(net.parents[j], net.parent_p[j]):
        if x[i]:
            s *= 1.0 - p
    return (1.0 - s) if x[j] else s


def exact_posteriors(net: Network, ev: dict, cap: int = 22) -> dict:
    """Posterior marginals by summing the joint over all free assignments.

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
            f = _factor(net, x, j)
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
                f = _factor(net, x, j)
                if f == 0.0:
                    zeros -= 1
                else:
                    logw -= math.log(f)
            x[i] ^= 1
            for j in affected:
                f = _factor(net, x, j)
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


def _restricted_weight(net, x, nodes) -> float:
    w = 1.0
    for k in nodes:
        w *= _factor(net, x, k)
    return w


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
        weights = np.array([_restricted_weight(net, x, scored) for x in xvecs])
    else:
        weights = np.array([_restricted_weight(net, x, range(len(net.ids))) for x in xvecs])
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
        scope = [j] + _scoped_children(net, flow, j)
        entries = []
        for s, x in enumerate(xvecs):
            old = x[j]
            x[j] = 1
            w1 = _restricted_weight(net, x, scope)
            x[j] = 0
            w0 = _restricted_weight(net, x, scope)
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
        scope = _pair_scope(net, flow, a, b)
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
                w_swap = _restricted_weight(net, x, scope)
                x[a], x[b] = va, vb
                w_cur = _restricted_weight(net, x, scope)
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
                        ws[(ca, cb)] = _restricted_weight(net, x, scope)
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
