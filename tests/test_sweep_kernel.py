"""The sweep that ships leaves the posterior invariant, exactly.

`sweep_kernel` enumerates every path of the random draws of the unmodified
`run_sweep`, so these tests check the chain the library runs, pair
selection and swap coins included, rather than a model of it.  Flow-aware
presets are checked on the marginal of the diagnostic-sampled nodes, the
only part of the state their passes keep invariant (see `_pair_sweeps`).
"""

import random

import numpy as np
import pytest

from diagbn.network import build_network
from diagbn.sampler import OPTIMIZED_FWD_BWD, PRESETS, pair_nodes, setup_chain
from oracles import joint_prob, random_dag, random_evidence, sweep_kernel

EXACT_PRESETS = [
    "gibbs",
    "gibbs-clamp",
    "gibbs-flow",
    "metropolis",
    "block-spouses-cover",
    "swap-spouses-cover",
]
# these read a pair's gate when it moves: both nodes single-site while shut
CHILD_TRUE_PRESETS = [
    "block-spouses-parent-true",
    "swap-spouses-child-true",
    "optimized-random",
    "optimized-fwd-bwd",
]


def net_b():
    """Three competing causes of one observed effect, two of which also
    share a second, negative finding: 4 free nodes."""
    net = build_network(
        [
            ("a", "model", 0.08),
            ("b", "model", 0.26),
            ("d", "model", 0.24),
            ("c", "model", 0.11),
            ("e", "sensory", 0.01),
            ("f", "sensory", 0.01),
        ],
        [
            ("a", "c", 0.72),
            ("b", "c", 0.70),
            ("d", "c", 0.79),
            ("c", "e", 0.85),
            ("a", "f", 0.54),
            ("b", "f", 0.51),
        ],
    )
    return net, {"e": True, "f": False}


def stationarity_error(net, ev, strategy):
    """max |pi P - pi| on the diagnostic-sampled marginal, and the largest
    deviation of a row sum of P from 1, for one sweep (for the alternating
    schedule, one forward and one backward pass)."""
    chain, P = sweep_kernel(net, ev, strategy, 0)
    if strategy.move_policy == OPTIMIZED_FWD_BWD:
        P = P @ sweep_kernel(net, ev, strategy, 1)[1]
    free = chain.free
    weights = []
    for s in range(len(P)):
        values = dict(ev)
        values.update((nid, False) for nid in chain.clamp.clamped_false)
        values.update((net.ids[j], bool((s >> k) & 1)) for k, j in enumerate(free))
        weights.append(joint_prob(net, values))
    pi = np.array(weights) / sum(weights)
    diagnostic = [k for k, j in enumerate(free) if not chain.forward_sampled[j]]
    code = [sum(((s >> k) & 1) << r for r, k in enumerate(diagnostic)) for s in range(len(P))]

    def marginal(vec):
        return np.bincount(code, weights=vec, minlength=1 << len(diagnostic))

    err = np.abs(marginal(pi @ P) - marginal(pi)).max()
    return err, np.abs(P.sum(axis=1) - 1.0).max()


@pytest.mark.parametrize("name", EXACT_PRESETS + CHILD_TRUE_PRESETS)
def test_sweep_keeps_posterior_on_net_b(name):
    net, ev = net_b()
    err, row_err = stationarity_error(net, ev, PRESETS[name])
    assert row_err < 1e-12
    assert err < 1e-12, err


@pytest.mark.slow
@pytest.mark.parametrize("seed", [25, 73, 8])
@pytest.mark.parametrize("name", EXACT_PRESETS + CHILD_TRUE_PRESETS)
def test_sweep_keeps_posterior_on_generated_nets(name, seed):
    # every seed gives 4 free nodes.  On 25 and 73 clamping pins one and the
    # flow map forward-samples one, so every chain layout is covered, but
    # every candidate pair links through true evidence and none is gated;
    # on 8 every child-true plan gates pairs on free children
    rng = random.Random(seed)
    nodes, edges = random_dag(rng, 7, edge_prob=0.4)
    net = build_network(nodes, edges)
    ev = random_evidence(rng, net, max_nodes=3)
    assert len(net.ids) - len(ev) == 4
    strategy = PRESETS[name]
    if seed == 8 and name in CHILD_TRUE_PRESETS:
        chain = setup_chain(net, ev, strategy, random.Random(0))
        pair_nodes(chain, strategy)
        assert chain.pair_plan.gates
    err, row_err = stationarity_error(net, ev, strategy)
    assert row_err < 1e-12
    assert err < 1e-12, err
