import copy
import dataclasses
import itertools
import math
import os
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    DATA_DIR,
    VASE_BLOCK_DIST,
    VASE_P_B,
    VASE_P_E,
    VASE_P_E_GIVEN_B0,
    VASE_SWAP_GIBBS,
    VASE_SWAP_RATIO,
    VASE_WEIGHTS,
    backward_tail_problem,
    pair_underflow_problem,
    tiny_leak_problem,
    underflow_problem,
)
from diagbn.flow import (
    FORWARD_SAMPLED,
    clamp_pass,
    classify_flow,
    no_clamp,
)
from diagbn import generate as gen
from diagbn import sampler
from diagbn.bench import load_config
from diagbn.exact import exact_posteriors, explicit_transition_matrix
from diagbn.network import build_network, validate
from diagbn.sampler import (
    BLOCK_SPOUSES_COVER,
    BLOCK_SPOUSES_PARENT_TRUE,
    GIBBS,
    METROPOLIS,
    OPTIMIZED_FWD_BWD,
    PRESETS,
    SINGLE_SITE,
    SWAP_FRACTION,
    SWAP_SPOUSES_CHILD_TRUE,
    ChainRandom,
    StrategySpec,
    _run_chains,
    _single_site_sweeps,
    block_pair_move,
    derive_seed,
    estimate_marginals,
    forward_redraw,
    pair_nodes,
    run_chain,
    run_sweep,
    sample_posteriors,
    setup_chain,
    single_site_move,
    swap_pair_move,
)
import oracles
from test_golden import LAYERED, LAYERED_SEEDS
from oracles import (
    conditional_by_enumeration,
    conditional_prob,
    random_dag,
    random_evidence,
    reference_block_pair_move,
    reference_cond_odds,
    reference_flip,
    reference_run_chains,
    reference_single_site_move,
    reference_stale,
)


def make_state(net, ev, strategy_name="gibbs", seed=0, rule=None):
    """A chain of the named preset, or of the preset under `rule`."""
    strategy = PRESETS[strategy_name]
    if rule is not None:
        strategy = dataclasses.replace(strategy, name=f"{strategy_name}-{rule}", rule=rule)
    return setup_chain(net, ev, strategy, random.Random(seed))


def flow_map(net, ev, strategy_name="gibbs"):
    """The flow map the preset's chain runs on."""
    strategy = PRESETS[strategy_name]
    clamp = clamp_pass(net, ev) if strategy.clamp else no_clamp(net, ev)
    return classify_flow(net, ev, clamp, blanket=not strategy.flow_aware)


def force(state, nid, value):
    j = state.net.index[nid]
    if state.x[j] != int(value):
        state.flip(j)


def state_free_ids(state):
    return [state.net.ids[j] for j in state.free]


class TestConditionalProb:
    def test_vase_frozen_value(self, vase):
        state = make_state(vase, {"v": True})
        force(state, "b", 0)
        got = conditional_prob(vase, state, "e", flow_map(vase, {"v": True})["e"])
        assert got == pytest.approx(VASE_P_E_GIVEN_B0, abs=1e-12)

    def test_fixed_nodes_are_rejected(self, vase):
        state = make_state(vase, {"v": True})
        with pytest.raises(ValueError, match="fixed"):
            conditional_prob(vase, state, "v", flow_map(vase, {"v": True})["e"])
        clamped = build_network(
            [("m", "model", 0.1), ("m2", "model", 0.1), ("s", "sensory", 0.01),
             ("s2", "sensory", 0.01)],
            [("m", "s", 0.9), ("m2", "s2", 0.9)],
        )
        cstate = make_state(clamped, {"s": True}, "gibbs-clamp")
        assert "m2" in clamp_pass(clamped, {"s": True}).clamped_false
        assert not cstate.is_free[clamped.index["m2"]]
        cflow = flow_map(clamped, {"s": True}, "gibbs-clamp")
        with pytest.raises(ValueError, match="fixed"):
            conditional_prob(clamped, cstate, "m2", cflow["m2"])

    def test_forward_sampled_reduces_to_cpd(self):
        net = build_network(
            [("a", "model", 0.1), ("b", "sensory", 0.001), ("d", "sensory", 0.05)],
            [("a", "b", 0.9), ("a", "d", 0.5)],
        )
        ev = {"b": True}
        flow = flow_map(net, ev, "gibbs-flow")
        state = make_state(net, ev, "gibbs-flow")
        force(state, "a", 1)
        info = flow["d"]
        assert info.status == FORWARD_SAMPLED
        assert conditional_prob(net, state, "d", info) == pytest.approx(
            1.0 - (1.0 - 0.05) * (1.0 - 0.5), abs=1e-15
        )

    def test_blanket_conditions_on_sampled_children(self):
        net = build_network([("a", "model", 0.3), ("z", "sensory", 0.01)], [("a", "z", 0.5)])
        state = make_state(net, {})
        force(state, "z", 0)
        want = conditional_by_enumeration(net, {"z": False}, "a")
        got = conditional_prob(net, state, "a", flow_map(net, {})["a"])
        assert got == pytest.approx(want, abs=1e-12)

    def test_matches_enumeration_with_full_blanket(self):
        rng = random.Random(31)
        for _ in range(25):
            nodes, edges = random_dag(rng, rng.randint(2, 8))
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net, max_nodes=2)
            state = make_state(net, ev, "gibbs", seed=1)
            flow = flow_map(net, ev)
            for nid in state_free_ids(state):
                fixed = {
                    other: bool(state.x[net.index[other]])
                    for other in net.ids
                    if other != nid
                }
                want = conditional_by_enumeration(net, fixed, nid)
                got = conditional_prob(net, state, nid, flow[nid])
                assert got == pytest.approx(want, abs=1e-12)

    def test_cached_odds_agree_with_fresh_everywhere(self):
        rng = random.Random(32)
        for trial in range(30):
            nodes, edges = random_dag(rng, rng.randint(2, 9))
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net, max_nodes=2)
            name = rng.choice(list(PRESETS))
            state = make_state(net, ev, name, seed=trial)
            flow = flow_map(net, ev, name)
            if not state.free:
                continue
            for _ in range(30):
                for nid in state_free_ids(state):
                    fresh = conditional_prob(net, state, nid, flow[nid])
                    odds = reference_cond_odds(state, net.index[nid])
                    cached = odds / (1.0 + odds)
                    assert cached == pytest.approx(fresh, abs=1e-10), (trial, name, nid)
                state.flip(rng.choice(state.free))


class TestSingleSiteMove:
    def test_long_run_frequency_matches_conditional(self, vase):
        state = make_state(vase, {"v": True, "b": False})
        j = vase.index["e"]
        hits = 0
        n = 100_000
        for _ in range(n):
            single_site_move(state, j)
            hits += state.x[j]
        assert hits / n == pytest.approx(VASE_P_E_GIVEN_B0, abs=0.01)

    def test_scoring_is_rao_blackwellized(self, vase):
        # each move credits the conditional, whatever value it draws; the
        # visit is the sweep's to count
        ev = {"v": True, "b": False}
        state = make_state(vase, ev)
        j = vase.index["e"]
        for _ in range(10):
            before = state.sums[j]
            single_site_move(state, j)
            assert state.sums[j] - before == pytest.approx(VASE_P_E_GIVEN_B0, abs=1e-12)
        assert state.sweeps == state.redraws == 0

    def test_metropolis_matches_gibbs_distribution(self, vase):
        state = make_state(vase, {"v": True, "b": False}, "metropolis")
        j = vase.index["e"]
        hits = 0
        n = 100_000
        for _ in range(n):
            single_site_move(state, j)
            hits += state.x[j]
        assert hits / n == pytest.approx(VASE_P_E_GIVEN_B0, abs=0.01)

    def test_move_charges_cost(self, vase):
        state = make_state(vase, {"v": True})
        before = state.cost
        single_site_move(state, vase.index["e"])
        assert state.cost > before


class TestBlockPairMove:
    def test_long_run_frequencies(self, vase):
        state = make_state(vase, {"v": True}, "block-spouses-cover")
        je, jb = vase.index["e"], vase.index["b"]
        counts = {k: 0 for k in VASE_BLOCK_DIST}
        n = 100_000
        for _ in range(n):
            block_pair_move(state, je, jb)
            counts[(state.x[je], state.x[jb])] += 1
        for key, want in VASE_BLOCK_DIST.items():
            assert counts[key] / n == pytest.approx(want, abs=0.01)

    def test_scoring_matches_exact_posterior(self, vase):
        ev = {"v": True}
        state = make_state(vase, ev, "block-spouses-cover")
        je, jb = vase.index["e"], vase.index["b"]
        sums = state.sums
        for _ in range(50):
            before = sums[je], sums[jb]
            block_pair_move(state, je, jb)
            assert sums[je] - before[0] == pytest.approx(VASE_P_E, abs=1e-12)
            assert sums[jb] - before[1] == pytest.approx(VASE_P_B, abs=1e-12)
        assert state.sweeps == state.redraws == 0

    def test_independent_pair_product_of_priors(self):
        # a and b pair through s alone, which its leak holds on whatever
        # they hold: the pair's weights are its priors' product to 1e-9
        net = build_network(
            [("a", "model", 0.3), ("b", "model", 0.7), ("s", "sensory", 1 - 1e-9)],
            [("a", "s", 0.5), ("b", "s", 0.5)],
        )
        state = make_state(net, {"s": True}, "block-spouses-cover")
        ja, jb = net.index["a"], net.index["b"]
        counts = {k: 0 for k in itertools.product((0, 1), repeat=2)}
        n = 60_000
        for _ in range(n):
            block_pair_move(state, ja, jb)
            counts[(state.x[ja], state.x[jb])] += 1
        for (va, vb), c in counts.items():
            want = (0.3 if va else 0.7) * (0.7 if vb else 0.3)
            assert c / n == pytest.approx(want, abs=0.012)

    def test_metropolis_long_run_frequencies(self, vase):
        state = make_state(vase, {"v": True}, "block-spouses-cover", rule=METROPOLIS)
        je, jb = vase.index["e"], vase.index["b"]
        counts = {k: 0 for k in VASE_BLOCK_DIST}
        n = 200_000
        for _ in range(n):
            block_pair_move(state, je, jb)
            counts[(state.x[je], state.x[jb])] += 1
        for key, want in VASE_BLOCK_DIST.items():
            assert counts[key] / n == pytest.approx(want, abs=0.01)


class TestBlockMoveMatchesReference:
    """The block move, weighed from the caches, against the move as first
    written with its weights from the network, on the pairs each block
    policy's plan forms, flow-aware or not."""

    @pytest.mark.parametrize("rule", [GIBBS, METROPOLIS])
    def test_same_moves_as_reference(self, vase, rule):
        rng = random.Random(2015)
        problems = [(vase, {"v": True})]
        for _ in range(40):
            nodes, edges = random_dag(rng, rng.randint(3, 12), edge_prob=0.4)
            net = build_network(nodes, edges)
            problems.append((net, random_evidence(rng, net, max_nodes=3)))
        moved = 0
        for trial, (net, ev) in enumerate(problems):
            for policy, flow_aware in itertools.product(
                    (BLOCK_SPOUSES_COVER, BLOCK_SPOUSES_PARENT_TRUE), (False, True)):
                strategy = StrategySpec("block", False, flow_aware, policy, rule)
                state = setup_chain(net, ev, strategy, random.Random(trial))
                pairs = list(state.pair_plan.scope)
                if not pairs:
                    continue
                ref = copy.deepcopy(state)
                for step in range(30):
                    a, b = rng.choice(pairs)
                    block_pair_move(state, a, b)
                    reference_block_pair_move(ref, a, b)
                    where = (trial, policy, flow_aware, step)
                    assert state.x == ref.x, where
                    assert state.surv == ref.surv, where
                    assert state.sums == pytest.approx(ref.sums, rel=0, abs=1e-12), where
                    assert (state.sweeps, state.redraws) == (ref.sweeps, ref.redraws) == (0, 0), where
                    assert state.cost == ref.cost, where
                    assert state.rng.getstate() == ref.rng.getstate(), where
                    moved += 1
        assert moved > 1000


class TestSingleSiteSweepMatchesReference:
    """The single-site sweep loop against the move as first written, called
    node by node in the same shuffled order, with the forward tail redrawn
    after it and every flip clearing the value-blind stale lists.  The loop
    runs one `run_sweep` per sweep, or the same 20 sweeps as stretches of
    1, 2, 5 and 12 sweeps, compared at the end of each stretch."""

    @pytest.mark.parametrize("rule, stretches", [
        pytest.param(GIBBS, None, id="gibbs"),
        pytest.param(METROPOLIS, None, id="metropolis"),
        pytest.param(GIBBS, (1, 2, 5, 12), id="gibbs-stretches"),
        pytest.param(METROPOLIS, (1, 2, 5, 12), id="metropolis-stretches"),
    ])
    def test_same_sweeps_as_reference(self, vase, rule, stretches):
        rng = random.Random(2016)
        problems = [(vase, {"v": True})]
        for _ in range(40):
            nodes, edges = random_dag(rng, rng.randint(3, 12), edge_prob=0.4)
            net = build_network(nodes, edges)
            problems.append((net, random_evidence(rng, net, max_nodes=3)))
        visits = live = 0
        for trial, (net, ev) in enumerate(problems):
            for flow_aware in (False, True):
                strategy = StrategySpec("single", False, flow_aware, SINGLE_SITE, rule)
                state = setup_chain(net, ev, strategy, ChainRandom(trial))
                ref = copy.deepcopy(state)
                ref.rng = random.Random()
                ref.rng.setstate(state.rng.getstate())
                # every flip of the reference, forward_redraw's too, clears
                # the value-blind lists
                stale = reference_stale(ref)
                ref.flip = lambda n, ref=ref, stale=stale: reference_flip(ref, stale, n)
                sweep = 0
                for length in stretches or [1] * 20:
                    if stretches is None:
                        run_sweep(state, 1)
                    else:
                        _single_site_sweeps(state, length)
                    for _ in range(length):
                        order = list(ref.diagnostic)
                        ref.rng.shuffle(order)
                        for n in order:
                            reference_single_site_move(ref, n)
                        for n in ref.topo_forward:
                            forward_redraw(ref, n)
                        ref.sweeps += 1
                        ref.redraws += 1
                        visits += len(order)
                    sweep += length
                    assert state.sweep_idx == sweep
                    where = (trial, flow_aware, sweep)
                    assert state.x == ref.x, where
                    assert state.surv == ref.surv, where
                    assert state.odds_cache == ref.odds_cache, where
                    live += sum(hit is not None for hit in state.odds_cache)
                    assert state.sums == ref.sums, where
                    assert (state.sweeps, state.redraws) == (ref.sweeps, ref.redraws), where
                    assert state.cost == ref.cost, where
                    assert state.rng.getstate() == ref.rng.getstate(), where
        assert visits > 5000
        # one comparison per stretch, not per sweep, when run in stretches
        assert live > (1000 if stretches is None else 300)


PAIR_PRESETS = [name for name, spec in PRESETS.items() if spec.move_policy != SINGLE_SITE]
PAIR_SPECS = [PRESETS[name] for name in PAIR_PRESETS] + [
    StrategySpec(f"{policy}-{rule}-{flow_aware}", False, flow_aware, policy, rule)
    for policy in (BLOCK_SPOUSES_PARENT_TRUE, SWAP_SPOUSES_CHILD_TRUE, OPTIMIZED_FWD_BWD)
    for rule in (GIBBS, METROPOLIS)
    for flow_aware in (False, True)
]


class TestPairSweepMatchesReference:
    """The pair-schedule stretch loop against the sweep as first written, a
    call per pair event, single-site move and forward redraw.  The loop
    runs one sweep per `run_sweep` call, or the same 20 sweeps as stretches
    of 1, 2, 5 and 12 sweeps, compared at the end of each stretch."""

    @pytest.mark.parametrize("stretches", [None, (1, 2, 5, 12)], ids=["sweeps", "stretches"])
    def test_same_sweeps_as_reference(self, vase, monkeypatch, stretches):
        # the reference's pair events tally which gate and coin branch ran
        tally = dict.fromkeys(["open", "shut", "swap", "stay", "identity"], 0)

        def tallied(state, a, b, _event=oracles.reference_pair_event):
            gate = state.pair_plan.gates.get((a, b))
            if gate is None or any(state.x[c] for c in gate):
                tally["open"] += 1
                if state.strategy.pair_move == "swap":
                    coin = random.Random()
                    coin.setstate(state.rng.getstate())
                    if coin.random() < SWAP_FRACTION:
                        tally["swap"] += 1
                        tally["identity"] += state.x[a] == state.x[b]
                    else:
                        tally["stay"] += 1
            else:
                tally["shut"] += 1
            _event(state, a, b)

        monkeypatch.setattr(oracles, "reference_pair_event", tallied)
        rng = random.Random(2017)
        problems = [(vase, {"v": True})]
        for _ in range(40):
            nodes, edges = random_dag(rng, rng.randint(3, 12), edge_prob=0.4)
            net = build_network(nodes, edges)
            problems.append((net, random_evidence(rng, net, max_nodes=3)))
        live = 0
        for trial, (net, ev) in enumerate(problems):
            for strategy in PAIR_SPECS:
                state = setup_chain(net, ev, strategy, ChainRandom(trial))
                ref = copy.deepcopy(state)
                ref.rng = random.Random()
                ref.rng.setstate(state.rng.getstate())
                sweep = 0
                for length in stretches or [1] * 20:
                    run_sweep(state, length)
                    for _ in range(length):
                        oracles.reference_pair_sweep(ref)
                    sweep += length
                    where = (trial, strategy.name, sweep)
                    assert state.sweep_idx == ref.sweep_idx == sweep, where
                    assert state.x == ref.x, where
                    assert state.surv == ref.surv, where
                    assert state.odds_cache == ref.odds_cache, where
                    live += sum(hit is not None for hit in state.odds_cache)
                    assert state.sums == ref.sums, where
                    assert (state.sweeps, state.redraws) == (ref.sweeps, ref.redraws), where
                    assert state.cost == ref.cost, where
                    assert state.rng.getstate() == ref.rng.getstate(), where
        assert live > 1000
        assert min(tally.values()) > 100, tally


class TestChainRandom:
    """The chain RNG draws what `random.Random` draws from the same seed."""

    def test_same_draws_as_random(self):
        ours, ref = ChainRandom(2024), random.Random(2024)
        for n in range(131):
            xs, ys = list(range(n)), list(range(n))
            ours.shuffle(xs)
            ref.shuffle(ys)
            assert xs == ys, n
            assert ours.random() == ref.random()
        # every n up to 300, powers of two among them, three draws each
        for n in range(1, 301):
            for _ in range(3):
                assert ours.randrange(n) == ref.randrange(n), n
            assert ours.random() == ref.random()
        # the forms it does not inline are random.Random's own
        assert ours.randrange(3, 40, 4) == ref.randrange(3, 40, 4)
        assert ours.randint(5, 9) == ref.randint(5, 9)
        assert ours.getstate() == ref.getstate()

    def test_rejects_empty_range(self):
        for bad in (0, -3):
            with pytest.raises(ValueError):
                ChainRandom(1).randrange(bad)


class TestSwapPairMove:
    def test_gibbs_move_probability(self, vase):
        state = make_state(vase, {"v": True}, "swap-spouses-cover")
        je, jb = vase.index["e"], vase.index["b"]
        n = 20_000
        moved = 0
        for _ in range(n):
            force(state, "e", 1)
            force(state, "b", 0)
            swap_pair_move(state, je, jb)
            moved += state.x[jb]
        assert moved / n == pytest.approx(VASE_SWAP_GIBBS, abs=0.01)

    def test_metropolis_uphill_always_moves(self, vase):
        state = make_state(vase, {"v": True}, "swap-spouses-cover", rule=METROPOLIS)
        je, jb = vase.index["e"], vase.index["b"]
        for _ in range(200):
            force(state, "e", 1)
            force(state, "b", 0)
            swap_pair_move(state, je, jb)
            assert (state.x[je], state.x[jb]) == (0, 1)

    def test_metropolis_downhill_statistics(self, vase):
        state = make_state(vase, {"v": True}, "swap-spouses-cover", rule=METROPOLIS)
        je, jb = vase.index["e"], vase.index["b"]
        n = 20_000
        moved = 0
        for _ in range(n):
            force(state, "e", 0)
            force(state, "b", 1)
            swap_pair_move(state, je, jb)
            moved += state.x[je]
        assert moved / n == pytest.approx(1.0 / VASE_SWAP_RATIO, abs=0.01)

    def test_equal_values_is_identity_but_scored(self, vase):
        # each node is credited its value, the one-state distribution
        state = make_state(vase, {"v": True}, "swap-spouses-cover")
        je, jb = vase.index["e"], vase.index["b"]
        for value in (0, 1):
            force(state, "e", value)
            force(state, "b", value)
            sums, cost = list(state.sums), state.cost
            swap_pair_move(state, je, jb)
            assert (state.x[je], state.x[jb]) == (value, value)
            assert state.sums[je] == sums[je] + value
            assert state.sums[jb] == sums[jb] + value
            assert state.cost == cost + 1
        assert state.sweeps == state.redraws == 0

    def test_swap_preserves_true_count(self, vase):
        state = make_state(vase, {"v": True}, "swap-spouses-cover")
        je, jb = vase.index["e"], vase.index["b"]
        for _ in range(100):
            before = state.x[je] + state.x[jb]
            swap_pair_move(state, je, jb)
            assert state.x[je] + state.x[jb] == before

    def test_swap_credits_sum_to_true_count(self, vase):
        # with one true cause between the pair, the two credits sum to one
        state = make_state(vase, {"v": True}, "swap-spouses-cover")
        je, jb = vase.index["e"], vase.index["b"]
        force(state, "e", 1)
        force(state, "b", 0)
        swap_pair_move(state, je, jb)
        assert state.sums[je] + state.sums[jb] == pytest.approx(1.0, abs=1e-12)


class TestPairing:
    def test_vase_cover_pairs_the_spouses(self, vase):
        state = make_state(vase, {"v": True}, "swap-spouses-cover")
        pairs, singles = pair_nodes(state)
        assert len(pairs) == 1
        a, b = pairs[0]
        assert {vase.ids[a], vase.ids[b]} == {"e", "b"}
        assert singles == []

    def test_three_causes_give_pair_plus_single(self):
        net = build_network(
            [
                ("a", "model", 0.1),
                ("b", "model", 0.1),
                ("c", "model", 0.1),
                ("s", "sensory", 0.01),
            ],
            [("a", "s", 0.5), ("b", "s", 0.5), ("c", "s", 0.5)],
        )
        state = make_state(net, {"s": True}, "swap-spouses-cover")
        pairs, singles = pair_nodes(state)
        assert len(pairs) == 1 and len(singles) == 1

    def test_cover_requires_positive_evidence(self):
        net = build_network(
            [("a", "model", 0.1), ("b", "model", 0.1), ("s", "sensory", 0.01)],
            [("a", "s", 0.5), ("b", "s", 0.5)],
        )
        state = make_state(net, {"s": False}, "swap-spouses-cover")
        pairs, singles = pair_nodes(state)
        assert pairs == []
        assert set(singles) == {net.index["a"], net.index["b"]}

    def test_child_true_pairs_whatever_the_child_holds(self, monkeypatch):
        # {a, b} forms whether m is on or off; m gates the pair's visit: off,
        # a and b each move single-site and no coin is drawn, on, the pair
        # swaps when the coin comes up.  A forward pass reaches the pair
        # before m, so the gate reads the m forced before the sweep, and
        # under the Gibbs rule every single-site move draws once
        net = build_network(
            [
                ("a", "model", 0.1),
                ("b", "model", 0.1),
                ("m", "model", 0.1),
                ("s", "sensory", 0.01),
            ],
            [("a", "m", 0.5), ("b", "m", 0.5), ("m", "s", 0.9)],
        )
        strategy = StrategySpec("fwd-bwd-gibbs", False, False, OPTIMIZED_FWD_BWD, GIBBS)

        class Drawn(ChainRandom):
            # ChainRandom shuffles and picks by getrandbits, so this lists
            # the uniform draws alone
            drawn = []

            def random(self):
                u = super().random()
                self.drawn.append(u)
                return u

        state = setup_chain(net, {"s": True}, strategy, Drawn(7))
        ja, jb = net.index["a"], net.index["b"]
        swaps = []

        def recorded(st, a, b, _swap=sampler.swap_pair_move):
            swaps.append({a, b})
            _swap(st, a, b)

        monkeypatch.setattr(sampler, "swap_pair_move", recorded)
        swapped = exchanged = 0
        for m in (0, 1):
            for k in range(40):
                force(state, "m", m)
                force(state, "a", k % 2)
                force(state, "b", k // 2 % 2)
                pairs, singles = pair_nodes(state)
                assert len(pairs) == 1 and set(pairs[0]) == {ja, jb}
                assert singles == [net.index["m"]]
                state.sweep_idx = 0
                state.rng.drawn = []
                swaps.clear()
                visits = state.sweeps, state.redraws
                run_sweep(state, 1)
                # a forward pass: one visit to a, b and m, and one redraw
                # of the (here no) forward-sampled nodes
                assert (state.sweeps - visits[0], state.redraws - visits[1]) == (1, 1)
                drawn = state.rng.drawn
                if not m:
                    # a, b and m single-site, no coin
                    assert swaps == [] and len(drawn) == 3
                elif drawn[0] < SWAP_FRACTION:
                    # the coin, the swap's own draw unless equal values
                    # exchange without a call, then m single-site
                    if k % 2 == k // 2 % 2:
                        assert swaps == [] and len(drawn) == 2
                    else:
                        assert swaps == [{ja, jb}] and len(drawn) == 3
                    swapped += 1
                    exchanged += len(swaps)
                else:
                    # the coin, then a, b and m single-site
                    assert swaps == [] and len(drawn) == 4
        assert 0 < exchanged < swapped < 40

    def test_child_true_plan_drops_children_fixed_off(self):
        # a and b share a free child m, a true and a false finding; c and d
        # only the false one: the true finding leaves {a, b} ungated, and
        # {c, d} could never open, so it never forms
        net = build_network(
            [(n, "model", 0.1) for n in "abcdm"]
            + [("s", "sensory", 0.01), ("t", "sensory", 0.01)],
            [("a", "m", 0.5), ("b", "m", 0.5), ("a", "s", 0.5), ("b", "s", 0.5)]
            + [(n, "t", 0.5) for n in "abcd"],
        )
        state = make_state(net, {"s": True, "t": False}, "swap-spouses-child-true")
        pairs, singles = pair_nodes(state)
        assert [{net.ids[a], net.ids[b]} for a, b in pairs] == [{"a", "b"}]
        assert {net.ids[j] for j in singles} == {"c", "d", "m"}
        assert state.pair_plan.gates == {}

    def test_flow_aware_never_pairs_through_forward_sampled_child(self):
        # a and b are diagnostic through separate observed children; the one
        # child they share carries no evidence.  Its sampled value must not
        # open a pairing channel, whatever that value currently is.
        net = build_network(
            [
                ("a", "model", 0.1),
                ("b", "model", 0.1),
                ("s1", "sensory", 0.01),
                ("s2", "sensory", 0.01),
                ("f", "sensory", 0.01),
            ],
            [
                ("a", "s1", 0.9),
                ("b", "s2", 0.9),
                ("a", "f", 0.5),
                ("b", "f", 0.5),
            ],
        )
        state = make_state(net, {"s1": True, "s2": True}, "optimized-random")
        assert state.forward_sampled[net.index["f"]]
        for value in (1, 0):
            force(state, "f", value)
            pairs, singles = pair_nodes(state)
            assert pairs == []
            assert set(singles) == {net.index["a"], net.index["b"]}

    def test_pairing_covers_all_movable_nodes(self):
        rng = random.Random(41)
        for trial in range(30):
            nodes, edges = random_dag(rng, rng.randint(3, 14))
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net, max_nodes=3)
            name = rng.choice(
                ["swap-spouses-cover", "block-spouses-cover", "optimized-random"]
            )
            strategy = PRESETS[name]
            state = make_state(net, ev, name, seed=trial)
            pairs, singles = pair_nodes(state)
            seen = set(singles)
            for a, b in pairs:
                assert a not in seen and b not in seen
                seen.add(a)
                seen.add(b)
            movable = {
                j
                for j in state.free
                if not (strategy.flow_aware and state.forward_sampled[j])
            }
            assert seen == movable

    def test_all_presets_mix_in_single_site_moves(self):
        assert SWAP_FRACTION < 1.0

    def test_unknown_move_policy_rejected(self):
        with pytest.raises(ValueError, match="move policy"):
            StrategySpec("bad", False, False, "swap-everything", GIBBS)

    def test_unknown_rule_rejected(self):
        # every move reads a rule other than GIBBS as Metropolis
        with pytest.raises(ValueError, match="unknown rule 'gibs'"):
            StrategySpec("x", False, False, SINGLE_SITE, "gibs")

    def test_policy_description(self):
        kinds = {name: (s.pair_move, s.cover_gated) for name, s in PRESETS.items()}
        assert kinds["gibbs"] == (None, False)
        assert kinds["block-spouses-cover"] == ("block", True)
        # named for a parent, gated on the shared child like the swap preset
        assert kinds["block-spouses-parent-true"] == ("block", False)
        assert kinds["swap-spouses-child-true"] == ("swap", False)
        assert kinds["optimized-fwd-bwd"] == ("swap", False)


class TestPairingMatchesReference:
    """The per-chain pairing plan: fixed for the chain, and matched by the
    transition-matrix oracle's pair kernels."""

    def test_plan_scopes_match_reference(self):
        # every pair the plan can hand a move, in either order, has the
        # reference scope list, in order, each node with the factor 1 - p
        # of its link from a and from b, or 1.0 where there is none; and
        # the plan holds no other pair
        problems = []
        for gs in LAYERED_SEEDS:
            net = gen.generate_network(gen.GeneratorParams(seed=gs, **LAYERED))
            problems += [(net, case.evidence) for case in gen.generate_cases(
                net, 3, (3, 5), (1, 4), seed=gs + 100)]
        rng = random.Random(2012)
        for _ in range(40):
            nodes, edges = random_dag(rng, rng.randint(3, 14), edge_prob=0.4)
            net = build_network(nodes, edges)
            problems.append((net, random_evidence(rng, net, max_nodes=3)))
        checked = 0
        for trial, (net, ev) in enumerate(problems):
            for name in PAIR_PRESETS:
                state = make_state(net, ev, name, seed=trial)
                plan = state.pair_plan
                flow = flow_map(net, ev, name)
                keys = {(a, b) for a, partners in plan.spouses.items() for b in partners}
                assert set(plan.scope) == keys, (trial, name)
                assert {(b, a) for a, b in keys} == keys, (trial, name)
                for (a, b), scope in plan.scope.items():
                    assert [k for k, _, _ in scope] == oracles._reference_pair_scope(net, flow, a, b), (
                        trial, name, a, b)
                    for k, qa, qb in scope:
                        for j, q in ((a, qa), (b, qb)):
                            assert q == (1.0 - net.edge_p[(j, k)] if (j, k) in net.edge_p else 1.0), (
                                trial, name, a, b, k)
                    checked += 1
                # pair_nodes hands a move (a, b), and the alternating
                # schedule (a, b) or (b, a), whichever node it reaches first
                for _ in range(10):
                    for a, b in pair_nodes(state)[0]:
                        assert (a, b) in plan.scope and (b, a) in plan.scope, (trial, name)
        assert checked > 1000

    def test_pairing_reads_no_chain_value(self):
        # two copies of a chain with one rng state and different free
        # values pair alike and draw alike
        assert len(PAIR_PRESETS) == 6
        rng = random.Random(2013)
        formed = 0
        for trial in range(40):
            nodes, edges = random_dag(rng, rng.randint(3, 14), edge_prob=0.4)
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net, max_nodes=3)
            for name in PAIR_PRESETS:
                state = make_state(net, ev, name, seed=trial)
                other = copy.deepcopy(state)
                for j in other.free:
                    other.flip(j)
                for call in range(6):
                    got = pair_nodes(state)
                    assert got == pair_nodes(other), (trial, name, call)
                    assert state.rng.getstate() == other.rng.getstate(), (trial, name, call)
                    formed += len(got[0])
                    for chain in (state, other):
                        for j in chain.free:
                            if rng.random() < 0.5:
                                chain.flip(j)
        assert formed > 0

    def test_oracle_has_a_kernel_for_every_pair_formed(self):
        # and no other: every pair kernel is a pair of the chain's own plan,
        # and is the identity on exactly the states its gate shuts (and, for
        # a swap, the states where the pair's two values are equal)
        rng = random.Random(2014)
        formed = 0
        for trial in range(40):
            nodes, edges = random_dag(rng, rng.randint(3, 12), edge_prob=0.4)
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net, max_nodes=3)
            for name in PAIR_PRESETS:
                strategy = PRESETS[name]
                tm = explicit_transition_matrix(net, ev, strategy)
                labels = {label for label, _ in tm.moves}
                state = make_state(net, ev, name, seed=trial)
                for call in range(6):
                    for a, b in pair_nodes(state)[0]:
                        ids = (net.ids[a], net.ids[b])
                        assert {(strategy.pair_move,) + ids, (strategy.pair_move,) + ids[::-1]} & labels, (
                            trial, name, call, ids)
                        formed += 1
                    for _ in range(2):
                        if state.free:
                            state.flip(rng.choice(state.free))
                plan = state.pair_plan
                column = {nid: k for k, nid in enumerate(tm.node_order)}
                values = np.array(tm.states, dtype=bool).reshape(len(tm.states), len(tm.node_order))
                for (kind, *ids), mat in tm.moves:
                    if kind != strategy.pair_move:
                        continue
                    a, b = (net.index[nid] for nid in ids)
                    assert b in plan.spouses.get(a, ()), (trial, name, ids)
                    gate = plan.gates.get((a, b))
                    idle = np.zeros(len(values), dtype=bool)
                    if gate is not None:
                        idle = ~values[:, [column[net.ids[c]] for c in gate]].any(axis=1)
                    if kind == "swap":
                        idle |= values[:, column[ids[0]]] == values[:, column[ids[1]]]
                    assert np.array_equal(mat.diagonal() == 1.0, idle), (trial, name, ids)
        assert formed > 0

    def test_only_child_true_plans_gate_on_a_free_child(self):
        net = build_network(
            [
                ("a", "model", 0.1),
                ("b", "model", 0.1),
                ("m", "model", 0.1),
                ("s", "sensory", 0.01),
            ],
            [("a", "m", 0.5), ("b", "m", 0.5), ("m", "s", 0.9)],
        )
        ja, jb, jm = (net.index[n] for n in "abm")
        # m is off: both plans pair a and b through it, and only the
        # child-true plan gates the pair's moves on m
        gates = {
            "swap-spouses-cover": {},
            "swap-spouses-child-true": {(ja, jb): [jm], (jb, ja): [jm]},
        }
        for name, want in gates.items():
            state = make_state(net, {"s": True}, name)
            force(state, "m", 0)
            plan = state.pair_plan
            assert len(pair_nodes(state)[0]) == 1, name
            assert state.pair_plan is plan and plan.gates == want, name


class TestSweeps:
    def test_every_free_node_scored_each_sweep(self):
        # six sweeps singly, and as stretches that start on sweeps 0, 1 and
        # 3, with the counts checked after each stretch
        rng = random.Random(51)
        for trial in range(12):
            nodes, edges = random_dag(rng, rng.randint(3, 10))
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net, max_nodes=2)
            for (name, strategy), stretches in itertools.product(PRESETS.items(), [(1,) * 6, (1, 2, 3)]):
                state = make_state(net, ev, name, seed=trial)
                if not strategy.flow_aware:
                    # the blanket map forward-samples nothing
                    assert state.diagnostic == state.free, name
                    assert state.topo_forward == [], name
                done = 0
                for length in stretches:
                    run_sweep(state, length)
                    done += length
                    # forward-sampled nodes: forward passes only under the
                    # alternating schedule, every sweep otherwise
                    redraws = (done + 1) // 2 if strategy.move_policy == OPTIMIZED_FWD_BWD else done
                    assert (state.sweeps, state.redraws) == (done, redraws), (name, stretches, done)

    def test_gibbs_converges_on_vase(self, vase):
        est = sample_posteriors(vase, {"v": True}, PRESETS["gibbs"], sweeps=10_000, seed=7)
        assert est["e"] == pytest.approx(VASE_P_E, abs=0.02)
        assert est["b"] == pytest.approx(VASE_P_B, abs=0.02)

    def test_swap_chain_still_reaches_all_states(self, vase):
        # swap moves alone preserve the number of true causes; the mixed-in
        # single-site moves must restore access to (0,0) and (1,1)
        state = make_state(vase, {"v": True}, "swap-spouses-cover", seed=3)
        force(state, "e", 0)
        force(state, "b", 0)
        seen = set()
        for _ in range(2000):
            run_sweep(state, 1)
            seen.add((state.x[vase.index["e"]], state.x[vase.index["b"]]))
        assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_clamp_with_no_positive_evidence_freezes_model_nodes(self):
        net = build_network(
            [("m1", "model", 0.1), ("m2", "model", 0.1), ("s", "sensory", 0.01)],
            [("m1", "s", 0.5), ("m2", "s", 0.5)],
        )
        est = sample_posteriors(net, {"s": False}, PRESETS["gibbs-clamp"], sweeps=50, seed=1)
        assert est["m1"] == 0.0
        assert est["m2"] == 0.0
        assert est["s"] == 0.0

    def test_fwd_bwd_alternation_revisits_diagnostic_nodes(self):
        net = build_network(
            [("a", "model", 0.1), ("s", "sensory", 0.01), ("d", "sensory", 0.05)],
            [("a", "s", 0.8), ("a", "d", 0.5)],
        )
        state = make_state(net, {"s": True}, "optimized-fwd-bwd", seed=5)
        for _ in range(40):
            run_sweep(state, 1)
        ja, jd = net.index["a"], net.index["d"]
        # d is forward-sampled: visited only on the 20 forward passes
        assert state.forward_sampled[jd]
        assert state.redraws == 20
        # a is diagnostic-sampled: visited on every pass
        assert state.diagnostic == [ja]
        assert state.sweeps == 40
        est = estimate_marginals(state)
        assert (est["a"], est["d"], est["s"]) == (state.sums[ja] / 40, state.sums[jd] / 20, 1.0)

    def test_all_presets_converge_on_vase(self, vase):
        for name, strategy in PRESETS.items():
            est = sample_posteriors(vase, {"v": True}, strategy, sweeps=4000, seed=11)
            assert est["e"] == pytest.approx(VASE_P_E, abs=0.04), name
            assert est["b"] == pytest.approx(VASE_P_B, abs=0.04), name


def fresh_odds(state, n):
    odds = reference_cond_odds(state, n)
    return (odds, odds / (1.0 + odds))


def fill_odds_cache(state):
    for d in state.diagnostic:
        state.odds_cache[d] = fresh_odds(state, d)


def assert_odds_cache_coherent(state):
    """Every entry not marked stale holds, bit for bit, what a recompute gives.
    Returns how many entries were live."""
    live = 0
    for n, hit in enumerate(state.odds_cache):
        if hit is not None:
            assert hit == fresh_odds(state, n), state.net.ids[n]
            live += 1
    return live


class TestOddsCache:
    def test_stale_lists_match_the_conditionals_inputs(self):
        rng = random.Random(61)
        for trial in range(40):
            nodes, edges = random_dag(rng, rng.randint(2, 9))
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net, max_nodes=2)
            for name in PRESETS:
                state = make_state(net, ev, name, seed=trial)
                blind = reference_stale(state)
                for k in range(len(net.ids)):
                    where = (trial, name, k)
                    assert len(set(state.stale[k])) == len(state.stale[k]), where
                    assert set(state.stale[k]) == set(blind[k]), where

    def test_links_and_both_refill_loops_match_the_network(self):
        # the (c, 1 - p) links are the child lists with the network's
        # factors, and each of fill_odds's two loops, one per value of the
        # node, gives the reference's floats over off and on children
        rng = random.Random(67)
        seen = set()
        for trial in range(40):
            nodes, edges = random_dag(rng, rng.randint(2, 9), edge_prob=0.4)
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net, max_nodes=3)
            for name in PRESETS:
                state = make_state(net, ev, name, seed=trial)
                for j in range(len(net.ids)):
                    assert state.scope_links[j] == [
                        (c, 1.0 - net.edge_p[(j, c)]) for c in state.scope_children[j]], (trial, name, j)
                    assert state.child_links[j] == [
                        (c, 1.0 - net.edge_p[(j, c)]) for c in net.children[j]], (trial, name, j)
                for n in state.diagnostic:
                    for value in (0, 1):
                        if state.x[n] != value:
                            state.flip(n)
                        assert state.fill_odds(n) == fresh_odds(state, n), (trial, name, n, value)
                        seen.update((value, state.x[c]) for c in state.scope_children[n])
        assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_zero_survival_means_on_for_certain(self):
        # 45 parents drive s through p = 1 - 1e-8 links, so with them on
        # s's survival underflows to 0.0; s's scope child u is on
        nodes = [(f"m{i:02d}", "model", 0.99) for i in range(45)]
        nodes += [("s", "sensory", 0.001), ("u", "sensory", 0.001)]
        edges = [(f"m{i:02d}", "s", 1 - 1e-8) for i in range(45)] + [("s", "u", 0.5)]
        net = build_network(nodes, edges)
        state = make_state(net, {"u": True})
        s = net.index["s"]
        assert state.scope_children[s] == [net.index["u"]]
        for value in (0, 1):
            for j in state.free:
                state.x[j] = value if j == s else 1
            state.refresh_survivals()
            assert state.surv[s] == 0.0
            assert state.fill_odds(s) == (math.inf, 1.0), value

    def test_pair_moves_clear_by_the_flip_rule(self):
        # a pair move on a pair its chain's plan forms weighs its joint
        # values from the caches and flips only the nodes whose value the
        # draw changes, so it drops exactly what a flip of each of those
        # would, and nothing when it stays
        rng = random.Random(65)
        pair_presets = [name for name, spec in PRESETS.items() if spec.pair_move]
        flipped = stayed = 0
        for trial in range(40):
            nodes, edges = random_dag(rng, rng.randint(4, 10), edge_prob=0.4)
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net, max_nodes=3, p_true=1.0)
            for name, rule in itertools.product(pair_presets, (GIBBS, METROPOLIS)):
                state = make_state(net, ev, name, seed=trial, rule=rule)
                pairs = list(state.pair_plan.scope)
                if not pairs:
                    continue
                blind = reference_stale(state)
                move = swap_pair_move if PRESETS[name].pair_move == "swap" else block_pair_move
                for step in range(10):
                    a, b = rng.choice(pairs)
                    fill_odds_cache(state)
                    before = list(state.x)
                    move(state, a, b)
                    where = (trial, name, rule, step, a, b)
                    moved = [n for n in (a, b) if state.x[n] != before[n]]
                    dropped = {d for d in state.diagnostic if state.odds_cache[d] is None}
                    assert dropped == {d for n in moved for d in blind[n]}, where
                    assert_odds_cache_coherent(state)
                    flipped += bool(moved)
                    stayed += not moved
        assert flipped > 300 and stayed > 1000, (flipped, stayed)

    def test_a_pair_move_that_stays_changes_nothing(self):
        # a swap that keeps its values, and a block move that lands where it
        # started, leave the values, the survivals and the cached
        # conditionals bit for bit as they were, under every pair preset
        # and either rule
        rng = random.Random(66)
        pair_presets = [name for name, spec in PRESETS.items() if spec.pair_move]
        stays = {(name, rule): 0 for name in pair_presets for rule in (GIBBS, METROPOLIS)}
        for trial in range(40):
            nodes, edges = random_dag(rng, rng.randint(4, 10), edge_prob=0.4)
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net, max_nodes=3, p_true=1.0)
            for name, rule in stays:
                state = make_state(net, ev, name, seed=trial, rule=rule)
                pairs = list(state.pair_plan.scope)
                if not pairs:
                    continue
                move = swap_pair_move if PRESETS[name].pair_move == "swap" else block_pair_move
                for step in range(10):
                    a, b = rng.choice(pairs)
                    fill_odds_cache(state)
                    x, surv, cache = list(state.x), list(state.surv), list(state.odds_cache)
                    move(state, a, b)
                    if state.x != x:
                        continue
                    where = (trial, name, rule, step, a, b)
                    assert state.surv == surv, where
                    assert state.odds_cache == cache, where
                    # an exchange of equal values stays by definition
                    stays[name, rule] += x[a] != x[b] or move is block_pair_move
        assert min(stays.values()) > 20, stays

    def test_cache_coherent_after_every_move(self, vase, monkeypatch):
        import diagbn.sampler as sampler

        live = [0]
        for move in ("swap_pair_move", "block_pair_move"):
            def checked(state, *args, _move=getattr(sampler, move)):
                _move(state, *args)
                live[0] += assert_odds_cache_coherent(state)
            monkeypatch.setattr(sampler, move, checked)
        # the sweep loops make their single-site moves and forward redraws
        # inline, so check after each of their flips and each sweep
        def checked_flip(state, n, _flip=sampler.SamplerState.flip):
            _flip(state, n)
            live[0] += assert_odds_cache_coherent(state)
        monkeypatch.setattr(sampler.SamplerState, "flip", checked_flip)
        nets = [(vase, {"v": True})]
        rng = random.Random(62)
        for _ in range(40):
            nodes, edges = random_dag(rng, rng.randint(3, 9))
            net = build_network(nodes, edges)
            nets.append((net, random_evidence(rng, net, max_nodes=2)))
        for trial, (net, ev) in enumerate(nets):
            for name in PRESETS:
                state = make_state(net, ev, name, seed=trial)
                for _ in range(4):
                    run_sweep(state, 1)
                    live[0] += assert_odds_cache_coherent(state)
        assert live[0] > 0  # the check saw cache hits to compare

    def test_external_flip_invalidates_its_stale_list(self):
        rng = random.Random(63)
        for trial in range(20):
            nodes, edges = random_dag(rng, rng.randint(3, 9))
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net, max_nodes=2)
            state = make_state(net, ev, "gibbs", seed=trial)
            blind = reference_stale(state)
            for j in state.free:
                fill_odds_cache(state)
                state.flip(j)
                dropped = {d for d in state.diagnostic if state.odds_cache[d] is None}
                assert dropped == set(blind[j]), (trial, j)
                assert_odds_cache_coherent(state)

    def test_refresh_survivals_clears_the_cache(self, vase):
        state = make_state(vase, {"v": True})
        fill_odds_cache(state)
        assert all(state.odds_cache[d] is not None for d in state.diagnostic)
        state.refresh_survivals()
        assert state.odds_cache == [None] * len(vase.ids)


class TestFlowVsBlanketConditioning:
    def test_flow_and_blanket_conditionals_differ_when_children_are_omitted(self):
        # A cause with an unobserved child sink: flow-aware conditioning skips
        # the sink's sampled value; blanket conditioning folds it in.  Both
        # match their own enumeration targets and genuinely differ pointwise.
        net = build_network(
            [("a", "model", 0.01), ("s1", "sensory", 0.001), ("c", "sensory", 0.02)],
            [("a", "s1", 0.9), ("a", "c", 0.8)],
        )
        ev = {"s1": True}
        clamp = no_clamp(net, ev)
        flow = classify_flow(net, ev, clamp)
        blanket = classify_flow(net, ev, clamp, blanket=True)
        state = make_state(net, ev, "gibbs-flow")
        force(state, "c", 0)
        force(state, "a", 0)

        got_flow = conditional_prob(net, state, "a", flow["a"])
        want_flow = conditional_by_enumeration(net, {"s1": True}, "a")
        assert got_flow == pytest.approx(want_flow, abs=1e-12)

        got_blanket = conditional_prob(net, state, "a", blanket["a"])
        want_blanket = conditional_by_enumeration(net, {"s1": True, "c": False}, "a")
        assert got_blanket == pytest.approx(want_blanket, abs=1e-12)

        assert abs(got_flow - got_blanket) > 0.1

    def test_flow_equals_blanket_when_no_children_are_omitted(self):
        rng = random.Random(61)
        for _ in range(25):
            nodes, edges = random_dag(rng, rng.randint(3, 9))
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net, max_nodes=3)
            clamp = no_clamp(net, ev)
            flow = classify_flow(net, ev, clamp)
            blanket = classify_flow(net, ev, clamp, blanket=True)
            state = make_state(net, ev, "gibbs-flow", seed=1)
            for nid in state_free_ids(state):
                info = flow[nid]
                j = net.index[nid]
                all_children = {net.ids[c] for c in net.children[j]}
                if set(info.evidential_children) != all_children:
                    continue
                a = conditional_prob(net, state, nid, info)
                b = conditional_prob(net, state, nid, blanket[nid])
                assert a == pytest.approx(b, abs=1e-12)


class TestDeterminism:
    def test_run_chain_bit_identical(self, vase):
        kw = dict(sweeps=500, seed=123, burn_in=50, checkpoints=(100, 500))
        a = run_chain(vase, {"v": True}, PRESETS["optimized-random"], **kw)
        b = run_chain(vase, {"v": True}, PRESETS["optimized-random"], **kw)
        assert a.checkpoint_estimates == b.checkpoint_estimates
        assert a.cost == b.cost

    def test_checkpoint_at_burn_in_keeps_its_sweeps(self, vase):
        # checkpoints at and before burn-in estimate from the burn-in sweeps
        # so far, exactly as a chain stopped there; later ones exclude them
        gibbs = PRESETS["gibbs"]
        res = run_chain(vase, {"v": True}, gibbs, sweeps=100, seed=1, burn_in=50,
                        checkpoints=(10, 50, 100))
        for ck in (10, 50):
            alone = run_chain(vase, {"v": True}, gibbs, sweeps=ck, seed=1, checkpoints=(ck,))
            assert res.checkpoint_estimates[ck] == alone.checkpoint_estimates[ck]
        assert res.checkpoint_estimates[50]["e"] > 0.0

    def test_multi_chain_merge_deterministic(self, vase):
        a = sample_posteriors(vase, {"v": True}, PRESETS["gibbs"], sweeps=300, seed=9, chains=3)
        b = sample_posteriors(vase, {"v": True}, PRESETS["gibbs"], sweeps=300, seed=9, chains=3)
        assert a == b

    @pytest.mark.parametrize("name", ["gibbs", "optimized-random"])
    def test_chains_merge_as_they_finish(self, name):
        # each chain joins the first chain's book as it finishes, so memory
        # stays flat in the number of chains; holding every chain to the
        # end made the 40-chain peak about 20 times the 2-chain one
        config = load_config(os.path.join(DATA_DIR, "bench_config.json"))
        ev = config.cases[0].evidence

        def peak(chains):
            tracemalloc.start()
            try:
                sample_posteriors(config.net, ev, PRESETS[name], sweeps=2, seed=1, chains=chains)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        two = peak(2)
        assert peak(40) < 2 * two

    def test_different_seeds_differ(self, vase):
        a = sample_posteriors(vase, {"v": True}, PRESETS["gibbs"], sweeps=300, seed=1)
        b = sample_posteriors(vase, {"v": True}, PRESETS["gibbs"], sweeps=300, seed=2)
        assert a != b

    def test_derive_seed_stable_and_spread(self):
        assert derive_seed(1, "x", 0) == derive_seed(1, "x", 0)
        seen = {derive_seed(1, "x", k) for k in range(100)}
        assert len(seen) == 100


def _chain_problems(vase, count=40):
    rng = random.Random(1313)
    problems = [(vase, {"v": True})]
    for _ in range(count):
        nodes, edges = random_dag(rng, rng.randint(3, 12), edge_prob=0.4)
        net = build_network(nodes, edges)
        problems.append((net, random_evidence(rng, net, max_nodes=3)))
    return problems


class TestChainStretches:
    """`_run_chains` sweeps a stretch at a time between its stops; the
    chains, estimates and costs are those of the loop that swept one
    `run_sweep` at a time and checked every sweep."""

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_same_chains_as_reference(self, vase, name):
        strategy = PRESETS[name]
        schedules = [(0, (1, 20)), (7, (3, 7, 8, 20))]
        unestimated = 0
        for trial, (net, ev) in enumerate(_chain_problems(vase)):
            for burn_in, checkpoints in schedules:
                where = (trial, burn_in)
                try:
                    got = run_chain(net, ev, strategy, 20, trial, burn_in, checkpoints)
                except ValueError as exc:
                    # sweep 7, the one between burn-in and checkpoint 8, is
                    # a backward pass, which redraws no forward-sampled node
                    assert name == "optimized-fwd-bwd" and 8 in checkpoints, (where, exc)
                    with pytest.raises(ValueError, match=re.escape(str(exc))):
                        reference_run_chains(net, ev, strategy, 20, [trial], burn_in, checkpoints)
                    unestimated += 1
                    checkpoints = (3, 7, 20)
                    got = run_chain(net, ev, strategy, 20, trial, burn_in, checkpoints)
                [(ref, marks, _)] = reference_run_chains(
                    net, ev, strategy, 20, [trial], burn_in, checkpoints)
                assert got.checkpoint_estimates == marks, where
                assert got.cost == ref.cost, where
                merged = sample_posteriors(net, ev, strategy, 20, trial, burn_in, chains=2)
                seeds = [derive_seed(trial, "chain", k) for k in range(2)]
                [(one, _, _), (two, _, _)] = reference_run_chains(net, ev, strategy, 20, seeds, burn_in)
                for j, credit in enumerate(two.sums):
                    one.sums[j] += credit
                one.sweeps += two.sweeps
                one.redraws += two.redraws
                assert merged == estimate_marginals(one), where
        assert (unestimated > 0) == (name == "optimized-fwd-bwd")

    @pytest.mark.parametrize("name", ["gibbs", "block-spouses-cover"])
    def test_survivals_refresh_between_stretches(self, name):
        # three causes of one observed effect: the effect's survival cache
        # drifts in its last bits over the refresh period, so only a refresh
        # after its last sweep leaves it equal to the reference's
        net = build_network(
            [("a", "model", 0.13), ("b", "model", 0.21), ("c", "model", 0.17),
             ("s", "sensory", 0.07)],
            [("a", "s", 0.63), ("b", "s", 0.71), ("c", "s", 0.47)],
        )
        strategy = PRESETS[name]
        period = sampler._REFRESH_SWEEPS
        checkpoints = (period - 1, period, period + 1, period + 3)
        [(state, marks, _)] = _run_chains(net, {"s": True}, strategy, period + 3, [5], 0, checkpoints)
        [(ref, ref_marks, _)] = reference_run_chains(
            net, {"s": True}, strategy, period + 3, [5], 0, checkpoints)
        assert marks == ref_marks
        assert state.surv == ref.surv
        assert state.sums == ref.sums
        assert (state.sweeps, state.redraws) == (ref.sweeps, ref.redraws)
        assert state.cost == ref.cost
        assert state.rng.getstate() == ref.rng.getstate()

    @pytest.mark.parametrize("checkpoints, bad", [
        ((5000,), [5000]),
        ((0, 50), [0]),
        ((-3,), [-3]),
        ((10, 101, 2.5, 100, "7"), [101, 2.5, "7"]),
        ((5.0,), [5.0]),
        ((True,), [True]),
    ], ids=["past-the-end", "zero", "negative", "mixed", "float", "bool"])
    def test_checkpoints_outside_the_chain_are_rejected(self, vase, checkpoints, bad):
        with pytest.raises(ValueError, match=re.escape(f"in [1, 100], got {bad}")):
            run_chain(vase, {"v": True}, PRESETS["gibbs"], 100, 1, checkpoints=checkpoints)

    @pytest.mark.parametrize("burn_in", [7.5, 7.0, -1, 100])
    def test_burn_in_outside_the_chain_is_rejected(self, vase, burn_in):
        with pytest.raises(ValueError, match="burn-in must be an integer in"):
            run_chain(vase, {"v": True}, PRESETS["gibbs"], 100, 1, burn_in, (100,))

    @pytest.mark.parametrize("sweeps", [2.5, True], ids=["float", "bool"])
    def test_sweeps_that_are_not_integers_are_rejected(self, vase, sweeps):
        # a float used to stop in range() with a TypeError, and True ran as 1
        with pytest.raises(ValueError, match=re.escape(f"sweeps must be an integer of at least 1, got {sweeps}")):
            run_chain(vase, {"v": True}, PRESETS["gibbs"], sweeps, 1)
        with pytest.raises(ValueError, match="sweeps must be an integer"):
            sample_posteriors(vase, {"v": True}, PRESETS["gibbs"], sweeps, 1)

    @pytest.mark.parametrize("chains", [2.0, True, 0], ids=["float", "bool", "zero"])
    def test_chains_that_are_not_positive_integers_are_rejected(self, vase, chains):
        with pytest.raises(ValueError, match=re.escape(f"chains must be an integer of at least 1, got {chains}")):
            sample_posteriors(vase, {"v": True}, PRESETS["gibbs"], 10, 1, chains=chains)


class TestInitializeState:
    def test_evidence_and_clamps_fixed(self):
        net = build_network(
            [
                ("m1", "model", 0.1),
                ("m2", "model", 0.1),
                ("s1", "sensory", 0.01),
                ("s2", "sensory", 0.01),
            ],
            [("m1", "s1", 0.8), ("m2", "s2", 0.8)],
        )
        ev = {"s1": True, "s2": False}
        state = make_state(net, ev, "gibbs-clamp")
        assert "m2" in clamp_pass(net, ev).clamped_false
        assert state.x[net.index["s1"]] == 1
        assert state.x[net.index["s2"]] == 0
        assert state.x[net.index["m2"]] == 0
        assert net.index["m2"] not in state.free

    def test_same_seed_same_state(self, vase):
        a = make_state(vase, {"v": True}, seed=7)
        b = make_state(vase, {"v": True}, seed=7)
        assert a.x == b.x

    def test_tiny_leaks_start_nearly_all_false(self):
        net = build_network([(f"m{i}", "model", 0.001) for i in range(10)], [])
        trues = 0
        for seed in range(200):
            state = make_state(net, {}, seed=seed)
            trues += sum(state.x)
        assert trues < 20  # expectation is 200 * 10 * 0.001 = 2

    def test_state_carries_its_presets_maps(self):
        # the clamp, the flow map and the pair plan a chain runs on are the
        # ones its preset names, fixed when the state is built
        rng = random.Random(63)
        for trial in range(25):
            nodes, edges = random_dag(rng, rng.randint(3, 12), edge_prob=0.4)
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net, max_nodes=3)
            for name, strategy in PRESETS.items():
                state = make_state(net, ev, name, seed=trial)
                clamp = clamp_pass(net, ev) if strategy.clamp else no_clamp(net, ev)
                assert state.free == sorted(net.index[nid] for nid in clamp.unclamped), (trial, name)
                for nid, info in flow_map(net, ev, name).items():
                    j = net.index[nid]
                    assert state.forward_sampled[j] == (info.status == FORWARD_SAMPLED), (trial, name, nid)
                    scope = [net.ids[c] for c in state.scope_children[j]]
                    assert scope == list(info.evidential_children), (trial, name, nid)
                assert (state.pair_plan is None) == (strategy.move_policy == SINGLE_SITE), (trial, name)

    def test_survival_caches_start_consistent(self, vase):
        state = make_state(vase, {"v": True}, seed=13)
        want = list(state.surv)
        state.refresh_survivals()
        assert state.surv == pytest.approx(want, abs=1e-15)


class TestAccumulator:
    """The chain's book: each free node's credit sum over its visit total."""

    def test_basic_average(self, vase):
        ev = {"v": True}
        state = make_state(vase, ev)
        with pytest.raises(ValueError, match="has no visit to estimate from: no sweep has run"):
            estimate_marginals(state)
        j = vase.index["e"]
        state.sums[j] = 3.0
        state.sweeps = 10
        est = estimate_marginals(state)
        assert est["e"] == pytest.approx(0.3)
        assert est["v"] == 1.0

    def test_forward_sampled_nodes_need_a_forward_pass_after_burn_in(self):
        # under the alternating schedule forward-sampled nodes are redrawn
        # on the even sweeps only, so a chain whose one sweep after burn-in
        # is sweep 1, a backward pass, never credited them: s3 and s4 here,
        # which used to report 0.0 against an exact 0.28 for s3
        net, ev = backward_tail_problem()
        fwd_bwd = PRESETS["optimized-fwd-bwd"]
        forward = {net.ids[j] for j in make_state(net, ev, "optimized-fwd-bwd").topo_forward}
        assert forward == {"s3", "s4"}
        with pytest.raises(ValueError, match="every sweep was a backward pass") as raised:
            sample_posteriors(net, ev, fwd_bwd, sweeps=2, seed=1, burn_in=1)
        assert re.search(r"node '(\w+)'", str(raised.value))[1] in forward
        # a forward pass after burn-in, or a schedule that redraws every
        # sweep, estimates every node
        for strategy, sweeps, burn_in in [(fwd_bwd, 3, 1), (fwd_bwd, 2, 0), (PRESETS["gibbs-flow"], 2, 1)]:
            est = sample_posteriors(net, ev, strategy, sweeps=sweeps, seed=1, burn_in=burn_in)
            assert 0.0 < est["s3"] < 1.0, (strategy.name, sweeps, burn_in)

    def test_clamped_nodes_report_zero(self):
        net = build_network(
            [("m1", "model", 0.1), ("m2", "model", 0.1), ("s1", "sensory", 0.01)],
            [("m1", "s1", 0.8)],
        )
        ev = {"s1": True}
        state = make_state(net, ev, "gibbs-clamp")
        assert "m2" in clamp_pass(net, ev).clamped_false
        assert not state.is_free[net.index["m2"]]
        run_sweep(state, 1)
        est = estimate_marginals(state)
        assert est["m2"] == 0.0
        assert est["s1"] == 1.0


# extreme strict-valid parameters: leaks and links near 0 and 1
EXTREME_LEAKS = [1e-12, 1e-6, 0.3, 1 - 1e-6, 1 - 1e-12]
EXTREME_LINKS = [1e-12, 0.5, 1 - 1e-4, 1 - 1e-8, 1 - 1e-12]


@st.composite
def extreme_networks(draw):
    """A strict-valid network of k model nodes (k up to 50) that all drive
    one sensory node s through links of one strength, one of them also
    driving a second sensory node t, with a few model-to-model links, leaks
    and links drawn from the extremes, and evidence on s, t or neither;
    sometimes s also drives a sensory node u, with s observed false and u
    true."""
    k = draw(st.integers(min_value=1, max_value=50))
    leak = st.sampled_from(EXTREME_LEAKS)
    link = st.sampled_from(EXTREME_LINKS)
    model_leak, s_link = draw(leak), draw(link)
    nodes = [(f"m{i:02d}", "model", model_leak) for i in range(k)]
    nodes += [("s", "sensory", draw(leak)), ("t", "sensory", draw(leak))]
    edges = [(f"m{i:02d}", "s", s_link) for i in range(k)]
    edges.append((f"m{draw(st.integers(0, k - 1)):02d}", "t", draw(link)))
    linked = set()
    for _ in range(draw(st.integers(0, 3)) if k > 1 else 0):
        i, j = sorted(draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True)))
        if (i, j) not in linked:
            linked.add((i, j))
            edges.append((f"m{i:02d}", f"m{j:02d}", draw(link)))
    values = st.sampled_from([True, False, None])
    ev = {nid: v for nid, v in (("s", draw(values)), ("t", draw(values))) if v is not None}
    if draw(st.booleans()):
        # s observed false under a child u observed true: s stays in the
        # evidence cover, so the cover presets pair its parents over it
        nodes.append(("u", "sensory", draw(leak)))
        edges.append(("s", "u", draw(link)))
        ev.update(s=False, u=True)
    return build_network(nodes, edges), ev


class TestExtremeParameters:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(extreme_networks(), st.integers(min_value=0, max_value=2**32))
    @example(underflow_problem(None), 1)  # s is moved while its survival is 0.0
    @example(underflow_problem(False), 1)  # s's parents turn off after it underflowed
    @example(pair_underflow_problem(), 1)  # every weight of a cover pair move underflows
    def test_every_preset_runs_with_coherent_survivals(self, problem, seed):
        # a product of many near-zero factors underflows to 0.0, and the
        # survival cache must neither divide by it nor keep it once a
        # parent turns off
        net, ev = problem
        assert validate(net) == []
        for name, strategy in PRESETS.items():
            state = setup_chain(net, ev, strategy, ChainRandom(derive_seed(seed, name)))
            for count in (1, 3, 7):
                run_sweep(state, count)
                fresh = [net.survival(j, state.x) for j in range(len(net.ids))]
                for j, (cached, want) in enumerate(zip(state.surv, fresh)):
                    assert math.isclose(cached, want, rel_tol=1e-9, abs_tol=1e-300), (name, net.ids[j])
            est = estimate_marginals(state)
            assert all(0.0 <= p <= 1.0 for p in est.values()), name

    def test_log_space_pair_weights_are_the_joint_weights(self, vase):
        # where nothing underflows, the weights recomputed in log space are
        # the joint weights scaled to a largest of 1.0, and the chain is
        # left as it was
        state = make_state(vase, {"v": True}, "block-spouses-cover", seed=2)
        e, b = vase.index["e"], vase.index["b"]
        x, surv = list(state.x), list(state.surv)
        joint = list(VASE_WEIGHTS)
        got = sampler._underflow_weights(state, e, b, joint)
        top = max(VASE_WEIGHTS.values())
        assert got == pytest.approx([VASE_WEIGHTS[j] / top for j in joint], rel=1e-12)
        assert state.x == x and state.surv == surv

    def test_pair_moves_weigh_a_subnormal_total_exactly(self, monkeypatch):
        # 26 models drive s through p = 1 - 1e-12 links, so with them on s's
        # survival is subnormal: a pair move on a and b sums a nonzero total
        # whose weights lost most of their digits to underflow
        nodes = [("a", "model", 0.3), ("b", "model", 0.2), ("s", "sensory", 1 - 1e-9)]
        nodes += [("u", "sensory", 0.001)] + [(f"m{i:02d}", "model", 0.99) for i in range(26)]
        edges = [("a", "s", 0.5), ("b", "s", 0.7), ("s", "u", 0.5)]
        edges += [(f"m{i:02d}", "s", 1 - 1e-12) for i in range(26)]
        net = build_network(nodes, edges)
        ev = {"s": False, "u": True}
        a, b, s = (net.index[n] for n in "abs")
        # s is observed off, so its factor is its survival, and of that only
        # a's and b's links (q = 0.5 and 0.3) vary with the pair
        w = {(va, vb): (0.3 * 0.5 if va else 0.7) * (0.2 * 0.3 if vb else 0.8)
             for va in (0, 1) for vb in (0, 1)}
        total = sum(w.values())
        exact = {
            block_pair_move: ((w[1, 0] + w[1, 1]) / total, (w[0, 1] + w[1, 1]) / total),
            swap_pair_move: (w[1, 0] / (w[1, 0] + w[0, 1]), w[0, 1] / (w[1, 0] + w[0, 1])),
        }
        for move, (p_a, p_b) in exact.items():
            state = make_state(net, ev, "block-spouses-cover" if move is block_pair_move else "swap-spouses-cover")
            for j in state.free:
                state.x[j] = 0 if j == b else 1
            state.refresh_survivals()
            assert 0.0 < state.surv[s] < sampler._MIN_NORMAL
            move(state, a, b)
            assert state.sums[a] == pytest.approx(p_a, abs=1e-12), move.__name__
            assert state.sums[b] == pytest.approx(p_b, abs=1e-12), move.__name__
        # 26 of the 40 models of the pair-underflow net on, a among them,
        # leave s's survival subnormal, while with a and b off it is
        # normal, and so is the weights' total; a move that turns a off
        # would divide that survival, so it weighs every joint state from
        # the parents
        net, ev = pair_underflow_problem()
        a, b, s = (net.index[n] for n in ("m00", "m01", "s"))
        q = 1.0 - net.edge_p[(a, s)]
        # each model's factor is 0.99 on and 0.01 off; s is observed off, so
        # its factor is its survival, of which only q ** (x[a] + x[b]) varies
        w = {(va, vb): (0.99 if va else 0.01) * (0.99 if vb else 0.01) * q ** (va + vb)
             for va in (0, 1) for vb in (0, 1)}
        total = sum(w.values())
        exact = {
            block_pair_move: ((1, 1), (w[1, 0] + w[1, 1]) / total, (w[0, 1] + w[1, 1]) / total),
            swap_pair_move: ((1, 0), w[1, 0] / (w[1, 0] + w[0, 1]), w[0, 1] / (w[1, 0] + w[0, 1])),
        }
        calls = []

        def spied(*args, _weights=sampler._underflow_weights):
            calls.append(args[1:3])
            return _weights(*args)

        monkeypatch.setattr(sampler, "_underflow_weights", spied)
        for move, ((va, vb), p_a, p_b) in exact.items():
            state = make_state(net, ev, "block-spouses-cover" if move is block_pair_move else "swap-spouses-cover")
            others = [j for j in state.free if j not in (a, b)]
            values = {a: va, b: vb, **dict.fromkeys(others[:26 - va - vb], 1)}
            for j in state.free:
                state.x[j] = values.get(j, 0)
            state.refresh_survivals()
            assert sum(state.x[j] for j in state.free) == 26
            assert 0.0 < state.surv[s] < sampler._MIN_NORMAL
            assert net.survival(s, [0 if j in (a, b) else v for j, v in enumerate(state.x)]) > sampler._MIN_NORMAL
            del calls[:]
            move(state, a, b)
            assert calls == [(a, b)], move.__name__
            assert state.sums[a] == pytest.approx(p_a, rel=1e-9), move.__name__
            assert state.sums[b] == pytest.approx(p_b, rel=1e-9), move.__name__
            assert state.surv[s] == pytest.approx(net.survival(s, state.x), rel=1e-9), move.__name__

    def test_leak_below_float_resolution_rejected(self):
        # every preset used to divide by 1 - 1.0 = 0 here
        net, ev = tiny_leak_problem()
        for strategy in PRESETS.values():
            with pytest.raises(ValueError, match="'s': leak 1e-17"):
                sample_posteriors(net, ev, strategy, sweeps=200, seed=1)


def test_unknown_evidence_node_raises_one_error_everywhere(vase):
    # with or without clamping, sampled or exact: the same ValueError, not
    # a KeyError from whichever lookup meets the name first
    ev = {"v": True, "zz": True}
    unknown = "evidence references unknown node 'zz'"
    with pytest.raises(ValueError, match=unknown):
        exact_posteriors(vase, ev)
    for strategy in PRESETS.values():
        with pytest.raises(ValueError, match=unknown):
            sample_posteriors(vase, ev, strategy, sweeps=10, seed=1)
        with pytest.raises(ValueError, match=unknown):
            explicit_transition_matrix(vase, ev, strategy)
    with pytest.raises(ValueError, match=unknown):
        classify_flow(vase, ev, clamp_pass(vase, {"v": True}))


# every library entry point that takes evidence, each called on the vase
EVIDENCE_ENTRY_POINTS = [
    *((f"sample_posteriors-{name}",
       lambda net, ev, s=strategy: sample_posteriors(net, ev, s, sweeps=10, seed=1))
      for name, strategy in PRESETS.items()),
    ("run_chain", lambda net, ev: run_chain(net, ev, PRESETS["gibbs"], sweeps=10, seed=1)),
    ("setup_chain", lambda net, ev: setup_chain(net, ev, PRESETS["gibbs"], random.Random(1))),
    ("exact_posteriors", exact_posteriors),
    ("clamp_pass", clamp_pass),
    ("no_clamp", no_clamp),
    ("classify_flow", lambda net, ev: classify_flow(net, ev, clamp_pass(net, {"v": True}))),
    ("explicit_transition_matrix",
     lambda net, ev: explicit_transition_matrix(net, ev, PRESETS["optimized-fwd-bwd"])),
]


@pytest.mark.parametrize("value", ["no", 1, 0.0, None], ids=repr)
@pytest.mark.parametrize("call", [c for _, c in EVIDENCE_ENTRY_POINTS],
                         ids=[name for name, _ in EVIDENCE_ENTRY_POINTS])
def test_non_bool_evidence_value_raises_naming_the_node(vase, call, value):
    # a dict passed to the library meets the rule an evidence file does,
    # so no truthy or falsy stand-in is read as on or off
    with pytest.raises(ValueError, match=r"evidence for 'b' must be a boolean"):
        call(vase, {"v": True, "b": value})
    call(vase, {"v": True, "b": False})
