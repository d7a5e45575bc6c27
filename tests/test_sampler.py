import copy
import itertools
import random
import re

import pytest

from conftest import (
    VASE_BLOCK_DIST,
    VASE_P_B,
    VASE_P_E,
    VASE_P_E_GIVEN_B0,
    VASE_SWAP_GIBBS,
    VASE_SWAP_RATIO,
)
from diagbn.flow import (
    FORWARD_SAMPLED,
    clamp_pass,
    classify_flow,
    no_clamp,
)
from diagbn import sampler
from diagbn.exact import explicit_transition_matrix
from diagbn.network import build_network
from diagbn.sampler import (
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
    clamp_and_flow,
    derive_seed,
    estimate_marginals,
    forward_redraw,
    initialize_state,
    pair_nodes,
    run_chain,
    run_sweep,
    sample_posteriors,
    setup_chain,
    single_site_move,
    swap_pair_move,
)
import oracles
from oracles import (
    MoveProposal,
    conditional_by_enumeration,
    conditional_prob,
    joint_prob,
    metropolis_accept,
    random_dag,
    random_evidence,
    reference_block_pair_move,
    reference_cond_odds,
    reference_flip,
    reference_run_chains,
    reference_single_site_move,
    reference_stale,
    transition_distribution,
)


def make_state(net, ev, strategy_name="gibbs", seed=0):
    return setup_chain(net, ev, PRESETS[strategy_name], random.Random(seed))


def flow_map(net, ev, strategy_name="gibbs"):
    """The flow map the preset's chain runs on."""
    return clamp_and_flow(net, ev, PRESETS[strategy_name])[1]


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
        assert "m2" in cstate.clamp.clamped_false
        cflow = flow_map(clamped, {"s": True}, "gibbs-clamp")
        with pytest.raises(ValueError, match="fixed"):
            conditional_prob(clamped, cstate, "m2", cflow["m2"])

    def test_forward_sampled_reduces_to_cpd(self):
        net = build_network(
            [("a", "model", 0.1), ("b", "sensory", 0.001), ("d", "sensory", 0.05)],
            [("a", "b", 0.9), ("a", "d", 0.5)],
        )
        ev = {"b": True}
        clamp = no_clamp(net, ev)
        flow = classify_flow(net, ev, clamp)
        state = initialize_state(net, ev, clamp, random.Random(0), flow=flow)
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


class TestTransitionDistribution:
    def test_vase_block_distribution(self, vase):
        state = make_state(vase, {"v": True})
        proposal = MoveProposal(
            delta_nodes=("e", "b"),
            candidate_states=((1, 0), (0, 1), (1, 1), (0, 0)),
        )
        probs = transition_distribution(vase, state, proposal)
        want = [
            VASE_BLOCK_DIST[(1, 0)],
            VASE_BLOCK_DIST[(0, 1)],
            VASE_BLOCK_DIST[(1, 1)],
            VASE_BLOCK_DIST[(0, 0)],
        ]
        assert probs == pytest.approx(want, abs=1e-12)

    def test_single_node_reduces_to_blanket_conditional(self, vase):
        state = make_state(vase, {"v": True})
        force(state, "b", 0)
        proposal = MoveProposal(delta_nodes=("e",), candidate_states=((1,), (0,)))
        probs = transition_distribution(vase, state, proposal)
        assert probs[0] == pytest.approx(VASE_P_E_GIVEN_B0, abs=1e-12)
        assert sum(probs) == pytest.approx(1.0, abs=1e-15)

    def test_equal_weights_symmetric(self):
        net = build_network([("a", "model", 0.5), ("b", "model", 0.5)], [])
        state = make_state(net, {})
        proposal = MoveProposal(delta_nodes=("a",), candidate_states=((1,), (0,)))
        probs = transition_distribution(net, state, proposal)
        assert probs == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_matches_restricted_joint_ratio_on_random_nets(self):
        rng = random.Random(33)
        for _ in range(30):
            nodes, edges = random_dag(rng, rng.randint(3, 12))
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net, max_nodes=3)
            state = make_state(net, ev, "gibbs", seed=2)
            free = state_free_ids(state)
            if len(free) < 2:
                continue
            a, b = rng.sample(free, 2)
            cands = tuple(itertools.product((0, 1), repeat=2))
            proposal = MoveProposal(delta_nodes=(a, b), candidate_states=cands)
            probs = transition_distribution(net, state, proposal)
            joints = []
            for va, vb in cands:
                values = {nid: bool(state.x[net.index[nid]]) for nid in net.ids}
                values[a] = bool(va)
                values[b] = bool(vb)
                joints.append(joint_prob(net, values))
            total = sum(joints)
            for got, jw in zip(probs, joints):
                assert got == pytest.approx(jw / total, abs=1e-12)

    def test_rejects_duplicate_candidates(self, vase):
        state = make_state(vase, {"v": True})
        proposal = MoveProposal(delta_nodes=("e",), candidate_states=((1,), (1,)))
        with pytest.raises(ValueError, match="distinct"):
            transition_distribution(vase, state, proposal)

    def test_rejects_missing_current_assignment(self, vase):
        state = make_state(vase, {"v": True})
        cur = state.x[vase.index["e"]]
        proposal = MoveProposal(delta_nodes=("e",), candidate_states=((1 - cur,),))
        with pytest.raises(ValueError, match="current"):
            transition_distribution(vase, state, proposal)

    def test_rejects_metropolis_rule(self, vase):
        state = make_state(vase, {"v": True})
        proposal = MoveProposal(
            delta_nodes=("e",), candidate_states=((1,), (0,)), rule=METROPOLIS
        )
        with pytest.raises(ValueError, match="Gibbs"):
            transition_distribution(vase, state, proposal)


class TestMetropolisAccept:
    def test_ratio_above_one_always_accepts(self):
        rng = random.Random(1)
        assert all(metropolis_accept(1.0, VASE_SWAP_RATIO, rng) for _ in range(1000))

    def test_reverse_ratio_statistics(self):
        rng = random.Random(2)
        want = 1.0 / VASE_SWAP_RATIO
        n = 20_000
        hits = sum(metropolis_accept(VASE_SWAP_RATIO, 1.0, rng) for _ in range(n))
        assert hits / n == pytest.approx(want, abs=0.02)

    def test_equal_weights_accept(self):
        rng = random.Random(3)
        assert all(metropolis_accept(0.5, 0.5, rng) for _ in range(100))

    def test_vanishing_ratio_never_accepts(self):
        rng = random.Random(4)
        assert not any(metropolis_accept(1.0, 1e-12, rng) for _ in range(10_000))

    def test_nonpositive_weight_rejected(self):
        rng = random.Random(5)
        with pytest.raises(ValueError):
            metropolis_accept(0.0, 0.5, rng)
        with pytest.raises(ValueError):
            metropolis_accept(0.5, 0.0, rng)


class TestSingleSiteMove:
    def test_long_run_frequency_matches_conditional(self, vase):
        state = make_state(vase, {"v": True, "b": False})
        j = vase.index["e"]
        hits = 0
        n = 100_000
        for _ in range(n):
            single_site_move(state, j, GIBBS)
            hits += state.x[j]
        assert hits / n == pytest.approx(VASE_P_E_GIVEN_B0, abs=0.01)

    def test_scoring_is_rao_blackwellized(self, vase):
        ev = {"v": True, "b": False}
        state = make_state(vase, ev)
        j = vase.index["e"]
        for _ in range(10):
            single_site_move(state, j, GIBBS)
        est = estimate_marginals(vase, ev, state.clamp, state.acc)
        assert est["e"] == pytest.approx(VASE_P_E_GIVEN_B0, abs=1e-12)
        assert state.acc.counts[j] == 10

    def test_metropolis_matches_gibbs_distribution(self, vase):
        state = make_state(vase, {"v": True, "b": False})
        j = vase.index["e"]
        hits = 0
        n = 100_000
        for _ in range(n):
            single_site_move(state, j, METROPOLIS)
            hits += state.x[j]
        assert hits / n == pytest.approx(VASE_P_E_GIVEN_B0, abs=0.01)

    def test_move_charges_cost(self, vase):
        state = make_state(vase, {"v": True})
        before = state.cost
        single_site_move(state, vase.index["e"], GIBBS)
        assert state.cost > before


class TestBlockPairMove:
    def test_long_run_frequencies(self, vase):
        state = make_state(vase, {"v": True})
        je, jb = vase.index["e"], vase.index["b"]
        counts = {k: 0 for k in VASE_BLOCK_DIST}
        n = 100_000
        for _ in range(n):
            block_pair_move(state, je, jb, GIBBS)
            counts[(state.x[je], state.x[jb])] += 1
        for key, want in VASE_BLOCK_DIST.items():
            assert counts[key] / n == pytest.approx(want, abs=0.01)

    def test_scoring_matches_exact_posterior(self, vase):
        ev = {"v": True}
        state = make_state(vase, ev)
        je, jb = vase.index["e"], vase.index["b"]
        for _ in range(50):
            block_pair_move(state, je, jb, GIBBS)
        est = estimate_marginals(vase, ev, state.clamp, state.acc)
        assert est["e"] == pytest.approx(VASE_P_E, abs=1e-12)
        assert est["b"] == pytest.approx(VASE_P_B, abs=1e-12)

    def test_independent_pair_product_of_priors(self):
        net = build_network([("a", "model", 0.3), ("b", "model", 0.7)], [])
        state = make_state(net, {})
        ja, jb = net.index["a"], net.index["b"]
        counts = {k: 0 for k in itertools.product((0, 1), repeat=2)}
        n = 60_000
        for _ in range(n):
            block_pair_move(state, ja, jb, GIBBS)
            counts[(state.x[ja], state.x[jb])] += 1
        for (va, vb), c in counts.items():
            want = (0.3 if va else 0.7) * (0.7 if vb else 0.3)
            assert c / n == pytest.approx(want, abs=0.012)

    def test_metropolis_long_run_frequencies(self, vase):
        state = make_state(vase, {"v": True})
        je, jb = vase.index["e"], vase.index["b"]
        counts = {k: 0 for k in VASE_BLOCK_DIST}
        n = 200_000
        for _ in range(n):
            block_pair_move(state, je, jb, METROPOLIS)
            counts[(state.x[je], state.x[jb])] += 1
        for key, want in VASE_BLOCK_DIST.items():
            assert counts[key] / n == pytest.approx(want, abs=0.01)


class TestBlockMoveMatchesReference:
    """The straight-line block move against the move as first written."""

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
            for name in ("block-spouses-cover", "gibbs-flow"):
                state = make_state(net, ev, name, seed=trial)
                if len(state.diagnostic) < 2:
                    continue
                ref = copy.deepcopy(state)
                for step in range(30):
                    a, b = rng.sample(state.diagnostic, 2)
                    block_pair_move(state, a, b, rule)
                    reference_block_pair_move(ref, a, b, rule)
                    where = (trial, name, step)
                    assert state.x == ref.x, where
                    assert state.surv == ref.surv, where
                    assert state.acc.sums == ref.acc.sums, where
                    assert state.acc.counts == ref.acc.counts, where
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
                        run_sweep(state, strategy, 1)
                    else:
                        _single_site_sweeps(state, rule, length)
                    for _ in range(length):
                        order = list(ref.diagnostic)
                        ref.rng.shuffle(order)
                        for n in order:
                            reference_single_site_move(ref, n, rule)
                        for n in ref.topo_forward:
                            forward_redraw(ref, n)
                        visits += len(order)
                    sweep += length
                    assert state.sweep_idx == sweep
                    where = (trial, flow_aware, sweep)
                    assert state.x == ref.x, where
                    assert state.surv == ref.surv, where
                    for n, (got, want) in enumerate(zip(state.odds_cache, ref.odds_cache)):
                        if got is not None and want is not None:
                            assert got == want, where + (n,)
                            live += 1
                    assert state.acc.sums == ref.acc.sums, where
                    assert state.acc.counts == ref.acc.counts, where
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

        def tallied(state, strategy, a, b, _event=oracles.reference_pair_event):
            gate = state.pair_plan.gates.get((a, b))
            if gate is None or any(state.x[c] for c in gate):
                tally["open"] += 1
                if strategy.pair_move == "swap":
                    coin = random.Random()
                    coin.setstate(state.rng.getstate())
                    if coin.random() < SWAP_FRACTION:
                        tally["swap"] += 1
                        tally["identity"] += state.x[a] == state.x[b]
                    else:
                        tally["stay"] += 1
            else:
                tally["shut"] += 1
            _event(state, strategy, a, b)

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
                    run_sweep(state, strategy, length)
                    for _ in range(length):
                        oracles.reference_pair_sweep(ref, strategy)
                    sweep += length
                    where = (trial, strategy.name, sweep)
                    assert state.sweep_idx == ref.sweep_idx == sweep, where
                    assert state.x == ref.x, where
                    assert state.surv == ref.surv, where
                    assert state.odds_cache == ref.odds_cache, where
                    live += sum(hit is not None for hit in state.odds_cache)
                    assert state.acc.sums == ref.acc.sums, where
                    assert state.acc.counts == ref.acc.counts, where
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
        state = make_state(vase, {"v": True})
        je, jb = vase.index["e"], vase.index["b"]
        n = 20_000
        moved = 0
        for _ in range(n):
            force(state, "e", 1)
            force(state, "b", 0)
            swap_pair_move(state, je, jb, GIBBS)
            moved += state.x[jb]
        assert moved / n == pytest.approx(VASE_SWAP_GIBBS, abs=0.01)

    def test_metropolis_uphill_always_moves(self, vase):
        state = make_state(vase, {"v": True})
        je, jb = vase.index["e"], vase.index["b"]
        for _ in range(200):
            force(state, "e", 1)
            force(state, "b", 0)
            swap_pair_move(state, je, jb, METROPOLIS)
            assert (state.x[je], state.x[jb]) == (0, 1)

    def test_metropolis_downhill_statistics(self, vase):
        state = make_state(vase, {"v": True})
        je, jb = vase.index["e"], vase.index["b"]
        n = 20_000
        moved = 0
        for _ in range(n):
            force(state, "e", 0)
            force(state, "b", 1)
            swap_pair_move(state, je, jb, METROPOLIS)
            moved += state.x[je]
        assert moved / n == pytest.approx(1.0 / VASE_SWAP_RATIO, abs=0.01)

    def test_equal_values_is_identity_but_scored(self, vase):
        state = make_state(vase, {"v": True})
        je, jb = vase.index["e"], vase.index["b"]
        force(state, "e", 0)
        force(state, "b", 0)
        before = state.acc.counts[je]
        swap_pair_move(state, je, jb, GIBBS)
        assert (state.x[je], state.x[jb]) == (0, 0)
        assert state.acc.counts[je] == before + 1

    def test_swap_preserves_true_count(self, vase):
        state = make_state(vase, {"v": True})
        je, jb = vase.index["e"], vase.index["b"]
        for _ in range(100):
            before = state.x[je] + state.x[jb]
            swap_pair_move(state, je, jb, GIBBS)
            assert state.x[je] + state.x[jb] == before

    def test_swap_credits_sum_to_true_count(self, vase):
        # with one true cause between the pair, the two credits sum to one
        state = make_state(vase, {"v": True})
        je, jb = vase.index["e"], vase.index["b"]
        force(state, "e", 1)
        force(state, "b", 0)
        swap_pair_move(state, je, jb, GIBBS)
        assert state.acc.sums[je] + state.acc.sums[jb] == pytest.approx(1.0, abs=1e-12)


class TestPairing:
    def test_vase_cover_pairs_the_spouses(self, vase):
        state = make_state(vase, {"v": True}, "swap-spouses-cover")
        pairs, singles = pair_nodes(state, PRESETS["swap-spouses-cover"])
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
        pairs, singles = pair_nodes(state, PRESETS["swap-spouses-cover"])
        assert len(pairs) == 1 and len(singles) == 1

    def test_cover_requires_positive_evidence(self):
        net = build_network(
            [("a", "model", 0.1), ("b", "model", 0.1), ("s", "sensory", 0.01)],
            [("a", "s", 0.5), ("b", "s", 0.5)],
        )
        state = make_state(net, {"s": False}, "swap-spouses-cover")
        pairs, singles = pair_nodes(state, PRESETS["swap-spouses-cover"])
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

        def recorded(st, a, b, rule, _swap=sampler.swap_pair_move):
            swaps.append({a, b})
            _swap(st, a, b, rule)

        monkeypatch.setattr(sampler, "swap_pair_move", recorded)
        swapped = exchanged = 0
        for m in (0, 1):
            for k in range(40):
                force(state, "m", m)
                force(state, "a", k % 2)
                force(state, "b", k // 2 % 2)
                pairs, singles = pair_nodes(state, strategy)
                assert len(pairs) == 1 and set(pairs[0]) == {ja, jb}
                assert singles == [net.index["m"]]
                state.sweep_idx = 0
                state.rng.drawn = []
                swaps.clear()
                counts = list(state.acc.counts)
                run_sweep(state, strategy, 1)
                assert [now - was for now, was in zip(state.acc.counts, counts)] == [1, 1, 1, 0]
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
        strategy = PRESETS["swap-spouses-child-true"]
        state = make_state(net, {"s": True, "t": False}, "swap-spouses-child-true")
        pairs, singles = pair_nodes(state, strategy)
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
            pairs, singles = pair_nodes(state, PRESETS["optimized-random"])
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
            pairs, singles = pair_nodes(state, strategy)
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

    def test_pairing_reads_no_chain_value(self):
        # two copies of a chain with one rng state and different free
        # values pair alike and draw alike, plan built or not
        assert len(PAIR_PRESETS) == 6
        rng = random.Random(2013)
        formed = 0
        for trial in range(40):
            nodes, edges = random_dag(rng, rng.randint(3, 14), edge_prob=0.4)
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net, max_nodes=3)
            for name in PAIR_PRESETS:
                strategy = PRESETS[name]
                state = make_state(net, ev, name, seed=trial)
                other = copy.deepcopy(state)
                for j in other.free:
                    other.flip(j)
                for call in range(6):
                    got = pair_nodes(state, strategy)
                    assert got == pair_nodes(other, strategy), (trial, name, call)
                    assert state.rng.getstate() == other.rng.getstate(), (trial, name, call)
                    formed += len(got[0])
                    for chain in (state, other):
                        for j in chain.free:
                            if rng.random() < 0.5:
                                chain.flip(j)
        assert formed > 0

    def test_oracle_has_a_kernel_for_every_pair_formed(self):
        rng = random.Random(2014)
        formed = 0
        for trial in range(40):
            nodes, edges = random_dag(rng, rng.randint(3, 12), edge_prob=0.4)
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net, max_nodes=3)
            for name in PAIR_PRESETS:
                strategy = PRESETS[name]
                labels = {label for label, _ in explicit_transition_matrix(net, ev, strategy).moves}
                state = make_state(net, ev, name, seed=trial)
                for call in range(6):
                    for a, b in pair_nodes(state, strategy)[0]:
                        ids = (net.ids[a], net.ids[b])
                        assert {(strategy.pair_move,) + ids, (strategy.pair_move,) + ids[::-1]} & labels, (
                            trial, name, call, ids)
                        formed += 1
                    for _ in range(2):
                        if state.free:
                            state.flip(rng.choice(state.free))
        assert formed > 0

    def test_plan_rebuilt_for_another_strategy(self):
        net = build_network(
            [
                ("a", "model", 0.1),
                ("b", "model", 0.1),
                ("m", "model", 0.1),
                ("s", "sensory", 0.01),
            ],
            [("a", "m", 0.5), ("b", "m", 0.5), ("m", "s", 0.9)],
        )
        cover, child_true = PRESETS["swap-spouses-cover"], PRESETS["swap-spouses-child-true"]
        ja, jb, jm = (net.index[n] for n in "abm")
        state = make_state(net, {"s": True}, "swap-spouses-cover")
        force(state, "m", 0)
        assert len(pair_nodes(state, cover)[0]) == 1
        plan = state.pair_plan
        pair_nodes(state, cover)
        assert state.pair_plan is plan and plan.gates == {}
        # m is off: both gates pair a and b through it, and only the
        # child-true plan gates the pair's moves on m
        assert len(pair_nodes(state, child_true)[0]) == 1
        assert state.pair_plan is not plan and state.pair_plan.strategy is child_true
        assert state.pair_plan.gates == {(ja, jb): [jm], (jb, ja): [jm]}
        assert len(pair_nodes(state, cover)[0]) == 1
        assert state.pair_plan.strategy is cover


class TestSweeps:
    def test_every_free_node_scored_each_sweep(self):
        rng = random.Random(51)
        for trial in range(12):
            nodes, edges = random_dag(rng, rng.randint(3, 10))
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net, max_nodes=2)
            for name, strategy in PRESETS.items():
                state = make_state(net, ev, name, seed=trial)
                if not strategy.flow_aware:
                    # the blanket map forward-samples nothing
                    assert state.diagnostic == state.free, name
                    assert state.topo_forward == [], name
                n_sweeps = 6
                for _ in range(n_sweeps):
                    run_sweep(state, strategy, 1)
                for j in state.free:
                    floor = n_sweeps
                    if (
                        strategy.move_policy == OPTIMIZED_FWD_BWD
                        and state.forward_sampled[j]
                    ):
                        floor = n_sweeps // 2  # forward passes only
                    assert state.acc.counts[j] >= floor, (name, net.ids[j])

    def test_gibbs_converges_on_vase(self, vase):
        est = sample_posteriors(vase, {"v": True}, PRESETS["gibbs"], sweeps=10_000, seed=7)
        assert est["e"] == pytest.approx(VASE_P_E, abs=0.02)
        assert est["b"] == pytest.approx(VASE_P_B, abs=0.02)

    def test_swap_chain_still_reaches_all_states(self, vase):
        # swap moves alone preserve the number of true causes; the mixed-in
        # single-site moves must restore access to (0,0) and (1,1)
        strategy = PRESETS["swap-spouses-cover"]
        state = make_state(vase, {"v": True}, "swap-spouses-cover", seed=3)
        force(state, "e", 0)
        force(state, "b", 0)
        seen = set()
        for _ in range(2000):
            run_sweep(state, strategy, 1)
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
        strategy = PRESETS["optimized-fwd-bwd"]
        state = make_state(net, {"s": True}, "optimized-fwd-bwd", seed=5)
        for _ in range(40):
            run_sweep(state, strategy, 1)
        # d is forward-sampled: visited only on the 20 forward passes
        assert state.acc.counts[net.index["d"]] == 20
        # a is diagnostic-sampled: visited on every pass
        assert state.acc.counts[net.index["a"]] == 40

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


def scope_readers(state, c):
    """The diagnostic-sampled nodes with c as a scope child."""
    return {d for d in state.diagnostic if c in state.scope_children[d]}


def expected_stale(state, k):
    """The diagnostic-sampled nodes whose conditional reads a value or a
    survival that flipping k changes, in the current state: every node with
    k as a scope child, k's children, and every node with an on child of k
    as a scope child.  A conditional reads the survival of a scope child
    only while that child is on, and k's own value only through them."""
    stale = scope_readers(state, k) | set(state.net.children[k])
    for c in state.net.children[k]:
        if state.x[c]:
            stale |= scope_readers(state, c)
    return stale & set(state.diagnostic)


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
                for k in range(len(net.ids)):
                    where = (trial, name, k)
                    assert len(set(state.stale[k])) == len(state.stale[k]), where
                    children = set(net.children[k])
                    assert set(state.stale[k]) == scope_readers(state, k) | (
                        children & set(state.diagnostic)), where
                    via = dict(state.stale_via[k])
                    assert len(via) == len(state.stale_via[k]), where
                    assert via == {
                        c: readers for c in net.children[k]
                        if (readers := sorted(scope_readers(state, c)))
                    }, where
                    on = set(state.stale[k]).union(
                        *(readers for c, readers in state.stale_via[k] if state.x[c]))
                    assert on == expected_stale(state, k), where

    def test_pair_moves_clear_by_the_flip_rule(self):
        # a pair move toggles its way through its joint values and then
        # clears, at the final values, what a flip of each of its nodes
        # would; `kept` counts entries it keeps that the value-blind lists
        # of both nodes would clear, so the test sees the rule read values
        rng = random.Random(65)
        pair_presets = [name for name, spec in PRESETS.items() if spec.pair_move]
        moves = kept = 0
        for trial in range(40):
            nodes, edges = random_dag(rng, rng.randint(4, 10), edge_prob=0.4)
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net, max_nodes=3, p_true=1.0)
            for name, rule in itertools.product(pair_presets, (GIBBS, METROPOLIS)):
                state = make_state(net, ev, name, seed=trial)
                if len(state.diagnostic) < 2:
                    continue
                blind = reference_stale(state)
                move = swap_pair_move if PRESETS[name].pair_move == "swap" else block_pair_move
                for step in range(10):
                    a, b = rng.sample(state.diagnostic, 2)
                    fill_odds_cache(state)
                    identity = move is swap_pair_move and state.x[a] == state.x[b]
                    move(state, a, b, rule)
                    where = (trial, name, rule, step, a, b)
                    dropped = {d for d in state.diagnostic if state.odds_cache[d] is None}
                    if identity:
                        assert not dropped, where
                        continue
                    assert dropped == expected_stale(state, a) | expected_stale(state, b), where
                    assert_odds_cache_coherent(state)
                    kept += len((set(blind[a]) | set(blind[b])) - dropped)
                    moves += 1
        assert moves > 1000
        assert kept > 100

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
            for name, strategy in PRESETS.items():
                state = make_state(net, ev, name, seed=trial)
                for _ in range(4):
                    run_sweep(state, strategy, 1)
                    live[0] += assert_odds_cache_coherent(state)
        assert live[0] > 0  # the check saw cache hits to compare

    def test_external_flip_invalidates_its_stale_list(self):
        rng = random.Random(63)
        for trial in range(20):
            nodes, edges = random_dag(rng, rng.randint(3, 9))
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net, max_nodes=2)
            state = make_state(net, ev, "gibbs", seed=trial)
            for j in state.free:
                fill_odds_cache(state)
                state.flip(j)
                dropped = {d for d in state.diagnostic if state.odds_cache[d] is None}
                assert dropped == expected_stale(state, j), (trial, j)
                assert_odds_cache_coherent(state)

    def test_coherent_where_the_rule_reads_values(self):
        # true findings turn their parents on, and on parents turn free
        # children on, so both branches of the value-dependent clause occur:
        # a reader of an off child of the flipped node stays live, and a
        # reader of an on child that `stale[k]` leaves out is cleared
        rng = random.Random(66)
        kept = cleared = 0
        for trial in range(40):
            nodes, edges = random_dag(rng, rng.randint(4, 10), edge_prob=0.4)
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net, max_nodes=3, p_true=1.0)
            for name in ("gibbs", "gibbs-flow"):
                state = make_state(net, ev, name, seed=trial)
                for _ in range(20):
                    if not state.free:
                        break
                    fill_odds_cache(state)
                    k = rng.choice(state.free)
                    blind = set(state.stale[k])
                    off = on = set()
                    for c, readers in state.stale_via[k]:
                        if state.x[c]:
                            on = on | set(readers)
                        else:
                            off = off | set(readers)
                    state.flip(k)
                    assert_odds_cache_coherent(state)
                    live = {d for d in state.diagnostic if state.odds_cache[d] is not None}
                    assert not live & (blind | on), (trial, name, k)
                    kept += len((off - blind - on) & live)
                    cleared += len(on - blind)
        assert kept > 100
        assert cleared > 100

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
        state = initialize_state(net, ev, clamp, random.Random(0), flow=flow)
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
            state = initialize_state(net, ev, clamp, random.Random(1), flow=flow)
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
        for trial, (net, ev) in enumerate(_chain_problems(vase)):
            for burn_in, checkpoints in schedules:
                where = (trial, burn_in)
                got = run_chain(net, ev, strategy, 20, trial, burn_in, checkpoints)
                [(ref, marks, _)] = reference_run_chains(
                    net, ev, strategy, 20, [trial], burn_in, checkpoints)
                assert got.checkpoint_estimates == marks, where
                assert got.cost == ref.cost, where
                merged = sample_posteriors(net, ev, strategy, 20, trial, burn_in, chains=2)
                seeds = [derive_seed(trial, "chain", k) for k in range(2)]
                runs = reference_run_chains(net, ev, strategy, 20, seeds, burn_in)
                acc = runs[0][0].acc
                acc.merge(runs[1][0].acc)
                assert merged == estimate_marginals(net, ev, runs[0][0].clamp, acc), where

    @pytest.mark.parametrize("name", ["gibbs", "block-spouses-cover"])
    def test_survivals_refresh_between_stretches(self, name):
        # three causes of one observed effect: the effect's survival cache
        # drifts in its last bits over 20000 sweeps, so only a refresh after
        # sweep 20000 leaves it equal to the reference's
        net = build_network(
            [("a", "model", 0.13), ("b", "model", 0.21), ("c", "model", 0.17),
             ("s", "sensory", 0.07)],
            [("a", "s", 0.63), ("b", "s", 0.71), ("c", "s", 0.47)],
        )
        strategy = PRESETS[name]
        checkpoints = (19999, 20000, 20001, 20003)
        [(state, marks, _)] = _run_chains(net, {"s": True}, strategy, 20003, [5], 0, checkpoints)
        [(ref, ref_marks, _)] = reference_run_chains(
            net, {"s": True}, strategy, 20003, [5], 0, checkpoints)
        assert marks == ref_marks
        assert state.surv == ref.surv
        assert state.acc == ref.acc
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
        clamp = clamp_pass(net, ev)
        assert "m2" in clamp.clamped_false
        state = initialize_state(
            net, ev, clamp, random.Random(0), classify_flow(net, ev, clamp, blanket=True)
        )
        assert state.x[net.index["s1"]] == 1
        assert state.x[net.index["s2"]] == 0
        assert state.x[net.index["m2"]] == 0
        assert net.index["m2"] not in state.free

    def test_same_seed_same_state(self, vase):
        ev = {"v": True}
        clamp = no_clamp(vase, ev)
        flow = classify_flow(vase, ev, clamp, blanket=True)
        a = initialize_state(vase, ev, clamp, random.Random(7), flow)
        b = initialize_state(vase, ev, clamp, random.Random(7), flow)
        assert a.x == b.x

    def test_tiny_leaks_start_nearly_all_false(self):
        net = build_network([(f"m{i}", "model", 0.001) for i in range(10)], [])
        trues = 0
        clamp = no_clamp(net, {})
        flow = classify_flow(net, {}, clamp, blanket=True)
        for seed in range(200):
            state = initialize_state(net, {}, clamp, random.Random(seed), flow)
            trues += sum(state.x)
        assert trues < 20  # expectation is 200 * 10 * 0.001 = 2

    def test_survival_caches_start_consistent(self, vase):
        state = make_state(vase, {"v": True}, seed=13)
        want = list(state.surv)
        state.refresh_survivals()
        assert state.surv == pytest.approx(want, abs=1e-15)


class TestAccumulator:
    def test_basic_average(self, vase):
        ev = {"v": True}
        state = make_state(vase, ev)
        j = vase.index["e"]
        state.acc.sums[j] = 3.0
        state.acc.counts[j] = 10
        est = estimate_marginals(vase, ev, state.clamp, state.acc)
        assert est["e"] == pytest.approx(0.3)
        assert est["v"] == 1.0

    def test_clamped_nodes_report_zero(self):
        net = build_network(
            [("m1", "model", 0.1), ("m2", "model", 0.1), ("s1", "sensory", 0.01)],
            [("m1", "s1", 0.8)],
        )
        ev = {"s1": True}
        clamp = clamp_pass(net, ev)
        assert "m2" in clamp.clamped_false
        state = initialize_state(
            net, ev, clamp, random.Random(0), classify_flow(net, ev, clamp, blanket=True)
        )
        est = estimate_marginals(net, ev, clamp, state.acc)
        assert est["m2"] == 0.0
        assert est["s1"] == 1.0
