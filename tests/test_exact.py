import math
import random

import numpy as np
import pytest

from conftest import (
    VASE_BLOCK_DIST,
    VASE_P_B,
    VASE_P_E,
    VASE_P_E_GIVEN_B0,
)
from diagbn.exact import (
    EnumerationCapError,
    exact_posteriors,
    explicit_transition_matrix,
)
from diagbn.network import build_network
from diagbn.sampler import PRESETS
from oracles import (
    d_separated,
    d_separated_by_trails,
    joint_prob,
    markov_blanket,
    posteriors_by_enumeration,
    posteriors_by_fractions,
    random_dag,
    random_evidence,
    reference_apply_sweep,
    reference_exact_posteriors,
    reference_transition_matrix,
)


class TestExactPosteriors:
    def test_vase_frozen_values(self, vase):
        post = exact_posteriors(vase, {"v": True})
        assert post["e"] == pytest.approx(VASE_P_E, abs=1e-12)
        assert post["b"] == pytest.approx(VASE_P_B, abs=1e-12)
        assert post["v"] == 1.0

    def test_single_node_prior(self):
        net = build_network([("a", "model", 0.01)], [])
        assert exact_posteriors(net, {})["a"] == pytest.approx(0.01, abs=1e-15)

    def test_full_evidence_gives_indicator(self, vase):
        post = exact_posteriors(vase, {"e": True, "b": False, "v": True})
        assert post == {"e": 1.0, "b": 0.0, "v": 1.0}

    def test_cap_enforced(self):
        rng = random.Random(1)
        nodes, edges = random_dag(rng, 14)
        net = build_network(nodes, edges)
        with pytest.raises(EnumerationCapError):
            exact_posteriors(net, {}, cap=12)
        exact_posteriors(net, {}, cap=14)

    def test_impossible_evidence_rejected(self):
        # zero leak and no parents: the node can never be true
        net = build_network([("a", "model", 0.0)], [])
        with pytest.raises(ValueError, match="zero probability"):
            exact_posteriors(net, {"a": True})

    def test_matches_naive_enumeration(self):
        rng = random.Random(8)
        for _ in range(30):
            nodes, edges = random_dag(rng, rng.randint(2, 9))
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net, max_nodes=3)
            try:
                want = posteriors_by_enumeration(net, ev)
            except ZeroDivisionError:
                continue  # inconsistent evidence; covered elsewhere
            got = exact_posteriors(net, ev)
            for nid in net.ids:
                assert got[nid] == pytest.approx(want[nid], abs=1e-10)

    def test_zero_probability_regions_handled(self):
        # deterministic link (p=1) and zero leak create impossible states the
        # permissive profile allows; enumeration must skip them exactly
        net = build_network(
            [("a", "model", 0.5), ("b", "model", 0.0), ("c", "model", 0.0)],
            [("a", "b", 1.0), ("b", "c", 1.0)],
        )
        post = exact_posteriors(net, {"c": False})
        # c=false forces b=false (p=1 link), which forces a=false
        assert post["a"] == pytest.approx(0.0, abs=1e-12)
        post2 = exact_posteriors(net, {"b": True})
        assert post2["a"] == pytest.approx(1.0, abs=1e-12)
        assert post2["c"] == pytest.approx(1.0, abs=1e-12)

    def test_matches_rational_enumeration(self, vase):
        rng = random.Random(21)
        nets = [(vase, {"v": True})]
        for _ in range(20):
            nodes, edges = random_dag(rng, rng.randint(2, 8))
            net = build_network(nodes, edges)
            nets.append((net, random_evidence(rng, net, max_nodes=3)))
        for net, ev in nets:
            want = posteriors_by_fractions(net, ev)
            got = exact_posteriors(net, ev)
            for nid in net.ids:
                assert abs(got[nid] - want[nid]) <= 1e-14, (nid, got[nid], want[nid])

    def test_matches_reference_across_chunks(self):
        # 2^16 states: the enumeration spans more than one factor table
        rng = random.Random(16)
        nodes, edges = random_dag(rng, 17, edge_prob=0.25)
        net = build_network(nodes, edges)
        ev = {"n16": True}
        got = exact_posteriors(net, ev)
        want = reference_exact_posteriors(net, ev)
        assert set(got) == set(want)
        for nid in net.ids:
            assert got[nid] == pytest.approx(want[nid], abs=1e-10)

    def test_agrees_with_rejection_sampling(self, vase):
        rng = random.Random(5)
        hits = {"e": 0, "b": 0}
        kept = 0
        for _ in range(200_000):
            x = {}
            for nid in ("e", "b"):
                x[nid] = rng.random() < vase.leak[vase.index[nid]]
            p_v = 1.0 - (1.0 - 0.001) * (0.1 if x["e"] else 1.0) * (0.2 if x["b"] else 1.0)
            if rng.random() < p_v:
                kept += 1
                for nid in ("e", "b"):
                    hits[nid] += x[nid]
        assert kept > 1000
        for nid, want in (("e", VASE_P_E), ("b", VASE_P_B)):
            freq = hits[nid] / kept
            se = math.sqrt(want * (1 - want) / kept)
            assert abs(freq - want) < 3.5 * se


class TestDSeparated:
    def test_blocked_chain(self):
        net = build_network(
            [("a", "model", 0.1), ("b", "model", 0.1), ("c", "model", 0.1)],
            [("a", "b", 0.5), ("b", "c", 0.5)],
        )
        assert d_separated(net, "a", ["b"], ["c"])
        assert not d_separated(net, "a", [], ["c"])

    def test_collider(self, vase):
        assert d_separated(vase, "e", [], ["b"])
        assert not d_separated(vase, "e", ["v"], ["b"])

    def test_collider_descendant_opens(self):
        net = build_network(
            [
                ("e", "model", 0.1),
                ("b", "model", 0.1),
                ("v", "model", 0.1),
                ("w", "sensory", 0.05),
            ],
            [("e", "v", 0.5), ("b", "v", 0.5), ("v", "w", 0.5)],
        )
        assert not d_separated(net, "e", ["w"], ["b"])

    def test_side_sink_blocked_by_parent(self):
        net = build_network(
            [
                ("a", "model", 0.1),
                ("b", "model", 0.1),
                ("c", "sensory", 0.05),
                ("d", "sensory", 0.05),
            ],
            [("a", "b", 0.5), ("b", "c", 0.5), ("b", "d", 0.5)],
        )
        assert d_separated(net, "d", ["b"], ["c"])

    def test_target_inside_conditioning_set_is_separated(self, vase):
        assert d_separated(vase, "e", ["v"], ["v"])

    def test_node_cannot_condition_on_itself(self, vase):
        with pytest.raises(ValueError):
            d_separated(vase, "e", ["e"], ["b"])

    def test_unknown_node_rejected(self, vase):
        with pytest.raises(ValueError, match="unknown node"):
            d_separated(vase, "zz", [], ["v"])
        with pytest.raises(ValueError, match="unknown node"):
            d_separated(vase, "e", ["zz"], ["v"])
        with pytest.raises(ValueError, match="unknown node"):
            d_separated(vase, "e", ["b"], ["zz"])

    def test_markov_blanket_always_separates(self):
        rng = random.Random(13)
        for _ in range(30):
            nodes, edges = random_dag(rng, rng.randint(3, 12))
            net = build_network(nodes, edges)
            for nid in net.ids:
                blanket = markov_blanket(net, nid)
                rest = [x for x in net.ids if x != nid and x not in blanket]
                if rest:
                    assert d_separated(net, nid, sorted(blanket), rest)

    def test_symmetry(self):
        rng = random.Random(14)
        for _ in range(30):
            nodes, edges = random_dag(rng, rng.randint(3, 10))
            net = build_network(nodes, edges)
            ids = list(net.ids)
            x, w = rng.sample(ids, 2)
            z = [n for n in ids if n not in (x, w) and rng.random() < 0.3]
            assert d_separated(net, x, z, [w]) == d_separated(net, w, z, [x])

    def test_matches_trail_enumeration_oracle(self):
        rng = random.Random(15)
        for _ in range(80):
            nodes, edges = random_dag(rng, rng.randint(3, 9), edge_prob=0.35)
            net = build_network(nodes, edges)
            ids = list(net.ids)
            x = rng.choice(ids)
            others = [n for n in ids if n != x]
            z = [n for n in others if rng.random() < 0.3]
            w = [n for n in others if rng.random() < 0.4]
            want = d_separated_by_trails(net, x, z, w)
            assert d_separated(net, x, z, w) == want, (x, z, w)


class TestTransitionMatrix:
    def test_rows_sum_to_one(self, vase):
        for name, strat in PRESETS.items():
            tm = explicit_transition_matrix(vase, {"v": True}, strat)
            for label, mat in tm.moves:
                sums = np.asarray(mat.sum(axis=1)).ravel()
                assert np.allclose(sums, 1.0, atol=1e-12), (name, label)

    def test_single_site_rows_are_the_conditional(self, vase):
        tm = explicit_transition_matrix(vase, {"v": True}, PRESETS["gibbs"])
        mat = dict(tm.moves)[("single", "e")].toarray()
        k_e = tm.node_order.index("e")
        k_b = tm.node_order.index("b")
        for s, state in enumerate(tm.states):
            if state[k_b] == 0:
                on = [t for t, st2 in enumerate(tm.states) if st2[k_e] == 1 and st2[k_b] == 0]
                assert mat[s, on[0]] == pytest.approx(VASE_P_E_GIVEN_B0, abs=1e-12)

    def test_swap_kernel_structure(self, vase):
        tm = explicit_transition_matrix(vase, {"v": True}, PRESETS["swap-spouses-cover"])
        mat = dict(tm.moves)[("swap", "e", "b")].toarray()
        idx = {state: i for i, state in enumerate(tm.states)}
        # equal-value states are fixed points; moves connect only (1,0)<->(0,1)
        for state, i in idx.items():
            if state[0] == state[1]:
                assert mat[i, i] == 1.0
        i10, i01 = idx[(1, 0)], idx[(0, 1)]
        assert mat[i10, i01] > 0 and mat[i01, i10] > 0
        assert mat[i10, idx[(1, 1)]] == 0 and mat[i10, idx[(0, 0)]] == 0

    def test_block_kernel_rows_equal_block_distribution(self, vase):
        tm = explicit_transition_matrix(vase, {"v": True}, PRESETS["block-spouses-cover"])
        mat = dict(tm.moves)[("block", "e", "b")].toarray()
        order = tm.node_order
        assert order == ("e", "b")
        for i in range(len(tm.states)):
            for j, state in enumerate(tm.states):
                want = VASE_BLOCK_DIST[(state[0], state[1])]
                assert mat[i, j] == pytest.approx(want, abs=1e-12)

    def test_gibbs_single_site_stationary(self, vase):
        tm = explicit_transition_matrix(vase, {"v": True}, PRESETS["gibbs"])
        after = tm.apply_sweep(tm.pi)
        assert np.abs(after - tm.pi).max() < 1e-10
        sweep = tm.apply_sweep(np.eye(len(tm.states)))
        assert np.abs(tm.pi @ sweep - tm.pi).max() < 1e-10

    def test_pi_matches_enumeration(self, vase):
        tm = explicit_transition_matrix(vase, {"v": True}, PRESETS["gibbs"])
        post = exact_posteriors(vase, {"v": True})
        for k, nid in enumerate(tm.node_order):
            marg = sum(p for s, p in zip(tm.states, tm.pi) if s[k])
            assert marg == pytest.approx(post[nid], abs=1e-12)

    def test_cap(self):
        rng = random.Random(30)
        nodes, edges = random_dag(rng, 16)
        net = build_network(nodes, edges)
        with pytest.raises(EnumerationCapError):
            explicit_transition_matrix(net, {}, PRESETS["gibbs"])


def assert_same_matrix(got, want):
    assert got.node_order == want.node_order
    assert np.array_equal(got.states, want.states)
    assert np.array_equal(got.pi, want.pi)
    assert got.sweep_stages == want.sweep_stages
    assert [label for label, _ in got.moves] == [label for label, _ in want.moves]
    for (label, a), (_, b) in zip(got.moves, want.moves):
        for part in ("indptr", "indices", "data"):
            x, y = getattr(a, part), getattr(b, part)
            assert x.dtype == y.dtype and np.array_equal(x, y), (label, part)


class TestTransitionMatrixMatchesReference:
    """The factor-table build against the state-by-state build it replaced:
    every state, pi, label, stage and kernel array equal to the bit."""

    @pytest.mark.parametrize("collapse_forward", [False, True])
    def test_bit_identical_on_random_dags(self, vase, collapse_forward):
        rng = random.Random(40)
        nets = [(vase, {"v": True})]
        for _ in range(40):
            nodes, edges = random_dag(rng, rng.randint(3, 9))
            net = build_network(nodes, edges)
            nets.append((net, random_evidence(rng, net, max_nodes=3)))
        for net, ev in nets:
            for strat in PRESETS.values():
                got = explicit_transition_matrix(net, ev, strat, collapse_forward=collapse_forward)
                want = reference_transition_matrix(net, ev, strat, collapse_forward=collapse_forward)
                assert_same_matrix(got, want)

    def test_apply_sweep_matches_reference(self, vase):
        rng = random.Random(41)
        nets = [(vase, {"v": True})]
        for _ in range(20):
            nodes, edges = random_dag(rng, rng.randint(3, 9))
            net = build_network(nodes, edges)
            nets.append((net, random_evidence(rng, net, max_nodes=3)))
        for net, ev in nets:
            for strat in PRESETS.values():
                tm = explicit_transition_matrix(net, ev, strat)
                point = np.zeros(len(tm.states))
                point[rng.randrange(len(tm.states))] = 1.0
                for start in (point, tm.pi):
                    got, want = start, start
                    for _ in range(3):
                        got = tm.apply_sweep(got)
                        want = reference_apply_sweep(tm, want)
                        assert np.array_equal(got, want), strat.name

    def test_zero_weight_conditional_named(self):
        # the permissive network of test_zero_probability_regions_handled:
        # p = 1 links and zero leaks leave some conditionals with no weight
        net = build_network(
            [("a", "model", 0.5), ("b", "model", 0.0), ("c", "model", 0.0)],
            [("a", "b", 1.0), ("b", "c", 1.0)],
        )
        raised = 0
        for ev in ({}, {"c": False}, {"b": True}):
            for strat in PRESETS.values():
                try:
                    want = reference_transition_matrix(net, ev, strat)
                except ZeroDivisionError:
                    raised += 1
                    with pytest.raises(ValueError, match=r"move \(.*\) has a zero-weight conditional"):
                        explicit_transition_matrix(net, ev, strat)
                    continue
                assert_same_matrix(explicit_transition_matrix(net, ev, strat), want)
        assert raised == 16
