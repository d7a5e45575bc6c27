import random

import pytest

from diagbn.exact import exact_posteriors
from diagbn.flow import (
    CLAMPED,
    DIAGNOSTIC_SAMPLED,
    FORWARD_SAMPLED,
    clamp_pass,
    classify_flow,
    evidence_cover,
    no_clamp,
)
from diagbn.network import build_network
from oracles import (
    ancestors,
    d_separated,
    markov_blanket,
    random_dag,
    random_evidence,
    unclamped_by_reachability,
)


def chain_net():
    return build_network(
        [("m1", "model", 0.1), ("m2", "model", 0.1), ("s1", "sensory", 0.05)],
        [("m1", "m2", 0.5), ("m2", "s1", 0.5)],
    )


class TestClampPass:
    def test_chain_all_ancestors_stay(self):
        net = chain_net()
        res = clamp_pass(net, {"s1": True})
        assert res.unclamped == {"m1", "m2"}
        assert res.clamped_false == set()

    def test_disconnected_chain_clamps(self):
        net = build_network(
            [
                ("m1", "model", 0.1),
                ("m2", "model", 0.1),
                ("s1", "sensory", 0.05),
                ("s2", "sensory", 0.05),
            ],
            [("m1", "s1", 0.5), ("m2", "s2", 0.5)],
        )
        res = clamp_pass(net, {"s1": True, "s2": False})
        assert "m2" in res.clamped_false
        assert "m1" in res.unclamped

    def test_diamond_descendant_of_ancestor_stays(self):
        net = build_network(
            [
                ("m1", "model", 0.1),
                ("m2", "model", 0.1),
                ("m3", "model", 0.1),
                ("s1", "sensory", 0.05),
                ("s2", "sensory", 0.05),
            ],
            [
                ("m1", "m2", 0.5),
                ("m1", "m3", 0.5),
                ("m2", "s1", 0.5),
                ("m3", "s1", 0.5),
                ("m3", "s2", 0.5),
            ],
        )
        res = clamp_pass(net, {"s1": True})
        assert res.unclamped == {"m1", "m2", "m3", "s2"}

    def test_no_positive_evidence_clamps_everything_free(self):
        net = chain_net()
        res = clamp_pass(net, {"s1": False})
        assert res.unclamped == set()
        assert res.clamped_false == {"m1", "m2"}

    def test_partition_is_exact(self):
        rng = random.Random(0)
        for _ in range(30):
            nodes, edges = random_dag(rng, rng.randint(2, 12))
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net)
            res = clamp_pass(net, ev)
            assert res.clamped_false | res.unclamped | set(ev) == set(net.ids)
            assert not res.clamped_false & res.unclamped
            assert not res.clamped_false & set(ev)
            assert not res.unclamped & set(ev)

    def test_matches_reachability_oracle_on_random_dags(self):
        rng = random.Random(42)
        for trial in range(100):
            nodes, edges = random_dag(rng, rng.randint(2, 50), edge_prob=rng.uniform(0.05, 0.4))
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net, max_nodes=5)
            res = clamp_pass(net, ev)
            assert res.unclamped == unclamped_by_reachability(net, ev), (trial, ev)

    def test_order_invariance(self):
        rng = random.Random(9)
        for _ in range(20):
            nodes, edges = random_dag(rng, rng.randint(3, 15))
            net = build_network(nodes, edges)
            ev_items = list(random_evidence(rng, net, max_nodes=4).items())
            a = clamp_pass(net, dict(ev_items))
            b = clamp_pass(net, dict(reversed(ev_items)))
            assert a.clamped_false == b.clamped_false
            assert a.unclamped == b.unclamped

    def test_unknown_evidence_node(self):
        net = chain_net()
        with pytest.raises(ValueError, match="ghost"):
            clamp_pass(net, {"ghost": True})

    def test_clamped_posterior_at_most_prior(self):
        rng = random.Random(77)
        checked = 0
        for _ in range(40):
            nodes, edges = random_dag(rng, rng.randint(3, 9))
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net, max_nodes=3)
            res = clamp_pass(net, ev)
            if not res.clamped_false:
                continue
            post = exact_posteriors(net, ev)
            prior = exact_posteriors(net, {})
            for nid in res.clamped_false:
                assert post[nid] <= prior[nid] + 1e-9
                checked += 1
        assert checked > 20


class TestEvidenceCover:
    def test_true_evidence_and_its_ancestors_on_random_dags(self):
        rng = random.Random(23)
        covered = 0
        for trial in range(100):
            nodes, edges = random_dag(rng, rng.randint(2, 40), edge_prob=rng.uniform(0.05, 0.4))
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net, max_nodes=5)
            want = set()
            for nid, value in ev.items():
                if value:
                    want |= {nid} | ancestors(net, nid)
            got = {net.ids[j] for j in evidence_cover(net, ev)}
            assert got == want, (trial, ev)
            covered += len(want) > len([v for v in ev.values() if v])
        assert covered > 30  # most draws cover ancestors beyond the evidence

    def test_false_evidence_covers_nothing(self):
        net = chain_net()
        assert evidence_cover(net, {"s1": False}) == set()
        assert evidence_cover(net, {"m2": True, "s1": False}) == {net.index["m1"], net.index["m2"]}


class TestEvidentialChildren:
    def test_vase_only_child_is_evidence(self, vase):
        clamp = clamp_pass(vase, {"v": True})
        assert classify_flow(vase, {"v": True}, clamp)["e"].evidential_children == ("v",)

    def test_grandchild_evidence_counts(self):
        net = build_network(
            [("a", "model", 0.1), ("b", "model", 0.1), ("c", "sensory", 0.05)],
            [("a", "b", 0.5), ("b", "c", 0.5)],
        )
        ev = {"c": True}
        clamp = clamp_pass(net, ev)
        assert classify_flow(net, ev, clamp)["a"].evidential_children == ("b",)

    def test_unobserved_sink_excluded(self):
        net = build_network(
            [("a", "model", 0.1), ("b", "sensory", 0.05), ("d", "sensory", 0.05)],
            [("a", "b", 0.5), ("a", "d", 0.5)],
        )
        ev = {"b": True}
        clamp = clamp_pass(net, ev)
        assert classify_flow(net, ev, clamp)["a"].evidential_children == ("b",)


class TestClassifyFlow:
    def test_chain_ancestors_diagnostic(self):
        net = chain_net()
        ev = {"s1": True}
        flow = classify_flow(net, ev, clamp_pass(net, ev))
        assert flow["m1"].status == DIAGNOSTIC_SAMPLED
        assert flow["m2"].status == DIAGNOSTIC_SAMPLED

    def test_side_sink_forward_sampled_with_parent_conditioning(self):
        net = build_network(
            [
                ("a", "model", 0.1),
                ("b", "model", 0.1),
                ("c", "sensory", 0.05),
                ("d", "sensory", 0.05),
            ],
            [("a", "b", 0.5), ("b", "c", 0.5), ("b", "d", 0.5)],
        )
        ev = {"c": True}
        flow = classify_flow(net, ev, clamp_pass(net, ev))
        assert flow["d"].status == FORWARD_SAMPLED
        assert flow["d"].conditioning_set == {"b"}
        assert flow["d"].evidential_children == ()

    def test_no_evidence_all_forward(self):
        net = chain_net()
        flow = classify_flow(net, {}, no_clamp(net, {}))
        assert all(info.status == FORWARD_SAMPLED for info in flow.values())

    def test_clamped_nodes_labeled(self):
        net = build_network(
            [("m1", "model", 0.1), ("m2", "model", 0.1), ("s1", "sensory", 0.05)],
            [("m1", "s1", 0.5), ("m2", "s1", 0.5)],
        )
        ev = {"s1": False}
        flow = classify_flow(net, ev, clamp_pass(net, ev))
        assert flow["m1"].status == CLAMPED
        assert flow["m1"].conditioning_set == frozenset()

    def test_conditioning_set_shape(self):
        rng = random.Random(12)
        for _ in range(40):
            nodes, edges = random_dag(rng, rng.randint(3, 12))
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net, max_nodes=3)
            clamp = clamp_pass(net, ev)
            flow = classify_flow(net, ev, clamp)
            for nid, info in flow.items():
                if info.status == CLAMPED:
                    continue
                j = net.index[nid]
                parents = {net.ids[i] for i in net.parents[j]}
                children = {net.ids[c] for c in net.children[j]}
                lam = set(info.evidential_children)
                assert lam <= children
                expected = set(parents) | lam
                for c in lam:
                    expected |= {net.ids[i] for i in net.parents[net.index[c]]}
                expected.discard(nid)
                assert info.conditioning_set == expected
                assert info.conditioning_set <= markov_blanket(net, nid) | parents
                # children outside the evidential set never enter the conditioning set
                assert not (info.conditioning_set & (children - lam))
                if info.status == FORWARD_SAMPLED:
                    assert info.evidential_children == ()
                    assert info.conditioning_set == parents
                else:
                    assert lam

    def test_forward_sampled_iff_d_separated_from_evidence_given_parents(self):
        rng = random.Random(21)
        for _ in range(60):
            nodes, edges = random_dag(rng, rng.randint(3, 20))
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net, max_nodes=4)
            clamp = no_clamp(net, ev)
            flow = classify_flow(net, ev, clamp)
            for nid, info in flow.items():
                j = net.index[nid]
                parents = [net.ids[i] for i in net.parents[j]]
                given = [p for p in parents if p != nid]
                sep = d_separated(net, nid, given, list(ev))
                assert (info.status == FORWARD_SAMPLED) == sep, (nid, ev)


class TestFullBlanketFlow:
    def test_everything_diagnostic_with_full_blanket(self, vase):
        ev = {"v": True}
        flow = classify_flow(vase, ev, no_clamp(vase, ev), blanket=True)
        assert flow["e"].status == DIAGNOSTIC_SAMPLED
        assert set(flow["e"].evidential_children) == {"v"}
        assert flow["e"].conditioning_set == {"v", "b"}

    def test_unobserved_children_included(self):
        net = build_network(
            [("a", "model", 0.1), ("b", "sensory", 0.05), ("d", "sensory", 0.05)],
            [("a", "b", 0.5), ("a", "d", 0.5)],
        )
        ev = {"b": True}
        flow = classify_flow(net, ev, no_clamp(net, ev), blanket=True)
        assert set(flow["a"].evidential_children) == {"b", "d"}
        # a childless free node is still diagnostic-sampled, with no children
        assert flow["d"].status == DIAGNOSTIC_SAMPLED
        assert flow["d"].evidential_children == ()
