import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagbn.network import (
    PERMISSIVE,
    STRICT,
    NetworkError,
    build_network,
    parse_evidence,
    parse_network,
    serialize_network,
    validate,
)
from conftest import tiny_leak_problem
from oracles import joint_log_prob, joint_prob, markov_blanket, noisy_or_prob, random_dag

VASE_JSON = json.dumps(
    {
        "nodes": [
            {"id": "e", "kind": "model", "leak": 0.01},
            {"id": "b", "kind": "model", "leak": 0.02},
            {"id": "v", "kind": "sensory", "leak": 0.001},
        ],
        "edges": [
            {"from": "e", "to": "v", "p": 0.9},
            {"from": "b", "to": "v", "p": 0.8},
        ],
    }
)


class TestParsing:
    def test_vase_round_trip_counts(self):
        net = parse_network(VASE_JSON)
        assert len(net.ids) == 3
        assert len(net.edge_p) == 2
        assert net.kind[net.index["v"]] == "sensory"

    def test_cycle_detected(self):
        doc = {
            "nodes": [
                {"id": "e", "kind": "model", "leak": 0.1},
                {"id": "v", "kind": "model", "leak": 0.1},
            ],
            "edges": [
                {"from": "e", "to": "v", "p": 0.5},
                {"from": "v", "to": "e", "p": 0.5},
            ],
        }
        with pytest.raises(NetworkError, match="cycle"):
            parse_network(json.dumps(doc))

    def test_probability_out_of_range(self):
        doc = json.loads(VASE_JSON)
        doc["edges"][0]["p"] = 1.2
        with pytest.raises(NetworkError, match="outside"):
            parse_network(json.dumps(doc))

    def test_unknown_node_reference(self):
        doc = json.loads(VASE_JSON)
        doc["edges"][0]["from"] = "ghost"
        with pytest.raises(NetworkError, match="ghost"):
            parse_network(json.dumps(doc))

    def test_duplicate_node(self):
        doc = json.loads(VASE_JSON)
        doc["nodes"].append({"id": "e", "kind": "model", "leak": 0.5})
        with pytest.raises(NetworkError, match="duplicate"):
            parse_network(json.dumps(doc))

    def test_duplicate_edge(self):
        doc = json.loads(VASE_JSON)
        doc["edges"].append({"from": "e", "to": "v", "p": 0.5})
        with pytest.raises(NetworkError, match="duplicate"):
            parse_network(json.dumps(doc))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"nodes": None}, '"nodes" and "edges" lists'),
            ({"nodes": 5}, '"nodes" and "edges" lists'),
            ({"edges": None}, '"nodes" and "edges" lists'),
            ({"nodes": [{"id": ["e"], "kind": "model", "leak": 0.01}]}, 'string "id"'),
            ({"edges": [{"from": ["e"], "to": "v", "p": 0.9}]}, 'string "from" and "to"'),
            # a JSON bool is an int to isinstance, so these once parsed as 1 and 0
            ({"nodes": [{"id": "e", "kind": "model", "leak": True}]}, "leak True is not a number"),
            ({"edges": [{"from": "e", "to": "v", "p": False}]}, "p False is not a number"),
            ({"edges": [{"from": "e", "to": "v", "p": True}]}, "p True is not a number"),
        ],
        ids=["null-nodes", "numeric-nodes", "null-edges", "listed-id", "listed-endpoint",
             "bool-leak", "false-p", "true-p"],
    )
    def test_wrongly_typed_input_rejected(self, change, message):
        doc = json.loads(VASE_JSON)
        doc.update(change)
        with pytest.raises(NetworkError, match=message):
            parse_network(json.dumps(doc))

    def test_syntax_error(self):
        with pytest.raises(NetworkError, match="JSON"):
            parse_network("{not json")

    def test_unknown_key_rejected_in_strict_only(self):
        doc = json.loads(VASE_JSON)
        doc["nodes"][0]["color"] = "red"
        text = json.dumps(doc)
        with pytest.raises(NetworkError, match="color"):
            parse_network(text, profile=STRICT)
        parse_network(text, profile=PERMISSIVE)

    def test_node_order_is_irrelevant_to_semantics(self):
        doc = json.loads(VASE_JSON)
        shuffled = dict(doc, nodes=list(reversed(doc["nodes"])))
        a = parse_network(VASE_JSON)
        b = parse_network(json.dumps(shuffled))
        for values in itertools.product([False, True], repeat=3):
            asg = dict(zip(["e", "b", "v"], values))
            assert joint_log_prob(a, asg) == pytest.approx(joint_log_prob(b, asg), abs=1e-12)

    def test_parse_serialize_parse_preserves_factors(self):
        rng = random.Random(5)
        for _ in range(10):
            nodes, edges = random_dag(rng, rng.randint(2, 7))
            net = build_network(nodes, edges)
            net2 = parse_network(serialize_network(net))
            for _ in range(20):
                asg = {nid: rng.random() < 0.5 for nid in net.ids}
                assert joint_log_prob(net, asg) == joint_log_prob(net2, asg)


class TestValidate:
    def test_vase_strict_clean(self, vase):
        assert validate(vase) == []

    def test_zero_leak_fails_strict_passes_permissive(self):
        net = build_network(
            [("e", "model", 0.01), ("b", "model", 0.02), ("v", "sensory", 0.0)],
            [("e", "v", 0.9), ("b", "v", 0.8)],
        )
        strict = validate(net)
        assert len(strict) == 1 and "v" in strict[0]
        assert parse_network(serialize_network(net), profile=PERMISSIVE).leak == net.leak

    def test_leak_below_float_resolution_fails_strict(self):
        net, _ = tiny_leak_problem()
        problems = validate(net)
        assert len(problems) == 1 and "'s'" in problems[0] and "1e-17" in problems[0]
        with pytest.raises(NetworkError, match="'s'"):
            parse_network(serialize_network(net))
        # the smallest leak the property tests draw still passes
        assert validate(build_network([("s", "sensory", 1e-12)], [])) == []

    def test_certain_edge_fails_strict(self):
        net = build_network(
            [("a", "model", 0.5), ("b", "model", 0.5)],
            [("a", "b", 1.0)],
        )
        assert validate(net) != []
        assert parse_network(serialize_network(net), profile=PERMISSIVE).edge_p == net.edge_p


class TestNoisyOr:
    def test_no_true_parents_zero_leak(self):
        net = build_network(
            [("a", "model", 0.5), ("j", "model", 0.0)], [("a", "j", 0.7)]
        )
        assert noisy_or_prob(net, "j", {"a": False}) == 0.0

    def test_two_true_parents(self):
        net = build_network(
            [("a", "model", 0.5), ("b", "model", 0.5), ("j", "model", 0.0)],
            [("a", "j", 0.5), ("b", "j", 0.5)],
        )
        assert noisy_or_prob(net, "j", {"a": True, "b": True}) == pytest.approx(0.75)

    def test_one_true_parent_with_leak(self):
        net = build_network(
            [("a", "model", 0.5), ("j", "model", 0.001)], [("a", "j", 0.9)]
        )
        assert noisy_or_prob(net, "j", {"a": True}) == pytest.approx(0.9001)

    def test_leak_alone_no_parents(self):
        net = build_network([("j", "model", 0.37)], [])
        assert noisy_or_prob(net, "j", {}) == pytest.approx(0.37, abs=1e-15)

    def test_missing_parent_rejected(self, vase):
        with pytest.raises(NetworkError):
            noisy_or_prob(vase, "v", {"e": True})

    def test_extraneous_parent_rejected(self, vase):
        with pytest.raises(NetworkError):
            noisy_or_prob(vase, "v", {"e": True, "b": False, "x": True})

    def test_monotone_in_parents_links_and_leak(self):
        rng = random.Random(11)
        for _ in range(50):
            leak = rng.uniform(0.0, 0.9)
            p1, p2 = rng.uniform(0, 1), rng.uniform(0, 1)
            net = build_network(
                [("a", "model", 0.5), ("b", "model", 0.5), ("j", "model", leak)],
                [("a", "j", p1), ("b", "j", p2)],
            )
            base = noisy_or_prob(net, "j", {"a": False, "b": False})
            one = noisy_or_prob(net, "j", {"a": True, "b": False})
            both = noisy_or_prob(net, "j", {"a": True, "b": True})
            assert base <= one + 1e-15 and one <= both + 1e-15
            hotter = build_network(
                [("a", "model", 0.5), ("b", "model", 0.5), ("j", "model", min(1.0, leak + 0.05))],
                [("a", "j", min(1.0, p1 + 0.05)), ("b", "j", p2)],
            )
            assert noisy_or_prob(hotter, "j", {"a": True, "b": True}) >= both - 1e-15


class TestJoint:
    def test_vase_state_value(self, vase):
        got = joint_log_prob(vase, {"e": True, "b": False, "v": True})
        assert got == pytest.approx(math.log(0.01 * 0.98 * 0.9001), abs=1e-12)

    def test_impossible_state_is_minus_inf(self):
        net = build_network([("a", "model", 0.0)], [])
        assert joint_log_prob(net, {"a": True}) == float("-inf")

    def test_vase_states_normalize(self, vase):
        total = sum(
            math.exp(joint_log_prob(vase, dict(zip(["e", "b", "v"], bits))))
            for bits in itertools.product([False, True], repeat=3)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_incomplete_assignment_rejected(self, vase):
        with pytest.raises(NetworkError):
            joint_log_prob(vase, {"e": True, "b": False})

    def test_matches_naive_oracle_on_random_nets(self):
        rng = random.Random(3)
        for _ in range(20):
            nodes, edges = random_dag(rng, rng.randint(2, 8))
            net = build_network(nodes, edges)
            for _ in range(10):
                asg = {nid: rng.random() < 0.5 for nid in net.ids}
                want = joint_prob(net, asg)
                got = joint_log_prob(net, asg)
                if want == 0.0:
                    assert got == float("-inf")
                else:
                    assert got == pytest.approx(math.log(want), abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=2, max_value=9))
    def test_normalization_property(self, seed, n_nodes):
        rng = random.Random(seed)
        nodes, edges = random_dag(rng, n_nodes)
        net = build_network(nodes, edges)
        total = 0.0
        for bits in itertools.product([False, True], repeat=n_nodes):
            lp = joint_log_prob(net, dict(zip(net.ids, bits)))
            if lp != float("-inf"):
                total += math.exp(lp)
        assert total == pytest.approx(1.0, abs=1e-9)


class TestMarkovBlanket:
    def test_vase_cause(self, vase):
        assert markov_blanket(vase, "e") == {"v", "b"}

    def test_isolated_node(self):
        net = build_network([("a", "model", 0.5), ("z", "model", 0.5)], [("a", "z", 0.1)])
        net2 = build_network([("lone", "model", 0.5)], [])
        assert markov_blanket(net2, "lone") == set()

    def test_chain_middle(self):
        net = build_network(
            [("a", "model", 0.5), ("b", "model", 0.5), ("c", "model", 0.5)],
            [("a", "b", 0.5), ("b", "c", 0.5)],
        )
        assert markov_blanket(net, "b") == {"a", "c"}

    def test_unknown_node(self, vase):
        with pytest.raises(KeyError):
            markov_blanket(vase, "nope")


class TestEvidence:
    def test_parse_evidence(self, vase):
        assert parse_evidence('{"v": true, "b": false}', vase) == {"v": True, "b": False}

    def test_unknown_node_rejected(self, vase):
        with pytest.raises(NetworkError, match="ghost"):
            parse_evidence('{"ghost": true}', vase)

    def test_non_bool_rejected(self, vase):
        with pytest.raises(NetworkError):
            parse_evidence('{"v": 1}', vase)

    def test_duplicate_key_rejected(self, vase):
        with pytest.raises(NetworkError, match="twice"):
            parse_evidence('{"v": true, "v": false}', vase)
