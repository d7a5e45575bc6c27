import json
import math
import os
import random
import re

import numpy as np
import pytest

from conftest import (
    DATA_DIR,
    VASE_BLOCK_DIST,
    VASE_P_B,
    VASE_P_E,
    VASE_P_E_GIVEN_B0,
    wide_finding_problem,
)
from diagbn.exact import (
    _CLIQUE_ENTRIES,
    _NODE_ENTRIES,
    EnumerationCapError,
    _eliminate,
    _factors,
    _free_ancestors,
    _JunctionTree,
    _plan,
    _split,
    exact_posteriors,
    explicit_transition_matrix,
)
from diagbn.network import build_network, parse_network, validate
from diagbn.sampler import PRESETS
from oracles import (
    apply_sweep,
    d_separated,
    d_separated_by_trails,
    joint_prob,
    markov_blanket,
    move_kernels,
    posteriors_by_enumeration,
    posteriors_by_fractions,
    random_dag,
    random_evidence,
    reference_eliminate,
    reference_exact_posteriors,
)


def splits(net, observed):
    """Each node's `_split` given the observed nodes, as `exact_posteriors`
    builds them for its trees."""
    return [_split(net, observed, j) for j in range(len(net.ids))]


def both_plans_cases(seed):
    """The networks and evidence of test_junction_tree_matches_reference_on_both_plans."""
    rng = random.Random(seed)
    extremes = [0.0, 1e-12, 1 - 1e-12, 1.0]
    for _ in range(60):
        nodes, edges = random_dag(rng, rng.randint(2, 14))
        if rng.random() < 0.5:
            nodes = [(n, k, rng.choice(extremes) if rng.random() < 0.5 else q) for n, k, q in nodes]
            edges = [(a, b, rng.choice(extremes) if rng.random() < 0.5 else p) for a, b, p in edges]
        net = build_network(nodes, edges)
        ev = random_evidence(rng, net, max_nodes=4)
        yield net, {net.index[nid]: value for nid, value in ev.items()}


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
        # a finding observed true couples all 13 of its free parents, so the
        # junction tree's largest clique holds them all, on either plan
        nodes = [(f"m{i:02d}", "model", 0.1) for i in range(13)] + [("s", "sensory", 0.01)]
        net = build_network(nodes, [(f"m{i:02d}", "s", 0.5) for i in range(13)])
        with pytest.raises(EnumerationCapError, match="largest clique has 13 nodes, over the cap of 12"):
            exact_posteriors(net, {"s": True}, cap=12)
        got = exact_posteriors(net, {"s": True}, cap=13)
        want = reference_exact_posteriors(net, {"s": True})
        for nid in net.ids:
            assert got[nid] == pytest.approx(want[nid], abs=1e-12)

    @pytest.mark.parametrize("cap", [-3, -1, True, False, 2.5, "22", None])
    def test_cap_must_be_a_nonnegative_integer(self, vase, cap, monkeypatch):
        # refused before any junction tree is built; a bool is no count
        def no_tree(*args):
            raise AssertionError("a junction tree was built")

        monkeypatch.setattr("diagbn.exact._JunctionTree", no_tree)
        with pytest.raises(ValueError, match=re.escape(f"cap must be a nonnegative integer, got {cap!r}")):
            exact_posteriors(vase, {}, cap=cap)

    def test_cap_of_zero_takes_full_evidence(self, vase):
        post = exact_posteriors(vase, {"e": True, "b": False, "v": True}, cap=0)
        assert post == {"e": 1.0, "b": 0.0, "v": 1.0}

    def test_impossible_evidence_rejected(self):
        # zero leak and no parents: the node can never be true
        net = build_network([("a", "model", 0.0)], [])
        with pytest.raises(ValueError, match="zero probability"):
            exact_posteriors(net, {"a": True})

    @pytest.mark.parametrize("cap", [22, 1])
    def test_evidence_impossible_by_a_constant_rejected(self, cap):
        # s has leak 0 and its only parent is observed off, so s = true
        # contributes the constant factor 0 while free nodes remain; cap 1
        # takes the pruned plan, where b and c are barren
        net = build_network(
            [("m", "model", 0.5), ("s", "sensory", 0.0), ("b", "model", 0.3), ("c", "model", 0.2)],
            [("m", "s", 0.9), ("b", "c", 0.5), ("m", "c", 0.5)],
        )
        with pytest.raises(ValueError, match="zero probability"):
            exact_posteriors(net, {"m": False, "s": True}, cap=cap)

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

    def test_reference_matches_rational_enumeration(self):
        # the Gray-code reference weighs every chunk's first state afresh,
        # so its running log weight does not drift over 2^12 steps, also
        # with leaks and links at 1e-12 and 1 - 1e-12
        rng = random.Random(12)
        for extreme in (False, False, True, True):
            nodes, edges = random_dag(rng, 12)
            if extreme:
                ends = [1e-12, 1 - 1e-12]
                nodes = [(n, k, rng.choice(ends) if rng.random() < 0.5 else q) for n, k, q in nodes]
                edges = [(a, b, rng.choice(ends) if rng.random() < 0.5 else p) for a, b, p in edges]
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net, max_nodes=2)
            want = posteriors_by_fractions(net, ev)
            got = reference_exact_posteriors(net, ev)
            for nid in net.ids:
                assert abs(got[nid] - want[nid]) <= 1e-14, (nid, got[nid], want[nid])

    def test_matches_reference_across_chunks(self):
        # 16 free nodes, more than the random-DAG comparison reaches
        rng = random.Random(16)
        nodes, edges = random_dag(rng, 17, edge_prob=0.25)
        net = build_network(nodes, edges)
        ev = {"n16": True}
        got = exact_posteriors(net, ev)
        want = reference_exact_posteriors(net, ev)
        assert set(got) == set(want)
        for nid in net.ids:
            assert got[nid] == pytest.approx(want[nid], abs=1e-10)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_junction_tree_matches_reference_on_both_plans(self, seed):
        # random DAGs of 2-14 nodes, half of them permissive with leaks and
        # links at the extremes, which make factors and states of weight 0
        rng = random.Random(seed)
        extremes = [0.0, 1e-12, 1 - 1e-12, 1.0]
        compared = pruned = impossible = 0
        for _ in range(60):
            nodes, edges = random_dag(rng, rng.randint(2, 14))
            if rng.random() < 0.5:
                nodes = [(n, k, rng.choice(extremes) if rng.random() < 0.5 else q) for n, k, q in nodes]
                edges = [(a, b, rng.choice(extremes) if rng.random() < 0.5 else p) for a, b, p in edges]
            net = build_network(nodes, edges)
            ev = random_evidence(rng, net, max_nodes=4)
            try:
                want = reference_exact_posteriors(net, ev)
            except ValueError:
                impossible += 1
                with pytest.raises(ValueError, match="zero probability"):
                    exact_posteriors(net, ev)
                continue
            got = exact_posteriors(net, ev)
            assert got == exact_posteriors(net, ev)  # repeated calls are bit-identical
            assert set(got) == set(want)
            for nid in net.ids:
                assert abs(got[nid] - want[nid]) <= 1e-12, (nid, got[nid], want[nid])
            compared += 1
            # a cap below the all-free-node tree's largest clique and at
            # least the pruned tree's takes the pruned plan, with barren
            # nodes read from Z(e, c = 0) / Z(e)
            observed = {net.index[nid]: value for nid, value in ev.items()}
            free = [j for j in range(len(net.ids)) if j not in observed]
            full = _JunctionTree(observed, free, splits(net, observed)).width
            try:
                _, barren = _plan(net, observed, full - 1, splits(net, observed))
                got = exact_posteriors(net, ev, cap=full - 1)
            except EnumerationCapError:
                continue  # the pruned tree, or some barren node's, is past that cap
            assert barren
            for nid in net.ids:
                assert abs(got[nid] - want[nid]) <= 1e-12, (nid, got[nid], want[nid])
            pruned += 1
        assert compared >= 40 and pruned >= 20 and impossible >= 3, (compared, pruned, impossible)

    def test_eliminate_matches_reference(self):
        # random scope sets over few nodes make ties in fill and disconnected
        # components; the empty and one-node sets come first
        rng = random.Random(17)
        cases = [([], []), ([3], []), ([3], [(3,)]), ([2, 5], []), ([2, 5], [(2,), (5,)])]
        for _ in range(300):
            nodes = sorted(rng.sample(range(40), rng.randint(0, 12)))
            scopes = [tuple(sorted(rng.sample(nodes, rng.randint(1, min(4, len(nodes))))))
                      for _ in range(rng.randint(0, 10) if nodes else 0)]
            cases.append((nodes, scopes))
        for nodes, scopes in cases:
            order, cliques = _eliminate(nodes, scopes)
            want_order, want_cliques = reference_eliminate(nodes, scopes)
            assert order == want_order, (nodes, scopes)
            assert cliques == {v: sum(1 << u for u in c) for v, c in want_cliques.items()}, (nodes, scopes)

    def test_eliminate_matches_reference_on_graphs_that_fill(self, monkeypatch):
        # dense random scope sets over 30-60 nodes, and every scope set the
        # fixture's five cases eliminate, so that most orders join some
        # neighbours: the fill counts `_eliminate` keeps up to date, at v's
        # neighbours and two steps away, must pick what a recount picks
        rng = random.Random(23)
        cases = []
        for _ in range(40):
            nodes = sorted(rng.sample(range(80), rng.randint(30, 60)))
            scopes = [tuple(sorted(rng.sample(nodes, rng.randint(2, 6)))) for _ in range(rng.randint(15, 45))]
            cases.append((nodes, scopes))
        with open(os.path.join(DATA_DIR, "bench_net.json")) as fh:
            net = parse_network(fh.read())
        with open(os.path.join(DATA_DIR, "bench_cases.json")) as fh:
            fixture = json.load(fh)
        eliminate = _eliminate

        def recorded(nodes, scopes):
            cases.append((list(nodes), list(scopes)))
            return eliminate(nodes, scopes)

        monkeypatch.setattr("diagbn.exact._eliminate", recorded)
        for case in fixture:
            exact_posteriors(net, case["evidence"])
        assert len(cases) == 40 + 103
        filled = 0
        for nodes, scopes in cases:
            order, cliques = eliminate(nodes, scopes)
            want_order, want_cliques = reference_eliminate(nodes, scopes)
            assert order == want_order, (nodes, scopes)
            assert cliques == {v: sum(1 << u for u in c) for v, c in want_cliques.items()}, (nodes, scopes)
            edges = {(a, b) for scope in scopes for a in scope for b in scope}
            filled += any((a, b) not in edges for c in want_cliques.values() for a in c for b in c)
        assert filled >= 130, filled

    @pytest.mark.parametrize("seed", [0, 1])
    def test_merged_tree_structure(self, seed):
        # every free node eliminated once, by one table that holds each of
        # its factors, with the rest of the table inside its parent's; no
        # table wider than the widest elimination clique, and no dearer
        # than the tree of unmerged elimination cliques
        merged = 0
        for net, observed in both_plans_cases(seed):
            free = [j for j in range(len(net.ids)) if j not in observed]
            for nodes in (free, _free_ancestors(net, observed)):
                tree = _JunctionTree(observed, nodes, splits(net, observed))
                assert sorted(v for out in tree.eliminated.values() for v in out) == nodes
                for v, table in tree.nodes.items():
                    assert list(table) == sorted(table) and len(table) <= tree.width
                    assert set(tree.eliminated[v]) <= set(table)
                    assert all(set(f[0]) <= set(table) for f in tree.factors[v])
                    rest = set(table).difference(tree.eliminated[v])
                    u = tree.parent[v]
                    assert rest <= (set() if u is None else set(tree.nodes[u]))
                _, cliques = reference_eliminate(nodes, [f[0] for out in tree.factors.values() for f in out])
                assert tree.width == max(map(len, cliques.values()), default=0)
                unmerged = sum(_NODE_ENTRIES + _CLIQUE_ENTRIES + (1 << len(c)) for c in cliques.values())
                assert tree.cost <= unmerged
                merged += len(tree.nodes) < len(nodes)
        assert merged >= 40, merged

    def test_plan_shortcut_keeps_the_cheaper_plan(self):
        # `_plan` skips building the pruned tree when the full one is no
        # dearer than a floor; building both must never pick otherwise, on
        # the random DAGs and on the committed fixture's cases, where the
        # full tree's cost falls on both sides of the floor
        with open(os.path.join(DATA_DIR, "bench_net.json")) as fh:
            fixture = parse_network(fh.read())
        with open(os.path.join(DATA_DIR, "bench_cases.json")) as fh:
            cases = [(fixture, {fixture.index[nid]: value for nid, value in case["evidence"].items()})
                     for case in json.load(fh)]
        picks = {True: 0, False: 0}
        for net, observed in [*both_plans_cases(0), *both_plans_cases(1), *cases]:
            free = [j for j in range(len(net.ids)) if j not in observed]
            kept = _free_ancestors(net, observed)
            full = _JunctionTree(observed, free, splits(net, observed))
            pruned = _JunctionTree(observed, kept, splits(net, observed))
            n_barren = len(free) - len(kept)
            want = n_barren > 0 and pruned.cost * (1 + n_barren) < full.cost
            _, barren = _plan(net, observed, cap=40, splits=splits(net, observed))
            assert bool(barren) == want
            picks[want] += 1
        assert min(picks.values()) >= 40, picks

    @pytest.mark.parametrize("n", [26, 28])
    def test_many_extreme_findings_match_reference(self, n):
        # n findings observed off through p = 1 - 1e-12 and n observed on
        # with leak 1e-12 all hang on m; each of m's two joint weights is
        # below 1e-308 (subnormal at n = 26, 0.0 in floats at n = 28),
        # though P(m | e) is about 1.5e-8 and 3.7e-9
        nodes = [("m", "model", 0.5)]
        nodes += [(f"a{i}", "sensory", 0.01) for i in range(n)]
        nodes += [(f"b{i}", "sensory", 1e-12) for i in range(n)]
        edges = [("m", f"a{i}", 1 - 1e-12) for i in range(n)]
        edges += [("m", f"b{i}", 0.5) for i in range(n)]
        net = build_network(nodes, edges)
        assert validate(net) == []
        ev = {f"a{i}": False for i in range(n)} | {f"b{i}": True for i in range(n)}
        want = reference_exact_posteriors(net, ev)["m"]
        assert exact_posteriors(net, ev)["m"] == pytest.approx(want, rel=1e-12)

    def test_free_node_with_underflowing_stay_off_weight(self):
        # c's 28 parents are observed on through p = 1 - 1e-12, so its
        # stay-off weight is (1 - leak) * 1e-336, 0.0 in floats; its 28
        # children observed off through the same p weigh c = on down as
        # far, so P(c | e) = 1 / (2 - leak) exactly
        n = 28
        nodes = [("c", "model", 0.5)]
        nodes += [(f"u{i}", "model", 0.5) for i in range(n)]
        nodes += [(f"d{i}", "sensory", 0.01) for i in range(n)]
        edges = [(f"u{i}", "c", 1 - 1e-12) for i in range(n)]
        edges += [("c", f"d{i}", 1 - 1e-12) for i in range(n)]
        net = build_network(nodes, edges)
        assert validate(net) == []
        ev = {f"u{i}": True for i in range(n)} | {f"d{i}": False for i in range(n)}
        assert exact_posteriors(net, ev)["c"] == pytest.approx(1 / 1.5, rel=1e-12)

    def test_plan_chosen_by_cost_not_cap(self):
        # a cap past every fixture tree's width still takes the pruned plan
        # where the full tree's wide cliques cost more than one pruned pass
        # per barren node, and the full tree where they cost less
        with open(os.path.join(DATA_DIR, "bench_net.json")) as fh:
            net = parse_network(fh.read())
        with open(os.path.join(DATA_DIR, "bench_cases.json")) as fh:
            cases = json.load(fh)
        for k, pruned in ((0, True), (1, False), (2, True), (4, False)):
            observed = {net.index[nid]: value for nid, value in cases[k]["evidence"].items()}
            tree, barren = _plan(net, observed, cap=40, splits=splits(net, observed))
            assert bool(barren) == pruned, k
            assert tree.width <= (9 if pruned else 18), k

    def test_barren_nodes_read_from_the_calibrated_tree(self, monkeypatch):
        # a cap below the all-free-node tree's width takes the pruned plan;
        # there a barren node with no free parent is read in closed form,
        # one whose free parents share a table is read from that table,
        # and only the rest take a collect pass of their own
        reads = {"closed form": 0, "table": 0, "pass": 0}
        read = _JunctionTree.read

        def counted(tree, split):
            p = read(tree, split)
            reads["pass" if p is None else "table" if split[1] else "closed form"] += 1
            return p

        monkeypatch.setattr(_JunctionTree, "read", counted)
        for net, observed in [*both_plans_cases(2), *both_plans_cases(3)]:
            free = [j for j in range(len(net.ids)) if j not in observed]
            if not _free_ancestors(net, observed):
                continue
            ev = {net.ids[j]: value for j, value in observed.items()}
            cap = _JunctionTree(observed, free, splits(net, observed)).width - 1
            try:
                want = reference_exact_posteriors(net, ev)
            except ValueError:
                continue  # evidence of probability zero
            try:
                _, barren = _plan(net, observed, cap, splits(net, observed))
                got = exact_posteriors(net, ev, cap=cap)
            except EnumerationCapError:
                continue  # the pruned tree, or some barren node's, is past that cap
            assert barren
            for nid in net.ids:
                assert abs(got[nid] - want[nid]) <= 1e-12, (nid, got[nid], want[nid])
        assert min(reads.values()) >= 20, reads

    def test_fixture_barren_passes(self, monkeypatch):
        # of fixture cases 0, 2 and 3's 32, 59 and 46 barren nodes, 10, 20
        # and 13 are read from the calibrated pruned tree; a barren pass is
        # a tree that observes one node more than the evidence
        with open(os.path.join(DATA_DIR, "bench_net.json")) as fh:
            net = parse_network(fh.read())
        with open(os.path.join(DATA_DIR, "bench_cases.json")) as fh:
            cases = json.load(fh)
        observed_sizes = []

        class Counted(_JunctionTree):
            def __init__(self, observed, nodes, splits):
                observed_sizes.append(len(observed))
                super().__init__(observed, nodes, splits)

        monkeypatch.setattr("diagbn.exact._JunctionTree", Counted)
        for k, passes in ((0, 22), (2, 39), (3, 33)):
            ev = cases[k]["evidence"]
            observed_sizes.clear()
            exact_posteriors(net, ev)
            assert sum(size > len(ev) for size in observed_sizes) == passes, k

    def test_one_split_table_serves_every_tree(self, monkeypatch):
        # every tree of a call, the plan's and each barren pass's, which
        # observes one node more than the evidence, takes the same constant,
        # kept terms and factors from the call's one split table as from
        # fresh `_split` calls given its own observed nodes; on the random
        # DAGs, a cap below the full tree's width takes the pruned plan
        with open(os.path.join(DATA_DIR, "bench_net.json")) as fh:
            fixture = parse_network(fh.read())
        with open(os.path.join(DATA_DIR, "bench_cases.json")) as fh:
            calls = [(fixture, case["evidence"], 22) for case in json.load(fh)]
        for net, observed in [*both_plans_cases(0), *both_plans_cases(1)]:
            ev = {net.ids[j]: value for j, value in observed.items()}
            free = [j for j in range(len(net.ids)) if j not in observed]
            calls.append((net, ev, 22))
            calls.append((net, ev, max(0, _JunctionTree(observed, free, splits(net, observed)).width - 1)))
        built = []

        class Recorded(_JunctionTree):
            def __init__(self, observed, nodes, splits):
                built.append((dict(observed), list(nodes), splits))
                super().__init__(observed, nodes, splits)

        monkeypatch.setattr("diagbn.exact._JunctionTree", Recorded)
        trees = passes = 0
        for net, ev, cap in calls:
            built.clear()
            try:
                exact_posteriors(net, ev, cap=cap)
            except ValueError:
                pass  # past the cap, or evidence of probability zero
            for observed, nodes, shared in built:
                assert _factors(observed, nodes, shared) == _factors(observed, nodes, splits(net, observed))
                trees += 1
                passes += len(observed) > len(ev)
        assert passes >= 500, (trees, passes)

    def test_table_past_memory_raises_cap_error(self, tables_past_memory):
        # 34 models make one table of 2^34 entries, 128 GiB, within a cap of 40
        net, ev = wide_finding_problem(34)
        with pytest.raises(EnumerationCapError, match=r"table over 34 nodes needs 128 GiB.*cap below 34"):
            exact_posteriors(net, ev, cap=40)

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


def assert_matches_move_kernels(net, ev, strat, tm):
    """`tm` holds the kernels `move_kernels` reads from the shipped moves:
    the same states and labels, and pi, every kernel and one sweep of
    `TransitionMatrix.apply_sweep` within 1e-12 of theirs."""
    states, pi, kernels = move_kernels(net, ev, strat)
    assert tm.node_order == tuple(states[0]), strat.name
    assert tm.states == [tuple(state.values()) for state in states], strat.name
    assert [label for label, _ in tm.moves] == [label for label, _ in kernels], strat.name
    assert np.abs(tm.pi - pi).max() <= 1e-12, strat.name
    for (label, mat), (_, want) in zip(tm.moves, kernels):
        assert np.abs(mat.toarray() - want).max() <= 1e-12, (strat.name, label)
    # pi and a spread of mass over every state, one sweep each
    start = np.vstack([pi, np.random.default_rng(41).dirichlet(np.ones(len(states)))])
    assert np.abs(tm.apply_sweep(start) - apply_sweep(net, strat, kernels, start)).max() <= 1e-12, strat.name


class TestTransitionMatrixMatchesShippedMoves:
    """The factor-table build against the kernels of the moves that ship,
    which `move_kernels` reads by running each move down every path of its
    draws from every state.  Both read the pairs, gates and scopes from the
    chain's `_PairPlan`, so they agree on which pairs may move, and a pair
    linked only through a negative finding has no kernel in either."""

    def test_matches_move_kernels_on_random_dags(self, vase):
        rng = random.Random(40)
        nets = [(vase, {"v": True})]
        for _ in range(40):
            nodes, edges = random_dag(rng, rng.randint(3, 9))
            net = build_network(nodes, edges)
            nets.append((net, random_evidence(rng, net, max_nodes=3)))
        for net, ev in nets:
            for strat in PRESETS.values():
                assert_matches_move_kernels(net, ev, strat, explicit_transition_matrix(net, ev, strat))

    def test_zero_weight_conditional_named(self):
        # the permissive network of test_zero_probability_regions_handled:
        # p = 1 links and zero leaks leave some conditionals with no weight
        net = build_network(
            [("a", "model", 0.5), ("b", "model", 0.0), ("c", "model", 0.0)],
            [("a", "b", 1.0), ("b", "c", 1.0)],
        )
        raised = matched = 0
        for ev in ({}, {"c": False}, {"b": True}):
            for strat in PRESETS.values():
                try:
                    tm = explicit_transition_matrix(net, ev, strat)
                except ValueError as exc:
                    assert re.fullmatch(r"move \(.*\) has a zero-weight conditional: .*", str(exc))
                    raised += 1
                    continue
                # a chain never stands in a state of weight 0, so the
                # shipped moves are read only where every state has weight
                if tm.pi.all():
                    assert_matches_move_kernels(net, ev, strat, tm)
                    matched += 1
        assert (raised, matched) == (16, 6)
