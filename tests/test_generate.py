import random

import pytest

from diagbn.exact import exact_posteriors
from diagbn.generate import (
    LAYERED_CAUSAL,
    TWO_LAYER,
    GeneratorParams,
    cases_from_jsonable,
    cases_to_jsonable,
    generate_cases,
    generate_network,
)
from diagbn.network import MODEL, SENSORY, serialize_network, validate


def kinds(net):
    return {nid: net.kind[net.index[nid]] for nid in net.ids}


class TestGenerateNetwork:
    def test_counts_are_exact(self):
        params = GeneratorParams(n_model=187, n_sensory=82, n_links=600, seed=7)
        net = generate_network(params)
        km = kinds(net)
        assert sum(1 for k in km.values() if k == MODEL) == 187
        assert sum(1 for k in km.values() if k == SENSORY) == 82
        assert sum(len(ps) for ps in net.parents) == 600

    def test_deterministic_in_seed(self):
        params = GeneratorParams(n_model=30, n_sensory=12, n_links=80, seed=3)
        a = serialize_network(generate_network(params))
        b = serialize_network(generate_network(params))
        assert a == b

    def test_different_seed_differs(self):
        base = dict(n_model=30, n_sensory=12, n_links=80)
        a = serialize_network(generate_network(GeneratorParams(seed=1, **base)))
        b = serialize_network(generate_network(GeneratorParams(seed=2, **base)))
        assert a != b

    def test_minimal_family(self):
        params = GeneratorParams(
            n_model=2, n_sensory=1, n_links=2, competing_fraction=1.0, seed=5
        )
        net = generate_network(params)
        assert len(net.ids) == 3
        sid = next(nid for nid in net.ids if nid.startswith("s"))
        assert len(net.parents[net.index[sid]]) == 2

    def test_every_sensory_node_has_a_parent_and_is_a_sink(self):
        params = GeneratorParams(n_model=40, n_sensory=25, n_links=120, seed=11)
        net = generate_network(params)
        for nid in net.ids:
            j = net.index[nid]
            if net.kind[j] == SENSORY:
                assert len(net.parents[j]) >= 1
                assert net.children[j] == []

    def test_competing_fraction_gives_second_parents(self):
        params = GeneratorParams(
            n_model=40, n_sensory=20, n_links=34, competing_fraction=0.7, seed=13
        )
        net = generate_network(params)
        n_multi = sum(
            1
            for nid in net.ids
            if net.kind[net.index[nid]] == SENSORY
            and len(net.parents[net.index[nid]]) >= 2
        )
        # 14 get a mandated second parent; the 0 leftover links add no more
        assert n_multi == 14

    def test_two_layer_has_no_model_model_edges(self):
        params = GeneratorParams(
            n_model=20, n_sensory=10, n_links=120, layering=TWO_LAYER, seed=17
        )
        net = generate_network(params)
        for nid in net.ids:
            j = net.index[nid]
            if net.kind[j] == MODEL:
                for c in net.children[j]:
                    assert net.kind[c] == SENSORY

    def test_layered_causal_has_forward_model_edges(self):
        params = GeneratorParams(
            n_model=30,
            n_sensory=10,
            n_links=200,
            layering=LAYERED_CAUSAL,
            depth=3,
            seed=19,
        )
        net = generate_network(params)
        mm = 0
        for nid in net.ids:
            j = net.index[nid]
            if net.kind[j] != MODEL:
                continue
            for c in net.children[j]:
                if net.kind[c] == MODEL:
                    mm += 1
        assert mm > 0  # with 200 links over 30+10 nodes some must be model->model

    def test_strict_validation_holds(self):
        for seed in range(5):
            params = GeneratorParams(
                n_model=25,
                n_sensory=12,
                n_links=90,
                layering=LAYERED_CAUSAL,
                depth=4,
                seed=seed,
            )
            net = generate_network(params)
            assert validate(net) == []

    def test_parameters_land_in_ranges(self):
        params = GeneratorParams(
            n_model=30,
            n_sensory=15,
            n_links=100,
            prior_range=(0.001, 0.03),
            link_range=(0.5, 0.95),
            sensory_leak_range=(0.0005, 0.005),
            seed=23,
        )
        net = generate_network(params)
        for nid in net.ids:
            j = net.index[nid]
            if net.kind[j] == MODEL:
                assert 0.001 <= net.leak[j] <= 0.03
            else:
                assert 0.0005 <= net.leak[j] <= 0.005
            for p in net.parent_p[j]:
                assert 0.5 <= p <= 0.95

    def test_too_few_links_rejected(self):
        with pytest.raises(ValueError, match="minimum"):
            generate_network(
                GeneratorParams(n_model=10, n_sensory=8, n_links=5, seed=1)
            )

    def test_too_many_links_rejected(self):
        with pytest.raises(ValueError, match="admissible"):
            generate_network(
                GeneratorParams(n_model=2, n_sensory=2, n_links=10, seed=1)
            )

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError, match="prior_range"):
            generate_network(
                GeneratorParams(
                    n_model=5, n_sensory=3, n_links=6, prior_range=(0.0, 0.5), seed=1
                )
            )
        with pytest.raises(ValueError, match="layering"):
            generate_network(
                GeneratorParams(
                    n_model=5, n_sensory=3, n_links=6, layering="ragged", seed=1
                )
            )
        with pytest.raises(ValueError, match="competing"):
            generate_network(
                GeneratorParams(
                    n_model=5, n_sensory=3, n_links=6, competing_fraction=1.5, seed=1
                )
            )


class TestGenerateCases:
    @pytest.fixture
    def small_net(self):
        return generate_network(
            GeneratorParams(n_model=5, n_sensory=4, n_links=12, seed=29)
        )

    def test_counts_and_ranges(self, small_net):
        cases = generate_cases(
            small_net, 20, evidence_range=(2, 4), positive_range=(1, 3), seed=31
        )
        assert len(cases) == 20
        for case in cases:
            assert 2 <= len(case.evidence) <= 4
            n_pos = sum(case.evidence.values())
            assert 1 <= n_pos <= 3
            assert case.n_positive == n_pos

    def test_evidence_is_sensory_only(self, small_net):
        cases = generate_cases(
            small_net, 15, evidence_range=(1, 4), positive_range=(0, 4), seed=37
        )
        for case in cases:
            for nid in case.evidence:
                assert small_net.kind[small_net.index[nid]] == SENSORY

    def test_evidence_is_consistent(self, small_net):
        # worlds are forward-sampled, so every case must have positive mass
        cases = generate_cases(
            small_net, 10, evidence_range=(2, 4), positive_range=(0, 4), seed=41
        )
        for case in cases:
            post = exact_posteriors(small_net, case.evidence)
            assert all(0.0 <= v <= 1.0 for v in post.values())

    def test_deterministic_in_seed(self, small_net):
        a = generate_cases(small_net, 8, (1, 3), (0, 3), seed=43)
        b = generate_cases(small_net, 8, (1, 3), (0, 3), seed=43)
        assert a == b

    def test_forced_positive_on_vase_family(self):
        net = generate_network(
            GeneratorParams(n_model=2, n_sensory=1, n_links=2, competing_fraction=1.0, seed=5)
        )
        cases = generate_cases(net, 5, (1, 1), (1, 1), seed=47)
        sid = next(nid for nid in net.ids if nid.startswith("s"))
        for case in cases:
            assert case.evidence == {sid: True}
            assert case.n_positive == 1

    def test_infeasible_positive_range_raises(self, small_net):
        with pytest.raises(ValueError, match="more true observations"):
            generate_cases(small_net, 3, (1, 2), (3, 4), seed=53)

    def test_unreachable_positive_count_raises(self):
        # all-noise network: four simultaneous true readings are vanishingly rare
        net = generate_network(
            GeneratorParams(
                n_model=4,
                n_sensory=4,
                n_links=8,
                prior_range=(0.001, 0.002),
                link_range=(0.2, 0.3),
                sensory_leak_range=(0.001, 0.002),
                seed=59,
            )
        )
        with pytest.raises(ValueError, match="infeasible"):
            generate_cases(net, 2, (4, 4), (4, 4), seed=61)

    def test_evidence_range_larger_than_sensory_rejected(self, small_net):
        with pytest.raises(ValueError, match="sensory"):
            generate_cases(small_net, 2, (1, 9), (0, 4), seed=67)


class TestCaseSerialization:
    def test_round_trip(self):
        net = generate_network(
            GeneratorParams(n_model=5, n_sensory=4, n_links=12, seed=29)
        )
        cases = generate_cases(net, 6, (1, 3), (0, 3), seed=71)
        raw = cases_to_jsonable(cases)
        back = cases_from_jsonable(raw, net)
        assert back == cases

    def test_unknown_node_rejected(self):
        net = generate_network(
            GeneratorParams(n_model=2, n_sensory=1, n_links=2, seed=5)
        )
        with pytest.raises(ValueError, match="unknown node"):
            cases_from_jsonable([{"evidence": {"ghost": True}, "n_positive": 1}], net)

    def test_non_boolean_evidence_rejected(self):
        net = generate_network(
            GeneratorParams(n_model=2, n_sensory=1, n_links=2, seed=5)
        )
        sid = next(nid for nid in net.ids if nid.startswith("s"))
        with pytest.raises(ValueError, match="boolean"):
            cases_from_jsonable([{"evidence": {sid: 1}, "n_positive": 1}], net)
