"""Acceptance gate: one test per shipping criterion, each printing a single
pass/fail line with the measured quantity next to its threshold.

Run as `pytest tests/test_acceptance.py -v` for the per-criterion verdicts;
the printed lines carry the numbers behind them.
"""

import itertools
import json
import math
import random
import time

import numpy as np
import pytest
from scipy import sparse

from conftest import VASE_P_B, VASE_P_E
from diagbn.cli import main as cli_main
from diagbn.exact import (
    exact_posteriors,
    explicit_transition_matrix,
)
from diagbn.flow import FORWARD_SAMPLED, clamp_pass, classify_flow, no_clamp
from diagbn.network import build_network
from diagbn.sampler import (
    PRESETS,
    ChainRandom,
    initialize_state,
    run_sweep,
    sample_posteriors,
    setup_chain,
)
from oracles import (
    collapsed_space,
    conditional_by_enumeration,
    conditional_prob,
    d_separated,
    joint_log_prob,
    noisy_or_prob,
    random_dag,
    random_evidence,
    unclamped_by_reachability,
)


def _line(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    msg = f"criterion {num}: {verdict} - {detail}"
    print(msg)
    return msg


def test_criterion_1_joint_normalization():
    rng = random.Random(101)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(100):
        nodes, edges = random_dag(rng, rng.randint(2, 12))
        net = build_network(nodes, edges)
        total = 0.0
        for bits in itertools.product((False, True), repeat=len(net.ids)):
            total += math.exp(joint_log_prob(net, dict(zip(net.ids, bits))))
        worst = max(worst, abs(total - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    msg = _line(1, ok, f"joint normalization on 100 nets: worst |sum-1| = {worst:.2e} "
                       f"(tol 1e-9), {elapsed:.1f}s (budget 10s)")
    assert ok, msg


def _db_violation(pi, mat):
    flux = sparse.diags(pi) @ mat
    gap = flux - flux.T
    return 0.0 if gap.nnz == 0 else float(abs(gap).max())


def test_criterion_2_detailed_balance_and_fixed_point(vase):
    rng = random.Random(202)
    problems = []
    worst_db = 0.0
    worst_fix = 0.0
    worst_marg = 0.0
    t0 = time.perf_counter()
    nets = [(vase, {"v": True})]
    while len(nets) < 21:
        nodes, edges = random_dag(rng, rng.randint(3, 8))
        net = build_network(nodes, edges)
        ev = random_evidence(rng, net, max_nodes=3)
        nets.append((net, ev))
    for net, ev in nets:
        for name, strategy in PRESETS.items():
            clamp = clamp_pass(net, ev) if strategy.clamp else no_clamp(net, ev)
            target_ev = dict(ev)
            for cid in clamp.clamped_false:
                target_ev[cid] = False
            target = exact_posteriors(net, target_ev)
            full = explicit_transition_matrix(net, ev, strategy)
            db_space = collapsed_space(full) if strategy.flow_aware else full
            # reversibility, move by move (forward redraws are not reversible
            # kernels; they are covered by the sweep fixed point below)
            for label, mat in db_space.moves:
                if label[0] == "fs":
                    continue
                gap = _db_violation(db_space.pi, mat)
                worst_db = max(worst_db, gap)
                if gap > 1e-12:
                    problems.append((name, label, gap))
            # the composed sweep holds the posterior fixed on the full space
            after = full.apply_sweep(full.pi)
            fix_gap = float(np.max(np.abs(after - full.pi))) if len(full.pi) else 0.0
            worst_fix = max(worst_fix, fix_gap)
            if fix_gap > 1e-10:
                problems.append((name, "sweep", fix_gap))
            # and that stationary vector is the exact posterior
            if len(full.states):
                bits = np.array(full.states, dtype=float)
                margs = bits.T @ full.pi
                for k, nid in enumerate(full.node_order):
                    m_gap = abs(margs[k] - target[nid])
                    worst_marg = max(worst_marg, m_gap)
                    if m_gap > 1e-10:
                        problems.append((name, ("pi", nid), m_gap))
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 30.0
    msg = _line(2, ok, f"vase + 20 nets x {len(PRESETS)} strategies: "
                       f"worst move balance gap {worst_db:.2e} (tol 1e-12), "
                       f"worst sweep fixed-point gap {worst_fix:.2e} (tol 1e-10), "
                       f"worst stationary marginal gap {worst_marg:.2e}, "
                       f"{elapsed:.1f}s (budget 30s); violations: {problems[:3]}")
    assert ok, msg


def test_criterion_3_evidence_flow_sufficiency():
    rng = random.Random(303)
    worst = 0.0
    label_mismatches = 0
    checked = 0
    for _ in range(50):
        nodes, edges = random_dag(rng, rng.randint(3, 12))
        net = build_network(nodes, edges)
        ev = random_evidence(rng, net, max_nodes=3)
        clamp = no_clamp(net, ev)
        flow = classify_flow(net, ev, clamp)
        blanket = classify_flow(net, ev, clamp, blanket=True)
        state = initialize_state(net, ev, clamp, random.Random(1), flow=flow)
        ds_ids = [
            nid for nid in net.ids
            if nid not in ev and flow[nid].status != FORWARD_SAMPLED
        ]
        for nid, info in flow.items():
            j = net.index[nid]
            parents = [net.ids[i] for i in net.parents[j]]
            sep = d_separated(net, nid, parents, list(ev))
            if (info.status == FORWARD_SAMPLED) != sep:
                label_mismatches += 1
        for _ in range(10):
            for nid in [net.ids[j] for j in state.free]:
                j = net.index[nid]
                info = flow[nid]
                got = conditional_prob(net, state, nid, info)
                if info.status == FORWARD_SAMPLED:
                    pa = {net.ids[i]: bool(state.x[i]) for i in net.parents[j]}
                    want = noisy_or_prob(net, nid, pa)
                else:
                    fixed = dict(ev)
                    for other in ds_ids:
                        if other != nid:
                            fixed[other] = bool(state.x[net.index[other]])
                    want = conditional_by_enumeration(net, fixed, nid)
                worst = max(worst, abs(got - want))
                checked += 1
                # where no child is dropped, the blanket formula must agree
                if set(info.evidential_children) == {net.ids[c] for c in net.children[j]}:
                    alt = conditional_prob(net, state, nid, blanket[nid])
                    worst = max(worst, abs(got - alt))
            if state.free:
                state.flip(rng.choice(state.free))
    ok = worst <= 1e-12 and label_mismatches == 0
    msg = _line(3, ok, f"50 nets, {checked} conditional checks: worst gap vs enumeration "
                       f"{worst:.2e} (tol 1e-12); forward-sampled label vs d-separation "
                       f"mismatches: {label_mismatches}")
    assert ok, msg


def test_criterion_4_clamp_oracle_and_posterior_bound():
    rng = random.Random(404)
    set_mismatches = 0
    worst_excess = -1.0
    posterior_nets = 0
    clamped_checked = 0
    for _ in range(100):
        nodes, edges = random_dag(rng, rng.randint(4, 50), edge_prob=0.15)
        net = build_network(nodes, edges)
        ev = random_evidence(rng, net, max_nodes=4)
        clamp = clamp_pass(net, ev)
        if set(clamp.unclamped) != unclamped_by_reachability(net, ev):
            set_mismatches += 1
        if len(net.ids) <= 13 and clamp.clamped_false:
            posterior_nets += 1
            post = exact_posteriors(net, ev)
            prior = exact_posteriors(net, {})
            for cid in clamp.clamped_false:
                worst_excess = max(worst_excess, post[cid] - prior[cid])
                clamped_checked += 1
    ok = set_mismatches == 0 and worst_excess <= 1e-9
    msg = _line(4, ok, f"clamp sets equal the reachability oracle on 100 DAGs "
                       f"(mismatches: {set_mismatches}); on {posterior_nets} "
                       f"enumerable nets, {clamped_checked} clamped posteriors "
                       f"exceed their prior by at most {worst_excess:.2e} (tol 1e-9)")
    assert ok, msg


def test_criterion_5_vase_convergence(vase):
    t0 = time.perf_counter()
    est = sample_posteriors(vase, {"v": True}, PRESETS["gibbs"], sweeps=10_000, seed=2026)
    elapsed = time.perf_counter() - t0
    gap_e = abs(est["e"] - VASE_P_E)
    gap_b = abs(est["b"] - VASE_P_B)
    ok = gap_e <= 0.02 and gap_b <= 0.02 and elapsed < 5.0
    msg = _line(5, ok, f"gibbs 1e4 sweeps: P(e)={est['e']:.4f} (target {VASE_P_E:.4f}), "
                       f"P(b)={est['b']:.4f} (target {VASE_P_B:.4f}), gaps "
                       f"{gap_e:.4f}/{gap_b:.4f} (tol 0.02), {elapsed:.2f}s (budget 5s)")
    assert ok, msg


def _single_cause_hop_rate(net, ev, cause_idx, strategy, seed, sweeps):
    state = setup_chain(net, ev, strategy, ChainRandom(seed))
    prev = None
    hops = 0
    for _ in range(sweeps):
        run_sweep(state, strategy, 1)
        trues = [i for i in cause_idx if state.x[i]]
        label = trues[0] if len(trues) == 1 else None
        if label is not None:
            if prev is not None and label != prev:
                hops += 1
            prev = label
    return hops / sweeps


@pytest.mark.slow
def test_criterion_6_pair_moves_hop_between_explanations():
    n_causes = 8
    nodes = [(f"c{i}", "model", 0.01) for i in range(n_causes)]
    nodes.append(("s", "sensory", 1e-4))
    edges = [(f"c{i}", "s", 0.9) for i in range(n_causes)]
    net = build_network(nodes, edges)
    ev = {"s": True}
    cause_idx = [net.index[f"c{i}"] for i in range(n_causes)]
    sweeps = 100_000
    seeds = range(5)
    rates = {}
    for name in ("gibbs", "swap-spouses-cover", "block-spouses-cover"):
        per_seed = [
            _single_cause_hop_rate(net, ev, cause_idx, PRESETS[name], s, sweeps)
            for s in seeds
        ]
        rates[name] = sum(per_seed) / len(per_seed)
    swap_x = rates["swap-spouses-cover"] / rates["gibbs"]
    block_x = rates["block-spouses-cover"] / rates["gibbs"]
    ok = swap_x >= 5.0 and block_x >= 5.0
    msg = _line(6, ok, f"single-cause hops/sweep over 1e5 sweeps x 5 seeds: "
                       f"gibbs {rates['gibbs']:.4f}, swap-cover {rates['swap-spouses-cover']:.4f} "
                       f"({swap_x:.1f}x), block-cover {rates['block-spouses-cover']:.4f} "
                       f"({block_x:.1f}x); threshold 5x")
    assert ok, msg


@pytest.mark.slow
def test_criterion_7_strategy_separation(bench_run):
    report, elapsed = bench_run
    last = report.checkpoints.index(2000)
    gibbs = report.mean_errors["gibbs"][last]
    fwd_bwd = report.mean_errors["optimized-fwd-bwd"][last]
    upgraded = report.mean_errors["optimized-random"][last]
    flowed = report.mean_errors["gibbs-flow"][last]
    clamp_time = report.time_ratio["gibbs-clamp"]
    ok = (
        fwd_bwd < 0.5 * gibbs
        and upgraded < 0.5 * gibbs
        and flowed < gibbs
        and clamp_time < 1.0
        and elapsed < 600.0
    )
    msg = _line(7, ok, f"mean errors at 2000 sweeps: gibbs {gibbs:.2f}, "
                       f"optimized-fwd-bwd {fwd_bwd:.2f}, optimized-random {upgraded:.2f} "
                       f"(both must be < {0.5 * gibbs:.2f}), gibbs-flow {flowed:.2f} "
                       f"(< gibbs), gibbs-clamp wall ratio {clamp_time:.2f} (< 1.0); "
                       f"grid took {elapsed:.0f}s (budget 600s)")
    assert ok, msg


@pytest.mark.slow
def test_criterion_8_metropolis_parity(bench_run):
    report, _ = bench_run
    gaps = []
    ok = True
    for i, ck in enumerate(report.checkpoints):
        g = report.mean_errors["gibbs"][i]
        m = report.mean_errors["metropolis"][i]
        rel = abs(m - g) / g if g > 0 else (0.0 if m == 0 else float("inf"))
        gaps.append(f"{ck}: {rel:.0%}")
        if rel > 0.25:
            ok = False
    msg = _line(8, ok, f"metropolis vs gibbs mean-error gap per checkpoint: "
                       f"{', '.join(gaps)} (tol 25% everywhere)")
    assert ok, msg


def test_criterion_9_cli_byte_determinism(vase_files, tmp_path, capsys):
    net_path, ev_path = vase_files
    cases_path = tmp_path / "cases.json"
    cases_path.write_text(json.dumps([{"evidence": {"v": True}, "n_positive": 1}]))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "network": net_path,
        "cases": str(cases_path),
        "strategies": ["gibbs", "optimized-fwd-bwd"],
        "checkpoints": [20, 100],
        "repetitions": 2,
        "seed": 99,
    }))
    invocations = {
        "exact": lambda out: ["exact", "--network", net_path, "--evidence", ev_path,
                              "--out", out],
        "sample": lambda out: ["sample", "--network", net_path, "--evidence", ev_path,
                               "--strategy", "gibbs", "--sweeps", "300", "--seed", "7",
                               "--chains", "2", "--out", out],
        "analyze": lambda out: ["analyze", "--network", net_path, "--evidence", ev_path,
                                "--out", out],
        "gen": lambda out: ["gen", "--models", "12", "--sensors", "6", "--links", "30",
                            "--seed", "5", "--out", out],
        "bench": lambda out: ["bench", "--config", str(config_path), "--out", out],
    }
    unstable = []
    for name, argv_of in invocations.items():
        blobs = []
        for tag in ("a", "b"):
            out = str(tmp_path / f"{name}-{tag}.json")
            rc = cli_main(argv_of(out))
            capsys.readouterr()
            assert rc == 0, (name, tag)
            with open(out, "rb") as fh:
                blobs.append(fh.read())
        if blobs[0] != blobs[1]:
            unstable.append(name)
    ok = not unstable
    msg = _line(9, ok, f"repeated CLI runs byte-identical for "
                       f"{sorted(invocations)}; unstable: {unstable or 'none'}")
    assert ok, msg
