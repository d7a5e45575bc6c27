"""The three benchmark workloads.

A run is a sequence of rounds.  Round r's inputs are made from (seed, r) by
`make_inputs`, so every round does distinct work and a run averages over
many generated inputs; the first `SCORED_ROUNDS` rounds are always run, and
only they are scored, so accuracy figures are a function of the seed alone.
`run_round` times every call into the program and, when asked, checks the
outputs; `finish` repeats one operation to check that it reproduces its
output exactly, and reports the workload's own figures.

  fixture60      bench.run_experiment on the committed 60-model network,
                 its 5 cases and truths, the six grid presets, 2000 sweeps
                 with checkpoints, one repetition per round.  Per-move kernel
                 work dominates; the exact layer is not used.
  small-layered  `diagnose sample` (cli.main) for all ten presets on small
                 layered explaining-away networks, scored against
                 exact_posteriors.  Per-sweep overhead dominates.
  exact-oracle   exact_posteriors on networks with 13 free nodes, and each
                 preset's explicit transition matrix swept from a point mass
                 on networks with 10 chain nodes.  The sampler does no work.

Each timed call has a key, and calls with one key do like work.  A key's
median call time counts once (see `Measure.sweeps_per_s` and
`Measure.chain_seconds`), so a slow stretch of the host moves a median, not
a total.  The keys: the (preset, case) of a fixture60 chain; the (preset,
network) of a small-layered call, which no round repeats, so there every
call counts; the network of an exact_posteriors call and the (preset,
network) of an exact-oracle matrix.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import random
import statistics
import sys
import time
import traceback

import numpy as np
from scipy import sparse

_clock = time.perf_counter

SCORED_ROUNDS = 2
# Wall seconds of `probe_seconds` at the reference speed.  The host's speed
# drifts by a quarter over tens of seconds, and a fixed piece of work run
# next to each operation tracks that drift, so every time is reported in
# reference seconds: wall seconds scaled by PROBE_NOMINAL_S / probe time.
PROBE_NOMINAL_S = 0.006
FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixture60")
FIXTURE_FILES = ["bench_config.json", "bench_net.json", "bench_cases.json", "bench_truth.json"]

# ROADMAP item 1's generator settings for small layered explaining-away networks
SMALL_NET = dict(
    n_model=9,
    n_sensory=5,
    n_links=24,
    prior_range=(0.02, 0.2),
    link_range=(0.5, 0.95),
    layering="layered-causal",
    depth=3,
    competing_fraction=0.8,
)


def import_diagbn():
    """Import diagbn afresh (dropping cached diagbn modules) and return its modules."""
    for key in [k for k in sys.modules if k == "diagbn" or k.startswith("diagbn.")]:
        del sys.modules[key]
    names = ["network", "flow", "generate", "sampler", "exact", "bench", "cli"]
    return {name: importlib.import_module(f"diagbn.{name}") for name in names}


def probe_seconds() -> float:
    """Wall seconds of a fixed mix of the program's kinds of work: an
    arithmetic loop, building lists of tuples, and sparse matrices built and
    multiplied.  A slow stretch of a shared host slows these kinds unequally,
    so the mix tracks the workloads better than any one of them."""
    t0 = _clock()
    rng = random.Random(1)
    xs = [0.0] * 64
    total = 0.0
    for i in range(20000):
        j = i & 63
        xs[j] = xs[j] * 0.5 + rng.random()
        if xs[j] > 1.0:
            total += xs[j]
    for _ in range(10):
        entries = []
        for s in range(256):
            bits = [s & 1, (s >> 1) & 1, (s >> 2) & 1]
            entries.append((s, s ^ 1, rng.random() * bits[0]))
            entries.append((s, s, 1.0))
        total += sum(sorted(e[2] for e in entries))
    vec = np.full(256, 1 / 256)
    for _ in range(3):
        mat = sparse.csr_matrix(
            ([rng.random() for _ in range(512)],
             ([s >> 1 for s in range(512)], [(s * 7) & 255 for s in range(512)])),
            shape=(256, 256))
        for _ in range(5):
            vec = vec @ mat
    return _clock() - t0


def reference_time(fn, *args, probe=True):
    """(fn's result, its wall seconds scaled to the reference speed, the
    scale); without the probe, wall seconds and a scale of 1."""
    before = probe_seconds() if probe else PROBE_NOMINAL_S
    t0 = _clock()
    result = fn(*args)
    dt = _clock() - t0
    after = probe_seconds() if probe else PROBE_NOMINAL_S
    speed = PROBE_NOMINAL_S / ((before + after) / 2)
    return result, dt * speed, speed


def family(strategy) -> str:
    """Preset family for the throughput split: single-site moves or pair moves."""
    return "single" if strategy.move_policy == "single-site" else "paired"


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _mean(xs):
    return sum(xs) / len(xs)


class Measure:
    """Counts, timings, accuracy and failed checks of one run's operations."""

    def __init__(self, probe=True):
        self.probe = probe  # off in traced rounds, so probes do not land in any span
        self.attempted = 0
        self.failed = 0
        # (key, reference seconds) per successful posterior computation
        self.call_s = []
        self.speeds = []  # machine speed relative to the reference, per operation
        # (key, family, sweeps, reference seconds) per successful call
        self.sweep_calls = []
        self.preset_s = {}  # run_chain's own seconds per preset, from bench Reports
        self.scores = {}  # preset -> [(largest |estimate - truth|, error count)]
        self.problems = []

    def timed(self, what, fn, *args):
        """Call fn, counting it as one operation: (result, reference seconds),
        or (None, 0.0) if it raised."""
        self.attempted += 1
        try:
            result, dt, speed = reference_time(fn, *args, probe=self.probe)
        except Exception as exc:
            self.fail(what, exc)
            return None, 0.0
        self.speeds.append(speed)
        return result, dt

    def fail(self, what, exc):
        self.failed += 1
        if self.failed <= 3:
            print(f"operation failed: {what}", file=sys.stderr)
            traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)

    def chain_done(self, key, seconds):
        self.call_s.append((key, seconds))

    def chain_seconds(self):
        """Each key's median posterior-computation time, so that a call
        repeated in several rounds counts once and a slow stretch of the host
        moves a median."""
        by_key = {}
        for key, dt in self.call_s:
            by_key.setdefault(key, []).append(dt)
        return [statistics.median(times) for times in by_key.values()]

    def sweeps_done(self, key, fam, sweeps, seconds):
        self.sweep_calls.append((key, fam, sweeps, seconds))

    def sweeps_per_s(self, fam):
        """Sweeps per reference second of the family: the sweeps of one call
        per key over the sum of each key's median call time, so that a slow
        stretch of the host moves a median, not the total; 0 if no call of
        the family succeeded."""
        by_key = {}
        for key, f, n, dt in self.sweep_calls:
            if f == fam:
                by_key.setdefault(key, (n, []))[1].append(dt)
        self.check(bool(by_key), f"no {fam} call succeeded")
        if not by_key:
            return 0.0
        return (sum(n for n, _ in by_key.values())
                / sum(statistics.median(times) for _, times in by_key.values()))

    def score(self, preset, estimates, truths, error_count, floor):
        est = {nid: estimates[nid] for nid in truths}
        worst = max(abs(est[nid] - t) for nid, t in truths.items())
        self.scores.setdefault(preset, []).append((worst, error_count(est, truths, floor)))

    def check(self, ok, what):
        if not ok and what not in self.problems:
            self.problems.append(what)

    def accuracy(self):
        """max_abs_err: mean over scored calls of the call's largest error;
        errors_final: mean error count per scored call."""
        calls = [c for per in self.scores.values() for c in per]
        if not calls:
            return {}
        return {
            "max_abs_err": _mean([w for w, _ in calls]),
            "errors_final": _mean([e for _, e in calls]),
        }

    def per_preset(self):
        return {
            name: {
                "max_abs_err": _mean([w for w, _ in per]),
                "largest_abs_err": max(w for w, _ in per),
                "errors_final": _mean([e for _, e in per]),
            }
            for name, per in self.scores.items()
        }


# ---------------------------------------------------------------------------


class Fixture60:
    """The committed benchmark grid, one repetition per round."""

    name = "fixture60"

    def make_inputs(self, mods, seed, r, workdir):
        config = mods["bench"].load_config(os.path.join(FIXTURE_DIR, "bench_config.json"))
        config = dataclasses.replace(
            config, repetitions=1, seed=mods["sampler"].derive_seed(seed, self.name, r)
        )
        return {"mods": mods, "config": config}

    def start(self, m):
        with open(os.path.join(FIXTURE_DIR, "PINS.json")) as fh:
            self.pins = json.load(fh)
        m.check(
            all(sha256_file(os.path.join(FIXTURE_DIR, f)) == self.pins[f] for f in FIXTURE_FILES),
            "fixture60 copy does not match PINS.json",
        )
        self.first = None  # (inputs, strategy, case index, seed, result) of the first chain
        self.cost_ratio = None

    def run_round(self, inputs, m, score):
        mods, config = inputs["mods"], inputs["config"]
        bench = mods["bench"]
        case_of = {id(c.evidence): k for k, c in enumerate(config.cases)}
        chains = []
        failed_chain = []
        original = bench.run_chain

        def timed_run_chain(net, ev, strategy, sweeps, seed, **kwargs):
            what = f"run_chain {strategy.name} case {case_of[id(ev)]}"
            result, dt = m.timed(what, lambda: original(net, ev, strategy, sweeps, seed, **kwargs))
            if result is None:
                failed_chain.append(what)
                raise RuntimeError(what + " failed")
            key = (strategy.name, case_of[id(ev)])
            m.chain_done(key, dt)
            m.sweeps_done(key, family(strategy), sweeps, dt)
            chains.append((strategy, case_of[id(ev)], seed, result))
            return result

        bench.run_chain = timed_run_chain
        try:
            report = bench.run_experiment(config)
        except Exception as exc:
            if not failed_chain:  # the grid failed outside its chains: count it once
                m.attempted += 1
                m.fail("run_experiment", exc)
            return
        finally:
            bench.run_chain = original
        for name in report.strategies:
            m.preset_s[name] = m.preset_s.get(name, 0.0) + report.seconds[name]
        if score:
            self._score(inputs, report, chains, m)
            if self.first is None:
                self.first = (inputs, *chains[0])
                self.cost_ratio = report.cost_ratio

    def _score(self, inputs, report, chains, m):
        mods, config = inputs["mods"], inputs["config"]
        error_count = mods["bench"].error_count
        net = config.net
        model = [nid for nid in net.ids if net.kind[net.index[nid]] == mods["network"].MODEL]
        final = max(config.checkpoints)
        sums = {}
        for strategy, k, _, res in chains:
            ev = config.cases[k].evidence
            truth = {nid: config.truths[k][nid] for nid in model if nid not in ev}
            row = sums.setdefault(strategy.name, [0] * len(config.checkpoints))
            for ci, ck in enumerate(config.checkpoints):
                est = res.checkpoint_estimates[ck]
                row[ci] += error_count({n: est[n] for n in truth}, truth, config.epsilon_floor)
            m.score(strategy.name, res.checkpoint_estimates[final], truth, error_count,
                    config.epsilon_floor)
        cells = len(config.cases) * config.repetitions
        recount = {name: [round(e / cells, 6) for e in row] for name, row in sums.items()}
        m.check(recount == report.mean_errors,
                "fixture60 per-chain recount differs from run_experiment's mean_errors")

    def finish(self, m):
        if self.first is None:
            m.check(False, "fixture60 scored rounds did not complete")
            return {}, {}
        inputs, strategy, k, seed, result = self.first
        config = inputs["config"]
        again = inputs["mods"]["sampler"].run_chain(
            config.net, config.cases[k].evidence, strategy, max(config.checkpoints), seed,
            burn_in=config.burn_in, checkpoints=config.checkpoints)
        m.check(again.checkpoint_estimates == result.checkpoint_estimates,
                "repeated run_chain differs under the same seed")
        base = config.baseline
        time_ratio = {s: m.preset_s[s] / m.preset_s[base] for s in m.preset_s}
        extra = {
            "bench.cost_wall_gap": max(abs(self.cost_ratio[s] - time_ratio[s]) for s in time_ratio),
            "fixture60.tests_data_matches_pin": int(self._tests_data_matches_pin()),
        }
        return extra, {"cost_ratio": self.cost_ratio, "time_ratio": time_ratio}

    def _tests_data_matches_pin(self) -> bool:
        """Whether tests/data still holds the fixture this benchmark pinned."""
        data = os.path.join(os.path.dirname(os.path.dirname(FIXTURE_DIR)), "tests", "data")
        return all(
            os.path.exists(os.path.join(data, f))
            and sha256_file(os.path.join(data, f)) == self.pins[f]
            for f in FIXTURE_FILES
        )


# ---------------------------------------------------------------------------


def underflow_network(build_network):
    """ROADMAP item 1's repro: 45 parents with leak 0.99 drive one sensory
    node through p = 1 - 1e-8 links, so its survival cache underflows to 0."""
    nodes = [(f"m{i:02d}", "model", 0.99) for i in range(1, 46)]
    nodes += [("s", "sensory", 0.001), ("t", "sensory", 0.001)]
    edges = [(f"m{i:02d}", "s", 1 - 1e-8) for i in range(1, 46)] + [("m01", "t", 0.5)]
    return build_network(nodes, edges), {"t": True}


class SmallLayered:
    """`diagnose sample` for all presets on small layered networks."""

    name = "small-layered"
    networks_per_round = 6
    sweeps = 750
    burn_in = 75
    chains = 2

    def make_inputs(self, mods, seed, r, workdir):
        gen, net_mod = mods["generate"], mods["network"]
        nets = []
        for k in range(self.networks_per_round):
            # seed 0 starts with ROADMAP item 1's generator seeds 0 and 4
            gs = 4096 * seed + 4 * (r * self.networks_per_round + k)
            net = gen.generate_network(gen.GeneratorParams(seed=gs, **SMALL_NET))
            ev = gen.generate_cases(net, 3, (3, 5), (1, 4), seed=gs + 100)[0].evidence
            truths = mods["exact"].exact_posteriors(net, ev)
            nets.append(self._write(workdir, f"g{gs}", net, ev, net_mod, truths))
        return {"mods": mods, "nets": nets, "seed": seed, "workdir": workdir}

    @staticmethod
    def _write(workdir, tag, net, ev, net_mod, truths):
        paths = {k: os.path.join(workdir, f"{tag}.{k}.json") for k in ("net", "ev")}
        with open(paths["net"], "w") as fh:
            fh.write(net_mod.serialize_network(net))
        with open(paths["ev"], "w") as fh:
            json.dump(ev, fh, sort_keys=True)
        return {"tag": tag, "net": net, "ev": ev, "paths": paths, "truths": truths}

    def _sample(self, inputs, item, preset, m):
        """One `diagnose sample` call: (output bytes or None if it failed, seconds)."""
        mods = inputs["mods"]
        seed = mods["sampler"].derive_seed(inputs["seed"], item["tag"], preset) % 2**31
        out = os.path.join(inputs["workdir"], f"{item['tag']}.{preset}.out.json")
        argv = ["sample", "--network", item["paths"]["net"], "--evidence", item["paths"]["ev"],
                "--strategy", preset, "--sweeps", str(self.sweeps), "--seed", str(seed),
                "--burn-in", str(self.burn_in), "--chains", str(self.chains), "--out", out]
        what = f"diagnose sample {item['tag']} {preset}"
        rc, dt = m.timed(what, mods["cli"].main, argv)
        if rc is None:
            return None, dt
        if rc != 0:
            m.fail(what, RuntimeError(f"exit code {rc}"))
            return None, dt
        with open(out, "rb") as fh:
            return fh.read(), dt

    def start(self, m):
        self.first = None

    def run_round(self, inputs, m, score):
        mods = inputs["mods"]
        for item in inputs["nets"]:
            for preset, strategy in mods["sampler"].PRESETS.items():
                blob, dt = self._sample(inputs, item, preset, m)
                if blob is None:
                    continue
                key = (preset, item["tag"])
                m.chain_done(key, dt)
                m.sweeps_done(key, family(strategy), self.sweeps * self.chains, dt)
                if score:
                    self._check_and_score(inputs, item, preset, blob, m)
                    if self.first is None:
                        self.first = (inputs, item, preset, blob)

    def _check_and_score(self, inputs, item, preset, blob, m):
        mods = inputs["mods"]
        try:
            marginals = json.loads(blob)["marginals"]
        except (ValueError, KeyError):
            m.check(False, "diagnose sample output does not parse")
            return
        net, ev = item["net"], item["ev"]
        m.check(set(marginals) == set(net.ids), "diagnose sample output misses nodes")
        m.check(all(0.0 <= v <= 1.0 for v in marginals.values()),
                "diagnose sample marginal outside [0, 1]")
        m.check(all(marginals.get(n) == (1.0 if v else 0.0) for n, v in ev.items()),
                "diagnose sample evidence node differs from its indicator")
        model = mods["network"].MODEL
        truth = {n: t for n, t in item["truths"].items()
                 if n not in ev and net.kind[net.index[n]] == model}
        m.score(preset, marginals, truth, mods["bench"].error_count,
                mods["bench"].DEFAULT_EPSILON_FLOOR)

    def finish(self, m):
        if self.first is None:
            m.check(False, "small-layered scored rounds did not complete")
            return {}, {}
        inputs, item, preset, blob = self.first
        again, _ = self._sample(inputs, item, preset, Measure())
        m.check(again == blob, "repeated diagnose sample output is not byte-identical")
        # the known cache-underflow crash, kept visible outside the workload's operations
        mods = inputs["mods"]
        net, ev = underflow_network(mods["network"].build_network)
        under = self._write(inputs["workdir"], "underflow", net, ev, mods["network"], None)
        failed = []
        for preset in mods["sampler"].PRESETS:
            out = os.path.join(inputs["workdir"], f"underflow.{preset}.out.json")
            argv = ["sample", "--network", under["paths"]["net"], "--evidence",
                    under["paths"]["ev"], "--strategy", preset, "--sweeps", "200", "--seed", "1",
                    "--chains", str(self.chains), "--out", out]
            try:
                if mods["cli"].main(argv) != 0:
                    failed.append(preset)
            except Exception as exc:  # the probe reports crashes; it must not stop the run
                failed.append(f"{preset} ({type(exc).__name__})")
        return {"cli.sample.underflow_failures": len(failed)}, {"underflow_failed": failed}


# ---------------------------------------------------------------------------


def redraw_parameters(net, params, build_network, rng):
    """The network with fresh leaks and link probabilities, drawn from the
    generator's ranges in `params`; the structure stays."""
    ranges = {"model": params.prior_range, "sensory": params.sensory_leak_range}
    nodes = [(nid, kind, rng.uniform(*ranges[kind])) for nid, kind in zip(net.ids, net.kind)]
    edges = [(net.ids[u], net.ids[v], rng.uniform(*params.link_range)) for (u, v) in net.edge_p]
    return build_network(nodes, edges)


class ExactOracle:
    """Enumeration posteriors and explicit transition matrices.

    Enumeration and matrix costs follow a network's structure and evidence
    set, and vary severalfold from one generated network to the next.  So
    the structures and evidence come from a fixed set of generator seeds,
    and the workload seed draws every round's leaks and link probabilities:
    work is alike across seeds and rounds, and the numbers are new."""

    name = "exact-oracle"
    big_per_round = 8  # exact_posteriors networks, 13 free nodes each
    small_per_round = 3  # transition-matrix networks, 10 chain nodes each
    sweeps = 20  # exact sweeps applied to each preset's matrix
    big_net = dict(SMALL_NET, n_model=10, n_sensory=8, n_links=32)
    small_net = dict(SMALL_NET, n_model=10, n_links=26)

    def make_inputs(self, mods, seed, r, workdir):
        gen, build = mods["generate"], mods["network"].build_network
        derive = mods["sampler"].derive_seed

        def draw(kind, k, settings):
            params = gen.GeneratorParams(seed=derive(0, self.name, kind, k) % 2**31, **settings)
            net = gen.generate_network(params)
            ev = gen.generate_cases(net, 1, (5, 5), (1, 4), seed=params.seed + 1)[0].evidence
            rng = random.Random(derive(seed, self.name, kind, r, k))
            return redraw_parameters(net, params, build, rng), ev

        return {
            "mods": mods,
            "big": [draw("big", k, self.big_net) for k in range(self.big_per_round)],
            "small": [draw("small", k, self.small_net) for k in range(self.small_per_round)],
        }

    def start(self, m):
        self.first = None
        self.states = 0
        self.exact_s = 0.0
        self.matrix_s = []

    def _chain(self, exact, net, ev, strategy, m):
        """Build the preset's transition matrix and sweep a point mass through it."""

        def run():
            t0 = _clock()
            tm = exact.explicit_transition_matrix(net, ev, strategy)
            self.matrix_s.append(_clock() - t0)
            dist = np.zeros(len(tm.states))
            dist[0] = 1.0  # every chain node off
            for _ in range(self.sweeps):
                dist = tm.apply_sweep(dist)
            return tm, dist

        out, dt = m.timed(f"exact chain {strategy.name}", run)
        return (None, None, dt) if out is None else (*out, dt)

    def run_round(self, inputs, m, score):
        mods = inputs["mods"]
        exact = mods["exact"]
        for k, (net, ev) in enumerate(inputs["big"]):
            post, dt = m.timed("exact_posteriors", exact.exact_posteriors, net, ev)
            if post is None:
                continue
            m.chain_done(k, dt)
            self.states += 1 << (len(net.ids) - len(ev))
            self.exact_s += dt
            if score:
                m.check(set(post) == set(net.ids), "exact posterior misses nodes")
                m.check(all(0.0 <= v <= 1.0 for v in post.values()),
                        "exact posterior outside [0, 1]")
                if self.first is None:
                    self.first = (inputs, net, ev, post)
        for k, (net, ev) in enumerate(inputs["small"]):
            for strategy in mods["sampler"].PRESETS.values():
                tm, dist, dt = self._chain(exact, net, ev, strategy, m)
                if tm is None:
                    continue
                m.sweeps_done((strategy.name, k), family(strategy), self.sweeps, dt)
                if score:
                    self._check_and_score(mods, net, ev, strategy, tm, dist, m)

    def _check_and_score(self, mods, net, ev, strategy, tm, dist, m):
        for label, mat in tm.moves:
            rows = np.asarray(mat.sum(axis=1)).ravel()
            m.check(bool(np.all(np.abs(rows - 1.0) <= 1e-12)) and mat.min() >= 0.0,
                    f"{strategy.name} kernel {label[0]} is not row-stochastic")
        m.check(float(np.max(np.abs(tm.apply_sweep(tm.pi) - tm.pi))) <= 1e-10,
                f"{strategy.name}: apply_sweep(pi) differs from pi")
        flow = mods["flow"]
        clamp = flow.clamp_pass(net, ev) if strategy.clamp else flow.no_clamp(net, ev)
        target_ev = dict(ev, **{nid: False for nid in clamp.clamped_false})
        target = mods["exact"].exact_posteriors(net, target_ev)
        bits = np.array(tm.states, dtype=float)
        if not strategy.clamp:
            margs = bits.T @ tm.pi
            m.check(all(abs(margs[k] - target[nid]) <= 1e-10
                        for k, nid in enumerate(tm.node_order)),
                    f"{strategy.name}: stationary marginals differ from exact_posteriors")
        est = dict(zip(tm.node_order, (bits.T @ dist).tolist()))
        m.score(strategy.name, est, {nid: target[nid] for nid in tm.node_order},
                mods["bench"].error_count, mods["bench"].DEFAULT_EPSILON_FLOOR)

    def finish(self, m):
        if self.first is None:
            m.check(False, "exact-oracle scored rounds did not complete")
            return {}, {}
        inputs, net, ev, post = self.first
        m.check(inputs["mods"]["exact"].exact_posteriors(net, ev) == post,
                "repeated exact_posteriors differs")
        ms = sorted(self.matrix_s)
        return {
            "exact_states_per_s": self.states / self.exact_s,
            "matrix_s.p50": ms[len(ms) // 2],
        }, {}


WORKLOADS = {w.name: w for w in (Fixture60, SmallLayered, ExactOracle)}
