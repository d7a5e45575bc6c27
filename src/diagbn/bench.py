"""Strategy comparison harness: run a grid of (strategy, case, repetition)
chains against ground truth and report mean error counts per checkpoint.

Accuracy is judged per model node with a truth-dependent tolerance band
sqrt(t(1-t))/5, floored so that truths near 0 or 1 do not demand the
impossible of a finite sampler. Timing is reported two ways: a measured
wall-clock ratio for humans, and a deterministic per-move cost ratio that
keeps report files byte-stable across machines.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .exact import exact_posteriors
from .generate import cases_from_jsonable
from .network import MODEL, STRICT, parse_network
from .sampler import PRESETS, StrategySpec, derive_seed, run_chain

DEFAULT_EPSILON_FLOOR = 0.01


def error_count(estimates: dict, truths: dict, epsilon_floor: float = DEFAULT_EPSILON_FLOOR) -> int:
    """Count nodes whose estimate misses the truth-dependent accuracy band.

    The band is max(sqrt(t(1-t))/5, epsilon_floor) and the bound is
    inclusive: landing exactly on it is accurate.
    """
    if epsilon_floor < 0:
        raise ValueError("epsilon_floor must be nonnegative")
    if set(estimates) != set(truths):
        only_e = sorted(set(estimates) - set(truths))
        only_t = sorted(set(truths) - set(estimates))
        raise ValueError(f"node mismatch: estimates-only {only_e}, truths-only {only_t}")
    errors = 0
    for nid, truth in truths.items():
        bound = max(math.sqrt(truth * (1.0 - truth)) / 5.0, epsilon_floor)
        if abs(estimates[nid] - truth) > bound:
            errors += 1
    return errors


@dataclass
class ExperimentConfig:
    net: object
    cases: list
    strategies: list
    checkpoints: list
    repetitions: int
    seed: int
    truths: list = None  # one truth map per case; None -> exact enumeration
    epsilon_floor: float = DEFAULT_EPSILON_FLOOR
    baseline: str = None  # None -> the first strategy
    burn_in: int = 0

    def resolve_strategy(self, name) -> StrategySpec:
        if name not in PRESETS:
            raise ValueError(f"unknown strategy {name!r}; presets: {sorted(PRESETS)}")
        return PRESETS[name]

    def check(self):
        """Reject a grid that cannot run, would score burn-in sweeps, names
        a baseline it does not run, has no finite nonnegative accuracy floor,
        or lacks a truth for a scored node."""
        if not self.strategies:
            raise ValueError("need at least one strategy")
        if len(set(self.strategies)) != len(self.strategies):
            raise ValueError(f"strategies listed more than once: {self.strategies}")
        for name in self.strategies:
            self.resolve_strategy(name)
        if self.baseline is not None and self.baseline not in self.strategies:
            raise ValueError(
                f"baseline {self.baseline!r} is not one of the strategies {self.strategies}"
            )
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        # max(band, nan) is the band, and an infinite floor accepts every
        # estimate; neither writes valid JSON
        if not (math.isfinite(self.epsilon_floor) and self.epsilon_floor >= 0):
            raise ValueError(f"epsilon_floor must be finite and nonnegative, got {self.epsilon_floor!r}")
        if not self.checkpoints:
            raise ValueError("need at least one checkpoint")
        if len(set(self.checkpoints)) != len(self.checkpoints):
            raise ValueError(f"checkpoints listed more than once: {self.checkpoints}")
        early = [c for c in self.checkpoints if c <= self.burn_in]
        if early:
            raise ValueError(
                f"checkpoints {early} do not come after the {self.burn_in} burn-in sweeps"
            )
        if self.truths is None:
            return
        if len(self.truths) != len(self.cases):
            raise ValueError(
                f"truth file covers {len(self.truths)} cases but config lists {len(self.cases)}"
            )
        for k, (case, truth) in enumerate(zip(self.cases, self.truths)):
            missing = [nid for nid in _scored_nodes(self.net, case) if nid not in truth]
            if missing:
                raise ValueError(f"truth for case {k} lacks scored nodes {missing}")


def _scored_nodes(net, case) -> list:
    """The model nodes a case leaves unobserved, in network order."""
    return [nid for j, nid in enumerate(net.ids) if net.kind[j] == MODEL and nid not in case.evidence]


_REQUIRED_KEYS = ("network", "cases", "strategies", "checkpoints", "repetitions", "seed")
# what each config key must be when present, and a test of its JSON type
_KEY_TYPES = [
    ("a file path", ("network", "cases"), lambda v: type(v) is str),
    ("a file path or null", ("truth",), lambda v: v is None or type(v) is str),
    ("a list of preset names", ("strategies",), lambda v: type(v) is list and all(type(s) is str for s in v)),
    ("a list of integers", ("checkpoints",), lambda v: type(v) is list and all(type(c) is int for c in v)),
    ("an integer", ("repetitions", "seed", "burn_in"), lambda v: type(v) is int),
    ("a number", ("epsilon_floor",), lambda v: type(v) in (int, float)),
    ("a preset name", ("baseline",), lambda v: type(v) is str),
]


def load_config(path: str) -> ExperimentConfig:
    """Read a benchmark config JSON; file paths resolve against its directory."""
    with open(path) as fh:
        raw = json.load(fh)
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    missing = [key for key in _REQUIRED_KEYS if not isinstance(raw, dict) or key not in raw]
    if missing:
        raise ValueError(f"config {path} lacks the required keys {missing}")
    for what, keys, ok in _KEY_TYPES:
        for key in keys:
            if key in raw and not ok(raw[key]):
                raise ValueError(f"config key {key!r} must be {what}, got {raw[key]!r}")
    with open(resolve(raw["network"])) as fh:
        net = parse_network(fh.read(), profile=STRICT)
    with open(resolve(raw["cases"])) as fh:
        cases = cases_from_jsonable(json.load(fh), net)
    truths = None
    if raw.get("truth"):
        with open(resolve(raw["truth"])) as fh:
            tr = json.load(fh)
        if not isinstance(tr, dict) or "cases" not in tr:
            raise ValueError(f"truth file {raw['truth']} lacks the required key 'cases'")
        if type(tr["cases"]) is not list or not all(
            type(c) is dict and all(type(v) in (int, float) for v in c.values()) for c in tr["cases"]
        ):
            raise ValueError(f"truth file {raw['truth']}: 'cases' must map node ids to numbers")
        truths = [{str(k): float(v) for k, v in per_case.items()} for per_case in tr["cases"]]
    cfg = ExperimentConfig(
        net=net,
        cases=cases,
        strategies=list(raw["strategies"]),
        checkpoints=sorted(int(c) for c in raw["checkpoints"]),
        repetitions=int(raw["repetitions"]),
        seed=int(raw["seed"]),
        truths=truths,
        epsilon_floor=float(raw.get("epsilon_floor", DEFAULT_EPSILON_FLOOR)),
        baseline=raw.get("baseline"),
        burn_in=int(raw.get("burn_in", 0)),
    )
    cfg.check()
    return cfg


@dataclass
class Report:
    strategies: list
    checkpoints: list
    mean_errors: dict  # strategy -> [mean error count per checkpoint]
    cost_ratio: dict  # strategy -> deterministic move-cost ratio vs baseline
    time_ratio: dict  # strategy -> measured wall-clock ratio vs baseline (never serialized)
    seconds: dict  # strategy -> absolute wall seconds (never serialized)
    baseline: str
    seed: int
    repetitions: int
    n_cases: int
    epsilon_floor: float
    n_scored_nodes: int

    def to_jsonable(self) -> dict:
        """The deterministic part of the report; wall time stays out."""
        return {
            "baseline": self.baseline,
            "checkpoints": self.checkpoints,
            "cost_ratio": {k: self.cost_ratio[k] for k in self.strategies},
            "epsilon_floor": self.epsilon_floor,
            "mean_errors": {k: self.mean_errors[k] for k in self.strategies},
            "n_cases": self.n_cases,
            "n_scored_nodes": self.n_scored_nodes,
            "repetitions": self.repetitions,
            "seed": self.seed,
            "seed_rule": "cell seed = derive_seed(seed, strategy, case_index, repetition)",
            "strategies": self.strategies,
        }


def _case_truths(config) -> list:
    if config.truths is not None:
        return config.truths
    return [exact_posteriors(config.net, case.evidence) for case in config.cases]


def run_experiment(config: ExperimentConfig) -> Report:
    """Run the full strategy grid and aggregate error counts.

    Scoring covers model nodes not fixed by evidence in a case. Each cell
    (strategy, case, repetition) gets its own derived seed, so the grid can
    be reordered or parallelized without changing any number.
    """
    config.check()
    net = config.net
    truths = _case_truths(config)
    n_model = net.kind.count(MODEL)
    sweeps = max(config.checkpoints)
    errors = {s: [0.0] * len(config.checkpoints) for s in config.strategies}
    seconds = {s: 0.0 for s in config.strategies}
    cost = {s: 0 for s in config.strategies}
    cells = len(config.cases) * config.repetitions
    for name in config.strategies:
        strategy = config.resolve_strategy(name)
        for case_idx, case in enumerate(config.cases):
            scored = _scored_nodes(net, case)
            truth = {nid: truths[case_idx][nid] for nid in scored}
            for rep in range(config.repetitions):
                cell_seed = derive_seed(config.seed, name, case_idx, rep)
                result = run_chain(
                    net,
                    case.evidence,
                    strategy,
                    sweeps=sweeps,
                    seed=cell_seed,
                    burn_in=config.burn_in,
                    checkpoints=config.checkpoints,
                )
                seconds[name] += result.seconds
                cost[name] += result.cost
                for ci, ck in enumerate(config.checkpoints):
                    est = {nid: result.checkpoint_estimates[ck][nid] for nid in scored}
                    errors[name][ci] += error_count(est, truth, config.epsilon_floor)
        errors[name] = [round(e / cells, 6) for e in errors[name]]
    base = config.strategies[0] if config.baseline is None else config.baseline
    time_ratio = {
        s: (seconds[s] / seconds[base]) if seconds[base] > 0 else float("nan")
        for s in config.strategies
    }
    cost_ratio = {s: round(cost[s] / cost[base], 6) for s in config.strategies}
    return Report(
        strategies=list(config.strategies),
        checkpoints=list(config.checkpoints),
        mean_errors=errors,
        cost_ratio=cost_ratio,
        time_ratio=time_ratio,
        seconds=seconds,
        baseline=base,
        seed=config.seed,
        repetitions=config.repetitions,
        n_cases=len(config.cases),
        epsilon_floor=config.epsilon_floor,
        n_scored_nodes=n_model,
    )


def render_table(report: Report) -> str:
    """Plain-text comparison table: one strategy per row, its measured
    wall-clock ratio to the baseline (Time), then its mean error count at
    each sweep checkpoint.  The table is the only place wall time shows."""
    header = ["Strategy", "Time"] + [str(c) for c in report.checkpoints]
    rows = []
    for s in report.strategies:
        row = [s, f"{report.time_ratio[s]:.2f}"] + [f"{e:.1f}" for e in report.mean_errors[s]]
        rows.append(row)
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    lines = []
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines) + "\n"
