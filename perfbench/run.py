"""diagbn benchmark: one command, three workloads, end-to-end or traced.

    python3 perfbench/run.py --workload fixture60 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; diagbn is imported from its `src/`.  One
process makes one call at a time (closed loop, one caller).  The two scored
rounds always run; further rounds, each with new inputs, run until
--seconds have passed.  Times are reference seconds (see workloads.py).

--trace 0 prints the end-to-end metrics.  --trace 1 runs one round untraced
and traced in turn, prints the per-layer metrics and the tracing overhead,
and writes the spans to .perfbench_out/.  Human-readable `name = value unit`
lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "sweeps_per_s.single": "1/s",
    "sweeps_per_s.paired": "1/s",
    "chain_s.p50": "s",
    "chain_s.p90": "s",
}

PER_LAYER_UNITS = {
    "sampler.pair_nodes_us": "us",
    "sampler.pair_nodes.pairs_per_call": "count",
    "sampler.single_site_move_us": "us",
    "sampler.single_site_move.per_sweep": "count",
    "sampler.single_site_move.flip_ratio": "ratio",
    "sampler.forward_redraw_us": "us",
    "sampler.forward_redraw.per_sweep": "count",
    "sampler.swap_pair_move_us": "us",
    "sampler.swap_pair_move.per_sweep": "count",
    "sampler.swap_pair_move.identity_ratio": "ratio",
    "sampler.swap_pair_move.accept_ratio": "ratio",
    "sampler.block_pair_move_us": "us",
    "sampler.block_pair_move.per_sweep": "count",
    "sampler.block_pair_move.change_ratio": "ratio",
    "sampler.run_sweep.self_us": "us",
    "sampler.setup_chain_us": "us",
    "sampler.estimate_marginals_us": "us",
    "flow.clamp_pass_us": "us",
    "flow.classify_flow_us": "us",
    "network.parse_network_ms": "ms",
    "network.validate_ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.sample.underflow_failures": "count",
    "exact.exact_posteriors_us_per_state": "us",
    "exact.explicit_transition_matrix_ms": "ms",
    "exact.moves_per_matrix": "count",
    "exact.apply_sweep_ms": "ms",
    "bench.run_experiment.self_s": "s",
    "bench.error_count_us": "us",
    "bench.cost_wall_gap": "ratio",
    "generate.generate_network_ms": "ms",
    "generate.generate_cases_ms": "ms",
    "trace.overhead_frac": "ratio",
}

EXTRA_UNITS = {
    "machine.speed": "ratio",
    "max_abs_err": "prob",
    "errors_final": "count",
    "failed_frac": "ratio",
    "exact_states_per_s": "1/s",
    "matrix_s.p50": "s",
    "bench.cost_wall_gap": "ratio",
    "cli.sample.underflow_failures": "count",
    "fixture60.tests_data_matches_pin": "bool",
}


def environment():
    """Machine, library versions, commit and load, for the run record."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "loadavg": read_loadavg(),
    }


def read_loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def git_commit():
    """HEAD of the checkout's git directory, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(xs, q):
    """Nearest-rank percentile; 0 for no samples."""
    xs = sorted(xs)
    return xs[max(0, math.ceil(q * len(xs)) - 1)] if xs else 0.0


def end_to_end(m, setup_times):
    return {
        "setup_s": statistics.median(setup_times),
        "sweeps_per_s.single": m.sweeps_per_s("single"),
        "sweeps_per_s.paired": m.sweeps_per_s("paired"),
        "chain_s.p50": percentile(m.chain_seconds(), 0.5),
        "chain_s.p90": percentile(m.chain_seconds(), 0.9),
    }


def per_layer(tr, overhead, extra):
    count, total, self_time, ev = tr.count, tr.total, tr.self_time, tr.events

    def div(a, b):
        return a / b if b else 0.0

    def per_call(name, scale, times=total):
        return div(times[name] * scale, count[name])

    sweeps = count["sampler.run_sweep"]
    swaps = count["sampler.swap_pair_move"]
    out = {
        "sampler.pair_nodes_us": per_call("sampler.pair_nodes", 1e6),
        "sampler.pair_nodes.pairs_per_call": div(ev["pair_nodes.pairs"], count["sampler.pair_nodes"]),
        "sampler.run_sweep.self_us": per_call("sampler.run_sweep", 1e6, self_time),
        "sampler.setup_chain_us": per_call("sampler.setup_chain", 1e6),
        "sampler.estimate_marginals_us": per_call("sampler.estimate_marginals", 1e6),
        "flow.clamp_pass_us": per_call("flow.clamp_pass", 1e6),
        "flow.classify_flow_us": per_call("flow.classify_flow", 1e6),
        "network.parse_network_ms": per_call("network.parse_network", 1e3),
        "network.validate_ms": per_call("network.validate", 1e3),
        "cli.main.self_ms": per_call("cli.main", 1e3, self_time),
        "exact.exact_posteriors_us_per_state": div(
            total["exact.exact_posteriors"] * 1e6, ev["exact_posteriors.states"]),
        "exact.explicit_transition_matrix_ms": per_call("exact.explicit_transition_matrix", 1e3),
        "exact.moves_per_matrix": div(ev["explicit_transition_matrix.moves"],
                                      count["exact.explicit_transition_matrix"]),
        "exact.apply_sweep_ms": per_call("exact.apply_sweep", 1e3),
        "bench.run_experiment.self_s": per_call("bench.run_experiment", 1.0, self_time),
        "bench.error_count_us": per_call("bench.error_count", 1e6),
        "generate.generate_network_ms": per_call("generate.generate_network", 1e3),
        "generate.generate_cases_ms": per_call("generate.generate_cases", 1e3),
        "sampler.swap_pair_move.identity_ratio": div(ev["swap_pair_move.identity"], swaps),
        "sampler.swap_pair_move.accept_ratio": div(
            ev["swap_pair_move.accepted"], swaps - ev["swap_pair_move.identity"]),
        "sampler.single_site_move.flip_ratio": div(
            ev["single_site_move.flips"], count["sampler.single_site_move"]),
        "sampler.block_pair_move.change_ratio": div(
            ev["block_pair_move.changed"], count["sampler.block_pair_move"]),
        "trace.overhead_frac": overhead,
        "bench.cost_wall_gap": extra.get("bench.cost_wall_gap", 0.0),
        "cli.sample.underflow_failures": extra.get("cli.sample.underflow_failures", 0),
    }
    for move in ("single_site_move", "forward_redraw", "swap_pair_move", "block_pair_move"):
        out[f"sampler.{move}_us"] = per_call(f"sampler.{move}", 1e6)
        out[f"sampler.{move}.per_sweep"] = div(count[f"sampler.{move}"], sweeps)
    return {name: out[name] for name in PER_LAYER_UNITS}


def run(args):
    from spans import Tracer
    from workloads import SCORED_ROUNDS, WORKLOADS, Measure, import_diagbn, reference_time

    workload = WORKLOADS[args.workload]()
    workdir = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    env_start = environment()

    # set-up: import diagbn and make the scored rounds' inputs, several times
    def setup():
        mods = import_diagbn()
        return mods, [workload.make_inputs(mods, args.seed, r, workdir)
                      for r in range(SCORED_ROUNDS)]

    setup_times = []
    for _ in range(SETUP_REPEATS):
        (mods, scored), dt, _ = reference_time(setup)
        setup_times.append(dt)

    m = Measure()
    workload.start(m)
    t_start = time.perf_counter()
    for inputs in scored:
        workload.run_round(inputs, m, score=True)
    r = SCORED_ROUNDS
    if args.trace:
        # the same round untraced and traced, until both have run and time is up
        tracer = Tracer()
        with tracer:
            inputs = workload.make_inputs(mods, args.seed, r, workdir)
        # no probes in either, so that the two differ by the tracing alone
        plain, traced = Measure(probe=False), Measure(probe=False)
        wall = {False: [], True: []}
        while not wall[True] or time.perf_counter() - t_start < args.seconds:
            for on in (False, True):
                t0 = time.perf_counter()
                if on:
                    with tracer:
                        workload.run_round(inputs, traced, score=False)
                else:
                    workload.run_round(inputs, plain, score=False)
                wall[on].append(time.perf_counter() - t0)
        for name in ("attempted", "failed"):
            setattr(m, name, getattr(m, name) + getattr(plain, name) + getattr(traced, name))
        overhead = statistics.median(wall[True]) / statistics.median(wall[False]) - 1.0
        tracer.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json"))
    else:
        while time.perf_counter() - t_start < args.seconds:
            workload.run_round(workload.make_inputs(mods, args.seed, r, workdir), m, score=False)
            r += 1
    extra, detail = workload.finish(m)
    extra.update(m.accuracy())
    env_end = environment()
    shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, units = per_layer(tracer, overhead, extra), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(m, setup_times), END_TO_END_UNITS
    extra["failed_frac"] = m.failed / m.attempted
    extra["machine.speed"] = statistics.median(m.speeds)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{m.attempted} operations, {len(m.call_s)} timed posterior calls")
    print(f"env start {json.dumps(env_start, sort_keys=True)}")
    print(f"env end   loadavg {env_end['loadavg']}")
    for name, value in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {units[name]}")
    for name, value in sorted(extra.items()):
        if name not in metrics:
            print(f"{name} = {value:.6g} {EXTRA_UNITS[name]}")
    for name, scores in sorted(m.per_preset().items()):
        print(f"preset {name}: " + ", ".join(f"{k} = {v:.6g}" for k, v in scores.items()))
    if "time_ratio" in detail:
        for name in detail["time_ratio"]:
            print(f"preset {name}: cost_ratio = {detail['cost_ratio'][name]:.3f}, "
                  f"time_ratio = {detail['time_ratio'][name]:.3f}")
    if detail.get("underflow_failed"):
        print(f"underflow network: presets that failed: {', '.join(detail['underflow_failed'])}")
    for problem in m.problems:
        print(f"CHECK FAILED: {problem}")

    result = {
        "correct": not m.problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  env_start=env_start, env_end=env_end, extra=extra, detail=detail,
                  per_preset=m.per_preset(), problems=m.problems, scores=m.scores,
                  sweep_calls=m.sweep_calls, call_s=m.call_s)
    with open(os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps(result, sort_keys=True))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fixture60", "small-layered", "exact-oracle"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "diagbn", "__init__.py")):
        print(f"error: no diagbn package under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
