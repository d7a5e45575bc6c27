"""Command-line front end.

Subcommands: sample (MCMC posteriors), exact (enumeration posteriors),
analyze (clamp sets and flow classification), gen (synthetic networks and
cases), bench (strategy comparison grid). All JSON outputs are written
with sorted keys and a trailing newline so identical inputs and seeds
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .bench import load_config, render_table, run_experiment
from .exact import exact_posteriors
from .flow import clamp_pass, classify_flow
from .generate import GeneratorParams, cases_to_jsonable, generate_cases, generate_network
from .network import PERMISSIVE, STRICT, parse_evidence, parse_network, serialize_network
from .sampler import PRESETS, sample_posteriors


def _dump_json(obj, path):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_network(path, profile):
    with open(path) as fh:
        return parse_network(fh.read(), profile=profile)


def _load_evidence(path, net):
    with open(path) as fh:
        return parse_evidence(fh.read(), net)


def _cmd_sample(args):
    net = _load_network(args.network, STRICT)
    ev = _load_evidence(args.evidence, net)
    if args.strategy not in PRESETS:
        raise ValueError(f"unknown strategy {args.strategy!r}; presets: {sorted(PRESETS)}")
    marginals = sample_posteriors(
        net,
        ev,
        PRESETS[args.strategy],
        sweeps=args.sweeps,
        seed=args.seed,
        burn_in=args.burn_in,
        chains=args.chains,
    )
    _dump_json(
        {
            "marginals": marginals,
            "meta": {
                "burn_in": args.burn_in,
                "chains": args.chains,
                "seed": args.seed,
                "strategy": args.strategy,
                "sweeps": args.sweeps,
            },
        },
        args.out,
    )


def _cmd_exact(args):
    net = _load_network(args.network, PERMISSIVE)
    ev = _load_evidence(args.evidence, net)
    marginals = exact_posteriors(net, ev, cap=args.cap)
    _dump_json({"marginals": marginals}, args.out)


def _cmd_analyze(args):
    net = _load_network(args.network, STRICT)
    ev = _load_evidence(args.evidence, net)
    clamp = clamp_pass(net, ev)
    flow = classify_flow(net, ev, clamp)
    doc = {
        "clamped_false": sorted(clamp.clamped_false),
        "evidence": {nid: bool(v) for nid, v in sorted(ev.items())},
        "flow": {
            nid: {
                "conditioning_set": sorted(info.conditioning_set),
                "evidential_children": list(info.evidential_children),
                "status": info.status,
            }
            for nid, info in sorted(flow.items())
        },
        "unclamped": sorted(clamp.unclamped),
    }
    _dump_json(doc, args.out)


def _cmd_gen(args):
    params = GeneratorParams(
        n_model=args.models,
        n_sensory=args.sensors,
        n_links=args.links,
        prior_range=tuple(args.prior_range),
        link_range=tuple(args.link_range),
        sensory_leak_range=tuple(args.sensory_leak_range),
        layering=args.layering,
        depth=args.depth,
        competing_fraction=args.competing_fraction,
        seed=args.seed,
    )
    net = generate_network(params)
    # draw the cases before writing anything, so a request that fails writes nothing
    cases = None
    if args.cases:
        if not args.cases_out:
            raise ValueError("--cases requires --cases-out")
        cases = generate_cases(
            net,
            args.cases,
            tuple(args.evidence_range),
            tuple(args.positive_range),
            seed=args.cases_seed if args.cases_seed is not None else args.seed + 1,
        )
    with open(args.out, "w") as fh:
        fh.write(serialize_network(net))
    if cases is not None:
        _dump_json(cases_to_jsonable(cases), args.cases_out)


def _cmd_bench(args):
    config = load_config(args.config)
    if args.epsilon_floor is not None:
        # floor 0 recovers the bare variance-based accuracy band
        config = dataclasses.replace(config, epsilon_floor=args.epsilon_floor)
    report = run_experiment(config)
    sys.stdout.write(render_table(report))
    _dump_json(report.to_jsonable(), args.out)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="diagnose",
        description="MCMC and exact inference for noisy-or diagnostic networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="estimate posteriors by MCMC")
    p.add_argument("--network", required=True)
    p.add_argument("--evidence", required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--sweeps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=0)
    p.add_argument("--chains", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("exact", help="posteriors by brute-force enumeration")
    p.add_argument("--network", required=True)
    p.add_argument("--evidence", required=True)
    p.add_argument("--cap", type=int, default=22)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("analyze", help="print clamp sets and flow classification")
    p.add_argument("--network", required=True)
    p.add_argument("--evidence", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("gen", help="generate a synthetic diagnostic network")
    p.add_argument("--models", type=int, required=True)
    p.add_argument("--sensors", type=int, required=True)
    p.add_argument("--links", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--layering", choices=["two-layer", "layered-causal"], default="two-layer")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--competing-fraction", type=float, default=0.5)
    p.add_argument("--prior-range", type=float, nargs=2, default=[0.001, 0.05])
    p.add_argument("--link-range", type=float, nargs=2, default=[0.2, 0.9])
    p.add_argument("--sensory-leak-range", type=float, nargs=2, default=[0.001, 0.01])
    p.add_argument("--cases", type=int, default=0, help="also draw this many test cases")
    p.add_argument("--cases-out")
    p.add_argument("--cases-seed", type=int)
    p.add_argument("--evidence-range", type=int, nargs=2, default=[4, 20])
    p.add_argument("--positive-range", type=int, nargs=2, default=[2, 9])
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="run a strategy comparison experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epsilon-floor", type=float, default=None,
                   help="override the config's accuracy-band floor")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
