#!/usr/bin/env python3
"""Build the committed benchmark: network, cases, exact truth, config.

The benchmark network has 60 model and 30 sensory nodes and 200 links.
Each case's truths are exact posteriors from `exact_posteriors`, a
junction tree over min-fill cliques.  It runs whichever plan costs less:
the tree over every free node, or the tree over the evidence's ancestors
with each barren node read from one more collect pass.  Cases 0, 2 and 3
take the pruned plan, case 0 although its full tree, 21 nodes wide, is
under the default cap of 22.  No node is clamped or estimated.

Run from the repository root:  python3 scripts/make_benchmark.py
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from diagbn.exact import exact_posteriors
from diagbn.generate import GeneratorParams, cases_to_jsonable, generate_cases, generate_network
from diagbn.network import serialize_network

NET_SEED = 11
CASES_SEED = 12
BENCH_SEED = 20260822

PARAMS = GeneratorParams(
    n_model=60,
    n_sensory=30,
    n_links=200,
    prior_range=(0.001, 0.03),
    link_range=(0.5, 0.95),
    sensory_leak_range=(0.0005, 0.005),
    layering="layered-causal",
    depth=3,
    competing_fraction=0.7,
    seed=NET_SEED,
)


def main():
    out_dir = os.path.join(os.path.dirname(__file__), "..", "tests", "data")
    os.makedirs(out_dir, exist_ok=True)

    net = generate_network(PARAMS)
    with open(os.path.join(out_dir, "bench_net.json"), "w") as fh:
        fh.write(serialize_network(net))

    cases = generate_cases(net, 5, (4, 20), (2, 9), seed=CASES_SEED)
    with open(os.path.join(out_dir, "bench_cases.json"), "w") as fh:
        fh.write(json.dumps(cases_to_jsonable(cases), indent=2, sort_keys=True) + "\n")
    print("cases:", [(len(c.evidence), c.n_positive) for c in cases], flush=True)

    truths = []
    for idx, case in enumerate(cases):
        t0 = time.time()
        truths.append(dict(sorted(exact_posteriors(net, case.evidence).items())))
        print(f"case {idx}: {time.time() - t0:.2f}s", flush=True)

    truth_doc = {
        "exact": True,
        "method": {
            "function": "diagbn.exact.exact_posteriors, default cap",
            "note": "exact posteriors from a calibrated junction tree over "
            "min-fill cliques; every value is the float it returns",
        },
        "cases": truths,
    }
    with open(os.path.join(out_dir, "bench_truth.json"), "w") as fh:
        fh.write(json.dumps(truth_doc, indent=2, sort_keys=True) + "\n")

    config = {
        "network": "bench_net.json",
        "cases": "bench_cases.json",
        "truth": "bench_truth.json",
        "strategies": [
            "gibbs",
            "gibbs-clamp",
            "gibbs-flow",
            "metropolis",
            "optimized-random",
            "optimized-fwd-bwd",
        ],
        "checkpoints": [5, 500, 1000, 2000],
        "repetitions": 20,
        "seed": BENCH_SEED,
        "epsilon_floor": 0.01,
        "baseline": "gibbs",
    }
    with open(os.path.join(out_dir, "bench_config.json"), "w") as fh:
        fh.write(json.dumps(config, indent=2, sort_keys=True) + "\n")
    print("done", flush=True)


if __name__ == "__main__":
    main()
