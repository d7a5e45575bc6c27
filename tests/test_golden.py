"""Golden hash of whole chains: every preset's output, bit for bit.

A pure speed-up of the sampler must not move a single RNG draw, credit or
cost unit.  The full benchmark report shows such a shift only after minutes;
this test pins one sha256 over the exact floats that a handful of short
chains produce, so the same shift fails here in about a second.

If a change moves the chains on purpose, recompute the hash with
`python3 tests/test_golden.py` (with `src` on PYTHONPATH) and say why in the
change log.

A slow test pins the committed grid's JSON report too, byte for byte; it
reads the grid run that acceptance criteria 7 and 8 share.
"""

import hashlib
import json
import os

import pytest

from diagbn import generate as gen
from diagbn.network import parse_network
from diagbn.sampler import PRESETS, run_chain, sample_posteriors

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# small layered explaining-away networks, whose child-true gates open and
# shut often, generator seeds 0, 4 and 8
LAYERED = dict(
    n_model=9,
    n_sensory=5,
    n_links=24,
    prior_range=(0.02, 0.2),
    link_range=(0.5, 0.95),
    layering="layered-causal",
    depth=3,
    competing_fraction=0.8,
)
LAYERED_SEEDS = (0, 4, 8)
SWEEPS = 300
GOLDEN_SHA256 = "a1afd7bc6d540f01ed192ff8a38e061cad9c965438d6ebeba79575b29f27aab1"
# sha256 of the committed grid's JSON report, as
# `diagnose bench --config tests/data/bench_config.json --out report.json` writes it
REPORT_SHA256 = "62d0714a4a8cfa38cac624b8cb1799057ba86dad2e98e1f55b2f17dfcc4c7721"


def golden_record() -> list:
    record = []
    for gs in LAYERED_SEEDS:
        net = gen.generate_network(gen.GeneratorParams(seed=gs, **LAYERED))
        ev = gen.generate_cases(net, 3, (3, 5), (1, 4), seed=gs + 100)[0].evidence
        for name, strategy in PRESETS.items():
            est = sample_posteriors(net, ev, strategy, SWEEPS, seed=gs * 31 + 7, burn_in=30, chains=2)
            record.append(["layered", gs, name, est])
    with open(os.path.join(DATA_DIR, "bench_net.json")) as fh:
        net = parse_network(fh.read())
    with open(os.path.join(DATA_DIR, "bench_cases.json")) as fh:
        ev = json.load(fh)[0]["evidence"]
    for name, strategy in PRESETS.items():
        res = run_chain(net, ev, strategy, SWEEPS, seed=20260822, burn_in=20, checkpoints=(5, 100, SWEEPS))
        final = res.checkpoint_estimates[SWEEPS]  # SWEEPS is a checkpoint: the chain's end
        record.append(["fixture", name, final, res.checkpoint_estimates, res.cost])
    return record


def golden_digest() -> str:
    # json writes floats with repr, which round-trips every bit
    blob = json.dumps(golden_record(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def test_chains_match_golden_hash():
    assert golden_digest() == GOLDEN_SHA256


@pytest.mark.slow
def test_grid_report_matches_hash(bench_run):
    report, _ = bench_run
    text = json.dumps(report.to_jsonable(), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256


if __name__ == "__main__":
    print(golden_digest())
