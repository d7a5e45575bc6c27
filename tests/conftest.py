import json
import os
import time

import pytest

from diagbn.bench import load_config, run_experiment
from diagbn.generate import GeneratorParams, generate_network
from diagbn.network import build_network

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# Frozen reference numbers for the broken-vase fixture with v observed true,
# verified by hand against the four enumerated joint weights:
#   (e,b) = (1,0): 0.01 * 0.98 * 0.9001   = 0.00882098
#   (0,1): 0.99 * 0.02 * 0.8002           = 0.01584396
#   (1,1): 0.01 * 0.02 * 0.98002          = 0.000196004
#   (0,0): 0.99 * 0.98 * 0.001            = 0.0009702
VASE_WEIGHTS = {
    (1, 0): 0.00882098,
    (0, 1): 0.01584396,
    (1, 1): 0.000196004,
    (0, 0): 0.0009702,
}
VASE_NORMALIZER = 0.025831144  # P(v = 1), the sum of the four weights
VASE_P_E = 0.3490741254045891  # P(e=1 | v=1)
VASE_P_B = 0.6209544571467682  # P(b=1 | v=1)
VASE_P_E_GIVEN_B0 = 0.9009108197377641  # P(e=1 | b=0, v=1)
VASE_BLOCK_DIST = {  # transition target over (e,b) given v=1
    (1, 0): 0.34148623072985074,
    (0, 1): 0.6133665624720299,
    (1, 1): 0.00758789467473837,
    (0, 0): 0.03755931212338098,
}
VASE_SWAP_GIBBS = 0.6423676684394936  # P(move) from (1,0) to (0,1), Gibbs rule
VASE_SWAP_RATIO = 1.7961677727418044  # weight ratio (0,1)/(1,0)


def underflow_problem(s_value):
    """45 parents with leak 0.99 drive s through p = 1 - 1e-8 links, so s's
    survival underflows to 0.0 while they are on; one of them drives t,
    which is observed true.  s is unobserved (s_value None), as in the
    benchmark's underflow network, or observed."""
    nodes = [(f"m{i:02d}", "model", 0.99) for i in range(1, 46)]
    nodes += [("s", "sensory", 0.001), ("t", "sensory", 0.001)]
    edges = [(f"m{i:02d}", "s", 1 - 1e-8) for i in range(1, 46)] + [("m01", "t", 0.5)]
    ev = {"t": True} if s_value is None else {"s": s_value, "t": True}
    return build_network(nodes, edges), ev


def pair_underflow_problem():
    """40 parents with leak 0.99 drive s through p = 1 - 1e-12 links, and s
    drives u with p = 0.5; s is observed false and u true.  With the
    parents on, s's survival underflows to 0.0, so a pair move on two of
    them over s weighs every joint state 0.0 from the caches."""
    nodes = [(f"m{i:02d}", "model", 0.99) for i in range(40)]
    nodes += [("s", "sensory", 0.001), ("u", "sensory", 0.001)]
    edges = [(f"m{i:02d}", "s", 1 - 1e-12) for i in range(40)] + [("s", "u", 0.5)]
    return build_network(nodes, edges), {"s": False, "u": True}


def tiny_leak_problem():
    """m (leak 0.5) drives s (leak 1e-17) with p = 0.5, and s is observed
    true.  1 - 1e-17 rounds to 1.0, so in floats s is never on while m is
    off, a zero-probability state the strict profile must not let in."""
    net = build_network([("m", "model", 0.5), ("s", "sensory", 1e-17)], [("m", "s", 0.5)])
    return net, {"s": True}


def backward_tail_problem():
    """The network `diagnose gen --models 6 --sensors 4 --links 12 --seed 3`
    writes, with s1 observed true and s2 false.  A flow-aware chain
    forward-samples s3 and s4, which under the alternating schedule are
    redrawn on forward passes, the even sweeps, only."""
    net = generate_network(GeneratorParams(n_model=6, n_sensory=4, n_links=12, seed=3))
    return net, {"s1": True, "s2": False}


def wide_finding_problem(n):
    """n models linked at p = 0.5 to one finding observed true, so the
    junction tree has one table over all n."""
    nodes = [(f"m{i:02d}", "model", 0.1) for i in range(n)] + [("s", "sensory", 0.01)]
    return build_network(nodes, [(f"m{i:02d}", "s", 0.5) for i in range(n)]), {"s": True}


@pytest.fixture
def tables_past_memory(monkeypatch):
    """np.zeros refuses arrays of more than 30 axes, as numpy does an
    allocation past the host's memory, so none is tried for real."""
    import numpy as np

    zeros = np.zeros

    def refuse_wide(shape, *args, **kwargs):
        if len(shape) > 30:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", refuse_wide)


@pytest.fixture
def vase():
    return build_network(
        [("e", "model", 0.01), ("b", "model", 0.02), ("v", "sensory", 0.001)],
        [("e", "v", 0.9), ("b", "v", 0.8)],
    )


@pytest.fixture
def vase_files(tmp_path, vase):
    from diagbn.network import serialize_network

    net_path = tmp_path / "vase.json"
    net_path.write_text(serialize_network(vase))
    ev_path = tmp_path / "ev.json"
    ev_path.write_text(json.dumps({"v": True}) + "\n")
    return str(net_path), str(ev_path)


@pytest.fixture(scope="session")
def bench_run():
    """The committed benchmark grid, run once per session: (report, seconds)."""
    config = load_config(os.path.join(DATA_DIR, "bench_config.json"))
    t0 = time.perf_counter()
    report = run_experiment(config)
    elapsed = time.perf_counter() - t0
    return report, elapsed
