"""The records diagbn returns and takes: named tuples and small classes.

Each is built positionally or by keyword with the same defaults, equals
one built from equal fields and not one with a field changed, and, but
for `TransitionMatrix`, refuses to be changed.  `StrategySpec` checks its
move policy and rule however it is built, a copy or an unpickled one
included.
"""

import copy
import pickle

import numpy as np
import pytest

from diagbn.bench import Report
from diagbn.exact import TransitionMatrix
from diagbn.flow import ClampResult, FlowInfo
from diagbn.generate import LAYERED_CAUSAL, TWO_LAYER, GeneratorParams
from diagbn.generate import TestCase as Case
from diagbn.sampler import GIBBS, METROPOLIS, PRESETS, SINGLE_SITE, ChainResult, StrategySpec

REPORT = dict(
    strategies=["gibbs"], checkpoints=[10], mean_errors={"gibbs": [1.0]}, cost_ratio={"gibbs": 1.0},
    time_ratio={"gibbs": 1.0}, seconds={"gibbs": 0.5}, baseline="gibbs", seed=3, repetitions=1,
    n_cases=1, epsilon_floor=0.01, n_scored_nodes=2,
)

SPEC_FIELDS = ("name", "clamp", "flow_aware", "move_policy", "rule")
# (record, its fields in order, values for them, a field and another value for it)
RECORDS = [
    (ClampResult, ("clamped_false", "unclamped"), (frozenset({"a"}), frozenset({"b"})),
     "unclamped", frozenset()),
    (FlowInfo, ("status", "evidential_children", "conditioning_set"),
     ("forward-sampled", (), frozenset({"a"})), "status", "clamped"),
    (GeneratorParams,
     ("n_model", "n_sensory", "n_links", "prior_range", "link_range", "sensory_leak_range",
      "layering", "depth", "competing_fraction", "seed"),
     (5, 3, 8, (0.01, 0.1), (0.3, 0.8), (0.002, 0.02), LAYERED_CAUSAL, 2, 0.7, 4), "seed", 5),
    (Case, ("evidence", "n_positive"), ({"s1": True}, 1), "n_positive", 2),
    (StrategySpec, SPEC_FIELDS, ("x", True, False, SINGLE_SITE, GIBBS), "rule", METROPOLIS),
    (ChainResult, ("checkpoint_estimates", "cost", "seconds"), ({10: {"a": 0.5}}, 40, 0.25),
     "cost", 41),
    (Report, tuple(REPORT), tuple(REPORT.values()), "seed", 4),
]


@pytest.mark.parametrize("record, fields, values, field, other", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_builds_compares_and_stays_put(record, fields, values, field, other):
    assert not hasattr(record, "__dataclass_fields__")
    assert record.__doc__
    by_position = record(*values)
    by_keyword = record(**dict(zip(fields, values)))
    assert [getattr(by_position, f) for f in fields] == list(values)
    assert by_position == by_keyword and not by_position != by_keyword
    if record in (ClampResult, FlowInfo, GeneratorParams, StrategySpec):  # all fields hashable
        assert hash(by_position) == hash(by_keyword)
    changed = record(**dict(zip(fields, values), **{field: other}))
    assert changed != by_position
    assert record.__name__ in repr(by_position)
    with pytest.raises(AttributeError):
        setattr(by_position, field, other)
    with pytest.raises(AttributeError):
        delattr(by_position, field)
    assert getattr(by_position, field) == values[fields.index(field)]


def test_generator_params_defaults():
    params = GeneratorParams(30, 12, 80)
    assert params == GeneratorParams(
        n_model=30, n_sensory=12, n_links=80, prior_range=(0.001, 0.05), link_range=(0.2, 0.9),
        sensory_leak_range=(0.001, 0.01), layering=TWO_LAYER, depth=3, competing_fraction=0.5,
        seed=0,
    )
    with pytest.raises(TypeError):
        GeneratorParams(30, 12)


@pytest.mark.parametrize("build", [
    lambda *values: StrategySpec(*values),
    lambda *values: StrategySpec(**dict(zip(SPEC_FIELDS, values))),
])
def test_strategy_spec_checks_every_construction(build):
    with pytest.raises(ValueError, match="unknown move policy 'swap-everything'"):
        build("bad", False, False, "swap-everything", GIBBS)
    with pytest.raises(ValueError, match="unknown rule 'gibs'"):
        build("x", False, False, SINGLE_SITE, "gibs")


def test_strategy_spec_copies_are_built_and_checked():
    for spec in PRESETS.values():
        for clone in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
            assert clone == spec and type(clone) is StrategySpec
            assert (clone.pair_move, clone.cover_gated) == (spec.pair_move, spec.cover_gated)
    # no namedtuple-style copy with changed fields skips the checks
    assert not hasattr(StrategySpec, "_replace") and not hasattr(StrategySpec, "_make")
    # a pickle whose rule was altered on disk is rebuilt through the checks
    blob = pickle.dumps(PRESETS["metropolis"])
    with pytest.raises(ValueError, match="unknown rule 'metropoliz'"):
        pickle.loads(blob.replace(b"metropolis", b"metropoliz"))


def test_transition_matrix_builds_and_compares_by_fields():
    fields = ("node_order", "states", "pi", "moves", "sweep_stages")
    pi = np.array([0.25, 0.75])
    values = (("a",), [(0,), (1,)], pi, [], [])
    by_position = TransitionMatrix(*values)
    by_keyword = TransitionMatrix(**dict(zip(fields, values)))
    assert [getattr(by_position, f) for f in fields] == list(values)
    assert by_position == by_keyword
    assert TransitionMatrix(("b",), *values[1:]) != by_position
    assert TransitionMatrix.__doc__
    assert not hasattr(TransitionMatrix, "__dataclass_fields__")
