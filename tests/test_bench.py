import json
import os
import re

import pytest

from conftest import DATA_DIR, VASE_P_B, VASE_P_E
from diagbn.bench import (
    DEFAULT_EPSILON_FLOOR,
    ExperimentConfig,
    error_count,
    load_config,
    render_table,
    run_experiment,
)
from diagbn.cli import main
from diagbn.exact import exact_posteriors
from diagbn.generate import TestCase as Case
from diagbn.generate import cases_to_jsonable
from diagbn.network import serialize_network


class TestErrorCount:
    def test_band_is_inclusive_at_half(self):
        # truth 0.5: band = sqrt(0.25)/5 = 0.1, and landing on it is accurate
        assert error_count({"a": 0.4}, {"a": 0.5}) == 0
        assert error_count({"a": 0.6}, {"a": 0.5}) == 0
        assert error_count({"a": 0.39}, {"a": 0.5}) == 1

    def test_band_narrows_toward_certainty(self):
        # truth 0.9: band = sqrt(0.09)/5 = 0.06
        assert error_count({"a": 0.8}, {"a": 0.9}) == 1
        assert error_count({"a": 0.85}, {"a": 0.9}) == 0

    def test_floor_rescues_degenerate_truths(self):
        assert error_count({"a": 0.005}, {"a": 0.0}, epsilon_floor=0.01) == 0
        assert error_count({"a": 0.02}, {"a": 0.0}, epsilon_floor=0.01) == 1
        assert error_count({"a": 0.995}, {"a": 1.0}, epsilon_floor=0.01) == 0

    def test_zero_floor_demands_exactness_at_extremes(self):
        assert error_count({"a": 0.0}, {"a": 0.0}, epsilon_floor=0.0) == 0
        assert error_count({"a": 1e-9}, {"a": 0.0}, epsilon_floor=0.0) == 1

    def test_counts_accumulate_across_nodes(self):
        est = {"a": 0.1, "b": 0.9, "c": 0.5}
        tru = {"a": 0.5, "b": 0.9, "c": 0.1}
        assert error_count(est, tru) == 2

    def test_node_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            error_count({"a": 0.5}, {"b": 0.5})

    def test_negative_floor_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            error_count({"a": 0.5}, {"a": 0.5}, epsilon_floor=-0.1)

    def test_default_floor_value(self):
        assert DEFAULT_EPSILON_FLOOR == 0.01


def vase_config(vase, **overrides):
    kw = dict(
        net=vase,
        cases=[Case(evidence={"v": True}, n_positive=1)],
        strategies=["gibbs", "gibbs-clamp"],
        checkpoints=[50, 200],
        repetitions=3,
        seed=5,
    )
    kw.update(overrides)
    return ExperimentConfig(**kw)


class TestRunExperiment:
    def test_report_shape(self, vase):
        report = run_experiment(vase_config(vase))
        assert report.strategies == ["gibbs", "gibbs-clamp"]
        assert report.checkpoints == [50, 200]
        for s in report.strategies:
            assert len(report.mean_errors[s]) == 2
            assert all(0.0 <= e <= 2.0 for e in report.mean_errors[s])
        assert report.cost_ratio["gibbs"] == 1.0
        assert report.n_cases == 1
        assert report.repetitions == 3
        assert report.n_scored_nodes == 2

    def test_deterministic_report(self, vase):
        a = run_experiment(vase_config(vase)).to_jsonable()
        b = run_experiment(vase_config(vase)).to_jsonable()
        assert a == b

    def test_wall_time_kept_out_of_json_by_default(self, vase):
        report = run_experiment(vase_config(vase))
        plain = report.to_jsonable()
        assert "time_ratio" not in plain and "seconds" not in plain
        assert report.time_ratio["gibbs"] == 1.0

    def test_explicit_truths_match_enumeration_default(self, vase):
        exact = exact_posteriors(vase, {"v": True})
        a = run_experiment(vase_config(vase)).to_jsonable()
        b = run_experiment(vase_config(vase, truths=[exact])).to_jsonable()
        assert a == b

    def test_enumeration_truth_values(self, vase):
        post = exact_posteriors(vase, {"v": True})
        assert post["e"] == pytest.approx(VASE_P_E, abs=1e-12)
        assert post["b"] == pytest.approx(VASE_P_B, abs=1e-12)

    def test_missing_baseline_falls_back_to_first(self, vase):
        config = vase_config(vase, strategies=["metropolis", "gibbs-flow"])
        report = run_experiment(config)
        assert report.baseline == "metropolis"
        assert report.cost_ratio["metropolis"] == 1.0

    def test_unknown_strategy_raises(self, vase):
        config = vase_config(vase, strategies=["gibbs", "simulated-annealing"])
        with pytest.raises(ValueError, match="unknown strategy"):
            run_experiment(config)

    def test_checkpoints_inside_burn_in_rejected(self, vase):
        # a checkpoint at or before burn-in would score burn-in sweeps
        config = vase_config(vase, burn_in=50, checkpoints=[10, 50, 100])
        with pytest.raises(ValueError, match="burn-in"):
            run_experiment(config)

    def test_long_checkpoints_drive_errors_down(self, vase):
        config = vase_config(vase, checkpoints=[5, 2000], repetitions=5)
        report = run_experiment(config)
        for s in report.strategies:
            early, late = report.mean_errors[s]
            assert late <= early


class TestLoadConfig:
    def write_bundle(self, tmp_path, vase, truth=None, evidence=({"v": True},), **config_overrides):
        (tmp_path / "net.json").write_text(serialize_network(vase))
        cases = [Case(evidence=ev, n_positive=sum(ev.values())) for ev in evidence]
        (tmp_path / "cases.json").write_text(json.dumps(cases_to_jsonable(cases)))
        raw = {
            "network": "net.json",
            "cases": "cases.json",
            "strategies": ["gibbs", "metropolis"],
            "checkpoints": [100, 25],
            "repetitions": 2,
            "seed": 9,
        }
        if truth is not None:
            (tmp_path / "truth.json").write_text(json.dumps(truth))
            raw["truth"] = "truth.json"
        raw.update(config_overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def test_relative_paths_resolve_against_config_dir(self, tmp_path, vase):
        path = self.write_bundle(tmp_path, vase)
        config = load_config(path)
        assert config.net.ids == vase.ids
        assert len(config.cases) == 1
        assert config.checkpoints == [25, 100]  # sorted on load
        assert config.truths is None
        assert config.epsilon_floor == DEFAULT_EPSILON_FLOOR

    def test_truth_file_loaded_per_case(self, tmp_path, vase):
        truth = {"cases": [{"e": 0.349, "b": 0.621, "v": 1.0}]}
        config = load_config(self.write_bundle(tmp_path, vase, truth=truth))
        assert config.truths == [{"e": 0.349, "b": 0.621, "v": 1.0}]

    def test_truth_length_mismatch_raises(self, tmp_path, vase):
        truth = {"cases": [{"e": 0.3}, {"e": 0.4}]}
        with pytest.raises(ValueError, match="covers 2 cases"):
            load_config(self.write_bundle(tmp_path, vase, truth=truth))

    def test_unknown_strategy_rejected_at_load(self, tmp_path, vase):
        path = self.write_bundle(tmp_path, vase, strategies=["gibbs", "belief-prop"])
        with pytest.raises(ValueError, match="unknown strategy"):
            load_config(path)

    def test_bad_repetitions_rejected(self, tmp_path, vase):
        path = self.write_bundle(tmp_path, vase, repetitions=0)
        with pytest.raises(ValueError, match="repetitions"):
            load_config(path)

    def test_checkpoints_inside_burn_in_rejected(self, tmp_path, vase):
        path = self.write_bundle(tmp_path, vase, burn_in=50, checkpoints=[10, 50, 100])
        with pytest.raises(ValueError, match=r"checkpoints \[10, 50\] .*50 burn-in"):
            load_config(path)
        path = self.write_bundle(tmp_path, vase, burn_in=50, checkpoints=[51, 100])
        assert load_config(path).burn_in == 50

    def test_negative_burn_in_rejected_before_any_chain(self, tmp_path, vase, capsys, monkeypatch):
        path = self.write_bundle(tmp_path, vase, burn_in=-1)
        with pytest.raises(ValueError, match="burn_in must be nonnegative, got -1"):
            load_config(path)
        # no truth is computed and no chain runs before the refusal
        monkeypatch.setattr("diagbn.bench._case_truths", None)
        monkeypatch.setattr("diagbn.bench.run_chain", None)
        out = tmp_path / "report.json"
        assert main(["bench", "--config", path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: burn_in must be nonnegative, got -1\n"
        assert not out.exists()

    def fixture_grid(self, tmp_path, burn_in):
        """The committed grid cut to one repetition of gibbs and
        optimized-fwd-bwd, scored once, one sweep after burn-in."""
        with open(os.path.join(DATA_DIR, "bench_config.json")) as fh:
            raw = json.load(fh)
        for key in ("network", "cases", "truth"):
            raw[key] = os.path.join(DATA_DIR, raw[key])
        raw.update(burn_in=burn_in, checkpoints=[burn_in + 1], repetitions=1,
                   strategies=["gibbs", "optimized-fwd-bwd"])
        path = tmp_path / f"grid-{burn_in}.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def test_checkpoint_with_no_forward_pass_rejected(self, tmp_path, capsys):
        # after an odd burn-in the next sweep is a backward pass, which
        # redraws no forward-sampled node, so the grid is refused before
        # any chain runs
        path = self.fixture_grid(tmp_path, burn_in=1)
        with pytest.raises(ValueError, match=r"checkpoint 2 follows no optimized-fwd-bwd forward pass"):
            load_config(path)
        out = tmp_path / "report.json"
        assert main(["bench", "--config", path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: checkpoint 2 follows")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not out.exists()
        # after an even burn-in the next sweep is a forward pass
        assert load_config(self.fixture_grid(tmp_path, burn_in=2)).checkpoints == [3]

    def test_empty_checkpoints_rejected(self, tmp_path, vase):
        path = self.write_bundle(tmp_path, vase, checkpoints=[])
        with pytest.raises(ValueError, match="checkpoint"):
            load_config(path)

    @pytest.mark.parametrize("evidence, overrides, message", [
        ((), {}, "need at least one case"),
        # the clamp pins e and b, so the baseline's chains move no node
        (({"v": False},), {"strategies": ["gibbs", "gibbs-clamp"], "baseline": "gibbs-clamp"},
         "baseline 'gibbs-clamp' moves no node in any case"),
        (({"v": True},), {"truth": ""}, "config key 'truth' must be a file path or null, got ''"),
    ], ids=["no-cases", "baseline-moves-nothing", "empty-truth-path"])
    def test_grid_that_cannot_score_exits_2(self, tmp_path, vase, capsys, evidence, overrides, message):
        path = self.write_bundle(tmp_path, vase, evidence=evidence)
        # set after the bundle is written: its `truth` argument writes a file
        raw = json.loads((tmp_path / "config.json").read_text())
        (tmp_path / "config.json").write_text(json.dumps({**raw, **overrides}))
        out = tmp_path / "report.json"
        assert main(["bench", "--config", path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not out.exists()

    def test_loaded_config_runs(self, tmp_path, vase):
        config = load_config(self.write_bundle(tmp_path, vase))
        report = run_experiment(config)
        assert report.strategies == ["gibbs", "metropolis"]


class TestRenderTable:
    def test_layout(self, vase):
        report = run_experiment(vase_config(vase))
        text = render_table(report)
        lines = text.splitlines()
        assert lines[0].startswith("Strategy")
        assert "Time" in lines[0]
        assert "50" in lines[0] and "200" in lines[0]
        assert len(lines) == 2 + len(report.strategies)
        assert lines[2].startswith("gibbs")
        # all rows align to the header grid: equal lengths, and every cell
        # starts where its header column does
        assert len(set(len(line) for line in lines)) == 1
        starts = [m.start() for m in re.finditer(r"\S+", lines[0])]
        for line in lines[1:]:
            assert [m.start() for m in re.finditer(r"\S+", line)] == starts, line
