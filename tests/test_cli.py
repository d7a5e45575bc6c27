import json
import subprocess
import sys

import pytest

from conftest import VASE_P_B, VASE_P_E
from diagbn.cli import main
from diagbn.network import STRICT, parse_network, validate

NULL = object()  # a bench config override that writes a JSON null


def run_cli(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestSample:
    def test_writes_marginals_and_meta(self, vase_files, tmp_path, capsys):
        net_path, ev_path = vase_files
        out = tmp_path / "post.json"
        rc, _, err = run_cli(
            [
                "sample",
                "--network", net_path,
                "--evidence", ev_path,
                "--strategy", "gibbs",
                "--sweeps", "2000",
                "--seed", "3",
                "--out", str(out),
            ],
            capsys,
        )
        assert rc == 0 and err == ""
        doc = json.loads(out.read_text())
        assert doc["meta"] == {
            "burn_in": 0,
            "chains": 1,
            "seed": 3,
            "strategy": "gibbs",
            "sweeps": 2000,
        }
        assert doc["marginals"]["v"] == 1.0
        assert doc["marginals"]["e"] == pytest.approx(VASE_P_E, abs=0.05)
        assert doc["marginals"]["b"] == pytest.approx(VASE_P_B, abs=0.05)

    def test_repeat_runs_are_byte_identical(self, vase_files, tmp_path, capsys):
        net_path, ev_path = vase_files
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc, _, _ = run_cli(
                [
                    "sample",
                    "--network", net_path,
                    "--evidence", ev_path,
                    "--strategy", "optimized-fwd-bwd",
                    "--sweeps", "500",
                    "--seed", "11",
                    "--chains", "2",
                    "--burn-in", "50",
                    "--out", str(out),
                ],
                capsys,
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_strategy_exits_2(self, vase_files, tmp_path, capsys):
        net_path, ev_path = vase_files
        rc, _, err = run_cli(
            [
                "sample",
                "--network", net_path,
                "--evidence", ev_path,
                "--strategy", "hill-climbing",
                "--sweeps", "10",
                "--seed", "1",
                "--out", str(tmp_path / "x.json"),
            ],
            capsys,
        )
        assert rc == 2
        assert err.startswith("error:")
        assert "hill-climbing" in err

    @pytest.mark.parametrize(
        "sweeps, burn_in, word",
        [("50", "50", "burn-in"), ("50", "80", "burn-in"), ("50", "-1", "burn-in"),
         ("0", "0", "sweeps"), ("-5", "0", "sweeps")],
    )
    def test_bad_sweep_counts_exit_2(self, vase_files, tmp_path, capsys, sweeps, burn_in, word):
        # each of these used to print 0.0 or burn-in-polluted marginals with exit 0
        net_path, ev_path = vase_files
        out = tmp_path / "x.json"
        rc, _, err = run_cli(
            [
                "sample",
                "--network", net_path,
                "--evidence", ev_path,
                "--strategy", "gibbs",
                "--sweeps", sweeps,
                "--burn-in", burn_in,
                "--seed", "1",
                "--out", str(out),
            ],
            capsys,
        )
        assert rc == 2
        assert err.startswith("error:") and word in err
        assert not out.exists()

    def test_missing_network_file_exits_2(self, vase_files, tmp_path, capsys):
        _, ev_path = vase_files
        rc, _, err = run_cli(
            [
                "sample",
                "--network", str(tmp_path / "nothere.json"),
                "--evidence", ev_path,
                "--strategy", "gibbs",
                "--sweeps", "10",
                "--seed", "1",
                "--out", str(tmp_path / "x.json"),
            ],
            capsys,
        )
        assert rc == 2
        assert err.startswith("error:")

    def test_wrongly_typed_network_exits_2(self, vase_files, tmp_path, capsys):
        _, ev_path = vase_files
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps({"nodes": None, "edges": []}))
        out = tmp_path / "x.json"
        rc, _, err = run_cli(
            [
                "sample",
                "--network", str(net_path),
                "--evidence", ev_path,
                "--strategy", "gibbs",
                "--sweeps", "10",
                "--seed", "1",
                "--out", str(out),
            ],
            capsys,
        )
        assert rc == 2
        assert err.startswith("error:") and '"nodes" and "edges" lists' in err
        assert not out.exists()


class TestExact:
    def test_frozen_posteriors(self, vase_files, tmp_path, capsys):
        net_path, ev_path = vase_files
        out = tmp_path / "exact.json"
        rc, _, _ = run_cli(
            ["exact", "--network", net_path, "--evidence", ev_path, "--out", str(out)],
            capsys,
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["marginals"]["e"] == pytest.approx(VASE_P_E, abs=1e-12)
        assert doc["marginals"]["b"] == pytest.approx(VASE_P_B, abs=1e-12)
        assert doc["marginals"]["v"] == 1.0

    def test_repeat_runs_are_byte_identical(self, vase_files, tmp_path, capsys):
        net_path, ev_path = vase_files
        blobs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc, _, _ = run_cli(
                ["exact", "--network", net_path, "--evidence", ev_path, "--out", str(out)],
                capsys,
            )
            assert rc == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_over_cap_refuses_with_exit_2(self, tmp_path, capsys):
        # 12 unlinked causes exceed a cap of 10 free nodes
        doc = {
            "nodes": [
                {"id": f"m{i:02d}", "kind": "model", "leak": 0.1} for i in range(12)
            ],
            "edges": [],
        }
        net_path = tmp_path / "wide.json"
        net_path.write_text(json.dumps(doc))
        ev_path = tmp_path / "ev.json"
        ev_path.write_text("{}")
        rc, _, err = run_cli(
            [
                "exact",
                "--network", str(net_path),
                "--evidence", str(ev_path),
                "--cap", "10",
                "--out", str(tmp_path / "x.json"),
            ],
            capsys,
        )
        assert rc == 2
        assert err.startswith("error:")
        assert "cap" in err


class TestAnalyze:
    def test_stdout_document(self, vase_files, capsys):
        net_path, ev_path = vase_files
        rc, out, err = run_cli(
            ["analyze", "--network", net_path, "--evidence", ev_path], capsys
        )
        assert rc == 0 and err == ""
        doc = json.loads(out)
        assert doc["clamped_false"] == []
        assert doc["unclamped"] == ["b", "e"]
        assert doc["evidence"] == {"v": True}
        assert doc["flow"]["e"]["status"] == "diagnostic-sampled"
        assert doc["flow"]["e"]["evidential_children"] == ["v"]
        assert doc["flow"]["b"]["status"] == "diagnostic-sampled"

    def test_clamped_nodes_reported(self, tmp_path, capsys):
        doc = {
            "nodes": [
                {"id": "m1", "kind": "model", "leak": 0.1},
                {"id": "m2", "kind": "model", "leak": 0.1},
                {"id": "s1", "kind": "sensory", "leak": 0.01},
                {"id": "s2", "kind": "sensory", "leak": 0.01},
            ],
            "edges": [
                {"from": "m1", "to": "s1", "p": 0.8},
                {"from": "m2", "to": "s2", "p": 0.8},
            ],
        }
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(doc))
        ev_path = tmp_path / "ev.json"
        ev_path.write_text(json.dumps({"s1": True}))
        rc, out, _ = run_cli(
            ["analyze", "--network", str(net_path), "--evidence", str(ev_path)], capsys
        )
        assert rc == 0
        parsed = json.loads(out)
        assert "m2" in parsed["clamped_false"]
        assert "s2" in parsed["clamped_false"]
        assert parsed["flow"]["m2"]["status"] == "clamped"


class TestGen:
    def test_writes_valid_network(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        rc, _, _ = run_cli(
            [
                "gen",
                "--models", "20",
                "--sensors", "10",
                "--links", "50",
                "--seed", "5",
                "--out", str(out),
            ],
            capsys,
        )
        assert rc == 0
        net = parse_network(out.read_text(), profile=STRICT)
        assert len(net.ids) == 30
        assert validate(net) == []

    def test_gen_with_cases_is_deterministic(self, tmp_path, capsys):
        blobs = []
        for tag in ("a", "b"):
            net_out = tmp_path / f"net-{tag}.json"
            cases_out = tmp_path / f"cases-{tag}.json"
            rc, _, _ = run_cli(
                [
                    "gen",
                    "--models", "15",
                    "--sensors", "8",
                    "--links", "40",
                    "--seed", "21",
                    "--out", str(net_out),
                    "--cases", "4",
                    "--cases-out", str(cases_out),
                    "--evidence-range", "2", "5",
                    "--positive-range", "1", "3",
                ],
                capsys,
            )
            assert rc == 0
            blobs.append(net_out.read_bytes() + cases_out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_cases_flag_requires_cases_out(self, tmp_path, capsys):
        rc, _, err = run_cli(
            [
                "gen",
                "--models", "5",
                "--sensors", "3",
                "--links", "8",
                "--seed", "1",
                "--out", str(tmp_path / "net.json"),
                "--cases", "2",
            ],
            capsys,
        )
        assert rc == 2
        assert "cases-out" in err

    def test_negative_case_count_exits_2(self, tmp_path, capsys):
        cases_out = tmp_path / "cases.json"
        rc, _, err = run_cli(
            [
                "gen",
                "--models", "5",
                "--sensors", "3",
                "--links", "8",
                "--seed", "1",
                "--out", str(tmp_path / "net.json"),
                "--cases", "-2",
                "--cases-out", str(cases_out),
            ],
            capsys,
        )
        assert rc == 2
        assert err.startswith("error:") and "n_cases must be at least 1" in err, err
        assert not cases_out.exists()

    def test_failed_cases_write_no_file(self, tmp_path, monkeypatch, capsys):
        # the network is written only once the cases are drawn
        monkeypatch.chdir(tmp_path)
        argv = ["gen", "--models", "5", "--sensors", "3", "--links", "8", "--seed", "1",
                "--out", "net.json"]
        for cases in (["--cases", "-2", "--cases-out", "c.json"], ["--cases", "3"]):
            rc, _, err = run_cli(argv + cases, capsys)
            assert rc == 2 and err.startswith("error:"), err
            assert list(tmp_path.iterdir()) == [], cases

    def test_infeasible_request_exits_2(self, tmp_path, capsys):
        rc, _, err = run_cli(
            [
                "gen",
                "--models", "3",
                "--sensors", "5",
                "--links", "2",
                "--seed", "1",
                "--out", str(tmp_path / "net.json"),
            ],
            capsys,
        )
        assert rc == 2
        assert err.startswith("error:")


class TestBench:
    def write_bundle(self, tmp_path, vase_files, **overrides):
        net_path, _ = vase_files
        cases_path = tmp_path / "cases.json"
        cases_path.write_text(
            json.dumps([{"evidence": {"v": True}, "n_positive": 1}])
        )
        config = {
            "network": net_path,
            "cases": str(cases_path),
            "strategies": ["gibbs", "swap-spouses-cover"],
            "checkpoints": [20, 100],
            "repetitions": 2,
            "seed": 13,
        }
        config.update(overrides)  # an override of None drops the key, NULL writes null
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({k: None if v is NULL else v for k, v in config.items() if v is not None})
        )
        return str(config_path)

    def test_table_on_stdout_and_report_file(self, vase_files, tmp_path, capsys):
        config_path = self.write_bundle(tmp_path, vase_files)
        out = tmp_path / "report.json"
        rc, stdout, _ = run_cli(
            ["bench", "--config", config_path, "--out", str(out)], capsys
        )
        assert rc == 0
        assert stdout.startswith("Strategy")
        assert "swap-spouses-cover" in stdout
        doc = json.loads(out.read_text())
        assert doc["strategies"] == ["gibbs", "swap-spouses-cover"]
        assert doc["checkpoints"] == [20, 100]
        assert "time_ratio" not in doc  # wall time never lands in the file

    def test_epsilon_floor_override(self, vase_files, tmp_path, capsys):
        config_path = self.write_bundle(tmp_path, vase_files)
        out = tmp_path / "report.json"
        rc, _, _ = run_cli(
            ["bench", "--config", config_path, "--out", str(out),
             "--epsilon-floor", "1.0"], capsys
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["epsilon_floor"] == 1.0
        # a unit-wide band swallows every possible miss
        assert all(v == 0.0 for errs in doc["mean_errors"].values() for v in errs)

    @pytest.mark.parametrize("floor", ["nan", "inf", "-1"])
    def test_bad_epsilon_floor_override_exits_2(self, vase_files, tmp_path, capsys, floor):
        config_path = self.write_bundle(tmp_path, vase_files)
        out = tmp_path / "report.json"
        rc, _, err = run_cli(
            ["bench", "--config", config_path, "--out", str(out),
             "--epsilon-floor", floor], capsys
        )
        assert rc == 2
        assert err.startswith("error:") and "epsilon_floor must be finite and nonnegative" in err, err
        assert not out.exists()

    def test_checkpoint_inside_burn_in_exits_2(self, vase_files, tmp_path, capsys):
        config_path = self.write_bundle(
            tmp_path, vase_files, burn_in=50, checkpoints=[10, 50, 100]
        )
        out = tmp_path / "report.json"
        rc, _, err = run_cli(["bench", "--config", config_path, "--out", str(out)], capsys)
        assert rc == 2
        assert err.startswith("error:") and "burn-in" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, files, message",
        [
            ({"strategies": []}, {}, "at least one strategy"),
            ({"strategies": ["gibbs", "gibbs"]}, {}, "more than once"),
            ({"strategies": None}, {}, "required keys ['strategies']"),
            ({"truth": "truth.json"}, {"truth.json": {"cases": [{"e": 0.35, "v": 1.0}]}},
             "lacks scored nodes ['b']"),
            ({"cases": "bare.json"}, {"bare.json": [{"n_positive": 1}]}, "required key 'evidence'"),
            ({"repetitions": NULL}, {}, "'repetitions' must be an integer"),
            ({"seed": NULL}, {}, "'seed' must be an integer"),
            ({"burn_in": NULL}, {}, "'burn_in' must be an integer"),
            ({"epsilon_floor": NULL}, {}, "'epsilon_floor' must be a number"),
            ({"checkpoints": 10}, {}, "'checkpoints' must be a list of integers"),
            ({"network": 5}, {}, "'network' must be a file path"),
            ({"cases": "listed.json"}, {"listed.json": [{"evidence": ["v"], "n_positive": 1}]},
             "'evidence' must be an object"),
            ({"strategies": "gibbs"}, {}, "'strategies' must be a list of preset names"),
            ({"baseline": ["x"]}, {}, "'baseline' must be a preset name"),
            ({"baseline": "gibbz"}, {}, "baseline 'gibbz' is not one of the strategies"),
            ({"truth": "truth.json"}, {"truth.json": {"cases": [{"e": None, "b": 0.6, "v": 1.0}]}},
             "'cases' must map node ids to numbers"),
            ({"epsilon_floor": float("nan")}, {}, "epsilon_floor must be finite and nonnegative"),
            ({"epsilon_floor": float("inf")}, {}, "epsilon_floor must be finite and nonnegative"),
            ({"epsilon_floor": -0.5}, {}, "epsilon_floor must be finite and nonnegative"),
            ({"checkpoints": [50, 50, 100]}, {}, "checkpoints listed more than once"),
        ],
        ids=["no-strategies", "duplicate-strategy", "missing-key", "truth-misses-node",
             "case-without-evidence", "null-repetitions", "null-seed", "null-burn-in",
             "null-epsilon-floor", "scalar-checkpoints", "numeric-network", "listed-evidence",
             "string-strategies", "listed-baseline", "misspelled-baseline", "null-truth",
             "nan-epsilon-floor", "infinite-epsilon-floor", "negative-epsilon-floor",
             "duplicate-checkpoint"],
    )
    def test_bad_config_exits_2(self, vase_files, tmp_path, capsys, overrides, files, message):
        for name, doc in files.items():
            (tmp_path / name).write_text(json.dumps(doc))
        config_path = self.write_bundle(tmp_path, vase_files, **overrides)
        out = tmp_path / "report.json"
        rc, _, err = run_cli(["bench", "--config", config_path, "--out", str(out)], capsys)
        assert rc == 2
        assert err.startswith("error:") and message in err, err
        assert not out.exists()

    def test_report_file_byte_identical_across_runs(self, vase_files, tmp_path, capsys):
        config_path = self.write_bundle(tmp_path, vase_files)
        blobs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            rc, _, _ = run_cli(
                ["bench", "--config", config_path, "--out", str(out)], capsys
            )
            assert rc == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestEntryPoint:
    def test_installed_script_runs(self, vase_files, tmp_path):
        net_path, ev_path = vase_files
        out = tmp_path / "exact.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "diagbn.cli",
                "exact",
                "--network", net_path,
                "--evidence", ev_path,
                "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert doc["marginals"]["e"] == pytest.approx(VASE_P_E, abs=1e-12)
