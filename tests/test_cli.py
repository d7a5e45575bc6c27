import json
import os
import subprocess
import sys

import pytest

from conftest import (
    VASE_P_B,
    VASE_P_E,
    backward_tail_problem,
    pair_underflow_problem,
    tiny_leak_problem,
    underflow_problem,
    wide_finding_problem,
)
from diagbn.bench import load_config, run_experiment
from diagbn.cli import build_parser, main
from diagbn.network import STRICT, parse_network, serialize_network, validate
from diagbn.sampler import PRESETS

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
NULL = object()  # a bench config override that writes a JSON null


def run_cli(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_in_subprocess(args):
    """Run `python <args>` with this checkout's `src` first on the path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path)
    )


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

    @pytest.mark.parametrize("chains", ["1", "2"])
    def test_negative_seed_exits_2(self, vase_files, tmp_path, capsys, chains):
        # --seed -7 used to write --seed 7's marginals under another echoed seed
        net_path, ev_path = vase_files
        out = tmp_path / "x.json"
        rc, _, err = run_cli(
            ["sample", "--network", net_path, "--evidence", ev_path, "--strategy", "gibbs",
             "--sweeps", "10", "--seed", "-7", "--chains", chains, "--out", str(out)],
            capsys,
        )
        assert rc == 2
        assert err == "error: seed must be a nonnegative integer, got -7\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("strategy", sorted(PRESETS))
    def test_underflowing_survival_exits_0(self, tmp_path, capsys, strategy):
        # the survival cache of s underflows to 0.0; six presets used to
        # end in a ZeroDivisionError traceback here
        net, ev = underflow_problem(None)
        net_path, ev_path, out = tmp_path / "net.json", tmp_path / "ev.json", tmp_path / "x.json"
        net_path.write_text(serialize_network(net))
        ev_path.write_text(json.dumps(ev))
        rc, _, err = run_cli(
            [
                "sample",
                "--network", str(net_path),
                "--evidence", str(ev_path),
                "--strategy", strategy,
                "--sweeps", "200",
                "--seed", "1",
                "--chains", "2",
                "--out", str(out),
            ],
            capsys,
        )
        assert rc == 0, err
        marginals = json.loads(out.read_text())["marginals"]
        assert all(0.0 <= p <= 1.0 for p in marginals.values())


    @pytest.mark.parametrize("strategy", ["block-spouses-cover", "swap-spouses-cover"])
    def test_underflowing_pair_weights_exit_0(self, tmp_path, strategy):
        # every joint weight of a pair move over s is 0.0 from the caches;
        # these two presets used to end in a ZeroDivisionError traceback
        net, ev = pair_underflow_problem()
        net_path, ev_path, out = tmp_path / "net.json", tmp_path / "ev.json", tmp_path / "x.json"
        net_path.write_text(serialize_network(net))
        ev_path.write_text(json.dumps(ev))
        proc = run_in_subprocess([
            "-m", "diagbn.cli", "sample",
            "--network", str(net_path),
            "--evidence", str(ev_path),
            "--strategy", strategy,
            "--sweeps", "200",
            "--seed", "1",
            "--out", str(out),
        ])
        assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
        marginals = json.loads(out.read_text())["marginals"]
        assert all(0.0 <= p <= 1.0 for p in marginals.values())

    def test_leak_below_float_resolution_exits_2(self, tmp_path, capsys):
        net, ev = tiny_leak_problem()
        net_path, ev_path, out = tmp_path / "net.json", tmp_path / "ev.json", tmp_path / "x.json"
        net_path.write_text(serialize_network(net))
        ev_path.write_text(json.dumps(ev))
        rc, _, err = run_cli(
            [
                "sample",
                "--network", str(net_path),
                "--evidence", str(ev_path),
                "--strategy", "gibbs",
                "--sweeps", "200",
                "--seed", "1",
                "--out", str(out),
            ],
            capsys,
        )
        assert rc == 2
        assert err.startswith("error:") and "'s': leak 1e-17" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_no_forward_pass_after_burn_in_exits_2(self, tmp_path, capsys):
        # the one sweep after burn-in is a backward pass, which redraws no
        # forward-sampled node: this used to print 0.0 for each with exit 0
        net, ev = backward_tail_problem()
        net_path, ev_path, out = tmp_path / "net.json", tmp_path / "ev.json", tmp_path / "x.json"
        net_path.write_text(serialize_network(net))
        ev_path.write_text(json.dumps(ev))
        rc, _, err = run_cli(
            [
                "sample",
                "--network", str(net_path),
                "--evidence", str(ev_path),
                "--strategy", "optimized-fwd-bwd",
                "--sweeps", "2",
                "--burn-in", "1",
                "--seed", "1",
                "--out", str(out),
            ],
            capsys,
        )
        assert rc == 2
        assert err.startswith("error: node 's") and "has no visit to estimate from" in err, err
        assert err.count("\n") == 1 and "Traceback" not in err
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
        # a finding observed true couples its 12 free parents into one
        # clique, past a cap of 10 nodes enumerated jointly
        doc = {
            "nodes": [{"id": f"m{i:02d}", "kind": "model", "leak": 0.1} for i in range(12)]
            + [{"id": "s", "kind": "sensory", "leak": 0.01}],
            "edges": [{"from": f"m{i:02d}", "to": "s", "p": 0.5} for i in range(12)],
        }
        net_path = tmp_path / "wide.json"
        net_path.write_text(json.dumps(doc))
        ev_path = tmp_path / "ev.json"
        ev_path.write_text('{"s": true}')
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
        assert "largest clique has 12 nodes, over the cap of 10" in err
        assert not (tmp_path / "x.json").exists()

    def test_negative_cap_exits_2(self, vase_files, tmp_path, capsys):
        # refused as a cap, not as a clique of 0 nodes over it
        net_path, _ = vase_files
        ev_path, out = tmp_path / "ev.json", tmp_path / "x.json"
        ev_path.write_text("{}")
        rc, _, err = run_cli(
            ["exact", "--network", net_path, "--evidence", str(ev_path), "--cap", "-3", "--out", str(out)],
            capsys,
        )
        assert rc == 2
        assert err == "error: cap must be a nonnegative integer, got -3\n"
        assert not out.exists()

    def test_table_past_memory_exits_2(self, tmp_path, capsys, tables_past_memory):
        # 34 models fit a cap of 40 but make one table of 128 GiB, which once
        # escaped numpy as a traceback with exit 1
        net, ev = wide_finding_problem(34)
        net_path, ev_path, out = tmp_path / "wide.json", tmp_path / "ev.json", tmp_path / "x.json"
        net_path.write_text(serialize_network(net))
        ev_path.write_text(json.dumps(ev))
        rc, _, err = run_cli(
            ["exact", "--network", str(net_path), "--evidence", str(ev_path), "--cap", "40", "--out", str(out)],
            capsys,
        )
        assert rc == 2
        assert err.startswith("error:") and "table over 34 nodes needs 128 GiB" in err
        assert "cap below 34" in err
        assert not out.exists()

    def test_bool_leak_exits_2(self, tmp_path, capsys):
        # `exact` reads the permissive profile, which once took a leak of
        # true as 1 and reported a marginal of 1.0 with exit 0
        doc = {"nodes": [{"id": "a", "kind": "model", "leak": True}], "edges": []}
        net_path, ev_path, out = tmp_path / "net.json", tmp_path / "ev.json", tmp_path / "x.json"
        net_path.write_text(json.dumps(doc))
        ev_path.write_text("{}")
        rc, _, err = run_cli(
            ["exact", "--network", str(net_path), "--evidence", str(ev_path), "--out", str(out)],
            capsys,
        )
        assert rc == 2
        assert err.startswith("error:") and "leak True is not a number" in err
        assert not out.exists()

    def test_help_names_the_junction_tree(self, capsys):
        for argv in (["--help"], ["exact", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            text = capsys.readouterr().out
            assert "brute-force" not in text and "junction tree" in text

    @pytest.mark.slow
    def test_committed_fixture_matches_truths(self, tmp_path, capsys):
        # every case of the committed 60-model network runs at the default
        # cap and reproduces the committed exact truths
        with open(os.path.join(DATA_DIR, "bench_cases.json")) as fh:
            cases = json.load(fh)
        with open(os.path.join(DATA_DIR, "bench_truth.json")) as fh:
            truth = json.load(fh)
        assert truth["exact"] is True
        for k, case in enumerate(cases):
            ev_path, out = tmp_path / f"ev{k}.json", tmp_path / f"exact{k}.json"
            ev_path.write_text(json.dumps(case["evidence"]))
            rc, _, err = run_cli(
                [
                    "exact",
                    "--network", os.path.join(DATA_DIR, "bench_net.json"),
                    "--evidence", str(ev_path),
                    "--out", str(out),
                ],
                capsys,
            )
            assert rc == 0, err
            got = json.loads(out.read_text())["marginals"]
            want = truth["cases"][k]
            assert set(got) == set(want)
            for nid, p in want.items():
                assert abs(got[nid] - p) <= 1e-10, (k, nid, got[nid], p)


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

    @pytest.mark.parametrize("seeds", [["--seed", "-7"], ["--seed", "1", "--cases-seed", "-7"]])
    def test_negative_seed_exits_2(self, tmp_path, monkeypatch, capsys, seeds):
        monkeypatch.chdir(tmp_path)
        argv = ["gen", "--models", "5", "--sensors", "3", "--links", "8", "--out", "net.json",
                "--cases", "2", "--cases-out", "c.json", "--evidence-range", "1", "3",
                "--positive-range", "1", "2"]
        rc, _, err = run_cli(argv + seeds, capsys)
        assert rc == 2
        assert err == "error: seed must be a nonnegative integer, got -7\n"
        assert list(tmp_path.iterdir()) == []

    def test_cases_out_requires_cases(self, tmp_path, monkeypatch, capsys):
        # a case file named without a case count is an error, not a silent no-op
        monkeypatch.chdir(tmp_path)
        argv = ["gen", "--models", "5", "--sensors", "3", "--links", "8", "--seed", "1",
                "--out", "net.json", "--cases-out", "c.json"]
        for cases in ([], ["--cases", "0"]):
            rc, _, err = run_cli(argv + cases, capsys)
            assert rc == 2 and "--cases-out requires --cases" in err, err
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


def write_bundle(tmp_path, vase_files, **overrides):
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


class TestBench:
    def test_table_on_stdout_and_report_file(self, vase_files, tmp_path, capsys):
        config_path = write_bundle(tmp_path, vase_files)
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
        # the file holds the very text whose sha256 tests/test_golden.py pins
        text = json.dumps(run_experiment(load_config(config_path)).to_jsonable(), indent=2, sort_keys=True)
        assert out.read_bytes() == (text + "\n").encode()

    def test_epsilon_floor_override(self, vase_files, tmp_path, capsys):
        # the config's floor, not the default, reaches the report and the counts
        config_path = write_bundle(tmp_path, vase_files, epsilon_floor=1.0)
        out = tmp_path / "report.json"
        rc, _, _ = run_cli(["bench", "--config", config_path, "--out", str(out)], capsys)
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["epsilon_floor"] == 1.0
        # a unit-wide band swallows every possible miss
        assert all(v == 0.0 for errs in doc["mean_errors"].values() for v in errs)

    def test_checkpoint_inside_burn_in_exits_2(self, vase_files, tmp_path, capsys):
        config_path = write_bundle(
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
        ] + [
            ({"truth": "truth.json"}, {"truth.json": {"cases": [{"e": t, "b": 0.62}]}},
             f"case 0 gives node 'e' the truth {t!r}, not a probability in [0, 1]")
            for t in (float("nan"), 1.5, -0.2, float("inf"))
        ],
        ids=["no-strategies", "duplicate-strategy", "missing-key", "truth-misses-node",
             "case-without-evidence", "null-repetitions", "null-seed", "null-burn-in",
             "null-epsilon-floor", "scalar-checkpoints", "numeric-network", "listed-evidence",
             "string-strategies", "listed-baseline", "misspelled-baseline", "null-truth",
             "nan-epsilon-floor", "infinite-epsilon-floor", "negative-epsilon-floor",
             "duplicate-checkpoint", "nan-truth", "truth-above-1", "negative-truth",
             "infinite-truth"],
    )
    def test_bad_config_exits_2(self, vase_files, tmp_path, capsys, overrides, files, message):
        for name, doc in files.items():
            (tmp_path / name).write_text(json.dumps(doc))
        config_path = write_bundle(tmp_path, vase_files, **overrides)
        out = tmp_path / "report.json"
        rc, _, err = run_cli(["bench", "--config", config_path, "--out", str(out)], capsys)
        assert rc == 2
        assert err.startswith("error:") and message in err, err
        assert not out.exists()

    def test_report_file_byte_identical_across_runs(self, vase_files, tmp_path, capsys):
        config_path = write_bundle(tmp_path, vase_files)
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


# runs each argv list in the JSON argument through one process's cli.main,
# noting after each which of numpy and scipy are loaded
LOADED_MODULES = """
import json, sys
from diagbn.cli import main
seen = []
for argv in json.loads(sys.argv[1]):
    seen.append([argv[0], main(argv), "numpy" in sys.modules, "scipy" in sys.modules])
print(json.dumps(seen))
"""


# imports diagbn and its CLI, then runs each argv list in the JSON argument
# through cli.main, and prints for each step which of HEAVY it added to
# sys.modules
ADDED_MODULES = """
import json, sys
HEAVY = ("dataclasses", "inspect", "typing", "hashlib", "numpy", "scipy")

def added(before):
    return sorted({m.split(".")[0] for m in set(sys.modules) - before} & set(HEAVY))

before = set(sys.modules)
import diagbn
steps = [["import diagbn", 0, added(before)]]
before = set(sys.modules)
from diagbn.cli import main
steps.append(["import diagbn.cli", 0, added(before)])
for argv in json.loads(sys.argv[1]):
    before = set(sys.modules)
    steps.append([argv[0], main(argv), added(before)])
print(json.dumps(steps))
"""


class TestStartUp:
    def test_import_and_one_chain_load_neither_dataclasses_nor_hashlib(self, vase_files, tmp_path):
        # dataclasses brings inspect, ast, dis and tokenize with it, and a
        # single chain derives no seed, so needs no hashlib
        net_path, ev_path = vase_files
        data = ["--network", net_path, "--evidence", ev_path]
        runs = [
            ["sample", *data, "--strategy", "optimized-fwd-bwd", "--sweeps", "50", "--seed", "1",
             "--chains", "1", "--out", str(tmp_path / "sample.json")],
            ["analyze", *data, "--out", str(tmp_path / "analyze.json")],
            ["gen", "--models", "5", "--sensors", "3", "--links", "8", "--seed", "1",
             "--out", str(tmp_path / "net.json"), "--cases", "2", "--cases-out", str(tmp_path / "cases.json"),
             "--evidence-range", "1", "3", "--positive-range", "1", "2"],
            ["exact", *data, "--out", str(tmp_path / "exact.json")],
        ]
        proc = run_in_subprocess(["-c", ADDED_MODULES, json.dumps(runs)])
        assert proc.returncode == 0, proc.stderr
        steps = json.loads(proc.stdout)
        assert steps[:5] == [
            ["import diagbn", 0, []],
            ["import diagbn.cli", 0, []],
            ["sample", 0, []],
            ["analyze", 0, []],
            ["gen", 0, []],
        ]
        # numpy brings inspect; dataclasses and hashlib stay out
        name, rc, added = steps[5]
        assert (name, rc) == ("exact", 0)
        assert "numpy" in added and not {"dataclasses", "hashlib"} & set(added), added

    def test_only_exact_loads_numpy_and_none_loads_scipy(self, vase_files, tmp_path):
        net_path, ev_path = vase_files
        data = ["--network", net_path, "--evidence", ev_path]
        # a bench config with a truth file computes no truths, so needs no numpy
        bundle = tmp_path / "bench"
        bundle.mkdir()
        (bundle / "truth.json").write_text(json.dumps({"cases": [{"e": VASE_P_E, "b": VASE_P_B}]}))
        config_path = write_bundle(bundle, vase_files, truth="truth.json")
        runs = [
            ["sample", *data, "--strategy", "block-spouses-cover", "--sweeps", "50", "--seed", "1",
             "--out", str(tmp_path / "sample.json")],
            ["analyze", *data, "--out", str(tmp_path / "analyze.json")],
            ["gen", "--models", "5", "--sensors", "3", "--links", "8", "--seed", "1",
             "--out", str(tmp_path / "net.json"), "--cases", "2", "--cases-out", str(tmp_path / "cases.json"),
             "--evidence-range", "1", "3", "--positive-range", "1", "2"],
            ["bench", "--config", config_path, "--out", str(bundle / "report.json")],
            ["exact", *data, "--out", str(tmp_path / "exact.json")],
        ]
        proc = run_in_subprocess(["-c", LOADED_MODULES, json.dumps(runs)])
        assert proc.returncode == 0, proc.stderr
        # the last line: bench prints its table first
        assert json.loads(proc.stdout.splitlines()[-1]) == [
            ["sample", 0, False, False],
            ["analyze", 0, False, False],
            ["gen", 0, False, False],
            ["bench", 0, False, False],
            ["exact", 0, True, False],
        ]

    def test_reused_parser_writes_what_a_fresh_process_writes(self, vase_files, tmp_path, capsys):
        # the parser is built once per process; a call it rejects leaves
        # nothing behind for the next call
        assert build_parser() is build_parser()
        net_path, ev_path = vase_files

        def argv(sweeps, out):
            return ["sample", "--network", net_path, "--evidence", ev_path, "--strategy", "gibbs",
                    "--sweeps", sweeps, "--seed", "3", "--chains", "2", "--out", str(out)]

        with pytest.raises(SystemExit) as exc:
            main(argv("many", tmp_path / "bad.json"))
        assert exc.value.code == 2
        assert main(argv("500", tmp_path / "reused.json")) == 0
        proc = run_in_subprocess(["-m", "diagbn.cli", *argv("500", tmp_path / "fresh.json")])
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "reused.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()
        assert not (tmp_path / "bad.json").exists()
