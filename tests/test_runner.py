import json
import math

import pytest

from qdrepeater.analysis import success_stats
from qdrepeater.measure import RngStream
from qdrepeater.protocol import RetryPolicy, prepare_singlet, run_chain, swap_effective
from qdrepeater.runner import (
    OUTPUT_DIR_ENV,
    RunConfig,
    RunRecord,
    UsageError,
    execute,
    main,
    parse_config,
    render,
)


def run_to_file(tmp_path, args, name="out.json"):
    path = tmp_path / name
    config = parse_config(args + ["--output-path", str(path)])
    record = execute(config)
    return record, path


class TestParseConfig:
    def test_defaults(self):
        config = parse_config(["swap"])
        assert config.theta == pytest.approx(math.pi / 4)
        assert config.delta_over_g == 20.0
        assert config.g_over_omega == 0.01
        assert config.seed == 0
        assert config.trials == 1000
        assert config.retry_policy == "discard-both"
        assert config.output_format == "json"
        assert config.ratios == (5.0, 10.0, 20.0, 40.0, 80.0)

    def test_cli_override(self):
        config = parse_config(["swap", "--theta", "0.7853981633974483"])
        assert config.theta == 0.7853981633974483

    def test_config_file_and_cli_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta = 0.5\nseed = 11\n# comment\ntrials = 77\n")
        config = parse_config(["swap", "--config", str(cfg), "--seed", "3"])
        assert config.theta == 0.5      # file beats default
        assert config.seed == 3         # CLI beats file
        assert config.trials == 77
        for text, value in (("1", True), ("YES", True), ("true", True),
                            ("0", False), ("No", False), ("false", False)):
            cfg.write_text(f"enumerate = {text}\n")
            assert parse_config(["swap", "--config", str(cfg)]).enumerate_branches is value

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        for line, key in (("volume = 11", "volume"), ("n_max = 8", "n_max")):
            cfg.write_text(line + "\n")
            with pytest.raises(UsageError, match=f"unknown key '{key}'"):
                parse_config(["swap", "--config", str(cfg)])

    def test_malformed_config_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta 0.5\n")
        with pytest.raises(UsageError, match="key = value"):
            parse_config(["swap", "--config", str(cfg)])

    def test_invalid_values_name_the_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("enumerate = maybe\n")
        with pytest.raises(UsageError, match="config: invalid value for 'enumerate'"):
            parse_config(["swap", "--config", str(cfg)])
        with pytest.raises(UsageError, match="trials"):
            parse_config(["swap", "--trials", "0"])
        with pytest.raises(UsageError, match="theta"):
            parse_config(["swap", "--theta", "nan"])
        with pytest.raises(UsageError, match="retry_policy"):
            parse_config(["chain", "--retry-policy", "sometimes"])

    def test_closure_depth_minimum(self):
        with pytest.raises(UsageError, match="closure"):
            parse_config(["closure", "--depth", "1"])
        assert parse_config(["closure"]).depth == 2
        assert parse_config(["chain"]).depth == 1

    def test_unknown_command_rejected(self):
        with pytest.raises(UsageError):
            parse_config(["dance"])

    def test_ratios_parsing(self):
        config = parse_config(["sweep", "--ratios", "5, 10,40"])
        assert config.ratios == (5.0, 10.0, 40.0)


class TestExecute:
    def test_swap_enumerate_payload(self, tmp_path):
        record, path = run_to_file(tmp_path, ["swap", "--enumerate"])
        payload = json.loads(path.read_text())
        assert set(payload) == {"config", "version", "timestamp", "results", "wall_time_ms"}
        rows = payload["results"]["rows"]
        assert [r["outcome"] for r in rows] == ["gg", "ge", "eg", "ee"]
        for row in rows:
            assert row["probability"] == pytest.approx(0.25, abs=1e-12)
            assert len(row["post_state_amplitudes"]) == 4
        assert payload["results"]["summary"]["success_probability"] == pytest.approx(0.5, abs=1e-12)
        tags = {r["outcome"]: r["tag"] for r in rows}
        assert tags == {"gg": "other", "ge": "psi_prime", "eg": "psi", "ee": "other"}

    def test_config_echo_contains_every_field(self, tmp_path):
        record, path = run_to_file(tmp_path, ["swap", "--enumerate"])
        payload = json.loads(path.read_text())
        from dataclasses import fields

        assert set(payload["config"]) == {f.name for f in fields(RunConfig)}

    def test_chain_results_reproducible(self, tmp_path):
        args = ["chain", "--depth", "3", "--trials", "60", "--seed", "7"]
        r1, _ = run_to_file(tmp_path, args, "a.json")
        r2, _ = run_to_file(tmp_path, args, "b.json")
        assert json.dumps(r1.results) == json.dumps(r2.results)

    def test_swap_sample_reproducible(self, tmp_path):
        args = ["swap", "--trials", "500", "--seed", "9"]
        r1, _ = run_to_file(tmp_path, args, "a.json")
        r2, _ = run_to_file(tmp_path, args, "b.json")
        assert json.dumps(r1.results) == json.dumps(r2.results)

    def test_csv_and_json_numeric_values_agree(self, tmp_path):
        args = ["sweep", "--ratios", "10,20"]
        record, jpath = run_to_file(tmp_path, args, "run.json")
        csv_text = render(record, "csv")
        lines = csv_text.strip().splitlines()
        header = lines[0].split(",")
        for line, row in zip(lines[1:], record.results["rows"]):
            for key, cell in zip(header, line.split(",")):
                value = row[key]
                if isinstance(value, float):
                    assert cell == format(value, ".15g")
                    assert float(cell) == pytest.approx(value, rel=1e-14)
                else:
                    assert cell == str(value)

    def test_csv_branch_rows(self, tmp_path):
        path = tmp_path / "swap.csv"
        config = parse_config(
            ["swap", "--enumerate", "--output-format", "csv", "--output-path", str(path)]
        )
        execute(config)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("outcome,probability,success,tag,amp_ee_re,amp_ee_im")
        assert len(lines) == 5  # header + four branches

    def test_closure_table_payload(self, tmp_path):
        record, path = run_to_file(tmp_path, ["closure", "--depth", "4"])
        payload = json.loads(path.read_text())
        assert payload["results"]["summary"]["ok"] is True
        success_tags = {
            row["output_tag"]
            for row in payload["results"]["rows"]
            if row["success"]
        }
        assert success_tags == {"psi", "psi_prime"}

    @pytest.mark.filterwarnings("ignore:parameters not dispersive")
    def test_validate_battery_passes(self, tmp_path):
        record, path = run_to_file(tmp_path, ["validate"])
        payload = json.loads(path.read_text())
        assert payload["results"]["summary"]["ok"] is True
        checks = {row["check"]: row for row in payload["results"]["rows"]}
        assert checks["closed_form_oracle_max_error"]["value"] < 1e-10
        assert checks["sweep_infidelity_within_envelope"]["passed"]
        assert checks["sweep_infidelity_within_envelope"]["value"] <= 1.01
        assert checks["infidelity_at_ratio_40"]["value"] < 0.05
        assert not any("truncation" in name or "fock" in name for name in checks)

    def test_validate_off_the_minima_passes(self, tmp_path):
        # 30 sits near a leakage maximum, so the infidelity is not monotonic here
        record, _ = run_to_file(tmp_path, ["validate", "--ratios", "10,20,30,40,80"])
        assert record.results["summary"]["ok"] is True

    def test_sweep_rows_carry_envelope(self, tmp_path):
        record, _ = run_to_file(tmp_path, ["sweep", "--ratios", "10,20,30,40,80"])
        assert record.results["summary"] == {"within_envelope": True}
        for row in record.results["rows"]:
            assert row["infidelity_envelope"] == 4 / row["ratio"] ** 2
            assert "n_max" not in row

    def test_stdout_output(self, capsys):
        config = parse_config(["swap", "--enumerate"])
        execute(config)
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["summary"]["success_probability"] == pytest.approx(0.5)


def per_trial_swap_results(theta, seed, trials):
    """The sampled swap payload built one RngStream and one record per trial."""
    left, right = prepare_singlet("QD1", "QD2"), prepare_singlet("QD3", "QD4")
    records = [
        swap_effective(left, right, theta, rng=RngStream(seed, trial)) for trial in range(trials)
    ]
    rows = [
        {
            "trial": trial,
            "stream_index": trial,
            "outcome": rec.branch.outcome_string(),
            "success": rec.success,
            "tag": rec.output.tag.value if rec.output else None,
        }
        for trial, rec in enumerate(records)
    ]
    stats = success_stats(records)
    summary = {
        "trials": stats.count,
        "mean": stats.mean,
        "std_error": stats.std_error,
        "ci99_low": stats.ci99[0],
        "ci99_high": stats.ci99[1],
    }
    return {"mode": "sample", "rows": rows, "summary": summary}


class TestBatchedResults:
    """Batched Monte Carlo payloads equal the per-trial construction byte for byte."""

    @pytest.mark.parametrize("theta", [math.pi / 4, 0.3, 1.234, 0.0])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_swap_sample_matches_per_trial_streams(self, tmp_path, theta, seed):
        trials = 400
        record, _ = run_to_file(
            tmp_path, ["swap", "--theta", repr(theta), "--seed", str(seed), "--trials", str(trials)]
        )
        expected = per_trial_swap_results(theta, seed, trials)
        assert json.dumps(record.results) == json.dumps(expected)

    def test_chain_summary_matches_run_records(self, tmp_path):
        depth, trials, seed = 2, 150, 3
        record, _ = run_to_file(
            tmp_path,
            ["chain", "--depth", str(depth), "--trials", str(trials), "--seed", str(seed),
             "--retry-policy", "bounded:2"],
        )
        runs = [
            run_chain(depth, RngStream(seed, t), math.pi / 4, RetryPolicy.bounded_retries(2))
            for t in range(trials)
        ]
        stats = success_stats(runs)
        summary = record.results["summary"]
        assert 0 < stats.mean < 1
        assert (summary["trials"], summary["mean_success"]) == (stats.count, stats.mean)
        assert (summary["ci99_low"], summary["ci99_high"]) == stats.ci99
        assert summary["mean_pairs_consumed"] == sum(r.pairs_consumed for r in runs) / trials


class TestStrictInputs:
    """Non-finite or overflowing inputs end as usage errors; records are strict JSON."""

    @pytest.mark.parametrize(
        "args, field",
        [
            (["sweep", "--ratios", "nan"], "ratios"),
            (["sweep", "--ratios", "10,inf"], "ratios"),
            (["swap", "--delta-over-g", "nan", "--enumerate"], "delta_over_g"),
            (["swap", "--g-over-omega", "inf", "--enumerate"], "g_over_omega"),
            (["validate", "--g-over-omega", "inf"], "g_over_omega"),
            (["sweep", "--theta", "1e308", "--ratios", "10"], "theta"),
            (["validate", "--theta", "1e308"], "theta"),
            (["sweep", "--ratios", "1e300"], "theta"),
        ],
    )
    def test_usage_error(self, tmp_path, capsys, args, field):
        assert main(args + ["--output-path", str(tmp_path / "x.json")]) == 1
        assert f"usage error: {field}" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("mode", [["--enumerate"], ["--trials", "50"]])
    def test_huge_theta_swap_runs(self, tmp_path, mode):
        path = tmp_path / "x.json"
        assert main(["swap", "--theta", "1e308", *mode, "--output-path", str(path)]) == 0
        payload = json.loads(path.read_text(), parse_constant=pytest.fail)
        assert payload["config"]["theta"] == 1e308
        reduced = math.fmod(1e308, math.pi)
        ref_path = tmp_path / "ref.json"
        assert main(["swap", "--theta", repr(reduced), *mode, "--output-path", str(ref_path)]) == 0
        assert payload["results"] == json.loads(ref_path.read_text())["results"]

    def test_record_json_rejects_nan(self):
        record = RunRecord({}, "0", "now", {"value": float("nan")}, 1.0)
        with pytest.raises(ValueError):
            record.to_json()


class TestMainExitCodes:
    def test_usage_error_is_one(self, tmp_path, capsys):
        assert main(["swap", "--trials", "0"]) == 1
        assert "trials" in capsys.readouterr().err
        # the cavity size is fixed, so there is no truncation flag to set
        path = tmp_path / "x.json"
        assert main(["sweep", "--ratios", "10", "--n-max", "2", "--output-path", str(path)]) == 1
        assert "--n-max" in capsys.readouterr().err
        assert not path.exists()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("enumerate = maybe\n")
        assert main(["swap", "--config", str(cfg), "--output-path", str(path)]) == 1
        assert "config: invalid value for 'enumerate'" in capsys.readouterr().err
        assert not path.exists()

    def test_success_is_zero(self, tmp_path):
        path = tmp_path / "out.json"
        assert main(["closure", "--depth", "3", "--output-path", str(path)]) == 0

    def test_closure_violation_is_two(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        code = main(
            ["closure", "--depth", "2", "--theta", "0.5", "--output-path", str(path)]
        )
        assert code == 2
        payload = json.loads(path.read_text())
        assert payload["results"]["summary"]["ok"] is False
        assert payload["results"]["summary"]["violations"]

    def test_io_error_is_three(self, capsys):
        code = main(
            ["closure", "--depth", "2", "--output-path", "/nonexistent/dir/out.json"]
        )
        assert code == 3


class TestOutputDirectory:
    def test_env_var_applies_to_relative_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
        config = parse_config(["swap", "--enumerate", "--output-path", "rel.json"])
        execute(config)
        assert (tmp_path / "rel.json").exists()

    def test_env_var_ignores_absolute_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, "/some/other/place")
        target = tmp_path / "abs.json"
        config = parse_config(["swap", "--enumerate", "--output-path", str(target)])
        execute(config)
        assert target.exists()
