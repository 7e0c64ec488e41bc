"""The output checks pass on genuine records and fail on corrupted ones.

    python3 -m pytest -q bench/test_checks.py

Records come from small runs of the program's own CLI path; each corruption
changes one field of one record.
"""

import copy
import json
import shutil
import subprocess
import sys
from math import pi
from pathlib import Path

import pytest

import checks
import run

THETA = pi / 4
SEED = 11
SWAP_TRIALS = 400
CHAIN_DEPTH, CHAIN_TRIALS = 3, 8
RATIOS = [10.0, 23.5, 41.25, 79.0]


def _results(tmp_path, argv):
    path = tmp_path / "record.json"
    runner = run.import_runner()
    runner.execute(runner.parse_config(argv + ["--output-path", str(path)]))
    return json.loads(path.read_text())["results"]


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("records")
    return {
        "swap": _results(tmp, ["swap", "--trials", str(SWAP_TRIALS), "--seed", str(SEED)]),
        "chain": _results(
            tmp, ["chain", "--depth", str(CHAIN_DEPTH), "--trials", str(CHAIN_TRIALS), "--seed", str(SEED)]
        ),
        "sweep": _results(tmp, ["sweep", "--ratios", ",".join(map(repr, RATIOS))]),
    }


def check_swap(results):
    return checks.check_swap(results, SEED, SWAP_TRIALS, THETA)


def check_chain(results):
    return checks.check_chain(results, SEED, CHAIN_TRIALS, CHAIN_DEPTH, THETA, replay=CHAIN_TRIALS)


def check_sweep(results):
    return checks.check_sweep(results, RATIOS, THETA, 0.01)


def test_genuine_records_pass(records):
    assert check_swap(records["swap"]) == []
    assert check_chain(records["chain"]) == []
    assert check_sweep(records["sweep"]) == []


def _first(rows, predicate):
    return next(i for i, row in enumerate(rows) if predicate(row))


def test_swap_flipped_outcome_fails(records):
    bad = copy.deepcopy(records["swap"])
    i = _first(bad["rows"], lambda r: r["outcome"] == "eg")
    bad["rows"][i]["outcome"] = "ge"
    assert any(f"trial {i}:" in e for e in check_swap(bad))


def test_swap_dropped_trial_fails(records):
    bad = copy.deepcopy(records["swap"])
    del bad["rows"][7]
    assert check_swap(bad)


def test_swap_swapped_tag_fails(records):
    bad = copy.deepcopy(records["swap"])
    i = _first(bad["rows"], lambda r: r["tag"] == "psi")
    bad["rows"][i]["tag"] = "psi_prime"
    assert any(f"trial {i}:" in e for e in check_swap(bad))


def test_swap_frequency_check_fails_on_biased_record(records):
    bad = copy.deepcopy(records["swap"])
    for row in bad["rows"]:
        row.update(outcome="eg", success=True, tag="psi")
    assert any("frequency" in e for e in check_swap(bad))


def test_chain_miscounted_attempt_fails(records):
    bad = copy.deepcopy(records["chain"])
    bad["rows"][2]["attempts_l2"] += 1
    assert any("trial 2:" in e for e in check_chain(bad))


def test_chain_replay_catches_attempts_that_keep_the_laws(records):
    bad = copy.deepcopy(records["chain"])
    row = bad["rows"][1]
    # one more level-1 attempt with its two singlets: every conservation law still holds
    row["attempts_l1"] += 1
    row["pairs_consumed"] += 2
    errors = check_chain(bad)
    assert errors and all("breaks" not in e for e in errors)


def test_chain_swapped_final_tag_fails(records):
    bad = copy.deepcopy(records["chain"])
    row = bad["rows"][0]
    row["final_tag"] = {"psi": "psi_prime", "psi_prime": "psi"}[row["final_tag"]]
    assert any("trial 0:" in e for e in check_chain(bad))


def test_chain_dropped_trial_fails(records):
    bad = copy.deepcopy(records["chain"])
    del bad["rows"][3]
    assert check_chain(bad)


def test_chain_cost_check():
    depth = 5
    assert checks.chain_cost_variance(1) == 8.0  # 2 x Geometric(1/2): 4 x variance 2
    mean, n = 4**depth, 400
    sd = checks.chain_cost_variance(depth) ** 0.5
    fair = [round(mean + sd), round(mean - sd)] * (n // 2)
    assert checks.check_chain_cost(fair, depth) == []
    assert checks.check_chain_cost([2 * c for c in fair], depth)


def test_sweep_probability_off_by_1e_6_fails(records):
    bad = copy.deepcopy(records["sweep"])
    bad["rows"][1]["p_eg"] += 1e-6
    assert any("p_eg" in e for e in check_sweep(bad))


def test_sweep_infidelity_off_by_1e_6_fails(records):
    bad = copy.deepcopy(records["sweep"])
    bad["rows"][2]["conditional_infidelity"] += 1e-6
    assert any("infidelity" in e for e in check_sweep(bad))


def test_sweep_dropped_point_fails(records):
    bad = copy.deepcopy(records["sweep"])
    del bad["rows"][0]
    assert check_sweep(bad)


def test_draw_on_a_boundary_is_undetermined():
    branches = checks.swap_branches(checks.SINGLET, checks.SINGLET, THETA)
    assert [round(p, 15) for _, p, _ in branches] == [0.25] * 4
    assert checks.pick(branches, 0.5) is None
    assert checks.pick(branches, 0.5 + 1e-6) == 2


def _bench_files(dest: Path) -> None:
    bench = Path(run.__file__).resolve().parent
    (dest / "bench").mkdir()
    for path in bench.glob("*.py"):
        shutil.copy(path, dest / "bench" / path.name)


def test_traced_run_reports_every_layer_metric(tmp_path):
    shutil.copytree(run.SRC, tmp_path / "src")
    _bench_files(tmp_path)
    cmd = [sys.executable, "bench/run.py", "--workload", "cavity_sweep", "--seed", "1",
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    # apply is reached through the names protocol imports, never as hilbert.apply
    assert result["metrics"]["hilbert.apply.calls"]["value"] > 0
    assert result["metrics"]["model.build_full_tcm.calls"]["value"] == run.CavitySweep.units


def test_run_fails_without_the_program(tmp_path):
    _bench_files(tmp_path)
    cmd = [sys.executable, "bench/run.py", "--workload", "swap_sample", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
