"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run `pytest -s tests/test_acceptance.py` to see the lines as they happen
(without -s they appear in pytest's captured-output sections).
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from qdrepeater.analysis import concurrence, dispersive_sweep, success_stats
from qdrepeater.hilbert import StateVector, apply, evolve, qubit_basis, tensor
from qdrepeater.measure import RngStream, discard, enumerate_branches
from qdrepeater.model import PhysParams, build_effective, closed_form_step
from qdrepeater.protocol import (
    TARGET_AMPLITUDES,
    THETA_SWAP,
    PairState,
    PairTag,
    _exchange_unitary,
    closure_check,
    prepare_singlet,
    run_chain,
    swap_effective,
    swap_full_cavity,
)

from conftest import random_unitary
import oracles

THETAS = (0.0, np.pi / 8, np.pi / 4, np.pi / 2, 1.234)
SWEEP_RATIOS = (5.0, 10.0, 20.0, 40.0, 80.0)


def _report(num, description, ok, detail=""):
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)
    assert ok, line


def make_pair(tag, left, right):
    return PairState(left, right, TARGET_AMPLITUDES[tag])


def test_criterion_1_closed_form_oracle():
    start = time.perf_counter()
    p = PhysParams.from_ratio()
    heff = build_effective(p, ("a", "b"))
    max_err = 0.0
    for basis in ("ee", "eg", "ge", "gg"):
        for theta in THETAS:
            numeric = evolve(heff, theta / p.lam, qubit_basis(("a", "b"), basis))
            exact = closed_form_step(basis, theta, ("a", "b"))
            max_err = max(max_err, float(np.max(np.abs(numeric.amplitudes - exact.amplitudes))))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "numeric evolution matches the four closed-form basis evolutions at 5 phases",
        max_err < 1e-10 and elapsed < 1.0,
        f"max state error {max_err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_swap_correctness():
    start = time.perf_counter()
    records = swap_effective(prepare_singlet(1, 2), prepare_singlet(3, 4), THETA_SWAP)
    by = {r.branch.outcome_string(): r for r in records}
    prob_err = max(abs(r.branch.probability - 0.25) for r in records)
    p_success = sum(r.branch.probability for r in records if r.success)
    fid_eg = by["eg"].output.fidelity_to(PairTag.PSI)
    fid_ge = by["ge"].output.fidelity_to(PairTag.PSI_PRIME)
    ok = (
        prob_err <= 1e-12
        and abs(p_success - 0.5) <= 1e-12
        and fid_eg >= 1 - 1e-10
        and fid_ge >= 1 - 1e-10
    )
    elapsed = time.perf_counter() - start
    _report(
        2,
        "singlet swap: branch probabilities 1/4, success 1/2, outputs are psi/psi'",
        ok and elapsed < 1.0,
        f"prob err {prob_err:.1e}, P(success) {p_success:.12f}, "
        f"F(eg->psi) {fid_eg:.12f}, F(ge->psi') {fid_ge:.12f}",
    )


def test_criterion_3_eight_dot_case_tables():
    start = time.perf_counter()
    # Success-branch outputs of the three doubling cases, against the
    # doubled-distance output pair; the dict oracle cross-checks every branch.
    cases = {
        (PairTag.PSI, PairTag.PSI): {"eg": oracles.PLUS_GE, "ge": oracles.PLUS_EG},
        (PairTag.PSI_PRIME, PairTag.PSI_PRIME): {"eg": oracles.PLUS_GE, "ge": oracles.PLUS_EG},
        (PairTag.PSI, PairTag.PSI_PRIME): {"eg": oracles.PLUS_EG, "ge": oracles.PLUS_GE},
        (PairTag.PSI_PRIME, PairTag.PSI): {"eg": oracles.PLUS_EG, "ge": oracles.PLUS_GE},
    }
    oracle_inputs = {PairTag.PSI: oracles.PSI, PairTag.PSI_PRIME: oracles.PSI_PRIME}
    min_fid = 1.0
    max_prob_err = 0.0
    for (lt, rt), targets in cases.items():
        records = swap_effective(make_pair(lt, "1", "4"), make_pair(rt, "5", "8"))
        reference = oracles.oracle_swap(oracle_inputs[lt], oracle_inputs[rt], THETA_SWAP)
        for rec in records:
            outcome = rec.branch.outcome_string()
            p_ref, endpoint_ref = reference[outcome]
            max_prob_err = max(max_prob_err, abs(rec.branch.probability - p_ref))
            if rec.success:
                got = oracles.pair_dict(rec.output.amplitudes)
                min_fid = min(min_fid, oracles.phase_fidelity(targets[outcome], got))
                min_fid = min(min_fid, oracles.phase_fidelity(endpoint_ref, got))
    elapsed = time.perf_counter() - start
    _report(
        3,
        "all three 8-QD cases reproduce the doubled-pair outputs up to global phase",
        min_fid >= 1 - 1e-10 and max_prob_err <= 1e-12 and elapsed < 1.0,
        f"min fidelity {min_fid:.12f}, max prob err {max_prob_err:.1e}, {elapsed:.2f}s",
    )


def test_criterion_4_closure_to_depth_five():
    start = time.perf_counter()
    report = closure_check(5)
    base = report.table(2)
    tables_equal = all(report.table(level) == base for level in range(2, 6))
    tags_closed = all(
        c.output_tag in (PairTag.PSI, PairTag.PSI_PRIME)
        for c in report.cases
        if c.success
    )
    elapsed = time.perf_counter() - start
    _report(
        4,
        "tag set {psi, psi'} closed to depth 5 and level tables repeat the level-2 table",
        report.ok and tables_equal and tags_closed and not report.violations and elapsed < 5.0,
        f"{len(report.cases)} cases, periodic={report.periodic}, {elapsed:.2f}s",
    )


def test_criterion_5_global_vs_pairwise():
    start = time.perf_counter()
    left_records = {
        r.branch.outcome_string(): r
        for r in swap_effective(prepare_singlet(1, 2), prepare_singlet(3, 4))
    }
    right_records = {
        r.branch.outcome_string(): r
        for r in swap_effective(prepare_singlet(5, 6), prepare_singlet(7, 8))
    }
    state = tensor([prepare_singlet(2 * i + 1, 2 * i + 2).to_state_vector() for i in range(4)])
    u = _exchange_unitary(THETA_SWAP)
    state = apply(u, ["2", "3"], state)
    state = apply(u, ["6", "7"], state)

    max_prob_err = 0.0
    min_fid = 1.0
    for joint in enumerate_branches(state, ["2", "3", "6", "7"]):
        outcome = joint.outcome_string()
        expected = (
            left_records[outcome[:2]].branch.probability
            * right_records[outcome[2:]].branch.probability
        )
        max_prob_err = max(max_prob_err, abs(joint.probability - expected))
        if joint.outcomes["2"] != joint.outcomes["3"] and joint.outcomes["6"] != joint.outcomes["7"]:
            inner = swap_effective(
                left_records[outcome[:2]].output, right_records[outcome[2:]].output
            )
            pairwise = {r.branch.outcome_string(): r for r in inner}
            evolved = apply(u, ["4", "5"], discard(joint.post_state, ["2", "3", "6", "7"]))
            for second in enumerate_branches(evolved, ["4", "5"]):
                ref = pairwise[second.outcome_string()]
                max_prob_err = max(
                    max_prob_err, abs(second.probability - ref.branch.probability)
                )
                endpoint = discard(second.post_state, ["4", "5"])
                target = ref.output.to_state_vector()
                min_fid = min(
                    min_fid, abs(np.vdot(target.amplitudes, endpoint.amplitudes)) ** 2
                )
    elapsed = time.perf_counter() - start
    _report(
        5,
        "full 8-qubit simulation of two nested swaps matches pairwise mode",
        max_prob_err <= 1e-12 and min_fid >= 1 - 1e-10 and elapsed < 10.0,
        f"max prob err {max_prob_err:.1e}, min conditional fidelity {min_fid:.12f}, "
        f"{elapsed:.2f}s",
    )


@pytest.mark.filterwarnings("ignore:parameters not dispersive")
def test_criterion_6_dispersive_validation():
    start = time.perf_counter()
    left, right = prepare_singlet(1, 2), prepare_singlet(3, 4)
    infidelities = []
    for ratio in SWEEP_RATIOS:
        p = PhysParams.from_ratio(delta_over_g=ratio)
        result = swap_full_cavity(left, right, p, theta=THETA_SWAP)
        infidelities.append(result.conditional_infidelity)
    # infidelity as a fraction of the leakage envelope 4(g/Δ)²
    worst = max(i * r**2 / 4 for r, i in zip(SWEEP_RATIOS, infidelities))
    at_40 = infidelities[SWEEP_RATIOS.index(40.0)]
    sweep = dispersive_sweep(SWEEP_RATIOS, PhysParams.from_ratio(), THETA_SWAP)
    agree = max(
        abs(pt.conditional_infidelity - i) for pt, i in zip(sweep, infidelities)
    )
    elapsed = time.perf_counter() - start
    _report(
        6,
        "full-model infidelity within the leakage envelope 4(g/Δ)², <0.05 at ratio 40",
        worst <= 1.01
        and at_40 < 0.05
        and agree < 1e-15
        and elapsed < 60.0,
        f"infidelities {['%.2e' % v for v in infidelities]}, "
        f"worst fraction of envelope {worst:.4f}, {elapsed:.1f}s",
    )


def test_criterion_7_monte_carlo():
    start = time.perf_counter()
    seed = 20260808

    # 1e5 sampled swaps: empirical success within 0.5 +/- 3 sigma
    left, right = prepare_singlet(1, 2), prepare_singlet(3, 4)
    n_swaps = 100_000
    flags = [
        swap_effective(left, right, THETA_SWAP, rng=RngStream(seed, trial)).success
        for trial in range(n_swaps)
    ]
    swap_stats = success_stats([SimpleNamespace(success=f) for f in flags])
    frequency = swap_stats.mean
    freq_ok = abs(frequency - 0.5) <= 0.0047 and swap_stats.ci99[0] < 0.5 < swap_stats.ci99[1]

    # depth-3 chains, discard-both: per-level attempts-per-build ~ Geometric(1/2)
    n_chains = 4000
    depth = 3
    pooled = [dict() for _ in range(depth)]
    chain_records = []
    for trial in range(n_chains):
        rec = run_chain(depth, RngStream(seed + 1, trial))
        chain_records.append(rec)
        for level in range(depth):
            for tries, count in rec.attempt_histograms[level].items():
                pooled[level][tries] = pooled[level].get(tries, 0) + count
    p_values = []
    for level in range(depth):
        histogram = pooled[level]
        n_builds = sum(histogram.values())
        tail_start = 7
        observed = [histogram.get(k, 0) for k in range(1, tail_start)]
        observed.append(sum(c for k, c in histogram.items() if k >= tail_start))
        expected = [n_builds * 0.5**k for k in range(1, tail_start)]
        expected.append(n_builds * 0.5 ** (tail_start - 1))
        _, p_value = stats.chisquare(observed, expected)
        p_values.append(p_value)
    geometric_ok = all(p > 0.001 for p in p_values)

    # determinism: the first 100 streams reproduce the identical records
    replay_ok = all(
        run_chain(depth, RngStream(seed + 1, trial)).attempts == chain_records[trial].attempts
        and run_chain(depth, RngStream(seed + 1, trial)).final_tag is chain_records[trial].final_tag
        for trial in range(100)
    )
    elapsed = time.perf_counter() - start
    _report(
        7,
        "Monte Carlo: success frequency within 3 sigma of 1/2, geometric(1/2) retries, "
        "seed-deterministic",
        freq_ok and geometric_ok and replay_ok and elapsed < 30.0,
        f"freq {frequency:.5f}, chi2 p-values {['%.3f' % p for p in p_values]}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_metric_sanity():
    rng = np.random.default_rng(99)
    combos = [
        (PairTag.SINGLET, PairTag.SINGLET),
        (PairTag.PSI, PairTag.PSI),
        (PairTag.PSI_PRIME, PairTag.PSI_PRIME),
        (PairTag.PSI, PairTag.PSI_PRIME),
        (PairTag.PSI_PRIME, PairTag.PSI),
    ]
    worst = 1.0
    for lt, rt in combos:
        for rec in swap_effective(make_pair(lt, "1", "2"), make_pair(rt, "3", "4")):
            if rec.success:
                worst = min(worst, concurrence(rec.output.to_state_vector()))
    product_zero = max(
        concurrence(qubit_basis(("a", "b"), config)) for config in ("gg", "ge", "eg", "ee")
    )
    max_invariance_err = 0.0
    for _ in range(30):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        state = StateVector(amps, (2, 2), ("a", "b"))
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = StateVector(u @ amps, (2, 2), ("a", "b"))
        max_invariance_err = max(
            max_invariance_err, abs(concurrence(rotated) - concurrence(state))
        )
    _report(
        8,
        "concurrence: 1 on success outputs, 0 on products, local-unitary invariant",
        abs(worst - 1.0) <= 1e-10 and product_zero == 0.0 and max_invariance_err <= 1e-10,
        f"min success concurrence {worst:.12f}, product max {product_zero:.1e}, "
        f"invariance err {max_invariance_err:.1e}",
    )
