import numpy as np
import pytest

from qdrepeater.analysis import concurrence, fidelity
from qdrepeater.hilbert import apply, fock_vacuum, propagator, tensor
from qdrepeater.measure import RngStream, discard, enumerate_branches, sample
from qdrepeater.model import CAVITY_DIM, PhysParams, build_full_tcm, build_h0
from qdrepeater.protocol import (
    SWAP_TABLE_SIZE,
    TARGET_AMPLITUDES,
    THETA_SWAP,
    PairState,
    PairTag,
    RetryPolicy,
    _compose_pairs,
    _exchange_unitary,
    _swap_table,
    classify_pair,
    closure_check,
    prepare_singlet,
    run_chain,
    sample_branches,
    swap_effective,
    swap_full_cavity,
)

import oracles


class FixedRng:
    """Stub stream returning a constant uniform; 0.6 forces branch eg, 0.1 gg."""

    def __init__(self, value):
        self.value = value

    def uniform(self):
        return self.value


def make_pair(tag, left="QD1", right="QD4"):
    return PairState(left, right, TARGET_AMPLITUDES[tag])


def pair_as_dict(pair):
    return oracles.pair_dict(pair.amplitudes)


INPUT_COMBOS = [
    (PairTag.SINGLET, PairTag.SINGLET),
    (PairTag.PSI, PairTag.PSI),
    (PairTag.PSI_PRIME, PairTag.PSI_PRIME),
    (PairTag.PSI, PairTag.PSI_PRIME),
    (PairTag.PSI_PRIME, PairTag.PSI),
]


class TestPairState:
    def test_singlet_amplitudes(self):
        pair = prepare_singlet(1, 2)
        assert np.allclose(pair.amplitudes, [0, 1 / np.sqrt(2), -1 / np.sqrt(2), 0])
        assert pair.tag is PairTag.SINGLET
        assert pair.left_qd == "1" and pair.right_qd == "2"

    def test_singlet_maximally_entangled(self):
        assert concurrence(prepare_singlet(1, 2).to_state_vector()) == pytest.approx(1.0)

    def test_identical_ids_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            prepare_singlet(3, 3)
        with pytest.raises(ValueError, match="distinct"):
            PairState("a", "a", TARGET_AMPLITUDES[PairTag.PSI])

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            PairState("a", "b", [1, 1, 0, 0])

    def test_state_vector_round_trip(self):
        pair = make_pair(PairTag.PSI)
        sv = pair.to_state_vector()
        assert sv.labels == ("QD1", "QD4")
        back = PairState.from_state_vector(sv, "QD1", "QD4")
        assert np.array_equal(back.amplitudes, pair.amplitudes)
        assert back.tag is PairTag.PSI

    def test_with_endpoints_keeps_tag(self):
        moved = make_pair(PairTag.PSI_PRIME).with_endpoints("QD1", "QD8")
        assert moved.tag is PairTag.PSI_PRIME
        assert moved.left_qd == "QD1" and moved.right_qd == "QD8"


class TestClassify:
    def test_canonical_swap_outputs(self):
        psi = np.array([0, -1j, 1, 0]) / np.sqrt(2)  # (|ge> - i|eg>)/sqrt2
        assert classify_pair(psi) is PairTag.PSI
        psi_prime = np.array([0, 1, -1j, 0]) / np.sqrt(2)
        assert classify_pair(psi_prime) is PairTag.PSI_PRIME

    def test_global_phase_invariance(self, rng):
        for _ in range(25):
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert classify_pair(phase * TARGET_AMPLITUDES[PairTag.PSI]) is PairTag.PSI

    def test_product_state_is_other(self):
        assert classify_pair(np.array([0, 1, 0, 0], dtype=complex)) is PairTag.OTHER

    def test_tolerance_boundary(self):
        amps = TARGET_AMPLITUDES[PairTag.PSI].copy()
        amps = amps + np.array([0.01, 0, 0, 0])
        amps /= np.linalg.norm(amps)
        assert classify_pair(amps, tol=1e-8) is PairTag.OTHER
        assert classify_pair(amps, tol=1e-3) is PairTag.PSI


class TestSwapEffective:
    def test_singlet_swap_branches(self):
        records = swap_effective(prepare_singlet(1, 2), prepare_singlet(3, 4))
        assert [r.branch.outcome_string() for r in records] == ["gg", "ge", "eg", "ee"]
        for r in records:
            assert r.branch.probability == pytest.approx(0.25, abs=1e-12)
        by = {r.branch.outcome_string(): r for r in records}
        assert by["eg"].success and by["ge"].success
        assert not by["gg"].success and not by["ee"].success
        assert by["eg"].output.tag is PairTag.PSI
        assert by["ge"].output.tag is PairTag.PSI_PRIME
        assert by["eg"].output.fidelity_to(PairTag.PSI) >= 1 - 1e-12
        assert by["ge"].output.fidelity_to(PairTag.PSI_PRIME) >= 1 - 1e-12
        assert by["gg"].output.tag is PairTag.OTHER

    def test_success_probability_exactly_half(self):
        for lt, rt in INPUT_COMBOS:
            records = swap_effective(make_pair(lt, "1", "2"), make_pair(rt, "3", "4"))
            p = sum(r.branch.probability for r in records if r.success)
            assert p == pytest.approx(0.5, abs=1e-12), (lt, rt)

    @pytest.mark.parametrize("theta", [0.0, 0.3, THETA_SWAP, 1.1])
    def test_matches_independent_oracle(self, theta):
        oracle_inputs = {
            PairTag.SINGLET: oracles.SINGLET,
            PairTag.PSI: oracles.PSI,
            PairTag.PSI_PRIME: oracles.PSI_PRIME,
        }
        for lt, rt in INPUT_COMBOS:
            records = swap_effective(make_pair(lt, "1", "2"), make_pair(rt, "3", "4"), theta)
            expected = oracles.oracle_swap(oracle_inputs[lt], oracle_inputs[rt], theta)
            for rec in records:
                p_exp, endpoint_exp = expected[rec.branch.outcome_string()]
                assert rec.branch.probability == pytest.approx(p_exp, abs=1e-12)
                if rec.output is not None and p_exp > 1e-14:
                    fid = oracles.phase_fidelity(endpoint_exp, pair_as_dict(rec.output))
                    assert fid >= 1 - 1e-12

    def test_theta_zero_reproduces_product_measurement(self):
        records = swap_effective(prepare_singlet(1, 2), prepare_singlet(3, 4), 0.0)
        for rec in records:
            assert rec.branch.probability == pytest.approx(0.25, abs=1e-12)
            assert concurrence(rec.output.to_state_vector()) == pytest.approx(0.0, abs=1e-12)
            assert rec.output.tag is PairTag.OTHER

    def test_doubling_case_tables(self):
        # all three 8-QD input cases land on the same output pair up to phase:
        # (|ge> + i|eg>)/sqrt2 and (|eg> + i|ge>)/sqrt2
        cases = {
            (PairTag.PSI, PairTag.PSI): {"eg": oracles.PLUS_GE, "ge": oracles.PLUS_EG},
            (PairTag.PSI_PRIME, PairTag.PSI_PRIME): {"eg": oracles.PLUS_GE, "ge": oracles.PLUS_EG},
            (PairTag.PSI, PairTag.PSI_PRIME): {"eg": oracles.PLUS_EG, "ge": oracles.PLUS_GE},
            (PairTag.PSI_PRIME, PairTag.PSI): {"eg": oracles.PLUS_EG, "ge": oracles.PLUS_GE},
        }
        for (lt, rt), branch_targets in cases.items():
            records = swap_effective(make_pair(lt, "1", "4"), make_pair(rt, "5", "8"))
            by = {r.branch.outcome_string(): r for r in records}
            for outcome, target in branch_targets.items():
                got = pair_as_dict(by[outcome].output)
                assert oracles.phase_fidelity(target, got) >= 1 - 1e-10, (lt, rt, outcome)

    def test_success_outputs_maximally_entangled(self):
        for lt, rt in INPUT_COMBOS:
            for rec in swap_effective(make_pair(lt, "1", "2"), make_pair(rt, "3", "4")):
                if rec.success:
                    c = concurrence(rec.output.to_state_vector())
                    assert abs(c - 1.0) < 1e-10

    def test_id_collision_rejected(self):
        with pytest.raises(ValueError, match="collision"):
            swap_effective(prepare_singlet(1, 2), prepare_singlet(2, 3))

    def test_sample_mode_consistent_with_enumeration(self):
        left, right = prepare_singlet(1, 2), prepare_singlet(3, 4)
        enumerated = {r.branch.outcome_string(): r for r in swap_effective(left, right)}
        rec = swap_effective(left, right, rng=FixedRng(0.6))
        assert rec.branch.outcome_string() == "eg"
        ref = enumerated["eg"]
        assert rec.branch.probability == ref.branch.probability
        assert np.array_equal(rec.output.amplitudes, ref.output.amplitudes)

    def test_theta_sensitivity_recorded(self):
        # success parity stays exactly 1/2 off the magic angle (middle pair is
        # maximally mixed); what degrades is the conditional output quality
        for theta in (THETA_SWAP - 0.01, THETA_SWAP + 0.01):
            records = swap_effective(prepare_singlet(1, 2), prepare_singlet(3, 4), theta)
            p = sum(r.branch.probability for r in records if r.success)
            assert abs(p - 0.5) < 1e-4
            for rec in records:
                if rec.success:
                    c = concurrence(rec.output.to_state_vector())
                    assert 0.999 < c < 1.0
                    assert rec.output.tag is PairTag.OTHER


def chain_outputs():
    """Distinct psi / psi_prime pairs (exact amplitudes) ending real chains."""
    found = {}
    for depth in (1, 2, 3):
        for trial in range(12):
            pair = run_chain(depth, RngStream(31, trial)).final_pair
            found.setdefault(pair.amplitudes.tobytes(), pair)
    return list(found.values())


def assert_same_record(rec, branch, left, right, theta):
    """`rec` from swap_effective equals, byte for byte, the uncached `branch`."""
    middle = (left.right_qd, right.left_qd)
    assert list(rec.branch.outcomes.items()) == list(branch.outcomes.items())
    assert rec.branch.probability == branch.probability
    assert rec.branch.post_state.amplitudes.tobytes() == branch.post_state.amplitudes.tobytes()
    assert rec.branch.post_state.labels == branch.post_state.labels
    assert rec.branch.negligible == branch.negligible
    assert rec.success == (branch.outcomes[middle[0]] != branch.outcomes[middle[1]])
    assert (rec.left_tag, rec.right_tag, rec.theta) == (left.tag, right.tag, theta)
    if branch.negligible:
        assert rec.output is None
        return
    endpoint = discard(branch.post_state, middle)
    expected = PairState.from_state_vector(endpoint, left.left_qd, right.right_qd)
    assert rec.output.amplitudes.tobytes() == expected.amplitudes.tobytes()
    assert (rec.output.left_qd, rec.output.right_qd) == (left.left_qd, right.right_qd)
    assert rec.output.tag is expected.tag


class TestSwapTable:
    """The memoised branch table against the composed-and-measured state."""

    def test_records_match_uncached_measurement(self):
        outputs = chain_outputs()
        assert {p.tag for p in outputs} == {PairTag.PSI, PairTag.PSI_PRIME}
        inputs = [(prepare_singlet(1, 2), prepare_singlet(3, 4))]
        inputs += [(a, b) for a in outputs for b in outputs]
        _swap_table.cache_clear()
        for theta in (THETA_SWAP, 0.0, 0.3, 1.234):
            for trial, (a, b) in enumerate(inputs):
                # a miss under one set of ids, then a hit under another
                for ids in (("QD1", "QD4", "QD5", "QD8"), ("w", "x", "y", "z")):
                    left = a.with_endpoints(ids[0], ids[1])
                    right = b.with_endpoints(ids[2], ids[3])
                    state, middle = _compose_pairs(left, right)
                    state = apply(_exchange_unitary(theta), middle, state)
                    records = swap_effective(left, right, theta)
                    branches = enumerate_branches(state, middle)
                    assert len(records) == len(branches)
                    for rec, branch in zip(records, branches):
                        assert_same_record(rec, branch, left, right, theta)
                    ours, theirs = RngStream(77, trial), RngStream(77, trial)
                    rec = swap_effective(left, right, theta, rng=ours)
                    assert_same_record(rec, sample(state, middle, theirs), left, right, theta)
                    assert ours.draw_count == theirs.draw_count == 1
        info = _swap_table.cache_info()
        assert info.misses == 4 * len(inputs)
        assert info.hits == 3 * info.misses

    def test_cache_hit_still_rejects_id_collision(self):
        swap_effective(prepare_singlet(1, 2), prepare_singlet(3, 4))
        misses = _swap_table.cache_info().misses
        with pytest.raises(ValueError, match="collision"):
            swap_effective(prepare_singlet(1, 2), prepare_singlet(2, 3))
        with pytest.raises(ValueError, match="collision"):
            swap_effective(prepare_singlet(1, 2), prepare_singlet(3, 1), rng=RngStream(0))
        swap_effective(prepare_singlet(5, 6), prepare_singlet(7, 8))
        assert _swap_table.cache_info().misses == misses

    def test_size_bounded_over_theta_sweep(self):
        left, right = prepare_singlet(1, 2), prepare_singlet(3, 4)
        _swap_table.cache_clear()
        n = 3 * SWAP_TABLE_SIZE
        for theta in np.linspace(0.0, np.pi, n):
            swap_effective(left, right, theta, rng=RngStream(0))
        info = _swap_table.cache_info()
        assert info.misses == n
        assert info.currsize <= SWAP_TABLE_SIZE


class TestSampleBranches:
    """The batch pick against the scalar sampled swap, draw for draw."""

    @pytest.mark.parametrize("theta", [THETA_SWAP, 0.0, 0.3, 1.234])
    def test_picks_match_swap_effective(self, theta):
        left, right = make_pair(PairTag.PSI, "a", "b"), make_pair(PairTag.PSI_PRIME, "c", "d")
        state, middle = _compose_pairs(left, right)
        state = apply(_exchange_unitary(theta), middle, state)
        probs = np.array([b.probability for b in enumerate_branches(state, middle)])
        cumsum, total = np.cumsum(probs), probs.sum()
        # draws whose scaled value lands exactly on a Born boundary, where the
        # side of the search decides the branch
        near = [np.nextafter(c / total, d) for c in cumsum[:-1] for d in (0.0, 2.0)]
        exact = [u for u in [c / total for c in cumsum[:-1]] + near if u * total in cumsum]
        assert exact
        draws = np.array([0.0, 1.0 - 2.0**-53, *exact, *near, *np.linspace(0.0, 0.99, 100)])
        records, picks = sample_branches(left, right, theta, draws)
        enumerated = swap_effective(left, right, theta)
        assert len(records) == len(enumerated)
        for rec, ref in zip(records, enumerated):
            assert rec.branch.outcomes == ref.branch.outcomes
            assert rec.branch.probability == ref.branch.probability
        for u, k in zip(draws, picks):
            expected = sample(state, middle, FixedRng(float(u))).outcome_string()
            assert records[k].branch.outcome_string() == expected
            rec = swap_effective(left, right, theta, rng=FixedRng(float(u)))
            assert rec.branch.outcomes == records[k].branch.outcomes

    @pytest.mark.parametrize("theta", [THETA_SWAP, 0.0, 0.3, 1.234])
    def test_negligible_branches_never_picked(self, theta):
        # a singlet beside a product |g>|e>: one middle excitation at most, so ee is empty
        left = prepare_singlet(1, 2)
        right = PairState(3, 4, np.array([0, 0, 1, 0], dtype=complex))
        draws = np.linspace(0.0, 1.0 - 2.0**-53, 1001)
        records, picks = sample_branches(left, right, theta, draws)
        assert records[3].branch.negligible
        assert 3 not in set(picks.tolist())
        for u, k in zip(draws, picks):
            rec = swap_effective(left, right, theta, rng=FixedRng(float(u)))
            assert rec.branch.outcomes == records[k].branch.outcomes


class TestThetaPeriod:
    """The exchange has period π in θ, so huge angles still give a unitary swap."""

    def test_small_angles_unchanged(self):
        from qdrepeater.hilbert import propagator
        from qdrepeater.model import exchange_generator

        for theta in (THETA_SWAP, 0.3, 1.234, -3.0, 3.14):
            direct = propagator(exchange_generator(("mid_a", "mid_b")), theta)
            assert _exchange_unitary(theta).entries.tobytes() == direct.entries.tobytes()

    @pytest.mark.parametrize("theta", [1e308, -1e308, 1e20, 4 * np.pi + 0.3])
    def test_huge_angles(self, theta):
        left, right = prepare_singlet(1, 2), prepare_singlet(3, 4)
        records = swap_effective(left, right, theta)
        assert sum(r.branch.probability for r in records) == pytest.approx(1.0, abs=1e-12)
        reduced = swap_effective(left, right, float(np.fmod(theta, np.pi)))
        for rec, ref in zip(records, reduced):
            assert rec.branch.probability == ref.branch.probability


class TestSwapFullCavity:
    def test_regression_baseline_at_default_ratio(self):
        res = swap_full_cavity(prepare_singlet(1, 2), prepare_singlet(3, 4), PhysParams.from_ratio())
        assert res.conditional_infidelity == pytest.approx(4.08185157176888e-05, abs=1e-9)
        assert sum(res.branch_probabilities.values()) == pytest.approx(1.0, abs=1e-12)

    def test_large_detuning_limit(self):
        p = PhysParams.from_ratio(delta_over_g=80.0)
        res = swap_full_cavity(prepare_singlet(1, 2), prepare_singlet(3, 4), p)
        for prob in res.branch_probabilities.values():
            assert abs(prob - 0.25) < 0.01
        for fid in res.fidelity_to_effective.values():
            assert fid > 0.98

    def test_decoupled_limit_matches_theta_zero(self):
        p = PhysParams(omega_cavity=1.0, omega_qubit=1.2, g=0.0)
        left, right = prepare_singlet(1, 2), prepare_singlet(3, 4)
        res = swap_full_cavity(left, right, p, theta=0.0, t=7.3)
        effective = {r.branch.outcome_string(): r for r in swap_effective(left, right, 0.0)}
        for outcome, prob in res.branch_probabilities.items():
            assert prob == pytest.approx(0.25, abs=1e-12)
        for outcome, rho in res.endpoint_states.items():
            target = effective[outcome].output.to_state_vector()
            assert fidelity(rho, target) == pytest.approx(1.0, abs=1e-12)

    def test_nondispersive_warns(self):
        p = PhysParams.from_ratio(delta_over_g=5.0)
        with pytest.warns(UserWarning, match="not dispersive"):
            swap_full_cavity(prepare_singlet(1, 2), prepare_singlet(3, 4), p)

    @pytest.mark.filterwarnings("ignore:parameters not dispersive")
    def test_fixed_cavity_is_exact(self):
        """Three cavity levels reproduce 9- and 17-level evolutions: no photon
        number above 2 is ever reached from a vacuum cavity."""
        singlets = (prepare_singlet(1, 2), prepare_singlet(3, 4))
        outputs = {r.branch.outcome_string(): r.output for r in swap_effective(*singlets)}
        # the psi / psi_prime swap that the closure check reaches at level 2
        reached = (outputs["eg"].with_endpoints(1, 4), outputs["ge"].with_endpoints(5, 8))
        for ratio in (5.0, 10.0, 20.5, 80.0):
            p = PhysParams.from_ratio(ratio)
            t = THETA_SWAP / p.lam
            for left, right in (singlets, reached):
                pairs = tensor([left.to_state_vector(), right.to_state_vector()])
                space = ("cavity", left.right_qd, right.left_qd)
                state = tensor([fock_vacuum("cavity", CAVITY_DIM), pairs])
                state = apply(propagator(build_full_tcm(p, space), t), space, state)
                aligned = apply(propagator(build_h0(p, space), -t), space, state)
                aligned = aligned.amplitudes.reshape(CAVITY_DIM, 2, 2, 2, 2)
                result = swap_full_cavity(left, right, p)
                for levels in (9, 17):
                    ref = aligned_reference(pairs.amplitudes, p, t, levels)
                    case = f"Δ/g = {ratio}, {left.tag.value} x {right.tag.value}, {levels} levels"
                    assert np.sum(np.abs(ref[CAVITY_DIM:]) ** 2) < 1e-30, case
                    # rounding floor of phases ‖H‖t ~ 1e4, not a truncation error
                    assert np.max(np.abs(ref[:CAVITY_DIM] - aligned)) < 1e-12, case
                    for outcome, prob in result.branch_probabilities.items():
                        block = ref[:, :, QUBIT[outcome[0]], QUBIT[outcome[1]], :].reshape(levels, 4)
                        weight = np.sum(np.abs(block) ** 2)
                        assert abs(weight - prob) < 1e-13, case
                        if outcome in result.endpoint_states:
                            rho = block.T @ block.conj() / weight
                            err = np.max(np.abs(rho - result.endpoint_states[outcome].entries))
                            assert err < 1e-13, case

    def test_cavity_label_collision_rejected(self):
        p = PhysParams.from_ratio()
        with pytest.raises(ValueError, match="collides"):
            swap_full_cavity(
                prepare_singlet("cavity", 2), prepare_singlet(3, 4), p
            )


QUBIT = {"g": 0, "e": 1}


def aligned_reference(amplitudes, p, t, levels):
    """e^{+i H0 t} e^{-i H t} on a vacuum cavity of `levels` levels coupled to
    the middle two of four qubits, built with numpy alone; axes (cavity, q1..q4)."""
    a = np.diag(np.sqrt(np.arange(1.0, levels)), 1)
    sz = np.diag([-1.0, 1.0])
    sp = np.array([[0.0, 0.0], [1.0, 0.0]])
    ic, iq = np.eye(levels), np.eye(2)

    def kron3(x, y, z):
        return np.kron(x, np.kron(y, z))

    h0 = p.omega_cavity * kron3(a.T @ a, iq, iq)
    h0 += 0.5 * p.omega_qubit * (kron3(ic, sz, iq) + kron3(ic, iq, sz))
    h = h0 + p.g * (kron3(a.T, sp.T, iq) + kron3(a, sp, iq) + kron3(a.T, iq, sp.T) + kron3(a, iq, sp))
    w, v = np.linalg.eigh(h)
    u = np.exp(1j * np.diag(h0) * t)[:, None] * ((v * np.exp(-1j * w * t)) @ v.conj().T)
    start = np.zeros((levels, 2, 2, 2, 2), dtype=complex)
    start[0] = amplitudes.reshape(2, 2, 2, 2)
    return np.einsum("nbcmxy,maxyd->nabcd", u.reshape(levels, 2, 2, levels, 2, 2), start)


class TestRunChain:
    def test_forced_eg_branch_depth_one(self):
        rec = run_chain(1, FixedRng(0.6))
        assert rec.success
        assert rec.final_tag is PairTag.PSI
        assert rec.pairs_consumed == 2
        assert rec.attempts == (1,) and rec.successes == (1,)
        assert rec.final_fidelity == pytest.approx(1.0, abs=1e-12)
        assert rec.final_pair.left_qd == "QD1" and rec.final_pair.right_qd == "QD4"

    def test_forced_ge_branch_gives_psi_prime(self):
        rec = run_chain(1, FixedRng(0.3))
        assert rec.final_tag is PairTag.PSI_PRIME

    def test_bounded_retries_exhaustion_is_failed_record(self):
        rec = run_chain(1, FixedRng(0.1), policy=RetryPolicy.bounded_retries(3))
        assert not rec.success
        assert rec.final_tag is None and rec.final_pair is None
        assert rec.attempts == (3,) and rec.successes == (0,)
        assert rec.pairs_consumed == 6

    def test_depth_two_covers_eight_dots(self):
        rec = run_chain(2, FixedRng(0.6))
        assert rec.success
        assert rec.final_pair.left_qd == "QD1" and rec.final_pair.right_qd == "QD8"
        assert rec.final_tag in (PairTag.PSI, PairTag.PSI_PRIME)
        assert rec.pairs_consumed == 4

    def test_geometric_attempts_mean(self):
        # discard-both depth 1: attempts per run ~ Geometric(1/2), mean 2
        n = 10_000
        attempts = [run_chain(1, RngStream(123, i)).attempts[0] for i in range(n)]
        mean = np.mean(attempts)
        sigma = np.sqrt(2.0 / n)  # Var[Geom(1/2)] = 2
        assert abs(mean - 2.0) < 3 * sigma
        assert np.mean([a == 1 for a in attempts]) == pytest.approx(0.5, abs=0.02)

    def test_deterministic_per_stream(self):
        a = run_chain(3, RngStream(9, 4))
        b = run_chain(3, RngStream(9, 4))
        assert a.attempts == b.attempts
        assert a.pairs_consumed == b.pairs_consumed
        assert a.final_tag is b.final_tag
        assert np.array_equal(a.final_pair.amplitudes, b.final_pair.amplitudes)

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            run_chain(0, FixedRng(0.5))

    def test_histograms_count_builds(self):
        rec = run_chain(2, RngStream(5, 1))
        for level in range(2):
            builds = sum(rec.attempt_histograms[level].values())
            assert builds == rec.successes[level]
            total = sum(k * v for k, v in rec.attempt_histograms[level].items())
            assert total == rec.attempts[level]


class TestClosure:
    def test_closed_to_depth_three(self):
        report = closure_check(3)
        assert report.ok and report.periodic
        assert not report.violations
        success_cases = [c for c in report.cases if c.success]
        assert all(c.output_tag in (PairTag.PSI, PairTag.PSI_PRIME) for c in success_cases)
        assert all(c.output_fidelity >= 1 - 1e-10 for c in success_cases)

    def test_level_one_produces_both_tags(self):
        report = closure_check(2)
        level1 = {c.outcome: c.output_tag for c in report.cases if c.level == 1 and c.success}
        assert level1 == {"eg": PairTag.PSI, "ge": PairTag.PSI_PRIME}

    def test_tables_stable_across_levels(self):
        report = closure_check(4)
        base = report.table(2)
        assert len(base) == 8  # 4 input combos x 2 success branches
        for level in (3, 4):
            assert report.table(level) == base

    def test_all_probabilities_quarter(self):
        report = closure_check(3)
        for case in report.cases:
            assert case.probability == pytest.approx(0.25, abs=1e-12)

    def test_depth_below_two_rejected(self):
        with pytest.raises(ValueError, match="max_depth"):
            closure_check(1)

    def test_off_angle_closure_violated(self):
        report = closure_check(2, theta=0.5)
        assert not report.ok
        assert report.violations


class TestGlobalModeEquivalence:
    def test_full_eight_qubit_state_matches_pairwise(self):
        # pairwise shortcut
        left_records = {
            r.branch.outcome_string(): r
            for r in swap_effective(prepare_singlet(1, 2), prepare_singlet(3, 4))
        }
        right_records = {
            r.branch.outcome_string(): r
            for r in swap_effective(prepare_singlet(5, 6), prepare_singlet(7, 8))
        }

        # global mode: all eight qubits in one state vector, both cavities on
        state = tensor([prepare_singlet(2 * i + 1, 2 * i + 2).to_state_vector() for i in range(4)])
        u = _exchange_unitary(THETA_SWAP)
        state = apply(u, ["2", "3"], state)
        state = apply(u, ["6", "7"], state)
        first = enumerate_branches(state, ["2", "3", "6", "7"])
        for joint in first:
            outcome = joint.outcome_string()
            p_expected = (
                left_records[outcome[:2]].branch.probability
                * right_records[outcome[2:]].branch.probability
            )
            assert joint.probability == pytest.approx(p_expected, abs=1e-12)

        # conditional on doubly-successful branches, the second-level swap must agree
        joint_success = [
            b
            for b in first
            if b.outcomes["2"] != b.outcomes["3"] and b.outcomes["6"] != b.outcomes["7"]
        ]
        assert len(joint_success) == 4
        for branch in joint_success:
            outcome = branch.outcome_string()
            inner_left = left_records[outcome[:2]].output
            inner_right = right_records[outcome[2:]].output
            pairwise = {
                r.branch.outcome_string(): r for r in swap_effective(inner_left, inner_right)
            }
            reduced = discard(branch.post_state, ["2", "3", "6", "7"])
            evolved = apply(u, ["4", "5"], reduced)
            for second in enumerate_branches(evolved, ["4", "5"]):
                ref = pairwise[second.outcome_string()]
                assert second.probability == pytest.approx(
                    ref.branch.probability, abs=1e-12
                )
                endpoint = discard(second.post_state, ["4", "5"])
                target = ref.output.to_state_vector()
                overlap = abs(np.vdot(target.amplitudes, endpoint.amplitudes)) ** 2
                assert overlap >= 1 - 1e-10
