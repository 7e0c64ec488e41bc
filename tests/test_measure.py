import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qdrepeater.hilbert import apply, qubit_basis, tensor
from qdrepeater.measure import RngStream, discard, enumerate_branches, first_uniforms, sample
from qdrepeater.protocol import _exchange_unitary, prepare_singlet

from conftest import random_state

SINGLET_SV = prepare_singlet("QD1", "QD2").to_state_vector()


def eq9_state():
    """Two singlets with the middle pair exchanged for λt = π/4 (the 16-dim state)."""
    state = tensor(
        [
            prepare_singlet("QD1", "QD2").to_state_vector(),
            prepare_singlet("QD3", "QD4").to_state_vector(),
        ]
    )
    return apply(_exchange_unitary(np.pi / 4), ["QD2", "QD3"], state)


class TestEnumerate:
    def test_ground_product_state(self):
        branches = enumerate_branches(qubit_basis(("a", "b"), "gg"), ["a", "b"])
        by_outcome = {b.outcome_string(): b for b in branches}
        assert by_outcome["gg"].probability == 1.0
        assert not by_outcome["gg"].negligible
        for outcome in ("ge", "eg", "ee"):
            assert by_outcome[outcome].probability == 0.0
            assert by_outcome[outcome].negligible

    def test_singlet_probabilities(self):
        branches = enumerate_branches(SINGLET_SV, ["QD1", "QD2"])
        probs = {b.outcome_string(): b.probability for b in branches}
        assert probs["eg"] == pytest.approx(0.5, abs=1e-15)
        assert probs["ge"] == pytest.approx(0.5, abs=1e-15)
        assert probs["gg"] == 0.0 and probs["ee"] == 0.0

    def test_evolved_double_singlet_quarters(self):
        branches = enumerate_branches(eq9_state(), ["QD2", "QD3"])
        for b in branches:
            assert b.probability == pytest.approx(0.25, abs=1e-12)

    def test_branch_order_is_g_before_e(self):
        branches = enumerate_branches(qubit_basis(("a", "b"), "gg"), ["a", "b"])
        assert [b.outcome_string() for b in branches] == ["gg", "ge", "eg", "ee"]

    def test_completeness_over_random_states(self, rng):
        spaces = [((2, 2), ("a", "b")), ((2, 2, 2), ("a", "b", "c")), ((2, 2, 3), ("a", "b", "m"))]
        for i in range(1000):
            dims, labels = spaces[i % len(spaces)]
            state = random_state(rng, dims, labels)
            branches = enumerate_branches(state, ["a", "b"])
            assert abs(sum(b.probability for b in branches) - 1.0) < 1e-12

    def test_post_state_collapsed_and_normalized(self):
        branches = enumerate_branches(SINGLET_SV, ["QD1"])
        for b in branches:
            assert abs(b.post_state.norm() - 1.0) < 1e-12
            again = enumerate_branches(b.post_state, ["QD1"])
            match = [x for x in again if x.outcomes == b.outcomes]
            assert match[0].probability == pytest.approx(1.0, abs=1e-12)

    def test_projection_idempotent_two_qubits(self):
        for b in enumerate_branches(eq9_state(), ["QD2", "QD3"]):
            again = enumerate_branches(b.post_state, ["QD2", "QD3"])
            same = [x for x in again if x.outcomes == b.outcomes]
            assert same[0].probability == pytest.approx(1.0, abs=1e-12)

    def test_non_qubit_subsystem_rejected(self, rng):
        state = random_state(rng, (3, 2), ("cavity", "q"))
        with pytest.raises(ValueError, match="not a qubit"):
            enumerate_branches(state, ["cavity"])

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="no subsystem"):
            enumerate_branches(SINGLET_SV, ["nope"])


class TestSample:
    def test_definite_state_always_same_outcome(self):
        rng = RngStream(3, 0)
        state = qubit_basis(("a", "b"), "gg")
        for _ in range(50):
            assert sample(state, ["a", "b"], rng).outcome_string() == "gg"

    def test_singlet_frequency_three_sigma(self):
        rng = RngStream(11, 0)
        n = 100_000
        hits = sum(
            sample(SINGLET_SV, ["QD1", "QD2"], rng).outcome_string() == "eg" for _ in range(n)
        )
        sigma = np.sqrt(0.25 / n)
        assert abs(hits / n - 0.5) < 3 * sigma

    def test_fixed_seed_reproduces_sequence(self):
        seqs = []
        for _ in range(2):
            rng = RngStream(42, 5)
            seqs.append(
                [sample(SINGLET_SV, ["QD1", "QD2"], rng).outcome_string() for _ in range(200)]
            )
        assert seqs[0] == seqs[1]

    def test_chi_square_consistency_with_enumeration(self, rng):
        state = random_state(rng, (2, 2, 2), ("a", "b", "c"))
        expected = {
            b.outcome_string(): b.probability for b in enumerate_branches(state, ["a", "c"])
        }
        stream = RngStream(99, 0)
        n = 100_000
        counts = {k: 0 for k in expected}
        for _ in range(n):
            counts[sample(state, ["a", "c"], stream).outcome_string()] += 1
        observed = [counts[k] for k in expected]
        reference = [n * expected[k] for k in expected]
        _, p_value = stats.chisquare(observed, reference)
        assert p_value > 0.001

    def test_sampled_branch_matches_enumerated(self):
        state = eq9_state()
        rng = RngStream(1, 2)
        enumerated = {b.outcome_string(): b for b in enumerate_branches(state, ["QD2", "QD3"])}
        s = sample(state, ["QD2", "QD3"], rng)
        ref = enumerated[s.outcome_string()]
        assert s.probability == ref.probability
        assert np.array_equal(s.post_state.amplitudes, ref.post_state.amplitudes)


class TestRngStream:
    def test_identified_by_seed_and_stream(self):
        a, b = RngStream(7, 3), RngStream(7, 3)
        assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]

    def test_distinct_streams_differ(self):
        a, b = RngStream(7, 0), RngStream(7, 1)
        assert [a.uniform() for _ in range(10)] != [b.uniform() for _ in range(10)]

    def test_draw_count_tracked(self):
        s = RngStream(0, 0)
        for _ in range(5):
            s.uniform()
        assert s.draw_count == 5

    def test_spawn(self):
        assert RngStream(5, 0).spawn(4).uniform() == RngStream(5, 4).uniform()

    def test_reference_draws_frozen(self):
        # platform-stability canary: PCG64 under SeedSequence(0, spawn_key=(0,))
        s = RngStream(0, 0)
        draws = np.array([s.uniform() for _ in range(3)])
        expected = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(0, spawn_key=(0,)))
        ).random(3)
        assert np.array_equal(draws, expected)


WORD_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
WORD_INDICES = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
U64 = st.integers(min_value=0, max_value=2**64 - 1)


class TestFirstUniforms:
    """The batch kernel against one RngStream per stream, bit for bit."""

    @pytest.mark.parametrize("seed", WORD_SEEDS)
    def test_word_boundaries(self, seed):
        draws = first_uniforms(seed, np.array(WORD_INDICES, dtype=np.uint64))
        assert draws.dtype == np.float64
        assert draws.tolist() == [RngStream(seed, i).uniform() for i in WORD_INDICES]

    @settings(max_examples=200, deadline=None)
    @given(seed=U64, indices=st.lists(U64, min_size=1, max_size=8))
    def test_matches_rng_stream(self, seed, indices):
        draws = first_uniforms(seed, np.array(indices, dtype=np.uint64))
        assert draws.tolist() == [RngStream(seed, i).uniform() for i in indices]

    def test_consecutive_trials(self):
        draws = first_uniforms(7, np.arange(500))
        assert draws.tolist() == [RngStream(7, i).uniform() for i in range(500)]
        assert first_uniforms(7, np.arange(0)).shape == (0,)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="master_seed"):
            first_uniforms(2**64, np.arange(3))
        with pytest.raises(ValueError, match="non-negative"):
            first_uniforms(0, np.array([0, -1]))
        with pytest.raises(ValueError, match="integer"):
            first_uniforms(0, np.array([0.0, 1.0]))


class TestDiscard:
    def test_drops_definite_subsystems(self):
        state = tensor([qubit_basis(("m",), "e"), SINGLET_SV])
        out = discard(state, ["m"])
        assert out.labels == ("QD1", "QD2")
        assert np.max(np.abs(out.amplitudes - SINGLET_SV.amplitudes)) < 1e-15

    def test_measured_qubits_discardable(self):
        branch = enumerate_branches(eq9_state(), ["QD2", "QD3"])[1]
        out = discard(branch.post_state, ["QD2", "QD3"])
        assert out.labels == ("QD1", "QD4")
        assert abs(out.norm() - 1.0) < 1e-12

    def test_entangled_subsystem_rejected(self):
        with pytest.raises(ValueError, match="cannot discard"):
            discard(SINGLET_SV, ["QD1"])

    def test_cannot_discard_everything(self):
        state = qubit_basis(("a",), "g")
        with pytest.raises(ValueError, match="every subsystem"):
            discard(state, ["a"])
