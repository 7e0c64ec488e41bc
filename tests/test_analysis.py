import numpy as np
import pytest

from qdrepeater.analysis import (
    concurrence,
    dispersive_sweep,
    fidelity,
    infidelity_envelope,
    success_stats,
)
from qdrepeater.hilbert import DensityMatrix, StateVector, partial_trace, qubit_basis
from qdrepeater.measure import RngStream
from qdrepeater.model import PhysParams
from qdrepeater.protocol import (
    TARGET_AMPLITUDES,
    PairTag,
    prepare_singlet,
    swap_effective,
)

from conftest import random_state, random_unitary


def pair_sv(tag):
    return StateVector(TARGET_AMPLITUDES[tag][::-1], (2, 2), ("QD1", "QD4"))


class TestFidelity:
    def test_self_fidelity_is_one(self, rng):
        s = random_state(rng, (2, 2), ("a", "b"))
        assert fidelity(s, s) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_products(self):
        assert fidelity(qubit_basis(("a", "b"), "eg"), qubit_basis(("a", "b"), "ge")) == 0.0

    def test_psi_and_psi_prime_orthogonal(self):
        assert fidelity(pair_sv(PairTag.PSI), pair_sv(PairTag.PSI_PRIME)) < 1e-14

    def test_pure_symmetry(self, rng):
        for _ in range(20):
            a = random_state(rng, (2, 2), ("a", "b"))
            b = random_state(rng, (2, 2), ("a", "b"))
            assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-14

    def test_density_matrix_argument(self):
        singlet = prepare_singlet("a", "b").to_state_vector()
        rho = partial_trace(singlet, ["a", "b"])
        assert fidelity(rho, singlet) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch_rejected(self, rng):
        a = random_state(rng, (2, 2), ("a", "b"))
        b = random_state(rng, (2,), ("a",))
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(a, b)

    def test_unnormalized_target_rejected(self):
        bad = StateVector([2, 0, 0, 0], (2, 2), ("a", "b"))
        with pytest.raises(ValueError, match="normalized"):
            fidelity(qubit_basis(("a", "b"), "gg"), bad)


class TestConcurrence:
    def test_canonical_values(self):
        assert concurrence(pair_sv(PairTag.SINGLET)) == pytest.approx(1.0, abs=1e-12)
        assert concurrence(qubit_basis(("a", "b"), "gg")) == 0.0
        mixed = DensityMatrix(np.eye(4) / 4, (2, 2), ("a", "b"))
        assert concurrence(mixed) == 0.0

    def test_local_unitary_invariance(self, rng):
        for _ in range(30):
            state = random_state(rng, (2, 2), ("a", "b"))
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            rotated = StateVector(u @ state.amplitudes, (2, 2), ("a", "b"))
            assert abs(concurrence(rotated) - concurrence(state)) < 1e-10

    def test_wrong_dims_rejected(self, rng):
        with pytest.raises(ValueError, match="two-qubit"):
            concurrence(random_state(rng, (2, 2, 2), ("a", "b", "c")))


class TestSuccessStats:
    def test_all_success(self):
        records = swap_effective(prepare_singlet(1, 2), prepare_singlet(3, 4))
        wins = [r for r in records if r.success]
        stats = success_stats(wins)
        assert stats.mean == 1.0 and stats.std_error == 0.0 and stats.count == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            success_stats([])

    def test_disjoint_seed_ranges_bracket_half(self):
        left, right = prepare_singlet(1, 2), prepare_singlet(3, 4)

        def batch(start):
            return [
                swap_effective(left, right, rng=RngStream(1234, i))
                for i in range(start, start + 2000)
            ]

        for start in (0, 2000):
            stats = success_stats(batch(start))
            low, high = stats.ci99
            assert low < 0.5 < high

    def test_ci_width(self):
        class R:
            def __init__(self, s):
                self.success = s

        stats = success_stats([R(True)] * 50 + [R(False)] * 50)
        assert stats.mean == 0.5
        assert stats.std_error == pytest.approx(0.05)
        assert stats.ci99[1] - stats.ci99[0] == pytest.approx(2 * 2.5758293035489004 * 0.05)


class TestDispersiveSweep:
    @pytest.mark.filterwarnings("ignore:parameters not dispersive")
    def test_strictly_decreasing_over_doubling_ratios(self):
        points = dispersive_sweep((5, 10, 20, 40, 80), PhysParams.from_ratio())
        infids = [p.conditional_infidelity for p in points]
        for a, b in zip(infids, infids[1:]):
            assert b < a + 1e-6
            assert b < a  # strict at these pinned parameters
        assert infids[3] < 0.05  # ratio 40
        assert infids[4] < 0.02  # ratio 80

    def test_probabilities_approach_quarter(self):
        (point,) = dispersive_sweep((80,), PhysParams.from_ratio())
        assert all(abs(p - 0.25) < 0.01 for p in point.branch_probabilities)
        assert abs(sum(point.branch_probabilities) - 1.0) < 1e-10

    def test_ratio_below_two_rejected(self):
        with pytest.raises(ValueError, match="minimum"):
            dispersive_sweep((1.5,), PhysParams.from_ratio())

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            dispersive_sweep((), PhysParams.from_ratio())

    def test_within_leakage_envelope_but_not_monotonic(self):
        ratios = (10, 20, 20.5, 30, 40, 80)
        points = dispersive_sweep(ratios, PhysParams.from_ratio())
        infids = [p.conditional_infidelity for p in points]
        for ratio, infid in zip(ratios, infids):
            assert infid <= 1.01 * 4 / ratio**2
        # the leakage oscillates with Δt = θ(Δ/g)²: it rises from 20 to 30
        assert infids[3] > infids[1]
        assert infidelity_envelope(20) == pytest.approx(0.01)
