import numpy as np
import pytest

from qdrepeater.hilbert import (
    DensityMatrix,
    OperatorKind,
    OperatorMatrix,
    StateVector,
    apply,
    basis_state,
    evolve,
    partial_trace,
    propagator,
    qubit_basis,
    tensor,
)
from qdrepeater.model import SIGMA_MINUS, SIGMA_PLUS

from conftest import random_state

SINGLET = StateVector([0, 1 / np.sqrt(2), -1 / np.sqrt(2), 0], (2, 2), ("QD1", "QD2"))


def op2(entries, labels=("a",), kind=OperatorKind.GENERAL):
    return OperatorMatrix(entries, (2,) * len(labels), labels, kind)


class TestStateVector:
    def test_basis_composition(self):
        state = tensor([qubit_basis(("QD1",), "g"), qubit_basis(("QD2",), "e")])
        assert state.dims == (2, 2)
        assert np.allclose(state.amplitudes, [0, 1, 0, 0])  # |ge> at index 1

    def test_singlet_product_has_four_half_amplitudes(self):
        left = StateVector([0, 1 / np.sqrt(2), -1 / np.sqrt(2), 0], (2, 2), ("QD1", "QD2"))
        right = StateVector([0, 1 / np.sqrt(2), -1 / np.sqrt(2), 0], (2, 2), ("QD3", "QD4"))
        state = tensor([left, right])
        nonzero = state.amplitudes[np.abs(state.amplitudes) > 1e-15]
        assert len(nonzero) == 4
        assert np.allclose(np.abs(nonzero), 0.5)

    def test_tensor_norm_multiplicative(self, rng):
        parts = [
            random_state(rng, (2,), ("a",)),
            random_state(rng, (3,), ("b",)),
            random_state(rng, (2,), ("c",)),
        ]
        assert abs(tensor(parts).norm() - 1.0) < 1e-12

    def test_tensor_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            tensor([qubit_basis(("x",), "g"), qubit_basis(("x",), "e")])

    def test_tensor_unnormalized_factor_rejected(self):
        bad = StateVector([2.0, 0], (2,), ("a",))
        with pytest.raises(ValueError, match="not normalized"):
            tensor([bad, qubit_basis(("b",), "g")])

    def test_amplitude_length_must_match_dims(self):
        with pytest.raises(ValueError, match="amplitudes"):
            StateVector([1, 0, 0], (2, 2), ("a", "b"))

    def test_dims_below_two_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            StateVector([1], (1,), ("a",))

    def test_amplitudes_immutable(self):
        state = qubit_basis(("a",), "g")
        with pytest.raises(ValueError):
            state.amplitudes[0] = 5.0

    def test_population(self):
        state = qubit_basis(("a", "b"), "ge")
        assert state.population("a", 0) == 1.0
        assert state.population("b", 1) == 1.0


class TestApply:
    def test_raising_operator_excites_first_label(self):
        # QD2 listed first, so |eg> means QD2 excited
        state = qubit_basis(("QD2", "QD1"), "gg")
        out = apply(op2(SIGMA_PLUS, ("QD2",)), ["QD2"], state)
        assert np.allclose(out.amplitudes, qubit_basis(("QD2", "QD1"), "eg").amplitudes)

    def test_identity_is_exact(self, rng):
        state = random_state(rng, (2, 3, 2), ("a", "b", "c"))
        out = apply(OperatorMatrix(np.eye(3), (3,), ("b",)), ["b"], state)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_lowering_ground_state_gives_zero_vector(self):
        state = qubit_basis(("QD2", "QD1"), "gg")
        out = apply(op2(SIGMA_MINUS, ("QD2",)), ["QD2"], state)
        assert out.norm() == 0.0

    def test_disjoint_targets_commute(self, rng):
        for _ in range(20):
            state = random_state(rng, (2, 2, 2), ("x", "y", "z"))
            a = op2(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), ("x",))
            b = op2(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), ("z",))
            ab = apply(a, ["x"], apply(b, ["z"], state))
            ba = apply(b, ["z"], apply(a, ["x"], state))
            assert np.max(np.abs(ab.amplitudes - ba.amplitudes)) < 1e-14

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="no subsystem"):
            apply(op2(SIGMA_PLUS, ("q",)), ["q"], qubit_basis(("a",), "g"))

    def test_dimension_mismatch_rejected(self, rng):
        state = random_state(rng, (3, 2), ("bigger", "q"))
        with pytest.raises(ValueError, match="dims"):
            apply(op2(SIGMA_PLUS, ("bigger",)), ["bigger"], state)

    def test_untouched_subsystem_order_preserved(self, rng):
        state = random_state(rng, (2, 2, 2), ("a", "b", "c"))
        out = apply(op2(np.eye(2), ("b",)), ["b"], state)
        assert out.labels == ("a", "b", "c")
        assert out.dims == (2, 2, 2)


class TestEvolve:
    def hamiltonian(self, rng, n, labels):
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (z + z.conj().T) / 2
        return OperatorMatrix(h, (n,), labels, OperatorKind.HERMITIAN)

    def test_group_property(self, rng):
        h = self.hamiltonian(rng, 4, ("q",))
        state = random_state(rng, (4,), ("q",))
        one = evolve(h, 0.7, evolve(h, 0.3, state))
        two = evolve(h, 1.0, state)
        assert np.max(np.abs(one.amplitudes - two.amplitudes)) < 1e-10

    def test_unitarity_on_time_grid(self, rng):
        h = self.hamiltonian(rng, 6, ("q",))
        state = random_state(rng, (6,), ("q",))
        for t in np.linspace(-5.0, 5.0, 11):
            assert abs(evolve(h, t, state).norm() - 1.0) < 1e-12

    def test_eigendecomposition_round_trip(self, rng):
        h = self.hamiltonian(rng, 8, ("q",))
        w, v = np.linalg.eigh(h.entries)
        rebuilt = (v * w) @ v.conj().T
        assert np.max(np.abs(rebuilt - h.entries)) < 1e-10

    def test_non_hermitian_rejected(self):
        bad = OperatorMatrix(np.array([[0, 1], [0, 0]]), (2,), ("q",))
        with pytest.raises(ValueError, match="Hermitian"):
            evolve(bad, 1.0, qubit_basis(("q",), "g"))

    def test_propagator_is_unitary(self, rng):
        h = self.hamiltonian(rng, 5, ("q",))
        u = propagator(h, 2.34)
        assert u.kind is OperatorKind.UNITARY
        assert np.allclose(u.entries @ u.entries.conj().T, np.eye(5), atol=1e-12)


class TestPartialTrace:
    def test_product_state_reduces_pure(self):
        rho = partial_trace(qubit_basis(("QD1", "QD2"), "ge"), ["QD1"])
        assert np.allclose(rho.entries, [[1, 0], [0, 0]], atol=1e-14)

    def test_singlet_reduces_maximally_mixed(self):
        rho = partial_trace(SINGLET, ["QD1"])
        assert np.allclose(rho.entries, np.eye(2) / 2, atol=1e-12)

    def test_unentangled_cavity_traces_away(self, rng):
        pair = random_state(rng, (2, 2), ("QD1", "QD2"))
        vacuum = StateVector([1, 0, 0], (3,), ("cavity",))
        state = tensor([vacuum, pair])
        rho = partial_trace(state, ["QD1", "QD2"])
        expected = np.outer(pair.amplitudes, pair.amplitudes.conj())
        assert np.max(np.abs(rho.entries - expected)) < 1e-12

    def test_eigenvalues_within_bounds(self, rng):
        for _ in range(10):
            state = random_state(rng, (2, 2, 3), ("a", "b", "c"))
            rho = partial_trace(state, ["b"])
            evals = rho.eigenvalues()
            assert evals.min() > -1e-10 and evals.max() < 1 + 1e-10
            assert abs(np.trace(rho.entries) - 1.0) < 1e-12

    def test_density_matrix_input(self, rng):
        state = random_state(rng, (2, 2, 2), ("a", "b", "c"))
        via_state = partial_trace(state, ["c"])
        via_rho = partial_trace(partial_trace(state, ["b", "c"]), ["c"])
        assert np.max(np.abs(via_state.entries - via_rho.entries)) < 1e-12

    def test_keep_order_respected(self, rng):
        state = random_state(rng, (2, 3, 2), ("a", "b", "c"))
        rho = partial_trace(state, ["c", "a"])
        assert rho.labels == ("c", "a")
        assert rho.dims == (2, 2)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            partial_trace(SINGLET, [])

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="no subsystem"):
            partial_trace(SINGLET, ["nope"])


class TestOperatorValidation:
    def test_hermitian_kind_enforced(self):
        with pytest.raises(ValueError, match="Hermitian"):
            OperatorMatrix([[0, 1], [0, 0]], (2,), ("q",), OperatorKind.HERMITIAN)

    def test_unitary_kind_enforced(self):
        with pytest.raises(ValueError, match="unitary"):
            OperatorMatrix([[1, 1], [0, 1]], (2,), ("q",), OperatorKind.UNITARY)

    def test_density_matrix_validation(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2), (2,), ("q",))
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix([[0.5, 1], [0, 0.5]], (2,), ("q",))

    @pytest.mark.parametrize("validator", ["hermitian", "unitary", "density", "generator"])
    @pytest.mark.parametrize("defect, rejected", [(1e-6, True), (np.nan, True), (1e-13, False)])
    def test_stated_bounds_are_absolute(self, validator, defect, rejected):
        """A defect above the stated atol, or a NaN, is rejected even on entries
        of order one, where a relative tolerance would have hidden it."""
        skew = np.array([[0.5, 0.5 + defect], [0.5, 0.5]])
        build = {
            "hermitian": lambda: op2(skew, kind=OperatorKind.HERMITIAN),
            "unitary": lambda: op2(np.diag([1.0, 1.0 + defect]), kind=OperatorKind.UNITARY),
            "density": lambda: DensityMatrix(skew, (2,), ("q",)),
            "generator": lambda: propagator(op2(skew), 1.0),
        }[validator]
        if rejected:
            with pytest.raises(ValueError, match="Hermitian|unitary"):
                build()
        else:
            build()


class TestBasisConstruction:
    def test_basis_state_index(self):
        state = basis_state((3, 2), ("cavity", "q"), (2, 1))
        assert state.amplitudes[2 * 2 + 1] == 1.0

    def test_level_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            basis_state((2,), ("q",), (2,))

    def test_qubit_basis_bad_char(self):
        with pytest.raises(ValueError, match="invalid qubit level"):
            qubit_basis(("q",), "x")
