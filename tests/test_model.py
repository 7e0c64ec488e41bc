import numpy as np
import pytest

from qdrepeater.hilbert import basis_state, evolve, qubit_basis
from qdrepeater.model import (
    CAVITY_DIM,
    PhysParams,
    align_frame,
    annihilation,
    build_effective,
    build_full_tcm,
    build_h0,
    closed_form_step,
    exchange_generator,
)

import oracles

SPACE = ("cavity", "QD2", "QD3")
THETAS = (0.0, np.pi / 8, np.pi / 4, np.pi / 2, 1.234)


@pytest.fixture
def params():
    return PhysParams.from_ratio()


def cavity_ket(p, n, s2, s3):
    levels = (n, {"g": 0, "e": 1}[s2], {"g": 0, "e": 1}[s3])
    return basis_state((CAVITY_DIM, 2, 2), SPACE, levels)


class TestPhysParams:
    def test_lambda_always_recomputed(self):
        p = PhysParams(omega_cavity=1.0, omega_qubit=1.3, g=0.02)
        assert p.delta == pytest.approx(0.3)
        assert p.lam == pytest.approx(0.02**2 / 0.3)

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError, match="detuning"):
            PhysParams(omega_cavity=1.0, omega_qubit=1.0, g=0.01)

    def test_dispersive_flag(self):
        assert PhysParams.from_ratio(delta_over_g=10).is_dispersive
        assert not PhysParams.from_ratio(delta_over_g=9.9).is_dispersive

    def test_from_ratio_defaults(self):
        p = PhysParams.from_ratio()
        assert p.omega_cavity == 1.0
        assert p.g == pytest.approx(0.01)
        assert p.delta == pytest.approx(0.2)


class TestFullHamiltonian:
    def test_coupling_matrix_element(self, params):
        h = build_full_tcm(params, SPACE)
        bra = cavity_ket(params, 0, "e", "g")
        ket = cavity_ket(params, 1, "g", "g")
        elem = np.vdot(bra.amplitudes, h.entries @ ket.amplitudes)
        assert elem == pytest.approx(params.g, abs=1e-15)

    def test_diagonal_elements(self, params):
        h = build_full_tcm(params, SPACE)
        for n in range(CAVITY_DIM):
            ket = cavity_ket(params, n, "g", "g")
            elem = np.vdot(ket.amplitudes, h.entries @ ket.amplitudes).real
            expected = n * params.omega_cavity - params.omega_qubit
            assert elem == pytest.approx(expected, abs=1e-12)

    def test_decoupled_limit_is_diagonal(self):
        p = PhysParams(omega_cavity=1.0, omega_qubit=1.2, g=0.0)
        h = build_full_tcm(p, SPACE)
        off = h.entries - np.diag(np.diag(h.entries))
        assert np.max(np.abs(off)) == 0.0
        assert np.max(np.abs(h.entries - build_h0(p, SPACE).entries)) == 0.0

    def test_hermitian(self, params):
        h = build_full_tcm(params, SPACE)
        assert np.max(np.abs(h.entries - h.entries.conj().T)) < 1e-12


class TestFreeHamiltonian:
    def test_ground_state_energy(self, params):
        h0 = build_h0(params, SPACE)
        ket = cavity_ket(params, 0, "g", "g")
        out = h0.entries @ ket.amplitudes
        assert np.allclose(out, -params.omega_qubit * ket.amplitudes, atol=1e-14)

    def test_commutes_with_excitation_number(self, params):
        nc = CAVITY_DIM
        a = annihilation(nc)
        proj_e = np.diag([0.0, 1.0])
        iq, ic = np.eye(2), np.eye(nc)
        n_op = np.kron(a.conj().T @ a, np.kron(iq, iq))
        n_op += np.kron(ic, np.kron(proj_e, iq)) + np.kron(ic, np.kron(iq, proj_e))
        for build in (build_h0, build_full_tcm):
            h = build(params, SPACE).entries
            comm = h @ n_op - n_op @ h
            assert np.max(np.abs(comm)) < 1e-12


class TestFrameAlignment:
    def test_identity_at_t_zero(self, params):
        state = cavity_ket(params, 1, "e", "g")
        out = align_frame(state, 0.0, params)
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-14)

    def test_pure_phases_preserve_magnitudes(self, params, rng):
        amps = rng.normal(size=4 * CAVITY_DIM) + 1j * rng.normal(size=4 * CAVITY_DIM)
        amps /= np.linalg.norm(amps)
        state = type(cavity_ket(params, 0, "g", "g"))(amps, (CAVITY_DIM, 2, 2), SPACE)
        out = align_frame(state, 3.7, params)
        assert np.max(np.abs(np.abs(out.amplitudes) - np.abs(state.amplitudes))) < 1e-12

    def test_inverts_free_evolution(self, params, rng):
        amps = rng.normal(size=4 * CAVITY_DIM) + 1j * rng.normal(size=4 * CAVITY_DIM)
        amps /= np.linalg.norm(amps)
        state = type(cavity_ket(params, 0, "g", "g"))(amps, (CAVITY_DIM, 2, 2), SPACE)
        h0 = build_h0(params, SPACE)
        roundtrip = align_frame(evolve(h0, 5.1, state), 5.1, params)
        assert np.max(np.abs(roundtrip.amplitudes - state.amplitudes)) < 1e-10

    def test_wrong_space_rejected(self, params):
        with pytest.raises(ValueError, match="expects"):
            align_frame(qubit_basis(("a", "b"), "gg"), 1.0, params)


class TestEffectiveHamiltonian:
    def test_basis_actions(self, params):
        h = build_effective(params, ("a", "b"))
        ee = qubit_basis(("a", "b"), "ee")
        gg = qubit_basis(("a", "b"), "gg")
        assert np.allclose(h.entries @ ee.amplitudes, 2 * params.lam * ee.amplitudes)
        assert np.allclose(h.entries @ gg.amplitudes, 0.0)

    def test_single_excitation_block(self, params):
        h = build_effective(params, ("a", "b"))
        # |eg> is flat index 2, |ge> index 1
        block = h.entries[np.ix_([2, 1], [2, 1])]
        expected = params.lam * (np.eye(2) + np.array([[0, 1], [1, 0]]))
        assert np.allclose(block, expected, atol=1e-15)

    def test_eigenvalues(self, params):
        evals = np.sort(np.linalg.eigvalsh(build_effective(params).entries))
        assert np.allclose(evals, [0, 0, 2 * params.lam, 2 * params.lam], atol=1e-12)

    def test_exchange_generator_scaling(self, params):
        m = exchange_generator()
        h = build_effective(params)
        assert np.allclose(h.entries, params.lam * m.entries, atol=1e-15)


class TestClosedForm:
    def test_eg_at_quarter_pi(self):
        state = closed_form_step("eg", np.pi / 4, ("a", "b"))
        phase = np.exp(-1j * np.pi / 4)
        expected = np.zeros(4, dtype=complex)
        expected[2] = phase / np.sqrt(2)        # |eg>
        expected[1] = -1j * phase / np.sqrt(2)  # |ge>
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-15

    def test_gg_is_stationary(self):
        for theta in THETAS:
            state = closed_form_step("gg", theta)
            assert np.allclose(state.amplitudes, [1, 0, 0, 0])

    def test_ee_pure_phase(self):
        theta = 0.61
        state = closed_form_step("ee", theta)
        assert state.amplitudes[3] == pytest.approx(np.exp(-2j * theta))

    def test_invalid_basis_rejected(self):
        with pytest.raises(ValueError, match="basis"):
            closed_form_step("eh", 0.1)

    def test_matches_independent_oracle(self):
        for basis in ("ee", "eg", "ge", "gg"):
            for theta in THETAS:
                expected = oracles.closed_form_map(basis, theta)
                state = closed_form_step(basis, theta, ("a", "b"))
                for key, amp in expected.items():
                    idx = 2 * (key[0] == "e") + (key[1] == "e")
                    assert state.amplitudes[idx] == pytest.approx(amp, abs=1e-15)


class TestOracleEquivalence:
    def test_numeric_evolution_matches_closed_forms(self, params):
        h = build_effective(params, ("a", "b"))
        for basis in ("ee", "eg", "ge", "gg"):
            for theta in THETAS:
                numeric = evolve(h, theta / params.lam, qubit_basis(("a", "b"), basis))
                exact = closed_form_step(basis, theta, ("a", "b"))
                assert np.max(np.abs(numeric.amplitudes - exact.amplitudes)) < 1e-10


class TestExcitationConservation:
    def test_full_tcm_conserves_excitation_number(self, params):
        h = build_full_tcm(params, SPACE)
        nc = CAVITY_DIM
        a = annihilation(nc)
        proj_e = np.diag([0.0, 1.0])
        n_op = np.kron(a.conj().T @ a, np.eye(4))
        n_op += np.kron(np.eye(nc), np.kron(proj_e, np.eye(2)))
        n_op += np.kron(np.eye(nc), np.kron(np.eye(2), proj_e))
        # superpositions within one excitation sector are eigenstates of N
        start = cavity_ket(params, 0, "e", "g")
        mix = cavity_ket(params, 1, "g", "g")
        amps = (start.amplitudes + mix.amplitudes) / np.sqrt(2)
        state = type(start)(amps, start.dims, start.labels)
        n0 = np.vdot(state.amplitudes, n_op @ state.amplitudes).real
        for t in np.linspace(0.0, 200.0, 7):
            evolved = evolve(h, t, state)
            nt = np.vdot(evolved.amplitudes, n_op @ evolved.amplitudes).real
            assert abs(nt - n0) < 1e-10
