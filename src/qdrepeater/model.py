"""Cavity-QED model for two quantum dots exchange-coupled through one mode.

Builds the full two-qubit/single-mode Hamiltonian

    H = w a†a + (w2/2) σz_a + (w3/2) σz_b + g Σ_i (a† σi− + a σi+)

and, for a far-detuned vacuum cavity, the effective two-qubit Hamiltonian

    H_eff = λ [ Σ_i |e><e|_i + (σa+ σb− + σa− σb+) ],   λ = g²/Δ,

whose basis-state evolution has simple closed forms (`closed_form_step`).
Frame alignment (`align_frame`) undoes the free evolution so lab-frame and
effective-model results can be compared directly.

Units are dimensionless with hbar = 1; only the ratios Δ/g and g/w matter
for the protocol, so the default scale is w_cavity = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hilbert import (
    OperatorKind,
    OperatorMatrix,
    StateVector,
    apply,
    propagator,
)

SIGMA_Z = np.diag([-1.0, 1.0]).astype(complex)      # |e><e| - |g><g|
SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)   # |e><g|
SIGMA_MINUS = SIGMA_PLUS.conj().T                        # |g><e|
PROJ_EXCITED = np.diag([0.0, 1.0]).astype(complex)

DISPERSIVE_RATIO = 10.0

#: Cavity levels |0>, |1>, |2>.  The rotating-wave coupling conserves
#: a†a + Σ_i |e><e|_i; the cavity starts in vacuum and the two middle qubits
#: hold at most two excitations, so the photon number never exceeds 2 and
#: three levels are exact, not a truncation.
CAVITY_DIM = 3

DEFAULT_CAVITY_SPACE = ("cavity", "qd_a", "qd_b")
DEFAULT_PAIR_SPACE = ("qd_a", "qd_b")

TWO_QUBIT_BASIS = ("ee", "eg", "ge", "gg")


def annihilation(n_levels: int) -> np.ndarray:
    """Mode lowering operator a on a Fock space of n_levels levels."""
    return np.diag(np.sqrt(np.arange(1.0, n_levels)), 1).astype(complex)


@dataclass(frozen=True)
class PhysParams:
    """Cavity/qubit frequencies and coupling; both qubits share omega_qubit.

    The detuning and exchange strength are always derived, never stored:
    delta = omega_qubit - omega_cavity and lam = g**2/delta.
    """

    omega_cavity: float = 1.0
    omega_qubit: float = 1.2
    g: float = 0.01

    def __post_init__(self):
        for name in ("omega_cavity", "omega_qubit", "g"):
            val = getattr(self, name)
            if not np.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val}")
        if self.g < 0:
            raise ValueError(f"coupling g must be >= 0, got {self.g}")
        if self.omega_qubit == self.omega_cavity:
            raise ValueError("zero detuning: omega_qubit must differ from omega_cavity")

    @classmethod
    def from_ratio(
        cls,
        delta_over_g: float = 20.0,
        g_over_omega: float = 0.01,
        omega_cavity: float = 1.0,
    ) -> "PhysParams":
        g = g_over_omega * omega_cavity
        return cls(
            omega_cavity=omega_cavity,
            omega_qubit=omega_cavity + delta_over_g * g,
            g=g,
        )

    @property
    def delta(self) -> float:
        return self.omega_qubit - self.omega_cavity

    @property
    def lam(self) -> float:
        return self.g**2 / self.delta

    @property
    def is_dispersive(self) -> bool:
        return abs(self.delta) >= DISPERSIVE_RATIO * self.g


def _cavity_space(labels: Sequence[str]) -> tuple[tuple[int, ...], tuple[str, ...]]:
    labels = tuple(labels)
    if len(labels) != 3:
        raise ValueError(f"cavity space needs (cavity, qubit, qubit) labels, got {labels}")
    return (CAVITY_DIM, 2, 2), labels


def _embed(ops: Sequence[np.ndarray]) -> np.ndarray:
    out = ops[0]
    for o in ops[1:]:
        out = np.kron(out, o)
    return out


def build_full_tcm(p: PhysParams, labels: Sequence[str] = DEFAULT_CAVITY_SPACE) -> OperatorMatrix:
    """Full cavity + two-qubit Hamiltonian with excitation-conserving coupling."""
    dims, labels = _cavity_space(labels)
    a = annihilation(CAVITY_DIM)
    iq = np.eye(2, dtype=complex)
    h = build_h0(p, labels).entries.copy()
    h += p.g * _embed([a.conj().T, SIGMA_MINUS, iq])
    h += p.g * _embed([a, SIGMA_PLUS, iq])
    h += p.g * _embed([a.conj().T, iq, SIGMA_MINUS])
    h += p.g * _embed([a, iq, SIGMA_PLUS])
    return OperatorMatrix(h, dims, labels, OperatorKind.HERMITIAN)


def build_h0(p: PhysParams, labels: Sequence[str] = DEFAULT_CAVITY_SPACE) -> OperatorMatrix:
    """Free part: cavity energy plus both qubit Zeeman terms."""
    dims, labels = _cavity_space(labels)
    a = annihilation(CAVITY_DIM)
    ic, iq = np.eye(CAVITY_DIM, dtype=complex), np.eye(2, dtype=complex)
    h = p.omega_cavity * _embed([a.conj().T @ a, iq, iq])
    h += 0.5 * p.omega_qubit * _embed([ic, SIGMA_Z, iq])
    h += 0.5 * p.omega_qubit * _embed([ic, iq, SIGMA_Z])
    return OperatorMatrix(h, dims, labels, OperatorKind.HERMITIAN)


def align_frame(state: StateVector, t: float, p: PhysParams) -> StateVector:
    """Rotate a lab-frame state into the interaction picture: e^{+i H0 t} state."""
    if state.dims != (CAVITY_DIM, 2, 2):
        raise ValueError(
            f"align_frame expects a (cavity[{CAVITY_DIM}], 2, 2) space, got dims {state.dims}"
        )
    h0 = build_h0(p, state.labels)
    return apply(propagator(h0, -t), state.labels, state)


def exchange_generator(labels: Sequence[str] = DEFAULT_PAIR_SPACE) -> OperatorMatrix:
    """Dimensionless generator M with H_eff = λ M: excited projectors plus exchange."""
    labels = tuple(labels)
    if len(labels) != 2:
        raise ValueError(f"exchange generator acts on two qubits, got labels {labels}")
    iq = np.eye(2, dtype=complex)
    m = _embed([PROJ_EXCITED, iq]) + _embed([iq, PROJ_EXCITED])
    m += _embed([SIGMA_PLUS, SIGMA_MINUS]) + _embed([SIGMA_MINUS, SIGMA_PLUS])
    return OperatorMatrix(m, (2, 2), labels, OperatorKind.HERMITIAN)


def build_effective(p: PhysParams, labels: Sequence[str] = DEFAULT_PAIR_SPACE) -> OperatorMatrix:
    """Vacuum-cavity effective two-qubit Hamiltonian λ[Σ|e><e| + exchange]."""
    m = exchange_generator(labels)
    return OperatorMatrix(p.lam * m.entries, m.dims, m.labels, OperatorKind.HERMITIAN)


def closed_form_step(
    basis: str, theta: float, labels: Sequence[str] = DEFAULT_PAIR_SPACE
) -> StateVector:
    """Closed-form image of a two-qubit basis ket after phase θ = λt.

    |eg> -> e^{-iθ}[cosθ|eg> - i sinθ|ge>]      (and symmetrically for |ge>)
    |ee> -> e^{-2iθ}|ee>
    |gg> -> |gg>
    """
    labels = tuple(labels)
    if len(labels) != 2:
        raise ValueError(f"closed_form_step is two-qubit only, got labels {labels}")
    if basis not in TWO_QUBIT_BASIS:
        raise ValueError(f"invalid basis label {basis!r}, expected one of {TWO_QUBIT_BASIS}")
    # flat index with g=0, e=1: |q_a q_b> -> 2*level_a + level_b
    amps = np.zeros(4, dtype=complex)
    if basis == "gg":
        amps[0] = 1.0
    elif basis == "ee":
        amps[3] = np.exp(-2j * theta)
    else:
        phase = np.exp(-1j * theta)
        stay, hop = (2, 1) if basis == "eg" else (1, 2)
        amps[stay] = phase * np.cos(theta)
        amps[hop] = -1j * phase * np.sin(theta)
    return StateVector(amps, (2, 2), labels)
