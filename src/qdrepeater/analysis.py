"""Entanglement and agreement metrics plus Monte Carlo statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .hilbert import DensityMatrix, StateVector
from .model import PhysParams
from .protocol import THETA_SWAP, FullSwapResult, prepare_singlet, swap_full_cavity

_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)

Z_99 = 2.5758293035489004  # two-sided 99% normal quantile

#: Higher-order margin on the leakage envelope.  Against the excitation-sector
#: evolution on 20 001 ratios in [2, 200] at θ ∈ {π/4, 0.3, 1.234},
#: infidelity·(Δ/g)² peaks at 3.9995.
ENVELOPE_MARGIN = 1.01


def fidelity(a: Union[StateVector, DensityMatrix], b: StateVector) -> float:
    """Overlap of a (pure or mixed) state with the pure target b.

    |<b|a>|² for a pure a, <b|a|b> for a density matrix a.
    """
    if abs(b.norm() - 1.0) > 1e-9:
        raise ValueError("fidelity target must be normalized")
    if a.dims != b.dims or a.labels != b.labels:
        raise ValueError(
            f"mismatched spaces: ({a.dims}, {a.labels}) vs ({b.dims}, {b.labels})"
        )
    if isinstance(a, StateVector):
        return float(np.abs(np.vdot(b.amplitudes, a.amplitudes)) ** 2)
    if isinstance(a, DensityMatrix):
        return float(np.real(np.vdot(b.amplitudes, a.entries @ b.amplitudes)))
    raise TypeError(f"cannot compute fidelity of a {type(a).__name__}")


def concurrence(rho: Union[DensityMatrix, StateVector]) -> float:
    """Wootters two-qubit concurrence: max(0, λ1 - λ2 - λ3 - λ4).

    The λi are the descending square roots of the eigenvalues of
    rho (σy⊗σy) rho* (σy⊗σy), computed here as the singular values of
    √rho (σy⊗σy) √rho^T, which keeps the near-zero λi at full absolute
    precision (an eigvals of the non-normal product only gets them to √ε).
    """
    if isinstance(rho, StateVector):
        if rho.dims != (2, 2):
            raise ValueError(f"concurrence is two-qubit only, got dims {rho.dims}")
        amps = rho.amplitudes / rho.norm()
        mat = np.outer(amps, amps.conj())
    elif isinstance(rho, DensityMatrix):
        if rho.dims != (2, 2):
            raise ValueError(f"concurrence is two-qubit only, got dims {rho.dims}")
        mat = rho.entries
    else:
        raise TypeError(f"cannot compute concurrence of a {type(rho).__name__}")
    w, v = np.linalg.eigh(mat)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    lams = np.linalg.svd(root @ _SPIN_FLIP @ root.T, compute_uv=False)
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


@dataclass(frozen=True)
class SuccessStats:
    """Bernoulli summary of a batch of swap or chain records."""

    mean: float
    std_error: float
    count: int
    ci99: tuple[float, float]


def success_stats(records: Sequence) -> SuccessStats:
    """Success-rate statistics with a normal-approximation 99% CI.

    Accepts anything with a boolean `success` attribute (SwapRecord,
    ChainRunRecord), or the success flags themselves.
    """
    if not records:
        raise ValueError("success_stats needs at least one record")
    flags = np.array(
        [r if isinstance(r, (bool, np.bool_)) else bool(r.success) for r in records], dtype=float
    )
    n = flags.size
    mean = float(flags.mean())
    std_error = float(np.sqrt(mean * (1.0 - mean) / n))
    half = Z_99 * std_error
    return SuccessStats(mean=mean, std_error=std_error, count=int(n), ci99=(mean - half, mean + half))


@dataclass(frozen=True)
class SweepPoint:
    """Full-model vs effective-model agreement at one detuning ratio."""

    ratio: float
    branch_probabilities: tuple[float, float, float, float]  # gg, ge, eg, ee
    conditional_infidelity: float

    def __post_init__(self):
        total = sum(self.branch_probabilities)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"branch probabilities sum to {total}, expected 1 within 1e-10")
        if not 0.0 <= self.conditional_infidelity <= 1.0:
            raise ValueError(f"infidelity {self.conditional_infidelity} outside [0, 1]")


BRANCH_ORDER = ("gg", "ge", "eg", "ee")


def infidelity_envelope(ratio: float) -> float:
    """Leakage envelope 4(g/Δ)² of the full-cavity conditional infidelity.

    Virtual photon exchange leaves an infidelity of about
    4(g/Δ)² sin²(Δt/2), Δt = θ(Δ/g)², so it oscillates with Δ/g under this
    envelope instead of falling monotonically.
    """
    return 4.0 / float(ratio) ** 2


def sweep_point_from_result(ratio: float, result: FullSwapResult) -> SweepPoint:
    return SweepPoint(
        ratio=float(ratio),
        branch_probabilities=tuple(result.branch_probabilities[o] for o in BRANCH_ORDER),
        conditional_infidelity=result.conditional_infidelity,
    )


def dispersive_sweep(
    ratios: Sequence[float],
    template: PhysParams,
    theta: float = THETA_SWAP,
) -> list[SweepPoint]:
    """Full-cavity swap agreement across detuning-to-coupling ratios.

    Each point re-runs the swap from fresh singlets with delta/g set to the
    requested ratio and everything else taken from `template`.
    """
    if not ratios:
        raise ValueError("dispersive_sweep needs at least one ratio")
    for r in ratios:
        if r < 2:
            raise ValueError(f"ratio {r} below the sweep minimum of 2")
    points = []
    for ratio in ratios:
        p = PhysParams.from_ratio(
            delta_over_g=float(ratio),
            g_over_omega=template.g / template.omega_cavity,
            omega_cavity=template.omega_cavity,
        )
        left = prepare_singlet("QD1", "QD2")
        right = prepare_singlet("QD3", "QD4")
        result = swap_full_cavity(left, right, p, theta=theta)
        points.append(sweep_point_from_result(ratio, result))
    return points
