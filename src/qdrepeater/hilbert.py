"""Dense complex linear algebra over labeled tensor-product Hilbert spaces.

States and operators carry an ordered tuple of subsystem dimensions together
with unique subsystem labels ("QD1", "cavity", ...).  Subsystem 0 is the
slowest-varying index of the flat amplitude array (big-endian): for dims
(d0, d1, ...) the basis ket |l0, l1, ...> sits at flat index
l0*d1*d2*... + l1*d2*... + ... + l_last.

Qubit subsystems use level 0 for the ground state |g> and level 1 for the
excited state |e>.

All values are immutable once constructed (amplitude buffers are marked
read-only) and every operation is a pure function of its inputs, so values
can be shared freely across concurrent tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import prod
from typing import Sequence, Union

import numpy as np

HERMITIAN_ATOL = 1e-12
UNITARY_ATOL = 1e-10
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
NORM_ATOL = 1e-9

QUBIT_LEVELS = {"g": 0, "e": 1}
QUBIT_NAMES = ("g", "e")


def _freeze(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=complex)
    out.setflags(write=False)
    return out


def _check_space(dims: tuple[int, ...], labels: tuple[str, ...]) -> None:
    if len(dims) != len(labels):
        raise ValueError(f"{len(dims)} dims but {len(labels)} labels")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate subsystem labels in {labels}")
    for d, lab in zip(dims, labels):
        if int(d) < 2:
            raise ValueError(f"subsystem {lab!r} has dimension {d}, need >= 2")


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector over a labeled tensor-product space.

    Not necessarily normalized: operators such as lowering a ground-state
    qubit legitimately produce zero-norm vectors, and callers decide whether
    to renormalize (see :meth:`norm` / :meth:`normalized`).
    """

    amplitudes: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        object.__setattr__(self, "amplitudes", _freeze(np.ravel(self.amplitudes)))
        _check_space(self.dims, self.labels)
        if self.amplitudes.size != prod(self.dims):
            raise ValueError(
                f"{self.amplitudes.size} amplitudes for dims {self.dims} "
                f"(need {prod(self.dims)})"
            )

    @classmethod
    def _unchecked(
        cls, amplitudes: np.ndarray, dims: tuple[int, ...], labels: tuple[str, ...]
    ) -> "StateVector":
        # internal fast path for operation outputs whose invariants hold by
        # construction; amplitudes must be a fresh complex array
        self = object.__new__(cls)
        amplitudes.setflags(write=False)
        object.__setattr__(self, "amplitudes", amplitudes)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "labels", labels)
        return self

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n < 1e-14:
            raise ValueError("cannot normalize a zero-norm state")
        return StateVector(self.amplitudes / n, self.dims, self.labels)

    def axis(self, label: str) -> int:
        """Index of the subsystem carrying `label`."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"no subsystem labeled {label!r} in {self.labels}") from None

    def tensor_view(self) -> np.ndarray:
        """Read-only view of the amplitudes shaped as one axis per subsystem."""
        return self.amplitudes.reshape(self.dims)

    def population(self, label: str, level: int) -> float:
        """Total probability weight of `label` sitting in basis level `level`."""
        marginal = np.sum(
            np.abs(self.tensor_view()) ** 2,
            axis=tuple(i for i in range(len(self.dims)) if i != self.axis(label)),
        )
        return float(marginal[level])


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on a labeled space."""

    entries: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        object.__setattr__(self, "entries", _freeze(self.entries))
        _check_space(self.dims, self.labels)
        d = prod(self.dims)
        if self.entries.shape != (d, d):
            raise ValueError(f"entries shape {self.entries.shape}, expected {(d, d)}")
        if not np.allclose(self.entries, self.entries.conj().T, atol=HERMITIAN_ATOL):
            raise ValueError("density matrix is not Hermitian within 1e-12")
        tr = complex(np.trace(self.entries))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"density matrix trace {tr}, expected 1 within 1e-12")
        evals = np.linalg.eigvalsh(self.entries)
        if evals.min() < EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix has eigenvalue {evals.min()} < -1e-10")

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.entries)


class OperatorKind(str, Enum):
    HERMITIAN = "hermitian"
    UNITARY = "unitary"
    GENERAL = "general"


@dataclass(frozen=True)
class OperatorMatrix:
    """Square operator on a labeled space, with a declared (validated) kind."""

    entries: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...]
    kind: OperatorKind = OperatorKind.GENERAL

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        object.__setattr__(self, "entries", _freeze(self.entries))
        object.__setattr__(self, "kind", OperatorKind(self.kind))
        _check_space(self.dims, self.labels)
        d = prod(self.dims)
        if self.entries.shape != (d, d):
            raise ValueError(f"entries shape {self.entries.shape}, expected {(d, d)}")
        if self.kind is OperatorKind.HERMITIAN:
            if not np.allclose(self.entries, self.entries.conj().T, atol=HERMITIAN_ATOL):
                raise ValueError("operator declared Hermitian is not, within 1e-12")
        elif self.kind is OperatorKind.UNITARY:
            gram = self.entries.conj().T @ self.entries
            if not np.allclose(gram, np.eye(d), atol=UNITARY_ATOL):
                raise ValueError("operator declared unitary fails U†U = 1 within 1e-10")


# ---------------------------------------------------------------------------
# constructors


def basis_state(dims: Sequence[int], labels: Sequence[str], levels: Sequence[int]) -> StateVector:
    """Basis ket |levels[0], levels[1], ...> on the given space."""
    dims = tuple(int(d) for d in dims)
    if len(levels) != len(dims):
        raise ValueError(f"{len(levels)} levels for {len(dims)} subsystems")
    idx = 0
    for d, l in zip(dims, levels):
        if not 0 <= int(l) < d:
            raise ValueError(f"level {l} out of range for dimension {d}")
        idx = idx * d + int(l)
    amps = np.zeros(prod(dims), dtype=complex)
    amps[idx] = 1.0
    return StateVector(amps, dims, tuple(labels))


def qubit_basis(labels: Sequence[str], configuration: str) -> StateVector:
    """Product ket of qubits, e.g. qubit_basis(("QD1", "QD2"), "ge") -> |ge>."""
    if len(configuration) != len(labels):
        raise ValueError(f"configuration {configuration!r} for {len(labels)} qubits")
    try:
        levels = [QUBIT_LEVELS[c] for c in configuration]
    except KeyError as exc:
        raise ValueError(f"invalid qubit level {exc.args[0]!r}, expected 'g' or 'e'") from None
    return basis_state((2,) * len(labels), labels, levels)


def fock_vacuum(label: str, dim: int) -> StateVector:
    """Cavity vacuum |0> on a mode of dim levels |0>, ..., |dim - 1>."""
    if dim < 2:
        raise ValueError(f"cavity dimension must be >= 2, got {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[0] = 1.0
    return StateVector(amps, (dim,), (label,))


# ---------------------------------------------------------------------------
# operations


def tensor(parts: Sequence[StateVector]) -> StateVector:
    """Kronecker-compose states; subsystem order follows the argument order."""
    if not parts:
        raise ValueError("tensor of zero states")
    labels: list[str] = []
    for p in parts:
        labels.extend(p.labels)
        sq = np.vdot(p.amplitudes, p.amplitudes).real
        if abs(sq - 1.0) > 2 * NORM_ATOL:
            raise ValueError(f"tensor factor with labels {p.labels} is not normalized")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate labels in tensor composition: {labels}")
    amps = parts[0].amplitudes
    for p in parts[1:]:
        amps = np.multiply.outer(amps, p.amplitudes).ravel()
    if amps is parts[0].amplitudes:
        amps = amps.copy()
    dims = tuple(d for p in parts for d in p.dims)
    return StateVector._unchecked(amps, dims, tuple(labels))


def apply(op: OperatorMatrix, targets: Sequence[str], state: StateVector) -> StateVector:
    """Act with `op` on the `targets` subsystems, identity on all others."""
    targets = list(targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"repeated target labels {targets}")
    axes = [state.axis(t) for t in targets]
    target_dims = tuple(state.dims[a] for a in axes)
    if op.dims != target_dims:
        raise ValueError(f"operator dims {op.dims} do not match target dims {target_dims}")
    perm = axes + [i for i in range(len(state.dims)) if i not in axes]
    inverse = [0] * len(perm)
    for i, p in enumerate(perm):
        inverse[p] = i
    arr = state.tensor_view().transpose(perm)
    block = op.entries @ arr.reshape(prod(target_dims), -1)
    out = block.reshape(arr.shape).transpose(inverse)
    return StateVector._unchecked(
        np.ascontiguousarray(out).reshape(-1), state.dims, state.labels
    )


def evolve(h: OperatorMatrix, t: float, state: StateVector) -> StateVector:
    """Propagate `state` by e^{-i h t} (hbar = 1) via Hermitian eigendecomposition."""
    _require_hermitian(h)
    if h.dims != state.dims:
        raise ValueError(f"Hamiltonian dims {h.dims} do not match state dims {state.dims}")
    w, v = np.linalg.eigh(h.entries)
    phases = np.exp(-1j * w * t)
    amps = v @ (phases * (v.conj().T @ state.amplitudes))
    return StateVector._unchecked(amps, state.dims, state.labels)


def propagator(h: OperatorMatrix, t: float) -> OperatorMatrix:
    """Unitary e^{-i h t} as an operator on h's space."""
    _require_hermitian(h)
    w, v = np.linalg.eigh(h.entries)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    return OperatorMatrix(u, h.dims, h.labels, OperatorKind.UNITARY)


def _require_hermitian(h: OperatorMatrix) -> None:
    if h.kind is not OperatorKind.HERMITIAN:
        if not np.allclose(h.entries, h.entries.conj().T, atol=HERMITIAN_ATOL):
            raise ValueError("evolution requires a Hermitian generator")


def partial_trace(state: Union[StateVector, DensityMatrix], keep: Sequence[str]) -> DensityMatrix:
    """Reduced density matrix on the `keep` subsystems (in the order listed)."""
    keep = list(keep)
    if not keep:
        raise ValueError("partial_trace needs at least one label to keep")
    if len(set(keep)) != len(keep):
        raise ValueError(f"repeated labels in keep list {keep}")
    if isinstance(state, StateVector):
        if abs(state.norm() - 1.0) > NORM_ATOL:
            raise ValueError("partial_trace requires a normalized state")
        axes = [state.axis(k) for k in keep]
        keep_dims = tuple(state.dims[a] for a in axes)
        arr = np.moveaxis(state.tensor_view(), axes, range(len(axes)))
        v = arr.reshape(prod(keep_dims), -1)
        rho = v @ v.conj().T
        return DensityMatrix(rho, keep_dims, tuple(keep))
    if isinstance(state, DensityMatrix):
        n = len(state.dims)
        axes = [state.labels.index(k) if k in state.labels else -1 for k in keep]
        if -1 in axes:
            missing = keep[axes.index(-1)]
            raise ValueError(f"no subsystem labeled {missing!r} in {state.labels}")
        arr = state.entries.reshape(state.dims + state.dims)
        # einsum: traced subsystems share one index between ket and bra sides
        ket = list(range(n))
        bra = [n + i for i in range(n)]
        for i in range(n):
            if i not in axes:
                bra[i] = ket[i]
        out = [ket[a] for a in axes] + [bra[a] for a in axes]
        rho = np.einsum(arr, ket + bra, out)
        keep_dims = tuple(state.dims[a] for a in axes)
        d = prod(keep_dims)
        return DensityMatrix(rho.reshape(d, d), keep_dims, tuple(keep))
    raise TypeError(f"cannot partial-trace a {type(state).__name__}")
