"""Projective measurement of qubits in the {g, e} product basis.

`enumerate_branches` lists every outcome string with its exact Born
probability and renormalized post-measurement state; `sample` draws one
branch from a seeded, platform-stable random stream, and `first_uniforms`
computes the first draw of many such streams at once.  Measured qubits stay
in the state (collapsed onto their outcome ket); `discard` drops subsystems
that sit in a definite basis level once they are no longer wanted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .hilbert import QUBIT_NAMES, StateVector

ZERO_PROBABILITY = 1e-14

_DISCARD_TOL = 1e-12


@dataclass(frozen=True)
class Branch:
    """One projective-measurement outcome.

    outcomes maps each measured label to "g" or "e" (in measurement order);
    post_state keeps the measured qubits, collapsed onto the outcome ket,
    and is renormalized whenever probability > 1e-14 (`negligible` is set
    otherwise and the zero-norm projection is returned as-is).
    """

    outcomes: Mapping[str, str]
    probability: float
    post_state: StateVector
    negligible: bool = False

    def outcome_string(self) -> str:
        return "".join(self.outcomes.values())


@dataclass
class RngStream:
    """Seedable random stream with platform-stable draws.

    Streams are identified by (master_seed, stream_index); equal identifiers
    reproduce the exact same draw sequence on every platform (numpy PCG64
    under SeedSequence(master_seed, spawn_key=(stream_index,))).  A stream
    mutates only its own draw counter, so distinct streams can be used
    concurrently without coordination.
    """

    master_seed: int
    stream_index: int = 0
    _generator: np.random.Generator = field(init=False, repr=False, compare=False)
    _draw_count: int = field(init=False, default=0, repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= int(self.master_seed) < 2**64:
            raise ValueError(f"master_seed must be a 64-bit unsigned int, got {self.master_seed}")
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,))
        self._generator = np.random.Generator(np.random.PCG64(seq))

    def uniform(self) -> float:
        """Next double in [0, 1)."""
        self._draw_count += 1
        return float(self._generator.random())

    @property
    def draw_count(self) -> int:
        return self._draw_count

    def spawn(self, stream_index: int) -> "RngStream":
        """Independent sibling stream under the same master seed."""
        return RngStream(self.master_seed, stream_index)


# numpy's SeedSequence hash constants (pool of four 32-bit words)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK64 = 2**64 - 1
# PCG64 (XSL-RR 128/64) multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT2 = _PCG_MULT * _PCG_MULT % 2**128
_PCG_INC_MULT = (_PCG_MULT2 + _PCG_MULT + 1) % 2**128

_U32_16 = np.uint32(16)
_U64_32, _U64_M32 = np.uint64(32), np.uint64(_MASK32)


class _HashMix:
    """SeedSequence's hashmix, with its running hash constant."""

    def __init__(self):
        self.const = _INIT_A

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = (self.const * _MULT_A) & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> _U32_16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> _U32_16)


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b (b a 64-bit constant)."""
    a0, a1 = a & _U64_M32, a >> _U64_32
    b0, b1 = np.uint64(b & _MASK32), np.uint64(b >> 32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U64_32) + (p01 & _U64_M32) + (p10 & _U64_M32)
    return a1 * b1 + (p01 >> _U64_32) + (p10 >> _U64_32) + (mid >> _U64_32)


def _mul128(hi: np.ndarray, lo: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) * k modulo 2^128, for a 128-bit constant k."""
    k_hi, k_lo = k >> 64, k & _MASK64
    return _mulhi64(lo, k_lo) + lo * np.uint64(k_hi) + hi * np.uint64(k_lo), lo * np.uint64(k_lo)


def first_uniforms(master_seed: int, stream_indices) -> np.ndarray:
    """First `RngStream(master_seed, i).uniform()` of every listed stream, in one pass.

    Element i equals that draw bit for bit: the SeedSequence entropy mixing
    and generate_state(4, uint64) run on uint32 arrays over the streams, then
    the PCG64 seeding and first XSL-RR output on (hi, lo) uint64 arrays.
    """
    seed = int(master_seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"master_seed must be a 64-bit unsigned int, got {master_seed}")
    idx = np.asarray(stream_indices)
    if idx.dtype.kind not in "iu" or idx.ndim != 1:
        raise ValueError("stream_indices must be a one-dimensional integer array")
    if idx.dtype.kind == "i" and idx.size and idx.min() < 0:
        raise ValueError("stream indices must be non-negative")
    idx = idx.astype(np.uint64)

    # Assembled entropy: the seed's words zero-padded to the pool size, then
    # the spawn key's words (one, or two from 2^32 on).  The pool after the
    # first four words depends on the seed alone.
    hashmix = _HashMix()
    words = [np.array([(seed >> (32 * i)) & _MASK32], dtype=np.uint32) for i in range(_POOL_SIZE)]
    pool = [hashmix(w) for w in words]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    lo_word = (idx & _U64_M32).astype(np.uint32)
    hi_word = (idx >> _U64_32).astype(np.uint32)
    pool = [_mix(p, hashmix(lo_word)) for p in pool]
    wide = hi_word != 0
    pool = [np.where(wide, _mix(p, hashmix(hi_word)), p) for p in pool]

    # generate_state(4, uint64): eight words cycled from the pool, paired
    # little-endian into 64-bit words
    hash_const = _INIT_B
    state32 = []
    for i in range(2 * _POOL_SIZE):
        data = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        data = data * np.uint32(hash_const)
        state32.append((data ^ (data >> _U32_16)).astype(np.uint64))
    w0, w1, w2, w3 = (lo | (hi << _U64_32) for lo, hi in zip(state32[0::2], state32[1::2]))

    # PCG64 seeding (state s = w0:w1, inc = (w2:w3 << 1) | 1) and the first
    # step: the state that the first output reads is s M^2 + inc (M^2 + M + 1)
    inc_hi = (w2 << np.uint64(1)) | (w3 >> np.uint64(63))
    inc_lo = (w3 << np.uint64(1)) | np.uint64(1)
    s_hi, s_lo = _mul128(w0, w1, _PCG_MULT2)
    i_hi, i_lo = _mul128(inc_hi, inc_lo, _PCG_INC_MULT)
    lo = s_lo + i_lo
    hi = s_hi + i_hi + (lo < s_lo).astype(np.uint64)

    # XSL-RR output, then next_double's 53 high bits
    rot = hi >> np.uint64(58)
    x = hi ^ lo
    out = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return (out >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def _measurement_layout(state: StateVector, measured: Sequence[str]):
    measured = list(measured)
    if not measured:
        raise ValueError("no labels to measure")
    if len(set(measured)) != len(measured):
        raise ValueError(f"repeated measured labels {measured}")
    axes = [state.axis(m) for m in measured]
    for m, a in zip(measured, axes):
        if state.dims[a] != 2:
            raise ValueError(f"measured subsystem {m!r} has dimension {state.dims[a]}, not a qubit")
    perm = axes + [i for i in range(len(state.dims)) if i not in axes]
    inverse = [0] * len(perm)
    for i, p in enumerate(perm):
        inverse[p] = i
    arr = state.tensor_view().transpose(perm)
    flat = arr.reshape(2 ** len(measured), -1)
    probs = np.einsum("ij,ij->i", flat.real, flat.real) + np.einsum(
        "ij,ij->i", flat.imag, flat.imag
    )
    return measured, arr.shape, inverse, flat, probs


def _branch(state, measured, shape, inverse, flat, probs, k) -> Branch:
    m = len(measured)
    outcome_bits = [(k >> (m - 1 - i)) & 1 for i in range(m)]
    outcomes = {lab: QUBIT_NAMES[b] for lab, b in zip(measured, outcome_bits)}
    p = float(probs[k])
    projected = np.zeros_like(flat)
    negligible = p <= ZERO_PROBABILITY
    projected[k] = flat[k] if negligible else flat[k] / np.sqrt(p)
    arr = projected.reshape(shape).transpose(inverse)
    post = StateVector._unchecked(
        np.ascontiguousarray(arr).reshape(-1), state.dims, state.labels
    )
    return Branch(outcomes=outcomes, probability=p, post_state=post, negligible=negligible)


def enumerate_branches(state: StateVector, measured: Sequence[str]) -> list[Branch]:
    """All 2^m outcome branches of measuring the listed qubits, Born-weighted.

    Branches are ordered by outcome string with g before e (gg, ge, eg, ee
    for two qubits).  Zero-probability outcomes are included and flagged.
    """
    measured, shape, inverse, flat, probs = _measurement_layout(state, measured)
    return [
        _branch(state, measured, shape, inverse, flat, probs, k)
        for k in range(2 ** len(measured))
    ]


def sample(state: StateVector, measured: Sequence[str], rng: RngStream) -> Branch:
    """Draw one measurement branch with its Born probability (one rng draw)."""
    measured, shape, inverse, flat, probs = _measurement_layout(state, measured)
    total = probs.sum()
    u = rng.uniform() * total
    k = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    k = min(k, len(probs) - 1)
    return _branch(state, measured, shape, inverse, flat, probs, k)


def discard(state: StateVector, labels: Sequence[str]) -> StateVector:
    """Drop subsystems that sit in a definite basis level (product factors).

    Raises if any listed subsystem still carries weight in more than one
    level; measured qubits always qualify.
    """
    labels = list(labels)
    if len(set(labels)) != len(labels):
        raise ValueError(f"repeated labels in discard list {labels}")
    out = state
    for lab in labels:
        ax = out.axis(lab)
        arr = out.tensor_view()
        weights = np.sum(
            np.abs(arr) ** 2, axis=tuple(i for i in range(len(out.dims)) if i != ax)
        )
        level = int(np.argmax(weights))
        residue = weights.sum() - weights[level]
        if residue > _DISCARD_TOL**2:
            raise ValueError(
                f"cannot discard {lab!r}: population {residue:.3e} outside level {level}"
            )
        sliced = np.take(arr, level, axis=ax)
        dims = out.dims[:ax] + out.dims[ax + 1 :]
        labs = out.labels[:ax] + out.labels[ax + 1 :]
        if not dims:
            raise ValueError("discard would remove every subsystem")
        out = StateVector(sliced.reshape(-1), dims, labs)
    return out
