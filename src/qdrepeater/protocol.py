"""Entanglement swapping and repeater-chain logic for quantum-dot pairs.

A chain starts from ideal two-qubit singlets.  One swap step composes two
adjacent pairs, lets the middle qubits exchange through a cavity for a phase
θ = λt (π/4 for the protocol proper), and measures both middle qubits in the
{g, e} basis.  Opposite outcomes (eg/ge) project the never-interacting outer
qubits onto one of two maximally entangled states,

    psi       = (|ge> - i|eg>)/√2,
    psi_prime = (|eg> - i|ge>)/√2,

and this pair of states is closed under further swapping, which is what
`closure_check` verifies level by level.  `swap_effective` runs the two-qubit
effective model; `swap_full_cavity` runs the same step with the cavity mode
kept explicit and reports how well the effective model agrees.

Everything is pure given its RngStream, so independent Monte Carlo trials on
disjoint streams can run concurrently with schedule-independent results.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from math import fmod, pi
from typing import Optional, Union

import numpy as np

from .hilbert import (
    QUBIT_LEVELS,
    DensityMatrix,
    OperatorMatrix,
    StateVector,
    apply,
    fock_vacuum,
    partial_trace,
    propagator,
    tensor,
)
from .measure import Branch, RngStream, discard, enumerate_branches
from .model import CAVITY_DIM, PhysParams, build_full_tcm, build_h0, exchange_generator

THETA_SWAP = pi / 4

PAIR_BASIS = ("ee", "eg", "ge", "gg")

PAIR_NORM_ATOL = 1e-12
CLASSIFY_TOL = 1e-8


class PairTag(str, Enum):
    SINGLET = "singlet"
    PSI = "psi"
    PSI_PRIME = "psi_prime"
    OTHER = "other"


_INV_SQRT2 = 1.0 / np.sqrt(2.0)

#: Canonical amplitudes over PAIR_BASIS = (ee, eg, ge, gg).
TARGET_AMPLITUDES = {
    PairTag.SINGLET: np.array([0, _INV_SQRT2, -_INV_SQRT2, 0], dtype=complex),
    PairTag.PSI: np.array([0, -1j * _INV_SQRT2, _INV_SQRT2, 0], dtype=complex),
    PairTag.PSI_PRIME: np.array([0, _INV_SQRT2, -1j * _INV_SQRT2, 0], dtype=complex),
}
for _target in TARGET_AMPLITUDES.values():
    _target.setflags(write=False)

_TARGET_TAGS = tuple(TARGET_AMPLITUDES)
_TARGET_MATRIX = np.conj(np.stack([TARGET_AMPLITUDES[t] for t in _TARGET_TAGS]))


@dataclass(frozen=True)
class PairState:
    """Entangled (or not) two-qubit state between two named endpoint QDs.

    Amplitudes are ordered over PAIR_BASIS = (ee, eg, ge, gg) and must be
    normalized.  The classification tag is always recomputed from the
    amplitudes, never trusted from a caller.
    """

    left_qd: str
    right_qd: str
    amplitudes: np.ndarray
    tag: PairTag = field(init=False)
    _sv: StateVector = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "left_qd", str(self.left_qd))
        object.__setattr__(self, "right_qd", str(self.right_qd))
        if self.left_qd == self.right_qd:
            raise ValueError(f"pair endpoints must be distinct, got {self.left_qd!r} twice")
        amps = np.array(self.amplitudes, dtype=complex).ravel()
        if amps.size != 4:
            raise ValueError(f"pair state needs 4 amplitudes, got {amps.size}")
        sq = np.vdot(amps, amps).real
        if abs(sq - 1.0) > 2 * PAIR_NORM_ATOL:
            raise ValueError(f"pair state norm {np.sqrt(sq)} is not 1 within 1e-12")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "tag", classify_pair(amps))
        self._cache_sv()

    def _cache_sv(self):
        # hilbert flat order with g=0, e=1 is (gg, ge, eg, ee): reverse of PAIR_BASIS
        sv = StateVector._unchecked(
            np.ascontiguousarray(self.amplitudes[::-1]),
            (2, 2),
            (self.left_qd, self.right_qd),
        )
        object.__setattr__(self, "_sv", sv)

    @classmethod
    def _unchecked(cls, left_qd: str, right_qd: str, amplitudes: np.ndarray, tag: PairTag):
        # fast path for amplitudes already validated and classified
        self = object.__new__(cls)
        object.__setattr__(self, "left_qd", left_qd)
        object.__setattr__(self, "right_qd", right_qd)
        object.__setattr__(self, "amplitudes", amplitudes)
        object.__setattr__(self, "tag", tag)
        self._cache_sv()
        return self

    def to_state_vector(self) -> StateVector:
        return self._sv

    @classmethod
    def from_state_vector(cls, state: StateVector, left_qd: str, right_qd: str) -> "PairState":
        if state.dims != (2, 2):
            raise ValueError(f"pair state needs a two-qubit space, got dims {state.dims}")
        if state.labels != (str(left_qd), str(right_qd)):
            raise ValueError(
                f"state labels {state.labels} do not match endpoints ({left_qd}, {right_qd})"
            )
        return cls(left_qd, right_qd, state.amplitudes[::-1])

    def with_endpoints(self, left_qd: str, right_qd: str) -> "PairState":
        """Same amplitudes between renamed endpoint QDs."""
        left_qd, right_qd = str(left_qd), str(right_qd)
        if left_qd == right_qd:
            raise ValueError(f"pair endpoints must be distinct, got {left_qd!r} twice")
        return PairState._unchecked(left_qd, right_qd, self.amplitudes, self.tag)

    def fidelity_to(self, tag: PairTag) -> float:
        """Global-phase-invariant overlap |<target|self>|² with a canonical target."""
        return float(np.abs(np.vdot(TARGET_AMPLITUDES[tag], self.amplitudes)) ** 2)


def classify_pair(pair: Union[PairState, np.ndarray], tol: float = CLASSIFY_TOL) -> PairTag:
    """Tag a normalized pair as singlet / psi / psi_prime / other, up to global phase."""
    amps = pair.amplitudes if isinstance(pair, PairState) else np.asarray(pair, dtype=complex)
    overlaps = np.abs(_TARGET_MATRIX @ amps) ** 2
    best = int(np.argmax(overlaps))
    if overlaps[best] >= 1.0 - tol:
        return _TARGET_TAGS[best]
    return PairTag.OTHER


def prepare_singlet(left_qd, right_qd) -> PairState:
    """Ideal singlet (|eg> - |ge>)/√2 between two distinct QDs."""
    left_qd, right_qd = str(left_qd), str(right_qd)
    if left_qd == right_qd:
        raise ValueError(f"pair endpoints must be distinct, got {left_qd!r} twice")
    return PairState._unchecked(
        left_qd, right_qd, TARGET_AMPLITUDES[PairTag.SINGLET], PairTag.SINGLET
    )


@dataclass(frozen=True)
class SwapRecord:
    """One measurement branch of a swap step and its endpoint output."""

    left_tag: PairTag
    right_tag: PairTag
    theta: float
    branch: Branch
    success: bool
    output: Optional[PairState]


@lru_cache(maxsize=64)
def _exchange_unitary(theta: float) -> OperatorMatrix:
    """e^{-iθM} for the dimensionless exchange generator M (θ = λt).

    M has eigenvalues 0 and 2, so the exchange has period π in θ; reducing θ
    keeps huge phases finite and leaves every |θ| < π unchanged.
    """
    return propagator(exchange_generator(("mid_a", "mid_b")), fmod(theta, pi))


def _pair_ids(left: PairState, right: PairState) -> tuple[str, str, str, str]:
    ids = (left.left_qd, left.right_qd, right.left_qd, right.right_qd)
    if len(set(ids)) != 4:
        raise ValueError(f"qubit id collision between pairs: {ids}")
    return ids


def _compose_pairs(left: PairState, right: PairState) -> tuple[StateVector, tuple[str, str]]:
    ids = _pair_ids(left, right)
    lsv, rsv = left.to_state_vector(), right.to_state_vector()
    amps = np.multiply.outer(lsv.amplitudes, rsv.amplitudes).ravel()
    state = StateVector._unchecked(amps, (2, 2, 2, 2), ids)
    return state, (left.right_qd, right.left_qd)


def _branch_record(
    left: PairState, right: PairState, theta: float, middle: tuple[str, str], branch: Branch
) -> SwapRecord:
    success = branch.outcomes[middle[0]] != branch.outcomes[middle[1]]
    output = None
    if not branch.negligible:
        # post_state axes are (left.left, mid, mid, right.right) by construction,
        # and the measured qubits are exactly collapsed: slice instead of discard
        s2 = QUBIT_LEVELS[branch.outcomes[middle[0]]]
        s3 = QUBIT_LEVELS[branch.outcomes[middle[1]]]
        endpoint = branch.post_state.tensor_view()[:, s2, s3, :].ravel()
        output = PairState(left.left_qd, right.right_qd, endpoint[::-1])
    return SwapRecord(
        left_tag=left.tag,
        right_tag=right.tag,
        theta=theta,
        branch=branch,
        success=success,
        output=output,
    )


#: Most swap branch tables kept, one per (left amplitudes, right amplitudes, θ);
#: the least recently used is dropped beyond it.  At θ = π/4 a depth-3 chain
#: reaches 41 keys and a depth-4 chain 979 (accumulated phases that agree only
#: up to rounding are distinct keys); off that angle outputs leave the
#: {psi, psi_prime} family and the set of keys need not be finite.
SWAP_TABLE_SIZE = 1024


@dataclass(frozen=True)
class _SwapTable:
    """Branch records of one swap under placeholder qubit ids.

    cumsum and total are the Born sums that `measure.sample` draws against.
    """

    cumsum: np.ndarray
    total: np.floating
    records: tuple[SwapRecord, ...]

    def pick(self, u: Union[float, np.ndarray]) -> Union[np.integer, np.ndarray]:
        """Branch index of each uniform draw u in [0, 1), as `measure.sample` picks it."""
        k = np.searchsorted(self.cumsum, u * self.total, side="right")
        return np.minimum(k, len(self.records) - 1)

    def record(self, left: PairState, right: PairState, theta: float, k: int) -> SwapRecord:
        """Branch k re-labelled with the callers' qubit ids."""
        built = self.records[k]
        middle = (left.right_qd, right.left_qd)
        branch = Branch(
            outcomes=dict(zip(middle, built.branch.outcomes.values())),
            probability=built.branch.probability,
            post_state=StateVector._unchecked(
                built.branch.post_state.amplitudes,
                (2, 2, 2, 2),
                (left.left_qd, *middle, right.right_qd),
            ),
            negligible=built.branch.negligible,
        )
        output = None
        if built.output is not None:
            output = built.output.with_endpoints(left.left_qd, right.right_qd)
        return SwapRecord(left.tag, right.tag, theta, branch, built.success, output)


@lru_cache(maxsize=SWAP_TABLE_SIZE)
def _swap_table(left_amps: bytes, right_amps: bytes, theta: float) -> _SwapTable:
    """Branch table of swapping two pairs given their exact amplitude bytes.

    Built by enumerating the composed, exchanged state, so every PairState
    check runs once per key.
    """
    left = PairState("L0", "L1", np.frombuffer(left_amps, dtype=complex))
    right = PairState("R0", "R1", np.frombuffer(right_amps, dtype=complex))
    state, middle = _compose_pairs(left, right)
    state = apply(_exchange_unitary(theta), middle, state)
    records = tuple(
        _branch_record(left, right, theta, middle, b) for b in enumerate_branches(state, middle)
    )
    probs = np.array([r.branch.probability for r in records])
    cumsum = np.cumsum(probs)
    cumsum.setflags(write=False)
    return _SwapTable(cumsum, probs.sum(), records)


def swap_effective(
    left: PairState,
    right: PairState,
    theta: float = THETA_SWAP,
    rng: Optional[RngStream] = None,
) -> Union[list[SwapRecord], SwapRecord]:
    """Cavity-mediated swap in the effective two-qubit model.

    Composes the four-qubit state, evolves the middle pair by the exchange
    phase θ = λt, then measures both middle qubits.  With `rng` one branch is
    sampled and a single record returned; without it all four branches are
    enumerated (exact Born probabilities).  The branch table is memoised per
    (input amplitudes, θ), up to SWAP_TABLE_SIZE tables; records carry the
    callers' qubit ids.
    """
    table = _lookup_table(left, right, theta)
    if rng is None:
        return [table.record(left, right, theta, k) for k in range(len(table.records))]
    return table.record(left, right, theta, int(table.pick(rng.uniform())))


def sample_branches(
    left: PairState, right: PairState, theta: float, draws: np.ndarray
) -> tuple[list[SwapRecord], np.ndarray]:
    """Swap one pair of inputs once per uniform draw, resolved in one batch.

    Returns the enumerated branch records (as `swap_effective` without an
    rng) and, per draw, the index of the record it picks; draw u picks what
    `swap_effective(left, right, theta, rng)` returns when rng.uniform() is u.
    """
    table = _lookup_table(left, right, theta)
    records = [table.record(left, right, theta, k) for k in range(len(table.records))]
    return records, table.pick(np.asarray(draws, dtype=float))


def _lookup_table(left: PairState, right: PairState, theta: float) -> _SwapTable:
    _pair_ids(left, right)
    return _swap_table(left.amplitudes.tobytes(), right.amplitudes.tobytes(), float(theta))


@dataclass(frozen=True)
class FullSwapResult:
    """Full-cavity swap outcome with agreement metrics against the effective model.

    Probabilities and fidelities are keyed by middle-qubit outcome string
    (gg, ge, eg, ee); endpoint density matrices and fidelities are reported
    for the success branches (eg, ge).  conditional_infidelity is
    1 - (probability-weighted mean success-branch fidelity).
    """

    params: PhysParams
    theta: float
    time: float
    branch_probabilities: dict[str, float]
    success_probability: float
    endpoint_states: dict[str, DensityMatrix]
    fidelity_to_effective: dict[str, float]
    conditional_infidelity: float


def swap_full_cavity(
    left: PairState,
    right: PairState,
    p: PhysParams,
    theta: float = THETA_SWAP,
    t: Optional[float] = None,
    cavity_label: str = "cavity",
) -> FullSwapResult:
    """Swap step with the cavity mode explicit (full Tavis-Cummings evolution).

    Attaches a vacuum cavity to the middle pair, evolves the lab-frame
    Hamiltonian once to t = θ/λ (overridable, e.g. for the g = 0 limit),
    rotates into the interaction picture, measures the middle qubits, and
    traces out the cavity of each surviving branch.  The cavity has
    CAVITY_DIM = 3 levels, which is exact: the evolution conserves the
    excitation number and the two middle qubits carry at most two.
    """
    if not p.is_dispersive:
        warnings.warn(
            f"parameters not dispersive (|delta| = {abs(p.delta):.3g} < 10 g = {10 * p.g:.3g}); "
            "effective-model agreement will be poor",
            stacklevel=2,
        )
    if t is None:
        t = float(theta) / p.lam
    state, middle = _compose_pairs(left, right)
    ids = state.labels
    if cavity_label in ids:
        raise ValueError(f"cavity label {cavity_label!r} collides with a qubit id")
    cavity_space = (cavity_label, *middle)
    state = tensor([fock_vacuum(cavity_label, CAVITY_DIM), state])

    evolved = apply(propagator(build_full_tcm(p, cavity_space), t), cavity_space, state)
    aligned = apply(propagator(build_h0(p, cavity_space), -t), cavity_space, evolved)
    branches = enumerate_branches(aligned, middle)

    effective = {
        rec.branch.outcome_string(): rec for rec in swap_effective(left, right, theta)
    }
    endpoints = (left.left_qd, right.right_qd)
    probabilities: dict[str, float] = {}
    endpoint_states: dict[str, DensityMatrix] = {}
    fidelities: dict[str, float] = {}
    for branch in branches:
        outcome = branch.outcome_string()
        probabilities[outcome] = branch.probability
        is_success = branch.outcomes[middle[0]] != branch.outcomes[middle[1]]
        if not is_success or branch.negligible:
            continue
        stripped = discard(branch.post_state, middle)
        rho = partial_trace(stripped, endpoints)
        target = effective[outcome].output.to_state_vector()
        fid = float(np.real(np.vdot(target.amplitudes, rho.entries @ target.amplitudes)))
        endpoint_states[outcome] = rho
        fidelities[outcome] = fid

    p_success = sum(probabilities[o] for o in ("eg", "ge"))
    weight = sum(probabilities[o] for o in fidelities)
    weighted = sum(probabilities[o] * fidelities[o] for o in fidelities)
    conditional_infidelity = 1.0 - weighted / weight if weight > 0 else 1.0
    return FullSwapResult(
        params=p,
        theta=float(theta),
        time=float(t),
        branch_probabilities=probabilities,
        success_probability=p_success,
        endpoint_states=endpoint_states,
        fidelity_to_effective=fidelities,
        conditional_infidelity=conditional_infidelity,
    )


# ---------------------------------------------------------------------------
# repeater chain


@dataclass(frozen=True)
class RetryPolicy:
    """What to do when a swap fails.

    discard-both: throw away both input pairs and rebuild them from fresh
    singlets (unbounded).  bounded-retries: same, but give up after
    max_attempts tries of any single swap and fail the whole run.
    """

    kind: str = "discard-both"
    max_attempts: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("discard-both", "bounded-retries"):
            raise ValueError(f"unknown retry policy {self.kind!r}")
        if self.kind == "bounded-retries":
            if self.max_attempts is None or self.max_attempts < 1:
                raise ValueError("bounded-retries needs max_attempts >= 1")
        elif self.max_attempts is not None:
            raise ValueError("discard-both takes no max_attempts")

    @classmethod
    def discard_both(cls) -> "RetryPolicy":
        return cls("discard-both")

    @classmethod
    def bounded_retries(cls, max_attempts: int) -> "RetryPolicy":
        return cls("bounded-retries", max_attempts)

    @classmethod
    def parse(cls, text: str) -> "RetryPolicy":
        if text == "discard-both":
            return cls.discard_both()
        if text.startswith("bounded:"):
            return cls.bounded_retries(int(text.split(":", 1)[1]))
        raise ValueError(f"unknown retry policy {text!r} (use discard-both or bounded:N)")

    def describe(self) -> str:
        if self.kind == "bounded-retries":
            return f"bounded:{self.max_attempts}"
        return self.kind


@dataclass(frozen=True)
class ChainRunRecord:
    """Statistics of one repeater-chain run spanning 2^(depth+1) QDs.

    attempts/successes/attempt_histograms are indexed by level (level 1 =
    first swap over 4 QDs, ... level `depth` = top).  Each histogram maps
    attempts-until-success to the number of pair builds at that level that
    needed exactly that many attempts.
    """

    depth: int
    theta: float
    policy: RetryPolicy
    success: bool
    attempts: tuple[int, ...]
    successes: tuple[int, ...]
    attempt_histograms: tuple[dict[int, int], ...]
    pairs_consumed: int
    final_tag: Optional[PairTag]
    final_fidelity: Optional[float]
    final_pair: Optional[PairState]
    master_seed: Optional[int] = None
    stream_index: Optional[int] = None

    def __post_init__(self):
        for a, s in zip(self.attempts, self.successes):
            if s > a:
                raise ValueError("successes cannot exceed attempts")


def run_chain(
    depth: int,
    rng: RngStream,
    theta: float = THETA_SWAP,
    policy: Optional[RetryPolicy] = None,
) -> ChainRunRecord:
    """Build one 2^(depth+1)-QD entangled pair by recursive doubling.

    Level 0 resources are ideal singlets on consecutive chain positions;
    every level-j pair is produced by swapping two level-(j-1) pairs.  On a
    failed swap the policy decides between redrawing fresh singlets
    (discard-both) and giving up (bounded-retries exhausted -> a failed
    record, never an exception).
    """
    if depth < 1:
        raise ValueError(f"chain depth must be >= 1, got {depth}")
    policy = policy or RetryPolicy.discard_both()
    attempts = [0] * (depth + 1)
    successes = [0] * (depth + 1)
    histograms: list[dict[int, int]] = [dict() for _ in range(depth + 1)]
    consumed = 0

    def build(level: int, start: int) -> Optional[PairState]:
        nonlocal consumed
        if level == 0:
            consumed += 1
            return prepare_singlet(f"QD{start}", f"QD{start + 1}")
        child_span = 2**level
        tries = 0
        while True:
            tries += 1
            attempts[level] += 1
            left = build(level - 1, start)
            if left is None:
                return None
            right = build(level - 1, start + child_span)
            if right is None:
                return None
            record = swap_effective(left, right, theta, rng)
            if record.success:
                successes[level] += 1
                histograms[level][tries] = histograms[level].get(tries, 0) + 1
                return record.output
            if policy.kind == "bounded-retries" and tries >= policy.max_attempts:
                return None

    final = build(depth, 1)
    fidelity = None
    tag = None
    if final is not None:
        tag = final.tag
        fidelity = max(final.fidelity_to(PairTag.PSI), final.fidelity_to(PairTag.PSI_PRIME))
    return ChainRunRecord(
        depth=depth,
        theta=float(theta),
        policy=policy,
        success=final is not None,
        attempts=tuple(attempts[1:]),
        successes=tuple(successes[1:]),
        attempt_histograms=tuple(histograms[1:]),
        pairs_consumed=consumed,
        final_tag=tag,
        final_fidelity=fidelity,
        final_pair=final,
        master_seed=getattr(rng, "master_seed", None),
        stream_index=getattr(rng, "stream_index", None),
    )


# ---------------------------------------------------------------------------
# closure ("periodicity") check


@dataclass(frozen=True)
class ClosureCase:
    level: int
    left_tag: PairTag
    right_tag: PairTag
    outcome: str
    probability: float
    success: bool
    output_tag: Optional[PairTag]
    output_fidelity: Optional[float]


@dataclass(frozen=True)
class ClosureReport:
    """Level-by-level case table for tag closure under swapping.

    ok means: every success-branch output classified as psi or psi_prime AND
    the (left, right, outcome) -> output-tag table is identical at every
    level from 2 to max_depth (the protocol's periodicity).
    """

    max_depth: int
    theta: float
    ok: bool
    periodic: bool
    cases: tuple[ClosureCase, ...]
    violations: tuple[str, ...]

    def table(self, level: int) -> dict[tuple[PairTag, PairTag, str], PairTag]:
        return {
            (c.left_tag, c.right_tag, c.outcome): c.output_tag
            for c in self.cases
            if c.level == level and c.success
        }


def closure_check(max_depth: int, theta: float = THETA_SWAP) -> ClosureReport:
    """Exhaustively verify that {psi, psi_prime} is closed under swapping.

    Level 1 swaps two singlets; each later level swaps every combination of
    actual output states reached at the previous level (one representative
    per tag, exact amplitudes with their accumulated phases).
    """
    if max_depth < 2:
        raise ValueError(f"closure check needs max_depth >= 2, got {max_depth}")
    cases: list[ClosureCase] = []
    violations: list[str] = []
    representatives: dict[PairTag, PairState] = {}

    def record_level(level: int, combos: list[tuple[PairState, PairState]]) -> dict[PairTag, PairState]:
        found: dict[PairTag, PairState] = {}
        for left, right in combos:
            for rec in swap_effective(left, right, theta):
                out_tag = rec.output.tag if rec.output is not None else None
                out_fid = (
                    rec.output.fidelity_to(out_tag)
                    if rec.output is not None and out_tag in TARGET_AMPLITUDES
                    else None
                )
                cases.append(
                    ClosureCase(
                        level=level,
                        left_tag=left.tag,
                        right_tag=right.tag,
                        outcome=rec.branch.outcome_string(),
                        probability=rec.branch.probability,
                        success=rec.success,
                        output_tag=out_tag,
                        output_fidelity=out_fid,
                    )
                )
                if rec.success and rec.output is not None:
                    if out_tag not in (PairTag.PSI, PairTag.PSI_PRIME):
                        violations.append(
                            f"level {level}: ({left.tag.value}, {right.tag.value}) outcome "
                            f"{rec.branch.outcome_string()} -> {out_tag.value}, amplitudes "
                            f"{np.array2string(rec.output.amplitudes, precision=6)}"
                        )
                    elif out_tag not in found:
                        found[out_tag] = rec.output
        return found

    n = 4  # level-1 span
    left = prepare_singlet("QD1", f"QD{n // 2}")
    right = prepare_singlet(f"QD{n // 2 + 1}", f"QD{n}")
    representatives = record_level(1, [(left, right)])

    for level in range(2, max_depth + 1):
        n = 2 ** (level + 1)
        missing = {PairTag.PSI, PairTag.PSI_PRIME} - set(representatives)
        if missing:
            violations.append(
                f"level {level}: no representative reached for {sorted(t.value for t in missing)}"
            )
            break
        combos = []
        for lt in (PairTag.PSI, PairTag.PSI_PRIME):
            for rt in (PairTag.PSI, PairTag.PSI_PRIME):
                combos.append(
                    (
                        representatives[lt].with_endpoints("QD1", f"QD{n // 2}"),
                        representatives[rt].with_endpoints(f"QD{n // 2 + 1}", f"QD{n}"),
                    )
                )
        representatives = record_level(level, combos)

    report_tables = {}
    for case in cases:
        if case.level >= 2 and case.success:
            report_tables.setdefault(case.level, {})[
                (case.left_tag, case.right_tag, case.outcome)
            ] = case.output_tag
    base = report_tables.get(2, {})
    periodic = all(report_tables.get(lv, None) == base for lv in range(2, max_depth + 1))
    ok = not violations and periodic
    return ClosureReport(
        max_depth=max_depth,
        theta=float(theta),
        ok=ok,
        periodic=periodic,
        cases=tuple(cases),
        violations=tuple(violations),
    )
