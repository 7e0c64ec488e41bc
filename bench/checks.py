"""Checks of qdrepeater output records that share no code with the package.

The swap oracle follows the closed forms on plain dicts of basis strings
('g'/'e') with cmath, as `tests/oracles.py` does; the cavity reference
evolves the excitation sectors of the Tavis-Cummings Hamiltonian with numpy.
Nothing here imports `qdrepeater`.  Every check returns a list of error
strings; an empty list means the record passed.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

INV_SQRT2 = 1.0 / math.sqrt(2.0)

SINGLET = {"eg": INV_SQRT2, "ge": -INV_SQRT2}
TARGETS = (
    ("singlet", SINGLET),
    ("psi", {"ge": INV_SQRT2, "eg": -1j * INV_SQRT2}),
    ("psi_prime", {"eg": INV_SQRT2, "ge": -1j * INV_SQRT2}),
)

#: Middle-qubit outcomes in the order the program lays its Born sums out.
OUTCOMES = ("gg", "ge", "eg", "ee")

#: A draw this close to a cumulative Born boundary picks an undetermined branch.
BOUNDARY = 1e-9

ZERO_PROBABILITY = 1e-14
CLASSIFY_TOL = 1e-8

#: Frequency checks allow this many standard errors.
FREQUENCY_Z = 5.0
#: The mean chain cost may sit this many standard errors from 4^depth.
COST_Z = 5.0
#: Full-cavity probabilities and infidelities agree with the sector model to this.
SWEEP_TOL = 1e-9
FIDELITY_FLOOR = 1.0 - 1e-10


# ---------------------------------------------------------------------------
# closed-form swap oracle


def _exchange(mid: str, theta: float) -> dict:
    if mid == "gg":
        return {"gg": 1.0}
    if mid == "ee":
        return {"ee": cmath.exp(-2j * theta)}
    phase = cmath.exp(-1j * theta)
    other = "ge" if mid == "eg" else "eg"
    return {mid: phase * math.cos(theta), other: -1j * phase * math.sin(theta)}


def swap_branches(left: dict, right: dict, theta: float) -> list[tuple[str, float, dict]]:
    """(outcome, probability, normalised endpoint dict) for each outcome in OUTCOMES."""
    evolved: dict = {}
    for k1, a1 in left.items():
        for k2, a2 in right.items():
            for mid, factor in _exchange(k1[1] + k2[0], theta).items():
                key = k1[0] + mid + k2[1]
                evolved[key] = evolved.get(key, 0.0) + a1 * a2 * factor
    branches = []
    for outcome in OUTCOMES:
        sub = {k[0] + k[3]: a for k, a in evolved.items() if k[1:3] == outcome}
        p = sum(abs(a) ** 2 for a in sub.values())
        if p > ZERO_PROBABILITY:
            scale = 1.0 / math.sqrt(p)
            sub = {k: a * scale for k, a in sub.items()}
        branches.append((outcome, p, sub))
    return branches


def classify(pair: dict, negligible: bool = False):
    """Tag value of an endpoint dict up to global phase; None for a negligible branch."""
    if negligible:
        return None
    for name, target in TARGETS:
        overlap = sum(a.conjugate() * pair.get(k, 0.0) for k, a in target.items())
        if abs(overlap) ** 2 >= 1.0 - CLASSIFY_TOL:
            return name
    return "other"


def pick(branches: list, u: float):
    """Index of the branch a uniform draw selects, or None when the draw is undetermined."""
    total = sum(p for _, p, _ in branches)
    x = u * total
    cumulative = 0.0
    k = 0
    for _, p, _ in branches[:-1]:
        cumulative += p
        if abs(x - cumulative) < BOUNDARY:
            return None
        if cumulative <= x:
            k += 1
    return k


def stream(seed: int, index: int) -> np.random.Generator:
    """The draw sequence of trial `index` under master seed `seed`."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))


# ---------------------------------------------------------------------------
# swap: per-trial replay and frequencies


def check_swap(results: dict, seed: int, trials: int, theta: float) -> list[str]:
    """Replay every sampled trial and check the outcome frequencies."""
    rows = results["rows"]
    errors = []
    if results.get("mode") != "sample":
        errors.append(f"mode {results.get('mode')!r}, expected 'sample'")
    if len(rows) != trials:
        errors.append(f"{len(rows)} rows for {trials} trials")
    branches = swap_branches(SINGLET, SINGLET, theta)
    expected = [
        (outcome, outcome[0] != outcome[1], classify(out, p <= ZERO_PROBABILITY))
        for outcome, p, out in branches
    ]
    for i, row in enumerate(rows):
        if row["trial"] != i or row["stream_index"] != i:
            errors.append(f"row {i}: trial {row['trial']}, stream {row['stream_index']}")
            continue
        k = pick(branches, stream(seed, i).random())
        if k is None:
            continue
        got = (row["outcome"], row["success"], row["tag"])
        if got != expected[k]:
            errors.append(f"trial {i}: (outcome, success, tag) {got}, replay {expected[k]}")
    n = len(rows)
    if n:
        freq = sum(bool(r["success"]) for r in rows) / n
        if abs(freq - 0.5) > FREQUENCY_Z * math.sqrt(0.25 / n):
            errors.append(f"success frequency {freq} not within {FREQUENCY_Z} sigma of 1/2")
        for outcome in OUTCOMES:
            f = sum(r["outcome"] == outcome for r in rows) / n
            if abs(f - 0.25) > FREQUENCY_Z * math.sqrt(0.1875 / n):
                errors.append(f"{outcome} frequency {f} not within {FREQUENCY_Z} sigma of 1/4")
        summary = results["summary"]
        if summary["trials"] != n or abs(summary["mean"] - freq) > 1e-12:
            errors.append(f"summary {summary['trials']} trials, mean {summary['mean']}; rows {n}, {freq}")
    return errors


# ---------------------------------------------------------------------------
# chain: replay, conservation laws, mean cost


class Undetermined(Exception):
    """A draw of the replayed run fell within BOUNDARY of a branch boundary."""


def replay_chain(seed: int, index: int, depth: int, theta: float) -> dict:
    """Discard-both chain run with one draw per swap, in post-order."""
    rng = stream(seed, index)
    attempts = [0] * (depth + 1)
    successes = [0] * (depth + 1)
    consumed = 0

    def build(level: int) -> dict:
        nonlocal consumed
        if level == 0:
            consumed += 1
            return SINGLET
        while True:
            attempts[level] += 1
            left = build(level - 1)
            right = build(level - 1)
            branches = swap_branches(left, right, theta)
            k = pick(branches, rng.random())
            if k is None:
                raise Undetermined
            outcome, _, out = branches[k]
            if outcome[0] != outcome[1]:
                successes[level] += 1
                return out

    final = build(depth)
    return {
        "pairs_consumed": consumed,
        "attempts": attempts[1:],
        "successes": successes[1:],
        "final_tag": classify(final),
    }


def _levels(row: dict, key: str, depth: int) -> list[int]:
    return [row[f"{key}_l{lv}"] for lv in range(1, depth + 1)]


def check_chain(results: dict, seed: int, trials: int, depth: int, theta: float, replay: int) -> list[str]:
    """Conservation laws on every row; replay of the first `replay` rows."""
    rows = results["rows"]
    errors = []
    if len(rows) != trials:
        errors.append(f"{len(rows)} rows for {trials} trials")
    for i, row in enumerate(rows):
        if row["trial"] != i or row["stream_index"] != i:
            errors.append(f"row {i}: trial {row['trial']}, stream {row['stream_index']}")
            continue
        attempts = _levels(row, "attempts", depth)
        successes = _levels(row, "successes", depth)
        laws = {
            "success": row["success"] is True,
            "pairs_consumed == 2 attempts_l1": row["pairs_consumed"] == 2 * attempts[0],
            "successes_l(l-1) == 2 attempts_l": all(
                successes[lv - 1] == 2 * attempts[lv] for lv in range(1, depth)
            ),
            "top-level successes == 1": successes[-1] == 1,
            "final fidelity >= 1 - 1e-10": (row["final_fidelity"] or 0.0) >= FIDELITY_FLOOR,
        }
        broken = [name for name, held in laws.items() if not held]
        if broken:
            errors.append(f"trial {i}: breaks {broken}")
        if i >= replay:
            continue
        try:
            expected = replay_chain(seed, i, depth, theta)
        except Undetermined:
            continue
        got = {
            "pairs_consumed": row["pairs_consumed"],
            "attempts": attempts,
            "successes": successes,
            "final_tag": row["final_tag"],
        }
        if got != expected:
            errors.append(f"trial {i}: {got}, replay {expected}")
    return errors


def chain_cost_variance(depth: int) -> float:
    """Variance of the singlets one discard-both chain consumes at p = 1/2.

    A level-l pair takes A ~ Geometric(1/2) attempts (mean 2, variance 2),
    each costing two independent level-(l-1) pairs, so
    v_l = E[A] 2 v_{l-1} + Var[A] (2 m_{l-1})^2 with m_l = 4^l.
    """
    v = 0.0
    for level in range(1, depth + 1):
        v = 4.0 * v + 8.0 * 16.0 ** (level - 1)
    return v


def check_chain_cost(pairs_consumed: list[int], depth: int) -> list[str]:
    """Mean singlet cost within COST_Z standard errors of 4^depth."""
    n = len(pairs_consumed)
    mean = sum(pairs_consumed) / n
    z = (mean - 4.0**depth) / math.sqrt(chain_cost_variance(depth) / n)
    if abs(z) > COST_Z:
        return [f"mean pairs consumed {mean} over {n} runs: z = {z:.2f} against 4^{depth}"]
    return []


# ---------------------------------------------------------------------------
# sweep: excitation-sector reference


def _sector_states(n_exc: int) -> list[tuple[int, str]]:
    """(photons, middle qubits) of one excitation sector from a vacuum cavity."""
    return [
        (n_exc - mid.count("e"), mid)
        for mid in ("gg", "eg", "ge", "ee")
        if 0 <= n_exc - mid.count("e")
    ]


def _sector_propagator(n_exc: int, omega_c: float, omega_q: float, g: float, t: float) -> np.ndarray:
    """e^{+i H0 t} e^{-i H t} on one sector, H the rotating-wave Tavis-Cummings model."""
    states = _sector_states(n_exc)
    h0 = np.array([omega_c * n + 0.5 * omega_q * sum(1 if q == "e" else -1 for q in mid) for n, mid in states])
    h = np.diag(h0).astype(complex)
    for i, (n, _) in enumerate(states):
        for j, (n2, _) in enumerate(states):
            # a† σ_q^-: within a sector, one photon more means exactly one
            # qubit dropped from e to g
            if n2 == n + 1:
                h[j, i] = h[i, j] = g * math.sqrt(n2)
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    return np.exp(1j * h0 * t)[:, None] * u


def sector_reference(ratio: float, theta: float, g_over_omega: float) -> tuple[dict, float]:
    """Branch probabilities and conditional infidelity of a singlet-singlet swap
    with the cavity explicit, at Δ/g = ratio, evolved sector by sector."""
    omega_c = 1.0
    g = g_over_omega * omega_c
    omega_q = omega_c + ratio * g
    t = theta / (g * g / (ratio * g))
    props = {n: _sector_propagator(n, omega_c, omega_q, g, t) for n in range(3)}
    # amplitudes over (QD1, photons, QD2, QD3, QD4)
    final: dict = {}
    for k1, a1 in SINGLET.items():
        for k2, a2 in SINGLET.items():
            mid = k1[1] + k2[0]
            n_exc = mid.count("e")
            states = _sector_states(n_exc)
            col = props[n_exc][:, states.index((0, mid))]
            for (n, m), amp in zip(states, col):
                key = (k1[0], n, m, k2[1])
                final[key] = final.get(key, 0.0) + a1 * a2 * amp
    probabilities = {}
    fidelities = {}
    effective = {outcome: out for outcome, _, out in swap_branches(SINGLET, SINGLET, theta)}
    for outcome in OUTCOMES:
        terms = {k: a for k, a in final.items() if k[2] == outcome}
        p = sum(abs(a) ** 2 for a in terms.values())
        probabilities[outcome] = p
        if outcome[0] == outcome[1] or p <= ZERO_PROBABILITY:
            continue
        target = effective[outcome]
        by_photons: dict = {}
        for (q1, n, _, q4), a in terms.items():
            by_photons[n] = by_photons.get(n, 0.0) + target.get(q1 + q4, 0.0).conjugate() * a
        fidelities[outcome] = sum(abs(x) ** 2 for x in by_photons.values()) / p
    weight = sum(probabilities[o] for o in fidelities)
    weighted = sum(probabilities[o] * fidelities[o] for o in fidelities)
    return probabilities, (1.0 - weighted / weight if weight > 0 else 1.0)


def check_sweep(results: dict, ratios: list[float], theta: float, g_over_omega: float) -> list[str]:
    """Every row against the sector reference, within SWEEP_TOL."""
    rows = results["rows"]
    errors = []
    if [r["ratio"] for r in rows] != list(ratios):
        errors.append(f"row ratios differ from the {len(ratios)} requested")
        return errors
    for row, ratio in zip(rows, ratios):
        probabilities, infidelity = sector_reference(ratio, theta, g_over_omega)
        for outcome in OUTCOMES:
            if abs(row[f"p_{outcome}"] - probabilities[outcome]) > SWEEP_TOL:
                errors.append(
                    f"ratio {ratio}: p_{outcome} {row[f'p_{outcome}']}, reference {probabilities[outcome]}"
                )
        if abs(row["conditional_infidelity"] - infidelity) > SWEEP_TOL:
            errors.append(
                f"ratio {ratio}: infidelity {row['conditional_infidelity']}, reference {infidelity}"
            )
    return errors
