"""Command-line entry point with reproducible, machine-readable run records.

Commands
--------
swap      enumerate the swap branch table (--enumerate) or Monte Carlo sample it
chain     Monte Carlo repeater-chain runs at a given depth
closure   exhaustive tag-closure / periodicity check
validate  full-model vs effective-model validation battery
sweep     detuning-ratio sweep of full-model agreement (plot-ready table)

validate and sweep keep the cavity explicit at three levels, which is exact
(excitation number is conserved and the middle qubits carry at most two),
and check each ratio's conditional infidelity against the leakage envelope
4(g/Δ)².

Every run writes a RunRecord with the fully resolved config, tool version,
timestamp, results payload, and wall time.  Re-running an identical config
reproduces the results payload byte for byte (timestamps and wall time live
outside it).  Exit codes: 0 success, 1 usage error, 2 closure or validation
failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from math import inf, isfinite, pi, sqrt
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .analysis import (
    BRANCH_ORDER,
    ENVELOPE_MARGIN,
    dispersive_sweep,
    infidelity_envelope,
    success_stats,
)
from .hilbert import evolve, qubit_basis
from .measure import RngStream, first_uniforms
from .model import CAVITY_DIM, PhysParams, build_effective, closed_form_step
from .protocol import (
    RetryPolicy,
    closure_check,
    prepare_singlet,
    run_chain,
    sample_branches,
    swap_effective,
    swap_full_cavity,
)

OUTPUT_DIR_ENV = "QDREPEATER_OUTPUT_DIR"

COMMANDS = ("swap", "chain", "closure", "validate", "sweep")

DEFAULT_RATIOS = (5.0, 10.0, 20.0, 40.0, 80.0)

ORACLE_THETAS = (0.0, pi / 8, pi / 4, pi / 2, 1.234)


class UsageError(ValueError):
    """Bad command line or config-file input."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    theta: float = pi / 4
    delta_over_g: float = 20.0
    g_over_omega: float = 0.01
    depth: int = 1
    trials: int = 1000
    seed: int = 0
    retry_policy: str = "discard-both"
    output_format: str = "json"
    output_path: Optional[str] = None
    enumerate_branches: bool = False
    ratios: tuple[float, ...] = DEFAULT_RATIOS

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise UsageError(f"command: unknown command {self.command!r}")
        for name in ("theta", "delta_over_g", "g_over_omega"):
            if not isfinite(getattr(self, name)):
                raise UsageError(f"{name}: must be finite, got {getattr(self, name)}")
        if self.trials < 1:
            raise UsageError(f"trials: must be >= 1, got {self.trials}")
        if self.depth < 1:
            raise UsageError(f"depth: must be >= 1, got {self.depth}")
        if self.command == "closure" and self.depth < 2:
            raise UsageError(f"depth: closure needs depth >= 2, got {self.depth}")
        if not 0 <= self.seed < 2**64:
            raise UsageError(f"seed: must be a 64-bit unsigned integer, got {self.seed}")
        if self.output_format not in ("json", "csv"):
            raise UsageError(f"output_format: must be json or csv, got {self.output_format!r}")
        if self.delta_over_g == 0:
            raise UsageError("delta_over_g: must be nonzero")
        if self.g_over_omega <= 0:
            raise UsageError(f"g_over_omega: must be > 0, got {self.g_over_omega}")
        for r in self.ratios:
            if not isfinite(r):
                raise UsageError(f"ratios: every ratio must be finite, got {r}")
            if r < 2:
                raise UsageError(f"ratios: every ratio must be >= 2, got {r}")
        try:
            RetryPolicy.parse(self.retry_policy)
        except ValueError as exc:
            raise UsageError(f"retry_policy: {exc}") from None
        if self.command in ("sweep", "validate"):
            self._check_cavity_evolution()

    def _check_cavity_evolution(self) -> None:
        """Reject cavity evolutions that overflow.

        sweep and validate evolve the full cavity model for t = θ/λ, which,
        unlike the exchange, has no period in θ: t and the phase ‖H‖t must
        be finite at every ratio.
        """
        try:
            self.phys_params()
            params = [PhysParams.from_ratio(r, self.g_over_omega) for r in self.ratios]
        except ValueError as exc:
            raise UsageError(f"delta_over_g, ratios and g_over_omega: {exc}") from None
        photons = CAVITY_DIM - 1
        for ratio, p in zip(self.ratios, params):
            t = self.theta / p.lam if p.lam else inf
            # ‖H_full‖ <= ω n + |ω_q| + 4 g √n at photon number n <= 2
            norm = p.omega_cavity * photons + abs(p.omega_qubit) + 4 * p.g * sqrt(photons)
            if not isfinite(t * norm):
                raise UsageError(
                    f"theta: evolution time t = theta/lambda = {t:.3g} at delta/g = {ratio:g} "
                    "overflows the cavity phase"
                )

    def phys_params(self) -> PhysParams:
        return PhysParams.from_ratio(
            delta_over_g=self.delta_over_g,
            g_over_omega=self.g_over_omega,
        )


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOLS[text.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _parse_ratios(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


#: config-file key (CLI flag name, dashes -> underscores) -> (field, parser)
_CONFIG_KEYS = {
    "theta": ("theta", float),
    "delta_over_g": ("delta_over_g", float),
    "g_over_omega": ("g_over_omega", float),
    "depth": ("depth", int),
    "trials": ("trials", int),
    "seed": ("seed", int),
    "retry_policy": ("retry_policy", str),
    "output_format": ("output_format", str),
    "output_path": ("output_path", str),
    "enumerate": ("enumerate_branches", _parse_bool),
    "ratios": ("ratios", _parse_ratios),
}


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"config: cannot read {path!r}: {exc}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config: line {lineno} is not 'key = value': {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"config: unknown key {key!r}")
        field_name, parser = _CONFIG_KEYS[key]
        try:
            values[field_name] = parser(value.strip())
        except ValueError:
            raise UsageError(f"config: invalid value for {key!r}: {value.strip()!r}") from None
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; the contract wants 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qdrepeater", description=__doc__, add_help=True)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--theta", type=float, help="exchange phase λt (default π/4)")
    parser.add_argument("--delta-over-g", type=float, help="detuning ratio Δ/g (default 20)")
    parser.add_argument("--g-over-omega", type=float, help="coupling ratio g/ω (default 0.01)")
    parser.add_argument("--depth", type=int, help="chain/closure depth")
    parser.add_argument("--trials", type=int, help="Monte Carlo trial count (default 1000)")
    parser.add_argument("--seed", type=int, help="master RNG seed (default 0)")
    parser.add_argument("--retry-policy", help="discard-both or bounded:N")
    parser.add_argument("--output-format", choices=("json", "csv"))
    parser.add_argument("--output-path", help="output file (default stdout)")
    parser.add_argument(
        "--enumerate", dest="enumerate_branches", action="store_const", const=True,
        help="swap: exact branch table instead of sampling",
    )
    parser.add_argument(
        "--ratios", type=_parse_ratios,
        help="sweep ratios, comma separated (default 5,10,20,40,80)",
    )
    return parser


def parse_config(argv: Optional[Sequence[str]] = None) -> RunConfig:
    """Resolve a RunConfig: CLI flags override config-file values override defaults."""
    ns = _build_parser().parse_args(argv)
    file_values = _read_config_file(ns.config) if ns.config else {}
    merged: dict = {"command": ns.command, **file_values}
    for field_name, _ in _CONFIG_KEYS.values():
        cli_value = getattr(ns, field_name, None)
        if cli_value is not None:
            merged[field_name] = cli_value
    if "depth" not in merged:
        merged["depth"] = 2 if ns.command == "closure" else 1
    try:
        return RunConfig(**merged)
    except UsageError:
        raise
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None


# ---------------------------------------------------------------------------
# command implementations


def _pair_amplitude_pairs(pair) -> Optional[list[list[float]]]:
    if pair is None:
        return None
    return [[float(a.real), float(a.imag)] for a in pair.amplitudes]


def _swap_results(config: RunConfig) -> dict:
    left, right = prepare_singlet("QD1", "QD2"), prepare_singlet("QD3", "QD4")
    if config.enumerate_branches:
        rows = []
        p_success = 0.0
        for rec in swap_effective(left, right, config.theta):
            if rec.success:
                p_success += rec.branch.probability
            rows.append(
                {
                    "outcome": rec.branch.outcome_string(),
                    "probability": rec.branch.probability,
                    "success": rec.success,
                    "tag": rec.output.tag.value if rec.output else None,
                    "post_state_amplitudes": _pair_amplitude_pairs(rec.output),
                }
            )
        return {"mode": "enumerate", "rows": rows, "summary": {"success_probability": p_success}}
    # trial i draws once from stream (seed, i): all first draws in one pass
    draws = first_uniforms(config.seed, np.arange(config.trials, dtype=np.uint64))
    records, picks = sample_branches(left, right, config.theta, draws)
    branch_rows = [
        {
            "outcome": rec.branch.outcome_string(),
            "success": rec.success,
            "tag": rec.output.tag.value if rec.output else None,
        }
        for rec in records
    ]
    picks = picks.tolist()
    rows = [{"trial": trial, "stream_index": trial, **branch_rows[k]} for trial, k in enumerate(picks)]
    stats = success_stats([records[k] for k in picks])
    return {
        "mode": "sample",
        "rows": rows,
        "summary": {
            "trials": stats.count,
            "mean": stats.mean,
            "std_error": stats.std_error,
            "ci99_low": stats.ci99[0],
            "ci99_high": stats.ci99[1],
        },
    }


def _chain_results(config: RunConfig) -> dict:
    policy = RetryPolicy.parse(config.retry_policy)
    rows = []
    pooled: list[dict[int, int]] = [dict() for _ in range(config.depth)]
    for trial in range(config.trials):
        rec = run_chain(config.depth, RngStream(config.seed, trial), config.theta, policy)
        row = {
            "trial": trial,
            "stream_index": trial,
            "success": rec.success,
            "pairs_consumed": rec.pairs_consumed,
            "final_tag": rec.final_tag.value if rec.final_tag else None,
            "final_fidelity": rec.final_fidelity,
        }
        for lv in range(config.depth):
            row[f"attempts_l{lv + 1}"] = rec.attempts[lv]
            row[f"successes_l{lv + 1}"] = rec.successes[lv]
            for tries, count in rec.attempt_histograms[lv].items():
                pooled[lv][tries] = pooled[lv].get(tries, 0) + count
        rows.append(row)
    stats = success_stats([row["success"] for row in rows])
    histogram = [
        {str(tries): pooled[lv][tries] for tries in sorted(pooled[lv])}
        for lv in range(config.depth)
    ]
    return {
        "rows": rows,
        "summary": {
            "trials": stats.count,
            "mean_success": stats.mean,
            "std_error": stats.std_error,
            "ci99_low": stats.ci99[0],
            "ci99_high": stats.ci99[1],
            "mean_pairs_consumed": float(np.mean([row["pairs_consumed"] for row in rows])),
            "attempt_histograms": histogram,
        },
    }


def _closure_results(config: RunConfig) -> dict:
    report = closure_check(config.depth, config.theta)
    rows = [
        {
            "level": c.level,
            "left": c.left_tag.value,
            "right": c.right_tag.value,
            "outcome": c.outcome,
            "probability": c.probability,
            "success": c.success,
            "output_tag": c.output_tag.value if c.output_tag else None,
            "output_fidelity": c.output_fidelity,
        }
        for c in report.cases
    ]
    return {
        "rows": rows,
        "summary": {
            "ok": report.ok,
            "periodic": report.periodic,
            "violations": list(report.violations),
        },
    }


def _sweep_results(config: RunConfig) -> dict:
    points = dispersive_sweep(config.ratios, config.phys_params(), config.theta)
    rows = [
        {
            "ratio": pt.ratio,
            **{f"p_{o}": pt.branch_probabilities[i] for i, o in enumerate(BRANCH_ORDER)},
            "conditional_infidelity": pt.conditional_infidelity,
            "infidelity_envelope": infidelity_envelope(pt.ratio),
        }
        for pt in points
    ]
    within = all(
        row["conditional_infidelity"] <= ENVELOPE_MARGIN * row["infidelity_envelope"]
        for row in rows
    )
    return {"rows": rows, "summary": {"within_envelope": within}}


def _validate_results(config: RunConfig) -> dict:
    checks: list[dict] = []

    def check(name: str, value, bound, passed: bool):
        checks.append(
            {
                "check": name,
                "passed": bool(passed),
                "value": value,
                "bound": bound,
            }
        )

    p = config.phys_params()

    max_err = 0.0
    heff = build_effective(p, ("a", "b"))
    for basis in ("ee", "eg", "ge", "gg"):
        for theta in ORACLE_THETAS:
            numeric = evolve(heff, theta / p.lam, qubit_basis(("a", "b"), basis))
            exact = closed_form_step(basis, theta, ("a", "b"))
            max_err = max(max_err, float(np.max(np.abs(numeric.amplitudes - exact.amplitudes))))
    check("closed_form_oracle_max_error", max_err, 1e-10, max_err < 1e-10)

    eigs = np.sort(np.linalg.eigvalsh(heff.entries))
    target = np.sort([0.0, 0.0, 2 * p.lam, 2 * p.lam])
    eig_err = float(np.max(np.abs(eigs - target)))
    check("effective_eigenvalues_error", eig_err, 1e-10, eig_err < 1e-10)

    left, right = prepare_singlet("QD1", "QD2"), prepare_singlet("QD3", "QD4")
    infids = {}
    dev80 = None
    for ratio in config.ratios:
        pr = PhysParams.from_ratio(ratio, config.g_over_omega)
        result = swap_full_cavity(left, right, pr, theta=config.theta)
        infids[ratio] = result.conditional_infidelity
        if ratio == max(config.ratios):
            dev80 = max(abs(v - 0.25) for v in result.branch_probabilities.values())

    # worst infidelity as a fraction of its envelope 4(g/Δ)²
    worst = max(infids[r] / infidelity_envelope(r) for r in config.ratios)
    check("sweep_infidelity_within_envelope", worst, ENVELOPE_MARGIN, worst <= ENVELOPE_MARGIN)
    if 40.0 in infids:
        check("infidelity_at_ratio_40", infids[40.0], 0.05, infids[40.0] < 0.05)
    top_ratio = max(config.ratios)
    if top_ratio in infids:
        check(f"infidelity_at_ratio_{top_ratio:g}", infids[top_ratio], 0.02, infids[top_ratio] < 0.02)
    if dev80 is not None:
        check(f"branch_probability_deviation_at_ratio_{top_ratio:g}", dev80, 0.01, dev80 < 0.01)

    ok = all(c["passed"] for c in checks)
    return {"rows": checks, "summary": {"ok": ok}}


_RUNNERS = {
    "swap": _swap_results,
    "chain": _chain_results,
    "closure": _closure_results,
    "validate": _validate_results,
    "sweep": _sweep_results,
}


# ---------------------------------------------------------------------------
# record assembly and output


@dataclass(frozen=True)
class RunRecord:
    config: dict
    version: str
    timestamp: str
    results: dict
    wall_time_ms: float

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "version": self.version,
            "timestamp": self.timestamp,
            "results": self.results,
            "wall_time_ms": self.wall_time_ms,
        }
        return json.dumps(payload, indent=2, allow_nan=False)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".15g")
    return str(value)


def _rows_to_csv(rows: list[dict]) -> str:
    if not rows:
        return "\n"
    header: list[str] = []
    flattened = []
    for row in rows:
        flat = {}
        for key, value in row.items():
            if key == "post_state_amplitudes":
                for name, pair in zip(("ee", "eg", "ge", "gg"), value or [[None, None]] * 4):
                    flat[f"amp_{name}_re"], flat[f"amp_{name}_im"] = pair
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    flat[f"{key}_{i}"] = item
            else:
                flat[key] = value
        for key in flat:
            if key not in header:
                header.append(key)
        flattened.append(flat)
    lines = [",".join(header)]
    for flat in flattened:
        lines.append(",".join(_csv_cell(flat.get(k)) for k in header))
    return "\n".join(lines) + "\n"


def render(record: RunRecord, output_format: str) -> str:
    if output_format == "json":
        return record.to_json() + "\n"
    return _rows_to_csv(record.results.get("rows", []))


def resolve_output_path(path: Optional[str]) -> Optional[str]:
    """Apply the output-directory env var to relative paths."""
    if path is None:
        return None
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def execute(config: RunConfig) -> RunRecord:
    """Run the configured command and write its RunRecord."""
    start = time.perf_counter()
    results = _RUNNERS[config.command](config)
    wall_ms = (time.perf_counter() - start) * 1000.0
    config_echo = asdict(config)
    config_echo["ratios"] = list(config.ratios)
    record = RunRecord(
        config=config_echo,
        version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
        results=results,
        wall_time_ms=wall_ms,
    )
    text = render(record, config.output_format)
    path = resolve_output_path(config.output_path)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return record


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = parse_config(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        record = execute(config)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    summary = record.results.get("summary", {})
    if summary.get("ok") is False:
        print(f"{config.command} failed; see results payload", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
