"""Benchmark of the qdrepeater command-line path, with checked outputs.

    python3 bench/run.py --workload swap_sample --seed 1 --seconds 20 --trace 0

Run from the repository root.  One process per run: it imports the package
from `src/`, makes one warm-up invocation, then repeats whole timed
invocations of `runner.parse_config` + `runner.execute` until their summed
wall time reaches --seconds.  Each invocation writes its JSON record under
`bench/out/`; outside the timed intervals the record is read back and
checked against `checks.py`, which shares no code with the package.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the layers are wrapped (see
`tracing.py`), a fixed number of invocations is made so that call counts
repeat exactly for a seed, the per-layer metrics are printed, and every
wrapped function's figures go to `bench/out/BENCH_<workload>.json`.
"""

import time

_PROCESS_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: on a shared two-CPU machine a second BLAS thread turns
# run-to-run contention into timing noise, and the program's matrices are
# at most 36 x 36.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

THETA = math.pi / 4
G_OVER_OMEGA = 0.01

#: Program seed of invocation i (0 is the warm-up) is seed * SEED_STRIDE + i,
#: so every invocation, the warm-up included, draws from its own streams.
SEED_STRIDE = 10_000
MAX_SEED = 2**40


class Workload:
    """One kind of CLI invocation, repeated with per-invocation inputs."""

    name: str
    units: int  # units of work (trials, chain runs, sweep points) per invocation
    traced_invocation_s: float  # nominal duration of one traced invocation

    def argv(self, seed: int, index: int) -> list[str]:
        raise NotImplementedError

    def swaps(self, results: dict) -> int:
        raise NotImplementedError

    def check(self, results: dict, seed: int, index: int) -> list[str]:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks over the whole run, after the last invocation."""
        return []


def program_seed(seed: int, index: int) -> int:
    return seed * SEED_STRIDE + index


class SwapSample(Workload):
    name = "swap_sample"
    units = 20_000
    traced_invocation_s = 1.4

    def argv(self, seed, index):
        return ["swap", "--theta", repr(THETA), "--trials", str(self.units),
                "--seed", str(program_seed(seed, index))]

    def swaps(self, results):
        return results["summary"]["trials"]

    def check(self, results, seed, index):
        return checks.check_swap(results, program_seed(seed, index), self.units, THETA)


class ChainDeep(Workload):
    name = "chain_deep"
    depth = 5
    units = 40
    replayed = 4  # rows replayed per invocation; replaying all would add ~70% to the timed work
    traced_invocation_s = 1.0

    def __init__(self):
        self.pairs_consumed: list[int] = []

    def argv(self, seed, index):
        return ["chain", "--depth", str(self.depth), "--retry-policy", "discard-both",
                "--theta", repr(THETA), "--trials", str(self.units),
                "--seed", str(program_seed(seed, index))]

    def swaps(self, results):
        return sum(
            row[f"attempts_l{lv}"] for row in results["rows"] for lv in range(1, self.depth + 1)
        )

    def check(self, results, seed, index):
        self.pairs_consumed.extend(row["pairs_consumed"] for row in results["rows"])
        return checks.check_chain(
            results, program_seed(seed, index), self.units, self.depth, THETA, self.replayed
        )

    def finish(self):
        return checks.check_chain_cost(self.pairs_consumed, self.depth)


class CavitySweep(Workload):
    name = "cavity_sweep"
    units = 120
    low, high = 10.0, 80.0  # ratios >= 10 keep the "not dispersive" warning off
    traced_invocation_s = 0.7

    def ratios(self, seed, index) -> list[float]:
        """An evenly spaced grid over [low, high) with a seeded offset."""
        offset = np.random.default_rng((seed, index)).random()
        step = (self.high - self.low) / self.units
        return [self.low + (k + offset) * step for k in range(self.units)]

    def argv(self, seed, index):
        return ["sweep", "--theta", repr(THETA), "--g-over-omega", repr(G_OVER_OMEGA),
                "--ratios", ",".join(repr(r) for r in self.ratios(seed, index))]

    def swaps(self, results):
        return len(results["rows"])

    def check(self, results, seed, index):
        return checks.check_sweep(results, self.ratios(seed, index), THETA, G_OVER_OMEGA)


WORKLOADS = {w.name: w for w in (SwapSample, ChainDeep, CavitySweep)}

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "measure.RngStream.calls": "count",
    "measure.RngStream.self_s": "s",
    "measure.RngStream.uniform.calls": "count",
    "protocol.swap_effective.calls": "count",
    "protocol.swap_effective.self_s": "s",
    "protocol.PairState.calls": "count",
    "protocol.PairState.self_s": "s",
    "protocol.prepare_singlet.calls": "count",
    "protocol.swap_table.hit_ratio": "ratio",
    "measure.enumerate_branches.calls": "count",
    "measure.enumerate_branches.self_s": "s",
    "hilbert.apply.calls": "count",
    "hilbert.apply.self_s": "s",
    "protocol.run_chain.calls": "count",
    "protocol.run_chain.self_s": "s",
    "hilbert.propagator.calls": "count",
    "hilbert.propagator.self_s": "s",
    "hilbert.OperatorMatrix.calls": "count",
    "hilbert.OperatorMatrix.self_s": "s",
    "hilbert.DensityMatrix.calls": "count",
    "hilbert.DensityMatrix.self_s": "s",
    "hilbert.partial_trace.calls": "count",
    "hilbert.partial_trace.self_s": "s",
    "model.build_full_tcm.calls": "count",
    "model.build_full_tcm.self_s": "s",
    "model.build_h0.calls": "count",
    "model.build_h0.self_s": "s",
    "measure.discard.calls": "count",
    "measure.discard.self_s": "s",
    "protocol.swap_full_cavity.calls": "count",
    "protocol.swap_full_cavity.self_s": "s",
    "analysis.dispersive_sweep.self_s": "s",
    "runner.execute.self_s": "s",
    "runner.render.self_s": "s",
    "runner.render.bytes": "bytes",
    "analysis.success_stats.self_s": "s",
}


def layer_metrics(tracer: Tracer) -> dict:
    values = {}
    for name in PER_LAYER:
        layer, _, figure = name.rpartition(".")
        if name == "protocol.swap_table.hit_ratio":
            values[name] = 1.0 - tracer.table_misses / max(tracer.calls["protocol.swap_effective"], 1)
        elif name == "runner.render.bytes":
            values[name] = tracer.render_bytes
        elif figure == "calls":
            values[name] = tracer.calls[layer]
        else:
            values[name] = tracer.self_s[layer]
    return {name: {"value": v, "unit": PER_LAYER[name]} for name, v in values.items()}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < MAX_SEED:
        parser.error(f"--seed must be in [0, 2**40), got {args.seed}")
    if not args.seconds > 0:
        parser.error(f"--seconds must be positive, got {args.seconds}")
    return args


def import_runner():
    """The package's runner, imported from this checkout's src/ and nowhere else."""
    if not (SRC / "qdrepeater" / "__init__.py").is_file():
        raise SystemExit(f"bench: no qdrepeater package under {SRC}")
    sys.path.insert(0, str(SRC))
    from qdrepeater import runner

    if Path(runner.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"bench: imported qdrepeater from {runner.__file__}, not {SRC}")
    return runner


def main(argv=None) -> int:
    args = parse_args(argv)
    runner = import_runner()
    workload = WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"record_{workload.name}.json"

    attempted = failed = 0
    errors: list[str] = []  # failed checks: the run is not correct
    faults: list[str] = []  # invocations that raised: counted in `failed`
    spent = 0.0
    ops, swaps_rate = [], []
    traced_invocations = max(1, round(args.seconds / workload.traced_invocation_s))
    index = 0
    setup_s = None
    while True:
        argv = workload.argv(args.seed, index) + ["--output-path", str(record_path)]
        gc.collect()
        start = time.perf_counter()
        try:
            runner.execute(runner.parse_config(argv))
            ok = True
        except Exception as exc:  # a failed invocation is counted, and the run goes on
            ok = False
            faults.append(f"invocation {index}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        attempted += workload.units
        if index == 0:
            setup_s = time.perf_counter() - _PROCESS_START
            if tracer:
                tracer.reset()
        else:
            spent += elapsed
        if ok:
            with open(record_path, encoding="utf-8") as fh:
                results = json.load(fh)["results"]
            errors.extend(f"invocation {index}: {e}" for e in workload.check(results, args.seed, index))
            if index:
                ops.append(workload.units / elapsed)
                swaps_rate.append(workload.swaps(results) / elapsed)
            del results
        else:
            failed += workload.units
        index += 1
        done = index > traced_invocations if tracer else spent >= args.seconds
        if done:
            break
    errors.extend(workload.finish())
    for line in (faults + errors)[:20]:
        print(f"bench: {line}", file=sys.stderr)

    if tracer:
        metrics = layer_metrics(tracer)
        report = {
            "workload": workload.name,
            "seed": args.seed,
            "invocations": index - 1,
            "units_per_invocation": workload.units,
            "traced_ops_per_s": statistics.median(ops) if ops else None,
            "traced_swaps_per_s": statistics.median(swaps_rate) if swaps_rate else None,
            "per_layer": {name: m["value"] for name, m in metrics.items()},
            "layers": tracer.figures(),
        }
        with open(OUT_DIR / f"BENCH_{workload.name}.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": statistics.median(ops) if ops else 0.0, "unit": "ops/s"},
            "swaps_per_s": {"value": statistics.median(swaps_rate) if swaps_rate else 0.0, "unit": "swaps/s"},
            "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
