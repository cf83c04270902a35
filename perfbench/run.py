"""Benchmark of the `karmabid compare` pipeline: solve, simulate, LP bound.

    python3 perfbench/run.py --workload case_study|fine_karma|big_population|all
        [--seed N] [--seconds S] [--trace 0|1]

Every measurement starts a fresh interpreter (worker.py) that imports
karmabid from ./src and runs one `compare`, closed loop, one at a time.
The seed becomes the simulation's rng_seed; the solve does not depend
on it.

--trace 0 measures the end-to-end metrics:
  setup_s      median of several fresh interpreters, each timed from
               spawn until karmabid.cli is imported and the config loaded
  compare_s    wall time of `compare` after set-up, until every
               artifact is written
  peak_rss_mb  ru_maxrss of the compare process
Compares repeat while the next one fits in --seconds (at least one);
each metric is the median over them. Stage times (solve, simulation)
are per-layer metrics: on a 2-vCPU KVM guest whose speed drifted by up
to 1.5x within minutes, one 2 s solve or 0.7 s baseline simulation per
30 s run spread 20-33 % (interquartile range over median) across runs,
against 12-25 % for compare_s.

--trace 1 runs pairs of one untraced and one traced compare at the same
seed and reports the per-layer metrics (median over pairs):
  equilibrium.solve_s     manifest.json timings.solve_seconds
  simulation.karma_ns_per_agent_round
                          simulate_karma_seconds / (N (burn_in + n_rounds))
  simulation.baseline_ns_per_agent_round
                          the same, summed over RANDOM, TURN and GREEDY
  bench.trace_overhead_s  traced minus untraced compare_s
all from the untraced compare, and the span metrics of the traced one.
equilibrium.kernel_bytes is computed from the returned kernel's nbytes,
not measured.
Per-iteration metrics are divided by the solver's outer iterations,
per-round metrics are medians over run_round calls. A function that a
refactor removed is reported as 0 and named on stderr and in the result
file as absent.

Output checks, counted in `attempted` and `failed`: exit code 0 with all
five comparison.csv rows; the solve within tol_policy and
tol_distribution; the LP value at least every simulated r_bar;
comparison.csv byte-identical across the compares of a run (all share
the seed; a single-compare run skips this one). Traced compares add:
karma total exactly N k_bar and no negative balance after every round,
and |simulated - predicted KARMA r_bar| within a tolerance from N and
n_rounds.

The last stdout line is {"correct", "attempted", "failed", "metrics"};
`metrics` maps a name to {"value", "unit"}. With --workload all the
names are prefixed by the workload. Each run also writes
.perfbench_work/results/<workload>-seed<N>-trace<T>.json with every
sample, every check and the environment (git SHA, Python, numpy,
OpenBLAS, nproc, BLAS threads, L2/L3 sizes, the workload's computed
working set), and for traced runs the spans of the last traced compare.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import artifact_checks, check_identical

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
DEFAULT_SEED = 20250809
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 170

# Overrides of the case-study defaults; BENCHMARK.json says why each exists.
WORKLOADS = {
    "case_study": {},
    "fine_karma": {"k_max": 160},
    "big_population": {"n_agents": 100000, "n_rounds": 100, "burn_in": 10},
}

END_TO_END_UNITS = {"setup_s": "s", "compare_s": "s", "peak_rss_mb": "MB"}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Run:
    """One invocation's worker spawns, samples and checks for one workload."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.dir = work / "runs" / f"{workload}-seed{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "workload.cfg"
        self.config.write_text(
            "".join(f"{key} = {json.dumps(value)}\n" for key, value in WORKLOADS[workload].items()))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.spawns = 0
        self.checks: list[tuple] = []
        self.workers: list[dict] = []
        self.blas_capped = False
        self.absent: list[str] = []

    def spawn(self, *flags: str) -> dict:
        """Start worker.py, wait for it and return its result plus our stamps."""
        self.spawns += 1
        out = self.dir / f"out{self.spawns}"
        result = self.dir / f"result{self.spawns}.json"
        cmd = [sys.executable, str(WORKER), "--root", str(ROOT), "--config", str(self.config),
               "--seed", str(self.seed), "--out", str(out), "--result", str(result), *flags]
        spawned_at = monotonic()
        proc = subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S)
        wall = monotonic() - spawned_at
        if proc.returncode != 0 or not result.exists():
            raise RuntimeError(f"worker {' '.join(cmd)} exited with {proc.returncode}")
        doc = json.loads(result.read_text())
        doc["setup_s"] = doc["ready_at"] - spawned_at
        doc["wall_s"] = wall
        doc["out"] = out
        return doc

    def setup_samples(self) -> list[float]:
        """setup_s of fresh interpreters; the first only warms the file cache."""
        first = self.spawn("--setup-only")
        nproc = len(os.sched_getaffinity(0))
        if first["blas_threads"] is not None and first["blas_threads"] > nproc:
            self.env["OPENBLAS_NUM_THREADS"] = str(nproc)
            self.blas_capped = True
        return [self.spawn("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]

    def compare(self, trace: bool = False) -> dict:
        doc = self.spawn(*(["--trace"] if trace else []))
        out = doc["out"]
        self.checks += artifact_checks(out, doc["exit_code"])
        if doc["exit_code"] == 0:
            doc["comparison"] = (out / "comparison.csv").read_text()
            manifest = json.loads((out / "manifest.json").read_text())
            doc["timings"], doc["config"] = manifest["timings"], manifest["config"]
        if trace:
            self.checks += [tuple(check) for check in doc["trace"]["checks"]]
        self.workers.append(doc)
        return doc

    def check_repeatable(self) -> None:
        texts = [doc["comparison"] for doc in self.workers if "comparison" in doc]
        if len(texts) >= 2:
            self.checks.append(check_identical(texts))

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def sim_ns(doc: dict, karma: bool) -> float:
    config = doc["config"]
    agent_rounds = config["n_agents"] * (config["burn_in"] + config["n_rounds"])
    seconds = sum(
        value for key, value in doc["timings"].items()
        if key.startswith("simulate_") and (key == "simulate_karma_seconds") == karma
    )
    return 1e9 * seconds / agent_rounds


def spread(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "n": len(values), "samples": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def measure(run: Run, seconds: float) -> dict:
    """--trace 0: set-up probes, then compares while the next one fits."""
    samples = {"setup_s": run.setup_samples()}
    good = []
    started = monotonic()
    while True:
        doc = run.compare()
        if doc["exit_code"] == 0:
            good.append(doc)
        elapsed = monotonic() - started
        if elapsed + doc["wall_s"] > seconds:
            break
    run.check_repeatable()
    if not good:
        raise RuntimeError("no compare succeeded")
    samples["compare_s"] = [doc["compare_s"] for doc in good]
    samples["peak_rss_mb"] = [doc["rss_kb"] / 1024.0 for doc in good]
    return {name: dict(spread(values), unit=END_TO_END_UNITS[name]) for name, values in samples.items()}


def measure_traced(run: Run, seconds: float) -> dict:
    """--trace 1: untraced/traced pairs; per-layer medians over the traced."""
    pairs = []
    started = monotonic()
    while True:
        plain = run.compare()
        traced = run.compare(trace=True)
        if plain["exit_code"] == 0 and traced["exit_code"] == 0:
            pairs.append((plain, traced))
        elapsed = monotonic() - started
        if elapsed + plain["wall_s"] + traced["wall_s"] > seconds:
            break
    run.check_repeatable()
    if not pairs:
        raise RuntimeError("no traced compare succeeded")
    layers: dict[str, list] = {}
    for plain, traced in pairs:
        metrics = dict(traced["trace"]["metrics"])
        metrics["config.load_config_ms"] = (1e3 * traced["load_config_s"], "ms")
        metrics["cli.import_s"] = (traced["import_s"], "s")
        metrics["bench.trace_overhead_s"] = (traced["compare_s"] - plain["compare_s"], "s")
        metrics["equilibrium.solve_s"] = (plain["timings"]["solve_seconds"], "s")
        metrics["simulation.karma_ns_per_agent_round"] = (sim_ns(plain, karma=True), "ns")
        metrics["simulation.baseline_ns_per_agent_round"] = (sim_ns(plain, karma=False), "ns")
        for name, (value, unit) in metrics.items():
            layers.setdefault(name, [[], unit])[0].append(value)
    out = {}
    absent = set(pairs[-1][1]["trace"]["absent"])
    for name, (values, unit) in layers.items():
        finite = [v for v in values if math.isfinite(v)]
        if len(finite) < len(values):
            absent.add(name)
        out[name] = dict(spread(finite or [0.0]), unit=unit)
    run.absent = sorted(absent)
    if absent:
        print(f"absent spans or values, reported as 0: {', '.join(run.absent)}", file=sys.stderr)
    return out


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def cache_bytes(level: int) -> int | None:
    try:
        proc = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"],
                              capture_output=True, text=True, timeout=30)
        return int(proc.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def working_set(config: dict) -> dict:
    """Sizes of the arrays each layer streams, computed from their shapes."""
    n_u, nk, n = len(config["levels"]), config["k_max"] + 1, config["n_agents"]
    states = n_u * nk
    return {
        "source": "computed from array shapes (float64/int64), not measured",
        "states": states,
        "solver_kernel_bytes": states * states * 8,
        "policy_bytes": n_u * nk * nk * 8,
        "karma_row_gather_bytes": n * nk * 8,
        "population_bytes": n * 6 * 8,
    }


def environment(run: Run) -> dict:
    worker = run.workers[-1]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": worker.get("numpy"),
        "openblas": worker.get("blas_config"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": worker.get("blas_threads"),
        "blas_threads_capped_to_nproc": run.blas_capped,
        "machine": platform.machine(),
        "l2_bytes": cache_bytes(2),
        "l3_bytes": cache_bytes(3),
        "working_set": working_set(worker["config"]) if "config" in worker else None,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, Run]:
    run = Run(workload, seed, work)
    try:
        metrics = measure_traced(run, seconds) if trace else measure(run, seconds)
        record = {
            "workload": workload,
            "overrides": WORKLOADS[workload],
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "environment": environment(run),
            "metrics": metrics,
            "absent": run.absent,
            "checks": [list(check) for check in run.checks],
            "workers": [{k: v for k, v in doc.items() if k not in ("out", "comparison")} for doc in run.workers],
        }
        results = work / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{workload}-seed{seed}-trace{int(trace)}"
        if trace:
            spans = Path(run.workers[-1]["trace"]["spans_file"])
            record["spans_file"] = str(shutil.copyfile(spans, results / f"{stem}-spans.json"))
        (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    finally:
        run.close()
    return metrics, run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "karmabid" / "__init__.py").is_file():
        print(f"no karmabid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = ROOT / ".perfbench_work"
    attempted = failed = 0
    final: dict = {}
    for workload in workloads:
        try:
            metrics, run = run_workload(workload, args.seed, args.seconds, bool(args.trace), work)
        except (RuntimeError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
            print(f"{workload}: benchmark failed: {exc}", file=sys.stderr)
            return 1
        attempted += len(run.checks)
        failed += sum(1 for check in run.checks if not check[1])
        for check in run.checks:
            if not check[1]:
                print(f"{workload}: check failed: {check[0]}: {check[2]}", file=sys.stderr)
        for name, m in metrics.items():
            quartiles = f", q1 {m['q1']:.6g}, q3 {m['q3']:.6g}" if "q1" in m else ""
            print(f"{workload} {name} = {m['median']:.6g} {m['unit']} (median of {m['n']}{quartiles})")
            key = f"{workload}.{name}" if args.workload == "all" else name
            final[key] = {"value": m["median"], "unit": m["unit"]}
    print(f"checks: {attempted - failed} of {attempted} passed")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
