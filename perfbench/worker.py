"""One `karmabid compare` in a fresh interpreter, timed and optionally traced.

    python3 perfbench/worker.py --root DIR --config CFG --seed N --out DIR
        --result FILE [--setup-only] [--trace]

run.py starts this script once per measurement with PYTHONPATH pointing
at DIR/src. It writes one JSON object to --result:

- ready_at: CLOCK_MONOTONIC stamp once karmabid.cli is imported and the
  config is loaded (run.py subtracts its own stamp taken before the
  spawn, which gives setup_s);
- import_s, load_config_s: the two parts of set-up, timed in-process;
- exit_code, compare_s, rss_kb (ru_maxrss of this process), blas_threads,
  blas_config, numpy, python (not with --setup-only);
- trace (with --trace): per-layer metrics, checks, absent spans and the
  path of the span file.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path

# Mechanism names as the per-layer metrics spell them.
SHORT = {"karma": "karma", "random": "random", "turn": "turn", "greedy_urgency": "greedy"}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def blas_info() -> tuple[int | None, str | None]:
    """(threads in effect, configuration string) of numpy's OpenBLAS."""
    import ctypes

    import numpy as np

    np_dir = Path(np.__file__).parent
    candidates = glob.glob(str(np_dir.parent / "numpy.libs" / "*openblas*.so*"))
    candidates += glob.glob(str(np_dir / ".libs" / "*openblas*.so*"))
    for path in candidates:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if threads is None or config is None:
                continue
            threads.restype, threads.argtypes = ctypes.c_int, []
            config.restype, config.argtypes = ctypes.c_char_p, []
            return int(threads()), config().decode()
    return None, None


def mechanism_label(*args, **kwargs) -> str:
    mechanism = kwargs.get("mechanism", args[-1] if args else None)
    kind = str(getattr(getattr(mechanism, "kind", None), "value", "unknown")).lower()
    return SHORT.get(kind, kind)


class TracedCompare:
    """Wraps the karmabid modules' public functions and checks invariants
    while a compare runs; `report()` turns the spans into layer metrics."""

    TARGETS = (
        # (module, attribute, span name)
        ("karmabid.cli", "cmd_compare", "cli.compare"),
        ("karmabid.equilibrium", "solve_sne", "equilibrium.solve_sne"),
        ("karmabid.equilibrium", "policy_evaluation", "equilibrium.policy_evaluation"),
        ("karmabid.equilibrium", "transition_kernel", "equilibrium.transition_kernel"),
        ("karmabid.equilibrium", "q_function", "equilibrium.q_function"),
        ("karmabid.equilibrium", "perturbed_best_response", "equilibrium.perturbed_best_response"),
        ("karmabid.equilibrium", "exploitability", "equilibrium.exploitability"),
        ("karmabid.model", "bid_marginal", "model.bid_marginal"),
        ("karmabid.model", "win_prob_all_bids", "model.win_prob_all_bids"),
        ("karmabid.model", "average_payment", "model.average_payment"),
        ("karmabid.baselines", "build_max_eff_lp", "baselines.build_max_eff_lp"),
        ("karmabid.baselines", "solve_lp", "baselines.solve_lp"),
        ("karmabid.simulation", "run_experiment", "simulation.run_experiment"),
        ("karmabid.simulation", "run_round", "simulation.run_round"),
    )

    def __init__(self, tracer, k_bar: int, levels, n_agents: int, n_rounds: int):
        self.tracer = tracer
        self.k_bar = k_bar
        self.levels = levels
        self.n_agents = n_agents
        self.n_rounds = n_rounds
        self.solve = None
        self.karma_report = None
        self.rounds_checked = 0
        self.unconserved_rounds = 0
        self.negative_rounds = 0
        self.absent: list[str] = []

    def install(self) -> None:
        from tracing import instrument

        hooks = {
            "equilibrium.solve_sne": (None, self._keep_solve),
            "simulation.run_experiment": (mechanism_label, self._keep_report),
            "simulation.run_round": (mechanism_label, self._check_round),
        }
        for module, attr, name in self.TARGETS:
            label, after = hooks.get(name, (None, None))
            if not instrument(self.tracer, module, attr, name, label=label, after=after):
                self.absent.append(name)

    def _keep_solve(self, result, *args, **kwargs) -> None:
        self.solve = result

    def _keep_report(self, report, *args, **kwargs) -> None:
        if getattr(report, "mechanism", None) == "KARMA":
            self.karma_report = report

    def _check_round(self, rewards, pop, *args, **kwargs) -> None:
        karma = getattr(pop, "karma", None)
        if karma is None:
            return
        self.rounds_checked += 1
        if int(karma.sum()) != len(karma) * self.k_bar:
            self.unconserved_rounds += 1
        if int(karma.min()) < 0:
            self.negative_rounds += 1

    def mf_tolerance(self) -> float:
        """Allowed |simulated - predicted| KARMA r_bar.

        Per-agent rewards lie in [-max level, 0], so the mean over
        N * n_rounds agent-rounds has a standard error of at most
        max_level / (2 sqrt(N n_rounds)) for independent draws; six of
        those leaves room for correlation between rounds.
        """
        return 3.0 * max(self.levels) / (self.n_agents * self.n_rounds) ** 0.5

    def report(self, out: Path) -> dict:
        import numpy as np

        from checks import parse_comparison
        from tracing import self_times

        spans = self.tracer.spans
        selfs = self_times(spans)
        durations: dict[str, list[float]] = {}
        self_sums: dict[str, float] = {}
        for (name, start, end, _parent), own in zip(spans, selfs):
            durations.setdefault(name, []).append(end - start)
            self_sums[name] = self_sums.get(name, 0.0) + own

        def total(name):
            return sum(durations.get(name, []))

        def count(name):
            return len(durations.get(name, []))

        solve = self.solve
        iterations = getattr(solve, "iterations", None) or count("equilibrium.policy_evaluation") or 1

        def per_iter_ms(seconds):
            return 1e3 * seconds / iterations

        metrics = {
            "equilibrium.iterations": (iterations, "count"),
            "equilibrium.transition_kernel_ms": (per_iter_ms(total("equilibrium.transition_kernel")), "ms"),
            "equilibrium.policy_evaluation_self_ms": (
                per_iter_ms(self_sums.get("equilibrium.policy_evaluation", 0.0)), "ms"),
            "equilibrium.q_function_ms": (per_iter_ms(total("equilibrium.q_function")), "ms"),
            "equilibrium.best_response_ms": (per_iter_ms(
                total("equilibrium.perturbed_best_response") + total("equilibrium.exploitability")), "ms"),
            "equilibrium.solve_sne_self_ms": (per_iter_ms(self_sums.get("equilibrium.solve_sne", 0.0)), "ms"),
        }
        # Computed from the array's shape, not a measured allocation.
        kernel = getattr(getattr(solve, "values", None), "P", None)
        metrics["equilibrium.kernel_bytes"] = (int(getattr(kernel, "nbytes", 0)), "bytes")
        metrics["equilibrium.final_exploitability"] = (float(getattr(solve, "exploitability", "nan")), "reward")
        metrics["equilibrium.final_stationarity"] = (float(getattr(solve, "stationarity_residual", "nan")), "tv")
        for fn in ("bid_marginal", "win_prob_all_bids", "average_payment"):
            metrics[f"model.{fn}_calls"] = (count(f"model.{fn}") / iterations, "count")

        for mech in SHORT.values():
            rounds = durations.get(f"simulation.run_round.{mech}", [])
            metrics[f"simulation.run_round_us.{mech}"] = (
                1e6 * float(np.median(rounds)) if rounds else 0.0, "us")
        karma_rounds = count("simulation.run_round.karma")
        metrics["simulation.run_experiment_self_ms.karma"] = (
            1e3 * self_sums.get("simulation.run_experiment.karma", 0.0) / max(karma_rounds, 1), "ms")
        metrics["simulation.rounds"] = (
            sum(count(f"simulation.run_round.{mech}") for mech in SHORT.values()), "count")

        checks = []
        gap = tv = float("nan")
        values = getattr(solve, "values", None)
        social = getattr(solve, "social", None)
        report = self.karma_report
        if report is not None and getattr(values, "R", None) is not None and social is not None:
            predicted = float((social.d * values.R).sum())
            gap = abs(float(report.r_bar) - predicted)
            tolerance = self.mf_tolerance()
            checks.append(("mf_gap_within_tolerance", gap <= tolerance,
                           f"|{report.r_bar!r} - {predicted!r}| = {gap!r}, tolerance {tolerance!r}"))
            if getattr(report, "karma_histograms", None) is not None:
                hist = report.karma_histograms.mean(axis=0)
                hist = hist / hist.sum()
                marginal = social.d.sum(axis=0)
                tv = 0.5 * float(np.abs(hist - marginal).sum())
        metrics["simulation.mf_gap"] = (gap, "reward")
        metrics["simulation.karma_tv"] = (tv, "tv")
        if self.rounds_checked:
            checks.append(("karma_conserved_every_round", self.unconserved_rounds == 0,
                           f"{self.unconserved_rounds} of {self.rounds_checked} rounds off N*k_bar"))
            checks.append(("karma_nonnegative_every_round", self.negative_rounds == 0,
                           f"{self.negative_rounds} of {self.rounds_checked} rounds below 0"))

        comparison = out / "comparison.csv"
        rows = parse_comparison(comparison.read_text()) if comparison.exists() else {}
        simulated = [r for name, r in rows.items() if name != "MAX_EFF_LP"]
        slack = rows["MAX_EFF_LP"] - max(simulated) if "MAX_EFF_LP" in rows and simulated else float("nan")
        metrics["baselines.build_max_eff_lp_ms"] = (1e3 * total("baselines.build_max_eff_lp"), "ms")
        metrics["baselines.solve_lp_ms"] = (1e3 * total("baselines.solve_lp"), "ms")
        metrics["baselines.lp_slack"] = (slack, "reward")
        metrics["cli.write_artifacts_ms"] = (1e3 * self_sums.get("cli.compare", 0.0), "ms")
        metrics["cli.artifact_bytes"] = (
            sum(p.stat().st_size for p in out.iterdir() if p.is_file()) if out.exists() else 0, "bytes")
        return {"metrics": metrics, "checks": checks, "absent": self.absent}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    import karmabid.cli as cli
    import_s = time.perf_counter() - start
    src = (args.root / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"karmabid was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    setup = cli.load_config(args.config)
    load_config_s = time.perf_counter() - start
    doc = {"ready_at": monotonic(), "import_s": import_s, "load_config_s": load_config_s}
    if args.setup_only:
        doc["blas_threads"], doc["blas_config"] = blas_info()
        args.result.write_text(json.dumps(doc))
        return 0

    traced = None
    if args.trace:
        from tracing import Tracer

        game = setup.game
        traced = TracedCompare(Tracer(), game.k_bar, setup.process.levels, game.n_agents, game.n_rounds)
        traced.install()

    argv = ["compare", "--config", str(args.config), "--seed", str(args.seed), "--out", str(args.out)]
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        exit_code = cli.main(argv)
    doc["compare_s"] = time.perf_counter() - start
    doc["exit_code"] = exit_code
    doc["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import numpy as np

    doc["numpy"] = np.__version__
    doc["python"] = platform.python_version()
    doc["blas_threads"], doc["blas_config"] = blas_info()
    if traced is not None:
        trace = traced.report(args.out)
        spans_path = args.result.with_name(args.result.stem + "-spans.json")
        spans_path.write_text(json.dumps(
            [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in traced.tracer.spans]))
        trace["spans_file"] = str(spans_path)
        doc["trace"] = trace
    args.result.write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
