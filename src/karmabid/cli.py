"""Command-line front end: solve, simulate, compare, lp.

Exit codes: 0 success, 2 usage or configuration error, 3 solver
non-convergence, a value solve that misses tol_value, or LP failure,
4 I/O error. All numeric output is written at full precision.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .baselines import build_max_eff_lp, solve_lp
from .config import RunManifest, RunSetup, load_config
from .equilibrium import (
    EquilibriumResult,
    SolverError,
    solve_sne,
    write_distribution_csv,
    write_policy_csv,
    write_residuals_csv,
)
from .model import ParameterError
from .simplex import LpError
from .simulation import Mechanism, MechanismKind, run_experiment, write_trace_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4

_MECHANISM_NAMES = {
    "karma": MechanismKind.KARMA,
    "random": MechanismKind.RANDOM,
    "turn": MechanismKind.TURN,
    "greedy": MechanismKind.GREEDY_URGENCY,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="karmabid",
        description="Karma bidding economy: equilibrium solver, benchmarks, and simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "compute the stationary equilibrium and export it"),
        ("simulate", "run one finite-population experiment"),
        ("compare", "run all mechanisms plus the LP bound and tabulate"),
        ("lp", "solve the efficiency-bound linear program"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=Path, default=None,
                         help="config file, JSON config, or run manifest (default: case study)")
        cmd.add_argument("--seed", type=int, default=None, help="override the configured rng seed")
        cmd.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        if name in ("simulate", "compare"):
            cmd.add_argument("--format", choices=("csv", "json"), default="csv",
                             help="stdout summary format")
        if name == "simulate":
            cmd.add_argument("--mechanism", required=True, choices=sorted(_MECHANISM_NAMES),
                             help="allocation mechanism to simulate")
    return parser


def _solve_with_timing(setup: RunSetup, timings: dict) -> EquilibriumResult:
    start = time.perf_counter()
    result = solve_sne(setup.process, setup.game, setup.solver)
    timings["solve_seconds"] = time.perf_counter() - start
    timings.update(result.timings)
    return result


def _no_convergence(setup: RunSetup, result: EquilibriumResult) -> int:
    print(
        f"equilibrium solve did not converge (max_outer_iters={setup.solver.max_outer_iters}): "
        f"exploitability={result.exploitability!r} "
        f"stationarity_residual={result.stationarity_residual!r}",
        file=sys.stderr,
    )
    return EXIT_NO_CONVERGENCE


def _write_equilibrium_files(out: Path, setup: RunSetup, result: EquilibriumResult) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "policy": out / "policy.csv",
        "distribution": out / "distribution.csv",
        "residuals": out / "residuals.csv",
        "summary": out / "solve_summary.json",
    }
    write_policy_csv(paths["policy"], setup.process, result.social)
    write_distribution_csv(paths["distribution"], setup.process, result.social)
    write_residuals_csv(paths["residuals"], result)
    paths["summary"].write_text(json.dumps(result.summary(), indent=2) + "\n")
    return {name: str(p) for name, p in paths.items()}


def _write_manifest(out: Path, setup: RunSetup, command: str, **fields) -> None:
    RunManifest(command=command, config=setup.raw, **fields).write(out / "manifest.json")


def cmd_solve(setup: RunSetup, out: Path) -> int:
    timings: dict = {}
    result = _solve_with_timing(setup, timings)
    outputs = _write_equilibrium_files(out, setup, result)
    _write_manifest(out, setup, "solve", outputs=outputs, timings=timings)
    print(json.dumps(result.summary(), indent=2))
    if not result.converged:
        return _no_convergence(setup, result)
    return EXIT_OK


def cmd_simulate(setup: RunSetup, mechanism_name: str, out: Path, fmt: str) -> int:
    kind = _MECHANISM_NAMES[mechanism_name]
    timings: dict = {}
    if kind is MechanismKind.KARMA:
        result = _solve_with_timing(setup, timings)
        if not result.converged:
            return _no_convergence(setup, result)
        mechanism = Mechanism.karma(result)
    else:
        mechanism = Mechanism(kind)

    start = time.perf_counter()
    report = run_experiment(setup.process, setup.game, mechanism)
    timings["simulate_seconds"] = time.perf_counter() - start

    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / f"metrics_{kind.value.lower()}.json"
    trace_path = out / f"trace_{kind.value.lower()}.csv"
    metrics_path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    write_trace_csv(trace_path, report)
    _write_manifest(out, setup, "simulate", mechanisms=[kind.value],
                    outputs={"metrics": str(metrics_path), "trace": str(trace_path)},
                    timings=timings)

    if fmt == "json":
        print(json.dumps({"mechanism": kind.value, "r_bar": report.r_bar, "beta": report.beta}, indent=2))
    else:
        print("mechanism,r_bar,beta")
        print(f"{kind.value},{report.r_bar!r},{report.beta!r}")
    return EXIT_OK


def cmd_compare(setup: RunSetup, out: Path, fmt: str) -> int:
    timings: dict = {}
    result = _solve_with_timing(setup, timings)
    if not result.converged:
        return _no_convergence(setup, result)

    problem = build_max_eff_lp(setup.process)
    start = time.perf_counter()
    lp_value, _psi = solve_lp(problem)
    timings["lp_seconds"] = time.perf_counter() - start

    # The simulations read only the converged policy. The solve's value
    # tables and operator are released before the KARMA bid tables are
    # built, so the two are never alive at once.
    outputs = _write_equilibrium_files(out, setup, result)
    policy = result.social.pi
    del result
    mechanisms = [Mechanism(MechanismKind.KARMA, policy),
                  *map(Mechanism, ("RANDOM", "TURN", "GREEDY_URGENCY"))]
    rows = []
    for mechanism in mechanisms:
        start = time.perf_counter()
        report = run_experiment(setup.process, setup.game, mechanism)
        timings[f"simulate_{mechanism.kind.value.lower()}_seconds"] = time.perf_counter() - start
        rows.append((mechanism.kind.value, repr(report.r_bar), repr(report.beta)))
    rows.append(("MAX_EFF_LP", repr(lp_value), ""))

    comparison_path = out / "comparison.csv"
    lines = ["mechanism,r_bar,beta"] + [",".join(row) for row in rows]
    comparison_path.write_text("\n".join(lines) + "\n")
    outputs["comparison"] = str(comparison_path)
    _write_manifest(out, setup, "compare",
                    mechanisms=[m.kind.value for m in mechanisms] + ["MAX_EFF_LP"],
                    outputs=outputs, timings=timings)

    if fmt == "json":
        print(json.dumps([{"mechanism": name, "r_bar": float(r), "beta": float(b) if b else None}
                          for name, r, b in rows], indent=2))
    else:
        print("\n".join(lines))
    return EXIT_OK


def cmd_lp(setup: RunSetup, out: Path) -> int:
    problem = build_max_eff_lp(setup.process)
    start = time.perf_counter()
    value, psi = solve_lp(problem)
    elapsed = time.perf_counter() - start
    doc = {
        "r_bar_max": value,
        "psi": [
            {"urgency_level": level, "outcome": o, "mass": float(mass)}
            for (level, o), mass in zip(problem.labels, psi)
        ],
    }
    out.mkdir(parents=True, exist_ok=True)
    lp_path = out / "lp.json"
    lp_path.write_text(json.dumps(doc, indent=2) + "\n")
    _write_manifest(out, setup, "lp", outputs={"lp": str(lp_path)}, timings={"lp_seconds": elapsed})
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        setup = load_config(args.config)
        if args.seed is not None:
            setup = setup.with_seed(args.seed)
        if args.command == "solve":
            return cmd_solve(setup, args.out)
        if args.command == "simulate":
            return cmd_simulate(setup, args.mechanism, args.out, args.format)
        if args.command == "compare":
            return cmd_compare(setup, args.out, args.format)
        return cmd_lp(setup, args.out)  # the subparsers admit no other command
    except ParameterError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LpError as exc:
        print(f"LP solver error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except SolverError as exc:
        print(f"equilibrium solver error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
