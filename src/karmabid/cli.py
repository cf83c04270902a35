"""Command-line front end: solve, simulate, compare, lp.

Every command times its stages with _timed, writes JSON with _write_json
and CSV with _write_csv, and ends in _finish, which writes manifest.json
and prints the summary. This is the only module that writes files.
main first lets glibc's malloc keep freed memory (_keep_freed_memory),
so the simulator's rounds reuse their arrays' pages, then blocks
OpenSSL's _hashlib around every command, so that hashlib and hmac take
CPython's built-in digests. Both settings hold only in the CLI's
process; library users keep the defaults.

Exit codes: 0 success, 2 usage or configuration error, 3 solver
non-convergence, a value solve that misses tol_value, or LP failure,
4 I/O error. All numeric output is written at full precision.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .baselines import build_max_eff_lp, solve_lp
from .config import RunManifest, RunSetup, load_config
from .equilibrium import EquilibriumResult, SolverError, solve_sne
from .model import ParameterError, bid_layout
from .simplex import LpError
from .simulation import Mechanism, MechanismKind, run_baselines, run_experiment

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


def _minor_faults() -> int | None:
    """This process's minor page faults so far; None without the resource module."""
    try:
        import resource
    except ImportError:  # not on every platform
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _stages() -> dict:
    """The manifest fields that _timed fills, empty."""
    return {"timings": {}, "minor_faults": {}}


def _timed(stages: dict, name: str, fn, *args):
    """fn(*args), with its wall seconds recorded as stages["timings"][name +
    "_seconds"] and its minor page faults as stages["minor_faults"][name]."""
    faults = _minor_faults()
    start = time.perf_counter()
    value = fn(*args)
    stages["timings"][f"{name}_seconds"] = time.perf_counter() - start
    if faults is not None:
        stages["minor_faults"][name] = _minor_faults() - faults
    return value


def _write_json(path: Path, doc, sort_keys: bool = False) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=sort_keys) + "\n")


def _write_csv(path: Path, header: str, lines) -> None:
    """CSV file: the header, then each item of lines, newline-terminated.
    An item may join several rows with newlines. Every caller formats its
    floats with repr, so they read back exactly."""
    with open(path, "w") as out:
        out.write(header + "\n")
        out.writelines(f"{line}\n" for line in lines)


def _solve(setup: RunSetup, stages: dict) -> EquilibriumResult:
    result = _timed(stages, "solve", solve_sne, setup.process, setup.game, setup.solver)
    stages["timings"].update(result.timings)
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
    levels, social = setup.process.levels, result.social

    def policy_lines():
        """The policy in its packed order, one state per item: that keeps the
        live text small, and policy.csv reaches megabytes at k_max in the hundreds."""
        starts = bid_layout(social.k_max)[0].tolist()
        for level, row in zip(levels, social.pi):
            for k, start in enumerate(starts):
                prefix = f"{level},{k},"
                yield "\n".join([f"{prefix}{b},{p!r}"
                                 for b, p in enumerate(row[start:start + k + 1].tolist())])

    _write_csv(paths["policy"], "urgency_level,karma,bid,probability", policy_lines())
    _write_csv(paths["distribution"], "urgency_level,karma,mass",
               [f"{level},{k},{mass!r}" for level, row in zip(levels, social.d.tolist())
                for k, mass in enumerate(row)])
    _write_csv(paths["residuals"], "iteration,stationarity_residual,exploitability",
               [f"{i},{resid!r},{expl!r}"
                for i, (resid, expl) in enumerate(result.residuals.tolist(), start=1)])
    _write_json(paths["summary"], result.summary())
    return {name: str(p) for name, p in paths.items()}


def _finish(out: Path, setup: RunSetup, command: str, text: str, **fields) -> int:
    """Every command's last step: write its manifest, then print its stdout summary."""
    manifest = RunManifest(command=command, config=setup.raw, **fields)
    _write_json(out / "manifest.json", dataclasses.asdict(manifest), sort_keys=True)
    print(text)
    return EXIT_OK


def cmd_solve(setup: RunSetup, out: Path) -> int:
    stages = _stages()
    result = _solve(setup, stages)
    outputs = _write_equilibrium_files(out, setup, result)
    _finish(out, setup, "solve", json.dumps(result.summary(), indent=2),
            outputs=outputs, **stages)
    return EXIT_OK if result.converged else _no_convergence(setup, result)


def cmd_simulate(setup: RunSetup, mechanism_name: str, out: Path, fmt: str) -> int:
    kind = _MECHANISM_NAMES[mechanism_name]
    stages = _stages()
    if kind is MechanismKind.KARMA:
        result = _solve(setup, stages)
        if not result.converged:
            return _no_convergence(setup, result)
        mechanism = Mechanism.karma(result)
    else:
        mechanism = Mechanism(kind)
    report = _timed(stages, "simulate", run_experiment, setup.process, setup.game, mechanism)

    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / f"metrics_{kind.value.lower()}.json"
    trace_path = out / f"trace_{kind.value.lower()}.csv"
    _write_json(metrics_path, report.to_dict())
    histograms = report.karma_histograms  # None outside KARMA runs
    k_cols = [f"karma_{k}" for k in range(histograms.shape[1])] if histograms is not None else []
    running = np.cumsum(report.round_mean_rewards) / np.arange(1, report.n_rounds + 1)
    counts = (["," + ",".join(map(str, row)) for row in histograms.tolist()]
              if histograms is not None else [""] * report.n_rounds)
    _write_csv(trace_path, ",".join(["round", "mean_reward", "running_mean_reward"] + k_cols),
               [f"{t},{mean!r},{run!r}{tail}" for t, (mean, run, tail) in enumerate(
                   zip(report.round_mean_rewards.tolist(), running.tolist(), counts), start=1)])
    if fmt == "json":
        text = json.dumps({"mechanism": kind.value, "r_bar": report.r_bar, "beta": report.beta}, indent=2)
    else:
        text = f"mechanism,r_bar,beta\n{kind.value},{report.r_bar!r},{report.beta!r}"
    return _finish(out, setup, "simulate", text, mechanisms=[kind.value],
                   outputs={"metrics": str(metrics_path), "trace": str(trace_path)}, **stages)


def cmd_compare(setup: RunSetup, out: Path, fmt: str) -> int:
    stages = _stages()
    result = _solve(setup, stages)
    if not result.converged:
        return _no_convergence(setup, result)
    lp_value, _psi = _timed(stages, "lp", solve_lp, build_max_eff_lp(setup.process))
    outputs = _write_equilibrium_files(out, setup, result)

    def row_of(report):
        return report.mechanism, repr(report.r_bar), repr(report.beta)

    # Only KARMA's row outlives its report, so the baselines run without it.
    rows = [row_of(_timed(stages, "simulate_karma",
                          run_experiment, setup.process, setup.game, Mechanism.karma(result)))]
    baselines = [Mechanism(kind) for kind in ("RANDOM", "TURN", "GREEDY_URGENCY")]
    rows += map(row_of, _timed(stages, "simulate_baselines",
                               run_baselines, setup.process, setup.game, baselines))
    rows.append(("MAX_EFF_LP", repr(lp_value), ""))

    comparison_path = out / "comparison.csv"
    header, lines = "mechanism,r_bar,beta", [",".join(row) for row in rows]
    _write_csv(comparison_path, header, lines)
    outputs["comparison"] = str(comparison_path)
    if fmt == "json":
        text = json.dumps([{"mechanism": name, "r_bar": float(r), "beta": float(b) if b else None}
                           for name, r, b in rows], indent=2)
    else:
        text = "\n".join([header, *lines])
    return _finish(out, setup, "compare", text, mechanisms=[row[0] for row in rows],
                   outputs=outputs, **stages)


def cmd_lp(setup: RunSetup, out: Path) -> int:
    problem = build_max_eff_lp(setup.process)
    stages = _stages()
    value, psi = _timed(stages, "lp", solve_lp, problem)
    doc = {
        "r_bar_max": value,
        "psi": [
            {"urgency_level": level, "outcome": o, "mass": float(mass)}
            for (level, o), mass in zip(problem.labels, psi)
        ],
    }
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "lp.json", doc)
    return _finish(out, setup, "lp", json.dumps(doc, indent=2),
                   outputs={"lp": str(out / "lp.json")}, **stages)


# glibc mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Let glibc's malloc keep freed memory in the process for reuse.

    A simulated round frees its N-length arrays and the next round
    allocates them again. By default glibc returns the top of its heap to
    the kernel once more than twice the largest recently freed block lies
    free there, so every round faulted those pages back in: in a compare
    at N = 10**5 under glibc 2.36 on x86_64, about 86 000 minor faults
    in KARMA's stage and 138 000 in the baselines', against 2 300 and 0
    with this setting. Blocks up to 32 MiB (glibc's cap) now come from
    the heap, and freed heap memory goes back only beyond 1 GiB. Where
    libc is not glibc, or has no mallopt, nothing changes.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _keep_freed_memory()
    # OpenSSL's libcrypto is 3.3 MB of resident memory that no command
    # hashes with. With _hashlib blocked, hashlib, hmac and secrets take
    # CPython's built-in digests; a process that loaded it first keeps it.
    block_openssl = "_hashlib" not in sys.modules
    if block_openssl:
        sys.modules["_hashlib"] = None  # an import of it now raises ImportError
    try:
        setup = load_config(args.config)
        if args.seed is not None:
            setup = setup.with_seed(args.seed)
        if args.command in ("simulate", "compare"):
            import numpy.random  # it loads secrets, hmac and hashlib: here, not in a timed stage
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
    finally:
        if block_openssl:
            del sys.modules["_hashlib"]


if __name__ == "__main__":
    sys.exit(main())
