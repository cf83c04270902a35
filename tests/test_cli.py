"""Command-line tests: exit codes, file outputs, manifest reproducibility."""

import ctypes
import dataclasses
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import karmabid
from karmabid import ParameterError, RunSetup, build_max_eff_lp, load_config, solve_lp, solve_sne
from karmabid import cli
from karmabid.cli import main
from karmabid.config import DEFAULTS, RunManifest, setup_from_mapping

# Any value a JSON config can hold. The second integer range reaches past
# the largest float (about 2**1024), where float() overflows.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**1100, 2**1100)
    | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)

# A degenerate but fully converging game: one zero-valuation urgency
# level and no karma in circulation. Started at the temperature floor,
# where a solve may stop, it solves in one iteration.
TINY_CONFIG = """
# tiny converging game
levels = [0]
phi_win = [[1.0]]
phi_lose = [[1.0]]
k_bar = 0
k_max = 1
br_temperature = 1e-5
n_agents = 20
n_rounds = 30
burn_in = 5
rng_seed = 99
"""

# A small game whose rewards are not all zero, so that the four
# mechanisms' rows differ.
SMALL_CONFIG = """
levels = [1, 4]
k_bar = 2
k_max = 8
n_agents = 20
n_rounds = 50
burn_in = 5
"""

# Every subcommand, with the arguments it needs; simulate takes the one
# mechanism that solves.
COMMANDS = [["solve"], ["simulate", "--mechanism", "karma"], ["compare"], ["lp"]]


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return path


class TestConfigLoading:
    def test_defaults_are_case_study(self):
        setup = load_config(None)
        assert setup.process.levels == (1, 2, 4, 8, 16)
        assert setup.game.alpha == 0.98
        assert setup.game.k_bar == 10
        assert setup.game.k_max == 40
        assert setup.solver.max_outer_iters == 2000

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("alpa = 0.9\n")
        with pytest.raises(ParameterError, match="alpa"):
            load_config(path)

    def test_comments_and_lists_parse(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("levels = [1, 2]  # two levels\nalpha = 0.5\n")
        setup = load_config(path)
        assert setup.process.levels == (1, 2)
        assert setup.game.alpha == 0.5

    def test_manifest_round_trip(self):
        manifest = RunManifest(
            version="0.1.0", command="compare", config={"alpha": 0.98, "levels": [1, 2]},
            mechanisms=["KARMA"], outputs={"comparison": "out/comparison.csv"},
            timings={"solve_seconds": 1.25},
        )
        again = RunManifest(**json.loads(json.dumps(dataclasses.asdict(manifest), sort_keys=True)))
        assert again == manifest

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.dictionaries(st.sampled_from([*DEFAULTS, "phi_win", "phi_lose"]), JSON_VALUES,
                           max_size=3))
    def test_any_json_value_is_accepted_or_a_parameter_error(self, overrides):
        # Whatever a config file holds, the run either gets a setup or a
        # ParameterError naming the field (exit 2), never another exception.
        try:
            assert isinstance(setup_from_mapping(overrides), RunSetup)
        except ParameterError:
            pass


class TestSolveCommand:
    def test_solve_tiny_game(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["solve", "--config", str(tiny_config), "--out", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["converged"] is True
        assert summary["iterations"] <= 2
        assert {"predicted_r_bar", "equilibrium_fingerprint", "coarse_k_max", "coarse_iterations",
                "mass_at_k_max"} <= summary.keys()
        for name in ("policy.csv", "distribution.csv", "residuals.csv",
                     "solve_summary.json", "manifest.json"):
            assert (out / name).exists()
        manifest = RunManifest(**json.loads((out / "manifest.json").read_text()))
        assert manifest.command == "solve"
        assert manifest.config["k_bar"] == 0

    def test_solve_csvs_round_trip_exactly(self, tmp_path):
        path = tmp_path / "small.cfg"
        path.write_text(SMALL_CONFIG)
        assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 0
        setup = load_config(path)
        result = solve_sne(setup.process, setup.game, setup.solver)
        header, *lines = (tmp_path / "distribution.csv").read_text().splitlines()
        assert header == "urgency_level,karma,mass"
        rows = [line.split(",") for line in lines]
        nk = setup.game.k_max + 1
        assert [(int(r[0]), int(r[1])) for r in rows] == [
            (level, k) for level in setup.process.levels for k in range(nk)]
        np.testing.assert_array_equal(np.array([float(r[2]) for r in rows]).reshape(-1, nk),
                                      result.social.d)
        header, *lines = (tmp_path / "residuals.csv").read_text().splitlines()
        assert header == "iteration,stationarity_residual,exploitability"
        rows = [line.split(",") for line in lines]
        assert [int(r[0]) for r in rows] == list(range(1, result.iterations + 1))
        np.testing.assert_array_equal([[float(c) for c in r[1:]] for r in rows], result.residuals)

    def test_rejects_bad_alpha_with_field_name(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha = 1.2\n")
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_rejects_nan_solver_tolerance_with_field_name(self, tmp_path, capsys):
        # json.loads accepts NaN, and a NaN tolerance never passes the
        # stopping test: the solve would run every iteration and fail.
        path = tmp_path / "bad.cfg"
        path.write_text("tol_policy = NaN\n")
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "tol_policy must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command, line, field", [
        ("solve", "k_max = 40.0", "k_max"),
        ("solve", "k_bar = 10.5", "k_bar"),
        ("solve", "max_outer_iters = 5.5", "max_outer_iters"),
        ("simulate", "n_rounds = 10.5", "n_rounds"),
        ("simulate", "n_agents = 1000.0", "n_agents"),
        ("simulate", "rng_seed = 1.5", "rng_seed"),
        ("simulate", "burn_in = true", "burn_in"),
        ("simulate", "k_bar = 10.5", "k_bar"),
        ("lp", "levels = [1, 2.5, 4]", "levels[1]"),
    ])
    def test_rejects_non_integer_field_by_name(self, command, line, field, tmp_path, capsys):
        # Before the check, some of these crashed deep in numpy and others
        # ran on a silently truncated value.
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        extra = ["--mechanism", "random"] if command == "simulate" else []
        code = main([command, *extra, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{field} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_rejects_br_temperature_below_the_floor(self, command, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("br_temperature = 1e-6\n")
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "br_temperature" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_rejects_epsilon_out_of_range_by_name(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("epsilon = 0.0\n")
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    def test_solve_rejects_periodic_urgency_chain(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("levels = [1, 2, 3]\nk_bar = 2\nk_max = 8\n"
                        + "".join(f"{name} = [[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]]\n"
                                  for name in ("phi_win", "phi_lose")))
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "aperiodic" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, field", [
        ("lp", 'alpha = "x"', "alpha"),
        ("lp", 'tol_policy = "x"', "tol_policy"),
        ("lp", 'epsilon = "x"', "epsilon"),
        ("solve", "step_size = true", "step_size"),
        ("simulate", "alpha = [0.9]", "alpha"),
        ("lp", 'levels = [0]\nphi_win = "x"\nphi_lose = "y"', "phi_win"),
        ("lp", "levels = [0]\nphi_win = [[1.0]]\nphi_lose = [[1.0], [2.0]]", "phi_lose"),
        ("lp", "levels = [0]\nphi_win = [[true]]\nphi_lose = [[1.0]]", "phi_win[0, 0]"),
        ("lp", "epsilon = 7\nlevels = [0]\nphi_win = [[1.0]]\nphi_lose = [[1.0]]", "epsilon"),
        ("lp", '{"alpha": 0.9,}', "config is not valid JSON"),
    ])
    def test_rejects_non_number_by_name(self, command, text, field, tmp_path, capsys):
        # Before the typed check, the strings and the lists crashed with a
        # traceback (exit 1), and both bools ran as 1.0. Malformed JSON also
        # crashed with a traceback.
        path = tmp_path / "bad.cfg"
        path.write_text(text + "\n")
        extra = ["--mechanism", "random"] if command == "simulate" else []
        code = main([command, *extra, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["solve", "lp"])
    def test_format_only_where_it_is_read(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--format", "json"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_missing_config_is_io_error(self, tmp_path):
        code = main(["solve", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")])
        assert code == 4

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
    def test_non_utf8_config_exits_2_with_one_line(self, command, tmp_path, capsys):
        # Before the check, reading the file raised UnicodeDecodeError (exit 1).
        path = tmp_path / "f"
        path.write_bytes(b"\xff\xfe\x00bad")
        code = main([*command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(path) in err and "UTF-8" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
    def test_odd_n_agents_exits_2_before_the_solve(self, command, tmp_path, capsys, monkeypatch):
        # Before GameConfig checked it, compare and simulate --mechanism karma
        # failed only after the whole solve, and solve and lp exited 0.
        def no_solve(*args, **kwargs):
            raise AssertionError("solve_sne was called")

        monkeypatch.setattr("karmabid.cli.solve_sne", no_solve)
        path = tmp_path / "odd.cfg"
        path.write_text("n_agents = 999\n")
        code = main([*command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "n_agents must be even" in err
        assert not (tmp_path / "o").exists()

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        path = tmp_path / "hard.cfg"
        path.write_text("levels = [1, 16]\nk_bar = 2\nk_max = 6\nmax_outer_iters = 40\n")
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        # diagnostics still land on disk and stderr
        assert "exploitability" in capsys.readouterr().err
        assert (tmp_path / "o" / "residuals.csv").exists()

    @pytest.mark.parametrize("command", [["solve"], ["simulate", "--mechanism", "karma"], ["compare"]])
    def test_failed_value_solve_exits_3_with_one_line(self, command, tmp_path, capsys):
        # No value solve reaches a residual of 1e-30 in floating point.
        path = tmp_path / "strict.cfg"
        path.write_text("levels = [1, 16]\nk_bar = 2\nk_max = 6\ntol_value = 1e-30\n")
        code = main([*command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "residual" in err and "tol_value" in err
        assert "Traceback" not in err


class TestLpCommand:
    def test_single_level_value(self, tmp_path, capsys):
        path = tmp_path / "one.cfg"
        path.write_text("levels = [3]\nphi_win = [[1.0]]\nphi_lose = [[1.0]]\n")
        code = main(["lp", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["r_bar_max"] == pytest.approx(-1.5, abs=1e-9)
        assert len(doc["psi"]) == 2

    def test_case_study_matches_library(self, tmp_path, capsys):
        code = main(["lp", "--out", str(tmp_path / "o")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        setup = load_config(None)
        value, _ = solve_lp(build_max_eff_lp(setup.process))
        assert doc["r_bar_max"] == value


class TestSimulateCommand:
    def test_simulate_random_writes_outputs(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["simulate", "--mechanism", "random", "--config", str(tiny_config),
                     "--out", str(out), "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mechanism"] == "RANDOM"
        assert (out / "metrics_random.json").exists()
        assert (out / "trace_random.csv").exists()

    def test_simulate_karma_on_tiny_game(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", "--mechanism", "karma", "--config", str(tiny_config),
                     "--out", str(out)])
        assert code == 0
        assert (out / "metrics_karma.json").exists()
        trace_header = (out / "trace_karma.csv").read_text().splitlines()[0]
        assert trace_header.startswith("round,mean_reward,running_mean_reward,karma_0")

    def test_mechanism_takes_the_four_documented_names(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--mechanism", "greedy_urgency"])
        assert exc.value.code == 2
        choices = capsys.readouterr().err.split("choose from", 1)[1]
        assert re.findall(r"\w+", choices) == ["greedy", "karma", "random", "turn"]


class TestCompareCommand:
    def test_row_count_and_rerun_determinism(self, tiny_config, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["compare", "--config", str(tiny_config), "--out", str(out1)]) == 0
        csv1 = (out1 / "comparison.csv").read_text()
        lines = csv1.splitlines()
        assert lines[0] == "mechanism,r_bar,beta"
        assert len(lines) == 1 + 4 + 1  # four mechanisms plus the bound row
        assert lines[-1].startswith("MAX_EFF_LP,")

        # rerun from the emitted manifest: byte-identical table
        manifest_path = out1 / "manifest.json"
        assert main(["compare", "--config", str(manifest_path), "--out", str(out2)]) == 0
        assert (out2 / "comparison.csv").read_bytes() == csv1.encode()

    def test_manifest_times_every_stage(self, tiny_config, tmp_path):
        out = tmp_path / "a"
        assert main(["compare", "--config", str(tiny_config), "--out", str(out)]) == 0
        timings = RunManifest(**json.loads((out / "manifest.json").read_text())).timings
        stages = {"solve_value_seconds", "solve_q_seconds", "solve_best_response_seconds",
                  "solve_update_seconds"}
        assert set(timings) == stages | {
            "solve_seconds", "lp_seconds", "simulate_karma_seconds", "simulate_baselines_seconds",
        }
        assert sum(timings[name] for name in stages) <= timings["solve_seconds"]
        assert all(value >= 0 for value in timings.values())

    def test_manifest_counts_faults_per_timed_stage(self, tiny_config, tmp_path):
        pytest.importorskip("resource")
        out = tmp_path / "a"
        assert main(["compare", "--config", str(tiny_config), "--out", str(out)]) == 0
        manifest = RunManifest(**json.loads((out / "manifest.json").read_text()))
        assert set(manifest.minor_faults) == {"solve", "lp", "simulate_karma", "simulate_baselines"}
        assert all(type(n) is int and n >= 0 for n in manifest.minor_faults.values())
        assert {f"{stage}_seconds" for stage in manifest.minor_faults} <= set(manifest.timings)
        assert load_config(out / "manifest.json").raw == manifest.config

    def test_seed_override_changes_rows(self, tiny_config, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["compare", "--config", str(tiny_config), "--out", str(out1)]) == 0
        assert main(["compare", "--config", str(tiny_config), "--out", str(out2),
                     "--seed", "123456"]) == 0
        m2 = RunManifest(**json.loads((out2 / "manifest.json").read_text()))
        assert m2.config["rng_seed"] == 123456

    def test_json_prints_numbers_equal_to_the_csv(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "a"
        assert main(["compare", "--config", str(tiny_config), "--out", str(out),
                     "--format", "json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        rows = [line.split(",") for line in (out / "comparison.csv").read_text().splitlines()[1:]]
        assert [entry["mechanism"] for entry in printed] == [row[0] for row in rows]
        for entry, (_name, r_bar, beta) in zip(printed, rows):
            assert type(entry["r_bar"]) is float and entry["r_bar"] == float(r_bar)
            if beta:
                assert type(entry["beta"]) is float and entry["beta"] == float(beta)
            else:
                assert entry["beta"] is None
        assert printed[-1]["mechanism"] == "MAX_EFF_LP" and printed[-1]["beta"] is None

    def test_simulate_prints_the_compare_row(self, tmp_path, capsys):
        path = tmp_path / "small.cfg"
        path.write_text(SMALL_CONFIG)
        assert main(["compare", "--config", str(path), "--out", str(tmp_path / "c"),
                     "--format", "json"]) == 0
        rows = {row["mechanism"]: row for row in json.loads(capsys.readouterr().out)}
        assert len({row["r_bar"] for row in rows.values()}) == len(rows)
        for name, mechanism in [("karma", "KARMA"), ("random", "RANDOM"), ("turn", "TURN"),
                                ("greedy", "GREEDY_URGENCY")]:
            assert main(["simulate", "--mechanism", name, "--config", str(path),
                         "--out", str(tmp_path / name), "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out) == rows[mechanism]


@pytest.mark.parametrize("argv, outputs, timings", [
    (["solve"], {"policy", "distribution", "residuals", "summary"}, {"solve_seconds"}),
    (["simulate", "--mechanism", "karma"], {"metrics", "trace"},
     {"solve_seconds", "simulate_seconds"}),
    (["simulate", "--mechanism", "random"], {"metrics", "trace"}, {"simulate_seconds"}),
    (["lp"], {"lp"}, {"lp_seconds"}),
])
def test_manifest_names_the_outputs_and_timings(argv, outputs, timings, tiny_config, tmp_path):
    out = tmp_path / "a"
    assert main([*argv, "--config", str(tiny_config), "--out", str(out)]) == 0
    manifest = RunManifest(**json.loads((out / "manifest.json").read_text()))
    assert set(manifest.outputs) == outputs
    stages = {"solve_value_seconds", "solve_q_seconds", "solve_best_response_seconds",
              "solve_update_seconds"}
    assert set(manifest.timings) == timings | (stages if "solve_seconds" in timings else set())
    assert all(value >= 0 for value in manifest.timings.values())


@pytest.mark.parametrize("argv", COMMANDS)
def test_main_keeps_freed_memory_before_each_command(argv, monkeypatch):
    monkeypatch.delitem(sys.modules, "_hashlib", raising=False)
    calls = []
    monkeypatch.setattr(cli, "_keep_freed_memory", lambda: calls.append("keep"))
    for name in ("solve", "simulate", "compare", "lp"):
        monkeypatch.setattr(cli, f"cmd_{name}", lambda *args, name=name: calls.append(
            (name, sys.modules.get("_hashlib", "absent"))) or 0)
    assert main(argv) == 0
    # The malloc setting comes first, and every command runs with _hashlib blocked.
    assert calls == ["keep", (argv[0], None)]


def test_keep_freed_memory_without_mallopt_does_nothing(monkeypatch):
    # A libc handle without mallopt, as ctypes.CDLL(None) gives off glibc.
    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace())
    cli._keep_freed_memory()


def test_keep_freed_memory_sets_both_thresholds(monkeypatch):
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("mallopt is set only under glibc")
    calls = []
    libc = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    cli._keep_freed_memory()
    assert calls == [(-3, 32 << 20), (-1, 1 << 30)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


# Runs one command, then fails if it loaded OpenSSL's _hashlib, or if
# solve or lp imported numpy.random. The process must still draw OS
# entropy (numpy.random through secrets) and compute an HMAC.
WITHOUT_OPENSSL = """
import sys
from karmabid.cli import main
assert main(sys.argv[1:]) == 0
assert "_hashlib" not in sys.modules, "the command loaded _hashlib"
if sys.argv[1] in ("solve", "lp"):
    assert "numpy.random" not in sys.modules, "the command imported numpy.random"
import hmac
import numpy as np
np.random.SeedSequence()
hmac.new(b"k", b"m", "sha256").digest()
"""

# Imports hashlib, so OpenSSL's _hashlib, before main runs a command.
WITH_OPENSSL_FIRST = """
import hashlib, hmac, sys
real = sys.modules["_hashlib"]
import numpy as np
from karmabid.cli import main
assert main(sys.argv[1:]) == 0
assert sys.modules["_hashlib"] is real, sys.modules["_hashlib"]
np.random.SeedSequence()
hmac.new(b"k", b"m", "sha256").digest()
"""


def run_main_in_subprocess(script, tmp_path, argv):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_CONFIG)
    env = dict(os.environ, PYTHONPATH=str(Path(karmabid.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", script, *argv, "--config", str(config),
                           "--out", str(tmp_path / "out")], env=env, capture_output=True, text=True)


@pytest.mark.parametrize("argv", [["solve"], ["simulate", "--mechanism", "random"],
                                  ["simulate", "--mechanism", "karma"], ["compare"], ["lp"]],
                         ids=["solve", "simulate_random", "simulate_karma", "compare", "lp"])
def test_commands_load_no_openssl(tmp_path, argv):
    # main blocks _hashlib around every command, so the hashlib that solve's
    # fingerprint imports and the hmac and hashlib that numpy.random's
    # secrets imports take CPython's built-in digests (_sha256 up to 3.11,
    # _sha2 from 3.12).
    run = run_main_in_subprocess(WITHOUT_OPENSSL, tmp_path, argv)
    assert run.returncode == 0, run.stderr


def test_loaded_openssl_is_kept(tmp_path):
    pytest.importorskip("_hashlib")  # a CPython built without OpenSSL has none
    run = run_main_in_subprocess(WITH_OPENSSL_FIRST, tmp_path, ["compare"])
    assert run.returncode == 0, run.stderr


def _escape(*args):
    raise RuntimeError("escapes main")


@pytest.mark.parametrize("case, code", [("ok", 0), ("unknown_key", 2), ("out_below_a_file", 4),
                                        ("exception", None)])
def test_no_hashlib_entry_is_left_on_any_exit(case, code, tiny_config, tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, "_hashlib", raising=False)
    config, out = tiny_config, tmp_path / "out"
    if case == "unknown_key":
        config = tmp_path / "bad.cfg"
        config.write_text("alpa = 0.9\n")
    elif case == "out_below_a_file":
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
    elif case == "exception":
        monkeypatch.setattr(cli, "cmd_lp", _escape)
    argv = ["lp", "--config", str(config), "--out", str(out)]
    if code is None:
        with pytest.raises(RuntimeError, match="escapes main"):
            main(argv)
    else:
        assert main(argv) == code
    assert "_hashlib" not in sys.modules


# Wraps cmd_simulate and cmd_compare to record, on entry, whether
# numpy.random is loaded, then runs one command under main.
NUMPY_RANDOM_FIRST = """
import sys
from karmabid import cli
loaded = []
for name in ("cmd_simulate", "cmd_compare"):
    def wrapped(*args, command=getattr(cli, name)):
        loaded.append("numpy.random" in sys.modules)
        return command(*args)
    setattr(cli, name, wrapped)
assert cli.main(sys.argv[1:]) == 0
assert loaded == [True], loaded
"""


@pytest.mark.parametrize("argv", [["simulate", "--mechanism", "random"],
                                  ["simulate", "--mechanism", "karma"], ["compare"]],
                         ids=["simulate_random", "simulate_karma", "compare"])
def test_numpy_random_loads_before_the_timed_stages(tmp_path, argv):
    # Otherwise its first import (10-15 ms) would land in simulate*_seconds.
    run = run_main_in_subprocess(NUMPY_RANDOM_FIRST, tmp_path, argv)
    assert run.returncode == 0, run.stderr


def test_one_fingerprint_from_both_sha256_backends(tmp_path):
    # solve under main hashes on CPython's built-in digest; this process
    # hashes through hashlib, on OpenSSL where it is present.
    run = run_main_in_subprocess(WITHOUT_OPENSSL, tmp_path, ["solve"])
    assert run.returncode == 0, run.stderr
    summary = json.loads((tmp_path / "out" / "solve_summary.json").read_text())
    setup = load_config(tmp_path / "tiny.cfg")
    result = solve_sne(setup.process, setup.game, setup.solver)
    assert summary["equilibrium_fingerprint"] == result.equilibrium_fingerprint


CHURN = """
import resource, sys
import numpy as np
from karmabid.cli import _keep_freed_memory
if sys.argv[1] == "keep":
    _keep_freed_memory()
def churn():  # what a round does: allocate N-length arrays, then free them
    for _ in range(20):
        arrays = [np.ones(100_000) for _ in range(4)]
        del arrays
churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_freed_arrays_stay_in_the_process():
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the trim rule measured here is glibc's")
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
    env["PYTHONPATH"] = str(Path(karmabid.__file__).parents[1])
    faults = {mode: int(subprocess.run([sys.executable, "-c", CHURN, mode], env=env, check=True,
                                       capture_output=True, text=True).stdout)
              for mode in ("default", "keep")}
    # 20 rounds of four 800 KB arrays are 15 600 pages. glibc's default
    # trim hands most of them back and faults them in again; a host whose
    # defaults keep them shows nothing to cut.
    if faults["default"] <= 5000:
        pytest.skip(f"the default allocator kept its freed arrays ({faults['default']} faults)")
    assert faults["keep"] < 500
