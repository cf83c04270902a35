"""Tests of the benchmark itself, on a tiny game.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import sys
import types
from pathlib import Path

import pytest

import run
from checks import artifact_checks, check_identical
from tracing import Tracer, instrument, self_times

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Two urgency levels and 13 karma levels: 26 states, solved in under a second.
TINY = {"levels": [1, 16], "k_bar": 2, "k_max": 12, "n_agents": 20, "n_rounds": 30, "burn_in": 5}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],      # overlaps a: the union 1..6 counts once
        ["c", 8.0, 12.0, 0],     # runs past root's end: only 8..10 counts
        ["a.child", 1.5, 2.0, 1],
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 2.0, 3.0 - 0.5, 3.0, 4.0, 0.5])


def test_wrapped_functions_nest_and_missing_ones_are_absent(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")
    inner.leaf = lambda x: x + 1
    outer.leaf = inner.leaf                      # a `from .inner import leaf` copy
    outer.top = lambda x: outer.leaf(x) * 2     # looks leaf up at call time
    for mod in (pkg, inner, outer):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)

    tracer = Tracer()
    seen = []
    assert instrument(tracer, "fakepkg.inner", "leaf", "inner.leaf", package="fakepkg")
    assert instrument(tracer, "fakepkg.outer", "top", "outer.top", package="fakepkg",
                      after=lambda result, x: seen.append(result))
    assert not instrument(tracer, "fakepkg.inner", "gone", "inner.gone", package="fakepkg")
    assert not instrument(tracer, "fakepkg.missing", "f", "missing.f", package="fakepkg")

    assert outer.top(1) == 4
    assert seen == [4]
    names = [(name, parent) for name, _s, _e, parent in tracer.spans]
    assert names == [("outer.top", None), ("inner.leaf", 0), ("bench.check", None)]


def test_benchmark_json_names_are_valid_and_unique():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer") for m in BENCHMARK[key])
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS


def _fake_out(tmp_path: Path, lp: float) -> Path:
    out = tmp_path / "out"
    out.mkdir(parents=True)
    (out / "comparison.csv").write_text(
        "mechanism,r_bar,beta\nKARMA,-0.67,-0.02\nRANDOM,-1.65,-0.18\nTURN,-1.03,-0.07\n"
        f"GREEDY_URGENCY,-0.66,-0.02\nMAX_EFF_LP,{lp!r},\n")
    (out / "manifest.json").write_text(json.dumps({"config": {"tol_policy": 1e-4, "tol_distribution": 1e-6}}))
    (out / "solve_summary.json").write_text(json.dumps(
        {"converged": True, "exploitability": 0.0, "stationarity_residual": 1e-7}))
    return out


def test_broken_outputs_are_counted_as_failed(tmp_path):
    good = artifact_checks(_fake_out(tmp_path / "good", lp=-0.515), 0)
    assert [ok for _name, ok, _detail in good] == [True, True, True]
    broken = artifact_checks(_fake_out(tmp_path / "broken", lp=-0.7), 0)   # below KARMA's r_bar
    assert [name for name, ok, _detail in broken if not ok] == ["lp_bounds_every_r_bar"]
    crashed = artifact_checks(tmp_path / "nothing", 3)
    assert [ok for _name, ok, _detail in crashed] == [False]
    assert not check_identical(["a,1\n", "a,2\n"])[1]


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "SETUP_PROBES", 2)


def test_tiny_untraced_run_reports_every_end_to_end_metric(tiny, tmp_path):
    metrics, bench = run.run_workload("tiny", 7, 0.0, False, tmp_path)
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(m["median"] > 0 for m in metrics.values())
    assert bench.checks and all(ok for _name, ok, _detail in bench.checks)
    record = json.loads((tmp_path / "results" / "tiny-seed7-trace0.json").read_text())
    env = record["environment"]
    assert env["blas_threads"] is None or env["blas_threads"] <= env["nproc"]
    assert env["working_set"]["states"] == 2 * 13


def test_tiny_traced_run_reports_every_per_layer_metric(tiny, tmp_path):
    metrics, bench = run.run_workload("tiny", 7, 0.0, True, tmp_path)
    assert bench.absent == []
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    names = {name for name, _ok, _detail in bench.checks}
    assert {"karma_conserved_every_round", "karma_nonnegative_every_round",
            "mf_gap_within_tolerance", "comparison_byte_identical"} <= names
    assert all(ok for _name, ok, _detail in bench.checks)
    assert metrics["simulation.rounds"]["median"] == 4 * (5 + 30)
    assert (tmp_path / "results" / "tiny-seed7-trace1-spans.json").exists()
