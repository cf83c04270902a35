"""Flat configuration files and reproducible run manifests.

Config files are diff-friendly `key = value` lines with `#` comments;
list values (urgency levels, transition-matrix overrides) use bracketed
JSON-style literals. Every key is optional and defaults to the reference
case study (DEFAULTS): the urgency levels and epsilon are set here, every
other key is a field of GameConfig or SolverConfig and takes its default.

A RunManifest snapshots the effective configuration of a run; feeding a
manifest back as the --config of a new run reproduces it exactly.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .equilibrium import SolverConfig
from .model import (
    GameConfig, ParameterError, UrgencyProcess, build_urgency_process, check_epsilon, check_number,
)

ARTIFACT_VERSION = "0.1.0"

# Each config field's default is written once, in its dataclass.
DEFAULTS: dict = {
    "levels": [1, 2, 4, 8, 16],
    "epsilon": 0.04,
    **dataclasses.asdict(GameConfig()),
    **dataclasses.asdict(SolverConfig()),
}

_OPTIONAL_KEYS = ("phi_win", "phi_lose")


@dataclass
class RunSetup:
    """Everything a command needs: the urgency process, game scalars,
    solver knobs, and the effective key-value snapshot they came from."""

    process: UrgencyProcess
    game: GameConfig
    solver: SolverConfig
    raw: dict

    def with_seed(self, seed: int) -> "RunSetup":
        return setup_from_mapping({**self.raw, "rng_seed": int(seed)})


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines into a dict; values are JSON literals."""
    out: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ParameterError(f"line {lineno}: empty key")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"line {lineno}: value for {key!r} is not a literal: {value!r}") from exc
    return out


def setup_from_mapping(overrides: dict) -> RunSetup:
    """Merge overrides into the defaults and build the typed configuration.

    Raises:
        ParameterError: on unknown keys or invalid field values (the
            message names the offending field).
    """
    known = set(DEFAULTS) | set(_OPTIONAL_KEYS)
    for key in overrides:
        if key not in known:
            raise ParameterError(f"unknown config key {key!r}")
    effective = {**DEFAULTS, **overrides}

    levels = effective["levels"]
    if not isinstance(levels, list) or not levels:
        raise ParameterError(f"levels must be a non-empty list, got {levels!r}")
    has_win = "phi_win" in effective
    has_lose = "phi_lose" in effective
    if has_win != has_lose:
        raise ParameterError("phi_win and phi_lose must be overridden together")
    if has_win:
        # epsilon builds no chain here, but a bad epsilon is still a bad config.
        check_epsilon(effective["epsilon"])
        # As objects, ragged rows or two shapes give fewer than three dimensions.
        phi = np.array([effective["phi_win"], effective["phi_lose"]], dtype=object)
        if phi.ndim != 3:
            raise ParameterError("phi_win and phi_lose must be matrices of one shape")
        for (outcome, *index), value in np.ndenumerate(phi):
            check_number(f"{('phi_win', 'phi_lose')[outcome]}{index}", value)
        process = UrgencyProcess(levels=tuple(levels), phi=phi.astype(float))
    else:
        process = build_urgency_process(levels, effective["epsilon"])

    game = GameConfig(**{f.name: effective[f.name] for f in dataclasses.fields(GameConfig)})
    solver = SolverConfig(**{f.name: effective[f.name] for f in dataclasses.fields(SolverConfig)})
    return RunSetup(process=process, game=game, solver=solver, raw=effective)


def load_config(path: str | Path | None) -> RunSetup:
    """Load a config file, a JSON config, or a run manifest.

    With no path the defaults (the reference case study) apply. A JSON
    document holding a "config" object is treated as a manifest.
    """
    if path is None:
        return setup_from_mapping({})
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"config {str(path)!r} is not UTF-8 text: {exc}") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config is not valid JSON: {exc}") from None
        overrides = doc.get("config", doc)
        if not isinstance(overrides, dict):
            raise ParameterError("JSON config must be an object of key/value pairs")
        return setup_from_mapping(overrides)
    return setup_from_mapping(parse_config_text(text))


@dataclass
class RunManifest:
    """Self-contained record of one CLI run, written as manifest.json with
    sorted keys; every field survives a JSON round trip. timings holds
    each stage's wall seconds, minor_faults each timed stage's minor page
    faults (none where the platform has no resource module)."""

    command: str
    config: dict
    version: str = ARTIFACT_VERSION
    mechanisms: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    minor_faults: dict = field(default_factory=dict)
