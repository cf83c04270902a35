"""Flat configuration files and reproducible run manifests.

Config files are diff-friendly `key = value` lines with `#` comments;
list values (urgency levels, transition-matrix overrides) use bracketed
JSON-style literals. Every key is optional and defaults to the reference
case study: five urgency levels {1, 2, 4, 8, 16}, epsilon 0.04,
alpha 0.98, mean karma 10 truncated at 40, 1000 agents, 1000 measured
rounds after a 100-round burn-in.

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
from .model import GameConfig, ParameterError, UrgencyProcess, build_urgency_process

ARTIFACT_VERSION = "0.1.0"

DEFAULTS: dict = {
    "levels": [1, 2, 4, 8, 16],
    "epsilon": 0.04,
    "alpha": 0.98,
    "k_bar": 10,
    "k_max": 40,
    "n_agents": 1000,
    "n_rounds": 1000,
    "burn_in": 100,
    "rng_seed": 20250809,
    "br_temperature": 2.0,
    "temperature_decay": 0.97,
    "temperature_floor": 1e-5,
    "step_size": 0.2,
    "tol_policy": 1e-4,
    "tol_distribution": 1e-6,
    "tol_value": 1e-9,
    "max_outer_iters": 2000,
}

_GAME_KEYS = ("alpha", "k_bar", "k_max", "n_agents", "n_rounds", "burn_in", "rng_seed")
_SOLVER_KEYS = (
    "br_temperature", "temperature_decay", "temperature_floor", "step_size",
    "tol_policy", "tol_distribution", "tol_value", "max_outer_iters",
)
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
        raw = dict(self.raw)
        raw["rng_seed"] = int(seed)
        return RunSetup(
            process=self.process,
            game=dataclasses.replace(self.game, rng_seed=int(seed)),
            solver=self.solver,
            raw=raw,
        )


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
        phi = np.stack([
            np.asarray(effective["phi_win"], dtype=float),
            np.asarray(effective["phi_lose"], dtype=float),
        ])
        process = UrgencyProcess(levels=tuple(levels), phi=phi, epsilon=effective["epsilon"])
    else:
        process = build_urgency_process(levels, effective["epsilon"])

    game = GameConfig(**{key: effective[key] for key in _GAME_KEYS})
    solver = SolverConfig(**{key: effective[key] for key in _SOLVER_KEYS})
    return RunSetup(process=process, game=game, solver=solver, raw=effective)


def load_config(path: str | Path | None) -> RunSetup:
    """Load a config file, a JSON config, or a run manifest.

    With no path the defaults (the reference case study) apply. A JSON
    document holding a "config" object is treated as a manifest.
    """
    if path is None:
        return setup_from_mapping({})
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = json.loads(text)
        overrides = doc.get("config", doc)
        if not isinstance(overrides, dict):
            raise ParameterError("JSON config must be an object of key/value pairs")
        return setup_from_mapping(overrides)
    return setup_from_mapping(parse_config_text(text))


@dataclass
class RunManifest:
    """Self-contained record of one CLI run; JSON round-trips losslessly."""

    version: str
    command: str
    config: dict
    mechanisms: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        doc = json.loads(text)
        return cls(
            version=doc["version"],
            command=doc["command"],
            config=doc["config"],
            mechanisms=list(doc.get("mechanisms", [])),
            outputs=dict(doc.get("outputs", {})),
            timings=dict(doc.get("timings", {})),
        )

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")
