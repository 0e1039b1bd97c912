"""Experiment configuration: dataclass defaults, YAML overlay, validation.

A config file only needs the keys it overrides; the fully resolved config is
copied into every run directory so results are reproducible from artifacts
alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import typing
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .dd import DDConfig
from .envs import LinkChainConfig, PointMazeConfig
from .policy import PolicyOptConfig

METHODS = ("odirl", "airl", "airl_source_transfer", "gail", "expert_transfer")
TASKS = ("pointmaze", "linkchain")


@dataclass
class DiscConfig:
    hidden: tuple = (64, 64)
    state_only_g: bool = True
    lr: float = 3e-4
    weight_decay: float = 1e-2
    minibatch_size: int = 128
    epochs: int = 1

    def validate(self) -> None:
        for key in ("minibatch_size", "epochs"):
            if getattr(self, key) < 1:
                raise ValueError(f"disc.{key} must be >= 1")
        if not self.lr > 0:
            raise ValueError("disc.lr must be > 0")
        if not self.weight_decay >= 0:
            raise ValueError("disc.weight_decay must be >= 0")


@dataclass
class BufferConfig:
    target_capacity: int = 1_000_000
    source_capacity: int = 100_000

    def validate(self) -> None:
        for key in ("target_capacity", "source_capacity"):
            if getattr(self, key) < 1:
                raise ValueError(f"buffers.{key} must be >= 1")


@dataclass
class ExpertConfig:
    steps: int = 300
    batch_steps: int = 640
    entropy_coef: float = 0.003
    n_demo_episodes: int = 40
    demo_success_only: bool = True

    def validate(self) -> None:
        for key in ("steps", "batch_steps", "n_demo_episodes"):
            if getattr(self, key) < 1:
                raise ValueError(f"expert.{key} must be >= 1")
        if not self.entropy_coef >= 0:               # also rejects nan
            raise ValueError("expert.entropy_coef must be >= 0")


@dataclass
class ExperimentConfig:
    task: str = "pointmaze"
    method: str = "odirl"
    seed: int = 0
    steps: int = 300
    r: int = 30
    alpha: float = 1.0
    out_dir: str = "runs/experiment"
    demos_path: str = ""
    expert_path: str = ""
    batch_steps: int = 320          # transitions collected per outer iteration
    eval_every: int = 10
    eval_episodes: int = 20
    checkpoint_every: int = 0          # 0 = final checkpoint only
    heatmap_grid: int = 50
    final_eval_trajectories: int = 5
    pointmaze: PointMazeConfig = field(default_factory=PointMazeConfig)
    linkchain: LinkChainConfig = field(default_factory=LinkChainConfig)
    policy: PolicyOptConfig = field(default_factory=PolicyOptConfig)
    dd: DDConfig = field(default_factory=DDConfig)
    disc: DiscConfig = field(default_factory=DiscConfig)
    buffers: BufferConfig = field(default_factory=BufferConfig)
    expert: ExpertConfig = field(default_factory=ExpertConfig)

    def validate(self) -> None:
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        for key in ("r", "steps", "batch_steps", "eval_every", "eval_episodes",
                    "final_eval_trajectories", "heatmap_grid"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        for key in ("seed", "checkpoint_every"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0")
        if not 0 <= self.alpha < float("inf"):       # also rejects nan
            raise ValueError("alpha must be finite and >= 0")
        for key in ("policy", "disc", "dd"):
            if not all(isinstance(w, int) and not isinstance(w, bool) and w >= 1
                       for w in getattr(self, key).hidden):
                raise ValueError(f"{key}.hidden widths must be integers >= 1")
        self.policy.validate()
        self.dd.validate()
        self.disc.validate()
        self.expert.validate()
        self.buffers.validate()
        self.pointmaze.validate()
        self.linkchain.validate()

    def env_config(self) -> PointMazeConfig | LinkChainConfig:
        """The source/target pair config of the selected task."""
        return self.pointmaze if self.task == "pointmaze" else self.linkchain

    def env_config_hash(self) -> str:
        section = self.env_config()
        payload = json.dumps({"task": self.task, **_as_plain(dataclasses.asdict(section))},
                             sort_keys=True)
        return hashlib.md5(payload.encode("utf-8")).hexdigest()[:12]


def _as_plain(obj):
    """Tuples -> lists etc. so YAML/JSON dumps are canonical."""
    if isinstance(obj, dict):
        return {k: _as_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_plain(v) for v in obj]
    return obj


def _checked(hint, val, name: str):
    """val as a value of the field type hint, floats finite; else a ValueError naming the key."""
    if typing.get_origin(hint) is tuple:            # tuple[float, ...]: check every element
        if not isinstance(val, (list, tuple)):
            raise ValueError(f"{name} must be a list, not {val!r}")
        item = typing.get_args(hint)[0]
        return tuple(_checked(item, v, f"{name}[{i}]") for i, v in enumerate(val))
    types = typing.get_args(hint) or (hint,)        # float | None -> (float, NoneType)
    if float in types and isinstance(val, str):     # PyYAML reads 1e-3 as a string
        try:
            val = float(val)
        except ValueError:
            pass
    if tuple in types and isinstance(val, list):
        val = tuple(tuple(v) if isinstance(v, list) else v for v in val)
    accepted = tuple({int: numbers.Integral, float: numbers.Real}.get(t, t) for t in types)
    if not isinstance(val, accepted) or (isinstance(val, bool) and bool not in types):
        raise ValueError(f"{name} must be {' or '.join(t.__name__ for t in types)}, not {val!r}")
    if isinstance(val, float) and not math.isfinite(val):     # null, not inf, switches a clip off
        raise ValueError(f"{name} must be finite, not {val!r}")
    return val


def _overlay(section, values: dict, path: str):
    hints = typing.get_type_hints(type(section))
    for key, val in values.items():
        if key not in hints:
            raise ValueError(f"unknown config key {path}.{key}")
        current = getattr(section, key)
        if dataclasses.is_dataclass(current):
            if not isinstance(val, dict):
                raise ValueError(f"{path}.{key} must be a mapping")
            _overlay(current, val, f"{path}.{key}")
        else:
            setattr(section, key, _checked(hints[key], val, f"{path}.{key}"))


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Build a config from defaults, an optional YAML file, and overrides."""
    cfg = ExperimentConfig()
    raw = {}
    if path is not None:
        with open(path) as fh:
            raw = yaml.safe_load(fh) or {}
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: config must be a mapping")
        _overlay(cfg, raw, "config")
    if overrides:
        _overlay(cfg, {k: v for k, v in overrides.items() if v is not None}, "override")
    alpha_given = "alpha" in raw or (overrides or {}).get("alpha") is not None
    if alpha_given and cfg.alpha != ExperimentConfig().alpha and cfg.method != "odirl":
        raise ValueError(f"alpha is only meaningful for the odirl method, not {cfg.method!r}")
    cfg.validate()
    return cfg


def save_config(cfg: ExperimentConfig, path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        yaml.safe_dump(_as_plain(dataclasses.asdict(cfg)), fh, sort_keys=True)
