"""Experiment configuration: dataclass defaults, YAML overlay, validation.

A config file only needs the keys it overrides; the fully resolved config is
copied into every run directory so results are reproducible from artifacts
alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
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


@dataclass
class BufferConfig:
    target_capacity: int = 1_000_000
    source_capacity: int = 100_000


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
        if self.entropy_coef < 0:
            raise ValueError("expert.entropy_coef must be >= 0")


@dataclass
class PointMazePairConfig:
    source_wall_length: float = 0.5
    target_wall_length: float = 0.75
    wall_x: float = 0.5
    wall_half_width: float = 0.02
    start_region: tuple = (0.06, 0.50, 0.14, 0.60)
    goal_region: tuple = (0.78, 0.43, 1.0, 0.67)
    goal: tuple = (0.9, 0.55)
    goal_radius: float = 0.1
    noise_std: float = 0.01
    action_scale: float = 0.08
    horizon: int = 80

    def base_config(self) -> PointMazeConfig:
        return PointMazeConfig(
            wall_x=self.wall_x, wall_length=self.source_wall_length,
            wall_half_width=self.wall_half_width, start_region=tuple(self.start_region),
            goal_region=tuple(self.goal_region), goal=tuple(self.goal),
            goal_radius=self.goal_radius, noise_std=self.noise_std,
            action_scale=self.action_scale, horizon=self.horizon,
        )


@dataclass
class LinkChainPairConfig:
    num_joints: int = 3
    target_disabled_mask: tuple = (False, False, True)
    torque_limit: float = 1.0
    dt: float = 0.05
    damping: float = 0.8
    torque_gain: float = 4.0
    vel_limit: float = 8.0
    init_angle_range: float = 0.1
    init_vel_range: float = 0.05
    goal_angles: tuple = (1.1, -0.6, 0.9)
    success_radius: float = 0.25
    gt_variant: str = "distance"
    horizon: int = 60

    def base_config(self) -> LinkChainConfig:
        return LinkChainConfig(
            num_joints=self.num_joints, torque_limit=self.torque_limit,
            disabled_mask=tuple([False] * self.num_joints), dt=self.dt, damping=self.damping,
            torque_gain=self.torque_gain, vel_limit=self.vel_limit,
            init_angle_range=self.init_angle_range, init_vel_range=self.init_vel_range,
            goal_angles=tuple(self.goal_angles), success_radius=self.success_radius,
            gt_variant=self.gt_variant, horizon=self.horizon,
        )


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
    flip_reward_sign: bool = False
    heatmap_grid: int = 50
    final_eval_trajectories: int = 5
    pointmaze: PointMazePairConfig = field(default_factory=PointMazePairConfig)
    linkchain: LinkChainPairConfig = field(default_factory=LinkChainPairConfig)
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
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        self.policy.validate()
        self.dd.validate()
        self.disc.validate()
        self.expert.validate()
        if self.task == "pointmaze":
            pm = self.pointmaze
            if not pm.target_wall_length > pm.source_wall_length:
                raise ValueError("target wall must be longer than source wall")
            pm.base_config().validate()
        else:
            self.linkchain.base_config().validate()
            if not any(self.linkchain.target_disabled_mask):
                raise ValueError("target link chain needs at least one disabled actuator")

    def env_config_hash(self) -> str:
        section = self.pointmaze if self.task == "pointmaze" else self.linkchain
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


def _overlay(section, values: dict, path: str):
    for key, val in values.items():
        if not hasattr(section, key):
            raise ValueError(f"unknown config key {path}.{key}")
        current = getattr(section, key)
        if dataclasses.is_dataclass(current):
            if not isinstance(val, dict):
                raise ValueError(f"{path}.{key} must be a mapping")
            _overlay(current, val, f"{path}.{key}")
        else:
            if isinstance(current, tuple) and isinstance(val, list):
                val = tuple(tuple(v) if isinstance(v, list) else v for v in val)
            setattr(section, key, val)


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
