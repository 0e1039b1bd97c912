"""Experiment configuration: dataclass defaults, YAML overlay, validation.

A config file only needs the keys it overrides; the fully resolved config is
copied into every run directory so results are reproducible from artifacts
alone. `ExperimentConfig.validate` is the one check of a config: the envs and
the policy optimizer take the sections it has checked and check nothing again.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import numbers
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .dd import DDConfig
from .envs import LinkChainConfig, PointMazeConfig
from .policy import PolicyOptConfig

METHODS = ("odirl", "airl", "airl_source_transfer", "gail", "expert_transfer")
TASKS = ("pointmaze", "linkchain")

# The lower bound of every bounded numeric field, by field name: a name has the
# same bound in every section, and a tuple field's bound holds for each element.
_LOWER_BOUNDS = {
    **dict.fromkeys(("r", "steps", "batch_steps", "eval_every", "eval_episodes",
                     "final_eval_trajectories", "heatmap_grid", "hidden", "epochs",
                     "minibatch_size", "batch_size", "steps_per_iter", "n_demo_episodes",
                     "horizon", "num_joints"), ">= 1"),
    **dict.fromkeys(("clip_ratio", "lr", "value_lr", "grad_clip", "target_kl", "dd_clip",
                     "wall_half_width", "action_scale", "goal_radius", "torque_limit", "dt",
                     "torque_gain", "vel_limit", "success_radius"), "> 0"),
    **dict.fromkeys(("seed", "checkpoint_every", "alpha", "entropy_coef", "input_noise_std",
                     "weight_decay", "noise_std", "damping", "init_angle_range",
                     "init_vel_range"), ">= 0"),
}
_BOUND_HOLDS = {">= 1": lambda v: v >= 1, "> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0}


section_hints = functools.cache(typing.get_type_hints)     # section class -> {field: resolved hint}
_is_section = functools.cache(dataclasses.is_dataclass)     # field hint -> holds a subsection


@functools.cache
def _plan(hint) -> tuple:
    """How `checked` checks a value of one field type hint, worked out once per hint:
    (item hint of a tuple hint, else None; the isinstance class that accepts the
    hint's values)."""
    if typing.get_origin(hint) is tuple:            # tuple[float, ...]: check every element
        return typing.get_args(hint)[0], None
    return None, {int: numbers.Integral, float: numbers.Real}.get(hint, hint)


def checked(hint, val, name: str, bound: str | None):
    """val as a value of the field type hint, floats finite, and at or above the
    lower bound `bound` of `_LOWER_BOUNDS` if there is one; else a ValueError naming the key.
    A numpy scalar is stored as the Python number it holds, so YAML and JSON take it,
    and a float field's value as a float, so `0` and `0.0` write the same config."""
    item, accepted = _plan(hint)
    if item is not None:
        if not isinstance(val, (list, tuple)):
            raise ValueError(f"{name} must be a list, not {val!r}")
        return tuple(checked(item, v, f"{name}[{i}]", bound) for i, v in enumerate(val))
    if isinstance(val, np.generic):
        val = val.item()
    if hint is float and isinstance(val, str):      # PyYAML reads 1e-3 as a string
        try:
            val = float(val)
        except ValueError:
            pass
    # An exact type match passes without the slower ABC isinstance checks.
    if type(val) is not hint and (not isinstance(val, accepted)
                                  or (isinstance(val, bool) and hint is not bool)):
        raise ValueError(f"{name} must be {hint.__name__}, not {val!r}")
    if hint is float:
        try:
            val = float(val)
        except OverflowError:
            raise ValueError(f"{name} is too large for a float") from None
    if isinstance(val, float) and not math.isfinite(val):
        raise ValueError(f"{name} must be finite, not {val!r}")
    if bound and not _BOUND_HOLDS[bound](val):
        raise ValueError(f"{name} must be {bound}")
    return val


def check_fields(section, path: str) -> None:
    """Pass every field of section and of its subsections through `checked` with
    its lower bound, storing each value back as `checked` returns it, then run
    the section's `check_cross_fields()` if it has one. path prefixes each key
    an error names ("pointmaze." for the point-maze section, "" at the top)."""
    hints = section_hints(type(section))
    unknown = sorted(vars(section).keys() - hints.keys())
    if unknown:                                     # an attribute set in code by mistake
        raise ValueError(f"unknown config key {path}{unknown[0]}")
    for key, hint in hints.items():
        val = checked(hint, getattr(section, key), path + key, _LOWER_BOUNDS.get(key))
        if _is_section(hint):
            check_fields(val, f"{path}{key}.")
        else:
            setattr(section, key, val)
    if hasattr(section, "check_cross_fields"):
        section.check_cross_fields()


@dataclass
class DiscConfig:
    hidden: tuple[int, ...] = (64, 64)
    state_only_g: bool = True
    lr: float = 3e-4
    weight_decay: float = 1e-2
    minibatch_size: int = 128
    epochs: int = 1


@dataclass
class ExpertConfig:
    steps: int = 300
    batch_steps: int = 640
    entropy_coef: float = 0.003
    n_demo_episodes: int = 40
    demo_success_only: bool = True


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
    expert: ExpertConfig = field(default_factory=ExpertConfig)

    def validate(self) -> None:
        """Check task and method, then every field and section rule (`check_fields`)."""
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        check_fields(self, "")

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


def _overlay(section, values: dict, path: str):
    """Place values into section, recursing into subsections; `validate` checks them."""
    hints = section_hints(type(section))
    for key, val in values.items():
        if key not in hints:
            raise ValueError(f"unknown config key {path}.{key}")
        current = getattr(section, key)
        if dataclasses.is_dataclass(current):
            if not isinstance(val, dict):
                raise ValueError(f"{path}.{key} must be a mapping")
            _overlay(current, val, f"{path}.{key}")
        else:
            setattr(section, key, val)


class _UniqueKeyLoader(yaml.SafeLoader):
    """PyYAML's safe loader, except that a mapping giving one key twice raises a ValueError."""

    def construct_mapping(self, node, deep=False):
        own = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]  # not `<<` merges
        keys = [self.construct_object(k, deep=deep) for k in own]
        for i, key in enumerate(keys):
            if key in keys[:i]:
                raise ValueError(f"key {key!r} given twice\n{own[i].start_mark}")
        return super().construct_mapping(node, deep)


def read_yaml(path):
    """The YAML file at path, as `yaml.safe_load` reads it, but a key given twice raises."""
    with open(path) as fh:
        return yaml.load(fh, Loader=_UniqueKeyLoader)


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Build a config from defaults, an optional YAML file, and overrides, then validate it."""
    cfg = ExperimentConfig()
    raw = {} if path is None else read_yaml(path) or {}
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a mapping")
    _overlay(cfg, raw, "config")
    if overrides:
        _overlay(cfg, {k: v for k, v in overrides.items() if v is not None}, "override")
    cfg.validate()
    alpha_given = "alpha" in raw or (overrides or {}).get("alpha") is not None
    if alpha_given and cfg.alpha != ExperimentConfig().alpha and cfg.method != "odirl":
        raise ValueError(f"alpha is only meaningful for the odirl method, not {cfg.method!r}")
    return cfg


# libyaml's safe emitter where PyYAML was built with it, several times faster than
# the pure-Python one (also a supported install).
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def _printable_ascii(obj) -> bool:
    """Whether every string in a plain tree of dicts, lists and scalars is printable ASCII."""
    if isinstance(obj, dict):
        return all(_printable_ascii(k) and _printable_ascii(v) for k, v in obj.items())
    if isinstance(obj, list):
        return all(map(_printable_ascii, obj))
    return not isinstance(obj, str) or (obj.isascii() and obj.isprintable())


def save_config(cfg: ExperimentConfig, path) -> None:
    """The resolved config as YAML: the same bytes whichever PyYAML emitter writes them.

    The two emitters agree on printable-ASCII strings, but fold a long escaped
    (non-ASCII or control-character) string at different places, so such a
    config goes through the pure-Python one.
    """
    plain = _as_plain(dataclasses.asdict(cfg))
    dumper = _DUMPER if _printable_ascii(plain) else yaml.SafeDumper
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        yaml.dump(plain, fh, Dumper=dumper, sort_keys=True)
