"""Config field checks: each value's type, finiteness and lower bound, then the
rules that span fields. `ExperimentConfig.validate` runs them over a whole config,
each env and the policy optimizer over the section it is given."""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import typing

import numpy as np

# The lower bound of every bounded numeric field, by field name: a name has the
# same bound in every section, and a tuple field's bound holds for each element.
_LOWER_BOUNDS = {
    **dict.fromkeys(("r", "steps", "batch_steps", "eval_every", "eval_episodes",
                     "final_eval_trajectories", "heatmap_grid", "hidden", "epochs",
                     "minibatch_size", "batch_size", "steps_per_iter", "target_capacity",
                     "source_capacity", "n_demo_episodes", "horizon", "num_joints"), ">= 1"),
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
    A numpy scalar is stored as the Python number it holds, so YAML and JSON take it."""
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
