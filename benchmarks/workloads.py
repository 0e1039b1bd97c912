"""Benchmark workloads: seeded configs and scripted-expert demonstrations.

Everything the training run reads is generated here from the workload seed,
before any timing starts: a fully resolved config YAML and a demo CSV written
through ``save_demos``. Demos come from scripted source-domain experts, so no
expert training is ever timed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from odirl.buffers import DemoSet, save_demos
from odirl.config import ExperimentConfig, load_config, save_config
from odirl.envs import Trajectory, Transition, make_linkchain_pair, make_pointmaze_pair

N_DEMO_EPISODES = 40


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: int                    # outer iterations per training run
    overrides: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pointmaze-odirl",
            "headline odirl run on the point maze: rollout-bound, every module on the path",
            steps=100,
            overrides={
                "task": "pointmaze", "method": "odirl", "r": 30, "alpha": 1.0,
                "pointmaze": {"source_wall_length": 0.5, "target_wall_length": 0.75,
                              "horizon": 80},
            },
        ),
        Workload(
            "linkchain-gail",
            "gail on the link chain: no classifier pair, DD or source rollouts; rollout-bound",
            steps=100,
            overrides={
                "task": "linkchain", "method": "gail", "r": 100,
                "disc": {"state_only_g": False},
                "linkchain": {"target_disabled_mask": [False, False, True], "horizon": 60},
            },
        ),
    )
}

# Shared knobs pinned here so a change of library defaults shows up as a
# deliberate benchmark edit rather than a silent workload change.
_COMMON = {
    "batch_steps": 320, "eval_every": 10, "eval_episodes": 20, "checkpoint_every": 0,
    "final_eval_trajectories": 5, "heatmap_grid": 50,
    "policy": {"hidden": [64, 64], "epochs": 10, "minibatch_size": 64},
    "disc": {"hidden": [64, 64], "minibatch_size": 128, "epochs": 1},
    "dd": {"hidden": [64, 64], "batch_size": 64, "steps_per_iter": 2},
}


def _merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, val in extra.items():
        out[key] = _merge(out[key], val) if isinstance(val, dict) and key in out else val
    return out


def _child_seeds(seed: int, n: int) -> list[int]:
    return [int(x) for x in np.random.SeedSequence([seed, 0xBE7C]).generate_state(n)]


def make_config(workload: Workload, seed: int, out_dir: Path, demos_path: Path) -> ExperimentConfig:
    fields = {"seed": int(seed), "steps": workload.steps, "out_dir": str(out_dir),
              "demos_path": str(demos_path)}
    return load_config(overrides=_merge(_merge(_COMMON, workload.overrides), fields))


# ---------------------------------------------------------------------------
# Scripted source-domain experts
# ---------------------------------------------------------------------------

def _episode(env, policy, horizon: int) -> Trajectory:
    traj = Trajectory()
    state = env.reset()
    for _ in range(horizon):
        action = np.clip(policy(state), env.spec.action_low, env.spec.action_high)
        nxt, done = env.step(state, action)
        traj.transitions.append(Transition(
            s=state.copy(), a=action.copy(), s_next=nxt.copy(), done=done,
            domain_tag=env.domain_tag, gt_reward=env.ground_truth_reward(nxt),
        ))
        state = nxt
        if done:
            break
    return traj


def _pointmaze_expert(goal: np.ndarray, rng: np.random.Generator):
    """Waypoints through the band y in (0.25, 0.5): open at the source wall, walled in the target."""
    y_gap = rng.uniform(0.32, 0.43)
    waypoints = [np.array([0.42, y_gap]), np.array([0.58, y_gap]), goal]
    stage = [0]

    def act(state):
        while stage[0] < 2 and np.linalg.norm(waypoints[stage[0]] - state) < 0.03:
            stage[0] += 1
        return waypoints[stage[0]] - state

    return act


def _linkchain_expert(goal_angles: np.ndarray, rng: np.random.Generator):
    """PD servo on every joint, including the one whose actuator is dead in the target."""
    target = goal_angles + rng.uniform(-0.05, 0.05, goal_angles.shape)
    kp, kd = rng.uniform(1.5, 2.5), rng.uniform(0.4, 0.6)
    n = goal_angles.shape[0]

    def act(state):
        return kp * (target - state[:n]) - kd * state[n:]

    return act


def make_demos(cfg: ExperimentConfig, seed: int, path: Path) -> DemoSet:
    env_seed, expert_seed, unused_seed = _child_seeds(seed, 3)
    rng = np.random.default_rng(expert_seed)
    if cfg.task == "pointmaze":
        pm = cfg.pointmaze
        src, _ = make_pointmaze_pair(pm.base_config(), pm.source_wall_length,
                                     pm.target_wall_length, env_seed, unused_seed)
        make_expert = lambda: _pointmaze_expert(src.spec.goal, rng)  # noqa: E731
    else:
        lc = cfg.linkchain
        src, _ = make_linkchain_pair(lc.base_config(), lc.target_disabled_mask, env_seed, unused_seed)
        goal_angles = np.asarray(lc.goal_angles, dtype=np.float64)
        make_expert = lambda: _linkchain_expert(goal_angles, rng)  # noqa: E731
    trajs = [_episode(src, make_expert(), src.spec.horizon) for _ in range(N_DEMO_EPISODES)]
    if cfg.task == "pointmaze" and not all(t.transitions[-1].done for t in trajs):
        raise RuntimeError("scripted point-maze expert failed to reach the goal")
    demos = DemoSet(trajectories=trajs, env_config_hash=cfg.env_config_hash(),
                    expert_seed=int(seed), horizon=src.spec.horizon)
    save_demos(demos, path)
    return demos


def prepare(workload: Workload, seed: int, work: Path) -> tuple[Path, int]:
    """Write demos.csv and config.yaml for (workload, seed) under work.

    Returns the config path and the number of demo transitions.
    """
    work.mkdir(parents=True, exist_ok=True)
    demos_path = work / "demos.csv"
    cfg = make_config(workload, seed, work / "run", demos_path)
    demos = make_demos(cfg, seed, demos_path)
    config_path = work / "config.yaml"
    save_config(cfg, config_path)
    return config_path, len(demos)
