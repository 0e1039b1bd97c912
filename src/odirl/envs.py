"""Paired source/target environments with identical state/action spaces.

The two members of a pair share the initial-state distribution and differ
only in transition dynamics: the point maze grows a longer wall in the
target domain, the link chain gets actuators masked off. Ground-truth
reward is for evaluation curves only; no learning code reads it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

SOURCE = "source"
TARGET = "target"
_WALL_EPS = 1e-9


@dataclass
class EnvSpec:
    state_dim: int
    action_dim: int
    action_low: np.ndarray
    action_high: np.ndarray
    horizon: int
    goal: np.ndarray | None = None

    def __post_init__(self):
        self.action_low = np.asarray(self.action_low, dtype=np.float64)
        self.action_high = np.asarray(self.action_high, dtype=np.float64)
        if self.state_dim < 1 or self.action_dim < 1:
            raise ValueError("state_dim and action_dim must be positive")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not (np.all(np.isfinite(self.action_low)) and np.all(np.isfinite(self.action_high))):
            raise ValueError("action bounds must be finite")
        if self.goal is not None:
            self.goal = np.asarray(self.goal, dtype=np.float64)


@dataclass
class Transition:
    s: np.ndarray
    a: np.ndarray
    s_next: np.ndarray
    done: bool
    domain_tag: str
    gt_reward: float


@dataclass
class Trajectory:
    transitions: list[Transition] = field(default_factory=list)
    log_probs: np.ndarray | None = None

    def __len__(self):
        return len(self.transitions)

    def gt_return(self) -> float:
        return float(sum(t.gt_reward for t in self.transitions))


def stack_transitions(transitions) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(states, actions, next_states, dones) arrays for a list of transitions."""
    s = np.array([t.s for t in transitions])
    a = np.array([t.a for t in transitions])
    sn = np.array([t.s_next for t in transitions])
    d = np.array([t.done for t in transitions], dtype=bool)
    return s, a, sn, d


# ---------------------------------------------------------------------------
# Point maze
# ---------------------------------------------------------------------------

@dataclass
class PointMazeConfig:
    """One point-maze task: both domains, which differ only in wall length."""

    source_wall_length: float = 0.5   # fraction of arena height, hanging from the top
    target_wall_length: float = 0.75
    wall_x: float = 0.5
    wall_half_width: float = 0.02
    start_region: tuple = (0.06, 0.50, 0.14, 0.60)   # xlo, ylo, xhi, yhi
    goal_region: tuple = (0.78, 0.43, 1.0, 0.67)
    goal: tuple = (0.9, 0.55)
    goal_radius: float = 0.1
    noise_std: float = 0.01
    action_scale: float = 0.08
    horizon: int = 80

    def validate(self) -> None:
        if not 0.0 < self.source_wall_length < self.target_wall_length <= 1.0:
            raise ValueError("pointmaze: need 0 < source_wall_length < target_wall_length <= 1")
        xlo, xhi = self.wall_x - self.wall_half_width, self.wall_x + self.wall_half_width
        if not (0.0 < xlo and xhi < 1.0):
            raise ValueError("pointmaze.wall_x +- wall_half_width must lie strictly inside the arena")
        wall = self.wall_box(TARGET)   # contains the source wall
        for name in ("start_region", "goal_region"):
            if _boxes_overlap(getattr(self, name), wall):
                raise ValueError(f"pointmaze.{name} overlaps the target wall")
        for name in ("action_scale", "goal_radius"):
            if getattr(self, name) <= 0:
                raise ValueError(f"pointmaze.{name} must be > 0")
        if self.noise_std < 0:
            raise ValueError("pointmaze.noise_std must be >= 0")

    def wall_box(self, domain_tag: str) -> tuple:
        """(xlo, ylo, xhi, yhi) of the domain's wall rectangle; hangs from the top edge."""
        length = {SOURCE: self.source_wall_length, TARGET: self.target_wall_length}[domain_tag]
        return (self.wall_x - self.wall_half_width, 1.0 - length,
                self.wall_x + self.wall_half_width, 1.0)

    def base_config(self) -> "PointMazeConfig":
        """This config; kept only because benchmarks/workloads.py calls it."""
        return self


def _boxes_overlap(a: tuple, b: tuple) -> bool:
    return a[0] < b[2] and b[0] < a[2] and a[1] < b[3] and b[1] < a[3]


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis of (2,) or (N, 2) vectors."""
    return np.hypot(v[..., 0], v[..., 1])


def _per_row(values: np.ndarray):
    """A 0-d result as a Python scalar (the 1-D form), a per-row array as is."""
    return values.item() if values.ndim == 0 else values


class PointMazeEnv:
    """Position-controlled point mass in the unit square with one wall.

    State is the (x, y) position; actions are bounded displacements with
    additive Gaussian noise. Motion is truncated where the displacement
    segment first meets the wall rectangle or the arena boundary.

    reset, step, ground_truth_reward and is_success take one (2,) state or a
    leading batch axis of states, like ``Mlp.forward``.
    """

    def __init__(self, config: PointMazeConfig, domain_tag: str, seed: int):
        config.validate()
        self.config = config
        self.domain_tag = domain_tag
        self.rng = np.random.default_rng(seed)
        a = config.action_scale
        self.spec = EnvSpec(
            state_dim=2,
            action_dim=2,
            action_low=np.array([-a, -a]),
            action_high=np.array([a, a]),
            horizon=config.horizon,
            goal=np.asarray(config.goal, dtype=np.float64),
        )
        self._start_lo = np.array(config.start_region[:2], dtype=np.float64)
        self._start_hi = np.array(config.start_region[2:], dtype=np.float64)
        self._wall = config.wall_box(domain_tag)
        self._wall_lo, self._wall_hi = np.array(self._wall[:2]), np.array(self._wall[2:])

    def reset(self, n: int | None = None) -> np.ndarray:
        """One (2,) start state, or (n, 2) of them from one draw."""
        return self.rng.uniform(self._start_lo, self._start_hi, 2 if n is None else (n, 2))

    def step(self, state: np.ndarray, action: np.ndarray) -> tuple[np.ndarray, bool | np.ndarray]:
        """Next state and done flag of a (2,) state, or of each row of (N, 2) states.

        Draws one (N, 2) noise array per call (one (2,) draw for a 1-D state).
        """
        state = np.asarray(state, dtype=np.float64)
        single = state.ndim == 1
        p0 = state[None] if single else state
        if not np.isfinite(p0).all():
            raise ValueError("non-finite state: simulator diverged")
        move = np.minimum(np.maximum(action, self.spec.action_low), self.spec.action_high)
        if self.config.noise_std > 0:
            move = move + self.rng.normal(0.0, self.config.noise_std, size=move.shape)
        # Clamp to the arena first: motion that would leave the square slides
        # along its boundary, and the slid path must still respect the wall
        # (the wall reaches the top edge, so the edge is not a corridor).
        nxt = np.minimum(np.maximum(p0 + move, 0.0), 1.0)
        nxt = self._stop_at_wall(p0, nxt)
        done = _norm(nxt - self.spec.goal) <= self.config.goal_radius
        return (nxt[0], bool(done[0])) if single else (nxt, done)

    def _stop_at_wall(self, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
        """End points of (N, 2) segments p0 -> p1, each cut where it first
        enters the closed wall box (a slab test over rows) and nudged back
        along the segment so states stay strictly outside."""
        lo, hi = self._wall_lo, self._wall_hi
        d = p1 - p0
        still = np.abs(d) < 1e-300
        step = np.where(still, 1.0, d)
        t_lo = (lo - p0) / step
        t_hi = (hi - p0) / step
        enter = np.minimum(t_lo, t_hi)
        leave = np.maximum(t_lo, t_hi)
        if still.any():
            # A still coordinate inside its slab allows every t, outside it none.
            inside_slab = (t_lo <= 0.0) & (t_hi >= 0.0)
            enter[still] = np.where(inside_slab, -np.inf, np.inf)[still]
            leave[still] = np.inf
        t_in = np.maximum(np.maximum(enter[:, 0], enter[:, 1]), 0.0)
        hit = t_in <= np.minimum(np.minimum(leave[:, 0], leave[:, 1]), 1.0)
        out = p1
        if hit.any():
            # Rows without a hit keep p1 exactly; their t (possibly inf) is never used.
            t = np.where(hit, t_in - _WALL_EPS / np.maximum(_norm(d), 1e-12), 0.0)
            out = np.where(hit[:, None], p0 + np.maximum(t, 0.0)[:, None] * d, p1)
        inside = (out > lo) & (out < hi)
        for i in np.flatnonzero(inside[:, 0] & inside[:, 1]):  # numerical corner case guard
            out[i] = self._project_out(out[i], self._wall)
        return out

    @staticmethod
    def _project_out(p: np.ndarray, box: tuple) -> np.ndarray:
        gaps = [
            (p[0] - box[0], 0, box[0] - _WALL_EPS),
            (box[2] - p[0], 0, box[2] + _WALL_EPS),
            (p[1] - box[1], 1, box[1] - _WALL_EPS),
            (box[3] - p[1], 1, box[3] + _WALL_EPS),
        ]
        gap, axis, value = min(gaps, key=lambda g: g[0])
        out = p.copy()
        out[axis] = value
        return out

    def ground_truth_reward(self, state: np.ndarray):
        state = np.asarray(state, dtype=np.float64)
        if not np.isfinite(state).all():
            raise ValueError("non-finite state")
        return _per_row(-_norm(state - self.spec.goal))

    def is_success(self, state: np.ndarray):
        return _per_row(_norm(np.asarray(state) - self.spec.goal) <= self.config.goal_radius)


# ---------------------------------------------------------------------------
# Link chain
# ---------------------------------------------------------------------------

@dataclass
class LinkChainConfig:
    """One link-chain task: the source chain drives every joint, the target
    chain has the actuators of `target_disabled_mask` dead."""

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
    gt_variant: str = "distance"      # "distance" | "forward_velocity"
    horizon: int = 60

    def validate(self) -> None:
        if self.num_joints < 1:
            raise ValueError("linkchain.num_joints must be >= 1")
        for name in ("target_disabled_mask", "goal_angles"):
            if len(getattr(self, name)) != self.num_joints:
                raise ValueError(f"linkchain.{name} length must equal num_joints")
        if not any(self.target_disabled_mask):
            raise ValueError("linkchain.target_disabled_mask needs at least one disabled actuator")
        if self.gt_variant not in ("distance", "forward_velocity"):
            raise ValueError("linkchain.gt_variant must be 'distance' or 'forward_velocity'")
        for name in ("torque_limit", "dt"):
            if getattr(self, name) <= 0:
                raise ValueError(f"linkchain.{name} must be > 0")

    def base_config(self) -> "LinkChainConfig":
        """This config; kept only because benchmarks/workloads.py calls it."""
        return self


def _chain_tip(angles: np.ndarray) -> np.ndarray:
    """Planar forward kinematics for unit total length, equal links."""
    n = angles.shape[-1]
    cum = np.cumsum(angles, axis=-1)
    link = 1.0 / n
    x = link * np.sum(np.cos(cum), axis=-1)
    y = link * np.sum(np.sin(cum), axis=-1)
    return np.stack([x, y], axis=-1)


class LinkChainEnv:
    """Torque-controlled planar joint chain; masked actuators produce zero torque.

    Each joint integrates a damped second-order servo; the task reward is
    defined on the chain tip via forward kinematics.
    """

    def __init__(self, config: LinkChainConfig, domain_tag: str, seed: int):
        config.validate()
        self.config = config
        self.domain_tag = domain_tag
        self.rng = np.random.default_rng(seed)
        n = config.num_joints
        lim = config.torque_limit
        # A source chain drives every joint.
        self.mask = np.asarray(config.target_disabled_mask, dtype=bool) & (domain_tag == TARGET)
        self.goal_tip = _chain_tip(np.asarray(config.goal_angles, dtype=np.float64))
        self.spec = EnvSpec(
            state_dim=2 * n,
            action_dim=n,
            action_low=np.full(n, -lim),
            action_high=np.full(n, lim),
            horizon=config.horizon,
            goal=self.goal_tip,
        )
        self._init_range = np.repeat([config.init_angle_range, config.init_vel_range], n)

    def reset(self, n: int | None = None) -> np.ndarray:
        """One (2 * num_joints,) start state (angles, then velocities), or n rows of them."""
        return self.rng.uniform(-self._init_range, self._init_range,
                                self._init_range.shape if n is None else (n, self.spec.state_dim))

    def step(self, state: np.ndarray, action: np.ndarray) -> tuple[np.ndarray, bool | np.ndarray]:
        """Next state and done flag of one state, or of each row of (N, 2 * num_joints) states."""
        state = np.asarray(state, dtype=np.float64)
        if not np.isfinite(state).all():
            raise ValueError("non-finite state: simulator diverged")
        n = self.config.num_joints
        a = np.minimum(np.maximum(action, self.spec.action_low), self.spec.action_high)
        a = np.where(self.mask, 0.0, a)
        angles, vels = state[..., :n], state[..., n:]
        accel = self.config.torque_gain * a - self.config.damping * vels
        new_vels = np.clip(vels + self.config.dt * accel, -self.config.vel_limit, self.config.vel_limit)
        new_angles = angles + self.config.dt * new_vels
        done = False if state.ndim == 1 else np.zeros(len(state), dtype=bool)
        return np.concatenate([new_angles, new_vels], axis=-1), done

    def ground_truth_reward(self, state: np.ndarray):
        state = np.asarray(state, dtype=np.float64)
        if not np.isfinite(state).all():
            raise ValueError("non-finite state")
        n = self.config.num_joints
        angles, vels = state[..., :n], state[..., n:]
        if self.config.gt_variant == "forward_velocity":
            cum = np.cumsum(angles, axis=-1)
            cum_vel = np.cumsum(vels, axis=-1)
            return _per_row(-np.sum(np.sin(cum) * cum_vel, axis=-1) / n)  # d/dt of tip x
        return _per_row(-_norm(_chain_tip(angles) - self.goal_tip))

    def is_success(self, state: np.ndarray):
        n = self.config.num_joints
        tip = _chain_tip(np.asarray(state, dtype=np.float64)[..., :n])
        return _per_row(_norm(tip - self.goal_tip) <= self.config.success_radius)


def make_pointmaze_pair(
    base: PointMazeConfig,
    source_wall_length: float,
    target_wall_length: float,
    source_seed: int,
    target_seed: int,
) -> tuple[PointMazeEnv, PointMazeEnv]:
    cfg = replace(base, source_wall_length=source_wall_length, target_wall_length=target_wall_length)
    return PointMazeEnv(cfg, SOURCE, source_seed), PointMazeEnv(cfg, TARGET, target_seed)


def make_linkchain_pair(
    base: LinkChainConfig,
    target_disabled_mask,
    source_seed: int,
    target_seed: int,
) -> tuple[LinkChainEnv, LinkChainEnv]:
    cfg = replace(base, target_disabled_mask=tuple(target_disabled_mask))
    return LinkChainEnv(cfg, SOURCE, source_seed), LinkChainEnv(cfg, TARGET, target_seed)


# ---------------------------------------------------------------------------
# Rollouts and trajectory CSV
# ---------------------------------------------------------------------------

def rollouts(policy, env, n_episodes: int, horizon: int, rng: np.random.Generator | None = None,
             deterministic: bool = False) -> list[Trajectory]:
    """Run `n_episodes` episodes of up to `horizon` transitions in lockstep.

    The episodes start from one batched reset; each step makes one policy call
    and one env.step over the rows still running, and a row drops out once
    the environment reports done. Each transition carries the env's domain
    tag and the evaluation-only ground-truth reward of the state it lands in.
    Stochastic rollouts record the log-probability of each action taken;
    deterministic ones record none. Within an episode, one transition's
    s_next is the next one's s (the same array, which nothing modifies).
    """
    trajs = [Trajectory() for _ in range(n_episodes)]
    log_probs = [[] for _ in range(n_episodes)]
    live = list(range(n_episodes))      # trajectory index of each row of `states`
    states = env.reset(n_episodes)
    rows = [s.copy() for s in states]   # per live row, its current state as its own array
    tag = env.domain_tag
    for _ in range(horizon):
        if not live:
            break
        if deterministic:
            actions = policy.act_deterministic(states)
        else:
            actions, logps = policy.sample_action(states, rng)
            for i, logp in zip(live, logps.tolist()):
                log_probs[i].append(logp)
        nxt, done = env.step(states, actions)
        gt = env.ground_truth_reward(nxt) + np.zeros(len(live))  # a wrapper's scalar spreads to all rows
        next_rows = [sn.copy() for sn in nxt]
        for i, s, a, sn, d, r in zip(live, rows, actions, next_rows, done.tolist(), gt.tolist()):
            trajs[i].transitions.append(Transition(s, a.copy(), sn, d, tag, r))
        if done.any():
            running = ~done
            keep = running.tolist()
            live = [i for i, k in zip(live, keep) if k]
            next_rows = [sn for sn, k in zip(next_rows, keep) if k]
            nxt = nxt[running]
        states, rows = nxt, next_rows
    if not deterministic:
        for traj, lp in zip(trajs, log_probs):
            traj.log_probs = np.array(lp)
    return trajs


def rollout(policy, env, horizon: int, rng: np.random.Generator | None = None,
            deterministic: bool = False) -> Trajectory:
    """One episode: `rollouts` with a single row."""
    return rollouts(policy, env, 1, horizon, rng, deterministic)[0]


def trajectory_header(state_dim: int, action_dim: int) -> list[str]:
    cols = [f"s_{i}" for i in range(state_dim)]
    cols += [f"a_{i}" for i in range(action_dim)]
    cols += [f"s_next_{i}" for i in range(state_dim)]
    cols += ["done", "domain_tag"]
    return cols


def trajectory_row(t: Transition) -> list:
    """One transition in the trajectory_header layout, floats written value-exactly."""
    floats = [format(v, ".17g") for part in (t.s, t.a, t.s_next) for v in part]
    return floats + [int(t.done), t.domain_tag]


def write_trajectory_csv(path, trajectories) -> None:
    """Dump transitions as CSV with the s_*, a_*, s_next_*, done, domain_tag layout."""
    trajs = trajectories if isinstance(trajectories, (list, tuple)) else [trajectories]
    first = trajs[0].transitions[0]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(trajectory_header(first.s.shape[0], first.a.shape[0]))
        for traj in trajs:
            writer.writerows(trajectory_row(t) for t in traj.transitions)
