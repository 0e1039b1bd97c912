"""Paired source/target environments with identical state/action spaces.

The two members of a pair share the initial-state distribution and differ
only in transition dynamics: the point maze grows a longer wall in the
target domain, the link chain gets actuators masked off. Ground-truth
reward is for evaluation curves only; no learning code reads it.
"""

from __future__ import annotations

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
    goal: np.ndarray


@dataclass(slots=True)
class Transition:
    """One transition as its own object: an input form only (see ``Batch.of``)."""

    s: np.ndarray
    a: np.ndarray
    s_next: np.ndarray
    done: bool
    domain_tag: str
    gt_reward: float


@dataclass
class Trajectory:
    """One episode of ``Transition`` rows: an input form only (see ``Batch.of``)."""

    transitions: list[Transition] = field(default_factory=list)


@dataclass
class Batch:
    """Transitions of one domain as arrays: row i is (s[i], a[i], s_next[i]).

    A rollout fills every field, its episodes back to back in launch order:
    ends[i] marks each episode's last row, and log_prob (the log-density of
    each action taken) is None for deterministic rollouts. Row samples from
    buffers and demo sets carry s, a and s_next only.
    """

    s: np.ndarray                          # (n, state_dim)
    a: np.ndarray                          # (n, action_dim)
    s_next: np.ndarray                     # (n, state_dim)
    domain_tag: str
    done: np.ndarray | None = None         # (n,) bool
    gt_reward: np.ndarray | None = None    # (n,) evaluation only
    ends: np.ndarray | None = None         # (n,) bool
    log_prob: np.ndarray | None = None     # (n,)

    def __len__(self):
        return len(self.s)

    def rows(self, idx) -> Batch:
        """The (s, a, s_next) rows at idx, as a batch of the same domain."""
        return Batch(self.s[idx], self.a[idx], self.s_next[idx], self.domain_tag)

    def episode_returns(self) -> list[float]:
        """Each episode's ground-truth return, summed left to right as Python floats."""
        rewards = self.gt_reward.tolist()
        stops = (np.flatnonzero(self.ends) + 1).tolist()
        return [sum(rewards[i:j]) for i, j in zip([0, *stops], stops)]

    @classmethod
    def concat(cls, batches) -> Batch:
        """The rows of one domain's batches, in order."""
        first = batches[0]
        if any(b.domain_tag != first.domain_tag for b in batches):
            raise ValueError("batches mix domain tags")

        def cat(name):
            parts = [getattr(b, name) for b in batches]
            return None if parts[0] is None else np.concatenate(parts)
        return cls(cat("s"), cat("a"), cat("s_next"), first.domain_tag, cat("done"),
                   cat("gt_reward"), cat("ends"), cat("log_prob"))

    @classmethod
    def of(cls, rows) -> Batch:
        """Pack a list of ``Transition`` rows, or of ``Trajectory`` episodes (each
        one ending an episode), into a batch; a Batch is returned as it is.

        Every row must carry the same domain tag.
        """
        if isinstance(rows, Batch):
            return rows
        episodes = [t.transitions for t in rows] if rows and isinstance(rows[0], Trajectory) else [rows]
        flat = [t for ep in episodes for t in ep]
        if not flat:
            raise ValueError("no rows to pack: an empty list has no domain tag")
        tags = {t.domain_tag for t in flat}
        if len(tags) > 1:
            raise ValueError(f"batch mixes domain tags {sorted(tags)}")
        ends = np.zeros(len(flat), dtype=bool)
        ends[np.cumsum([len(ep) for ep in episodes if ep]) - 1] = True
        return cls(np.array([t.s for t in flat]), np.array([t.a for t in flat]),
                   np.array([t.s_next for t in flat]), tags.pop(),
                   done=np.array([t.done for t in flat], dtype=bool),
                   gt_reward=np.array([t.gt_reward for t in flat], dtype=np.float64), ends=ends)


# ---------------------------------------------------------------------------
# The body both tasks share
# ---------------------------------------------------------------------------

def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis of (2,) or (N, 2) vectors."""
    return np.hypot(v[..., 0], v[..., 1])


class _TaskEnv:
    """One domain of a task, config a section `ExperimentConfig.validate` has checked.

    The task passes its spec, start box (lo, hi) and success radius, and defines step
    and _tip, the point of a state whose distance to spec.goal gives reward and success.
    """

    def __init__(self, config, domain_tag: str, seed: int, spec: EnvSpec, start_box, radius):
        self.config = config
        self.domain_tag = domain_tag
        self.rng = np.random.default_rng(seed)
        self.spec = spec
        self._start_lo, self._start_hi = (np.array(b, dtype=np.float64) for b in start_box)
        self._radius = radius

    def reset(self, n: int | None = None) -> np.ndarray:
        """One (state_dim,) start state, or (n, state_dim) of them from one draw."""
        return self.rng.uniform(self._start_lo, self._start_hi,
                                self._start_lo.shape if n is None else (n, self.spec.state_dim))

    def ground_truth_reward(self, state: np.ndarray):
        """Minus the tip's distance to the goal: a float for one 1-D state, else one per row."""
        state = np.asarray(state, dtype=np.float64)
        if not np.isfinite(state).all():
            raise ValueError("non-finite state")
        reward = -_norm(self._tip(state) - self.spec.goal)
        return reward.item() if reward.ndim == 0 else reward

    def is_success(self, states: np.ndarray) -> np.ndarray:
        """Whether each row of (N, state_dim) states has its tip within the success radius."""
        tip = self._tip(np.asarray(states, dtype=np.float64))
        return _norm(tip - self.spec.goal) <= self._radius


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
    start_region: tuple[float, ...] = (0.06, 0.50, 0.14, 0.60)   # xlo, ylo, xhi, yhi
    goal: tuple[float, ...] = (0.9, 0.55)
    goal_radius: float = 0.1
    noise_std: float = 0.01
    action_scale: float = 0.08
    horizon: int = 80

    def check_cross_fields(self) -> None:
        """The geometry rules that span fields, run by `config.check_fields`."""
        if not 0.0 < self.source_wall_length < self.target_wall_length <= 1.0:
            raise ValueError("pointmaze: need 0 < source_wall_length < target_wall_length <= 1")
        xlo, xhi = self.wall_x - self.wall_half_width, self.wall_x + self.wall_half_width
        if not (0.0 < xlo and xhi < 1.0):
            raise ValueError("pointmaze.wall_x +- wall_half_width must lie strictly inside the arena")
        if len(self.goal) != 2:
            raise ValueError("pointmaze.goal must be an (x, y) pair")
        wall = self.wall_box(TARGET)   # contains the source wall
        # The agent never stands outside the arena or inside the target wall.
        gx, gy = self.goal
        if not (0.0 <= gx <= 1.0 and 0.0 <= gy <= 1.0) or _boxes_overlap((gx, gy, gx, gy), wall):
            raise ValueError("pointmaze.goal must lie in the arena, outside the target wall")
        box = self.start_region
        if len(box) != 4 or not (0 <= box[0] <= box[2] <= 1 and 0 <= box[1] <= box[3] <= 1):
            raise ValueError("pointmaze.start_region must be (xlo, ylo, xhi, yhi) in the arena "
                             "with lo <= hi")
        if _boxes_overlap(box, wall):
            raise ValueError("pointmaze.start_region overlaps the target wall")

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


class PointMazeEnv(_TaskEnv):
    """Position-controlled point mass in the unit square with one wall.

    State is the (x, y) position, its own tip; actions are bounded displacements
    with additive Gaussian noise. Motion is truncated where the displacement
    segment first meets the wall rectangle or the arena boundary.
    """

    def __init__(self, config: PointMazeConfig, domain_tag: str, seed: int):
        a, box = config.action_scale, config.start_region
        spec = EnvSpec(2, 2, np.array([-a, -a]), np.array([a, a]), config.horizon,
                       np.asarray(config.goal, dtype=np.float64))
        super().__init__(config, domain_tag, seed, spec, (box[:2], box[2:]), config.goal_radius)
        self._wall = config.wall_box(domain_tag)
        self._wall_lo, self._wall_hi = np.array(self._wall[:2]), np.array(self._wall[2:])
        self._wall_bounds = np.array([self._wall_lo, self._wall_hi])[:, None]   # (2, 1, 2)

    @staticmethod
    def _tip(states: np.ndarray) -> np.ndarray:
        return states

    def step(self, state: np.ndarray, action: np.ndarray) -> tuple[np.ndarray, bool | np.ndarray]:
        """Next state and done flag of a (2,) state, or of each row of (N, 2) states.

        Draws one (N, 2) noise normal per call, (2,) for a 1-D state; zeros at noise_std 0.
        """
        state = np.asarray(state, dtype=np.float64)
        single = state.ndim == 1
        p0 = state[None] if single else state
        if not np.isfinite(p0).all():
            raise ValueError("non-finite state: simulator diverged")
        move = np.minimum(np.maximum(action, self.spec.action_low), self.spec.action_high)
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
        along the segment so states stay strictly outside.

        Entry and exit times of both wall bounds share one (2, N, 2) array,
        so each stage of the test is one numpy call for every row and axis.
        """
        # No segment whose bounding box misses the closed wall box can enter
        # it, nor end inside it: then every row keeps p1 as it is.
        if not ((np.minimum(p0, p1) <= self._wall_hi) & (np.maximum(p0, p1) >= self._wall_lo)
                ).all(axis=1).any():
            return p1
        d = p1 - p0
        still = np.abs(d) < 1e-300
        any_still = still.any()
        # t[0] / t[1]: where each coordinate enters / leaves its slab, (2, N, 2).
        t = (self._wall_bounds - p0) / (np.where(still, 1.0, d) if any_still else d)
        t.sort(axis=0)
        if any_still:
            # A still coordinate inside its slab allows every t, outside it none.
            inside_slab = (t[0] <= 0.0) & (t[1] >= 0.0)
            t[0][still] = np.where(inside_slab, -np.inf, np.inf)[still]
            t[1][still] = np.inf
        t_in = np.maximum.reduce(t[0], axis=1, initial=0.0)
        hit = t_in <= np.minimum.reduce(t[1], axis=1, initial=1.0)
        out = p1
        if hit.any():
            # Rows without a hit keep p1 exactly; their t (possibly inf) is never used.
            t = np.where(hit, t_in - _WALL_EPS / np.maximum(_norm(d), 1e-12), 0.0)
            out = np.where(hit[:, None], p0 + np.maximum(t, 0.0)[:, None] * d, p1)
        inside = (out > self._wall_lo) & (out < self._wall_hi)
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


# ---------------------------------------------------------------------------
# Link chain
# ---------------------------------------------------------------------------

@dataclass
class LinkChainConfig:
    """One link-chain task: the source chain drives every joint, the target
    chain has the actuators of `target_disabled_mask` dead."""

    num_joints: int = 3
    target_disabled_mask: tuple[bool, ...] = (False, False, True)
    torque_limit: float = 1.0
    dt: float = 0.05
    damping: float = 0.8
    torque_gain: float = 4.0
    vel_limit: float = 8.0
    init_angle_range: float = 0.1
    init_vel_range: float = 0.05
    goal_angles: tuple[float, ...] = (1.1, -0.6, 0.9)
    success_radius: float = 0.25
    horizon: int = 60

    def check_cross_fields(self) -> None:
        """The rules that span fields, run by `config.check_fields`."""
        for name in ("target_disabled_mask", "goal_angles"):
            if len(getattr(self, name)) != self.num_joints:
                raise ValueError(f"linkchain.{name} length must equal num_joints")
        if not any(self.target_disabled_mask):
            raise ValueError("linkchain.target_disabled_mask needs at least one disabled actuator")

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


class LinkChainEnv(_TaskEnv):
    """Torque-controlled planar joint chain; masked actuators produce zero torque.

    A state is the joint angles, then their velocities; each joint integrates a
    damped second-order servo. spec.goal is the tip of goal_angles.
    """

    def __init__(self, config: LinkChainConfig, domain_tag: str, seed: int):
        n, lim = config.num_joints, config.torque_limit
        init = np.repeat([config.init_angle_range, config.init_vel_range], n)
        spec = EnvSpec(2 * n, n, np.full(n, -lim), np.full(n, lim), config.horizon,
                       _chain_tip(np.asarray(config.goal_angles, dtype=np.float64)))
        super().__init__(config, domain_tag, seed, spec, (-init, init), config.success_radius)
        # A source chain drives every joint.
        self.mask = np.asarray(config.target_disabled_mask, dtype=bool) & (domain_tag == TARGET)

    def _tip(self, states: np.ndarray) -> np.ndarray:
        return _chain_tip(states[..., :self.config.num_joints])

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
        lim = self.config.vel_limit
        new_vels = np.minimum(np.maximum(vels + self.config.dt * accel, -lim), lim)
        new_angles = angles + self.config.dt * new_vels
        done = False if state.ndim == 1 else np.zeros(len(state), dtype=bool)
        return np.concatenate([new_angles, new_vels], axis=-1), done


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

def rollouts(policy, env, n_episodes: int, rng: np.random.Generator | None = None,
             deterministic: bool = False) -> Batch:
    """Run `n_episodes` episodes of up to ``env.spec.horizon`` transitions in lockstep.

    The episodes start from one batched reset; each step makes one policy call
    and one env.step over the rows still running, and a row drops out once
    the environment reports done. Each step writes its rows into
    preallocated (episode, step) arrays, which are flattened episode by
    episode at the end; until the first episode ends, a step's rows are the
    whole wave, written through a basic slice rather than an index. The
    batch carries the env's domain tag and the evaluation-only ground-truth
    reward of each state landed in. Stochastic rollouts record the
    log-probability of each action taken; deterministic ones record none.
    Within an episode, one row's s_next is the next row's s. The
    ground-truth reward is one env.ground_truth_reward call over every row's
    s_next, after the last step.
    """
    horizon = env.spec.horizon
    shape = (n_episodes, horizon)
    s = np.empty((*shape, env.spec.state_dim))
    a = np.empty((*shape, env.spec.action_dim))
    s_next = np.empty_like(s)
    done_at = np.empty(shape, dtype=bool)
    log_prob = None if deterministic else np.empty(shape)
    lengths = np.zeros(n_episodes, dtype=np.intp)
    live = np.arange(n_episodes)          # episode of each row of `states`
    rows = slice(None)                    # `live` as a basic slice while it is every episode
    states = env.reset(n_episodes)
    for t in range(horizon):
        if len(live) == 0:
            break
        if deterministic:
            actions = policy.act_deterministic(states)
        else:
            actions, log_prob[rows, t] = policy.sample_action(states, rng)
        nxt, done = env.step(states, actions)
        s[rows, t], a[rows, t], s_next[rows, t], done_at[rows, t] = states, actions, nxt, done
        lengths[rows] = t + 1
        if done.any():
            live, nxt = live[~done], nxt[~done]
            rows = live
        states = nxt
    steps = np.arange(horizon)
    valid = steps < lengths[:, None]
    ends = (steps == lengths[:, None] - 1)[valid]
    s_next = s_next[valid]
    gt = np.empty(len(s_next))
    gt[:] = env.ground_truth_reward(s_next)      # a wrapper's scalar spreads to every row
    return Batch(s[valid], a[valid], s_next, env.domain_tag, done_at[valid], gt,
                 ends, None if deterministic else log_prob[valid])


def rollout(policy, env, rng: np.random.Generator) -> Batch:
    """One stochastic episode: `rollouts` with a single row."""
    return rollouts(policy, env, 1, rng)


def write_trajectory_csv(path, batch: Batch) -> None:
    """Dump a batch as CSV with the s_*, a_*, s_next_*, done, domain_tag layout,
    CRLF line ends and floats written value-exactly as ``format(v, ".17g")``."""
    columns = {"s": batch.s, "a": batch.a, "s_next": batch.s_next}
    header = [f"{name}_{i}" for name, x in columns.items() for i in range(x.shape[1])]
    values = np.concatenate(list(columns.values()), axis=1)
    line = ",".join(["%.17g"] * values.shape[1] + ["%d", batch.domain_tag]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join([*header, "done", "domain_tag"]) + "\r\n")
        fh.writelines(line % (*row, done) for row, done in zip(values.tolist(), batch.done.tolist()))
