"""Independent oracles shared by module tests and the acceptance suite.

Everything here is computed without touching the code paths under test:
closed-form Gaussian log-density ratios, enumerated occupancy measures,
synthetic transition generators, the point-maze rows that only the source
domain's wall gap allows, a one-state-at-a-time point-maze step, the
point-maze wall clip run on every row, a lockstep rollout that indexes its
rows by episode on every step, per-layer views of an Mlp's flat parameters,
textbook Adam, a replay buffer kept as a list of rows, and the run's CSV
files written cell by cell through ``csv.writer``. ``with_log_std`` gives a policy a starting std other than the
action-box one.
"""

import csv

import numpy as np

from odirl.envs import _WALL_EPS, SOURCE, TARGET, Batch

GAUSS_MU_SRC = 0.0
GAUSS_MU_TGT = 0.3
GAUSS_SIGMA = 0.5


def gaussian_domain_transitions(n, mu, tag, rng, sigma=GAUSS_SIGMA):
    """1-d synthetic domain: s' ~ Normal(s + a + mu, sigma^2)."""
    s = rng.uniform(-1.0, 1.0, n)
    a = rng.uniform(-1.0, 1.0, n)
    sn = s + a + mu + sigma * rng.standard_normal(n)
    return Batch(s[:, None], a[:, None], sn[:, None], tag)


def gaussian_true_dd(s, a, sn, mu_src=GAUSS_MU_SRC, mu_tgt=GAUSS_MU_TGT, sigma=GAUSS_SIGMA):
    """Closed-form log p_tgt(s'|s,a) - log p_src(s'|s,a) for the Gaussian pair."""
    d = np.asarray(sn) - np.asarray(s) - np.asarray(a)
    return (-((d - mu_tgt) ** 2) + (d - mu_src) ** 2) / (2.0 * sigma**2)


def gaussian_eval_grid(n=20):
    """(s, a, s') grid covering the sampled support; s' offsets within 2 sigma."""
    s = np.linspace(-1.0, 1.0, n)
    a = np.linspace(-1.0, 1.0, n)
    d = np.linspace(-1.0, 1.0, n)
    S, A, D = np.meshgrid(s, a, d, indexing="ij")
    S, A, D = S.ravel(), A.ravel(), D.ravel()
    return S, A, S + A + D


# ---------------------------------------------------------------------------
# Enumerable 3-state / 2-action MDP
# ---------------------------------------------------------------------------

N_STATES, N_ACTIONS = 3, 2


def toy_mdp_transition_matrix(seed):
    """P[s, a] is a distribution over next states, bounded away from zero."""
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(N_STATES) * 1.5, size=(N_STATES, N_ACTIONS))
    P = np.clip(P, 0.02, None)
    return P / P.sum(axis=-1, keepdims=True)


def random_tabular_policy(seed):
    rng = np.random.default_rng(seed)
    pi = rng.dirichlet(np.ones(N_ACTIONS) * 2.0, size=N_STATES)
    pi = np.clip(pi, 0.05, None)
    return pi / pi.sum(axis=-1, keepdims=True)


def occupancy_measure(P, pi, p0, horizon):
    """Exact average state-action occupancy over a finite horizon."""
    rho = np.zeros((N_STATES, N_ACTIONS))
    d = p0.copy()
    for _ in range(horizon):
        rho += d[:, None] * pi
        d = np.einsum("s,sa,sak->k", d, pi, P)
    return rho / horizon


def onehot(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def _onehot_batch(counts, tag):
    """A batch holding counts[s, a, sn] one-hot rows of each (s, a, s')."""
    s, a, sn = np.repeat(np.indices(counts.shape).reshape(3, -1), counts.ravel(), axis=1)
    eye_s, eye_a = np.eye(N_STATES), np.eye(N_ACTIONS)
    return Batch(eye_s[s], eye_a[a], eye_s[sn], tag)


def replicated_uniform_sa_batch(P, tag, copies=120):
    """Noise-free batch: uniform (s,a), s' replicated proportional to P[s,a]."""
    return _onehot_batch(np.round(P * copies).astype(int), tag)


def replicated_occupancy_batch(P, rho_sa, tag, scale=3000):
    """Noise-free batch from occupancy rho_sa; returns (batch, realized_rho).

    Integer rounding replaces sampling noise; realized_rho is the empirical
    (s, a) measure the batch actually encodes.
    """
    counts = np.round(rho_sa[:, :, None] * P * scale).astype(int)
    sa_counts = counts.sum(axis=2)
    return _onehot_batch(counts, tag), sa_counts / sa_counts.sum()


# ---------------------------------------------------------------------------
# Point maze, one state at a time
# ---------------------------------------------------------------------------

def point_in_box(p, box):
    return box[0] < p[0] < box[2] and box[1] < p[1] < box[3]


def segment_box_entry(p0, p1, box):
    """Earliest t in [0, 1] where p0 + t*(p1-p0) is inside the closed box."""
    d = p1 - p0
    tmin, tmax = 0.0, 1.0
    for axis, (lo, hi) in enumerate(((box[0], box[2]), (box[1], box[3]))):
        if abs(d[axis]) < 1e-300:
            if not (lo <= p0[axis] <= hi):
                return None
        else:
            t1 = (lo - p0[axis]) / d[axis]
            t2 = (hi - p0[axis]) / d[axis]
            if t1 > t2:
                t1, t2 = t2, t1
            tmin = max(tmin, t1)
            tmax = min(tmax, t2)
            if tmin > tmax:
                return None
    return tmin


def infeasible_rows(config, batch):
    """(N,) bool: which rows s -> s_next of a point-maze batch enter the target wall
    box but not the source one, i.e. move through the gap only the source has."""
    target, source = config.wall_box(TARGET), config.wall_box(SOURCE)
    return np.array([segment_box_entry(s, sn, target) is not None
                     and segment_box_entry(s, sn, source) is None
                     for s, sn in zip(batch.s, batch.s_next)], dtype=bool)


def pointmaze_step(config, wall, state, action):
    """Noise-free point-maze step of one (2,) state: (next state, done).

    `wall` is the (xlo, ylo, xhi, yhi) box of the domain stepped in.

    Clip the action, clamp the displaced point to the arena, stop where the
    segment first enters the wall box (nudged _WALL_EPS back along it), and
    push a point still inside the box out through its nearest face.
    """
    state = np.asarray(state, dtype=np.float64)
    a = np.clip(np.asarray(action, dtype=np.float64), -config.action_scale, config.action_scale)
    proposed = np.clip(state + a, 0.0, 1.0)
    t_hit = segment_box_entry(state, proposed, wall)
    if t_hit is not None:
        t_hit = max(0.0, t_hit - _WALL_EPS / max(np.linalg.norm(proposed - state), 1e-12))
        proposed = state + t_hit * (proposed - state)
    if point_in_box(proposed, wall):
        proposed = _project_out(proposed, wall)
    done = bool(np.linalg.norm(proposed - np.asarray(config.goal)) <= config.goal_radius)
    return proposed, done


def _project_out(p, wall):
    """p pushed out of the wall box through its nearest face, _WALL_EPS beyond it."""
    gaps = [
        (p[0] - wall[0], 0, wall[0] - _WALL_EPS),
        (wall[2] - p[0], 0, wall[2] + _WALL_EPS),
        (p[1] - wall[1], 1, wall[1] - _WALL_EPS),
        (wall[3] - p[1], 1, wall[3] + _WALL_EPS),
    ]
    _, axis, value = min(gaps, key=lambda g: g[0])
    out = p.copy()
    out[axis] = value
    return out


def stop_at_wall_every_row(wall, p0, p1):
    """Reference for `PointMazeEnv._stop_at_wall`: its slab test run on every
    row of (N, 2) segments p0 -> p1, with no early exit for segments far
    from the wall, in the same numpy operations (so bit for bit the same end
    points). `wall` is the (xlo, ylo, xhi, yhi) box.
    """
    wall_lo, wall_hi = np.array(wall[:2]), np.array(wall[2:])
    d = p1 - p0
    still = np.abs(d) < 1e-300
    any_still = still.any()
    t = (np.array([wall_lo, wall_hi])[:, None] - p0) / (np.where(still, 1.0, d) if any_still else d)
    t.sort(axis=0)
    if any_still:
        inside_slab = (t[0] <= 0.0) & (t[1] >= 0.0)
        t[0][still] = np.where(inside_slab, -np.inf, np.inf)[still]
        t[1][still] = np.inf
    t_in = np.maximum.reduce(t[0], axis=1, initial=0.0)
    hit = t_in <= np.minimum.reduce(t[1], axis=1, initial=1.0)
    out = p1
    if hit.any():
        t = np.where(hit, t_in - _WALL_EPS / np.maximum(np.hypot(d[:, 0], d[:, 1]), 1e-12), 0.0)
        out = np.where(hit[:, None], p0 + np.maximum(t, 0.0)[:, None] * d, p1)
    inside = (out > wall_lo) & (out < wall_hi)
    for i in np.flatnonzero(inside[:, 0] & inside[:, 1]):
        out[i] = _project_out(out[i], wall)
    return out


# ---------------------------------------------------------------------------
# Lockstep rollouts, every row written through the episode index
# ---------------------------------------------------------------------------

def reference_rollouts(policy, env, n_episodes, horizon, rng=None, deterministic=False):
    """Reference for `envs.rollouts`: the same wave of episodes, with every
    step's rows written through the index of the episodes still running."""
    shape = (n_episodes, horizon)
    s = np.empty((*shape, env.spec.state_dim))
    a = np.empty((*shape, env.spec.action_dim))
    s_next = np.empty_like(s)
    done_at = np.empty(shape, dtype=bool)
    log_prob = None if deterministic else np.empty(shape)
    lengths = np.zeros(n_episodes, dtype=np.intp)
    live = np.arange(n_episodes)          # episode of each row of `states`
    states = env.reset(n_episodes)
    for t in range(horizon):
        if len(live) == 0:
            break
        if deterministic:
            actions = policy.act_deterministic(states)
        else:
            actions, log_prob[live, t] = policy.sample_action(states, rng)
        nxt, done = env.step(states, actions)
        s[live, t], a[live, t], s_next[live, t], done_at[live, t] = states, actions, nxt, done
        lengths[live] = t + 1
        if done.any():
            live, nxt = live[~done], nxt[~done]
        states = nxt
    steps = np.arange(horizon)
    valid = steps < lengths[:, None]
    ends = (steps == lengths[:, None] - 1)[valid]
    s_next = s_next[valid]
    gt = np.empty(len(s_next))
    gt[:] = env.ground_truth_reward(s_next)
    return Batch(s[valid], a[valid], s_next, env.domain_tag, done_at[valid], gt,
                 ends, None if deterministic else log_prob[valid])


# ---------------------------------------------------------------------------
# Mlp layer views
# ---------------------------------------------------------------------------

def mlp_layers(net):
    """(W, b) views into `net.params` of each layer, sliced by `net.layer_sizes`.

    The flat layout is each layer's (fan_in, fan_out) weight matrix, row-major,
    then its fan_out biases, layer after layer. Writing to a view writes the
    network's parameters.
    """
    layers, offset = [], 0
    for fan_in, fan_out in zip(net.layer_sizes[:-1], net.layer_sizes[1:]):
        w = net.params[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        layers.append((w, net.params[offset : offset + fan_out]))
        offset += fan_out
    assert offset == net.params.size
    return layers


# ---------------------------------------------------------------------------
# Adam, as the textbook writes it
# ---------------------------------------------------------------------------

class TextbookAdam:
    """Reference for `nets.Adam`: the same update, one temporary array per
    operation and np.isfinite over every gradient and parameter block."""

    def __init__(self, blocks, lr=3e-4, betas=(0.9, 0.999), eps=1e-8, clip_norm=None,
                 weight_decay=0.0):
        self.blocks = list(blocks)
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.clip_norm = clip_norm
        self.weight_decay = float(weight_decay)
        self.t = 0
        self._m = [np.zeros_like(b.params) for b in self.blocks]
        self._v = [np.zeros_like(b.params) for b in self.blocks]

    def step(self):
        grads = [b.grad for b in self.blocks]
        for g in grads:
            if not np.all(np.isfinite(g)):
                raise FloatingPointError("non-finite gradient")
        if self.clip_norm is not None:
            total = np.sqrt(sum(float(g @ g) for g in grads))
            if total > self.clip_norm and total > 0.0:
                scale = self.clip_norm / total
                for g in grads:
                    g *= scale
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for block, m, v, g in zip(self.blocks, self._m, self._v, grads):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            if self.weight_decay:
                block.params *= 1.0 - self.lr * self.weight_decay  # decoupled decay
            block.params -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if not np.all(np.isfinite(block.params)):
                raise FloatingPointError("non-finite parameters after update")
            block.grad[...] = 0.0
            block.version += 1


# ---------------------------------------------------------------------------
# Replay buffers: one row object at a time
# ---------------------------------------------------------------------------

class RowListReplayBuffer:
    """Reference for `buffers.ReplayBuffer`: a list of (s, a, s_next) rows."""

    def __init__(self):
        self.rows = []

    def push(self, batch):
        self.rows.extend(zip(batch.s, batch.a, batch.s_next))

    def sample(self, n, rng):
        """n rows, drawn as the buffer draws them: one rng.integers over the rows, oldest first."""
        return [self.rows[i] for i in rng.integers(0, len(self.rows), size=n)]


# ---------------------------------------------------------------------------
# CSV files, one csv.writer cell at a time
# ---------------------------------------------------------------------------

def reference_trajectory_header(state_dim, action_dim):
    """The header row of a trajectory CSV."""
    return ([f"s_{i}" for i in range(state_dim)] + [f"a_{i}" for i in range(action_dim)]
            + [f"s_next_{i}" for i in range(state_dim)] + ["done", "domain_tag"])


def _reference_trajectory_cells(batch):
    """Each row of a batch as trajectory CSV cells, floats through format(v, ".17g")."""
    for s, a, sn, done in zip(batch.s.tolist(), batch.a.tolist(), batch.s_next.tolist(),
                              batch.done.tolist()):
        yield [format(v, ".17g") for v in (*s, *a, *sn)] + [int(done), batch.domain_tag]


def reference_write_trajectory_csv(path, batch):
    """Reference for `envs.write_trajectory_csv`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(reference_trajectory_header(batch.s.shape[1], batch.a.shape[1]))
        writer.writerows(_reference_trajectory_cells(batch))


def reference_heatmap_csv(path, centers, values):
    """Reference for the file `irl.reward_heatmap` writes: values[i, j] at (centers[i], centers[j])."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "value"])
        writer.writerows([format(centers[i], ".17g"), format(centers[j], ".17g"),
                          format(values[i, j], ".17g")]
                         for i in range(len(centers)) for j in range(len(centers)))


# ---------------------------------------------------------------------------
# A policy's starting std
# ---------------------------------------------------------------------------

def with_log_std(policy, log_std):
    """policy, with every entry of its log-std set to log_std in place (set it
    before an optimizer adopts the parameters)."""
    policy.log_std.params[...] = log_std
    return policy
