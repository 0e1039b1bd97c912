"""Independent oracles shared by module tests and the acceptance suite.

Everything here is computed without touching the code paths under test:
closed-form Gaussian log-density ratios, enumerated occupancy measures,
synthetic transition generators, and a one-state-at-a-time point-maze step.
"""

import numpy as np

from odirl.envs import _WALL_EPS, SOURCE, TARGET, Transition

GAUSS_MU_SRC = 0.0
GAUSS_MU_TGT = 0.3
GAUSS_SIGMA = 0.5


def gaussian_domain_transitions(n, mu, tag, rng, sigma=GAUSS_SIGMA):
    """1-d synthetic domain: s' ~ Normal(s + a + mu, sigma^2)."""
    s = rng.uniform(-1.0, 1.0, n)
    a = rng.uniform(-1.0, 1.0, n)
    sn = s + a + mu + sigma * rng.standard_normal(n)
    return [
        Transition(
            s=np.array([s[i]]), a=np.array([a[i]]), s_next=np.array([sn[i]]),
            done=False, domain_tag=tag, gt_reward=0.0,
        )
        for i in range(n)
    ]


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


def _make_transition(s, a, sn, tag):
    return Transition(
        s=onehot(s, N_STATES), a=onehot(a, N_ACTIONS), s_next=onehot(sn, N_STATES),
        done=False, domain_tag=tag, gt_reward=0.0,
    )


def replicated_uniform_sa_batch(P, tag, copies=120):
    """Noise-free batch: uniform (s,a), s' replicated proportional to P[s,a]."""
    out = []
    for s in range(N_STATES):
        for a in range(N_ACTIONS):
            for sn in range(N_STATES):
                out.extend([_make_transition(s, a, sn, tag)] * int(round(P[s, a, sn] * copies)))
    return out


def replicated_occupancy_batch(P, rho_sa, tag, scale=3000):
    """Noise-free batch from occupancy rho_sa; returns (batch, realized_rho).

    Integer rounding replaces sampling noise; realized_rho is the empirical
    (s, a) measure the batch actually encodes.
    """
    batch = []
    counts = np.zeros((N_STATES, N_ACTIONS))
    for s in range(N_STATES):
        for a in range(N_ACTIONS):
            for sn in range(N_STATES):
                n = int(round(rho_sa[s, a] * P[s, a, sn] * scale))
                batch.extend([_make_transition(s, a, sn, tag)] * n)
                counts[s, a] += n
    realized = counts / counts.sum()
    return batch, realized


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
        gaps = [
            (proposed[0] - wall[0], 0, wall[0] - _WALL_EPS),
            (wall[2] - proposed[0], 0, wall[2] + _WALL_EPS),
            (proposed[1] - wall[1], 1, wall[1] - _WALL_EPS),
            (wall[3] - proposed[1], 1, wall[3] + _WALL_EPS),
        ]
        _, axis, value = min(gaps, key=lambda g: g[0])
        proposed = proposed.copy()
        proposed[axis] = value
    done = bool(np.linalg.norm(proposed - np.asarray(config.goal)) <= config.goal_radius)
    return proposed, done
