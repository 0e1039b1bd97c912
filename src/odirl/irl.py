"""Adversarial IRL discriminators and reward extraction.

The discriminator logit for a transition is f(s,a,s') - log pi(a|s), with
f = g(.) + gamma*h(s') - h(s). For expert samples the logit additionally
carries the scaled dynamics-difference estimate, which down-weights
demonstration transitions that are implausible under target dynamics. With
alpha = 0 everything reduces exactly to the plain adversarial-IRL baseline.
"""

from __future__ import annotations

import csv
import logging

import numpy as np

from .envs import stack_transitions
from .nets import Mlp, load_params, save_params

logger = logging.getLogger(__name__)

LOGIT_CLIP = 10.0


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


class Discriminator:
    """Reward term g plus potential-based shaping term h.

    g takes the state alone (heatmap-able, transferable reading) or the
    state-action pair, selected at construction. h is always state -> scalar.
    With train_shaping=False the zero-initialized h stays identically zero,
    which pins f = g for tabular oracle checks.
    """

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        gamma: float,
        state_only_g: bool = True,
        hidden=(64, 64),
        seed: int = 0,
        logit_clip: float = LOGIT_CLIP,
        train_shaping: bool = True,
    ):
        if not 0.0 <= gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.gamma = float(gamma)
        self.state_only_g = bool(state_only_g)
        self.logit_clip = float(logit_clip)
        self.train_shaping = bool(train_shaping)
        g_in = state_dim if state_only_g else state_dim + action_dim
        self.g_net = Mlp([g_in, *hidden, 1], seed=seed, zero_init_output=True)
        self.h_net = Mlp([state_dim, *hidden, 1], seed=seed + 1, zero_init_output=True)

    def blocks(self):
        return [self.g_net, self.h_net] if self.train_shaping else [self.g_net]

    def _g_input(self, s: np.ndarray, a: np.ndarray) -> np.ndarray:
        return s if self.state_only_g else np.concatenate([s, a], axis=1)

    def g_value(self, s: np.ndarray, a: np.ndarray | None = None) -> np.ndarray:
        s = np.atleast_2d(np.asarray(s, dtype=np.float64))
        if self.state_only_g:
            return self.g_net.forward(s)[:, 0]
        return self.g_net.forward(np.concatenate([s, np.atleast_2d(a)], axis=1))[:, 0]

    def f_value(self, s: np.ndarray, a: np.ndarray, s_next: np.ndarray) -> np.ndarray:
        """f(s,a,s') = g(.) + gamma*h(s') - h(s), batched."""
        s = np.atleast_2d(np.asarray(s, dtype=np.float64))
        a = np.atleast_2d(np.asarray(a, dtype=np.float64))
        s_next = np.atleast_2d(np.asarray(s_next, dtype=np.float64))
        g = self.g_net.forward(self._g_input(s, a))[:, 0]
        h_next = self.h_net.forward(s_next)[:, 0]
        h_cur = self.h_net.forward(s)[:, 0]
        return g + self.gamma * h_next - h_cur

    def save(self, path) -> None:
        save_params(
            path,
            {"g": self.g_net.params, "h": self.h_net.params},
            meta={
                "g": self.g_net.meta(),
                "h": self.h_net.meta(),
                "gamma": self.gamma,
                "state_only_g": self.state_only_g,
            },
        )

    def load(self, path) -> None:
        arrays, _ = load_params(path)
        self.g_net.params[...] = arrays["g"]
        self.h_net.params[...] = arrays["h"]
        self.g_net.version += 1
        self.h_net.version += 1


def disc_logit(f_val, log_pi, dd_val=0.0):
    """Raw discriminator logit; its sigmoid is the modified discriminator output."""
    return (np.asarray(f_val) + np.asarray(dd_val)) - np.asarray(log_pi)


def policy_reward(disc: Discriminator, s, a, s_next, log_pi, flip_sign: bool = False) -> np.ndarray:
    """Generator reward f(s,a,s') - log pi(a|s); no dynamics-difference term.

    flip_sign implements the reversed convention (reward = log(1-D) - log D)
    for investigation; the default is the standard direction.
    """
    r = disc.f_value(s, a, s_next) - np.asarray(log_pi, dtype=np.float64)
    return -r if flip_sign else r


def _stacked_batches(demo_batch, policy_batch):
    """(s, a, s') over demo rows then policy rows, after the domain-tag checks."""
    if len(demo_batch) == 0 or len(policy_batch) == 0:
        raise ValueError("discriminator update needs nonempty demo and policy batches")
    for t in demo_batch:
        if t.domain_tag != "source":
            raise ValueError("demo batch must be source-tagged")
    pol_tags = {t.domain_tag for t in policy_batch}
    if len(pol_tags) != 1:
        raise ValueError("policy batch mixes domain tags")
    ds, da, dsn, _ = stack_transitions(demo_batch)
    ps, pa, psn, _ = stack_transitions(policy_batch)
    return np.concatenate([ds, ps]), np.concatenate([da, pa]), np.concatenate([dsn, psn])


def _clamped_logistic(raw: np.ndarray, n_demo: int, clip: float) -> tuple[np.ndarray, dict]:
    """Logistic loss with the first n_demo logits labelled 1 and the rest 0.

    Logits are clamped to [-clip, clip] before every sigmoid/log; clamped
    samples contribute no gradient. Returns d(loss)/d(logit) and the stats.
    """
    n_pol = len(raw) - n_demo
    logit = np.clip(raw, -clip, clip)
    active = (np.abs(raw) < clip).astype(np.float64)
    sig = _sigmoid(logit)
    loss_demo = float(np.mean(_softplus(-logit[:n_demo])))
    loss_pol = float(np.mean(_softplus(logit[n_demo:])))
    dlogit = np.empty_like(logit)
    dlogit[:n_demo] = -(1.0 - sig[:n_demo]) / n_demo
    dlogit[n_demo:] = sig[n_demo:] / n_pol
    dlogit *= active
    stats = {
        "loss": loss_demo + loss_pol,
        "loss_demo": loss_demo,
        "loss_policy": loss_pol,
        "demo_acc": float(np.mean(logit[:n_demo] > 0.0)),
        "policy_acc": float(np.mean(logit[n_demo:] < 0.0)),
    }
    return dlogit, stats


def disc_loss(
    disc: Discriminator,
    demo_batch,
    policy_batch,
    demo_log_pi: np.ndarray,
    policy_log_pi: np.ndarray,
    demo_dd: np.ndarray | None = None,
) -> tuple[float, dict]:
    """Binary logistic loss of the modified discriminator; accumulates gradients.

    Expert samples are pushed toward label 1 through sigmoid(f + dd - log pi);
    policy samples toward label 0 through sigmoid(f - log pi). The dd values
    are inputs (no gradient flows into the classifier pair).
    """
    s, a, sn = _stacked_batches(demo_batch, policy_batch)
    n_demo = len(demo_batch)
    if demo_dd is None:
        demo_dd = np.zeros(n_demo)
    demo_dd = np.asarray(demo_dd, dtype=np.float64)
    demo_log_pi = np.asarray(demo_log_pi, dtype=np.float64)
    policy_log_pi = np.asarray(policy_log_pi, dtype=np.float64)

    x_g = disc._g_input(s, a)
    g = disc.g_net.forward(x_g)[:, 0]
    x_h = np.concatenate([sn, s])
    h_out = disc.h_net.forward(x_h)[:, 0]
    f = g + disc.gamma * h_out[: len(s)] - h_out[len(s):]

    raw = f.copy()
    raw[:n_demo] += demo_dd - demo_log_pi
    raw[n_demo:] -= policy_log_pi
    dlogit, stats = _clamped_logistic(raw, n_demo, disc.logit_clip)
    disc.g_net.backward(x_g, dlogit[:, None])
    if disc.train_shaping:
        disc.h_net.backward(x_h, np.concatenate([disc.gamma * dlogit, -dlogit])[:, None])
    return stats["loss"], stats


# ---------------------------------------------------------------------------
# GAIL baseline
# ---------------------------------------------------------------------------

class GailDiscriminator:
    """Plain GAN discriminator over (s, a); no reward decomposition."""

    def __init__(self, state_dim: int, action_dim: int, hidden=(64, 64), seed: int = 0,
                 logit_clip: float = LOGIT_CLIP):
        self.d_net = Mlp([state_dim + action_dim, *hidden, 1], seed=seed, zero_init_output=True)
        self.logit_clip = float(logit_clip)

    def blocks(self):
        return [self.d_net]

    def logits(self, s: np.ndarray, a: np.ndarray) -> np.ndarray:
        x = np.concatenate([np.atleast_2d(s), np.atleast_2d(a)], axis=1)
        return self.d_net.forward(x)[:, 0]

    def save(self, path) -> None:
        save_params(path, {"d": self.d_net.params}, meta={"d": self.d_net.meta()})

    def load(self, path) -> None:
        arrays, _ = load_params(path)
        self.d_net.params[...] = arrays["d"]
        self.d_net.version += 1


def gail_disc_loss(gail: GailDiscriminator, demo_batch, policy_batch) -> tuple[float, dict]:
    """Standard GAN classifier loss over (s, a); accumulates gradients."""
    s, a, _ = _stacked_batches(demo_batch, policy_batch)
    x = np.concatenate([s, a], axis=1)
    dlogit, stats = _clamped_logistic(gail.d_net.forward(x)[:, 0], len(demo_batch),
                                      gail.logit_clip)
    gail.d_net.backward(x, dlogit[:, None])
    return stats["loss"], stats


def gail_policy_reward(gail: GailDiscriminator, s, a) -> np.ndarray:
    """-log(1 - D(s,a)), computed through the clamped logit (so capped)."""
    logit = np.clip(gail.logits(s, a), -gail.logit_clip, gail.logit_clip)
    return _softplus(logit)


# ---------------------------------------------------------------------------
# Reward heatmap
# ---------------------------------------------------------------------------

def reward_heatmap(disc: Discriminator, grid_n: int = 50,
                   bounds: tuple = (0.0, 1.0), path=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate g over grid cell centers of the square arena.

    Only defined for state-only g. Returns (xs, ys, values) with
    values[i, j] = g([xs[i], ys[j]]); optionally writes x,y,value CSV rows.
    """
    if not disc.state_only_g:
        raise ValueError("reward heatmap requires a state-only reward term")
    if disc.state_dim != 2:
        raise ValueError("reward heatmap is defined for 2-d state spaces")
    lo, hi = bounds
    centers = lo + (hi - lo) * (np.arange(grid_n) + 0.5) / grid_n
    xx, yy = np.meshgrid(centers, centers, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    values = disc.g_net.forward(pts)[:, 0].reshape(grid_n, grid_n)
    if path is not None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "value"])
            for i in range(grid_n):
                for j in range(grid_n):
                    writer.writerow([
                        format(centers[i], ".17g"),
                        format(centers[j], ".17g"),
                        format(values[i, j], ".17g"),
                    ])
    return centers, centers, values
