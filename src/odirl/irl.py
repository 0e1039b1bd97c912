"""Adversarial IRL discriminators and reward extraction.

The discriminator logit for a transition is f(s,a,s') - log pi(a|s), with
f = g(.) + gamma*h(s') - h(s). For expert samples the logit additionally
carries the scaled dynamics-difference estimate dd = alpha*DD; policy
samples and the policy reward carry none. The loss's pointwise optimum
solves rho_E*sigmoid(-(f + dd - log pi)) = rho_pi*sigmoid(f - log pi) for
the demo and policy occupancies rho_E and rho_pi of a row, so with equal
occupancies f - log pi = -dd/2: a negative dd raises f there. Only a demo
logit below -LOGIT_CLIP, whose gradient the clamp cuts, stops anchoring the
reward. With alpha = 0 everything reduces exactly to the plain
adversarial-IRL baseline.
"""

from __future__ import annotations

import numpy as np

from .envs import SOURCE, Batch
from .nets import Mlp, copy_blocks, load_params

LOGIT_CLIP = 10.0
# Rows per g forward of the heatmap, to bound the transient activations of each
# inference forward: a multiple of BLAS's row blocks, so each row's g is bit for
# bit that of one whole-grid forward (50-row chunks are not).
HEATMAP_CHUNK = 256


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
    """

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        gamma: float,
        state_only_g: bool = True,
        hidden=(64, 64),
        seed: int = 0,
    ):
        if not 0.0 <= gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        self.state_dim = state_dim
        self.gamma = float(gamma)
        self.state_only_g = bool(state_only_g)
        g_in = state_dim if state_only_g else state_dim + action_dim
        self.g_net = Mlp([g_in, *hidden, 1], seed=seed, zero_init_output=True)
        self.h_net = Mlp([state_dim, *hidden, 1], seed=seed + 1, zero_init_output=True)

    def blocks(self) -> dict:
        return {"g": self.g_net, "h": self.h_net}

    def _g_input(self, s: np.ndarray, a: np.ndarray) -> np.ndarray:
        return s if self.state_only_g else np.concatenate([s, a], axis=1)

    def g_value(self, s: np.ndarray, a: np.ndarray) -> np.ndarray:
        """g of each row of (N, state_dim) states and (N, action_dim) actions."""
        return self.g_net.forward(self._g_input(s, a), keep=False)[:, 0]

    def f_value(self, s: np.ndarray, a: np.ndarray, s_next: np.ndarray) -> np.ndarray:
        """f(s,a,s') = g(.) + gamma*h(s') - h(s) of each row."""
        return (self.g_value(s, a) + self.gamma * self.h_net.forward(s_next, keep=False)[:, 0]
                - self.h_net.forward(s, keep=False)[:, 0])


def checkpoint_meta(net) -> dict:
    """The header meta of net's checkpoint besides its Mlp blocks' own: a
    Discriminator's gamma and state_only_g, which `load_discriminator` reads."""
    if isinstance(net, Discriminator):
        return {"gamma": net.gamma, "state_only_g": net.state_only_g}
    return {}


def load_discriminator(path) -> Discriminator:
    """The discriminator saved at path, rebuilt from its g/h meta; a meta it
    cannot be rebuilt from raises a ValueError naming the file."""
    arrays, meta = load_params(path)
    try:
        g_sizes, state_dim = meta["g"]["layer_sizes"], meta["h"]["layer_sizes"][0]
        # A state-only g records no action dim; g never reads the action then.
        disc = Discriminator(state_dim, g_sizes[0] - state_dim or 1, gamma=meta["gamma"],
                             state_only_g=meta["state_only_g"], hidden=tuple(g_sizes[1:-1]))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a discriminator checkpoint: {exc!r}") from exc
    copy_blocks(path, arrays, disc.blocks())
    return disc


def policy_reward(disc: Discriminator, s, a, s_next, log_pi) -> np.ndarray:
    """Generator reward f(s,a,s') - log pi(a|s); no dynamics-difference term."""
    return disc.f_value(s, a, s_next) - np.asarray(log_pi, dtype=np.float64)


def _stacked_batches(demo_batch, policy_batch):
    """(s, a, s') over demo rows then policy rows, after the domain-tag checks.

    Each batch is a ``Batch`` or a list of ``Transition`` rows (packed with ``Batch.of``).
    """
    if len(demo_batch) == 0 or len(policy_batch) == 0:
        raise ValueError("discriminator update needs nonempty demo and policy batches")
    demo_batch, policy_batch = Batch.of(demo_batch), Batch.of(policy_batch)
    if demo_batch.domain_tag != SOURCE:
        raise ValueError("demo batch must be source-tagged")
    return tuple(np.concatenate([getattr(demo_batch, k), getattr(policy_batch, k)])
                 for k in ("s", "a", "s_next"))


def _clamped_logistic(raw: np.ndarray, n_demo: int) -> tuple[np.ndarray, dict]:
    """Logistic loss with the first n_demo logits labelled 1 and the rest 0.

    Logits are clamped to [-LOGIT_CLIP, LOGIT_CLIP] before every sigmoid/log;
    clamped samples contribute no gradient. Returns d(loss)/d(logit) and the stats.
    """
    n_pol = len(raw) - n_demo
    logit = np.clip(raw, -LOGIT_CLIP, LOGIT_CLIP)
    active = (np.abs(raw) < LOGIT_CLIP).astype(np.float64)
    sig = _sigmoid(logit)
    loss_demo = float(np.mean(_softplus(-logit[:n_demo])))
    loss_pol = float(np.mean(_softplus(logit[n_demo:])))
    dlogit = np.empty_like(logit)
    dlogit[:n_demo] = -(1.0 - sig[:n_demo]) / n_demo
    dlogit[n_demo:] = sig[n_demo:] / n_pol
    dlogit *= active
    stats = {
        "loss": loss_demo + loss_pol,
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
    demo_dd: np.ndarray,
) -> tuple[float, dict]:
    """Binary logistic loss of the modified discriminator; accumulates gradients.

    Expert samples are pushed toward label 1 through sigmoid(f + dd - log pi);
    policy samples toward label 0 through sigmoid(f - log pi). The dd values
    are inputs (no gradient flows into the classifier pair); the plain
    adversarial-IRL loss is the one with zero dd.
    """
    s, a, sn = _stacked_batches(demo_batch, policy_batch)
    n_demo = len(demo_batch)
    demo_dd = np.asarray(demo_dd, dtype=np.float64)
    demo_log_pi = np.asarray(demo_log_pi, dtype=np.float64)
    policy_log_pi = np.asarray(policy_log_pi, dtype=np.float64)

    x_g, x_h = disc._g_input(s, a), np.concatenate([sn, s])
    g_out = disc.g_net.forward(x_g)[:, 0]
    h_out = disc.h_net.forward(x_h)[:, 0]
    raw = g_out + disc.gamma * h_out[: len(s)] - h_out[len(s):]
    raw[:n_demo] += demo_dd - demo_log_pi
    raw[n_demo:] -= policy_log_pi
    dlogit, stats = _clamped_logistic(raw, n_demo)
    disc.g_net.backward(x_g, dlogit[:, None])
    disc.h_net.backward(x_h, np.concatenate([disc.gamma * dlogit, -dlogit])[:, None])
    return stats["loss"], stats


# ---------------------------------------------------------------------------
# GAIL baseline
# ---------------------------------------------------------------------------

class GailDiscriminator:
    """Plain GAN discriminator over (s, a); no reward decomposition."""

    def __init__(self, state_dim: int, action_dim: int, hidden=(64, 64), seed: int = 0):
        self.d_net = Mlp([state_dim + action_dim, *hidden, 1], seed=seed, zero_init_output=True)

    def blocks(self) -> dict:
        return {"d": self.d_net}

    def logits(self, s: np.ndarray, a: np.ndarray) -> np.ndarray:
        """D's logit of each row of (N, state_dim) states and (N, action_dim) actions."""
        return self.d_net.forward(np.concatenate([s, a], axis=1), keep=False)[:, 0]


def gail_disc_loss(gail: GailDiscriminator, demo_batch, policy_batch) -> tuple[float, dict]:
    """Standard GAN classifier loss over (s, a); accumulates gradients."""
    s, a, _ = _stacked_batches(demo_batch, policy_batch)
    x = np.concatenate([s, a], axis=1)
    dlogit, stats = _clamped_logistic(gail.d_net.forward(x)[:, 0], len(demo_batch))
    gail.d_net.backward(x, dlogit[:, None])
    return stats["loss"], stats


def gail_policy_reward(gail: GailDiscriminator, s, a) -> np.ndarray:
    """-log(1 - D(s,a)), computed through the clamped logit (so capped)."""
    logit = np.clip(gail.logits(s, a), -LOGIT_CLIP, LOGIT_CLIP)
    return _softplus(logit)


# ---------------------------------------------------------------------------
# Reward heatmap
# ---------------------------------------------------------------------------

def reward_heatmap(disc: Discriminator, grid_n: int,
                   path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate g over grid cell centers of the unit-square arena.

    Only defined for state-only g. Returns (xs, ys, values) with
    values[i, j] = g([xs[i], ys[j]]), and writes them to `path` as x,y,value
    CSV rows, x-major, floats as ``.17g`` and CRLF line ends.
    """
    if not disc.state_only_g:
        raise ValueError("reward heatmap requires a state-only reward term")
    if disc.state_dim != 2:
        raise ValueError("reward heatmap is defined for 2-d state spaces")
    if grid_n < 1:
        raise ValueError(f"grid_n must be >= 1, got {grid_n}")
    centers = (np.arange(grid_n) + 0.5) / grid_n
    xx, yy = np.meshgrid(centers, centers, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    # The last chunk takes a one-row remainder: numpy runs a one-row matmul as a
    # vector-matrix product, which rounds differently.
    bounds = [*range(0, max(len(pts) - 1, 1), HEATMAP_CHUNK), len(pts)]
    values = np.concatenate([disc.g_net.forward(pts[i:j], keep=False)[:, 0] for i, j in
                             zip(bounds, bounds[1:])]).reshape(grid_n, grid_n)
    text = [format(c, ".17g") for c in centers.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("x,y,value\r\n")
        fh.writelines(f"{x},{y},{v:.17g}\r\n" for x, row in zip(text, values.tolist())
                      for y, v in zip(text, row))
    return centers, centers, values
