"""Entropy-regularized Gaussian policy and its clipped-ratio on-policy optimizer.

The same optimizer trains the source-domain expert (against ground-truth
reward) and the adversarial generator (against the learned reward); only the
reward_fn differs. Gradients through the Gaussian log-density are analytic
and flow into the mean network / log-std vector by hand.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .envs import EnvSpec, rollouts, stack_transitions
from .nets import Adam, FlatParams, Mlp, load_params, save_params

logger = logging.getLogger(__name__)

LOG_STD_MIN, LOG_STD_MAX = -5.0, 2.0
_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class PolicyOptConfig:
    hidden: tuple = (64, 64)         # policy and value network widths
    init_log_std: float | None = None
    entropy_coef: float = 0.01       # lambda, scales the entropy bonus
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_ratio: float = 0.2
    epochs: int = 10
    minibatch_size: int = 64
    lr: float = 3e-4
    value_lr: float = 1e-3
    adv_norm: bool = True
    reward_norm: bool = True         # standardize rewards per batch before GAE
    bootstrap_on_done: bool = True   # value-bootstrap through goal termination
    grad_clip: float | None = 10.0
    target_kl: float | None = 0.02   # stop policy epochs once exceeded

    def validate(self) -> None:
        if self.entropy_coef < 0:
            raise ValueError("policy.entropy_coef must be >= 0")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("policy.gamma must be in [0, 1)")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError("policy.gae_lambda must be in [0, 1]")
        for key in ("epochs", "minibatch_size"):
            if getattr(self, key) < 1:
                raise ValueError(f"policy.{key} must be >= 1")
        if self.clip_ratio <= 0:
            raise ValueError("policy.clip_ratio must be > 0")


class GaussianPolicy:
    """Diagonal Gaussian over actions; mean from an MLP, state-independent std.

    With init_log_std=None the initial std is half of each action dimension's
    half-range, so exploration starts at the scale of the action box.
    """

    def __init__(self, spec: EnvSpec, hidden=(64, 64), seed: int = 0,
                 init_log_std: float | None = None):
        self.spec = spec
        self.mean_net = Mlp([spec.state_dim, *hidden, spec.action_dim], seed=seed,
                            zero_init_output=True)
        if init_log_std is None:
            half_range = (spec.action_high - spec.action_low) / 2.0
            init = np.log(np.clip(0.5 * half_range, np.exp(LOG_STD_MIN), np.exp(LOG_STD_MAX)))
        else:
            init = np.full(spec.action_dim, float(init_log_std))
        self.log_std = FlatParams(init, name="log_std")

    def clipped_log_std(self) -> np.ndarray:
        return np.clip(self.log_std.params, LOG_STD_MIN, LOG_STD_MAX)

    def sample_action(self, states: np.ndarray,
                      rng: np.random.Generator) -> tuple[np.ndarray, float | np.ndarray]:
        """Draw actions for a (state_dim,) state or (N, state_dim) states.

        Returns the clipped actions and their log-density from the same
        forward pass: a float for one state, an (N,) array for a batch.
        """
        mean = self.mean_net.forward(np.asarray(states, dtype=np.float64))
        std = np.exp(self.clipped_log_std())
        action = np.clip(mean + std * rng.standard_normal(mean.shape),
                         self.spec.action_low, self.spec.action_high)
        logp = self._log_density(mean, action)
        return action, (float(logp) if mean.ndim == 1 else logp)

    def act_deterministic(self, states: np.ndarray) -> np.ndarray:
        """The clipped mean action of a (state_dim,) state or each row of (N, state_dim) states."""
        mean = self.mean_net.forward(np.asarray(states, dtype=np.float64))
        return np.clip(mean, self.spec.action_low, self.spec.action_high)

    def log_prob(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Gaussian log-density of the given actions, shape (batch,)."""
        mean = self.mean_net.forward(np.asarray(states, dtype=np.float64))
        return self._log_density(mean, np.asarray(actions, dtype=np.float64))

    def _log_density(self, mean: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Gaussian log-density of actions around the given means, over the last axis."""
        log_std = self.clipped_log_std()
        z = (actions - mean) / np.exp(log_std)
        return -0.5 * np.sum(z * z, axis=-1) - np.sum(log_std) - 0.5 * self.spec.action_dim * _LOG_2PI

    def entropy(self) -> float:
        return float(np.sum(self.clipped_log_std()) + 0.5 * self.spec.action_dim * (1.0 + _LOG_2PI))

    def blocks(self):
        return [self.mean_net, self.log_std]

    def save(self, path) -> None:
        save_params(
            path,
            {"mean": self.mean_net.params, "log_std": self.log_std.params},
            meta={"mean_net": self.mean_net.meta(), "kind": "gaussian_policy"},
        )

    def load(self, path) -> None:
        arrays, _ = load_params(path)
        self.mean_net.params[...] = arrays["mean"]
        self.log_std.params[...] = arrays["log_std"]
        self.mean_net.version += 1
        self.log_std.version += 1


class ValueNet:
    def __init__(self, spec: EnvSpec, hidden=(64, 64), seed: int = 0):
        self.net = Mlp([spec.state_dim, *hidden, 1], seed=seed, zero_init_output=True)

    def predict(self, states: np.ndarray) -> np.ndarray:
        out = self.net.forward(np.asarray(states, dtype=np.float64))
        return out[..., 0] if out.ndim > 1 else out

    def save(self, path) -> None:
        save_params(path, {"value": self.net.params}, meta={"net": self.net.meta()})

    def load(self, path) -> None:
        arrays, _ = load_params(path)
        self.net.params[...] = arrays["value"]
        self.net.version += 1


def clipped_grad_coeff(ratio: np.ndarray, adv: np.ndarray, clip_ratio: float) -> np.ndarray:
    """d(clipped surrogate objective)/d(log pi) per sample.

    Zero wherever the clip is active on the binding side; the sign never
    depends on a positive rescaling of the advantages.
    """
    active = np.where(adv >= 0.0, ratio <= 1.0 + clip_ratio, ratio >= 1.0 - clip_ratio)
    return np.where(active, ratio * adv, 0.0)


def compute_gae(rewards: np.ndarray, values: np.ndarray, next_values: np.ndarray,
                dones: np.ndarray, gamma: float, lam: float) -> np.ndarray:
    """Generalized advantage estimates for one episode (arrays of length T)."""
    T = len(rewards)
    adv = np.zeros(T)
    last = 0.0
    for t in range(T - 1, -1, -1):
        nonterminal = 0.0 if dones[t] else 1.0
        delta = rewards[t] + gamma * nonterminal * next_values[t] - values[t]
        last = delta + gamma * lam * nonterminal * last
        adv[t] = last
    return adv


class PolicyOptimizer:
    """Holds the Adam state for a (policy, value) pair across updates."""

    def __init__(self, policy: GaussianPolicy, value: ValueNet, config: PolicyOptConfig):
        config.validate()
        self.policy = policy
        self.value = value
        self.config = config
        self.policy_opt = Adam(policy.blocks(), lr=config.lr, clip_norm=config.grad_clip)
        self.value_opt = Adam([value.net], lr=config.value_lr, clip_norm=config.grad_clip)

    def update(self, trajectories, reward_fn, rng: np.random.Generator) -> dict:
        """One MaxEnt clipped-ratio update on a batch of trajectories.

        reward_fn maps batched (s, a, s_next) to per-transition rewards;
        non-finite rewards raise. Returns summary statistics.
        """
        cfg = self.config
        if not trajectories:
            raise ValueError("empty batch")
        trajectories = [t for t in trajectories if len(t) > 0]
        stacked = [stack_transitions(traj.transitions) for traj in trajectories]
        rewards = []
        for s, a, sn, _ in stacked:
            r = np.asarray(reward_fn(s, a, sn), dtype=np.float64)
            if not np.all(np.isfinite(r)):
                raise FloatingPointError("non-finite rewards in policy update")
            rewards.append(r)
        mean_reward = float(np.mean(np.concatenate(rewards)))
        if cfg.reward_norm:
            flat = np.concatenate(rewards)
            mu, sd = flat.mean(), flat.std()
            if sd > 1e-8:
                rewards = [(r - mu) / (sd + 1e-8) for r in rewards]
            else:
                rewards = [np.zeros_like(r) for r in rewards]

        all_s, all_a, all_old = [], [], []
        adv_chunks, ret_chunks = [], []
        for traj, (s, a, sn, d), r in zip(trajectories, stacked, rewards):
            v = self.value.predict(s)
            vn = self.value.predict(sn)
            d_eff = np.zeros_like(d) if cfg.bootstrap_on_done else d
            adv = compute_gae(r, v, vn, d_eff, cfg.gamma, cfg.gae_lambda)
            adv_chunks.append(adv)
            ret_chunks.append(adv + v)
            all_s.append(s)
            all_a.append(a)
            all_old.append(traj.log_probs)
        S = np.concatenate(all_s)
        A = np.concatenate(all_a)
        old_logp = np.concatenate(all_old)
        adv = np.concatenate(adv_chunks)
        ret = np.concatenate(ret_chunks)

        if cfg.adv_norm:
            std = adv.std()
            # Below float-noise scale the batch carries no ranking signal.
            adv = (adv - adv.mean()) / (std + 1e-8) if std > 1e-8 else np.zeros_like(adv)

        T = S.shape[0]
        approx_kl = 0.0
        for _ in range(cfg.epochs):
            perm = rng.permutation(T)
            kls = []
            for start in range(0, T, cfg.minibatch_size):
                idx = perm[start : start + cfg.minibatch_size]
                kls.append(self._policy_step(S[idx], A[idx], old_logp[idx], adv[idx]))
            approx_kl = float(np.mean(kls))
            if cfg.target_kl is not None and approx_kl > 1.5 * cfg.target_kl:
                break
        for _ in range(cfg.epochs):
            perm = rng.permutation(T)
            for start in range(0, T, cfg.minibatch_size):
                idx = perm[start : start + cfg.minibatch_size]
                self._value_step(S[idx], ret[idx])
        return {
            "mean_reward": mean_reward,
            "approx_kl": approx_kl,
            "entropy": self.policy.entropy(),
            "n_samples": T,
        }

    def _policy_step(self, S, A, old_logp, adv) -> float:
        cfg = self.config
        M = S.shape[0]
        mean = self.policy.mean_net.forward(S)
        log_std = self.policy.clipped_log_std()
        var = np.exp(2.0 * log_std)
        diff = A - mean
        z2 = diff * diff / var
        logp = -0.5 * z2.sum(axis=1) - log_std.sum() - 0.5 * A.shape[1] * _LOG_2PI
        ratio = np.exp(np.clip(logp - old_logp, -30.0, 30.0))
        coeff = clipped_grad_coeff(ratio, adv, cfg.clip_ratio)
        # loss = -mean(surrogate) - lambda * H
        c = -coeff / M
        upstream_mean = c[:, None] * (diff / var)
        self.policy.mean_net.backward(S, upstream_mean)
        self.policy.log_std.grad += (c[:, None] * (z2 - 1.0)).sum(axis=0)
        self.policy.log_std.grad += -cfg.entropy_coef
        self.policy_opt.step()
        np.clip(self.policy.log_std.params, LOG_STD_MIN, LOG_STD_MAX,
                out=self.policy.log_std.params)
        return float(np.mean(old_logp - logp))

    def _value_step(self, S, ret) -> None:
        M = S.shape[0]
        v_out = self.value.net.forward(S)
        err = v_out[:, 0] - ret
        self.value.net.backward(S, (2.0 / M) * err[:, None])
        self.value_opt.step()


def evaluate(policy: GaussianPolicy, env, n_episodes: int,
             horizon: int | None = None) -> tuple[float, float]:
    """Mean ground-truth return and success rate of one lockstep wave of mean-action episodes."""
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    trajs = rollouts(policy, env, n_episodes, horizon or env.spec.horizon, deterministic=True)
    last = [traj.transitions[-1] for traj in trajs]
    success = np.array([t.done for t in last]) | env.is_success(np.array([t.s_next for t in last]))
    return float(np.mean([traj.gt_return() for traj in trajs])), int(success.sum()) / n_episodes
