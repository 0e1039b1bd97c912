"""Entropy-regularized Gaussian policy and its clipped-ratio on-policy optimizer.

The same optimizer trains the source-domain expert (against ground-truth
reward) and the adversarial generator (against the learned reward); only the
reward_fn differs. Gradients through the Gaussian log-density are analytic
and flow into the mean network / log-std vector by hand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envs import Batch, EnvSpec, rollouts
from .nets import Adam, FlatParams, Mlp, minibatches

LOG_STD_MIN, LOG_STD_MAX = -5.0, 2.0
_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class PolicyOptConfig:
    hidden: tuple[int, ...] = (64, 64)   # policy and value network widths
    entropy_coef: float = 0.01       # lambda, scales the entropy bonus
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_ratio: float = 0.2
    epochs: int = 10
    minibatch_size: int = 64
    lr: float = 3e-4
    value_lr: float = 1e-3
    grad_clip: float = 10.0          # global gradient-norm clip of both optimizers
    target_kl: float = 0.02          # stop policy epochs once exceeded

    def check_cross_fields(self) -> None:
        """The ranges a lower bound cannot state, run by `config.check_fields`."""
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("policy.gamma must be in [0, 1)")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError("policy.gae_lambda must be in [0, 1]")


class GaussianPolicy:
    """Diagonal Gaussian over actions; mean from an MLP, state-independent std.

    The initial std is half of each action dimension's half-range (clipped to the
    log-std bounds), so exploration starts at the scale of the action box.
    """

    def __init__(self, spec: EnvSpec, hidden=(64, 64), seed: int = 0):
        self.spec = spec
        self.mean_net = Mlp([spec.state_dim, *hidden, spec.action_dim], seed=seed,
                            zero_init_output=True)
        half_range = (spec.action_high - spec.action_low) / 2.0
        self.log_std = FlatParams(
            np.log(np.clip(0.5 * half_range, np.exp(LOG_STD_MIN), np.exp(LOG_STD_MAX))))

    def clipped_log_std(self) -> np.ndarray:
        # np.minimum(np.maximum(...)) is np.clip bit for bit, nan included, at less cost per call.
        return np.minimum(np.maximum(self.log_std.params, LOG_STD_MIN), LOG_STD_MAX)

    def sample_action(self, states: np.ndarray,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Draw an action for each row of (N, state_dim) states: the clipped
        (N, action_dim) actions and their (N,) log-density, from one forward pass."""
        mean = self.mean_net.forward(states, keep=False)
        log_std = self.clipped_log_std()
        std = np.exp(log_std)
        action = np.minimum(np.maximum(mean + std * rng.standard_normal(mean.shape),
                                       self.spec.action_low), self.spec.action_high)
        return action, self._log_density(mean, action, log_std, std)

    def act_deterministic(self, states: np.ndarray) -> np.ndarray:
        """The clipped mean action of each row of (N, state_dim) states."""
        mean = self.mean_net.forward(states, keep=False)
        return np.minimum(np.maximum(mean, self.spec.action_low), self.spec.action_high)

    def log_prob(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Gaussian log-density of the given actions, shape (batch,)."""
        mean = self.mean_net.forward(np.asarray(states, dtype=np.float64), keep=False)
        log_std = self.clipped_log_std()
        return self._log_density(mean, np.asarray(actions, dtype=np.float64), log_std,
                                 np.exp(log_std))

    def _log_density(self, mean: np.ndarray, actions: np.ndarray, log_std: np.ndarray,
                     std: np.ndarray) -> np.ndarray:
        """Gaussian log-density of actions around the given means, over the last axis,
        given the clipped log-std and its exp."""
        z = (actions - mean) / std
        return -0.5 * (z * z).sum(axis=-1) - log_std.sum() - 0.5 * self.spec.action_dim * _LOG_2PI

    def entropy(self) -> float:
        return float(np.sum(self.clipped_log_std()) + 0.5 * self.spec.action_dim * (1.0 + _LOG_2PI))

    def blocks(self) -> dict:
        return {"mean": self.mean_net, "log_std": self.log_std}


class ValueNet:
    def __init__(self, spec: EnvSpec, hidden=(64, 64), seed: int = 0):
        self.net = Mlp([spec.state_dim, *hidden, 1], seed=seed, zero_init_output=True)

    def predict(self, states: np.ndarray) -> np.ndarray:
        return self.net.forward(np.asarray(states, dtype=np.float64), keep=False)[..., 0]

    def blocks(self) -> dict:
        return {"value": self.net}


def clipped_grad_coeff(ratio: np.ndarray, adv: np.ndarray, clip_ratio: float) -> np.ndarray:
    """d(clipped surrogate objective)/d(log pi) per sample.

    Zero wherever the clip is active on the binding side; the sign never
    depends on a positive rescaling of the advantages.
    """
    active = np.where(adv >= 0.0, ratio <= 1.0 + clip_ratio, ratio >= 1.0 - clip_ratio)
    return np.where(active, ratio * adv, 0.0)


def compute_gae(rewards: np.ndarray, values: np.ndarray, next_values: np.ndarray,
                ends: np.ndarray, gamma: float, lam: float) -> np.ndarray:
    """Generalized advantage estimates over concatenated episodes (arrays of length T).

    Goal termination is treated as truncation: every row bootstraps from
    next_values, and only ends[t] (an episode's last row) stops advantage flow.
    """
    T = len(rewards)
    adv = np.zeros(T)
    last = 0.0
    for t in range(T - 1, -1, -1):
        delta = rewards[t] + gamma * next_values[t] - values[t]
        last = delta + gamma * lam * (0.0 if ends[t] else last)
        adv[t] = last
    return adv


class PolicyOptimizer:
    """Holds the Adam state for a (policy, value) pair across updates; config is a
    section `ExperimentConfig.validate` has checked."""

    def __init__(self, policy: GaussianPolicy, value: ValueNet, config: PolicyOptConfig):
        self.policy = policy
        self.value = value
        self.config = config
        self.policy_opt = Adam(policy.blocks().values(), lr=config.lr, clip_norm=config.grad_clip)
        self.value_opt = Adam(value.blocks().values(), lr=config.value_lr, clip_norm=config.grad_clip)

    def update(self, batch: Batch, reward_fn, rng: np.random.Generator) -> dict:
        """One MaxEnt clipped-ratio update on a rollout batch of whole episodes.

        reward_fn maps batched (s, a, s_next) to per-transition rewards;
        non-finite rewards raise. The batch must carry the log_prob of a
        stochastic rollout. Rewards and advantages are standardized per batch;
        goal termination is treated as truncation, so only `ends` stops
        advantage flow (see `compute_gae`). Returns summary statistics.
        """
        cfg = self.config
        if len(batch) == 0:
            raise ValueError("empty batch")
        if batch.log_prob is None:
            raise ValueError("batch has no log_prob: the update needs a stochastic rollout's "
                             "action log-probabilities")
        S, A, S_next, ends = batch.s, batch.a, batch.s_next, batch.ends
        old_logp = batch.log_prob

        r = np.asarray(reward_fn(S, A, S_next), dtype=np.float64)
        if not np.all(np.isfinite(r)):
            raise FloatingPointError("non-finite rewards in policy update")
        mean_reward = float(np.mean(r))
        sd = r.std()
        r = (r - r.mean()) / (sd + 1e-8) if sd > 1e-8 else np.zeros_like(r)

        v = self.value.predict(S)
        vn = self.value.predict(S_next)
        adv = compute_gae(r, v, vn, ends, cfg.gamma, cfg.gae_lambda)
        ret = adv + v

        std = adv.std()
        # Below float-noise scale the batch carries no ranking signal.
        adv = (adv - adv.mean()) / (std + 1e-8) if std > 1e-8 else np.zeros_like(adv)

        T = S.shape[0]
        approx_kl = 0.0
        for _ in range(cfg.epochs):
            kls = [self._policy_step(S[idx], A[idx], old_logp[idx], adv[idx])
                   for idx in minibatches(T, cfg.minibatch_size, rng)]
            approx_kl = float(np.mean(kls))
            if approx_kl > 1.5 * cfg.target_kl:
                break
        for _ in range(cfg.epochs):
            for idx in minibatches(T, cfg.minibatch_size, rng):
                self._value_step(S[idx], ret[idx])
        return {
            "mean_reward": mean_reward,
            "approx_kl": approx_kl,
            "entropy": self.policy.entropy(),
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
        ratio = np.exp(np.minimum(np.maximum(logp - old_logp, -30.0), 30.0))
        coeff = clipped_grad_coeff(ratio, adv, cfg.clip_ratio)
        # loss = -mean(surrogate) - lambda * H; diff and z2 become its per-row gradients
        c = (-coeff / M)[:, None]
        diff /= var
        diff *= c
        self.policy.mean_net.backward(S, diff)
        z2 -= 1.0
        z2 *= c
        log_std_grad = self.policy.log_std.grad
        log_std_grad += z2.sum(axis=0)
        log_std_grad -= cfg.entropy_coef
        self.policy_opt.step()
        params = self.policy.log_std.params
        np.minimum(np.maximum(params, LOG_STD_MIN, out=params), LOG_STD_MAX, out=params)
        return float((old_logp - logp).mean())

    def _value_step(self, S, ret) -> None:
        M = S.shape[0]
        v_out = self.value.net.forward(S)
        err = v_out[:, 0] - ret
        self.value.net.backward(S, (2.0 / M) * err[:, None])
        self.value_opt.step()


def evaluate(policy: GaussianPolicy, env, n_episodes: int) -> tuple[float, float]:
    """Mean ground-truth return and success rate (env.is_success of each episode's last
    state) of one lockstep wave of mean-action episodes."""
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    batch = rollouts(policy, env, n_episodes, deterministic=True)
    success = env.is_success(batch.s_next[batch.ends])
    return float(np.mean(batch.episode_returns())), int(success.sum()) / n_episodes
