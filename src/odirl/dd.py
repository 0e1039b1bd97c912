"""Dynamics-difference estimation from a pair of domain classifiers.

DD(s, a, s') = log p_target(s'|s, a) - log p_source(s'|s, a) is recovered
through Bayes' rule from two binary classifiers: one over (s, a, s') and one
over (s, a). Subtracting the (s, a) term cancels the marginal domain
imbalance so only the transition log-likelihood ratio remains. The estimate
is clamped and scaled by alpha before entering the discriminator.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .envs import SOURCE, TARGET, stack_transitions
from .nets import Mlp, load_params, save_params

logger = logging.getLogger(__name__)

# Classifier output convention: logits[:, 0] -> source, logits[:, 1] -> target.
CLS_SOURCE, CLS_TARGET = 0, 1


@dataclass
class DDConfig:
    hidden: tuple = (64, 64)
    dd_clip: float | None = 5.0
    input_noise_std: float = 0.03
    lr: float = 3e-4
    weight_decay: float = 3e-3
    batch_size: int = 64              # per domain; batches are class-balanced
    steps_per_iter: int = 2

    def validate(self) -> None:
        if self.dd_clip is not None and self.dd_clip <= 0:
            raise ValueError("dd_clip must be positive or None")
        if self.input_noise_std < 0:
            raise ValueError("input_noise_std must be >= 0")
        if self.batch_size < 1:
            raise ValueError("dd.batch_size must be >= 1")


class ClassifierPair:
    """The (s,a,s') and (s,a) domain classifiers, each with two output logits."""

    def __init__(self, state_dim: int, action_dim: int, hidden=(64, 64), seed: int = 0):
        self.state_dim = state_dim
        self.action_dim = action_dim
        sas_dim = 2 * state_dim + action_dim
        sa_dim = state_dim + action_dim
        # Zero output init: an untrained pair reports DD identically zero.
        self.q_sas = Mlp([sas_dim, *hidden, 2], seed=seed, zero_init_output=True)
        self.q_sa = Mlp([sa_dim, *hidden, 2], seed=seed + 1, zero_init_output=True)

    def blocks(self):
        return [self.q_sas, self.q_sa]

    def save(self, path) -> None:
        save_params(
            path,
            {"q_sas": self.q_sas.params, "q_sa": self.q_sa.params},
            meta={"q_sas": self.q_sas.meta(), "q_sa": self.q_sa.meta()},
        )

    def load(self, path) -> None:
        arrays, _ = load_params(path)
        self.q_sas.params[...] = arrays["q_sas"]
        self.q_sa.params[...] = arrays["q_sa"]
        self.q_sas.version += 1
        self.q_sa.version += 1


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _batch_features(transitions):
    s, a, sn, _ = stack_transitions(transitions)
    return np.concatenate([s, a, sn], axis=1), np.concatenate([s, a], axis=1)


def classifier_loss(
    pair: ClassifierPair,
    source_batch,
    target_batch,
    noise_std: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[float, float, float]:
    """Cross-entropy of both classifiers on a two-domain batch.

    Returns (total, loss_sas, loss_sa), each the mean negative log-probability
    of the true domain label over the combined batch, and accumulates
    gradients into both networks. Training-time Gaussian input smoothing is
    applied when noise_std > 0.
    """
    if len(source_batch) == 0 or len(target_batch) == 0:
        raise ValueError("classifier loss needs transitions from both domains")
    for t in source_batch:
        if t.domain_tag != SOURCE:
            raise ValueError("mislabeled transition in source batch")
    for t in target_batch:
        if t.domain_tag != TARGET:
            raise ValueError("mislabeled transition in target batch")

    xs_sas_src, xs_sa_src = _batch_features(source_batch)
    xs_sas_tgt, xs_sa_tgt = _batch_features(target_batch)
    x_sas = np.concatenate([xs_sas_src, xs_sas_tgt])
    x_sa = np.concatenate([xs_sa_src, xs_sa_tgt])
    labels = np.concatenate(
        [np.full(len(source_batch), CLS_SOURCE), np.full(len(target_batch), CLS_TARGET)]
    )
    if noise_std > 0.0:
        if rng is None:
            raise ValueError("rng required when input smoothing noise is enabled")
        x_sas = x_sas + rng.normal(0.0, noise_std, x_sas.shape)
        x_sa = x_sa + rng.normal(0.0, noise_std, x_sa.shape)

    n = labels.shape[0]
    onehot = np.zeros((n, 2))
    onehot[np.arange(n), labels] = 1.0

    losses = []
    for net, x in ((pair.q_sas, x_sas), (pair.q_sa, x_sa)):
        logits = net.forward(x)
        logp = _log_softmax(logits)
        losses.append(float(-logp[np.arange(n), labels].mean()))
        net.backward(x, (np.exp(logp) - onehot) / n)
    return losses[0] + losses[1], losses[0], losses[1]


def dd_value(
    pair: ClassifierPair,
    s: np.ndarray,
    a: np.ndarray,
    s_next: np.ndarray,
    config: DDConfig,
    alpha: float,
    swap_labels: bool = False,
) -> np.ndarray:
    """alpha * clamp(log-odds_sas - log-odds_sa) for a batch of transitions.

    The log-probability differences reduce to raw logit differences, so no
    exponentials are involved and the value is numerically safe everywhere.
    swap_labels queries the trained pair with source/target roles exchanged,
    which negates the estimate exactly.
    """
    s = np.atleast_2d(np.asarray(s, dtype=np.float64))
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    s_next = np.atleast_2d(np.asarray(s_next, dtype=np.float64))
    hi, lo = (CLS_SOURCE, CLS_TARGET) if swap_labels else (CLS_TARGET, CLS_SOURCE)
    z_sas = pair.q_sas.forward(np.concatenate([s, a, s_next], axis=1))
    z_sa = pair.q_sa.forward(np.concatenate([s, a], axis=1))
    raw = (z_sas[:, hi] - z_sas[:, lo]) - (z_sa[:, hi] - z_sa[:, lo])
    if config.dd_clip is not None:
        raw = np.clip(raw, -config.dd_clip, config.dd_clip)
    return alpha * raw


def dd_for_transitions(pair: ClassifierPair, transitions, config: DDConfig,
                       alpha: float) -> np.ndarray:
    s, a, sn, _ = stack_transitions(transitions)
    return dd_value(pair, s, a, sn, config, alpha)
