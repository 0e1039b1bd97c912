"""Dynamics-difference estimation from a pair of domain classifiers.

DD(s, a, s') = log p_target(s'|s, a) - log p_source(s'|s, a) is recovered
through Bayes' rule from two binary classifiers: one over (s, a, s') and one
over (s, a). Subtracting the (s, a) term cancels the marginal domain
imbalance so only the transition log-likelihood ratio remains. The estimate
is clamped and scaled by alpha before entering the discriminator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envs import SOURCE, TARGET, Batch
from .nets import Mlp

# Classifier output convention: logits[:, 0] -> source, logits[:, 1] -> target.
CLS_SOURCE, CLS_TARGET = 0, 1


@dataclass
class DDConfig:
    hidden: tuple[int, ...] = (64, 64)
    dd_clip: float = 5.0
    input_noise_std: float = 0.03
    lr: float = 3e-4
    weight_decay: float = 3e-3
    batch_size: int = 64              # per domain; batches are class-balanced
    steps_per_iter: int = 2


class ClassifierPair:
    """The (s,a,s') and (s,a) domain classifiers, each with two output logits."""

    def __init__(self, state_dim: int, action_dim: int, hidden=(64, 64), seed: int = 0):
        sas_dim = 2 * state_dim + action_dim
        sa_dim = state_dim + action_dim
        # Zero output init: an untrained pair reports DD identically zero.
        self.q_sas = Mlp([sas_dim, *hidden, 2], seed=seed, zero_init_output=True)
        self.q_sa = Mlp([sa_dim, *hidden, 2], seed=seed + 1, zero_init_output=True)

    def blocks(self) -> dict:
        return {"q_sas": self.q_sas, "q_sa": self.q_sa}


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def classifier_loss(
    pair: ClassifierPair,
    source_batch,
    target_batch,
    noise_std: float,
    rng: np.random.Generator,
) -> tuple[float, float, float]:
    """Cross-entropy of both classifiers on a two-domain batch.

    Returns (total, loss_sas, loss_sa), each the mean negative log-probability
    of the true domain label over the combined batch, and accumulates
    gradients into both networks. Both inputs get Gaussian smoothing noise of
    std noise_std from rng: an (n, 2*state_dim + action_dim) draw for (s, a, s'),
    then an (n, state_dim + action_dim) draw for (s, a), over all n rows; at
    noise_std 0 the draws are exact zeros but still advance rng. Each batch is
    a ``Batch`` or a list of ``Transition`` rows (packed with ``Batch.of``).
    """
    if len(source_batch) == 0 or len(target_batch) == 0:
        raise ValueError("classifier loss needs transitions from both domains")
    source_batch, target_batch = Batch.of(source_batch), Batch.of(target_batch)
    if source_batch.domain_tag != SOURCE or target_batch.domain_tag != TARGET:
        raise ValueError("mislabeled batch: need a source batch, then a target batch")

    s, a, sn = (np.concatenate([getattr(source_batch, k), getattr(target_batch, k)])
                for k in ("s", "a", "s_next"))
    x_sas = np.concatenate([s, a, sn], axis=1)
    x_sa = np.concatenate([s, a], axis=1)
    labels = np.concatenate(
        [np.full(len(source_batch), CLS_SOURCE), np.full(len(target_batch), CLS_TARGET)]
    )
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


def dd_for_transitions(pair: ClassifierPair, batch: Batch, config: DDConfig,
                       alpha: float) -> np.ndarray:
    """alpha * clip(log-odds_sas - log-odds_sa, -dd_clip, dd_clip) for each batch row.

    The log-probability differences reduce to raw logit differences, so no
    exponentials are involved and the value is numerically safe everywhere.
    """
    z_sas = pair.q_sas.forward(np.concatenate([batch.s, batch.a, batch.s_next], axis=1),
                               keep=False)
    z_sa = pair.q_sa.forward(np.concatenate([batch.s, batch.a], axis=1), keep=False)
    raw = (z_sas[:, CLS_TARGET] - z_sas[:, CLS_SOURCE]) - (z_sa[:, CLS_TARGET] - z_sa[:, CLS_SOURCE])
    return alpha * np.clip(raw, -config.dd_clip, config.dd_clip)
