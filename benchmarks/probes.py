"""Kernel probes: per-call wall time of the numpy kernels beneath the training loop.

Each probe reports its median per-call time in microseconds together with the
computed flops and bytes of one call, so a change of time can be read
against a change of work.
"""

from __future__ import annotations

import statistics

import numpy as np

from odirl.dd import ClassifierPair, classifier_loss
from odirl.envs import (LinkChainConfig, PointMazeConfig, Transition, make_linkchain_pair,
                        make_pointmaze_pair)
from odirl.irl import Discriminator, disc_loss
from odirl.nets import Adam, Mlp
from tracing import mlp_cost, perf

# Link-chain policy shape: 6-d state in, 3-d action out.
_IN, _OUT = 6, 3
_BATCH_S = 0.02        # minimum wall time of one timed batch of calls
_BATCHES = 5


def time_call(fn) -> float:
    """Median per-call seconds over _BATCHES batches, each at least _BATCH_S long."""
    fn()
    n, elapsed = 1, 0.0
    while True:
        start = perf()
        for _ in range(n):
            fn()
        elapsed = perf() - start
        if elapsed >= _BATCH_S:
            break
        n *= 2
    per_call = [elapsed / n]
    for _ in range(_BATCHES - 1):
        start = perf()
        for _ in range(n):
            fn()
        per_call.append((perf() - start) / n)
    return statistics.median(per_call)


def _transitions(rng, n, state_dim, action_dim, tag):
    return [Transition(s=rng.uniform(0, 1, state_dim), a=rng.uniform(-0.08, 0.08, action_dim),
                       s_next=rng.uniform(0, 1, state_dim), done=False, domain_tag=tag,
                       gt_reward=0.0)
            for _ in range(n)]


def run_probes(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    out = {}

    def record(name, seconds, flops=None, nbytes=None):
        out[f"probe.{name}_us"] = seconds * 1e6
        if flops is not None:
            out[f"probe.{name}.flops"] = flops
            out[f"probe.{name}.bytes"] = nbytes

    for h in (64, 256):
        sizes = [_IN, h, h, _OUT]
        net = Mlp(sizes, seed=seed)
        for b in (1, 64, 1024):
            x = rng.normal(size=(b, _IN)) if b > 1 else rng.normal(size=_IN)
            cost = mlp_cost(sizes, b)
            record(f"mlp_forward.h{h}.b{b}", time_call(lambda: net.forward(x)),
                   cost["forward_flops"], cost["forward_bytes"])
        for b in (64, 1024):
            x = rng.normal(size=(b, _IN))
            up = rng.normal(size=(b, _OUT))
            net.forward(x)
            cost = mlp_cost(sizes, b)
            record(f"mlp_backward.h{h}.b{b}", time_call(lambda: net.backward(x, up)),
                   cost["backward_flops"], cost["backward_bytes"])
        opt = Adam([net], lr=1e-9, clip_norm=10.0)
        n_params = net.params.size
        # ~12 flops per parameter; reads p, g, m, v and writes all four.
        record(f"adam_step.h{h}", time_call(opt.step), 12 * n_params, 64 * n_params)

    _, maze = make_pointmaze_pair(PointMazeConfig(), 0.5, 0.75, seed, seed + 1)
    maze_state = np.array([0.4, 0.5])
    maze_action = np.array([0.08, 0.0])     # into the target wall: exercises the clip path
    record("env_step.pointmaze", time_call(lambda: maze.step(maze_state, maze_action)))
    _, chain = make_linkchain_pair(LinkChainConfig(), (False, False, True), seed, seed + 1)
    chain_state = rng.uniform(-0.5, 0.5, 6)
    chain_action = rng.uniform(-1.0, 1.0, 3)
    record("env_step.linkchain", time_call(lambda: chain.step(chain_state, chain_action)))

    disc = Discriminator(2, 2, gamma=0.99, state_only_g=True, hidden=(64, 64), seed=seed)
    demo = _transitions(rng, 320, 2, 2, "source")
    pol = _transitions(rng, 320, 2, 2, "target")
    demo_logp, pol_logp, demo_dd = rng.normal(size=320), rng.normal(size=320), rng.normal(size=320)
    g_cost, h_cost = mlp_cost([2, 64, 64, 1], 640), mlp_cost([2, 64, 64, 1], 1280)
    record("disc_loss.b320",
           time_call(lambda: disc_loss(disc, demo, pol, demo_logp, pol_logp, demo_dd)),
           sum(c["forward_flops"] + c["backward_flops"] for c in (g_cost, h_cost)),
           sum(c["forward_bytes"] + c["backward_bytes"] for c in (g_cost, h_cost)))

    pair = ClassifierPair(2, 2, hidden=(64, 64), seed=seed)
    src = _transitions(rng, 64, 2, 2, "source")
    tgt = _transitions(rng, 64, 2, 2, "target")
    sas_cost, sa_cost = mlp_cost([6, 64, 64, 2], 128), mlp_cost([4, 64, 64, 2], 128)
    record("classifier_loss.b64",
           time_call(lambda: classifier_loss(pair, src, tgt, noise_std=0.03, rng=rng)),
           sum(c["forward_flops"] + c["backward_flops"] for c in (sas_cost, sa_cost)),
           sum(c["forward_bytes"] + c["backward_bytes"] for c in (sas_cost, sa_cost)))
    return out
