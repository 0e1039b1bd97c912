"""Experiment orchestration: one recipe per method, looked up once in `RECIPES`.

- odirl (`_run_adversarial`): `_start_imitation`, `_agent`, `_airl_phase` at
  cfg.alpha before each update of `_train_target_policy`, `_finish_run`;
- airl: the same at alpha 0 (same code path and RNG draws, so bit-exact);
- gail: the same with `_gail_phase` (no classifiers, no source rollouts);
- airl_source_transfer: `_start_imitation`, adversarial IRL in the source
  domain, `_train_on_g` (a fresh target agent on the learned g), `_finish_run`;
- expert_transfer: `_setup`, the expert, `_run_dir`, one evaluation, `_finish_run`.
"""

from __future__ import annotations

import csv
import json
import logging
from contextlib import closing
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .buffers import DemoSet, ReplayBuffer, load_demos, save_demos
from .config import ExperimentConfig, load_config, save_config
from .dd import ClassifierPair, classifier_loss, dd_for_transitions
from .envs import (SOURCE, TARGET, Batch, LinkChainEnv, PointMazeEnv, rollout, rollouts,
                   write_trajectory_csv)
from .irl import (Discriminator, GailDiscriminator, checkpoint_meta, disc_loss, gail_disc_loss,
                  gail_policy_reward, policy_reward, reward_heatmap)
from .nets import Adam, load_blocks, minibatches, save_blocks
from .policy import GaussianPolicy, PolicyOptConfig, PolicyOptimizer, ValueNet, evaluate

logger = logging.getLogger(__name__)

PROGRESS_COLUMNS = [
    "iteration", "target_steps", "source_steps", "disc_loss", "classifier_loss",
    "mean_dd", "policy_entropy", "gt_return", "success_rate",
    "loss_sas", "loss_sa", "std_dd", "demo_acc", "policy_acc",
]


class ProgressWriter:
    """CSV logger with a fixed column set and deterministic (.10g) float formatting."""

    def __init__(self, path, columns=PROGRESS_COLUMNS):
        self._fh = open(path, "w", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(columns)
        self._columns = columns

    def write(self, **fields) -> None:
        unknown = sorted(fields.keys() - self._columns)
        if unknown:
            raise ValueError(f"progress field {unknown[0]!r} is not a column of {self._fh.name}")
        row = []
        for col in self._columns:
            val = fields.get(col)
            if val is None:
                row.append("")
            elif isinstance(val, (int, np.integer)):
                row.append(str(int(val)))
            else:
                row.append(format(float(val), ".10g"))
        self._writer.writerow(row)
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def _setup(cfg: ExperimentConfig):
    """Validate cfg, then (seeds, rngs, envs) for a run of it: named integer
    seeds and RNG streams derived from cfg.seed, and `build_envs`' four envs.

    Rollouts consume two kinds of stream (see ``envs.rollouts``):

    - ``actions`` (``misc`` for demo collection): each step of a stochastic
      rollout draws one (live rows, action_dim) standard normal, one row per
      running episode in launch order; deterministic rollouts draw nothing.
    - Each env's own stream (seeded from ``env_*``): each rollout draws one
      (n, state_dim) uniform reset for its n episodes, then each point-maze
      step one (live rows, 2) noise normal; the link chain draws no noise.

    So a one-episode rollout draws exactly what a 1-D reset and step would.
    Each classifier step draws from ``classifier`` its source row indices, then its
    target row indices, then ``classifier_loss``'s two smoothing normals.
    """
    cfg.validate()
    ints = np.random.SeedSequence(cfg.seed).generate_state(24)
    # The streams take ints[16..20]; ints[8..12], [15] and [21..23] seed nothing.
    names = ["env_source", "env_target", "env_eval_source", "env_eval_target",
             "policy_init", "value_init", "disc_init", "classifier_init",
             "policy2_init", "value2_init"]
    seeds = {name: int(ints[i]) for i, name in zip([*range(8), 13, 14], names)}
    rngs = {name: np.random.default_rng(int(ints[16 + j]))
            for j, name in enumerate(["actions", "classifier", "disc", "policy_update", "misc"])}
    return seeds, rngs, build_envs(cfg, seeds)


def _run_dir(cfg: ExperimentConfig) -> Path:
    """cfg.out_dir, made with the run's resolved config.yaml once its inputs are checked."""
    save_config(cfg, Path(cfg.out_dir) / "config.yaml")       # which creates out_dir
    return Path(cfg.out_dir)


def _input_path(cfg: ExperimentConfig, where: str = "") -> str:
    """The file cfg.method reads: expert_path for expert_transfer, else demos_path.
    An empty path or one that is no file raises a ValueError naming the key after where."""
    key = "expert_path" if cfg.method == "expert_transfer" else "demos_path"
    if not (path := getattr(cfg, key)) or not Path(path).is_file():
        raise ValueError(f"{where}{key} is required for {cfg.method}: {path!r} is not a file")
    return path


def _start_imitation(cfg: ExperimentConfig):
    """`_setup`, then the demos, checked before `_run_dir`; (demos, out, seeds, rngs, envs)."""
    seeds, rngs, envs = _setup(cfg)
    demos = load_demos(_input_path(cfg), envs[0].spec, cfg.env_config_hash())
    return demos, _run_dir(cfg), seeds, rngs, envs


def _demo_provenance(cfg: ExperimentConfig, demos: DemoSet) -> dict:
    """summary.json's record of the demos' env config hash and expert seed, next to
    the run's own env config hash: a run on demos recorded under another config shows it."""
    return dict(env_config_hash=cfg.env_config_hash(), demos_env_config_hash=demos.env_config_hash,
                demos_expert_seed=demos.expert_seed)


def build_envs(cfg: ExperimentConfig, seeds: dict):
    """(source, target, source_eval, target_eval) instances for the config."""
    env_cls = PointMazeEnv if cfg.task == "pointmaze" else LinkChainEnv
    return tuple(env_cls(cfg.env_config(), tag, seeds[name]) for tag, name in (
        (SOURCE, "env_source"), (TARGET, "env_target"),
        (SOURCE, "env_eval_source"), (TARGET, "env_eval_target")))


def collect_batch(policy, env, batch_steps: int, rng) -> Batch:
    """Roll lockstep waves of full episodes until at least batch_steps transitions are gathered.

    With n transitions gathered, a wave launches ceil((batch_steps - n) / horizon)
    episodes, so every episode starts with fewer than batch_steps transitions
    before it (earlier episodes counted in full): given the same episode
    lengths, the batch holds exactly the episodes that rolling one episode at
    a time until batch_steps would, and at most batch_steps + horizon - 1 transitions.
    """
    waves, n = [], 0
    while n < batch_steps:
        waves.append(rollouts(policy, env, -(-(batch_steps - n) // env.spec.horizon), rng))
        n += len(waves[-1])
    return Batch.concat(waves)


def _agent(cfg, spec, policy_seed: int, value_seed: int, opt_cfg: PolicyOptConfig):
    """A fresh (policy, value, optimizer) triple."""
    policy = GaussianPolicy(spec, hidden=cfg.policy.hidden, seed=policy_seed)
    value = ValueNet(spec, hidden=cfg.policy.hidden, seed=value_seed)
    return policy, value, PolicyOptimizer(policy, value, opt_cfg)


def _load_policy(cfg, spec, path) -> tuple[GaussianPolicy, dict]:
    """The policy checkpoint at path, and its meta; it sets every parameter, so any seed will do."""
    policy = GaussianPolicy(spec, hidden=cfg.policy.hidden)
    return policy, load_blocks(path, policy.blocks())


def _final_artifacts(cfg, out: Path, policy, src_eval, tgt_eval) -> None:
    """Dump final-policy evaluation trajectories in both domains."""
    for name, env in (("target", tgt_eval), ("source", src_eval)):
        batch = rollouts(policy, env, cfg.final_eval_trajectories, deterministic=True)
        write_trajectory_csv(out / f"final_eval_{name}.csv", batch)


def _train_target_policy(cfg, out: Path, policy, popt, tgt, tgt_eval, reward_fn, rngs,
                         before_update) -> tuple[int, tuple]:
    """Train policy in tgt: each iteration t = 1..cfg.steps collects a batch,
    runs before_update(t, batch), which returns its work's progress.csv
    fields, updates on reward_fn, evaluates every eval_every iterations and at
    the last one, then writes a progress.csv row and, every checkpoint_every-th
    iteration (0: never), checkpoints/policy_NNNNNN.bin. Returns (target steps,
    the last row's (return, success rate))."""
    target_steps = 0
    with closing(ProgressWriter(out / "progress.csv")) as writer:
        for t in range(1, cfg.steps + 1):
            batch = collect_batch(policy, tgt, cfg.batch_steps, rngs["actions"])
            target_steps += len(batch)
            fields = before_update(t, batch)
            pstats = popt.update(batch, reward_fn, rngs["policy_update"])
            gt_return = success = None
            if t % cfg.eval_every == 0 or t == cfg.steps:
                gt_return, success = evaluate(policy, tgt_eval, cfg.eval_episodes)
                logger.info("%s iter %d: return %.3f success %.2f",
                            cfg.method, t, gt_return, success)
            writer.write(iteration=t, target_steps=target_steps, policy_entropy=pstats["entropy"],
                         gt_return=gt_return, success_rate=success, **fields)
            if cfg.checkpoint_every and t % cfg.checkpoint_every == 0:
                (out / "checkpoints").mkdir(exist_ok=True)
                save_blocks(out / "checkpoints" / f"policy_{t:06d}.bin", policy.blocks())
    return target_steps, (gt_return, success)


def _finish_run(cfg, out: Path, policy, src_eval, tgt_eval, checkpoints: dict, final: tuple,
                alpha, **counts) -> Path:
    """Final checkpoints, checkpoints["disc"]'s heatmap, final-policy artifacts and summary.json.

    checkpoints maps a file stem to the trainable whose blocks are saved there;
    final is the (return, success rate) of the last progress row, which evaluated the final policy.
    """
    for name, net in checkpoints.items():
        (out / "checkpoints").mkdir(exist_ok=True)
        save_blocks(out / "checkpoints" / f"{name}_final.bin", net.blocks(), **checkpoint_meta(net))
    disc = checkpoints.get("disc")
    if disc is not None and cfg.task == "pointmaze" and cfg.disc.state_only_g:
        reward_heatmap(disc, cfg.heatmap_grid, out / "heatmap.csv")
    _final_artifacts(cfg, out, policy, src_eval, tgt_eval)
    with open(out / "summary.json", "w") as fh:
        json.dump(dict(method=cfg.method, task=cfg.task, seed=cfg.seed, alpha=alpha,
                       final_gt_return=final[0], final_success_rate=final[1],
                       **counts), fh, indent=2, sort_keys=True)
    return out


# ---------------------------------------------------------------------------
# Expert training and demo collection
# ---------------------------------------------------------------------------

def train_expert(cfg: ExperimentConfig) -> Path:
    """Train the source-domain expert against ground-truth reward, into cfg.out_dir."""
    seeds, rngs, (src, _, src_eval, _) = _setup(cfg)
    out = _run_dir(cfg)
    policy, _, popt = _agent(cfg, src.spec, seeds["policy_init"], seeds["value_init"],
                             replace(cfg.policy, entropy_coef=cfg.expert.entropy_coef))
    reward_fn = lambda s, a, sn: src.ground_truth_reward(sn)  # noqa: E731

    path = out / "expert_policy.bin"
    best_score = -np.inf
    with closing(ProgressWriter(out / "expert_curve.csv",
                                ["iteration", "gt_return", "success_rate", "entropy"])) as writer:
        for t in range(1, cfg.expert.steps + 1):
            batch = collect_batch(policy, src, cfg.expert.batch_steps, rngs["actions"])
            stats = popt.update(batch, reward_fn, rngs["policy_update"])
            if t % cfg.eval_every == 0 or t == cfg.expert.steps:
                ret, succ = evaluate(policy, src_eval, cfg.eval_episodes)
                writer.write(iteration=t, gt_return=ret, success_rate=succ, entropy=stats["entropy"])
                logger.info("expert iter %d: return %.3f success %.2f", t, ret, succ)
                score = succ + 0.01 * ret  # success first, return breaks ties
                if score >= best_score:
                    best_score = score
                    save_blocks(path, policy.blocks(), expert_seed=cfg.seed)
    save_blocks(out / "expert_policy_final.bin", policy.blocks(), expert_seed=cfg.seed)
    return path


def collect_demos(cfg: ExperimentConfig, expert_path, out_path) -> DemoSet:
    """Roll the trained expert in the source domain; save cfg.expert.n_demo_episodes episodes."""
    _, rngs, (src, _, _, _) = _setup(cfg)
    n_episodes = cfg.expert.n_demo_episodes
    policy, meta = _load_policy(cfg, src.spec, expert_path)
    if not isinstance(meta, dict) or not isinstance(expert_seed := meta.get("expert_seed"), int):
        raise ValueError(f"{expert_path}: no integer 'expert_seed' in the checkpoint meta")
    episodes, attempts = [], 0
    keep_success_only = cfg.expert.demo_success_only and cfg.task == "pointmaze"
    while len(episodes) < n_episodes and attempts < 20 * n_episodes:
        attempts += 1
        episode = rollout(policy, src, rngs["misc"])
        if keep_success_only and not episode.done[-1]:
            continue
        episodes.append(episode)
    if len(episodes) < n_episodes:
        raise RuntimeError(
            f"collected only {len(episodes)}/{n_episodes} demo episodes; expert too weak"
        )
    demos = DemoSet(Batch.concat(episodes), env_config_hash=cfg.env_config_hash(),
                    expert_seed=expert_seed, horizon=src.spec.horizon)
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    save_demos(demos, out_path)
    logger.info("saved %d demo episodes (%d transitions) to %s", len(episodes), len(demos),
                out_path)
    return demos


# ---------------------------------------------------------------------------
# Discriminator phases and method recipes
# ---------------------------------------------------------------------------

def _airl_discriminator(cfg, spec, seed: int):
    """The AIRL discriminator (reward g + shaping h) and its optimizer."""
    disc = Discriminator(spec.state_dim, spec.action_dim, gamma=cfg.policy.gamma,
                         state_only_g=cfg.disc.state_only_g, hidden=cfg.disc.hidden,
                         seed=seed)
    return disc, Adam(disc.blocks().values(), lr=cfg.disc.lr, weight_decay=cfg.disc.weight_decay)


def _airl_reward_fn(disc, policy):
    return lambda s, a, sn: policy_reward(disc, s, a, sn, policy.log_prob(s, a))


def _airl_minibatch_loss(disc, policy, demo_batch, pol_batch, demo_dd):
    """The minibatch loss of `_train_discriminator` for disc_loss over one
    phase's batches; the demo logits carry the demo rows' DD. log pi of both
    batches is computed here, once per phase (the policy is frozen through
    it), and each minibatch slices it and the DD."""
    demo_logp = policy.log_prob(demo_batch.s, demo_batch.a)
    pol_logp = policy.log_prob(pol_batch.s, pol_batch.a)

    def minibatch_loss(idx):
        return disc_loss(disc, demo_batch.rows(idx), pol_batch.rows(idx),
                         demo_logp[idx], pol_logp[idx], demo_dd[idx])
    return minibatch_loss


def _train_discriminator(minibatch_loss, disc_opt, n: int, epochs: int, minibatch_size: int,
                         rng) -> tuple[float, float, float]:
    """Shuffled minibatch epochs over equal-size demo and policy batches of n rows.

    minibatch_loss(idx) returns the loss (which accumulates gradients) and
    stats of the minibatch at the given row indices. Returns the mean loss,
    demo accuracy and policy accuracy over all minibatches.
    """
    d_losses, demo_accs, pol_accs = [], [], []
    for _ in range(epochs):
        for idx in minibatches(n, minibatch_size, rng):
            _, stats = minibatch_loss(idx)
            disc_opt.step()
            d_losses.append(stats["loss"])
            demo_accs.append(stats["demo_acc"])
            pol_accs.append(stats["policy_acc"])
    return float(np.mean(d_losses)), float(np.mean(demo_accs)), float(np.mean(pol_accs))


def _airl_phase(cfg, seeds, rngs, src, tgt, demos: DemoSet, policy, alpha: float):
    """AIRL with alpha * DD on the demo logits. Each step puts a source episode into
    the source buffer every r-th iteration; once that holds rows, it runs the classifier
    steps; then it takes the DD of every demo row and reads the sampled rows' DD from it."""
    disc, disc_opt = _airl_discriminator(cfg, tgt.spec, seeds["disc_init"])
    pair = ClassifierPair(tgt.spec.state_dim, tgt.spec.action_dim,
                          hidden=cfg.dd.hidden, seed=seeds["classifier_init"])
    cls_opt = Adam(pair.blocks().values(), lr=cfg.dd.lr, weight_decay=cfg.dd.weight_decay)
    # steps // r episodes, which may be 0
    b_src = ReplayBuffer(max(1, cfg.steps // cfg.r * src.spec.horizon), src.domain_tag)
    counts = {"source_steps": 0, "source_episodes": 0}

    def step(t, b_tgt, demo_idx, demo_batch, pol_batch):
        if t % cfg.r == 0:
            episode = rollout(policy, src, rngs["actions"])
            b_src.push(episode)
            counts["source_steps"] += len(episode)
            counts["source_episodes"] += 1
        fields = {"source_steps": counts["source_steps"]}
        if len(b_src) > 0:
            for _ in range(cfg.dd.steps_per_iter):
                sb = b_src.sample(cfg.dd.batch_size, rngs["classifier"])
                tb = b_tgt.sample(cfg.dd.batch_size, rngs["classifier"])
                cls_total, l_sas, l_sa = classifier_loss(
                    pair, sb, tb, noise_std=cfg.dd.input_noise_std, rng=rngs["classifier"])
                cls_opt.step()
            fields.update(classifier_loss=cls_total, loss_sas=l_sas, loss_sa=l_sa)
        dd_all = dd_for_transitions(pair, demos.batch, cfg.dd, alpha)
        fields.update(mean_dd=float(dd_all.mean()), std_dd=float(dd_all.std()))
        return fields, _airl_minibatch_loss(disc, policy, demo_batch, pol_batch, dd_all[demo_idx])

    return ({"disc": disc, "classifiers": pair}, _airl_reward_fn(disc, policy), disc_opt, step,
            counts)


def _gail_phase(cfg, seeds, rngs, src, tgt, demos: DemoSet, policy):
    """GAN imitation: no classifiers, no source rollouts, a reward that reads no log pi."""
    gail = GailDiscriminator(tgt.spec.state_dim, tgt.spec.action_dim,
                             hidden=cfg.disc.hidden, seed=seeds["disc_init"])
    disc_opt = Adam(gail.blocks().values(), lr=cfg.disc.lr, weight_decay=cfg.disc.weight_decay)

    def step(t, b_tgt, demo_idx, demo_batch, pol_batch):
        return {"source_steps": 0}, lambda idx: gail_disc_loss(gail, demo_batch.rows(idx),
                                                                pol_batch.rows(idx))

    return ({"gail": gail}, lambda s, a, sn: gail_policy_reward(gail, s, a), disc_opt, step,
            {"source_steps": 0, "source_episodes": 0})


def run_experiment(cfg: ExperimentConfig) -> Path:
    """Run cfg.method's recipe (`RECIPES`, keyed by config.METHODS) into cfg.out_dir."""
    return RECIPES[cfg.method](cfg)


def _run_adversarial(cfg: ExperimentConfig, alpha: float, phase) -> Path:
    """A fresh target agent with a discriminator phase before each update.

    phase(cfg, seeds, rngs, src, tgt, demos, policy) returns (nets, reward_fn, disc_opt,
    step, source counts). Each iteration pushes its batch into the target buffer and draws
    a buffer batch and a demo batch of its size from rngs["disc"]; step(t, buffer, demo_idx,
    demo_batch, pol_batch) does the phase's own work and returns its progress fields and
    the minibatch loss for `_train_discriminator`. alpha goes to summary.json.
    """
    demos, out, seeds, rngs, (src, tgt, src_eval, tgt_eval) = _start_imitation(cfg)
    policy, value, popt = _agent(cfg, tgt.spec, seeds["policy_init"], seeds["value_init"],
                                 cfg.policy)
    nets, reward_fn, disc_opt, step, counts = phase(cfg, seeds, rngs, src, tgt, demos, policy)
    # collect_batch's bound on the rows of each step
    b_tgt = ReplayBuffer(cfg.steps * (cfg.batch_steps + tgt.spec.horizon - 1), tgt.domain_tag)

    def before_update(t, batch):
        b_tgt.push(batch)
        pol_batch = b_tgt.sample(len(batch), rngs["disc"])
        demo_idx, demo_batch = demos.sample(len(batch), rngs["disc"])
        fields, minibatch_loss = step(t, b_tgt, demo_idx, demo_batch, pol_batch)
        d_loss, demo_acc, pol_acc = _train_discriminator(
            minibatch_loss, disc_opt, len(pol_batch), cfg.disc.epochs, cfg.disc.minibatch_size,
            rngs["disc"])
        return dict(fields, disc_loss=d_loss, demo_acc=demo_acc, policy_acc=pol_acc)

    target_steps, final = _train_target_policy(cfg, out, policy, popt, tgt, tgt_eval, reward_fn,
                                               rngs, before_update)
    return _finish_run(cfg, out, policy, src_eval, tgt_eval,
                       {"policy": policy, "value": value, **nets}, final, alpha,
                       target_steps=target_steps, **counts, **_demo_provenance(cfg, demos))


def _run_expert_transfer(cfg: ExperimentConfig) -> Path:
    """Evaluate the source expert directly in the target domain; no training."""
    _, _, (_, tgt, src_eval, tgt_eval) = _setup(cfg)
    policy, _ = _load_policy(cfg, tgt.spec, _input_path(cfg))
    out = _run_dir(cfg)
    with closing(ProgressWriter(out / "progress.csv")) as writer:
        gt_return, success = evaluate(policy, tgt_eval, cfg.eval_episodes)
        writer.write(iteration=0, target_steps=0, source_steps=0,
                     policy_entropy=policy.entropy(), gt_return=gt_return, success_rate=success)
    return _finish_run(cfg, out, policy, src_eval, tgt_eval, {}, (gt_return, success), None,
                       target_steps=0, source_steps=0, source_episodes=0)


def _run_airl_source_transfer(cfg: ExperimentConfig) -> Path:
    """Adversarial IRL in the source domain on the same source budget, then
    the transferable reward term g trains a fresh target policy."""
    demos, out, seeds, rngs, (src, tgt, src_eval, tgt_eval) = _start_imitation(cfg)

    # Phase 1: source-domain adversarial IRL (zero DD), budget-matched to the main
    # method's source episode count, with an r-fold gradient-step multiplier.
    policy, _, popt = _agent(cfg, src.spec, seeds["policy_init"], seeds["value_init"],
                             replace(cfg.policy, epochs=cfg.policy.epochs * cfg.r))
    disc, disc_opt = _airl_discriminator(cfg, src.spec, seeds["disc_init"])
    source_steps = source_episodes = 0
    with closing(ProgressWriter(out / "source_phase.csv",
                                ["iteration", "source_steps", "disc_loss"])) as phase_writer:
        for t in range(1, cfg.steps // cfg.r + 1):
            episode = rollout(policy, src, rngs["actions"])
            source_steps += len(episode)
            source_episodes += 1
            _, demo_batch = demos.sample(len(episode), rngs["disc"])
            d_loss, _, _ = _train_discriminator(
                _airl_minibatch_loss(disc, policy, demo_batch, episode, np.zeros(len(episode))),
                disc_opt, len(episode), cfg.disc.epochs * cfg.r, cfg.disc.minibatch_size,
                rngs["disc"])
            popt.update(episode, _airl_reward_fn(disc, policy), rngs["policy_update"])
            phase_writer.write(iteration=t, source_steps=source_steps, disc_loss=d_loss)

    policy2, target_steps, final = _train_on_g(cfg, out, seeds, rngs, tgt, tgt_eval, disc,
                                               source_steps)
    return _finish_run(cfg, out, policy2, src_eval, tgt_eval, {"policy": policy2, "disc": disc},
                       final, None, target_steps=target_steps, source_steps=source_steps,
                       source_episodes=source_episodes, **_demo_provenance(cfg, demos))


def _train_on_g(cfg, out: Path, seeds, rngs, tgt, tgt_eval, disc, source_steps: int):
    """A fresh target agent (policy2/value2 seeds) trained on a trained AIRL
    discriminator's reward term g; (policy, target steps, final)."""
    policy, _, popt = _agent(cfg, tgt.spec, seeds["policy2_init"], seeds["value2_init"],
                             cfg.policy)
    target_steps, final = _train_target_policy(
        cfg, out, policy, popt, tgt, tgt_eval, lambda s, a, sn: disc.g_value(s, a), rngs,
        lambda t, batch: {"source_steps": source_steps})
    return policy, target_steps, final


RECIPES = {
    "odirl": lambda cfg: _run_adversarial(cfg, cfg.alpha, partial(_airl_phase, alpha=cfg.alpha)),
    "airl": lambda cfg: _run_adversarial(cfg, 0.0, partial(_airl_phase, alpha=0.0)),
    "gail": lambda cfg: _run_adversarial(cfg, 0.0, _gail_phase),
    "airl_source_transfer": _run_airl_source_transfer,
    "expert_transfer": _run_expert_transfer,
}


# ---------------------------------------------------------------------------
# Sweeps and aggregation
# ---------------------------------------------------------------------------

def run_sweep(config_path, overrides: dict, runs: dict) -> list[Path]:
    """One `run_experiment` per entry of runs (run-directory name -> config overrides) on
    `load_config(config_path, {**overrides, **entry, "out_dir": OUT/name})`, OUT the out_dir
    of config_path under overrides. All configs, then all `_input_path`s, are checked before the
    first run; a fault, an out_dir or a top-level null (dropped by load_config) names its entry."""
    if not isinstance(runs, dict) or not runs:
        raise ValueError(f"a sweep grid must be a nonempty mapping, not {runs!r}")
    out, cfgs = Path(load_config(config_path, overrides).out_dir), []
    for name, entry in runs.items():
        try:
            if not isinstance(name, str) or name in ("", "..") or Path(name).name != name:
                raise ValueError("a run name must be a plain directory name")
            if not isinstance(entry, dict) or "out_dir" in entry or None in entry.values():
                raise ValueError(f"{entry!r} must be a mapping setting no out_dir and no null")
            cfgs.append(load_config(config_path, {**overrides, **entry, "out_dir": str(out / name)}))
        except ValueError as exc:
            raise ValueError(f"sweep run {name!r}: {exc}") from exc
    for name, cfg in zip(runs, cfgs):
        _input_path(cfg, f"sweep run {name!r}: ")
    return [run_experiment(cfg) for cfg in cfgs]


def aggregate(run_dirs, out_path) -> Path:
    """Per-(method, alpha) per-evaluation-step mean/min/max ground-truth return.

    alpha is the one each run's summary.json records: odirl's, 0 for airl and
    gail, null (an empty cell) for the transfers. A group's runs must share task
    and each have a seed of its own.
    """
    groups: dict[tuple, dict] = {}
    for run_dir in run_dirs:
        run_dir = Path(run_dir)
        if not (run_dir / "summary.json").is_file():
            raise ValueError(f"{run_dir}: no summary.json; not a finished run directory")
        with open(run_dir / "summary.json") as fh:
            summary = json.load(fh)
        method = summary["method"]
        group = groups.setdefault((method, summary.get("alpha")),
                                  {"first": run_dir, "task": summary.get("task"), "seeds": {},
                                   "runs": []})
        if summary.get("task") != group["task"]:
            raise ValueError(f"{run_dir}, {group['first']}: {method} runs differ in task")
        seed = summary.get("seed")
        if seed in group["seeds"]:
            raise ValueError(f"{run_dir}, {group['seeds'][seed]}: {method} runs share seed {seed}")
        group["seeds"][seed] = run_dir
        iters, returns = [], []
        with open(run_dir / "progress.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                if row["gt_return"] != "":
                    iters.append(int(row["iteration"]))
                    returns.append(float(row["gt_return"]))
        if not iters:
            raise ValueError(f"{run_dir}: no evaluation rows in progress.csv")
        if group.setdefault("grid", iters) != iters:
            raise ValueError(f"{run_dir}: evaluation step grid does not match {group['first']}'s")
        group["runs"].append(returns)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "alpha", "iteration", "mean_return", "min_return",
                         "max_return", "n_seeds"])
        # A null alpha sorts before every number.
        for method, alpha in sorted(groups, key=lambda k: (k[0], k[1] is not None, k[1] or 0.0)):
            group = groups[method, alpha]
            data = np.array(group["runs"])
            for k, it in enumerate(group["grid"]):
                col = data[:, k]
                writer.writerow([
                    method, "" if alpha is None else format(alpha, ".10g"), it,
                    format(col.mean(), ".10g"), format(col.min(), ".10g"),
                    format(col.max(), ".10g"), data.shape[0],
                ])
    return out_path
