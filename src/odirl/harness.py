"""Experiment orchestration: the outer training loop and all baselines.

One adversarial loop serves three methods: the full algorithm, the plain
adversarial baseline (alpha forced to 0, identical code path and RNG
consumption, so the reduction is bit-exact), and the GAN-imitation baseline
(no classifiers, no source rollouts). Source-domain reward transfer and
direct expert transfer run separately. Every run writes progress.csv, a
resolved config copy, checkpoints, and final-policy evaluation trajectories.
"""

from __future__ import annotations

import copy
import csv
import json
import logging
from dataclasses import replace
from pathlib import Path

import numpy as np

from .buffers import DemoSet, ReplayBuffer, load_demos, save_demos
from .config import ExperimentConfig, save_config
from .dd import ClassifierPair, classifier_loss, dd_for_transitions
from .envs import SOURCE, TARGET, LinkChainEnv, PointMazeEnv, rollout, rollouts, write_trajectory_csv
from .irl import Discriminator, GailDiscriminator, disc_loss, gail_disc_loss, gail_policy_reward, policy_reward, reward_heatmap
from .nets import Adam
from .policy import GaussianPolicy, PolicyOptConfig, PolicyOptimizer, ValueNet, evaluate

logger = logging.getLogger(__name__)

PROGRESS_COLUMNS = [
    "iteration", "target_steps", "source_steps", "disc_loss", "classifier_loss",
    "mean_dd", "policy_entropy", "gt_return", "success_rate",
    "loss_sas", "loss_sa", "std_dd", "demo_acc", "policy_acc",
]


class ProgressWriter:
    """CSV logger with a fixed column set and deterministic float formatting."""

    def __init__(self, path):
        self._fh = open(path, "w", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(PROGRESS_COLUMNS)

    def write(self, **fields) -> None:
        row = []
        for col in PROGRESS_COLUMNS:
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


def _streams(seed: int) -> dict:
    """Named deterministic RNG streams and integer seeds derived from one seed.

    Rollouts consume two kinds of stream (see ``envs.rollouts``):

    - ``actions`` (``misc`` for demo collection): each step of a stochastic
      rollout draws one (live rows, action_dim) standard normal, one row per
      running episode in launch order; deterministic rollouts draw nothing.
    - Each env's own stream (seeded from ``env_*``): each rollout draws one
      (n, state_dim) uniform reset for its n episodes, then each point-maze
      step one (live rows, 2) noise normal; the link chain draws no noise.

    So a one-episode rollout draws exactly what a 1-D reset and step would.
    """
    ints = np.random.SeedSequence(seed).generate_state(24)
    names = [
        "env_source", "env_target", "env_eval_source", "env_eval_target",
        "policy_init", "value_init", "disc_init", "classifier_init",
        "actions", "classifier", "disc", "policy_update", "misc",
        "policy2_init", "value2_init",
    ]
    return {
        "seeds": {name: int(ints[i]) for i, name in enumerate(names)},
        "rngs": {
            name: np.random.default_rng(int(ints[16 + j]))
            for j, name in enumerate(["actions", "classifier", "disc", "policy_update", "misc"])
        },
    }


def build_envs(cfg: ExperimentConfig, seeds: dict):
    """(source, target, source_eval, target_eval) instances for the config."""
    env_cls = PointMazeEnv if cfg.task == "pointmaze" else LinkChainEnv
    return tuple(env_cls(cfg.env_config(), tag, seeds[name]) for tag, name in (
        (SOURCE, "env_source"), (TARGET, "env_target"),
        (SOURCE, "env_eval_source"), (TARGET, "env_eval_target")))


def collect_batch(policy, env, batch_steps: int, rng) -> list:
    """Roll lockstep waves of full episodes until at least batch_steps transitions are gathered.

    With n transitions gathered, a wave launches ceil((batch_steps - n) / horizon)
    episodes, so every episode starts with fewer than batch_steps transitions
    before it (earlier episodes counted in full): given the same episode
    lengths, the batch holds exactly the episodes that rolling one episode at
    a time until batch_steps would.
    """
    trajs, n = [], 0
    horizon = env.spec.horizon
    while n < batch_steps:
        wave = rollouts(policy, env, -(-(batch_steps - n) // horizon), horizon, rng)
        trajs += wave
        n += sum(len(traj) for traj in wave)
    return trajs


def _gt_reward_fn(env):
    def reward_fn(s, a, sn):
        return env.ground_truth_reward(sn)
    return reward_fn


def _policy(cfg, spec, seed: int) -> GaussianPolicy:
    return GaussianPolicy(spec, hidden=tuple(cfg.policy.hidden), seed=seed,
                          init_log_std=cfg.policy.init_log_std)


def _agent(cfg, spec, policy_seed: int, value_seed: int, opt_cfg: PolicyOptConfig):
    """A fresh (policy, value, optimizer) triple."""
    policy = _policy(cfg, spec, policy_seed)
    value = ValueNet(spec, hidden=tuple(cfg.policy.hidden), seed=value_seed)
    return policy, value, PolicyOptimizer(policy, value, opt_cfg)


def _start_run(cfg: ExperimentConfig):
    """Create the run directory with its resolved config; (out, seeds, rngs, envs)."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out / "config.yaml")
    streams = _streams(cfg.seed)
    return out, streams["seeds"], streams["rngs"], build_envs(cfg, streams["seeds"])


def _final_artifacts(cfg, out: Path, policy, src_eval, tgt_eval) -> tuple[float, float]:
    """Dump final-policy evaluation trajectories in both domains."""
    n = cfg.final_eval_trajectories
    tgt_trajs = rollouts(policy, tgt_eval, n, tgt_eval.spec.horizon, deterministic=True)
    src_trajs = rollouts(policy, src_eval, n, src_eval.spec.horizon, deterministic=True)
    write_trajectory_csv(out / "final_eval_target.csv", tgt_trajs)
    write_trajectory_csv(out / "final_eval_source.csv", src_trajs)
    ret, succ = evaluate(policy, tgt_eval, cfg.eval_episodes)
    return ret, succ


def _finish_run(cfg, out: Path, policy, src_eval, tgt_eval, checkpoints: dict,
                disc=None, alpha=None, **counts) -> Path:
    """Final checkpoints, the reward heatmap, final-policy artifacts and summary.json."""
    if checkpoints:
        ckpt = out / "checkpoints"
        ckpt.mkdir(exist_ok=True)
        for name, net in checkpoints.items():
            net.save(ckpt / f"{name}_final.bin")
    if disc is not None and cfg.task == "pointmaze" and cfg.disc.state_only_g:
        reward_heatmap(disc, cfg.heatmap_grid, path=out / "heatmap.csv")
    final_return, final_success = _final_artifacts(cfg, out, policy, src_eval, tgt_eval)
    with open(out / "summary.json", "w") as fh:
        json.dump(dict(method=cfg.method, task=cfg.task, seed=cfg.seed, alpha=alpha,
                       final_gt_return=final_return, final_success_rate=final_success,
                       **counts), fh, indent=2, sort_keys=True)
    return out


# ---------------------------------------------------------------------------
# Expert training and demo collection
# ---------------------------------------------------------------------------

def train_expert(cfg: ExperimentConfig, out_dir=None) -> Path:
    """Train the source-domain expert against ground-truth reward."""
    out = Path(out_dir or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    streams = _streams(cfg.seed)
    seeds, rngs = streams["seeds"], streams["rngs"]
    src, _, src_eval, _ = build_envs(cfg, seeds)
    policy, _, popt = _agent(cfg, src.spec, seeds["policy_init"], seeds["value_init"],
                             replace(cfg.policy, entropy_coef=cfg.expert.entropy_coef))
    reward_fn = _gt_reward_fn(src)

    path = out / "expert_policy.bin"
    best_score = -np.inf
    curve_path = out / "expert_curve.csv"
    with open(curve_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "gt_return", "success_rate", "entropy"])
        for t in range(1, cfg.expert.steps + 1):
            trajs = collect_batch(policy, src, cfg.expert.batch_steps, rngs["actions"])
            stats = popt.update(trajs, reward_fn, rngs["policy_update"])
            if t % cfg.eval_every == 0 or t == cfg.expert.steps:
                ret, succ = evaluate(policy, src_eval, cfg.eval_episodes)
                writer.writerow([t, format(ret, ".10g"), format(succ, ".10g"),
                                 format(stats["entropy"], ".10g")])
                logger.info("expert iter %d: return %.3f success %.2f", t, ret, succ)
                score = succ + 0.01 * ret  # success first, return breaks ties
                if score >= best_score:
                    best_score = score
                    policy.save(path)
    policy.save(out / "expert_policy_final.bin")
    return path


def collect_demos(cfg: ExperimentConfig, expert_path, out_path, n_episodes=None) -> DemoSet:
    """Roll the trained expert in the source domain and persist demonstrations."""
    n_episodes = n_episodes or cfg.expert.n_demo_episodes
    streams = _streams(cfg.seed)
    seeds, rngs = streams["seeds"], streams["rngs"]
    src, _, _, _ = build_envs(cfg, seeds)
    policy = _policy(cfg, src.spec, seeds["policy_init"])
    policy.load(expert_path)
    trajs, attempts = [], 0
    keep_success_only = cfg.expert.demo_success_only and cfg.task == "pointmaze"
    while len(trajs) < n_episodes and attempts < 20 * n_episodes:
        attempts += 1
        traj = rollout(policy, src, src.spec.horizon, rngs["misc"])
        if keep_success_only and not traj.transitions[-1].done:
            continue
        trajs.append(traj)
    if len(trajs) < n_episodes:
        raise RuntimeError(
            f"collected only {len(trajs)}/{n_episodes} demo episodes; expert too weak"
        )
    demos = DemoSet(trajectories=trajs, env_config_hash=cfg.env_config_hash(),
                    expert_seed=cfg.seed, horizon=src.spec.horizon)
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    save_demos(demos, out_path)
    logger.info("saved %d demo episodes (%d transitions) to %s", len(trajs), len(demos), out_path)
    return demos


# ---------------------------------------------------------------------------
# The AIRL discriminator and the discriminator minibatch loop
# ---------------------------------------------------------------------------

def _airl_discriminator(cfg, spec, seed: int):
    """The AIRL discriminator (reward g + shaping h) and its optimizer."""
    disc = Discriminator(spec.state_dim, spec.action_dim, gamma=cfg.policy.gamma,
                         state_only_g=cfg.disc.state_only_g, hidden=tuple(cfg.disc.hidden),
                         seed=seed)
    return disc, Adam(disc.blocks(), lr=cfg.disc.lr, weight_decay=cfg.disc.weight_decay)


def _airl_reward_fn(cfg, disc, policy):
    def reward_fn(s, a, sn):
        logp = policy.log_prob(s, a)
        return policy_reward(disc, s, a, sn, logp, flip_sign=cfg.flip_reward_sign)
    return reward_fn


def _airl_loss_fn(disc, policy, pair=None, dd_cfg=None, alpha=0.0):
    """disc_loss on one minibatch; with a classifier pair the demo logits carry DD."""
    def loss_fn(d_mb, p_mb):
        demo_logp = policy.log_prob(np.array([x.s for x in d_mb]), np.array([x.a for x in d_mb]))
        pol_logp = policy.log_prob(np.array([x.s for x in p_mb]), np.array([x.a for x in p_mb]))
        demo_dd = None if pair is None else dd_for_transitions(pair, d_mb, dd_cfg, alpha)
        return disc_loss(disc, d_mb, p_mb, demo_logp, pol_logp, demo_dd)
    return loss_fn


def _train_discriminator(loss_fn, disc_opt, demo_batch, pol_batch, epochs: int,
                         minibatch_size: int, rng) -> tuple[float, float, float]:
    """Shuffled minibatch epochs over equal-size demo and policy batches.

    Returns the mean loss, demo accuracy and policy accuracy over all minibatches.
    """
    n_batch = len(pol_batch)
    d_losses, demo_accs, pol_accs = [], [], []
    for _ in range(epochs):
        perm = rng.permutation(n_batch)
        for start in range(0, n_batch, minibatch_size):
            idx = perm[start : start + minibatch_size]
            _, stats = loss_fn([demo_batch[i] for i in idx], [pol_batch[i] for i in idx])
            disc_opt.step()
            d_losses.append(stats["loss"])
            demo_accs.append(stats["demo_acc"])
            pol_accs.append(stats["policy_acc"])
    return float(np.mean(d_losses)), float(np.mean(demo_accs)), float(np.mean(pol_accs))


# ---------------------------------------------------------------------------
# Main adversarial loop (odirl / airl / gail)
# ---------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig) -> Path:
    cfg.validate()
    if cfg.method in ("odirl", "airl", "gail"):
        return _run_adversarial(cfg)
    if cfg.method == "airl_source_transfer":
        return _run_airl_source_transfer(cfg)
    if cfg.method == "expert_transfer":
        return _run_expert_transfer(cfg)
    raise ValueError(f"unknown method {cfg.method}")


def _load_demoset(cfg, spec) -> DemoSet:
    if not cfg.demos_path:
        raise ValueError("demos_path is required for this method")
    return load_demos(cfg.demos_path, expected_spec=spec,
                      expected_config_hash=cfg.env_config_hash())


def _run_adversarial(cfg: ExperimentConfig) -> Path:
    out, seeds, rngs, (src, tgt, src_eval, tgt_eval) = _start_run(cfg)
    demos = _load_demoset(cfg, src.spec)
    policy, value, popt = _agent(cfg, tgt.spec, seeds["policy_init"], seeds["value_init"],
                                 cfg.policy)

    use_dd_pipeline = cfg.method in ("odirl", "airl")
    alpha_eff = cfg.alpha if cfg.method == "odirl" else 0.0
    if use_dd_pipeline:
        disc, disc_opt = _airl_discriminator(cfg, tgt.spec, seeds["disc_init"])
        pair = ClassifierPair(tgt.spec.state_dim, tgt.spec.action_dim,
                              hidden=tuple(cfg.dd.hidden), seed=seeds["classifier_init"])
        cls_opt = Adam(pair.blocks(), lr=cfg.dd.lr, weight_decay=cfg.dd.weight_decay)
        reward_fn = _airl_reward_fn(cfg, disc, policy)
        loss_fn = _airl_loss_fn(disc, policy, pair, cfg.dd, alpha_eff)
        nets = {"disc": disc, "classifiers": pair}
    else:
        disc = None
        gail = GailDiscriminator(tgt.spec.state_dim, tgt.spec.action_dim,
                                 hidden=tuple(cfg.disc.hidden), seed=seeds["disc_init"])
        disc_opt = Adam(gail.blocks(), lr=cfg.disc.lr, weight_decay=cfg.disc.weight_decay)
        reward_fn = lambda s, a, sn: gail_policy_reward(gail, s, a)  # noqa: E731
        loss_fn = lambda d_mb, p_mb: gail_disc_loss(gail, d_mb, p_mb)  # noqa: E731
        nets = {"gail": gail}

    b_src = ReplayBuffer(cfg.buffers.source_capacity, src.domain_tag)
    b_tgt = ReplayBuffer(cfg.buffers.target_capacity, tgt.domain_tag)
    writer = ProgressWriter(out / "progress.csv")
    target_steps = source_steps = source_episodes = 0

    for t in range(1, cfg.steps + 1):
        trajs = collect_batch(policy, tgt, cfg.batch_steps, rngs["actions"])
        for traj in trajs:
            b_tgt.push(traj)
            target_steps += len(traj)
        if use_dd_pipeline and t % cfg.r == 0:
            straj = rollout(policy, src, src.spec.horizon, rngs["actions"])
            b_src.push(straj)
            source_steps += len(straj)
            source_episodes += 1

        cls_total = l_sas = l_sa = None
        mean_dd = std_dd = None
        if use_dd_pipeline:
            if len(b_src) > 0:
                for _ in range(cfg.dd.steps_per_iter):
                    sb = b_src.sample(cfg.dd.batch_size, rngs["classifier"])
                    tb = b_tgt.sample(cfg.dd.batch_size, rngs["classifier"])
                    cls_total, l_sas, l_sa = classifier_loss(
                        pair, sb, tb, noise_std=cfg.dd.input_noise_std, rng=rngs["classifier"])
                    cls_opt.step()
            dd_demo_all = dd_for_transitions(pair, demos.transitions(), cfg.dd, alpha_eff)
            mean_dd, std_dd = float(dd_demo_all.mean()), float(dd_demo_all.std())

        # Discriminator phase: a buffer-sampled policy batch of the
        # iteration's size and a demo batch of equal size.
        n_batch = sum(len(traj) for traj in trajs)
        pol_batch = b_tgt.sample(n_batch, rngs["disc"])
        demo_batch = demos.sample(n_batch, rngs["disc"])
        d_loss, demo_acc, pol_acc = _train_discriminator(
            loss_fn, disc_opt, demo_batch, pol_batch, cfg.disc.epochs,
            cfg.disc.minibatch_size, rngs["disc"])

        pstats = popt.update(trajs, reward_fn, rngs["policy_update"])

        gt_return = success = None
        if t % cfg.eval_every == 0 or t == cfg.steps:
            gt_return, success = evaluate(policy, tgt_eval, cfg.eval_episodes)
            logger.info("%s iter %d: return %.3f success %.2f disc %.3f",
                        cfg.method, t, gt_return, success, d_loss)
        writer.write(
            iteration=t, target_steps=target_steps, source_steps=source_steps,
            disc_loss=d_loss, classifier_loss=cls_total,
            mean_dd=mean_dd, policy_entropy=pstats["entropy"],
            gt_return=gt_return, success_rate=success,
            loss_sas=l_sas, loss_sa=l_sa, std_dd=std_dd,
            demo_acc=demo_acc, policy_acc=pol_acc,
        )
        if cfg.checkpoint_every and t % cfg.checkpoint_every == 0:
            ckpt = out / "checkpoints"
            ckpt.mkdir(exist_ok=True)
            policy.save(ckpt / f"policy_{t:06d}.bin")

    writer.close()
    return _finish_run(cfg, out, policy, src_eval, tgt_eval,
                       {"policy": policy, "value": value, **nets}, disc=disc, alpha=alpha_eff,
                       target_steps=target_steps, source_steps=source_steps,
                       source_episodes=source_episodes)


# ---------------------------------------------------------------------------
# Baselines with their own loops
# ---------------------------------------------------------------------------

def _run_expert_transfer(cfg: ExperimentConfig) -> Path:
    """Evaluate the source expert directly in the target domain; no training."""
    out, seeds, _, (src, tgt, src_eval, tgt_eval) = _start_run(cfg)
    if not cfg.expert_path:
        raise ValueError("expert_path is required for expert_transfer")
    policy = _policy(cfg, tgt.spec, seeds["policy_init"])
    policy.load(cfg.expert_path)
    writer = ProgressWriter(out / "progress.csv")
    gt_return, success = evaluate(policy, tgt_eval, cfg.eval_episodes)
    writer.write(iteration=0, target_steps=0, source_steps=0,
                 policy_entropy=policy.entropy(), gt_return=gt_return, success_rate=success)
    writer.close()
    return _finish_run(cfg, out, policy, src_eval, tgt_eval, {},
                       target_steps=0, source_steps=0, source_episodes=0)


def _run_airl_source_transfer(cfg: ExperimentConfig) -> Path:
    """Adversarial IRL in the source domain on the same source budget, then
    the transferable reward term g trains a fresh target policy."""
    out, seeds, rngs, (src, tgt, src_eval, tgt_eval) = _start_run(cfg)
    demos = _load_demoset(cfg, src.spec)

    # Phase 1: source-domain adversarial IRL, budget-matched to the main
    # method's source episode count, with an r-fold gradient-step multiplier.
    policy, _, popt = _agent(cfg, src.spec, seeds["policy_init"], seeds["value_init"],
                             replace(cfg.policy, epochs=cfg.policy.epochs * cfg.r))
    disc, disc_opt = _airl_discriminator(cfg, src.spec, seeds["disc_init"])
    src_reward_fn = _airl_reward_fn(cfg, disc, policy)
    loss_fn = _airl_loss_fn(disc, policy)

    n_src_iters = cfg.steps // cfg.r
    source_steps = source_episodes = 0
    with open(out / "source_phase.csv", "w", newline="") as fh:
        phase_writer = csv.writer(fh)
        phase_writer.writerow(["iteration", "source_steps", "disc_loss"])
        for t in range(1, n_src_iters + 1):
            traj = rollout(policy, src, src.spec.horizon, rngs["actions"])
            source_steps += len(traj)
            source_episodes += 1
            demo_batch = demos.sample(len(traj), rngs["disc"])
            d_loss, _, _ = _train_discriminator(
                loss_fn, disc_opt, demo_batch, traj.transitions, cfg.disc.epochs * cfg.r,
                cfg.disc.minibatch_size, rngs["disc"])
            popt.update([traj], src_reward_fn, rngs["policy_update"])
            phase_writer.writerow([t, source_steps, format(d_loss, ".10g")])

    # Phase 2: transfer g as the reward for a fresh target-domain policy.
    policy2, _, popt2 = _agent(cfg, tgt.spec, seeds["policy2_init"], seeds["value2_init"],
                               cfg.policy)

    def transfer_reward_fn(s, a, sn):
        return disc.g_value(s, a)

    writer = ProgressWriter(out / "progress.csv")
    target_steps = 0
    for t in range(1, cfg.steps + 1):
        trajs = collect_batch(policy2, tgt, cfg.batch_steps, rngs["actions"])
        target_steps += sum(len(traj) for traj in trajs)
        pstats = popt2.update(trajs, transfer_reward_fn, rngs["policy_update"])
        gt_return = success = None
        if t % cfg.eval_every == 0 or t == cfg.steps:
            gt_return, success = evaluate(policy2, tgt_eval, cfg.eval_episodes)
            logger.info("airl_source_transfer iter %d: return %.3f success %.2f",
                        t, gt_return, success)
        writer.write(iteration=t, target_steps=target_steps, source_steps=source_steps,
                     policy_entropy=pstats["entropy"], gt_return=gt_return, success_rate=success)
    writer.close()
    return _finish_run(cfg, out, policy2, src_eval, tgt_eval,
                       {"policy": policy2, "disc": disc}, disc=disc,
                       target_steps=target_steps, source_steps=source_steps,
                       source_episodes=source_episodes)


# ---------------------------------------------------------------------------
# Ablation sweep and aggregation
# ---------------------------------------------------------------------------

def run_ablation(cfg: ExperimentConfig, alphas) -> list[Path]:
    """One full run per alpha with shared demos and seed."""
    if cfg.method != "odirl":
        raise ValueError("ablation sweeps are defined for the odirl method")
    alphas = list(alphas)
    if not alphas:
        raise ValueError("alpha list must be nonempty")
    base_out = Path(cfg.out_dir)
    dirs = []
    for alpha in alphas:
        sub = copy.deepcopy(cfg)
        sub.alpha = float(alpha)
        sub.out_dir = str(base_out / f"alpha_{alpha:g}")
        dirs.append(run_experiment(sub))
    return dirs


def aggregate(run_dirs, out_path) -> Path:
    """Per-method per-evaluation-step mean/min/max ground-truth return."""
    import yaml

    groups: dict[str, dict] = {}
    for run_dir in run_dirs:
        run_dir = Path(run_dir)
        with open(run_dir / "config.yaml") as fh:
            conf = yaml.safe_load(fh)
        method = conf["method"]
        iters, returns = [], []
        with open(run_dir / "progress.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                if row["gt_return"] != "":
                    iters.append(int(row["iteration"]))
                    returns.append(float(row["gt_return"]))
        if not iters:
            raise ValueError(f"{run_dir}: no evaluation rows in progress.csv")
        group = groups.setdefault(method, {"grid": iters, "runs": []})
        if group["grid"] != iters:
            raise ValueError(f"{run_dir}: evaluation step grid does not match other "
                             f"{method} runs")
        group["runs"].append(returns)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "iteration", "mean_return", "min_return", "max_return", "n_seeds"])
        for method in sorted(groups):
            grid = groups[method]["grid"]
            data = np.array(groups[method]["runs"])
            for k, it in enumerate(grid):
                col = data[:, k]
                writer.writerow([
                    method, it, format(col.mean(), ".10g"),
                    format(col.min(), ".10g"), format(col.max(), ".10g"), data.shape[0],
                ])
    return out_path
