import collections
import copy
import csv
import dataclasses
import json
import re
import subprocess
import sys
import typing
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest
import yaml

import odirl.config as config_module
import odirl.harness as harness
import odirl.policy as policy_mod
from odirl.buffers import ReplayBuffer, load_demos, save_demos
from odirl.config import ExperimentConfig, load_config, save_config, section_hints
from odirl.dd import ClassifierPair, DDConfig, dd_for_transitions
from odirl.envs import (SOURCE, TARGET, Batch, LinkChainConfig, LinkChainEnv, PointMazeConfig,
                        PointMazeEnv, Transition, rollouts)
from odirl.harness import aggregate, collect_demos, run_ablation, run_experiment, train_expert
from odirl.irl import Discriminator, GailDiscriminator, disc_loss, load_discriminator
from odirl.nets import Adam, FlatParams, Mlp, load_blocks, load_params, minibatches, save_blocks
from odirl.policy import GaussianPolicy, PolicyOptConfig, ValueNet, evaluate
from digests import TASKS, task_runs
from oracles import with_log_std


def tiny_cfg(tmp_path, name, **kw):
    """A config small enough for loop-contract tests (not for learning)."""
    cfg = ExperimentConfig(out_dir=str(tmp_path / name), seed=3)
    cfg.steps = kw.get("steps", 4)
    cfg.r = kw.get("r", 2)
    cfg.batch_steps = 40
    cfg.eval_every = kw.get("eval_every", 2)
    cfg.eval_episodes = 2
    cfg.final_eval_trajectories = 1
    cfg.pointmaze.horizon = 20
    cfg.linkchain.horizon = 15
    cfg.policy.epochs = 2
    cfg.policy.minibatch_size = 32
    cfg.dd.steps_per_iter = 2
    cfg.dd.batch_size = 16
    cfg.disc.minibatch_size = 32
    cfg.expert.steps = 3
    cfg.expert.batch_steps = 40
    cfg.expert.n_demo_episodes = 3
    cfg.expert.demo_success_only = False
    for key, val in kw.items():
        if hasattr(cfg, key):
            setattr(cfg, key, val)
    return cfg


def load_tiny_demos(path):
    """The demo file at path, loaded as a point-maze run of tiny_cfg loads it."""
    cfg = tiny_cfg(Path(), "")
    return load_demos(path, PointMazeEnv(cfg.pointmaze, SOURCE, 0).spec, cfg.env_config_hash())


@pytest.fixture(scope="module")
def demo_file(tmp_path_factory):
    """A tiny demo file shared by the loop-contract tests."""
    tmp = tmp_path_factory.mktemp("demos")
    cfg = tiny_cfg(tmp, "expert")
    expert = train_expert(cfg)
    path = tmp / "demos.bin"
    collect_demos(cfg, expert, path)
    return str(path), str(expert)


@pytest.fixture(scope="module")
def chain_demo_file(tmp_path_factory):
    """A tiny link-chain demo file."""
    tmp = tmp_path_factory.mktemp("chain_demos")
    cfg = tiny_cfg(tmp, "expert", task="linkchain")
    path = tmp / "demos.bin"
    collect_demos(cfg, train_expert(cfg), path)
    return str(path)


def read_progress(out_dir):
    with open(Path(out_dir) / "progress.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_config_yaml_roundtrip(tmp_path):
    cfg = ExperimentConfig()
    cfg.alpha = 0.5
    path = tmp_path / "conf.yaml"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded.alpha == 0.5
    assert loaded.pointmaze.target_wall_length == cfg.pointmaze.target_wall_length


def test_config_roundtrip_reproduces_whole_tree(tmp_path):
    cfg = load_config(overrides={
        "method": "airl", "heatmap_grid": 7,
        "policy": {"hidden": [32, 16], "entropy_coef": 0.05, "target_kl": 0.05,
                   "clip_ratio": 0.3, "grad_clip": 1},
        "dd": {"weight_decay": 0.0, "dd_clip": 2.5, "batch_size": 8},
        "disc": {"epochs": 3},
        "linkchain": {"goal_angles": [0.5, 0.25, -0.125]},
    })
    path = tmp_path / "conf.yaml"
    save_config(cfg, path)
    assert load_config(path) == cfg


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
@pytest.mark.parametrize("name", ["runs with spaces and a long name " * 3,
                                  "läufe mit leerzeichen und einem langen namen " * 3])
def test_save_config_writes_the_same_bytes_through_both_yaml_dumpers(tmp_path, monkeypatch, name):
    cfg = ExperimentConfig(out_dir=str(tmp_path / name))
    assert len(cfg.out_dir) > 80
    written = []
    for dumper in (yaml.SafeDumper, yaml.CSafeDumper):
        monkeypatch.setattr(config_module, "_DUMPER", dumper)
        save_config(cfg, tmp_path / "conf.yaml")
        written.append((tmp_path / "conf.yaml").read_bytes())
    plain = yaml.safe_dump(config_module._as_plain(dataclasses.asdict(cfg)), sort_keys=True)
    assert written[0] == written[1] == plain.encode()
    assert load_config(tmp_path / "conf.yaml") == cfg


def test_yaml_policy_keys_reach_the_policy_optimizer(tmp_path, demo_file, monkeypatch):
    demos, _ = demo_file
    path = tmp_path / "conf.yaml"
    save_config(tiny_cfg(tmp_path, "opt_keys", steps=1, method="gail"), path)
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    raw["policy"].update(target_kl=0.05, clip_ratio=0.3)
    raw["demos_path"] = demos
    with open(path, "w") as fh:
        yaml.safe_dump(raw, fh)
    seen = []

    class RecordingOptimizer(harness.PolicyOptimizer):
        def __init__(self, policy, value, config):
            seen.append(config)
            super().__init__(policy, value, config)

    monkeypatch.setattr(harness, "PolicyOptimizer", RecordingOptimizer)
    run_experiment(load_config(path))
    assert len(seen) == 1
    assert seen[0].target_kl == 0.05
    assert seen[0].clip_ratio == 0.3


@pytest.mark.parametrize("key", [
    "final_eval_trajectories", "heatmap_grid", "disc.epochs", "disc.minibatch_size",
    "dd.batch_size",
])
def test_config_rejects_zero_where_the_run_needs_one(key):
    section, _, name = key.rpartition(".")
    with pytest.raises(ValueError, match=key):
        load_config(overrides={section: {name: 0}} if section else {name: 0})


def test_config_rejects_alpha_for_non_odirl(tmp_path):
    path = tmp_path / "conf.yaml"
    path.write_text("method: gail\nalpha: 0.5\n")
    with pytest.raises(ValueError, match="alpha"):
        load_config(path)


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "conf.yaml"
    # Keys that are gone: the link chain's reward is always the tip distance, the
    # policy update always standardizes rewards and advantages and bootstraps
    # through goal termination, the policy's std always starts from the action box,
    # and a replay buffer is sized to the rows its run pushes.
    for text in ("not_a_real_key: 1\n", "linkchain: {gt_variant: distance}\n",
                 "policy: {adv_norm: false}\n", "policy: {reward_norm: false}\n",
                 "policy: {bootstrap_on_done: false}\n", "policy: {init_log_std: -1.0}\n",
                 "buffers: {target_capacity: 57}\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(path)


def test_run_single_iteration_executes_every_phase(tmp_path, demo_file):
    demos, _ = demo_file
    cfg = tiny_cfg(tmp_path, "one", steps=1, r=1, eval_every=1)
    cfg.demos_path = demos
    out = run_experiment(cfg)
    rows = read_progress(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["iteration"] == "1"
    assert int(row["target_steps"]) > 0
    assert int(row["source_steps"]) > 0        # r=1: source rollout happened
    assert row["disc_loss"] != ""
    assert row["classifier_loss"] != ""
    assert row["mean_dd"] != ""
    assert row["policy_entropy"] != ""
    assert row["gt_return"] != ""
    assert row["success_rate"] != ""
    assert (out / "config.yaml").exists()
    assert (out / "heatmap.csv").exists()
    assert (out / "checkpoints" / "policy_final.bin").exists()
    assert (out / "final_eval_target.csv").exists()
    assert (out / "final_eval_source.csv").exists()


def test_source_rollout_cadence_matches_r(tmp_path, demo_file):
    demos, _ = demo_file
    cfg = tiny_cfg(tmp_path, "cadence", steps=6, r=3)
    cfg.demos_path = demos
    out = run_experiment(cfg)
    rows = read_progress(out)
    horizon = cfg.pointmaze.horizon
    # source interactions only at iterations 3 and 6, one episode each
    steps = [int(r["source_steps"]) for r in rows]
    assert steps[0] == steps[1] == 0
    assert steps[2] > 0 and steps[2] <= horizon
    assert steps[3] == steps[4] == steps[2]
    assert steps[5] > steps[2] and steps[5] <= 2 * horizon
    with open(Path(out) / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["source_episodes"] == 2
    assert summary["source_steps"] <= int(np.ceil(cfg.steps / cfg.r)) * horizon


def test_airl_equals_odirl_alpha_zero_row_for_row(tmp_path, demo_file):
    demos, _ = demo_file
    cfg_a = tiny_cfg(tmp_path, "airl_run", steps=3, r=2)
    cfg_a.demos_path = demos
    cfg_a.method = "airl"
    out_a = run_experiment(cfg_a)

    cfg_b = tiny_cfg(tmp_path, "odirl0_run", steps=3, r=2)
    cfg_b.demos_path = demos
    cfg_b.method = "odirl"
    cfg_b.alpha = 0.0
    out_b = run_experiment(cfg_b)

    rows_a = (Path(out_a) / "progress.csv").read_bytes()
    rows_b = (Path(out_b) / "progress.csv").read_bytes()
    assert rows_a == rows_b


def test_full_run_determinism(tmp_path, demo_file):
    demos, _ = demo_file
    cfg1 = tiny_cfg(tmp_path, "det1", steps=3, r=2)
    cfg1.demos_path = demos
    out1 = run_experiment(cfg1)
    cfg2 = tiny_cfg(tmp_path, "det2", steps=3, r=2)
    cfg2.demos_path = demos
    out2 = run_experiment(cfg2)
    assert (Path(out1) / "progress.csv").read_bytes() == (Path(out2) / "progress.csv").read_bytes()
    assert (Path(out1) / "heatmap.csv").read_bytes() == (Path(out2) / "heatmap.csv").read_bytes()


@pytest.mark.parametrize("method", ["odirl", "airl", "gail", "airl_source_transfer"])
def test_gt_poisoning_does_not_change_learned_parameters(tmp_path, demo_file, monkeypatch, method):
    # Evaluation firewall: NaN ground truth, in the training envs and in the
    # demo file, must leave training untouched.
    from odirl.nets import load_params

    demos, _ = demo_file
    cfg = tiny_cfg(tmp_path, "clean", steps=2, r=2, method=method)
    cfg.demos_path = demos
    out_clean = run_experiment(cfg)

    real_build = harness.build_envs

    class PoisonedGt:
        def __init__(self, env):
            self._env = env

        def __getattr__(self, name):
            return getattr(self._env, name)

        def ground_truth_reward(self, state):
            return float("nan")

    def poisoned_build(cfg_, seeds):
        src, tgt, src_eval, tgt_eval = real_build(cfg_, seeds)
        return PoisonedGt(src), PoisonedGt(tgt), src_eval, tgt_eval

    demo_set = load_tiny_demos(demos)
    demo_set.batch.gt_reward = np.full(len(demo_set), np.nan)
    save_demos(demo_set, tmp_path / "nan_gt_demos.bin")
    assert np.isnan(load_tiny_demos(tmp_path / "nan_gt_demos.bin").batch.gt_reward).all()

    monkeypatch.setattr(harness, "build_envs", poisoned_build)
    cfg2 = tiny_cfg(tmp_path, "poisoned", steps=2, r=2, method=method)
    cfg2.demos_path = str(tmp_path / "nan_gt_demos.bin")
    out_poisoned = run_experiment(cfg2)

    # Every learned network: the policy, and the value, discriminator and
    # classifier nets the method checkpoints.
    finals = sorted(p.name for p in (Path(out_clean) / "checkpoints").glob("*_final.bin"))
    assert "policy_final.bin" in finals
    for name in finals:
        clean, _ = load_params(Path(out_clean) / "checkpoints" / name)
        poisoned, _ = load_params(Path(out_poisoned) / "checkpoints" / name)
        assert clean.keys() == poisoned.keys(), name
        for key in clean:
            assert np.array_equal(clean[key], poisoned[key]), (name, key)


def test_gail_runs_without_source_interactions(tmp_path, demo_file, monkeypatch):
    calls = {"log_prob": 0, "dd_for_transitions": 0, "disc_loss": 0, "gail_disc_loss": 0,
             "ClassifierPair": 0, "ReplayBuffer": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(GaussianPolicy, "log_prob", counted("log_prob", GaussianPolicy.log_prob))
    for name in ("dd_for_transitions", "disc_loss", "gail_disc_loss", "ClassifierPair",
                 "ReplayBuffer"):
        monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
    demos, _ = demo_file
    cfg = tiny_cfg(tmp_path, "gail", steps=2, r=2)
    cfg.method = "gail"
    cfg.demos_path = demos
    out = run_experiment(cfg)
    # no log pi, DD or AIRL loss; the GAN loss once per minibatch (40 rows in minibatches
    # of 32); no classifier pair, and the target ring is its one replay buffer
    assert calls == {"log_prob": 0, "dd_for_transitions": 0, "disc_loss": 0, "gail_disc_loss": 4,
                     "ClassifierPair": 0, "ReplayBuffer": 1}
    rows = read_progress(out)
    assert all(int(r["source_steps"]) == 0 for r in rows)
    assert all(r["classifier_loss"] == "" for r in rows)
    assert (Path(out) / "checkpoints" / "gail_final.bin").exists()


def test_setup_names_each_seed_the_harness_reads(tmp_path, demo_file, monkeypatch):
    """_setup's seeds map holds the 10 names that training, demo collection
    and every method read, and each at the SeedSequence draw it always had."""
    demos, expert = demo_file
    read, real_setup, real_build_envs = set(), harness._setup, harness.build_envs

    class ReadSeeds(dict):
        def __getitem__(self, name):
            read.add(name)
            return super().__getitem__(name)

    def recording_setup(cfg):
        seeds, rngs, envs = real_setup(cfg)
        return ReadSeeds(seeds), rngs, envs

    monkeypatch.setattr(harness, "_setup", recording_setup)
    monkeypatch.setattr(harness, "build_envs",
                        lambda cfg, seeds: real_build_envs(cfg, ReadSeeds(seeds)))
    cfg = tiny_cfg(tmp_path, "expert", steps=2, r=1)
    cfg.expert.steps = 1
    collect_demos(cfg, train_expert(cfg), tmp_path / "demos.bin")
    for method in ("odirl", "gail", "airl_source_transfer", "expert_transfer"):
        run_experiment(tiny_cfg(tmp_path, method, steps=2, r=1, method=method, demos_path=demos,
                                expert_path=expert))
    seeds, _, _ = real_setup(cfg)
    names = ["env_source", "env_target", "env_eval_source", "env_eval_target", "policy_init",
             "value_init", "disc_init", "classifier_init", "policy2_init", "value2_init"]
    assert read == seeds.keys() == set(names)
    ints = np.random.SeedSequence(cfg.seed).generate_state(24)
    assert [seeds[name] for name in names] == [*ints[:8], *ints[13:15]]


def spy_rings(monkeypatch):
    """The rings the harness builds from now on, each with the row count of every push."""
    built = []

    class SpyRing(ReplayBuffer):
        def __init__(self, capacity, domain_tag):
            super().__init__(capacity, domain_tag)
            self.pushed = []
            built.append(self)

        def push(self, batch):
            self.pushed.append(len(batch))
            super().push(batch)

    monkeypatch.setattr(harness, "ReplayBuffer", SpyRing)
    return built


@pytest.mark.parametrize("method", ["odirl", "gail"])
@pytest.mark.parametrize("task", ["pointmaze", "linkchain"])
def test_each_ring_is_built_at_the_rows_its_run_can_push(tmp_path, demo_file, chain_demo_file,
                                                         monkeypatch, task, method):
    """Each buffer is built at its bound and is never pushed more rows than
    that: steps * (batch_steps + horizon - 1) target rows and
    max(1, steps // r * horizon) source rows. Point-maze episodes that start
    next to the goal end early, so a second wave overshoots batch_steps."""
    rings = spy_rings(monkeypatch)
    cfg = tiny_cfg(tmp_path, "run", steps=4, r=2, task=task, method=method)
    cfg.demos_path = demo_file[0] if task == "pointmaze" else chain_demo_file
    cfg.pointmaze.start_region = (0.7, 0.45, 0.76, 0.65)
    summary = json.loads((run_experiment(cfg) / "summary.json").read_text())
    horizon = cfg.env_config().horizon
    bounds = {TARGET: cfg.steps * (cfg.batch_steps + horizon - 1),
              SOURCE: max(1, cfg.steps // cfg.r * horizon)}
    assert [ring.domain_tag for ring in rings] == ([SOURCE, TARGET] if method == "odirl"
                                                    else [TARGET])
    for ring in rings:
        assert ring.capacity == bounds[ring.domain_tag]
        assert sum(ring.pushed) <= bounds[ring.domain_tag]
    assert max(rings[-1].pushed) > cfg.batch_steps         # a wave overshot
    assert sum(rings[-1].pushed) == summary["target_steps"]
    if method == "odirl":
        assert sum(rings[0].pushed) == summary["source_steps"]


def test_a_run_shorter_than_r_builds_a_one_row_source_ring(tmp_path, demo_file, monkeypatch):
    """steps: 1, r: 2 rolls no source episode: the source ring is built at
    one row (a ring of 0 rows is rejected) and the run writes source_steps 0."""
    rings = spy_rings(monkeypatch)
    cfg = tiny_cfg(tmp_path, "run", steps=1, r=2)
    cfg.demos_path = demo_file[0]
    out = run_experiment(cfg)
    assert (rings[0].domain_tag, rings[0].capacity, rings[0].pushed) == (SOURCE, 1, [])
    assert [row["source_steps"] for row in read_progress(out)] == ["0"]
    assert json.loads((out / "summary.json").read_text())["source_steps"] == 0


def test_expert_transfer_emits_single_evaluation_row(tmp_path, demo_file):
    _, expert = demo_file
    cfg = tiny_cfg(tmp_path, "transfer")
    cfg.method = "expert_transfer"
    cfg.expert_path = expert
    out = run_experiment(cfg)
    rows = read_progress(out)
    assert len(rows) == 1
    assert rows[0]["iteration"] == "0"
    assert rows[0]["gt_return"] != ""
    assert rows[0]["disc_loss"] == ""


def test_expert_transfer_closes_progress_csv_when_evaluate_raises(tmp_path, demo_file,
                                                                  monkeypatch):
    _, expert = demo_file
    cfg = tiny_cfg(tmp_path, "transfer")
    cfg.method = "expert_transfer"
    cfg.expert_path = expert
    writers = []

    class RecordingWriter(harness.ProgressWriter):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            writers.append(self)

    def failing_evaluate(*args):
        raise RuntimeError("evaluation failed")

    monkeypatch.setattr(harness, "ProgressWriter", RecordingWriter)
    monkeypatch.setattr(harness, "evaluate", failing_evaluate)
    with pytest.raises(RuntimeError, match="evaluation failed"):
        run_experiment(cfg)
    assert len(writers) == 1 and writers[0]._fh.closed


def test_progress_writer_rejects_a_field_that_is_not_one_of_its_columns(tmp_path):
    # A misspelt field would otherwise leave its column blank without a word.
    path = tmp_path / "progress.csv"
    with closing(harness.ProgressWriter(path, ["iteration", "disc_loss"])) as writer:
        writer.write(iteration=1, disc_loss=0.5)
        with pytest.raises(ValueError, match="'disc_los'"):
            writer.write(iteration=2, disc_los=0.25)
    assert path.read_bytes() == b"iteration,disc_loss\r\n1,0.5\r\n"


def test_airl_source_transfer_budget_parity_on_linkchain(tmp_path, demo_file):
    # Link chains terminate on horizon only, so step counts match exactly.
    cfg0 = tiny_cfg(tmp_path, "lc_expert", steps=4, r=2)
    cfg0.task = "linkchain"
    expert = train_expert(cfg0)
    demo_path = tmp_path / "lc_demos.bin"
    collect_demos(cfg0, expert, demo_path)

    cfg1 = tiny_cfg(tmp_path, "lc_odirl", steps=4, r=2)
    cfg1.task = "linkchain"
    cfg1.disc.state_only_g = False
    cfg1.demos_path = str(demo_path)
    out1 = run_experiment(cfg1)

    cfg2 = tiny_cfg(tmp_path, "lc_ast", steps=4, r=2)
    cfg2.task = "linkchain"
    cfg2.method = "airl_source_transfer"
    cfg2.disc.state_only_g = False
    cfg2.demos_path = str(demo_path)
    out2 = run_experiment(cfg2)

    s1 = json.load(open(Path(out1) / "summary.json"))
    s2 = json.load(open(Path(out2) / "summary.json"))
    assert s1["source_episodes"] == s2["source_episodes"] == cfg1.steps // cfg1.r
    assert s1["source_steps"] == s2["source_steps"]
    assert s1["target_steps"] == s2["target_steps"]


@pytest.mark.parametrize("method", ["odirl", "airl", "gail", "airl_source_transfer"])
def test_every_training_method_checkpoints_its_target_policy_every_checkpoint_every(
        tmp_path, demo_file, method):
    demos, _ = demo_file
    cfg = tiny_cfg(tmp_path, method, steps=5, r=1, method=method, checkpoint_every=2)
    cfg.demos_path = demos
    ckpt = Path(run_experiment(cfg)) / "checkpoints"
    assert sorted(p.name for p in ckpt.glob("policy_0*.bin")) == ["policy_000002.bin",
                                                                  "policy_000004.bin"]
    # The last periodic checkpoint holds the trained target policy as of step 4;
    # with checkpoint_every = 1 the one of the last step is the final policy itself.
    cfg = tiny_cfg(tmp_path, f"{method}_every_step", steps=2, r=1, method=method, checkpoint_every=1)
    cfg.demos_path = demos
    ckpt = Path(run_experiment(cfg)) / "checkpoints"
    assert (ckpt / "policy_000002.bin").read_bytes() == (ckpt / "policy_final.bin").read_bytes()


def test_ablation_produces_one_dir_per_alpha(tmp_path, demo_file):
    demos, _ = demo_file
    cfg = tiny_cfg(tmp_path, "ablate", steps=2, r=2)
    cfg.demos_path = demos
    dirs = run_ablation(cfg, [0.0, 1.0])
    assert len(dirs) == 2
    for d in dirs:
        assert (Path(d) / "progress.csv").exists()
    with pytest.raises(ValueError):
        run_ablation(cfg, [])
    cfg_bad = copy.deepcopy(cfg)
    cfg_bad.method = "gail"
    with pytest.raises(ValueError):
        run_ablation(cfg_bad, [1.0])


@pytest.mark.parametrize("alphas,named", [([0.5, 1.0, 0.5], "0.5 and 0.5"),
                                          ([0.1, 0.1000001], "0.1 and 0.1000001")])
def test_ablation_rejects_alphas_sharing_a_run_directory_before_any_run(tmp_path, monkeypatch,
                                                                       alphas, named):
    runs = []
    monkeypatch.setattr(harness, "run_experiment", runs.append)
    with pytest.raises(ValueError, match=f"alphas {named} .*alpha_{alphas[0]:g}"):
        run_ablation(tiny_cfg(tmp_path, "ablate"), alphas)
    assert runs == []


def test_ablation_rejects_a_bad_alpha_before_any_run(tmp_path, monkeypatch):
    runs = []
    monkeypatch.setattr(harness, "run_experiment", runs.append)
    with pytest.raises(ValueError, match="alpha must be >= 0"):
        run_ablation(tiny_cfg(tmp_path, "ablate"), [0.0, -1.0])
    assert runs == []


def test_ablation_alpha_zero_matches_airl_artifacts(tmp_path, demo_file):
    demos, _ = demo_file
    cfg = tiny_cfg(tmp_path, "ablate0", steps=2, r=2)
    cfg.demos_path = demos
    (d0,) = run_ablation(cfg, [0.0])

    cfg_airl = tiny_cfg(tmp_path, "airl_ref", steps=2, r=2)
    cfg_airl.method = "airl"
    cfg_airl.demos_path = demos
    out = run_experiment(cfg_airl)
    assert (Path(d0) / "progress.csv").read_bytes() == (Path(out) / "progress.csv").read_bytes()
    assert (Path(d0) / "heatmap.csv").read_bytes() == (Path(out) / "heatmap.csv").read_bytes()


def test_aggregate_single_seed_band_collapses(tmp_path, demo_file):
    demos, _ = demo_file
    cfg = tiny_cfg(tmp_path, "agg1", steps=4, r=2, eval_every=2)
    cfg.demos_path = demos
    out = run_experiment(cfg)
    summary_csv = tmp_path / "summary.csv"
    aggregate([out], summary_csv)
    rows = list(csv.DictReader(open(summary_csv)))
    n_evals = len([r for r in read_progress(out) if r["gt_return"] != ""])
    assert len(rows) == n_evals
    for r in rows:
        assert r["mean_return"] == r["min_return"] == r["max_return"]


def hand_built_run(run_dir, conf, evals=(2, 4), gt_return=-1.0):
    """A run directory holding only summary.json (conf) and progress.csv
    (a gt_return row at each iteration of evals)."""
    run_dir.mkdir()
    with open(run_dir / "summary.json", "w") as fh:
        json.dump(conf, fh)
    with open(run_dir / "progress.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(harness.PROGRESS_COLUMNS)
        for it in evals:
            row = {"iteration": it, "gt_return": gt_return, "success_rate": 1.0}
            w.writerow([row.get(col, "") for col in harness.PROGRESS_COLUMNS])
    return run_dir


def test_aggregate_three_constant_seeds_collapse_to_constant(tmp_path):
    # hand-built run dirs with constant return c
    c = -4.25
    dirs = [hand_built_run(tmp_path / f"run{seed}", {"method": "odirl", "seed": seed}, gt_return=c)
            for seed in range(3)]
    out_csv = tmp_path / "agg.csv"
    aggregate(dirs, out_csv)
    rows = list(csv.DictReader(open(out_csv)))
    assert len(rows) == 2
    for r in rows:
        assert float(r["mean_return"]) == c
        assert float(r["min_return"]) == c
        assert float(r["max_return"]) == c
        assert r["n_seeds"] == "3"


def test_aggregate_mismatched_grids_error(tmp_path):
    dirs = [hand_built_run(tmp_path / f"bad{seed}", {"method": "odirl", "seed": seed}, evals)
            for seed, evals in ((0, (2, 4)), (1, (2, 5)))]
    with pytest.raises(ValueError, match="grid"):
        aggregate(dirs, tmp_path / "agg.csv")


@pytest.mark.parametrize("confs,bad,why", [
    # point-maze runs at alphas 0 and 1 make two bands; a link-chain run at alpha 0 clashes
    ([{"task": "pointmaze", "alpha": 0.0, "seed": 0}, {"task": "pointmaze", "alpha": 1.0, "seed": 0},
      {"task": "linkchain", "alpha": 0.0, "seed": 0}], 2, "differ in task"),
    ([{"task": "pointmaze", "seed": 0}, {"task": "linkchain", "seed": 1}], 1, "differ in task"),
    ([{"seed": 4}, {"seed": 5}, {"seed": 4}], 2, "share seed 4"),
], ids=["alpha-and-task", "task", "seed"])
def test_aggregate_rejects_unlike_runs_of_one_method_naming_both(tmp_path, confs, bad, why):
    dirs = [hand_built_run(tmp_path / f"run{i}", {"method": "odirl", **conf})
            for i, conf in enumerate(confs)]
    with pytest.raises(ValueError, match=re.escape(f"{dirs[bad]}, {dirs[0]}: odirl runs {why}")):
        aggregate(dirs, tmp_path / "agg.csv")
    assert not (tmp_path / "agg.csv").exists()


def test_aggregate_makes_one_band_per_alpha_of_an_ablation(tmp_path, demo_file):
    demos, _ = demo_file
    cfg = tiny_cfg(tmp_path, "ablate", steps=2, r=2, seed=0)
    cfg.demos_path = demos
    dirs = run_ablation(cfg, [1.0, 0.5])
    # expert_transfer records a null alpha: an empty cell, sorted before numbers
    dirs.append(hand_built_run(tmp_path / "transfer", {"method": "expert_transfer",
                                                       "task": "pointmaze", "alpha": None,
                                                       "seed": 0}))
    aggregate(dirs, tmp_path / "agg.csv")
    rows = list(csv.DictReader(open(tmp_path / "agg.csv")))
    assert [(r["method"], r["alpha"], r["iteration"], r["n_seeds"]) for r in rows] == [
        ("expert_transfer", "", "2", "1"), ("expert_transfer", "", "4", "1"),
        ("odirl", "0.5", "2", "1"), ("odirl", "1", "2", "1")]
    by_alpha = {r["alpha"]: r["mean_return"] for r in rows if r["method"] == "odirl"}
    for d, alpha in zip(dirs, ("1", "0.5")):
        assert [by_alpha[alpha]] == [r["gt_return"] for r in read_progress(d) if r["gt_return"]]


def test_aggregate_rejects_a_run_directory_without_a_summary_naming_it(tmp_path):
    dirs = [hand_built_run(tmp_path / "run0", {"method": "odirl", "seed": 0}),
            hand_built_run(tmp_path / "run1", {"method": "odirl", "seed": 1})]
    (dirs[1] / "summary.json").unlink()
    with pytest.raises(ValueError, match=re.escape(f"{dirs[1]}: no summary.json")):
        aggregate(dirs, tmp_path / "agg.csv")
    assert not (tmp_path / "agg.csv").exists()


def test_aggregate_keeps_runs_of_other_methods_apart(tmp_path):
    dirs = [hand_built_run(tmp_path / method, {"method": method, "task": task, "seed": 0})
            for method, task in (("odirl", "pointmaze"), ("gail", "linkchain"))]
    aggregate(dirs, tmp_path / "agg.csv")
    rows = list(csv.DictReader(open(tmp_path / "agg.csv")))
    assert [(r["method"], r["n_seeds"]) for r in rows] == [("gail", "1")] * 2 + [("odirl", "1")] * 2


def _fresh_trainable(stem, cfg, spec):
    """A newly built object for the checkpoint file stem, on seeds the run does not use."""
    dims = (spec.state_dim, spec.action_dim)
    if stem == "policy":
        return GaussianPolicy(spec, hidden=tuple(cfg.policy.hidden), seed=101)
    if stem == "value":
        return ValueNet(spec, hidden=tuple(cfg.policy.hidden), seed=102)
    if stem == "disc":
        return Discriminator(*dims, gamma=cfg.policy.gamma, state_only_g=cfg.disc.state_only_g,
                             hidden=tuple(cfg.disc.hidden), seed=103)
    if stem == "classifiers":
        return ClassifierPair(*dims, hidden=tuple(cfg.dd.hidden), seed=104)
    return GailDiscriminator(*dims, hidden=tuple(cfg.disc.hidden), seed=105)


@pytest.mark.parametrize("method,stems", [
    ("odirl", ["policy", "value", "disc", "classifiers"]),
    ("gail", ["policy", "value", "gail"]),
], ids=["odirl", "gail"])
def test_final_checkpoints_load_into_fresh_objects_bit_exactly(tmp_path, demo_file, monkeypatch,
                                                               method, stems):
    demos, _ = demo_file
    live = {}
    real_save = harness.save_blocks

    def recording_save(path, blocks, **meta):
        live[Path(path).name] = blocks
        real_save(path, blocks, **meta)

    monkeypatch.setattr(harness, "save_blocks", recording_save)
    cfg = tiny_cfg(tmp_path, method, steps=2, r=1, method=method)
    cfg.demos_path = demos
    ckpt = run_experiment(cfg) / "checkpoints"
    assert sorted(live) == sorted(f"{stem}_final.bin" for stem in stems)

    spec = PointMazeEnv(cfg.pointmaze, TARGET, 0).spec
    rng = np.random.default_rng(0)
    for stem in stems:
        trained = live[f"{stem}_final.bin"]
        loaded = [_fresh_trainable(stem, cfg, spec).blocks()]
        if stem == "disc":
            loaded.append(load_discriminator(ckpt / "disc_final.bin").blocks())
        for blocks in loaded:
            assert blocks.keys() == trained.keys()
            load_blocks(ckpt / f"{stem}_final.bin", blocks)
            for name, block in blocks.items():
                assert np.array_equal(block.params, trained[name].params), (stem, name)
                if isinstance(block, Mlp):
                    x = rng.normal(size=(16, block.in_dim))
                    assert np.array_equal(block.forward(x), trained[name].forward(x)), (stem, name)


def test_checkpoint_load_names_the_file_and_array_it_rejects(tmp_path):
    spec = PointMazeEnv(PointMazeConfig(), TARGET, 0).spec      # 2-d actions
    policy = GaussianPolicy(spec, hidden=(8,), seed=0)
    disc = Discriminator(2, 2, gamma=0.9, hidden=(8,), seed=0)
    short_log_std = tmp_path / "short_log_std.bin"
    save_blocks(short_log_std, {"mean": policy.mean_net, "log_std": FlatParams(np.array([0.3]))})
    no_h = tmp_path / "no_h.bin"
    save_blocks(no_h, {"g": disc.g_net})
    # Other seeds than the files': a load that copied the valid arrays before
    # rejecting the bad one would change these blocks.
    fresh_policy = GaussianPolicy(spec, hidden=(8,), seed=1)
    fresh_disc = Discriminator(2, 2, gamma=0.9, hidden=(8,), seed=1)
    for path, blocks, name in ((short_log_std, fresh_policy.blocks(), "log_std"),
                               (no_h, fresh_disc.blocks(), "h")):
        before = {key: block.params.copy() for key, block in blocks.items()}
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*'{name}'"):
            load_blocks(path, blocks)
        assert all(np.array_equal(block.params, before[key]) for key, block in blocks.items())


@pytest.mark.parametrize("edit,why", [
    pytest.param(lambda meta: list(meta), "list indices", id="list-meta"),
    pytest.param(lambda meta: {**meta, "g": {"seed": 0}}, "layer_sizes", id="g-without-layer-sizes"),
    pytest.param(lambda meta: {**meta, "gamma": "0.9"}, "not supported", id="string-gamma"),
])
def test_a_discriminator_checkpoint_with_a_malformed_meta_is_rejected_naming_the_file(
        tmp_path, edit, why):
    disc = Discriminator(2, 2, gamma=0.9, hidden=(8,), seed=0)
    path = tmp_path / "disc_final.bin"
    save_blocks(path, disc.blocks(), gamma=disc.gamma, state_only_g=disc.state_only_g)
    header, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(header)
    header["meta"] = edit(header["meta"])
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: not a discriminator .*{why}"):
        load_discriminator(path)


def test_train_expert_writes_the_config_it_ran_with(tmp_path):
    cfg = tiny_cfg(tmp_path, "expert", seed=5)
    cfg.expert.steps = 1
    cfg.policy.hidden = (8, 4)
    train_expert(cfg)
    assert load_config(tmp_path / "expert" / "config.yaml") == cfg


def test_load_policy_returns_every_block_of_the_checkpoint_bit_for_bit(tmp_path):
    cfg = ExperimentConfig()
    cfg.policy.hidden = (8, 4)
    spec = PointMazeEnv(cfg.pointmaze, TARGET, 0).spec
    saved = GaussianPolicy(spec, hidden=cfg.policy.hidden, seed=11)
    rng = np.random.default_rng(0)
    for block in saved.blocks().values():       # no zero output layer, no configured std
        block.params[...] = rng.normal(size=block.params.shape)
    path = tmp_path / "policy.bin"
    save_blocks(path, saved.blocks())
    arrays, _ = load_params(path)
    loaded = harness._load_policy(cfg, spec, path).blocks()
    assert loaded.keys() == arrays.keys()
    for name, block in loaded.items():
        assert block.params.tobytes() == arrays[name].tobytes(), name


def test_demo_file_roundtrip_through_harness(demo_file):
    demos, _ = demo_file
    loaded = load_tiny_demos(demos)
    assert int(loaded.batch.ends.sum()) == 3
    assert loaded.batch.domain_tag == SOURCE


def test_cli_smoke(tmp_path, demo_file):
    from odirl.cli import main

    demos, expert = demo_file
    conf = tmp_path / "conf.yaml"
    cfg = tiny_cfg(tmp_path, "cli_run", steps=1, r=1, eval_every=1)
    save_config(cfg, conf)
    rc = main(["run", "--config", str(conf), "--method", "airl", "--demos", demos,
               "--out", str(tmp_path / "cli_out"), "--steps", "1"])
    assert rc == 0
    assert (tmp_path / "cli_out" / "progress.csv").exists()
    rc = main(["eval", "--config", str(conf), "--policy", expert, "--domain", "target",
               "--episodes", "2"])
    assert rc == 0
    rc = main(["heatmap", "--disc", str(tmp_path / "cli_out" / "checkpoints" / "disc_final.bin"),
               "--out", str(tmp_path / "hm.csv"), "--grid", "10"])
    assert rc == 0
    assert len((tmp_path / "hm.csv").read_text().strip().splitlines()) == 101
    rc = main(["aggregate", "--runs", str(tmp_path / "cli_out"),
               "--out", str(tmp_path / "agg.csv")])
    assert rc == 0


@pytest.mark.parametrize("n_episodes", [0, -1, -4])
def test_collect_demos_rejects_a_non_positive_episode_count(tmp_path, demo_file, n_episodes):
    from odirl.cli import main

    _, expert = demo_file
    cfg = tiny_cfg(tmp_path, "demos")
    cfg.expert.n_demo_episodes = n_episodes
    with pytest.raises(ValueError, match="expert.n_demo_episodes must be >= 1"):
        collect_demos(cfg, expert, tmp_path / "demos.bin")
    # The CLI's --episodes overrides the key, so the config load rejects it.
    with pytest.raises(ValueError, match="expert.n_demo_episodes must be >= 1"):
        main(["collect-demos", "--expert", expert, "--demos-out", str(tmp_path / "demos.bin"),
              "--episodes", str(n_episodes)])
    assert not (tmp_path / "demos.bin").exists()


@pytest.mark.parametrize("grid_n", [0, -3])
def test_reward_heatmap_rejects_a_non_positive_grid(tmp_path, grid_n):
    from odirl.irl import reward_heatmap

    disc = Discriminator(2, 2, gamma=0.99, hidden=(8,), seed=0)
    with pytest.raises(ValueError, match="grid_n"):
        reward_heatmap(disc, grid_n, tmp_path / "hm.csv")
    assert not (tmp_path / "hm.csv").exists()


# Every row names its id, so a row can go without renaming the rows after it; the
# list-valued rows keep the ids pytest once numbered them with by position.
@pytest.mark.parametrize("key,value", [
    pytest.param("policy.epochs", 0, id="policy.epochs-0"),
    pytest.param("policy.minibatch_size", 0, id="policy.minibatch_size-0"),
    pytest.param("policy.clip_ratio", 0.0, id="policy.clip_ratio-0.0"),
    pytest.param("expert.steps", 0, id="expert.steps-0"),
    pytest.param("expert.batch_steps", 0, id="expert.batch_steps-0"),
    pytest.param("expert.n_demo_episodes", 0, id="expert.n_demo_episodes-0"),
    pytest.param("expert.entropy_coef", -0.1, id="expert.entropy_coef--0.1"),
    pytest.param("policy.hidden", 64, id="policy.hidden-64"),
    pytest.param("disc.hidden", None, id="disc.hidden-None"),
    pytest.param("checkpoint_every", -1, id="checkpoint_every--1"),
    # values of the wrong type
    pytest.param("pointmaze.horizon", 2.5, id="pointmaze.horizon-2.5"),
    pytest.param("seed", "x", id="seed-x"),
    pytest.param("steps", "10", id="steps-10"),
    pytest.param("steps", True, id="steps-True"),
    pytest.param("alpha", [1], id="alpha-value14"),
    pytest.param("policy.lr", "fast", id="policy.lr-fast"),
    pytest.param("expert.demo_success_only", "no", id="expert.demo_success_only-no"),
    pytest.param("disc.state_only_g", 0, id="disc.state_only_g-0"),
    pytest.param("out_dir", 5, id="out_dir-5"),
    # learning rates and clips out of range
    pytest.param("policy.lr", 0.0, id="policy.lr-0.0"),
    pytest.param("policy.value_lr", 0, id="policy.value_lr-0"),
    pytest.param("disc.lr", -1e-3, id="disc.lr--0.001"),
    pytest.param("dd.lr", 0.0, id="dd.lr-0.0"),
    pytest.param("policy.grad_clip", 0, id="policy.grad_clip-0"),
    pytest.param("policy.target_kl", 0.0, id="policy.target_kl-0.0"),
    pytest.param("policy.lr", "nan", id="policy.lr-nan"),
    pytest.param("dd.lr", float("nan"), id="dd.lr-nan"),
    pytest.param("policy.grad_clip", "nan", id="policy.grad_clip-nan"),
    # env horizons, weight decays and the DD clamp
    pytest.param("pointmaze.horizon", 0, id="pointmaze.horizon-0"),
    pytest.param("linkchain.horizon", 0, id="linkchain.horizon-0"),
    pytest.param("disc.weight_decay", -1e-3, id="disc.weight_decay--0.001"),
    pytest.param("dd.weight_decay", -1.0, id="dd.weight_decay--1.0"),
    pytest.param("disc.weight_decay", "nan", id="disc.weight_decay-nan"),
    pytest.param("dd.dd_clip", 0, id="dd.dd_clip-0"),
    pytest.param("dd.dd_clip", -5.0, id="dd.dd_clip--5.0"),
    pytest.param("dd.input_noise_std", -0.1, id="dd.input_noise_std--0.1"),
    # classifier steps and layer widths
    pytest.param("dd.steps_per_iter", 0, id="dd.steps_per_iter-0"),
    pytest.param("dd.steps_per_iter", -1, id="dd.steps_per_iter--1"),
    pytest.param("dd.hidden", [0], id="dd.hidden-value39"),
    pytest.param("policy.hidden", [-3], id="policy.hidden-value40"),
    pytest.param("disc.hidden", [64, 0], id="disc.hidden-value41"),
    pytest.param("dd.hidden", [2.5], id="dd.hidden-value42"),
    pytest.param("policy.hidden", [True], id="policy.hidden-value43"),
    # nan passes a `x < 0` or `x <= 0` check; these are written `not x >= 0` / `not x > 0`
    pytest.param("alpha", float("nan"), id="alpha-nan"),
    pytest.param("policy.entropy_coef", float("nan"), id="policy.entropy_coef-nan"),
    pytest.param("expert.entropy_coef", float("nan"), id="expert.entropy_coef-nan"),
    pytest.param("pointmaze.noise_std", float("nan"), id="pointmaze.noise_std-nan"),
    pytest.param("pointmaze.goal_radius", float("nan"), id="pointmaze.goal_radius-nan"),
    pytest.param("pointmaze.action_scale", float("nan"), id="pointmaze.action_scale-nan"),
    pytest.param("linkchain.torque_limit", float("nan"), id="linkchain.torque_limit-nan"),
    pytest.param("linkchain.dt", float("nan"), id="linkchain.dt-nan"),
    # env fields that had no range check
    pytest.param("linkchain.damping", -1, id="linkchain.damping--1"),
    pytest.param("linkchain.torque_gain", -1, id="linkchain.torque_gain--1"),
    pytest.param("linkchain.vel_limit", -1, id="linkchain.vel_limit--1"),
    pytest.param("linkchain.init_angle_range", -1, id="linkchain.init_angle_range--1"),
    pytest.param("linkchain.init_vel_range", -1, id="linkchain.init_vel_range--1"),
    pytest.param("linkchain.success_radius", -1, id="linkchain.success_radius--1"),
    pytest.param("pointmaze.wall_half_width", -1, id="pointmaze.wall_half_width--1"),
    # point-maze shapes, and a seed numpy cannot take
    pytest.param("pointmaze.goal", [0.9], id="pointmaze.goal-value61"),
    pytest.param("pointmaze.start_region", [0.14, 0.60, 0.06, 0.50],
                 id="pointmaze.start_region-value62"),
    pytest.param("pointmaze.start_region", [0.06, 0.50], id="pointmaze.start_region-value63"),
    pytest.param("seed", -1, id="seed--1"),
    # list elements of the wrong type, and an infinite alpha
    pytest.param("pointmaze.goal", ["a", 1], id="pointmaze.goal-value65"),
    pytest.param("pointmaze.goal", [True, 0.5], id="pointmaze.goal-value66"),
    pytest.param("pointmaze.start_region", ["x", 0.50, 0.14, 0.60],
                 id="pointmaze.start_region-value67"),
    pytest.param("linkchain.goal_angles", ["x", 1, 2], id="linkchain.goal_angles-value69"),
    pytest.param("linkchain.goal_angles", [1.1, False, 0.9], id="linkchain.goal_angles-value70"),
    pytest.param("linkchain.target_disabled_mask", [0, 0, 1],
                 id="linkchain.target_disabled_mask-value71"),
    pytest.param("linkchain.target_disabled_mask", [False, False, "yes"],
                 id="linkchain.target_disabled_mask-value72"),
    pytest.param("alpha", float("inf"), id="alpha-inf"),
    # a goal the agent can never reach: inside the target wall, or outside the arena
    pytest.param("pointmaze.goal", [0.5, 0.9], id="pointmaze.goal-value74"),
    pytest.param("pointmaze.goal", [1.5, 0.5], id="pointmaze.goal-value75"),
    pytest.param("pointmaze.goal", [0.9, -0.1], id="pointmaze.goal-value76"),
    pytest.param("pointmaze.goal", [float("nan"), 0.5], id="pointmaze.goal-value77"),
    # a start region reaching outside the arena
    pytest.param("pointmaze.start_region", [-0.1, 0.5, 0.14, 0.6],
                 id="pointmaze.start_region-value78"),
    pytest.param("pointmaze.start_region", [0.06, 0.5, 0.14, 1.2],
                 id="pointmaze.start_region-value79"),
    pytest.param("pointmaze.start_region", [0.9, 0.2, 1.1, 0.3],
                 id="pointmaze.start_region-value80"),
    # non-finite floats, which no range check caught: a first-reset overflow, every
    # episode a success, a jump onto the wall's face, a failure inside Adam
    pytest.param("linkchain.init_angle_range", float("inf"), id="linkchain.init_angle_range-inf"),
    pytest.param("pointmaze.goal_radius", float("inf"), id="pointmaze.goal_radius-inf"),
    pytest.param("linkchain.success_radius", float("inf"), id="linkchain.success_radius-inf"),
    pytest.param("pointmaze.noise_std", float("inf"), id="pointmaze.noise_std-inf"),
    pytest.param("policy.lr", float("inf"), id="policy.lr-inf"),
    pytest.param("dd.weight_decay", float("inf"), id="dd.weight_decay-inf"),
    pytest.param("policy.value_lr", "inf", id="policy.value_lr-inf"),
    pytest.param("linkchain.goal_angles", [1.1, float("nan"), 0.9],
                 id="linkchain.goal_angles-value88"),
    pytest.param("linkchain.goal_angles", [1.1, -0.6, float("-inf")],
                 id="linkchain.goal_angles-value89"),
    # an int key given a float
    pytest.param("r", 2.5, id="r-2.5"),
    # the gradient clip, the KL stop and the DD clamp cannot be switched off
    pytest.param("policy.grad_clip", None, id="policy.grad_clip-None"),
    pytest.param("policy.target_kl", None, id="policy.target_kl-None"),
    pytest.param("dd.dd_clip", None, id="dd.dd_clip-None"),
])
def test_config_names_the_bad_policy_or_expert_key(key, value):
    section, _, name = key.rpartition(".")
    with pytest.raises(ValueError, match=key):
        load_config(overrides={section: {name: value}} if section else {name: value})
    # The same value set on a config built in code, as tests and sweeps build them.
    cfg = ExperimentConfig()
    setattr(getattr(cfg, section) if section else cfg, name, value)
    with pytest.raises(ValueError, match=key):
        cfg.validate()


@pytest.mark.parametrize("key,value", [
    pytest.param("policy.init_log_std", "x", id="policy.init_log_std-x"),
    pytest.param("policy.init_log_std", float("nan"), id="policy.init_log_std-nan"),
    pytest.param("policy.init_log_std", float("inf"), id="policy.init_log_std-inf"),
    pytest.param("pointmaze.goal_region", [0.78, 0.43, 1.0, None],
                 id="pointmaze.goal_region-list"),
])
def test_config_rejects_a_removed_key(key, value):
    section, _, name = key.rpartition(".")
    with pytest.raises(ValueError, match=rf"^unknown config key override\.{re.escape(key)}$"):
        load_config(overrides={section: {name: value}})
    # The same key set on a config built in code, as tests and sweeps build them.
    cfg = ExperimentConfig()
    setattr(getattr(cfg, section), name, value)
    with pytest.raises(ValueError, match=rf"^unknown config key {re.escape(key)}$"):
        cfg.validate()


def test_run_experiment_looks_every_method_up_in_one_table(tmp_path):
    assert set(harness.RECIPES) == set(config_module.METHODS)
    # load_config rejects an unknown method; one set in code fails the lookup
    cfg = tiny_cfg(tmp_path, "run")
    cfg.method = "nope"
    with pytest.raises(KeyError, match="nope"):
        run_experiment(cfg)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fault", ["missing", "another task"])
@pytest.mark.parametrize("method", config_module.METHODS)
def test_every_method_checks_its_input_before_making_its_run_directory(tmp_path, demo_file,
                                                                       method, fault):
    """Without its input (demos, or the expert for expert_transfer), or with one made
    for the point maze in a link-chain run, a method raises and leaves no run directory."""
    demos, expert = demo_file
    key, path = ("expert_path", expert) if method == "expert_transfer" else ("demos_path", demos)
    cfg = tiny_cfg(tmp_path, "run", method=method)
    if fault == "missing":
        match = f"{key} is required for {method}"
    else:
        cfg.task, match = "linkchain", re.escape(path)
        setattr(cfg, key, path)
    with pytest.raises(ValueError, match=match):
        run_experiment(cfg)
    assert not Path(cfg.out_dir).exists()


@pytest.mark.parametrize("entry", ["run_experiment", "train_expert", "collect_demos"])
def test_every_entry_point_rejects_a_bad_config_built_in_code_before_writing(tmp_path, entry):
    cfg = tiny_cfg(tmp_path, "run")
    cfg.policy.lr = float("inf")
    calls = {"run_experiment": lambda: run_experiment(cfg),
             "train_expert": lambda: train_expert(cfg),
             "collect_demos": lambda: collect_demos(cfg, tmp_path / "expert.bin",
                                                    tmp_path / "demos" / "demos.bin")}
    with pytest.raises(ValueError, match="policy.lr"):
        calls[entry]()
    assert list(tmp_path.iterdir()) == []


def test_cli_ablate_rejects_an_alpha_that_is_not_a_number(capsys):
    from odirl.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["ablate", "--alphas", "0,x"])
    assert exc.value.code == 2
    assert "argument --alphas: '0,x'" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag", [
    ("train-expert", "--alpha"), ("train-expert", "--steps"),
    ("collect-demos", "--out"), ("collect-demos", "--alpha"), ("collect-demos", "--steps"),
    ("eval", "--out"), ("eval", "--alpha"), ("eval", "--steps"),
    ("ablate", "--alpha"),
])
def test_cli_rejects_a_flag_its_subcommand_does_not_read(tmp_path, capsys, command, flag):
    """train_expert reads expert.steps, collect_demos and eval write no run
    directory and take no alpha, and ablate's --alphas sets every alpha: the
    flag is a usage error, before the (missing) config file is opened."""
    from odirl.cli import main

    required = {"collect-demos": ["--expert", "x.bin", "--demos-out", "d.bin"],
                "eval": ["--policy", "x.bin"]}.get(command, [])
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(tmp_path / "missing.yaml"), *required, flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_config_converts_yaml_exponent_strings_and_takes_ints_for_floats(tmp_path):
    path = tmp_path / "conf.yaml"
    path.write_text("alpha: 2\npolicy:\n  lr: 1e-3\n  grad_clip: 3\ndd:\n  dd_clip: 4\n")
    cfg = load_config(path)
    assert yaml.safe_load("lr: 1e-3") == {"lr": "1e-3"}
    assert cfg.policy.lr == 1e-3 and isinstance(cfg.policy.lr, float)
    assert cfg.alpha == 2 and cfg.policy.grad_clip == 3 and cfg.dd.dd_clip == 4


def test_no_config_field_admits_none():
    def admits_none(hint):
        return hint is type(None) or any(map(admits_none, typing.get_args(hint)))

    def leaf_hints(section, path=""):
        for key, hint in section_hints(section).items():
            if dataclasses.is_dataclass(hint):
                yield from leaf_hints(hint, f"{path}{key}.")
            else:
                yield path + key, hint

    leaves = dict(leaf_hints(ExperimentConfig))
    assert "dd.dd_clip" in leaves and "pointmaze.goal" in leaves
    assert [key for key, hint in leaves.items() if admits_none(hint)] == []


def test_validate_stores_numpy_scalars_as_the_python_numbers_they_hold(tmp_path):
    cfg = ExperimentConfig(out_dir=str(tmp_path / "run"))
    cfg.alpha, cfg.seed, cfg.pointmaze.horizon = np.float64(0.25), np.int64(3), np.int64(30)
    cfg.pointmaze.goal = (np.float64(0.9), np.float64(0.8))
    cfg.validate()
    stored = [cfg.alpha, cfg.seed, cfg.pointmaze.horizon, *cfg.pointmaze.goal]
    assert [type(v) for v in stored] == [float, int, int, float, float]
    assert stored == [0.25, 3, 30, 0.9, 0.8]
    save_config(cfg, tmp_path / "conf.yaml")
    assert load_config(tmp_path / "conf.yaml") == cfg
    plain = ExperimentConfig()
    plain.pointmaze.horizon, plain.pointmaze.goal = 30, (0.9, 0.8)
    assert cfg.env_config_hash() == plain.env_config_hash()


@pytest.mark.parametrize("section,values,key", [
    # the target wall (y from 0.55) covers the start region; the source wall does not
    pytest.param("pointmaze", {"wall_x": 0.1, "source_wall_length": 0.3, "target_wall_length": 0.45},
                 "pointmaze.start_region", id="target-wall-over-start"),
    pytest.param("pointmaze", {"source_wall_length": 0.75, "target_wall_length": 0.5},
                 "source_wall_length < target_wall_length", id="source-wall-longer"),
    pytest.param("linkchain", {"target_disabled_mask": [True]}, "linkchain.target_disabled_mask",
                 id="mask-too-short"),
    pytest.param("linkchain", {"target_disabled_mask": [False, False, False]},
                 "linkchain.target_disabled_mask", id="no-dead-actuator"),
    # the target wall (y from 0.25) covers the goal; the source wall (y from 0.5) does not
    pytest.param("pointmaze", {"goal": [0.5, 0.35]}, "pointmaze.goal .* outside the target wall",
                 id="goal-in-target-wall-only"),
])
def test_config_rejects_a_bad_source_target_pair_at_load(section, values, key):
    with pytest.raises(ValueError, match=key):
        load_config(overrides={"task": section, section: values})


# The envs and PolicyOptimizer take a section as `validate()` checked it, so a bad
# section built in code is rejected by `validate()`, which every entry point calls.
@pytest.mark.parametrize("sections,key", [
    pytest.param({"pointmaze": PointMazeConfig(goal_radius=-1.0)},
                 "pointmaze.goal_radius must be > 0", id="pointmaze-env"),
    pytest.param({"task": "linkchain", "linkchain": LinkChainConfig(dt=float("inf"))},
                 "linkchain.dt must be finite", id="linkchain-env"),
    pytest.param({"policy": PolicyOptConfig(epochs=0, lr=-1.0)},
                 "policy.epochs must be >= 1", id="policy-optimizer"),
])
def test_envs_and_the_policy_optimizer_check_a_section_built_in_code(sections, key):
    cfg = ExperimentConfig(**sections)
    with pytest.raises(ValueError, match=key):
        cfg.validate()


def dotted_keys(section, path=""):
    """The dotted key of every field under section, its subsections and the
    elements of its tuples, as `config.checked` names them."""
    for key, hint in section_hints(type(section)).items():
        val = getattr(section, key)
        yield path + key
        if dataclasses.is_dataclass(hint):
            yield from dotted_keys(val, f"{path}{key}.")
        elif isinstance(val, tuple):
            yield from (f"{path}{key}[{i}]" for i in range(len(val)))


@pytest.mark.parametrize("task", TASKS)
def test_each_config_value_is_checked_once_per_run(monkeypatch, task):
    seen = collections.Counter()
    real_checked = config_module.checked

    def counting_checked(hint, val, name, bound):
        seen[name] += 1
        return real_checked(hint, val, name, bound)

    monkeypatch.setattr(config_module, "checked", counting_checked)
    cfg = load_config(overrides={"task": task})
    seen.clear()
    seeds, _, envs = harness._setup(cfg)
    assert "pointmaze.noise_std" in seen and "linkchain.goal_angles[2]" in seen
    assert seen == dict.fromkeys(dotted_keys(cfg), 1)
    seen.clear()
    harness._agent(cfg, envs[1].spec, seeds["policy_init"], seeds["value_init"], cfg.policy)
    assert seen == {}


def test_default_env_config_hash_is_pinned():
    # Demo files record this hash; a changed default hash would make every
    # demo file recorded before the change load with a mismatch warning.
    assert load_config(overrides={"task": "pointmaze"}).env_config_hash() == "da9341d5796b"
    assert load_config(overrides={"task": "linkchain"}).env_config_hash() == "10a65bb37e41"


def _wave_envs():
    """A point maze whose episodes often end early (start next to the goal)
    and a link chain whose episodes always run to the horizon."""
    maze = PointMazeEnv(PointMazeConfig(start_region=(0.7, 0.45, 0.76, 0.65), horizon=20),
                        TARGET, seed=1)
    chain = LinkChainEnv(LinkChainConfig(horizon=15), TARGET, seed=1)
    return maze, chain


@pytest.mark.parametrize("batch_steps", [1, 37, 100, 301])
def test_collect_batch_stops_at_the_first_episode_reaching_batch_steps(batch_steps):
    for env in _wave_envs():
        policy = with_log_std(GaussianPolicy(env.spec, hidden=(8,), seed=0), 1.0)
        batch = harness.collect_batch(policy, env, batch_steps, np.random.default_rng(0))
        lengths = np.diff(np.flatnonzero(batch.ends), prepend=-1).tolist()
        assert sum(lengths[:-1]) < batch_steps <= sum(lengths) == len(batch)
        assert all(batch.done[batch.ends] | (np.array(lengths) == env.spec.horizon))
        assert not (batch.done & ~batch.ends).any()     # done only on an episode's last row
        assert len(batch.log_prob) == len(batch)
        if env.spec.horizon == 15:      # the link chain never terminates early
            assert lengths == [15] * -(-batch_steps // 15)
        elif batch_steps == 301:
            assert min(lengths) < env.spec.horizon


def test_evaluate_and_final_artifacts_roll_exactly_n_episodes(tmp_path, monkeypatch):
    calls = []
    real_rollouts = harness.rollouts

    def recording_rollouts(policy, env, n_episodes, rng=None, deterministic=False):
        batch = real_rollouts(policy, env, n_episodes, rng, deterministic)
        calls.append((env.domain_tag, n_episodes, int(batch.ends.sum()), deterministic))
        return batch

    monkeypatch.setattr(harness, "rollouts", recording_rollouts)
    monkeypatch.setattr(policy_mod, "rollouts", recording_rollouts)
    maze, _ = _wave_envs()
    policy = with_log_std(GaussianPolicy(maze.spec, hidden=(8,), seed=0), 1.0)
    evaluate(policy, maze, 7)
    assert calls == [(TARGET, 7, 7, True)]

    # The final phase only dumps trajectories: the loop's last row already evaluated the policy.
    calls.clear()
    cfg = tiny_cfg(tmp_path, "final")
    cfg.final_eval_trajectories = 3
    _, _, _, (_, _, src_eval, tgt_eval) = harness._start_run(cfg)
    harness._final_artifacts(cfg, tmp_path, policy, src_eval, tgt_eval)
    assert calls == [(TARGET, 3, 3, True), (SOURCE, 3, 3, True)]


def test_rollouts_never_recompute_log_prob(monkeypatch):
    def forbidden(self, states, actions):
        raise AssertionError("log_prob called during a rollout")

    monkeypatch.setattr(GaussianPolicy, "log_prob", forbidden)
    for env in _wave_envs():
        policy = GaussianPolicy(env.spec, hidden=(8,), seed=0)
        assert len(harness.collect_batch(policy, env, 50, np.random.default_rng(0))) >= 50
        evaluate(policy, env, 3)


def test_rollout_log_probs_are_those_of_the_clipped_actions():
    maze, _ = _wave_envs()
    policy = with_log_std(GaussianPolicy(maze.spec, hidden=(8,), seed=0), 1.0)
    batch = rollouts(policy, maze, 4, np.random.default_rng(3))
    expected = policy.log_prob(batch.s, batch.a)
    assert np.allclose(batch.log_prob, expected, rtol=0, atol=1e-12)
    assert np.all(np.abs(batch.a) <= maze.spec.action_high)


def _phase_inputs(n, seed=0):
    """Demo and policy batches of n point-maze-shaped rows, and a policy and a
    classifier pair with random weights (so log pi and DD differ per row)."""
    rng = np.random.default_rng(seed)

    def batch(tag):
        return Batch.of([Transition(s=rng.uniform(0, 1, 2), a=rng.uniform(-0.08, 0.08, 2),
                                    s_next=rng.uniform(0, 1, 2), done=False, domain_tag=tag,
                                    gt_reward=0.0)
                         for _ in range(n)])

    # std 1 keeps log pi, and so most logits, inside the logit clamp
    spec = PointMazeEnv(PointMazeConfig(), TARGET, seed=0).spec
    policy = with_log_std(GaussianPolicy(spec, hidden=(64, 64), seed=1), 0.0)
    pair = ClassifierPair(2, 2, hidden=(16,), seed=2)
    for net in (policy.mean_net, pair.q_sas, pair.q_sa):
        net.params[...] = rng.normal(0.0, 0.5, net.params.shape)
    return batch(SOURCE), batch(TARGET), policy, pair


def _disc_and_opt():
    disc = Discriminator(2, 2, gamma=0.99, hidden=(16,), seed=4)
    return disc, Adam(disc.blocks().values(), lr=1e-2, weight_decay=1e-2)


@pytest.mark.parametrize("epochs", [1, 3])
@pytest.mark.parametrize("n,minibatch_size", [(40, 64), (40, 16), (45, 16), (64, 7)])
def test_discriminator_phase_computes_log_pi_and_dd_once(monkeypatch, epochs, n, minibatch_size):
    calls = {"log_prob": 0, "dd": 0, "disc_loss": 0, "gail_disc_loss": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(GaussianPolicy, "log_prob", counted("log_prob", GaussianPolicy.log_prob))
    for name, key in (("dd_for_transitions", "dd"), ("disc_loss", "disc_loss"),
                      ("gail_disc_loss", "gail_disc_loss")):
        monkeypatch.setattr(harness, name, counted(key, getattr(harness, name)))
    demo, pol, policy, pair = _phase_inputs(n)
    n_minibatches = epochs * -(-n // minibatch_size)

    # The loop computes DD of every demo row once per iteration; the phase only slices it.
    demo_dd = dd_for_transitions(pair, demo, DDConfig(), 1.0)
    disc, opt = _disc_and_opt()
    harness._train_discriminator(harness._airl_minibatch_loss(disc, policy, demo, pol, demo_dd),
                                 opt, n, epochs, minibatch_size, np.random.default_rng(0))
    assert calls == {"log_prob": 2, "dd": 0, "disc_loss": n_minibatches, "gail_disc_loss": 0}


@pytest.mark.parametrize("epochs", [1, 3])
@pytest.mark.parametrize("n,minibatch_size", [(64, 64), (64, 32), (64, 16), (45, 16), (30, 7)])
def test_discriminator_phase_equals_per_minibatch_disc_loss_calls(epochs, n, minibatch_size):
    """One phase against the loop that computes log pi and DD per minibatch.

    BLAS can round the rows of a matrix's last, partial row block (row counts
    not a multiple of the kernel's block: 4 rows for OpenBLAS's x86-64 double
    kernels) differently from the same rows inside a whole block. So with
    every row count a multiple of 16 the parameters match bit for bit, and
    with ragged row counts to rounding.
    """
    demo, pol, policy, pair = _phase_inputs(n, seed=epochs)
    dd_cfg, alpha = DDConfig(), 0.7
    disc, opt = _disc_and_opt()
    minibatch_loss = harness._airl_minibatch_loss(disc, policy, demo, pol,
                                                  dd_for_transitions(pair, demo, dd_cfg, alpha))
    harness._train_discriminator(minibatch_loss, opt, n, epochs, minibatch_size,
                                 np.random.default_rng(5))

    ref, ref_opt = _disc_and_opt()
    rng = np.random.default_rng(5)
    for _ in range(epochs):
        for idx in minibatches(n, minibatch_size, rng):
            d_mb, p_mb = demo.rows(idx), pol.rows(idx)
            disc_loss(ref, d_mb, p_mb, policy.log_prob(d_mb.s, d_mb.a),
                      policy.log_prob(p_mb.s, p_mb.a), dd_for_transitions(pair, d_mb, dd_cfg, alpha))
            ref_opt.step()
    assert not np.array_equal(ref.g_net.params, _disc_and_opt()[0].g_net.params)
    for name, net in disc.blocks().items():
        if n % 16 == 0 and minibatch_size % 16 == 0:
            assert np.array_equal(net.params, ref.blocks()[name].params), name
        else:
            assert np.allclose(net.params, ref.blocks()[name].params, rtol=0, atol=1e-12), name


@pytest.mark.parametrize("alpha", [1.0, 0.0])
def test_discriminator_phase_reads_demo_dd_from_the_iteration_dd_of_every_demo_row(
        tmp_path, demo_file, monkeypatch, alpha):
    """Each odirl/airl iteration computes DD once, over every demo row, and its
    discriminator phase gets that DD at the indices of its sampled demo rows."""
    dd_calls, phases = [], []
    dd_for_transitions_, phase_loss = harness.dd_for_transitions, harness._airl_minibatch_loss

    def dd_spy(pair, batch, config, alpha_):
        dd_calls.append(dd_for_transitions_(pair, batch, config, alpha_))
        return dd_calls[-1]

    def phase_loss_spy(disc, policy, demo_batch, pol_batch, demo_dd):
        phases.append((demo_batch, demo_dd))
        return phase_loss(disc, policy, demo_batch, pol_batch, demo_dd)

    monkeypatch.setattr(harness, "dd_for_transitions", dd_spy)
    monkeypatch.setattr(harness, "_airl_minibatch_loss", phase_loss_spy)
    demos_path, _ = demo_file
    demos = load_tiny_demos(demos_path).batch
    cfg = tiny_cfg(tmp_path, "dd", steps=3, r=1, method="odirl" if alpha else "airl")
    cfg.alpha, cfg.demos_path = alpha, demos_path
    run_experiment(cfg)
    assert len(dd_calls) == len(phases) == 3
    for dd_all, (demo_batch, demo_dd) in zip(dd_calls, phases):
        assert len(dd_all) == len(demos) and len(demo_dd) == len(demo_batch)
        # each sampled row's DD is that of an identical demo row
        for row, value in zip(np.concatenate([demo_batch.s, demo_batch.a, demo_batch.s_next], 1),
                              demo_dd):
            match = (np.concatenate([demos.s, demos.a, demos.s_next], 1) == row).all(axis=1)
            assert match.any() and value in dd_all[match]


def digest_run_methods():
    """The method of every run directory tests/digests.py makes."""
    return [run["method"] for task in TASKS for run in task_runs(task).values()]


def test_every_method_writes_the_same_bytes_on_a_second_run(tmp_path):
    """tests/digests.py twice into the same directory: every file of every
    method's run directory, on both tasks, has the same sha256 both times."""
    script, out = Path(__file__).parent / "digests.py", tmp_path / "out"
    outputs = []
    for attempt in ("first", "second"):
        outputs.append(subprocess.run([sys.executable, str(script), str(out)], check=True,
                                      capture_output=True, text=True).stdout.splitlines())
        out.rename(tmp_path / attempt)
    assert outputs[0] == outputs[1]
    # every run writes progress.csv; all but expert_transfer train and save a final policy
    methods = digest_run_methods()
    for name, runs in (("progress.csv", len(methods)),
                       ("policy_final.bin", sum(m != "expert_transfer" for m in methods))):
        assert sum(line.endswith("/" + name) for line in outputs[0]) == runs


def test_every_method_reports_its_last_progress_row_as_its_final_scores(tmp_path):
    """summary.json of every run directory tests/digests.py writes (every
    method, both tasks) holds the gt_return and success_rate of the last
    progress.csv row, in the row's .10g format."""
    subprocess.run([sys.executable, str(Path(__file__).parent / "digests.py"), str(tmp_path)],
                   check=True, capture_output=True)
    summaries = sorted(tmp_path.glob("*/*/summary.json"))
    assert len(summaries) == len(digest_run_methods())
    for path in summaries:
        summary, last = json.loads(path.read_text()), read_progress(path.parent)[-1]
        assert format(summary["final_gt_return"], ".10g") == last["gt_return"], path
        assert format(summary["final_success_rate"], ".10g") == last["success_rate"], path


def test_digests_against_exits_1_naming_the_first_differing_path(tmp_path):
    """tests/digests.py --against FILE: exit 1, the number of differing paths
    and each of them (sorted) on stderr when FILE differs, exit 0 when it matches."""
    script, out = Path(__file__).parent / "digests.py", tmp_path / "out"
    first = subprocess.run([sys.executable, str(script), str(out)], check=True,
                           capture_output=True, text=True).stdout.splitlines()
    out.rename(tmp_path / "first")
    # change one digest, drop one line and add one; all three paths are named, in sorted order
    tampered = list(first)
    tampered[5] = "0" * 64 + "  " + first[5].split("  ", 1)[1]
    del tampered[9]
    tampered.append("0" * 64 + "  zzz/extra.csv")
    (tmp_path / "tampered.txt").write_text("\n".join(tampered) + "\n")
    (tmp_path / "first.txt").write_text("\n".join(first) + "\n")
    paths = [first[i].split("  ", 1)[1] for i in (5, 9)]
    for against, code, message in (
            ("tampered.txt", 1, f"at 3 paths:\n  {paths[0]}  (differs)\n  {paths[1]}  (only here)\n"
                                "  zzz/extra.csv  (only in FILE)\n"),
            ("first.txt", 0, f"{len(first)} files")):
        run = subprocess.run([sys.executable, str(script), str(out), "--against",
                              str(tmp_path / against)], capture_output=True, text=True)
        assert run.returncode == code, run.stderr
        assert message in run.stderr
        assert run.stdout.splitlines() == first
        out.rename(tmp_path / against.replace(".txt", "_out"))
