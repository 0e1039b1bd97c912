import copy
import csv
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

import odirl.harness as harness
import odirl.policy as policy_mod
from odirl.buffers import load_demos
from odirl.config import ExperimentConfig, load_config, save_config
from odirl.envs import (SOURCE, TARGET, LinkChainConfig, LinkChainEnv, PointMazeConfig,
                        PointMazeEnv, rollouts, stack_transitions)
from odirl.harness import aggregate, collect_demos, run_ablation, run_experiment, train_expert
from odirl.policy import GaussianPolicy, evaluate


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


@pytest.fixture(scope="module")
def demo_file(tmp_path_factory):
    """A tiny demo file shared by the loop-contract tests."""
    tmp = tmp_path_factory.mktemp("demos")
    cfg = tiny_cfg(tmp, "expert")
    expert = train_expert(cfg, out_dir=tmp / "expert")
    path = tmp / "demos.csv"
    collect_demos(cfg, expert, path)
    return str(path), str(expert)


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
        "policy": {"hidden": [32, 16], "init_log_std": -1.5, "target_kl": None,
                   "reward_norm": False, "bootstrap_on_done": False, "grad_clip": None},
        "dd": {"weight_decay": 0.0, "dd_clip": None, "batch_size": 8},
        "disc": {"epochs": 3},
        "linkchain": {"goal_angles": [0.5, 0.25, -0.125]},
    })
    path = tmp_path / "conf.yaml"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_yaml_policy_keys_reach_the_policy_optimizer(tmp_path, demo_file, monkeypatch):
    demos, _ = demo_file
    path = tmp_path / "conf.yaml"
    save_config(tiny_cfg(tmp_path, "opt_keys", steps=1, method="gail"), path)
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    raw["policy"].update(target_kl=None, reward_norm=False)
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
    assert seen[0].target_kl is None
    assert seen[0].reward_norm is False


@pytest.mark.parametrize("key", [
    "final_eval_trajectories", "heatmap_grid", "disc.epochs", "disc.minibatch_size",
    "dd.batch_size", "buffers.target_capacity", "buffers.source_capacity",
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
    path.write_text("not_a_real_key: 1\n")
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


def test_gt_poisoning_does_not_change_learned_parameters(tmp_path, demo_file, monkeypatch):
    # Evaluation firewall: NaN ground truth must leave training untouched.
    from odirl.nets import load_params

    demos, _ = demo_file
    cfg = tiny_cfg(tmp_path, "clean", steps=2, r=2)
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

    monkeypatch.setattr(harness, "build_envs", poisoned_build)
    cfg2 = tiny_cfg(tmp_path, "poisoned", steps=2, r=2)
    cfg2.demos_path = demos
    out_poisoned = run_experiment(cfg2)

    clean, _ = load_params(Path(out_clean) / "checkpoints" / "policy_final.bin")
    poisoned, _ = load_params(Path(out_poisoned) / "checkpoints" / "policy_final.bin")
    assert np.array_equal(clean["mean"], poisoned["mean"])
    assert np.array_equal(clean["log_std"], poisoned["log_std"])


def test_gail_runs_without_source_interactions(tmp_path, demo_file):
    demos, _ = demo_file
    cfg = tiny_cfg(tmp_path, "gail", steps=2, r=2)
    cfg.method = "gail"
    cfg.demos_path = demos
    out = run_experiment(cfg)
    rows = read_progress(out)
    assert all(int(r["source_steps"]) == 0 for r in rows)
    assert all(r["classifier_loss"] == "" for r in rows)
    assert (Path(out) / "checkpoints" / "gail_final.bin").exists()


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


def test_airl_source_transfer_budget_parity_on_linkchain(tmp_path, demo_file):
    # Link chains terminate on horizon only, so step counts match exactly.
    cfg0 = tiny_cfg(tmp_path, "lc_expert", steps=4, r=2)
    cfg0.task = "linkchain"
    expert = train_expert(cfg0, out_dir=tmp_path / "lc_expert")
    demo_path = tmp_path / "lc_demos.csv"
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


def test_aggregate_three_constant_seeds_collapse_to_constant(tmp_path):
    # hand-built run dirs with constant return c
    c = -4.25
    dirs = []
    for seed in range(3):
        d = tmp_path / f"run{seed}"
        d.mkdir()
        with open(d / "config.yaml", "w") as fh:
            yaml.safe_dump({"method": "odirl", "seed": seed}, fh)
        with open(d / "progress.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(harness.PROGRESS_COLUMNS)
            for it in (2, 4):
                row = {"iteration": it, "gt_return": c, "success_rate": 1.0}
                w.writerow([row.get(col, "") for col in harness.PROGRESS_COLUMNS])
        dirs.append(d)
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
    dirs = []
    for seed, evals in ((0, (2, 4)), (1, (2, 5))):
        d = tmp_path / f"bad{seed}"
        d.mkdir()
        with open(d / "config.yaml", "w") as fh:
            yaml.safe_dump({"method": "odirl", "seed": seed}, fh)
        with open(d / "progress.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(harness.PROGRESS_COLUMNS)
            for it in evals:
                row = {"iteration": it, "gt_return": -1.0}
                w.writerow([row.get(col, "") for col in harness.PROGRESS_COLUMNS])
        dirs.append(d)
    with pytest.raises(ValueError, match="grid"):
        aggregate(dirs, tmp_path / "agg.csv")


def test_demo_file_roundtrip_through_harness(demo_file):
    demos, _ = demo_file
    loaded = load_demos(demos)
    assert len(loaded.trajectories) == 3
    assert all(t.domain_tag == SOURCE for t in loaded.transitions())


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


@pytest.mark.parametrize("key,value", [
    ("policy.epochs", 0), ("policy.minibatch_size", 0), ("policy.clip_ratio", 0.0),
    ("expert.steps", 0), ("expert.batch_steps", 0), ("expert.n_demo_episodes", 0),
    ("expert.entropy_coef", -0.1), ("policy.hidden", 64), ("disc.hidden", None),
    ("checkpoint_every", -1),
])
def test_config_names_the_bad_policy_or_expert_key(key, value):
    section, _, name = key.rpartition(".")
    with pytest.raises(ValueError, match=key):
        load_config(overrides={section: {name: value}} if section else {name: value})


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
])
def test_config_rejects_a_bad_source_target_pair_at_load(section, values, key):
    with pytest.raises(ValueError, match=key):
        load_config(overrides={"task": section, section: values})


def test_default_env_config_hash_is_pinned():
    # Demo files record this hash; a changed default hash would make every
    # demo file recorded before the change load with a mismatch warning.
    assert load_config(overrides={"task": "pointmaze"}).env_config_hash() == "ac2edbd1fbf5"
    assert load_config(overrides={"task": "linkchain"}).env_config_hash() == "3d30ed26db03"


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
        policy = GaussianPolicy(env.spec, hidden=(8,), seed=0, init_log_std=1.0)
        trajs = harness.collect_batch(policy, env, batch_steps, np.random.default_rng(0))
        lengths = [len(t) for t in trajs]
        assert sum(lengths[:-1]) < batch_steps <= sum(lengths)
        assert all(t.transitions[-1].done or len(t) == env.spec.horizon for t in trajs)
        assert all(len(t.log_probs) == len(t) for t in trajs)
        if env.spec.horizon == 15:      # the link chain never terminates early
            assert lengths == [15] * -(-batch_steps // 15)
        elif batch_steps == 301:
            assert min(lengths) < env.spec.horizon


def test_evaluate_and_final_artifacts_roll_exactly_n_episodes(tmp_path, monkeypatch):
    calls = []
    real_rollouts = harness.rollouts

    def recording_rollouts(policy, env, n_episodes, horizon, rng=None, deterministic=False):
        trajs = real_rollouts(policy, env, n_episodes, horizon, rng, deterministic)
        calls.append((env.domain_tag, n_episodes, len(trajs), deterministic))
        return trajs

    monkeypatch.setattr(harness, "rollouts", recording_rollouts)
    monkeypatch.setattr(policy_mod, "rollouts", recording_rollouts)
    maze, _ = _wave_envs()
    policy = GaussianPolicy(maze.spec, hidden=(8,), seed=0, init_log_std=1.0)
    evaluate(policy, maze, 7)
    assert calls == [(TARGET, 7, 7, True)]

    calls.clear()
    cfg = tiny_cfg(tmp_path, "final")
    cfg.final_eval_trajectories = 3
    cfg.eval_episodes = 4
    _, _, _, (_, _, src_eval, tgt_eval) = harness._start_run(cfg)
    harness._final_artifacts(cfg, tmp_path, policy, src_eval, tgt_eval)
    assert calls == [(TARGET, 3, 3, True), (SOURCE, 3, 3, True), (TARGET, 4, 4, True)]


def test_rollouts_never_recompute_log_prob(monkeypatch):
    def forbidden(self, states, actions):
        raise AssertionError("log_prob called during a rollout")

    monkeypatch.setattr(GaussianPolicy, "log_prob", forbidden)
    for env in _wave_envs():
        policy = GaussianPolicy(env.spec, hidden=(8,), seed=0)
        trajs = harness.collect_batch(policy, env, 50, np.random.default_rng(0))
        assert sum(len(t) for t in trajs) >= 50
        evaluate(policy, env, 3)


def test_rollout_log_probs_are_those_of_the_clipped_actions():
    maze, _ = _wave_envs()
    policy = GaussianPolicy(maze.spec, hidden=(8,), seed=0, init_log_std=1.0)
    for traj in rollouts(policy, maze, 4, maze.spec.horizon, np.random.default_rng(3)):
        states, actions, _, _ = stack_transitions(traj.transitions)
        expected = policy.log_prob(states, actions)
        assert np.allclose(traj.log_probs, expected, rtol=0, atol=1e-12)
        assert np.all(np.abs(actions) <= maze.spec.action_high)
