"""The benchmark's calls into odirl, run at tier 1.

`benchmarks/` is imported as it stands. A change under `src/` that breaks
an API it relies on (`base_config`, `make_*_pair`, `Transition`/`Trajectory`,
the row-list `disc_loss`/`classifier_loss`) fails here instead of only when
the benchmark itself runs.
"""

import importlib
import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from odirl.config import load_config, save_config
from odirl.harness import run_experiment

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def bench():
    """The run, workloads and probes modules of the benchmark."""
    with pytest.MonkeyPatch.context() as mp:
        # run.py pins BLAS threads for its workers at import; keep that out of this process.
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            mp.setenv(var, "1")
        mp.syspath_prepend(str(BENCHMARKS))
        return tuple(importlib.import_module(name) for name in ("run", "workloads", "probes"))


@pytest.mark.parametrize("name", ["pointmaze-odirl", "linkchain-gail"])
def test_benchmark_workload_prepares_runs_and_passes_its_checks(bench, tmp_path, name):
    run, workloads, _ = bench
    config_path, n_demo_rows = workloads.prepare(workloads.WORKLOADS[name], 0, tmp_path)
    assert n_demo_rows > 0
    # r=2 puts a source rollout and classifier steps into the two iterations of odirl.
    cfg = replace(load_config(config_path), steps=2, r=2)
    run_experiment(cfg)
    _, target_steps, problems = run.check_run(cfg, Path(cfg.out_dir))
    assert problems == []
    assert target_steps >= 2 * cfg.batch_steps


def test_benchmark_probes_return_finite_values(bench):
    _, _, probes = bench
    values = probes.run_probes(0)
    assert values and all(math.isfinite(v) for v in values.values())


def test_traced_worker_runs_and_counts_every_phase(bench, tmp_path):
    # The tracer patches names under src/ (harness.dd_for_transitions,
    # PolicyOptimizer._policy_step, envs.rollout, ...); a renamed one fails here.
    _, workloads, _ = bench
    config_path, _ = workloads.prepare(workloads.WORKLOADS["pointmaze-odirl"], 0, tmp_path)
    save_config(replace(load_config(config_path), steps=2, r=2), config_path)
    result_path, spans_path = tmp_path / "result.json", tmp_path / "spans.csv"
    subprocess.run([sys.executable, str(BENCHMARKS / "worker.py"), str(config_path),
                    str(tmp_path / "traced_run"), str(result_path), str(spans_path)],
                   check=True, timeout=300)
    result = json.loads(result_path.read_text())
    # The clock's hooks see the loop only through harness.collect_batch,
    # harness.evaluate and ProgressWriter.close, looked up at call time: one
    # iteration mark per collect_batch, an evaluation in the last iteration,
    # then the final phase after the writer closes.
    assert len(result["iter_s"]) == 2
    assert result["eval_s"][-1] > 0
    assert result["final_segments_s"]
    counts = result["counts"]
    for name in ("harness.run_experiment", "harness.collect_batch", "harness.final_artifacts",
                 "envs.rollout", "envs.step", "nets.forward", "nets.backward", "nets.adam",
                 "policy.sample_action", "policy.log_prob", "policy.update", "policy.evaluate",
                 "dd.classifier_loss", "dd.dd_for_transitions", "irl.disc_loss",
                 "irl.reward_heatmap", "buffers.push", "buffers.sample", "buffers.demo_sample",
                 "buffers.load_demos"):
        assert counts.get(f"{name}.calls", 0) > 0, name
    assert counts["policy.update.minibatch_steps"] > 0
    assert spans_path.read_text().startswith("id,parent,name,start,end\n")
