"""The benchmark's calls into odirl, run at tier 1.

`benchmarks/` is imported as it stands. A change under `src/` that breaks
an API it relies on (`base_config`, `make_*_pair`, `Transition`/`Trajectory`,
the row-list `disc_loss`/`classifier_loss`) fails here instead of only when
the benchmark itself runs.
"""

import importlib
import math
from dataclasses import replace
from pathlib import Path

import pytest

from odirl.config import load_config
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
