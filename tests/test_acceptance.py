"""Acceptance checks on the benchmark's point-maze demonstrations.

A demo row s -> s' exploits the source-only dynamics when its segment enters
the target domain's wall box but not the source domain's (`oracles.infeasible_rows`).
That label is test-side ground truth for gates on the DD term; nothing in
`src/` reads it. `benchmarks/` is imported as it stands, as `test_benchmarks`
imports it.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from odirl.envs import SOURCE, TARGET, PointMazeEnv
from oracles import infeasible_rows

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def workloads():
    """The benchmark's workloads module."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCHMARKS))
        return importlib.import_module("workloads")


@pytest.mark.parametrize("seed,n_infeasible,n_rows", [(1, 72, 376), (2, 73, 379), (7, 72, 382)])
def test_pointmaze_demo_rows_through_the_source_gap_are_those_only_the_target_wall_stops(
        workloads, tmp_path, seed, n_infeasible, n_rows):
    workload = workloads.WORKLOADS["pointmaze-odirl"]
    cfg = workloads.make_config(workload, seed, tmp_path / "run", tmp_path / "demos.bin")
    batch = workloads.make_demos(cfg, seed, tmp_path / "demos.bin").batch
    label = infeasible_rows(cfg.pointmaze, batch)
    assert (int(label.sum()), len(batch)) == (n_infeasible, n_rows)

    def stopped(domain_tag):
        """Rows whose segment the domain's own wall clip would cut short."""
        env = PointMazeEnv(cfg.pointmaze, domain_tag, seed=0)
        return (env._stop_at_wall(batch.s, batch.s_next) != batch.s_next).any(axis=1)

    assert np.array_equal(label, stopped(TARGET) & ~stopped(SOURCE))
