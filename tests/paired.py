"""Paired comparison of two sweeps of the same grid, run on two commits.

Usage: python tests/paired.py BASE_OUT CHANGE_OUT [--demos FILE]

BASE_OUT and CHANGE_OUT are the out directories of two `odirl sweep` runs of
one grid. Run directories (those holding a summary.json) are paired by name,
and both sides must hold the same names. Per run it reads the mean gt_return
of the last 5 evaluations in progress.csv (all of them if fewer) and
summary.json's final_success_rate. With --demos FILE (a point-maze demo file),
it also reads the final discriminator's standardized f gap on the demo rows:
(mean f on the rows that `oracles.infeasible_rows` marks under the run's own
config - mean f on the rest) / std of f over all rows, with the discriminator
rebuilt by `irl.load_discriminator` from checkpoints/disc_final.bin.

Prints one line per pair, in seed order (its seed, each metric on both
sides and their difference, change - base), then one line per metric: the
mean paired difference and its 95% percentile-bootstrap interval, from
10,000 resamples of the pairs drawn with a fixed seed, so the output is
deterministic.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from odirl.config import load_config  # noqa: E402
from odirl.envs import SOURCE, Batch  # noqa: E402
from odirl.irl import load_discriminator  # noqa: E402
from odirl.nets import load_params  # noqa: E402
from oracles import infeasible_rows  # noqa: E402

LAST_EVALS = 5
RESAMPLES = 10_000
BOOTSTRAP_SEED = 0


def run_metrics(run_dir: Path, demos: Batch | None = None) -> dict:
    """{metric: value} of one finished run directory; f_gap only given demos."""
    with open(run_dir / "progress.csv", newline="") as fh:
        returns = [float(row["gt_return"]) for row in csv.DictReader(fh) if row["gt_return"]]
    if not returns:
        raise ValueError(f"{run_dir}: no evaluation rows in progress.csv")
    summary = json.loads((run_dir / "summary.json").read_text())
    metrics = {"seed": summary["seed"], "gt_return_last5": float(np.mean(returns[-LAST_EVALS:])),
               "final_success_rate": float(summary["final_success_rate"])}
    if demos is not None:
        cfg = load_config(run_dir / "config.yaml")
        bad = infeasible_rows(cfg.pointmaze, demos)
        if bad.all() or not bad.any():
            raise ValueError(f"{run_dir}: the demo rows are not split into feasible and infeasible")
        f = load_discriminator(run_dir / "checkpoints" / "disc_final.bin").f_value(
            demos.s, demos.a, demos.s_next)
        metrics["f_gap"] = float((f[bad].mean() - f[~bad].mean()) / f.std())
    return metrics


def bootstrap_interval(diffs: np.ndarray) -> tuple[float, float]:
    """The 95% percentile-bootstrap interval of the mean of diffs."""
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    means = diffs[rng.integers(0, len(diffs), size=(RESAMPLES, len(diffs)))].mean(axis=1)
    lo, hi = np.percentile(means, [2.5, 97.5])
    return float(lo), float(hi)


def _run_names(out: Path) -> list[str]:
    return sorted(p.parent.name for p in out.glob("*/summary.json"))


def compare(base: Path, change: Path, demos: Batch | None = None) -> list[str]:
    """The report's lines for two sweep out directories."""
    names = _run_names(base)
    if not names or names != _run_names(change):
        raise ValueError(f"{base} and {change} do not hold the same nonempty set of runs: "
                         f"{names} against {_run_names(change)}")
    pairs = sorted(((name, run_metrics(base / name, demos), run_metrics(change / name, demos))
                    for name in names), key=lambda pair: (pair[1]["seed"], pair[0]))
    keys = [k for k in pairs[0][1] if k != "seed"]
    lines = ["run seed " + " ".join(f"{k}:base,change,diff" for k in keys)]
    for name, b, c in pairs:
        lines.append(f"{name} {b['seed']} " + " ".join(
            f"{b[k]:.4f},{c[k]:.4f},{c[k] - b[k]:+.4f}" for k in keys))
    for k in keys:
        diffs = np.array([c[k] - b[k] for _, b, c in pairs])
        lo, hi = bootstrap_interval(diffs)
        lines.append(f"{k}: mean diff {diffs.mean():+.4f}, 95% CI [{lo:+.4f}, {hi:+.4f}], "
                     f"n={len(diffs)}")
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--demos", type=Path, help="point-maze demo file: adds the f gap")
    args = parser.parse_args(argv)
    demos = None
    if args.demos:
        arrays, _ = load_params(args.demos)
        demos = Batch(arrays["s"], arrays["a"], arrays["s_next"], SOURCE)
    print("\n".join(compare(args.base, args.change, demos)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
