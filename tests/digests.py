"""Byte-identity digests of every run directory of every method.

Usage: python tests/digests.py OUT_DIR [--against FILE]

On both tasks, with a small config (6 steps, r = 2, batches of 40,
checkpoints every 3 steps), runs train_expert, collect_demos (into
TASK/demos.bin), odirl at alpha 1 and 0.5 and with replay buffers small
enough to wrap, airl, gail (also with a target buffer small enough to
wrap), airl_source_transfer (also with disc.epochs: 2) and
expert_transfer, odirl and airl_source_transfer with eval_every 4 (which
does not divide the 6 steps), plus odirl with a 50 x 50 reward heatmap on
the point maze, with BLAS pinned to one thread. Then prints one "sha256  path" line per file
under OUT_DIR, paths relative to it, in sorted order. Each config.yaml
records absolute paths, so compare two outputs written to the same OUT_DIR
(move the first one away in between). OUT_DIR must be absent or empty.

With --against FILE (an earlier output of this script), also compares the
digests with FILE's: exits 0 when every line matches, else prints to stderr
how many paths differ and then each of them, in sorted order, marked
"differs" (both sides have it), "only here" or "only in FILE", and exits 1.
So a byte-identity check between two commits is

    python tests/digests.py OUT_DIR > before.txt     # on the first commit
    rm -r OUT_DIR
    python tests/digests.py OUT_DIR --against before.txt   # on the second
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# Run as a script, pin BLAS to one thread before numpy loads, as the benchmark
# worker does; a test that imports RUNS leaves its own process as it is.
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hashlib  # noqa: E402

from odirl.config import load_config  # noqa: E402
from odirl.harness import collect_demos, run_experiment, train_expert  # noqa: E402

SMALL = {
    "seed": 3, "steps": 6, "r": 2, "batch_steps": 40, "checkpoint_every": 3,
    "eval_every": 2, "eval_episodes": 2, "final_eval_trajectories": 1, "heatmap_grid": 10,
    "pointmaze": {"horizon": 20}, "linkchain": {"horizon": 15},
    "policy": {"epochs": 2, "minibatch_size": 32},
    "dd": {"batch_size": 16},
    "disc": {"minibatch_size": 32},
    "expert": {"steps": 3, "batch_steps": 40, "n_demo_episodes": 3, "demo_success_only": False},
}

TASKS = ("pointmaze", "linkchain")

# run directory name -> overrides on top of SMALL; an entry with a task runs on that task only
RUNS = {
    "odirl": {"method": "odirl"},
    "odirl_alpha0.5": {"method": "odirl", "alpha": 0.5},
    # Each ring fills and wraps several times; a source episode (up to 20
    # or 15 rows) can exceed its 13 rows on its own.
    "odirl_wrapping_buffers": {"method": "odirl",
                               "buffers": {"target_capacity": 57, "source_capacity": 13}},
    "airl": {"method": "airl"},
    "gail": {"method": "gail"},
    # The GAN-imitation baseline's target ring wraps as odirl's does.
    "gail_wrapping_buffers": {"method": "gail", "buffers": {"target_capacity": 57}},
    "airl_source_transfer": {"method": "airl_source_transfer"},
    "airl_source_transfer_disc_epochs2": {"method": "airl_source_transfer", "disc": {"epochs": 2}},
    # eval_every does not divide steps: the last iteration evaluates off the grid.
    "odirl_eval_every4": {"method": "odirl", "eval_every": 4},
    "airl_source_transfer_eval_every4": {"method": "airl_source_transfer", "eval_every": 4},
    "expert_transfer": {"method": "expert_transfer"},
    # Point maze only: a 50 x 50 heatmap crosses the 256-row chunks of its g forward.
    "odirl_heatmap_grid50": {"task": "pointmaze", "method": "odirl", "heatmap_grid": 50},
}


def _config(task: str, **overrides):
    merged = {**SMALL, "task": task}
    for key, val in overrides.items():
        merged[key] = {**merged.get(key, {}), **val} if isinstance(val, dict) else val
    return load_config(overrides=merged)


def task_runs(task: str) -> dict:
    """name -> overrides of every RUNS entry made on task, without its task key."""
    return {name: {key: val for key, val in run.items() if key != "task"}
            for name, run in RUNS.items() if run.get("task", task) == task}


def run_all(out: Path) -> None:
    for task in TASKS:
        base = out / task
        cfg = _config(task, out_dir=str(base / "expert"))
        expert = train_expert(cfg)
        demos = base / "demos.bin"
        collect_demos(cfg, expert, demos)
        for name, overrides in task_runs(task).items():
            run_experiment(_config(task, out_dir=str(base / name), demos_path=str(demos),
                                   expert_path=str(expert), **overrides))


def digests(out: Path) -> list[str]:
    """'sha256  relative/path' for every file under out, sorted by path."""
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out).as_posix()}"
            for path in sorted(p for p in out.rglob("*") if p.is_file())]


def differences(got: list[str], want: list[str]) -> list[tuple[str, str]]:
    """(path, how) for every path, in sorted order, whose digest differs
    between two digest lists ("differs") or that only `got` ("only here") or
    only `want` ("only in FILE") has; empty when they match."""
    got_by_path, want_by_path = ({path: sha for sha, path in (line.split("  ", 1) for line in lines)}
                                 for lines in (got, want))
    return [(path, "only in FILE" if path not in got_by_path
             else "only here" if path not in want_by_path else "differs")
            for path in sorted(got_by_path.keys() | want_by_path.keys())
            if got_by_path.get(path) != want_by_path.get(path)]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--against", type=Path, help="an earlier output to compare with")
    args = parser.parse_args(argv)
    out = args.out_dir.resolve()
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    want = args.against.read_text().splitlines() if args.against else None
    run_all(out)
    got = digests(out)
    print("\n".join(got))
    if want is None:
        return 0
    diff = differences(got, want)
    if diff:
        print(f"differs from {args.against} at {len(diff)} paths:", file=sys.stderr)
        for path, how in diff:
            print(f"  {path}  ({how})", file=sys.stderr)
        return 1
    print(f"identical to {args.against}: {len(got)} files", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
