"""Command-line entry points.

Subcommands: train-expert, collect-demos, run, sweep (one run per entry of a
YAML grid: run-directory name -> config overrides), heatmap, aggregate, eval.
Log verbosity comes from the ODIRL_LOG_LEVEL environment variable.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from functools import partial
from pathlib import Path

from . import harness
from .config import load_config, read_yaml
from .irl import load_discriminator, reward_heatmap
from .policy import evaluate


def _setup_logging() -> None:
    level = os.environ.get("ODIRL_LOG_LEVEL", "INFO").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO),
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")


# Flags a subcommand takes only if it reads their config key: --out sets out_dir.
_KEY_FLAGS = {"--out": dict(type=str, help="output directory"), "--alpha": dict(type=float),
              "--steps": dict(type=int)}


def _add_common(p: argparse.ArgumentParser, *key_flags: str) -> None:
    """--config and --seed, then each of key_flags (keys of `_KEY_FLAGS`)."""
    p.add_argument("--config", type=str, default=None, help="YAML experiment config")
    p.add_argument("--seed", type=int, default=None)
    for flag in key_flags:
        p.add_argument(flag, default=None, **_KEY_FLAGS[flag])


def _overrides(args, **extra) -> dict:
    """The config keys the flags set (None where a flag is not given), and extra."""
    return {"seed": args.seed, "out_dir": getattr(args, "out", None),
            "alpha": getattr(args, "alpha", None), "steps": getattr(args, "steps", None), **extra}


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(prog="odirl",
                                     description="Off-dynamics inverse reinforcement learning")
    # No abbreviations: a flag a subcommand does not take is an error, not a prefix.
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=partial(argparse.ArgumentParser, allow_abbrev=False))

    p = sub.add_parser("train-expert", help="train the source-domain expert on ground truth")
    _add_common(p, "--out")

    p = sub.add_parser("collect-demos", help="roll the expert and save demonstrations")
    _add_common(p)
    p.add_argument("--expert", type=str, required=True, help="expert policy checkpoint")
    p.add_argument("--demos-out", type=str, required=True, help="output demo file path")
    p.add_argument("--episodes", type=int, default=None, help="overrides expert.n_demo_episodes")

    p = sub.add_parser("run", help="run a training method")
    _add_common(p, "--out", "--alpha", "--steps")
    p.add_argument("--method", type=str, default=None,
                   help="odirl | airl | airl_source_transfer | gail | expert_transfer")
    p.add_argument("--demos", type=str, default=None, help="demo file path")
    p.add_argument("--expert", type=str, default=None, help="expert checkpoint (expert_transfer)")

    p = sub.add_parser("sweep", help="one run per entry of a grid of config overrides")
    _add_common(p, "--out", "--steps")
    p.add_argument("--grid", type=str, required=True,
                   help="YAML mapping: run directory name -> config overrides")
    p.add_argument("--demos", type=str, default=None)

    p = sub.add_parser("heatmap", help="dump the reward term over the arena grid")
    p.add_argument("--disc", type=str, required=True, help="discriminator checkpoint")
    p.add_argument("--out", type=str, required=True, help="output CSV path")
    p.add_argument("--grid", type=int, default=50)

    p = sub.add_parser("aggregate", help="summarize runs into a band-plot CSV")
    p.add_argument("--runs", type=str, nargs="+", required=True)
    p.add_argument("--out", type=str, required=True)

    p = sub.add_parser("eval", help="evaluate a policy checkpoint")
    _add_common(p)
    p.add_argument("--policy", type=str, required=True)
    p.add_argument("--domain", type=str, default="target", choices=["source", "target"])
    p.add_argument("--episodes", type=int, default=20)

    args = parser.parse_args(argv)

    if args.command == "train-expert":
        path = harness.train_expert(load_config(args.config, _overrides(args)))
        print(f"expert checkpoint: {path}")
        return 0

    if args.command == "collect-demos":
        episodes = {} if args.episodes is None else {"expert": {"n_demo_episodes": args.episodes}}
        cfg = load_config(args.config, _overrides(args, **episodes))
        demos = harness.collect_demos(cfg, args.expert, args.demos_out)
        print(f"saved {int(demos.batch.ends.sum())} episodes to {args.demos_out}")
        return 0

    if args.command == "run":
        out = harness.run_experiment(load_config(args.config, _overrides(
            args, method=args.method, demos_path=args.demos, expert_path=args.expert)))
        with open(Path(out) / "summary.json") as fh:
            print(json.dumps(json.load(fh), indent=2))
        return 0

    if args.command == "sweep":
        grid = read_yaml(args.grid)
        for d in harness.run_sweep(args.config, _overrides(args, demos_path=args.demos), grid):
            print(d)
        return 0

    if args.command == "heatmap":
        disc = load_discriminator(args.disc)
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        reward_heatmap(disc, args.grid, args.out)
        print(f"wrote {args.grid * args.grid} cells to {args.out}")
        return 0

    if args.command == "aggregate":
        out = harness.aggregate(args.runs, args.out)
        print(f"wrote {out}")
        return 0

    if args.command == "eval":
        cfg = load_config(args.config, _overrides(args))
        run = harness._Run(cfg)
        env = run.tgt_eval if args.domain == "target" else run.src_eval
        policy, _ = harness._load_policy(cfg, env.spec, args.policy)
        ret, succ = evaluate(policy, env, args.episodes)
        print(json.dumps({"domain": args.domain, "episodes": args.episodes,
                          "mean_gt_return": ret, "success_rate": succ}))
        return 0

    parser.error(f"unknown command {args.command}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
