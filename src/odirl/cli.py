"""Command-line entry points.

Subcommands: train-expert, collect-demos, run, ablate, heatmap, aggregate,
eval. Log verbosity comes from the ODIRL_LOG_LEVEL environment variable.
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
from .config import load_config
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


def _alphas(text: str) -> list[float]:
    """The --alphas list; an entry that is not a number is a usage error."""
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None


def _config_from_args(args, **extra):
    overrides = {"seed": args.seed, "out_dir": getattr(args, "out", None),
                 "alpha": getattr(args, "alpha", None), "steps": getattr(args, "steps", None)}
    return load_config(args.config, {**overrides, **extra})


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(prog="odirl",
                                     description="Off-dynamics inverse reinforcement learning")
    # No abbreviations: ablate would read --alpha as its --alphas.
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

    p = sub.add_parser("ablate", help="alpha ablation sweep")
    _add_common(p, "--out", "--steps")
    p.add_argument("--alphas", type=_alphas, default="0,0.1,0.5,1,2",
                   help="comma-separated alpha values")
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
        cfg = _config_from_args(args)
        path = harness.train_expert(cfg)
        print(f"expert checkpoint: {path}")
        return 0

    if args.command == "collect-demos":
        episodes = {} if args.episodes is None else {"expert": {"n_demo_episodes": args.episodes}}
        cfg = _config_from_args(args, **episodes)
        demos = harness.collect_demos(cfg, args.expert, args.demos_out)
        print(f"saved {int(demos.batch.ends.sum())} episodes to {args.demos_out}")
        return 0

    if args.command == "run":
        cfg = _config_from_args(args, method=args.method, demos_path=args.demos,
                                expert_path=args.expert)
        out = harness.run_experiment(cfg)
        with open(Path(out) / "summary.json") as fh:
            print(json.dumps(json.load(fh), indent=2))
        return 0

    if args.command == "ablate":
        cfg = _config_from_args(args, method="odirl", demos_path=args.demos)
        dirs = harness.run_ablation(cfg, args.alphas)
        for d in dirs:
            print(d)
        return 0

    if args.command == "heatmap":
        disc = load_discriminator(args.disc)
        reward_heatmap(disc, args.grid, args.out)
        print(f"wrote {args.grid * args.grid} cells to {args.out}")
        return 0

    if args.command == "aggregate":
        out = harness.aggregate(args.runs, args.out)
        print(f"wrote {out}")
        return 0

    if args.command == "eval":
        cfg = _config_from_args(args)
        _, _, (_, _, src_eval, tgt_eval) = harness._setup(cfg)
        env = tgt_eval if args.domain == "target" else src_eval
        policy = harness._load_policy(cfg, env.spec, args.policy)
        ret, succ = evaluate(policy, env, args.episodes)
        print(json.dumps({"domain": args.domain, "episodes": args.episodes,
                          "mean_gt_return": ret, "success_rate": succ}))
        return 0

    parser.error(f"unknown command {args.command}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
