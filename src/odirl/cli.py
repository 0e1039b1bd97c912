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
from pathlib import Path

import numpy as np

from . import harness
from .config import load_config
from .irl import Discriminator, reward_heatmap
from .nets import load_params
from .policy import evaluate

logger = logging.getLogger("odirl")


def _setup_logging() -> None:
    level = os.environ.get("ODIRL_LOG_LEVEL", "INFO").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO),
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None, help="YAML experiment config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--flip-reward-sign", action="store_true", default=None,
                   help="train the generator on the reversed reward sign")


def _config_from_args(args, **extra):
    overrides = {
        "seed": args.seed,
        "out_dir": args.out,
        "alpha": getattr(args, "alpha", None),
        "steps": getattr(args, "steps", None),
        "flip_reward_sign": getattr(args, "flip_reward_sign", None),
    }
    overrides.update(extra)
    return load_config(args.config, overrides)


def discriminator_from_checkpoint(path) -> Discriminator:
    arrays, meta = load_params(path)
    g_sizes = meta["g"]["layer_sizes"]
    h_sizes = meta["h"]["layer_sizes"]
    state_dim = h_sizes[0]
    g_in = g_sizes[0]
    disc = Discriminator(
        state_dim, g_in - state_dim if g_in > state_dim else 1, gamma=meta["gamma"],
        state_only_g=meta["state_only_g"], hidden=tuple(g_sizes[1:-1]), seed=0,
    )
    disc.g_net.params[...] = arrays["g"]
    disc.h_net.params[...] = arrays["h"]
    return disc


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(prog="odirl",
                                     description="Off-dynamics inverse reinforcement learning")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-expert", help="train the source-domain expert on ground truth")
    _add_common(p)

    p = sub.add_parser("collect-demos", help="roll the expert and save demonstrations")
    _add_common(p)
    p.add_argument("--expert", type=str, required=True, help="expert policy checkpoint")
    p.add_argument("--demos-out", type=str, required=True, help="output demo CSV path")
    p.add_argument("--episodes", type=int, default=None)

    p = sub.add_parser("run", help="run a training method")
    _add_common(p)
    p.add_argument("--method", type=str, default=None,
                   help="odirl | airl | airl_source_transfer | gail | expert_transfer")
    p.add_argument("--demos", type=str, default=None, help="demo CSV path")
    p.add_argument("--expert", type=str, default=None, help="expert checkpoint (expert_transfer)")

    p = sub.add_parser("ablate", help="alpha ablation sweep")
    _add_common(p)
    p.add_argument("--alphas", type=str, default="0,0.1,0.5,1,2",
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
        cfg = _config_from_args(args)
        demos = harness.collect_demos(cfg, args.expert, args.demos_out, n_episodes=args.episodes)
        print(f"saved {len(demos.trajectories)} episodes to {args.demos_out}")
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
        alphas = [float(v) for v in args.alphas.split(",") if v.strip() != ""]
        dirs = harness.run_ablation(cfg, alphas)
        for d in dirs:
            print(d)
        return 0

    if args.command == "heatmap":
        disc = discriminator_from_checkpoint(args.disc)
        reward_heatmap(disc, grid_n=args.grid, path=args.out)
        print(f"wrote {args.grid * args.grid} cells to {args.out}")
        return 0

    if args.command == "aggregate":
        out = harness.aggregate(args.runs, args.out)
        print(f"wrote {out}")
        return 0

    if args.command == "eval":
        cfg = _config_from_args(args)
        streams = harness._streams(cfg.seed)
        src, tgt, src_eval, tgt_eval = harness.build_envs(cfg, streams["seeds"])
        env = tgt_eval if args.domain == "target" else src_eval
        policy = harness._policy(cfg, env.spec, 0)
        policy.load(args.policy)
        ret, succ = evaluate(policy, env, args.episodes)
        print(json.dumps({"domain": args.domain, "episodes": args.episodes,
                          "mean_gt_return": ret, "success_rate": succ}))
        return 0

    parser.error(f"unknown command {args.command}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
