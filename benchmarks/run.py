"""odirl benchmark: seeded training workloads timed end to end, or traced per layer.

Usage (from the repository root):

    python3 benchmarks/run.py --workload pointmaze-odirl --seed 1 --seconds 35 --trace 0

The inputs (a resolved config and a scripted-expert demo CSV) are generated
from --seed before any timing. Every training run is a fresh worker process
calling ``harness.run_experiment`` with BLAS pinned to one thread; workers run
one at a time. Every run's outputs are checked, and repeated runs of one
(workload, seed) must produce byte-identical progress and final policy.

--trace 0 repeats untraced runs until --seconds is used and reports the
end-to-end metrics. Their times are rescaled to a reference host speed (see
``tracing.Clock``): the host's own speed drifts by up to 2x within a minute,
far more than any bound a raw timing could keep. The lines before the result
give each run's measured speed and raw wall time. --trace 1 makes one
untraced and one traced run, runs the kernel probes and reports the
per-layer metrics; the spans go to ``.bench_work/<workload>/spans.csv``.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The lines before it print every metric by name and unit,
the failure rate and the run environment.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "odirl" / "__init__.py").is_file():
    sys.exit(f"no odirl sources under {ROOT / 'src'}: run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import csv  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from odirl.config import load_config  # noqa: E402
from probes import run_probes  # noqa: E402
from workloads import WORKLOADS, prepare  # noqa: E402

HARD_LIMIT_S = 170.0         # the whole invocation, generation and every worker included
MIN_RUNS = 2                 # the determinism check needs a repeat
MIN_COVERAGE = 0.95

END_TO_END_UNITS = {
    "train_steps_per_s": "transitions/s",
    "iter_s.p50": "s",
    "iter_s.p90": "s",
    "eval_s.p50": "s",
    "setup_s": "s",
    "final_s": "s",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def check_run(cfg, run_dir: Path) -> tuple[str, int, list[str]]:
    """(digest of progress.csv + final policy, target steps, failed checks) for one run."""
    try:
        with open(run_dir / "progress.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(run_dir / "summary.json") as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        return "", 0, [f"unreadable run outputs: {exc}"]
    problems = []
    if len(rows) != cfg.steps:
        problems.append(f"progress.csv has {len(rows)} rows, expected {cfg.steps}")
    for i, row in enumerate(rows, start=1):
        for key, val in row.items():
            if val != "" and not _is_finite_number(val):
                problems.append(f"progress.csv row {i}: {key}={val} is not a finite number")
    if rows:
        for key in ("target_steps", "source_steps"):
            if summary[key] != int(rows[-1][key]):
                problems.append(f"summary {key}={summary[key]} != last progress row {rows[-1][key]}")
    uses_dd = cfg.method in ("odirl", "airl")
    if (summary["source_steps"] > 0) != (uses_dd and cfg.steps >= cfg.r):
        problems.append(f"source_steps={summary['source_steps']} for method {cfg.method}, "
                        f"steps={cfg.steps}, r={cfg.r}")
    expected = ["checkpoints/policy_final.bin", "checkpoints/value_final.bin",
                "final_eval_target.csv", "final_eval_source.csv"]
    expected += (["checkpoints/disc_final.bin", "checkpoints/classifiers_final.bin"] if uses_dd
                 else ["checkpoints/gail_final.bin"])
    problems += [f"missing {name}" for name in expected if not (run_dir / name).is_file()]
    digest = hashlib.sha256()
    for name in ("progress.csv", "checkpoints/policy_final.bin"):
        if (run_dir / name).is_file():
            digest.update((run_dir / name).read_bytes())
    return digest.hexdigest(), summary["target_steps"], problems


def _is_finite_number(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------

class Session:
    """Runs workers one at a time for one (workload, seed) and keeps their outcomes."""

    def __init__(self, config_path: Path, work: Path, deadline: float):
        self.config_path = config_path
        self.cfg = load_config(config_path)
        self.work = work
        self.deadline = deadline
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.digests: list[str] = []

    def run(self, traced: bool = False) -> dict | None:
        """One worker; returns its result, or None when it or its checks failed."""
        self.attempted += 1
        result = self._run(traced)
        self.failed += result is None
        return result

    def _run(self, traced: bool) -> dict | None:
        tag = f"{'traced' if traced else 'run'}{self.attempted}"
        run_dir, result_path = self.work / tag, self.work / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), str(self.config_path), str(run_dir),
               str(result_path)]
        if traced:
            cmd.append(str(self.work / "spans.csv"))
        try:
            with open(self.work / f"{tag}.log", "w") as log:
                proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                      timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.failures.append(f"{tag}: timed out")
            return None
        if proc.returncode != 0:
            tail = (self.work / f"{tag}.log").read_text().strip().splitlines()[-1:]
            self.failures.append(f"{tag}: exit code {proc.returncode}: {' '.join(tail)}")
            return None
        digest, target_steps, problems = check_run(self.cfg, run_dir)
        shutil.rmtree(run_dir)
        self.digests.append(digest)
        if self.digests[0] != digest:
            problems.append("progress.csv/policy_final.bin differ from the first run of this seed")
        if problems:
            self.failures += [f"{tag}: {p}" for p in problems]
            return None
        with open(result_path) as fh:
            result = json.load(fh)
        result["target_steps"] = target_steps
        return result


def end_to_end(results: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics from repeated runs of identical work.

    Every time is at reference host speed. The repeats of one (workload,
    seed) do the same computation (their outputs are byte-identical), so what
    differs between the times of one iteration across repeats is the host:
    preemptions, which only add time, and the few percent of its speed drift
    that the rescaling leaves. Each iteration, each evaluation and each
    segment of the final phase (cut at its rollout boundaries) is therefore
    timed by its fastest repeat; p50/p90 are then taken across iterations,
    where the work itself varies. Set-up time is the median over repeats.
    """
    iter_s = np.min([r["iter_s"] for r in results], axis=0)
    eval_s = np.min([r["eval_s"] for r in results], axis=0)
    loop_s = np.min([np.add(r["iter_s"], r["eval_s"]) for r in results], axis=0).sum()
    evals = eval_s[eval_s > 0]
    return {
        "train_steps_per_s": results[0]["target_steps"] / loop_s,
        "iter_s.p50": float(np.median(iter_s)),
        "iter_s.p90": float(np.percentile(iter_s, 90)),
        "eval_s.p50": float(np.median(evals)),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "final_s": float(np.min([r["final_segments_s"] for r in results], axis=0).sum()),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }, {"runs": len(results), "iterations": len(iter_s), "evaluations": len(evals),
        "host_speed": [round(float(np.median(r["speed"])), 3) for r in results],
        "wall_s": [round(r["wall_s"], 3) for r in results]}


def per_layer(traced: dict, untraced: dict, steps: int, n_demo_rows: int) -> dict:
    self_s, total_s = traced["self_s"], traced["total_s"]
    counts = traced["counts"]
    wall = total_s["harness.run_experiment"] - traced["reference_s"]
    glue = self_s["harness.run_experiment"]
    metrics = {
        "harness.collect_batch.total_s": total_s.get("harness.collect_batch", 0.0),
        "harness.final_artifacts.total_s": total_s.get("harness.final_artifacts", 0.0),
        "harness.s": glue,
        "harness.coverage": 1.0 - glue / wall,
        "trace.overhead": (statistics.median(traced["iter_s"])
                           / statistics.median(untraced["iter_s"]) - 1.0),
        "policy.evaluate.total_s": total_s.get("policy.evaluate", 0.0),
        "irl.reward_heatmap.total_s": total_s.get("irl.reward_heatmap", 0.0),
        "buffers.load_demos.s": self_s.get("buffers.load_demos", 0.0),
        "policy.log_prob_per_env_step": (counts.get("policy.log_prob.calls", 0)
                                         / counts["envs.step.calls"]),
        "dd.rows_per_iter_per_demo_row": (counts.get("dd.dd_for_transitions.rows", 0)
                                          / (steps * n_demo_rows)),
        "policy.update.minibatch_steps": counts.get("policy.update.minibatch_steps", 0),
    }
    layout = {
        "envs.step": ("calls", "s"),
        "envs.rollout": ("calls", "s"),
        "nets.forward": ("calls", "rows", "b1_calls", "flops", "bytes", "s"),
        "nets.backward": ("calls", "rows", "flops", "bytes", "s"),
        "nets.adam": ("calls", "params", "s"),
        "policy.sample_action": ("calls", "s"),
        "policy.log_prob": ("calls", "rows", "s"),
        "policy.update": ("calls", "s", "total_s"),
        "dd.classifier_loss": ("calls", "s", "total_s"),
        "dd.dd_for_transitions": ("calls", "rows", "s", "total_s"),
        "irl.disc_loss": ("calls", "rows", "s", "total_s"),
        "irl.gail_disc_loss": ("calls", "rows", "s", "total_s"),
        "buffers.push": ("calls", "rows", "s"),
        "buffers.sample": ("calls", "rows", "s"),
        "buffers.demo_sample": ("rows", "s"),
    }
    for name, fields in layout.items():
        for field in fields:
            key = f"{name}.{field}"
            if field == "s":
                metrics[key] = self_s.get(name, 0.0)
            elif field == "total_s":
                metrics[key] = total_s.get(name, 0.0)
            else:
                metrics[key] = counts.get(key, 0)
    return metrics


# ---------------------------------------------------------------------------
# Run environment
# ---------------------------------------------------------------------------

def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is the bundled one."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload: str, seed: int, cfg_seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "git_sha": sha,
        "workload": workload,
        "workload_seed": seed,
        "config_seed": cfg_seed,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.monotonic()

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    config_path, n_demo_rows = prepare(WORKLOADS[args.workload], args.seed, work)
    session = Session(config_path, work, start + HARD_LIMIT_S)
    measure_end = time.monotonic() + args.seconds

    results, info = [], {}
    if args.trace:
        untraced = session.run()
        traced = session.run(traced=True)
        metrics = {}
        if untraced is not None and traced is not None:
            metrics = per_layer(traced, untraced, session.cfg.steps, n_demo_rows)
            metrics.update(run_probes(args.seed))
            if metrics["harness.coverage"] < MIN_COVERAGE:
                session.failures.append(f"traced run covers {metrics['harness.coverage']:.3f} "
                                        f"of wall, below {MIN_COVERAGE}")
            if session.cfg.method == "gail":
                session.failures += [f"gail run called {key.removesuffix('.calls')} {n} times"
                                     for key in ("dd.classifier_loss.calls",
                                                 "dd.dd_for_transitions.calls",
                                                 "irl.disc_loss.calls")
                                     if (n := metrics[key])]
        units = {k: _layer_unit(k) for k in metrics}
    else:
        last = 0.0
        while (session.attempted < MIN_RUNS
               or time.monotonic() + last <= measure_end) and time.monotonic() < session.deadline:
            t0 = time.monotonic()
            result = session.run()
            last = time.monotonic() - t0
            if result is not None:
                results.append(result)
        metrics, info = end_to_end(results) if results else ({}, {})
        units = END_TO_END_UNITS

    env = environment(args.workload, args.seed, session.cfg.seed)
    with open(work / "result.json", "w") as fh:
        json.dump({"environment": env, "samples": info, "failures": session.failures,
                   "metrics": metrics}, fh, indent=1)
    for problem in session.failures:
        print(f"FAILED {problem}")
    for key, value in metrics.items():
        print(f"{args.workload} {key} = {value:.6g} {units[key]}")
    print(f"{args.workload} fail_rate = {session.failed / session.attempted:.6g} "
          f"({session.failed}/{session.attempted} runs)")
    if info:
        print(f"{args.workload} samples: {json.dumps(info)}")
    print("environment: " + json.dumps(env))
    print(json.dumps({
        "correct": not session.failures and bool(metrics),
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _layer_unit(key: str) -> str:
    if key.endswith("_us"):
        return "us"
    last = key.rsplit(".", 1)[-1]
    if last in ("s", "total_s"):
        return "s"
    if last in ("flops", "bytes", "params"):
        return last
    if key in ("harness.coverage", "trace.overhead", "policy.log_prob_per_env_step",
               "dd.rows_per_iter_per_demo_row"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
