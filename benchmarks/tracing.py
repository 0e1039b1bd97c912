"""Outside-in instrumentation of one training run.

Two layers of hooks, both installed by patching names where the program looks
them up (``harness`` imports most functions by name, ``policy`` imports
``rollout``), so no file under ``src/`` changes:

* ``Clock`` timestamps the outer loop only: the start of every iteration
  (each ``collect_batch`` call from the loop), every ``evaluate`` call, the
  progress-writer close that ends the loop and, after it, every rollout of
  the final phase. At each of these boundaries it also times a fixed
  reference loop, outside every timed segment, to rescale the segments to a
  reference host speed. It is installed on untraced and traced runs alike,
  and costs a few milliseconds per iteration.
* ``Tracer`` records a span (name, start, end, parent) around every call into
  each module's public functions, plus exact per-call counts (rows, flops,
  bytes). Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

from odirl import buffers, envs, harness, nets, policy

perf = time.perf_counter


# The host's speed drifts by up to 2x within a minute (other tenants share its
# cores), and the drift shows in CPU time as well as in wall time. So every
# timed segment is bracketed by a fixed reference loop and rescaled to the
# speed at which that loop takes REFERENCE_S: a timing reads as seconds on a
# host running at that reference speed.
REFERENCE_S = 4.0e-4
_REFERENCE_REPS = 3


def reference_loop() -> float:
    """Fastest of a few timed passes of a fixed mix of interpreter work and
    small numpy calls, the same kinds of work as the training loop's."""
    vec, mat = np.arange(64.0), np.full((64, 64), 0.01)
    best = float("inf")
    for _ in range(_REFERENCE_REPS):
        start = perf()
        acc, box = 0.0, {}
        for i in range(200):
            acc += float((mat @ vec)[i % 64]) + i * 0.5
            box[i & 7] = acc
        best = min(best, perf() - start)
    return best


class Clock:
    """Marks at the outer loop's boundaries, each with the reference loop's time beside it.

    A mark is (kind, time before, time after, reference seconds); the
    reference loop runs between the two times, outside every timed segment.
    Kinds: ``call`` and ``return`` around ``run_experiment``, ``iter`` at each
    iteration's start (each ``collect_batch`` call from the loop), ``eval`` and
    ``eval_end`` around each ``evaluate`` call in the loop, ``loop_end`` at the
    progress-writer close that ends the loop, and ``final`` around every
    rollout of the final phase.
    """

    def __init__(self):
        self.marks: list[tuple[str, float, float, float]] = []

    def mark(self, kind: str) -> None:
        before = perf()
        ref = reference_loop()
        self.marks.append((kind, before, perf(), ref))

    def install(self) -> None:
        collect_batch, evaluate = harness.collect_batch, harness.evaluate
        close = harness.ProgressWriter.close
        rollout = envs.rollout
        loop_ended = False

        def timed_collect_batch(*args, **kwargs):
            self.mark("iter")
            return collect_batch(*args, **kwargs)

        def timed_evaluate(*args, **kwargs):
            if loop_ended:          # the final phase's evaluation: its rollouts are marked
                return evaluate(*args, **kwargs)
            self.mark("eval")
            try:
                return evaluate(*args, **kwargs)
            finally:
                self.mark("eval_end")

        def timed_close(writer):
            nonlocal loop_ended
            if not loop_ended:
                loop_ended = True
                self.mark("loop_end")
            return close(writer)

        def timed_rollout(*args, **kwargs):
            if not loop_ended:
                return rollout(*args, **kwargs)
            self.mark("final")
            try:
                return rollout(*args, **kwargs)
            finally:
                self.mark("final")

        harness.collect_batch = timed_collect_batch
        harness.evaluate = timed_evaluate
        harness.ProgressWriter.close = timed_close
        harness.rollout = policy.rollout = envs.rollout = timed_rollout

    def summary(self) -> dict:
        """Set-up time, per-iteration time split into evaluation and the rest,
        and the final phase cut into segments at its rollout boundaries, all at
        reference speed: a segment's wall time times REFERENCE_S over the mean
        of the reference times at its two ends."""
        setup_s, iter_s, eval_s, final_s = 0.0, [], [], []
        for (kind, _, start, ref_lo), (_, end, _, ref_hi) in zip(self.marks, self.marks[1:]):
            seconds = (end - start) * 2 * REFERENCE_S / (ref_lo + ref_hi)
            if kind == "call":
                setup_s = seconds
            elif kind == "iter":
                iter_s.append(seconds)
                eval_s.append(0.0)
            elif kind == "eval":
                eval_s[-1] += seconds
            elif kind == "eval_end":
                iter_s[-1] += seconds
            else:
                final_s.append(seconds)
        return {
            "setup_s": setup_s,
            "final_segments_s": final_s,
            "iter_s": iter_s,
            "eval_s": eval_s,
            "reference_s": sum(m[2] - m[1] for m in self.marks[1:-1]),
            "wall_s": self.marks[-1][1] - self.marks[0][2],
            "speed": [REFERENCE_S / m[3] for m in self.marks],
        }


# ---------------------------------------------------------------------------
# Cost model for dense layers (float64)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _layer_totals(layer_sizes: tuple) -> tuple[int, int, int]:
    """(multiply-adds per row, parameter count, sum of layer widths) of a dense stack."""
    pairs = list(zip(layer_sizes[:-1], layer_sizes[1:]))
    return sum(a * b for a, b in pairs), sum((a + 1) * b for a, b in pairs), sum(layer_sizes)


def mlp_cost(layer_sizes, rows: int) -> dict:
    """Computed flops and bytes of one forward and one backward pass over `rows` inputs.

    Forward: 2*rows*in*out multiply-adds per layer; reads every parameter once
    and writes each layer's activations. Backward: twice the forward matmul
    work (weight gradient and input delta); reads the weights and cached
    activations, reads and writes the gradient, writes the deltas.
    """
    macs, n_params, width = _layer_totals(tuple(layer_sizes))
    act = rows * width
    return {
        "params": n_params,
        "forward_flops": 2 * rows * macs,
        "forward_bytes": 8 * (n_params + act),
        "backward_flops": 4 * rows * macs,
        "backward_bytes": 8 * (3 * n_params + 2 * act),
    }


def _rows(x) -> int:
    return 1 if np.ndim(x) == 1 else len(x)


# Extra counters per traced name: (counter suffixes, args -> amounts in that order).
def _forward_amounts(args):
    rows = _rows(args[1])
    cost = mlp_cost(args[0].layer_sizes, rows)
    return rows, int(rows == 1), cost["forward_flops"], cost["forward_bytes"]


def _backward_amounts(args):
    rows = _rows(args[1])
    cost = mlp_cost(args[0].layer_sizes, rows)
    return rows, cost["backward_flops"], cost["backward_bytes"]


COUNT_FORWARD = (("rows", "b1_calls", "flops", "bytes"), _forward_amounts)
COUNT_BACKWARD = (("rows", "flops", "bytes"), _backward_amounts)
COUNT_ADAM = (("params",), lambda args: (sum(b.params.size for b in args[0].blocks),))
COUNT_LEN = (("rows",), lambda args: (len(args[1]),))            # batch or trajectory
COUNT_N = (("rows",), lambda args: (int(args[1]),))              # sample(n, rng)
COUNT_DISC = (("rows",), lambda args: (len(args[1]) + len(args[2]),))


class Tracer:
    """Span recorder with per-name self time, inclusive time and counters."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []   # id, name, start, end, parent
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []          # [span id, time covered by children]
        self._next_id = 0

    def wrap(self, name: str, fn, count=None):
        stack, spans = self._stack, self.spans
        self_s, total_s, counts = self.self_s, self.total_s, self.counts
        calls_key = name + ".calls"
        if count is not None:
            suffixes, amounts = count
            keys = [f"{name}.{suffix}" for suffix in suffixes]

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                self_s[name] += dur - frame[1]
                total_s[name] += dur
                if stack:
                    stack[-1][1] += dur
                spans.append((span_id, name, start, end, parent))
                counts[calls_key] += 1
                if count is not None:
                    for key, val in zip(keys, amounts(args)):
                        counts[key] += val

        return traced

    def counter(self, name: str, fn):
        """Count calls without a span (for steps inside an already-traced call)."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        def patch(owner, attr, name, count=None):
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))

        patch(harness, "run_experiment", "harness.run_experiment")
        patch(harness, "collect_batch", "harness.collect_batch")
        patch(harness, "_final_artifacts", "harness.final_artifacts")
        traced_rollout = self.wrap("envs.rollout", envs.rollout)
        harness.rollout = policy.rollout = envs.rollout = traced_rollout
        patch(envs.PointMazeEnv, "step", "envs.step")
        patch(envs.LinkChainEnv, "step", "envs.step")
        patch(nets.Mlp, "forward", "nets.forward", COUNT_FORWARD)
        patch(nets.Mlp, "backward", "nets.backward", COUNT_BACKWARD)
        patch(nets.Adam, "step", "nets.adam", COUNT_ADAM)
        patch(policy.GaussianPolicy, "sample_action", "policy.sample_action")
        patch(policy.GaussianPolicy, "log_prob", "policy.log_prob", COUNT_LEN)
        patch(policy.PolicyOptimizer, "update", "policy.update")
        policy.PolicyOptimizer._policy_step = self.counter(
            "policy.update.minibatch_steps", policy.PolicyOptimizer._policy_step)
        patch(harness, "evaluate", "policy.evaluate")
        patch(harness, "classifier_loss", "dd.classifier_loss")
        patch(harness, "dd_for_transitions", "dd.dd_for_transitions", COUNT_LEN)
        patch(harness, "disc_loss", "irl.disc_loss", COUNT_DISC)
        patch(harness, "gail_disc_loss", "irl.gail_disc_loss", COUNT_DISC)
        patch(harness, "reward_heatmap", "irl.reward_heatmap")
        patch(buffers.ReplayBuffer, "push", "buffers.push", COUNT_LEN)
        patch(buffers.ReplayBuffer, "sample", "buffers.sample", COUNT_N)
        patch(buffers.DemoSet, "sample", "buffers.demo_sample", COUNT_N)
        patch(harness, "load_demos", "buffers.load_demos")

    def write(self, path) -> None:
        """Spans as CSV sorted by id: id, parent, name, start, end (seconds, run clock)."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start,end\n")
            for span_id, name, start, end, parent in sorted(self.spans):
                fh.write(f"{span_id},{parent},{name},{start!r},{end!r}\n")
