"""One training run in a fresh process: ``harness.run_experiment`` on a generated config.

Usage: python3 benchmarks/worker.py CONFIG OUT_DIR RESULT_JSON [SPANS_CSV]

With SPANS_CSV the run is traced and the result carries per-layer totals.
The result JSON holds the loop timings, the peak RSS and, when traced, the
tracer's self times, inclusive times and counters.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Pin BLAS to one thread before numpy loads: with the default thread count
# the same run varies far more from one run to the next.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import json  # noqa: E402
import resource  # noqa: E402

from odirl import harness  # noqa: E402
from odirl.config import load_config  # noqa: E402
from tracing import Clock, Tracer  # noqa: E402


def main(argv: list[str]) -> None:
    config_path, out_dir, result_path = argv[:3]
    spans_path = argv[3] if len(argv) > 3 else None
    cfg = load_config(config_path, overrides={"out_dir": out_dir})
    clock = Clock()
    tracer = None
    if spans_path:
        # Installed first, so the clock's reference loops fall outside the
        # traced calls, each in a span of its own.
        tracer = Tracer()
        tracer.install()
        clock.mark = tracer.wrap("trace.reference", clock.mark)
    clock.install()
    clock.mark("call")
    harness.run_experiment(cfg)
    clock.mark("return")
    result = clock.summary()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["self_s"] = dict(tracer.self_s)
        result["total_s"] = dict(tracer.total_s)
        result["counts"] = dict(tracer.counts)
        tracer.write(spans_path)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
