#!/usr/bin/env python3
"""Closed-loop benchmark of the RSQP reproduction, on two clocks.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-warm --seed 1 \
        --seconds 20 --trace 0

One client drives one workload in a closed loop for ``--seconds``,
every answer is checked after the clock stops, and the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (host clock and simulated
clock); ``--trace 1`` wraps each ``repro`` layer with span recorders
and reports the per-layer metrics instead. A full report, including
the ``host`` block and (when traced) every span, is written under
``.bench_build/perfbench/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

#: Thread pools of the numeric libraries, pinned to one thread: the host
#: has two cores and the benchmark never runs more than two busy
#: threads or processes.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def configure_environment() -> None:
    """Fix every hidden input the program reads from the environment.

    Must run before numpy is imported (BLAS reads its thread count at
    load time) and before any worker process is forked.
    """
    for name in THREAD_VARS:
        os.environ[name] = "1"
    # Temporary files (gcc's included) stay inside the checkout.
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    # The cjit disk cache is benchmark-owned: a shared or cold cache
    # turns the first solve of a structure into a gcc run.
    os.environ["REPRO_JIT_CACHE"] = str(OUT / "cjit")
    os.environ["REPRO_JIT"] = "1"
    os.environ["REPRO_VERIFY_CODEGEN"] = "1"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    configure_environment()
    sys.path.insert(0, str(SRC))
    import harness
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    report = harness.run(WORKLOADS[args.workload](), seed=args.seed,
                         seconds=args.seconds, traced=bool(args.trace),
                         out_dir=OUT)
    harness.print_report(report)
    stop_resource_tracker()
    return 0 if report["result"]["correct"] else 1


def stop_resource_tracker() -> None:
    """Stop and reap the process ``multiprocessing.shared_memory``
    starts on ``shard-ipc``, so the benchmark leaves none behind."""
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
