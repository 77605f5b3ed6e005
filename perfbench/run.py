#!/usr/bin/env python3
"""Benchmark of `groupcompress compress`, end to end and layer by layer.

Run from the root of a checkout (it imports the package from ``src/``)::

    python3 perfbench/run.py --workload res34-d-truncate --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics with no tracing: set-up three
times, then fresh ``groupcompress compress`` processes (peak RSS and CPU from
``os.wait4`` on each child alone) alternating with blocks of interleaved
original/compressed inference. ``compress_s`` and ``infer_s`` are given in
reference seconds, corrected for drifting machine speed by a fixed numpy
kernel timed beside them (``refclock.py``). ``--trace 1`` adds one
compress process run under ``tracer.py`` (spans around every public function
of each layer module) and a per-conv probe, and reports the per-layer
metrics. Both run the correctness gate. The load is closed: one process,
one compress at a time, one BLAS thread.

The last stdout line of a workload is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. A fuller record (machine, checks, per-conv rows,
span self times) goes to ``.perfbench/results/``. ``--smoke`` runs the same
code paths on ``toy3``/``toy4`` in seconds and checks that every metric in
``BENCHMARK.json`` is emitted with its unit and that the spans nest.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORK_DIR = ".perfbench"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check the benchmark itself on the toy networks")
    args = parser.parse_args(argv)
    if not args.smoke and not args.workload:
        parser.error("--workload is required unless --smoke is given")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "groupcompress" / "__init__.py").is_file():
        print(f"error: {src / 'groupcompress'} not found; run from the root of a "
              "groupcompress checkout", file=sys.stderr)
        return 2
    # Before numpy loads: the harness and every child run BLAS on one
    # thread. On a small shared machine a second BLAS thread waits on
    # whichever vCPU a neighbour holds, which slows GEMM-heavy code and not
    # the rest, so no single clock of machine speed could correct for it.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(src)
    sys.path.insert(0, str(src))
    import groupcompress

    if Path(groupcompress.__file__).resolve().parent != (src / "groupcompress").resolve():
        print(f"error: imported groupcompress from {groupcompress.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    import harness

    try:
        if args.smoke:
            return harness.smoke(root, root / WORK_DIR)
        return harness.main(args, root / WORK_DIR)
    finally:
        harness.stop_launcher()


if __name__ == "__main__":
    sys.exit(main())
