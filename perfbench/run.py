#!/usr/bin/env python3
"""Closed-loop benchmark of the randmap CLI on seeded kernel families.

    python3 perfbench/run.py --workload circle-moser --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from any directory; the package is imported from the `src/` tree next
to this directory. With `--trace 0` the run prints the end-to-end metrics,
with `--trace 1` the per-layer metrics of a traced run. The last line of
standard output is one JSON object; the exit code is 0 only if every output
check passed. See perfbench/README.md for the workloads and metrics.
"""
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> None:
    """Give BLAS no more threads than this process may run on.

    numpy reads these variables once, when it is first imported.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        if not 1 <= current <= nproc:
            os.environ[var] = str(nproc)


def setup_paths() -> None:
    """Import randmap from this checkout's sources and the harness from here."""
    if not (ROOT / "src" / "randmap" / "cli.py").is_file():
        sys.exit(f"error: no randmap sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


if __name__ == "__main__":
    setup_paths()
    cap_blas_threads()
    import harness

    sys.exit(harness.main(sys.argv[1:], ROOT))
