"""Time one cold set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> <directory>

Imports `randmap.cli` (every CLI user pays this import), then generates the
workload's inputs and writes them to <directory>. Prints the elapsed
seconds; the harness runs it several times and reports the median.
"""
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    t0 = time.perf_counter()
    from run import setup_paths

    setup_paths()
    import randmap.cli  # noqa: F401  (the import is what is timed)
    from workloads import WORKLOADS, write_inputs

    write_inputs(WORKLOADS[sys.argv[1]], int(sys.argv[2]), Path(sys.argv[3]))
    print(repr(time.perf_counter() - t0))
