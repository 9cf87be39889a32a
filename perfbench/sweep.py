#!/usr/bin/env python3
"""One-off layer sweep: single layers at the sizes the roadmap quotes.

    python3 perfbench/sweep.py [--out perfbench/sweep.json]

Times each case in process with the benchmark's own tracer counting solver
iterations and interpolation calls, and writes median and minimum seconds
beside the quoted figure. It is a record, not a gate: the benchmark does not
run it. Inputs come from the workload generators at seed 0, resized.
"""
import argparse
import dataclasses
import json
import statistics
import sys
import time

from run import ROOT, cap_blas_threads, setup_paths

REPEATS = 3

# case -> (quoted seconds, quoted Sinkhorn iterations or None)
QUOTED = {
    "moser_map_2d_n64": (1.08, None),
    "moser_map_1d_n128": (0.15, None),
    "w1_sinkhorn_upper_2d_n64": (36.2, None),
    "brenier_map_n32_eps1e-3": (7.7, 682),
}


def cases():
    from randmap import measures, moser, transport
    from randmap.measures import GridDensity
    from workloads import WORKLOADS, family

    def target(name, n, i=0):
        return family(dataclasses.replace(WORKLOADS[name], n=n), 0)[1][i]

    torus64 = target("torus-moser", 64)
    circle128 = target("circle-moser", 128)
    other64 = target("torus-moser", 64, 1)
    box32 = target("box-brenier", 32)
    return {
        "moser_map_2d_n64": lambda: moser.moser_map(GridDensity.uniform(2, 64), torus64),
        "moser_map_1d_n128": lambda: moser.moser_map(GridDensity.uniform(1, 128), circle128),
        "w1_sinkhorn_upper_2d_n64":
            lambda: measures.wasserstein_sinkhorn_upper(torus64, other64, p=1, periodic=True),
        "brenier_map_n32_eps1e-3":
            lambda: transport.brenier_map(GridDensity.uniform(2, 32), box32, 1e-3),
    }


def main() -> int:
    from harness import environment
    from tracer import Tracer

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "sweep.json"))
    args = parser.parse_args()
    rows = {}
    for name, call in cases().items():
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        with Tracer() as tracer:
            call()
        quoted_s, quoted_iters = QUOTED[name]
        rows[name] = {
            "median_s": statistics.median(times),
            "min_s": min(times),
            "repeats": REPEATS,
            "quoted_s": quoted_s,
            "median_over_quoted": statistics.median(times) / quoted_s,
            "sinkhorn_iters": tracer.counts["transport.sinkhorn_iters"],
            "quoted_sinkhorn_iters": quoted_iters,
            "interp_grid_calls": sum(s.name == "geometry.interp_grid" for s in tracer.spans),
        }
        print(name, json.dumps(rows[name]), flush=True)
    with open(args.out, "w") as fh:
        json.dump({"environment": environment(ROOT), "cases": rows}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    setup_paths()
    cap_blas_threads()
    sys.exit(main())
