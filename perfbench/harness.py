"""Closed-loop client, output checks, metrics and results file of the benchmark.

One client in one process calls `randmap.cli.main` in process (closed loop:
each call starts when the previous one has returned). After one untimed
warm-up `represent`, the run makes rounds of the workload's `represent`
and `verify` calls, over verify seeds 0, 1, 2, …, until the
workload's verify count is reached and the run's seconds are up. A
machine-speed probe runs before every call. A traced run (`--trace 1`)
makes one untraced and one traced represent/verify pair instead, with the
same verify seed, and reports per-layer totals from the tracer's spans.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import randmap.cli
from run import BLAS_THREAD_VARS, HERE
from tracer import Tracer, totals
from workloads import WORKLOADS, Workload, family, verify_seed, write_inputs

SETUP_REPEATS = 3
VERIFY_TOL = 0.05
PROBE_TIMEOUT_S = 120

# Machine-speed probe. On a shared host, other tenants slow interpreter-bound
# code by up to about 1.9x, in spells of tens of seconds to hours, so the raw
# time of a call on small arrays says more about the host than about the
# program. The probe, a fixed round of the same kind of work, runs once
# before every CLI call of a run; the run's speed factor is its mean probe
# time over PROBE_REF_S. The timings of the commands a workload lists in
# `speed_scaled` are divided by that factor. PROBE_REF_S only fixes the unit
# of those timings (seconds on a machine where the probe takes that long);
# parent and child runs share it, so a comparison does not depend on it.
PROBE_ROUNDS = 4000
PROBE_REF_S = 0.040

END_TO_END = {
    "represent_s": "s",
    "verify_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "w1_max": "dist",
    "pushforward_err_max": "dist",
    "ok_frac": "ratio",
}

# per-layer metric stem -> the traced functions whose spans it sums
TIMED = {
    "geometry.interp_grid": ("geometry.interp_grid",),
    "geometry.deposit_grid": ("geometry.deposit_grid",),
    "moser.integrate_flow": ("moser.integrate_flow",),
    "moser.poisson": ("moser.solve_poisson_periodic",),
    "transport.solve_sinkhorn": ("transport.solve_sinkhorn",),
    "transport.brenier_map": ("transport.brenier_map",),
    "transport.map_evaluate": ("transport.TransportMap.evaluate",),
    "measures.w1_sinkhorn_upper": ("measures.wasserstein_sinkhorn_upper",),
    "measures.w1_1d": ("measures.wasserstein_1d",),
    "measures.grid_pushforward": ("measures.grid_pushforward",),
    "measures.draw_sample": ("measures.draw_sample",),
    "kernel.continuity_modulus": ("kernel.continuity_modulus",),
    "kernel.verify": ("kernel.verify_representation",),
    "kernel.build": ("kernel.build_continuous_representation",
                     "kernel.build_measurable_representation"),
}

PER_LAYER = {
    **{f"{stem}{part}": "s" for stem in TIMED for part in ("_s", "_self_s")},
    "cli.self_s": "s",
    "geometry.interp_grid_calls": "count",
    "geometry.interp_grid_points": "count",
    "moser.rk4_steps": "count",
    "measures.w1_sinkhorn_upper_calls": "count",
    "transport.sinkhorn_solves": "count",
    "transport.sinkhorn_iters": "count",
    "transport.sinkhorn_converged_frac": "ratio",
    "transport.sinkhorn_cost_bytes": "B",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
}

REPRESENT_KEYS = {"route", "pushforward_tol", "pushforward_errors", "modulus"}
VERIFY_KEYS = {"route", "N", "seed", "tol", "mc_floor", "per_point", "modulus"}
POINT_KEYS = {"x", "w1", "pass"}


class Checks:
    """Collects failed output checks; the run is correct when there are none."""

    def __init__(self):
        self.failures: list[str] = []

    def require(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


class Client:
    """Calls the CLI in process and records every call's exit code and time."""

    def __init__(self, w: Workload, manifest: Path, checks: Checks):
        self.w, self.manifest, self.checks = w, manifest, checks
        self.calls: list[tuple[str, int, float]] = []

    def _call(self, argv: list[str]) -> float:
        t0 = time.perf_counter()
        try:
            rc = randmap.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = -1
        elapsed = time.perf_counter() - t0
        self.calls.append((argv[0], rc, elapsed))
        self.checks.require(rc == 0, f"{' '.join(argv)}: exit code {rc}")
        return elapsed

    def represent(self, out: Path) -> float:
        return self._call(["represent", "--kernel", str(self.manifest),
                           "--route", self.w.route, "--out", str(out)])

    def verify(self, seed: int, out: Path) -> float:
        return self._call(["verify", "--kernel", str(self.manifest),
                           "--route", self.w.route, "--n", str(self.w.n_samples),
                           "--tol", repr(VERIFY_TOL), "--seed", str(seed),
                           "--out", str(out)])

    @property
    def failed(self) -> int:
        return sum(rc != 0 for _, rc, _ in self.calls)


# -- output checks ------------------------------------------------------------

def _report(checks: Checks, out: Path, keys: set[str]) -> dict | None:
    try:
        rep = json.loads((out / "report.json").read_text())
    except (OSError, ValueError) as exc:
        checks.require(False, f"{out}: unreadable report.json ({exc})")
        return None
    if not checks.require(isinstance(rep, dict) and set(rep) == keys,
                          f"{out}: report.json keys differ from {sorted(keys)}"):
        return None
    return rep


def check_represent(checks: Checks, w: Workload, out: Path) -> dict | None:
    rep = _report(checks, out, REPRESENT_KEYS)
    if rep is None:
        return None
    errs = rep["pushforward_errors"]
    pairs = w.k * (w.k - 1) // 2 if w.route == "continuous" else 0
    checks.require(rep["route"] == w.route, f"{out}: route {rep['route']!r}")
    checks.require(len(errs) == w.k, f"{out}: {len(errs)} pushforward errors, want {w.k}")
    checks.require(all(0.0 <= e <= rep["pushforward_tol"] for e in errs if e is not None),
                   f"{out}: pushforward error above {rep['pushforward_tol']}")
    checks.require(len(rep["modulus"]) == pairs, f"{out}: modulus table size")
    checks.require(all((out / f"map_{i:03d}.csv").is_file() for i in range(w.k)),
                   f"{out}: a map CSV is missing")
    return rep


def check_verify(checks: Checks, w: Workload, out: Path, seed: int) -> dict | None:
    rep = _report(checks, out, VERIFY_KEYS)
    if rep is None:
        return None
    points = rep["per_point"]
    checks.require((rep["route"], rep["N"], rep["seed"], rep["tol"])
                   == (w.route, w.n_samples, seed, VERIFY_TOL),
                   f"{out}: route/N/seed/tol do not echo the call")
    if not checks.require(len(points) == w.k and all(set(p) == POINT_KEYS for p in points),
                          f"{out}: per_point schema"):
        return None
    w1 = [p["w1"] for p in points]
    checks.require(all(p["pass"] for p in points) and max(w1) <= VERIFY_TOL,
                   f"{out}: w1_max {max(w1)!r} above tol {VERIFY_TOL}")
    return rep


def check_same_outputs(checks: Checks, a: Path, b: Path) -> None:
    """report.json and every map CSV must be byte-identical in a and b."""
    names = sorted(p.name for p in a.iterdir() if p.name != "manifest.json")
    same = names == sorted(p.name for p in b.iterdir() if p.name != "manifest.json") and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names)
    checks.require(same, f"{a.name} and {b.name} outputs are not byte-identical")


# -- metrics ------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def certified_pushforward_max(w: Workload, seed: int, rep_out: Path) -> float:
    """Largest pushforward W1 bound of the maps `represent` wrote.

    Used where represent records no finite error (it skips validation for 2D
    Moser maps): the maps are read back from their CSVs and checked with the
    bound represent applies when it does validate.
    """
    from randmap.geometry import unit_torus_grid
    from randmap.kernel import _pushforward_error
    from randmap.measures import GridDensity
    from randmap.transport import TransportMap

    _, targets = family(w, seed)
    reference = GridDensity.uniform(w.dim, w.n)
    grid = unit_torus_grid(w.dim, w.n)
    worst = 0.0
    for i, target in enumerate(targets):
        table = np.loadtxt(rep_out / f"map_{i:03d}.csv", delimiter=",", skiprows=1, ndmin=2)
        t_map = TransportMap(table[:, :w.dim], table[:, w.dim:2 * w.dim],
                             route="moser", grid=grid)
        worst = max(worst, _pushforward_error(t_map, reference, target, True))
    return worst


def speed_probe() -> float:
    """Seconds that one fixed round of bytecode and small-array numpy work takes."""
    x = np.linspace(0.0, 1.0, 64)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(PROBE_ROUNDS):
        y = np.floor(x * 7.3 + i)
        acc += float(x[(y % 64).astype(np.intp)].sum()) + sum(j * 0.5 for j in range(20))
    return time.perf_counter() - t0


def time_setup(w: Workload, seed: int, work: Path, checks: Checks) -> list[float]:
    """Cold set-up times, each from a fresh interpreter; inputs must match across runs."""
    samples = []
    for i in range(SETUP_REPEATS):
        out = work / f"setup{i}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), w.name, str(seed), str(out)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
        if not checks.require(proc.returncode == 0, f"set-up probe failed: {proc.stderr.strip()}"):
            continue
        samples.append(float(proc.stdout.split()[-1]))
        if i:
            check_same_outputs(checks, work / "setup0", out)
    return samples


def run_end_to_end(w: Workload, seed: int, seconds: float, work: Path, checks: Checks):
    setup = time_setup(w, seed, work, checks)
    manifest = write_inputs(w, seed, work / "inputs")
    if setup:
        check_same_outputs(checks, work / "setup0", work / "inputs")
    client = Client(w, manifest, checks)
    # The warm-up call pays first-call costs (lazy imports, caches) untimed.
    client.represent(work / "represent-warmup")
    # Rounds of represent calls and then verify calls, so that both commands'
    # samples cover the whole run. A round starts only if it can end before
    # the deadline, judged by the previous round's time.
    rep_s, ver_s, probe_s = [], [], []
    deadline = time.perf_counter() + seconds
    last_round = 0.0
    while len(ver_s) < w.w1_reports or time.perf_counter() + last_round < deadline:
        t0 = time.perf_counter()
        for _ in range(w.represent_per_round):
            probe_s.append(speed_probe())
            rep_s.append(client.represent(work / f"represent{len(rep_s)}"))
        for _ in range(w.verify_per_round):
            k = len(ver_s)
            probe_s.append(speed_probe())
            ver_s.append(client.verify(verify_seed(k), work / f"verify{k}"))
        last_round = time.perf_counter() - t0
    # Read before any check: the pushforward check below builds cost matrices
    # of its own, which must not set the CLI's peak.
    rss = peak_rss_mb()
    for i in range(len(rep_s)):
        check_same_outputs(checks, work / "represent-warmup", work / f"represent{i}")

    rep = check_represent(checks, w, work / "represent0")
    reports = [check_verify(checks, w, work / f"verify{k}", verify_seed(k))
               for k in range(len(ver_s))]
    first = reports[:w.w1_reports]
    finite = [e for e in rep["pushforward_errors"] if e is not None] if rep else []
    if finite:
        pushforward = max(finite)
    elif rep is not None and checks.require(w.route == "continuous",
                                            "measurable route recorded no pushforward error"):
        pushforward = certified_pushforward_max(w, seed, work / "represent0")
    else:
        pushforward = float("nan")
    speed = statistics.fmean(probe_s) / PROBE_REF_S   # above 1 when the host runs slow
    raw = {"represent": statistics.fmean(rep_s), "verify": statistics.fmean(ver_s)}
    scaled = {c: t / speed if c in w.speed_scaled else t for c, t in raw.items()}
    values = {
        "represent_s": scaled["represent"],
        "verify_s": scaled["verify"],
        "setup_s": statistics.median(setup) if setup else float("nan"),
        "peak_rss_mb": rss,
        "w1_max": (statistics.fmean(max(p["w1"] for p in r["per_point"]) for r in first)
                   if all(first) else float("nan")),
        "pushforward_err_max": pushforward,
        "ok_frac": 1.0 - client.failed / len(client.calls),
    }
    samples = {"represent_s": rep_s, "verify_s": ver_s, "setup_s": setup, "probe_s": probe_s}
    extra = {"speed_factor": speed, "raw_mean_s": raw}
    return values, END_TO_END, samples, client, extra


def run_traced(w: Workload, seed: int, work: Path, checks: Checks):
    manifest = write_inputs(w, seed, work / "inputs")
    client = Client(w, manifest, checks)
    vseed = verify_seed(0)
    plain = (client.represent(work / "represent-plain")
             + client.verify(vseed, work / "verify-plain"))
    roots = {}
    with Tracer() as tracer:
        roots["represent"] = len(tracer.spans)
        client.represent(work / "represent-traced")
        roots["verify"] = len(tracer.spans)
        client.verify(vseed, work / "verify-traced")
    traced = sum(elapsed for _, _, elapsed in client.calls[2:])
    # Tracing must change no result.
    check_same_outputs(checks, work / "represent-plain", work / "represent-traced")
    check_same_outputs(checks, work / "verify-plain", work / "verify-traced")
    check_represent(checks, w, work / "represent-traced")
    check_verify(checks, w, work / "verify-traced", vseed)

    table = totals(tracer.spans)
    values = layer_values(table, tracer.counts)
    values.update({"trace.untraced_s": plain, "trace.traced_s": traced,
                   "trace.overhead_s": traced - plain})
    breakdown = {}
    for command, root in roots.items():
        per = totals(tracer.spans, {root})
        wall = tracer.spans[root].end - tracer.spans[root].start
        breakdown[command] = {
            "wall_s": wall,
            "functions": per,
            "share": {stem: sum(per.get(n, {"s": 0.0})["s"] for n in names) / wall
                      for stem, names in TIMED.items()},
        }
    extra = {"functions": table, "per_command": breakdown}
    return values, PER_LAYER, {}, client, extra


def layer_values(table: dict, counts) -> dict[str, float]:
    def pick(names, key):
        return float(sum(table[n][key] for n in names if n in table))

    values = {}
    for stem, names in TIMED.items():
        values[f"{stem}_s"] = pick(names, "s")
        values[f"{stem}_self_s"] = pick(names, "self_s")
    solves = counts["transport.sinkhorn_solves"]
    values.update({
        "cli.self_s": float(sum(rec["self_s"] for n, rec in table.items()
                                if n.startswith("cli."))),
        "geometry.interp_grid_calls": pick(["geometry.interp_grid"], "calls"),
        "geometry.interp_grid_points": float(counts["geometry.interp_grid_points"]),
        "moser.rk4_steps": float(counts["moser.rk4_steps"]),
        "measures.w1_sinkhorn_upper_calls": pick(["measures.wasserstein_sinkhorn_upper"],
                                                 "calls"),
        "transport.sinkhorn_solves": float(solves),
        "transport.sinkhorn_iters": float(counts["transport.sinkhorn_iters"]),
        # 0 when no solve ran (the base is transport.sinkhorn_solves)
        "transport.sinkhorn_converged_frac":
            counts["transport.sinkhorn_converged"] / solves if solves else 0.0,
        "transport.sinkhorn_cost_bytes": float(counts["transport.sinkhorn_cost_bytes"]),
    })
    return values


# -- environment and results -------------------------------------------------

def _git_sha(root: Path) -> str | None:
    # The ceiling keeps git from reporting an enclosing repository's commit.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "randmap").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path) -> dict:
    return {
        "git_sha": _git_sha(root),
        "source_sha256": _source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        # RANDMAP_THREADS is recorded only: it governs nothing in randmap yet.
        "env": {var: os.environ.get(var) for var in (*BLAS_THREAD_VARS, "RANDMAP_THREADS")},
    }


def _print_human(values: dict, units: dict, samples: dict, client: Client, extra: dict):
    for name, unit in units.items():
        xs = samples.get(name)
        note = (f"  (raw {len(xs)} samples: min {min(xs):.4g},"
                f" median {statistics.median(xs):.4g}, max {max(xs):.4g})" if xs else "")
        print(f"{name}: {values[name]!r} {unit}{note}")
    print(f"failed_frac: {client.failed / len(client.calls)!r} "
          f"({client.failed} of {len(client.calls)} CLI calls)")
    if "speed_factor" in extra:
        print(f"speed_factor: {extra['speed_factor']!r} (mean probe / {PROBE_REF_S} s);"
              f" raw means {extra['raw_mean_s']};"
              f" divided by it: {', '.join(client.w.speed_scaled) or 'none'}")
    for command, rec in extra.get("per_command", {}).items():
        top = sorted(rec["share"].items(), key=lambda kv: -kv[1])[:4]
        print(f"share of traced {command} ({rec['wall_s']:.3f} s): "
              + ", ".join(f"{stem} {share:.2f}" for stem, share in top))


def run_one(root: Path, w: Workload, seed: int, seconds: float, trace: bool) -> int:
    base = root / ".perfbench"
    work = base / "work" / f"{w.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checks = Checks()
    try:
        if trace:
            values, units, samples, client, extra = run_traced(w, seed, work, checks)
        else:
            values, units, samples, client, extra = run_end_to_end(w, seed, seconds, work,
                                                                   checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.require(all(np.isfinite(values[m]) for m in units), "a metric is not finite")
    correct = not checks.failures
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "environment": environment(root),
        "workload": {"name": w.name, "seed": seed, "space": w.space, "route": w.route,
                     "dim": w.dim, "n": w.n, "k": w.k, "n_samples": w.n_samples,
                     "w1_reports": w.w1_reports,
                     "round": [w.represent_per_round, w.verify_per_round],
                     "verify_seed0": verify_seed(0)},
        "seconds": seconds,
        "trace": trace,
        "correct": correct,
        "failures": checks.failures,
        "calls": [{"command": c, "exit_code": rc, "s": s} for c, rc, s in client.calls],
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
        "samples": samples,
        **extra,
    }
    (results / f"{w.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    _print_human(values, units, samples, client, extra)
    print(json.dumps({
        "correct": correct,
        "attempted": len(client.calls),
        "failed": client.failed,
        "metrics": {m: {"value": values[m] if np.isfinite(values[m]) else None, "unit": u}
                    for m, u in units.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak RSS."""
    ok, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="", flush=True)
        try:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            ok = False
            continue
        ok = ok and proc.returncode == 0 and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}/{m}": v for m, v in res["metrics"].items()})
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


def main(argv: list[str], root: Path) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured loop (end-to-end runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(root, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
