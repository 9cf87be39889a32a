"""Config-driven experiment runner.

Every subcommand writes machine-readable reports (JSON plus flat CSV) into
the output directory, together with a run manifest recording input hashes,
seeds, and the exact tolerances applied. The wall-clock timestamp lives in
the manifest only, so reports from identical configs are byte-identical.

Exit codes: 0 all checks passed, 1 a check failed (reports still written),
2 configuration or validation error.

RANDMAP_THREADS, when set, must be a positive integer (anything else exits
with code 2) and is written to manifest.json. It is metadata only: it
governs no thread count or worker pool in randmap.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .geometry import CostSpec, sphere_xyz, wrap_signed
from .kernel import (
    KernelError,
    KernelFamily,
    build_continuous_representation,
    build_measurable_representation,
    verify_representation,
)
from .lift import (
    LiftError,
    ManifoldChart,
    exp_push,
    log_lift,
    read_manifold_atoms,
    write_manifold_atoms,
)
from .measures import (
    DiscreteMeasure,
    GridDensity,
    MeasureError,
    wasserstein_1d,
    wasserstein_exact,
)
from .moser import MoserError, continuity_residual, jacobian_min, moser_map
from .transport import (
    MapError,
    SolverError,
    solve_exact,
    solve_sinkhorn,
    stability_experiment,
)

USAGE_ERROR = 2
CHECK_FAILED = 1

_ERRORS = (MeasureError, KernelError, MoserError, LiftError, MapError, SolverError)


class CliError(ValueError):
    pass


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_measure(path: str):
    """Grid densities start with a 'dim,n' line; anything else is atoms."""
    p = Path(path)
    if not p.exists():
        raise CliError(f"input file not found: {path}")
    with open(p) as fh:
        first = fh.readline().strip().replace(" ", "")
    if first == "dim,n" or (first and first[0].isdigit()):
        return GridDensity.from_csv(p)
    return DiscreteMeasure.from_csv(p)


def _load_kernel_manifest(path: str) -> KernelFamily:
    p = Path(path)
    if not p.exists():
        raise CliError(f"kernel manifest not found: {path}")
    with open(p) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if len(lines) < 4:
        raise CliError(f"{path}: manifest needs space, interp, header, and rows")
    if not lines[0].startswith("space,"):
        raise CliError(f"{path}: first line must be 'space,<tag>'")
    space = lines[0].split(",", 1)[1]
    if not lines[1].startswith("interp,"):
        raise CliError(f"{path}: second line must be 'interp,<rule>'")
    interp = lines[1].split(",", 1)[1]
    base_pts, measures = [], []
    for ln in lines[3:]:
        parts = ln.split(",")
        coords = [float(v) for v in parts[:-1]]
        mpath = parts[-1]
        if not os.path.isabs(mpath):
            mpath = str(p.parent / mpath)
        base_pts.append(coords)
        measures.append(_load_measure(mpath))
    return KernelFamily(space, np.array(base_pts), tuple(measures), interp=interp)


def _write_manifest(outdir: Path, command: str, config: dict, inputs: list[str],
                    tolerances: dict) -> None:
    manifest = {
        "command": command,
        "config": config,
        "inputs": {str(pth): _sha256(Path(pth)) for pth in inputs if Path(pth).exists()},
        "tolerances": tolerances,
        "threads": os.environ.get("RANDMAP_THREADS", ""),
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)


def _write_report(outdir: Path, payload: dict) -> None:
    with open(outdir / "report.json", "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cost_spec(args) -> CostSpec:
    return CostSpec(kind=args.cost, p=args.p, periodic=args.periodic)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_wdist(args) -> int:
    a = _load_measure(args.a)
    b = _load_measure(args.b)
    if args.method == "exact":
        if not isinstance(a, DiscreteMeasure) or not isinstance(b, DiscreteMeasure):
            raise CliError("--method exact requires discrete measures")
        dist = wasserstein_exact(a, b, p=args.p, periodic=args.periodic)
    else:
        dist = wasserstein_1d(a, b, p=args.p, periodic=args.periodic)
    out = _outdir(args)
    report = {"distance": dist, "p": args.p, "periodic": args.periodic,
              "method": args.method}
    _write_report(out, report)
    _write_manifest(out, "wdist", {"p": args.p, "periodic": args.periodic,
                                   "method": args.method}, [args.a, args.b], {})
    print(dist)
    return 0


def cmd_couple(args) -> int:
    mu = _load_measure(args.mu)
    nu = _load_measure(args.nu)
    if isinstance(mu, GridDensity):
        mu = mu.as_discrete()
    if isinstance(nu, GridDensity):
        nu = nu.as_discrete()
    spec = _cost_spec(args)
    if args.method == "exact":
        plan = solve_exact(mu, nu, spec)
    else:
        plan = solve_sinkhorn(mu, nu, spec, epsilon=args.epsilon,
                              max_iter=args.max_iter, tol=args.tol)
    out = _outdir(args)
    plan.to_csv(out / "plan.csv")
    report = {
        "cost": plan.cost,
        "converged": plan.converged,
        "marginal_violation": plan.marginal_violation(),
        "method": args.method,
        "epsilon": args.epsilon if args.method == "sinkhorn" else None,
    }
    _write_report(out, report)
    _write_manifest(out, "couple", {"cost": args.cost, "p": args.p,
                                    "periodic": args.periodic, "method": args.method},
                    [args.mu, args.nu], {"marginal_tol": 1e-9})
    return 0 if plan.converged and plan.marginal_violation() <= 1e-9 else CHECK_FAILED


def cmd_moser(args) -> int:
    rho0 = _load_measure(args.rho0)
    rho1 = _load_measure(args.rho1)
    if not isinstance(rho0, GridDensity) or not isinstance(rho1, GridDensity):
        raise CliError("moser requires grid-density inputs")
    marks = tuple(float(t) for t in args.checkpoints.split(",")) if args.checkpoints else ()
    flow = moser_map(rho0, rho1, steps=args.steps, checkpoints=marks)
    out = _outdir(args)
    flow.map.to_csv(out / "map.csv")
    for t_mark, positions in flow.checkpoints.items():
        with open(out / f"checkpoint_{t_mark:.4f}.csv", "w") as fh:
            dim = positions.shape[1]
            fh.write("t," + ",".join(f"x{a}" for a in range(dim))
                     + "," + ",".join(f"Tx{a}" for a in range(dim)) + "\n")
            for src, dst in zip(flow.map.points, positions):
                fh.write(",".join([repr(float(t_mark))] + [repr(float(v)) for v in src]
                                  + [repr(float(v)) for v in dst]) + "\n")
    jac = jacobian_min(flow)
    cont = continuity_residual(flow.field_ref, 0.5)
    report = {
        "pushforward_w1": flow.pushforward_error,
        "jacobian_min": jac,
        "poisson_residual": flow.field_ref.poisson.residual,
        "continuity_residual": cont,
        "steps": flow.steps,
    }
    _write_report(out, report)
    _write_manifest(out, "moser", {"steps": flow.steps, "checkpoints": list(marks)},
                    [args.rho0, args.rho1],
                    {"pushforward_tol": args.tol, "poisson_residual_tol": 1e-8})
    ok = (jac > 0 and flow.field_ref.poisson.residual <= 1e-8
          and (flow.pushforward_error is None or flow.pushforward_error <= args.tol))
    return 0 if ok else CHECK_FAILED


def _build_family(args, kern: KernelFamily):
    if args.route == "continuous":
        return build_continuous_representation(kern, steps=args.steps)
    if args.reference:
        reference = _load_measure(args.reference)
    else:
        proto = kern.measures[0]
        if not isinstance(proto, GridDensity):
            raise CliError("measurable route needs --reference for atomic kernels")
        reference = GridDensity.uniform(proto.dim, proto.n)
    return build_measurable_representation(kern, reference)


def cmd_represent(args) -> int:
    kern = _load_kernel_manifest(args.kernel)
    family = _build_family(args, kern)
    out = _outdir(args)
    for i, t_map in enumerate(family.maps):
        t_map.to_csv(out / f"map_{i:03d}.csv")
    report = {
        "route": family.route,
        "pushforward_tol": family.pushforward_tol,
        "pushforward_errors": [None if np.isnan(e) else e
                               for e in family.pushforward_errors],
        "modulus": family.modulus.as_records() if family.modulus else [],
    }
    _write_report(out, report)
    _write_manifest(out, "represent", {"route": args.route, "steps": args.steps},
                    [args.kernel], {"pushforward_tol": family.pushforward_tol})
    return 0


def cmd_verify(args) -> int:
    kern = _load_kernel_manifest(args.kernel)
    family = _build_family(args, kern)
    report = verify_representation(family, n_samples=args.n, tol=args.tol, seed=args.seed)
    out = _outdir(args)
    with open(out / "report.json", "w") as fh:
        fh.write(report.to_json())
    _write_manifest(out, "verify", {"route": args.route, "n": args.n,
                                    "tol": args.tol, "seed": args.seed},
                    [args.kernel], {"tol": args.tol})
    return 0 if report.all_pass else CHECK_FAILED


def cmd_lift(args) -> int:
    base = [float(v) for v in args.base.split(",")]
    chart = ManifoldChart(args.manifold, base, cap=args.cap)
    atoms = read_manifold_atoms(args.atoms, args.manifold)
    lifted = log_lift(chart, atoms)
    back = exp_push(chart, lifted)
    if args.manifold == "sphere2":
        rt = float(np.abs(sphere_xyz(back.points) - sphere_xyz(atoms.points)).max())
    else:
        rt = float(np.abs(wrap_signed(back.points - atoms.points)).max())
    out = _outdir(args)
    lifted.to_csv(out / "tangent_atoms.csv")
    write_manifold_atoms(out / "roundtrip_atoms.csv", args.manifold, back)
    report = {"round_trip_error": rt, "cap": chart.cap, "manifold": args.manifold,
              "n_atoms": atoms.size}
    _write_report(out, report)
    _write_manifest(out, "lift", {"manifold": args.manifold, "base": base,
                                  "cap": chart.cap},
                    [args.atoms], {"round_trip_tol": 1e-9})
    return 0 if rt <= 1e-9 else CHECK_FAILED


def cmd_stability(args) -> int:
    mu = _load_measure(args.mu)
    if not isinstance(mu, GridDensity):
        raise CliError("stability requires a grid-density source")
    targets = [_load_measure(p) for p in args.targets.split(",")]
    limit = _load_measure(args.limit)
    spec = CostSpec(kind="sqdist", periodic=args.periodic)
    masses = stability_experiment(mu, targets, limit, eps=args.eps, cost=spec)
    out = _outdir(args)
    with open(out / "stability.csv", "w") as fh:
        fh.write("k,mass\n")
        for k, mass in enumerate(masses):
            fh.write(f"{k},{mass!r}\n")
    _write_report(out, {"eps": args.eps, "deviation_masses": masses})
    _write_manifest(out, "stability", {"eps": args.eps, "periodic": args.periodic},
                    [args.mu, args.limit] + args.targets.split(","), {"eps": args.eps})
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randmap",
        description="Random-map representations of Markov kernels via optimal transport.")
    parser.add_argument("--config", help="JSON config supplying the command and flags")
    sub = parser.add_subparsers(dest="cmd")

    def add_out(sp):
        sp.add_argument("--out", required=True, help="output directory for reports")

    sp = sub.add_parser("wdist", help="Wasserstein distance between two measure files")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--p", type=float, default=1.0)
    sp.add_argument("--periodic", action="store_true")
    sp.add_argument("--method", choices=["quantile", "exact"], default="quantile")
    add_out(sp)
    sp.set_defaults(func=cmd_wdist)

    sp = sub.add_parser("couple", help="optimal coupling between two measures")
    sp.add_argument("--mu", required=True)
    sp.add_argument("--nu", required=True)
    sp.add_argument("--cost", choices=["sqdist", "dist_p", "negdot"], default="sqdist")
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--periodic", action="store_true")
    sp.add_argument("--method", choices=["exact", "sinkhorn"], default="exact")
    sp.add_argument("--epsilon", type=float, default=1e-2)
    sp.add_argument("--max-iter", type=int, default=5000)
    sp.add_argument("--tol", type=float, default=1e-9)
    add_out(sp)
    sp.set_defaults(func=cmd_couple)

    sp = sub.add_parser("moser", help="Moser time-1 coupling of two grid densities")
    sp.add_argument("--rho0", required=True)
    sp.add_argument("--rho1", required=True)
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--checkpoints", default="")
    sp.add_argument("--tol", type=float, default=1e-2,
                    help="pushforward W1 tolerance for the pass/fail gate")
    add_out(sp)
    sp.set_defaults(func=cmd_moser)

    for name, handler in (("represent", cmd_represent), ("verify", cmd_verify)):
        sp = sub.add_parser(name, help=f"{name} a kernel family by random maps")
        sp.add_argument("--kernel", required=True, help="kernel manifest file")
        sp.add_argument("--route", choices=["continuous", "measurable"],
                        default="continuous")
        sp.add_argument("--reference", default="",
                        help="reference measure file (measurable route)")
        sp.add_argument("--steps", type=int, default=None)
        if name == "verify":
            sp.add_argument("--n", type=int, default=10000)
            sp.add_argument("--tol", type=float, default=0.05)
            sp.add_argument("--seed", type=int, required=True)
        add_out(sp)
        sp.set_defaults(func=handler)

    sp = sub.add_parser("lift", help="exp/log lifting of manifold atoms")
    sp.add_argument("--manifold", choices=["circle", "torus2", "sphere2"], required=True)
    sp.add_argument("--base", required=True, help="chart base point, comma-separated")
    sp.add_argument("--atoms", required=True)
    sp.add_argument("--cap", type=float, default=None)
    add_out(sp)
    sp.set_defaults(func=cmd_lift)

    sp = sub.add_parser("stability", help="optimal-map stability experiment")
    sp.add_argument("--mu", required=True)
    sp.add_argument("--targets", required=True, help="comma-separated target files")
    sp.add_argument("--limit", required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--periodic", action="store_true")
    add_out(sp)
    sp.set_defaults(func=cmd_stability)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return USAGE_ERROR
        if "cmd" not in cfg:
            print("config error: missing field 'cmd'", file=sys.stderr)
            return USAGE_ERROR
        flags = [cfg["cmd"]]
        for key, val in cfg.items():
            if key == "cmd":
                continue
            if isinstance(val, bool):
                if val:
                    flags.append(f"--{key.replace('_', '-')}")
            else:
                flags.extend([f"--{key.replace('_', '-')}", str(val)])
        args = parser.parse_args(flags + list(extra))
    elif extra:
        print(f"unrecognized arguments: {' '.join(extra)}", file=sys.stderr)
        return USAGE_ERROR
    if not getattr(args, "cmd", None):
        parser.print_help()
        return USAGE_ERROR
    threads = os.environ.get("RANDMAP_THREADS")
    if threads is not None and threads != "":
        try:
            if int(threads) < 1:
                raise ValueError
        except ValueError:
            print(f"config error: RANDMAP_THREADS must be a positive integer, "
                  f"got {threads!r}", file=sys.stderr)
            return USAGE_ERROR
    try:
        return args.func(args)
    except (CliError, *_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
