"""Config-driven experiment runner.

Every subcommand is a handler `cmd_x(args, out)` that reads its inputs,
computes, writes its own CSV files into the output directory `out` (`wdist`
also prints its distance), and returns (report, input paths, tolerances
applied, ok). `main` alone does the rest: it makes `--out` before the
handler reads anything, writes `report.json` and `manifest.json` through
one JSON writer (strict JSON, sorted keys), and records in the manifest
every parsed flag except `--out` and `--config`, the input hashes, the
tolerances and the wall-clock timestamp. The timestamp lives in the
manifest only, so reports from identical configs are byte-identical.

Exit codes: 0 all checks passed (`ok`), 1 a check failed (reports still
written), 2 configuration or validation error (no JSON written).
"""
from __future__ import annotations

import argparse
import hashlib
import json
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
    stability_experiment,
    verify_representation,
)
from .lift import ROUND_TRIP_TOL, LiftError, ManifoldChart, exp_push, log_lift
from .measures import (
    DiscreteMeasure,
    GridDensity,
    MeasureError,
    parse_float,
    read_measure,
    read_rows,
    read_text,
    wasserstein_1d,
    wasserstein_exact,
    write_rows,
)
from .moser import (POISSON_RESIDUAL_TOL, MoserError, continuity_residual, flow_tolerance,
                    jacobian_min, moser_map)
from .transport import MARGINAL_TOL, MapError, SolverError, solve_exact, solve_sinkhorn

USAGE_ERROR = 2
CHECK_FAILED = 1
Outcome = tuple[dict, list[str], dict, bool]  # report, input paths, tolerances, ok

_ERRORS = (MeasureError, KernelError, MoserError, LiftError, MapError, SolverError)


class CliError(ValueError):
    pass


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_kernel_manifest(path: str) -> tuple[KernelFamily, list[str]]:
    """The family a kernel manifest names, and the manifest's and measures' paths."""
    lines = read_rows(path, "kernel manifest")
    if len(lines) < 4:
        raise CliError(f"{path}: manifest needs space, interp, header, and rows")
    (_, space_line), (_, interp_line) = lines[:2]
    if not space_line.startswith("space,"):
        raise CliError(f"{path}: first line must be 'space,<tag>'")
    space = space_line.split(",", 1)[1].strip()
    if not interp_line.startswith("interp,"):
        raise CliError(f"{path}: second line must be 'interp,<rule>'")
    interp = interp_line.split(",", 1)[1].strip()
    fields = len(lines[2][1].split(","))
    base_pts, measures, paths = [], [], [path]
    for no, ln in lines[3:]:
        parts = ln.split(",")
        if len(parts) != fields:
            raise CliError(f"{path}, line {no}: expected {fields} fields, got {len(parts)}")
        base_pts.append([parse_float(v, path, no) for v in parts[:-1]])
        mpath = str(Path(path).parent / parts[-1])  # an absolute path replaces the parent
        measures.append(read_measure(mpath))
        paths.append(mpath)
    return KernelFamily(space, np.array(base_pts), tuple(measures), interp=interp), paths


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, allow_nan=False)


def _floats(text: str) -> tuple[float, ...]:
    """A comma-separated flag value as floats (argparse names the flag on error)."""
    try:
        return tuple(float(v) for v in text.split(",")) if text else ()
    except ValueError:
        msg = f"expected comma-separated numbers, got {text!r}"
        raise argparse.ArgumentTypeError(msg) from None


def _finite_at_least(low: float, strict: bool):
    """An argparse type: a finite number > low (strict) or >= low."""
    bound = f"{'>' if strict else '>='} {low:g}"

    def parse(text: str) -> float:
        try:
            val = float(text)
        except ValueError:
            val = np.nan
        if not (np.isfinite(val) and (val > low if strict else val >= low)):
            raise argparse.ArgumentTypeError(f"expected a finite number {bound}, got {text!r}")
        return val
    return parse


_positive = _finite_at_least(0.0, strict=True)  # a tolerance, epsilon or cap
_order = _finite_at_least(1.0, strict=False)  # a Wasserstein order or cost exponent


def _seed(text: str) -> int:
    """An argparse type: an integer >= 0, as numpy's generators take."""
    try:
        val = int(text)
    except ValueError:
        val = -1
    if val < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return val


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_wdist(args, out: Path) -> Outcome:
    a = read_measure(args.a).as_discrete()
    b = read_measure(args.b).as_discrete()
    if args.method == "exact":
        dist = wasserstein_exact(a, b, p=args.p, periodic=args.periodic)
    else:
        dist = wasserstein_1d(a, b, p=args.p, periodic=args.periodic)
    print(dist)
    report = {"distance": dist, "p": args.p, "periodic": args.periodic,
              "method": args.method}
    return report, [args.a, args.b], {}, True


def cmd_couple(args, out: Path) -> Outcome:
    if args.p is not None and args.cost != "dist_p":
        raise CliError(f"--p applies to --cost dist_p only, not to --cost {args.cost}")
    if args.periodic and args.cost == "negdot":
        raise CliError("--periodic applies to the distance costs only, not to --cost negdot")
    sinkhorn = {k: v for k in ("epsilon", "max_iter", "tol") if (v := getattr(args, k)) is not None}
    if sinkhorn and args.method == "exact":
        raise CliError("--epsilon, --max-iter and --tol apply to --method sinkhorn only, got "
                       + ", ".join(f"--{k.replace('_', '-')}" for k in sinkhorn))
    mu = read_measure(args.mu).as_discrete()
    nu = read_measure(args.nu).as_discrete()
    spec = CostSpec(kind=args.cost, p=args.p or CostSpec.p, periodic=args.periodic)
    if args.method == "exact":
        plan = solve_exact(mu, nu, spec)
    else:
        sinkhorn = {"epsilon": 1e-2} | sinkhorn  # max_iter and tol: the solver's defaults
        plan = solve_sinkhorn(mu, nu, spec, **sinkhorn)
    plan.to_csv(out / "plan.csv")
    violation = plan.marginal_violation()
    report = {
        "cost": plan.cost,
        "converged": plan.converged,
        "marginal_violation": violation,
        "method": args.method,
        "epsilon": sinkhorn.get("epsilon"),
    }
    ok = plan.converged and violation <= MARGINAL_TOL
    return report, [args.mu, args.nu], {"marginal_tol": MARGINAL_TOL}, ok


def cmd_moser(args, out: Path) -> Outcome:
    rho0 = read_measure(args.rho0)
    rho1 = read_measure(args.rho1)
    if not isinstance(rho0, GridDensity) or not isinstance(rho1, GridDensity):
        raise CliError("moser requires grid-density inputs")
    if args.tol is not None and rho0.dim != 1:
        raise CliError("--tol gates 1D maps only: a 2D map records no pushforward W1")
    tol = (args.tol or 1e-2) if rho0.dim == 1 else None
    times = sorted(set(args.checkpoints))
    for a, b in zip(times, times[1:]):  # rounding keeps order: clashes are neighbours
        if f"{a:.4f}" == f"{b:.4f}":
            raise CliError(f"checkpoints {a!r} and {b!r} both write checkpoint_{a:.4f}.csv")
    flow = moser_map(rho0, rho1, checkpoints=args.checkpoints)
    # a 1D field solves only when read here: a failed solve must leave --out empty
    jac = jacobian_min(flow)
    report = {
        "pushforward_w1": flow.pushforward_error,
        "jacobian_min": jac,
        "poisson_residual": flow.field_ref.poisson.residual,
        "continuity_residual": continuity_residual(flow.field_ref, 0.5),
        "steps": flow.steps,
        "flow_error_estimate": flow.flow_error,
    }
    flow.map.to_csv(out / "map.csv")
    for t_mark, positions in flow.checkpoints.items():
        dim = positions.shape[1]
        header = ["t"] + [f"x{a}" for a in range(dim)] + [f"Tx{a}" for a in range(dim)]
        rows = np.column_stack([np.full(len(positions), t_mark), flow.map.points, positions])
        write_rows(out / f"checkpoint_{t_mark:.4f}.csv", header, rows.tolist())
    tolerances = {"pushforward_tol": tol, "poisson_residual_tol": POISSON_RESIDUAL_TOL,
                  "flow_tol": flow_tolerance(rho0.n)}
    ok = jac > 0 and (flow.pushforward_error is None or flow.pushforward_error <= tol)
    return report, [args.rho0, args.rho1], tolerances, ok


def _build_family(args):
    """The representation of the --kernel family, and the path of every file read."""
    kern, inputs = _load_kernel_manifest(args.kernel)
    if args.route == "continuous":
        if args.reference:
            raise CliError("--reference applies to the measurable route only: the "
                           "continuous route's reference is the uniform density")
        return build_continuous_representation(kern), inputs
    if args.reference:
        reference = read_measure(args.reference)
        inputs.append(args.reference)
    else:
        proto = kern.measures[0]
        if not isinstance(proto, GridDensity):
            raise CliError("measurable route needs --reference for atomic kernels")
        reference = GridDensity.uniform(proto.dim, proto.n)
    return build_measurable_representation(kern, reference), inputs


def cmd_represent(args, out: Path) -> Outcome:
    family, inputs = _build_family(args)
    for i, t_map in enumerate(family.maps):
        t_map.to_csv(out / f"map_{i:03d}.csv")
    report = {
        "route": family.route,
        "pushforward_tol": family.pushforward_tol,
        "pushforward_errors": family.pushforward_errors,
        "modulus": family.modulus.as_records() if family.modulus else [],
    }
    return report, inputs, {"pushforward_tol": family.pushforward_tol}, True


def cmd_verify(args, out: Path) -> Outcome:
    family, inputs = _build_family(args)
    report = verify_representation(family, n_samples=args.n, tol=args.tol, seed=args.seed)
    return report.to_dict(), inputs, {"tol": args.tol}, report.all_pass


def cmd_lift(args, out: Path) -> Outcome:
    chart = ManifoldChart(args.manifold, args.base, cap=args.cap)
    atoms = read_measure(args.atoms)
    if not isinstance(atoms, DiscreteMeasure):
        raise CliError(f"{args.atoms}: lift needs an atom file x0[,x1],w, not a grid density")
    lifted = log_lift(chart, atoms)
    back = exp_push(chart, lifted)
    if args.manifold == "sphere2":
        rt = float(np.abs(sphere_xyz(back.points) - sphere_xyz(atoms.points)).max())
    else:
        rt = float(np.abs(wrap_signed(back.points - atoms.points)).max())
    lifted.to_csv(out / "tangent_atoms.csv")
    back.to_csv(out / "roundtrip_atoms.csv")
    report = {"round_trip_error": rt, "cap": chart.cap, "manifold": args.manifold,
              "n_atoms": atoms.size}
    return report, [args.atoms], {"round_trip_tol": ROUND_TRIP_TOL}, rt <= ROUND_TRIP_TOL


def cmd_stability(args, out: Path) -> Outcome:
    mu = read_measure(args.mu)
    paths = args.targets.split(",")
    targets = [read_measure(p) for p in paths]
    limit = read_measure(args.limit)
    masses = stability_experiment(mu, targets, limit, eps=args.eps, periodic=args.periodic)
    write_rows(out / "stability.csv", ["k", "mass"], enumerate(masses))
    report = {"eps": args.eps, "deviation_masses": masses}
    return report, [args.mu, args.limit, *paths], {"eps": args.eps}, True


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
    sp.add_argument("--p", type=_order, default=1.0)
    sp.add_argument("--periodic", action="store_true")
    sp.add_argument("--method", choices=["quantile", "exact"], default="quantile")
    add_out(sp)
    sp.set_defaults(func=cmd_wdist)

    sp = sub.add_parser("couple", help="optimal coupling between two measures")
    sp.add_argument("--mu", required=True)
    sp.add_argument("--nu", required=True)
    sp.add_argument("--cost", choices=["sqdist", "dist_p", "negdot"], default="sqdist")
    sp.add_argument("--p", type=_order, help="cost exponent of --cost dist_p (default 2)")
    sp.add_argument("--periodic", action="store_true")
    sp.add_argument("--method", choices=["exact", "sinkhorn"], default="exact")
    sp.add_argument("--epsilon", type=_positive, help="sinkhorn only (default 1e-2)")
    sp.add_argument("--max-iter", type=int, help="sinkhorn only (default 5000)")
    sp.add_argument("--tol", type=_positive, help="sinkhorn only (default 1e-9)")
    add_out(sp)
    sp.set_defaults(func=cmd_couple)

    sp = sub.add_parser("moser", help="Moser time-1 coupling of two grid densities")
    sp.add_argument("--rho0", required=True)
    sp.add_argument("--rho1", required=True)
    sp.add_argument("--checkpoints", type=_floats, default="")
    sp.add_argument("--tol", type=_positive,
                    help="pushforward W1 gate, 1D only (default 1e-2): a 2D map records "
                         "no pushforward W1")
    add_out(sp)
    sp.set_defaults(func=cmd_moser)

    for name, handler in (("represent", cmd_represent), ("verify", cmd_verify)):
        sp = sub.add_parser(name, help=f"{name} a kernel family by random maps")
        sp.add_argument("--kernel", required=True, help="kernel manifest file")
        sp.add_argument("--route", choices=["continuous", "measurable"],
                        default="continuous")
        sp.add_argument("--reference", default="",
                        help="reference measure file (measurable route)")
        if name == "verify":
            sp.add_argument("--n", type=int, default=10000)
            sp.add_argument("--tol", type=_positive, default=0.05)
            sp.add_argument("--seed", type=_seed, required=True)
        add_out(sp)
        sp.set_defaults(func=handler)

    sp = sub.add_parser("lift", help="exp/log lifting of manifold atoms")
    sp.add_argument("--manifold", choices=["circle", "torus2", "sphere2"], required=True)
    sp.add_argument("--base", type=_floats, required=True,
                    help="chart base point, comma-separated")
    sp.add_argument("--atoms", required=True,
                    help="atom file x0[,x1],w: a sphere atom is (colatitude, longitude)")
    sp.add_argument("--cap", type=_positive, default=None)
    add_out(sp)
    sp.set_defaults(func=cmd_lift)

    sp = sub.add_parser("stability", help="optimal-map stability experiment")
    sp.add_argument("--mu", required=True)
    sp.add_argument("--targets", required=True, help="comma-separated target files")
    sp.add_argument("--limit", required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--periodic", action="store_true",
                    help="torus distance; in 1D also the circle maps, in 2D the maps "
                         "stay box-chart Brenier maps")
    add_out(sp)
    sp.set_defaults(func=cmd_stability)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    if args.config:
        try:
            cfg = json.loads(read_text(args.config, "config file"))
        except (MeasureError, OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return USAGE_ERROR
        if not isinstance(cfg, dict):
            print(f"config error: {args.config} must be a JSON object", file=sys.stderr)
            return USAGE_ERROR
        if "cmd" not in cfg:
            print("config error: missing field 'cmd'", file=sys.stderr)
            return USAGE_ERROR
        if not isinstance(cfg["cmd"], str):
            print(f"config error: field 'cmd' must be a command name, got {cfg['cmd']!r}",
                  file=sys.stderr)
            return USAGE_ERROR
        flags = [cfg["cmd"]]
        for key, val in cfg.items():  # true is a bare switch; false or null omits the flag
            flag = f"--{key.replace('_', '-')}"
            val = ",".join(map(str, val)) if isinstance(val, list) else val  # as _floats reads it
            if key != "cmd" and val is not False and val is not None:
                flags += [flag] if val is True else [flag, str(val)]
        args = parser.parse_args(flags + list(extra))
    elif extra:
        print(f"unrecognized arguments: {' '.join(extra)}", file=sys.stderr)
        return USAGE_ERROR
    if not getattr(args, "cmd", None):
        parser.print_help()
        return USAGE_ERROR
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot make output directory {args.out}: {exc.strerror}", file=sys.stderr)
        return USAGE_ERROR
    try:
        report, inputs, tolerances, ok = args.func(args, out)
    except (CliError, FileNotFoundError, *_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    _write_json(out / "report.json", report)
    _write_json(out / "manifest.json", {
        "command": args.cmd,
        "config": {key: val for key, val in vars(args).items()
                   if key not in ("cmd", "func", "out", "config")},
        "inputs": {str(pth): _sha256(Path(pth)) for pth in inputs if Path(pth).exists()},
        "tolerances": tolerances,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })
    return 0 if ok else CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
