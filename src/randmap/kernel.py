"""Markov-kernel families and their random-map representations.

Two construction routes are provided: per-base-point optimal maps from an
absolutely continuous reference (measurable route) and per-base-point Moser
time-1 maps from the uniform density (continuous route). The statistical
check draws shared reference points omega, evaluates every map at them, and
compares the empirical law of f_omega(x_i) against mu_{x_i} in W1.
The continuity modulus and the stability experiment (optimal maps converge
in probability when their targets converge weakly) measure how the maps vary
with their target; both compare maps node by node with one distance.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import pairwise_distance, sphere_distance, sphere_xyz, wrap_signed
from .measures import (
    DiscreteMeasure,
    GridDensity,
    MeasureError,
    draw_sample,
    grid_pushforward,
    wasserstein_1d,
    wasserstein_sinkhorn_upper,
)
from .moser import FlowMap, moser_map
from .transport import (BRENIER_EPSILON, MapError, SolverError, TransportMap, brenier_map,
                        monotone_map_1d)

BASE_SPACES = {"circle": 1, "torus2": 2, "interval": 1, "sphere2-chart": 2}  # coordinates
INTERP_RULES = ("nearest", "none")
MC_FLOOR_CONST = 0.5


class KernelError(ValueError):
    """Invalid kernel family or representation request."""


def base_distance_matrix(space: str, pts: np.ndarray) -> np.ndarray:
    """Pairwise base-space distances for the supported base manifolds."""
    if space in ("circle", "interval", "torus2"):
        return pairwise_distance(pts, pts, periodic=space != "interval")
    if space == "sphere2-chart":
        xyz = sphere_xyz(pts)
        return sphere_distance(xyz[:, None, :], xyz[None, :, :])
    raise KernelError(f"unknown base space {space!r}")


@dataclass(frozen=True)
class KernelFamily:
    """Finite family of probability measures indexed by sampled base points."""

    space: str
    base_points: np.ndarray
    measures: tuple
    interp: str = "nearest"

    def __post_init__(self):
        if self.space not in BASE_SPACES:
            raise KernelError(f"base space must be one of {tuple(BASE_SPACES)}")
        if self.interp not in INTERP_RULES:
            raise KernelError(f"interpolation rule must be one of {INTERP_RULES}")
        pts = np.atleast_2d(np.asarray(self.base_points, dtype=float))
        if pts.shape[0] < 2:
            raise KernelError("a kernel family needs at least two base points")
        if not np.isfinite(pts).all():
            raise KernelError("base points must be finite")
        if pts.shape[1] != BASE_SPACES[self.space]:
            raise KernelError(f"{self.space} base points need {BASE_SPACES[self.space]} "
                              f"coordinate(s), got {pts.shape[1]}")
        meas = tuple(self.measures)
        if len(meas) != pts.shape[0]:
            raise KernelError("one measure per base point required")
        kinds = {type(m) for m in meas}
        if len(kinds) != 1:
            raise KernelError("all measures must share a representation type")
        if isinstance(meas[0], GridDensity):
            grids = {(m.dim, m.n) for m in meas}
            if len(grids) != 1:
                raise KernelError("all grid densities must share one grid")
        else:
            dims = {m.dim for m in meas}
            if len(dims) != 1:
                raise KernelError("all discrete measures must share one dimension")
        dmat = base_distance_matrix(self.space, pts)
        off = dmat[~np.eye(len(pts), dtype=bool)]
        if off.size and off.min() <= 0.0:
            raise KernelError("base points must be distinct")
        object.__setattr__(self, "base_points", pts)
        object.__setattr__(self, "measures", meas)

    @property
    def size(self) -> int:
        return len(self.measures)

    @property
    def target_dim(self) -> int:
        return self.measures[0].dim

    @property
    def target_periodic(self) -> bool:
        return self.space in ("circle", "torus2")

    def nearest_index(self, x) -> int:
        q = np.atleast_2d(np.asarray(x, dtype=float))
        stacked = np.vstack([self.base_points, q])
        dmat = base_distance_matrix(self.space, stacked)
        dists = dmat[-1, : self.size]
        exact = np.nonzero(dists <= 1e-12)[0]
        if exact.size:
            return int(exact[0])
        if self.interp == "none":
            raise KernelError(f"point {q.ravel().tolist()} is not a base point and "
                              "the interpolation rule is 'none'")
        return int(np.argmin(dists))


@dataclass(frozen=True)
class ModulusTable:
    """Continuity-modulus table: base distance vs sup-norm map distance."""

    base_dists: np.ndarray
    map_dists: np.ndarray

    def as_records(self) -> list[dict]:
        return [{"dx": float(dx), "dT": float(dt)}
                for dx, dt in zip(self.base_dists, self.map_dists)]


@dataclass(frozen=True)
class RandomMapFamily:
    """Reference space (supp nu, nu) plus one validated map per base point."""

    reference: GridDensity | DiscreteMeasure
    maps: tuple
    route: str
    kernel: KernelFamily
    pushforward_tol: float
    pushforward_errors: tuple
    modulus: ModulusTable | None = None

    @property
    def size(self) -> int:
        return len(self.maps)


def _w1(mu, target, periodic: bool) -> float:
    """W1 exact between atoms in 1D (`wasserstein_1d`), the Sinkhorn upper bound in 2D."""
    if target.dim == 1:
        return wasserstein_1d(mu, target, p=1, periodic=periodic)
    return wasserstein_sinkhorn_upper(mu, target, periodic=periodic)


def _pushforward_error(t_map: TransportMap, reference: GridDensity, target,
                       periodic: bool) -> float:
    return _w1(grid_pushforward(t_map, reference), target, periodic)


def _validated_family(route: str, kernel: KernelFamily, reference: GridDensity,
                      checked) -> RandomMapFamily:
    """One map per kernel measure, each checked by its pushforward W1.

    checked yields, in base-point order, (each measure's map, its W1(T_*
    reference, target)) or (the exception its construction raised, None).
    The first failure in that order is raised, a construction or a W1 above
    2/n (1D) or 4/n (2D). A map with W1 None (2D Moser) is recorded as None.
    """
    tol = (2.0 if reference.dim == 1 else 4.0) / reference.n
    built, errs = [], []
    for i, (t_map, err) in enumerate(checked):
        if isinstance(t_map, Exception):
            raise KernelError(f"map construction failed at base point {i}: {t_map}") from t_map
        if err is not None and err > tol:
            raise KernelError(f"pushforward check failed at base point {i}: "
                              f"W1 = {err:.3e} > {tol:.3e}")
        built.append(t_map)
        errs.append(err)
    return RandomMapFamily(reference, tuple(built), route, kernel, tol, tuple(errs))


def _optimal_map(reference: GridDensity, target, periodic: bool) -> TransportMap:
    """The measurable route's map: monotone rearrangement in 1D, Brenier in 2D."""
    if reference.dim == 1:
        return monotone_map_1d(reference, target, periodic=periodic)
    return brenier_map(reference, target, reg_epsilon=BRENIER_EPSILON)


def _checked_optimal_maps(reference: GridDensity, kernel: KernelFamily, periodic: bool):
    """Per kernel measure in order, (its optimal map, that map's pushforward
    W1), or (the typed error its construction raised, None). Lazy, so a
    failure stops the build where it occurs."""
    for target in kernel.measures:
        try:
            t_map = _optimal_map(reference, target, periodic)
        except (MapError, MeasureError, SolverError) as exc:
            yield exc, None
        else:
            yield t_map, _pushforward_error(t_map, reference, target, periodic)


def _node_distances(a: np.ndarray, b: np.ndarray, periodic: bool) -> np.ndarray:
    """Distance at each shared node between broadcasting image arrays (..., m, dim)."""
    delta = a - b
    if periodic:
        delta = wrap_signed(delta)
    return np.sqrt(np.sum(delta * delta, axis=-1))


def build_measurable_representation(kernel: KernelFamily,
                                    reference: GridDensity) -> RandomMapFamily:
    """Representation by per-base-point optimal maps from the reference.

    The reference must be absolutely continuous (a grid density) so each
    Monge problem has a deterministic solution: 1D targets get the monotone
    rearrangement, 2D targets the entropic Brenier map on the box chart.
    """
    if not isinstance(reference, GridDensity):
        raise KernelError("measurable route needs an absolutely continuous "
                          "(grid density) reference measure")
    if reference.dim != kernel.target_dim:
        raise KernelError("reference dimension does not match kernel measures")
    checked = _checked_optimal_maps(reference, kernel, kernel.target_periodic)
    return _validated_family("measurable", kernel, reference, checked)


def build_continuous_representation(kernel: KernelFamily) -> RandomMapFamily:
    """Representation by Moser time-1 maps from the uniform density.

    Every kernel measure must be a grid density at least moser's MIN_DENSITY
    (full support is what makes the maps continuous); `moser_map` checks each
    one, and a failure names its base point. The maps are torus maps, which
    may cross the seam of an `interval` or `sphere2-chart` kernel: those are
    refused. The family's maps are built as one batch by one `moser_map`
    call: in closed form in 1D, by RK4 in 2D, where each map takes the step
    count that step doubling accepts for it alone (node estimate at most
    FLOW_TOL * h), from the start the `moser` module docstring gives. The
    build checks each map's own `pushforward_error` (None for a 2D map,
    which goes unchecked). Continuity metadata is attached from the modulus
    table over all base-point pairs.
    """
    if not isinstance(kernel.measures[0], GridDensity):
        raise KernelError("continuous route needs grid-density kernel measures")
    if not kernel.target_periodic:
        raise KernelError(f"continuous route builds torus maps, and {kernel.space!r} targets "
                          "are not on the torus; use --route measurable")
    proto = kernel.measures[0]
    reference = GridDensity.uniform(proto.dim, proto.n)

    checked = [(flow.map, flow.pushforward_error) if isinstance(flow, FlowMap) else (flow, None)
               for flow in moser_map(reference, kernel.measures)]
    family = _validated_family("continuous", kernel, reference, checked)
    # the table reads the family it describes, so it is attached after the build
    return replace(family, modulus=continuity_modulus(family))


@dataclass(frozen=True)
class RandomMap:
    """One sampled map f_omega: evaluates T_x at the shared draw omega.

    Between base points it follows the family's interpolation rule (the
    kernel manifest's `interp` row): nearest base point, or rejection when
    the rule is 'none'. No command samples single maps yet; this class is
    kept as the one definition of what that rule means.
    """

    family: RandomMapFamily
    omega: np.ndarray
    seed: int

    def __call__(self, x) -> np.ndarray:
        idx = self.family.kernel.nearest_index(x)
        return self.family.maps[idx].evaluate(self.omega)[0]


@dataclass(frozen=True)
class VerificationReport:
    """Per-base-point W1 between the empirical law of f_omega(x_i) and mu_{x_i}."""

    route: str
    n_samples: int
    seed: int
    tol: float
    base_points: np.ndarray
    w1: np.ndarray
    passed: np.ndarray
    mc_floor: float
    modulus: ModulusTable | None = None

    @property
    def all_pass(self) -> bool:
        return bool(self.passed.all())

    def to_dict(self) -> dict:
        per_point = [{"x": [float(v) for v in x], "w1": float(w), "pass": bool(p)}
                     for x, w, p in zip(self.base_points, self.w1, self.passed)]
        out = {
            "route": self.route,
            "N": int(self.n_samples),
            "seed": int(self.seed),
            "tol": float(self.tol),
            "mc_floor": float(self.mc_floor),
            "per_point": per_point,
            "modulus": self.modulus.as_records() if self.modulus is not None else [],
        }
        return out


def verify_representation(family: RandomMapFamily, n_samples: int, tol: float,
                          seed: int) -> VerificationReport:
    """Statistical check of the representation criterion.

    Draws n_samples shared reference points (one omega per sampled map; all
    base points see the same omega), forms the empirical law of f_omega(x_i)
    per base point, and compares it to mu_{x_i} in W1. A point passes when
    its W1 is at most tol, which must be finite and > 0. Failures are report
    content, not errors. The reported floor c/sqrt(N) bounds the expected W1
    of N exact draws in 1D only (Bobkov & Ledoux 2019); in 2D that decays like
    sqrt(log N / N), and exact draws read above it (0.0225-0.0254 against
    0.0158 at N = 1000 on an n = 32 torus target).

    In 1D the draws are sorted before any map sees them. Every 1D map is
    monotone (a circle map keeps the circle's order, a line map does not
    decrease), so its images come back sorted up to one rotation, and the
    sort in `measures.atoms_1d` runs on presorted data. The empirical W1
    does not depend on atom order, so the report is the same bit for bit.
    """
    if n_samples < 100:
        raise KernelError("n_samples must be >= 100")
    if not (np.isfinite(tol) and tol > 0):
        raise KernelError(f"tol must be > 0 and finite, got {tol!r}")
    kernel = family.kernel
    draws = draw_sample(family.reference, n_samples, seed)
    if family.reference.dim == 1:
        draws = np.sort(draws, axis=0)
    periodic = kernel.target_periodic
    w1 = np.empty(family.size)
    for i, t_map in enumerate(family.maps):
        images = t_map.evaluate(draws)
        emp = DiscreteMeasure(images, np.full(len(images), 1.0 / len(images)))
        w1[i] = _w1(emp, kernel.measures[i], periodic)
    passed = w1 <= tol
    return VerificationReport(
        route=family.route,
        n_samples=n_samples,
        seed=seed,
        tol=tol,
        base_points=kernel.base_points,
        w1=w1,
        passed=passed,
        mc_floor=MC_FLOOR_CONST / np.sqrt(n_samples),
        modulus=family.modulus,
    )


def continuity_modulus(family: RandomMapFamily) -> ModulusTable:
    """All-pairs table (base distance, sup-norm map distance), by base distance.

    The sup norm runs over the shared evaluation grid with the target-space
    metric. Envelope constants such as C_1 = max dT / dx are read off the
    table's two columns.
    """
    kernel = family.kernel
    grids = {(m.grid.dim, m.grid.n, m.grid.periodic) for m in family.maps}
    if len(grids) != 1:
        raise KernelError("modulus needs maps sampled on one common grid")
    periodic = family.maps[0].grid.periodic
    dmat = base_distance_matrix(kernel.space, kernel.base_points)
    images = np.stack([m.images for m in family.maps])
    # pairs (i, j > i) in row-major order: map i against every later map at once
    base_arr = dmat[np.triu_indices(kernel.size, 1)]
    map_arr = np.concatenate([_node_distances(images[i], images[i + 1:], periodic).max(axis=1)
                              for i in range(kernel.size - 1)])
    order = np.argsort(base_arr, kind="stable")
    return ModulusTable(base_arr[order], map_arr[order])


def stability_experiment(mu: GridDensity, nu_seq, nu_limit, eps: float,
                         periodic: bool = False) -> list[float]:
    """mu-mass of {x : d(T_k(x), T(x)) >= eps} for each target in the sequence.

    T_k and T are the measurable route's optimal maps from mu to nu_k and to
    the limit target, compared at the grid nodes (the quantity of the
    convergence-in-probability statement for optimal maps under weak
    convergence of targets). periodic wraps the distance on the torus and
    selects the circle rearrangement in 1D. In 2D it wraps only the
    distance: the maps are Brenier maps on the box chart, not torus-optimal.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise KernelError(f"eps must be > 0 and finite, got {eps!r}")
    t_lim = _optimal_map(mu, nu_limit, periodic)
    masses = mu.cell_masses()
    out = []
    for nu_k in nu_seq:
        dev = _node_distances(_optimal_map(mu, nu_k, periodic).images, t_lim.images, periodic)
        out.append(float(masses[dev >= eps].sum()))
    return out
