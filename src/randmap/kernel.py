"""Markov-kernel families and their random-map representations.

Two construction routes are provided: per-base-point optimal maps from an
absolutely continuous reference (measurable route) and per-base-point Moser
time-1 maps from the uniform density (continuous route). The statistical
check draws shared reference points omega, evaluates every map at them, and
compares the empirical law of f_omega(x_i) against mu_{x_i} in W1.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

import numpy as np

from .geometry import pairwise_distance, sphere_xyz, wrap_signed
from .measures import (
    DiscreteMeasure,
    GridDensity,
    draw_sample,
    grid_pushforward,
    wasserstein_1d,
    wasserstein_sinkhorn_upper,
)
from .moser import MIN_DENSITY, moser_map
from .transport import BRENIER_EPSILON, TransportMap, brenier_map, monotone_map_1d

BASE_SPACES = ("circle", "torus2", "interval", "sphere2-chart")
INTERP_RULES = ("nearest", "none")
MC_FLOOR_CONST = 0.5


class KernelError(ValueError):
    """Invalid kernel family or representation request."""


def base_distance_matrix(space: str, pts: np.ndarray) -> np.ndarray:
    """Pairwise base-space distances for the supported base manifolds."""
    if space in ("circle", "interval"):
        return pairwise_distance(pts[:, :1], pts[:, :1], periodic=space == "circle")
    if space == "torus2":
        return pairwise_distance(pts, pts, periodic=True)
    if space == "sphere2-chart":
        xyz = sphere_xyz(pts)
        dots = np.clip(xyz @ xyz.T, -1.0, 1.0)
        return np.arccos(dots)
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
            raise KernelError(f"base space must be one of {BASE_SPACES}")
        if self.interp not in INTERP_RULES:
            raise KernelError(f"interpolation rule must be one of {INTERP_RULES}")
        pts = np.atleast_2d(np.asarray(self.base_points, dtype=float))
        if pts.shape[0] < 2:
            raise KernelError("a kernel family needs at least two base points")
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
    fits: dict

    def as_records(self) -> list[dict]:
        return [{"dx": float(dx), "dT": float(dt)}
                for dx, dt in zip(self.base_dists, self.map_dists)]

    @property
    def lipschitz(self) -> float:
        return self.fits[1.0]


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


def _w1(mu, target, periodic: bool, grid_subdiv: int) -> float:
    """Exact W1 in 1D, the certified Sinkhorn upper bound in 2D."""
    if target.dim == 1:
        return wasserstein_1d(mu, target, p=1, periodic=periodic, grid_subdiv=grid_subdiv)
    return wasserstein_sinkhorn_upper(mu, target, p=1, periodic=periodic)


def _pushforward_error(t_map: TransportMap, reference: GridDensity, target,
                       periodic: bool) -> float:
    return _w1(grid_pushforward(t_map, reference), target, periodic, grid_subdiv=4)


def _validated_family(route: str, kernel: KernelFamily, reference: GridDensity,
                      build_map, periodic: bool, validate: bool) -> RandomMapFamily:
    """One map per kernel measure, each checked by its pushforward W1.

    build_map(target) returns the map from the reference to target. With
    validate, a W1(T_* reference, target) above 2/n (1D) or 4/n (2D) is
    rejected; without it every error is recorded as NaN.
    """
    tol = (2.0 if reference.dim == 1 else 4.0) / reference.n
    maps, errs = [], []
    for i, target in enumerate(kernel.measures):
        try:
            t_map = build_map(target)
        except Exception as exc:
            raise KernelError(f"map construction failed at base point {i}: {exc}") from exc
        err = (_pushforward_error(t_map, reference, target, periodic)
               if validate else float("nan"))
        if err > tol:
            raise KernelError(f"pushforward check failed at base point {i}: "
                              f"W1 = {err:.3e} > {tol:.3e}")
        maps.append(t_map)
        errs.append(err)
    return RandomMapFamily(reference, tuple(maps), route, kernel, tol, tuple(errs))


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
    periodic = kernel.target_periodic
    if reference.dim == 1:
        build_map = partial(monotone_map_1d, reference, periodic=periodic)
    else:
        build_map = partial(brenier_map, reference, reg_epsilon=BRENIER_EPSILON)
    return _validated_family("measurable", kernel, reference, build_map, periodic,
                             validate=True)


def build_continuous_representation(kernel: KernelFamily,
                                    steps: int | None = None) -> RandomMapFamily:
    """Representation by Moser time-1 maps from the uniform density.

    Every kernel measure must be a strictly positive grid density (full
    support is what makes the maps continuous). Continuity metadata is
    attached from the modulus table over all base-point pairs. Only 1D maps
    are validated: in 2D the pushforward errors are recorded as NaN.
    """
    if not isinstance(kernel.measures[0], GridDensity):
        raise KernelError("continuous route needs grid-density kernel measures")
    for i, m in enumerate(kernel.measures):
        if m.min_value < MIN_DENSITY:
            raise KernelError(f"measure at base point {i} violates strict "
                              f"positivity: min {m.min_value:.2e} < {MIN_DENSITY}")
    proto = kernel.measures[0]
    reference = GridDensity.uniform(proto.dim, proto.n)

    def build_map(target):
        return moser_map(reference, target, steps=steps, check_pushforward=False).map

    family = _validated_family("continuous", kernel, reference, build_map, True,
                               validate=proto.dim == 1)
    # the table reads the family it describes, so it is attached after the build
    object.__setattr__(family, "modulus", continuity_modulus(family))
    return family


@dataclass(frozen=True)
class RandomMap:
    """One sampled map f_omega: evaluates T_x at the shared draw omega."""

    family: RandomMapFamily
    omega: np.ndarray
    seed: int

    def __call__(self, x) -> np.ndarray:
        idx = self.family.kernel.nearest_index(x)
        return self.family.maps[idx].evaluate(self.omega)[0]


def sample_random_map(family: RandomMapFamily, seed: int) -> RandomMap:
    """Draw omega ~ nu once (seeded) and return the map x -> T_x(omega).

    Evaluation away from the base points follows the family's interpolation
    rule: nearest base point, or rejection when the rule is 'none'.
    """
    sample = draw_sample(family.reference, 1, seed)
    return RandomMap(family, sample.draws, seed)


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def verify_representation(family: RandomMapFamily, n_samples: int, tol: float,
                          seed: int) -> VerificationReport:
    """Statistical check of the representation criterion.

    Draws n_samples shared reference points (one omega per sampled map; all
    base points see the same omega), forms the empirical law of f_omega(x_i)
    per base point, and compares it to mu_{x_i} in W1. Failures are report
    content, not errors. The c/sqrt(N) Monte Carlo floor is reported
    alongside so passes can be judged against the sampling noise.
    """
    if n_samples < 100:
        raise KernelError("n_samples must be >= 100")
    kernel = family.kernel
    sample = draw_sample(family.reference, n_samples, seed)
    periodic = kernel.target_periodic
    w1 = np.empty(family.size)
    for i, t_map in enumerate(family.maps):
        images = t_map.evaluate(sample.draws)
        emp = DiscreteMeasure(images, np.full(len(images), 1.0 / len(images)))
        w1[i] = _w1(emp, kernel.measures[i], periodic, grid_subdiv=8)
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
    """All-pairs table (base distance, sup-norm map distance) with envelope fits.

    The sup norm runs over the shared evaluation grid with the target-space
    metric; envelope constants C_alpha = max dT / dx^alpha are reported for
    alpha in {0.25, 0.5, 0.75, 1}.
    """
    kernel = family.kernel
    if kernel.size < 2:
        raise KernelError("modulus needs at least two base points")
    grids = {(m.grid.dim, m.grid.n, m.grid.periodic) for m in family.maps}
    if len(grids) != 1:
        raise KernelError("modulus needs maps sampled on one common grid")
    periodic = family.maps[0].grid.periodic
    dmat = base_distance_matrix(kernel.space, kernel.base_points)
    base_d, map_d = [], []
    for i in range(kernel.size):
        for j in range(i + 1, kernel.size):
            delta = family.maps[i].images - family.maps[j].images
            if periodic:
                delta = wrap_signed(delta)
            sup = float(np.sqrt(np.sum(delta * delta, axis=1)).max())
            base_d.append(float(dmat[i, j]))
            map_d.append(sup)
    base_arr = np.array(base_d)
    map_arr = np.array(map_d)
    order = np.argsort(base_arr, kind="stable")
    base_arr, map_arr = base_arr[order], map_arr[order]
    fits = {}
    for alpha in (0.25, 0.5, 0.75, 1.0):
        with np.errstate(divide="ignore"):
            ratios = map_arr / base_arr ** alpha
        fits[alpha] = float(ratios.max())
    return ModulusTable(base_arr, map_arr, fits)
