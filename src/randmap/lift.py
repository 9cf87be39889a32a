"""Exponential-map lifting of measures to tangent charts and trivial-bundle
lifts into R^k, with the projections back.

Supported manifolds: the circle (quotient coordinates in [0,1)), the flat
2-torus, and the unit 2-sphere in colatitude/longitude angles. These cover
both the parallelizable and the non-parallelizable tangent-bundle cases the
flat-space solvers are reused for.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import (GridSpec, deposit_linear, interp_grid, sphere_distance, sphere_xyz,
                       wrap_signed, wrap_unit)
from .measures import (DiscreteMeasure, GridDensity, read_atom_rows, wasserstein_1d,
                       wasserstein_sinkhorn_upper, write_rows)

MANIFOLDS = ("circle", "torus2", "sphere2")
ROUND_TRIP_TOL = 1e-9
SPHERE_CAP = 3.0  # < pi, keeps the exp Jacobian away from the cut locus
CONVEXITY_RADIUS = {"circle": 0.25, "torus2": 0.25, "sphere2": np.pi / 2}


class LiftError(ValueError):
    """Chart or bundle precondition violated."""


def _sphere_angles(xyz: np.ndarray) -> np.ndarray:
    theta = np.arccos(np.clip(xyz[:, 2], -1.0, 1.0))
    phi = np.mod(np.arctan2(xyz[:, 1], xyz[:, 0]), 2.0 * np.pi)
    return np.column_stack([theta, phi])


@dataclass(frozen=True)
class ManifoldChart:
    """Geodesic normal chart exp_p / exp_p^{-1} at a base point.

    Injectivity caps: 0.5 in quotient units on the circle and torus, 3.0 on
    the unit sphere (the exp Jacobian degenerates at the cut locus pi).
    """

    manifold: str
    base_point: np.ndarray
    cap: float = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.manifold not in MANIFOLDS:
            raise LiftError(f"manifold must be one of {MANIFOLDS}")
        p = np.asarray(self.base_point, dtype=float).ravel()
        expected = {"circle": 1, "torus2": 2, "sphere2": 2}[self.manifold]
        if len(p) != expected:
            raise LiftError(f"{self.manifold} base point needs {expected} coordinates")
        cap = self.cap
        if cap is None:
            cap = 0.5 if self.manifold in ("circle", "torus2") else SPHERE_CAP
        if not (np.isfinite(cap) and cap > 0):
            raise LiftError(f"chart cap must be a finite number > 0, got {cap!r}")
        if self.manifold == "sphere2" and cap >= np.pi:
            raise LiftError("sphere chart cap must stay below the cut locus pi")
        object.__setattr__(self, "base_point", p)
        object.__setattr__(self, "cap", float(cap))

    @property
    def tangent_dim(self) -> int:
        return 1 if self.manifold == "circle" else 2

    def _sphere_frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        theta, phi = self.base_point
        p = sphere_xyz(self.base_point[None, :])[0]
        e1 = np.array([np.cos(theta) * np.cos(phi),
                       np.cos(theta) * np.sin(phi),
                       -np.sin(theta)])
        e2 = np.array([-np.sin(phi), np.cos(phi), 0.0])
        return p, e1, e2

    def log(self, pts: np.ndarray) -> np.ndarray:
        """exp_p^{-1} of manifold points; rejects points beyond the cap."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.manifold in ("circle", "torus2"):
            v = wrap_signed(pts - self.base_point[None, :])
            norms = np.sqrt(np.sum(v * v, axis=1))
            bad = np.nonzero(norms > self.cap + 1e-15)[0]
            if bad.size:
                raise LiftError(f"atom {pts[bad[0]].tolist()} lies outside the "
                                f"injectivity cap {self.cap}")
            return v
        p, e1, e2 = self._sphere_frame()
        q = sphere_xyz(pts)
        d = sphere_distance(q, p)
        bad = np.nonzero(d > self.cap + 1e-15)[0]
        if bad.size:
            raise LiftError(f"atom {pts[bad[0]].tolist()} lies outside the "
                            f"injectivity cap {self.cap}")
        rest = q - (q @ p)[:, None] * p[None, :]
        norm = np.sqrt(np.sum(rest * rest, axis=1))
        safe = np.where(norm > 1e-300, norm, 1.0)
        unit = rest / safe[:, None]
        v = d[:, None] * np.column_stack([unit @ e1, unit @ e2])
        v[norm <= 1e-300] = 0.0
        return v

    def exp(self, vecs: np.ndarray) -> np.ndarray:
        """exp_p of tangent vectors; rejects vectors beyond the cap."""
        v = np.atleast_2d(np.asarray(vecs, dtype=float))
        norms = np.sqrt(np.sum(v * v, axis=1))
        bad = np.nonzero(norms > self.cap + 1e-15)[0]
        if bad.size:
            raise LiftError(f"tangent vector {v[bad[0]].tolist()} exceeds the "
                            f"radius cap {self.cap}")
        if self.manifold in ("circle", "torus2"):
            return wrap_unit(self.base_point[None, :] + v)
        p, e1, e2 = self._sphere_frame()
        safe = np.where(norms > 1e-300, norms, 1.0)
        unit = (v[:, 0, None] * e1[None, :] + v[:, 1, None] * e2[None, :]) / safe[:, None]
        q = np.cos(norms)[:, None] * p[None, :] + np.sin(norms)[:, None] * unit
        q[norms <= 1e-300] = p
        return _sphere_angles(q)


def log_lift(chart: ManifoldChart, mu: DiscreteMeasure) -> DiscreteMeasure:
    """Lift an atomic measure to the tangent space at the chart base point."""
    return DiscreteMeasure(chart.log(mu.points), mu.weights)


def exp_push(chart: ManifoldChart, mu_tangent: DiscreteMeasure) -> DiscreteMeasure:
    """Push a tangent-space atomic measure back to the manifold."""
    return DiscreteMeasure(chart.exp(mu_tangent.points), mu_tangent.weights)


# ---------------------------------------------------------------------------
# trivial-bundle lifting
# ---------------------------------------------------------------------------

def bump_profile(t: np.ndarray) -> np.ndarray:
    """Compactly supported smooth unit-mass bump on [-1, 1]: cos^2(pi t / 2)."""
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) < 1.0, np.cos(0.5 * np.pi * t) ** 2, 0.0)


@dataclass(frozen=True)
class BoxDensity:
    """Lebesgue density sampled at cell centers of a bounded box grid."""

    values: np.ndarray
    bounds: tuple

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            raise LiftError("box density values must be finite and nonnegative")
        bounds = tuple(tuple(map(float, b)) for b in self.bounds)
        if vals.ndim != len(bounds):
            raise LiftError("bounds must give one (lo, hi) pair per axis")
        if len(set(vals.shape)) != 1:
            raise LiftError("box density needs the same node count on every axis")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "bounds", bounds)

    @cached_property
    def grid(self) -> GridSpec:
        return GridSpec(dim=self.values.ndim, n=self.values.shape[0], bounds=self.bounds,
                        periodic=False)

    def integral(self) -> float:
        return float(self.values.sum() * self.grid.cell_volume)

    def normalized(self) -> "BoxDensity":
        total = self.integral()
        if total <= 0:
            raise LiftError("cannot normalize an empty density")
        return BoxDensity(self.values / total, self.bounds)

    def as_discrete(self) -> DiscreteMeasure:
        masses = self.values.ravel() * self.grid.cell_volume
        keep = masses > 0
        pts = self.grid.nodes()[keep]
        w = masses[keep]
        return DiscreteMeasure(pts, w / w.sum())


@dataclass(frozen=True)
class BundleLift:
    """Reference measure on R^k plus a rank-d orthogonal fiber projection.

    The reference is a tensor product of compactly supported smooth bumps on
    [-1,1]^k, so every orthogonal projection of it has a positive density in
    the interior of its support.
    """

    ambient_dim: int
    projection: np.ndarray
    grid_n: int = 48

    def __post_init__(self):
        if self.ambient_dim not in (2, 3):
            raise LiftError("ambient dimension k must be 2 or 3")
        r = np.atleast_2d(np.asarray(self.projection, dtype=float))
        d, k = r.shape
        if k != self.ambient_dim or d >= k or d not in (1, 2):
            raise LiftError(f"projection must be (d, k) with d < k = {self.ambient_dim}")
        gram = r @ r.T
        if np.abs(gram - np.eye(d)).max() > 1e-10:
            raise LiftError("projection rows must be orthonormal")
        object.__setattr__(self, "projection", r)

    @property
    def fiber_dim(self) -> int:
        return self.projection.shape[0]

    def reference_box(self) -> BoxDensity:
        """The reference nu evaluated on the ambient grid."""
        grid = GridSpec(self.ambient_dim, self.grid_n, ((-1.0, 1.0),), periodic=False)
        vals = np.ones((self.grid_n,) * self.ambient_dim)
        for a in range(self.ambient_dim):
            shape = [1] * self.ambient_dim
            shape[a] = self.grid_n
            vals = vals * bump_profile(grid.axis_nodes(a)).reshape(shape)
        return BoxDensity(vals, grid.bounds)

    def is_coordinate_projection(self) -> bool:
        d, k = self.projection.shape
        eye = np.zeros((d, k))
        eye[:, :d] = np.eye(d)
        return bool(np.abs(self.projection - eye).max() < 1e-14)

    def projected_bounds(self) -> tuple:
        corners = np.array(np.meshgrid(*([[-1.0, 1.0]] * self.ambient_dim),
                                       indexing="ij")).reshape(self.ambient_dim, -1).T
        proj = corners @ self.projection.T
        return tuple((float(proj[:, a].min()), float(proj[:, a].max()))
                     for a in range(self.fiber_dim))

    def projected_reference(self, target: BoxDensity) -> np.ndarray:
        """Density of r_* nu sampled on the target's grid."""
        grid = target.grid
        if self.is_coordinate_projection():
            axes = [bump_profile(grid.axis_nodes(a)) for a in range(grid.dim)]
            vals = axes[0]
            for other in axes[1:]:
                vals = np.multiply.outer(vals, other)
            return vals
        return _project(self, self.reference_box(), grid)


def bundle_lift(lift: BundleLift, mu_tilde: BoxDensity) -> BoxDensity:
    """Lift a fiber density to R^k: hat mu(y) = g(r(y)) d nu with g = d mu / d nu^(r).

    The support of mu_tilde must sit inside the interior of supp r_* nu;
    total mass is conserved exactly by renormalizing the quadrature.
    """
    if mu_tilde.grid.dim != lift.fiber_dim:
        raise LiftError("mu_tilde dimension must match the projection rank")
    nu_r = lift.projected_reference(mu_tilde)
    support = mu_tilde.values > 0
    if np.any(support & (nu_r <= 1e-12)):
        raise LiftError("support of mu_tilde escapes the interior of supp r_* nu")
    g = np.where(support, mu_tilde.values / np.where(nu_r > 0, nu_r, 1.0), 0.0)
    nu = lift.reference_box()
    proj_pts = nu.grid.nodes() @ lift.projection.T
    hat_vals = interp_grid(g, proj_pts, mu_tilde.grid) * nu.values.ravel()
    hat = BoxDensity(hat_vals.reshape(nu.values.shape), nu.bounds)
    total = hat.integral()
    target_mass = mu_tilde.integral()
    if total <= 0:
        raise LiftError("lifted density vanished; support violation")
    return BoxDensity(hat.values * (target_mass / total), nu.bounds)


def _project(lift: BundleLift, density: BoxDensity, grid: GridSpec) -> np.ndarray:
    """Density of r_* density on a fiber grid: linear deposit of cell masses."""
    masses = density.values.ravel() * density.grid.cell_volume
    proj_pts = density.grid.nodes() @ lift.projection.T
    return deposit_linear(proj_pts, masses, grid) / grid.cell_volume


def project_density(lift: BundleLift, hat: BoxDensity, target: BoxDensity) -> BoxDensity:
    """Quadrature pushforward r_* hat onto the target's fiber grid (the defining check)."""
    if hat.grid.dim != lift.ambient_dim:
        raise LiftError("hat density must live on the ambient box")
    return BoxDensity(_project(lift, hat, target.grid), target.bounds)


def fiber_w1(a: BoxDensity, b: BoxDensity) -> float:
    """W1 between two fiber densities (exact quantile form in 1D, entropic
    upper bound in 2D)."""
    da, db = a.as_discrete(), b.as_discrete()
    if a.grid.dim == 1:
        return wasserstein_1d(da, db, p=1)
    return wasserstein_sinkhorn_upper(da, db, p=1, periodic=False)


# ---------------------------------------------------------------------------
# density comparison under the exponential chart
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftComparisonReport:
    """Ratio bounds between manifold and lifted tangent densities."""

    ratio_min: float
    ratio_max: float
    support_radius: float
    convexity_radius: float
    convex_support: bool


def density_lift_compare(chart: ManifoldChart, mu: GridDensity) -> LiftComparisonReport:
    """Empirical bounds on the exp-map Jacobian factor over the support.

    The circle chart is an isometry (ratio identically 1). On the sphere,
    the grid is read as the tangent chart box [-cap, cap]^2 and the ratio at
    radius r is sin(r)/r. The convexity flag records whether the support
    radius stays below the manifold's convexity radius.
    """
    if chart.manifold == "circle":
        if mu.dim != 1:
            raise LiftError("circle chart expects a 1D density")
        nodes = mu.grid.axis_nodes(0)
        occupied = mu.values > 0
        radius = float(np.abs(wrap_signed(nodes[occupied] - chart.base_point[0])).max())
        conv = CONVEXITY_RADIUS["circle"]
        return LiftComparisonReport(1.0, 1.0, radius, conv, radius < conv)
    if chart.manifold == "sphere2":
        if mu.dim != 2:
            raise LiftError("sphere chart expects a 2D density")
        c = chart.cap
        axis = -c + (np.arange(mu.n) + 0.5) * 2.0 * c / mu.n
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        radii = np.sqrt(xx ** 2 + yy ** 2)
        occupied = mu.values > 0
        if not occupied.any():
            raise LiftError("density has empty support")
        r_occ = radii[occupied]
        r_max = float(r_occ.max())
        r_min = float(r_occ.min())
        if r_max >= np.pi:
            raise LiftError("support reaches the cut locus")
        ratio_at = lambda r: float(np.sinc(r / np.pi))  # sin(r)/r
        conv = CONVEXITY_RADIUS["sphere2"]
        return LiftComparisonReport(ratio_at(r_max), ratio_at(r_min), r_max,
                                    conv, r_max < conv)
    raise LiftError("density comparison supports circle and sphere2 charts")


# ---------------------------------------------------------------------------
# manifold atom CSV formats
# ---------------------------------------------------------------------------

_HEADERS = {"circle": ["theta", "w"], "torus2": ["x0", "x1", "w"],
            "sphere2": ["theta", "phi", "w"]}


def write_manifold_atoms(path, manifold: str, mu: DiscreteMeasure) -> None:
    if manifold not in _HEADERS:
        raise LiftError(f"unknown manifold {manifold!r}")
    header = _HEADERS[manifold]
    if mu.dim != len(header) - 1:
        raise LiftError(f"{manifold} atoms need {len(header) - 1} coordinates")
    write_rows(path, header, np.column_stack([mu.points, mu.weights]).tolist())


def read_manifold_atoms(path, manifold: str) -> DiscreteMeasure:
    if manifold not in _HEADERS:
        raise LiftError(f"unknown manifold {manifold!r}")
    header, data = read_atom_rows(path)
    if header != _HEADERS[manifold]:
        raise LiftError(f"{path}: expected header {','.join(_HEADERS[manifold])}")
    return DiscreteMeasure(data[:, :-1], data[:, -1])
