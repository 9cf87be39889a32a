"""Reference computations that the tests compare randmap's results against.

Nothing in randmap calls these, so they live beside the tests. Three groups:

- checks: cyclical monotonicity, potential consistency, midpoint
  convexity, the cost of a deterministic plan, the barycentric projection
  of an entropic plan from its target potential, the exact circle W1 by a
  stable sort, the CDF of a 1D grid density and its left-continuous
  inverse by bisection, atomic pushforwards and empirical measures
  (with merging of coincident atoms and Dirac masses), and step doubling
  of 2D Moser flows from one fixed start;
- the discrete Legendre transform and the inversion of transport maps
  through it (acceptance criterion 5);
- trivial-bundle lifts of fiber densities into R^k, their projections
  back, and the exp-chart density comparison (acceptance criterion 8).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import logsumexp

from randmap.geometry import CostSpec, GridSpec, _row_blocks, _stencil, interp_grid, wrap_signed
from randmap.lift import LiftError, ManifoldChart
from randmap.measures import (DiscreteMeasure, GridDensity, MeasureError, wasserstein_1d,
                              wasserstein_sinkhorn_upper)
from randmap.moser import MAX_STEPS_PER_CELL, MoserError, flow_tolerance, integrate_flow
from randmap.transport import MapError, TransportMap, _integrate_potential

MERGE_TOL = 1e-12


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_cyclical_monotonicity(t_map: TransportMap, n_pairs: int = 1000,
                                seed: int = 0) -> float:
    """Worst pairwise slack (x_i - x_j).(T(x_i) - T(x_j)) over sampled node pairs.

    Nonnegative (within roundoff) for monotone rearrangements and gradients
    of convex potentials; decisively negative for non-optimal maps.
    """
    rng = np.random.default_rng(seed)
    npts = len(t_map.points)
    i = rng.integers(0, npts, size=n_pairs)
    j = rng.integers(0, npts, size=n_pairs)
    dx = t_map.points[i] - t_map.points[j]
    dt = t_map.images[i] - t_map.images[j]
    return float(np.sum(dx * dt, axis=1).min())


def potential_consistency(t_map: TransportMap) -> float:
    """Max deviation of images from x + centered-difference grad(psi).

    Exact (machine precision) whenever the displacement field is affine;
    interior nodes only on box charts, wrapped stencil on the torus.
    """
    if t_map.psi is None:
        raise MapError("map carries no potential")
    n, dim = t_map.grid.n, t_map.grid.dim
    psi = t_map.psi.reshape((n,) * dim)
    disp = t_map.images - t_map.points
    if t_map.grid.periodic:
        disp = wrap_signed(disp)
    worst = 0.0
    for a in range(dim):
        h = t_map.grid.spacing[a]
        if t_map.grid.periodic:
            grad = (np.roll(psi, -1, axis=a) - np.roll(psi, 1, axis=a)) / (2 * h)
            diff = np.abs(grad - disp[:, a].reshape(psi.shape))
        else:
            sl_lo = [slice(None)] * dim
            sl_hi = [slice(None)] * dim
            sl_in = [slice(None)] * dim
            sl_lo[a], sl_hi[a], sl_in[a] = slice(0, -2), slice(2, None), slice(1, -1)
            grad = (psi[tuple(sl_hi)] - psi[tuple(sl_lo)]) / (2 * h)
            diff = np.abs(grad - disp[:, a].reshape(psi.shape)[tuple(sl_in)])
        worst = max(worst, float(diff.max()))
    return worst


def deterministic_plan_cost(t_map: TransportMap, mu: DiscreteMeasure, cost: CostSpec) -> float:
    """Cost of the plan (id x T)_* mu, i.e. sum_i w_i c(x_i, T(x_i))."""
    images = t_map.evaluate(mu.points)
    if cost.kind == "negdot":
        vals = -np.sum(mu.points * images, axis=1)
    else:
        delta = mu.points - images
        if cost.periodic:
            delta = wrap_signed(delta)
        d = np.sqrt(np.sum(delta * delta, axis=1))
        vals = d * d if cost.kind == "sqdist" else d ** cost.p
    return float(np.sum(mu.weights * vals))


def barycentric_images(nodes: np.ndarray, pts: np.ndarray, g: np.ndarray, b: np.ndarray,
                       eps: float) -> np.ndarray:
    """Barycentric projection of the entropic plan for the cost 1/2 |x - y|^2
    with target potential g: node x_i goes to sum_j w_ij y_j over the row
    softmax w_ij of (x_i.y_j - |y_j|^2/2 + g_j)/eps + log b_j, taken from g
    alone and shifted by each row's maximum, block by block of rows. Zero
    weights b_j get no mass."""
    with np.errstate(divide="ignore"):
        affine = (g - 0.5 * np.sum(pts * pts, axis=1)) / eps + np.log(b)
    images = np.empty((len(nodes), pts.shape[1]))
    for rows in _row_blocks(len(nodes), len(pts)):
        logits = nodes[rows] @ pts.T / eps + affine[None, :]
        logits -= logits.max(axis=1, keepdims=True)
        w = np.exp(logits)
        images[rows] = (w @ pts) / w.sum(axis=1, keepdims=True)
    return images


def brenier_potential(nodes: np.ndarray, pts: np.ndarray, g: np.ndarray, b: np.ndarray,
                      eps: float) -> np.ndarray:
    """The entropic Brenier potential psi of target potential g, 0 at node 0:
    |x|^2/2 + psi(x) = eps log sum_j b_j exp((x.y_j - |y_j|^2/2 + g_j)/eps)
    up to a constant, a log-sum-exp of affine functions of x whose gradient
    is `barycentric_images`. Zero weights b_j add nothing."""
    with np.errstate(divide="ignore"):
        affine = (g - 0.5 * np.sum(pts * pts, axis=1)) / eps + np.log(b)
    psi = eps * logsumexp(nodes @ pts.T / eps + affine[None, :], axis=1)
    psi -= 0.5 * np.sum(nodes * nodes, axis=1)
    return psi - psi[0]


def circle_w1_sorted(xu, wu, xv, wv) -> float:
    """Exact W1 on the circle (atoms in [0, 1), sorted) by the weighted median
    of F_mu - F_nu, with masses summed by `np.add.at` and the median taken
    over a stable sort of every value: the reference for
    `measures._circle_w1`, which groups equal values instead."""
    z = np.union1d(xu, xv)
    cu = np.zeros(len(z))
    cv = np.zeros(len(z))
    np.add.at(cu, np.searchsorted(z, xu), wu)
    np.add.at(cv, np.searchsorted(z, xv), wv)
    fu = np.cumsum(cu)
    fv = np.cumsum(cv)
    d = fu - fv
    seg = np.diff(np.concatenate([z, [z[0] + 1.0]]))
    order = np.argsort(d, kind="stable")
    csum = np.cumsum(seg[order])
    k = np.searchsorted(csum, 0.5 * csum[-1])
    t_star = d[order[min(k, len(d) - 1)]]
    return float(np.sum(seg * np.abs(d - t_star)))


def grid_cdf(rho: GridDensity, y: float) -> float:
    """F(y), the mass of [0, y] under the piecewise-constant 1D density rho
    (whole cells summed in order, as `np.cumsum` does)."""
    masses = rho.values / rho.n
    k = min(int(y * rho.n), rho.n - 1)
    return float(np.concatenate([[0.0], np.cumsum(masses)])[k] + masses[k] * (y * rho.n - k))


def grid_quantile_bisection(rho: GridDensity, q: float) -> float:
    """inf{y in [0, 1] : F(y) >= min(q, F(1))} for F = `grid_cdf` of rho, by 64
    bisection steps: the left-continuous inverse, which takes a level on a
    plateau of F (a run of zero-mass cells) to the plateau's left end, and a
    level at or above the total mass (1 up to rounding) to where F reaches it."""
    q = min(q, grid_cdf(rho, 1.0))
    lo, hi = 0.0, 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if grid_cdf(rho, mid) >= q else (mid, hi)
    return hi


def doubling_from(fields, start: int) -> list:
    """Step doubling of a batch of 2D Moser fields, every map from the same
    fixed start: per field (steps, time-1 positions, estimate), or the
    MoserError of a map still unresolved at the cap. From 16 it is the
    reference for `moser._flows`, whose start comes from each field's speed
    bound and is at most 16: no map may take more steps than from 16, and a
    map accepted at 32 steps or more, or unresolved, must match it bit for
    bit."""
    n = fields[0].grid.n
    nodes = fields[0].grid.nodes()
    tol, cap = flow_tolerance(n), MAX_STEPS_PER_CELL * n
    out = [None] * len(fields)
    live = list(range(len(fields)))
    steps = start
    coarse = integrate_flow(fields, nodes, 0.0, 1.0, steps)
    estimate = np.full(len(fields), np.inf)
    while live and 2 * steps <= cap:
        steps *= 2
        fine = integrate_flow([fields[i] for i in live], nodes, 0.0, 1.0, steps)
        estimate = np.abs(wrap_signed(fine - coarse)).max(axis=(1, 2))
        estimate[np.isnan(estimate)] = np.inf
        done = estimate <= tol
        for b in np.flatnonzero(done):
            out[live[b]] = (steps, fine[b], float(estimate[b]))
        live = [i for i, d in zip(live, done) if not d]
        coarse, estimate = fine[~done], estimate[~done]
    for i, est in zip(live, estimate):
        out[i] = MoserError(f"flow not resolved at the cap of {steps} steps: doubling "
                            f"estimate {est:.3e} exceeds {tol:.3e}")
    return out


def dirac(point) -> DiscreteMeasure:
    """Unit mass at one point."""
    return DiscreteMeasure(np.atleast_2d(np.asarray(point, dtype=float)), np.array([1.0]))


def merged(mu: DiscreteMeasure, tol: float = MERGE_TOL) -> DiscreteMeasure:
    """Merge atoms whose coordinates agree within tol (sums their weights)."""
    key = np.round(mu.points / tol).astype(np.int64)
    uniq, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    w = np.zeros(len(uniq))
    np.add.at(w, inverse.ravel(), mu.weights)
    pts = mu.points[first]
    return DiscreteMeasure(pts, w / w.sum())


def empirical_measure(draws: np.ndarray) -> DiscreteMeasure:
    """Atoms at the (N, d) draws, weight 1/N each; coincident draws merge."""
    if len(draws) < 1:
        raise MeasureError("sample must contain at least one draw")
    return merged(DiscreteMeasure(draws, np.full(len(draws), 1.0 / len(draws))))


def pushforward(T, mu: DiscreteMeasure) -> DiscreteMeasure:
    """Image measure T_* mu: atoms move, weights are untouched, images merge.

    The map is called once per atom, on a (1, d) array: a plain callable may
    handle one point at a time, and the per-atom call is what lets the error
    name the support point where the map is undefined.
    """
    images = []
    for pt in mu.points:
        try:
            y = np.asarray(T(pt[None, :]), dtype=float).reshape(-1)
        except Exception as exc:
            raise MeasureError(f"map undefined at support point {pt.tolist()}: {exc}") from exc
        if not np.all(np.isfinite(y)):
            raise MeasureError(f"map undefined at support point {pt.tolist()}")
        images.append(y)
    return merged(DiscreteMeasure(np.vstack(images), mu.weights))


# ---------------------------------------------------------------------------
# Legendre duality and map inversion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialGrid:
    """Scalar potential sampled at cell-centered nodes of a box chart."""

    values: np.ndarray
    bounds: tuple
    convexified: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise MapError("potential values must be finite")
        bounds = tuple(tuple(map(float, b)) for b in self.bounds)
        if vals.ndim != len(bounds):
            raise MapError("bounds must give one (lo, hi) pair per axis")
        if len(set(vals.shape)) != 1:
            raise MapError("potential grid needs the same node count on every axis")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "bounds", bounds)

    @cached_property
    def grid(self) -> GridSpec:
        return GridSpec(dim=self.values.ndim, n=self.values.shape[0], bounds=self.bounds,
                        periodic=False)

    def midpoint_convexity_violation(self) -> float:
        """Largest violation of phi((x+y)/2) <= (phi(x)+phi(y))/2 on grid triples."""
        worst = 0.0
        v = self.values
        for a in range(v.ndim):
            left = np.take(v, range(0, v.shape[a] - 2), axis=a)
            mid = np.take(v, range(1, v.shape[a] - 1), axis=a)
            right = np.take(v, range(2, v.shape[a]), axis=a)
            worst = max(worst, float((mid - 0.5 * (left + right)).max(initial=0.0)))
        return worst


def legendre_transform(phi: PotentialGrid, dual_bounds=None, dual_n: int | None = None) -> PotentialGrid:
    """Discrete Legendre transform phi*(y) = max_x (x.y - phi(x)) on a dual grid.

    The default dual grid spans the forward-difference slope range of phi
    with the same node count. Values are capped at the finite sentinel
    10 * diam(domain) * max(1, gradient bound) so extended-real transforms
    of affine inputs stay representable.
    """
    grid = phi.grid
    grads = []
    for a in range(grid.dim):
        h = grid.spacing[a]
        slopes = np.diff(phi.values, axis=a) / h
        grads.append(slopes)
    if dual_bounds is None:
        dual_bounds = []
        for s in grads:
            lo, hi = float(s.min()), float(s.max())
            if hi - lo < 1e-12:
                pad = max(grid.spacing.max(), 1e-6)
                lo, hi = lo - pad, hi + pad
            dual_bounds.append((lo, hi))
        dual_bounds = tuple(dual_bounds)
    if dual_n is None:
        dual_n = grid.n
    dual = GridSpec(dim=grid.dim, n=dual_n, bounds=tuple(dual_bounds), periodic=False)
    _, out = _argmax_conjugate_map(phi, dual)
    diam = float(np.sqrt(sum((hi - lo) ** 2 for lo, hi in phi.bounds)))
    gradbound = max(1.0, max(float(np.abs(s).max()) for s in grads))
    sentinel = 10.0 * diam * gradbound
    out = np.minimum(out, sentinel)
    return PotentialGrid(out.reshape((dual_n,) * dual.dim), dual.bounds, convexified=True)


def _argmax_conjugate_map(phi: PotentialGrid, target: GridSpec):
    """Subgradient selection of phi*: y -> argmax_x (x.y - phi(x)), lowest index wins."""
    nodes = phi.grid.nodes()
    vals = phi.values.ravel()
    y = target.nodes()
    images = np.empty((len(y), nodes.shape[1]))
    conj = np.empty(len(y))
    for rows in _row_blocks(len(y), len(nodes)):
        scores = y[rows] @ nodes.T - vals[None, :]
        best = scores.argmax(axis=1)
        images[rows] = nodes[best]
        conj[rows] = scores[np.arange(len(best)), best]
    return images, conj


def invert_map(s_map: TransportMap, target_grid: GridSpec) -> TransportMap:
    """Inverse transport map on a target chart.

    1D monotone maps invert by exact interpolation of the node samples.
    2D maps require a potential: the inverse is the subgradient selection of
    the Legendre transform of the convex potential |x|^2/2 + psi, which is
    cyclically monotone by construction.
    """
    y_nodes = target_grid.nodes()
    if s_map.dim == 1:
        x = s_map.points[:, 0]
        t = s_map.images[:, 0]
        order = np.argsort(x, kind="stable")
        x, t = x[order], t[order]
        if np.all(np.diff(t) >= -1e-12):
            images = np.interp(y_nodes[:, 0], t, x)[:, None]
            psi = _integrate_potential(images - y_nodes, target_grid)
            return TransportMap(y_nodes, images, psi=psi, route="composed",
                                grid=target_grid)
        if s_map.psi is None:
            raise MapError("cannot invert a non-monotone map without a potential")
    if s_map.psi is None:
        raise MapError("2D inversion requires a gradient-of-convex map with potential")
    nodes = s_map.points
    phi_vals = 0.5 * np.sum(nodes * nodes, axis=1) + s_map.psi
    phi = PotentialGrid(phi_vals.reshape((s_map.grid.n,) * s_map.grid.dim),
                        s_map.grid.bounds)
    images, conj = _argmax_conjugate_map(phi, target_grid)
    psi_t = conj - 0.5 * np.sum(y_nodes * y_nodes, axis=1)
    return TransportMap(y_nodes, images, psi=psi_t, route="composed", grid=target_grid)


# ---------------------------------------------------------------------------
# trivial-bundle lifting
# ---------------------------------------------------------------------------

CONVEXITY_RADIUS = {"circle": 0.25, "torus2": 0.25, "sphere2": np.pi / 2}


def cell_volume(grid: GridSpec) -> float:
    return float(np.prod(grid.spacing))


def deposit_linear(points: np.ndarray, weights: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Linear (cloud-in-cell) deposit of weighted particles onto a grid.

    It shares interp_grid's stencil, so it is that interpolation's exact
    adjoint: sum_i w_i interp(v, x_i) = sum over cells of v * deposit(x, w).
    """
    weights = np.asarray(weights, dtype=float)
    out = np.zeros(grid.n ** grid.dim)
    for cell, weight in _stencil(points, grid):
        np.add.at(out, cell, weights * weight)
    return out.reshape((grid.n,) * grid.dim)


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
        return float(self.values.sum() * cell_volume(self.grid))

    def normalized(self) -> "BoxDensity":
        total = self.integral()
        if total <= 0:
            raise LiftError("cannot normalize an empty density")
        return BoxDensity(self.values / total, self.bounds)

    def as_discrete(self) -> DiscreteMeasure:
        masses = self.values.ravel() * cell_volume(self.grid)
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
    at_proj = interp_grid(g[None, None], proj_pts[None], mu_tilde.grid)[0, :, 0]
    hat_vals = at_proj * nu.values.ravel()
    hat = BoxDensity(hat_vals.reshape(nu.values.shape), nu.bounds)
    total = hat.integral()
    target_mass = mu_tilde.integral()
    if total <= 0:
        raise LiftError("lifted density vanished; support violation")
    return BoxDensity(hat.values * (target_mass / total), nu.bounds)


def _project(lift: BundleLift, density: BoxDensity, grid: GridSpec) -> np.ndarray:
    """Density of r_* density on a fiber grid: linear deposit of cell masses."""
    masses = density.values.ravel() * cell_volume(density.grid)
    proj_pts = density.grid.nodes() @ lift.projection.T
    return deposit_linear(proj_pts, masses, grid) / cell_volume(grid)


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
    return wasserstein_sinkhorn_upper(da, db, periodic=False)


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
