"""Optimal-coupling solvers: exact LP, entropic, 1D monotone, Brenier maps,
Legendre duality, map inversion, and the map-stability experiment.

The exact LP doubles as the optimality oracle for every other solver, so it
is certified on return via dual feasibility and complementary slackness.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .geometry import CostSpec, GridSpec, interp_grid, wrap_signed, wrap_unit
from .measures import (EXACT_SIZE_GUARD, DiscreteMeasure, GridDensity, MeasureError,
                       atoms_1d, circle_rotation, step_quantile)

MARGINAL_TOL = 1e-9
DUAL_TOL = 1e-9
CM_SLACK_FACTOR = 1e-6
# entropic regularisation of every Brenier map the library builds itself
BRENIER_EPSILON = 1e-3


class SolverError(RuntimeError):
    """A coupling solver failed to produce a certified result."""


class MapError(ValueError):
    """Invalid transport-map construction or evaluation request."""


# ---------------------------------------------------------------------------
# plan and map containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransportPlan:
    """Coupling matrix between two discrete measures, with its cost value."""

    mu: DiscreteMeasure
    nu: DiscreteMeasure
    gamma: np.ndarray
    cost: float
    converged: bool = True
    marginal_error: float = 0.0
    dual_u: np.ndarray | None = None
    dual_v: np.ndarray | None = None

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        if g.shape != (self.mu.size, self.nu.size):
            raise SolverError(f"plan shape {g.shape} does not match supports")
        object.__setattr__(self, "gamma", g)

    def marginal_violation(self) -> float:
        row = np.abs(self.gamma.sum(axis=1) - self.mu.weights).max()
        col = np.abs(self.gamma.sum(axis=0) - self.nu.weights).max()
        return float(max(row, col))

    def validate(self, cost_spec: CostSpec, tol: float = MARGINAL_TOL) -> None:
        if self.marginal_violation() > tol:
            raise SolverError(f"marginal violation {self.marginal_violation():.3e} > {tol}")
        if np.any(self.gamma < -tol):
            raise SolverError("plan has negative entries")
        c = cost_spec.matrix(self.mu.points, self.nu.points)
        recomputed = float(np.sum(self.gamma * c))
        if abs(recomputed - self.cost) > max(tol, tol * abs(recomputed)):
            raise SolverError(f"stored cost {self.cost} != recomputed {recomputed}")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("i,j,gamma\n")
            rows, cols = np.nonzero(self.gamma > 0.0)
            for i, j in zip(rows, cols):
                fh.write(f"{i},{j},{float(self.gamma[i, j])!r}\n")


@dataclass(frozen=True)
class TransportMap:
    """Deterministic map sampled at the nodes of its grid, optionally with potential.

    route is one of "monotone", "brenier", "moser", "composed". Evaluation
    between nodes is (bi)linear; periodic grids interpolate the nearest-lift
    displacement so the seam is handled cleanly.
    """

    points: np.ndarray
    images: np.ndarray
    psi: np.ndarray | None = None
    route: str = "composed"
    grid: GridSpec = field(kw_only=True)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        img = np.atleast_2d(np.asarray(self.images, dtype=float))
        nodes = self.grid.n ** self.grid.dim
        if pts.shape[0] != nodes or img.shape[0] != nodes:
            raise MapError(f"need one point and one image per grid node ({nodes}), "
                           f"got {pts.shape[0]} and {img.shape[0]}")
        psi = None if self.psi is None else np.asarray(self.psi, dtype=float).ravel()
        if psi is not None and len(psi) != len(pts):
            raise MapError("potential values must align with domain points")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "images", img)
        object.__setattr__(self, "psi", psi)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def evaluate(self, x) -> np.ndarray:
        """Map arbitrary points through node interpolation."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        at_nodes = wrap_signed(self.images - self.points) if self.grid.periodic else self.images
        stack = at_nodes.T.reshape((at_nodes.shape[1],) + (self.grid.n,) * self.grid.dim)
        vals = interp_grid(stack, pts, self.grid)
        return wrap_unit(pts + vals) if self.grid.periodic else vals

    def __call__(self, x) -> np.ndarray:
        return self.evaluate(x)

    def potential_consistency(self) -> float:
        """Max deviation of images from x + centered-difference grad(psi).

        Exact (machine precision) whenever the displacement field is affine;
        interior nodes only on box charts, wrapped stencil on the torus.
        """
        if self.psi is None:
            raise MapError("map carries no potential")
        n, dim = self.grid.n, self.grid.dim
        psi = self.psi.reshape((n,) * dim)
        disp = self.images - self.points
        if self.grid.periodic:
            disp = wrap_signed(disp)
        worst = 0.0
        for a in range(dim):
            h = self.grid.spacing[a]
            if self.grid.periodic:
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

    def to_csv(self, path) -> None:
        dim_in = self.points.shape[1]
        dim_out = self.images.shape[1]
        with open(path, "w", newline="") as fh:
            cols = [f"x{a}" for a in range(dim_in)] + [f"Tx{a}" for a in range(dim_out)]
            if self.psi is not None:
                cols.append("psi")
            fh.write(",".join(cols) + "\n")
            for i in range(len(self.points)):
                row = ([repr(float(v)) for v in self.points[i]]
                       + [repr(float(v)) for v in self.images[i]])
                if self.psi is not None:
                    row.append(repr(float(self.psi[i])))
                fh.write(",".join(row) + "\n")


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


# ---------------------------------------------------------------------------
# exact LP solver
# ---------------------------------------------------------------------------

def _support_potentials(cost: np.ndarray, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dual potentials from u_i + v_j = c_ij on the plan's support forest."""
    m, n = cost.shape
    u = np.full(m, np.nan)
    v = np.full(n, np.nan)
    support = gamma > 1e-12
    rows_of_col = [np.nonzero(support[:, j])[0] for j in range(n)]
    cols_of_row = [np.nonzero(support[i, :])[0] for i in range(m)]
    for start in range(m):
        if not np.isnan(u[start]):
            continue
        u[start] = 0.0
        stack = [("r", start)]
        while stack:
            kind, k = stack.pop()
            if kind == "r":
                for j in cols_of_row[k]:
                    if np.isnan(v[j]):
                        v[j] = cost[k, j] - u[k]
                        stack.append(("c", j))
            else:
                for i in rows_of_col[k]:
                    if np.isnan(u[i]):
                        u[i] = cost[i, k] - v[k]
                        stack.append(("r", i))
    u = np.nan_to_num(u, nan=0.0)
    if np.any(np.isnan(v)):
        # columns with no support mass: tight potential
        for j in range(n):
            if np.isnan(v[j]):
                v[j] = (cost[:, j] - u).min()
    return u, v


def _certify(cost: np.ndarray, gamma: np.ndarray, u: np.ndarray, v: np.ndarray,
             tol: float = DUAL_TOL) -> bool:
    slack = cost - u[:, None] - v[None, :]
    if slack.min() < -tol:
        return False
    on_support = gamma > 1e-12
    if on_support.any() and np.abs(slack[on_support]).max() > tol:
        return False
    return True


def solve_exact(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec) -> TransportPlan:
    """Optimal coupling of two discrete measures by the exact LP.

    Optimality is certified on return: dual feasibility and complementary
    slackness of the potentials must hold within 1e-9 or the solve is
    rejected outright.
    """
    m, n = mu.size, nu.size
    if m > EXACT_SIZE_GUARD or n > EXACT_SIZE_GUARD:
        raise MeasureError(f"support sizes ({m}, {n}) exceed LP guard {EXACT_SIZE_GUARD}")
    c = cost.matrix(mu.points, nu.points)
    var = np.arange(m * n)
    row_idx = np.concatenate([var // n, m + (var % n)])
    col_idx = np.concatenate([var, var])
    a_eq = sparse.coo_matrix(
        (np.ones(2 * m * n), (row_idx, col_idx)), shape=(m + n, m * n)).tocsr()
    b_eq = np.concatenate([mu.weights, nu.weights])
    res = linprog(c.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-9})
    if not res.success:
        raise SolverError(f"LP solver failed: {res.message}")
    gamma = np.clip(res.x.reshape(m, n), 0.0, None)
    value = float(np.sum(gamma * c))
    duals = np.asarray(res.eqlin.marginals, dtype=float)
    candidates = [(duals[:m], duals[m:]), (-duals[:m], -duals[m:]),
                  _support_potentials(c, gamma)]
    u = v = None
    for cand_u, cand_v in candidates:
        if _certify(c, gamma, cand_u, cand_v):
            u, v = cand_u, cand_v
            break
    if u is None:
        raise SolverError("optimality certification failed (dual potentials)")
    plan = TransportPlan(mu, nu, gamma, value, converged=True,
                         marginal_error=float(np.abs(a_eq @ res.x - b_eq).max()),
                         dual_u=u, dual_v=v)
    plan.validate(cost)
    return plan


# ---------------------------------------------------------------------------
# entropic solver (stabilised kernel, epsilon scaling, feasible rounding)
# ---------------------------------------------------------------------------

_CHUNK = 1 << 22
# A potential may move this many epsilons away from the one the kernel was
# built with before the scalings are folded back into the kernel: the
# scaling factors then stay within e^30 of one, far above the underflow
# threshold of the kernel entries that carry the mass.
_ABSORB = 30.0


def _log_weights(w: np.ndarray) -> np.ndarray:
    """log w, with -inf for zero weights."""
    return np.where(w > 0, np.log(np.where(w > 0, w, 1.0)), -np.inf)


class _StabilisedKernel:
    """K = exp((f_bar_i + g_bar_j - C_ij)/eps), with the potentials it was built from.

    Against K, a log-domain Sinkhorn half-step is one matrix-vector product:
    f_i = f_bar_i - eps * log sum_j K_ij exp((g_j - g_bar_j)/eps + log b_j),
    and the same through K.T for g.
    """

    def __init__(self, c: np.ndarray, wa: np.ndarray, wb: np.ndarray):
        self.c = c
        self.k = np.empty_like(c)
        # An entry between a zero-weight row and a zero-weight column always
        # meets an exact zero scaling, and no update bounds its exponent, so
        # it is kept at 0 rather than left to overflow to inf (inf * 0 = NaN).
        self.idle = np.ix_(wa == 0, wb == 0)

    def absorb(self, f: np.ndarray, g: np.ndarray, eps: float) -> None:
        """Fold the potentials f, g into K at regularisation eps, in place."""
        self.f_bar, self.g_bar, self.eps = f, g, eps
        np.add(f[:, None], g[None, :], out=self.k)
        with np.errstate(over="ignore", invalid="ignore"):
            self.k -= self.c
            self.k /= eps
            np.exp(self.k, out=self.k)
        self.k[self.idle] = 0.0

    def iterate(self, g: np.ndarray, la: np.ndarray, lb: np.ndarray):
        """One Sinkhorn iteration, f from g and then g from that f, as (f, g).

        K is absorbed after each half-step that leaves a potential more than
        _ABSORB * eps from the one K holds. None if a kernel sum underflows
        to 0 or is not finite.
        """
        f = self._half_step(self.k, self.f_bar, g, self.g_bar, lb)
        if f is None:
            return None
        self._absorb_if_moved(f, g)
        g = self._half_step(self.k.T, self.g_bar, f, self.f_bar, la)
        if g is None:
            return None
        self._absorb_if_moved(f, g)
        return f, g

    def _half_step(self, kmat, bar, other, other_bar, log_w):
        """bar - eps * log(kmat @ exp((other - other_bar)/eps + log_w)), max-shifted."""
        v = (other - other_bar) / self.eps + log_w
        shift = v.max()
        with np.errstate(invalid="ignore"):
            s = kmat @ np.exp(v - shift)
        if not np.all((s > 0) & np.isfinite(s)):
            return None
        return bar - self.eps * (np.log(s) + shift)

    def _absorb_if_moved(self, f: np.ndarray, g: np.ndarray) -> None:
        moved = max(np.abs(f - self.f_bar).max(), np.abs(g - self.g_bar).max())
        if moved > _ABSORB * self.eps:
            self.absorb(f, g, self.eps)


def _sinkhorn_potentials(c: np.ndarray, wa: np.ndarray, wb: np.ndarray,
                         epsilon: float, max_iter: int, tol: float,
                         warm_iters: int = 25):
    """Stabilised-kernel Sinkhorn with a halving epsilon schedule from 1.0 down.

    The iterates are those of log-domain Sinkhorn (f = -eps lse_j[(g_j -
    C_ij)/eps + log b_j], then g likewise from f), each half-step computed as
    one matrix-vector product with the stabilised kernel
    K = exp((f_bar + g_bar - C)/eps). K is built from the current potentials
    at the start of every epsilon level, and the scalings are absorbed into
    it (K rebuilt from the current potentials) whenever a potential moves
    more than 30 eps from the one K was built with. When a kernel sum
    underflows to 0 or is not finite, K is absorbed and the iteration redone;
    a sum that still fails raises SolverError, so the potentials returned are
    always finite. Entries between zero-weight atoms on both sides stay 0.

    Returns (f, g, converged, err, iterations); the marginal error is the L1
    column violation of the (exactly row-feasible) iterate.
    """
    la, lb = _log_weights(wa), _log_weights(wb)
    levels = [epsilon]
    lvl = 1.0
    while lvl > epsilon:
        levels.append(lvl)
        lvl *= 0.5
    levels = sorted(set(levels), reverse=True)
    kern = _StabilisedKernel(c, wa, wb)
    f = np.zeros(len(wa))
    g = np.zeros(len(wb))
    total_iters = 0
    err = np.inf
    converged = False
    for li, eps in enumerate(levels):
        final = li == len(levels) - 1
        warm_budget = 0 if final else min(warm_iters, max(1, max_iter // (2 * len(levels))))
        kern.absorb(f, g, eps)
        it = 0
        while True:
            step = kern.iterate(g, la, lb)
            if step is None:
                kern.absorb(f, g, eps)
                step = kern.iterate(g, la, lb)
                if step is None:
                    raise SolverError(f"Sinkhorn kernel sum underflowed or is not finite at "
                                      f"epsilon {eps:g}, even after absorption")
            f, g_new = step
            with np.errstate(over="ignore", invalid="ignore"):
                ratio = np.exp((g - g_new) / eps)
            err = float(np.sum(np.abs(wb * np.where(np.isfinite(ratio), ratio, 1.0) - wb)))
            g = g_new
            it += 1
            total_iters += 1
            if final and err <= tol:
                converged = True
                break
            if final and total_iters >= max_iter:
                break
            if not final and it >= warm_budget:
                break
        if final:
            break
    return f, g, converged, err, total_iters


def _round_to_feasible(gamma: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> None:
    """Scale rows then columns down, then restore mass with a rank-one patch, in place."""
    r = gamma.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(r > 0, np.minimum(wa / np.where(r > 0, r, 1.0), 1.0), 0.0)
    gamma *= s[:, None]
    cmarg = gamma.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(cmarg > 0, np.minimum(wb / np.where(cmarg > 0, cmarg, 1.0), 1.0), 0.0)
    gamma *= t[None, :]
    er = wa - gamma.sum(axis=1)
    ec = wb - gamma.sum(axis=0)
    mass = er.sum()
    if mass > 0:
        block = max(1, _CHUNK // max(1, gamma.shape[1]))
        for i0 in range(0, gamma.shape[0], block):
            gamma[i0:i0 + block] += np.outer(er[i0:i0 + block], ec) / mass


def solve_sinkhorn(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec,
                   epsilon: float, max_iter: int = 5000, tol: float = 1e-9,
                   warm_iters: int = 25) -> TransportPlan:
    """Entropic coupling, rounded to an exactly feasible plan.

    The rounded plan satisfies both marginals to machine precision, so its
    cost never falls below the LP optimum. A run that exhausts max_iter is
    returned with converged=False and its residual marginal error.
    """
    if epsilon <= 0:
        raise SolverError("epsilon must be > 0")
    c = cost.matrix(mu.points, nu.points)
    f, g, converged, err, _ = _sinkhorn_potentials(c, mu.weights, nu.weights,
                                                   epsilon, max_iter, tol,
                                                   warm_iters=warm_iters)
    la, lb = _log_weights(mu.weights), _log_weights(nu.weights)
    gamma = np.add(f[:, None], g[None, :])
    gamma -= c
    gamma /= epsilon
    gamma += la[:, None]
    gamma += lb[None, :]
    np.exp(gamma, out=gamma)
    _round_to_feasible(gamma, mu.weights, nu.weights)
    c *= gamma  # c is not used again: its products with gamma give the cost
    value = float(np.sum(c))
    plan = TransportPlan(mu, nu, gamma, value, converged=converged,
                         marginal_error=err)
    return plan


# ---------------------------------------------------------------------------
# one-dimensional monotone (quantile) maps
# ---------------------------------------------------------------------------

def _grid_cdf_at_nodes(rho: GridDensity) -> np.ndarray:
    masses = rho.values / rho.n
    cum = np.concatenate([[0.0], np.cumsum(masses)])
    return cum[:-1] + 0.5 * masses


def _grid_quantile(rho: GridDensity, q: np.ndarray) -> np.ndarray:
    """Exact piecewise-linear inverse CDF of a 1D grid density."""
    n = rho.n
    masses = rho.values / n
    cum = np.concatenate([[0.0], np.cumsum(masses)])
    cum[-1] = 1.0
    q = np.clip(np.asarray(q, dtype=float), 0.0, 1.0)
    idx = np.clip(np.searchsorted(cum, q, side="left") - 1, 0, n - 1)
    # zero-mass cells: snap to the right edge of the preceding mass
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(masses[idx] > 0, (q - cum[idx]) / masses[idx], 0.0)
    return (idx + np.clip(frac, 0.0, 1.0)) / n


def _quantile_of(nu, q: np.ndarray, periodic: bool) -> np.ndarray:
    """Quantile of a 1D target at levels q in [0, 1]: piecewise linear for a grid
    density, the step quantile of its atoms (wrapped on the circle) otherwise."""
    if isinstance(nu, GridDensity):
        return _grid_quantile(nu, q)
    x, w = atoms_1d(nu, 1, periodic)
    return step_quantile(x, np.cumsum(w), q)


def monotone_map_1d(mu, nu, periodic: bool = False) -> TransportMap:
    """Monotone rearrangement T = F_nu^{-1} o F_mu sampled at grid nodes.

    The source must be absolutely continuous (a grid density): an atomic
    source generally admits no deterministic coupling (Dirac counterexample).
    On the circle, level t of mu goes with level t - theta of nu, with theta
    from `measures.circle_rotation` (the one rotation search, shared with
    `wasserstein_1d`) at p = 2, on atoms at 8 subcells per grid cell.
    """
    if not isinstance(mu, GridDensity):
        raise MapError("monotone map requires an absolutely continuous (grid) source; "
                       "atomic sources admit no deterministic coupling in general")
    if mu.dim != 1 or nu.dim != 1:
        raise MapError("monotone_map_1d requires one-dimensional measures")
    nodes = mu.nodes()
    q = _grid_cdf_at_nodes(mu)
    if not periodic:
        images = _quantile_of(nu, q, periodic)[:, None]
        gspec = GridSpec(1, mu.n, periodic=False)
        psi = _integrate_potential(images - nodes, gspec) if isinstance(nu, GridDensity) else None
        return TransportMap(nodes, images, psi=psi, route="monotone", grid=gspec)
    theta = circle_rotation(*atoms_1d(mu, 8, True), *atoms_1d(nu, 8, True), p=2.0)
    images = wrap_unit(_quantile_of(nu, wrap_unit(q - theta), periodic))
    return TransportMap(nodes, images[:, None], route="monotone", grid=mu.grid)


# ---------------------------------------------------------------------------
# Brenier maps from entropic dual potentials
# ---------------------------------------------------------------------------

def _integrate_potential(disp: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Trapezoid path integration of a displacement field (axis 0, then 1)."""
    n, dim = grid.n, grid.dim
    h = grid.spacing
    if dim == 1:
        d = disp[:, 0]
        return np.concatenate([[0.0], np.cumsum(0.5 * (d[:-1] + d[1:]) * h[0])])
    dx = disp[:, 0].reshape(n, n)
    dy = disp[:, 1].reshape(n, n)
    psi = np.zeros((n, n))
    psi[1:, 0] = np.cumsum(0.5 * (dx[:-1, 0] + dx[1:, 0]) * h[0])
    psi[:, 1:] = psi[:, [0]] + np.cumsum(0.5 * (dy[:, :-1] + dy[:, 1:]) * h[1], axis=1)
    return psi.ravel()


def brenier_map(mu: GridDensity, nu, reg_epsilon: float) -> TransportMap:
    """Quadratic-cost optimal map on a box chart via the entropic dual.

    The images are the analytic gradient of the convex log-partition
    potential (the conditional mean of the entropic plan), so the map is
    cyclically monotone to machine precision. The scalar potential psi with
    T(x) = x + grad psi(x) is recovered by path integration of T - id.
    """
    if not isinstance(mu, GridDensity):
        raise MapError("brenier_map requires an absolutely continuous (grid) source")
    if reg_epsilon <= 0:
        raise SolverError("reg_epsilon must be > 0")
    src = mu.as_discrete()
    tgt = nu.as_discrete()
    cost = CostSpec("sqdist", periodic=False)
    c = 0.5 * cost.matrix(src.points, tgt.points)
    _, g, converged, err, iters = _sinkhorn_potentials(c, src.weights, tgt.weights,
                                                       reg_epsilon, max_iter=4000, tol=1e-10)
    if not converged:
        raise SolverError(f"Brenier Sinkhorn solve did not converge in {iters} iterations "
                          f"(marginal error {err:.3e} > 1e-10)")
    y = tgt.points
    lb = _log_weights(tgt.weights)
    affine = (g - 0.5 * np.sum(y * y, axis=1) + reg_epsilon * lb) / reg_epsilon
    nodes = mu.nodes()
    images = np.empty((len(nodes), y.shape[1]))
    block = max(1, _CHUNK // max(1, len(y)))
    for i0 in range(0, len(nodes), block):
        logits = nodes[i0:i0 + block] @ y.T / reg_epsilon + affine[None, :]
        logits -= logits.max(axis=1, keepdims=True)
        w = np.exp(logits)
        w /= w.sum(axis=1, keepdims=True)
        images[i0:i0 + block] = w @ y
    gspec = GridSpec(mu.dim, mu.n, periodic=False)
    psi = _integrate_potential(images - nodes, gspec)
    return TransportMap(nodes, images, psi=psi, route="brenier", grid=gspec)


# ---------------------------------------------------------------------------
# Legendre duality and map inversion
# ---------------------------------------------------------------------------

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
    block = max(1, _CHUNK // max(1, len(nodes)))
    for j0 in range(0, len(y), block):
        scores = y[j0:j0 + block] @ nodes.T - vals[None, :]
        best = scores.argmax(axis=1)
        images[j0:j0 + block] = nodes[best]
        conj[j0:j0 + block] = scores[np.arange(len(best)), best]
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
# stability experiment and monotonicity check
# ---------------------------------------------------------------------------

def _monge_map(mu: GridDensity, nu, cost: CostSpec) -> TransportMap:
    if mu.dim == 1:
        return monotone_map_1d(mu, nu, periodic=cost.periodic)
    return brenier_map(mu, nu, BRENIER_EPSILON)


def stability_experiment(mu: GridDensity, nu_seq, nu_limit, eps: float,
                         cost: CostSpec = CostSpec("sqdist")) -> list[float]:
    """mu-mass of {x : d(T_k(x), T(x)) >= eps} for each target in the sequence.

    T_k and T are the Monge maps from mu to nu_k and to the limit target,
    evaluated at grid nodes (the quantity of the convergence-in-probability
    statement for optimal maps under weak convergence of targets).
    """
    if eps <= 0:
        raise MapError("eps must be > 0")
    t_lim = _monge_map(mu, nu_limit, cost)
    masses = mu.cell_masses()
    out = []
    for nu_k in nu_seq:
        t_k = _monge_map(mu, nu_k, cost)
        delta = t_k.images - t_lim.images
        if cost.periodic:
            delta = wrap_signed(delta)
        dev = np.sqrt(np.sum(delta * delta, axis=1))
        out.append(float(masses[dev >= eps].sum()))
    return out


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
