"""Measure representations, moments, pushforwards, and Wasserstein distances.

Two concrete representations are supported: weighted point clouds in R^d
(`DiscreteMeasure`) and periodic densities on the flat torus [0,1)^dim
(`GridDensity`, stored relative to the normalized volume, mean 1).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import (
    CostSpec,
    deposit_grid,
    pairwise_distance,
    unit_torus_grid,
    wrap_unit,
)

WEIGHT_TOL = 1e-12
MEAN_TOL = 1e-10
MERGE_TOL = 1e-12
EXACT_SIZE_GUARD = 4096


class MeasureError(ValueError):
    """Invalid measure data or unsupported operation on a measure."""


def parse_float(token: str, path, line: int) -> float:
    """One input-file token as a float; MeasureError naming the file and line."""
    try:
        return float(token)
    except ValueError as exc:
        raise MeasureError(f"{path}, line {line}: {exc}") from None


def read_atom_rows(path) -> tuple[list[str], np.ndarray]:
    """Header and values of an atom CSV, one number per header field in each row.

    MeasureError names the file and line of a bad row; callers check the header.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise MeasureError(f"{path}: empty measure file")
    header = [c.strip() for c in rows[0]]
    data = []
    for line, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise MeasureError(f"{path}, line {line}: expected {len(header)} values, "
                               f"got {len(row)}")
        data.append([parse_float(v, path, line) for v in row])
    return header, np.array(data, dtype=float).reshape(-1, len(header))


def write_atom_rows(path, header: list[str], mu: DiscreteMeasure) -> None:
    """Write the header, then one row of coordinates and weight per atom."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for p, w in zip(mu.points, mu.weights):
            writer.writerow([repr(float(v)) for v in p] + [repr(float(w))])


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted point cloud in R^d, d in {1,2,3}; weights sum to one."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] not in (1, 2, 3):
            raise MeasureError(f"points must be (N, d) with d in 1..3, got {pts.shape}")
        w = np.asarray(self.weights, dtype=float).ravel()
        if len(w) != len(pts) or len(w) == 0:
            raise MeasureError("points and weights must have equal length >= 1")
        if np.any(w < 0):
            raise MeasureError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise MeasureError(f"weights must sum to 1 within {WEIGHT_TOL}, got {w.sum()!r}")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(w))):
            raise MeasureError("points and weights must be finite")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return len(self.weights)

    @classmethod
    def dirac(cls, point) -> "DiscreteMeasure":
        return cls(np.atleast_2d(np.asarray(point, dtype=float)), np.array([1.0]))

    def merged(self, tol: float = MERGE_TOL) -> "DiscreteMeasure":
        """Merge atoms whose coordinates agree within tol (sums their weights)."""
        key = np.round(self.points / tol).astype(np.int64)
        uniq, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
        w = np.zeros(len(uniq))
        np.add.at(w, inverse.ravel(), self.weights)
        pts = self.points[first]
        return DiscreteMeasure(pts, w / w.sum())

    def as_discrete(self, subdiv: int = 1) -> "DiscreteMeasure":
        """The measure itself: it is already atomic at every resolution."""
        return self

    def to_csv(self, path) -> None:
        write_atom_rows(path, [f"x{i}" for i in range(self.dim)] + ["w"], self)

    @classmethod
    def from_csv(cls, path) -> "DiscreteMeasure":
        header, data = read_atom_rows(path)
        if header[-1] != "w" or not header[0].startswith("x"):
            raise MeasureError(f"{path}: expected header 'x0[,x1[,x2]],w'")
        return cls(data[:, :-1], data[:, -1])


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative density on the flat torus [0,1)^dim w.r.t. normalized volume.

    n cells per axis (power of two, >= 8); values are stored row-major with
    mean exactly 1 within 1e-10 so that the density integrates to one.
    """

    dim: int
    n: int
    values: np.ndarray

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise MeasureError("grid dim must be 1 or 2")
        n = int(self.n)
        if n < 8 or (n & (n - 1)) != 0:
            raise MeasureError(f"n must be a power of two >= 8, got {n}")
        vals = np.asarray(self.values, dtype=float).reshape((n,) * self.dim)
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            raise MeasureError("density values must be finite and nonnegative")
        if abs(vals.mean() - 1.0) > MEAN_TOL:
            raise MeasureError(f"density mean must be 1 within {MEAN_TOL}, got {vals.mean()!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", vals)
        self.values.setflags(write=False)

    @classmethod
    def uniform(cls, dim: int, n: int) -> "GridDensity":
        return cls(dim, n, np.ones((n,) * dim))

    @cached_property
    def grid(self):
        return unit_torus_grid(self.dim, self.n)

    @property
    def min_value(self) -> float:
        return float(self.values.min())

    def is_positive(self, kappa: float) -> bool:
        """Positive-density flag: min value >= kappa > 0."""
        if kappa <= 0:
            raise MeasureError("positivity threshold kappa must be > 0")
        return self.min_value >= kappa

    def nodes(self) -> np.ndarray:
        return self.grid.nodes()

    def cell_masses(self) -> np.ndarray:
        return self.values.ravel() / self.n ** self.dim

    def as_discrete(self, subdiv: int = 1) -> DiscreteMeasure:
        """Midpoint quadrature: one atom per (sub)cell carrying the cell mass.

        (Sub)cells of zero mass get no atom, in every dimension.
        """
        m = self.n * subdiv
        x = (np.arange(m) + 0.5) / m
        axes = np.meshgrid(*(x,) * self.dim, indexing="ij")
        cells = tuple(np.minimum((a * self.n).astype(int), self.n - 1) for a in axes)
        w = (self.values[cells] / m ** self.dim).ravel()
        keep = w > 0
        pts = np.column_stack([a.ravel() for a in axes])[keep]
        return DiscreteMeasure(pts, w[keep] / w[keep].sum())

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("dim,n\n")
            fh.write(f"{self.dim},{self.n}\n")
            for v in self.values.ravel():
                fh.write(repr(float(v)) + "\n")

    @classmethod
    def from_csv(cls, path) -> "GridDensity":
        with open(path) as fh:
            lines = [(no, ln.strip()) for no, ln in enumerate(fh, start=1) if ln.strip()]
        if not lines:
            raise MeasureError(f"{path}: empty density file")
        start = 1 if lines[0][1].replace(" ", "") == "dim,n" else 0
        try:
            dim, n = (int(tok) for tok in lines[start][1].split(","))
        except Exception as exc:
            raise MeasureError(f"{path}: expected 'dim,n' metadata line") from exc
        vals = np.array([parse_float(ln, path, no) for no, ln in lines[start + 1:]])
        if len(vals) != n ** dim:
            raise MeasureError(f"{path}: expected {n ** dim} values, got {len(vals)}")
        return cls(dim, n, vals.reshape((n,) * dim))


@dataclass(frozen=True)
class EmpiricalSample:
    """Seed-reproducible batch of draws from some source measure."""

    draws: np.ndarray
    seed: int

    def __post_init__(self):
        d = np.atleast_2d(np.asarray(self.draws, dtype=float))
        if len(d) < 1:
            raise MeasureError("sample must contain at least one draw")
        object.__setattr__(self, "draws", d)
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def size(self) -> int:
        return len(self.draws)


def draw_sample(mu: DiscreteMeasure | GridDensity, n_draws: int, seed: int) -> EmpiricalSample:
    """Draw n_draws i.i.d. points from mu, reproducibly from the seed.

    Grid densities are sampled exactly: pick a cell by its mass, then a
    uniform point inside the cell.
    """
    if n_draws < 1:
        raise MeasureError("n_draws must be >= 1")
    rng = np.random.default_rng(seed)
    if isinstance(mu, DiscreteMeasure):
        idx = rng.choice(mu.size, size=n_draws, p=mu.weights / mu.weights.sum())
        return EmpiricalSample(mu.points[idx], seed)
    masses = mu.cell_masses()
    idx = rng.choice(len(masses), size=n_draws, p=masses / masses.sum())
    offs = rng.random((n_draws, mu.dim)) / mu.n
    corners = np.column_stack(np.unravel_index(idx, (mu.n,) * mu.dim)) / mu.n
    return EmpiricalSample(corners + offs, seed)


def empirical_measure(sample: EmpiricalSample) -> DiscreteMeasure:
    """Atoms at the draws, weight 1/N each; coincident draws merge."""
    n = sample.size
    return DiscreteMeasure(sample.draws, np.full(n, 1.0 / n)).merged()


def _base_point(base, dim: int) -> np.ndarray:
    b = np.asarray(base, dtype=float).ravel()
    if len(b) != dim:
        raise MeasureError(f"base point dimension {len(b)} != measure dimension {dim}")
    return b


def p_moment(mu: DiscreteMeasure | GridDensity, p: float, base) -> float:
    """p-th moment around `base`: integral of d(base, x)^p dmu(x).

    Discrete measures use exact summation with the Euclidean metric; grid
    densities use midpoint quadrature with the torus quotient metric.
    """
    if p < 1:
        raise MeasureError("moment order p must be >= 1")
    b = _base_point(base, mu.dim)
    if isinstance(mu, DiscreteMeasure):
        d = pairwise_distance(mu.points, b[None, :])[:, 0]
        return float(np.sum(mu.weights * d ** p))
    d = pairwise_distance(mu.nodes(), b[None, :], periodic=True)[:, 0]
    return float(np.sum(mu.cell_masses() * d ** p))


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
    return DiscreteMeasure(np.vstack(images), mu.weights).merged()


def grid_pushforward(T, rho: GridDensity) -> GridDensity:
    """Particle estimate of T_* rho on rho's own grid.

    Sixteen particles per cell are seeded at subcell centers (exact
    quadrature of the piecewise-constant density), transported through the
    map's node interpolation, and deposited back by nearest-cell binning
    (`deposit_grid`), which keeps whole-cell shifts exact.
    """
    n, dim = rho.n, rho.dim
    atoms = rho.as_discrete(subdiv=16 if dim == 1 else 4)
    images = np.atleast_2d(np.asarray(T(atoms.points), dtype=float))
    hist = deposit_grid(images, atoms.weights, n, dim)
    total = hist.sum()
    if total <= 0:
        raise MeasureError("pushforward produced an empty histogram")
    return GridDensity(dim, n, hist / total * n ** dim)


# ---------------------------------------------------------------------------
# one-dimensional Wasserstein distances (quantile coupling)
# ---------------------------------------------------------------------------

def atoms_1d(mu: DiscreteMeasure | GridDensity, subdiv: int, periodic: bool):
    """Atom positions (wrapped to [0, 1) on the circle) in sorted order, with weights."""
    if mu.dim != 1:
        raise MeasureError("wasserstein_1d requires one-dimensional measures")
    dm = mu.as_discrete(subdiv=subdiv)
    x = wrap_unit(dm.points[:, 0]) if periodic else dm.points[:, 0]
    order = np.argsort(x, kind="stable")
    return x[order], dm.weights[order]


def step_quantile(x: np.ndarray, cum: np.ndarray, q) -> np.ndarray:
    """Quantile of sorted atoms x with cumulative weights cum at levels q in [0, 1].

    Level q goes to the first atom whose cumulative weight reaches q; levels
    above a total rounded below 1 go to the last atom.
    """
    return x[np.minimum(np.searchsorted(cum, q), len(x) - 1)]


def _quantile_cost(xu, wu, xv, wv, p: float, theta: float = 0.0) -> float:
    """Cost of pairing level t of mu with level t - theta of nu (atoms sorted).

    nu's quantile is unrolled by Q(s + 1) = Q(s) + 1 for the circle; at
    theta = 0 this is the exact quantile coupling on the line.
    """
    cu, cv = np.cumsum(wu), np.cumsum(wv)
    # level segments between the breaks of both step quantiles
    t = np.sort(np.concatenate([[0.0, 1.0], cu[:-1], wrap_unit(cv + theta)]))
    mid = 0.5 * (t[:-1] + t[1:])
    k = np.floor(mid - theta)
    qu = step_quantile(xu, cu, mid)
    qv = step_quantile(xv, cv, mid - theta - k) + k
    return float(np.sum(np.diff(t) * np.abs(qu - qv) ** p))


def _circle_w1(xu, wu, xv, wv) -> float:
    """Exact W1 on the circle (atoms in [0, 1)): min_t integral |F_mu - F_nu - t| dx."""
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


def _golden_section_argmin(f, lo: float, hi: float) -> float:
    """Minimiser of a convex function on [lo, hi] by 80 golden-section steps.

    Rounding noise in f can misplace the result only where f is that flat.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1 = f(x1)
    f2 = f(x2)
    for _ in range(80):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
    return 0.5 * (lo + hi)


def circle_rotation(xu, wu, xv, wv, p: float) -> float:
    """Level shift theta of the optimal order-p circle coupling (atoms from atoms_1d).

    Level t of mu goes with level t - theta of nu, nu's quantile unrolled by
    Q(s + 1) = Q(s) + 1 (Delon, Salomon & Sobolevski 2010). The cost is
    convex in theta, and at the optimum no displacement exceeds 1/2, so a
    golden-section search over (-1.5, 1.5) finds it.
    """
    return _golden_section_argmin(lambda th: _quantile_cost(xu, wu, xv, wv, p, th), -1.5, 1.5)


def wasserstein_1d(mu, nu, p: float = 1.0, periodic: bool = False,
                   grid_subdiv: int = 1) -> float:
    """Exact order-p Wasserstein distance between 1D measures.

    On the line this is the quantile-function coupling. On the circle it is
    the quantile coupling rotated by the best level shift: the weighted-median
    formula for p=1, `circle_rotation` otherwise (the one rotation search,
    shared with `transport.monotone_map_1d`). Grid densities enter through
    midpoint quadrature at subcell resolution `grid_subdiv`.
    """
    if p < 1:
        raise MeasureError("order p must be >= 1")
    xu, wu = atoms_1d(mu, grid_subdiv, periodic)
    xv, wv = atoms_1d(nu, grid_subdiv, periodic)
    if not periodic:
        return _quantile_cost(xu, wu, xv, wv, p) ** (1.0 / p)
    if p == 1.0:
        return _circle_w1(xu, wu, xv, wv)
    theta = circle_rotation(xu, wu, xv, wv, p)
    return _quantile_cost(xu, wu, xv, wv, p, theta) ** (1.0 / p)


def wasserstein_exact(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float = 1.0,
                      periodic: bool = False) -> float:
    """Order-p Wasserstein distance via the exact coupling LP (cost d^p)."""
    from . import transport

    if not isinstance(mu, DiscreteMeasure) or not isinstance(nu, DiscreteMeasure):
        raise MeasureError("wasserstein_exact operates on discrete measures")
    plan = transport.solve_exact(mu, nu, CostSpec("dist_p", p=p, periodic=periodic))
    return float(max(plan.cost, 0.0) ** (1.0 / p))


def wasserstein_sinkhorn_upper(mu, nu, p: float = 1.0, periodic: bool = False,
                               epsilon: float = 4e-3, max_iter: int = 200,
                               tol: float = 1e-4) -> float:
    """Certified upper bound on W_p from a rounded entropic plan.

    The rounded plan is feasible, so its cost can only exceed the optimum;
    useful where the exact LP is out of reach (e.g. 2D grid densities).
    Loose convergence settings only slacken the bound, never invalidate it.
    """
    from . import transport

    plan = transport.solve_sinkhorn(mu.as_discrete(), nu.as_discrete(),
                                    CostSpec("dist_p", p=p, periodic=periodic),
                                    epsilon=epsilon, max_iter=max_iter, tol=tol,
                                    warm_iters=8)
    return float(max(plan.cost, 0.0) ** (1.0 / p))
