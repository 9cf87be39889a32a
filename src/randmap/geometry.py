"""Flat-space, torus and sphere geometry shared across the package.

Grid quantities live on the flat torus [0,1)^d (cell-centered nodes),
bounded-box charts use the same cell-centered layout without wrapping.
One stencil serves both linear interpolation and the linear deposit.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


def wrap_unit(x: np.ndarray | float) -> np.ndarray:
    """Map coordinates into the fundamental domain [0, 1)."""
    y = np.mod(x, 1.0)
    # np.mod rounds inputs in about (-5.6e-17, 0) up to exactly 1.0
    return np.where(y == 1.0, 0.0, y)


def wrap_signed(x: np.ndarray | float) -> np.ndarray:
    """Wrap displacements to the nearest lift in [-0.5, 0.5)."""
    return np.mod(np.asarray(x, dtype=float) + 0.5, 1.0) - 0.5


def sphere_xyz(angles: np.ndarray) -> np.ndarray:
    """Unit-sphere points given as (colatitude, longitude) rows, embedded in R^3."""
    angles = np.atleast_2d(np.asarray(angles, dtype=float))
    theta, phi = angles[:, 0], angles[:, 1]
    return np.column_stack([np.sin(theta) * np.cos(phi),
                            np.sin(theta) * np.sin(phi),
                            np.cos(theta)])


def pairwise_distance(x: np.ndarray, y: np.ndarray, periodic: bool = False) -> np.ndarray:
    """(n, m) matrix of distances between point clouds x (n,d) and y (m,d).

    periodic selects the torus quotient metric: per-axis deltas are wrapped
    to the nearest lift before the Euclidean norm.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    delta = x[:, None, :] - y[None, :, :]
    if periodic:
        delta = wrap_signed(delta)
    return np.sqrt(np.sum(delta * delta, axis=-1))


@dataclass(frozen=True)
class CostSpec:
    """Cost-function descriptor for coupling solvers.

    kind: "sqdist" for d(x,y)^2, "dist_p" for d(x,y)^p, "negdot" for -x.y.
    periodic selects the torus quotient metric for the distance-based kinds.
    """

    kind: str = "sqdist"
    p: float = 2.0
    periodic: bool = False

    def __post_init__(self):
        if self.kind not in ("sqdist", "dist_p", "negdot"):
            raise ValueError(f"unknown cost kind {self.kind!r}")
        if self.kind == "dist_p" and self.p < 1:
            raise ValueError("cost exponent p must be >= 1")

    def matrix(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if self.kind == "negdot":
            return -(x @ y.T)
        d = pairwise_distance(x, y, periodic=self.periodic)
        if self.kind == "sqdist":
            return d * d
        return d ** self.p


@dataclass(frozen=True)
class GridSpec:
    """Cell-centered uniform grid over a box or torus chart.

    Node i along an axis sits at lo + (i + 1/2) * (hi - lo) / n. Torus grids
    have dim 1 or 2, box grids dim 1 to 3.
    """

    dim: int
    n: int
    bounds: tuple[tuple[float, float], ...] = (((0.0, 1.0)),)
    periodic: bool = True

    def __post_init__(self):
        if self.dim not in ((1, 2) if self.periodic else (1, 2, 3)):
            kind = "torus" if self.periodic else "box"
            raise ValueError(f"{kind} grid dim {self.dim} is not supported")
        bounds = tuple(tuple(map(float, b)) for b in self.bounds)
        if len(bounds) == 1:
            bounds = bounds * self.dim
        if len(bounds) != self.dim:
            raise ValueError("bounds must give one (lo, hi) pair per axis")
        object.__setattr__(self, "bounds", bounds)

    @property
    def spacing(self) -> np.ndarray:
        return np.array([(hi - lo) / self.n for lo, hi in self.bounds])

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_nodes(self, axis: int) -> np.ndarray:
        lo, hi = self.bounds[axis]
        h = (hi - lo) / self.n
        return lo + (np.arange(self.n) + 0.5) * h

    def nodes(self) -> np.ndarray:
        """All node coordinates, row-major, shape (n^dim, dim)."""
        axes = [self.axis_nodes(a) for a in range(self.dim)]
        return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def unit_torus_grid(dim: int, n: int) -> GridSpec:
    return GridSpec(dim=dim, n=n, bounds=((0.0, 1.0),) * dim, periodic=True)


def _stencil(points: np.ndarray, grid: GridSpec) -> list[tuple[tuple, list]]:
    """The 2^dim cell corners around each point, with per-axis linear weights.

    Returns (index tuple, weight factors) per corner, axis 0 varying fastest.
    Periodic grids wrap across the seam; box grids clamp to the edge cells.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = grid.n
    idx, wts = [], []
    for a in range(grid.dim):
        lo, hi = grid.bounds[a]
        f = (pts[:, a] - lo) / (hi - lo) * n - 0.5
        if grid.periodic:
            i0 = np.floor(f).astype(int)
            w = f - i0
            i0 = np.mod(i0, n)
            i1 = np.mod(i0 + 1, n)
        else:
            f = np.clip(f, 0.0, n - 1.0)
            i0 = np.minimum(np.floor(f).astype(int), n - 2) if n > 1 else np.zeros(len(f), int)
            w = f - i0
            i1 = np.minimum(i0 + 1, n - 1)
        idx.append((i0, i1))
        wts.append((1 - w, w))
    corners = []
    for bits in itertools.product((0, 1), repeat=grid.dim):
        bits = bits[::-1]
        corners.append((tuple(idx[a][b] for a, b in enumerate(bits)),
                        [wts[a][b] for a, b in enumerate(bits)]))
    return corners


def interp_grid(values: np.ndarray, points: np.ndarray, grid: GridSpec) -> np.ndarray:
    """(Multi)linear interpolation of node values at arbitrary points.

    values has shape (n,)*dim, or (k,) + (n,)*dim for a stack of k fields
    that share one stencil and one gather; points (m, dim). Returns (m,) for
    one field and (m, k) for a stack.
    """
    values = np.asarray(values, dtype=float)
    out = None
    for index, factors in _stencil(points, grid):
        weight = factors[0]
        for f in factors[1:]:
            weight = weight * f
        term = weight * values[(Ellipsis,) + index]
        out = term if out is None else out + term
    # points first and C-ordered, as a column_stack of one call per field
    return np.ascontiguousarray(out.T)


def deposit_linear(points: np.ndarray, weights: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Linear (cloud-in-cell) deposit of weighted particles onto a grid.

    It shares interp_grid's stencil, so it is that interpolation's exact
    adjoint: sum_i w_i interp(v, x_i) = sum over cells of v * deposit(x, w).
    """
    out = np.zeros((grid.n,) * grid.dim)
    for index, factors in _stencil(points, grid):
        mass = np.asarray(weights, dtype=float)
        for f in factors:
            mass = mass * f
        np.add.at(out, index, mass)
    return out


def deposit_grid(points: np.ndarray, weights: np.ndarray, n: int, dim: int) -> np.ndarray:
    """Histogram deposit of weighted particles onto the unit torus grid.

    Nearest-cell binning keeps cell permutations (identity, rigid shifts by
    whole cells) exact; accuracy for smooth maps comes from the particle
    count, not the deposit stencil.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    w = np.asarray(weights, dtype=float)
    out = np.zeros((n,) * dim)
    idx = [np.minimum((wrap_unit(pts[:, a]) * n).astype(int), n - 1) for a in range(dim)]
    np.add.at(out, tuple(idx), w)
    return out
