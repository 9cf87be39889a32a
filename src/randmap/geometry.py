"""Flat-space, torus and sphere geometry shared across the package.

Grid quantities live on the flat torus [0,1)^d (cell-centered nodes),
bounded-box charts use the same cell-centered layout without wrapping.
`interp_grid` is the one (multi)linear interpolation; `deposit_grid` bins
particles to their nearest cell.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Entries per block of every blocked pass over a stored (n, m) array
# (`_blocks`, cut into whole rows or columns by `_row_blocks`): the distance
# matrix here, and transport's kernel fill and plan rounding. Small enough
# that a pass adds no (n, m) temporary.
BLOCK_ENTRIES = 1 << 16


def _row_blocks(rows: int, cols: int) -> list[slice]:
    """Slices that cut rows of cols entries each into blocks of whole rows,
    at most BLOCK_ENTRIES entries (and at least one row) per block."""
    step = max(1, BLOCK_ENTRIES // max(1, cols))
    return [slice(i, i + step) for i in range(0, rows, step)]


def _blocks(a: np.ndarray) -> list[tuple[slice, slice]]:
    """(rows, cols) index pairs that cut a into blocks of at most
    BLOCK_ENTRIES entries along its contiguous axis: blocks of whole rows
    when a is C-contiguous, of whole columns otherwise."""
    if a.flags.c_contiguous:
        return [(rows, slice(None)) for rows in _row_blocks(*a.shape)]
    return [(slice(None), cols) for cols in _row_blocks(a.shape[1], a.shape[0])]


def wrap_unit(x: np.ndarray | float) -> np.ndarray:
    """Map coordinates into the fundamental domain [0, 1).

    x - floor(x) is np.mod(x, 1.0) bit for bit: both round the same real
    number once (np.mod adds 1 to the exact fmod remainder of a negative x).
    """
    x = np.asarray(x, dtype=float)
    y = x - np.floor(x)
    # x - floor(x) rounds inputs in about (-5.6e-17, 0) up to exactly 1.0
    return np.where(y == 1.0, 0.0, y)


def wrap_signed(x: np.ndarray | float) -> np.ndarray:
    """Wrap displacements to the nearest lift in [-0.5, 0.5).

    x - rint(x) is exact for every finite x, since rint(x) is an integer
    within 1/2 of x; it reaches +0.5 only at a half-integer that rint
    rounds down to even, and that is sent to -0.5.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(x - np.rint(x))
    t[t == 0.5] = -0.5
    return t


def sphere_xyz(angles: np.ndarray) -> np.ndarray:
    """Unit-sphere points given as (colatitude, longitude) rows, embedded in R^3."""
    angles = np.atleast_2d(np.asarray(angles, dtype=float))
    theta, phi = angles[:, 0], angles[:, 1]
    return np.column_stack([np.sin(theta) * np.cos(phi),
                            np.sin(theta) * np.sin(phi),
                            np.cos(theta)])


def sphere_distance(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Great-circle distance between embedded unit vectors, broadcast over rows.

    The atan2(|p x q|, p.q) form keeps full relative precision at small
    separations, where arccos(p.q) rounds them to zero.
    """
    return np.arctan2(np.linalg.norm(np.cross(p, q), axis=-1), np.sum(p * q, axis=-1))


def pairwise_distance(x: np.ndarray, y: np.ndarray, periodic: bool = False) -> np.ndarray:
    """(n, m) matrix of distances between point clouds x (n,d) and y (m,d).

    periodic selects the torus quotient metric: per-axis deltas are wrapped
    to the nearest lift before the Euclidean norm. In one dimension the
    distance is |delta| itself, which is sqrt(delta^2) bit for bit wherever
    delta^2 neither underflows nor overflows, and exact where it does. In
    more dimensions the squared deltas are summed axis by axis into one
    (n, m) array, in the order a sum over a (n, m, d) array of deltas would
    add them, so no (n, m, d) array is built; distances below about 1.5e-154
    then read 0 and those above about 1.3e154 read inf (np.hypot would scale
    them, at about three times the cost). The result has its longer axis
    contiguous (Fortran order when n > m), and is filled in blocks along it
    (`_blocks`): axis 0's delta is written into the block of the result
    itself, and each further axis goes through one block-sized buffer, so
    the call holds the (n, m) result and no other (n, m) array.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    dim = x.shape[1]
    out = np.zeros((len(x), len(y)), order="F" if len(x) > len(y) else "C")
    blocks = _blocks(out)
    buf = np.empty_like(out[blocks[0]]) if dim > 1 and blocks else None
    for rows, cols in blocks:
        acc = out[rows, cols]
        for a in range(dim):
            delta = buf[:acc.shape[0], :acc.shape[1]] if a else acc
            np.subtract.outer(x[rows, a], y[cols, a], out=delta)
            if periodic:  # wrap_signed, but +0.5 may stay: |delta| is the same
                delta -= np.rint(delta)
            if dim == 1:
                np.abs(delta, out=delta)
            else:
                delta *= delta
                if a:
                    acc += delta
    return out if dim == 1 else np.sqrt(out, out=out)


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
        if not np.isfinite(self.p):
            raise ValueError(f"cost exponent p must be finite, got {self.p!r}")
        if self.kind == "dist_p" and self.p < 1:
            raise ValueError("cost exponent p must be >= 1")

    def matrix(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The (n, m) cost matrix; C-ordered for negdot, else as `pairwise_distance` lays it out."""
        return self._matrix(x, y, scaled=False)[0]

    def scaled_matrix(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
        """(C / s, s) for the cost matrix C, where s is the largest absolute
        entry of C if that is below 1, and 1 otherwise.

        A solver with absolute tolerances then resolves small costs as finely
        as costs of order 1. The distance kinds divide the distances by the
        largest one before the power, so no entry of C / s underflows to 0
        merely because p is large; s itself may.
        """
        return self._matrix(x, y, scaled=True)

    def _matrix(self, x: np.ndarray, y: np.ndarray, scaled: bool) -> tuple[np.ndarray, float]:
        """(C / s, s) as `scaled_matrix` gives it if scaled, else (C, 1.0); never C / 1."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if self.kind == "negdot":
            c = -(x @ y.T)
        else:
            c = pairwise_distance(x, y, periodic=self.periodic)
        top = float(np.abs(c).max(initial=0.0)) if scaled else 1.0
        if 0.0 < top < 1.0:
            c /= top
        else:
            top = 1.0
        if self.kind == "sqdist":
            c *= c
            top *= top
        elif self.kind == "dist_p" and self.p != 1:  # d ** 1.0 is d
            c **= self.p
            top **= self.p
        return c, top


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


def _stencil(points: np.ndarray, grid: GridSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """The 2^dim cell corners around each point, as (flat index, weight) pairs.

    A corner's flat index is its row-major cell index, i_0 n^(dim-1) + ... +
    i_(dim-1), and its weight the product of its per-axis linear factors,
    axis 0's first; both take the shape of the points without their last
    axis. Corners run with axis 0 varying fastest. Periodic grids wrap
    across the seam; box grids clamp to the edge cells.
    """
    pts = np.asarray(points, dtype=float)
    n = grid.n
    corners = None
    for a in range(grid.dim):
        lo, hi = grid.bounds[a]
        f = (pts[..., a] - lo) / (hi - lo) * n - 0.5
        if grid.periodic:
            i0 = np.floor(f).astype(int)
            w = f - i0
            i0 %= n
            i1 = i0 + 1
            i1[i1 == n] = 0
        else:
            f = np.clip(f, 0.0, n - 1.0)
            i0 = np.minimum(np.floor(f).astype(int), n - 2) if n > 1 else np.zeros(f.shape, int)
            w = f - i0
            i1 = np.minimum(i0 + 1, n - 1)
        axis = [(i0, 1 - w), (i1, w)]
        corners = axis if corners is None else [(cell * n + i, weight * factor)
                                                for i, factor in axis for cell, weight in corners]
    return corners


def interp_grid(values: np.ndarray, points: np.ndarray, grid: GridSpec) -> np.ndarray:
    """(Multi)linear interpolation of a batch of field stacks at points.

    values has shape (B, k) + (n,)*dim, B stacks of k fields each, and
    points (B, m, dim); returns (B, m, k), stack b read at its own m points
    and, bit for bit, as in a batch of its own. One field or one stack is a
    batch of one. Each corner is one np.take from the flat values, serving
    the whole batch: the corner's flat cell index plus the offset of each
    (stack, field) block. The gather runs fields before points, so every
    elementwise pass has the points as its long inner axis, and one
    transpose at the end puts the points first. The stencil keeps every
    index inside the grid, so the take's "clip" mode never acts; it only
    spares the per-element bounds check.
    """
    values = np.asarray(values, dtype=float)
    cells = grid.n ** grid.dim
    # (B, 1, m) cell + (B, k, 1) block offset -> (B, k, m) flat index
    offsets = (np.arange(values.size // cells) * cells).reshape(len(points), -1, 1)
    flat = values.reshape(-1)
    out = None
    for cell, weight in _stencil(points, grid):
        term = np.take(flat, cell[:, None, :] + offsets, mode="clip")
        term *= weight[:, None, :]
        out = term if out is None else np.add(out, term, out=out)
    return np.ascontiguousarray(out.swapaxes(1, 2))


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
