"""Measure representations, grid pushforwards, and Wasserstein distances.

Two concrete representations are supported: weighted point clouds in R^d
(`DiscreteMeasure`) and periodic densities on the flat torus [0,1)^dim
(`GridDensity`, stored relative to the normalized volume, mean 1).

`write_rows` is the one CSV writer of the package: measures (manifold and
tangent atoms among them), plans, maps and the CLI's tables all go through
it. `read_text` is the one reader: every input file, a measure (a grid
density, or atoms under x0[,x1[,x2]],w, manifold atoms included), a kernel
manifest or a JSON config, is opened by it, and every CSV input is split
into rows by `read_rows`, which skips blank lines and '#' comments.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .geometry import (
    CostSpec,
    deposit_grid,
    pairwise_distance,
    unit_torus_grid,
    wrap_signed,
    wrap_unit,
)

WEIGHT_TOL = 1e-12
MEAN_TOL = 1e-10
EXACT_SIZE_GUARD = 4096


class MeasureError(ValueError):
    """Invalid measure data or unsupported operation on a measure."""


def parse_float(token: str, path, line: int) -> float:
    """One input-file token as a float; MeasureError naming the file and line."""
    try:
        return float(token)
    except ValueError as exc:
        raise MeasureError(f"{path}, line {line}: {exc}") from None


def read_text(path, what: str = "input file") -> str:
    """The text of the file at path (universal newlines); MeasureError naming
    the path if it is missing, names no regular file, or is not text."""
    p = Path(path)
    if not p.is_file():
        raise MeasureError(f"{what} not found: {path}" if not p.exists()
                           else f"{what} {str(path)!r} is not a regular file")
    try:
        with open(p) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise MeasureError(f"{what} {path} is not text: {exc.reason} at byte {exc.start}") from None


def read_rows(path, what: str = "input file") -> list[tuple[int, str]]:
    """(line number, stripped text) of each line of the file at path that is
    neither blank nor a '#' comment."""
    lines = map(str.strip, read_text(path, what).split("\n"))
    return [(no, ln) for no, ln in enumerate(lines, start=1) if ln and ln[0] != "#"]


def float_rows(path, rows: list[tuple[int, str]], width: int) -> np.ndarray:
    """The rows of `read_rows` as a (len(rows), width) array; MeasureError
    names the file and line of a row that is not width numbers."""
    data = []
    for no, text in rows:
        fields = text.split(",")
        if len(fields) != width:
            raise MeasureError(f"{path}, line {no}: expected {width} values, got {len(fields)}")
        data.append([parse_float(v, path, no) for v in fields])
    return np.array(data, dtype=float).reshape(-1, width)


def write_rows(path, header: list[str], rows) -> None:
    """Write the header, then one line per row: the repr of each number, comma-joined.

    Rows hold Python numbers (pass `ndarray.tolist()`), so every float prints
    as the shortest text that reads back to the same double. Lines end in a
    bare newline on every platform.
    """
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


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

    def as_discrete(self, subdiv: int = 1) -> "DiscreteMeasure":
        """The measure itself: it is already atomic at every resolution."""
        return self

    def to_csv(self, path) -> None:
        write_rows(path, [f"x{i}" for i in range(self.dim)] + ["w"],
                   np.column_stack([self.points, self.weights]).tolist())


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative density on the flat torus [0,1)^dim w.r.t. normalized volume.

    n cells per axis (power of two, >= 8); values are stored row-major with
    mean exactly 1 within 1e-10 so that the density integrates to one. The
    measure is piecewise constant per cell, as `draw_sample`, `as_discrete`,
    every W1 and every Brenier solve read it; the continuous route (1D closed
    form, RK4 velocity) reads the piecewise-linear interpolant between cell
    centres instead. Interval and box kernels use this type as a box density.
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
        object.__setattr__(self, "dim", int(self.dim))
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
        write_rows(path, ["dim", "n"], [[self.dim, self.n]] + self.values.reshape(-1, 1).tolist())


def read_measure(path) -> DiscreteMeasure | GridDensity:
    """The measure in a CSV file: a grid density if its first row (see
    `read_rows`) is 'dim,n' or its values, starting with a digit, and atoms
    under the exact header x0[,x1[,x2]],w otherwise."""
    rows = read_rows(path)
    if not rows:
        raise MeasureError(f"{path}: empty measure file")
    no, first = rows[0]
    if first.replace(" ", "") == "dim,n" or first[0].isdigit():
        try:
            (_, meta), *values = rows[0 if first[0].isdigit() else 1:]
            dim, n = (int(tok) for tok in meta.split(","))
        except ValueError as exc:
            raise MeasureError(f"{path}: expected 'dim,n' metadata line") from exc
        vals = np.array([parse_float(text, path, line) for line, text in values])
        if len(vals) != n ** dim:
            raise MeasureError(f"{path}: expected {n ** dim} values, got {len(vals)}")
        return GridDensity(dim, n, vals.reshape((n,) * dim))
    header = first.replace(" ", "").split(",")
    if not 2 <= len(header) <= 4 or header != [f"x{a}" for a in range(len(header) - 1)] + ["w"]:
        raise MeasureError(f"{path}, line {no}: expected header 'x0[,x1[,x2]],w', got {first!r}")
    data = float_rows(path, rows[1:], len(header))
    return DiscreteMeasure(data[:, :-1], data[:, -1])


def draw_sample(mu: GridDensity, n_draws: int, seed: int) -> np.ndarray:
    """(n_draws, dim) array of i.i.d. draws from mu, reproducible from the
    seed: exact for the piecewise-constant reading, a cell picked by its mass
    and then a uniform point inside it."""
    if n_draws < 1:
        raise MeasureError("n_draws must be >= 1")
    rng = np.random.default_rng(seed)
    masses = mu.cell_masses()
    idx = rng.choice(len(masses), size=n_draws, p=masses / masses.sum())
    offs = rng.random((n_draws, mu.dim)) / mu.n
    corners = np.column_stack(np.unravel_index(idx, (mu.n,) * mu.dim)) / mu.n
    return corners + offs


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

W1_SUBDIV = 8  # subcells per cell of a grid density's midpoint atoms in every 1D W1


def atoms_1d(mu: DiscreteMeasure | GridDensity, periodic: bool):
    """Atom positions (wrapped to [0, 1) on the circle) in sorted order, with weights.

    A grid density is read as midpoint atoms at W1_SUBDIV subcells per cell.
    Coincident atoms are ordered by weight, so a measure listed in any order
    gives the same arrays, and so the same cumulative weights bit for bit.
    """
    if mu.dim != 1:
        raise MeasureError("wasserstein_1d requires one-dimensional measures")
    dm = mu.as_discrete(subdiv=W1_SUBDIV)
    x = wrap_unit(dm.points[:, 0]) if periodic else dm.points[:, 0]
    order = np.lexsort((dm.weights, x))
    return x[order], dm.weights[order]


def step_quantile(x: np.ndarray, cum: np.ndarray, q) -> np.ndarray:
    """Quantile of sorted atoms x with cumulative weights cum at levels q in [0, 1].

    Level q goes to the first atom whose cumulative weight reaches q; levels
    above a total rounded below 1 go to the last atom.
    """
    return x[np.minimum(np.searchsorted(cum, q), len(x) - 1)]


def _power_mean(d: np.ndarray, w: np.ndarray, p: float) -> float:
    """(sum w d^p)^(1/p) for distances d >= 0 with weights w >= 0.

    Taken as d_max (sum w (d / d_max)^p)^(1/p), d_max the largest distance of
    positive weight: that term's power is 1, so no order p, however large,
    underflows the sum to 0 (W_p of two 2-atom measures at p = 1000 would
    otherwise read 0).
    """
    d = d[w > 0]
    d_max = float(d.max(initial=0.0))
    if d_max == 0.0:
        return 0.0
    return d_max * float(np.sum(w[w > 0] * (d / d_max) ** p)) ** (1.0 / p)


def _quantile_distance(xu, wu, xv, wv, p: float, theta: float = 0.0) -> float:
    """Order-p distance of pairing level t of mu with level t - theta of nu
    (atoms sorted, see `_quantile_pairing`): the p-th root of the pairing's
    cost."""
    return _power_mean(*_quantile_pairing(xu, wu, xv, wv, theta), p)


def _quantile_pairing(xu, wu, xv, wv, theta: float = 0.0,
                      kink: tuple[int, float] | None = None):
    """(distances, level widths) of the level segments of pairing level t of
    mu with level t - theta of nu (atoms sorted).

    nu's quantile is unrolled by Q(s + 1) = Q(s) + 1 for the circle; at
    theta = 0 this is the exact quantile coupling on the line. Every break of
    either step quantile is labelled with the atom its quantile takes past
    it, and each level segment between the sorted breaks is charged to the
    largest labels at or before its position. No level is looked up, so a
    segment one ulp wide is charged to its own atoms whatever a lookup's tie
    rule would do there. kink = (j, b) puts nu's break j (in the order of
    sv below, the turn last) at level b exactly, for a theta that places it
    there up to rounding (see `_circle_kinks`), so that no segment of
    rounding width is left between it and mu's break at b. The distances are
    those of nu's unrolled atoms, so on the circle of the lift paired.
    """
    mu_size, nu_size = len(xu), len(xv)
    cu, cv = np.cumsum(wu), np.cumsum(wv)
    # nu's breaks in t = s + theta: its inner cumulative weights, and the turn
    # where its unrolled level s crosses an integer (the last weight is taken
    # as 1, as mu's is by the break at t = 1); each is labelled with the
    # unrolled atom count turn * len(xv) + atom past it
    sv = np.append(cv[:-1], 0.0)
    tv = wrap_unit(sv + theta)
    if kink is not None:
        tv[kink[0]] = wrap_unit(kink[1])
    gv = np.rint(tv - theta - sv).astype(int) * nu_size + np.append(np.arange(1, nu_size), 0)
    t = np.concatenate([[0.0, 1.0], cu[:-1], tv])
    # row 0: mu's atom past each break; row 1: nu's unrolled count, which
    # before nu's first break is one below that break's
    labels = np.zeros((2, len(t)), dtype=int)
    labels[0, 2:mu_size + 1] = np.arange(1, mu_size)
    labels[1, :mu_size + 1] = gv.min() - 1
    labels[1, mu_size + 1:] = gv
    order = np.argsort(t, kind="stable")
    t = t[order]
    iu, g = np.maximum.accumulate(labels[:, order], axis=1)[:, :-1]
    qv = xv[g % nu_size] + g // nu_size
    return np.abs(xu[iu] - qv), np.diff(t)


def _circle_w1(xu, wu, xv, wv) -> float:
    """Exact W1 on the circle (atoms in [0, 1)): min_t integral |F_mu - F_nu - t| dx.

    The least t is a weighted median of F_mu - F_nu, each value weighted by
    the length of the arc it holds on (Delon, Salomon & Sobolevski 2010).
    The atoms merge once into the distinct atoms z (a stable argsort, one
    merge of two runs when both are sorted); each measure's mass at z is one
    `np.bincount`, which adds in atom order whatever the merge does with ties.
    t is the first distinct value whose cumulative arc length reaches half,
    found by selection: a histogram of the values (about 8 a bin; a range
    below 1e-300 counts as 1e-300, so the scale stays finite) finds the bin
    where half is reached, and only that bin's values are sorted and grouped.
    """
    z = np.concatenate([xu, xv])
    order = np.argsort(z, kind="stable")
    z = z[order]
    at = np.empty_like(order)  # each atom's index in z
    at[order] = np.arange(len(order))
    dups = np.flatnonzero(z[1:] == z[:-1]) + 1
    if dups.size:  # an index moves down by the coincidences at or before it
        z = np.delete(z, dups)
        at -= np.searchsorted(dups, at, side="right")
    d = np.cumsum(np.bincount(at[:len(xu)], weights=wu, minlength=len(z)))
    d -= np.cumsum(np.bincount(at[len(xu):], weights=wv, minlength=len(z)))
    seg = np.diff(np.concatenate([z, [z[0] + 1.0]]))
    bins, lo = len(d) // 8 + 1, d.min()
    b = ((d - lo) * ((bins - 1) / max(d.max() - lo, 1e-300))).astype(np.intp)
    below = np.cumsum(np.bincount(b, weights=seg, minlength=bins))
    k = np.searchsorted(below, 0.5 * below[-1])
    inside = np.flatnonzero(b == k)
    vals, which = np.unique(d[inside], return_inverse=True)
    csum = (below[k - 1] if k else 0.0) + np.cumsum(np.bincount(which, weights=seg[inside]))
    t_star = vals[min(np.searchsorted(csum, 0.5 * below[-1]), len(vals) - 1)]
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
    convex in theta, so its p-th root is unimodal, and at the optimum no
    displacement exceeds 1/2, so a golden-section search over (-1.5, 1.5)
    finds it.
    """
    return _golden_section_argmin(lambda th: _quantile_distance(xu, wu, xv, wv, p, th),
                                  -1.5, 1.5)


def _circle_kinks(wu, wv, theta: float) -> list[tuple[float, tuple[int, float]]]:
    """The kinks nearest theta, below and above, of the circle cost in the
    level shift (weights of sorted atoms), each as (shift, kink) arguments
    of `_quantile_pairing`.

    A kink is a shift at which a break of nu's shifted quantile meets a
    break b of mu's. Between two kinks every level segment pairs the same
    atoms and only the segment lengths move, so the cost is linear there and
    least at one of the two ends.
    """
    bu = np.concatenate([[0.0], np.cumsum(wu)[:-1], [1.0]])
    sv = np.append(np.cumsum(wv)[:-1], 0.0)
    shifted = sv + theta
    tv = wrap_unit(shifted)
    turn = np.rint(shifted - tv)
    i = np.clip(np.searchsorted(bu, tv, side="right"), 1, len(bu) - 1)
    lo = np.argmax(bu[i - 1] + turn - sv)
    hi = np.argmin(bu[i] + turn - sv)
    return [(bu[k] + turn[j] - sv[j], (j, bu[k])) for j, k in ((lo, i[lo] - 1), (hi, i[hi]))]


def wasserstein_1d(mu, nu, p: float = 1.0, periodic: bool = False) -> float:
    """Order-p Wasserstein distance between 1D measures, exact between atoms.

    On the line this is the quantile-function coupling. On the circle it is
    the quantile coupling rotated by the best level shift: the weighted-median
    formula for p=1, `circle_rotation` otherwise (the one rotation search,
    shared with `transport.monotone_map_1d`), and then the least of the
    costs at the search's shift and at the two kinks that bracket it
    (`_circle_kinks`), where the breaks that meet are placed at one level.
    The cost is least at a kink, and there rounding can leave the search's
    shift with a one-ulp level segment that pairs a far lift, which
    dominates at large p. Each pair of atoms is charged its circle distance,
    which is the lift's wherever the coupling is optimal and at most 1/2 on
    a segment of rounding width (where breaks that should coincide, such as
    sums of the same weights in another order, differ by rounding). Each
    candidate is the cost of a coupling, so the least is never above the
    search's. A grid density enters as the midpoint atoms of `atoms_1d`, so
    against one the value is exact for that quadrature, not for the density.
    """
    if not (np.isfinite(p) and p >= 1):
        raise MeasureError(f"order p must be finite and >= 1, got {p!r}")
    xu, wu = atoms_1d(mu, periodic)
    xv, wv = atoms_1d(nu, periodic)
    if not periodic:
        return _quantile_distance(xu, wu, xv, wv, p)
    if p == 1.0:
        return _circle_w1(xu, wu, xv, wv)
    theta = circle_rotation(xu, wu, xv, wv, p)
    pairings = (_quantile_pairing(xu, wu, xv, wv, th, kink)
                for th, kink in [(theta, None), *_circle_kinks(wu, wv, theta)])
    return min(_power_mean(np.abs(wrap_signed(d)), w, p) for d, w in pairings)


def wasserstein_exact(mu, nu, p: float = 1.0, periodic: bool = False) -> float:
    """Order-p Wasserstein distance via the exact coupling LP (cost d^p).

    Grid densities enter as one atom per cell. The p-th root of the optimal
    plan's cost is taken as a power mean of its distances (`_power_mean`),
    so it stays exact where d^p underflows.
    """
    from . import transport

    mu, nu = mu.as_discrete(), nu.as_discrete()
    plan = transport.solve_exact(mu, nu, CostSpec("dist_p", p=p, periodic=periodic))
    d = pairwise_distance(mu.points, nu.points, periodic=periodic)
    return _power_mean(d, plan.gamma, p)


def wasserstein_sinkhorn_upper(mu, nu, p: float = 1.0, periodic: bool = False,
                               epsilon: float = 4e-3, max_iter: int = 200,
                               tol: float = 1e-4) -> float:
    """Certified upper bound on W_p from a rounded entropic plan.

    Every randmap caller takes the default p = 1, the W1 bound; p stays a
    parameter because the benchmark's layer sweep (perfbench/sweep.py) passes it.
    `transport.solve_sinkhorn` rounds its plan to be exactly feasible, so the
    plan's cost can only exceed the optimum: loose settings (by default
    epsilon 4e-3, max_iter 200, tol 1e-4) slacken the bound, never
    invalidate it. Grid densities enter as one atom per cell.
    """
    from . import transport

    plan = transport.solve_sinkhorn(mu.as_discrete(), nu.as_discrete(),
                                    CostSpec("dist_p", p=p, periodic=periodic),
                                    epsilon=epsilon, max_iter=max_iter, tol=tol)
    return float(max(plan.cost, 0.0) ** (1.0 / p))
