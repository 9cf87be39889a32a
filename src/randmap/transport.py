"""Optimal-coupling solvers (exact LP, entropic) and the optimal maps of the
measurable route: 1D monotone rearrangements and 2D Brenier maps.

The exact LP doubles as the optimality oracle for every other solver, so it
is certified on return via dual feasibility and complementary slackness.
scipy (sparse matrices and the HiGHS LP) loads on the first exact solve, not
with this module: no other solver, and neither of the paper's constructions,
uses it, and its import would dominate every CLI command's start-up.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .geometry import (CostSpec, GridSpec, _blocks, interp_grid, wrap_signed,
                       wrap_unit)
from .measures import (EXACT_SIZE_GUARD, DiscreteMeasure, GridDensity, MeasureError,
                       atoms_1d, circle_rotation, step_quantile, write_rows)

MARGINAL_TOL = 1e-9
DUAL_TOL = 1e-9
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

    def validate(self, cost_spec: CostSpec) -> None:
        violation = self.marginal_violation()
        if violation > MARGINAL_TOL:
            raise SolverError(f"marginal violation {violation:.3e} > {MARGINAL_TOL}")
        if np.any(self.gamma < -MARGINAL_TOL):
            raise SolverError("plan has negative entries")
        c = cost_spec.matrix(self.mu.points, self.nu.points)
        recomputed = float(np.sum(self.gamma * c))
        if abs(recomputed - self.cost) > MARGINAL_TOL * max(1.0, abs(recomputed)):
            raise SolverError(f"stored cost {self.cost} != recomputed {recomputed}")

    def to_csv(self, path) -> None:
        rows, cols = np.nonzero(self.gamma > 0.0)
        write_rows(path, ["i", "j", "gamma"],
                   zip(rows.tolist(), cols.tolist(), self.gamma[rows, cols].tolist()))


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
        vals = interp_grid(stack[None], pts[None], self.grid)[0]
        return wrap_unit(pts + vals) if self.grid.periodic else vals

    def __call__(self, x) -> np.ndarray:
        return self.evaluate(x)

    def to_csv(self, path) -> None:
        cols = ([f"x{a}" for a in range(self.points.shape[1])]
                + [f"Tx{a}" for a in range(self.images.shape[1])])
        parts = [self.points, self.images]
        if self.psi is not None:
            cols.append("psi")
            parts.append(self.psi[:, None])
        write_rows(path, cols, np.hstack(parts).tolist())


# ---------------------------------------------------------------------------
# exact LP solver
# ---------------------------------------------------------------------------

def _support_potentials(cost: np.ndarray, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dual potentials of a plan from shortest paths on its residual graph.

    Row i -> column j costs c_ij for every pair, and column j -> row i costs
    -c_ij where the plan has mass. Bellman-Ford distances d from a source
    joined to every node at cost 0 give u = -d(rows) and v = d(columns):
    feasible everywhere and tight on the support, however many trees the
    support forest has. A plan that is not optimal has a negative cycle: the
    passes then run to the cap, and `_certify` judges what they leave.
    """
    back = np.where(gamma > 1e-12, -cost, np.inf)
    d_row = np.zeros(cost.shape[0])
    d_col = np.zeros(cost.shape[1])
    for _ in range(sum(cost.shape) + 1):
        new_col = np.minimum(d_col, (d_row[:, None] + cost).min(axis=0))
        new_row = np.minimum(d_row, (new_col[None, :] + back).min(axis=1))
        moved = max((d_col - new_col).max(), (d_row - new_row).max())
        d_row, d_col = new_row, new_col
        if moved <= 1e-12:
            break
    return -d_row, d_col


def _certify(cost: np.ndarray, gamma: np.ndarray, u: np.ndarray, v: np.ndarray) -> bool:
    """Dual feasibility and complementary slackness, each within DUAL_TOL."""
    slack = cost - u[:, None] - v[None, :]
    if slack.min() < -DUAL_TOL:
        return False
    on_support = gamma > 1e-12
    if on_support.any() and np.abs(slack[on_support]).max() > DUAL_TOL:
        return False
    return True


def solve_exact(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec) -> TransportPlan:
    """Optimal coupling of two discrete measures by the exact LP.

    Costs whose largest entry s is below 1 are divided by it before the LP
    (`CostSpec.scaled_matrix`), so a large order p cannot push every cost
    below the solver's tolerances; the plan's cost and potentials are
    scaled back by s. Optimality is certified on return, in the units of
    the LP: dual feasibility and complementary slackness of the potentials
    must hold within 1e-9, that is within 1e-9 * min(1, s) in the original
    units, or the solve is rejected outright. HiGHS's own duals are tried
    first; potentials are rebuilt from the plan (`_support_potentials`)
    only when they fail.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    if mu.dim != nu.dim:
        raise MeasureError(f"cannot couple measures of dimension {mu.dim} and {nu.dim}")
    m, n = mu.size, nu.size
    if m > EXACT_SIZE_GUARD or n > EXACT_SIZE_GUARD:
        raise MeasureError(f"support sizes ({m}, {n}) exceed LP guard {EXACT_SIZE_GUARD}")
    c, scale = cost.scaled_matrix(mu.points, nu.points)
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
    duals = np.asarray(res.eqlin.marginals, dtype=float)
    u, v = duals[:m], duals[m:]
    if not _certify(c, gamma, u, v):
        u, v = _support_potentials(c, gamma)
        if not _certify(c, gamma, u, v):
            raise SolverError("optimality certification failed (dual potentials)")
    plan = TransportPlan(mu, nu, gamma, scale * float(np.sum(gamma * c)), converged=True,
                         dual_u=scale * u, dual_v=scale * v)
    plan.validate(cost)
    return plan


# ---------------------------------------------------------------------------
# entropic solver (stabilised scaling, epsilon scaling, overrelaxation,
# feasible rounding)
#
# The iteration is Schmitzer's stabilised scaling algorithm (2019, SIAM J.
# Sci. Comput., Alg. 2). The potentials are split as f = f_bar + eps log u
# and g = g_bar + eps log v: f_bar, g_bar are folded into a kernel
# K = exp((f_bar + g_bar - C)/eps), and a Sinkhorn half-step touches only the
# scalings, u <- 1 / (K (b v)), one matrix-vector product and one divide.
# When a scaling leaves [e^-_ABSORB, e^_ABSORB], the potentials are formed
# and folded into a new K. K takes the cost's layout, which for the distance
# kinds is `pairwise_distance`'s, longer axis contiguous, so both products,
# through K and through K.T, read it along long runs.
#
# K is held as one factor per axis of a stack of per-axis costs; an (N, M)
# cost is the one-axis stack, whose kernel takes in all of f_bar and g_bar.
# On a tensor grid the quadratic cost splits by axis, C = C_0 (+) C_1, and
# K x is K_0 X K_1^T on n x m factors (Solomon et al. 2015, Convolutional
# Wasserstein Distances, ACM TOG): the kernel takes in only the per-axis
# means of each potential, and the scalings keep the rest, within the same
# band (absorbing part of a potential is what Schmitzer 2019, section 3,
# asks of a stabilised kernel, not all of it). A rest that leaves the band
# restacks the cost into one axis for the rest of that solve.
#
# The final epsilon level runs overrelaxed Sinkhorn (Thibault, Chizat,
# Dossal & Papadakis 2017, arXiv:1711.01851; Lehmann, von Renesse, Sambale
# & Uschmajew 2021, Optim. Lett.): each half-step moves a potential _OMEGA
# times as far as plain Sinkhorn would, which in scalings is
# u <- u (u K (b v))^-omega. The fixed point is unchanged; near it, plain
# Sinkhorn contracts linearly at some rate eta < 1, and the best factor,
# 2 / (1 + sqrt(1 - eta)), contracts at that factor minus one. Every
# _PLAIN_EVERY-th step is plain, and only plain steps measure the marginal
# error and may stop the solve, so the stopping certificate is that of plain
# Sinkhorn.
#
# The plan is rounded to exactly feasible as Altschuler, Weed & Rigollet
# (2017, NeurIPS, Alg. 2) do: scale rows down, then columns, then add a
# rank-one patch. All three come from matrix-vector products with the
# unrounded plan, so the rounding is vectors until it is applied.
# ---------------------------------------------------------------------------

# A scaling may move as far as e^+-_ABSORB from 1 (its potential this many
# epsilons from the one the kernel was built with) before the potentials are
# folded back into the kernel: far inside the range of floats, and far above
# the underflow threshold of the kernel entries that carry the mass.
_ABSORB = 30.0
_BAND = (np.exp(-_ABSORB), np.exp(_ABSORB))
# Overrelaxation factor of the final level. On 15 Brenier solves at n=16 and
# epsilon 1e-3 (uniform source, Gaussian-bump targets), omega = 1, 1.5, 1.7,
# 1.8, 1.85 and 1.9 took 17,615 / 8,982 / 6,686 / 5,670 / 5,630 / 6,398
# iterations in all; 1.8 was the fastest in wall time.
_OMEGA = 1.8
# Every this-many-th step of the final level is plain (omega = 1).
_PLAIN_EVERY = 8
# A plain step whose marginal error exceeds the previous plain step's by more
# than this relative margin ends the overrelaxation. The margin keeps rounding
# noise on a stalled error (flat to 1e-12) from deciding the path.
_RISE = 1e-6
# A warm epsilon level ends at its first step whose marginal error is at most
# _WARM_TOL, or after _WARM_MAX steps (fewer when max_iter is small). The
# level only has to hand the next one a start close to its marginals. On 900
# seeded small problems (see CHANGES.md), 3e-3 kept every solve that
# converged with 25 steps per warm level, slowed none of them, and took 18.5%
# fewer iterations in all; 1e-2 lost 3 converged solves, 0.1 lost 14, and a
# single step per level lost 42.
_WARM_TOL = 3e-3
_WARM_MAX = 25


def _log_weights(w: np.ndarray) -> np.ndarray:
    """log w, with -inf for zero weights."""
    return np.where(w > 0, np.log(np.where(w > 0, w, 1.0)), -np.inf)


def _fill_exp(out: np.ndarray, f: np.ndarray, g: np.ndarray, c: np.ndarray,
              eps: float) -> None:
    """out_ij = exp((f_i + g_j - c_ij)/eps), block by block along out's
    contiguous axis (`_blocks`), each block in cache from one read of the
    cost, with no temporary."""
    for rows, cols in _blocks(out):
        block = out[rows, cols]
        np.add.outer(f[rows], g[cols], out=block)
        block -= c[rows, cols]
        block /= eps
        np.exp(block, out=block)


def _in_band(s: np.ndarray) -> bool:
    """e^-_ABSORB <= min s <= max s <= e^_ABSORB; False for NaN or inf."""
    return bool(_BAND[0] <= s.min() and s.max() <= _BAND[1])


def _separable(f: np.ndarray, d: int, n: int) -> tuple[np.ndarray, ...]:
    """The per-axis parts of the additive least-squares fit of a potential
    on a d-axis grid of n cells per axis (row-major flat index i): f itself
    for one axis; for two, f_i ~ f_0[i_0] + f_1[i_1], each part the mean of
    f over the other axis, less half its overall mean."""
    if d == 1:
        return (f,)
    grid = f.reshape(n, n)
    half = 0.5 * grid.mean()
    return grid.mean(axis=1) - half, grid.mean(axis=0) - half


def _apply(k: tuple[np.ndarray, ...], x: np.ndarray) -> np.ndarray:
    """K x for K held as its per-axis factors: K_0 x on one axis, and on two
    K_0 X K_1^T (K = K_0 (x) K_1, x read as the row-major grid X)."""
    if len(k) == 1:
        return k[0] @ x
    k0, k1 = k
    return (k0 @ x.reshape(k0.shape[1], -1) @ k1.T).ravel()


class _StabilisedKernel:
    """K = exp((f_bar_i + g_bar_j - C_ij)/eps) and the scalings u, v of the
    potentials f = f_bar + eps log u, g = g_bar + eps log v.

    A Sinkhorn half-step is u <- 1 / (K (b v)), or overrelaxed with factor
    omega, u <- u (u K (b v))^-omega (f <- f + omega (SK_f(g) - f) in
    potentials); v likewise through K.T and a u. K is built from the cost and
    the potentials by `absorb`, or moved to half its epsilon by `halve`,
    which squares K, u and v: exp(x/eps)^2 = exp(x/(eps/2)), around the same
    f_bar, g_bar, with no cost read and no exp. Its methods run under the
    solver's np.errstate(over="ignore", invalid="ignore", divide="ignore"): a
    kernel sum that is 0 or not finite makes its scaling inf, 0 or NaN, which
    iterate reports.

    The cost is held as a (d, n, m) stack of per-axis costs, `axes`, and K
    as the tuple of its d factors K_a = exp((f_a + g_a - C_a)/eps), each laid
    out as its cost is (`np.empty_like`) and filled in place along its
    contiguous axis (`_fill_exp`). An (N, M) cost is the one-axis stack
    c[None]; the (2, n, m) stack of a tensor grid gives
    C_ij = C_0[i_0, j_0] + C_1[i_1, j_1] over the row-major indices
    i = (i_0, i_1) and j = (j_0, j_1), and K = K_0 (x) K_1 (`_apply`).
    `absorb` folds the separable parts f_a, g_a of f and g (`_separable`)
    into the factors and leaves the rest in u and v: on one axis that is all
    of f and g, so both scalings are exactly 1. If the rest lies outside
    [e^-_ABSORB, e^_ABSORB], or a two-axis step fails, the stack is summed
    into one axis (`_densify`) for the rest of the solve.
    """

    def __init__(self, c: np.ndarray, wa: np.ndarray, wb: np.ndarray):
        self.wa, self.wb = wa, wb
        # An idle entry of a one-axis K, between a zero-weight row and column,
        # meets only zero weights and no update bounds its exponent: it is
        # kept at 0, not left to overflow to inf (inf * 0 = NaN).
        self.idle = np.ix_(wa == 0, wb == 0)
        self._hold(c if c.ndim == 3 else c[None])

    def _hold(self, axes: np.ndarray) -> None:
        """Take the (d, n, m) cost stack axes, and room for K's factors."""
        self.axes = axes
        self.k = tuple(np.empty_like(ca) for ca in axes)
        self.kt = tuple(ka.T for ka in self.k)

    def _densify(self) -> None:
        """Restack the two per-axis costs into the (N, M) cost they sum to."""
        (c0, c1), (n, m) = self.axes, self.axes.shape[1:]
        self._hold((c0[:, None, :, None] + c1[None, :, None, :]).reshape(1, n * n, m * m))

    def absorb(self, f: np.ndarray, g: np.ndarray, eps: float) -> None:
        """Fold the potentials f, g into K at regularisation eps: their
        separable parts into the factors, in place, and the rest into u and
        v, after restacking a two-axis cost into one if that rest leaves the
        band."""
        d, n, m = self.axes.shape
        fa, ga = _separable(f, d, n), _separable(g, d, m)
        f_bar, g_bar = (reduce(np.add.outer, parts).ravel() for parts in (fa, ga))
        u, v = np.exp((f - f_bar) / eps), np.exp((g - g_bar) / eps)
        if d > 1 and not (_in_band(u) and _in_band(v)):
            self._densify()
            return self.absorb(f, g, eps)
        self.eps, self.f_bar, self.g_bar, self.u, self.v = eps, f_bar, g_bar, u, v
        for k, fs, gs, ca in zip(self.k, fa, ga, self.axes):
            _fill_exp(k, fs, gs, ca, eps)
        if d == 1:
            self.k[0][self.idle] = 0.0

    def halve(self) -> bool:
        """Move K, u and v to regularisation eps/2 around the same f_bar,
        g_bar, in place, and return True; or change nothing and return False
        when a squared scaling would leave the band, so that K must be built
        from the potentials instead. Idle entries stay 0."""
        u, v = self.u * self.u, self.v * self.v
        if not (_in_band(u) and _in_band(v)):
            return False
        for k in self.k:
            k *= k
        self.u, self.v, self.eps = u, v, 0.5 * self.eps
        return True

    def potentials(self) -> tuple[np.ndarray, np.ndarray]:
        """(f, g) = (f_bar + eps log u, g_bar + eps log v), as new arrays."""
        return self.f_bar + self.eps * np.log(self.u), self.g_bar + self.eps * np.log(self.v)

    def iterate(self, omega: float):
        """One Sinkhorn iteration with factor omega, u from v and then v from
        that u, in place.

        K is absorbed after each half-step whose scaling leaves the band;
        each half-step moves one scaling, so only that one is tested.
        Returns (v, v_new), the column scalings before and after, both
        relative to the same g_bar: v / v_new = exp((g - g_new)/eps). None if
        a scaling is not finite and positive, which is how a kernel sum that
        underflows to 0 or is not finite shows; the state is then that of
        the start of the iteration, and a two-axis cost is restacked into
        one for the retry after absorption.
        """
        start = self.f_bar, self.g_bar, self.u, self.v
        self.u = _scale(self.k, self.u, self.v, self.wb, omega)
        if self._settle(self.u):
            v = self.v
            self.v = v_new = _scale(self.kt, self.v, self.u, self.wa, omega)
            if self._settle(v_new):
                return v, v_new
        self.f_bar, self.g_bar, self.u, self.v = start
        if len(self.k) > 1:
            self._densify()
        return None

    def _settle(self, s: np.ndarray) -> bool:
        """Absorb K if the scaling s just moved has left the band; False if s
        is not finite and positive."""
        if _in_band(s):
            return True
        if not (0.0 < s.min() and s.max() < np.inf):
            return False
        self.absorb(*self.potentials(), self.eps)
        return True


def _scale(k, own: np.ndarray, other: np.ndarray, w: np.ndarray,
           omega: float) -> np.ndarray:
    """1 / (K (w other)) at omega = 1, own (own K (w other))^-omega
    otherwise, as a new array, for K held as its factors (`_apply`)."""
    s = _apply(k, w * other)
    if omega == 1.0:
        return np.divide(1.0, s, out=s)
    s *= own
    np.power(s, -omega, out=s)
    s *= own
    return s


def _column_error(v: np.ndarray, v_new: np.ndarray, wb: np.ndarray) -> float:
    """L1 column violation of the row-feasible plan exp((f + g - C)/eps) a b
    whose f came from g, with v / v_new = exp((g - g_new)/eps) and g_new the
    column update that f gives: sum_j |b_j v_j / v_new_j - b_j|, a non-finite
    ratio read as 1."""
    ratio = np.divide(v, v_new)
    ratio[~np.isfinite(ratio)] = 1.0
    ratio *= wb
    ratio -= wb
    return float(np.abs(ratio, out=ratio).sum())


def _sinkhorn_potentials(c: np.ndarray, wa: np.ndarray, wb: np.ndarray,
                         epsilon: float, max_iter: int, tol: float):
    """Stabilised-scaling Sinkhorn with a halving epsilon schedule from 1.0
    down, overrelaxed at the final epsilon.

    c is the (N, M) cost, or the (2, n, m) stack of the per-axis costs of a
    tensor grid (C_ij = C_0[i_0, j_0] + C_1[i_1, j_1] over row-major indices);
    the kernel is held as one factor per axis, two for a stack while the
    potentials' non-separable rest stays within the band below
    (`_StabilisedKernel`).
    Each half-step is a Sinkhorn update (SK_f(g) = -eps lse_j[(g_j -
    C_ij)/eps + log b_j], SK_g(f) likewise) taken in scalings against the
    stabilised kernel K = exp((f_bar + g_bar - C)/eps): one matrix-vector
    product, or two n x m matrix products, and one divide. Every step
    measures the marginal error err of its plan (`_column_error`), except the
    overrelaxed steps below.

    The warm levels run plain steps (f = SK_f(g), then g = SK_g(f)), and each
    ends at its first step with err <= _WARM_TOL, or after
    min(_WARM_MAX, max(1, max_iter // (2 * levels))) steps. The final level
    runs overrelaxed steps f <- f + omega (SK_f(g) - f), then
    g <- g + omega (SK_g(f) - g), with omega = _OMEGA, except that every
    _PLAIN_EVERY-th step, and the step that reaches max_iter, is plain. Only
    plain steps measure err there, and the solve stops at the first one with
    err <= tol. If a plain step's err exceeds the previous plain step's (by
    more than a relative _RISE), the rest of the level runs plain (omega = 1).

    K is built from the current potentials at the start of the first and the
    final level. Every warm level after the first halves epsilon, and starts
    from the previous level's K and scalings squared
    (`_StabilisedKernel.halve`) when both squared scalings stay within
    [e^-_ABSORB, e^_ABSORB], and from a K built from the current potentials
    otherwise. Within a level the potentials are formed and folded into K
    whenever a scaling leaves that band. When a kernel sum underflows to 0 or
    is not finite, K is built from the potentials of the iteration's start
    and the iteration redone; a sum that still fails raises SolverError, so
    the potentials returned are always finite. Entries of a one-axis K
    between zero-weight atoms on both sides stay 0.

    Returns (f, g, converged, err, iterations). The returned iterate always
    comes from a plain step, and err is the L1 column violation of that step's
    (exactly row-feasible) plan exp((f + g_prev - C)/eps) a b.
    """
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise SolverError(f"epsilon must be finite and > 0, got {epsilon!r}")
    if not (np.isfinite(tol) and tol > 0):
        raise SolverError(f"tol must be finite and > 0, got {tol!r}")
    if max_iter < 1:
        raise SolverError(f"max_iter must be >= 1, got {max_iter!r}")
    levels = [epsilon]
    lvl = 1.0
    while lvl > epsilon:
        levels.append(lvl)
        lvl *= 0.5
    levels = sorted(set(levels), reverse=True)
    warm_budget = min(_WARM_MAX, max(1, max_iter // (2 * len(levels))))
    kern = _StabilisedKernel(c, wa, wb)
    total_iters = 0
    converged = False
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for li, eps in enumerate(levels):
            final = li == len(levels) - 1
            relax = _OMEGA if final else 1.0
            err = np.inf
            # the warm levels are 1, 1/2, 1/4, ...: each after the first is
            # exactly half the one before
            if li == 0:
                kern.absorb(np.zeros(len(wa)), np.zeros(len(wb)), eps)
            elif final or not kern.halve():
                kern.absorb(*kern.potentials(), eps)
            it = 0
            while True:
                it += 1
                total_iters += 1
                last = final and total_iters >= max_iter
                plain = relax == 1.0 or it % _PLAIN_EVERY == 0 or last
                omega = 1.0 if plain else relax
                step = kern.iterate(omega)
                if step is None:
                    kern.absorb(*kern.potentials(), eps)
                    step = kern.iterate(omega)
                    if step is None:
                        raise SolverError(f"Sinkhorn kernel sum underflowed or is not finite "
                                          f"at epsilon {eps:g}, even after absorption")
                if plain:
                    prev, err = err, _column_error(*step, wb)
                    if err > prev * (1 + _RISE):
                        relax = 1.0
                if not final:
                    if err <= _WARM_TOL or it >= warm_budget:
                        break
                elif err <= tol:
                    converged = True
                    break
                elif last:
                    break
        f, g = kern.potentials()
    return f, g, converged, err, total_iters


def _rounded_plan(c: np.ndarray, f: np.ndarray, g: np.ndarray, eps: float,
                  wa: np.ndarray, wb: np.ndarray) -> tuple[np.ndarray, float]:
    """The plan P = exp((f + g - C)/eps) a b rounded to be exactly feasible,
    and its cost; c is used as scratch and left overwritten.

    P is built once, as exp((f + eps log a + g + eps log b - C)/eps) by
    `_fill_exp`, so rows and columns of zero weight are exactly 0. With
    r = P 1, the rows scale by x = min(a / r, 1) and the columns by
    y = min(b / (P^T x), 1), and the residuals e_r = a - x (P y) and
    e_c = b - y (P^T x) come back as the rank-one patch e_r e_c^T / |e_r|_1
    (Altschuler, Weed & Rigollet 2017, Alg. 2): all vectors, from three
    matrix-vector products with P. The cost,
    sum x_i C_ij P_ij y_j + e_r^T C e_c / |e_r|_1, is summed block by block
    as the plan is scaled and patched in place. The scalings x y^T and the
    patch are formed in the cost's own block once that block's share of the
    cost is taken, so no array beside the cost and the plan is larger than a
    vector.
    """
    plan = np.empty_like(c)
    _fill_exp(plan, f + eps * _log_weights(wa), g + eps * _log_weights(wb), c, eps)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = plan @ np.ones(len(wb))
        x = np.where(r > 0, np.minimum(wa / r, 1.0), 0.0)
        col = x @ plan
        y = np.where(col > 0, np.minimum(wb / col, 1.0), 0.0)
    er = wa - x * (plan @ y)
    ec = wb - y * col
    mass = er.sum()
    patched = mass > 0
    value = er @ (c @ ec) / mass if patched else 0.0
    ec_mass = ec / mass if patched else None
    for rows, cols in _blocks(c):
        block, scratch = plan[rows, cols], c[rows, cols]
        scratch *= block
        value += x[rows] @ (scratch @ y[cols])
        np.multiply.outer(x[rows], y[cols], out=scratch)
        block *= scratch
        if patched:
            np.multiply.outer(er[rows], ec_mass[cols], out=scratch)
            block += scratch
    return plan, float(value)


def solve_sinkhorn(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec,
                   epsilon: float, max_iter: int = 5000, tol: float = 1e-9) -> TransportPlan:
    """Entropic coupling, rounded to an exactly feasible plan.

    The potentials come from `_sinkhorn_potentials`: epsilon scaling whose
    warm levels each stop once their marginal error is at most _WARM_TOL,
    then overrelaxed steps at epsilon until the error is at most tol. The
    plan they give is rounded by two diagonal scalings and a rank-one patch
    (`_rounded_plan`), so it satisfies both marginals to machine precision
    and its cost never falls below the LP optimum. The cost and the plan are
    the only plan-sized arrays held at once. A run that exhausts max_iter is
    returned with converged=False.
    """
    if mu.dim != nu.dim:
        raise MeasureError(f"cannot couple measures of dimension {mu.dim} and {nu.dim}")
    c = cost.matrix(mu.points, nu.points)
    f, g, converged, _, _ = _sinkhorn_potentials(c, mu.weights, nu.weights,
                                                 epsilon, max_iter, tol)
    gamma, value = _rounded_plan(c, f, g, epsilon, mu.weights, nu.weights)
    return TransportPlan(mu, nu, gamma, value, converged=converged)


# ---------------------------------------------------------------------------
# one-dimensional monotone (quantile) maps
# ---------------------------------------------------------------------------

def _grid_cdf_at_nodes(rho: GridDensity) -> np.ndarray:
    masses = rho.values / rho.n
    cum = np.concatenate([[0.0], np.cumsum(masses)])
    return cum[:-1] + 0.5 * masses


def _grid_quantile(rho: GridDensity, q: np.ndarray) -> np.ndarray:
    """Exact piecewise-linear inverse CDF of a 1D grid density: the least y with
    F(y) >= q, a level above the total mass (1 up to rounding) read as the total."""
    n = rho.n
    masses = rho.values / n
    cum = np.concatenate([[0.0], np.cumsum(masses)])
    q = np.clip(np.asarray(q, dtype=float), 0.0, cum[-1])
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
    x, w = atoms_1d(nu, periodic)
    return step_quantile(x, np.cumsum(w), q)


def _integrate_potential(disp: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Trapezoid integration of a 1D displacement field, 0 at the first node."""
    d = disp[:, 0]
    return np.concatenate([[0.0], np.cumsum(0.5 * (d[:-1] + d[1:]) * grid.spacing[0])])


def monotone_map_1d(mu, nu, periodic: bool = False) -> TransportMap:
    """Monotone rearrangement T = F_nu^{-1} o F_mu sampled at grid nodes.

    The source must be absolutely continuous (a grid density): an atomic
    source generally admits no deterministic coupling (Dirac counterexample).
    On the circle, level t of mu goes with level t - theta of nu, with theta
    from `measures.circle_rotation` (the one rotation search, shared with
    `wasserstein_1d`) at p = 2, on the atoms of `measures.atoms_1d`.
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
    theta = circle_rotation(*atoms_1d(mu, True), *atoms_1d(nu, True), p=2.0)
    images = wrap_unit(_quantile_of(nu, wrap_unit(q - theta), periodic))
    return TransportMap(nodes, images[:, None], route="monotone", grid=mu.grid)


# ---------------------------------------------------------------------------
# Brenier maps from entropic dual potentials
# ---------------------------------------------------------------------------

def _cell_atoms(rho: GridDensity) -> tuple[np.ndarray, np.ndarray]:
    """Every cell of a grid density as an atom: the cell centres along one
    axis, and the row-major cell weights, zero-mass cells included, as
    `GridDensity.as_discrete` weighs the cells it keeps."""
    w = rho.cell_masses()
    return (np.arange(rho.n) + 0.5) / rho.n, w / w.sum()


def brenier_map(mu: GridDensity, nu, reg_epsilon: float) -> TransportMap:
    """Quadratic-cost optimal map on a box chart via the entropic dual.

    The images are the analytic gradient of the convex log-partition
    potential (the conditional mean of the entropic plan), so the map is
    cyclically monotone to machine precision. The potential is psi = f(x_0) - f
    for the solve's source potential f: f is the soft c-transform of the
    target potential g, so |x|^2/2 + psi = eps log sum_j b_j
    exp((x.y_j + g_j - |y_j|^2/2)/eps) + const is a log-sum-exp of affine
    functions, convex, with gradient the image T(x) = x + grad psi(x).

    The source keeps every cell, zero-mass cells with weight 0, so the plan
    has a row for every node. A 2D grid-density target keeps every cell
    likewise; the cost 1/2 |x - y|^2 is then the sum of its two per-axis
    costs, and the solve runs on the (2, n, m) stack of them
    (`_StabilisedKernel`): O(n^2) memory and O(n^3) time per step for n^2
    source and m^2 target cells, unless the potentials' non-separable rest
    is too large for the factors. Any other target (scattered atoms, or a 1D
    grid as its atoms) gives the (N, M) cost, and the cost and the kernel
    are the two cost-sized arrays held.

    The projection reuses the kernel: with the solve's potentials absorbed
    into a fresh K and z = v b, image_a = (K (z y_a)) / (K z).
    """
    if not isinstance(mu, GridDensity):
        raise MapError("brenier_map requires an absolutely continuous (grid) source")
    if mu.dim != nu.dim:
        raise MapError(f"cannot map a measure of dimension {mu.dim} to dimension {nu.dim}")
    nodes = mu.nodes()
    x, a = _cell_atoms(mu)
    if isinstance(nu, GridDensity) and nu.dim == 2:
        y, b = _cell_atoms(nu)
        c = np.stack([0.5 * np.subtract.outer(x, y) ** 2] * 2)
        pts = np.column_stack([p.ravel() for p in np.meshgrid(y, y, indexing="ij")])
    else:
        tgt = nu.as_discrete()
        b, pts = tgt.weights, tgt.points
        c = CostSpec("sqdist", periodic=False).matrix(nodes, pts)
        c *= 0.5  # in place: scaling by a power of two is exact
    f, g, converged, err, iters = _sinkhorn_potentials(c, a, b, reg_epsilon,
                                                       max_iter=4000, tol=1e-10)
    if not converged:
        raise SolverError(f"Brenier Sinkhorn solve did not converge in {iters} iterations "
                          f"(marginal error {err:.3e} > 1e-10)")
    kern = _StabilisedKernel(c, a, b)
    with np.errstate(over="ignore"):  # as in the solve
        kern.absorb(f, g, reg_epsilon)
    z = kern.v * b
    images = np.column_stack([_apply(kern.k, z * ya) for ya in pts.T])
    images /= _apply(kern.k, z)[:, None]
    return TransportMap(nodes, images, psi=f[0] - f, route="brenier",
                        grid=GridSpec(mu.dim, mu.n, periodic=False))
