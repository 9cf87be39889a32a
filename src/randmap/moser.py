"""Moser coupling on the flat torus [0,1)^dim.

Pipeline: spectral periodic Poisson solve for lap(u) = rho0 - rho1, the
time-dependent field xi(t,x) = grad u(x) / ((1-t) rho0(x) + t rho1(x)), the
time-1 map of every grid node, plus the diffeomorphism check (the exact
minimum Jacobian determinant of the interpolated time-1 map).

In 1D the flux rho_t xi is constant in t, so the time-1 map has a closed
form (`_closed_form`). RK4 with step doubling is the 2D engine (written for
any dimension). The field is the multilinear interpolant of grid values,
whose derivative jumps at cell faces, so RK4 on it converges at about 2nd
order, not 4th. The step count is therefore chosen by step doubling
(Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4): integrate with s and
2s steps from s = MIN_STEPS and accept the 2s solution once the largest
wrapped node deviation between the two is at most FLOW_TOL * h (h = 1/n);
otherwise the 2s solution becomes the coarse one and s doubles, up to
MAX_STEPS_PER_CELL * n. A checkpoint at t is a side step off the accepted
run, so it never moves the time-1 map.

A kernel family's maps all start from the same uniform density on the same
grid, so both engines take only batches, and one coupling is a batch of
one. The RK4 loop moves every map's nodes, with one interpolation gather
per cell corner; each map keeps its own step doubling and blow-up guard.
Either way each map gets bit for bit the images, step count and estimate
it would get alone.

The discrete calculus (Laplacian, gradient, divergence) is spectral
throughout: that is what makes the continuity identity
d/dt rho_t + div(rho_t xi) = 0 hold at machine precision on the grid.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import GridSpec, interp_grid, wrap_signed, wrap_unit
from .measures import MEAN_TOL, GridDensity, grid_pushforward, wasserstein_1d
from .transport import TransportMap

POISSON_RESIDUAL_TOL = 1e-8
ZERO_MEAN_TOL = 2 * MEAN_TOL  # the means of two valid densities differ by up to this
MIN_DENSITY = 1e-3
MIN_STEPS = 16
FLOW_TOL = 1e-3  # step-doubling tolerance on the node estimate, in cells
MAX_STEPS_PER_CELL = 64  # step-doubling cap: 64 n steps


class MoserError(ValueError):
    """Moser-coupling precondition violated (positivity, mean, unresolved flow)."""


def _wavenumbers(shape: tuple[int, ...]) -> list[np.ndarray]:
    """Integer Fourier mode grids for each axis of a unit-torus field."""
    axes = [np.fft.fftfreq(n, d=1.0 / n) for n in shape]
    return list(np.meshgrid(*axes, indexing="ij"))


def spectral_laplacian(values: np.ndarray) -> np.ndarray:
    ks = _wavenumbers(values.shape)
    lam = -(2.0 * np.pi) ** 2 * sum(k * k for k in ks)
    return np.real(np.fft.ifftn(lam * np.fft.fftn(values)))


def spectral_gradient(values: np.ndarray) -> list[np.ndarray]:
    ks = _wavenumbers(values.shape)
    vhat = np.fft.fftn(values)
    return [np.real(np.fft.ifftn(2j * np.pi * k * vhat)) for k in ks]


def spectral_divergence(components: list[np.ndarray]) -> np.ndarray:
    ks = _wavenumbers(components[0].shape)
    out = np.zeros(components[0].shape, dtype=complex)
    for k, comp in zip(ks, components):
        out += 2j * np.pi * k * np.fft.fftn(comp)
    return np.real(np.fft.ifftn(out))


@dataclass(frozen=True)
class PoissonSolution:
    """Zero-mean solution of the periodic Poisson equation with its residual."""

    u: np.ndarray
    residual: float


def solve_poisson_periodic(source: np.ndarray) -> PoissonSolution:
    """Solve lap(u) = source on the torus by Fourier division, zero-mean gauge.

    The source must have zero mean (solvability); the reported residual is
    the sup norm of lap(u) - source under the spectral Laplacian and must
    come out at machine precision.
    """
    src = np.asarray(source, dtype=float)
    if abs(src.mean()) > ZERO_MEAN_TOL:
        raise MoserError(f"source mean {src.mean():.3e} exceeds {ZERO_MEAN_TOL}; "
                         "no periodic solution exists")
    ks = _wavenumbers(src.shape)
    lam = -(2.0 * np.pi) ** 2 * sum(k * k for k in ks)
    shat = np.fft.fftn(src)
    with np.errstate(divide="ignore", invalid="ignore"):
        uhat = np.where(lam != 0, shat / np.where(lam != 0, lam, 1.0), 0.0)
    u = np.real(np.fft.ifftn(uhat))
    u = u - u.mean()
    residual = float(np.abs(spectral_laplacian(u) - src).max())
    if residual > POISSON_RESIDUAL_TOL:
        raise MoserError(f"Poisson residual {residual:.3e} exceeds {POISSON_RESIDUAL_TOL}")
    return PoissonSolution(u, residual)


@dataclass(frozen=True)
class MoserField:
    """Time-dependent velocity field of the density interpolation.

    xi(t, x) = grad u(x) / ((1-t) rho0(x) + t rho1(x)); the denominator is
    bounded below by min(min rho0, min rho1) for all t in [0, 1]. moser_map
    builds it once both densities pass its checks (one grid, min >= MIN_DENSITY);
    the Poisson solve and the gradient stack wait until first read.
    """

    rho0: GridDensity
    rho1: GridDensity

    @cached_property
    def grid(self) -> GridSpec:
        return self.rho0.grid

    @cached_property
    def poisson(self) -> PoissonSolution:
        return solve_poisson_periodic(self.rho0.values - self.rho1.values)

    @cached_property
    def stack(self) -> np.ndarray:
        """grad u, rho0 and rho1 as (dim + 2, n, ...): one gather per velocity."""
        return np.stack([*spectral_gradient(self.poisson.u), self.rho0.values, self.rho1.values])


@dataclass(frozen=True)
class FlowMap:
    """Time-1 transport map of the Moser flow with integrator metadata.

    flow_error is, in 1D (closed form, steps 0), the certified node bound
    max_i |G(T_i) - F(x_i) - s| / min(rho1), since G' >= min rho1; in 2D the
    accepted step-doubling estimate, which is not a bound. pushforward_error
    is a 1D map's circle W1 from `grid_pushforward` of rho0 to rho1, which
    the continuous family build checks; a 2D map carries None. field_ref is
    the map's field, whose Poisson solve a 1D build never reads. checkpoints
    maps each time t to the wrapped node positions at t: closed form in 1D,
    a side step off the accepted run in 2D (`_checkpoints`)."""

    map: TransportMap
    steps: int
    flow_error: float
    checkpoints: dict = field(default_factory=dict)
    pushforward_error: float | None = None
    field_ref: MoserField | None = None

    def __call__(self, x) -> np.ndarray:
        return self.map(x)


def _velocity(stacks: np.ndarray, grid: GridSpec, t: float, pts: np.ndarray) -> np.ndarray:
    """xi(t, x) for a batch of fields: interpolate grad u and both densities, then divide."""
    vals = interp_grid(stacks, pts, grid)
    dim = grid.dim
    denom = (1.0 - t) * vals[..., dim] + t * vals[..., dim + 1]
    return vals[..., :dim] / denom[..., None]


def integrate_flow(fields: Sequence[MoserField], x0: np.ndarray, t0: float, t1: float,
                   steps: int) -> np.ndarray:
    """Classical RK4 on dx/dt = xi(t, x) for B fields on one grid, all in one loop.

    x0 has shape (B, m, dim), or (m, dim) for one start that every field
    shares, and row b moves by field b, bit for bit as if it ran alone. A map
    whose step moves a node more than half the domain leaves the batch and
    its row comes back NaN. Returns the positions.
    """
    pos = np.array(np.broadcast_to(x0, (len(fields),) + np.shape(x0)[-2:]), dtype=float)
    out = np.full_like(pos, np.nan)
    live = np.arange(len(fields))
    stacks = np.stack([fld.stack for fld in fields])
    grid = fields[0].grid
    dt = (t1 - t0) / steps
    for k in range(steps):
        if not live.size:
            break
        t = t0 + k * dt
        k1 = _velocity(stacks, grid, t, pos)
        k2 = _velocity(stacks, grid, t + 0.5 * dt, pos + 0.5 * dt * k1)
        k3 = _velocity(stacks, grid, t + 0.5 * dt, pos + 0.5 * dt * k2)
        k4 = _velocity(stacks, grid, t + dt, pos + dt * k3)
        delta = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        blown = np.abs(delta).max(axis=(1, 2)) > 0.5
        if blown.any():
            keep = ~blown
            live, stacks, pos, delta = live[keep], stacks[keep], pos[keep], delta[keep]
        pos = pos + delta
    out[live] = pos
    return out


def flow_tolerance(n: int) -> float:
    """Step-doubling tolerance on the node estimate for an n-cell grid: FLOW_TOL * h."""
    return FLOW_TOL / n


def _checkpoints(fields: Sequence[MoserField], nodes: np.ndarray, steps: int,
                 times: list[float]) -> list[dict]:
    """Per map accepted at `steps` steps, its wrapped positions at each
    checkpoint time t: the first k = floor(t * steps) steps of its time-1
    run, bit for bit, then one RK4 step of size t - k / steps."""
    marks, x, done = [{} for _ in fields], nodes, 0
    for t in times if fields else ():  # no map accepted, no run to step off
        k = int(t * steps)
        if k > done:
            x, done = integrate_flow(fields, x, done / steps, k / steps, k - done), k
        for row, pos in zip(marks, wrap_unit(integrate_flow(fields, x, k / steps, t, 1))):
            row[t] = pos
    return marks


def _moser_field(rho0: GridDensity, rho1: GridDensity) -> MoserField:
    """Check one coupling's densities (one grid, both >= MIN_DENSITY) and build its field."""
    if rho0.n != rho1.n or rho0.dim != rho1.dim:
        raise MoserError("densities must share one grid")
    for name, rho in (("rho0", rho0), ("rho1", rho1)):
        if rho.min_value < MIN_DENSITY:
            raise MoserError(f"{name} violates strict positivity: "
                             f"min {rho.min_value:.2e} < {MIN_DENSITY}")
    fld = MoserField(rho0, rho1)
    if fld.grid.dim > 1:
        fld.stack  # RK4 reads it: a failed solve is this coupling's MoserError
    return fld


def _pl_masses(values: np.ndarray) -> np.ndarray:
    """Mass from node 0 to nodes 0..n of the periodic piecewise-linear
    interpolant of each row of values (B, n)."""
    seg = (values + np.roll(values, -1, axis=1)) / (2 * values.shape[1])
    return np.concatenate([np.zeros((len(values), 1)), np.cumsum(seg, axis=1)], axis=1)


def _pl_inverse(values: np.ndarray, levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """y = G^-1(levels) and G(y) - levels per row, for G the lifted CDF from node 0
    of the interpolant of each row of values (B, n), and levels (B, m): the node
    masses give each level's segment, and a stable quadratic root its place there."""
    n = values.shape[1]
    at_node = _pl_masses(values)
    turns = np.floor(levels / at_node[:, -1:])
    rest = levels - turns * at_node[:, -1:]
    k = np.stack([np.searchsorted(c, r, side="right") for c, r in zip(at_node, rest)])
    k = np.clip(k - 1, 0, n - 1)
    a, b = np.take_along_axis(values, k, axis=1), np.take_along_axis(values, (k + 1) % n, axis=1)
    below = turns * at_node[:, -1:] + np.take_along_axis(at_node, k, axis=1)
    q = (levels - below) * n
    f = 2 * q / (a + np.sqrt(a * a + 2 * (b - a) * q))
    residual = below + (a * f + (b - a) * f * f / 2) / n - levels
    return turns + (k + 0.5 + f) / n, residual  # node i sits at (i + 1/2) / n


def _closed_form(fields: list[MoserField], times: list[float]) -> list:
    """The maps of a batch of 1D fields, as _flows returns them, with no RK4.

    The flux J = rho_t xi is constant in t with zero mean, so G_t(X_t) - t J(0)
    is constant along a trajectory, where G_t is the CDF of (1-t) rho0 + t rho1
    and J(0) = s = int (G - F) over a period (Simpson's rule per piece is exact
    for CDFs quadratic there): X_t(x_i) = G_t^-1(F(x_i) + t s). The estimate
    is the certified node bound that FlowMap describes.
    """
    rho0 = np.stack([fld.rho0.values for fld in fields])
    rho1 = np.stack([fld.rho1.values for fld in fields])
    n = rho0.shape[1]
    start, end = _pl_masses(rho0)[:, :-1], _pl_masses(rho1)[:, :-1]
    shift = np.sum((end - start) / n + (2 * (rho1 - rho0) + np.roll(rho1 - rho0, -1, axis=1))
                   / (6 * n * n), axis=1, keepdims=True)
    x, residual = _pl_inverse(rho1, start + shift)
    marks = {t: wrap_unit(_pl_inverse((1 - t) * rho0 + t * rho1, start + t * shift)[0])
             for t in times}
    bound = np.abs(residual).max(axis=1) / rho1.min(axis=1)
    return [(0, x[b, :, None], {t: pos[b, :, None] for t, pos in marks.items()},
             float(bound[b])) for b in range(len(fields))]


def _flows(fields: list[MoserField], times: list[float]) -> list:
    """Integrate a batch of fields on one grid from its nodes to t=1 by RK4.

    Returns per field (steps, time-1 positions, checkpoint marks, estimate)
    or the MoserError its flow ended in. Step doubling runs as the module
    describes, each map on its own (a trial in which it blows up counts as
    unresolved): a resolved map leaves the batch and the rest double, so each
    gets the steps, positions and estimate it would get alone, or the error
    of a map still unresolved at the cap.
    """
    n = fields[0].grid.n
    nodes = fields[0].grid.nodes()
    tol, cap = flow_tolerance(n), MAX_STEPS_PER_CELL * n
    out = [None] * len(fields)
    live = list(range(len(fields)))
    steps = MIN_STEPS
    coarse = integrate_flow(fields, nodes, 0.0, 1.0, steps)
    estimate = np.full(len(fields), np.inf)
    while live and 2 * steps <= cap:
        steps *= 2
        fine = integrate_flow([fields[i] for i in live], nodes, 0.0, 1.0, steps)
        estimate = np.abs(wrap_signed(fine - coarse)).max(axis=(1, 2))
        estimate[np.isnan(estimate)] = np.inf
        done = estimate <= tol
        hits = np.flatnonzero(done)
        marks = _checkpoints([fields[live[b]] for b in hits], nodes, steps, times)
        for b, row_marks in zip(hits, marks):
            out[live[b]] = (steps, fine[b], row_marks, float(estimate[b]))
        live = [i for i, d in zip(live, done) if not d]
        coarse, estimate = fine[~done], estimate[~done]
    for i, est in zip(live, estimate):
        out[i] = MoserError(f"flow not resolved at the cap of {steps} steps: doubling "
                            f"estimate {est:.3e} exceeds {tol:.3e}")
    return out


def _flow_map(fld: MoserField, flow) -> FlowMap | MoserError:
    """The FlowMap of one integrated field, or the MoserError its flow ended in."""
    if isinstance(flow, MoserError):
        return flow
    steps, x, marks, flow_error = flow
    grid = fld.grid
    tmap = TransportMap(grid.nodes(), wrap_unit(x), route="moser", grid=grid)
    err = (wasserstein_1d(grid_pushforward(tmap, fld.rho0), fld.rho1, p=1, periodic=True)
           if grid.dim == 1 else None)
    return FlowMap(tmap, steps=steps, flow_error=flow_error, checkpoints=marks,
                   pushforward_error=err, field_ref=fld)


def moser_map(rho0: GridDensity, rho1: GridDensity | Sequence[GridDensity],
              checkpoints: tuple[float, ...] = ()) -> FlowMap | list:
    """Deterministic coupling of rho0 and rho1 by the time-1 Moser flow.

    Both densities must be strictly positive (min >= 1e-3) on a common grid.
    A 1D map and its checkpoints are in closed form (steps 0), from the
    densities alone: a 1D build runs no Poisson solve and no FFT. In 2D the
    RK4 step count is chosen by step doubling from MIN_STEPS until the node
    estimate is at most FLOW_TOL * h; past MAX_STEPS_PER_CELL * n steps it
    raises MoserError. Checkpoints are side steps off the accepted run (see
    FlowMap): they change neither the images, the steps nor `flow_error`, a
    node bound in 1D and an estimate in 2D. A 1D map always records its
    circle W1 from `grid_pushforward` of rho0 to rho1 as its pushforward
    error, which the continuous family build checks rather than taking it
    again. A 2D map records None: in 2D only the dense entropic upper bound
    is available, and it is too slow to run per map.

    rho1 may also be a sequence of targets, such as a kernel family's. Their
    maps are built as one batch (one RK4 loop over every map's nodes in 2D),
    and each map keeps the step count, images and estimate it would get
    alone. The result is then a list with, per target, its FlowMap or the
    MoserError it ended in: a density check, a failed Poisson solve (2D)
    or unresolved doubling. `checkpoints` are checked once, before any
    target; a bad value raises MoserError.
    """
    single = isinstance(rho1, GridDensity)
    times = sorted(set(checkpoints))
    if any(not 0.0 < t < 1.0 for t in times):
        raise MoserError("checkpoints must lie strictly inside (0, 1)")
    built = []
    for target in ([rho1] if single else rho1):
        try:
            built.append(_moser_field(rho0, target))
        except MoserError as exc:
            built.append(exc)
    fields = [f for f in built if isinstance(f, MoserField)]
    engine = _closed_form if rho0.dim == 1 else _flows
    flows = iter(engine(fields, times) if fields else [])
    out = [f if isinstance(f, MoserError) else _flow_map(f, next(flows)) for f in built]
    if not single:
        return out
    if isinstance(out[0], MoserError):
        raise out[0]
    return out[0]


def jacobian_min(flow: FlowMap | TransportMap) -> float:
    """Exact minimum of det Df, f(x) = x + the multilinear interpolant of
    D = wrap_signed(images - points), the map `TransportMap.evaluate` computes.

    On the 1D cell from node i to i + 1, det Df = 1 + n (D_{i+1} - D_i). A 2D
    cell's map is bilinear, so det Df is affine in the cell coordinates and
    least at a corner: the cross product of the two forward edges that meet
    there. A positive value certifies that f folds nowhere; the identity
    reads exactly 1.0.
    """
    tmap = flow.map if isinstance(flow, FlowMap) else flow
    if not tmap.grid.periodic:
        raise MoserError("jacobian_min expects a torus-grid map")
    n, dim = tmap.grid.n, tmap.grid.dim
    disp = wrap_signed(tmap.images - tmap.points).T.reshape((dim,) + (n,) * dim)
    # edge[b][a]: component a of the forward edge along axis b, in units of 1/n
    edge = [[float(a == b) + n * (np.roll(disp[a], -1, axis=b) - disp[a]) for a in range(dim)]
            for b in range(dim)]
    if dim == 1:
        return float(edge[0][0].min())
    # the cell from node (i, j) is bounded by edge[0] at rows j and j + 1
    # and by edge[1] at columns i and i + 1
    s_edges = (edge[0], [np.roll(c, -1, axis=1) for c in edge[0]])
    t_edges = (edge[1], [np.roll(c, -1, axis=0) for c in edge[1]])
    return float(min((s[0] * t[1] - s[1] * t[0]).min() for s in s_edges for t in t_edges))


def continuity_residual(fld: MoserField, t: float) -> float:
    """Sup-norm of d/dt rho_t + div(rho_t xi) at grid nodes (spectral div).

    This is the algebraic identity behind the construction: rho_t xi equals
    grad u pointwise, so the residual reduces to the Poisson residual.
    """
    if not 0.0 <= t <= 1.0:
        raise MoserError(f"time {t} outside [0, 1]")
    denom = (1.0 - t) * fld.rho0.values + t * fld.rho1.values
    xi = [g / denom for g in fld.stack[:fld.grid.dim]]
    flux = [denom * comp for comp in xi]
    div = spectral_divergence(list(flux))
    dt_rho = fld.rho1.values - fld.rho0.values
    return float(np.abs(dt_rho + div).max())
