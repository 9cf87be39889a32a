"""Moser coupling on the flat torus [0,1)^dim.

Pipeline: spectral periodic Poisson solve for lap(u) = rho0 - rho1, the
time-dependent field xi(t,x) = grad u(x) / ((1-t) rho0(x) + t rho1(x)),
classical 4th-order integration of every grid node to t=1, plus the
diffeomorphism proxy (minimum Jacobian determinant of the time-1 map).

The discrete calculus (Laplacian, gradient, divergence) is spectral
throughout: that is what makes the continuity identity
d/dt rho_t + div(rho_t xi) = 0 hold at machine precision on the grid.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import GridSpec, interp_grid, wrap_signed, wrap_unit
from .measures import GridDensity, grid_pushforward, wasserstein_1d
from .transport import TransportMap

POISSON_RESIDUAL_TOL = 1e-8
ZERO_MEAN_TOL = 1e-10
MIN_DENSITY = 1e-3
MIN_STEPS = 16


class MoserError(ValueError):
    """Moser-coupling precondition violated (positivity, mean, blow-up)."""


def _wavenumbers(shape: tuple[int, ...]) -> list[np.ndarray]:
    """Integer Fourier mode grids for each axis of a unit-torus field."""
    axes = [np.fft.fftfreq(n, d=1.0 / n) for n in shape]
    if len(shape) == 1:
        return [axes[0]]
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

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))


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
    bounded below by min(min rho0, min rho1) for all t in [0, 1].
    """

    rho0: GridDensity
    rho1: GridDensity
    poisson: PoissonSolution
    grad_u: tuple = field(init=False, default=())
    # grad u components, rho0 and rho1 stacked as (dim + 2, n, ...): every
    # velocity evaluation is one gather through one interpolation stencil
    stack: np.ndarray = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if self.rho0.n != self.rho1.n or self.rho0.dim != self.rho1.dim:
            raise MoserError("densities must share one grid")
        floor = min(self.rho0.min_value, self.rho1.min_value)
        if floor <= 0.0:
            raise MoserError(f"field denominator not positive (min density {floor})")
        grad_u = tuple(spectral_gradient(self.poisson.u))
        object.__setattr__(self, "grad_u", grad_u)
        object.__setattr__(self, "stack",
                           np.stack(grad_u + (self.rho0.values, self.rho1.values)))

    @cached_property
    def grid(self) -> GridSpec:
        return self.rho0.grid

    def velocity(self, t: float, pts: np.ndarray) -> np.ndarray:
        """Multilinear interpolation of grad u and the densities, then the ratio."""
        vals = interp_grid(self.stack, pts, self.grid)
        dim = self.rho0.dim
        denom = (1.0 - t) * vals[:, dim] + t * vals[:, dim + 1]
        return vals[:, :dim] / denom[:, None]


@dataclass(frozen=True)
class FlowMap:
    """Time-1 transport map of the Moser flow with integrator metadata."""

    map: TransportMap
    steps: int
    checkpoints: dict = field(default_factory=dict)
    pushforward_error: float | None = None
    field_ref: MoserField | None = None

    def __post_init__(self):
        if self.steps < MIN_STEPS:
            raise MoserError(f"step count {self.steps} below minimum {MIN_STEPS}")
        img = self.map.images
        if np.any(img < 0.0) or np.any(img >= 1.0):
            raise MoserError("flow images must be wrapped to [0,1)^dim")

    def evaluate(self, x) -> np.ndarray:
        return self.map.evaluate(x)


def integrate_flow(fld: MoserField, x0: np.ndarray, t0: float, t1: float,
                   steps: int) -> np.ndarray:
    """Classical RK4 on dx/dt = xi(t, x); rejects steps that jump too far."""
    x = np.array(x0, dtype=float)
    dt = (t1 - t0) / steps
    for k in range(steps):
        t = t0 + k * dt
        k1 = fld.velocity(t, x)
        k2 = fld.velocity(t + 0.5 * dt, x + 0.5 * dt * k1)
        k3 = fld.velocity(t + 0.5 * dt, x + 0.5 * dt * k2)
        k4 = fld.velocity(t + dt, x + dt * k3)
        delta = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if np.abs(delta).max() > 0.5:
            raise MoserError(f"flow blow-up at step {k}: displacement "
                             f"{np.abs(delta).max():.3f} exceeds half the domain")
        x = x + delta
    return x


def moser_map(rho0: GridDensity, rho1: GridDensity, steps: int | None = None,
              checkpoints: tuple[float, ...] = (),
              check_pushforward: bool = True) -> FlowMap:
    """Deterministic coupling of rho0 and rho1 by the time-1 Moser flow.

    Both densities must be strictly positive (min >= 1e-3) on a common grid.
    With check_pushforward (the default), a 1D map records the exact circle
    W1(T_* rho0, rho1) as its pushforward error; False skips that check. A
    2D map always records None: in 2D only the dense entropic upper bound is
    available, and it is too slow to run per map.
    """
    if rho0.n != rho1.n or rho0.dim != rho1.dim:
        raise MoserError("densities must share one grid")
    for name, rho in (("rho0", rho0), ("rho1", rho1)):
        if rho.min_value < MIN_DENSITY:
            raise MoserError(f"{name} violates strict positivity: "
                             f"min {rho.min_value:.2e} < {MIN_DENSITY}")
    n, dim = rho0.n, rho0.dim
    if steps is None:
        steps = 4 * n
    if steps < MIN_STEPS:
        raise MoserError(f"step count {steps} below minimum {MIN_STEPS}")
    source = rho0.values - rho1.values
    if np.abs(source).max() == 0.0:
        fld = MoserField(rho0, rho1, PoissonSolution(np.zeros_like(source), 0.0))
    else:
        fld = MoserField(rho0, rho1, solve_poisson_periodic(source))
    grid = fld.grid
    nodes = grid.nodes()
    marks = {}
    x = nodes
    t_prev = 0.0
    for t_mark in sorted(set(checkpoints)):
        if not 0.0 < t_mark < 1.0:
            raise MoserError("checkpoints must lie strictly inside (0, 1)")
        seg = max(1, round(steps * (t_mark - t_prev)))
        x = integrate_flow(fld, x, t_prev, t_mark, seg)
        marks[t_mark] = wrap_unit(x)
        t_prev = t_mark
    seg = max(1, round(steps * (1.0 - t_prev)))
    x = integrate_flow(fld, x, t_prev, 1.0, seg)
    tmap = TransportMap(nodes, wrap_unit(x), route="moser", grid=grid)
    err = None
    if check_pushforward and dim == 1:
        err = wasserstein_1d(grid_pushforward(tmap, rho0), rho1, p=1, periodic=True)
    return FlowMap(tmap, steps=steps, checkpoints=marks, pushforward_error=err,
                   field_ref=fld)


def jacobian_min(flow: FlowMap | TransportMap) -> float:
    """Minimum determinant of the centered-difference Jacobian of the map.

    Image differences are unwrapped to the nearest lift so the periodic seam
    does not produce spurious +-1 jumps. Positive values certify the
    local-diffeomorphism proxy.
    """
    tmap = flow.map if isinstance(flow, FlowMap) else flow
    if not tmap.grid.periodic:
        raise MoserError("jacobian_min expects a torus-grid map")
    n, dim = tmap.grid.n, tmap.grid.dim
    h = 1.0 / n
    shape = (n,) * dim
    comps = [tmap.images[:, a].reshape(shape) for a in range(dim)]
    if dim == 1:
        f = comps[0]
        d = wrap_signed(np.roll(f, -1) - np.roll(f, 1)) / (2 * h)
        return float(d.min())
    j = np.empty((dim, dim) + shape)
    for a in range(dim):
        for b in range(dim):
            rolled = wrap_signed(np.roll(comps[a], -1, axis=b) - np.roll(comps[a], 1, axis=b))
            j[a, b] = rolled / (2 * h)
    det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
    return float(det.min())


def interpolate_density(rho0: GridDensity, rho1: GridDensity, t: float) -> GridDensity:
    """Linear density interpolation rho_t = (1-t) rho0 + t rho1."""
    if not 0.0 <= t <= 1.0:
        raise MoserError(f"interpolation time {t} outside [0, 1]")
    if rho0.n != rho1.n or rho0.dim != rho1.dim:
        raise MoserError("densities must share one grid")
    return GridDensity(rho0.dim, rho0.n, (1.0 - t) * rho0.values + t * rho1.values)


def continuity_residual(fld: MoserField, t: float) -> float:
    """Sup-norm of d/dt rho_t + div(rho_t xi) at grid nodes (spectral div).

    This is the algebraic identity behind the construction: rho_t xi equals
    grad u pointwise, so the residual reduces to the Poisson residual.
    """
    if not 0.0 <= t <= 1.0:
        raise MoserError(f"time {t} outside [0, 1]")
    denom = (1.0 - t) * fld.rho0.values + t * fld.rho1.values
    xi = [g / denom for g in fld.grad_u]
    flux = [denom * comp for comp in xi]
    div = spectral_divergence(list(flux))
    dt_rho = fld.rho1.values - fld.rho0.values
    return float(np.abs(dt_rho + div).max())
