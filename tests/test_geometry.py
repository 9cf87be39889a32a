"""Tests for the shared grid stencil: a stack of fields is gathered with the
same arithmetic as one call per field, and the linear deposit is the exact
adjoint of interpolation. Also: torus wrapping stays inside [0, 1), every
grid-backed object builds its grid once, and pairwise distances are the
broadcast formula's, bit for bit."""
import numpy as np
import pytest

from randmap.geometry import (
    GridSpec,
    deposit_linear,
    interp_grid,
    pairwise_distance,
    wrap_signed,
    wrap_unit,
)
from randmap.lift import BoxDensity
from randmap.measures import GridDensity
from randmap.moser import MoserField, PoissonSolution
from randmap.transport import PotentialGrid

TORUS = [GridSpec(1, 16), GridSpec(2, 8)]
BOX = [GridSpec(1, 16, ((-1.0, 2.0),), periodic=False),
       GridSpec(2, 8, ((-1.0, 1.0), (0.5, 1.5)), periodic=False),
       GridSpec(3, 5, ((0.0, 1.0), (-2.0, 0.0), (1.0, 4.0)), periodic=False)]


def _points(grid, m, rng):
    """Points inside the chart and up to 20% of its width beyond each side,
    so clamped box edges and wrapped torus seams are both exercised."""
    lo = np.array([b[0] for b in grid.bounds])
    hi = np.array([b[1] for b in grid.bounds])
    return lo + (hi - lo) * (1.4 * rng.random((m, grid.dim)) - 0.2)


@pytest.mark.parametrize("grid", TORUS + BOX[:2], ids=lambda g: f"{g.dim}d-periodic={g.periodic}")
def test_stacked_interp_equals_per_field_calls(grid):
    rng = np.random.default_rng(grid.dim)
    fields = rng.normal(size=(3,) + (grid.n,) * grid.dim)
    pts = _points(grid, 300, rng)
    stacked = interp_grid(fields, pts, grid)
    assert stacked.shape == (300, 3)
    for k in range(3):
        assert np.array_equal(stacked[:, k], interp_grid(fields[k], pts, grid))


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("grid", TORUS + BOX[:2], ids=lambda g: f"{g.dim}d-periodic={g.periodic}")
def test_batched_interp_equals_per_stack_calls(grid, batch):
    rng = np.random.default_rng(20 + grid.dim)
    stacks = rng.normal(size=(batch, 3) + (grid.n,) * grid.dim)
    pts = np.stack([_points(grid, 50, rng) for _ in range(batch)])
    batched = interp_grid(stacks, pts, grid)
    assert batched.shape == (batch, 50, 3) and batched.flags.c_contiguous
    for b in range(batch):
        assert np.array_equal(batched[b], interp_grid(stacks[b], pts[b], grid))


@pytest.mark.parametrize("grid", BOX, ids=lambda g: f"{g.dim}d")
def test_linear_deposit_is_adjoint_of_interpolation(grid):
    rng = np.random.default_rng(10 + grid.dim)
    values = rng.normal(size=(grid.n,) * grid.dim)
    pts = _points(grid, 500, rng)
    weights = rng.random(500)
    lhs = np.sum(weights * interp_grid(values, pts, grid))
    rhs = np.sum(values * deposit_linear(pts, weights, grid))
    assert abs(lhs - rhs) <= 1e-12


def test_wrap_unit_never_returns_one():
    # np.mod(-1e-18, 1.0) rounds to exactly 1.0, outside the documented range
    tiny = -np.array([1e-18, 1e-17, 5e-17, 2.0 ** -60])
    wrapped = wrap_unit(tiny)
    assert np.all(wrapped == 0.0)
    assert wrap_unit(-1e-18) == 0.0
    x = np.random.default_rng(0).normal(size=1000)
    assert np.array_equal(wrap_unit(x), np.mod(x, 1.0))


def _moser_field():
    rho = GridDensity.uniform(1, 8)
    return MoserField(rho, rho, PoissonSolution(np.zeros(8), 0.0))


@pytest.mark.parametrize("make", [
    lambda: GridDensity.uniform(2, 8),
    lambda: BoxDensity(np.ones((4, 4)), ((0.0, 1.0), (-1.0, 1.0))),
    lambda: PotentialGrid(np.zeros((5, 5)), ((0.0, 1.0), (0.0, 2.0))),
    _moser_field,
], ids=["GridDensity", "BoxDensity", "PotentialGrid", "MoserField"])
def test_grid_is_built_once(make):
    obj = make()
    assert obj.grid is obj.grid


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_pairwise_distance_equals_broadcast_formula_bit_for_bit(dim, periodic):
    rng = np.random.default_rng(10 * dim + periodic)
    x, y = 3 * rng.random((40, dim)) - 1, 3 * rng.random((33, dim)) - 1
    delta = x[:, None, :] - y[None, :, :]
    if periodic:
        delta = wrap_signed(delta)
    expected = np.sqrt(np.sum(delta * delta, axis=-1))
    assert np.array_equal(pairwise_distance(x, y, periodic=periodic), expected)
