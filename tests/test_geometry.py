"""Tests for the shared grid stencil: a stack of fields is gathered with the
same arithmetic as one call per field, the flat gather returns what a
multi-array fancy-index gather returns, bit for bit, and the linear deposit
is the exact adjoint of interpolation. Also: torus wrapping stays inside
[0, 1) and equals np.mod bit for bit, signed wrapping is exact (x minus the
result is an integer, and the result lies in [-1/2, 1/2)), every
grid-backed object builds its grid once, pairwise distances are the
broadcast formula's, bit for bit and longer axis contiguous (in 1D the
absolute delta, also where its square underflows), and a scaled cost
matrix is the cost itself unless its largest entry is below 1."""
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from randmap.geometry import (
    CostSpec,
    GridSpec,
    _stencil,
    interp_grid,
    pairwise_distance,
    wrap_signed,
    wrap_unit,
)
from randmap.measures import GridDensity
from randmap.moser import MoserField

from oracles import BoxDensity, PotentialGrid, deposit_linear

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
    stacked = interp_grid(fields[None], pts[None], grid)[0]
    assert stacked.shape == (300, 3)
    for k in range(3):
        alone = interp_grid(fields[None, k:k + 1], pts[None], grid)[0, :, 0]
        assert np.array_equal(stacked[:, k], alone)


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("grid", TORUS + BOX[:2], ids=lambda g: f"{g.dim}d-periodic={g.periodic}")
def test_batched_interp_equals_per_stack_calls(grid, batch):
    rng = np.random.default_rng(20 + grid.dim)
    stacks = rng.normal(size=(batch, 3) + (grid.n,) * grid.dim)
    pts = np.stack([_points(grid, 50, rng) for _ in range(batch)])
    batched = interp_grid(stacks, pts, grid)
    assert batched.shape == (batch, 50, 3) and batched.flags.c_contiguous
    for b in range(batch):
        assert np.array_equal(batched[b], interp_grid(stacks[b:b + 1], pts[b:b + 1], grid)[0])


def _fancy_index_interp(values, points, grid):
    """Reference gather: one multi-array fancy index per stencil corner, its
    per-axis indices unravelled from the corner's flat index, with a
    (k, B) + (n,)*dim view of the batch, then a transpose to points first."""
    values = np.asarray(values, dtype=float).swapaxes(0, 1)
    batch = np.arange(len(points))[:, None]
    out = None
    for cell, weight in _stencil(points, grid):
        index = np.unravel_index(cell, (grid.n,) * grid.dim)
        term = weight * values[(Ellipsis, batch) + index]
        out = term if out is None else out + term
    return np.ascontiguousarray(out.transpose(1, 2, 0))


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("shape", ["field", "stack", "batch1", "batch4"])
@pytest.mark.parametrize("grid", TORUS + BOX[:2], ids=lambda g: f"{g.dim}d-periodic={g.periodic}")
def test_flat_gather_equals_fancy_index_gather(grid, shape):
    rng = np.random.default_rng(30 + grid.dim + 2 * grid.periodic)
    nodes = (grid.n,) * grid.dim
    if shape == "field":  # one field, as a batch of one stack of one
        values, pts = rng.normal(size=(1, 1) + nodes), _points(grid, 200, rng)[None]
    elif shape == "stack":  # one stack, as a batch of one
        values, pts = rng.normal(size=(1, 3) + nodes), _points(grid, 200, rng)[None]
    else:
        batch = int(shape[-1])
        values = rng.normal(size=(batch, 3) + nodes)
        pts = np.stack([_points(grid, 60, rng) for _ in range(batch)])
    got = interp_grid(values, pts, grid)
    assert got.flags.c_contiguous
    assert _same_bits(got, _fancy_index_interp(values, pts, grid))


@pytest.mark.parametrize("grid", BOX, ids=lambda g: f"{g.dim}d")
def test_linear_deposit_is_adjoint_of_interpolation(grid):
    rng = np.random.default_rng(10 + grid.dim)
    values = rng.normal(size=(grid.n,) * grid.dim)
    pts = _points(grid, 500, rng)
    weights = rng.random(500)
    lhs = np.sum(weights * interp_grid(values[None, None], pts[None], grid)[0, :, 0])
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


def _wrap_unit_by_mod(x):
    y = np.mod(x, 1.0)
    return np.where(y == 1.0, 0.0, y)


def _wraps_exactly(x: float, r: float) -> bool:
    """In exact rationals: x - r is an integer and -1/2 <= r < 1/2."""
    (xn, xd), (rn, rd) = x.as_integer_ratio(), r.as_integer_ratio()
    return (xn * rd - rn * xd) % (xd * rd) == 0 and -rd <= 2 * rn < rd


def _assert_wraps_match_oracles(x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    assert _same_bits(np.atleast_1d(wrap_unit(x)), _wrap_unit_by_mod(x))
    signed = np.atleast_1d(wrap_signed(x)).tolist()
    assert [v for v, r in zip(x.tolist(), signed) if not _wraps_exactly(v, r)] == []


_WRAP_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-18, -1e-18,
               -5.6e-17, 1.0, -1.0, 0.5, -0.5, 1.5, -1.5, 1 - 2.0 ** -53, -(1 - 2.0 ** -53),
               1 + 2.0 ** -52, -(1 + 2.0 ** -52), 2.0 ** 52 + 0.5, -(2.0 ** 52 + 0.5), 2.0 ** 52 - 0.5,
               -(2.0 ** 52 - 0.5), 2.0 ** 53, -(2.0 ** 53), 1e300, -1e300, 1.7976931348623157e308,
               -1.7976931348623157e308]


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(-5e-324)
@example(-(1 - 2.0 ** -53))
@example(-(2.0 ** 52 - 0.5))
@example(0.49999999999999994)  # x + 0.5 rounds to 1.0
@example(1e-20)  # x + 0.5 rounds to 0.5
@example(2.0 ** 52 + 1)  # x + 0.5 rounds to the even 2^52 + 2
def test_wraps_match_their_oracles(x):
    # independent references: for wrap_unit signed zeros and subnormals
    # count, since the comparison is on the bits; wrap_signed is checked in
    # exact rationals, so a low bit it drops (1e-20 -> 0.0) fails
    _assert_wraps_match_oracles(x)


def test_wraps_match_their_oracles_on_edges_and_random_bits():
    rng = np.random.default_rng(0)
    x = rng.integers(-2 ** 63, 2 ** 63, size=200_000, dtype=np.int64).view(np.float64)
    # random bit patterns are mostly huge or tiny; add values at every scale
    # from 1e-17 to 1e3, where the fractional part is rounded
    scaled = rng.normal(size=200_000) * 10.0 ** rng.uniform(-17, 3, size=200_000)
    _assert_wraps_match_oracles(np.concatenate([_WRAP_EDGES, x[np.isfinite(x)], scaled]))


def _moser_field():
    rho = GridDensity.uniform(1, 8)
    return MoserField(rho, rho)


@pytest.mark.parametrize("make", [
    lambda: GridDensity.uniform(2, 8),
    lambda: BoxDensity(np.ones((4, 4)), ((0.0, 1.0), (-1.0, 1.0))),
    lambda: PotentialGrid(np.zeros((5, 5)), ((0.0, 1.0), (0.0, 2.0))),
    _moser_field,
], ids=["GridDensity", "BoxDensity", "PotentialGrid", "MoserField"])
def test_grid_is_built_once(make):
    obj = make()
    assert obj.grid is obj.grid


# 40 x 33 is one block; 700 x 200 and 200 x 700 are three along the long
# axis, the last one partial
@pytest.mark.parametrize("dim,periodic,n,m", [
    pytest.param(dim, periodic, n, m,
                 id=f"{dim}-{periodic}" + ("" if n == 40 else f"-{n}x{m}"))
    for dim, n, m in [(1, 40, 33), (2, 40, 33), (3, 40, 33), (2, 700, 200), (2, 200, 700)]
    for periodic in (False, True)])
def test_pairwise_distance_equals_broadcast_formula_bit_for_bit(dim, periodic, n, m):
    rng = np.random.default_rng(10 * dim + periodic)
    x, y = 3 * rng.random((n, dim)) - 1, 3 * rng.random((m, dim)) - 1
    delta = x[:, None, :] - y[None, :, :]
    if periodic:
        delta = wrap_signed(delta)
    expected = np.sqrt(np.sum(delta * delta, axis=-1))
    got = pairwise_distance(x, y, periodic=periodic)
    assert np.array_equal(got, expected)
    assert (got.flags.f_contiguous, got.flags.c_contiguous) == (n > m, n <= m)


@given(st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=6),
       st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=6), st.booleans())
@example([0.0], [2.6e-168], False)
def test_1d_distance_is_the_absolute_delta_and_the_root_of_its_square(x, y, periodic):
    x, y = np.array(x)[:, None], np.array(y)[:, None]
    delta = x - y.T
    if periodic:
        delta = wrap_signed(delta)
    got = pairwise_distance(x, y, periodic=periodic)
    assert np.array_equal(got, np.abs(delta))
    square = delta * delta
    normal = (square >= np.finfo(float).tiny) & np.isfinite(square)
    assert np.array_equal(got[normal], np.sqrt(square[normal]))


COSTS = [CostSpec("sqdist"), CostSpec("dist_p", p=1.5), CostSpec("negdot")]


@pytest.mark.parametrize("spec", COSTS, ids=lambda s: s.kind)
def test_scaled_cost_is_the_cost_itself_when_its_largest_entry_reaches_one(spec):
    rng = np.random.default_rng(7)
    x, y = 3 * rng.random((9, 2)), 3 * rng.random((7, 2))
    c, s = spec.scaled_matrix(x, y)
    assert s == 1.0 and np.array_equal(c, spec.matrix(x, y))


@pytest.mark.parametrize("spec", COSTS + [CostSpec("dist_p", p=1.5, periodic=True)],
                         ids=["sqdist", "dist_p", "negdot", "dist_p-torus"])
def test_scaled_cost_has_largest_entry_one_when_the_cost_is_small(spec):
    rng = np.random.default_rng(8)
    x, y = 0.1 * rng.random((9, 2)), 0.1 * rng.random((7, 2))
    c, s = spec.scaled_matrix(x, y)
    assert 0.0 < s < 1.0 and np.abs(c).max() == pytest.approx(1.0, rel=1e-15)
    assert np.allclose(s * c, spec.matrix(x, y), rtol=1e-14, atol=0.0)


def test_scaled_cost_keeps_distance_ratios_where_the_powers_underflow():
    # 0.2^1000 and 0.4^1000 are both 0.0 as doubles; their ratio is 2^-1000
    c, s = CostSpec("dist_p", p=1000.0).scaled_matrix([[0.2], [0.8]], [[0.4], [0.6]])
    assert s == 0.0
    assert np.allclose(c, [[2.0 ** -1000, 1.0], [1.0, 2.0 ** -1000]], rtol=1e-12, atol=0.0)
