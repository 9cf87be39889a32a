"""Tests for the periodic Poisson solve, Moser flow, and diffeomorphism check.

Oracles: single-Fourier-mode closed forms for the Poisson equation, the 1D
monotone (quantile) map for pushforward agreement, a bisection inverse of
the piecewise-linear CDF for the closed-form 1D time-1 map, RK4 of the same
field for its O(h^2) agreement with the flow, a 64n-step reference for the
2D step-doubling estimate, forward differences of node images and finite
differences of the evaluated map for the Jacobian checks,
single-target builds for the batched maps of a kernel family, and step
doubling from a fixed start of 16 (`oracles.doubling_from`) for the
field-given start.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randmap import kernel, moser
from randmap.geometry import unit_torus_grid, wrap_signed, wrap_unit
from randmap.kernel import KernelError, KernelFamily, build_continuous_representation
from randmap.measures import (
    MEAN_TOL,
    GridDensity,
    grid_pushforward,
    wasserstein_1d,
    wasserstein_sinkhorn_upper,
)
from randmap.moser import (
    FLOW_TOL,
    MAX_START_STEPS,
    MAX_STEPS_PER_CELL,
    MIN_STEPS,
    POISSON_RESIDUAL_TOL,
    FlowMap,
    MoserError,
    MoserField,
    continuity_residual,
    integrate_flow,
    jacobian_min,
    moser_map,
    solve_poisson_periodic,
)
from randmap.transport import TransportMap, monotone_map_1d

from oracles import doubling_from


def cosine_density(n, amp, shift=0.0):
    x = (np.arange(n) + 0.5) / n
    return GridDensity(1, n, 1 + amp * np.cos(2 * np.pi * (x - shift)))


def spike_density(n, width, dim=1):
    """Gaussian bump at the centre of the torus over the positivity floor: the
    late-time field is steep."""
    x = (np.arange(n) + 0.5) / n
    r2 = sum(a ** 2 for a in np.meshgrid(*(x - 0.5,) * dim, indexing="ij"))
    spike = np.exp(-r2 / (2 * width ** 2))
    return GridDensity(dim, n, 1e-3 + (1 - 1e-3) / spike.mean() * spike)


def moser_field(rho0, rho1):
    return MoserField(rho0, rho1)


# ---------------------------------------------------------------------------
# Poisson solve
# ---------------------------------------------------------------------------

def test_poisson_zero_source():
    sol = solve_poisson_periodic(np.zeros(64))
    assert np.abs(sol.u).max() == 0.0
    assert sol.residual == 0.0


def test_poisson_single_mode_1d():
    n = 64
    x = (np.arange(n) + 0.5) / n
    src = np.cos(2 * np.pi * x)
    sol = solve_poisson_periodic(src)
    want = -src / (4 * np.pi ** 2)
    assert np.abs(sol.u - want).max() <= 1e-10
    assert sol.residual <= 1e-8
    assert np.abs(sol.grad[0] - np.sin(2 * np.pi * x) / (2 * np.pi)).max() <= 1e-10


def test_poisson_single_mode_2d():
    n = 32
    x = (np.arange(n) + 0.5) / n
    xx, yy = np.meshgrid(x, x, indexing="ij")
    src = np.cos(2 * np.pi * xx) * np.cos(2 * np.pi * yy)
    sol = solve_poisson_periodic(src)
    want = -src / (8 * np.pi ** 2)
    assert np.abs(sol.u - want).max() <= 1e-10
    assert sol.residual <= 1e-8
    sx, sy = np.sin(2 * np.pi * xx), np.sin(2 * np.pi * yy)
    cx, cy = np.cos(2 * np.pi * xx), np.cos(2 * np.pi * yy)
    for got, want in zip(sol.grad, (sx * cy / (4 * np.pi), cx * sy / (4 * np.pi))):
        assert np.abs(got - want).max() <= 1e-10


def test_poisson_random_sources_residual():
    rng = np.random.default_rng(79)
    for shape in ((64,), (32, 32)):
        src = rng.standard_normal(shape)
        src -= src.mean()
        sol = solve_poisson_periodic(src)
        assert sol.residual <= 1e-8
        assert abs(sol.u.mean()) <= 1e-12


def test_poisson_rejects_nonzero_mean():
    with pytest.raises(MoserError, match="mean"):
        solve_poisson_periodic(np.ones(64) * 0.01)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
def test_densities_whose_means_differ_by_up_to_twice_mean_tol_couple(dim, n):
    # GridDensity takes any mean within MEAN_TOL of 1, so two valid densities
    # differ in mean by up to 2 MEAN_TOL; at 1.8e-10 the solve must still run
    x = (np.arange(n) + 0.5) / n
    bump = np.ones((n,) * dim) * (1 + 0.3 * np.cos(2 * np.pi * x))
    rho0 = GridDensity(dim, n, np.full((n,) * dim, 1 + 0.9e-10))
    rho1 = GridDensity(dim, n, bump / bump.mean() * (1 - 0.9e-10))
    assert (rho0.values - rho1.values).mean() > 1.5 * MEAN_TOL
    flow = moser_map(rho0, rho1)
    assert flow.field_ref.poisson.residual <= POISSON_RESIDUAL_TOL
    assert jacobian_min(flow) > 0


# ---------------------------------------------------------------------------
# Moser flow
# ---------------------------------------------------------------------------

def test_moser_identity_is_exact():
    rho = cosine_density(64, 0.3)
    flow = moser_map(rho, rho)
    assert np.abs(flow.map.images - flow.map.points).max() == 0.0
    assert jacobian_min(flow) == 1.0


def test_moser_pushforward_refinement_study():
    errors = {}
    for n in (64, 128):
        rho0 = GridDensity.uniform(1, n)
        rho1 = cosine_density(n, 0.5)
        flow = moser_map(rho0, rho1)
        errors[n] = flow.pushforward_error
        assert flow.pushforward_error <= 1e-2
    assert errors[64] / errors[128] >= 1.5


def test_continuous_family_build_takes_each_1d_pushforward_w1_once(monkeypatch):
    # each map's own W1, taken by moser_map, is the one the build checks
    calls = {"moser": 0, "kernel": 0}

    def counted(name, w1):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return w1(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(moser, "wasserstein_1d", counted("moser", moser.wasserstein_1d))
    monkeypatch.setattr(kernel, "wasserstein_1d", counted("kernel", kernel.wasserstein_1d))
    k = 5
    build_continuous_representation(circle_family(
        [cosine_density(64, 0.4, j / k) for j in range(k)]))
    assert calls == {"moser": k, "kernel": 0}


def test_moser_and_the_family_build_report_one_pushforward_error():
    # `randmap moser` and `represent` print these two values for one map
    rho1 = cosine_density(64, 0.4, shift=0.3)
    flow = moser_map(GridDensity.uniform(1, 64), rho1)
    family = build_continuous_representation(KernelFamily("circle", [[0.0], [0.5]],
                                                           [rho1, rho1]))
    assert np.array_equal(family.maps[0].images, flow.map.images)
    assert family.pushforward_errors[0] == flow.pushforward_error


def test_moser_agrees_with_monotone_map():
    n = 64
    rho0 = GridDensity.uniform(1, n)
    rho1 = cosine_density(n, 0.5)
    flow = moser_map(rho0, rho1)
    quantile = monotone_map_1d(rho0, rho1)
    push_flow = grid_pushforward(flow.map, rho0)
    push_quant = grid_pushforward(quantile, rho0)
    assert wasserstein_1d(push_flow, push_quant, p=1, periodic=True) <= 2e-2


def test_moser_rejects_nonpositive_density():
    n = 64
    vals = np.ones(n)
    vals[0] = 0.0
    bad = GridDensity(1, n, vals / vals.mean())
    with pytest.raises(MoserError, match="positivity"):
        moser_map(GridDensity.uniform(1, n), bad)


@pytest.mark.parametrize("make, needle", [
    (lambda: jacobian_min(monotone_map_1d(GridDensity.uniform(1, 8), GridDensity.uniform(1, 8))),
     "expects a torus-grid map"),
    (lambda: continuity_residual(MoserField(GridDensity.uniform(1, 8), GridDensity.uniform(1, 8)),
                                 1.5), r"time 1\.5 outside \[0, 1\]")],
    ids=["box-grid-jacobian", "time-past-one"])
def test_moser_refusals_are_moser_errors(make, needle):
    with pytest.raises(MoserError, match=needle):
        make()


def test_moser_rejects_mismatched_grids():
    with pytest.raises(MoserError, match="grid"):
        moser_map(GridDensity.uniform(1, 32), GridDensity.uniform(1, 64))


def test_blowup_guard_leaves_only_the_blown_row_nan():
    # at 16 steps the spike's late-time field moves a node more than half
    # the domain in one step: its row leaves the batch as NaN, and the
    # other rows get bit for bit what each gets alone
    n = 64
    rho0 = GridDensity.uniform(1, n)
    fields = [moser_field(rho0, rho1) for rho1 in
              (cosine_density(n, 0.3), spike_density(n, 0.03), cosine_density(n, 0.5, 0.5))]
    nodes = unit_torus_grid(1, n).nodes()
    batch = integrate_flow(fields, np.broadcast_to(nodes, (3,) + nodes.shape), 0.0, 1.0, 16)
    assert [bool(np.isnan(row).any()) for row in batch] == [False, True, False]
    assert np.isnan(batch[1]).all()
    for b in (0, 2):
        alone = integrate_flow([fields[b]], nodes[None], 0.0, 1.0, 16)
        assert np.array_equal(batch[b], alone[0])


def test_doubling_passes_over_trial_blowups():
    # the spike's speed bound gives it the greatest start, 16 steps, and
    # that trial trips the blow-up guard; doubling goes on past it (the
    # spike resolves at the cap of 1,024 steps)
    n = 16
    rho1 = spike_density(n, 0.064, dim=2)
    rho0 = GridDensity.uniform(2, n)
    nodes = unit_torus_grid(2, n).nodes()
    fld = moser_field(rho0, rho1)
    assert moser._start_steps(fld) == MAX_START_STEPS
    assert np.isnan(integrate_flow([fld], nodes[None], 0.0, 1.0, MAX_START_STEPS)).all()
    flow = moser_map(rho0, rho1)
    assert MAX_START_STEPS < flow.steps <= MAX_STEPS_PER_CELL * n
    assert flow.flow_error <= FLOW_TOL / n
    pushed = grid_pushforward(flow.map, rho0)
    assert wasserstein_sinkhorn_upper(pushed, rho1, periodic=True) <= 4.0 / n


def test_doubling_cap_reports_steps_and_estimate():
    n = 16
    with pytest.raises(MoserError, match=f"cap of {MAX_STEPS_PER_CELL * n} steps: "
                                         r"doubling estimate \S+ exceeds"):
        moser_map(GridDensity.uniform(2, n), spike_density(n, 0.01, dim=2))


def test_flow_semigroup_consistency():
    n = 64
    rho0 = GridDensity.uniform(1, n)
    rho1 = cosine_density(n, 0.4)
    fld = moser_field(rho0, rho1)
    nodes = unit_torus_grid(1, n).nodes()
    steps = 64
    direct = integrate_flow([fld], nodes[None], 0.0, 1.0, steps)
    half = integrate_flow([fld], nodes[None], 0.0, 0.5, steps // 2)
    two_stage = integrate_flow([fld], half, 0.5, 1.0, steps // 2)
    assert np.abs(direct - two_stage).max() <= 1e-8


def _pl_cdf(rho, y):
    """Lifted CDF, from the first node, of the periodic piecewise-linear interpolant."""
    n, v = rho.n, rho.values
    h = 1.0 / n
    seg = h * (v + np.roll(v, -1)) / 2        # mass between nodes i and i+1
    at_node = np.concatenate([[-seg[-1]], [0.0], np.cumsum(seg)])
    turns = np.floor(y)
    s = (y - turns) / h - 0.5
    k = np.floor(s).astype(int)               # left node, -1 .. n-1
    f = s - k
    a, b = v[k % n], v[(k + 1) % n]
    return turns * seg.sum() + at_node[k + 1] + h * (a * f + (b - a) * f * f / 2)


def _pl_cdf_inverse(rho, level, lo, hi):
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        below = _pl_cdf(rho, mid) < level
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _level_shift(rho0, rho1):
    """s = int (G - F) over one period, by Simpson's rule between nodes,
    which is exact there because both CDFs are quadratic."""
    n = rho0.n
    ends = (np.arange(n + 1) + 0.5) / n

    def gap(y):
        return _pl_cdf(rho1, y) - _pl_cdf(rho0, y)
    return np.sum(gap(ends[:-1]) + 4 * gap(ends[:-1] + 0.5 / n) + gap(ends[1:])) / (6 * n)


@pytest.mark.parametrize("n", [32, 64, 128])
@pytest.mark.parametrize("amp", [0.4, 0.9])
def test_moser_matches_closed_form_1d_map(n, amp):
    # The 1D flux does not depend on t, so the time-1 map is
    # T(x) = G^-1(F(x) + s) with F and G the CDFs of the interpolated
    # densities and s = int (G - F). RK4 of the Moser field meets this form
    # only up to O(h^2), because the field's flux is interpolated separately
    # from the densities: 0.25 h^2 bounds it (measured worst 0.03 h^2).
    rho0 = GridDensity.uniform(1, n)
    rho1 = cosine_density(n, amp)
    flow = moser_map(rho0, rho1)
    assert flow.steps == 0
    x = flow.map.points[:, 0]
    lift = x + wrap_signed(flow.map.images[:, 0] - x)
    oracle = _pl_cdf_inverse(rho1, _pl_cdf(rho0, x) + _level_shift(rho0, rho1),
                             x - 1.0, x + 1.0)
    assert np.abs(lift - oracle).max() <= 1e-12
    rk4 = integrate_flow([flow.field_ref], flow.map.points[None], 0.0, 1.0, 16 * n)[0, :, 0]
    assert np.abs(rk4 - oracle).max() <= 0.25 / n ** 2


@st.composite
def cosine_couplings(draw):
    n = draw(st.sampled_from([32, 64, 128]))
    amps, shifts = st.floats(-0.9, 0.9), st.floats(0.0, 1.0)
    return tuple(cosine_density(n, draw(amps), draw(shifts)) for _ in range(2))


@settings(max_examples=10)
@given(cosine_couplings())
def test_closed_form_1d_map_is_a_degree_one_circle_map(pair):
    rho0, rho1 = pair
    n = rho0.n
    flow = moser_map(rho0, rho1, checkpoints=(0.5,))
    x, images = flow.map.points[:, 0], flow.map.images[:, 0]
    # the lift is strictly increasing and T(x + 1) = T(x) + 1: the forward
    # gaps between neighbouring images are positive and make one turn
    gaps = wrap_unit(np.roll(images, -1) - images)
    assert gaps.min() > 0 and abs(gaps.sum() - 1.0) <= 1e-12
    # G(T_i) = F(x_i) + s, up to one turn, within the rounding of the
    # cumulative sums of n masses that make up each CDF
    residual = _pl_cdf(rho1, images) - _pl_cdf(rho0, x) - _level_shift(rho0, rho1)
    assert np.abs(wrap_signed(residual)).max() <= n * np.finfo(float).eps
    assert flow.steps == 0 and flow.flow_error <= FLOW_TOL / n
    half = integrate_flow([flow.field_ref], flow.map.points[None], 0.0, 0.5, 8 * n)[0]
    assert np.abs(wrap_signed(flow.checkpoints[0.5] - half)).max() <= 0.25 / n ** 2


@st.composite
def cosine_targets_2d(draw):
    n = 16
    x = (np.arange(n) + 0.5) / n
    factors = []
    for axis in range(2):
        amp = draw(st.floats(-0.9, 0.9)) if axis == 0 or draw(st.booleans()) else 0.0
        shift = draw(st.floats(0.0, 1.0))
        factors.append(1 + amp * np.cos(2 * np.pi * (x - shift)))
    vals = np.multiply.outer(factors[0], factors[1])
    return GridDensity(2, n, vals / vals.mean())


@settings(max_examples=10)
@given(cosine_targets_2d())
def test_doubling_estimate_bounds_node_error(rho1):
    n, dim = rho1.n, rho1.dim
    rho0 = GridDensity.uniform(dim, n)
    flow = moser_map(rho0, rho1)
    nodes = flow.map.points[None]
    ref = integrate_flow([flow.field_ref], nodes, 0.0, 1.0, MAX_STEPS_PER_CELL * n)[0]
    assert flow.flow_error <= FLOW_TOL / n
    # 1e-12 covers the rounding of the reference's thousands of steps, which
    # is all that is left when the target is nearly uniform
    deviation = np.abs(wrap_signed(flow.map.images - ref)).max()
    assert deviation <= flow.flow_error + 1e-12
    marked = moser_map(rho0, rho1, checkpoints=(0.5,))
    assert marked.steps == flow.steps
    # the same step count, split over the two segments, by hand
    half = integrate_flow([flow.field_ref], nodes, 0.0, 0.5, marked.steps // 2)
    replay = integrate_flow([flow.field_ref], half, 0.5, 1.0, marked.steps // 2)
    assert np.array_equal(marked.map.images, wrap_unit(replay[0]))
    assert np.array_equal(marked.checkpoints[0.5], wrap_unit(half[0]))


def test_moser_checkpoints():
    n = 32
    flow = moser_map(GridDensity.uniform(1, n), cosine_density(n, 0.3),
                     checkpoints=(0.25, 0.5))
    assert set(flow.checkpoints) == {0.25, 0.5}
    for positions in flow.checkpoints.values():
        assert positions.shape == (n, 1)
        assert np.all((positions >= 0) & (positions < 1))


@pytest.mark.parametrize("checkpoints", [(0.3,), (0.3, 0.7), (0.25, 0.5)])
def test_2d_checkpoints_leave_the_time_1_map_as_it_is(checkpoints):
    # a checkpoint is a side step off the accepted run, so asking for one
    # changes no image, step count or estimate, even at a t off the step grid
    n = 16
    rho0 = GridDensity.uniform(2, n)
    # accepted at 8, 32 and 256 steps
    targets = [product_cosine_density(n, 0.4), product_cosine_density(n, 0.95),
               spike_density(n, 0.1, dim=2)]
    for plain, marked in zip(moser_map(rho0, targets),
                             moser_map(rho0, targets, checkpoints=checkpoints)):
        assert np.array_equal(marked.map.images, plain.map.images)
        assert (marked.steps, marked.flow_error) == (plain.steps, plain.flow_error)
        nodes = plain.map.points[None]
        for t in checkpoints:
            k = int(t * plain.steps)
            prefix = integrate_flow([plain.field_ref], nodes, 0.0, k / plain.steps, k)
            if k == t * plain.steps:  # on the step grid: the run's own positions
                assert np.array_equal(marked.checkpoints[t], wrap_unit(prefix[0]))
            ref = integrate_flow([plain.field_ref], nodes, 0.0, t, MAX_STEPS_PER_CELL * n)[0]
            assert np.abs(wrap_signed(marked.checkpoints[t] - ref)).max() <= FLOW_TOL / n


# ---------------------------------------------------------------------------
# a kernel family's flows, integrated as one batch
# ---------------------------------------------------------------------------

def product_cosine_density(n, amp):
    x = (np.arange(n) + 0.5) / n
    vals = np.multiply.outer(1 + amp * np.cos(2 * np.pi * x),
                             1 + 0.3 * np.cos(2 * np.pi * (x - 0.2)))
    return GridDensity(2, n, vals / vals.mean())


def circle_family(measures):
    return KernelFamily("circle", (np.arange(len(measures)) / len(measures))[:, None],
                        tuple(measures))


def torus_family(measures):
    return KernelFamily("torus2", [[0.1, 0.2], [0.4, 0.2], [0.1, 0.7], [0.6, 0.6]],
                        tuple(measures))


def assert_same_flows(batch, singles):
    for got, want in zip(batch, singles, strict=True):
        assert np.array_equal(got.map.images, want.map.images)
        assert got.steps == want.steps and got.flow_error == want.flow_error
        assert got.checkpoints.keys() == want.checkpoints.keys()
        for t_mark in want.checkpoints:
            assert np.array_equal(got.checkpoints[t_mark], want.checkpoints[t_mark])


def test_batched_1d_family_matches_single_target_maps():
    # closed-form maps, a steep spike among them: the batch is bit for bit
    # what each target gets alone
    n = 64
    targets = [cosine_density(n, 0.3), cosine_density(n, 0.9, 0.25), spike_density(n, 0.03),
               cosine_density(n, 0.5, 0.5)]
    rho0 = GridDensity.uniform(1, n)
    singles = [moser_map(rho0, rho1) for rho1 in targets]
    assert {flow.steps for flow in singles} == {0}
    family = build_continuous_representation(circle_family(targets))
    for t_map, want in zip(family.maps, singles, strict=True):
        assert np.array_equal(t_map.images, want.map.images)
    assert_same_flows(moser_map(rho0, targets), singles)
    marked = [moser_map(rho0, rho1, checkpoints=(0.5,)) for rho1 in targets]
    batch = moser_map(rho0, targets, checkpoints=(0.5,))
    assert_same_flows(batch, marked)
    assert [f.pushforward_error for f in batch] == [f.pushforward_error for f in marked]


def test_batched_2d_family_matches_single_target_maps():
    # the cosines resolve at 8 and 32 steps, the wide spike at 256 and the
    # narrow one, whose 16-step trial blows up, at 1,024: every map doubles
    # on its own
    n = 16
    targets = [product_cosine_density(n, 0.2), product_cosine_density(n, 0.95),
               spike_density(n, 0.1, dim=2), spike_density(n, 0.064, dim=2)]
    rho0 = GridDensity.uniform(2, n)
    singles = [moser_map(rho0, rho1) for rho1 in targets]
    assert [flow.steps for flow in singles] == [8, 32, 256, 1024]
    family = build_continuous_representation(torus_family(targets))
    for t_map, want in zip(family.maps, singles, strict=True):
        assert np.array_equal(t_map.images, want.map.images)
    # a 2D map carries no pushforward W1, and the family records it unchecked
    assert family.pushforward_errors == (None,) * len(targets)
    assert_same_flows(moser_map(rho0, targets), singles)


def test_field_start_adds_no_steps_to_doubling_from_16():
    # a field's start is a power of two from 4 to 16, so its doubling joins
    # the ladder 16, 32, ... of a start at 16: no map takes more steps, and a
    # map accepted at 32 steps or more, or unresolved at the cap, is bit for
    # bit what doubling from 16 gives
    n = 16
    targets = ([product_cosine_density(n, amp) for amp in (0.2, 0.4, 0.6, 0.8, 0.95)]
               + [spike_density(n, width, dim=2) for width in (0.064, 0.08, 0.1, 0.03, 0.05)])
    rho0 = GridDensity.uniform(2, n)
    flows = moser_map(rho0, targets)
    oracle = doubling_from([moser_field(rho0, rho1) for rho1 in targets], 16)
    assert [type(f) for f in flows] == [FlowMap] * 8 + [MoserError] * 2
    for got, want in zip(flows, oracle, strict=True):
        if isinstance(want, MoserError):
            assert str(got) == str(want)
            continue
        steps, x, estimate = want
        assert got.steps <= steps
        if got.steps >= 32:
            assert got.steps == steps and got.flow_error == estimate
            assert np.array_equal(got.map.images, wrap_unit(x))
    # the cosines below 0.8 resolve sooner than from 16, the rest as from 16
    assert [f.steps for f in flows[:8]] == [8, 8, 8, 32, 32, 1024, 512, 256]
    assert [w[0] for w in oracle[:8]] == [32, 32, 32, 32, 32, 1024, 512, 256]


@st.composite
def speed_bound_cases(draw):
    """A 2D field on n = 8 or 16 cells from a cosine or spike pair, a time
    in [0, 1] and a generator for the points it is read at."""
    n = draw(st.sampled_from([8, 16]))
    x = (np.arange(n) + 0.5) / n

    def density():
        if draw(st.booleans()):
            return spike_density(n, draw(st.floats(0.05, 0.3)), dim=2)
        amps, shifts = st.floats(-0.9, 0.9), st.floats(0.0, 1.0)
        vals = np.multiply.outer(*(1 + draw(amps) * np.cos(2 * np.pi * (x - draw(shifts)))
                                   for _ in range(2)))
        return GridDensity(2, n, vals / vals.mean())

    rho0 = GridDensity.uniform(2, n) if draw(st.booleans()) else density()
    return (moser_field(rho0, density()), draw(st.floats(0.0, 1.0)),
            np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))


@settings(max_examples=40, deadline=None)
@given(speed_bound_cases())
def test_speed_bound_holds_everywhere_and_sets_the_start(case):
    fld, t, rng = case
    n = fld.grid.n
    bound = moser._speed_bound(fld)
    pts = rng.random((200, 2))
    xi = moser._velocity(fld.stack[None], fld.grid, t, pts[None])
    assert np.abs(xi).max() <= bound * (1 + 1e-12)
    # the start is the least power of two from MIN_STEPS to MAX_START_STEPS
    # at or above n V
    start = moser._start_steps(fld)
    assert MIN_STEPS <= start <= MAX_START_STEPS and start & (start - 1) == 0
    assert start == MIN_STEPS or start // 2 < n * bound
    assert start == MAX_START_STEPS or start >= n * bound
    if start >= n * bound:
        # so one RK4 step at the start moves no point more than one cell
        k = int(rng.integers(start))
        moved = integrate_flow([fld], pts, k / start, (k + 1) / start, 1)[0] - pts
        assert np.abs(moved).max() <= (1 + 1e-12) / n


@pytest.mark.parametrize("checkpoints", [(), (0.5,)], ids=["one-segment", "two-segments"])
def test_batched_unresolved_flows_report_the_first_by_base_point(checkpoints):
    # the spikes are still unresolved at the cap of 64 n steps, with
    # different estimates, while the cosines leave the batch early; each
    # spike ends in the error it gets alone
    n = 16
    targets = [product_cosine_density(n, 0.3), product_cosine_density(n, 0.5),
               spike_density(n, 0.03, dim=2), spike_density(n, 0.05, dim=2)]
    if not checkpoints:
        with pytest.raises(KernelError, match="map construction failed at base point 2: "
                                              "flow not resolved at the cap of 1024 steps"):
            build_continuous_representation(torus_family(targets))
    rho0 = GridDensity.uniform(2, n)
    flows = moser_map(rho0, targets, checkpoints=checkpoints)
    assert [type(f) for f in flows] == [FlowMap, FlowMap, MoserError, MoserError]
    for got, rho1 in zip(flows[2:], targets[2:]):
        with pytest.raises(MoserError) as alone:
            moser_map(rho0, rho1, checkpoints=checkpoints)
        assert str(got) == str(alone.value)
    assert str(flows[2]) != str(flows[3])


def test_batched_construction_failure_stays_with_its_target():
    n = 32
    vals = np.ones(n)
    vals[0] = 0.0
    bad = GridDensity(1, n, vals / vals.mean())
    flows = moser_map(GridDensity.uniform(1, n), [cosine_density(n, 0.3), bad,
                                                  GridDensity.uniform(1, 16)])
    assert isinstance(flows[0], FlowMap)
    assert isinstance(flows[1], MoserError) and "positivity" in str(flows[1])
    assert isinstance(flows[2], MoserError) and "grid" in str(flows[2])


@pytest.fixture()
def rk4_calls(monkeypatch):
    """The step count of every integrate_flow call, in call order."""
    calls = []
    integrate = moser.integrate_flow

    def counted(*args, **kwargs):
        calls.append(args[4])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(moser, "integrate_flow", counted)
    return calls


def test_family_build_integrates_every_map_in_one_batch(rk4_calls):
    # a 1D family is built in closed form, with no RK4 at all
    build_continuous_representation(circle_family(
        [cosine_density(64, 0.4, k / 16) for k in range(16)]))
    assert rk4_calls == []
    # 4 targets that all start at 4 steps, three resolving at 8 and one at
    # 16: one call per step count for the whole family, where one
    # integration per trial of each map would make 9
    build_continuous_representation(torus_family(
        [product_cosine_density(16, 0.4 + 0.1 * k) for k in range(4)]))
    assert rk4_calls == [MIN_STEPS, 2 * MIN_STEPS, 4 * MIN_STEPS]
    # smooth targets starting at 4 and a spike starting at 16: the spike's
    # 16-step coarse trial rides in the call that gives the 0.7 cosine its
    # 16-step fine trial, so there is still one call per step count
    rk4_calls.clear()
    build_continuous_representation(torus_family(
        [product_cosine_density(16, 0.7), spike_density(16, 0.1, dim=2),
         product_cosine_density(16, 0.4), product_cosine_density(16, 0.5)]))
    assert rk4_calls == [4, 8, 16, 32, 64, 128, 256]


def test_bench_shaped_family_starts_at_4_and_resolves_at_8(rk4_calls):
    # four product cosines of amplitude about 0.4 on n = 32, as the torus
    # bench family: each starts at 4 steps and is accepted at 8, within its
    # estimate of a 16 n-step reference
    n = 32
    x = (np.arange(n) + 0.5) / n
    targets = []
    for amp, (cx, cy) in zip((0.39, 0.40, 0.41, 0.42), ((0.0, 0.0), (0.0, 0.5), (0.5, 0.0),
                                                          (0.5, 0.5))):
        vals = np.multiply.outer(1 + amp * np.cos(2 * np.pi * (x - cx)),
                                 1 + amp * np.cos(2 * np.pi * (x - cy)))
        targets.append(GridDensity(2, n, vals / vals.mean()))
    flows = moser_map(GridDensity.uniform(2, n), targets)
    assert rk4_calls == [4, 8]
    for flow in flows:
        assert flow.steps == 8 and flow.flow_error <= FLOW_TOL / n
        ref = integrate_flow([flow.field_ref], flow.map.points, 0.0, 1.0, 16 * n)[0]
        assert np.abs(wrap_signed(flow.map.images - ref)).max() <= flow.flow_error


# ---------------------------------------------------------------------------
# Jacobian proxy
# ---------------------------------------------------------------------------

def test_jacobian_identity_exactly_one():
    n = 64
    grid = unit_torus_grid(1, n)
    nodes = grid.nodes()
    tmap = TransportMap(nodes, nodes, route="moser", grid=grid)
    assert jacobian_min(tmap) == 1.0
    grid2 = unit_torus_grid(2, 16)
    nodes2 = grid2.nodes()
    tmap2 = TransportMap(nodes2, nodes2, route="moser", grid=grid2)
    assert jacobian_min(tmap2) == 1.0


def test_jacobian_sine_map_matches_analytic_difference():
    # T(x) = x + a sin(2 pi x): the interpolated map's slope on the cell from
    # node i to node i + 1 is the forward difference of the images, and near
    # x = 1/2 it tends to T'(1/2) = 1 - 2 pi a
    n, a = 64, 0.1
    grid = unit_torus_grid(1, n)
    x = grid.nodes()[:, 0]
    images = np.mod(x + a * np.sin(2 * np.pi * x), 1.0)
    tmap = TransportMap(grid.nodes(), images[:, None], route="composed", grid=grid)
    oracle = (1 + n * a * (np.sin(2 * np.pi * (x + 1.0 / n)) - np.sin(2 * np.pi * x))).min()
    got = jacobian_min(tmap)
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got == pytest.approx(1 - 0.2 * np.pi, abs=5e-3)


def test_jacobian_of_a_map_with_two_nodes_swapped_is_negative():
    # the identity with the images of nodes 3 and 4 exchanged runs backwards
    # on the cell between them: slope 1 + n (-h - h) = -1
    grid = unit_torus_grid(1, 8)
    images = grid.nodes()
    images[[3, 4]] = images[[4, 3]]
    tmap = TransportMap(grid.nodes(), images, route="composed", grid=grid)
    assert jacobian_min(tmap) == pytest.approx(-1.0, abs=1e-12)


def evaluated_jacobian(tmap, pts, step=1e-6):
    """det Df of the evaluated map at pts, by one-sided differences of size step."""
    base = tmap.evaluate(pts)
    cols = [wrap_signed(tmap.evaluate(pts + step * e) - base) / step
            for e in np.eye(tmap.grid.dim)]
    return np.linalg.det(np.stack(cols, axis=-1))


@st.composite
def displaced_grid_maps(draw):
    """A torus-grid map whose node images are the nodes plus random
    displacements, small or large enough to fold, and points inside cells."""
    dim, n = draw(st.sampled_from([1, 2])), draw(st.sampled_from([8, 16]))
    scale = draw(st.sampled_from([0.1 / n, 0.5 / n, 2.0 / n, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    grid = unit_torus_grid(dim, n)
    images = wrap_unit(grid.nodes() + rng.uniform(-scale, scale, (n ** dim, dim)))
    # a cell's coordinates run from node i at (i + 1/2) / n to node i + 1;
    # keeping 1e-3 of a cell from its faces keeps each difference in one cell
    cells = rng.integers(0, n, (50, dim))
    pts = wrap_unit((cells + 0.5 + rng.uniform(1e-3, 1 - 2e-3, (50, dim))) / n)
    return TransportMap(grid.nodes(), images, route="composed", grid=grid), pts


@settings(max_examples=40, deadline=None)
@given(displaced_grid_maps())
def test_jacobian_min_bounds_the_evaluated_map_from_below(case):
    tmap, pts = case
    assert jacobian_min(tmap) <= evaluated_jacobian(tmap, pts).min() + 1e-6


def test_jacobian_positive_for_tame_densities():
    rng = np.random.default_rng(83)
    for _ in range(3):
        n = 64
        x = (np.arange(n) + 0.5) / n
        amp = rng.uniform(0.1, 0.25)
        phase = rng.random()
        rho1 = GridDensity(1, n, 1 + 2 * amp * np.cos(2 * np.pi * (x - phase)))
        assert rho1.min_value >= 0.25
        flow = moser_map(GridDensity.uniform(1, n), rho1)
        assert jacobian_min(flow) > 0


# ---------------------------------------------------------------------------
# the continuity identity
# ---------------------------------------------------------------------------

def test_continuity_identity_machine_precision():
    n = 64
    rho0 = cosine_density(n, 0.3)
    rho1 = cosine_density(n, 0.5, shift=0.4)
    fld = MoserField(rho0, rho1)
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert continuity_residual(fld, t) <= 1e-6


def test_pushforward_convergence_ratio():
    errors = []
    for n in (32, 64, 128):
        rho0 = GridDensity.uniform(1, n)
        rho1 = cosine_density(n, 0.5)
        flow = moser_map(rho0, rho1)
        errors.append(flow.pushforward_error)
    assert errors[1] / errors[0] <= 0.67
    assert errors[2] / errors[1] <= 0.67
