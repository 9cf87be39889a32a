"""Tests for exponential-map charts, and for the trivial-bundle lifts,
projections and density comparison that acceptance criterion 8 uses
(tests/oracles.py).

Oracles: closed-form sphere log/exp (verified through round trips), the
analytic sin(r)/r Jacobian envelope, and fiberwise product structure of the
bundle lift.
"""
import numpy as np
import pytest

from randmap.geometry import sphere_xyz, wrap_signed, wrap_unit
from randmap.lift import (
    LiftError,
    ManifoldChart,
    exp_push,
    log_lift,
)
from randmap.measures import DiscreteMeasure, GridDensity, wasserstein_1d

from oracles import (
    BoxDensity,
    BundleLift,
    bump_profile,
    bundle_lift,
    density_lift_compare,
    dirac,
    fiber_w1,
    project_density,
)


def sphere_dist(a, b):
    # chordal metric: well-conditioned at zero separation, where arccos is not
    return np.linalg.norm(sphere_xyz(a) - sphere_xyz(b), axis=1)


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

def test_circle_log_is_arc_length():
    chart = ManifoldChart("circle", [0.0])
    mu = dirac([0.1])
    lifted = log_lift(chart, mu)
    assert lifted.points[0, 0] == pytest.approx(0.1, abs=1e-15)
    assert np.array_equal(lifted.weights, mu.weights)


def test_base_point_lifts_to_origin():
    for mani, base in (("circle", [0.3]), ("torus2", [0.2, 0.7]),
                       ("sphere2", [0.8, 1.5])):
        chart = ManifoldChart(mani, base)
        lifted = log_lift(chart, dirac(base))
        assert np.abs(lifted.points).max() <= 1e-12


def test_sphere_north_pole_example():
    chart = ManifoldChart("sphere2", [0.0, 0.0])
    mu = dirac([0.3, 0.0])
    lifted = log_lift(chart, mu)
    assert lifted.points[0, 0] == pytest.approx(0.3, abs=1e-12)
    assert lifted.points[0, 1] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("mani,base", [("circle", [0.3]), ("torus2", [0.5, 0.5]),
                                       ("sphere2", [1.0, 2.0])])
def test_round_trip_100_atoms(mani, base):
    rng = np.random.default_rng(sum(int(100 * b) for b in base))
    chart = ManifoldChart(mani, base)
    d = len(chart.base_point)
    v = rng.uniform(-1, 1, (100, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v *= rng.uniform(0, 0.95 * chart.cap, (100, 1))
    pts = chart.exp(v)
    atoms = DiscreteMeasure(pts, np.full(100, 0.01))
    back = exp_push(chart, log_lift(chart, atoms))
    if mani == "sphere2":
        err = sphere_dist(back.points, atoms.points).max()
    else:
        err = np.abs(wrap_signed(back.points - atoms.points)).max()
    assert err <= 1e-9


def test_exp_rejects_vector_beyond_cap():
    chart = ManifoldChart("circle", [0.0])
    with pytest.raises(LiftError, match="cap"):
        chart.exp(np.array([[0.6]]))


def test_log_rejects_atom_beyond_cap():
    chart = ManifoldChart("sphere2", [0.0, 0.0])
    with pytest.raises(LiftError, match="cap"):
        chart.log(np.array([[3.1, 0.0]]))
    small = ManifoldChart("torus2", [0.0, 0.0], cap=0.3)
    with pytest.raises(LiftError, match="cap"):
        log_lift(small, dirac([0.4, 0.2]))


def test_sphere_cap_must_stay_below_cut_locus():
    with pytest.raises(LiftError, match="cut locus"):
        ManifoldChart("sphere2", [0.0, 0.0], cap=np.pi)


@pytest.mark.parametrize("manifold, base, cap", [
    ("circle", [0.0], 0.9), ("circle", [0.0], 0.5 + 1e-12), ("torus2", [0.0, 0.0], 0.6)])
def test_flat_chart_cap_must_stay_within_the_injectivity_radius(manifold, base, cap):
    # past the radius, exp(0.7) under cap 0.9 wraps onto a point whose log is -0.3
    with pytest.raises(LiftError, match="injectivity radius 0.5"):
        ManifoldChart(manifold, base, cap=cap)
    assert ManifoldChart(manifold, base, cap=0.5).cap == 0.5


@pytest.mark.parametrize("manifold, base", [
    ("circle", [0.0]), ("circle", [0.2]), ("torus2", [0.2, 0.7])])
def test_flat_chart_rejects_the_cut_locus_and_inverts_just_below_it(manifold, base):
    # at radius 0.5, exp then log gave -0.5 back for +0.5
    chart = ManifoldChart(manifold, base)
    at_cut = np.zeros((1, len(base)))
    at_cut[0, -1] = 0.5
    with pytest.raises(LiftError, match="cut locus"):
        chart.exp(at_cut)
    # base - 0.5 is exact at each of these bases, so the point is on the cut
    with pytest.raises(LiftError, match="cut locus"):
        chart.log(chart.base_point - at_cut)
    assert chart.exp(np.nextafter(at_cut, 0.0)).shape == at_cut.shape
    for v in (at_cut - 1e-9, 1e-9 - at_cut):
        assert np.abs(chart.log(chart.exp(v)) - v).max() <= 1e-15


def test_flat_chart_log_inverts_one_ulp_inside_the_cut_locus():
    # 0.2 + 0.5 rounds to a point 0.5 - 2^-54 from 0.2: one ulp inside the
    # cut, so log returns that radius and does not reject the point
    below = 0.49999999999999994
    assert ManifoldChart("circle", [0.2]).log(wrap_unit(0.2 + 0.5))[0, 0] == below
    chart = ManifoldChart("circle", [0.0])
    assert chart.log(chart.exp([[below]]))[0, 0] == below


@pytest.mark.parametrize("manifold, base, cap", [
    ("circle", [0.0], np.nan), ("circle", [0.0], np.inf), ("circle", [0.0], 0.0),
    ("torus2", [0.0, 0.0], -0.1), ("sphere2", [0.5, 0.5], np.nan)])
def test_chart_cap_must_be_finite_and_positive(manifold, base, cap):
    with pytest.raises(LiftError, match="finite number > 0"):
        ManifoldChart(manifold, base, cap=cap)


@pytest.mark.parametrize("manifold, base", [
    ("circle", [np.inf]), ("torus2", [0.5, np.nan]), ("sphere2", [-np.inf, 0.5])])
def test_chart_base_point_must_be_finite(manifold, base):
    with pytest.raises(LiftError, match="base point must be finite"):
        ManifoldChart(manifold, base)


@pytest.mark.parametrize("manifold, base, rows", [
    ("circle", [0.0], [[0.1, 0.2]]), ("torus2", [0.2, 0.7], [[0.1], [0.3]]),
    ("sphere2", [0.8, 1.5], [[0.8, 1.5, 0.0]])], ids=["circle", "torus2", "sphere2"])
def test_chart_rows_must_have_the_base_point_dimension(manifold, base, rows):
    chart = ManifoldChart(manifold, base)
    for method in (chart.log, chart.exp):
        with pytest.raises(LiftError, match=f"{manifold} rows need {len(base)} coordinates"):
            method(np.array(rows))


def test_chart_manifold_must_be_known():
    with pytest.raises(LiftError, match="manifold must be one of"):
        ManifoldChart("plane", [0.0, 0.0])


def test_lift_preserves_mass_and_distances():
    # support radius < 0.25 keeps the circle chart isometric on all pairs
    rng = np.random.default_rng(101)
    chart = ManifoldChart("circle", [0.5])
    pts = np.mod(0.5 + rng.uniform(-0.2, 0.2, (20, 1)), 1.0)
    atoms = DiscreteMeasure(pts, np.full(20, 0.05))
    lifted = log_lift(chart, atoms)
    assert np.array_equal(lifted.weights, atoms.weights)
    d_circ = np.abs(wrap_signed(pts - pts.T))
    d_tan = np.abs(lifted.points[:, :1] - lifted.points[:, :1].T)
    assert np.abs(d_circ - d_tan).max() <= 1e-12
    # hence W_p is preserved exactly against any measure in the same ball
    other = DiscreteMeasure(np.mod(0.5 + rng.uniform(-0.2, 0.2, (10, 1)), 1.0),
                            np.full(10, 0.1))
    lifted_other = log_lift(chart, other)
    w_circ = wasserstein_1d(atoms, other, p=1, periodic=True)
    w_tan = wasserstein_1d(lifted, lifted_other, p=1)
    assert w_circ == pytest.approx(w_tan, abs=1e-12)


# ---------------------------------------------------------------------------
# bundle lifts
# ---------------------------------------------------------------------------

def make_fiber_density(m=64, kind="triangle"):
    z = -1 + (np.arange(m) + 0.5) * 2.0 / m
    if kind == "triangle":
        vals = np.maximum(0.0, 1 - np.abs(z) / 0.5)
    else:
        vals = bump_profile(z)
    vals = vals / (vals.sum() * 2.0 / m)
    return BoxDensity(vals, ((-1.0, 1.0),))


def test_bundle_lift_of_reference_marginal_is_reference():
    bl = BundleLift(2, [[1.0, 0.0]], grid_n=64)
    mt = make_fiber_density(64, kind="bump")  # g identically 1
    hat = bundle_lift(bl, mt)
    nu = bl.reference_box()
    scale = hat.integral() / nu.integral()
    assert np.abs(hat.values - scale * nu.values).max() <= 1e-10


def test_bundle_lift_fibers_are_rescaled_reference_fibers():
    bl = BundleLift(2, [[1.0, 0.0]], grid_n=64)
    mt = make_fiber_density(64, kind="triangle")
    hat = bundle_lift(bl, mt)
    z = mt.grid.axis_nodes(0)
    prof = bump_profile(z)
    for i in (20, 26, 32, 38, 44):
        fiber = hat.values[i]
        if fiber.max() <= 0:
            continue
        scaled = prof * (fiber.max() / prof.max())
        assert np.abs(fiber - scaled).max() <= 1e-8


def test_bundle_lift_mass_conservation_exact():
    bl = BundleLift(2, [[1.0, 0.0]], grid_n=64)
    mt = make_fiber_density(64)
    hat = bundle_lift(bl, mt)
    assert hat.integral() == pytest.approx(mt.integral(), abs=1e-12)


def test_bundle_projection_identity_1d():
    bl = BundleLift(2, [[1.0, 0.0]], grid_n=64)
    mt = make_fiber_density(64)
    hat = bundle_lift(bl, mt)
    proj = project_density(bl, hat, target=mt)
    h = 2.0 / 64
    assert fiber_w1(proj.normalized(), mt.normalized()) <= 2 * h


def test_bundle_projection_identity_rotated_projection():
    # non-axis-aligned rank-1 projection in R^2
    c, s = np.cos(0.4), np.sin(0.4)
    bl = BundleLift(2, [[c, s]], grid_n=96)
    bounds = bl.projected_bounds()
    m = 48
    z = bounds[0][0] + (np.arange(m) + 0.5) * (bounds[0][1] - bounds[0][0]) / m
    vals = np.where(np.abs(z) < 0.4, 1.0, 0.0)
    vals = vals / (vals.sum() * (bounds[0][1] - bounds[0][0]) / m)
    mt = BoxDensity(vals, bounds)
    hat = bundle_lift(bl, mt)
    proj = project_density(bl, hat, target=mt)
    h = (bounds[0][1] - bounds[0][0]) / m
    assert fiber_w1(proj.normalized(), mt.normalized()) <= 2 * h


def test_bundle_lift_halfspace_indicator():
    bl = BundleLift(2, [[1.0, 0.0]], grid_n=64)
    m = 64
    z = -1 + (np.arange(m) + 0.5) * 2.0 / m
    nu_r = bump_profile(z)
    vals = np.where((z > 0) & (z < 0.9), 2.0 * nu_r, 0.0)
    total = vals.sum() * 2.0 / m
    mt = BoxDensity(vals / total, ((-1.0, 1.0),))
    hat = bundle_lift(bl, mt)
    proj = project_density(bl, hat, target=mt)
    assert fiber_w1(proj.normalized(), mt.normalized()) <= 2 * (2.0 / m)


def test_bundle_lift_rejects_support_violation():
    bl = BundleLift(2, [[1.0, 0.0]], grid_n=32)
    m = 32
    vals = np.ones(m)
    vals = vals / (vals.sum() * 1.0 / m)
    outside = BoxDensity(vals, ((0.5, 1.5),))  # sticks out of supp r_* nu
    with pytest.raises(LiftError, match="support"):
        bundle_lift(bl, outside)


def test_bundle_lift_projection_shape_checks():
    with pytest.raises(LiftError, match="orthonormal"):
        BundleLift(2, [[1.0, 1.0]])
    with pytest.raises(LiftError):
        BundleLift(4, [[1.0, 0.0, 0.0, 0.0]])
    bl = BundleLift(3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], grid_n=24)
    mt2 = BoxDensity(np.ones((8, 8)) / 4.0, ((0.5, 1.5), (-1.0, 1.0)))
    with pytest.raises(LiftError, match="support"):
        bundle_lift(bl, mt2)  # box sticks out past the bump support


def test_bundle_lift_3d_ambient_with_2d_fiber():
    bl = BundleLift(3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], grid_n=24)
    m = 24
    z = -1 + (np.arange(m) + 0.5) * 2.0 / m
    xx, yy = np.meshgrid(z, z, indexing="ij")
    vals = np.where(xx ** 2 + yy ** 2 < 0.25, bump_profile(xx) * bump_profile(yy), 0.0)
    total = vals.sum() * (2.0 / m) ** 2
    mt = BoxDensity(vals / total, ((-1.0, 1.0), (-1.0, 1.0)))
    hat = bundle_lift(bl, mt)
    assert hat.grid.dim == 3
    proj = project_density(bl, hat, target=mt)
    h = 2.0 / m
    assert fiber_w1(proj.normalized(), mt.normalized()) <= 2 * h


# ---------------------------------------------------------------------------
# density comparison reports
# ---------------------------------------------------------------------------

def test_density_compare_circle_is_isometric():
    chart = ManifoldChart("circle", [0.0])
    rep = density_lift_compare(chart, GridDensity.uniform(1, 32))
    assert rep.ratio_min == pytest.approx(1.0, abs=1e-12)
    assert rep.ratio_max == pytest.approx(1.0, abs=1e-12)


def test_density_compare_sphere_cap_envelope():
    n = 64
    chart = ManifoldChart("sphere2", [0.0, 0.0])
    c = chart.cap
    ax = -c + (np.arange(n) + 0.5) * 2 * c / n
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    rr = np.sqrt(xx ** 2 + yy ** 2)
    vals = np.where(rr <= 0.3, 1.0, 0.0)
    g = GridDensity(2, n, vals / vals.mean())
    rep = density_lift_compare(chart, g)
    assert rep.ratio_min >= np.sin(0.3) / 0.3 - 1e-6
    assert rep.ratio_max <= 1.0 + 1e-6
    assert rep.convex_support


def test_density_compare_sphere_large_support_not_convex():
    n = 32
    chart = ManifoldChart("sphere2", [0.0, 0.0])
    c = chart.cap
    ax = -c + (np.arange(n) + 0.5) * 2 * c / n
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    rr = np.sqrt(xx ** 2 + yy ** 2)
    vals = np.where(rr <= 2.0, 1.0, 0.0)
    g = GridDensity(2, n, vals / vals.mean())
    rep = density_lift_compare(chart, g)
    assert rep.support_radius <= 2.0
    assert rep.support_radius > np.pi / 2
    assert not rep.convex_support
