"""Tests for kernel families, representation builders, and verification.

The statistical checks use fixed seeds throughout; the translation-family
modulus identity is exercised on directly constructed rigid rotations (the
one case where the sup distance equals the base distance exactly).
"""
import json

import numpy as np
import pytest

from randmap import kernel
from randmap.geometry import GridSpec, unit_torus_grid, wrap_signed, wrap_unit
from randmap.kernel import (
    KernelError,
    KernelFamily,
    RandomMap,
    RandomMapFamily,
    base_distance_matrix,
    build_continuous_representation,
    build_measurable_representation,
    continuity_modulus,
    verify_representation,
)
from randmap.measures import (DiscreteMeasure, GridDensity, MeasureError, draw_sample,
                              grid_pushforward, wasserstein_1d)
from randmap.transport import MapError, SolverError, TransportMap

from oracles import dirac


def circle_kernel(n=64, k=8, amp=0.4):
    x = (np.arange(n) + 0.5) / n
    base = (np.arange(k) / k)[:, None]
    measures = tuple(GridDensity(1, n, 1 + amp * np.cos(2 * np.pi * (x - b[0])))
                     for b in base)
    return KernelFamily("circle", base, measures)


def interval_kernel(n=64, k=4):
    """Tilted densities on the line's unit interval, one slope per base point."""
    x = (np.arange(n) + 0.5) / n
    base = (np.arange(k) / k)[:, None]
    measures = tuple(GridDensity(1, n, 1 + (0.2 + b[0]) * (x - 0.5)) for b in base)
    return KernelFamily("interval", base, measures)


def identity_kernel(n=32, k=4):
    base = (np.arange(k) / k)[:, None]
    measures = tuple(GridDensity.uniform(1, n) for _ in range(k))
    return KernelFamily("circle", base, measures)


def translation_family(n=64, shifts=(0.0, 0.1, 0.3, 0.45)):
    """Hand-built rigid rotations of the circle: T_x(y) = y + x mod 1."""
    grid = unit_torus_grid(1, n)
    nodes = grid.nodes()
    base = np.array(shifts)[:, None]
    measures = tuple(GridDensity.uniform(1, n) for _ in shifts)
    kern = KernelFamily("circle", base, measures)
    maps = tuple(TransportMap(nodes, wrap_unit(nodes + s), route="composed", grid=grid)
                 for s in shifts)
    reference = GridDensity.uniform(1, n)
    return RandomMapFamily(reference, maps, "measurable", kern, 2.0 / n,
                           tuple(0.0 for _ in shifts))


def lipschitz_constant(table):
    """C_1 = max dT / dx over the modulus table's base-point pairs."""
    return float((table.map_dists / table.base_dists).max())


# ---------------------------------------------------------------------------
# family validation
# ---------------------------------------------------------------------------

def test_kernel_family_invariants():
    with pytest.raises(KernelError, match="two base points"):
        KernelFamily("circle", np.array([[0.0]]), (GridDensity.uniform(1, 8),))
    with pytest.raises(KernelError, match="distinct"):
        KernelFamily("circle", np.array([[0.1], [0.1]]),
                     (GridDensity.uniform(1, 8), GridDensity.uniform(1, 8)))
    with pytest.raises(KernelError, match="representation type"):
        KernelFamily("circle", np.array([[0.0], [0.5]]),
                     (GridDensity.uniform(1, 8), dirac([0.0])))
    with pytest.raises(KernelError, match="one grid"):
        KernelFamily("circle", np.array([[0.0], [0.5]]),
                     (GridDensity.uniform(1, 8), GridDensity.uniform(1, 16)))
    with pytest.raises(KernelError, match="base space"):
        KernelFamily("moebius", np.array([[0.0], [0.5]]),
                     (GridDensity.uniform(1, 8), GridDensity.uniform(1, 8)))
    with pytest.raises(KernelError, match="one measure per base point required"):
        KernelFamily("circle", np.array([[0.0], [0.3], [0.6]]), (GridDensity.uniform(1, 8),) * 2)


def test_family_rejects_base_points_of_the_wrong_width():
    # the target grid is 1D throughout: only the base points' width is checked
    for space, width, need in [("circle", 2, 1), ("interval", 2, 1), ("torus2", 1, 2),
                               ("sphere2-chart", 1, 2), ("sphere2-chart", 3, 2)]:
        pts = np.array([[0.1] * width, [0.3] * width])
        with pytest.raises(KernelError, match=f"{space} base points need {need} coordinate"):
            KernelFamily(space, pts, (GridDensity.uniform(1, 8),) * 2)


def test_nearest_index_and_none_rule():
    kern = circle_kernel(k=4)
    assert kern.nearest_index([0.26]) == 1  # base points at 0, .25, .5, .75
    assert kern.nearest_index([0.0]) == 0
    strict = KernelFamily("circle", kern.base_points, kern.measures, interp="none")
    assert strict.nearest_index([0.25]) == 1  # exact base point still resolves
    with pytest.raises(KernelError, match="none"):
        strict.nearest_index([0.26])


def atom_family(space, base, interp="nearest"):
    base = np.asarray(base, dtype=float)
    measures = tuple(dirac([0.5]) for _ in base)
    return KernelFamily(space, base, measures, interp=interp)


def test_sphere_base_points_1e9_apart_are_distinct():
    fam = atom_family("sphere2-chart", [[0.7, 1.2], [0.7 + 1e-9, 1.2]])
    assert fam.nearest_index([0.7 + 1e-9, 1.2]) == 1


def test_sphere_none_rule_rejects_a_point_1e9_off_a_base_point():
    fam = atom_family("sphere2-chart", [[0.7, 1.2], [1.5, 0.3]], interp="none")
    assert fam.nearest_index([0.7, 1.2]) == 0
    with pytest.raises(KernelError, match="none"):
        fam.nearest_index([0.7 + 1e-9, 1.2])


@pytest.mark.parametrize("sep", [1e-6, 1e-3])
def test_sphere_distance_along_a_meridian_is_the_colatitude_gap(sep):
    pts = np.array([[0.7, 1.2], [0.7 + sep, 1.2]])
    gap = pts[1, 0] - pts[0, 0]
    dist = base_distance_matrix("sphere2-chart", pts)[0, 1]
    assert dist == pytest.approx(gap, rel=1e-9)


def test_interval_base_distance_does_not_wrap():
    pts = np.array([[0.1], [0.9]])
    assert base_distance_matrix("interval", pts)[0, 1] == pytest.approx(0.8, abs=1e-15)
    assert base_distance_matrix("circle", pts)[0, 1] == pytest.approx(0.2, abs=1e-15)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_measurable_identity_kernel_gives_identity_maps():
    kern = identity_kernel()
    ref = GridDensity.uniform(1, 32)
    fam = build_measurable_representation(kern, ref)
    for t in fam.maps:
        assert np.abs(t.images - t.points).max() <= 1e-12


def test_continuous_identity_kernel_gives_identity_maps():
    kern = identity_kernel()
    fam = build_continuous_representation(kern)
    for t in fam.maps:
        assert np.abs(t.images - t.points).max() <= 1e-12


def test_measurable_wrapped_bumps_pushforward():
    kern = circle_kernel(n=64, k=8)
    ref = GridDensity.uniform(1, 64)
    fam = build_measurable_representation(kern, ref)
    assert max(fam.pushforward_errors) <= 2.0 / 64


def test_continuous_route_positivity_rejection_names_index():
    n = 32
    x = (np.arange(n) + 0.5) / n
    good = GridDensity(1, n, 1 + 0.3 * np.cos(2 * np.pi * x))
    flat = np.maximum(0.0, np.cos(2 * np.pi * x))
    bad = GridDensity(1, n, flat / flat.mean())
    kern = KernelFamily("circle", np.array([[0.0], [0.5]]), (good, bad))
    with pytest.raises(KernelError, match="base point 1"):
        build_continuous_representation(kern)


@pytest.mark.parametrize("build", [
    build_continuous_representation,
    lambda kern: build_measurable_representation(kern, GridDensity.uniform(1, 64))],
    ids=["continuous", "measurable"])
def test_pushforward_errors_read_the_target_at_the_one_w1_resolution(build):
    # each route's check is the plain circle W1 of the particle pushforward,
    # which reads a grid density at the resolution verify's W1 reads it at
    kern = circle_kernel(n=64, k=4)
    fam = build(kern)
    for t_map, target, err in zip(fam.maps, kern.measures, fam.pushforward_errors):
        assert err == wasserstein_1d(grid_pushforward(t_map, fam.reference), target,
                                     p=1, periodic=True)


def seam_measures(n=64):
    """Targets 1 + 0.9 cos(2 pi (x - s)), s = 0 and 0.3: a torus map to them
    from the uniform density moves mass across x = 0."""
    x = (np.arange(n) + 0.5) / n
    return tuple(GridDensity(1, n, 1 + 0.9 * np.cos(2 * np.pi * (x - s))) for s in (0.0, 0.3))


@pytest.mark.parametrize("space, base", [
    ("interval", [[0.0], [0.3]]), ("sphere2-chart", [[0.7, 1.2], [1.5, 0.3]])])
def test_continuous_route_refuses_targets_off_the_torus(space, base):
    # a torus map's node images jumped by 0.977 across the interval's seam,
    # and verify passed, since it checks only laws
    kern = KernelFamily(space, np.array(base), seam_measures())
    with pytest.raises(KernelError, match=f"'{space}'.*--route measurable"):
        build_continuous_representation(kern)


def test_measurable_rejects_atomic_reference():
    kern = identity_kernel()
    with pytest.raises(KernelError, match="absolutely continuous"):
        build_measurable_representation(kern, dirac([0.0]))


@pytest.mark.parametrize("error, raised", [
    (MapError("no map"), KernelError), (MeasureError("bad target"), KernelError),
    (SolverError("no solve"), KernelError), (TypeError("a bug"), TypeError)],
    ids=["map", "measure", "solver", "bug"])
def test_map_construction_turns_only_typed_errors_into_kernel_errors(monkeypatch, error,
                                                                      raised):
    # a typed error is a usage error at its base point; anything else is a
    # bug, and propagates as itself
    def broken(*args, **kwargs):
        raise error
    monkeypatch.setattr(kernel, "monotone_map_1d", broken)
    with pytest.raises(raised) as info:
        build_measurable_representation(circle_kernel(n=16, k=2), GridDensity.uniform(1, 16))
    prefix = "map construction failed at base point 0: " if raised is KernelError else ""
    assert str(info.value) == prefix + str(error)


def test_pushforward_check_fails_at_the_first_base_point_above_2_over_n(monkeypatch):
    # a W1 of exactly 2/n passes; the first one above it stops the build
    n = 16
    errors = iter([2.0 / n, 0.5])
    monkeypatch.setattr(kernel, "_pushforward_error", lambda *args: next(errors))
    with pytest.raises(KernelError, match=r"pushforward check failed at base point 1: "
                                          r"W1 = 5\.000e-01 > 1\.250e-01"):
        build_measurable_representation(circle_kernel(n=n, k=2), GridDensity.uniform(1, n))


def test_route_consistency():
    kern = circle_kernel(n=64, k=4)
    cont = build_continuous_representation(kern)
    meas = build_measurable_representation(kern, GridDensity.uniform(1, 64))
    r1 = verify_representation(cont, n_samples=4000, tol=0.05, seed=11)
    r2 = verify_representation(meas, n_samples=4000, tol=0.05, seed=11)
    assert r1.all_pass and r2.all_pass


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sampled_map_of_identity_family_is_constant():
    kern = identity_kernel()
    fam = build_continuous_representation(kern)
    f = RandomMap(fam, draw_sample(fam.reference, 1, 5), 5)
    values = [f(x) for x in kern.base_points]
    for v in values[1:]:
        assert np.allclose(v, values[0], atol=1e-12)


def test_sampled_translation_family_adds_shift():
    fam = translation_family()
    f = RandomMap(fam, draw_sample(fam.reference, 1, 9), 9)
    omega = f.omega[0, 0]
    for s in fam.kernel.base_points[:, 0]:
        got = f([s])[0]
        assert abs(got - wrap_unit(omega + s)) <= 1e-9


def test_two_seeds_differ():
    kern = circle_kernel(n=64, k=4)
    fam = build_continuous_representation(kern)
    f1 = RandomMap(fam, draw_sample(fam.reference, 1, 1), 1)
    f2 = RandomMap(fam, draw_sample(fam.reference, 1, 2), 2)
    assert not np.allclose(f1.omega, f2.omega)
    x = kern.base_points[1]
    assert abs(f1(x)[0] - f2(x)[0]) > 1e-6


def test_interp_none_rejects_off_base_evaluation():
    kern = circle_kernel(n=32, k=4)
    strict = KernelFamily("circle", kern.base_points, kern.measures, interp="none")
    fam = build_continuous_representation(strict)
    f = RandomMap(fam, draw_sample(fam.reference, 1, 0), 0)
    with pytest.raises(KernelError, match="none"):
        f([0.37])


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_verify_identity_family_monte_carlo_floor():
    kern = identity_kernel(n=64, k=4)
    fam = build_continuous_representation(kern)
    n = 10 ** 4
    rep = verify_representation(fam, n_samples=n, tol=0.05, seed=7)
    assert rep.all_pass
    assert rep.w1.max() <= 2.0 / np.sqrt(n) + 1.0 / 64
    assert rep.mc_floor == pytest.approx(0.5 / np.sqrt(n))


def test_verify_detects_corrupted_family():
    # amp 0.9 puts W1(uniform, bump) = 0.9 (2/pi) / (2 pi) ~ 0.091 >> tol
    kern = circle_kernel(n=64, k=4, amp=0.9)
    fam = build_continuous_representation(kern)
    grid = unit_torus_grid(1, 64)
    nodes = grid.nodes()
    broken = list(fam.maps)
    broken[2] = TransportMap(nodes, nodes, route="composed", grid=grid)
    corrupted = RandomMapFamily(fam.reference, tuple(broken), fam.route,
                                fam.kernel, fam.pushforward_tol,
                                fam.pushforward_errors)
    rep = verify_representation(corrupted, n_samples=4000, tol=0.05, seed=3)
    assert not rep.passed[2]
    assert rep.passed[[0, 1, 3]].all()


def test_verify_sqrt_n_scaling():
    kern = circle_kernel(n=64, k=4)
    fam = build_continuous_representation(kern)
    seeds = range(40, 45)
    small = np.mean([verify_representation(fam, 100, 0.5, s).w1.mean()
                     for s in seeds])
    large = np.mean([verify_representation(fam, 10 ** 4, 0.5, s).w1.mean()
                     for s in seeds])
    ratio = small / large
    assert 10 / 3 <= ratio <= 30


def test_verify_requires_minimum_samples():
    kern = identity_kernel()
    fam = build_continuous_representation(kern)
    with pytest.raises(KernelError, match="100"):
        verify_representation(fam, n_samples=50, tol=0.05, seed=1)


@pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0])
def test_verify_rejects_a_tol_that_is_not_finite_and_positive(tol):
    # inf passed every point, nan and -1.0 failed every point
    fam = build_continuous_representation(circle_kernel(n=32, k=4))
    with pytest.raises(KernelError, match="tol must be > 0 and finite"):
        verify_representation(fam, n_samples=100, tol=tol, seed=1)


@pytest.mark.parametrize("family", [
    lambda: build_continuous_representation(circle_kernel(n=64, k=4)),
    lambda: build_measurable_representation(interval_kernel(), GridDensity.uniform(1, 64))],
    ids=["circle-moser", "line-measurable"])
def test_verify_w1_does_not_depend_on_the_draw_order(family):
    # 1D verify sorts its draws; the W1 of each map's images in drawn order is the same
    fam = family()
    n, seed = 3000, 5
    rep = verify_representation(fam, n_samples=n, tol=0.05, seed=seed)
    draws = draw_sample(fam.reference, n, seed)
    assert np.any(np.diff(draws[:, 0]) < 0)
    periodic = fam.kernel.target_periodic
    for i, (t_map, target) in enumerate(zip(fam.maps, fam.kernel.measures)):
        emp = DiscreteMeasure(t_map.evaluate(draws), np.full(n, 1.0 / n))
        assert rep.w1[i] == wasserstein_1d(emp, target, p=1, periodic=periodic)


def test_verification_report_deterministic():
    kern = circle_kernel(n=64, k=4)
    fam = build_continuous_representation(kern)
    r1 = verify_representation(fam, n_samples=1000, tol=0.05, seed=21)
    r2 = verify_representation(fam, n_samples=1000, tol=0.05, seed=21)
    assert (json.dumps(r1.to_dict(), sort_keys=True, indent=2)
            == json.dumps(r2.to_dict(), sort_keys=True, indent=2))
    d = r1.to_dict()
    assert set(d) == {"route", "N", "seed", "tol", "mc_floor", "per_point", "modulus"}
    assert set(d["per_point"][0]) == {"x", "w1", "pass"}


# ---------------------------------------------------------------------------
# continuity modulus
# ---------------------------------------------------------------------------

def test_modulus_constant_family_is_zero():
    fam = translation_family(shifts=(0.2, 0.2 + 1e-12, 0.2 + 2e-12))
    # shifts collapse numerically: distances are zero within float resolution
    table = continuity_modulus(fam)
    assert table.map_dists.max() <= 1e-9


def test_modulus_translation_family_exact():
    fam = translation_family(shifts=(0.0, 0.1, 0.3, 0.45))
    table = continuity_modulus(fam)
    assert np.abs(table.map_dists - table.base_dists).max() <= 1e-12
    assert lipschitz_constant(table) == pytest.approx(1.0, abs=1e-9)


def test_modulus_moser_family_stable_under_base_refinement():
    consts = []
    for k in (8, 16):
        kern = circle_kernel(n=64, k=k)
        fam = build_continuous_representation(kern)
        consts.append(lipschitz_constant(fam.modulus))
    assert abs(consts[1] - consts[0]) <= 0.2 * consts[0]


@pytest.mark.parametrize("space, dim, periodic", [
    ("circle", 1, True), ("torus2", 2, True), ("interval", 1, False)])
def test_modulus_equals_the_pair_by_pair_table(space, dim, periodic):
    # one array operation per map gives the table that a loop over the pairs
    # (i, j > i) in row-major order gives, bit for bit
    n, k = 8, 5
    rng = np.random.default_rng(7)
    grid = GridSpec(dim, n, periodic=periodic)
    nodes = grid.nodes()
    kern = KernelFamily(space, rng.random((k, dim)), (GridDensity.uniform(dim, n),) * k)
    maps = tuple(TransportMap(nodes, nodes + 0.6 * rng.standard_normal(nodes.shape), grid=grid)
                 for _ in range(k))
    fam = RandomMapFamily(kern.measures[0], maps, "measurable", kern, 1.0, (None,) * k)
    dmat = base_distance_matrix(space, kern.base_points)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    base_d = np.array([dmat[i, j] for i, j in pairs])
    map_d = []
    for i, j in pairs:
        delta = maps[i].images - maps[j].images
        delta = wrap_signed(delta) if periodic else delta
        map_d.append(np.sqrt(np.sum(delta * delta, axis=1)).max())
    order = np.argsort(base_d, kind="stable")
    table = continuity_modulus(fam)
    assert np.array_equal(table.base_dists, base_d[order])
    assert np.array_equal(table.map_dists, np.array(map_d)[order])


def test_modulus_rejects_mismatched_grids():
    fam = translation_family()
    other = translation_family(n=32)
    mixed = RandomMapFamily(fam.reference, fam.maps[:2] + other.maps[:2],
                            "measurable", fam.kernel, fam.pushforward_tol,
                            fam.pushforward_errors)
    with pytest.raises(KernelError, match="common grid"):
        continuity_modulus(mixed)
