"""Tests for kernel families, representation builders, and verification.

The statistical checks use fixed seeds throughout; the translation-family
modulus identity is exercised on directly constructed rigid rotations (the
one case where the sup distance equals the base distance exactly).
"""
import numpy as np
import pytest

from randmap.geometry import unit_torus_grid, wrap_unit
from randmap.kernel import (
    KernelError,
    KernelFamily,
    ModulusTable,
    RandomMapFamily,
    build_continuous_representation,
    build_measurable_representation,
    continuity_modulus,
    sample_random_map,
    verify_representation,
)
from randmap.measures import DiscreteMeasure, GridDensity
from randmap.transport import TransportMap


def circle_kernel(n=64, k=8, amp=0.4):
    x = (np.arange(n) + 0.5) / n
    base = (np.arange(k) / k)[:, None]
    measures = tuple(GridDensity(1, n, 1 + amp * np.cos(2 * np.pi * (x - b[0])))
                     for b in base)
    return KernelFamily("circle", base, measures)


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
                     (GridDensity.uniform(1, 8), DiscreteMeasure.dirac([0.0])))
    with pytest.raises(KernelError, match="one grid"):
        KernelFamily("circle", np.array([[0.0], [0.5]]),
                     (GridDensity.uniform(1, 8), GridDensity.uniform(1, 16)))
    with pytest.raises(KernelError, match="base space"):
        KernelFamily("moebius", np.array([[0.0], [0.5]]),
                     (GridDensity.uniform(1, 8), GridDensity.uniform(1, 8)))


def test_nearest_index_and_none_rule():
    kern = circle_kernel(k=4)
    assert kern.nearest_index([0.26]) == 1  # base points at 0, .25, .5, .75
    assert kern.nearest_index([0.0]) == 0
    strict = KernelFamily("circle", kern.base_points, kern.measures, interp="none")
    assert strict.nearest_index([0.25]) == 1  # exact base point still resolves
    with pytest.raises(KernelError, match="none"):
        strict.nearest_index([0.26])


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


def test_measurable_rejects_atomic_reference():
    kern = identity_kernel()
    with pytest.raises(KernelError, match="absolutely continuous"):
        build_measurable_representation(kern, DiscreteMeasure.dirac([0.0]))


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
    f = sample_random_map(fam, seed=5)
    values = [f(x) for x in kern.base_points]
    for v in values[1:]:
        assert np.allclose(v, values[0], atol=1e-12)


def test_sampled_translation_family_adds_shift():
    fam = translation_family()
    f = sample_random_map(fam, seed=9)
    omega = f.omega[0, 0]
    for s in fam.kernel.base_points[:, 0]:
        got = f([s])[0]
        assert abs(got - wrap_unit(omega + s)) <= 1e-9


def test_two_seeds_differ():
    kern = circle_kernel(n=64, k=4)
    fam = build_continuous_representation(kern)
    f1 = sample_random_map(fam, seed=1)
    f2 = sample_random_map(fam, seed=2)
    assert not np.allclose(f1.omega, f2.omega)
    x = kern.base_points[1]
    assert abs(f1(x)[0] - f2(x)[0]) > 1e-6


def test_interp_none_rejects_off_base_evaluation():
    kern = circle_kernel(n=32, k=4)
    strict = KernelFamily("circle", kern.base_points, kern.measures, interp="none")
    fam = build_continuous_representation(strict)
    f = sample_random_map(fam, seed=0)
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


def test_verification_report_deterministic():
    kern = circle_kernel(n=64, k=4)
    fam = build_continuous_representation(kern)
    r1 = verify_representation(fam, n_samples=1000, tol=0.05, seed=21)
    r2 = verify_representation(fam, n_samples=1000, tol=0.05, seed=21)
    assert r1.to_json() == r2.to_json()
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
    assert table.lipschitz == pytest.approx(1.0, abs=1e-9)


def test_modulus_moser_family_stable_under_base_refinement():
    fits = []
    for k in (8, 16):
        kern = circle_kernel(n=64, k=k)
        fam = build_continuous_representation(kern)
        fits.append(fam.modulus.lipschitz)
    assert abs(fits[1] - fits[0]) <= 0.2 * fits[0]


def test_modulus_rejects_mismatched_grids():
    fam = translation_family()
    other = translation_family(n=32)
    mixed = RandomMapFamily(fam.reference, fam.maps[:2] + other.maps[:2],
                            "measurable", fam.kernel, fam.pushforward_tol,
                            fam.pushforward_errors)
    with pytest.raises(KernelError, match="common grid"):
        continuity_modulus(mixed)


def test_modulus_envelope_fits_cover_all_pairs():
    fam = translation_family()
    table = continuity_modulus(fam)
    for alpha, c in table.fits.items():
        assert np.all(table.map_dists <= c * table.base_dists ** alpha + 1e-12)
