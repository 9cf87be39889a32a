"""Tests for measure representations, pushforwards, and W_p.

Oracles: exhaustive assignment expansion via scipy's Hungarian solver
(exact W_p on rational weights), and seeded Monte Carlo for the
empirical-measure bound.
"""
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from randmap.geometry import CostSpec, pairwise_distance, wrap_unit
from randmap.measures import (
    DiscreteMeasure,
    GridDensity,
    MeasureError,
    _circle_w1,
    atoms_1d,
    draw_sample,
    grid_pushforward,
    read_measure,
    read_rows,
    read_text,
    wasserstein_1d,
    wasserstein_exact,
    wasserstein_sinkhorn_upper,
)

from oracles import circle_w1_sorted, dirac, empirical_measure, pushforward


def assignment_oracle(xa, wa, xb, wb, p=1.0, periodic=False):
    """Exact W_p^p for weights that are multiples of 1/L: expand every atom
    into unit-mass copies and solve the assignment problem."""
    scale = np.concatenate([wa, wb])
    l_denom = int(round(1.0 / scale[scale > 0].min()))
    while any(abs(w * l_denom - round(w * l_denom)) > 1e-9 for w in scale):
        l_denom += 1
    ua = np.repeat(np.arange(len(xa)), np.round(np.asarray(wa) * l_denom).astype(int))
    ub = np.repeat(np.arange(len(xb)), np.round(np.asarray(wb) * l_denom).astype(int))
    xa = np.atleast_2d(xa)
    xb = np.atleast_2d(xb)
    delta = xa[ua][:, None, :] - xb[ub][None, :, :]
    if periodic:
        delta = np.mod(delta + 0.5, 1.0) - 0.5
    cost = np.sqrt(np.sum(delta * delta, axis=-1)) ** p
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].sum() / l_denom


def rational_weights(rng, k, denom=16):
    parts = rng.multinomial(denom, np.full(k, 1.0 / k))
    while np.any(parts == 0):
        parts = rng.multinomial(denom, np.full(k, 1.0 / k))
    return parts / denom


# ---------------------------------------------------------------------------
# type invariants
# ---------------------------------------------------------------------------

def test_discrete_measure_invariants():
    m = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    assert m.size == 2 and m.dim == 1
    with pytest.raises(MeasureError):
        DiscreteMeasure(np.array([[0.0]]), np.array([0.9]))
    with pytest.raises(MeasureError):
        DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([1.5, -0.5]))
    with pytest.raises(MeasureError):
        DiscreteMeasure(np.array([[0.0]]), np.array([0.5, 0.5]))
    with pytest.raises(MeasureError, match=r"d in 1\.\.3, got \(2, 4\)"):
        DiscreteMeasure(np.zeros((2, 4)), np.array([0.5, 0.5]))


def test_grid_density_invariants():
    g = GridDensity.uniform(1, 8)
    assert g.min_value == 1.0
    assert g.min_value >= 0.5
    with pytest.raises(MeasureError):
        GridDensity(1, 8, np.full(8, 1.1))
    with pytest.raises(MeasureError):
        GridDensity(1, 12, np.ones(12))  # not a power of two
    with pytest.raises(MeasureError):
        GridDensity(1, 4, np.ones(4))  # below minimum size
    vals = np.ones(8)
    vals[0], vals[1] = -0.5, 2.5
    with pytest.raises(MeasureError):
        GridDensity(1, 8, vals)


def test_empirical_sample_reproducible():
    g = GridDensity.uniform(1, 16)
    s1 = draw_sample(g, 50, seed=42)
    s2 = draw_sample(g, 50, seed=42)
    assert np.array_equal(s1, s2)
    with pytest.raises(MeasureError, match="n_draws must be >= 1"):
        draw_sample(g, 0, seed=42)
    with pytest.raises(MeasureError):
        empirical_measure(np.zeros((0, 1)))


# ---------------------------------------------------------------------------
# pushforward
# ---------------------------------------------------------------------------

def test_pushforward_identity():
    m = DiscreteMeasure(np.array([[0.1], [0.7]]), np.array([0.25, 0.75]))
    out = pushforward(lambda x: x, m)
    assert np.allclose(out.points, m.points)
    assert np.allclose(out.weights, m.weights)


def test_pushforward_circle_translation():
    m = dirac([0.25])
    out = pushforward(lambda x: wrap_unit(x + 0.5), m)
    assert out.points[0, 0] == pytest.approx(0.75, abs=1e-15)


def test_pushforward_doubling():
    m = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    out = pushforward(lambda x: 2 * x, m)
    assert sorted(out.points[:, 0].tolist()) == [0.0, 2.0]
    assert np.allclose(out.weights, [0.5, 0.5])


def test_pushforward_rejects_undefined_point():
    m = DiscreteMeasure(np.array([[0.0], [0.5]]), np.array([0.5, 0.5]))

    def partial(x):
        if x[0, 0] > 0.25:
            return np.array([[np.nan]])
        return x

    with pytest.raises(MeasureError, match="0.5"):
        pushforward(partial, m)


def test_pushforward_conserves_mass():
    rng = np.random.default_rng(5)
    for _ in range(10):
        k = rng.integers(2, 9)
        m = DiscreteMeasure(rng.random((k, 2)), rational_weights(rng, k))
        out = pushforward(lambda x: 0.5 * x + 0.1, m)
        assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_grid_pushforward_identity():
    rng = np.random.default_rng(7)
    vals = 1 + 0.5 * rng.random(32)
    g = GridDensity(1, 32, vals / vals.mean())
    out = grid_pushforward(lambda x: x, g)
    assert np.abs(out.values - g.values).max() <= 1e-12


def test_grid_pushforward_half_period_rotation():
    rng = np.random.default_rng(8)
    vals = 1 + 0.5 * rng.random(32)
    g = GridDensity(1, 32, vals / vals.mean())
    out = grid_pushforward(lambda x: wrap_unit(x + 0.5), g)
    assert np.abs(out.values - np.roll(g.values, 16)).max() <= 1e-12


# ---------------------------------------------------------------------------
# wasserstein_1d
# ---------------------------------------------------------------------------

def test_w1d_identity_of_indiscernibles():
    m = DiscreteMeasure(np.array([[0.1], [0.4]]), np.array([0.5, 0.5]))
    assert wasserstein_1d(m, m, p=2) == 0.0
    g = GridDensity.uniform(1, 16)
    assert wasserstein_1d(g, g, p=1) <= 1e-12


def test_w1d_single_atom_translation():
    a = dirac([0.0])
    b = dirac([0.3])
    for p in (1.0, 2.0, 3.0):
        assert wasserstein_1d(a, b, p=p) == pytest.approx(0.3, abs=1e-12)


def test_w1d_uniform_scaling():
    # quantile formula: int_0^1 |t - 2t| dt = 1/2, realized on quantile-midpoint atoms
    n = 512
    q = (np.arange(n) + 0.5) / n
    a = DiscreteMeasure(q[:, None], np.full(n, 1.0 / n))
    b = DiscreteMeasure((2 * q)[:, None], np.full(n, 1.0 / n))
    assert wasserstein_1d(a, b, p=1) == pytest.approx(0.5, abs=1e-12)


def test_w1d_symmetry():
    rng = np.random.default_rng(3)
    a = DiscreteMeasure(rng.random((6, 1)), rational_weights(rng, 6))
    b = DiscreteMeasure(rng.random((5, 1)), rational_weights(rng, 5))
    for p in (1.0, 2.0):
        assert wasserstein_1d(a, b, p=p) == pytest.approx(
            wasserstein_1d(b, a, p=p), abs=1e-12)


def test_w1d_circle_two_atoms():
    a = dirac([0.05])
    b = dirac([0.9])
    assert wasserstein_1d(a, b, p=1, periodic=True) == pytest.approx(0.15, abs=1e-12)
    assert wasserstein_1d(a, b, p=2, periodic=True) == pytest.approx(0.15, abs=1e-12)


def test_w1d_circle_vs_assignment_oracle():
    rng = np.random.default_rng(13)
    for _ in range(12):
        ka, kb = rng.integers(2, 6, size=2)
        a = DiscreteMeasure(rng.random((ka, 1)), rational_weights(rng, ka, 8))
        b = DiscreteMeasure(rng.random((kb, 1)), rational_weights(rng, kb, 8))
        got = wasserstein_1d(a, b, p=1, periodic=True)
        want = assignment_oracle(a.points, a.weights, b.points, b.weights,
                                 p=1, periodic=True)
        assert got == pytest.approx(want, abs=1e-10)


def test_w1d_circle_p2_searches_every_level_shift():
    # the best coupling cuts neither measure at a support point: a cut search
    # over support points gives sqrt(0.072)
    a = DiscreteMeasure(np.array([[0.1], [0.5], [0.6]]), np.array([0.4, 0.4, 0.2]))
    b = DiscreteMeasure(np.array([[0.0], [0.1], [0.7]]), np.array([0.6, 0.1, 0.3]))
    got = wasserstein_1d(a, b, p=2, periodic=True)
    assert got == pytest.approx(np.sqrt(0.064), abs=1e-12)
    assert got == pytest.approx(wasserstein_exact(a, b, p=2, periodic=True), abs=1e-12)


@st.composite
def atom_measures(draw, cells=None):
    """A 1D measure of 1-6 atoms with real-valued weights: anywhere in [-1, 2],
    or, given cells, at multiples of 1/cells in [0, 1]."""
    k = draw(st.integers(1, 6))
    at = st.floats(-1.0, 2.0) if cells is None else st.integers(0, cells).map(lambda i: i / cells)
    x = draw(st.lists(at, min_size=k, max_size=k))
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    return DiscreteMeasure(np.array(x)[:, None], w / w.sum())


@st.composite
def reordered_measures(draw):
    """A 1D measure with 2-5 coincident atoms and 0-3 others, at multiples
    of 1/10 in [0, 1), and the same measure listed in another order."""
    k = draw(st.integers(2, 5))
    tenths = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4))
    x = np.array([tenths[0]] * (k - 1) + tenths) / 10
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(x), max_size=len(x))))
    perm = np.array(draw(st.permutations(range(len(x)))))
    return (DiscreteMeasure(x[:, None], w / w.sum()),
            DiscreteMeasure(x[perm, None], w[perm] / w.sum()))


@st.composite
def circle_atoms(draw):
    """A measure of 1-10 atoms in [0, 1), on multiples of 1/8 (so atoms and
    the two measures' steps coincide) or anywhere, some with weight 0."""
    k = draw(st.integers(1, 10))
    at = st.one_of(st.integers(0, 7).map(lambda i: i / 8), st.floats(0.0, 1.0, exclude_max=True))
    x = draw(st.lists(at, min_size=k, max_size=k))
    weight = st.one_of(st.just(0.0), st.sampled_from([0.1, 0.25, 1 / 3]), st.floats(0.01, 1.0))
    w = np.array(draw(st.lists(weight, min_size=k, max_size=k)))
    w[0] = max(w[0], 0.01)
    return DiscreteMeasure(np.array(x)[:, None], w / w.sum())


# the two forms' W1 differ by one ulp here (0.10795177399825212 against ...213)
_ULP_APART = (
    DiscreteMeasure(np.array([0.7, 0.6, 0.30247410485647275, 0.2, 0.3, 0.7, 0.2,
                              0.8976013423249442, 0.6, 0.8402942235655231, 0.3])[:, None],
                    np.array([15, 10, 0, 7.5, 30, 3, 3, 7.5, 7.5, 30, 7.5]) / 121),
    DiscreteMeasure(np.array([0.6, 0.388917683263162, 0.0, 0.7679170808488494, 0.9, 0.3,
                              0.3022749471549092])[:, None],
                    np.array([20, 0, 15, 6, 60, 0, 20]) / 121))


@given(circle_atoms(), circle_atoms())
@example(*_ULP_APART)
def test_circle_w1_matches_the_stable_sort_form(a, b):
    # the weighted median groups equal values, so where a tie puts half the
    # arc length at a step, t* may move to the next median: same W1 up to rounding
    atoms = (*atoms_1d(a, True), *atoms_1d(b, True))
    assert _circle_w1(*atoms) == pytest.approx(circle_w1_sorted(*atoms), rel=1e-15, abs=0.0)


@st.composite
def verify_scale_atoms(draw):
    """(xu, wu, xv, wv) as `verify` meets them: 10^3-10^4 sorted draws of
    weight 1/N, and 10^3-10^4 sorted images rotated by one index, as a
    monotone circle map returns them, with equal or random weights. A share
    of both sits on a 1/64 lattice, so that atoms coincide and values of
    F_mu - F_nu tie."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    share = draw(st.sampled_from([0.0, 0.1, 0.9]))

    def sorted_atoms(size):
        x = rng.random(size)
        on_lattice = rng.random(size) < share
        x[on_lattice] = np.floor(64 * x[on_lattice]) / 64
        return np.sort(x)

    n_u, n_v = draw(st.integers(1000, 10000)), draw(st.integers(1000, 10000))
    wv = np.full(n_v, 1.0) if draw(st.booleans()) else rng.random(n_v) + 0.01
    return (sorted_atoms(n_u), np.full(n_u, 1.0 / n_u),
            np.roll(sorted_atoms(n_v), 1), np.roll(wv / wv.sum(), 1))


@given(verify_scale_atoms())
def test_circle_w1_matches_the_stable_sort_form_at_verify_scale(atoms):
    assert _circle_w1(*atoms) == pytest.approx(circle_w1_sorted(*atoms), rel=1e-15, abs=0.0)


# three atoms at 0 and one at 0.4: with coincident atoms taken in list order,
# the two listings' cumulative weights differ by rounding, and the level
# segment between them paired 0 with 0.4 (W_1000 read 0.386)
_REORDERED = (DiscreteMeasure(np.array([[0.0], [0.0], [0.0], [0.4]]),
                              np.array([0.8, 0.5, 0.2, 0.2]) / 1.7),
              DiscreteMeasure(np.array([[0.0], [0.0], [0.4], [0.0]]),
                              np.array([0.2, 0.8, 0.2, 0.5]) / 1.7))


@given(reordered_measures(), st.sampled_from([1.0, 2.0, 1000.0]), st.booleans())
@example(_REORDERED, 1000.0, False)
@example(_REORDERED, 1000.0, True)
def test_wp_between_a_measure_and_itself_reordered_is_zero(pair, p, periodic):
    a, b = pair
    assert wasserstein_1d(a, b, p=p, periodic=periodic) == 0.0
    assert wasserstein_1d(b, a, p=p, periodic=periodic) == 0.0


@given(atom_measures(), atom_measures(), st.sampled_from([1.0, 2.0, 3.0]), st.booleans())
def test_w1d_matches_exact_lp(a, b, p, periodic):
    got = wasserstein_1d(a, b, p=p, periodic=periodic) ** p
    want = wasserstein_exact(a, b, p=p, periodic=periodic) ** p
    # the LP is certified to 1e-9 (dual feasibility and slackness)
    assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("a,midpoint_at", [(0.3, "b"), (np.nextafter(0.3, 1.0), "a")])
def test_w1d_charges_a_one_ulp_segment_to_its_own_atoms(a, midpoint_at):
    # mu and nu put mass a and the next float b on 0, the rest on 1: only
    # the one-ulp level segment [a, b] pairs 0 with 1, so W1 = b - a exactly.
    # The segment's midpoint rounds onto b in one case and onto a in the
    # other, so a lookup at the midpoint misses the segment in one of them
    # whichever side its searchsorted takes.
    b = np.nextafter(a, 1.0)
    assert 0.5 * (a + b) == {"a": a, "b": b}[midpoint_at]
    atoms = np.array([[0.0], [1.0]])
    mu = DiscreteMeasure(atoms, np.array([a, 1.0 - a]))
    nu = DiscreteMeasure(atoms, np.array([b, 1.0 - b]))
    assert wasserstein_1d(mu, nu, p=1) == b - a
    assert wasserstein_1d(nu, mu, p=1) == b - a


TWO_ATOM_PAIR = (DiscreteMeasure(np.array([[0.2], [0.8]]), np.array([0.5, 0.5])),
                 DiscreteMeasure(np.array([[0.4], [0.6]]), np.array([0.5, 0.5])))


@pytest.mark.parametrize("p", [50.0, 400.0, 1000.0])
@pytest.mark.parametrize("periodic", [False, True])
def test_wp_at_large_p_keeps_the_distance_every_coupling_moves(p, periodic):
    # every coupling of {0.2, 0.8} and {0.4, 0.6} moves all mass by 0.2, so
    # W_p = 0.2 for every p; 0.2^p underflows at p = 1000, and at p = 50 it
    # is below the LP's tolerances, where an arbitrary plan would certify
    a, b = TWO_ATOM_PAIR
    d = abs(0.8 - 0.6)  # the float distances are 0.2 and this, a few ulps above
    assert wasserstein_1d(a, b, p=p, periodic=periodic) == pytest.approx(d, rel=1e-15)
    assert wasserstein_exact(a, b, p=p, periodic=periodic) == pytest.approx(d, rel=1e-15)


@given(atom_measures(cells=1024), atom_measures(cells=1024))
def test_wp_grows_with_p_up_to_the_largest_distance(a, b):
    d_max = np.abs(a.points - b.points.T).max()
    orders = [1.0, 2.0, 3.0, 50.0, 1000.0]
    exact = [wasserstein_1d(a, b, p=p) for p in orders]
    lp = [wasserstein_exact(a, b, p=p) for p in orders]
    for lo, hi in zip(exact, exact[1:]):
        assert lo <= hi * (1 + 1e-12)
    assert exact[-1] <= d_max * (1 + 1e-12)
    for p, want, got in zip(orders, exact, lp):
        # the LP's plan is feasible, so it never beats the quantile coupling,
        # and it moves no mass further than the largest distance
        assert want * (1 - 1e-12) <= got <= d_max * (1 + 1e-9)
        if p <= 3:  # the LP is certified to 1e-9 of the largest cost
            assert got ** p == pytest.approx(want ** p, abs=1e-9)


@pytest.mark.parametrize("p", [50.0, 400.0, 1000.0])
def test_circle_wp_at_large_p_of_two_single_atoms_is_their_distance(p):
    # the search's shift ends a rounding width from the kink, where a level
    # segment of that width pairs 0.5 with the far lift 1.25 and read 0.7229
    # at p = 1000
    a, b = dirac([0.5]), dirac([0.25])
    assert wasserstein_1d(a, b, p=p, periodic=True) == 0.25


# Found by a seeded search over random circle pairs: at the optimal kink,
# nu's break cannot be shifted onto mu's in floating point, so unless the
# kink is evaluated with the two breaks at one level, W_1000 reads 0.70.
_THREE_ATOMS_AND_ONE = (
    DiscreteMeasure(np.array([[0.9090719628493051], [0.4033915375960583], [0.8203077943609558]]),
                    np.array([0.8126006098634461, 0.14330908460419292, 0.044090305532361054])),
    dirac([0.18033608654568278]), 2.0)


# Found by this test at 2,000 examples: both measures list the same weights,
# in another order, so breaks that should coincide differ by rounding, and
# at the optimal kink a segment of rounding width paired 0 with 0.67 by its
# far lift: W_1000 read 0.647 unless each pair is charged its circle distance.
_SAME_WEIGHTS = np.array([0.14556641797213526, 0.1547165850042652, 0.13040090926338152,
                          0.19759500967156715, 0.19759500967156715, 0.1741260684170837])
_SAME_WEIGHTS_REORDERED = (
    DiscreteMeasure(np.array([[2.2250738585e-313], [2.0], [-2.225073858507203e-309],
                              [2.2250738585e-313], [2.0], [1.671542312566375]]), _SAME_WEIGHTS),
    DiscreteMeasure(np.array([[2.2250738585e-313], [2.0], [1.671542312566375],
                              [2.2250738585e-313], [2.0], [1.671542312566375]]), _SAME_WEIGHTS),
    1.5)


@given(atom_measures(), atom_measures(), st.sampled_from([1.5, 2.0, 3.0]))
@example(*_THREE_ATOMS_AND_ONE)
@example(*_SAME_WEIGHTS_REORDERED)
def test_circle_wp_matches_exact_lp_and_stays_within_half_at_large_p(a, b, p):
    got = wasserstein_1d(a, b, p=p, periodic=True)
    want = wasserstein_exact(a, b, p=p, periodic=True)
    assert got ** p == pytest.approx(want ** p, abs=1e-9)  # the LP's certificate
    # no two points of the circle are more than 1/2 apart
    assert wasserstein_1d(a, b, p=1000.0, periodic=True) <= 0.5 * (1 + 1e-12)


def test_w1d_rejects_2d():
    m = DiscreteMeasure(np.array([[0.0, 0.0]]), np.array([1.0]))
    with pytest.raises(MeasureError):
        wasserstein_1d(m, m, p=1)


@pytest.mark.parametrize("p", [0.5, np.nan, np.inf])
def test_w1d_rejects_order_outside_finite_range(p):
    m = DiscreteMeasure(np.array([[0.2], [0.8]]), np.array([0.5, 0.5]))
    with pytest.raises(MeasureError, match="order p must be finite and >= 1"):
        wasserstein_1d(m, m, p=p)


@pytest.mark.parametrize("kind, p", [("dist_p", np.nan), ("dist_p", np.inf), ("sqdist", np.nan)])
def test_cost_spec_rejects_non_finite_exponent(kind, p):
    with pytest.raises(ValueError, match="must be finite"):
        CostSpec(kind, p=p)


# ---------------------------------------------------------------------------
# wasserstein_exact
# ---------------------------------------------------------------------------

def test_wexact_same_measure_zero():
    m = DiscreteMeasure(np.array([[0.2], [0.9]]), np.array([0.25, 0.75]))
    assert wasserstein_exact(m, m, p=2) <= 1e-9


def test_wexact_forced_plan():
    a = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    b = dirac([0.5])
    assert wasserstein_exact(a, b, p=1) == pytest.approx(0.5, abs=1e-12)


def test_wexact_vs_assignment_oracle_5_atoms():
    rng = np.random.default_rng(17)
    for _ in range(8):
        a = DiscreteMeasure(rng.random((5, 1)), rational_weights(rng, 5, 10))
        b = DiscreteMeasure(rng.random((5, 1)), rational_weights(rng, 5, 10))
        for p in (1.0, 2.0):
            got = wasserstein_exact(a, b, p=p)
            want = assignment_oracle(a.points, a.weights, b.points, b.weights, p=p)
            assert got ** p == pytest.approx(want, abs=1e-9)


def test_wexact_matches_quantile_formula():
    rng = np.random.default_rng(23)
    for _ in range(10):
        ka, kb = rng.integers(2, 9, size=2)
        a = DiscreteMeasure(rng.random((ka, 1)), rational_weights(rng, ka))
        b = DiscreteMeasure(rng.random((kb, 1)), rational_weights(rng, kb))
        for p in (1.0, 2.0):
            assert wasserstein_exact(a, b, p=p) == pytest.approx(
                wasserstein_1d(a, b, p=p), abs=1e-9)


def test_wexact_metric_axioms():
    rng = np.random.default_rng(29)
    triples = []
    for _ in range(4):
        ms = []
        for _ in range(3):
            k = rng.integers(2, 9)
            ms.append(DiscreteMeasure(rng.random((k, 2)), rational_weights(rng, k)))
        triples.append(ms)
    for a, b, c in triples:
        dab = wasserstein_exact(a, b, p=1)
        dba = wasserstein_exact(b, a, p=1)
        dac = wasserstein_exact(a, c, p=1)
        dcb = wasserstein_exact(c, b, p=1)
        assert abs(dab - dba) <= 1e-9
        assert dab <= dac + dcb + 1e-9


def test_order_monotonicity():
    rng = np.random.default_rng(31)
    for _ in range(5):
        a = DiscreteMeasure(rng.random((4, 1)), rational_weights(rng, 4))
        b = DiscreteMeasure(rng.random((4, 1)), rational_weights(rng, 4))
        w1 = wasserstein_exact(a, b, p=1)
        w2 = wasserstein_exact(a, b, p=2)
        w3 = wasserstein_exact(a, b, p=3)
        assert w1 <= w2 + 1e-9
        assert w2 <= w3 + 1e-9


def test_wexact_of_atoms_closer_than_the_square_underflow():
    # 2.6e-168 squared underflows to 0
    a, b = dirac([0.0]), dirac([2.6e-168])
    assert wasserstein_exact(a, b) == 2.6e-168


def test_wexact_size_guard():
    big = DiscreteMeasure(np.linspace(0, 1, 5000)[:, None], np.full(5000, 1 / 5000))
    small = dirac([0.5])
    with pytest.raises(MeasureError, match="guard"):
        wasserstein_exact(big, small, p=1)


@st.composite
def support_pairs(draw):
    """Two measures of 1-8 atoms in [0, 1)^dim, dim 1 or 2, with seeded points."""
    dim = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def measure():
        k = draw(st.integers(1, 8))
        w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
        return DiscreteMeasure(rng.random((k, dim)), w / w.sum())

    return measure(), measure()


@given(support_pairs(), st.booleans(), st.sampled_from([3, 20, 200]))
def test_sinkhorn_w1_bounds_the_exact_w1_from_above(pair, periodic, max_iter):
    # the rounded plan is feasible whether or not the solve converged, so
    # its cost is at least the LP optimum
    a, b = pair
    upper = wasserstein_sinkhorn_upper(a, b, periodic=periodic, max_iter=max_iter)
    assert upper >= wasserstein_exact(a, b, p=1, periodic=periodic) - 1e-12


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("call", ["pairwise_distance", "wasserstein_sinkhorn_upper"])
def test_dense_w1_path_holds_at_most_two_cost_sized_arrays(peak_traced_bytes, call, periodic):
    # 500 draws against a 32x32 density: the cost matrix is 500 x 1024. The
    # solve needs the cost and the stabilised kernel; a third full-size
    # temporary (a second axis delta, an outer-product patch) breaks the bound.
    v = np.random.default_rng(5).random((32, 32)) + 0.5
    rho = GridDensity(2, 32, v / v.mean())
    draws = draw_sample(rho, 500, seed=6)
    sample = empirical_measure(draws)
    nodes = rho.nodes()
    fn = {"pairwise_distance": lambda: pairwise_distance(draws, nodes, periodic),
          "wasserstein_sinkhorn_upper":
              lambda: wasserstein_sinkhorn_upper(sample, rho, periodic=periodic)}[call]
    assert peak_traced_bytes(fn) <= 2.5 * 500 * 1024 * 8


@pytest.mark.parametrize("periodic", [False, True])
def test_tall_w1_bound_holds_at_most_two_cost_sized_arrays(peak_traced_bytes, periodic):
    # 2048 draws against a 16x16 density: the cost is 2048 x 256, stored
    # with its columns contiguous, as is the stabilised kernel. The solve
    # needs both, and the rounding the cost and the plan; a third full-size
    # array (a kernel kept past the solve, a copy of the cost in the other
    # layout) breaks the bound.
    v = np.random.default_rng(7).random((16, 16)) + 0.5
    rho = GridDensity(2, 16, v / v.mean())
    sample = empirical_measure(draw_sample(rho, 2048, seed=8))
    peak = peak_traced_bytes(lambda: wasserstein_sinkhorn_upper(sample, rho, periodic=periodic))
    assert peak <= 2.5 * 2048 * 256 * 8


# ---------------------------------------------------------------------------
# empirical measures
# ---------------------------------------------------------------------------

def test_empirical_single_draw():
    m = empirical_measure(np.array([[0.3]]))
    assert m.size == 1 and m.weights[0] == 1.0


def test_empirical_merges_duplicates():
    m = empirical_measure(np.array([[0.3], [0.3]]))
    assert m.size == 1 and m.weights[0] == pytest.approx(1.0, abs=1e-15)


def test_empirical_monte_carlo_bound():
    n = 10 ** 4
    g = GridDensity.uniform(1, 64)
    sample = draw_sample(g, n, seed=2024)
    emp = empirical_measure(sample)
    dist = wasserstein_1d(emp, g, p=1)
    assert dist <= 2.0 / np.sqrt(n)


@pytest.mark.parametrize("dim", [1, 2])
def test_as_discrete_gives_empty_cells_no_atom(dim):
    vals = np.ones((8,) * dim)
    vals[(3,) * dim] = 0.0
    g = GridDensity(dim, 8, vals / vals.mean())
    for subdiv in (1, 2):
        atoms = g.as_discrete(subdiv)
        assert atoms.size == (8 ** dim - 1) * subdiv ** dim
        cells = np.floor(atoms.points * 8).astype(int)
        assert not np.any(np.all(cells == 3, axis=1))
        assert atoms.weights.min() > 0


def test_discrete_measure_is_its_own_discretisation():
    m = DiscreteMeasure(np.array([[0.1], [0.7]]), np.array([0.25, 0.75]))
    assert m.as_discrete() is m
    assert m.as_discrete(subdiv=4) is m


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_discrete_csv_round_trip(tmp_path):
    m = DiscreteMeasure(np.array([[0.1, 0.2], [0.7, 0.8]]), np.array([0.25, 0.75]))
    path = tmp_path / "atoms.csv"
    m.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "x0,x1,w"
    back = read_measure(path)
    assert np.array_equal(back.points, m.points)
    assert np.array_equal(back.weights, m.weights)


def test_atom_csv_with_crlf_line_endings_still_reads(tmp_path):
    # earlier versions wrote atom files through csv.writer, which ends lines in \r\n
    path = tmp_path / "atoms.csv"
    path.write_bytes(b"x0,x1,w\r\n0.1,0.2,0.25\r\n0.7,0.8,0.75\r\n")
    assert read_rows(path) == [(1, "x0,x1,w"), (2, "0.1,0.2,0.25"), (3, "0.7,0.8,0.75")]
    back = read_measure(path)
    assert np.array_equal(back.points, [[0.1, 0.2], [0.7, 0.8]])
    assert np.array_equal(back.weights, [0.25, 0.75])


def test_rows_skip_blank_lines_and_comments_and_keep_line_numbers(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("\n# a comment\n  x0,w  \n\n   # indented comment\n0.5,1.0\n")
    assert read_rows(path) == [(3, "x0,w"), (6, "0.5,1.0")]
    back = read_measure(path)
    assert np.array_equal(back.points, [[0.5]]) and np.array_equal(back.weights, [1.0])


def test_grid_csv_round_trip(tmp_path):
    rng = np.random.default_rng(37)
    vals = 1 + rng.random((8, 8))
    g = GridDensity(2, 8, vals / vals.mean())
    path = tmp_path / "grid.csv"
    g.to_csv(path)
    assert path.read_text().splitlines()[0] == "dim,n"
    back = read_measure(path)
    assert back.dim == 2 and back.n == 8
    assert np.array_equal(back.values, g.values)
    # the 'dim,n' header may be left out: a first row that starts with a digit
    # is the metadata row
    path.write_text("\n".join(path.read_text().splitlines()[1:]) + "\n")
    assert np.array_equal(read_measure(path).values, g.values)


def test_csv_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(MeasureError):
        read_measure(bad)
    bad2 = tmp_path / "bad2.csv"
    bad2.write_text("dim,n\n1,8\n1.0\n")
    with pytest.raises(MeasureError):
        read_measure(bad2)


@pytest.mark.parametrize("header", ["x0,foo,w", "x1,w", "x0,x1", "w", "x0,w,w",
                                    "x0,x1,x2,x3,w"])
def test_atom_header_must_be_exact(tmp_path, header):
    path = tmp_path / "atoms.csv"
    path.write_text(f"{header}\n" + "0.5," * header.count(",") + "1.0\n")
    expected = re.escape(f"line 1: expected header 'x0[,x1[,x2]],w', got '{header}'")
    with pytest.raises(MeasureError, match=expected):
        read_measure(path)


@pytest.mark.parametrize("text, needle", [
    ('x0,w\n"0.5",1.0\n', "line 2"), ('dim,n\n1,8\n' + '"1.0"\n' * 8, "line 3"),
    ("x0,w\n0.5\n", "line 2: expected 2 values, got 1"), ("", "empty measure file"),
    ("# only a comment\n\n", "empty measure file"), ("dim,n\n", "expected 'dim,n' metadata")],
    ids=["quoted-atom", "quoted-grid", "short-row", "empty", "comments-only", "no-metadata"])
def test_malformed_measure_files_name_the_line(tmp_path, text, needle):
    # fields are numbers as float() reads them: a quoted number is not one
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(MeasureError, match=needle):
        read_measure(path)


@pytest.mark.parametrize("make, needle", [
    (lambda d: d / "missing.csv", "input file not found"),
    (lambda d: d, "is not a regular file"),
    (lambda d: (d / "bin.csv").write_bytes(b"x0,w\n\xff\n") and d / "bin.csv", "is not text")],
    ids=["missing", "directory", "not-text"])
def test_read_text_names_a_path_it_cannot_read(tmp_path, make, needle):
    with pytest.raises(MeasureError, match=needle):
        read_text(make(tmp_path))
