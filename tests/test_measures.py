"""Tests for measure representations, moments, pushforwards, and W_p.

Oracles: midpoint quadrature at fine resolution (moments), exhaustive
assignment expansion via scipy's Hungarian solver (exact W_p on rational
weights), and seeded Monte Carlo for the empirical-measure bound.
"""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from randmap.geometry import CostSpec, wrap_unit
from randmap.measures import (
    DiscreteMeasure,
    EmpiricalSample,
    GridDensity,
    MeasureError,
    draw_sample,
    empirical_measure,
    grid_pushforward,
    p_moment,
    pushforward,
    wasserstein_1d,
    wasserstein_exact,
)


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


def test_grid_density_invariants():
    g = GridDensity.uniform(1, 8)
    assert g.min_value == 1.0
    assert g.is_positive(0.5)
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
    assert np.array_equal(s1.draws, s2.draws)
    with pytest.raises(MeasureError):
        EmpiricalSample(np.zeros((0, 1)), 1)


# ---------------------------------------------------------------------------
# p_moment
# ---------------------------------------------------------------------------

def test_p_moment_dirac_at_base_is_zero():
    m = DiscreteMeasure.dirac([0.3, 0.4])
    for p in (1.0, 2.0, 3.5):
        assert p_moment(m, p, [0.3, 0.4]) == 0.0


def test_p_moment_two_atoms():
    m = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    assert p_moment(m, 2.0, [0.0]) == pytest.approx(0.5, abs=1e-15)


def test_p_moment_uniform_torus():
    # oracle: fine midpoint quadrature of the torus distance to 0
    fine = 1 << 14
    xs = (np.arange(fine) + 0.5) / fine
    oracle = np.minimum(xs, 1.0 - xs).mean()
    assert oracle == pytest.approx(0.25, abs=1e-12)
    g = GridDensity.uniform(1, 64)
    assert p_moment(g, 1.0, [0.0]) == pytest.approx(0.25, abs=1e-12)


def test_p_moment_rejects_bad_inputs():
    m = DiscreteMeasure.dirac([0.0])
    with pytest.raises(MeasureError):
        p_moment(m, 0.5, [0.0])
    with pytest.raises(MeasureError):
        p_moment(m, 1.0, [0.0, 0.0])


# ---------------------------------------------------------------------------
# pushforward
# ---------------------------------------------------------------------------

def test_pushforward_identity():
    m = DiscreteMeasure(np.array([[0.1], [0.7]]), np.array([0.25, 0.75]))
    out = pushforward(lambda x: x, m)
    assert np.allclose(out.points, m.points)
    assert np.allclose(out.weights, m.weights)


def test_pushforward_circle_translation():
    m = DiscreteMeasure.dirac([0.25])
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
    a = DiscreteMeasure.dirac([0.0])
    b = DiscreteMeasure.dirac([0.3])
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
    a = DiscreteMeasure.dirac([0.05])
    b = DiscreteMeasure.dirac([0.9])
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
def atom_measures(draw):
    """A 1D measure of 1-6 atoms anywhere in [-1, 2] with real-valued weights."""
    k = draw(st.integers(1, 6))
    x = draw(st.lists(st.floats(-1.0, 2.0), min_size=k, max_size=k))
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    return DiscreteMeasure(np.array(x)[:, None], w / w.sum())


@given(atom_measures(), atom_measures(), st.sampled_from([1.0, 2.0, 3.0]), st.booleans())
def test_w1d_matches_exact_lp(a, b, p, periodic):
    got = wasserstein_1d(a, b, p=p, periodic=periodic) ** p
    want = wasserstein_exact(a, b, p=p, periodic=periodic) ** p
    # the LP is certified to 1e-9 (dual feasibility and slackness)
    assert got == pytest.approx(want, abs=1e-9)


def test_w1d_rejects_2d():
    m = DiscreteMeasure(np.array([[0.0, 0.0]]), np.array([1.0]))
    with pytest.raises(MeasureError):
        wasserstein_1d(m, m, p=1)


# ---------------------------------------------------------------------------
# wasserstein_exact
# ---------------------------------------------------------------------------

def test_wexact_same_measure_zero():
    m = DiscreteMeasure(np.array([[0.2], [0.9]]), np.array([0.25, 0.75]))
    assert wasserstein_exact(m, m, p=2) <= 1e-9


def test_wexact_forced_plan():
    a = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    b = DiscreteMeasure.dirac([0.5])
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


def test_wexact_size_guard():
    big = DiscreteMeasure(np.linspace(0, 1, 5000)[:, None], np.full(5000, 1 / 5000))
    small = DiscreteMeasure.dirac([0.5])
    with pytest.raises(MeasureError, match="guard"):
        wasserstein_exact(big, small, p=1)


# ---------------------------------------------------------------------------
# empirical measures
# ---------------------------------------------------------------------------

def test_empirical_single_draw():
    s = EmpiricalSample(np.array([[0.3]]), seed=1)
    m = empirical_measure(s)
    assert m.size == 1 and m.weights[0] == 1.0


def test_empirical_merges_duplicates():
    s = EmpiricalSample(np.array([[0.3], [0.3]]), seed=1)
    m = empirical_measure(s)
    assert m.size == 1 and m.weights[0] == pytest.approx(1.0, abs=1e-15)


def test_empirical_monte_carlo_bound():
    n = 10 ** 4
    g = GridDensity.uniform(1, 64)
    sample = draw_sample(g, n, seed=2024)
    emp = empirical_measure(sample)
    dist = wasserstein_1d(emp, g, p=1, grid_subdiv=8)
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
    back = DiscreteMeasure.from_csv(path)
    assert np.array_equal(back.points, m.points)
    assert np.array_equal(back.weights, m.weights)


def test_grid_csv_round_trip(tmp_path):
    rng = np.random.default_rng(37)
    vals = 1 + rng.random((8, 8))
    g = GridDensity(2, 8, vals / vals.mean())
    path = tmp_path / "grid.csv"
    g.to_csv(path)
    assert path.read_text().splitlines()[0] == "dim,n"
    back = GridDensity.from_csv(path)
    assert back.dim == 2 and back.n == 8
    assert np.array_equal(back.values, g.values)


def test_csv_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(MeasureError):
        DiscreteMeasure.from_csv(bad)
    bad2 = tmp_path / "bad2.csv"
    bad2.write_text("dim,n\n1,8\n1.0\n")
    with pytest.raises(MeasureError):
        GridDensity.from_csv(bad2)
