"""Tests for the coupling solvers and monotone/Brenier maps, and for the
Legendre transform and map inversion of tests/oracles.py.

Oracles: recursive vertex enumeration of the transportation polytope
(independent of the LP library), the Hungarian assignment expansion,
closed-form quantile compositions, and analytic conjugates.
"""
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import logsumexp

from randmap import transport
from randmap.geometry import CostSpec, GridSpec, _row_blocks, wrap_signed, wrap_unit
from randmap.kernel import stability_experiment
from randmap.measures import (
    DiscreteMeasure,
    GridDensity,
    atoms_1d,
    circle_rotation,
    draw_sample,
    grid_pushforward,
    wasserstein_1d,
    wasserstein_sinkhorn_upper,
)
from randmap.moser import moser_map
from randmap.transport import (
    MapError,
    SolverError,
    TransportMap,
    TransportPlan,
    brenier_map,
    monotone_map_1d,
    solve_exact,
    solve_sinkhorn,
)

from oracles import (
    PotentialGrid,
    barycentric_images,
    brenier_potential,
    check_cyclical_monotonicity,
    deterministic_plan_cost,
    dirac,
    empirical_measure,
    grid_cdf,
    grid_quantile_bisection,
    invert_map,
    legendre_transform,
    potential_consistency,
    pushforward,
)


def vertex_enumeration_min(cost, a, b):
    """LP optimum by enumerating extreme plans via recursive saturation.

    Every basic feasible solution of the transportation polytope arises from
    some order of row/column saturations, so the minimum over all generated
    plans is the exact LP value. Costs must be nonnegative for the pruning.
    """
    best = [np.inf]

    def rec(a, b, acc):
        rows = [i for i, w in enumerate(a) if w > 1e-15]
        cols = [j for j, w in enumerate(b) if w > 1e-15]
        if not rows or not cols:
            best[0] = min(best[0], acc)
            return
        if acc >= best[0]:
            return
        for i in rows:
            for j in cols:
                q = min(a[i], b[j])
                a2 = list(a)
                b2 = list(b)
                a2[i] -= q
                b2[j] -= q
                # enumerate both saturation choices on ties
                if a2[i] <= 1e-15 or b2[j] > 1e-15:
                    rec([w if k != i else 0.0 for k, w in enumerate(a2)], b2,
                        acc + q * cost[i][j])
                if b2[j] <= 1e-15 or a2[i] > 1e-15:
                    rec(a2, [w if k != j else 0.0 for k, w in enumerate(b2)],
                        acc + q * cost[i][j])

    rec(list(a), list(b), 0.0)
    return best[0]


def rational_weights(rng, k, denom=16):
    parts = rng.multinomial(denom, np.full(k, 1.0 / k))
    while np.any(parts == 0):
        parts = rng.multinomial(denom, np.full(k, 1.0 / k))
    return parts / denom


# ---------------------------------------------------------------------------
# exact LP
# ---------------------------------------------------------------------------

def test_exact_dirac_pair():
    d = dirac([0.0])
    plan = solve_exact(d, d, CostSpec("sqdist"))
    assert plan.gamma.shape == (1, 1)
    assert plan.gamma[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert plan.cost == pytest.approx(0.0, abs=1e-15)


def test_exact_identity_pair_is_diagonal():
    m = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    plan = solve_exact(m, m, CostSpec("sqdist"))
    assert np.allclose(plan.gamma, np.diag([0.5, 0.5]), atol=1e-12)
    assert plan.cost == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("shape", [(3, 3), (4, 4), (3, 4)])
def test_exact_matches_vertex_enumeration(shape):
    rng = np.random.default_rng(sum(shape))
    for _ in range(3):
        m, n = shape
        a = DiscreteMeasure(rng.random((m, 2)), rational_weights(rng, m, 8))
        b = DiscreteMeasure(rng.random((n, 2)), rational_weights(rng, n, 8))
        spec = CostSpec("sqdist")
        plan = solve_exact(a, b, spec)
        want = vertex_enumeration_min(spec.matrix(a.points, b.points),
                                      a.weights, b.weights)
        assert plan.cost == pytest.approx(want, abs=1e-10)


def test_exact_certification_invariants():
    rng = np.random.default_rng(41)
    for kind in ("sqdist", "dist_p", "negdot"):
        a = DiscreteMeasure(rng.random((6, 2)), rational_weights(rng, 6))
        b = DiscreteMeasure(rng.random((7, 2)), rational_weights(rng, 7))
        spec = CostSpec(kind, p=1.5)
        plan = solve_exact(a, b, spec)
        plan.validate(spec)
        c = spec.matrix(a.points, b.points)
        slack = c - plan.dual_u[:, None] - plan.dual_v[None, :]
        assert slack.min() >= -1e-9
        assert np.abs(slack[plan.gamma > 1e-12]).max() <= 1e-9


def patch_linprog(monkeypatch, edit):
    """Make solve_exact see every HiGHS result after `edit` has changed it in place."""
    import scipy.optimize

    real = scipy.optimize.linprog

    def patched(*args, **kwargs):
        res = real(*args, **kwargs)
        edit(res)
        return res

    monkeypatch.setattr(scipy.optimize, "linprog", patched)


def random_pair(seed, weights=rational_weights):
    rng = np.random.default_rng(seed)
    return (DiscreteMeasure(rng.random((5, 2)), weights(rng, 5)),
            DiscreteMeasure(rng.random((6, 2)), weights(rng, 6)))


def dirichlet_weights(rng, k):
    return rng.dirichlet(np.ones(k))


# Weights in sixteenths make the optimal plan degenerate: its support is a
# forest of several trees, not one spanning tree of the 5 + 6 atoms.
@pytest.mark.parametrize("weights,trees", [(rational_weights, 2), (dirichlet_weights, 1)],
                         ids=["forest", "tree"])
def test_exact_falls_back_to_support_forest_duals(monkeypatch, weights, trees):
    a, b = random_pair(5, weights)
    spec = CostSpec("sqdist")
    want = solve_exact(a, b, spec)
    assert np.count_nonzero(want.gamma > 1e-12) == a.size + b.size - trees

    def zero_duals(res):
        res.eqlin.marginals = np.zeros_like(res.eqlin.marginals)

    patch_linprog(monkeypatch, zero_duals)
    plan = solve_exact(a, b, spec)
    assert plan.cost == want.cost
    c = spec.matrix(a.points, b.points)
    slack = c - plan.dual_u[:, None] - plan.dual_v[None, :]
    assert slack.min() >= -1e-9
    assert np.abs(slack[plan.gamma > 1e-12]).max() <= 1e-9


def test_exact_raises_when_neither_dual_set_certifies(monkeypatch):
    a, b = random_pair(6)

    def product_plan_no_duals(res):  # feasible, not optimal, and no duals
        res.x = np.outer(a.weights, b.weights).ravel()
        res.eqlin.marginals = np.zeros_like(res.eqlin.marginals)

    patch_linprog(monkeypatch, product_plan_no_duals)
    with pytest.raises(SolverError, match="certification failed"):
        solve_exact(a, b, CostSpec("sqdist"))


# ---------------------------------------------------------------------------
# entropic solver
# ---------------------------------------------------------------------------

def test_sinkhorn_same_measure_large_epsilon():
    rng = np.random.default_rng(43)
    m = DiscreteMeasure(rng.random((6, 1)), rational_weights(rng, 6))
    plan = solve_sinkhorn(m, m, CostSpec("sqdist"), epsilon=10.0)
    assert plan.cost >= 0.0
    assert plan.marginal_violation() <= 1e-9
    # large epsilon drives the plan toward the product coupling
    prod = np.outer(m.weights, m.weights)
    assert np.abs(plan.gamma - prod).max() <= 0.05


def test_sinkhorn_close_to_lp_and_monotone_in_epsilon():
    rng = np.random.default_rng(47)
    a = DiscreteMeasure(rng.random((20, 1)), np.full(20, 0.05))
    b = DiscreteMeasure(rng.random((20, 1)), np.full(20, 0.05))
    spec = CostSpec("sqdist")
    lp = solve_exact(a, b, spec)
    costs = []
    for eps in (1e-1, 1e-2, 1e-3):
        plan = solve_sinkhorn(a, b, spec, epsilon=eps, max_iter=4000, tol=1e-9)
        assert plan.marginal_violation() <= 1e-9
        assert plan.cost >= lp.cost - 1e-12
        costs.append(plan.cost)
    assert costs[0] >= costs[1] - 1e-12
    assert costs[1] >= costs[2] - 1e-12
    assert abs(costs[-1] - lp.cost) <= 1e-2


def test_sinkhorn_flags_non_convergence():
    rng = np.random.default_rng(53)
    a = DiscreteMeasure(rng.random((12, 1)), rational_weights(rng, 12))
    b = DiscreteMeasure(rng.random((12, 1)), rational_weights(rng, 12))
    plan = solve_sinkhorn(a, b, CostSpec("sqdist"), epsilon=1e-4, max_iter=3,
                          tol=1e-14)
    assert not plan.converged
    assert plan.marginal_violation() <= 1e-9  # rounding repairs marginals anyway


def test_sinkhorn_rejects_bad_epsilon():
    m = dirac([0.0])
    with pytest.raises(SolverError):
        solve_sinkhorn(m, m, CostSpec("sqdist"), epsilon=0.0)


@pytest.mark.parametrize("name,value", [("epsilon", np.nan), ("epsilon", np.inf),
                                        ("tol", 0.0), ("tol", np.nan), ("tol", np.inf),
                                        ("max_iter", 0), ("max_iter", -5)])
def test_sinkhorn_rejects_non_finite_or_non_positive_settings(name, value):
    m = dirac([0.0])
    settings = {"epsilon": 1e-2, name: value}
    with pytest.raises(SolverError, match=name):
        solve_sinkhorn(m, m, CostSpec("sqdist"), **settings)


@pytest.mark.parametrize("max_iter", [5, 5000], ids=["unconverged", "converged"])
@pytest.mark.parametrize("shape", [(40, 9), (9, 40)], ids=["tall", "wide"])
def test_sinkhorn_plan_is_feasible_and_keeps_its_cost_on_tall_and_wide_supports(
        shape, max_iter):
    # zero weights on both sides; the rounding works in blocks along the
    # contiguous axis, which is the columns of a tall plan and the rows of a
    # wide one
    rng = np.random.default_rng(73)
    wa, wb = rng.dirichlet(np.ones(shape[0])), rng.dirichlet(np.ones(shape[1]))
    wa[[0, 4]] = wb[[1, 2]] = 0.0
    mu = DiscreteMeasure(rng.random((shape[0], 2)), wa / wa.sum())
    nu = DiscreteMeasure(rng.random((shape[1], 2)), wb / wb.sum())
    spec = CostSpec("dist_p", p=1, periodic=True)
    plan = solve_sinkhorn(mu, nu, spec, epsilon=1e-2, max_iter=max_iter)
    assert plan.converged == (max_iter > 5)
    plan.validate(spec)  # marginals within MARGINAL_TOL, cost = sum(gamma * C)
    assert np.all(plan.gamma[[0, 4]] == 0.0) and np.all(plan.gamma[:, [1, 2]] == 0.0)


def test_sinkhorn_plan_of_the_zero_weight_pair_is_feasible():
    # the geometry of _ZERO_WEIGHT_PAIR: the entry between the two
    # zero-weight atoms has (f_1 + g_1 - c_11)/eps = 2000, which overflows
    # unless the zero weights enter the plan's exponent as log 0 = -inf
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([1.0, 0.0]))
    nu = DiscreteMeasure(np.array([[1.0], [2.0]]), np.array([1.0, 0.0]))
    spec = CostSpec("sqdist")
    plan = solve_sinkhorn(mu, nu, spec, epsilon=1e-3)
    plan.validate(spec)
    assert np.array_equal(plan.gamma, [[1.0, 0.0], [0.0, 0.0]])


def reference_potentials(c, wa, wb, epsilon, max_iter, tol):
    """Log-domain Sinkhorn, each half-step a full logsumexp over the cost
    matrix, with the schedule, warm-level stopping rule, overrelaxation,
    plain-step cadence, safeguard and stopping rule of the solver."""
    with np.errstate(divide="ignore"):
        la, lb = np.log(wa), np.log(wb)
    levels = [epsilon]
    lvl = 1.0
    while lvl > epsilon:
        levels.append(lvl)
        lvl *= 0.5
    levels = sorted(set(levels), reverse=True)
    budget = min(transport._WARM_MAX, max(1, max_iter // (2 * len(levels))))
    f, g = np.zeros(len(wa)), np.zeros(len(wb))
    iters, converged = 0, False
    for li, eps in enumerate(levels):
        final = li == len(levels) - 1
        relax = transport._OMEGA if final else 1.0
        err = np.inf
        it = 0
        while True:
            it += 1
            iters += 1
            last = final and iters >= max_iter
            plain = relax == 1.0 or it % transport._PLAIN_EVERY == 0 or last
            sk_f = -eps * logsumexp((g[None, :] - c) / eps + lb[None, :], axis=1)
            f = sk_f if plain else f + relax * (sk_f - f)
            sk_g = -eps * logsumexp((f[:, None] - c) / eps + la[:, None], axis=0)
            g_new = sk_g if plain else g + relax * (sk_g - g)
            if plain:
                with np.errstate(over="ignore", invalid="ignore"):
                    ratio = np.exp((g - g_new) / eps)
                prev = err
                err = float(np.sum(np.abs(wb * np.where(np.isfinite(ratio), ratio, 1.0) - wb)))
                if final and err > prev * (1 + transport._RISE):
                    relax = 1.0
            g = g_new
            if not final:
                if err <= transport._WARM_TOL or it >= budget:
                    break
            elif err <= tol:
                converged = True
                break
            elif last:
                break
        if final:
            break
    return f, g, converged, err, iters


def row_normalised_column_error(c, wa, wb, g, eps):
    """L1 column violation of the plan a_i softmax_j((g_j - C_ij)/eps + log b_j),
    by logsumexp: the row-feasible plan of the potential g alone."""
    with np.errstate(divide="ignore"):
        lb = np.log(wb)
    logits = (g[None, :] - c) / eps + lb[None, :]
    plan = wa[:, None] * np.exp(logits - logsumexp(logits, axis=1)[:, None])
    return float(np.abs(plan.sum(axis=0) - wb).sum())


def _weights(draw, k):
    w = np.array(draw(st.lists(st.integers(0, 9), min_size=k, max_size=k)
                      .filter(lambda v: sum(v) > 0)), dtype=float)
    return w / w.sum()


@st.composite
def sinkhorn_cases(draw):
    """Random supports (zero weights included) and a cost: the W1 cost d^1 on
    the torus or the box, or the squared distance at epsilon down to 1e-4."""
    m, n, dim = draw(st.integers(2, 24)), draw(st.integers(2, 24)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = draw(st.sampled_from([CostSpec("dist_p", p=1, periodic=True),
                                 CostSpec("dist_p", p=1, periodic=False),
                                 CostSpec("sqdist")]))
    epsilon = draw(st.sampled_from([1e-1, 1e-2, 1e-3, 1e-4]))
    c = spec.matrix(rng.random((m, dim)), rng.random((n, dim)))
    return c, _weights(draw, m), _weights(draw, n), epsilon, draw(st.sampled_from([1e-4, 1e-9]))


# Nothing bounds f_1 + g_1 - C_11 between the two zero-weight atoms of this
# case: it reaches 2, so a kernel entry exp(2 / eps) would overflow at
# eps = 1/512 and meet an exact zero scaling (inf * 0 = NaN).
_ZERO_WEIGHT_PAIR = (CostSpec("sqdist").matrix(np.array([[0.0], [1.0]]),
                                              np.array([[1.0], [2.0]])),
                     np.array([1.0, 0.0]), np.array([1.0, 0.0]), 1e-3, 1e-9)


def _tall_torus_w1():
    """W1 on the torus with more rows than columns and a zero-weight row, the
    cost in Fortran order as `pairwise_distance` builds it for a tall
    problem, so that the kernel's columns are contiguous."""
    rng = np.random.default_rng(67)
    wa = rng.dirichlet(np.ones(40))
    wa[5] = 0.0
    c = np.asfortranarray(CostSpec("dist_p", p=1, periodic=True)
                          .matrix(rng.random((40, 2)), rng.random((9, 2))))
    return c, wa / wa.sum(), rng.dirichlet(np.ones(9)), 1e-3, 1e-9


@given(sinkhorn_cases())
@example(_ZERO_WEIGHT_PAIR)
@example(_tall_torus_w1())
def test_sinkhorn_potentials_match_log_domain_reference(case):
    c, wa, wb, epsilon, tol = case
    f, g, converged, _, iters = transport._sinkhorn_potentials(c, wa, wb, epsilon, 300, tol)
    rf, rg, r_converged, _, r_iters = reference_potentials(c, wa, wb, epsilon, 300, tol)
    assert (iters, converged) == (r_iters, r_converged)
    assert np.abs(f - rf).max() <= 1e-10 * max(1.0, np.abs(rf).max())
    assert np.abs(g - rg).max() <= 1e-10 * max(1.0, np.abs(rg).max())
    if converged:  # the certificate does not depend on the path to g
        assert row_normalised_column_error(c, wa, wb, g, epsilon) <= tol


def _recorded_absorbs(monkeypatch):
    """Patch _StabilisedKernel.absorb to record (eps, at a level start) per
    call: a call at a level start changes the kernel's epsilon, a drift
    absorption or an underflow retry within a level keeps it. Every call
    must leave both scalings at 1, so the potentials it was given are the
    ones the kernel state gives back."""
    calls = []
    absorb = transport._StabilisedKernel.absorb

    def recorded(self, f, g, eps):
        calls.append((eps, getattr(self, "eps", None) != eps))
        absorb(self, f, g, eps)
        assert np.all(self.u == 1.0) and np.all(self.v == 1.0)
        assert all(np.array_equal(a, b) for a, b in zip(self.potentials(), (f, g)))

    monkeypatch.setattr(transport._StabilisedKernel, "absorb", recorded)
    return calls


def test_sinkhorn_absorbs_within_a_level_and_matches_reference(monkeypatch):
    rng = np.random.default_rng(59)
    x, y = rng.random((30, 2)), rng.random((25, 2))
    c = CostSpec("sqdist").matrix(x, y)
    wa, wb = rng.dirichlet(np.ones(30)), rng.dirichlet(np.ones(25))
    absorbed = _recorded_absorbs(monkeypatch)
    f, g, converged, _, iters = transport._sinkhorn_potentials(c, wa, wb, 1e-4, 2000, 1e-9)
    rf, rg, r_converged, _, r_iters = reference_potentials(c, wa, wb, 1e-4, 2000, 1e-9)
    assert any(not at_start for _, at_start in absorbed)  # some were mid-level
    assert (iters, converged) == (r_iters, r_converged)
    assert np.abs(f - rf).max() <= 1e-10 * max(1.0, np.abs(rf).max())
    assert np.abs(g - rg).max() <= 1e-10 * max(1.0, np.abs(rg).max())


def test_halved_kernel_matches_a_kernel_built_at_half_the_epsilon():
    rng = np.random.default_rng(61)
    c = CostSpec("sqdist").matrix(rng.random((20, 2)), rng.random((15, 2)))
    wa, wb = rng.dirichlet(np.ones(20)), rng.dirichlet(np.ones(15))
    wa[:3] = wb[:2] = 0.0
    f, g = 0.05 * rng.normal(size=20), 0.05 * rng.normal(size=15)
    f[:3] = g[:2] = 0.6  # idle entries would be far above 1
    df, dg = 1e-3 * rng.normal(size=20), 1e-3 * rng.normal(size=15)
    halved = transport._StabilisedKernel(c, wa, wb)
    fresh = transport._StabilisedKernel(c, wa, wb)
    with np.errstate(over="ignore"):  # as in the solver
        halved.absorb(f, g, 2.0 ** -8)
        # the potentials f + df, g + dg, held as scalings against that kernel
        halved.u, halved.v = np.exp(df / 2.0 ** -8), np.exp(dg / 2.0 ** -8)
        assert halved.halve()
        fresh.absorb(f, g, 2.0 ** -9)
    assert halved.eps == fresh.eps
    # the squared scalings hold the same potentials at half the epsilon
    hf, hg = halved.potentials()
    assert np.abs(hf - (f + df)).max() <= 1e-15 and np.abs(hg - (g + dg)).max() <= 1e-15
    assert np.all(halved.k[0][:3, :2] == 0.0)
    held = fresh.k[0] > 1e-300
    assert 0 < held.sum() < held.size - 6  # some entries underflow at eps = 2^-9
    assert np.array_equal(halved.k[0] > 1e-300, held)
    assert np.abs(halved.k[0][held] / fresh.k[0][held] - 1.0).max() <= 1e-13


def test_w1_bound_builds_its_kernel_from_the_cost_at_the_first_and_final_level_only(
        monkeypatch):
    rho = GridDensity(2, 16, 1.0 + 0.5 * np.cos(2 * np.pi * GridDensity.uniform(2, 16)
                                                 .nodes()[:, 0]).reshape(16, 16))
    sample = empirical_measure(draw_sample(rho, 300, seed=3))
    absorbed = _recorded_absorbs(monkeypatch)
    wasserstein_sinkhorn_upper(sample, rho, periodic=True)
    # the defaults run 9 levels, 1 down to 1/256 and then 4e-3: the warm
    # levels after the first start from the kernel before them, squared
    assert [eps for eps, at_start in absorbed if at_start] == [1.0, 4e-3]


def test_sinkhorn_caches_the_drift_of_the_potential_a_half_step_left_alone(monkeypatch):
    # the solve of the test above, with mid-level absorptions: each half-step
    # tests only the scaling it moved against the band, so at every test the
    # scaling it left alone must already be within the band, that is its
    # potential within _ABSORB eps of the kernel's
    rng = np.random.default_rng(59)
    x, y = rng.random((30, 2)), rng.random((25, 2))
    c = CostSpec("sqdist").matrix(x, y)
    wa, wb = rng.dirichlet(np.ones(30)), rng.dirichlet(np.ones(25))
    checks = []
    settle = transport._StabilisedKernel._settle
    lo, hi = np.exp(-transport._ABSORB), np.exp(transport._ABSORB)

    def recomputed(self, s):
        assert s is self.u or s is self.v
        left = self.v if s is self.u else self.u
        checks.append(bool(lo <= left.min() and left.max() <= hi))
        return settle(self, s)

    monkeypatch.setattr(transport._StabilisedKernel, "_settle", recomputed)
    transport._sinkhorn_potentials(c, wa, wb, 1e-4, 2000, 1e-9)
    assert len(checks) > 100 and all(checks)


# Found by a seeded search over 24 + 24 scattered atoms in the unit square:
# with a single step per warm level, this W1 solve stalls at 2,000
# iterations with marginal error 0.03.
def _scattered_w1_case():
    rng = np.random.default_rng(14)
    c = CostSpec("dist_p", p=1).matrix(rng.random((24, 2)), rng.random((24, 2)))
    return c, rng.dirichlet(np.ones(24)), rng.dirichlet(np.ones(24))


def test_warm_levels_that_stop_on_their_error_still_converge_scattered_w1(monkeypatch):
    c, wa, wb = _scattered_w1_case()
    _, _, converged, err, iters = transport._sinkhorn_potentials(c, wa, wb, 1e-4, 2000, 1e-9)
    assert converged and err <= 1e-9 and iters < 1000
    monkeypatch.setattr(transport, "_WARM_MAX", 1)  # one step per warm level
    _, _, converged, err, iters = transport._sinkhorn_potentials(c, wa, wb, 1e-4, 2000, 1e-9)
    assert not converged and iters == 2000 and err > 1e-3


@pytest.mark.parametrize("bad", [1e4, np.nan], ids=["underflow", "nan"])
def test_sinkhorn_kernel_failure_raises_instead_of_non_finite_potentials(bad):
    # exp(-1e4 / 1.0) underflows, so the first row's kernel sum is 0 even
    # after absorption; a NaN cost makes its sum non-finite
    c = np.zeros((3, 4))
    c[0] = bad
    w = np.full(3, 1 / 3)
    with pytest.raises(SolverError, match="after absorption"):
        transport._sinkhorn_potentials(c, w, np.full(4, 0.25), 1.0, 100, 1e-9)


def _axis_cost_case(seed, n, m):
    """A (2, n, m) stack of per-axis quadratic costs between random axis
    nodes, the (n^2, m^2) cost it sums to, C[i0 i1, j0 j1] = C_0[i0, j0] +
    C_1[i1, j1], and random row-major grid weights, a few of them zero."""
    rng = np.random.default_rng(seed)
    axes = np.stack([0.5 * np.subtract.outer(rng.random(n), rng.random(m)) ** 2
                     for _ in range(2)])
    dense = (axes[0][:, None, :, None] + axes[1][None, :, None, :]).reshape(n * n, m * m)
    wa, wb = rng.dirichlet(np.ones(n * n)), rng.dirichlet(np.ones(m * m))
    wa[rng.integers(n * n)] = wb[rng.integers(m * m)] = 0.0
    return axes, dense, wa / wa.sum(), wb / wb.sum()


@pytest.mark.parametrize("seed, n, m, epsilon", [(0, 6, 5, 1e-2), (1, 8, 8, 1e-3),
                                                 (2, 5, 7, 3e-3)])
def test_factored_sinkhorn_matches_the_dense_cost_it_sums_to(seed, n, m, epsilon):
    axes, dense, wa, wb = _axis_cost_case(seed, n, m)
    f, g, converged, err, iters = transport._sinkhorn_potentials(axes, wa, wb, epsilon,
                                                                 2000, 1e-9)
    rf, rg, r_converged, _, r_iters = transport._sinkhorn_potentials(dense, wa, wb, epsilon,
                                                                     2000, 1e-9)
    assert converged and err <= 1e-9
    assert (iters, converged) == (r_iters, r_converged)
    assert np.abs(f - rf).max() <= 1e-10 and np.abs(g - rg).max() <= 1e-10


def test_factored_kernel_holds_the_separable_part_and_turns_dense_on_a_failed_step():
    axes, dense, wa, wb = _axis_cost_case(3, 6, 5)
    rng = np.random.default_rng(4)
    f = np.add.outer(rng.random(6), rng.random(6)).ravel() + 1e-3 * rng.normal(size=36)
    g = np.add.outer(rng.random(5), rng.random(5)).ravel()
    kern = transport._StabilisedKernel(axes, wa, wb)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as in the solver
        kern.absorb(f, g, 1e-2)
        # the kernel takes the per-axis means; u keeps the rest, v nothing
        assert len(kern.k) == 2 and kern.k[0].shape == (6, 5)
        assert not np.allclose(kern.u, 1.0) and np.allclose(kern.v, 1.0, atol=1e-12)
        hf, hg = kern.potentials()
        assert np.abs(hf - f).max() <= 1e-15 and np.abs(hg - g).max() <= 1e-15
        full = np.exp((np.add.outer(kern.f_bar, kern.g_bar) - dense) / 1e-2)
        assert np.allclose(np.kron(*kern.k), full, rtol=1e-12, atol=0.0)
        kern.k[0][0, 0] = np.inf  # a factor that overflowed
        assert kern.iterate(1.0) is None
        assert kern.axes.shape == (1, 36, 25)
        assert np.array_equal(kern.axes[0], dense)
        kern.absorb(*kern.potentials(), 1e-2)
        assert kern.iterate(1.0) is not None


# ---------------------------------------------------------------------------
# monotone 1D maps
# ---------------------------------------------------------------------------

def test_monotone_identity():
    g = GridDensity.uniform(1, 64)
    t = monotone_map_1d(g, g)
    assert np.abs(t.images - t.points).max() == 0.0
    assert t.route == "monotone"


def test_monotone_affine_contraction():
    # target uniform on [1/4, 3/4]: T(x) = 1/4 + x/2 exactly at every node
    g = GridDensity.uniform(1, 64)
    vals = np.zeros(64)
    vals[16:48] = 2.0
    nu = GridDensity(1, 64, vals)
    t = monotone_map_1d(g, nu)
    want = 0.25 + 0.5 * t.points[:, 0]
    assert np.abs(t.images[:, 0] - want).max() <= 1e-9
    assert potential_consistency(t) <= 1e-8


def test_monotone_step_to_atoms():
    g = GridDensity.uniform(1, 64)
    nu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    t = monotone_map_1d(g, nu)
    x = t.points[:, 0]
    assert np.all(t.images[x < 0.5, 0] == 0.0)
    assert np.all(t.images[x > 0.5, 0] == 1.0)


@pytest.mark.parametrize("make, needle", [
    (lambda: TransportMap(GridSpec(1, 8).nodes(), GridSpec(1, 8).nodes(), psi=np.zeros(7),
                          grid=GridSpec(1, 8)), "potential values must align"),
    (lambda: monotone_map_1d(GridDensity.uniform(2, 8), GridDensity.uniform(2, 8)),
     "requires one-dimensional measures")], ids=["psi-length", "2d-monotone"])
def test_map_refusals_are_map_errors(make, needle):
    with pytest.raises(MapError, match=needle):
        make()


def test_monotone_rejects_atomic_source():
    nu = dirac([0.5])
    with pytest.raises(MapError, match="deterministic"):
        monotone_map_1d(nu, nu)


def test_monotone_cdf_match():
    rng = np.random.default_rng(59)
    vals = 1 + 0.8 * rng.random(64)
    mu = GridDensity(1, 64, vals / vals.mean())
    tvals = 1 + 0.8 * rng.random(64)
    nu = GridDensity(1, 64, tvals / tvals.mean())
    t = monotone_map_1d(mu, nu)
    assert np.all(np.diff(t.images[:, 0]) >= -1e-12)
    # F_nu(T(x)) must match F_mu(x) within a cell plus roundoff
    masses = nu.values / nu.n
    cum = np.concatenate([[0.0], np.cumsum(masses)])
    ys = t.images[:, 0]
    idx = np.minimum((ys * nu.n).astype(int), nu.n - 1)
    f_nu = cum[idx] + (ys - idx / nu.n) * nu.values[idx]
    masses_mu = mu.values / mu.n
    f_mu = np.concatenate([[0.0], np.cumsum(masses_mu)])[:-1] + 0.5 * masses_mu
    assert np.abs(f_nu - f_mu).max() <= 1.0 / nu.n + 1e-9


@st.composite
def zero_run_densities(draw, n):
    """A 1D density on n cells with a leading, an inner and a trailing run of
    zero-mass cells (each possibly empty), its values small integers scaled
    to mean 1."""
    k = np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    lead, trail = draw(st.integers(0, n // 4)), draw(st.integers(0, n // 4))
    start = draw(st.integers(lead, n - trail - 1))
    k[:lead], k[n - trail:] = 0, 0
    k[start:start + draw(st.integers(0, n // 4))] = 0
    if not k.any():
        k[start] = 1
    return GridDensity(1, n, k * n / k.sum())


@given(pair=st.sampled_from([8, 16]).flatmap(
    lambda n: st.tuples(zero_run_densities(n), zero_run_densities(n))), periodic=st.booleans())
# mu's cumulative masses reach 1.0, nu's end one ulp below: mu's trailing
# nodes go to the left end of nu's trailing run, not to its last cell
@example(pair=(GridDensity(1, 8, np.array([1, 5, 2, 2, 5, 3, 0, 0]) * 8 / 18),
               GridDensity(1, 8, np.array([4, 5, 1, 2, 1, 2, 0, 0]) * 8 / 15)), periodic=False)
def test_monotone_map_reads_levels_by_the_left_continuous_inverse(pair, periodic):
    # a level on a plateau of F_nu goes to the plateau's left end: mu's
    # levels meet nu's plateaus at 0, at the total mass and where the two
    # share masses
    mu, nu = pair
    t = monotone_map_1d(mu, nu, periodic=periodic)
    levels = np.array([grid_cdf(mu, x) for x in t.points[:, 0]])
    if periodic:
        theta = circle_rotation(*atoms_1d(mu, True), *atoms_1d(nu, True), p=2.0)
        levels = wrap_unit(levels - theta)
    gaps = t.images[:, 0] - [grid_quantile_bisection(nu, q) for q in levels]
    assert np.abs(wrap_signed(gaps) if periodic else gaps).max() <= 1e-12


def test_monotone_circle_beats_rigid_translation():
    # full-support densities: the optimal circular rearrangement undercuts
    # the rigid rotation (computed counterexample to translation optimality)
    n = 64
    x = (np.arange(n) + 0.5) / n
    mu = GridDensity(1, n, 1 + 0.4 * np.cos(2 * np.pi * x))
    shift = 0.25
    nu = GridDensity(1, n, 1 + 0.4 * np.cos(2 * np.pi * (x - shift)))
    t = monotone_map_1d(mu, nu, periodic=True)
    atoms = mu.as_discrete()
    spec = CostSpec("dist_p", p=2.0, periodic=True)
    cost_map = deterministic_plan_cost(t, atoms, spec)
    assert cost_map < shift ** 2  # rigid rotation would pay shift^2
    pushed = grid_pushforward(t, mu)
    assert wasserstein_1d(pushed, nu, p=1, periodic=True) <= 2.0 / n


def test_monotone_circle_pushforward():
    rng = np.random.default_rng(61)
    n = 64
    vals = 1 + 0.6 * rng.random(n)
    mu = GridDensity(1, n, vals / vals.mean())
    tvals = 1 + 0.6 * rng.random(n)
    nu = GridDensity(1, n, tvals / tvals.mean())
    t = monotone_map_1d(mu, nu, periodic=True)
    pushed = grid_pushforward(t, mu)
    assert wasserstein_1d(pushed, nu, p=1, periodic=True) <= 2.0 / n


def test_monotone_circle_ignores_whole_turns_of_atoms():
    # dyadic atoms shift by whole turns exactly, so the map must not change a bit
    rng = np.random.default_rng(83)
    for _ in range(10):
        vals = 0.5 + rng.random(32)
        mu = GridDensity(1, 32, vals / vals.mean())
        k = int(rng.integers(2, 7))
        pts = rng.integers(0, 64, k) / 64.0
        w = rng.random(k) + 0.05
        w /= w.sum()
        t0 = monotone_map_1d(mu, DiscreteMeasure(pts[:, None], w), periodic=True)
        turns = rng.integers(-2, 3, k)
        t1 = monotone_map_1d(mu, DiscreteMeasure((pts + turns)[:, None], w), periodic=True)
        assert np.array_equal(t0.images, t1.images)


def _circle_rotation_oracle(mu: GridDensity, x: np.ndarray, w: np.ndarray) -> float:
    """Optimal level shift of the circle W2 coupling, grid source to sorted atoms in [0, 1).

    Pairing level t of mu with level t - theta of nu, the cost derivative in
    theta is sum_b 2 J_b (Q_mu(theta + b) - M_b) over the jumps of nu's
    unrolled quantile at levels b with theta + b in (0, 1): J_b is the jump
    and M_b its midpoint, and Q_mu is mu's exact piecewise-linear quantile.
    The derivative increases with theta, so bisection finds its zero.
    """
    edges = np.arange(mu.n + 1) / mu.n
    cdf = np.concatenate([[0.0], np.cumsum(mu.values / mu.n)])
    hi_val = np.append(x[1:], x[0] + 1.0)  # the value above each break
    cum = np.cumsum(w)
    cum[-1] = 1.0  # the last break is the turn

    def slope(theta):
        total = 0.0
        for m in range(-3, 4):  # every turn with a break in (0, 1) for |theta| < 1.5
            b = cum + m
            inside = (theta + b > 0.0) & (theta + b < 1.0)
            a = np.interp(theta + b[inside], cdf, edges)
            jump = hi_val[inside] - x[inside]
            total += np.sum(2.0 * jump * (a - 0.5 * (x[inside] + hi_val[inside]) - m))
        return total

    lo, hi = -1.5, 1.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if slope(mid) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("n", [32, 64])
def test_monotone_circle_rotation_matches_oracle(n):
    """The map's level shift, read off its images, is within 0.1 cell of the
    oracle's on atomic targets and within 0.02 cell on grid targets (whose
    oracle takes 512 atoms per cell)."""
    rng = np.random.default_rng(89)
    edges = np.arange(n + 1) / n
    for _ in range(6):
        vals = 0.5 + rng.random(n)
        mu = GridDensity(1, n, vals / vals.mean())
        m = mu.values / n
        q = np.concatenate([[0.0], np.cumsum(m)])[:-1] + 0.5 * m  # node levels
        k = int(rng.integers(1, 9))
        w = rng.random(k) + 0.05
        x = rng.random(k)
        order = np.argsort(x)
        x, w = x[order], w[order] / w.sum()
        theta = _circle_rotation_oracle(mu, x, w)
        t = monotone_map_1d(mu, DiscreteMeasure(x[:, None], w), periodic=True)
        # node i maps to atom j under the rotations theta + [lo_i, lo_i + w_j) mod 1
        j = np.argmin(np.abs(wrap_signed(t.images[:, 0][:, None] - x[None, :])), axis=1)
        lo = wrap_unit(q - np.cumsum(w)[j] - theta)
        gap = np.where(lo + w[j] >= 1.0, 0.0, np.minimum(lo, 1.0 - lo - w[j]))
        assert gap.max() * n <= 0.1
        tvals = rng.random(n)
        nu = GridDensity(1, n, tvals / tvals.mean())
        fine = nu.as_discrete(subdiv=512)
        theta = _circle_rotation_oracle(mu, fine.points[:, 0], fine.weights)
        t = monotone_map_1d(mu, nu, periodic=True)
        cdf = np.concatenate([[0.0], np.cumsum(nu.values / n)])
        levels = np.interp(t.images[:, 0], edges, cdf)
        assert np.abs(wrap_signed(q - levels - theta)).max() * n <= 0.02


# ---------------------------------------------------------------------------
# Brenier maps
# ---------------------------------------------------------------------------

def test_brenier_identity():
    g = GridDensity.uniform(2, 16)
    t = brenier_map(g, g, reg_epsilon=1e-3)
    h = 1.0 / 16
    assert np.abs(t.images - t.points).max() <= 2 * h
    assert check_cyclical_monotonicity(t, 2000, 0) >= -1e-9


def test_brenier_translation():
    n = 32
    g = GridDensity.uniform(2, n)
    v = np.array([0.1, 0.05])
    nodes = g.nodes()
    tgt = DiscreteMeasure(nodes + v, np.full(len(nodes), 1.0 / len(nodes)))
    t = brenier_map(g, tgt, reg_epsilon=1e-3)
    disp = t.images - t.points
    assert np.abs(disp - v).max() <= 2.0 / n
    # interior nodes are sharper than the entropic boundary layer
    interior = np.all((t.points > 0.2) & (t.points < 0.8), axis=1)
    assert np.abs(disp[interior] - v).max() <= 1e-3
    assert check_cyclical_monotonicity(t, 2000, 1) >= -1e-9


def test_brenier_separable_scaling():
    # mu uniform on the box, nu uniform on [0,1/2] x [0,1]: T = (x/2, y)
    n = 32
    g = GridDensity.uniform(2, n)
    vals = np.zeros((n, n))
    vals[: n // 2, :] = 2.0
    nu = GridDensity(2, n, vals)
    t = brenier_map(g, nu, reg_epsilon=5e-4)
    want = np.column_stack([0.25 + 0.5 * t.points[:, 0], t.points[:, 1]])
    want[:, 0] -= 0.25  # x -> x/2 maps box onto [0, 1/2]
    # oracle: per-axis quantile composition (separable product structure)
    gx = GridDensity.uniform(1, n)
    vx = np.zeros(n)
    vx[: n // 2] = 2.0
    tx = monotone_map_1d(gx, GridDensity(1, n, vx))
    want_x = np.tile(tx.images[:, 0], (n, 1)).T.ravel()
    assert np.abs(t.images[:, 0] - want_x).max() <= 2.0 / n
    assert np.abs(t.images[:, 1] - t.points[:, 1]).max() <= 2.0 / n
    assert check_cyclical_monotonicity(t, 2000, 2) >= -1e-9


def test_brenier_single_atom_constant_map():
    g = GridDensity.uniform(1, 32)
    nu = dirac([0.3])
    t = brenier_map(g, nu, reg_epsilon=1e-2)
    assert np.abs(t.images - 0.3).max() <= 1e-12
    assert potential_consistency(t) <= 1e-8  # psi is exactly affine-quadratic here
    assert t.route == "brenier"


@pytest.fixture()
def sinkhorn_iters(monkeypatch):
    """The iteration count of every _sinkhorn_potentials call, in call order."""
    calls = []
    solve = transport._sinkhorn_potentials

    def counted(*args, **kwargs):
        result = solve(*args, **kwargs)
        calls.append(result[4])
        return result

    monkeypatch.setattr(transport, "_sinkhorn_potentials", counted)
    return calls


def test_brenier_solve_is_overrelaxed(sinkhorn_iters):
    # a box-brenier-like target: an off-centre Gaussian bump over a 0.2
    # floor. Plain Sinkhorn needs 1,224 iterations to reach 1e-10 here, and
    # the overrelaxed solve 386 when every warm level runs 25 steps; warm
    # levels that stop on their marginal error bring it to 233.
    x = (np.arange(16) + 0.5) / 16
    xx, yy = np.meshgrid(x, x, indexing="ij")
    bump = np.exp(-((xx - (0.3 + 0.4 / 6)) ** 2 + (yy - 0.5) ** 2) / (2 * 0.15 ** 2))
    target = GridDensity(2, 16, 0.2 + 0.8 * bump / bump.mean())
    brenier_map(GridDensity.uniform(2, 16), target, reg_epsilon=transport.BRENIER_EPSILON)
    assert len(sinkhorn_iters) == 1
    assert sinkhorn_iters[0] <= 250


def test_brenier_map_holds_at_most_two_cost_sized_arrays(peak_traced_bytes):
    # n=32: the dense cost and stabilised kernel of a scattered target are
    # 1024 x 1024, and the solve needs both. A third full-size array breaks
    # the bound: a temporary while the cost is built or halved, or the
    # solve's kernel kept while the projection builds its own from the cost.
    # A grid target holds neither.
    g = GridDensity.uniform(2, 32)
    for target in (g, g.as_discrete()):
        peak = peak_traced_bytes(lambda: brenier_map(g, target, reg_epsilon=1e-3))
        assert peak <= 2.5 * 1024 * 1024 * 8


def _grid_density(values):
    values = np.asarray(values, dtype=float)
    return GridDensity(values.ndim, len(values), values / values.mean())


def _box_bump(n, floor=0.2):
    """The target of test_brenier_solve_is_overrelaxed, at n cells per axis."""
    x = (np.arange(n) + 0.5) / n
    xx, yy = np.meshgrid(x, x, indexing="ij")
    bump = np.exp(-((xx - (0.3 + 0.4 / 6)) ** 2 + (yy - 0.5) ** 2) / (2 * 0.15 ** 2))
    return _grid_density(floor + (1 - floor) * bump / bump.mean())


def _half_box(n):
    vals = np.zeros((n, n))
    vals[: n // 2, :] = 2.0
    return _grid_density(vals)


def _diagonal_band(n):
    x = (np.arange(n) + 0.5) / n
    return _grid_density(1e-3 + np.exp(-np.subtract.outer(x, x) ** 2 / (2 * 0.03 ** 2)))


def _seeded(seed, n):
    return _grid_density(0.2 + np.random.default_rng(seed).random((n, n)))


@pytest.mark.parametrize("source, target, densifies", [
    (GridDensity.uniform(2, 8), _seeded(0, 8), False),
    (GridDensity.uniform(2, 16), _seeded(1, 16), False),
    (_seeded(2, 8), _seeded(3, 8), False),
    (GridDensity.uniform(2, 32), _half_box(32), False),  # zero-mass cells, weight 0
    (_box_bump(16), _seeded(4, 8), False),  # 16 -> 8 cells per axis
    (GridDensity.uniform(2, 16), _diagonal_band(16), True),
], ids=["seeded-8", "seeded-16", "seeded-source-8", "half-box-32", "16-to-8", "band-16"])
def test_factored_brenier_map_matches_the_dense_kernel(monkeypatch, source, target,
                                                      densifies):
    # A grid target runs on per-axis factors; its cells as scattered atoms
    # (zero-mass cells dropped) take the dense n^2 x m^2 kernel. The band's
    # non-separable rest leaves the band at an absorption, so that solve
    # turns dense part way; the others stay factored throughout.
    solves, densified = [], []
    solve, densify = transport._sinkhorn_potentials, transport._StabilisedKernel._densify

    def counted(*args, **kwargs):
        result = solve(*args, **kwargs)
        solves.append(result[2:])
        return result

    def recorded(self):
        densified.append(len(solves))
        densify(self)

    monkeypatch.setattr(transport, "_sinkhorn_potentials", counted)
    monkeypatch.setattr(transport._StabilisedKernel, "_densify", recorded)
    factored = brenier_map(source, target, reg_epsilon=1e-3)
    assert bool(densified) == densifies
    dense = brenier_map(source, target.as_discrete(), reg_epsilon=1e-3)
    (conv, err, iters), (d_conv, d_err, d_iters) = solves
    assert (conv, iters) == (d_conv, d_iters) and conv
    assert abs(err - d_err) <= 1e-15
    assert np.array_equal(factored.points, dense.points)
    assert np.abs(factored.images - dense.images).max() <= 1e-12
    assert np.abs(factored.psi - dense.psi).max() <= 1e-12


@pytest.mark.parametrize("source, target, densifies", [
    (GridDensity.uniform(2, 16), _box_bump(16), False),
    (GridDensity.uniform(2, 16), _diagonal_band(16), True),
    (_half_box(16), _seeded(5, 8).as_discrete(), False),  # zero-mass source cells
], ids=["factored-grid", "band-densifies", "scattered-from-half-box"])
def test_brenier_images_match_the_row_softmax_of_the_target_potential(monkeypatch, source,
                                                                      target, densifies):
    # The projection absorbs the solve's potentials into a fresh kernel; the
    # oracle reads only g, the target weights and points, as a dense softmax.
    solves, densified = [], []
    solve, densify = transport._sinkhorn_potentials, transport._StabilisedKernel._densify

    def recorded(c, wa, wb, *args, **kwargs):
        result = solve(c, wa, wb, *args, **kwargs)
        solves.append((wb, result[1]))
        return result

    def counted(self):
        densified.append(len(solves))
        densify(self)

    monkeypatch.setattr(transport, "_sinkhorn_potentials", recorded)
    monkeypatch.setattr(transport._StabilisedKernel, "_densify", counted)
    t = brenier_map(source, target, reg_epsilon=1e-3)
    [(b, g)] = solves
    assert (1 in densified) == densifies  # the projection's own kernel
    pts = target.nodes() if isinstance(target, GridDensity) else target.points
    assert len(pts) == len(b) and len(t.points) == source.n ** 2
    want = barycentric_images(source.nodes(), pts, g, b, 1e-3)
    assert np.abs(t.images - want).max() <= 1e-12


@pytest.mark.parametrize("source, target", [
    (GridDensity.uniform(2, 16), _box_bump(16)),
    (GridDensity.uniform(2, 16), _diagonal_band(16)),
    (_half_box(16), _seeded(5, 8).as_discrete()),
], ids=["factored-grid", "band-densifies", "scattered-from-half-box"])
def test_brenier_potential_is_the_log_sum_exp_of_the_target_potential(monkeypatch, source,
                                                                       target):
    # psi is the solve's source potential f, less f at node 0: the soft
    # c-transform of g, so |x|^2/2 + psi is convex with gradient T
    solves = []
    solve = transport._sinkhorn_potentials

    def recorded(c, wa, wb, *args, **kwargs):
        result = solve(c, wa, wb, *args, **kwargs)
        solves.append((wb, result[1]))
        return result

    monkeypatch.setattr(transport, "_sinkhorn_potentials", recorded)
    t = brenier_map(source, target, reg_epsilon=1e-3)
    [(b, g)] = solves
    pts = target.nodes() if isinstance(target, GridDensity) else target.points
    want = brenier_potential(source.nodes(), pts, g, b, 1e-3)
    assert t.psi[0] == 0.0
    assert np.abs(t.psi - want).max() <= 1e-10


def test_brenier_map_to_a_grid_target_holds_no_cost_sized_array(peak_traced_bytes):
    # n=64: one 4096 x 4096 cost or kernel is 128 MB; the factored solve and
    # projection hold (2, 64, 64) factors and vectors of 4096 entries.
    g = GridDensity.uniform(2, 64)
    peak = peak_traced_bytes(lambda: brenier_map(g, _box_bump(64),
                                                 reg_epsilon=transport.BRENIER_EPSILON))
    assert peak < 16 * 2 ** 20


def test_brenier_n8_cosine_converges_or_names_its_marginal_error(sinkhorn_iters, monkeypatch):
    # uniform to 1 + 0.3 cos(2 pi x) at n=8: the final level's contraction is
    # slow enough that the 4,000-iteration cap may stop it short of 1e-10
    x = (np.arange(8) + 0.5) / 8
    target = _grid_density(np.tile((1 + 0.3 * np.cos(2 * np.pi * x))[:, None], (1, 8)))
    errors = []
    solve = transport._sinkhorn_potentials

    def recorded(*args, **kwargs):
        result = solve(*args, **kwargs)
        errors.append(result[3])
        return result

    monkeypatch.setattr(transport, "_sinkhorn_potentials", recorded)
    try:
        brenier_map(GridDensity.uniform(2, 8), target, reg_epsilon=transport.BRENIER_EPSILON)
    except SolverError as exc:
        assert errors[0] > 1e-10
        assert str(exc) == (f"Brenier Sinkhorn solve did not converge in {sinkhorn_iters[0]} "
                            f"iterations (marginal error {errors[0]:.3e} > 1e-10)")
    else:
        assert errors[0] <= 1e-10


def test_brenier_rejects_atomic_source():
    nu = dirac([0.3])
    with pytest.raises(MapError):
        brenier_map(nu, nu, reg_epsilon=1e-2)


@pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0, -1.0])
def test_brenier_rejects_an_epsilon_that_is_not_finite_and_positive(eps):
    g = GridDensity.uniform(2, 8)
    with pytest.raises(SolverError, match="epsilon must be finite and > 0"):
        brenier_map(g, g, reg_epsilon=eps)


def test_brenier_rejects_unconverged_sinkhorn(monkeypatch):
    from randmap import transport

    solve = transport._sinkhorn_potentials

    def stalled(*args, **kwargs):
        f, g, _, err, iters = solve(*args, **kwargs)
        return f, g, False, err, iters

    monkeypatch.setattr(transport, "_sinkhorn_potentials", stalled)
    g = GridDensity.uniform(2, 8)
    with pytest.raises(SolverError, match=r"did not converge in \d+ iterations"):
        brenier_map(g, g, reg_epsilon=1e-2)


# ---------------------------------------------------------------------------
# Legendre transform
# ---------------------------------------------------------------------------

def quadratic_grid(n, lo=-1.0, hi=1.0):
    xs = lo + (np.arange(n) + 0.5) * (hi - lo) / n
    return xs, PotentialGrid(0.5 * xs ** 2, ((lo, hi),))


def test_legendre_quadratic_self_dual():
    n = 64
    _, phi = quadratic_grid(n)
    star = legendre_transform(phi)
    ys = star.grid.nodes()[:, 0]
    h = 2.0 / n
    assert np.abs(star.values - 0.5 * ys ** 2).max() <= h ** 2
    assert star.convexified
    assert star.midpoint_convexity_violation() <= 1e-10


def test_legendre_affine_support_function():
    n = 32
    xs = -1 + (np.arange(n) + 0.5) * 2.0 / n
    a, b = 0.75, 0.2
    phi = PotentialGrid(a * xs + b, ((-1.0, 1.0),))
    star = legendre_transform(phi, dual_bounds=((a - 1.0, a + 1.0),), dual_n=n)
    ys = star.grid.nodes()[:, 0]
    near = np.abs(ys - a) <= 2.0 / n
    assert np.abs(star.values[near] + b).max() <= 2.0 / n + 1e-12
    # the sentinel cap keeps the extended-real transform finite
    sentinel = 10.0 * 2.0 * max(1.0, a)
    assert star.values.max() <= sentinel + 1e-12


def test_legendre_involution_exact_on_convex_input():
    n = 64
    xs, phi = quadratic_grid(n)
    star = legendre_transform(phi)
    back = legendre_transform(star, dual_bounds=((-1.0, 1.0),), dual_n=n)
    assert np.abs(back.values[2:-2] - phi.values[2:-2]).max() <= 1e-8


def test_legendre_involution_2d_separable():
    n = 32
    xs = -1 + (np.arange(n) + 0.5) * 2.0 / n
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    phi = PotentialGrid(0.5 * xx ** 2 + 0.4 * yy ** 2 + 0.1 * xx,
                        ((-1.0, 1.0), (-1.0, 1.0)))
    star = legendre_transform(phi)
    back = legendre_transform(star, dual_bounds=phi.bounds, dual_n=n)
    inner = (slice(2, -2), slice(2, -2))
    assert np.abs(back.values[inner] - phi.values[inner]).max() <= 1e-8


def test_legendre_double_transform_is_envelope():
    # non-convex input: double transform returns a convex minorant
    n = 64
    xs = -1 + (np.arange(n) + 0.5) * 2.0 / n
    vals = np.abs(xs) + 0.3 * np.sin(4 * np.pi * xs)
    phi = PotentialGrid(vals, ((-1.0, 1.0),))
    star = legendre_transform(phi)
    back = legendre_transform(star, dual_bounds=((-1.0, 1.0),), dual_n=n)
    assert np.all(back.values <= vals + 1e-10)
    assert back.midpoint_convexity_violation() <= 1e-10


def test_legendre_transform_is_the_full_score_maximum_across_row_blocks():
    # 512 dual nodes of 512 scores each span four blocks of BLOCK_ENTRIES;
    # in 1D each score is one product and one difference, so the blocked
    # argmax must give the full matrix's maxima bit for bit
    n = 512
    assert len(_row_blocks(n, n)) >= 3
    phi = PotentialGrid(np.random.default_rng(83).random(n), ((0.0, 1.0),))
    star = legendre_transform(phi, dual_bounds=((-2.0, 2.0),), dual_n=n)
    scores = star.grid.nodes() @ phi.grid.nodes().T - phi.values[None, :]
    assert np.array_equal(star.values, scores.max(axis=1))


# ---------------------------------------------------------------------------
# map inversion
# ---------------------------------------------------------------------------

def test_invert_identity():
    gs = GridSpec(1, 32, ((0.0, 1.0),), periodic=False)
    xs = gs.nodes()
    s = TransportMap(xs, xs, route="monotone", grid=gs)
    t = invert_map(s, gs)
    assert np.abs(t.images - t.points).max() <= 1e-12


def test_invert_linear_closed_form():
    gs = GridSpec(1, 64, ((0.0, 1.0),), periodic=False)
    xs = gs.nodes()
    s = TransportMap(xs, 2.0 * xs, route="monotone", grid=gs)
    target = GridSpec(1, 64, ((0.0, 2.0),), periodic=False)
    t = invert_map(s, target)
    assert np.abs(t.images[:, 0] - 0.5 * t.points[:, 0]).max() <= 1e-9
    assert potential_consistency(t) <= 1e-8


def test_invert_roundtrip_2d_brenier():
    n = 32
    g = GridDensity.uniform(2, n)
    v = np.array([0.08, -0.05])
    nodes = g.nodes()
    tgt = DiscreteMeasure(nodes + v, np.full(len(nodes), 1.0 / len(nodes)))
    s = brenier_map(g, tgt, reg_epsilon=1e-3)
    target = GridSpec(2, n, ((v[0], 1.0 + v[0]), (v[1], 1.0 + v[1])), periodic=False)
    t = invert_map(s, target)
    assert check_cyclical_monotonicity(t, 2000, 7) >= -1e-9
    atoms = g.as_discrete()
    composed = t.evaluate(s.evaluate(atoms.points))
    roundtrip = DiscreteMeasure(composed, atoms.weights)
    w1 = wasserstein_sinkhorn_upper(roundtrip, atoms, epsilon=2e-3)
    assert w1 <= 3.0 / n


def test_invert_rejects_nonmonotone_without_potential():
    gs = GridSpec(1, 16, ((0.0, 1.0),), periodic=False)
    xs = gs.nodes()
    s = TransportMap(xs, 1.0 - xs, route="composed", grid=gs)
    with pytest.raises(MapError):
        invert_map(s, gs)


# ---------------------------------------------------------------------------
# stability experiment
# ---------------------------------------------------------------------------

def test_stability_constant_sequence_is_zero():
    g = GridDensity.uniform(1, 32)
    nu = DiscreteMeasure(np.array([[0.2], [0.6]]), np.array([0.5, 0.5]))
    masses = stability_experiment(g, [nu, nu, nu], nu, eps=0.01)
    assert masses == [0.0, 0.0, 0.0]


def test_stability_translated_targets_exact_threshold():
    g = GridDensity.uniform(1, 64)
    base = np.array([[0.1], [0.3], [0.5]])
    w = np.array([0.25, 0.5, 0.25])
    nu_lim = DiscreteMeasure(base, w)
    eps = 0.05
    ks = list(range(1, 31))
    seq = [DiscreteMeasure(base + 1.0 / k, w) for k in ks]
    masses = stability_experiment(g, seq, nu_lim, eps=eps)
    for k, mass in zip(ks, masses):
        if 1.0 / k < eps:
            assert mass == 0.0
        elif 1.0 / k > eps:
            assert mass == pytest.approx(1.0, abs=1e-12)


def test_stability_empirical_targets_decay():
    g = GridDensity.uniform(1, 64)
    rng_seed = 123
    nu_lim_density = GridDensity(1, 64, 1 + 0.5 * np.cos(
        2 * np.pi * (np.arange(64) + 0.5) / 64))
    seq = []
    for k in range(1, 7):
        sample = draw_sample(nu_lim_density, 4 ** k, seed=rng_seed + k)
        seq.append(empirical_measure(sample))
    masses = stability_experiment(g, seq, nu_lim_density, eps=0.05)
    assert masses[-1] < 0.01
    assert masses[0] >= masses[-1]


# ---------------------------------------------------------------------------
# cyclical monotonicity and plan embedding
# ---------------------------------------------------------------------------

def test_cm_identity_nonnegative():
    gs = GridSpec(1, 32, ((0.0, 1.0),), periodic=False)
    xs = gs.nodes()
    t = TransportMap(xs, xs, route="monotone", grid=gs)
    assert check_cyclical_monotonicity(t, 500, 0) >= 0.0


def test_cm_detects_reflection():
    gs = GridSpec(1, 64, ((0.0, 1.0),), periodic=False)
    xs = gs.nodes()
    t = TransportMap(xs, 1.0 - xs, route="composed", grid=gs)
    spread = xs.max() - xs.min()
    slack = check_cyclical_monotonicity(t, 4000, 11)
    assert slack < 0.0
    assert slack <= -0.9 * spread ** 2


def test_cm_monotone_outputs():
    rng = np.random.default_rng(67)
    vals = 1 + rng.random(64)
    mu = GridDensity(1, 64, vals / vals.mean())
    nu = DiscreteMeasure(np.sort(rng.random(5))[:, None], rational_weights(rng, 5))
    t = monotone_map_1d(mu, nu)
    assert check_cyclical_monotonicity(t, 3000, 13) >= -1e-9


def test_deterministic_plan_embedding():
    rng = np.random.default_rng(71)
    vals = 1 + 0.5 * rng.random(64)
    mu = GridDensity(1, 64, vals / vals.mean())
    nu = DiscreteMeasure(rng.random((6, 1)), rational_weights(rng, 6, 8))
    t = monotone_map_1d(mu, nu)
    atoms = mu.as_discrete()
    spec = CostSpec("dist_p", p=1.0)
    map_cost = deterministic_plan_cost(t, atoms, spec)
    lp = solve_exact(atoms, nu, spec)
    # node sampling perturbs the marginals, so agreement is grid-limited;
    # the exact >= -1e-9 embedding holds on aligned pairs (test below)
    assert abs(map_cost - lp.cost) <= 2.0 / mu.n  # Lip(c) = 1 for distance cost


def test_map_induced_plan_cost_equals_lp_on_aligned_pair():
    rng = np.random.default_rng(73)
    vals = 1 + 0.5 * rng.random(64)
    mu = GridDensity(1, 64, vals / vals.mean())
    nu = DiscreteMeasure(rng.random((4, 1)), rational_weights(rng, 4, 8))
    t = monotone_map_1d(mu, nu)
    atoms = mu.as_discrete()
    image = pushforward(t, atoms)
    spec = CostSpec("dist_p", p=2.0)
    map_cost = deterministic_plan_cost(t, atoms, spec)
    lp = solve_exact(atoms, image, spec)
    assert map_cost == pytest.approx(lp.cost, abs=1e-9)


# ---------------------------------------------------------------------------
# containers and exports
# ---------------------------------------------------------------------------

def test_plan_validate_rejects_broken_marginals():
    m = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    bad = TransportPlan(m, m, np.full((2, 2), 0.3), cost=0.0)
    with pytest.raises(SolverError):
        bad.validate(CostSpec("sqdist"))


def test_plan_csv_export(tmp_path):
    m = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    plan = solve_exact(m, m, CostSpec("sqdist"))
    path = tmp_path / "plan.csv"
    plan.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,j,gamma"
    assert len(lines) == 3  # diagonal support


def test_map_csv_round_trip_columns(tmp_path):
    g = GridDensity.uniform(1, 16)
    t = monotone_map_1d(g, g)
    path = tmp_path / "map.csv"
    t.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "x0,Tx0,psi"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (16, 3)
    assert np.allclose(data[:, 0], t.points[:, 0])


def periodic_moser_map():
    x = (np.arange(16) + 0.5) / 16
    vals = np.multiply.outer(1 + 0.4 * np.cos(2 * np.pi * x), 1 + 0.3 * np.sin(2 * np.pi * x))
    return moser_map(GridDensity.uniform(2, 16), GridDensity(2, 16, vals / vals.mean())).map


def brenier_grid_map():
    x = (np.arange(16) + 0.5) / 16
    vals = np.exp(-((x[:, None] - 0.4) ** 2 + (x[None, :] - 0.6) ** 2) / 0.1)
    return brenier_map(GridDensity.uniform(2, 16), GridDensity(2, 16, vals / vals.mean()),
                       reg_epsilon=1e-3)


@pytest.mark.parametrize("make_map", [periodic_moser_map, brenier_grid_map])
def test_map_csv_reads_back_bit_for_bit(tmp_path, make_map):
    t = make_map()
    path = tmp_path / "map.csv"
    t.to_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    dim = t.dim
    assert np.array_equal(data[:, :dim], t.points)
    assert np.array_equal(data[:, dim:2 * dim], t.images)
    if t.psi is None:
        assert data.shape[1] == 2 * dim
    else:
        assert np.array_equal(data[:, 2 * dim], t.psi)


def test_map_needs_one_point_and_image_per_grid_node():
    grid = GridSpec(1, 8, ((0.0, 1.0),), periodic=False)
    nodes = grid.nodes()
    assert len(TransportMap(nodes, nodes, grid=grid).points) == 8
    with pytest.raises(MapError, match="per grid node"):
        TransportMap(nodes[:7], nodes[:7], grid=grid)
    with pytest.raises(MapError, match="per grid node"):
        TransportMap(nodes, nodes[:7], grid=grid)
    with pytest.raises(MapError, match="per grid node"):
        TransportMap(nodes, nodes, grid=GridSpec(2, 8, ((0.0, 1.0),), periodic=False))
