"""Tests for the coupling solvers, monotone/Brenier maps, and duality.

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
from randmap.geometry import CostSpec, GridSpec, wrap_signed, wrap_unit
from randmap.measures import (
    DiscreteMeasure,
    GridDensity,
    MeasureError,
    draw_sample,
    empirical_measure,
    grid_pushforward,
    pushforward,
    wasserstein_1d,
)
from randmap.transport import (
    MapError,
    PotentialGrid,
    SolverError,
    TransportMap,
    TransportPlan,
    brenier_map,
    check_cyclical_monotonicity,
    deterministic_plan_cost,
    invert_map,
    legendre_transform,
    monotone_map_1d,
    solve_exact,
    solve_sinkhorn,
    stability_experiment,
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
    d = DiscreteMeasure.dirac([0.0])
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
    m = DiscreteMeasure.dirac([0.0])
    with pytest.raises(SolverError):
        solve_sinkhorn(m, m, CostSpec("sqdist"), epsilon=0.0)


def reference_potentials(c, wa, wb, epsilon, max_iter, tol, warm_iters=25):
    """Log-domain Sinkhorn, each half-step a full logsumexp over the cost
    matrix, with the schedule, budgets and stopping rule of the solver."""
    with np.errstate(divide="ignore"):
        la, lb = np.log(wa), np.log(wb)
    levels = [epsilon]
    lvl = 1.0
    while lvl > epsilon:
        levels.append(lvl)
        lvl *= 0.5
    levels = sorted(set(levels), reverse=True)
    f, g = np.zeros(len(wa)), np.zeros(len(wb))
    iters, converged, err = 0, False, np.inf
    for li, eps in enumerate(levels):
        final = li == len(levels) - 1
        budget = 0 if final else min(warm_iters, max(1, max_iter // (2 * len(levels))))
        it = 0
        while True:
            f = -eps * logsumexp((g[None, :] - c) / eps + lb[None, :], axis=1)
            g_new = -eps * logsumexp((f[:, None] - c) / eps + la[:, None], axis=0)
            with np.errstate(over="ignore", invalid="ignore"):
                ratio = np.exp((g - g_new) / eps)
            err = float(np.sum(np.abs(wb * np.where(np.isfinite(ratio), ratio, 1.0) - wb)))
            g = g_new
            it += 1
            iters += 1
            if final and err <= tol:
                converged = True
                break
            if final and iters >= max_iter:
                break
            if not final and it >= budget:
                break
        if final:
            break
    return f, g, converged, err, iters


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


@given(sinkhorn_cases())
@example(_ZERO_WEIGHT_PAIR)
def test_sinkhorn_potentials_match_log_domain_reference(case):
    c, wa, wb, epsilon, tol = case
    f, g, converged, _, iters = transport._sinkhorn_potentials(c, wa, wb, epsilon, 300, tol)
    rf, rg, r_converged, _, r_iters = reference_potentials(c, wa, wb, epsilon, 300, tol)
    assert (iters, converged) == (r_iters, r_converged)
    assert np.abs(f - rf).max() <= 1e-10 * max(1.0, np.abs(rf).max())
    assert np.abs(g - rg).max() <= 1e-10 * max(1.0, np.abs(rg).max())


def test_sinkhorn_absorbs_within_a_level_and_matches_reference(monkeypatch):
    rng = np.random.default_rng(59)
    x, y = rng.random((30, 2)), rng.random((25, 2))
    c = CostSpec("sqdist").matrix(x, y)
    wa, wb = rng.dirichlet(np.ones(30)), rng.dirichlet(np.ones(25))
    absorbed = []
    absorb = transport._StabilisedKernel.absorb

    def counted(self, f, g, eps):
        absorbed.append(eps)
        absorb(self, f, g, eps)

    monkeypatch.setattr(transport._StabilisedKernel, "absorb", counted)
    f, g, converged, _, iters = transport._sinkhorn_potentials(c, wa, wb, 1e-4, 2000, 1e-9)
    rf, rg, r_converged, _, r_iters = reference_potentials(c, wa, wb, 1e-4, 2000, 1e-9)
    # more kernel builds than epsilon levels: some were absorptions mid-level
    assert len(absorbed) > len(set(absorbed))
    assert (iters, converged) == (r_iters, r_converged)
    assert np.abs(f - rf).max() <= 1e-10 * max(1.0, np.abs(rf).max())
    assert np.abs(g - rg).max() <= 1e-10 * max(1.0, np.abs(rg).max())


@pytest.mark.parametrize("bad", [1e4, np.nan], ids=["underflow", "nan"])
def test_sinkhorn_kernel_failure_raises_instead_of_non_finite_potentials(bad):
    # exp(-1e4 / 1.0) underflows, so the first row's kernel sum is 0 even
    # after absorption; a NaN cost makes its sum non-finite
    c = np.zeros((3, 4))
    c[0] = bad
    w = np.full(3, 1 / 3)
    with pytest.raises(SolverError, match="after absorption"):
        transport._sinkhorn_potentials(c, w, np.full(4, 0.25), 1.0, 100, 1e-9)


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
    assert t.potential_consistency() <= 1e-8


def test_monotone_step_to_atoms():
    g = GridDensity.uniform(1, 64)
    nu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    t = monotone_map_1d(g, nu)
    x = t.points[:, 0]
    assert np.all(t.images[x < 0.5, 0] == 0.0)
    assert np.all(t.images[x > 0.5, 0] == 1.0)


def test_monotone_rejects_atomic_source():
    nu = DiscreteMeasure.dirac([0.5])
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
    nu = DiscreteMeasure.dirac([0.3])
    t = brenier_map(g, nu, reg_epsilon=1e-2)
    assert np.abs(t.images - 0.3).max() <= 1e-12
    assert t.potential_consistency() <= 1e-8  # psi is exactly affine-quadratic here
    assert t.route == "brenier"


def test_brenier_rejects_atomic_source():
    nu = DiscreteMeasure.dirac([0.3])
    with pytest.raises(MapError):
        brenier_map(nu, nu, reg_epsilon=1e-2)


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
    assert t.potential_consistency() <= 1e-8


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
    from randmap.measures import wasserstein_sinkhorn_upper
    w1 = wasserstein_sinkhorn_upper(roundtrip, atoms, p=1, epsilon=2e-3)
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
