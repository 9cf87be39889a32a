"""Acceptance suite: one test per criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion. Criterion 2 carries the one expensive step in the suite
(an entropic W1 upper bound between two 64^2 grid densities).
"""
import json
import time

import numpy as np

from randmap.geometry import CostSpec, GridSpec, sphere_xyz, unit_torus_grid
from randmap.kernel import (
    KernelFamily,
    build_continuous_representation,
    stability_experiment,
    verify_representation,
)
from randmap.lift import ManifoldChart, exp_push, log_lift
from randmap.measures import (
    DiscreteMeasure,
    GridDensity,
    draw_sample,
    grid_pushforward,
    wasserstein_1d,
    wasserstein_exact,
    wasserstein_sinkhorn_upper,
)
from randmap.moser import jacobian_min, moser_map, solve_poisson_periodic
from randmap.transport import brenier_map, monotone_map_1d, solve_exact, solve_sinkhorn

from oracles import (
    BoxDensity,
    BundleLift,
    PotentialGrid,
    bundle_lift,
    check_cyclical_monotonicity,
    density_lift_compare,
    deterministic_plan_cost,
    empirical_measure,
    fiber_w1,
    invert_map,
    legendre_transform,
    project_density,
    pushforward,
)


def announce(num, name):
    print(f"\nACCEPTANCE {num} ({name}): PASS")


def circle_cosine_kernel(n=64, k=16, amp=0.4):
    x = (np.arange(n) + 0.5) / n
    base = (np.arange(k) / k)[:, None]
    measures = tuple(GridDensity(1, n, 1 + amp * np.cos(2 * np.pi * (x - b[0])))
                     for b in base)
    return KernelFamily("circle", base, measures)


def run_criterion_1_reports(seeds=range(20)):
    kern = circle_cosine_kernel()
    family = build_continuous_representation(kern)
    return [verify_representation(family, n_samples=10 ** 4, tol=0.05,
                                  seed=s) for s in seeds]


def run_criterion_6_masses():
    mu = GridDensity.uniform(1, 64)
    base = np.array([[0.1], [0.35], [0.6]])
    w = np.array([0.25, 0.5, 0.25])
    nu_lim = DiscreteMeasure(base, w)
    ks = list(range(1, 31))
    translated = stability_experiment(
        mu, [DiscreteMeasure(base + 1.0 / k, w) for k in ks], nu_lim, eps=0.05)
    x = (np.arange(64) + 0.5) / 64
    target = GridDensity(1, 64, 1 + 0.5 * np.cos(2 * np.pi * x))
    empirical = stability_experiment(
        mu,
        [empirical_measure(draw_sample(target, 4 ** k, seed=900 + k))
         for k in range(1, 7)],
        target, eps=0.05)
    return ks, translated, empirical


def test_criterion_1_representation_criterion():
    start = time.monotonic()
    reports = run_criterion_1_reports()
    elapsed = time.monotonic() - start
    w1 = np.array([rep.w1 for rep in reports])  # (seeds, points)
    assert w1.max() <= 0.05, f"worst per-point W1 {w1.max():.4f} > 0.05"
    frac_tight = float(np.mean(w1 <= 0.03))
    assert frac_tight >= 0.99, f"only {frac_tight:.2%} of pairs within 0.03"
    assert elapsed <= 120.0, f"runtime {elapsed:.1f}s exceeds 2 minutes"
    announce(1, f"Eq-1.1 representation, K=16, N=1e4, 20 seeds, {elapsed:.1f}s")


def test_criterion_2_moser_pushforward():
    errs = {}
    for n in (64, 128):
        x = (np.arange(n) + 0.5) / n
        rho1 = GridDensity(1, n, 1 + 0.5 * np.cos(2 * np.pi * x))
        flow = moser_map(GridDensity.uniform(1, n), rho1)
        errs[n] = flow.pushforward_error
    assert errs[64] <= 1e-2, f"1D error {errs[64]:.3e} > 1e-2 at n=64"
    ratio = errs[64] / errs[128]
    assert ratio >= 1.5, f"refinement ratio {ratio:.2f} < 1.5"
    n = 64
    x = (np.arange(n) + 0.5) / n
    xx, yy = np.meshgrid(x, x, indexing="ij")
    vals = (1 + 0.4 * np.cos(2 * np.pi * xx)) * (1 + 0.3 * np.cos(2 * np.pi * yy))
    rho1 = GridDensity(2, n, vals / vals.mean())
    flow2 = moser_map(GridDensity.uniform(2, n), rho1)
    pushed = grid_pushforward(flow2.map, GridDensity.uniform(2, n))
    w2d = wasserstein_sinkhorn_upper(pushed, rho1, periodic=True, tol=2e-4)
    assert w2d <= 3e-2, f"2D error bound {w2d:.3e} > 3e-2"
    announce(2, f"Moser pushforward: 1D {errs[64]:.1e}->{errs[128]:.1e}, 2D {w2d:.1e}")


def test_criterion_3_poisson_residuals():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for shape in ((64,), (128,), (32, 32), (64, 64)):
        src = rng.standard_normal(shape)
        src -= src.mean()
        sol = solve_poisson_periodic(src)
        worst = max(worst, sol.residual)
    assert worst <= 1e-8, f"residual {worst:.3e} > 1e-8"
    n = 64
    x = (np.arange(n) + 0.5) / n
    sol1 = solve_poisson_periodic(np.cos(2 * np.pi * x))
    err1 = np.abs(sol1.u + np.cos(2 * np.pi * x) / (4 * np.pi ** 2)).max()
    xx, yy = np.meshgrid(x, x, indexing="ij")
    src2 = np.cos(2 * np.pi * xx) * np.cos(2 * np.pi * yy)
    sol2 = solve_poisson_periodic(src2)
    err2 = np.abs(sol2.u + src2 / (8 * np.pi ** 2)).max()
    assert err1 <= 1e-10 and err2 <= 1e-10, (err1, err2)
    announce(3, f"Poisson residual {worst:.1e}, closed forms {max(err1, err2):.1e}")


def test_criterion_4_ot_oracle_agreement():
    rng = np.random.default_rng(31415)

    def rational(k):
        parts = rng.multinomial(16, np.full(k, 1.0 / k))
        while np.any(parts == 0):
            parts = rng.multinomial(16, np.full(k, 1.0 / k))
        return parts / 16

    worst_quantile_gap = 0.0
    for _ in range(50):
        a = DiscreteMeasure(rng.random((5, 1)), rational(5))
        b = DiscreteMeasure(rng.random((5, 1)), rational(5))
        p = float(rng.choice([1.0, 2.0]))
        gap = abs(wasserstein_1d(a, b, p=p) - wasserstein_exact(a, b, p=p))
        worst_quantile_gap = max(worst_quantile_gap, gap)
    assert worst_quantile_gap <= 1e-9

    # monotone-map-induced plan against the LP on the aligned pair
    worst_plan_gap = 0.0
    for trial in range(5):
        vals = 1 + 0.6 * rng.random(64)
        mu = GridDensity(1, 64, vals / vals.mean())
        nu = DiscreteMeasure(rng.random((4, 1)), rational(4))
        t = monotone_map_1d(mu, nu)
        atoms = mu.as_discrete()
        image = pushforward(t, atoms)
        spec = CostSpec("dist_p", p=2.0)
        lp = solve_exact(atoms, image, spec)
        gap = abs(deterministic_plan_cost(t, atoms, spec) - lp.cost)
        worst_plan_gap = max(worst_plan_gap, gap)
    assert worst_plan_gap <= 1e-9

    a = DiscreteMeasure(rng.random((20, 1)), np.full(20, 0.05))
    b = DiscreteMeasure(rng.random((20, 1)), np.full(20, 0.05))
    spec = CostSpec("sqdist")
    lp = solve_exact(a, b, spec)
    costs = [solve_sinkhorn(a, b, spec, epsilon=eps, max_iter=4000, tol=1e-9).cost
             for eps in (1e-1, 1e-2, 1e-3)]
    assert abs(costs[-1] - lp.cost) <= 1e-2
    assert costs[0] >= costs[1] - 1e-12 and costs[1] >= costs[2] - 1e-12
    assert all(cst >= lp.cost - 1e-12 for cst in costs)
    announce(4, f"OT oracles: quantile gap {worst_quantile_gap:.1e}, "
                f"plan gap {worst_plan_gap:.1e}, sinkhorn gap {abs(costs[-1] - lp.cost):.1e}")


def test_criterion_5_brenier_legendre():
    # double Legendre reproduces convex potentials on interior nodes
    worst_involution = 0.0
    n = 64
    xs = -1 + (np.arange(n) + 0.5) * 2.0 / n
    for vals, bounds in [
            (0.5 * xs ** 2, ((-1.0, 1.0),)),
            (0.5 * xs ** 2 + 0.25 * xs ** 4 + 0.1 * xs, ((-1.0, 1.0),)),
    ]:
        phi = PotentialGrid(vals, bounds)
        back = legendre_transform(legendre_transform(phi, dual_n=4 * n),
                                  dual_bounds=bounds, dual_n=n)
        worst_involution = max(worst_involution,
                               float(np.abs(back.values[2:-2] - vals[2:-2]).max()))
    m = 32
    ys = -1 + (np.arange(m) + 0.5) * 2.0 / m
    xx, yy = np.meshgrid(ys, ys, indexing="ij")
    for vals2 in (0.5 * xx ** 2 + 0.4 * yy ** 2,
                  0.5 * (xx ** 2 + yy ** 2) + 0.3 * xx * yy):
        phi = PotentialGrid(vals2, ((-1.0, 1.0), (-1.0, 1.0)))
        back = legendre_transform(legendre_transform(phi, dual_n=4 * m),
                                  dual_bounds=phi.bounds, dual_n=m)
        inner = (slice(2, -2), slice(2, -2))
        worst_involution = max(worst_involution,
                               float(np.abs(back.values[inner] - vals2[inner]).max()))
    assert worst_involution <= 1e-8

    # cyclical monotonicity of every produced flat-chart map
    rng = np.random.default_rng(999)
    produced = []
    vals = 1 + 0.5 * rng.random(64)
    mu1 = GridDensity(1, 64, vals / vals.mean())
    nu1 = DiscreteMeasure(rng.random((6, 1)), np.full(6, 1 / 6))
    produced.append(monotone_map_1d(mu1, nu1))
    g2 = GridDensity.uniform(2, 32)
    v = np.array([0.08, 0.06])
    nodes = g2.nodes()
    tgt = DiscreteMeasure(nodes + v, np.full(len(nodes), 1.0 / len(nodes)))
    s_map = brenier_map(g2, tgt, reg_epsilon=1e-3)
    produced.append(s_map)
    t_grid = GridSpec(2, 32, ((v[0], 1 + v[0]), (v[1], 1 + v[1])), periodic=False)
    t_map = invert_map(s_map, t_grid)
    produced.append(t_map)
    lin = GridSpec(1, 64, ((0.0, 1.0),), periodic=False)
    from randmap.transport import TransportMap
    produced.append(invert_map(
        TransportMap(lin.nodes(), 2 * lin.nodes(), route="monotone", grid=lin),
        GridSpec(1, 64, ((0.0, 2.0),), periodic=False)))
    worst_slack = min(check_cyclical_monotonicity(t, 3000, seed=10 + i)
                      for i, t in enumerate(produced))
    assert worst_slack >= -1e-9, f"cyclical monotonicity slack {worst_slack:.2e}"

    # inversion round trip
    atoms = g2.as_discrete()
    composed = t_map.evaluate(s_map.evaluate(atoms.points))
    roundtrip = DiscreteMeasure(composed, atoms.weights)
    w_rt = wasserstein_sinkhorn_upper(roundtrip, atoms, epsilon=2e-3)
    assert w_rt <= 3.0 / 32, f"round trip W1 {w_rt:.3e} > 3/n"
    announce(5, f"Brenier/Legendre: involution {worst_involution:.1e}, "
                f"slack {worst_slack:.1e}, roundtrip {w_rt:.1e}")


def test_criterion_6_stability():
    ks, translated, empirical = run_criterion_6_masses()
    for k, mass in zip(ks, translated):
        if 1.0 / k < 0.05:
            assert mass == 0.0, f"k={k}: mass {mass} must vanish exactly"
    assert empirical[-1] < 0.01, f"empirical mass {empirical[-1]:.3f} at k=6"
    announce(6, f"stability: exact cutoff at k=21, empirical k=6 mass {empirical[-1]:.4f}")


def test_criterion_7_diffeomorphism_proxy():
    rng = np.random.default_rng(777)
    worst = np.inf
    for trial in range(4):
        n = 64
        x = (np.arange(n) + 0.5) / n
        amp = rng.uniform(0.05, 0.25)
        phase = rng.random()
        rho1 = GridDensity(1, n, 1 + 2 * amp * np.cos(2 * np.pi * (x - phase)))
        assert rho1.min_value >= 0.25 and rho1.values.max() - rho1.min_value <= 1.0
        flow = moser_map(GridDensity.uniform(1, n), rho1)
        worst = min(worst, jacobian_min(flow))
    n2 = 32
    x2 = (np.arange(n2) + 0.5) / n2
    xx, yy = np.meshgrid(x2, x2, indexing="ij")
    vals = (1 + 0.12 * np.cos(2 * np.pi * xx)) * (1 + 0.1 * np.sin(2 * np.pi * yy))
    rho2 = GridDensity(2, n2, vals / vals.mean())
    assert rho2.min_value >= 0.25
    flow2 = moser_map(GridDensity.uniform(2, n2), rho2)
    worst = min(worst, jacobian_min(flow2))
    assert worst > 0, f"minimum Jacobian {worst:.3e} not positive"
    grid = unit_torus_grid(1, 64)
    from randmap.transport import TransportMap
    ident = TransportMap(grid.nodes(), grid.nodes(), route="moser", grid=grid)
    assert jacobian_min(ident) == 1.0
    announce(7, f"diffeomorphism proxy: min Jacobian {worst:.3f}, identity exact 1.0")


def test_criterion_8_lifting():
    rng = np.random.default_rng(888)
    worst_rt = 0.0
    for mani, base in (("circle", [0.3]), ("torus2", [0.5, 0.25]),
                       ("sphere2", [1.1, 0.7])):
        chart = ManifoldChart(mani, base)
        d = len(chart.base_point)
        v = rng.uniform(-1, 1, (100, d))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        v *= rng.uniform(0, 0.95 * chart.cap, (100, 1))
        pts = chart.exp(v)
        atoms = DiscreteMeasure(pts, np.full(100, 0.01))
        back = exp_push(chart, log_lift(chart, atoms))
        if mani == "sphere2":
            err = np.linalg.norm(sphere_xyz(back.points) - sphere_xyz(atoms.points),
                                 axis=1).max()
        else:
            from randmap.geometry import wrap_signed
            err = np.abs(wrap_signed(back.points - atoms.points)).max()
        worst_rt = max(worst_rt, float(err))
    assert worst_rt <= 1e-9

    m = 64
    bl = BundleLift(2, [[1.0, 0.0]], grid_n=m)
    z = -1 + (np.arange(m) + 0.5) * 2.0 / m
    tri = np.maximum(0.0, 1 - np.abs(z) / 0.5)
    tri = tri / (tri.sum() * 2.0 / m)
    mt = BoxDensity(tri, ((-1.0, 1.0),))
    hat = bundle_lift(bl, mt)
    proj = project_density(bl, hat, target=mt)
    w_proj = fiber_w1(proj.normalized(), mt.normalized())
    assert w_proj <= 2 * (2.0 / m), f"projection identity W1 {w_proj:.3e}"

    n = 64
    chart = ManifoldChart("sphere2", [0.0, 0.0])
    ax = -chart.cap + (np.arange(n) + 0.5) * 2 * chart.cap / n
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    rr = np.sqrt(xx ** 2 + yy ** 2)
    cap_density = np.where(rr <= 0.3, 1.0, 0.0)
    g = GridDensity(2, n, cap_density / cap_density.mean())
    rep = density_lift_compare(chart, g)
    assert rep.ratio_min >= np.sin(0.3) / 0.3 - 1e-6
    assert rep.ratio_max <= 1.0 + 1e-6
    announce(8, f"lifting: roundtrip {worst_rt:.1e}, projection {w_proj:.1e}, "
                f"ratio [{rep.ratio_min:.4f}, {rep.ratio_max:.4f}]")


def test_criterion_9_determinism():
    reports_a = run_criterion_1_reports(seeds=range(3))
    reports_b = run_criterion_1_reports(seeds=range(3))
    blob_a = "\n".join(json.dumps(rep.to_dict(), sort_keys=True, indent=2) for rep in reports_a)
    blob_b = "\n".join(json.dumps(rep.to_dict(), sort_keys=True, indent=2) for rep in reports_b)
    assert blob_a.encode() == blob_b.encode()
    _, t_a, e_a = run_criterion_6_masses()
    _, t_b, e_b = run_criterion_6_masses()
    assert json.dumps([t_a, e_a]).encode() == json.dumps([t_b, e_b]).encode()
    announce(9, "determinism: byte-identical reports for criteria 1 and 6")
