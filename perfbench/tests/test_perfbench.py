"""Self-tests of the benchmark: tracer arithmetic and patching, and the
workload generators.

    python -m pytest perfbench/tests
"""
import importlib

import numpy as np
import pytest

from randmap.kernel import KernelFamily
from randmap.moser import MIN_DENSITY
from tracer import Span, Tracer, self_times, totals
from workloads import WORKLOADS, family, write_inputs


def test_self_time_is_inclusive_minus_child_coverage():
    spans = [
        Span("outer", 0.0, 10.0, None, 0),
        Span("inner", 1.0, 3.0, 0, 0),
        Span("inner", 2.0, 4.0, 0, 0),   # overlaps its sibling: covered once
        Span("inner", 6.0, 7.0, 0, 0),
        Span("leaf", 6.5, 6.75, 3, 0),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0, 2.0, 2.0, 0.75, 0.25])
    table = totals(spans)
    assert table["outer"]["s"] == pytest.approx(10.0)
    assert table["inner"]["s"] == pytest.approx(5.0)
    assert table["inner"]["calls"] == 3


def test_self_time_on_a_traced_nested_call():
    t = Tracer()

    def inner():
        return sum(range(20000))

    inner_traced = t._wrap("inner", inner)

    def outer():
        return inner_traced() + inner_traced()

    t._wrap("outer", outer)()
    table = totals(t.spans)
    children = sum(s.end - s.start for s in t.spans if s.name == "inner")
    assert table["inner"]["calls"] == 2
    assert table["outer"]["self_s"] == pytest.approx(table["outer"]["s"] - children,
                                                     abs=1e-12)
    assert all(s.root == 0 for s in t.spans)


BOUND_BY_IMPORT = [
    ("moser", "interp_grid", "geometry"),
    ("transport", "interp_grid", "geometry"), ("measures", "deposit_grid", "geometry"),
    ("kernel", "moser_map", "moser"), ("kernel", "brenier_map", "transport"),
    ("kernel", "grid_pushforward", "measures"), ("moser", "grid_pushforward", "measures"),
    ("kernel", "wasserstein_1d", "measures"), ("moser", "wasserstein_1d", "measures"),
    ("kernel", "wasserstein_sinkhorn_upper", "measures"),
    ("kernel", "draw_sample", "measures"),
    ("cli", "build_continuous_representation", "kernel"),
    ("cli", "verify_representation", "kernel"),
]


@pytest.mark.parametrize("module,name,source", BOUND_BY_IMPORT)
def test_tracer_patches_every_binding_and_restores_it(module, name, source):
    mod = importlib.import_module(f"randmap.{module}")
    src = importlib.import_module(f"randmap.{source}")
    original = getattr(src, name)
    assert getattr(mod, name) is original
    with Tracer():
        bound = getattr(mod, name)
        assert bound is not original and bound.__wrapped__ is original
        assert getattr(src, name) is bound
    assert getattr(mod, name) is original and getattr(src, name) is original


def test_tracer_restores_methods_and_private_solver():
    from randmap import transport

    evaluate, potentials = transport.TransportMap.evaluate, transport._sinkhorn_potentials
    with Tracer():
        assert transport.TransportMap.evaluate is not evaluate
        assert transport._sinkhorn_potentials is not potentials
    assert transport.TransportMap.evaluate is evaluate
    assert transport._sinkhorn_potentials is potentials


def test_tracer_reads_sinkhorn_counts_from_the_solver_return():
    from randmap import transport
    from randmap.geometry import CostSpec
    from randmap.measures import DiscreteMeasure

    rng = np.random.default_rng(0)
    a = DiscreteMeasure(rng.random((12, 2)), np.full(12, 1 / 12))
    b = DiscreteMeasure(rng.random((9, 2)), np.full(9, 1 / 9))
    spec = CostSpec("sqdist")
    c = spec.matrix(a.points, b.points)
    _, _, converged, _, iters = transport._sinkhorn_potentials(
        c, a.weights, b.weights, 0.05, max_iter=500, tol=1e-9)
    with Tracer() as t:
        transport.solve_sinkhorn(a, b, spec, epsilon=0.05, max_iter=500, tol=1e-9)
    assert t.counts["transport.sinkhorn_solves"] == 1
    assert t.counts["transport.sinkhorn_iters"] == iters
    assert t.counts["transport.sinkhorn_converged"] == int(converged)
    assert t.counts["transport.sinkhorn_cost_bytes"] == 2 * c.nbytes
    names = [s.name for s in t.spans]
    assert names == ["transport.solve_sinkhorn", "geometry.pairwise_distance",
                     "transport._sinkhorn_potentials"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name, tmp_path):
    w = WORKLOADS[name]
    dirs = [tmp_path / "a", tmp_path / "b", tmp_path / "c"]
    for d, seed in zip(dirs, (5, 5, 6)):
        write_inputs(w, seed, d)
    files = sorted(p.name for p in dirs[0].iterdir())
    assert len(files) == w.k + 1
    read = [{f: (d / f).read_bytes() for f in files} for d in dirs]
    assert read[0] == read[1]
    assert read[0]["kernel.txt"] != read[2]["kernel.txt"]
    assert all(read[0][f] != read[2][f] for f in files if f.startswith("meas_"))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generated_families_are_valid(name):
    w = WORKLOADS[name]
    for seed in range(20):
        base, dens = family(w, seed)   # GridDensity validates grid, sign and mean
        assert len(dens) == w.k and all((g.dim, g.n) == (w.dim, w.n) for g in dens)
        assert min(g.min_value for g in dens) >= MIN_DENSITY
        KernelFamily(w.space, base, tuple(dens))   # distinct base points


def test_speed_scaled_names_only_cli_commands():
    assert all(set(w.speed_scaled) <= {"represent", "verify"} for w in WORKLOADS.values())
