"""End-to-end tests of the experiment runner: exit codes, report schemas,
manifest isolation of the timestamp, and config-file dispatch."""
import json

import numpy as np
import pytest

from randmap.cli import main
from randmap.measures import DiscreteMeasure, GridDensity
from randmap.lift import write_manifold_atoms
from randmap.moser import MIN_DENSITY


@pytest.fixture()
def workspace(tmp_path):
    n = 64
    x = (np.arange(n) + 0.5) / n
    GridDensity.uniform(1, n).to_csv(tmp_path / "uniform.csv")
    GridDensity(1, n, 1 + 0.5 * np.cos(2 * np.pi * x)).to_csv(tmp_path / "bump.csv")
    vals = np.ones(n)
    vals[3] = 0.0
    vals = vals / vals.mean()
    GridDensity(1, n, vals).to_csv(tmp_path / "vanishing.csv")
    DiscreteMeasure(np.array([[0.2], [0.8]]), np.array([0.5, 0.5])).to_csv(
        tmp_path / "atoms.csv")
    k = 8
    lines = ["space,circle", "interp,nearest", "x0,path"]
    for i in range(k):
        g = GridDensity(1, n, 1 + 0.4 * np.cos(2 * np.pi * (x - i / k)))
        g.to_csv(tmp_path / f"meas_{i:03d}.csv")
        lines.append(f"{i / k},meas_{i:03d}.csv")
    (tmp_path / "kernel.txt").write_text("\n".join(lines) + "\n")
    return tmp_path


def test_wdist_identical_measures(workspace, capsys):
    rc = main(["wdist", "--a", str(workspace / "uniform.csv"),
               "--b", str(workspace / "uniform.csv"),
               "--out", str(workspace / "w0")])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0.0"
    report = json.loads((workspace / "w0" / "report.json").read_text())
    assert report["distance"] == 0.0


def test_wdist_exact_method(workspace, capsys):
    rc = main(["wdist", "--a", str(workspace / "atoms.csv"),
               "--b", str(workspace / "atoms.csv"), "--method", "exact",
               "--out", str(workspace / "w1")])
    assert rc == 0
    assert float(capsys.readouterr().out.strip()) <= 1e-9


def test_moser_rejects_nonpositive_density(workspace, capsys):
    rc = main(["moser", "--rho0", str(workspace / "uniform.csv"),
               "--rho1", str(workspace / "vanishing.csv"),
               "--out", str(workspace / "mbad")])
    assert rc == 2
    assert "positivity" in capsys.readouterr().err


def test_moser_writes_map_and_report(workspace):
    out = workspace / "mos"
    rc = main(["moser", "--rho0", str(workspace / "uniform.csv"),
               "--rho1", str(workspace / "bump.csv"),
               "--checkpoints", "0.5", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pushforward_w1"] <= 1e-2
    assert report["jacobian_min"] > 0
    assert report["poisson_residual"] <= 1e-8
    assert (out / "map.csv").exists()
    assert (out / "checkpoint_0.5000.csv").exists()


def test_verify_pass_and_schema(workspace):
    out = workspace / "ver"
    rc = main(["verify", "--kernel", str(workspace / "kernel.txt"),
               "--route", "continuous", "--n", "10000", "--tol", "0.05",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"route", "N", "seed", "tol", "mc_floor",
                           "per_point", "modulus"}
    assert report["N"] == 10000 and report["seed"] == 7
    assert all(rec["pass"] for rec in report["per_point"])
    assert {"dx", "dT"} == set(report["modulus"][0])
    manifest = json.loads((out / "manifest.json").read_text())
    assert "timestamp" in manifest
    assert manifest["tolerances"] == {"tol": 0.05}


def test_verify_reports_are_byte_identical(workspace):
    outs = []
    for name in ("d1", "d2"):
        out = workspace / name
        rc = main(["verify", "--kernel", str(workspace / "kernel.txt"),
                   "--route", "continuous", "--n", "2000", "--tol", "0.05",
                   "--seed", "21", "--out", str(out)])
        assert rc == 0
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_verify_check_failure_exit_code(workspace):
    out = workspace / "vfail"
    rc = main(["verify", "--kernel", str(workspace / "kernel.txt"),
               "--route", "continuous", "--n", "200", "--tol", "0.0001",
               "--seed", "3", "--out", str(out)])
    assert rc == 1
    report = json.loads((out / "report.json").read_text())
    assert not all(rec["pass"] for rec in report["per_point"])


def test_represent_writes_maps(workspace):
    out = workspace / "rep"
    rc = main(["represent", "--kernel", str(workspace / "kernel.txt"),
               "--route", "measurable", "--out", str(out)])
    assert rc == 0
    assert (out / "map_000.csv").exists() and (out / "map_007.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["route"] == "measurable"
    assert max(report["pushforward_errors"]) <= report["pushforward_tol"]


def test_couple_exact_writes_plan(workspace):
    out = workspace / "cpl"
    rc = main(["couple", "--mu", str(workspace / "atoms.csv"),
               "--nu", str(workspace / "atoms.csv"), "--method", "exact",
               "--out", str(out)])
    assert rc == 0
    lines = (out / "plan.csv").read_text().splitlines()
    assert lines[0] == "i,j,gamma"
    report = json.loads((out / "report.json").read_text())
    assert report["cost"] <= 1e-12


def test_stability_table(workspace):
    targets = []
    for k in (1, 2, 4):
        m = DiscreteMeasure(np.array([[0.2 + 0.1 / k], [0.8 + 0.1 / k]]),
                            np.array([0.5, 0.5]))
        path = workspace / f"t{k}.csv"
        m.to_csv(path)
        targets.append(str(path))
    out = workspace / "stab"
    rc = main(["stability", "--mu", str(workspace / "uniform.csv"),
               "--targets", ",".join(targets),
               "--limit", str(workspace / "atoms.csv"),
               "--eps", "0.06", "--out", str(out)])
    assert rc == 0
    lines = (out / "stability.csv").read_text().splitlines()
    assert lines[0] == "k,mass"
    masses = json.loads((out / "report.json").read_text())["deviation_masses"]
    assert masses[0] == 1.0 and masses[-1] == 0.0


def test_lift_roundtrip_command(workspace):
    atoms = DiscreteMeasure(np.array([[0.3, 0.1], [0.5, 1.0]]),
                            np.array([0.5, 0.5]))
    path = workspace / "sphere_atoms.csv"
    write_manifold_atoms(path, "sphere2", atoms)
    out = workspace / "lift"
    rc = main(["lift", "--manifold", "sphere2", "--base", "0.0,0.0",
               "--atoms", str(path), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["round_trip_error"] <= 1e-9
    assert (out / "tangent_atoms.csv").exists()


def test_config_file_dispatch(workspace, capsys):
    cfg = {"cmd": "wdist", "a": str(workspace / "uniform.csv"),
           "b": str(workspace / "bump.csv"), "p": 1.0,
           "out": str(workspace / "wc")}
    cfg_path = workspace / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["--config", str(cfg_path)])
    assert rc == 0
    dist = float(capsys.readouterr().out.strip())
    assert dist > 0.0


def test_config_missing_cmd_field(workspace, capsys):
    cfg_path = workspace / "bad.json"
    cfg_path.write_text(json.dumps({"a": "x"}))
    rc = main(["--config", str(cfg_path)])
    assert rc == 2
    assert "cmd" in capsys.readouterr().err


def test_missing_input_file_is_usage_error(workspace, capsys):
    rc = main(["wdist", "--a", str(workspace / "nope.csv"),
               "--b", str(workspace / "uniform.csv"),
               "--out", str(workspace / "w")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_malformed_manifest_coordinate_is_usage_error(workspace, capsys):
    text = (workspace / "kernel.txt").read_text().replace("0.25,meas_002", "foo,meas_002")
    (workspace / "bad_kernel.txt").write_text(text)
    rc = main(["represent", "--kernel", str(workspace / "bad_kernel.txt"),
               "--route", "continuous", "--out", str(workspace / "rbad")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad_kernel.txt, line 6" in err and "foo" in err


def test_malformed_density_value_is_usage_error(workspace, capsys):
    lines = (workspace / "bump.csv").read_text().splitlines()
    lines[4] = "abc"
    (workspace / "bad_density.csv").write_text("\n".join(lines) + "\n")
    rc = main(["wdist", "--a", str(workspace / "bad_density.csv"),
               "--b", str(workspace / "uniform.csv"), "--out", str(workspace / "wbad")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad_density.csv, line 5" in err and "abc" in err


def test_malformed_atom_value_is_usage_error(workspace, capsys):
    (workspace / "bad_atoms.csv").write_text("x0,w\n0.2,0.5\n0.8,half\n")
    rc = main(["wdist", "--a", str(workspace / "bad_atoms.csv"),
               "--b", str(workspace / "atoms.csv"), "--method", "exact",
               "--out", str(workspace / "wbad")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad_atoms.csv, line 3" in err and "half" in err


def _bad_lift_atoms(workspace, text):
    (workspace / "bad_circle.csv").write_text(text)
    return ["lift", "--manifold", "circle", "--base", "0.0",
            "--atoms", str(workspace / "bad_circle.csv"), "--out", str(workspace / "lbad")]


def _edited_manifest(workspace, name, row):
    """The workspace manifest, with the row of base point 0.25 replaced by `row`."""
    text = (workspace / "kernel.txt").read_text().replace("0.25,meas_002", row)
    (workspace / name).write_text(text)
    return ["represent", "--kernel", str(workspace / name), "--out", str(workspace / "rbad")]


def _bad_wdist_input(workspace, name, text):
    (workspace / name).write_text(text)
    return ["wdist", "--a", str(workspace / name), "--b", str(workspace / name),
            "--out", str(workspace / "wbad")]


def _density_with_value(workspace, token):
    lines = (workspace / "uniform.csv").read_text().splitlines()
    lines[4] = token
    return _bad_wdist_input(workspace, "bad_density.csv", "\n".join(lines) + "\n")


BAD_INPUTS = {
    "wdist-nan-density": (lambda ws: _density_with_value(ws, "nan"), ["must be finite"]),
    "wdist-inf-atom": (lambda ws: _bad_wdist_input(ws, "inf_atoms.csv",
                                                   "x0,w\n0.2,0.5\ninf,0.5\n"),
                       ["must be finite"]),
    "wdist-empty-file": (lambda ws: _bad_wdist_input(ws, "empty.csv", ""),
                         ["empty.csv: empty measure file"]),
    "wdist-n12": (lambda ws: _bad_wdist_input(ws, "n12.csv", "dim,n\n1,12\n" + "1.0\n" * 12),
                  ["power of two", "got 12"]),
    "duplicate-base-points": (lambda ws: _edited_manifest(ws, "dup_kernel.txt", "0.125,meas_002"),
                              ["base points must be distinct"]),
    "lift-atom-value": (lambda ws: _bad_lift_atoms(ws, "theta,w\n0.1,0.5\n0.2,abc\n"),
                        ["bad_circle.csv, line 3", "abc"]),
    "lift-atom-row": (lambda ws: _bad_lift_atoms(ws, "theta,w\n0.1,0.5\n0.2\n"),
                      ["bad_circle.csv, line 3", "expected 2 values"]),
    "lift-base": (lambda ws: ["lift", "--manifold", "circle", "--base", "x",
                              "--atoms", str(ws / "atoms.csv"), "--out", str(ws / "lb")],
                  ["--base", "'x'"]),
    "moser-checkpoints": (lambda ws: ["moser", "--rho0", str(ws / "uniform.csv"),
                                      "--rho1", str(ws / "bump.csv"), "--checkpoints", "x",
                                      "--out", str(ws / "mc")],
                          ["--checkpoints", "'x'"]),
    "manifest-row": (lambda ws: _edited_manifest(ws, "ragged_kernel.txt", "meas_002"),
                     ["ragged_kernel.txt, line 6", "expected 2 fields"]),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_usage_error(workspace, capsys, case):
    make_argv, needles = BAD_INPUTS[case]
    try:
        rc = main(make_argv(workspace))
    except SystemExit as exc:  # argparse rejects a bad flag value itself
        rc = exc.code
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err


def test_represent_accepts_density_at_positivity_floor(workspace):
    vals = np.ones(64)
    vals[0], vals[1] = MIN_DENSITY, 2.0 - MIN_DENSITY
    floor = GridDensity(1, 64, vals)
    assert floor.min_value == MIN_DENSITY
    floor.to_csv(workspace / "meas_002.csv")
    rc = main(["represent", "--kernel", str(workspace / "kernel.txt"),
               "--route", "continuous", "--out", str(workspace / "rfloor")])
    assert rc == 0


def test_invalid_threads_env(workspace, monkeypatch, capsys):
    monkeypatch.setenv("RANDMAP_THREADS", "zero")
    rc = main(["wdist", "--a", str(workspace / "uniform.csv"),
               "--b", str(workspace / "uniform.csv"),
               "--out", str(workspace / "wt")])
    assert rc == 2
    assert "RANDMAP_THREADS" in capsys.readouterr().err


def test_unconverged_brenier_solve_is_usage_error(tmp_path, monkeypatch, capsys):
    from randmap import transport

    solve = transport._sinkhorn_potentials

    def stalled(*args, **kwargs):
        f, g, _, err, iters = solve(*args, **kwargs)
        return f, g, False, err, iters

    monkeypatch.setattr(transport, "_sinkhorn_potentials", stalled)
    n = 8
    x = (np.arange(n) + 0.5) / n
    lines = ["space,interval", "interp,nearest", "x0,path"]
    for i, c in enumerate((0.3, 0.7)):
        vals = 1 + 0.5 * np.exp(-((x[:, None] - c) ** 2 + (x[None, :] - 0.5) ** 2) / 0.02)
        GridDensity(2, n, vals / vals.mean()).to_csv(tmp_path / f"meas_{i}.csv")
        lines.append(f"{c},meas_{i}.csv")
    (tmp_path / "kernel.txt").write_text("\n".join(lines) + "\n")
    rc = main(["represent", "--kernel", str(tmp_path / "kernel.txt"),
               "--route", "measurable", "--out", str(tmp_path / "rep")])
    assert rc == 2
    assert "did not converge" in capsys.readouterr().err


def test_manifest_isolates_timestamp(workspace):
    import time
    outs = []
    for name in ("m1", "m2"):
        out = workspace / name
        main(["wdist", "--a", str(workspace / "uniform.csv"),
              "--b", str(workspace / "bump.csv"), "--out", str(out)])
        outs.append(out)
        time.sleep(1.1)
    r1 = (outs[0] / "report.json").read_bytes()
    r2 = (outs[1] / "report.json").read_bytes()
    assert r1 == r2
    m1 = json.loads((outs[0] / "manifest.json").read_text())
    m2 = json.loads((outs[1] / "manifest.json").read_text())
    m1.pop("timestamp")
    m2.pop("timestamp")
    assert m1 == m2
