"""End-to-end tests of the experiment runner: exit codes, report schemas,
manifest isolation of the timestamp, and config-file dispatch."""
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import randmap
from randmap import cli, moser
from randmap.cli import main
from randmap.lift import ManifoldChart, exp_push, log_lift
from randmap.measures import DiscreteMeasure, GridDensity, read_measure
from randmap.moser import FLOW_TOL, MIN_DENSITY, MoserError, MoserField, continuity_residual
from randmap.transport import MARGINAL_TOL


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


def _hashes(*paths):
    return {str(pth): hashlib.sha256(Path(pth).read_bytes()).hexdigest() for pth in paths}


def _kernel_inputs(workspace):
    """Hashes of the workspace's kernel manifest and the 8 measure files it names."""
    return _hashes(workspace / "kernel.txt", *(workspace / f"meas_{i:03d}.csv" for i in range(8)))


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


@pytest.mark.parametrize("p", ["1", "2"])
def test_wdist_exact_takes_a_grid_file_like_couple(workspace, capsys, p):
    dists = {}
    for method in ("quantile", "exact"):
        rc = main(["wdist", "--a", str(workspace / "bump.csv"), "--b", str(workspace / "atoms.csv"),
                   "--method", method, "--p", p, "--out", str(workspace / f"wg_{method}")])
        assert rc == 0
        dists[method] = float(capsys.readouterr().out.strip())
    assert dists["exact"] == pytest.approx(dists["quantile"], abs=1e-9)


@pytest.mark.parametrize("method", ["quantile", "exact"])
@pytest.mark.parametrize("p", ["50", "1000"])
def test_wdist_at_large_p_reads_the_distance_every_coupling_moves(workspace, capsys, method, p):
    # every coupling of {0.2, 0.8} and {0.4, 0.6} moves all mass by 0.2
    DiscreteMeasure(np.array([[0.4], [0.6]]), np.array([0.5, 0.5])).to_csv(
        workspace / "inner.csv")
    rc = main(["wdist", "--a", str(workspace / "atoms.csv"),
               "--b", str(workspace / "inner.csv"), "--method", method, "--p", p,
               "--out", str(workspace / "wp")])
    assert rc == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(0.2, rel=1e-15)


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
    assert 0 <= report["flow_error_estimate"] <= FLOW_TOL / 64
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tolerances"]["flow_tol"] == FLOW_TOL / 64
    # a computed value, so it is reported; the config holds only flags
    assert report["steps"] == 0 and "steps" not in manifest["config"]
    assert (out / "map.csv").exists()
    assert (out / "checkpoint_0.5000.csv").exists()


def test_2d_moser_checkpoints_leave_map_csv_as_it_is(workspace):
    # 0.3 falls between RK4 steps at every step count; the checkpoint is a
    # side step off the accepted run, so the map's bytes do not move
    GridDensity.uniform(2, 16).to_csv(workspace / "uniform16.csv")
    _bump(16, 0.15, 0.2, dim=2).to_csv(workspace / "bump16.csv")
    written = []
    for name, extra in (("plain", []), ("marked", ["--checkpoints", "0.3"])):
        out = workspace / name
        assert main(["moser", "--rho0", str(workspace / "uniform16.csv"), "--rho1",
                     str(workspace / "bump16.csv"), *extra, "--out", str(out)]) == 0
        written.append([(out / f).read_bytes() for f in ("map.csv", "report.json")])
    assert written[0] == written[1]
    assert (workspace / "marked" / "checkpoint_0.3000.csv").exists()


def test_moser_writes_nothing_when_the_solve_fails(workspace, monkeypatch, capsys):
    def failed_solve(source):
        raise MoserError("Poisson residual 1.000e+00 exceeds 1e-08")

    monkeypatch.setattr(moser, "solve_poisson_periodic", failed_solve)
    out = workspace / "mfail"
    rc = main(["moser", "--rho0", str(workspace / "uniform.csv"),
               "--rho1", str(workspace / "bump.csv"),
               "--checkpoints", "0.5", "--out", str(out)])
    assert rc == 2
    assert "Poisson residual" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_only_moser_solves_poisson_in_1d(workspace, monkeypatch):
    solve = moser.solve_poisson_periodic
    sources = []
    monkeypatch.setattr(moser, "solve_poisson_periodic",
                        lambda source: sources.append(source) or solve(source))
    kern = ["--kernel", str(workspace / "kernel.txt"), "--route", "continuous"]
    assert main(["represent", *kern, "--out", str(workspace / "rep")]) == 0
    assert main(["verify", *kern, "--n", "10000", "--tol", "0.05", "--seed", "7",
                 "--out", str(workspace / "ver")]) == 0
    assert sources == []
    out = workspace / "mos"
    assert main(["moser", "--rho0", str(workspace / "uniform.csv"),
                 "--rho1", str(workspace / "bump.csv"), "--out", str(out)]) == 0
    assert len(sources) == 1
    rho0, rho1 = (read_measure(workspace / f) for f in ("uniform.csv", "bump.csv"))
    report = json.loads((out / "report.json").read_text())
    assert report["poisson_residual"] == solve(rho0.values - rho1.values).residual
    assert report["continuity_residual"] == continuity_residual(MoserField(rho0, rho1), 0.5)


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
    assert manifest["inputs"] == _kernel_inputs(workspace)


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
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"] == _kernel_inputs(workspace)


def test_represent_manifest_hashes_the_reference_file(workspace):
    out = workspace / "rref"
    rc = main(["represent", "--kernel", str(workspace / "kernel.txt"), "--route", "measurable",
               "--reference", str(workspace / "uniform.csv"), "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"] == _kernel_inputs(workspace) | _hashes(workspace / "uniform.csv")


# Each flag that names no file acts: two runs that differ in it, each with
# the exit code given here, must differ in that code, a CSV or a report value
# that is not the flag's own echo, and each run's manifest config records its
# value. A switch's value is True (given) or False (left out).
_SINKHORN_COUPLE = ["couple", "--mu", "bump.csv", "--nu", "uniform.csv", "--method", "sinkhorn"]
_MOSER = ["moser", "--rho0", "uniform.csv", "--rho1", "bump.csv"]
_VERIFY = ["verify", "--kernel", "kernel.txt", "--n", "200", "--seed", "0"]
FLAG_PAIRS = {
    "couple-epsilon": (_SINKHORN_COUPLE, "--epsilon", {"0.05": 0, "0.02": 0}),
    "couple-max-iter": (_SINKHORN_COUPLE, "--max-iter", {"3": 1, "5000": 0}),
    "couple-tol": (_SINKHORN_COUPLE, "--tol", {"1e-3": 0, "1e-9": 0}),
    "couple-p": (["couple", "--mu", "atoms.csv", "--nu", "bump.csv", "--cost", "dist_p"],
                 "--p", {"1": 0, "3": 0}),
    "wdist-p": (["wdist", "--a", "atoms.csv", "--b", "bump.csv"], "--p", {"1": 0, "2": 0}),
    "moser-tol": (_MOSER, "--tol", {"1e-2": 0, "1e-9": 1}),
    "moser-checkpoints": (_MOSER, "--checkpoints", {"0.25": 0, "0.3,0.7": 0}),
    "lift-cap": (["lift", "--manifold", "circle", "--base", "0.0", "--atoms", "atoms.csv"],
                 "--cap", {"0.4": 0, "0.1": 2}),
    "lift-base": (["lift", "--manifold", "circle", "--atoms", "atoms.csv"], "--base",
                  {"0.0": 0, "0.1": 0}),
    "stability-eps": (["stability", "--mu", "uniform.csv", "--targets", "bump.csv",
                       "--limit", "atoms.csv"], "--eps", {"0.01": 0, "0.3": 0}),
    "verify-n": (_VERIFY, "--n", {"200": 0, "400": 0}),
    "verify-tol": (_VERIFY, "--tol", {"0.05": 0, "1e-4": 1}),
    "verify-seed": (_VERIFY, "--seed", {"0": 0, "1": 0}),
    "wdist-method": (["wdist", "--a", "b2.csv", "--b", "g2.csv"], "--method",
                     {"quantile": 2, "exact": 0}),
    "wdist-periodic": (["wdist", "--a", "atoms.csv", "--b", "meas_001.csv"], "--periodic",
                       {False: 0, True: 0}),
    "couple-cost": (["couple", "--mu", "atoms.csv", "--nu", "bump.csv"], "--cost",
                    {"sqdist": 0, "negdot": 0}),
    "couple-method": (["couple", "--mu", "atoms.csv", "--nu", "bump.csv"], "--method",
                      {"exact": 0, "sinkhorn": 0}),
    "couple-periodic": (["couple", "--mu", "atoms.csv", "--nu", "meas_001.csv"], "--periodic",
                        {False: 0, True: 0}),
    "represent-route": (["represent", "--kernel", "kernel.txt"], "--route",
                        {"continuous": 0, "measurable": 0}),
    "verify-route": (_VERIFY, "--route", {"continuous": 0, "measurable": 0}),
    "lift-manifold": (["lift", "--base", "0.0,0.0", "--atoms", "b2.csv"], "--manifold",
                      {"torus2": 0, "sphere2": 0}),
    "stability-periodic": (["stability", "--mu", "uniform.csv", "--targets", "meas_001.csv",
                            "--limit", "atoms.csv", "--eps", "0.1"], "--periodic",
                           {False: 0, True: 0}),
}


@pytest.mark.parametrize("case", FLAG_PAIRS)
def test_manifest_config_records_flags_that_change_outputs(workspace, case):
    _write_2d_files(workspace)
    argv, flag, codes = FLAG_PAIRS[case]
    argv = [str(workspace / a) if a.endswith((".txt", ".csv")) else a for a in argv]
    key = flag[2:].replace("-", "_")
    runs, echoes = [], set()
    for value, code in codes.items():
        out = workspace / f"{case}-{value}"
        given = ([flag] if value else []) if isinstance(value, bool) else [flag, value]
        assert main(argv + given + ["--out", str(out)]) == code
        files = {f.name: f.read_bytes() for f in out.iterdir()
                 if f.name not in ("manifest.json", "report.json")}
        report = {}
        if code != 2:  # a usage error writes no JSON
            config = json.loads((out / "manifest.json").read_text())["config"]
            if isinstance(value, bool) or value[0].isalpha():  # a switch or a choice
                assert config[key] == value
            else:
                assert np.ravel(config[key]).tolist() == [float(v) for v in value.split(",")]
            echoes.add(json.dumps(config[key]))
            report = json.loads((out / "report.json").read_text())
        runs.append((code, files, report))
    # a report value that only echoes either run's flag value shows no effect
    outputs = [(code, files, {k: v for k, v in report.items() if json.dumps(v) not in echoes})
               for code, files, report in runs]
    assert outputs[0] != outputs[1]


def test_every_csv_writer_ends_lines_in_bare_newlines(workspace):
    sphere = workspace / "sphere_atoms.csv"
    DiscreteMeasure(np.array([[0.3, 0.1], [0.5, 1.0]]), np.array([0.5, 0.5])).to_csv(sphere)
    runs = [["represent", "--kernel", str(workspace / "kernel.txt"), "--route", "measurable"],
            ["moser", "--rho0", str(workspace / "uniform.csv"),
             "--rho1", str(workspace / "bump.csv"), "--checkpoints", "0.5"],
            ["couple", "--mu", str(workspace / "atoms.csv"), "--nu", str(workspace / "bump.csv")],
            ["stability", "--mu", str(workspace / "uniform.csv"),
             "--targets", str(workspace / "bump.csv"), "--limit", str(workspace / "atoms.csv"),
             "--eps", "0.1"],
            ["lift", "--manifold", "sphere2", "--base", "0.0,0.0", "--atoms", str(sphere)]]
    for i, argv in enumerate(runs):
        assert main(argv + ["--out", str(workspace / f"run{i}")]) == 0
    files = sorted(workspace.rglob("*.csv"))
    assert {"meas_000.csv", "atoms.csv", "map_000.csv", "map.csv", "checkpoint_0.5000.csv",
            "plan.csv", "stability.csv", "tangent_atoms.csv",
            "roundtrip_atoms.csv"} <= {f.name for f in files}
    assert [f.name for f in files if b"\r" in f.read_bytes()] == []


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


def _stability_masses(workspace, mu, limit, targets, eps, *flags):
    """Run `stability` on density files and return its deviation masses."""
    out = workspace / "stab"
    rc = main(["stability", "--mu", str(mu), "--limit", str(limit),
               "--targets", ",".join(str(t) for t in targets),
               "--eps", str(eps), *flags, "--out", str(out)])
    assert rc == 0
    return json.loads((out / "report.json").read_text())["deviation_masses"]


def test_stability_circle_grid_targets(workspace):
    x = (np.arange(64) + 0.5) / 64

    def shifted(name, s):
        GridDensity(1, 64, 1 + 0.4 * np.cos(2 * np.pi * (x - s))).to_csv(workspace / name)
        return workspace / name

    # the targets' bumps sit on both sides of the seam at 0
    targets = [shifted(f"c{k}.csv", 0.9 + 0.2 / k) for k in (1, 2, 4, 8)]
    masses = _stability_masses(workspace, workspace / "uniform.csv",
                               shifted("climit.csv", 0.9), targets, 0.03, "--periodic")
    assert masses == [0.71875, 0.203125, 0.0625, 0.0]


@pytest.mark.parametrize("flags,masses", [((), [1.0, 0.8125, 0.0]),
                                          (("--periodic",), [0.875, 0.8125, 0.0])])
def test_stability_2d_grid_targets(workspace, flags, masses):
    g = (np.arange(16) + 0.5) / 16
    x0 = np.meshgrid(g, g, indexing="ij")[0]
    GridDensity.uniform(2, 16).to_csv(workspace / "u2.csv")

    def ridge(name, c):
        vals = 0.02 + np.exp(-((x0 - c) / 0.2) ** 2)
        GridDensity(2, 16, vals / vals.mean()).to_csv(workspace / name)
        return workspace / name

    # the k=1 images sit about 0.8 from the limit's, 0.2 once wrapped
    targets = [ridge(f"r{k}.csv", 0.1 + 0.8 / k) for k in (1, 2, 4)]
    assert _stability_masses(workspace, workspace / "u2.csv", ridge("rlimit.csv", 0.1),
                             targets, 0.3, *flags) == masses


@pytest.mark.parametrize("manifold, base, points", [
    ("circle", "0.9", [[0.1], [0.75], [0.5]]),
    ("sphere2", "1.0,2.0", [[0.3, 1.2], [1.1, 4.0], [2.5, 0.1]])])
def test_lift_writes_atom_files_that_read_back_bit_for_bit(workspace, manifold, base, points):
    atoms = DiscreteMeasure(np.array(points), np.array([0.25, 0.5, 0.25]))
    path = workspace / f"{manifold}_atoms.csv"
    atoms.to_csv(path)
    out = workspace / manifold
    assert main(["lift", "--manifold", manifold, "--base", base, "--atoms", str(path),
                 "--out", str(out)]) == 0
    chart = ManifoldChart(manifold, [float(b) for b in base.split(",")])
    tangent = log_lift(chart, atoms)
    for name, expected in (("tangent_atoms.csv", tangent),
                           ("roundtrip_atoms.csv", exp_push(chart, tangent))):
        back = read_measure(out / name)
        assert back.points.tobytes() == expected.points.tobytes()
        assert back.weights.tobytes() == atoms.weights.tobytes()
    header = "x0,x1,w" if manifold == "sphere2" else "x0,w"
    assert (out / "roundtrip_atoms.csv").read_text().splitlines()[0] == header


def test_lift_roundtrip_command(workspace):
    atoms = DiscreteMeasure(np.array([[0.3, 0.1], [0.5, 1.0]]),
                            np.array([0.5, 0.5]))
    path = workspace / "sphere_atoms.csv"
    atoms.to_csv(path)
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


def test_couple_manifest_config_runs_again_as_a_config_file(workspace):
    # an unset --p is recorded as null, and a null in a config omits its flag
    out = workspace / "first"
    assert main(["couple", "--mu", str(workspace / "atoms.csv"), "--nu",
                 str(workspace / "bump.csv"), "--out", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["p"] is None
    cfg_path = workspace / "again.json"
    cfg_path.write_text(json.dumps(config | {"cmd": "couple", "out": str(workspace / "again")}))
    assert main(["--config", str(cfg_path)]) == 0
    for name in ("report.json", "plan.csv"):
        assert (workspace / "again" / name).read_bytes() == (out / name).read_bytes()


def test_config_missing_cmd_field(workspace, capsys):
    cfg_path = workspace / "bad.json"
    cfg_path.write_text(json.dumps({"a": "x"}))
    rc = main(["--config", str(cfg_path)])
    assert rc == 2
    assert "cmd" in capsys.readouterr().err


@pytest.mark.parametrize("text, needle", [
    ("5", "must be a JSON object"), ('["cmd"]', "must be a JSON object"),
    ('{"cmd": 5}', "'cmd' must be a command name")], ids=["number", "list", "cmd-number"])
def test_config_of_the_wrong_shape_is_usage_error(workspace, capsys, text, needle):
    cfg_path = workspace / "wrong_shape.json"
    cfg_path.write_text(text)
    rc = main(["--config", str(cfg_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "config error" in err and needle in err


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


def test_atom_file_with_a_wrong_header_is_usage_error(workspace, capsys):
    # every header field counts, not only the first and the last
    (workspace / "foo_atoms.csv").write_text("x0,foo,w\n0.2,0.3,0.5\n0.8,0.1,0.5\n")
    rc = main(["wdist", "--a", str(workspace / "foo_atoms.csv"),
               "--b", str(workspace / "foo_atoms.csv"), "--method", "exact",
               "--out", str(workspace / "wfoo")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "foo_atoms.csv, line 1: expected header 'x0[,x1[,x2]],w', got 'x0,foo,w'" in err


def test_grid_file_with_a_leading_blank_line_and_comments_reads(workspace, capsys):
    bump = (workspace / "bump.csv").read_text()
    (workspace / "bump_noted.csv").write_text("\n# 1 + cos/2 on 64 cells\n" + bump
                                             + "# end\n")
    dists = []
    for name in ("bump.csv", "bump_noted.csv"):
        rc = main(["wdist", "--a", str(workspace / name), "--b", str(workspace / "uniform.csv"),
                   "--out", str(workspace / f"w-{name}")])
        assert rc == 0
        dists.append(capsys.readouterr().out)
    assert dists[0] == dists[1] and float(dists[0]) > 0


def test_comment_lines_in_an_atom_file_are_skipped(workspace, capsys):
    (workspace / "atoms_noted.csv").write_text("x0,w\n# two atoms\n0.2,0.5\n0.8,0.5\n")
    rc = main(["wdist", "--a", str(workspace / "atoms_noted.csv"),
               "--b", str(workspace / "atoms.csv"), "--method", "exact",
               "--out", str(workspace / "wnoted")])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0.0"


def test_manifest_tags_are_read_without_surrounding_spaces(workspace):
    text = (workspace / "kernel.txt").read_text()
    text = text.replace("space,circle", "space, circle").replace("interp,nearest",
                                                                 "interp, nearest")
    (workspace / "spaced_kernel.txt").write_text("# a spaced manifest\n" + text)
    assert main(["represent", "--kernel", str(workspace / "spaced_kernel.txt"),
                 "--out", str(workspace / "rspaced")]) == 0
    assert main(["represent", "--kernel", str(workspace / "kernel.txt"),
                 "--out", str(workspace / "rplain")]) == 0
    assert ((workspace / "rspaced" / "report.json").read_bytes()
            == (workspace / "rplain" / "report.json").read_bytes())


def _bad_lift_atoms(workspace, text):
    (workspace / "bad_circle.csv").write_text(text)
    return ["lift", "--manifold", "circle", "--base", "0.0",
            "--atoms", str(workspace / "bad_circle.csv"), "--out", str(workspace / "lbad")]


def _rewritten_manifest(workspace, name, *edits):
    """The workspace manifest with every (old, new) text edit applied."""
    text = (workspace / "kernel.txt").read_text()
    for old, new in edits:
        text = text.replace(old, new)
    (workspace / name).write_text(text)
    return ["represent", "--kernel", str(workspace / name), "--out", str(workspace / "rbad")]


def _edited_manifest(workspace, name, row):
    """The workspace manifest, with the row of base point 0.25 replaced by `row`."""
    return _rewritten_manifest(workspace, name, ("0.25,meas_002", row))


def _bad_wdist_input(workspace, name, text):
    (workspace / name).write_text(text)
    return ["wdist", "--a", str(workspace / name), "--b", str(workspace / name),
            "--out", str(workspace / "wbad")]


def _bump(n, width, floor, dim=1):
    """A Gaussian bump at the centre of [0, 1)^dim over a density floor."""
    x = (np.arange(n) + 0.5) / n
    r2 = sum(a ** 2 for a in np.meshgrid(*(x - 0.5,) * dim, indexing="ij"))
    bump = np.exp(-r2 / (2 * width ** 2))
    return GridDensity(dim, n, floor + (1 - floor) / bump.mean() * bump)


def _unresolved_moser_flow(workspace):
    # a narrow 2D bump over the positivity floor on 16 x 16 cells: step
    # doubling does not meet its tolerance by the cap of 64 * 16 steps
    GridDensity.uniform(2, 16).to_csv(workspace / "uniform16.csv")
    _bump(16, 0.01, MIN_DENSITY, dim=2).to_csv(workspace / "spike16.csv")
    return ["moser", "--rho0", str(workspace / "uniform16.csv"),
            "--rho1", str(workspace / "spike16.csv"), "--out", str(workspace / "mu")]


def _kernel_below_floor(workspace):
    vals = np.ones(64)
    vals[0], vals[1] = MIN_DENSITY / 2, 2.0 - MIN_DENSITY / 2
    GridDensity(1, 64, vals).to_csv(workspace / "low.csv")
    return _edited_manifest(workspace, "low_kernel.txt", "0.25,low")


def _moser_checkpoints(workspace, text):
    return ["moser", "--rho0", str(workspace / "uniform.csv"), "--rho1",
            str(workspace / "bump.csv"), "--checkpoints", text, "--out", str(workspace / "mc")]


def _verify_tol(workspace, text):
    return ["verify", "--kernel", str(workspace / "kernel.txt"), "--n", "200", "--tol", text,
            "--seed", "0", "--out", str(workspace / "vt")]


def _sinkhorn_couple(workspace, *flags):
    return ["couple", "--mu", str(workspace / "atoms.csv"), "--nu", str(workspace / "uniform.csv"),
            "--method", "sinkhorn", *flags, "--out", str(workspace / "cs")]


def _exact_couple(workspace, *flags):
    return ["couple", "--mu", str(workspace / "atoms.csv"), "--nu", str(workspace / "uniform.csv"),
            *flags, "--out", str(workspace / "ce")]


def _moser_2d(workspace, *flags):
    _write_2d_files(workspace)
    return ["moser", "--rho0", str(workspace / "g2.csv"), "--rho1", str(workspace / "g2.csv"),
            *flags, "--out", str(workspace / "m2")]


def _stability_eps(workspace, eps):
    return ["stability", "--mu", str(workspace / "uniform.csv"),
            "--targets", str(workspace / "atoms.csv"), "--limit", str(workspace / "atoms.csv"),
            "--eps", eps, "--out", str(workspace / "se")]


def _couple_p(workspace, p, *flags):
    return ["couple", "--mu", str(workspace / "atoms.csv"), "--nu", str(workspace / "atoms.csv"),
            "--p", p, *flags, "--out", str(workspace / "cp")]


def _wdist_p(workspace, p, *flags):
    return ["wdist", "--a", str(workspace / "atoms.csv"), "--b", str(workspace / "atoms.csv"),
            "--p", p, *flags, "--out", str(workspace / "wp")]


def _write_2d_files(workspace):
    """b2.csv (two 2D atoms) and g2.csv (a uniform 2D grid) beside the workspace's 1D files."""
    DiscreteMeasure(np.array([[0.1, 0.7], [0.9, 0.2]]), np.array([0.5, 0.5])).to_csv(
        workspace / "b2.csv")
    GridDensity.uniform(2, 8).to_csv(workspace / "g2.csv")


def _mixed_dimensions(workspace, command, first, second, *flags):
    """argv of command from the file first to the file second (see `_write_2d_files`)."""
    _write_2d_files(workspace)
    a, b = {"couple": ("--mu", "--nu"), "wdist": ("--a", "--b"),
            "stability": ("--mu", "--targets")}[command]
    return [command, a, str(workspace / first), b, str(workspace / second), *flags,
            "--out", str(workspace / "md")]


def _manifest(workspace, lines, *flags):
    """argv of represent on a kernel manifest of the given lines."""
    (workspace / "edited_kernel.txt").write_text("\n".join(lines) + "\n")
    return ["represent", "--kernel", str(workspace / "edited_kernel.txt"), *flags,
            "--out", str(workspace / "rm")]


def _atom_kernel(workspace, second, *flags):
    """argv of represent on a circle kernel of atoms.csv at 0 and the file second at 0.5."""
    _write_2d_files(workspace)
    return _manifest(workspace, ["space,circle", "interp,nearest", "x0,path", "0.0,atoms.csv",
                                 f"0.5,{second}"], *flags)


def _measurable_reference(workspace, name):
    """argv of represent on the workspace kernel by the measurable route from the file name."""
    _write_2d_files(workspace)
    return ["represent", "--kernel", str(workspace / "kernel.txt"), "--route", "measurable",
            "--reference", str(workspace / name), "--out", str(workspace / "rrd")]


def _directory(workspace, name):
    (workspace / name).mkdir()
    return str(workspace / name)


def _undecodable(workspace, name, head):
    """A file whose first line is head and whose second holds bytes that are not UTF-8."""
    (workspace / name).write_bytes(head + b"\n\xff\xfe,0.5\n")
    return str(workspace / name)


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
    "represent-nan-base-point": (lambda ws: _edited_manifest(ws, "nan_kernel.txt", "nan,meas_002"),
                                 ["base points must be finite"]),
    "represent-inf-base-point": (lambda ws: _edited_manifest(ws, "inf_kernel.txt", "inf,meas_002"),
                                 ["base points must be finite"]),
    "represent-sphere-one-column": (
        lambda ws: _rewritten_manifest(ws, "s1_kernel.txt", ("circle", "sphere2-chart")),
        ["sphere2-chart base points need 2 coordinate(s), got 1"]),
    "represent-torus-one-column": (
        lambda ws: _rewritten_manifest(ws, "t1_kernel.txt", ("circle", "torus2")),
        ["torus2 base points need 2 coordinate(s), got 1"]),
    "represent-circle-two-columns": (
        lambda ws: _rewritten_manifest(ws, "c2_kernel.txt", ("x0,", "x0,x1,"),
                                       (",meas_", ",0.5,meas_")),
        ["circle base points need 1 coordinate(s), got 2"]),
    "lift-atom-value": (lambda ws: _bad_lift_atoms(ws, "x0,w\n0.1,0.5\n0.2,abc\n"),
                        ["bad_circle.csv, line 3", "abc"]),
    "lift-atom-row": (lambda ws: _bad_lift_atoms(ws, "x0,w\n0.1,0.5\n0.2\n"),
                      ["bad_circle.csv, line 3", "expected 2 values"]),
    "lift-atom-at-cut-locus": (lambda ws: _bad_lift_atoms(ws, "x0,w\n0.1,0.5\n0.5,0.5\n"),
                               ["atom [0.5]", "cut locus"]),
    "lift-theta-header": (lambda ws: _bad_lift_atoms(ws, "theta,w\n0.1,0.5\n0.2,0.5\n"),
                          ["bad_circle.csv, line 1", "expected header 'x0[,x1[,x2]],w'",
                           "'theta,w'"]),
    "lift-atoms-grid": (lambda ws: ["lift", "--manifold", "circle", "--base", "0.0", "--atoms",
                                    str(ws / "bump.csv"), "--out", str(ws / "lg")],
                        ["bump.csv", "lift needs an atom file x0[,x1],w, not a grid density"]),
    "lift-atoms-dims": (lambda ws: ["lift", "--manifold", "torus2", "--base", "0.5,0.5",
                                    "--atoms", str(ws / "atoms.csv"), "--out", str(ws / "ldm")],
                        ["torus2 rows need 2 coordinates", "(2, 1)"]),
    "lift-base": (lambda ws: ["lift", "--manifold", "circle", "--base", "x",
                              "--atoms", str(ws / "atoms.csv"), "--out", str(ws / "lb")],
                  ["--base", "'x'"]),
    "lift-base-inf": (lambda ws: ["lift", "--manifold", "circle", "--base", "inf",
                                  "--atoms", str(ws / "atoms.csv"), "--out", str(ws / "lbi")],
                      ["base point must be finite", "inf"]),
    "lift-base-nan": (lambda ws: ["lift", "--manifold", "torus2", "--base", "0.5,nan",
                                  "--atoms", str(ws / "atoms.csv"), "--out", str(ws / "lbn")],
                      ["base point must be finite", "nan"]),
    "moser-checkpoints": (lambda ws: _moser_checkpoints(ws, "x"), ["--checkpoints", "'x'"]),
    "moser-checkpoint-range": (lambda ws: _moser_checkpoints(ws, "1.5"), ["strictly inside"]),
    "moser-checkpoint-names": (lambda ws: _moser_checkpoints(ws, "0.50001,0.50004"),
                               ["0.50001", "0.50004", "checkpoint_0.5000.csv"]),
    "represent-steps": (lambda ws: ["represent", "--kernel", str(ws / "kernel.txt"),
                                    "--steps", "8", "--out", str(ws / "rs")],
                        ["unrecognized arguments", "--steps"]),
    "measurable-represent-steps": (lambda ws: ["represent", "--kernel", str(ws / "kernel.txt"),
                                               "--route", "measurable", "--steps", "8",
                                               "--out", str(ws / "rms")],
                                   ["unrecognized arguments", "--steps"]),
    "moser-steps": (lambda ws: _moser_checkpoints(ws, "") + ["--steps", "32"],
                    ["unrecognized arguments", "--steps"]),
    "verify-steps": (lambda ws: _verify_tol(ws, "0.05") + ["--steps", "64"],
                     ["unrecognized arguments", "--steps"]),
    "continuous-reference": (lambda ws: ["represent", "--kernel", str(ws / "kernel.txt"),
                                         "--route", "continuous", "--reference",
                                         str(ws / "nope.csv"), "--out", str(ws / "rcr")],
                             ["--reference", "measurable route only"]),
    "represent-below-floor": (_kernel_below_floor, ["base point 2", "positivity"]),
    "moser-unresolved-flow": (_unresolved_moser_flow,
                              ["cap of 1024 steps", "doubling estimate"]),
    "manifest-row": (lambda ws: _edited_manifest(ws, "ragged_kernel.txt", "meas_002"),
                     ["ragged_kernel.txt, line 6", "expected 2 fields"]),
    "verify-tol-inf": (lambda ws: _verify_tol(ws, "inf"),
                       ["--tol", "finite number > 0", "'inf'"]),
    "verify-tol-nan": (lambda ws: _verify_tol(ws, "nan"),
                       ["--tol", "finite number > 0", "'nan'"]),
    "verify-seed-negative": (lambda ws: ["verify", "--kernel", str(ws / "kernel.txt"),
                                         "--n", "200", "--seed", "-1", "--out", str(ws / "vs")],
                             ["--seed", "integer >= 0", "'-1'"]),
    "moser-tol-inf": (lambda ws: _moser_checkpoints(ws, "") + ["--tol", "inf"],
                      ["--tol", "finite number > 0", "'inf'"]),
    "couple-epsilon-nan": (lambda ws: _sinkhorn_couple(ws, "--epsilon", "nan"),
                           ["--epsilon", "finite number > 0", "'nan'"]),
    "couple-tol-nan": (lambda ws: _sinkhorn_couple(ws, "--tol", "nan"),
                       ["--tol", "finite number > 0", "'nan'"]),
    "couple-tol-zero": (lambda ws: _sinkhorn_couple(ws, "--tol", "0", "--max-iter", "50"),
                        ["--tol", "finite number > 0", "'0'"]),
    "couple-max-iter": (lambda ws: _sinkhorn_couple(ws, "--max-iter", "-5"),
                        ["max_iter must be >= 1", "-5"]),
    "stability-eps": (lambda ws: ["stability", "--mu", str(ws / "uniform.csv"),
                                  "--targets", str(ws / "atoms.csv"),
                                  "--limit", str(ws / "atoms.csv"), "--eps", "0",
                                  "--out", str(ws / "se")],
                      ["eps must be > 0"]),
    "couple-p-below-one": (lambda ws: _couple_p(ws, "0.5", "--cost", "dist_p"),
                           ["--p", "finite number >= 1", "'0.5'"]),
    "couple-p-nan": (lambda ws: _couple_p(ws, "nan"), ["--p", "finite number >= 1", "'nan'"]),
    "wdist-exact-p-nan": (lambda ws: _wdist_p(ws, "nan", "--method", "exact"),
                          ["--p", "finite number >= 1", "'nan'"]),
    "wdist-p-nan": (lambda ws: _wdist_p(ws, "nan"), ["--p", "finite number >= 1", "'nan'"]),
    "wdist-p-inf": (lambda ws: _wdist_p(ws, "inf"), ["--p", "finite number >= 1", "'inf'"]),
    "lift-cap-nan": (lambda ws: ["lift", "--manifold", "circle", "--base", "0.0", "--atoms",
                                 str(ws / "atoms.csv"), "--cap", "nan", "--out", str(ws / "lc")],
                     ["--cap", "finite number > 0", "'nan'"]),
    "lift-cap-above-injectivity": (lambda ws: ["lift", "--manifold", "circle", "--base", "0.0",
                                               "--atoms", str(ws / "atoms.csv"), "--cap", "0.9",
                                               "--out", str(ws / "lc")],
                                   ["injectivity radius 0.5", "0.9"]),
    "stability-eps-nan": (lambda ws: _stability_eps(ws, "nan"), ["eps must be > 0", "nan"]),
    "stability-eps-inf": (lambda ws: _stability_eps(ws, "inf"), ["eps must be > 0", "inf"]),
    "couple-exact-dims": (lambda ws: _mixed_dimensions(ws, "couple", "atoms.csv", "b2.csv"),
                          ["dimension 1 and 2"]),
    "couple-sinkhorn-dims": (lambda ws: _mixed_dimensions(ws, "couple", "atoms.csv", "b2.csv",
                                                          "--method", "sinkhorn"),
                             ["dimension 1 and 2"]),
    "couple-exact-dims-reversed": (
        lambda ws: _mixed_dimensions(ws, "couple", "b2.csv", "atoms.csv"), ["dimension 2 and 1"]),
    "wdist-exact-dims": (lambda ws: _mixed_dimensions(ws, "wdist", "atoms.csv", "b2.csv",
                                                      "--method", "exact"),
                         ["dimension 1 and 2"]),
    "stability-dims": (lambda ws: _mixed_dimensions(ws, "stability", "g2.csv", "uniform.csv",
                                                    "--limit", str(ws / "uniform.csv"),
                                                    "--eps", "0.1"),
                       ["dimension 2 to dimension 1"]),
    "wdist-directory": (lambda ws: ["wdist", "--a", _directory(ws, "dir_a"), "--b",
                                    str(ws / "atoms.csv"), "--out", str(ws / "wd")],
                        ["dir_a", "is not a regular file"]),
    "represent-kernel-directory": (lambda ws: ["represent", "--kernel", _directory(ws, "dir_k"),
                                               "--out", str(ws / "rd")],
                                   ["kernel manifest", "dir_k", "is not a regular file"]),
    "lift-atoms-directory": (lambda ws: ["lift", "--manifold", "circle", "--base", "0.0",
                                         "--atoms", _directory(ws, "dir_l"),
                                         "--out", str(ws / "ld")],
                             ["dir_l", "is not a regular file"]),
    "stability-targets-empty": (lambda ws: ["stability", "--mu", str(ws / "uniform.csv"),
                                            "--targets", ",", "--limit", str(ws / "atoms.csv"),
                                            "--eps", "0.1", "--out", str(ws / "st")],
                                ["input file '' is not a regular file"]),
    "wdist-undecodable": (lambda ws: ["wdist", "--a", _undecodable(ws, "binary.csv", b"x0,w"),
                                      "--b", str(ws / "atoms.csv"), "--out", str(ws / "wu")],
                          ["binary.csv is not text", "invalid start byte"]),
    "config-undecodable": (lambda ws: ["--config", _undecodable(ws, "binary.json", b"{")],
                           ["config error", "binary.json is not text"]),
    "manifest-short": (lambda ws: _manifest(ws, ["space,circle", "interp,nearest", "x0,path"]),
                       ["edited_kernel.txt", "manifest needs space, interp, header, and rows"]),
    "manifest-space-row": (lambda ws: _manifest(ws, ["circle", "interp,nearest", "x0,path",
                                                     "0.0,meas_000.csv"]),
                           ["first line must be 'space,<tag>'"]),
    "manifest-interp-row": (lambda ws: _manifest(ws, ["space,circle", "nearest", "x0,path",
                                                      "0.0,meas_000.csv"]),
                            ["second line must be 'interp,<rule>'"]),
    "manifest-interp-rule": (lambda ws: _manifest(ws, ["space,circle", "interp,linear", "x0,path",
                                                       "0.0,meas_000.csv", "0.5,meas_004.csv"]),
                             ["interpolation rule must be one of", "nearest"]),
    "moser-atoms": (lambda ws: ["moser", "--rho0", str(ws / "atoms.csv"), "--rho1",
                                str(ws / "bump.csv"), "--out", str(ws / "ma")],
                    ["moser requires grid-density inputs"]),
    "measurable-atoms-no-reference": (lambda ws: _atom_kernel(ws, "atoms.csv", "--route",
                                                              "measurable"),
                                      ["measurable route needs --reference for atomic kernels"]),
    "continuous-atoms": (lambda ws: _atom_kernel(ws, "atoms.csv"),
                         ["continuous route needs grid-density kernel measures"]),
    "atom-kernel-dims": (lambda ws: _atom_kernel(ws, "b2.csv"),
                         ["all discrete measures must share one dimension"]),
    "measurable-reference-dims": (lambda ws: _measurable_reference(ws, "g2.csv"),
                                  ["reference dimension does not match kernel measures"]),
    "wdist-grid-dim-3": (lambda ws: _bad_wdist_input(ws, "dim3.csv",
                                                     "dim,n\n3,8\n" + "1.0\n" * 512),
                         ["grid dim must be 1 or 2"]),
    "lift-base-length": (lambda ws: ["lift", "--manifold", "torus2", "--base", "0.5",
                                     "--atoms", str(ws / "atoms.csv"), "--out", str(ws / "ll")],
                         ["torus2 base point needs 2 coordinates"]),
    "no-subcommand": (lambda ws: [], []),
    "couple-sqdist-p": (lambda ws: _couple_p(ws, "7", "--cost", "sqdist"),
                        ["--p applies to --cost dist_p only", "sqdist"]),
    "couple-negdot-p": (lambda ws: _couple_p(ws, "2", "--cost", "negdot"),
                        ["--p applies to --cost dist_p only", "negdot"]),
    "couple-negdot-periodic": (lambda ws: ["couple", "--mu", str(ws / "atoms.csv"), "--nu",
                                           str(ws / "atoms.csv"), "--cost", "negdot",
                                           "--periodic", "--out", str(ws / "cn")],
                               ["--periodic", "--cost negdot"]),
    "couple-exact-epsilon": (lambda ws: _exact_couple(ws, "--epsilon", "0.5"),
                             ["--method sinkhorn only", "got --epsilon"]),
    "couple-exact-max-iter": (lambda ws: _exact_couple(ws, "--max-iter", "1"),
                              ["--method sinkhorn only", "got --max-iter"]),
    "couple-exact-tol": (lambda ws: _exact_couple(ws, "--method", "exact", "--tol", "0.3"),
                         ["--method sinkhorn only", "got --tol"]),
    "moser-2d-tol": (lambda ws: _moser_2d(ws, "--tol", "0.5"), ["--tol gates 1D maps only"]),
    "verify-tol-text": (lambda ws: _verify_tol(ws, "abc"), ["--tol", "finite number > 0", "'abc'"]),
    "verify-seed-text": (lambda ws: ["verify", "--kernel", str(ws / "kernel.txt"), "--seed", "x",
                                     "--out", str(ws / "vx")], ["--seed", "integer >= 0", "'x'"]),
    "wdist-out-is-file": (lambda ws: ["wdist", "--a", str(ws / "atoms.csv"),
                                      "--b", str(ws / "atoms.csv"),
                                      "--out", str(ws / "uniform.csv")],
                          ["cannot make output directory", "uniform.csv", "File exists"]),
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


# Per command: its flags before --out, and the randmap call that does its work.
OUT_FIRST = {
    "wdist": (["--a", "atoms.csv", "--b", "atoms.csv"], "wasserstein_1d"),
    "couple": (["--mu", "atoms.csv", "--nu", "atoms.csv"], "solve_exact"),
    "moser": (["--rho0", "uniform.csv", "--rho1", "bump.csv"], "moser_map"),
    "represent": (["--kernel", "kernel.txt"], "build_continuous_representation"),
    "verify": (["--kernel", "kernel.txt", "--seed", "0"], "build_continuous_representation"),
    "lift": (["--manifold", "circle", "--base", "0.0", "--atoms", "atoms.csv"], "log_lift"),
    "stability": (["--mu", "uniform.csv", "--targets", "bump.csv", "--limit", "atoms.csv",
                   "--eps", "0.1"], "stability_experiment"),
}


@pytest.mark.parametrize("command", OUT_FIRST)
def test_out_that_is_a_file_fails_before_any_work(workspace, monkeypatch, capsys, command):
    flags, work = OUT_FIRST[command]

    def refuse(*args, **kwargs):
        raise AssertionError(f"{work} ran before --out was made")

    monkeypatch.setattr(cli, work, refuse)
    flags = [str(workspace / f) if f.endswith((".csv", ".txt")) else f for f in flags]
    rc = main([command, *flags, "--out", str(workspace / "uniform.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "cannot make output directory" in err and "uniform.csv" in err


# Per command: its smallest valid flags in the workspace (the first file is
# the one the exit-2 run replaces with a missing file), and the flags that
# then make its check fail, for the commands that have a check to fail.
CONTRACT = {
    "wdist": (["--a", "atoms.csv", "--b", "bump.csv"], None),
    "couple": (["--mu", "atoms.csv", "--nu", "bump.csv", "--method", "sinkhorn"],
               ["--max-iter", "3"]),
    "moser": (["--rho0", "uniform.csv", "--rho1", "bump.csv"], ["--tol", "1e-9"]),
    "represent": (["--kernel", "kernel.txt"], None),
    "verify": (["--kernel", "kernel.txt", "--n", "2000", "--seed", "21"], ["--tol", "0.0001"]),
    "lift": (["--manifold", "circle", "--base", "0.0", "--atoms", "atoms.csv"], None),
    "stability": (["--mu", "uniform.csv", "--targets", "bump.csv", "--limit", "atoms.csv",
                   "--eps", "0.1"], None),
}


@pytest.mark.parametrize("command", CONTRACT)
def test_every_command_writes_both_json_files_and_records_every_flag(workspace, capsys,
                                                                    command):
    flags, failing = CONTRACT[command]
    flags = [str(workspace / f) if f.endswith((".csv", ".txt")) else f for f in flags]
    runs = {0: flags} | ({1: flags + failing} if failing else {})
    for code, run_flags in runs.items():
        out = workspace / f"{command}-{code}"
        argv = [command, *run_flags, "--out", str(out)]
        assert main(argv) == code
        parsed = vars(cli._build_parser().parse_args(argv))
        flags_only = {key: val for key, val in parsed.items()
                      if key not in ("cmd", "func", "out", "config")}
        assert json.loads((out / "report.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["config"] == json.loads(json.dumps(flags_only))
    # a missing input exits 2 after --out is made, and no JSON is written
    first = next(i for i, f in enumerate(flags) if f.startswith(str(workspace)))
    out = workspace / f"{command}-2"
    missing = flags[:first] + [str(workspace / "nope.csv")] + flags[first + 1:]
    assert main([command, *missing, "--out", str(out)]) == 2
    assert "not found" in capsys.readouterr().err
    assert out.is_dir() and not {"report.json", "manifest.json"} & {f.name for f in out.iterdir()}


@pytest.mark.parametrize("command", CONTRACT)
def test_every_manifest_config_runs_again_as_a_config_file(workspace, command):
    # a list (moser --checkpoints, lift --base) is comma-joined, a null omits its flag
    flags, failing = CONTRACT[command]
    flags = [str(workspace / f) if f.endswith((".csv", ".txt")) else f for f in flags]
    flags += ["--checkpoints", "0.5"] if command == "moser" else []
    for code, run_flags in ({0: flags} | ({1: flags + failing} if failing else {})).items():
        out, again = workspace / f"{command}-{code}", workspace / f"{command}-{code}-again"
        assert main([command, *run_flags, "--out", str(out)]) == code
        config = json.loads((out / "manifest.json").read_text())["config"]
        cfg_path = workspace / f"{command}-{code}.json"
        cfg_path.write_text(json.dumps(config | {"cmd": command, "out": str(again)}))
        assert main(["--config", str(cfg_path)]) == code
        assert (again / "report.json").read_bytes() == (out / "report.json").read_bytes()


@pytest.mark.parametrize("floor, code", [(0.1, 0), (1e-2, 0)])
def test_moser_builds_steep_1d_maps_in_closed_form(workspace, floor, code):
    # a bump of width 0.02 on 64 cells, over a floor of 0.1 or 1e-2. Either
    # map is a diffeomorphism. Over 1e-2 one cell's image spans 0.886 of the
    # circle, but no wrapped node displacement exceeds 0.435, so the
    # interpolated map still increases everywhere and its exact Jacobian
    # minimum is positive.
    _bump(64, 0.02, floor).to_csv(workspace / "steep.csv")
    out = workspace / "steep"
    rc = main(["moser", "--rho0", str(workspace / "uniform.csv"),
               "--rho1", str(workspace / "steep.csv"), "--out", str(out)])
    assert rc == code
    report = json.loads((out / "report.json").read_text())
    assert report["steps"] == 0
    assert report["flow_error_estimate"] <= FLOW_TOL / 64
    assert report["pushforward_w1"] <= 1e-2
    assert (report["jacobian_min"] > 0) == (code == 0)


def test_represent_accepts_density_at_positivity_floor(workspace):
    vals = np.ones(64)
    vals[0], vals[1] = MIN_DENSITY, 2.0 - MIN_DENSITY
    floor = GridDensity(1, 64, vals)
    assert floor.min_value == MIN_DENSITY
    floor.to_csv(workspace / "meas_002.csv")
    rc = main(["represent", "--kernel", str(workspace / "kernel.txt"),
               "--route", "continuous", "--out", str(workspace / "rfloor")])
    assert rc == 0


# Runs CLI commands in a fresh interpreter, since this test process has
# imported scipy itself; prints the exit codes and the scipy modules loaded.
_COLD_CLI = """
import json, sys
sys.path.insert(0, sys.argv[1])
from randmap.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""


def _cold_cli(*argvs):
    src = str(Path(randmap.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", _COLD_CLI, src, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _family_manifest(path, space, densities):
    lines = [f"space,{space}", "interp,nearest", "x0,path"]
    for i, density in enumerate(densities):
        density.to_csv(path.parent / f"{path.stem}_{i}.csv")
        lines.append(f"{(i + 0.5) / len(densities)},{path.stem}_{i}.csv")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_represent_and_verify_do_not_load_scipy(tmp_path):
    x = (np.arange(32) + 0.5) / 32
    circle = _family_manifest(tmp_path / "circle.txt", "circle", [
        GridDensity(1, 32, 1 + 0.3 * np.cos(2 * np.pi * (x - c))) for c in (0.2, 0.6)])
    g = (np.arange(8) + 0.5) / 8
    xx, yy = np.meshgrid(g, g, indexing="ij")
    bumps = [np.exp(-((xx - c) ** 2 + (yy - 0.5) ** 2) / (2 * 0.15 ** 2)) for c in (0.4, 0.6)]
    box = _family_manifest(tmp_path / "box.txt", "interval", [
        GridDensity(2, 8, 0.2 + 0.8 * b / b.mean()) for b in bumps])
    argvs = []
    for kernel, route in ((circle, "continuous"), (box, "measurable")):
        for cmd in ("represent", "verify"):
            # the tolerance clears the grid bias of the 8 x 8 box's W1 bound
            checks = ["--n", "2000", "--tol", "0.1", "--seed", "0"] if cmd == "verify" else []
            argvs.append([cmd, "--kernel", kernel, "--route", route, *checks,
                          "--out", str(tmp_path / f"{route}-{cmd}")])
    codes, loaded = _cold_cli(*argvs)
    assert codes == [0, 0, 0, 0]
    assert "scipy.optimize" not in loaded and "scipy.sparse" not in loaded, loaded


def test_continuous_route_refuses_an_interval_kernel(tmp_path, capsys):
    # the default route builds torus maps; an interval kernel is pointed to
    # the measurable route, which represents it
    x = (np.arange(64) + 0.5) / 64
    kernel = _family_manifest(tmp_path / "seam.txt", "interval", [
        GridDensity(1, 64, 1 + 0.9 * np.cos(2 * np.pi * (x - s))) for s in (0.0, 0.3)])
    for cmd, extra in (("represent", []), ("verify", ["--seed", "0"])):
        out = tmp_path / cmd
        assert main([cmd, "--kernel", kernel, *extra, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--route measurable" in err
        assert list(out.iterdir()) == []
    out = tmp_path / "measurable"
    assert main(["represent", "--kernel", kernel, "--route", "measurable",
                 "--out", str(out)]) == 0


def test_exact_coupling_loads_scipy_on_first_solve(workspace):
    out = workspace / "cold"
    codes, loaded = _cold_cli(["couple", "--mu", str(workspace / "atoms.csv"),
                               "--nu", str(workspace / "uniform.csv"), "--method", "exact",
                               "--out", str(out)])
    assert codes == [0]
    assert "scipy.optimize" in loaded
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] and report["marginal_violation"] <= MARGINAL_TOL
    assert (out / "plan.csv").read_text().startswith("i,j,gamma\n")


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
