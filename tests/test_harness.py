"""Run configurations, manufactured cases, runners, and the CLI."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from mhdfem.cli import main
from mhdfem.derham import RT, build_space, interpolate, point_eval
from mhdfem.harness import (ConfigError, _dump_json, _study_csv,
                            exact_errors, load_config, manufactured_case,
                            run_diagnose, run_solve, run_study)
from mhdfem.mesh import build_box_mesh
from mhdfem.operators import DiscreteOps, estimate_cross_bound
from mhdfem.solvers import zero_state_bj


# ---------------------------------------------------------------------------
# configuration parsing


def test_load_config_defaults():
    cfg = load_config({})
    assert cfg.mesh == (2, 2, 2)
    assert cfg.formulation == "BJ"
    assert (cfg.r_e, cfg.r_m, cfg.s) == (1.0, 1.0, 1.0)
    assert cfg.case is None and cfg.force is None
    assert (cfg.rtol, cfg.atol, cfg.max_iter) == (1e-9, 1e-12, 100)
    assert cfg.levels is None
    assert cfg.report_path is None and cfg.csv_path is None
    assert cfg.seed == 0
    # the echo document carries the normalized values, not the sparse input
    assert cfg.document["params"] == {"r_e": 1.0, "r_m": 1.0, "s": 1.0}
    assert cfg.document["levels"] is None


def test_load_config_from_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"mesh": [3, 2, 1], "formulation": "BE",
                                "seed": 11}))
    cfg = load_config(path)
    assert cfg.mesh == (3, 2, 1)
    assert cfg.formulation == "BE"
    assert cfg.seed == 11


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.json")


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_load_config_bad_source_type():
    with pytest.raises(ConfigError, match="path or a dict"):
        load_config([1, 2, 3])


@pytest.mark.parametrize("raw", [
    {"meshes": [2, 2, 2]},
    {"params": {"Re": 1.0}},
    {"picard": {"tol": 1e-9}},
    {"output": {"vtk": "a.vtk"}},
])
def test_unknown_keys_rejected(raw):
    with pytest.raises(ConfigError, match="unknown"):
        load_config(raw)


@pytest.mark.parametrize("mesh", [
    [2, 2], [2, 2, 2, 2], [2, 0, 2], [2.0, 2, 2], [True, 2, 2], "2,2,2",
])
def test_mesh_validation(mesh):
    with pytest.raises(ConfigError, match="mesh"):
        load_config({"mesh": mesh})


def test_formulation_validation():
    with pytest.raises(ConfigError, match="formulation"):
        load_config({"formulation": "XY"})


@pytest.mark.parametrize("params", [
    {"r_e": -1.0}, {"r_m": 0.0}, {"s": math.inf}, {"r_e": "big"},
])
def test_params_validation(params):
    with pytest.raises(ConfigError):
        load_config({"params": params})


def test_case_and_force_are_exclusive():
    with pytest.raises(ConfigError, match="not both"):
        load_config({"case": "trig-1",
                     "force": {"kind": "constant", "vector": [1, 0, 0]}})


def test_unknown_case_rejected():
    with pytest.raises(ConfigError, match="unknown case"):
        load_config({"case": "bogus"})
    with pytest.raises(ConfigError, match="unknown case"):
        manufactured_case("bogus")


@pytest.mark.parametrize("force", [
    {"kind": "constant", "vector": [1, 0]},
    {"kind": "expression", "components": ["x", "y"]},
    {"kind": "expression", "components": ["x", "y", "w"]},
    {"kind": "expression", "components": ["x", "y", "import os"]},
    {"kind": "mystery"},
    "f",
])
def test_force_validation(force):
    with pytest.raises(ConfigError):
        load_config({"force": force})


def test_constant_force_compiles():
    cfg = load_config({"force": {"kind": "constant", "vector": [1, 2, 3]}})
    pts = np.zeros((4, 3))
    assert np.array_equal(cfg.force(pts), np.tile([1.0, 2.0, 3.0], (4, 1)))


def test_expression_force_compiles():
    cfg = load_config({"force": {
        "kind": "expression", "components": ["sin(pi*x)", "y*z", "0"]}})
    pts = np.array([[0.5, 2.0, 3.0], [0.25, 1.0, 1.0]])
    vals = cfg.force(pts)
    assert vals.shape == (2, 3)
    assert vals[0] == pytest.approx([1.0, 6.0, 0.0])
    assert vals[1, 0] == pytest.approx(math.sin(math.pi / 4))


@pytest.mark.parametrize("picard", [
    {"max_iter": 0}, {"max_iter": 2.5}, {"max_iter": True},
    {"rtol": -1e-9}, {"atol": 0.0},
])
def test_picard_validation(picard):
    with pytest.raises(ConfigError):
        load_config({"picard": picard})


@pytest.mark.parametrize("levels", [
    [4], [2, 2], [4, 2], [0, 2], [2, 4.0], "2,4",
])
def test_levels_validation(levels):
    with pytest.raises(ConfigError, match="levels"):
        load_config({"levels": levels})


def test_output_path_validation():
    with pytest.raises(ConfigError, match="output"):
        load_config({"output": {"report": ""}})


def test_seed_validation_and_override():
    with pytest.raises(ConfigError, match="seed"):
        load_config({"seed": -1})
    with pytest.raises(ConfigError, match="seed"):
        load_config({"seed": True})
    cfg = load_config({"seed": 3}, seed_override=9)
    assert cfg.seed == 9
    assert cfg.document["seed"] == 9
    with pytest.raises(ConfigError, match="seed"):
        load_config({}, seed_override=-2)


# ---------------------------------------------------------------------------
# manufactured cases


def boundary_samples():
    t = np.linspace(0.05, 0.95, 5)
    grid = np.array([(a, b) for a in t for b in t])
    pts, normals = [], []
    for axis in range(3):
        for side in (0.0, 1.0):
            face = np.zeros((len(grid), 3))
            face[:, axis] = side
            face[:, (axis + 1) % 3] = grid[:, 0]
            face[:, (axis + 2) % 3] = grid[:, 1]
            normal = np.zeros(3)
            normal[axis] = 1.0 if side else -1.0
            pts.append(face)
            normals.append(np.tile(normal, (len(grid), 1)))
    return np.concatenate(pts), np.concatenate(normals)


def test_trig_case_boundary_and_divergence():
    case = manufactured_case("trig-1")
    pts, normals = boundary_samples()
    assert np.abs(case.velocity(pts)).max() < 1e-14
    assert np.abs(np.sum(case.flux(pts) * normals, axis=1)).max() < 1e-14
    rng = np.random.default_rng(5)
    inner = rng.random((200, 3))
    trace = np.trace(case.velocity_grad(inner), axis1=1, axis2=2)
    assert np.abs(trace).max() < 1e-12


def test_trig_zero_state_errors_are_exact_norms():
    # against closed forms: the velocity H1 norm is sqrt(3 + 19*pi^2)/4,
    # the flux L2 norm pi/sqrt(2), the pressure L2 norm 1/(2*sqrt(2));
    # degree-6 quadrature on this mesh reproduces all three to 1e-14
    mesh = build_box_mesh(4, 4, 4)
    errs = exact_errors(mesh, manufactured_case("trig-1"),
                        zero_state_bj(mesh))
    assert errs["u_h1"] == pytest.approx(math.sqrt(3 + 19 * math.pi ** 2) / 4,
                                         rel=1e-12)
    assert errs["b_l2"] == pytest.approx(math.pi / math.sqrt(2), rel=1e-13)
    assert errs["b_graph"] == errs["b_l2"]
    assert errs["p_l2"] == pytest.approx(0.5 / math.sqrt(2), rel=1e-13)


def test_inspace_flux_is_representable_on_refinements():
    case = manufactured_case("inspace-1")
    for n in (1, 2, 4):
        mesh = build_box_mesh(n, n, n)
        rt = build_space(mesh, RT, essential_bc=True)
        coeffs = case.initial_flux(mesh)
        rng = np.random.default_rng(n)
        pts = rng.random((300, 3))
        gap = point_eval(rt, coeffs, pts) - case.flux(pts)
        assert np.abs(gap).max() < 1e-12
        # and the interpolant of the field itself is the same element
        direct = interpolate(rt, case.flux)
        direct[rt.boundary_dof] = 0.0
        assert np.abs(direct - coeffs).max() < 1e-12


def test_inspace_exact_state_has_zero_errors():
    mesh = build_box_mesh(2, 2, 2)
    case = manufactured_case("inspace-1")
    state = zero_state_bj(mesh)
    state.B = case.initial_flux(mesh)
    errs = exact_errors(mesh, case, state)
    assert errs["u_h1"] == 0.0
    assert errs["p_l2"] == 0.0
    assert errs["b_l2"] < 1e-13
    assert errs["b_graph"] < 1e-13


# ---------------------------------------------------------------------------
# runners


ROT_FORCE = {"kind": "expression",
             "components": ["sin(pi*y)*sin(pi*z)", "0", "0"]}


def test_run_solve_zero_data_is_one_exact_iteration():
    doc = run_solve(load_config({}))
    assert doc["picard"]["termination"] == "converged"
    assert doc["picard"]["n_iterations"] == 1
    diag = doc["diagnostics"]
    assert all(val == 0.0 for val in diag.values() if val is not None)
    assert "errors" not in doc


def test_run_solve_is_deterministic():
    cfg = {"force": ROT_FORCE, "params": {"r_m": 1.5, "s": 2.0}}
    one = _dump_json(run_solve(load_config(cfg)))
    two = _dump_json(run_solve(load_config(cfg)))
    assert one == two


def test_run_solve_writes_report_and_fields(tmp_path):
    report = tmp_path / "out" / "report.json"
    fields = tmp_path / "out" / "fields.vtk"
    cfg = load_config({"case": "trig-1",
                       "output": {"report": str(report),
                                  "fields": str(fields)}})
    doc = run_solve(cfg)
    on_disk = json.loads(report.read_text())
    assert on_disk == json.loads(_dump_json(doc))
    assert on_disk["picard"]["termination"] == "converged"
    # the solve beats the zero state in velocity and flux; the coarse-mesh
    # pressure absorbs the momentum residual and only wins under refinement
    errs = doc["errors"]
    assert 0.0 < errs["u_h1"] < 3.45
    assert 0.0 < errs["b_l2"] < 2.22
    assert 0.0 < errs["p_l2"] < 10.0
    text = fields.read_text()
    assert text.startswith("# vtk DataFile")
    for marker in ("POINT_DATA", "CELL_DATA", "VECTORS velocity",
                   "SCALARS pressure", "VECTORS flux", "VECTORS current",
                   "SCALARS multiplier"):
        assert marker in text


def test_run_study_needs_case_and_levels():
    with pytest.raises(ConfigError, match="case"):
        run_study(load_config({"levels": [2, 4]}))
    with pytest.raises(ConfigError, match="levels"):
        run_study(load_config({"case": "trig-1"}))


def test_run_study_inspace_is_exact_at_every_level(tmp_path):
    csv_path = tmp_path / "study.csv"
    cfg = load_config({"case": "inspace-1", "levels": [2, 4],
                       "params": {"r_m": 1.25, "s": 2.0},
                       "output": {"csv": str(csv_path)}})
    out = run_study(cfg)
    assert out["aborted"] is None
    assert [row["level"] for row in out["rows"]] == [2, 4]
    for row in out["rows"]:
        assert row["converged"] is True
        assert row["iterations"] == 1
        for key in ("err_u_h1", "err_b_l2", "err_b_graph", "err_p_l2"):
            assert row[key] <= 1e-10
    text = csv_path.read_text()
    assert text == out["csv"]
    lines = text.strip().splitlines()
    assert lines[0].startswith("level,h,iterations,converged,err_u_h1")
    assert len(lines) == 3


def test_run_study_probes_constants_only_for_be(monkeypatch):
    calls = []

    def counted(mesh, trials, seed):
        calls.append(seed)
        return estimate_cross_bound(mesh, trials=trials, seed=seed)

    monkeypatch.setattr("mhdfem.harness.estimate_cross_bound", counted)
    cfg = {"case": "inspace-1", "levels": [2, 3], "seed": 5}
    run_study(load_config({**cfg, "formulation": "BJ"}))
    assert calls == []
    run_study(load_config({**cfg, "formulation": "BE"}))
    assert calls == [5, 5]


def test_run_diagnose_builds_discrete_ops_once(monkeypatch):
    builds = []
    orig = DiscreteOps.__init__

    def counted(self, mesh):
        builds.append(mesh)
        orig(self, mesh)

    monkeypatch.setattr(DiscreteOps, "__init__", counted)
    run_diagnose(load_config({"mesh": [2, 2, 2], "case": "inspace-1"}))
    assert len(builds) == 1


def test_run_study_aborts_on_nonconvergence():
    cfg = load_config({"case": "trig-1", "levels": [2, 4],
                       "picard": {"max_iter": 1}})
    out = run_study(cfg)
    assert out["aborted"] == 2
    assert len(out["rows"]) == 1
    assert out["rows"][0]["converged"] is False
    assert out["csv"].rstrip().endswith(
        "# study aborted: Picard hit max-iterations at level 2")


def test_study_csv_formatting():
    rows = [{"level": 2, "h": 0.5, "iterations": 3, "converged": True,
             "err_u_h1": 1.5, "err_b_l2": 0.25, "err_b_graph": 0.25,
             "err_p_l2": 0.125},
            {"level": 4, "h": 0.25, "iterations": 4, "converged": False,
             "err_u_h1": 0.375, "err_b_l2": 0.125, "err_b_graph": 0.125,
             "err_p_l2": 0.03125, "rate_u_h1": 2.0, "rate_b_l2": 1.0,
             "rate_b_graph": 1.0, "rate_p_l2": 2.0}]
    text = _study_csv(rows, aborted=4)
    lines = text.splitlines()
    assert lines[1] == "2,0.5,3,1,1.5,0.25,0.25,0.125,,,,"
    assert lines[2] == "4,0.25,4,0,0.375,0.125,0.125,0.03125,2.0,1.0,1.0,2.0"
    assert lines[3].startswith("# study aborted")


def test_dump_json_normalizes_numpy():
    doc = {"b": np.arange(3), "a": np.float64(1.5), "c": (np.int64(2), None)}
    assert _dump_json(doc) == ('{\n  "a": 1.5,\n  "b": [\n    0,\n    1,\n'
                               '    2\n  ],\n  "c": [\n    2,\n    null\n'
                               '  ]\n}\n')


def test_run_diagnose_single_cube(tmp_path):
    report = tmp_path / "diag.json"
    doc = run_diagnose(load_config({"mesh": [1, 1, 1],
                                    "output": {"report": str(report)}}))
    assert doc["complex"]["incidence_product_max"] == 0.0
    assert doc["complex"]["dimensions"] == {"h1": 0, "hcurl": 1, "hdiv": 6,
                                            "l2_mean_free": 5}
    assert doc["complex"]["dimension_sum"] == 0
    assert doc["commuting"]["curl_defect"] < 1e-12
    assert doc["commuting"]["div_defect"] < 1e-12
    assert doc["constants"]["c1"] > 0.0
    assert doc["constants"]["c2"] > 0.0
    assert doc["constants"]["poincare_div"] > 0.0
    # the velocity space is empty here, so the solve step cannot run; the
    # structural sections must still be produced and the reason recorded
    assert doc["structure"]["termination"] == "singular-step"
    assert doc["structure"]["checks"] == {}
    assert json.loads(report.read_text()) == json.loads(_dump_json(doc))


def test_run_diagnose_checks_pass_with_rotational_force():
    doc = run_diagnose(load_config({"force": ROT_FORCE}))
    checks = doc["structure"]["checks"]
    assert set(checks) == {"gauss_law", "multiplier", "energy",
                           "elimination_j", "elimination_sigma"}
    for entry in checks.values():
        assert entry["applicable"] is True
        assert entry["pass"] is True
        assert entry["worst"] <= entry["tolerance"]
    assert doc["structure"]["termination"] == "converged"
    assert doc["complex"]["dimension_sum"] == 0


def test_run_diagnose_gradient_force_energy_is_degenerate():
    # a constant force is a pressure gradient: the exact velocity is zero
    # and the power balance degenerates to 0 = 0, which must not be scored
    # as a failure of the identity
    doc = run_diagnose(load_config({
        "force": {"kind": "constant", "vector": [1.0, 0.0, 0.0]}}))
    energy = doc["structure"]["checks"]["energy"]
    assert energy["applicable"] is True
    assert energy["pass"] is True


def test_run_diagnose_flags_inapplicable_checks():
    # manufactured magnetic data makes the discrete multiplier carry
    # discretization error, so nullity and the force-only power balance
    # are not valid checks there
    doc = run_diagnose(load_config({"case": "trig-1", "formulation": "BE"}))
    checks = doc["structure"]["checks"]
    assert set(checks) == {"gauss_law", "multiplier", "energy"}
    assert checks["gauss_law"]["applicable"] is True
    assert checks["gauss_law"]["pass"] is True
    for key in ("multiplier", "energy"):
        assert checks[key]["applicable"] is False
        assert checks[key]["pass"] is None
        assert checks[key]["worst"] is None


def test_run_diagnose_seed_changes_sampled_constant():
    base = load_config({"mesh": [2, 2, 2]})
    seeded = load_config({"mesh": [2, 2, 2]}, seed_override=7)
    c2_base = run_diagnose(base)["constants"]["c2"]
    c2_seeded = run_diagnose(seeded)["constants"]["c2"]
    assert c2_base != c2_seeded


# ---------------------------------------------------------------------------
# command line


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_solve_writes_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    path = write_config(tmp_path, {"force": ROT_FORCE,
                                   "output": {"report": str(report)}})
    assert main(["solve", path]) == 0
    out = capsys.readouterr().out
    assert "report written" in out and "converged" in out
    assert json.loads(report.read_text())["picard"]["termination"] \
        == "converged"


def test_cli_solve_stdout_json(tmp_path, capsys):
    path = write_config(tmp_path, {})
    assert main(["solve", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["picard"]["n_iterations"] == 1


def test_cli_config_error_exits_2(tmp_path, capsys):
    report = tmp_path / "never.json"
    path = write_config(tmp_path, {"meshes": [2, 2, 2],
                                   "output": {"report": str(report)}})
    assert main(["solve", path]) == 2
    assert "config error" in capsys.readouterr().err
    assert not report.exists()
    assert main(["solve", str(tmp_path / "absent.json")]) == 2
    assert main(["solve", path, "--seed", "-3"]) == 2


def test_cli_solver_failure_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, {"mesh": [1, 1, 1]})
    assert main(["solve", path]) == 1
    assert "solver error" in capsys.readouterr().err


def test_cli_study_abort_exits_1(tmp_path, capsys):
    csv_path = tmp_path / "study.csv"
    path = write_config(tmp_path, {"case": "trig-1", "levels": [2, 4],
                                   "picard": {"max_iter": 1},
                                   "output": {"csv": str(csv_path)}})
    assert main(["study", path]) == 1
    err = capsys.readouterr().err
    assert "aborted" in err
    assert "# study aborted" in csv_path.read_text()


def test_cli_study_stdout_csv(tmp_path, capsys):
    path = write_config(tmp_path, {"case": "inspace-1", "levels": [2, 4]})
    assert main(["study", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("level,")
    assert len(lines) == 3


def test_cli_diagnose(tmp_path, capsys):
    path = write_config(tmp_path, {"mesh": [1, 1, 1]})
    assert main(["diagnose", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["structure"]["termination"] == "singular-step"
    assert doc["complex"]["dimension_sum"] == 0


def test_cli_stdout_is_pure_json_despite_native_chatter(tmp_path):
    # the factorization library prints singularity notes to the C stdout
    # stream; they must land on stderr, not inside the emitted document
    path = write_config(tmp_path, {"mesh": [1, 1, 1]})
    proc = subprocess.run(
        [sys.executable, "-m", "mhdfem.cli", "diagnose", path],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["structure"]["termination"] == "singular-step"
