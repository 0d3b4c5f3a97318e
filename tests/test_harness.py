"""Run configurations, manufactured cases, runners, and the CLI."""

import json
import math
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from mhdfem import derham, harness, operators, solvers
from mhdfem.cli import main
from mhdfem.derham import FeSpace, curl_incidence, interpolate, point_eval
from mhdfem.harness import (ConfigError, _dump_json, _force_values,
                            _inspace_potential, _study_csv, exact_errors,
                            load_config,
                            manufactured_case, run_diagnose, run_solve,
                            run_study)
from mhdfem.mesh import build_box_mesh
from mhdfem.operators import DiscreteOps, discrete_ops, estimate_cross_bound
from mhdfem.solvers import zero_state


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
    {"r_e": True}, {"s": "2"}, {"r_m": 10 ** 400},
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
    {"kind": "constant", "vector": ["1", True, 0]},
    {"kind": "constant", "vector": [1, 0, math.nan]},
    # no component text is ever run as Python; none of these may run
    {"kind": "expression", "components": [
        "x", "y", "__import__('pathlib').Path(SENTINEL).touch() or x"]},
    {"kind": "expression", "components": ["x", "y", "x.diff(x)"]},
    {"kind": "expression", "components": ["x", "y", "(lambda t: t)(x)"]},
    {"kind": "expression", "components": ["x", "y", "[x, y][0]"]},
    {"kind": "expression", "components": ["x", "y", "sin(x, evaluate=0)"]},
    # a function takes one argument: no log base, no second sqrt argument
    {"kind": "expression", "components": ["x", "y", "log(x, 2)"]},
    {"kind": "expression", "components": ["x", "y", "sqrt(x, 2)"]},
    # a literal must fit a float64
    {"kind": "expression", "components": ["x", "y", "1" + "0" * 400]},
    {"kind": "expression", "components": ["x", "y", "True"]},
    {"kind": "expression", "components": ["x", "y", "+".join(["x"] * 20000)]},
    # a function is only called and a variable never is
    {"kind": "expression", "components": ["x", "y", "sin + x"]},
    {"kind": "expression", "components": ["x", "y", "x(y)"]},
    {"kind": "expression", "components": ["x", "y", "sin(evaluate=x)"]},
])
def test_force_validation(force, tmp_path):
    sentinel = tmp_path / "touched"
    if isinstance(force, dict) and "components" in force:
        force = {**force, "components": [
            text.replace("SENTINEL", repr(str(sentinel)))
            for text in force["components"]]}
    with pytest.raises(ConfigError):
        load_config({"force": force})
    assert not sentinel.exists()


def test_force_errors_quote_long_components_by_prefix():
    # short components are quoted whole
    with pytest.raises(ConfigError, match="^force component 'w' is not "
                       "arithmetic in "):
        load_config({"force": {"kind": "expression",
                               "components": ["x", "y", "w"]}})
    with pytest.raises(ConfigError, match="^force component 'x/0' is not "
                       "finite at every quadrature point$"):
        _force_values("x/0", np.zeros((1, 3)))
    # a long one by its first characters and its length
    long_sum = "+".join(["x"] * 20000)
    with pytest.raises(ConfigError) as grammar:
        load_config({"force": {"kind": "expression",
                               "components": ["x", "y", long_sum]}})
    with pytest.raises(ConfigError) as finite:
        _force_values(long_sum[:3999] + "/0", np.zeros((1, 3)))
    for exc, size in ((grammar, 39999), (finite, 4001)):
        assert len(str(exc.value)) < 300
        assert f"{'x+' * 30!r}... ({size} characters)" in str(exc.value)


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
    # every function and operator of the expression grammar is accepted
    cfg = load_config({"force": {"kind": "expression", "components": [
        "-sin(x) + cos(y) * tan(z) / 2 - 1.5e-1",
        "asin(x / 2) - acos(y / 2) ** 2 + +atan(z)",
        "sinh(x) * cosh(y) - tanh(z) + exp(-x) + log(1 + y) + sqrt(z + pi)"]}})
    assert np.all(np.isfinite(cfg.force(pts[1:])))


def test_expression_force_is_evaluated_as_written():
    pts = np.random.default_rng(3).random((50, 3))
    cfg = load_config({"force": {"kind": "expression", "components": [
        "2**0.5*x", "x/3", "asin(y) + sqrt(z)"]}})
    vals = cfg.force(pts)
    # constant powers are correctly rounded, not truncated to 14 digits
    assert np.array_equal(vals[:, 0], math.sqrt(2) * pts[:, 0])
    assert np.array_equal(vals[:, 1], pts[:, 0] / 3)
    assert np.array_equal(vals[:, 2],
                          np.arcsin(pts[:, 1]) + np.sqrt(pts[:, 2]))


def test_long_expression_force_compiles():
    cfg = load_config({"force": {"kind": "expression", "components": [
        "+".join(["x"] * 2000), "-" * 2000 + "y", "0"]}})
    vals = cfg.force(np.array([[0.5, 0.25, 1.0]]))
    assert np.array_equal(vals, [[1000.0, 0.25, 0.0]])


@pytest.mark.parametrize("picard", [
    {"max_iter": 0}, {"max_iter": 2.5}, {"max_iter": True},
    {"rtol": -1e-9}, {"atol": 0.0}, {"rtol": True}, {"atol": "1e-12"},
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
    # bool subclasses int; the override gets the same check as the key
    with pytest.raises(ConfigError, match="seed"):
        load_config({}, seed_override=True)


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
                        zero_state(mesh, "BJ"))
    assert errs["u_h1"] == pytest.approx(math.sqrt(3 + 19 * math.pi ** 2) / 4,
                                         rel=1e-12)
    assert errs["b_l2"] == pytest.approx(math.pi / math.sqrt(2), rel=1e-13)
    assert errs["b_graph"] == errs["b_l2"]
    assert errs["p_l2"] == pytest.approx(0.5 / math.sqrt(2), rel=1e-13)


@pytest.mark.parametrize("r_e, r_m, s", [(1.0, 1.0, 1.0), (2.5, 0.7, 1.3)])
def test_trig_closed_forms_match_symbolic_derivation(r_e, r_m, s):
    # sympy is a reference for this test only; the package never imports it
    sympy = pytest.importorskip("sympy")

    xyz = sympy.symbols("x y z")
    x, y, z = xyz
    pi, sin, cos = sympy.pi, sympy.sin, sympy.cos

    def curl(v):
        return sympy.Matrix([v[2].diff(y) - v[1].diff(z),
                             v[0].diff(z) - v[2].diff(x),
                             v[1].diff(x) - v[0].diff(y)])

    u = sympy.Matrix([sin(pi * x) ** 2 * sin(2 * pi * y) * sin(pi * z),
                      -sin(2 * pi * x) * sin(pi * y) ** 2 * sin(pi * z), 0])
    b = curl(sympy.Matrix([0, 0, sin(pi * x) * sin(pi * y)]))
    p = cos(pi * x) * cos(pi * y) * cos(pi * z)
    j = curl(b) / r_m
    f = (-u.applyfunc(lambda c: sum(c.diff(v, 2) for v in xyz)) / r_e
         + u.jacobian(xyz) * u + sympy.Matrix([p.diff(v) for v in xyz])
         + s * b.cross(j))
    h = (s / r_m) * curl(j - u.cross(b))

    pts = np.random.default_rng(11).random((200, 3))

    def at(expr):
        fn = sympy.lambdify(xyz, expr, modules="numpy")
        return np.broadcast_to(np.asarray(
            fn(pts[:, 0], pts[:, 1], pts[:, 2]), dtype=float), (len(pts),))

    def exact(matrix):
        # sympy iterates a matrix row by row: the order of got.reshape
        return np.stack([at(entry) for entry in matrix], axis=-1)

    case = manufactured_case("trig-1")
    data = case.data(build_box_mesh(1, 1, 1), r_e, r_m, s)
    for fn, expr in [(case.velocity, u),
                     (case.velocity_grad, u.jacobian(xyz)),
                     (case.flux, b),
                     (case.pressure, sympy.Matrix([p])),
                     (data["f"], f),
                     (data["h"], h)]:
        got, want = fn(pts).reshape(len(pts), -1), exact(expr)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_runs_need_no_sympy():
    script = (
        "import sys\n"
        "sys.modules['sympy'] = None\n"
        "import mhdfem.cli\n"
        "from mhdfem.harness import load_config, run_diagnose, run_solve\n"
        "run_solve(load_config({'mesh': [2, 2, 2], 'case': 'trig-1'}))\n"
        "run_diagnose(load_config({'mesh': [2, 2, 2], "
        "'case': 'inspace-1'}))\n"
        f"doc = run_solve(load_config({{'force': {ROT_FORCE!r}}}))\n"
        "assert doc['picard']['termination'] == 'converged', doc\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_inspace_flux_is_representable_on_refinements():
    case = manufactured_case("inspace-1")
    for n in (1, 2, 4):
        mesh = build_box_mesh(n, n, n)
        rt = discrete_ops(mesh).space_d
        coeffs = case.initial_flux(mesh)
        rng = np.random.default_rng(n)
        pts = rng.random((300, 3))
        gap = point_eval(rt, coeffs, pts) - case.flux(pts)
        assert np.abs(gap).max() < 1e-12
        # and the interpolant of the field itself is the same element
        direct = interpolate(rt, case.flux)
        direct[rt.boundary_dof] = 0.0
        assert np.abs(direct - coeffs).max() < 1e-12


def diagonal_reference():
    """inspace-1 as a discrete field: on the 1^3 mesh, the one free edge,
    the cube's main diagonal, at coefficient 1, and its curl, each
    evaluated by point_eval."""
    mesh = build_box_mesh(1, 1, 1)
    ops = discrete_ops(mesh)
    ned, rt = ops.space_c, ops.space_d
    pot = np.zeros(ned.dof_count)
    pot[ned.free_index] = 1.0
    flux = curl_incidence(mesh) @ pot
    return (lambda pts: point_eval(ned, pot, pts),
            lambda pts: point_eval(rt, flux, pts))


def kuhn_face_points(rng):
    """Random points, then points on the faces x=y, y=z and x=z between
    Kuhn tets and on their common edge x=y=z, where the largest or the
    smallest coordinate ties."""
    pts = [rng.random((500, 3))]
    for i, j in ((0, 1), (1, 2), (0, 2)):
        on_face = rng.random((200, 3))
        on_face[:, j] = on_face[:, i]
        pts.append(on_face)
    pts.append(np.repeat(rng.random((50, 1)), 3, axis=1))
    return np.concatenate(pts)


def test_inspace_closed_form_matches_discrete_field():
    potential, flux = diagonal_reference()
    pts = kuhn_face_points(np.random.default_rng(7))
    case = manufactured_case("inspace-1")
    assert np.abs(_inspace_potential(pts) - potential(pts)).max() <= 1e-15
    assert np.abs(case.flux(pts) - flux(pts)).max() <= 1e-15


@pytest.mark.parametrize("n", [2, 4])
def test_inspace_initial_flux_matches_discrete_field(n):
    potential, _ = diagonal_reference()
    mesh = build_box_mesh(n, n, n)
    ned = discrete_ops(mesh).space_c
    coeffs = interpolate(ned, potential)
    coeffs[ned.boundary_dof] = 0.0
    want = curl_incidence(mesh) @ coeffs
    got = manufactured_case("inspace-1").initial_flux(mesh)
    assert np.abs(got - want).max() <= 1e-15


def test_inspace_exact_state_has_zero_errors():
    mesh = build_box_mesh(2, 2, 2)
    case = manufactured_case("inspace-1")
    state = zero_state(mesh, "BJ")
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


def test_high_reynolds_warns_but_proceeds():
    cfg = {"mesh": [2, 2, 2], "params": {"r_e": 1e6},
           "force": {"kind": "constant", "vector": [1, 0, 0]},
           "picard": {"max_iter": 1}}
    with pytest.warns(RuntimeWarning, match="outside the guaranteed regime"):
        doc = run_solve(load_config({**cfg, "formulation": "BE"}))
    assert doc["picard"]["n_iterations"] == 1
    assert "R_e = 1e+06 exceeds the bound" in doc["picard"]["warnings"][0]
    # the current-based step is solvable for any data: no regime check
    doc = run_solve(load_config({**cfg, "formulation": "BJ"}))
    assert doc["picard"]["warnings"] == []


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


def test_run_study_rates_use_the_h_ratio():
    # levels 2 and 3 shrink h by 3/2, not 2: a bare log2 of the error
    # ratio would understate the order by the factor log2(3/2)
    out = run_study(load_config({"case": "trig-1", "levels": [2, 3]}))
    coarse, fine = out["rows"]
    assert coarse["h"] / fine["h"] == pytest.approx(1.5, rel=1e-14)
    for key in ("u_h1", "b_l2", "b_graph", "p_l2"):
        e0, e1 = coarse[f"err_{key}"], fine[f"err_{key}"]
        assert fine[f"rate_{key}"] == pytest.approx(
            math.log(e0 / e1) / math.log(1.5), rel=1e-12)


def test_run_study_probes_constants_only_for_be(monkeypatch):
    calls = []

    def counted(mesh, trials, seed):
        calls.append(seed)
        return estimate_cross_bound(mesh, trials=trials, seed=seed)

    monkeypatch.setattr("mhdfem.solvers.estimate_cross_bound", counted)
    cfg = {"case": "inspace-1", "levels": [2, 3], "seed": 5}
    run_study(load_config({**cfg, "formulation": "BJ"}))
    assert calls == []
    run_study(load_config({**cfg, "formulation": "BE"}))
    assert calls == [5, 5]


def test_faulty_force_fails_before_the_constant_probe(monkeypatch):
    # the conditions evaluate the loads before they probe c2, so a force
    # that is not finite ends the run before the probe starts
    def probe(mesh, trials, seed):
        raise AssertionError("the cross-bound probe ran")

    monkeypatch.setattr("mhdfem.solvers.estimate_cross_bound", probe)
    cfg = load_config({"mesh": [2, 2, 2], "force": {
        "kind": "expression", "components": ["0", "x/0", "0"]}})
    for runner in (run_solve, run_diagnose):
        with pytest.raises(ConfigError, match="'x/0' is not finite"):
            runner(cfg)


def test_faulty_force_fails_before_the_context_is_built(monkeypatch):
    # the force is evaluated at the mesh's degree-6 points first, so no
    # fixed matrix is assembled and nothing is factored before the error
    calls = []
    for module, name in ((operators, "kernel_matrix"), (operators, "factor"),
                         (solvers, "factor"), (solvers, "factor_dense")):
        monkeypatch.setattr(module, name,
                            lambda *args, _name=name: calls.append(_name))
    cfg = load_config({"mesh": [2, 2, 2], "force": {
        "kind": "expression", "components": ["0", "x/0", "0"]}})
    with pytest.raises(ConfigError, match="'x/0' is not finite"):
        run_solve(cfg)
    assert calls == []


def test_fields_path_failure_leaves_no_report(tmp_path, monkeypatch):
    def fail(mesh, state, path):
        raise OSError("no space left on device")

    monkeypatch.setattr(harness, "_write_fields", fail)
    report = tmp_path / "report.json"
    cfg = load_config({"mesh": [2, 2, 2], "output": {
        "report": str(report), "fields": str(tmp_path / "fields.vtk")}})
    with pytest.raises(ConfigError, match="cannot write"):
        run_solve(cfg)
    assert not report.exists()


def test_output_check_keeps_a_dangling_link(tmp_path):
    # checking a path that links to a missing file leaves the link as it
    # is and creates no target
    (tmp_path / "runs").mkdir()
    link = tmp_path / "latest.json"
    link.symlink_to(tmp_path / "runs" / "report.json")
    harness._check_outputs(link)
    assert link.is_symlink() and not link.exists()
    assert list((tmp_path / "runs").iterdir()) == []


def test_run_diagnose_builds_discrete_ops_once(monkeypatch):
    builds = []
    orig = DiscreteOps.__init__

    def counted(self, mesh):
        builds.append(mesh)
        orig(self, mesh)

    monkeypatch.setattr(DiscreteOps, "__init__", counted)
    run_diagnose(load_config({"mesh": [2, 2, 2], "case": "inspace-1"}))
    assert len(builds) == 1


def test_run_diagnose_builds_each_space_and_incidence_once(monkeypatch):
    # the complex and commuting checks read the context's spaces and
    # incidences instead of building their own
    spaces, incidences = [], []
    orig = FeSpace.__post_init__

    def counted_space(self):
        spaces.append(self.tag)
        orig(self)

    monkeypatch.setattr(FeSpace, "__post_init__", counted_space)
    for name in ("curl_incidence", "div_incidence"):
        def counted(mesh, name=name, build=getattr(derham, name)):
            incidences.append(name)
            return build(mesh)

        for module in (derham, operators, harness):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    run_diagnose(load_config({"mesh": [4, 4, 4], "formulation": "BJ",
                              "case": "inspace-1"}))
    assert sorted(spaces) == ["DG0", "NedelecEdge0", "P1", "P2",
                              "RaviartThomas0"]
    assert sorted(incidences) == ["curl_incidence", "div_incidence"]


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
    text = _study_csv(rows, aborted=4, termination="linear-stall")
    lines = text.splitlines()
    assert lines[1] == "2,0.5,3,1,1.5,0.25,0.25,0.125,,,,"
    assert lines[2] == "4,0.25,4,0,0.375,0.125,0.125,0.03125,2.0,1.0,1.0,2.0"
    assert lines[3] == "# study aborted: Picard hit linear-stall at level 4"


@pytest.mark.parametrize("formulation", ["BJ", "BE"])
def test_high_reynolds_run_ends_as_linear_stall(formulation):
    # 4^3 trig-1 at r_e = 100 lies outside the small-data regime: GMRES
    # hits its cap on the second step, and the run ends there with the
    # first iterate instead of factoring the whole step
    cfg = {"mesh": [4, 4, 4], "case": "trig-1", "formulation": formulation,
           "params": {"r_e": 100.0}}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        doc = run_solve(load_config(cfg))
    picard = doc["picard"]
    assert picard["termination"] == "linear-stall"
    assert picard["n_iterations"] == 1
    stalled = picard["stalled_solve"]
    assert stalled["krylov_iterations"] == 60
    assert stalled["unknowns"] == picard["iterations"][0]["linear_solve"][
        "unknowns"]
    assert set(stalled["factors"]) >= {"laplacian", "pressure_schur",
                                       "maxwell"}
    # the returned state is the first iterate, an exact step solution
    assert doc["diagnostics"]["b_l2"] == picard["iterations"][0]["b_l2"]
    assert doc["diagnostics"]["div_b_max"] <= 1e-12 * doc["diagnostics"][
        "b_l2"] / doc["mesh"]["h"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        diag = run_diagnose(load_config(cfg))
    assert diag["structure"]["termination"] == "linear-stall"
    assert len(diag["structure"]["iterations"]) == 1


def test_diagnose_stalled_at_the_first_step_checks_nothing():
    # 3^3 trig-1 B-J at r_e = 1e4 stalls at its first step: no step
    # produced an iterate, so there is nothing to score, as for a singular
    # step (the start state would fail elimination_j, and a max over no
    # iterates would pass gauss_law)
    doc = run_diagnose(load_config({"mesh": [3, 3, 3], "case": "trig-1",
                                    "params": {"r_e": 1e4}}))
    structure = doc["structure"]
    assert structure["termination"] == "linear-stall"
    assert structure["iterations"] == []
    assert structure["checks"] == {}


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


def reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def test_cli_solve_stdout_is_strict_json(tmp_path, capsys):
    # zero force: the small-Reynolds limit is infinite and prints as null
    path = write_config(tmp_path, {})
    assert main(["solve", path]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    assert doc["conditions"]["small_re"]["limit"] is None


def test_dump_json_writes_non_finite_numbers_as_null():
    doc = {"a": [math.inf, -math.inf, math.nan, 1.5], "b": ({"c": 2},)}
    text = _dump_json(doc)
    assert json.loads(text, parse_constant=reject_constant) \
        == {"a": [None, None, None, 1.5], "b": [{"c": 2}]}
    # the caller's document keeps its numbers
    assert doc["a"][0] == math.inf and math.isnan(doc["a"][2])


def test_cli_config_error_exits_2(tmp_path, capsys):
    report = tmp_path / "never.json"
    path = write_config(tmp_path, {"meshes": [2, 2, 2],
                                   "output": {"report": str(report)}})
    assert main(["solve", path]) == 2
    assert "config error" in capsys.readouterr().err
    assert not report.exists()
    assert main(["solve", str(tmp_path / "absent.json")]) == 2
    assert main(["solve", path, "--seed", "-3"]) == 2


@pytest.mark.parametrize("text", [
    "9**9**8", "9**9**7", "x/0", "0**-1", "1/(x-x)", "sqrt(-1-x)",
    "log(x, 2)", "sqrt(x, 2)"])
def test_cli_rejects_faulty_force_quickly(text, tmp_path, capsys):
    # non-finite values end the run as a config error, not in the solver
    path = write_config(tmp_path, {"mesh": [2, 2, 2], "force": {
        "kind": "expression", "components": ["0", text, "0"]}})
    start = time.perf_counter()
    assert main(["solve", path]) == 2
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and repr(text) in err


def test_cli_solver_failure_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, {"mesh": [1, 1, 1]})
    assert main(["solve", path]) == 1
    assert "solver error" in capsys.readouterr().err


@pytest.mark.parametrize("formulation", ["BE", "BJ"])
@pytest.mark.parametrize("params", [{"r_e": 1e78}, {"r_m": 1e78},
                                    {"r_e": 1e300}],
                         ids=["r_e=1e78", "r_m=1e78", "r_e=1e300"])
def test_cli_huge_parameters_end_as_solver_errors(formulation, params,
                                                  tmp_path, capsys):
    # a float power in the small-data conditions overflows; the condition
    # reads inf, and the run ends in the step's named failure
    path = write_config(tmp_path, {"mesh": [2, 2, 2], "case": "trig-1",
                                   "formulation": formulation,
                                   "params": params})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["solve", path]) == 1
    err = capsys.readouterr().err
    assert err.count("solver error: ") == 1 and "Traceback" not in err


def test_cli_solve_linear_stall_exits_1_with_pure_json(tmp_path, capsys):
    path = write_config(tmp_path, {"mesh": [4, 4, 4], "case": "trig-1",
                                   "formulation": "BE",
                                   "params": {"r_e": 100.0}})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["solve", path]) == 1
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["picard"]["termination"] == "linear-stall"
    assert captured.err.startswith("solver error: linear-stall: the linear "
                                   "solve of Picard step 2 stalled")
    # no whole-step factor says why, so the message gives the B-E regime
    assert "small-Reynolds condition" in captured.err


def test_cli_study_abort_exits_1(tmp_path, capsys):
    csv_path = tmp_path / "study.csv"
    path = write_config(tmp_path, {"case": "trig-1", "levels": [2, 4],
                                   "picard": {"max_iter": 1},
                                   "output": {"csv": str(csv_path)}})
    assert main(["study", path]) == 1
    err = capsys.readouterr().err
    assert "aborted" in err and "max-iterations" in err
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


@pytest.mark.parametrize("command, formulation", [
    pytest.param("solve", "BJ", id="solve-BJ"),
    pytest.param("solve", "BE", id="solve-BE"),
    pytest.param("diagnose", "BJ", id="diagnose")])
def test_cli_stdout_is_pure_json_despite_native_chatter(command, formulation,
                                                        tmp_path):
    # the singular 1^3 step, run in a fresh process: a library that prints
    # to the C stdout stream (a whole-step LU of this mesh once did) would
    # corrupt what the CLI writes there, and nothing reroutes it, so this
    # test is what catches such chatter
    path = write_config(tmp_path, {"mesh": [1, 1, 1],
                                   "formulation": formulation})
    proc = subprocess.run(
        [sys.executable, "-m", "mhdfem.cli", command, path],
        capture_output=True, text=True)
    if command == "solve":
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("solver error: singular step: the "
                                      "1x1x1 box mesh is too coarse")
    else:
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["structure"]["termination"] == "singular-step"


BE_HUGE_RE = {"mesh": [2, 2, 2], "case": "trig-1", "formulation": "BE",
              "params": {"r_e": 1e78}}
STDERR_PREFIXES = ("warning: ", "solver error: ", "config error: ",
                   "study aborted: ")


@pytest.mark.parametrize("command, payload, code", [
    pytest.param("solve", lambda plain: {"mesh": [1, 1, 1]}, 1,
                 id="singular-1^3"),
    pytest.param("solve", lambda plain: BE_HUGE_RE, 1, id="BE-r_e=1e78"),
    pytest.param("solve", lambda plain: {
        "mesh": [2, 2, 2], "case": "trig-1", "params": {"r_e": 1e20}}, 1,
        id="BJ-r_e=1e20"),
    pytest.param("solve", lambda plain: {"mesh": [2, 2, 2], "force": {
        "kind": "expression", "components": ["0", "x/0", "0"]}}, 2,
        id="x/0-force"),
    pytest.param("solve", lambda plain: {"meshes": [2, 2, 2]}, 2,
                 id="unknown-key"),
    pytest.param("diagnose", lambda plain: {
        "mesh": [2, 2, 2], "output": {"report": f"{plain}/sub/r.json"}}, 2,
        id="report-path"),
    pytest.param("solve", lambda plain: {
        "mesh": [2, 2, 2], "output": {"fields": f"{plain}/f.vtk"}}, 2,
        id="fields-path"),
    pytest.param("study", lambda plain: {
        "case": "trig-1", "levels": [2, 3],
        "output": {"csv": f"{plain}/s.csv"}}, 2, id="csv-path"),
    pytest.param("study", lambda plain: {
        "case": "trig-1", "levels": [2, 3], "picard": {"max_iter": 1}}, 1,
        id="study-abort"),
    # manufactured data at extreme parameters: no float operation raises,
    # and data that is not finite is a config error naming its slot
    *[pytest.param("solve", lambda plain, f=f, p=p: {
        "mesh": [2, 2, 2], "case": "trig-1", "formulation": f,
        "params": p}, code, id=f"{f}-{name}")
      for f in ("BJ", "BE")
      for name, p, code in (("r_m=1e-300", {"r_m": 1e-300}, 2),
                            ("r_m=1e300", {"r_m": 1e300}, 1),
                            ("r_m=1e-160", {"r_m": 1e-160}, 2),
                            ("r_e=1e-308", {"r_e": 1e-308}, 2))],
    pytest.param("solve", lambda plain: {
        "mesh": [2, 2, 2], "case": "inspace-1", "params": {"r_m": 1e-300}},
        2, id="inspace-r_m=1e-300"),
    pytest.param("solve", lambda plain: {
        "mesh": [2, 2, 2], "case": "inspace-1", "formulation": "BE",
        "params": {"r_m": 1e-160}}, 2, id="inspace-BE-r_m=1e-160"),
    pytest.param("diagnose", lambda plain: {
        "mesh": [2, 2, 2], "case": "inspace-1", "params": {"r_m": 1e-300}},
        2, id="diagnose-inspace-r_m=1e-300"),
    pytest.param("diagnose", lambda plain: {
        "mesh": [2, 2, 2], "case": "trig-1", "params": {"r_m": 1e-300}}, 2,
        id="diagnose-r_m=1e-300"),
    pytest.param("study", lambda plain: {
        "case": "trig-1", "levels": [2, 3], "params": {"r_m": 1e300}}, 1,
        id="study-r_m=1e300")])
def test_cli_stderr_is_one_named_line_per_message(command, payload, code,
                                                  tmp_path, capsys,
                                                  monkeypatch):
    # every failure exits with its documented code, and stderr holds only
    # named one-line messages; plain is a regular file, so no output path
    # below it can be written
    plain = tmp_path / "plain"
    plain.write_text("")
    payload = payload(plain)
    if "output" in payload:
        # an output path is checked before anything is solved
        def solve(*args, **kwargs):
            raise AssertionError("solved before the output path was checked")

        monkeypatch.setattr("mhdfem.harness.solve_nonlinear", solve)
    assert main([command, write_config(tmp_path, payload)]) == code
    err = capsys.readouterr().err
    assert err and all(line.startswith(STDERR_PREFIXES)
                       for line in err.splitlines())
    if code == 2 and "params" in payload:
        # the config error is the only line: the data raise no float
        # warning on the way
        slot = "h" if "r_m" in payload["params"] else "f"
        assert err.startswith(f"config error: data slot {slot} is not "
                              "finite")
        assert len(err.splitlines()) == 1
    if payload is BE_HUGE_RE:
        assert "warning: electric-field step outside the guaranteed " \
               "regime" in err
    if "output" in payload:
        assert str(plain) in err


def test_cli_warning_is_one_line_in_a_fresh_process(tmp_path):
    # the interpreter's own warning format would list the warning's source
    # file and line
    proc = subprocess.run(
        [sys.executable, "-m", "mhdfem.cli", "solve",
         write_config(tmp_path, BE_HUGE_RE)],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("warning: electric-field step outside")
    assert "Traceback" not in proc.stderr and ".py:" not in proc.stderr
