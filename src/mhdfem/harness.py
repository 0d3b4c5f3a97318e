"""Configuration-driven runs: single solves, refinement studies, diagnostics.

A run is described by a JSON document (see load_config).  The three entry
points mirror the CLI subcommands: run_solve performs one nonlinear solve and
emits a JSON report plus optional VTK fields, run_study sweeps a manufactured
solution over refinement levels and emits a CSV of errors and observed rates,
and run_diagnose bundles the structural health checks (complex identities,
commuting defects, estimated constants, per-iterate invariants).

The manufactured cases are numpy closed forms (see ManufacturedCase) and an
"expression" force is evaluated through a whitelist of numpy operations (see
_FORCE_GRAMMAR), so a run needs numpy and scipy only.

All outputs are deterministic for a fixed config and seed: no timestamps, no
environment probes, seeded randomness only.
"""

import ast
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assembly import RULE_DEG6, QuadratureRule
from .derham import check_commuting, interpolate, point_eval
from .linalg import SingularSystemError
from .mesh import build_box_mesh, kuhn_order, write_vtk
from .operators import discrete_ops, estimate_poincare_constant
from .solvers import (MhdParams, _loads, check_small_data_conditions,
                      current_at, diagnostics, solve_nonlinear, zero_state)


class ConfigError(Exception):
    """Raised for malformed or inconsistent run configurations."""


# ---------------------------------------------------------------------------
# configuration

_PICARD_DEFAULTS = {"rtol": 1e-9, "atol": 1e-12, "max_iter": 100}


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; `document` echoes the normalized input."""

    mesh: tuple
    formulation: str
    r_e: float
    r_m: float
    s: float
    case: object            # manufactured case name or None
    force: object           # compiled callable or None
    rtol: float
    atol: float
    max_iter: int
    levels: object          # tuple of ints or None
    report_path: object
    fields_path: object
    csv_path: object
    seed: int
    document: dict


def _expect(condition, message):
    if not condition:
        raise ConfigError(message)


# a finite JSON number; bool subclasses int, so the type is tested exactly
def _is_number(value) -> bool:
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


# an integer of at least least; bool subclasses int and is rejected
def _is_int(value, least) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= least


def _as_positive_float(value, label):
    _expect(_is_number(value) and value > 0,
            f"{label} must be a positive number, got {value!r}")
    return float(value)


# the expression-force grammar: each operator node and function name maps
# to the numpy ufunc that evaluates it, x, y, z to a point column, pi to pi
_FORCE_GRAMMAR = {
    "x": 0, "y": 1, "z": 2, "pi": np.float64(np.pi),
    ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
    ast.Div: np.divide, ast.Pow: np.power, ast.UAdd: np.positive,
    ast.USub: np.negative, "asin": np.arcsin, "acos": np.arccos,
    "atan": np.arctan, **{name: getattr(np, name) for name in (
        "sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt")}}


def _quoted(text: str) -> str:
    """repr of a component's text for an error message; a text longer than
    60 characters is cut to its first 60 and its length."""
    if len(text) <= 60:
        return repr(text)
    return f"{text[:60]!r}... ({len(text)} characters)"


@np.errstate(all="ignore")
def _force_values(text, pts):
    """Force component text evaluated as written at each row of pts, in
    float64.  A node outside _FORCE_GRAMMAR, or a value that is not finite,
    raises ConfigError; with no points, only the grammar is checked."""
    try:
        pending = [ast.parse(text, mode="eval").body]
    except (SyntaxError, ValueError, RecursionError):
        pending = [None]
    values = []
    # post order on an explicit stack, so that long sums fit: a node gives
    # way to its ufunc and its operands, the first operand on top
    while pending:
        node, entry, operands = pending.pop(), None, []
        if isinstance(node, np.ufunc):
            values[-node.nin:] = [node(*values[-node.nin:])]
            continue
        if isinstance(node, (ast.BinOp, ast.UnaryOp)):
            entry = _FORCE_GRAMMAR.get(type(node.op))
            operands = ([node.left, node.right] if isinstance(node, ast.BinOp)
                        else [node.operand])
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            entry = _FORCE_GRAMMAR.get(node.func.id)
            operands = node.args + node.keywords
        elif isinstance(node, ast.Name):
            entry = _FORCE_GRAMMAR.get(node.id)
        elif isinstance(node, ast.Constant) and _is_number(node.value):
            entry = np.float64(node.value)
        if entry is None or getattr(entry, "nin", 0) != len(operands):
            names = (k for k in _FORCE_GRAMMAR if isinstance(k, str))
            raise ConfigError(
                f"force component {_quoted(text)} is not arithmetic in "
                f"{', '.join(names)} with one argument per function")
        if operands:
            pending += [entry, *reversed(operands)]
        else:
            values.append(pts[:, entry] if isinstance(entry, int) else entry)
    values = np.broadcast_to(values.pop(), (len(pts),))
    _expect(np.isfinite(values).all(), f"force component {_quoted(text)} is "
            f"not finite at every quadrature point")
    return values


def _compile_force(spec):
    _expect(isinstance(spec, dict), "force must be an object")
    kind = spec.get("kind")
    if kind == "constant":
        vector = spec.get("vector")
        _expect(isinstance(vector, list) and len(vector) == 3,
                "constant force needs a 3-entry vector")
        unknown = set(spec) - {"kind", "vector"}
        _expect(not unknown, f"unknown force keys {sorted(unknown)}")
        _expect(all(map(_is_number, vector)),
                "force vector entries must be finite numbers")
        vec = np.array(vector, dtype=float)
        return lambda pts: np.tile(vec, (len(pts), 1))
    if kind == "expression":
        components = spec.get("components")
        _expect(isinstance(components, list) and len(components) == 3
                and all(isinstance(c, str) for c in components),
                "expression force needs 3 component strings")
        unknown = set(spec) - {"kind", "components"}
        _expect(not unknown, f"unknown force keys {sorted(unknown)}")
        # copied, and checked now, so that a bad component fails the load
        components = tuple(components)
        for text in components:
            _force_values(text, np.empty((0, 3)))
        return lambda pts: np.stack(
            [_force_values(text, pts) for text in components], axis=-1)
    raise ConfigError(f"force kind must be 'constant' or 'expression', "
                      f"got {kind!r}")


def load_config(source, seed_override=None) -> RunConfig:
    """Parse and validate a run configuration.

    source is a path to a JSON file or an already-decoded dict.  Every
    problem raises ConfigError; nothing is written anywhere.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    elif isinstance(source, dict):
        raw = source
    else:
        raise ConfigError(f"config must be a path or a dict, "
                          f"got {type(source).__name__}")
    _expect(isinstance(raw, dict), "config root must be a JSON object")

    known = {"mesh", "formulation", "params", "case", "force", "picard",
             "levels", "output", "seed"}
    unknown = set(raw) - known
    _expect(not unknown, f"unknown config keys {sorted(unknown)}")

    mesh = raw.get("mesh", [2, 2, 2])
    _expect(isinstance(mesh, list) and len(mesh) == 3
            and all(_is_int(n, 1) for n in mesh),
            "mesh must be three positive integer subdivision counts")

    formulation = raw.get("formulation", "BJ")
    _expect(formulation in ("BE", "BJ"),
            f"formulation must be 'BE' or 'BJ', got {formulation!r}")

    params = raw.get("params", {})
    _expect(isinstance(params, dict), "params must be an object")
    unknown = set(params) - {"r_e", "r_m", "s"}
    _expect(not unknown, f"unknown params keys {sorted(unknown)}")
    r_e = _as_positive_float(params.get("r_e", 1.0), "params.r_e")
    r_m = _as_positive_float(params.get("r_m", 1.0), "params.r_m")
    s = _as_positive_float(params.get("s", 1.0), "params.s")

    case = raw.get("case")
    if case is not None:
        _expect(isinstance(case, str), "case must be a string")
        manufactured_case(case)

    force_spec = raw.get("force")
    force = None
    if force_spec is not None:
        _expect(case is None, "give either a manufactured case or a raw "
                "force, not both")
        force = _compile_force(force_spec)

    picard = dict(_PICARD_DEFAULTS)
    given = raw.get("picard", {})
    _expect(isinstance(given, dict), "picard must be an object")
    unknown = set(given) - set(_PICARD_DEFAULTS)
    _expect(not unknown, f"unknown picard keys {sorted(unknown)}")
    picard.update(given)
    rtol = _as_positive_float(picard["rtol"], "picard.rtol")
    atol = _as_positive_float(picard["atol"], "picard.atol")
    max_iter = picard["max_iter"]
    _expect(_is_int(max_iter, 1), "picard.max_iter must be a positive integer")

    levels = raw.get("levels")
    if levels is not None:
        _expect(isinstance(levels, list) and len(levels) >= 2
                and all(_is_int(n, 1) for n in levels),
                "levels must list at least two positive integers")
        _expect(all(a < b for a, b in zip(levels, levels[1:])),
                "levels must be strictly increasing")
        levels = tuple(levels)

    output = raw.get("output", {})
    _expect(isinstance(output, dict), "output must be an object")
    unknown = set(output) - {"report", "fields", "csv"}
    _expect(not unknown, f"unknown output keys {sorted(unknown)}")
    for key, val in output.items():
        _expect(isinstance(val, str) and val,
                f"output.{key} must be a non-empty path")

    seed = raw.get("seed", 0)
    _expect(_is_int(seed, 0), "seed must be a non-negative integer")
    if seed_override is not None:
        _expect(_is_int(seed_override, 0),
                "seed must be a non-negative integer")
        seed = seed_override

    document = {
        "mesh": list(mesh),
        "formulation": formulation,
        "params": {"r_e": r_e, "r_m": r_m, "s": s},
        "case": case,
        "force": force_spec,
        "picard": {"rtol": rtol, "atol": atol, "max_iter": max_iter},
        "levels": list(levels) if levels is not None else None,
        "output": {key: output.get(key) for key in ("report", "fields", "csv")},
        "seed": seed,
    }
    return RunConfig(mesh=tuple(mesh), formulation=formulation,
                     r_e=r_e, r_m=r_m, s=s, case=case, force=force,
                     rtol=rtol, atol=atol, max_iter=max_iter, levels=levels,
                     report_path=output.get("report"),
                     fields_path=output.get("fields"),
                     csv_path=output.get("csv"),
                     seed=seed, document=document)


# ---------------------------------------------------------------------------
# manufactured solutions


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form exact solution with matching right-hand-side data.

    The exact fields satisfy the essential boundary conditions and are
    exactly divergence free; the data slots are derived so the continuous
    solution of the general-data problem is (u*, B*, p*) with zero
    multiplier.  velocity/pressure may be None for identically zero fields.
    initial_flux(mesh) interpolates the exact flux: the Picard start.

    trig-1 is written out in closed form.  With sx = sin(pi x),
    cx = cos(pi x) and likewise for y and z, B* = curl (0, 0, sx sy)
    = pi (sx cy, -cx sy, 0), p* = cx cy cz and
    u* = (sx^2 sin(2 pi y) sz, -sin(2 pi x) sy^2 sz, 0) = (2 sx sy sz / pi) B*.
    So u* is parallel to B*, u* x B* = 0 and curl B* = (0, 0, 2 pi^2 sx sy),
    which leaves h = (s/r_m) curl(curl B*/r_m) = (2 pi^2 s / r_m^2) B*; f is
    -Laplace(u*)/r_e + (u*.grad)u* + grad p* + s B* x (curl B*/r_m), written
    out in _trig_data.  The test suite checks every closed form against a
    symbolic derivation.
    """

    name: str
    velocity: object
    velocity_grad: object
    flux: object
    pressure: object
    data_for: object
    initial_flux: object

    # a method, not a field: the benchmark traces calls of it
    def data(self, mesh, r_e, r_m, s) -> dict:
        return self.data_for(mesh, r_e, r_m, s)


def _sin_cos(pts):
    """sin and cos of pi x, pi y, pi z, as rows (sx, sy, sz), (cx, cy, cz)."""
    return np.sin(np.pi * pts).T, np.cos(np.pi * pts).T


def _trig_flux(pts):
    (sx, sy, _), (cx, cy, _) = _sin_cos(pts)
    return np.pi * np.stack([sx * cy, -cx * sy, np.zeros(len(pts))], axis=-1)


def _trig_velocity(pts):
    weight = (2.0 / np.pi) * np.prod(np.sin(np.pi * pts), axis=1)
    return weight[:, None] * _trig_flux(pts)


def _trig_velocity_grad(pts):
    (sx, sy, sz), (cx, cy, cz) = _sin_cos(pts)
    s2x, s2y = 2.0 * sx * cx, 2.0 * sy * cy
    c2x, c2y = 1.0 - 2.0 * sx ** 2, 1.0 - 2.0 * sy ** 2
    zero = np.zeros(len(pts))
    rows = [[s2x * s2y * sz, 2.0 * sx ** 2 * c2y * sz, sx ** 2 * s2y * cz],
            [-2.0 * c2x * sy ** 2 * sz, -s2x * s2y * sz, -s2x * sy ** 2 * cz],
            [zero, zero, zero]]
    return np.pi * np.moveaxis(np.array(rows), -1, 0)


def _trig_pressure(pts):
    return np.prod(np.cos(np.pi * pts), axis=1)


def _trig_data(mesh, r_e, r_m, s):
    # numpy scalars with float errors ignored: an extreme parameter gives
    # data that is not finite, which _problem rejects, and no Python float
    # error or warning on the way
    r_e, r_m, s = np.float64(r_e), np.float64(r_m), np.float64(s)

    @np.errstate(all="ignore")
    def force(pts):
        lorentz = 2.0 * np.pi ** 3 * s / r_m
        viscous = np.pi ** 2 / r_e
        (sx, sy, sz), (cx, cy, cz) = _sin_cos(pts)
        f1 = (np.pi * (4.0 * sx ** 3 * cx * sy ** 2 * sz ** 2 - sx * cy * cz)
              - lorentz * sx * cx * sy ** 2
              + viscous * (9.0 * sx ** 2 - 2.0) * 2.0 * sy * cy * sz)
        f2 = (np.pi * (4.0 * sx ** 2 * sy ** 3 * cy * sz ** 2 - cx * sy * cz)
              - lorentz * sx ** 2 * sy * cy
              + viscous * (2.0 - 9.0 * sy ** 2) * 2.0 * sx * cx * sz)
        return np.stack([f1, f2, -np.pi * cx * cy * sz], axis=-1)

    @np.errstate(all="ignore")
    def magnetic(pts):
        return (2.0 * np.pi ** 2 * s / r_m ** 2) * _trig_flux(pts)

    return {"f": force, "h": magnetic}


def _trig_initial_flux(mesh):
    rt = discrete_ops(mesh).space_d
    coeffs = interpolate(rt, _trig_flux)
    coeffs[rt.boundary_dof] = 0.0
    return coeffs


def _kuhn_axes(pts):
    """Unit vectors e_a, e_b of each point's largest and smallest
    coordinate: the first and last axis of mesh.kuhn_order, so ties go to
    the Kuhn tet that mesh.locate picks."""
    order = kuhn_order(pts)
    return np.eye(3)[order[:, 0]], np.eye(3)[order[:, 2]]


def _inspace_potential(pts):
    """Whitney function of the unit cube's main diagonal: on the Kuhn tet
    where x_a is the largest coordinate and x_b the smallest,
    (1 - x_a) e_b + x_b e_a."""
    e_a, e_b = _kuhn_axes(pts)
    return ((1.0 - pts.max(axis=1))[:, None] * e_b
            + pts.min(axis=1)[:, None] * e_a)


def _inspace_flux(pts):
    """Curl of _inspace_potential, 2 e_b x e_a: piecewise constant, so
    every Kuhn refinement represents it exactly."""
    e_a, e_b = _kuhn_axes(pts)
    return 2.0 * np.cross(e_b, e_a)


def _inspace_initial_flux(mesh):
    ops = discrete_ops(mesh)
    coeffs = interpolate(ops.space_c, _inspace_potential)
    coeffs[ops.space_c.boundary_dof] = 0.0
    return ops.curl @ coeffs


def _inspace_data(mesh, r_e, r_m, s):
    # float errors ignored as in _trig_data: data that is not finite is
    # rejected by _problem, with no warning on the way
    ops = discrete_ops(mesh)
    r_m, s = np.float64(r_m), np.float64(s)
    with np.errstate(all="ignore"):
        j0 = ops.weak_curl(_inspace_initial_flux(mesh)) / r_m
        h = (s / r_m) * (ops.curl @ j0)

    @np.errstate(all="ignore")
    def force(pts):
        return s * np.cross(_inspace_flux(pts),
                            point_eval(ops.space_c, j0, pts))

    return {"f": force, "h": h}


MANUFACTURED = {case.name: case for case in (
    ManufacturedCase(name="trig-1", velocity=_trig_velocity,
                     velocity_grad=_trig_velocity_grad, flux=_trig_flux,
                     pressure=_trig_pressure, data_for=_trig_data,
                     initial_flux=_trig_initial_flux),
    ManufacturedCase(name="inspace-1", velocity=None, velocity_grad=None,
                     flux=_inspace_flux, pressure=None,
                     data_for=_inspace_data,
                     initial_flux=_inspace_initial_flux))}


def manufactured_case(name: str) -> ManufacturedCase:
    if name not in MANUFACTURED:
        raise ConfigError(f"unknown case {name!r}; available: "
                          f"{sorted(MANUFACTURED)}")
    return MANUFACTURED[name]


# ---------------------------------------------------------------------------
# error norms against an exact solution

def exact_errors(mesh, case: ManufacturedCase, state) -> dict:
    """Quadrature norms of the discretization error at a solver state."""
    ops = discrete_ops(mesh)
    tab = ops.tab(RULE_DEG6)
    wq, flat = tab.wq, tab.points.reshape(-1, 3)

    u_h = tab.velocity_at(state.u)
    gu_h = tab.velocity_grad(state.u)
    if case.velocity is not None:
        u_h = u_h - case.velocity(flat).reshape(u_h.shape)
        gu_h = gu_h - case.velocity_grad(flat).reshape(gu_h.shape)
    err_u = math.sqrt(float(
        np.sum(wq * (np.einsum("tqk,tqk->tq", u_h, u_h)
                     + np.einsum("tqij,tqij->tq", gu_h, gu_h)))))

    b_h = tab.face_at(state.B)
    db = b_h - case.flux(flat).reshape(b_h.shape)
    err_b_sq = tab.l2sq(db)
    # the exact flux is divergence free, so the graph defect is all discrete
    cell_div = (ops.div @ state.B) / mesh.volumes
    err_graph = math.sqrt(err_b_sq + float(np.sum(mesh.volumes
                                                  * cell_div ** 2)))

    p_h = np.einsum("qi,ti->tq", tab.lam, state.p[mesh.tets])
    if case.pressure is not None:
        p_h = p_h - case.pressure(flat).reshape(p_h.shape)
    err_p = math.sqrt(float(np.sum(wq * p_h ** 2)))

    return {"u_h1": err_u, "b_l2": math.sqrt(err_b_sq),
            "b_graph": err_graph, "p_l2": err_p}


# ---------------------------------------------------------------------------
# runners


def _dump_json(doc) -> str:
    """The report as strict JSON, each non-finite number written as null."""
    plain = json.loads(json.dumps(doc), parse_constant=lambda _: None)
    return json.dumps(plain, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_output(path, write):
    """write(path) after making its parents, if a path is configured;
    failure is a ConfigError."""
    if path is None:
        return
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write(path)
    except OSError as exc:
        raise ConfigError(f"cannot write {str(path)!r}: {exc}") from None


def _check_outputs(*paths):
    """Make the parent of each configured output path and check that the
    path can be written, so that a bad path fails before any mesh is
    built, with _write_output's ConfigError."""
    for path in paths:
        _write_output(path, _try_write)


def _try_write(path):
    """Open path for appending, and delete what that made: the path, or
    the target of a dangling link."""
    new = not path.exists()
    path.open("a").close()
    if new:
        path.resolve().unlink()


def _mesh_info(mesh, subdivisions):
    return {"subdivisions": list(subdivisions), "h": mesh.h,
            "vertices": mesh.num_vertices, "edges": mesh.num_edges,
            "faces": mesh.num_faces, "tets": mesh.num_tets}


def _problem(config: RunConfig, mesh):
    case = manufactured_case(config.case) if config.case else None
    slots = {}
    if case is not None:
        slots = case.data(mesh, config.r_e, config.r_m, config.s)
    elif config.force is not None:
        slots = {"f": config.force}
    params = MhdParams(r_e=config.r_e, r_m=config.r_m, s=config.s, **slots)
    # the loads are computed here, once per mesh, so that data that is not
    # finite at these parameters is a config error, whichever run asks
    try:
        _loads(mesh, params)
    except ValueError as exc:
        if not str(exc).startswith("data slot "):  # not from _checked
            raise
        raise ConfigError(f"{exc} at r_e = {config.r_e:.6g}, r_m = "
                          f"{config.r_m:.6g}, s = {config.s:.6g}") from None
    return params, case


def _solve(config: RunConfig, mesh, params, case, conditions):
    """(state, outcome, warnings) of solve_nonlinear from the zero state,
    B set to the case's interpolated exact flux if any.  A B-E run outside
    the small-Reynolds regime of conditions (check_small_data_conditions),
    where its step is proved solvable, is warned about; it proceeds, the
    condition being sufficient, not necessary."""
    warns = []
    if config.formulation == "BE":
        small_re = conditions["small_re"]
        if not small_re["satisfied"]:
            msg = ("electric-field step outside the guaranteed regime: "
                   f"R_e = {params.r_e:.6g} exceeds the bound "
                   f"{small_re['limit']:.6g}; proceeding, "
                   "but the linearized systems may be singular")
            warnings.warn(msg, RuntimeWarning)
            warns.append(msg)
    state = zero_state(mesh, config.formulation)
    if case is not None:
        state.B = case.initial_flux(mesh)
        state.B_prev = state.B.copy()
    state, picard = solve_nonlinear(config.formulation, params, state,
                                    rtol=config.rtol, atol=config.atol,
                                    max_iter=config.max_iter)
    return state, picard, warns


# the tet centroid as a one-point rule, for cellwise field output
_CENTROID = QuadratureRule(np.full((1, 3), 0.25), np.array([1.0 / 6.0]))


def _cell_fields(mesh, state):
    tab = discrete_ops(mesh).tab(_CENTROID)
    return tab.face_at(state.B)[:, 0], current_at(tab, state)[:, 0]


def _write_fields(mesh, state, path):
    nv = mesh.num_vertices
    n = nv + mesh.num_edges
    vel = np.stack([state.u[c * n:c * n + nv] for c in range(3)], axis=-1)
    b_cell, cur = _cell_fields(mesh, state)
    write_vtk(mesh, path,
              point_data={"velocity": vel, "pressure": state.p},
              cell_data={"flux": b_cell, "current": cur,
                         "multiplier": state.r})


def run_solve(config: RunConfig) -> dict:
    """One nonlinear solve; returns the report and writes configured files,
    the fields first, so a fields path that fails leaves no report."""
    _check_outputs(config.report_path, config.fields_path)
    mesh = build_box_mesh(*config.mesh)
    params, case = _problem(config, mesh)
    conditions = check_small_data_conditions(params, mesh, config.seed)
    state, picard, warns = _solve(config, mesh, params, case, conditions)
    doc = {
        "config": config.document,
        "mesh": _mesh_info(mesh, config.mesh),
        "constants": {"c1": conditions["c1"], "c2": conditions["c2"]},
        "conditions": conditions,
        "picard": {**picard, "warnings": warns},
        "diagnostics": diagnostics(state, params),
    }
    if case is not None:
        doc["errors"] = exact_errors(mesh, case, state)
    _write_output(config.fields_path,
                  lambda path: _write_fields(mesh, state, path))
    _write_output(config.report_path,
                  lambda path: path.write_text(_dump_json(doc)))
    return doc


_STUDY_COLUMNS = ("level", "h", "iterations", "converged",
                  "err_u_h1", "err_b_l2", "err_b_graph", "err_p_l2",
                  "rate_u_h1", "rate_b_l2", "rate_b_graph", "rate_p_l2")


def _study_csv(rows, aborted, termination) -> str:
    lines = [",".join(_STUDY_COLUMNS)]
    for row in rows:
        cells = []
        for col in _STUDY_COLUMNS:
            val = row.get(col)
            if val is None:
                cells.append("")
            elif isinstance(val, bool):
                cells.append("1" if val else "0")
            elif isinstance(val, int):
                cells.append(str(val))
            else:
                cells.append(repr(float(val)))
        lines.append(",".join(cells))
    if aborted is not None:
        lines.append(f"# study aborted: Picard hit {termination} at "
                     f"level {aborted}")
    return "\n".join(lines) + "\n"


def run_study(config: RunConfig) -> dict:
    """Refinement sweep of a manufactured case with observed rates.

    Levels are uniform subdivision counts of the unit cube.  The rate
    between consecutive levels is log(e0/e1) / log(h0/h1), so the levels
    need not halve h.  A non-converged Picard run aborts the sweep; rows
    computed so far are still emitted, the abort and its termination
    flagged in the CSV.
    """
    if config.case is None:
        raise ConfigError("a refinement study needs a manufactured case")
    if config.levels is None:
        raise ConfigError("a refinement study needs refinement levels")
    _check_outputs(config.csv_path)
    case = manufactured_case(config.case)
    rows = []
    aborted = None
    for level in config.levels:
        mesh = build_box_mesh(level, level, level)
        params, _ = _problem(config, mesh)
        # only a B-E run reads the conditions (its small-Re check)
        conditions = (check_small_data_conditions(params, mesh, config.seed)
                      if config.formulation == "BE" else None)
        state, picard, _ = _solve(config, mesh, params, case, conditions)
        termination = picard["termination"]
        errs = exact_errors(mesh, case, state)
        rows.append({"level": level, "h": mesh.h,
                     "iterations": picard["n_iterations"],
                     "converged": termination == "converged",
                     "err_u_h1": errs["u_h1"], "err_b_l2": errs["b_l2"],
                     "err_b_graph": errs["b_graph"],
                     "err_p_l2": errs["p_l2"]})
        if termination != "converged":
            aborted = level
            break
    for prev, row in zip(rows, rows[1:]):
        for key in ("u_h1", "b_l2", "b_graph", "p_l2"):
            e0, e1 = prev[f"err_{key}"], row[f"err_{key}"]
            if e0 > 0.0 and e1 > 0.0:
                row[f"rate_{key}"] = (math.log2(e0 / e1)
                                      / math.log2(prev["h"] / row["h"]))
    text = _study_csv(rows, aborted, termination)
    _write_output(config.csv_path, lambda path: path.write_text(text))
    return {"rows": rows, "aborted": aborted, "termination": termination,
            "csv": text}


def _poly_probe():
    """A quadratic field and its curl and divergence, for check_commuting."""
    def value(x):
        return np.column_stack([x[:, 0] ** 2 + x[:, 1],
                                x[:, 1] * x[:, 2],
                                x[:, 0] - x[:, 2] ** 2])

    def curl(x):
        ones = np.ones(len(x))
        return np.column_stack([-x[:, 1], -ones, -ones])

    def div(x):
        return 2.0 * x[:, 0] - x[:, 2]

    return value, curl, div


def _relative_worsts(records, mesh, u_floor):
    gauss, mult, energy = 0.0, 0.0, 0.0
    for rec in records:
        if rec["b_l2"] > 0.0:
            gauss = max(gauss, rec["div_b_max"] * mesh.h / rec["b_l2"])
        scale = rec["u_h1"] + rec["b_l2"]
        if scale > 0.0:
            mult = max(mult, rec["multiplier_norm"] / scale)
        elif rec["multiplier_norm"] > 0.0:
            mult = math.inf
        if rec["u_h1"] <= u_floor:
            # velocity at or below 1e-10 of its a-priori ceiling: the flow
            # is numerically zero and the power balance is 0 = 0
            continue
        if rec["energy_scale"] > 0.0:
            energy = max(energy,
                         rec["energy_residual"] / rec["energy_scale"])
        elif rec["energy_residual"] > 0.0:
            energy = math.inf
    return gauss, mult, energy


def run_diagnose(config: RunConfig) -> dict:
    """Structural checks: complex identities, constants, solve invariants."""
    _check_outputs(config.report_path)
    mesh = build_box_mesh(*config.mesh)
    ops = discrete_ops(mesh)
    product = ops.div @ ops.curl
    dims = {
        "h1": int(np.count_nonzero(~mesh.boundary_vertex)),
        "hcurl": ops.space_c.free_index.size,
        "hdiv": ops.space_d.free_index.size,
        "l2_mean_free": mesh.num_tets - 1,
    }
    dim_sum = dims["h1"] - dims["hcurl"] + dims["hdiv"] - dims["l2_mean_free"]

    poincare = estimate_poincare_constant(mesh)
    params, case = _problem(config, mesh)
    conditions = check_small_data_conditions(params, mesh, config.seed)
    structure = {"formulation": config.formulation, "checks": {}}
    try:
        state, picard, _ = _solve(config, mesh, params, case, conditions)
    except SingularSystemError as exc:
        # meshes too coarse for the velocity-pressure pair still get the
        # complex and constant sections; record why the solve is missing
        structure.update(termination="singular-step", message=str(exc),
                         iterations=[])
    else:
        structure.update(termination=picard["termination"],
                         iterations=picard["iterations"])
    # a run that recorded no iterate, a singular or a stalled first step,
    # has nothing to check
    if structure["iterations"]:
        u_floor = 1e-10 * 2.0 * params.r_e * conditions["f_dual_bound"]
        gauss, mult, energy = _relative_worsts(structure["iterations"], mesh,
                                               u_floor)

        def check(worst, tol, applicable):
            if not applicable:
                return {"worst": None, "tolerance": tol, "pass": None,
                        "applicable": False}
            return {"worst": worst, "tolerance": tol, "pass": worst <= tol,
                    "applicable": True}

        # multiplier nullity and the f-only power balance hold at solutions
        # of the homogeneous-magnetic-data problem; with manufactured h the
        # discrete multiplier legitimately carries discretization error, so
        # those checks do not apply
        f_only = params.h is None
        structure["checks"] = checks = {
            "gauss_law": check(gauss, 1e-12, True),
            "multiplier": check(mult, 1e-10, f_only),
            "energy": check(energy, 1e-10, f_only),
        }
        diag = diagnostics(state, params)
        if config.formulation == "BJ":
            for key in ("elimination_j", "elimination_sigma"):
                checks[key] = check(diag[key], 1e-10, True)

    doc = {
        "config": config.document,
        "mesh": _mesh_info(mesh, config.mesh),
        "complex": {
            "incidence_product_max": float(np.abs(product).max())
            if product.nnz else 0.0,
            "dimensions": dims,
            "dimension_sum": dim_sum,
        },
        "commuting": check_commuting(ops, *_poly_probe()),
        "constants": {"c1": conditions["c1"], "c2": conditions["c2"],
                      "poincare_div": poincare},
        "structure": structure,
    }
    _write_output(config.report_path,
                  lambda path: path.write_text(_dump_json(doc)))
    return doc
