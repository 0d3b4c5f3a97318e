"""Configuration-driven runs: single solves, refinement studies, diagnostics.

A run is described by a JSON document (see load_config).  The three entry
points mirror the CLI subcommands: run_solve performs one nonlinear solve and
emits a JSON report plus optional VTK fields, run_study sweeps a manufactured
solution over refinement levels and emits a CSV of errors and observed rates,
and run_diagnose bundles the structural health checks (complex identities,
commuting defects, estimated constants, per-iterate invariants).

All outputs are deterministic for a fixed config and seed: no timestamps, no
environment probes, seeded randomness only.
"""

import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import sympy

from .assembly import RULE_DEG4, RULE_DEG6, Tabulation
from .derham import (NEDELEC, P1, RT, AnalyticField, build_space,
                     check_commuting, curl_incidence, div_incidence,
                     interpolate, p1_values, point_eval)
from .linalg import SingularSystemError
from .mesh import build_box_mesh, write_vtk
from .operators import (POINCARE_DOF_LIMIT, DiagnosticConstants,
                        discrete_ops, estimate_cross_bound,
                        estimate_poincare_constant,
                        sobolev_embedding_constant)
from .solvers import (MhdParams, check_small_data_conditions, current_at,
                      diagnostics, solve_nonlinear, zero_state_be,
                      zero_state_bj)


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


def _as_positive_float(value, label):
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{label} must be a number, got {value!r}") from None
    _expect(math.isfinite(out) and out > 0.0, f"{label} must be positive")
    return out


def _compile_force(spec):
    _expect(isinstance(spec, dict), "force must be an object")
    kind = spec.get("kind")
    if kind == "constant":
        vector = spec.get("vector")
        _expect(isinstance(vector, list) and len(vector) == 3,
                "constant force needs a 3-entry vector")
        unknown = set(spec) - {"kind", "vector"}
        _expect(not unknown, f"unknown force keys {sorted(unknown)}")
        try:
            vec = np.array([float(v) for v in vector])
        except (TypeError, ValueError):
            raise ConfigError("force vector entries must be numbers") from None
        _expect(bool(np.all(np.isfinite(vec))), "force vector must be finite")
        return lambda pts: np.tile(vec, (len(pts), 1))
    if kind == "expression":
        components = spec.get("components")
        _expect(isinstance(components, list) and len(components) == 3
                and all(isinstance(c, str) for c in components),
                "expression force needs 3 component strings")
        unknown = set(spec) - {"kind", "components"}
        _expect(not unknown, f"unknown force keys {sorted(unknown)}")
        x, y, z = sympy.symbols("x y z")
        fns = []
        for text in components:
            try:
                expr = sympy.sympify(text, locals={"x": x, "y": y, "z": z,
                                                   "pi": sympy.pi})
            except (sympy.SympifyError, SyntaxError, TypeError) as exc:
                raise ConfigError(
                    f"cannot parse force component {text!r}: {exc}") from None
            extra = expr.free_symbols - {x, y, z}
            _expect(not extra,
                    f"force component {text!r} uses unknown symbols {extra}")
            fns.append(sympy.lambdify((x, y, z), expr, modules="numpy"))

        def force(pts):
            cols = [np.broadcast_to(
                np.asarray(fn(pts[:, 0], pts[:, 1], pts[:, 2]), dtype=float),
                (len(pts),)) for fn in fns]
            return np.stack(cols, axis=-1)

        return force
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
            and all(isinstance(n, int) and not isinstance(n, bool) and n >= 1
                    for n in mesh),
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
        _expect(case in MANUFACTURED,
                f"unknown case {case!r}; available: "
                f"{sorted(MANUFACTURED)}")

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
    _expect(isinstance(max_iter, int) and not isinstance(max_iter, bool)
            and max_iter >= 1, "picard.max_iter must be a positive integer")

    levels = raw.get("levels")
    if levels is not None:
        _expect(isinstance(levels, list) and len(levels) >= 2
                and all(isinstance(n, int) and not isinstance(n, bool)
                        and n >= 1 for n in levels),
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
    _expect(isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0,
            "seed must be a non-negative integer")
    if seed_override is not None:
        _expect(isinstance(seed_override, int) and seed_override >= 0,
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
    """

    name: str
    velocity: object
    velocity_grad: object
    flux: object
    pressure: object
    data_for: object
    initial_flux_for: object

    def data(self, mesh, r_e, r_m, s) -> dict:
        return self.data_for(mesh, r_e, r_m, s)

    def initial_flux(self, mesh) -> np.ndarray:
        """Interpolated exact flux; the canonical Picard starting field."""
        return self.initial_flux_for(mesh)


def _curl(v, x, y, z):
    return sympy.Matrix([v[2].diff(y) - v[1].diff(z),
                         v[0].diff(z) - v[2].diff(x),
                         v[1].diff(x) - v[0].diff(y)])


def _vec_fn(entries, syms):
    fns = [sympy.lambdify(syms, e, modules="numpy") for e in entries]

    def call(pts):
        args = (pts[:, 0], pts[:, 1], pts[:, 2])
        cols = [np.broadcast_to(np.asarray(fn(*args), dtype=float),
                                (len(pts),)) for fn in fns]
        return np.stack(cols, axis=-1)

    return call


@lru_cache(maxsize=None)
def _trig_exprs():
    x, y, z = sympy.symbols("x y z")
    pi = sympy.pi
    # velocity from squared sines: u = 0 on the whole boundary, div u = 0
    u = sympy.Matrix([
        sympy.sin(pi * x) ** 2 * sympy.sin(2 * pi * y) * sympy.sin(pi * z),
        -sympy.sin(2 * pi * x) * sympy.sin(pi * y) ** 2 * sympy.sin(pi * z),
        0])
    # flux as the curl of a sinusoidal potential: div B = 0, B.n = 0
    a = sympy.Matrix([0, 0, sympy.sin(pi * x) * sympy.sin(pi * y)])
    b = _curl(a, x, y, z)
    p = sympy.cos(pi * x) * sympy.cos(pi * y) * sympy.cos(pi * z)
    return (x, y, z), u, b, p


@lru_cache(maxsize=None)
def _trig_data_exprs():
    (x, y, z), u, b, p = _trig_exprs()
    re_, rm, s = sympy.symbols("Re Rm S", positive=True)
    j = _curl(b, x, y, z) / rm
    conv = sympy.Matrix([sum(u[k] * u[i].diff(c)
                             for k, c in enumerate((x, y, z)))
                         for i in range(3)])
    lap = sympy.Matrix([sum(u[i].diff(c, 2) for c in (x, y, z))
                        for i in range(3)])
    grad_p = sympy.Matrix([p.diff(c) for c in (x, y, z)])
    f = -lap / re_ + conv + grad_p + s * b.cross(j)
    h = (s / rm) * _curl(j - u.cross(b), x, y, z)
    return (x, y, z), (re_, rm, s), f, h


@lru_cache(maxsize=None)
def _trig_case() -> ManufacturedCase:
    syms, u, b, p = _trig_exprs()
    x, y, z = syms
    grad_rows = [_vec_fn([u[i].diff(c) for c in (x, y, z)], syms)
                 for i in range(3)]

    def velocity_grad(pts):
        return np.stack([row(pts) for row in grad_rows], axis=1)

    flux = _vec_fn(list(b), syms)

    def data_for(mesh, r_e, r_m, s):
        _, params, f, h = _trig_data_exprs()
        subs = dict(zip(params, (r_e, r_m, s)))
        return {"f": _vec_fn([e.subs(subs) for e in f], syms),
                "h": _vec_fn([e.subs(subs) for e in h], syms)}

    def initial_flux_for(mesh):
        rt = build_space(mesh, RT, essential_bc=True)
        coeffs = interpolate(rt, flux)
        coeffs[rt.boundary_dof] = 0.0
        return coeffs

    p_fn = sympy.lambdify(syms, p, modules="numpy")
    return ManufacturedCase(
        name="trig-1",
        velocity=_vec_fn(list(u), syms),
        velocity_grad=velocity_grad,
        flux=flux,
        pressure=lambda pts: np.asarray(
            p_fn(pts[:, 0], pts[:, 1], pts[:, 2]), dtype=float),
        data_for=data_for,
        initial_flux_for=initial_flux_for)


@lru_cache(maxsize=None)
def _unit_diagonal_curl():
    """Whitney function of the unit cube's one interior edge, and its curl."""
    mesh1 = build_box_mesh(1, 1, 1)
    ned1 = build_space(mesh1, NEDELEC, essential_bc=True)
    rt1 = build_space(mesh1, RT, essential_bc=False)
    pot = np.zeros(ned1.dof_count)
    pot[ned1.free_index] = 1.0
    return mesh1, ned1, rt1, pot, curl_incidence(mesh1) @ pot


@lru_cache(maxsize=None)
def _inspace_case() -> ManufacturedCase:
    # box meshes are nested under refinement, so this piecewise-constant
    # curl field lies in the face space of every level exactly
    _, ned1, rt1, pot, flux1 = _unit_diagonal_curl()

    def flux(pts):
        return point_eval(rt1, flux1, pts)

    def potential(pts):
        return point_eval(ned1, pot, pts)

    def initial_flux_for(mesh):
        ned = build_space(mesh, NEDELEC, essential_bc=True)
        coeffs = interpolate(ned, potential)
        coeffs[ned.boundary_dof] = 0.0
        return curl_incidence(mesh) @ coeffs

    def data_for(mesh, r_e, r_m, s):
        ops = discrete_ops(mesh)
        b_star = initial_flux_for(mesh)
        j0 = ops.weak_curl(b_star) / r_m
        ned, rt = ops.space_c, ops.space_d

        def force(pts):
            return s * np.cross(point_eval(rt, b_star, pts),
                                point_eval(ned, j0, pts))

        return {"f": force, "h": (s / r_m) * (ops.curl @ j0)}

    return ManufacturedCase(name="inspace-1", velocity=None,
                            velocity_grad=None, flux=flux, pressure=None,
                            data_for=data_for,
                            initial_flux_for=initial_flux_for)


MANUFACTURED = {"trig-1": _trig_case, "inspace-1": _inspace_case}


def manufactured_case(name: str) -> ManufacturedCase:
    if name not in MANUFACTURED:
        raise ConfigError(f"unknown case {name!r}; available: "
                          f"{sorted(MANUFACTURED)}")
    return MANUFACTURED[name]()


# ---------------------------------------------------------------------------
# error norms against an exact solution

def exact_errors(mesh, case: ManufacturedCase, state) -> dict:
    """Quadrature norms of the discretization error at a solver state."""
    ops = discrete_ops(mesh)
    tab = ops.tab(RULE_DEG6)
    wq, flat = tab.wq, tab.points.reshape(-1, 3)

    u_h = tab.velocity_at(state.u)
    gu_h = np.einsum("tqik,tci->tqck", tab.p2_grads, state.u[tab.vel_dofs])
    if case.velocity is not None:
        u_h = u_h - case.velocity(flat).reshape(u_h.shape)
        gu_h = gu_h - case.velocity_grad(flat).reshape(gu_h.shape)
    err_u = math.sqrt(float(
        np.sum(wq * (np.einsum("tqk,tqk->tq", u_h, u_h)
                     + np.einsum("tqij,tqij->tq", gu_h, gu_h)))))

    b_h = tab.face_at(state.B)
    db = b_h - case.flux(flat).reshape(b_h.shape)
    err_b_sq = float(np.sum(wq * np.einsum("tqk,tqk->tq", db, db)))
    # the exact flux is divergence free, so the graph defect is all discrete
    cell_div = (ops.div @ state.B) / mesh.volumes
    err_graph = math.sqrt(err_b_sq + float(np.sum(mesh.volumes
                                                  * cell_div ** 2)))

    p_h = np.einsum("qi,ti->tq", p1_values(tab.lam), state.p[mesh.tets])
    if case.pressure is not None:
        p_h = p_h - case.pressure(flat).reshape(p_h.shape)
    err_p = math.sqrt(float(np.sum(wq * p_h ** 2)))

    return {"u_h1": err_u, "b_l2": math.sqrt(err_b_sq),
            "b_graph": err_graph, "p_l2": err_p}


# ---------------------------------------------------------------------------
# runners


def _jsonable(obj):
    if isinstance(obj, dict):
        return {key: _jsonable(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(val) for val in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(val) for val in obj.tolist()]
    return obj


def _dump_json(doc) -> str:
    return json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n"


def _write_text(path, text):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


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
    return MhdParams(r_e=config.r_e, r_m=config.r_m, s=config.s,
                     **slots), case


def _initial_state(mesh, formulation, case):
    state = zero_state_be(mesh) if formulation == "BE" else zero_state_bj(mesh)
    if case is not None:
        state.B = case.initial_flux(mesh)
        state.B_prev = state.B.copy()
    return state


def _constants(mesh, seed) -> DiagnosticConstants:
    return DiagnosticConstants(c1=sobolev_embedding_constant(),
                               c2=estimate_cross_bound(mesh, trials=20,
                                                       seed=seed))


def _report_section(report):
    return {"formulation": report.formulation,
            "termination": report.termination,
            "n_iterations": report.n_iterations,
            "warnings": list(report.warnings),
            "iterations": [dict(rec) for rec in report.iterations]}


# the tet centroid as a one-point rule, for cellwise field output
_CENTROID = replace(RULE_DEG4, tet_points=np.full((1, 3), 0.25),
                    tet_weights=np.array([1.0 / 6.0]))


def _cell_fields(mesh, state):
    tab = Tabulation(mesh, _CENTROID)
    return tab.face_at(state.B)[:, 0], current_at(tab, state)[:, 0]


def _write_fields(mesh, state, path):
    nv = mesh.num_vertices
    n = nv + mesh.num_edges
    vel = np.stack([state.u[c * n:c * n + nv] for c in range(3)], axis=-1)
    b_cell, cur = _cell_fields(mesh, state)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_vtk(mesh, path,
              point_data={"velocity": vel, "pressure": state.p},
              cell_data={"flux": b_cell, "current": cur,
                         "multiplier": state.r})


def run_solve(config: RunConfig) -> dict:
    """One nonlinear solve; returns the report and writes configured files."""
    mesh = build_box_mesh(*config.mesh)
    params, case = _problem(config, mesh)
    constants = _constants(mesh, config.seed)
    state, report = solve_nonlinear(
        config.formulation, params, _initial_state(mesh, config.formulation,
                                                   case),
        rtol=config.rtol, atol=config.atol, max_iter=config.max_iter,
        constants=constants)
    doc = {
        "config": config.document,
        "mesh": _mesh_info(mesh, config.mesh),
        "constants": {"c1": constants.c1, "c2": constants.c2,
                      "poincare_div": constants.poincare_div},
        "conditions": check_small_data_conditions(params, constants, mesh),
        "picard": _report_section(report),
        "diagnostics": diagnostics(state, params),
    }
    if case is not None:
        doc["errors"] = exact_errors(mesh, case, state)
    if config.report_path is not None:
        _write_text(config.report_path, _dump_json(doc))
    if config.fields_path is not None:
        _write_fields(mesh, state, config.fields_path)
    return doc


_STUDY_COLUMNS = ("level", "h", "iterations", "converged",
                  "err_u_h1", "err_b_l2", "err_b_graph", "err_p_l2",
                  "rate_u_h1", "rate_b_l2", "rate_b_graph", "rate_p_l2")


def _study_csv(rows, aborted) -> str:
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
        lines.append(f"# study aborted: Picard hit max-iterations at "
                     f"level {aborted}")
    return "\n".join(lines) + "\n"


def run_study(config: RunConfig) -> dict:
    """Refinement sweep of a manufactured case with observed log2 rates.

    Levels are uniform subdivision counts of the unit box; consecutive
    levels are expected to halve h, which is what the log2 error ratios
    assume.  A non-converged Picard run aborts the sweep; rows computed so
    far are still emitted, with the abort flagged in the CSV.
    """
    if config.case is None:
        raise ConfigError("a refinement study needs a manufactured case")
    if config.levels is None:
        raise ConfigError("a refinement study needs refinement levels")
    case = manufactured_case(config.case)
    rows = []
    aborted = None
    for level in config.levels:
        mesh = build_box_mesh(level, level, level)
        params, _ = _problem(config, mesh)
        # only the B-E driver reads the constants (its small-Re check)
        constants = (_constants(mesh, config.seed)
                     if config.formulation == "BE" else None)
        state, report = solve_nonlinear(
            config.formulation, params,
            _initial_state(mesh, config.formulation, case),
            rtol=config.rtol, atol=config.atol, max_iter=config.max_iter,
            constants=constants)
        errs = exact_errors(mesh, case, state)
        rows.append({"level": level, "h": mesh.h,
                     "iterations": report.n_iterations,
                     "converged": report.termination == "converged",
                     "err_u_h1": errs["u_h1"], "err_b_l2": errs["b_l2"],
                     "err_b_graph": errs["b_graph"],
                     "err_p_l2": errs["p_l2"]})
        if report.termination != "converged":
            aborted = level
            break
    for prev, row in zip(rows, rows[1:]):
        for key in ("u_h1", "b_l2", "b_graph", "p_l2"):
            e0, e1 = prev[f"err_{key}"], row[f"err_{key}"]
            if e0 > 0.0 and e1 > 0.0:
                row[f"rate_{key}"] = math.log2(e0 / e1)
    text = _study_csv(rows, aborted)
    if config.csv_path is not None:
        _write_text(config.csv_path, text)
    return {"rows": rows, "aborted": aborted, "csv": text}


def _poly_probe():
    def value(x):
        return np.column_stack([x[:, 0] ** 2 + x[:, 1],
                                x[:, 1] * x[:, 2],
                                x[:, 0] - x[:, 2] ** 2])

    def curl(x):
        ones = np.ones(len(x))
        return np.column_stack([-x[:, 1], -ones, -ones])

    def div(x):
        return 2.0 * x[:, 0] - x[:, 2]

    return AnalyticField(value=value, curl=curl, div=div)


def _relative_worsts(report, mesh, u_floor):
    gauss, mult, energy = 0.0, 0.0, 0.0
    for rec in report.iterations:
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
    mesh = build_box_mesh(*config.mesh)
    product = div_incidence(mesh) @ curl_incidence(mesh)
    dims = {
        "h1": build_space(mesh, P1, essential_bc=True).n_free,
        "hcurl": build_space(mesh, NEDELEC, essential_bc=True).n_free,
        "hdiv": build_space(mesh, RT, essential_bc=True).n_free,
        "l2_mean_free": mesh.num_tets - 1,
    }
    dim_sum = dims["h1"] - dims["hcurl"] + dims["hdiv"] - dims["l2_mean_free"]

    poincare = (estimate_poincare_constant(mesh)
                if dims["hdiv"] <= POINCARE_DOF_LIMIT else None)
    constants = _constants(mesh, config.seed)

    params, case = _problem(config, mesh)
    try:
        state, report = solve_nonlinear(
            config.formulation, params,
            _initial_state(mesh, config.formulation, case),
            rtol=config.rtol, atol=config.atol, max_iter=config.max_iter,
            constants=constants)
    except SingularSystemError as exc:
        # meshes too coarse for the velocity-pressure pair still get the
        # complex and constant sections; record why the solve is missing
        structure = {"formulation": config.formulation,
                     "termination": "singular-step", "message": str(exc),
                     "iterations": [], "checks": {}}
    else:
        conditions = check_small_data_conditions(params, constants, mesh)
        u_floor = 1e-10 * 2.0 * params.r_e * conditions["f_dual_bound"]
        gauss, mult, energy = _relative_worsts(report, mesh, u_floor)

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
        checks = {
            "gauss_law": check(gauss, 1e-12, True),
            "multiplier": check(mult, 1e-10, f_only),
            "energy": check(energy, 1e-10, f_only),
        }
        diag = diagnostics(state, params)
        if config.formulation == "BJ":
            for key in ("elimination_j", "elimination_sigma"):
                checks[key] = check(diag[key], 1e-10, True)
        structure = {"formulation": config.formulation,
                     "termination": report.termination,
                     "iterations": [dict(rec) for rec in report.iterations],
                     "checks": checks}

    doc = {
        "config": config.document,
        "mesh": _mesh_info(mesh, config.mesh),
        "complex": {
            "incidence_product_max": float(np.abs(product).max())
            if product.nnz else 0.0,
            "dimensions": dims,
            "dimension_sum": dim_sum,
        },
        "commuting": check_commuting(mesh, _poly_probe()),
        "constants": {"c1": constants.c1, "c2": constants.c2,
                      "poincare_div": poincare},
        "structure": structure,
    }
    if config.report_path is not None:
        _write_text(config.report_path, _dump_json(doc))
    return doc
