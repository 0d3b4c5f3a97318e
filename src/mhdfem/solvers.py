"""Picard steps and the outer nonlinear loop for stationary MHD.

Two linearizations of the coupled momentum/induction system are run over
the discrete de Rham spaces: an electric-field step in (u, E, B, p, r)
and a current-based step in (u, j, sigma, B, p, r).  The zero-mean
constraints on p and r are enforced by explicit scalar multipliers, so
every step system is square once the essential boundary conditions are
eliminated symmetrically.

Only the convection and cross-coupling blocks depend on the iterate.  The
rest, a Stokes block over (u, p) and a Maxwell block over the
electromagnetic unknowns, is reduced and both blocks are factored once per
mesh and parameter set, in a step plan that also maps every entry of the
iterate blocks' element arrays to its place in one fixed reduced CSR
pattern.  A step computes those element arrays, scatters them onto the
fixed values with one bincount, and solves by GMRES preconditioned with
the factored blocks (linalg.solve_preconditioned), falling back to a
direct factorization of the whole step when GMRES stalls.

The magnetic field lives in the face-element space, where every
candidate's divergence is piecewise constant, and the multiplier r tests
it against all zero-mean piecewise constants; together these force the
divergence of every accepted iterate to vanish identically, not just
weakly.  diagnostics() re-measures that, the nullity of r, and the
energy balance for any iterate.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assembly import (ELEMENT_KERNELS, RULE_DEG4, RULE_DEG6, Tabulation,
                       apply_essential_bc, assemble_load, element_dofs)
from .derham import AnalyticField, FeSpace
# solve_direct stays importable from this module: perfbench's tracing test
# calls it as mhdfem.solvers.solve_direct
from .linalg import (BlockFactors, BlockSystem, SingularSystemError,  # noqa: F401
                     factor_blocks, solve_direct, solve_preconditioned)
from .mesh import Mesh
from .operators import (DiagnosticConstants, DiscreteOps, discrete_ops,
                        estimate_cross_bound, poincare_h01_box,
                        sobolev_embedding_constant)


@dataclass(frozen=True)
class MhdParams:
    """Physical numbers and right-hand-side data of one nonlinear problem.

    r_e, r_m and s are the fluid Reynolds, magnetic Reynolds and coupling
    numbers; all three must be positive.  The two data slots load the test
    space of the equation they feed: f the velocity space (the body
    force), h the face-element space (the induction equation).  Each slot
    accepts None, a callable of points (n, 3), an AnalyticField, or a
    coefficient vector in the matching space (paired through that space's
    mass matrix).  The solver computes the loads of one parameter object
    once per mesh, so data must not change after construction.
    """

    r_e: float
    r_m: float
    s: float
    f: object = None
    h: object = None

    def __post_init__(self):
        for name in ("r_e", "r_m", "s"):
            val = float(getattr(self, name))
            if not math.isfinite(val) or val <= 0.0:
                raise ValueError(f"{name} must be positive and finite")
            object.__setattr__(self, name, val)


@dataclass(eq=False)
class MhdStateBE:
    """Electric-field iterate (u, E, B, p, r).

    B_prev is the magnetic field the step was linearized around; the
    current density of this iterate is the L2 function E + u x B_prev.
    linear_solve is the record of the linear solve that produced the
    iterate (see PicardReport), None for a state no step produced.
    """

    mesh: Mesh
    u: np.ndarray
    E: np.ndarray
    B: np.ndarray
    p: np.ndarray
    r: np.ndarray
    B_prev: np.ndarray
    linear_solve: dict | None = None


@dataclass(eq=False)
class MhdStateBJ:
    """Current-based iterate (u, j, sigma, B, p, r); B_prev and
    linear_solve as in MhdStateBE."""

    mesh: Mesh
    u: np.ndarray
    j: np.ndarray
    sigma: np.ndarray
    B: np.ndarray
    p: np.ndarray
    r: np.ndarray
    B_prev: np.ndarray
    linear_solve: dict | None = None


def zero_state_be(mesh: Mesh) -> MhdStateBE:
    nv, ne, nf = mesh.num_vertices, mesh.num_edges, mesh.num_faces
    return MhdStateBE(mesh=mesh, u=np.zeros(3 * (nv + ne)), E=np.zeros(ne),
                      B=np.zeros(nf), p=np.zeros(nv),
                      r=np.zeros(mesh.num_tets), B_prev=np.zeros(nf))


def zero_state_bj(mesh: Mesh) -> MhdStateBJ:
    nv, ne, nf = mesh.num_vertices, mesh.num_edges, mesh.num_faces
    return MhdStateBJ(mesh=mesh, u=np.zeros(3 * (nv + ne)), j=np.zeros(ne),
                      sigma=np.zeros(ne), B=np.zeros(nf), p=np.zeros(nv),
                      r=np.zeros(mesh.num_tets), B_prev=np.zeros(nf))


@dataclass
class PicardReport:
    """Outcome of a nonlinear solve.

    iterations holds one record per Picard step: increment norms, the
    increment energy (weighted velocity gradient plus current terms), its
    ratio against the previous step (recorded from the second step on),
    the structure diagnostics of the new iterate, and linear_solve: the
    step's reduced system size (unknowns), its GMRES iterations
    (krylov_iterations), the achieved |b - Ax| / (|A|_F |x| + |b|)
    (relative_residual), and whether the step fell back to a direct
    factorization of the whole system (fallback).  Every entry is a
    deterministic function of the inputs.  termination is "converged" or
    "max-iterations"; non-convergence is never raised.
    """

    formulation: str
    termination: str
    iterations: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    condition_report: dict | None = None

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    def ratios(self) -> list:
        return [rec["ratio"] for rec in self.iterations
                if rec["ratio"] is not None]


# ---------------------------------------------------------------------------
# loads and norms on the mesh's context


def _load_vector(space: FeSpace, data, mass) -> np.ndarray:
    if data is None:
        return np.zeros(space.dof_count)
    if isinstance(data, AnalyticField):
        data = data.value
    if callable(data):
        return assemble_load(space, data, RULE_DEG6)
    vec = np.asarray(data, dtype=float)
    if vec.shape != (space.dof_count,):
        raise ValueError(
            f"data for the {space.kind.tag} slot must be callable or a "
            f"coefficient vector of length {space.dof_count}")
    return mass @ vec


def _loads(ops: DiscreteOps, params: MhdParams) -> dict:
    """Full-length load vectors of params' data slots and the L2 norm of f
    (f_l2), computed once per parameter object and mesh."""
    if not ops.loads or ops.loads[0] is not params:
        ops.loads[:] = [params, {
            "f": _load_vector(ops.vel, params.f, ops.vel_mass),
            "h": _load_vector(ops.space_d, params.h, ops.M_d),
            "f_l2": _data_l2(ops, params.f, ops.vel_mass),
        }]
    return ops.loads[1]


def _data_l2(ops: DiscreteOps, data, mass) -> float:
    """L2 norm of one data slot, by quadrature when the data is analytic."""
    if data is None:
        return 0.0
    if isinstance(data, AnalyticField):
        data = data.value
    if callable(data):
        tab = ops.tab(RULE_DEG6)
        vals = np.asarray(data(tab.points.reshape(-1, 3)), dtype=float)
        vals = vals.reshape(*tab.wq.shape, -1)
        return math.sqrt(_quad_l2sq(tab, vals))
    vec = np.asarray(data, dtype=float)
    return math.sqrt(float(vec @ (mass @ vec)))


def _quad_l2sq(tab: Tabulation, field_at: np.ndarray) -> float:
    """Squared L2 norm of a vector field given at the rule's points."""
    return float(np.sum(tab.wq * np.einsum("tqk,tqk->tq", field_at, field_at)))


def _h1_velocity(ops: DiscreteOps, v: np.ndarray) -> float:
    return math.sqrt(float(v @ (ops.vel_mass @ v))
                     + float(v @ (ops.lap @ v)))


# ---------------------------------------------------------------------------
# linearized systems

# p, r and the scalar mean multipliers carry no essential condition
_SPACE_OF = {"u": "vel", "E": "edge", "j": "edge", "sigma": "edge", "B": "face"}
_UNKNOWNS = {"BE": ("u", "E", "B", "p", "r", "mp", "mr"),
             "BJ": ("u", "j", "sigma", "B", "p", "r", "mp", "mr")}
# the Stokes block; every other unknown belongs to the Maxwell block
_STOKES = ("u", "p", "mp")


def _essential_masks(ops: DiscreteOps, formulation: str) -> dict:
    spaces = {"vel": ops.vel, "edge": ops.space_c, "face": ops.space_d}
    return {n: spaces[_SPACE_OF[n]].boundary_dof
            for n in _UNKNOWNS[formulation] if n in _SPACE_OF}


def _linear_system(ops: DiscreteOps, formulation: str,
                   params: MhdParams) -> BlockSystem:
    """The data-independent part of a step: Stokes (+) Maxwell, uncoupled."""
    re, rm, s = params.r_e, params.r_m, params.s
    dims = {"u": ops.vel.dof_count, "E": ops.space_c.dof_count,
            "j": ops.space_c.dof_count, "sigma": ops.space_c.dof_count,
            "B": ops.space_d.dof_count, "p": ops.pres.dof_count,
            "r": ops.mult.dof_count, "mp": 1, "mr": 1}
    system = BlockSystem([(n, dims[n]) for n in _UNKNOWNS[formulation]])
    system.add_block("u", "u", (1.0 / re) * ops.lap)
    system.add_block("u", "p", -ops.bdiv.T)
    system.add_block("p", "u", -ops.bdiv)
    if formulation == "BE":
        system.add_block("E", "E", s * ops.M_c)
        system.add_block("E", "B", -(s / rm) * ops.K_cd.T)
        system.add_block("B", "E", (s / rm) * ops.K_cd)
    else:
        system.add_block("j", "j", s * ops.M_c)
        system.add_block("j", "B", -(s / rm) * ops.K_cd.T)
        system.add_block("sigma", "sigma", (s / rm) * ops.M_c)
        system.add_block("B", "j", (s / rm) * ops.K_cd)
        system.add_block("B", "sigma", -(s / rm) * ops.K_cd)
    system.add_block("B", "r", ops.div.T)
    system.add_block("r", "B", ops.div)
    vols = ops.mesh.volumes
    system.add_block("p", "mp", ops.mean_p[:, None])
    system.add_block("mp", "p", ops.mean_p[None, :])
    system.add_block("r", "mr", vols[:, None])
    system.add_block("mr", "r", vols[None, :])
    return system


# iterate-dependent blocks: (row unknown, col unknown, element kernel,
# transposed, coefficient as a function of (r_m, s))
_ITERATE = {
    "BE": (("u", "u", "convection", False, lambda rm, s: 1.0),
           ("u", "u", "cross_cross", False, lambda rm, s: s),
           ("u", "E", "cross", True, lambda rm, s: s),
           ("E", "u", "cross", False, lambda rm, s: s)),
    "BJ": (("u", "u", "convection", False, lambda rm, s: 1.0),
           ("u", "j", "cross", True, lambda rm, s: s),
           ("sigma", "u", "cross", False, lambda rm, s: -s / rm)),
}
# load slot feeding each unknown's rows; every other row gets zero
_RHS_SLOT = {"u": "f", "B": "h"}


@dataclass(frozen=True, eq=False)
class _StepPlan:
    """What every Picard step of one (formulation, r_e, r_m, s) reuses.

    unknowns: (name, full length, free indices) in system order.  pattern:
    the reduced step matrix's CSR pattern (zero values), the union of the
    linear system and every _ITERATE block.  slots: the pattern position of
    each entry of fixed (the linear system's values), then of each
    _ITERATE block's element array; nnz, a dump slot, for entries in
    constrained rows or columns.  factors: the factored Stokes and Maxwell blocks, None
    when one is singular.  rhs: [params, reduced right-hand side].
    """

    key: tuple
    unknowns: list
    pattern: sp.csr_matrix
    fixed: np.ndarray
    slots: np.ndarray
    factors: BlockFactors | None
    rhs: list = field(default_factory=list)


def _step_plan(ops: DiscreteOps, formulation: str,
               params: MhdParams) -> _StepPlan:
    """The step plan, cached on the mesh's context, one per formulation."""
    key = (params.r_e, params.r_m, params.s)
    plan = ops.plans.get(formulation)
    if plan is not None and plan.key == key:
        return plan
    system = _linear_system(ops, formulation, params)
    masks = _essential_masks(ops, formulation)
    reduced = apply_essential_bc(system, masks)
    fixed, _ = reduced.assemble()
    index = reduced.split(np.arange(reduced.size))
    n, spaces = reduced.size, system.spaces
    del system, reduced  # block copies of what fixed holds

    # full DOF of each unknown -> reduced unknown, -1 where constrained
    unknowns, to_reduced = [], {}
    for name, dim in spaces:
        free = (np.flatnonzero(~masks[name]) if name in masks
                else np.arange(dim))
        unknowns.append((name, dim, free))
        to_reduced[name] = np.full(dim, -1, dtype=np.int64)
        to_reduced[name][free] = index[name]
    # reduced row * n + col of every entry, -1 where constrained
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(fixed.indptr))
    keys = [rows * n + fixed.indices]
    for rname, cname, kernel, transposed, _ in _ITERATE[formulation]:
        r, c = element_dofs(ops.mesh, kernel)
        if transposed:
            r, c = c, r
        r, c = np.broadcast_arrays(to_reduced[rname][r], to_reduced[cname][c])
        keys.append(np.where((r >= 0) & (c >= 0), r * n + c, -1).ravel())
    keys = np.concatenate(keys)
    used = np.unique(keys[keys >= 0])
    slots = np.searchsorted(used, keys)
    slots[keys < 0] = used.size
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(used // n, minlength=n), out=indptr[1:])
    # the map's temporaries are freed before the blocks are factored, so
    # the factorization reuses their memory and peak memory stays lower
    del keys
    try:
        factors = factor_blocks(
            fixed, np.concatenate([index[u] for u in _STOKES]))
    except SingularSystemError:
        factors = None
    plan = ops.plans[formulation] = _StepPlan(
        key=key, unknowns=unknowns, fixed=fixed.data, slots=slots,
        pattern=sp.csr_matrix((np.zeros(used.size), used % n, indptr),
                              shape=(n, n)),
        factors=factors)
    return plan


def _step_system(ops: DiscreteOps, formulation: str, prev,
                 params: MhdParams) -> tuple:
    """(plan, reduced matrix, reduced right-hand side) of one Picard step.

    The element arrays of the iterate-dependent blocks are scattered with
    one bincount onto the fixed values; it sums in a fixed order, so the
    matrix is a deterministic function of (prev, params).
    """
    # loads first: their temporaries then fit in memory the factorization
    # of a new plan reuses
    loads = _loads(ops, params)
    plan = _step_plan(ops, formulation, params)
    # weights in slots order: the fixed values, then each block's elements
    weights = np.empty(plan.slots.size)
    off = plan.fixed.size
    weights[:off] = plan.fixed
    elems = {}
    for _, _, kernel, _, coef in _ITERATE[formulation]:
        if kernel not in elems:
            func, rule = ELEMENT_KERNELS[kernel]
            elems[kernel] = func(ops.tab(rule), prev.u
                                 if kernel == "convection" else prev.B)
        elem = elems[kernel]
        np.multiply(coef(params.r_m, params.s), elem,
                    out=weights[off:off + elem.size].reshape(elem.shape))
        off += elem.size
    nnz = plan.pattern.nnz
    data = np.bincount(plan.slots, weights, minlength=nnz + 1)[:nnz]
    a = sp.csr_matrix((data, plan.pattern.indices, plan.pattern.indptr),
                      shape=plan.pattern.shape)
    if not plan.rhs or plan.rhs[0] is not params:
        plan.rhs[:] = [params, np.concatenate([
            loads[_RHS_SLOT[name]][free] if name in _RHS_SLOT
            else np.zeros(free.size) for name, _, free in plan.unknowns])]
    return plan, a, plan.rhs[1]


_SINGULAR_STEP = {
    "BE": "B-E regime violation: the linearized electric-field step is "
          "singular.  It is only guaranteed uniquely solvable under the "
          "stringent small-Reynolds condition "
          "R_e <= 2 / (sqrt(5) C2 |f|_(-1)); rescale the data, refine the "
          "mesh, or switch to the current-based formulation.",
    "BJ": "singular current-based step: this linearization is uniquely "
          "solvable for any positive parameters, so a singular system "
          "indicates an implementation bug (or a mesh with too few "
          "interior velocity nodes to carry the pressure space).",
}


def _picard_step(prev, params: MhdParams, formulation: str) -> tuple:
    plan, a, b = _step_system(discrete_ops(prev.mesh), formulation, prev,
                              params)
    try:
        x, record = solve_preconditioned(a, b, plan.factors)
    except SingularSystemError as exc:
        raise SingularSystemError(
            _SINGULAR_STEP[formulation], pivot_index=exc.pivot_index,
            unknown_index=exc.unknown_index) from exc
    parts, off = {}, 0
    for name, dim, free in plan.unknowns:
        parts[name] = np.zeros(dim)
        parts[name][free] = x[off:off + free.size]
        off += free.size
    return parts, record


def be_picard_step(prev: MhdStateBE, params: MhdParams) -> MhdStateBE:
    """One electric-field solve linearized around (prev.u, prev.B)."""
    parts, record = _picard_step(prev, params, "BE")
    return MhdStateBE(mesh=prev.mesh, u=parts["u"], E=parts["E"],
                      B=parts["B"], p=parts["p"], r=parts["r"],
                      B_prev=prev.B.copy(), linear_solve=record)


def bj_picard_step(prev: MhdStateBJ, params: MhdParams) -> MhdStateBJ:
    """One current-based solve linearized around (prev.u, prev.B)."""
    parts, record = _picard_step(prev, params, "BJ")
    return MhdStateBJ(mesh=prev.mesh, u=parts["u"], j=parts["j"],
                      sigma=parts["sigma"], B=parts["B"], p=parts["p"],
                      r=parts["r"], B_prev=prev.B.copy(), linear_solve=record)


# ---------------------------------------------------------------------------
# structure diagnostics


def current_at(tab: Tabulation, state) -> np.ndarray:
    """The iterate's current density at the rule's points, (T, nq, 3): j
    for a current-based state, E + u x B_prev for an electric-field one."""
    if isinstance(state, MhdStateBJ):
        return tab.edge_at(state.j)
    return tab.edge_at(state.E) + np.cross(tab.velocity_at(state.u),
                                           tab.face_at(state.B_prev))


def diagnostics(state, params: MhdParams) -> dict:
    """Measure the preserved structures of one iterate.

    Keys: div_b_max (largest elementwise |div B|), b_l2, multiplier_norm
    (L2 norm of r), energy_work (the discrete <f, u>), energy_residual
    (|R_e^-1 |grad u|^2 + S |j|^2 - <f, u>|, with j = E + u x B_prev for
    electric-field states), energy_scale (pre-cancellation magnitude of the
    identity, the denominator for a relative check), and energy_slack (gap
    left in the a-priori energy bound, None when the mesh carries no box
    geometry for the Poincare constant).  Current-based states add curl_j_sigma
    (|curl(j - sigma)|) and the relative defects elimination_j and
    elimination_sigma of the identities that would eliminate j and sigma.
    All structural values are exactly zero for the zero state with no
    data.
    """
    ops = discrete_ops(state.mesh)
    mesh = state.mesh
    vols = mesh.volumes

    out = {"div_b_max": float(np.abs((ops.div @ state.B) / vols).max()),
           "b_l2": math.sqrt(float(state.B @ (ops.M_d @ state.B))),
           "multiplier_norm": math.sqrt(float(vols @ (state.r ** 2)))}

    loads = _loads(ops, params)
    grad2 = float(state.u @ (ops.lap @ state.u))
    work = float(loads["f"] @ state.u)
    if isinstance(state, MhdStateBJ):
        j2 = float(state.j @ (ops.M_c @ state.j))
    else:
        tab = ops.tab(RULE_DEG6)
        j2 = _quad_l2sq(tab, current_at(tab, state))
    out["energy_work"] = work
    out["energy_residual"] = abs(grad2 / params.r_e + params.s * j2 - work)
    # magnitude of the terms the identity cancels; the roundoff floor for
    # the residual.  The pressure pairing matters for gradient-type forces
    # whose exact velocity is zero.
    p_norm = math.sqrt(float(state.p @ (ops.pres_mass @ state.p)))
    out["energy_scale"] = (abs(work) + grad2 / params.r_e + params.s * j2
                           + p_norm * float(np.linalg.norm(ops.bdiv
                                                           @ state.u)))
    out["energy_slack"] = None
    if mesh.box is not None:
        dual = poincare_h01_box(mesh.box) * loads["f_l2"]
        out["energy_slack"] = (0.5 * params.r_e * dual ** 2
                               - 0.5 * grad2 / params.r_e - params.s * j2)

    if isinstance(state, MhdStateBJ):
        free = ops.space_c.free_index
        dcurl = ops.curl @ (state.j - state.sigma)
        out["curl_j_sigma"] = math.sqrt(float(dcurl @ (ops.M_d @ dcurl)))

        s, rm = params.s, params.r_m
        # (u x B_prev, w_e) for every edge function, the product of the
        # velocity-edge CrossCoupling matrix with u
        tab = ops.tab(RULE_DEG4)
        cross_u = tab.edge_load(np.cross(tab.velocity_at(state.u),
                                         tab.face_at(state.B_prev)))
        lhs_j = s * (ops.M_c @ state.j)
        rhs_j = (s / rm) * (ops.K_cd.T @ state.B)
        lhs_s = (s / rm) * (ops.M_c @ state.sigma)
        rhs_s = (s / rm) * cross_u
        for key, lhs, rhs in (("elimination_j", lhs_j, rhs_j),
                              ("elimination_sigma", lhs_s, rhs_s)):
            num = float(np.linalg.norm(lhs[free] - rhs[free]))
            scale = max(float(np.linalg.norm(lhs[free])),
                        float(np.linalg.norm(rhs[free])))
            out[key] = num / scale if scale > 0.0 else num
    return out


# ---------------------------------------------------------------------------
# convergence conditions and the outer loop


def check_small_data_conditions(params: MhdParams,
                                constants: DiagnosticConstants,
                                mesh: Mesh) -> dict:
    """Evaluate the sufficient conditions for Picard contraction, plus the
    small-Reynolds solvability condition of the electric-field step.

    |f|_(-1) is upper-bounded by C_P |f| with the box Poincare constant,
    so every "satisfied" flag is conservative.  contraction_satisfied
    ands the two contraction flags; the small_re entry only concerns the
    electric-field formulation.
    """
    if mesh.box is None:
        raise ValueError("condition check needs a box mesh for the "
                         "Poincare bound on |f|_(-1)")
    f_l2 = _loads(discrete_ops(mesh), params)["f_l2"]
    dual = poincare_h01_box(mesh.box) * f_l2
    c1, c2 = constants.c1, constants.c2
    re, rm = params.r_e, params.r_m
    lhs1 = (c1 ** 2 * re ** 2 * dual
            + 2.0 * c1 ** 4 * re ** 4 * dual ** 2
            + 8.0 * c2 ** 2 * re ** 2 * rm ** 3 * dual ** 2)
    lhs2 = 16.0 * rm ** 4 * c2 ** 2 * re ** 2 * dual ** 2
    re_limit = math.inf if dual == 0.0 else 2.0 / (math.sqrt(5.0) * c2 * dual)
    report = {
        "f_l2": f_l2,
        "f_dual_bound": dual,
        "c1": c1,
        "c2": c2,
        "condition1": {"lhs": lhs1, "limit": 1.0, "satisfied": lhs1 <= 1.0},
        "condition2": {"lhs": lhs2, "limit": 1.0, "satisfied": lhs2 <= 1.0},
        "small_re": {"lhs": re, "limit": re_limit,
                     "satisfied": re <= re_limit},
    }
    report["contraction_satisfied"] = (report["condition1"]["satisfied"]
                                       and report["condition2"]["satisfied"])
    return report


def solve_nonlinear(formulation: str, params: MhdParams, initial,
                    rtol: float = 1e-9, atol: float = 1e-12,
                    max_iter: int = 100,
                    constants: DiagnosticConstants | None = None):
    """Picard-iterate one formulation to a fixed point.

    Stops once |u^n - u^(n-1)|_1 + |B^n - B^(n-1)|_d falls below
    rtol (|u^n|_1 + |B^n|_d) + atol, or after max_iter steps; returns
    (state, PicardReport) in both cases, with the termination reason in
    the report rather than an exception.

    For the electric-field formulation the convergence conditions are
    evaluated up front (probing the cross-product constant on the mesh
    unless constants are supplied) and a small-Reynolds violation is
    attached as a warning; the solve proceeds, since the condition is
    sufficient but not necessary.
    """
    if formulation not in ("BE", "BJ"):
        raise ValueError(f"unknown formulation {formulation!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    expected = MhdStateBE if formulation == "BE" else MhdStateBJ
    if not isinstance(initial, expected):
        raise TypeError(f"initial state for {formulation} must be "
                        f"{expected.__name__}")

    mesh = initial.mesh
    ops = discrete_ops(mesh)
    step = be_picard_step if formulation == "BE" else bj_picard_step

    warns = []
    condition_report = None
    if formulation == "BE" and mesh.box is not None:
        if constants is None:
            constants = DiagnosticConstants(c1=sobolev_embedding_constant(),
                                            c2=estimate_cross_bound(mesh,
                                                                    trials=20))
        condition_report = check_small_data_conditions(params, constants, mesh)
        if not condition_report["small_re"]["satisfied"]:
            msg = ("electric-field step outside the guaranteed regime: "
                   f"R_e = {params.r_e:.6g} exceeds the bound "
                   f"{condition_report['small_re']['limit']:.6g}; proceeding, "
                   "but the linearized systems may be singular")
            warnings.warn(msg, RuntimeWarning)
            warns.append(msg)

    state = initial
    records = []
    prev_energy = None
    termination = "max-iterations"
    # the B-E current is an L2 function, differenced at the degree-6 points;
    # each iterate's values are carried to the next step
    tab = ops.tab(RULE_DEG6)
    cur = current_at(tab, state) if formulation == "BE" else None
    for n in range(1, max_iter + 1):
        new = step(state, params)
        du = new.u - state.u
        grad2 = float(du @ (ops.lap @ du))
        inc_u = math.sqrt(float(du @ (ops.vel_mass @ du)) + grad2)
        inc_b = ops.norm_d(new.B - state.B)
        if formulation == "BJ":
            dj = new.j - state.j
            ej2 = float(dj @ (ops.M_c @ dj))
        else:
            prev_cur, cur = cur, current_at(tab, new)
            ej2 = _quad_l2sq(tab, cur - prev_cur)
        energy = 0.5 * grad2 / params.r_e + 0.5 * params.s * ej2 / params.r_m
        ratio = None
        if n >= 2 and prev_energy is not None and prev_energy > 0.0:
            ratio = energy / prev_energy
        diag = diagnostics(new, params)
        u_h1 = _h1_velocity(ops, new.u)
        b_d = ops.norm_d(new.B)
        records.append({
            "iteration": n,
            "increment_u_h1": inc_u,
            "increment_b_graph": inc_b,
            "increment_j_l2": math.sqrt(ej2),
            "energy": energy,
            "ratio": ratio,
            "u_h1": u_h1,
            "b_l2": diag["b_l2"],
            "div_b_max": diag["div_b_max"],
            "multiplier_norm": diag["multiplier_norm"],
            "energy_work": diag["energy_work"],
            "energy_residual": diag["energy_residual"],
            "energy_scale": diag["energy_scale"],
            "linear_solve": new.linear_solve,
        })
        state = new
        prev_energy = energy
        if inc_u + inc_b <= rtol * (u_h1 + b_d) + atol:
            termination = "converged"
            break

    report = PicardReport(formulation=formulation, termination=termination,
                          iterations=records, warnings=warns,
                          condition_report=condition_report)
    return state, report
