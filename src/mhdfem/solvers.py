"""Picard steps and the outer nonlinear loop for stationary MHD.

Two linearizations of the coupled momentum/induction system are run over
the discrete de Rham spaces: an electric-field step in (u, E, B, p, r)
and a current-based step in (u, j, sigma, B, p, r).  The zero-mean
constraints on p and r are enforced by explicit scalar multipliers, so
every step system is square once the essential boundary conditions are
eliminated symmetrically.

Each step is written once, as a block table (_FORMULATIONS); only the
convection and cross-coupling blocks, element kernels, depend on the
iterate.  Once per mesh and parameter set a step plan (_step_plan) maps
every block entry in a free row and column to its place in one reduced
CSR pattern and solves the two diagonal blocks of the fixed part: the
Stokes block S over (u, p, mp) through its pressure Schur complement
(_StokesSolve), the Maxwell block K over the other unknowns through a
tree-cotree vector potential, so that Gauss's law holds by construction
(_MaxwellSolve).  Both only scale the context's factors, which are made
once per mesh at unit parameters (DiscreteOps).  A step scatters the
entries of the element arrays onto the fixed values with one bincount
and solves by GMRES from the previous iterate, preconditioned with the
block solves (linalg.solve_preconditioned).  Nothing factors the whole
step.  A mesh too coarse for the velocity-pressure pair raises
SingularSystemError; a step whose GMRES stalls ends the run with
termination "linear-stall".

The magnetic field lives in the face-element space, where every
candidate's divergence is piecewise constant, and the multiplier r tests
it against all zero-mean piecewise constants; together these force the
divergence of every accepted iterate to vanish identically, not just
weakly.  diagnostics() re-measures that, the nullity of r, and the
energy balance for any iterate.  check_small_data_conditions evaluates
the paper's sufficient conditions; the loop itself checks none.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from weakref import WeakKeyDictionary

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lu_solve

from . import assembly
from .assembly import (KERNEL_RULES, RULE_DEG4, RULE_DEG6, Tabulation,
                       assemble_load, element_dofs, quadrature_points)
from .derham import FeSpace
# solve_direct stays importable from this module: perfbench's tracing test
# calls it as mhdfem.solvers.solve_direct
from .linalg import (BlockFactors, LinearStallError,  # noqa: F401
                     solve_direct, solve_preconditioned)
from .mesh import Mesh
from .operators import (POINCARE_H01, SOBOLEV_L6, DiscreteOps,
                        discrete_ops, estimate_cross_bound)


@dataclass(frozen=True)
class MhdParams:
    """Physical numbers and right-hand-side data of one nonlinear problem.

    r_e, r_m and s are the fluid Reynolds, magnetic Reynolds and coupling
    numbers; all three must be positive.  The two data slots load the test
    space of the equation they feed: f the velocity space (the body
    force), h the face-element space (the induction equation).  Each slot
    accepts None, a callable of points (n, 3) returning (n, 3) values, or
    a coefficient vector in the matching space (paired through that
    space's mass matrix).  The solver evaluates a callable once per mesh,
    at the degree-6 points, and computes the loads of one parameter object
    once per mesh, so data must not change after construction.  _loaded
    holds them per mesh, weakly, so they go with the mesh.
    """

    r_e: float
    r_m: float
    s: float
    f: object = None
    h: object = None
    _loaded: WeakKeyDictionary = field(default_factory=WeakKeyDictionary,
                                       init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("r_e", "r_m", "s"):
            val = float(getattr(self, name))
            if not math.isfinite(val) or val <= 0.0:
                raise ValueError(f"{name} must be positive and finite")
            object.__setattr__(self, name, val)


@dataclass(eq=False)
class MhdState:
    """One Picard iterate of either formulation.

    formulation is "BE" for an electric-field iterate (u, E, B, p, r) or
    "BJ" for a current-based one (u, j, sigma, B, p, r); the fields of the
    other formulation are None.  B_prev is the magnetic field the step was
    linearized around; the current density of an electric-field iterate is
    the L2 function E + u x B_prev.  linear_solve is the record of the
    linear solve that produced the iterate (see solve_nonlinear), None for
    a state no step produced.
    """

    formulation: str
    mesh: Mesh
    u: np.ndarray
    B: np.ndarray
    p: np.ndarray
    r: np.ndarray
    B_prev: np.ndarray
    E: np.ndarray | None = None
    j: np.ndarray | None = None
    sigma: np.ndarray | None = None
    linear_solve: dict | None = None


def zero_state(mesh: Mesh, formulation: str) -> MhdState:
    """The zero iterate of one formulation on mesh."""
    ops = discrete_ops(mesh)
    fields = {name: np.zeros(getattr(ops, space).dof_count)
              for name, space in _FORMULATIONS[formulation].unknowns if space}
    return MhdState(formulation, mesh, B_prev=np.zeros(ops.space_d.dof_count),
                    **fields)


# perfbench's checks start their B-E solves from zero_state_be
def zero_state_be(mesh: Mesh) -> MhdState:
    return zero_state(mesh, "BE")


# ---------------------------------------------------------------------------
# loads and norms on the mesh's context


def _checked(vals: np.ndarray, want: tuple, slot: str) -> np.ndarray:
    """vals, or ValueError, starting "data slot <slot>", when they are not
    shaped want or not finite."""
    if vals.shape != want:
        raise ValueError(
            f"data slot {slot} must be callable with one 3-vector per point "
            f"or a coefficient vector of its space; got shape {vals.shape}, "
            f"not {want}")
    if not np.isfinite(vals).all():
        raise ValueError(f"data slot {slot} is not finite")
    return vals


def _slot_load(tab: Tabulation, space: FeSpace, data, at, mass,
               slot: str) -> tuple:
    """(load vector, squared L2 norm) of data slot slot: None, a callable
    whose values at tab's points are at (n, 3), or a coefficient vector of
    space; ValueError when the vector is not finite or not of its
    length."""
    if data is None:
        return np.zeros(space.dof_count), 0.0
    if callable(data):
        at = at.reshape(*tab.wq.shape, 3)
        return assemble_load(tab, space, at), tab.l2sq(at)
    vals = _checked(np.asarray(data, dtype=float), (space.dof_count,), slot)
    load = mass @ vals
    return load, float(vals @ load)


def _loads(mesh: Mesh, params: MhdParams) -> dict:
    """Full-length load vectors of params' data slots and the L2 norm of f
    (f_l2), computed once per parameter object and mesh.  Each callable is
    called once, at the mesh's degree-6 points, before the mesh's context
    is built, so that values not shaped or not finite fail first."""
    if mesh not in params._loaded:
        pts = quadrature_points(mesh, RULE_DEG6).reshape(-1, 3)
        at = {slot: _checked(np.asarray(data(pts), dtype=float), pts.shape,
                             slot)
              for slot, data in (("f", params.f), ("h", params.h))
              if callable(data)}
        ops = discrete_ops(mesh)
        tab = ops.tab(RULE_DEG6)
        f, f_l2sq = _slot_load(tab, ops.vel, params.f, at.get("f"),
                               ops.vel_mass, "f")
        h, _ = _slot_load(tab, ops.space_d, params.h, at.get("h"), ops.M_d,
                          "h")
        params._loaded[mesh] = {"f": f, "h": h, "f_l2": math.sqrt(f_l2sq)}
    return params._loaded[mesh]


def _h1_velocity(ops: DiscreteOps, v: np.ndarray) -> float:
    return math.sqrt(float(v @ (ops.vel_mass @ v))
                     + float(v @ (ops.lap @ v)))


# ---------------------------------------------------------------------------
# the two formulations as data


@dataclass(frozen=True)
class _Formulation:
    """One linearized Picard step, written as data.

    unknowns: (name, DiscreteOps space) in system order; the spaces of u,
    the electromagnetic fields and B carry their essential condition, so
    those unknowns lose their boundary DOFs, and the scalar mean
    multipliers mp and mr have no space (None).  blocks: (row, col,
    operator, transposed, coefficient(r_e, r_m, s)), the fixed blocks
    first.  The operator is a fixed matrix of the context, a vector being
    one column, or the name of an assembly element kernel, whose blocks
    depend on the iterate.
    """

    unknowns: tuple
    blocks: tuple


# shared by both formulations: the Stokes block over (u, p, mp), factored
# apart from the rest, and the multipliers p, r, mp, mr of the constraints
_STOKES = ("u", "p", "mp")
_STOKES_BLOCKS = (("u", "u", "lap", False, lambda re, rm, s: 1.0 / re),
                  ("u", "p", "bdiv", True, lambda re, rm, s: -1.0),
                  ("p", "u", "bdiv", False, lambda re, rm, s: -1.0))
_MULTIPLIER_BLOCKS = (("B", "r", "div", True, lambda re, rm, s: 1.0),
                      ("r", "B", "div", False, lambda re, rm, s: 1.0),
                      ("p", "mp", "mean_p", False, lambda re, rm, s: 1.0),
                      ("mp", "p", "mean_p", True, lambda re, rm, s: 1.0),
                      ("r", "mr", "volumes", False, lambda re, rm, s: 1.0),
                      ("mr", "r", "volumes", True, lambda re, rm, s: 1.0))
_MULTIPLIERS = (("p", "pres"), ("r", "mult"), ("mp", None), ("mr", None))
# the load slot feeding each row, in both formulations; every other row
# gets zero
_LOADS = {"u": "f", "B": "h"}
_FORMULATIONS = {
    "BE": _Formulation(
        unknowns=(("u", "vel"), ("E", "space_c"), ("B", "space_d"))
        + _MULTIPLIERS,
        blocks=_STOKES_BLOCKS + (
            ("E", "E", "M_c", False, lambda re, rm, s: s),
            ("E", "B", "K_cd", True, lambda re, rm, s: -(s / rm)),
            ("B", "E", "K_cd", False, lambda re, rm, s: s / rm),
        ) + _MULTIPLIER_BLOCKS + (
            ("u", "u", "convection", False, lambda re, rm, s: 1.0),
            ("u", "u", "cross_cross", False, lambda re, rm, s: s),
            ("u", "E", "cross", True, lambda re, rm, s: s),
            ("E", "u", "cross", False, lambda re, rm, s: s))),
    "BJ": _Formulation(
        unknowns=(("u", "vel"), ("j", "space_c"), ("sigma", "space_c"),
                  ("B", "space_d")) + _MULTIPLIERS,
        blocks=_STOKES_BLOCKS + (
            ("j", "j", "M_c", False, lambda re, rm, s: s),
            ("j", "B", "K_cd", True, lambda re, rm, s: -(s / rm)),
            ("sigma", "sigma", "M_c", False, lambda re, rm, s: s / rm),
            ("B", "j", "K_cd", False, lambda re, rm, s: s / rm),
            ("B", "sigma", "K_cd", False, lambda re, rm, s: -(s / rm)),
        ) + _MULTIPLIER_BLOCKS + (
            ("u", "u", "convection", False, lambda re, rm, s: 1.0),
            ("u", "j", "cross", True, lambda re, rm, s: s),
            ("sigma", "u", "cross", False, lambda re, rm, s: -s / rm))),
}


@dataclass(frozen=True, eq=False)
class _StepPlan:
    """What every Picard step of one key (formulation, r_e, r_m, s) reuses.

    unknowns: (name, full length, free indices) in system order.  pattern:
    the reduced step matrix's CSR pattern (zero values), the union of every
    block's entries in free rows and columns.  fixed: the values of the
    fixed blocks' entries there.  takes: (kernel, coefficient, the flat
    positions of the entries there in its element array) of each iterate
    block, in block order.  slots: the pattern position of each fixed
    value, then of each taken element entry.  factors: the exact Stokes
    and Maxwell block solves of the fixed matrix (_StokesSolve,
    _MaxwellSolve); summary: the sizes, fill and smallest pivots of the
    unit-parameter factors they scale (see solve_nonlinear).
    """

    key: tuple
    unknowns: list
    pattern: sp.csr_matrix
    fixed: np.ndarray
    takes: tuple
    slots: np.ndarray
    factors: BlockFactors
    summary: dict


@dataclass(frozen=True, eq=False)
class _StokesSolve:
    """Exact solve with the Stokes block S of a step's fixed matrix.

    Ordered as (u, then p and mp), S = [[I_3 (x) A_0 / r_e, B^T], [B, D]]:
    the laplacian kernel is one scalar block broadcast over the three
    velocity components, and A_0 is it over the free P2 DOFs at r_e = 1.
    B has no mp row, so the pressure Schur complement
    C = D - r_e sum_c B_c A_0^-1 B_c^T is L C_0 L, with C_0 = C at r_e = 1
    and L = diag(sqrt(r_e) on p, 1 / sqrt(r_e) on mp).  lu_a, schur (C_0's
    dense LU), b = B and bt = B^T are the context's stokes_factors().  A
    solve takes w = r_e A_0^-1 rho_u per component, y_p = L^-1 C_0^-1 L^-1
    (rho_p - B w) and y_u = r_e A_0^-1 (rho_u - B^T y_p); every row of S
    holds to factorization roundoff, and at r_e = 1 every scale is 1.
    """

    lu_a: object
    schur: tuple
    b: sp.csr_matrix
    bt: sp.csr_matrix
    r_e: float

    def _velocity(self, rho_u: np.ndarray) -> np.ndarray:
        # the three components as three right-hand sides of one solve
        return self.r_e * self.lu_a.solve(rho_u.reshape(3, -1).T).T.ravel()

    def solve(self, rho: np.ndarray) -> np.ndarray:
        n_u = self.bt.shape[0]
        y = np.empty_like(rho)
        w = self._velocity(rho[:n_u])
        l_inv = np.full(rho.size - n_u, 1.0 / math.sqrt(self.r_e))
        l_inv[-1] = math.sqrt(self.r_e)
        # factor_dense checked the factors; GMRES stops on a non-finite rho
        y[n_u:] = l_inv * lu_solve(
            self.schur, l_inv * (rho[n_u:] - self.b @ w), check_finite=False)
        y[:n_u] = self._velocity(rho[:n_u] - self.bt @ y[n_u:])
        return y


@dataclass(frozen=True, eq=False)
class _MaxwellSolve:
    """Exact solve with the Maxwell block K of a step's fixed matrix.

    K's unknowns are the edge field e (E, or j in the current-based step),
    sigma (current-based only), B, r and mr, and with c = s / r_m its rows
    read
        e:     s M_c e - c P^T B                 = rho_e
        sigma: c M_c sigma                       = rho_sigma
        B:     c P e - c P sigma + D^T r         = rho_B
        r:     D B + vols mr                     = rho_r
        mr:    vols^T r                          = rho_mr
    with P the context's K_free (k_free) and D the divergence over the
    free faces.  sigma is solved first, with the context's edge-mass
    factor lu_c, and leaves the B rows.  Summing the r rows gives
    (1^T vols) mr = 1^T rho_r, because 1^T D = 0, so mr has a closed form.
    Then, with the context's trees (see DiscreteOps):
      1. B_c on the dual-tree faces solves D B_c = rho_r - mr vols (D_T);
      2. B = B_c + G_ct A satisfies the r rows for every A, since
         D G_ct = 0; the e rows, and the B rows projected by G_ct^T, which
         annihilates D^T r, give the (E, A) system (e is j in the
         current-based step) over (e, A), D_1 K_0 D_2 with
         D_1 = diag(s, c), D_2 = diag(1, 1 / r_m) and K_0 the context's
         unit matrix (DiscreteOps.maxwell_factor), factored by lu;
      3. B = B_c + G_ct A;
      4. r, with r_0 = 0, from the B rows on the tree faces (D_T^T); the
         other B rows then hold too: their residual w - D^T r has
         G_ct^T w = 0, and G_ct spans the kernel of D;
      5. r is shifted by a constant to meet the mr row; D^T 1 = 0, so the
         B rows do not move.
    Every row of K then holds to factorization roundoff, and at
    r_m = s = 1 every scale is exactly 1.  Positions index K's unknowns:
    edge, sigma (None in the electric-field step), b and r are slices, mr
    an index.
    """

    edge: slice
    sigma: slice | None
    b: slice
    r: slice
    mr: int
    s: float
    r_m: float
    lu_c: object
    k_free: sp.csr_matrix
    vols: np.ndarray
    g_ct: sp.csr_matrix
    tree_faces: np.ndarray
    lu_t: object
    lu: object

    def solve(self, rho: np.ndarray) -> np.ndarray:
        x = np.empty_like(rho)
        c = self.s / self.r_m
        rho_b = rho[self.b]
        if self.sigma is not None:
            x[self.sigma] = self.lu_c.solve(rho[self.sigma]) / c
            rho_b = rho_b + c * (self.k_free @ x[self.sigma])
        total = self.vols.sum()
        mr = rho[self.r].sum() / total
        # steps 1 to 3: B_c, then (E, A), then B
        b = np.zeros(rho_b.size)
        rho_r = rho[self.r] - mr * self.vols
        b[self.tree_faces] = self.lu_t.solve(rho_r[1:])
        n_e = self.k_free.shape[1]
        ea = self.lu.solve(np.concatenate(
            [(rho[self.edge] + c * (self.k_free.T @ b)) / self.s,
             (self.g_ct.T @ rho_b) / c]))
        x[self.edge] = ea[:n_e]
        x[self.b] = b + self.g_ct @ (self.r_m * ea[n_e:])
        # steps 4 and 5: r from the tree-face rows, then the mr shift
        w = rho_b - c * (self.k_free @ x[self.edge])
        r = np.zeros(rho_r.size)
        r[1:] = self.lu_t.solve(w[self.tree_faces], trans="T")
        x[self.r] = r + (rho[self.mr] - self.vols @ r) / total
        x[self.mr] = mr
        return x


def _block_factors(ops: DiscreteOps, numbers: tuple,
                   unknowns: list) -> tuple:
    """(BlockFactors, summary): the solves of the Stokes block S over
    (u, p, mp) and of the Maxwell block K (_StokesSolve, _MaxwellSolve) at
    numbers = (r_e, r_m, s), scaling the context's unit factors."""
    r_e, r_m, s = numbers
    in_stokes = np.concatenate([np.full(free.size, name in _STOKES)
                                for name, _, free in unknowns])
    # each Maxwell unknown's positions within K
    at, off = {}, 0
    for name, _, free in unknowns:
        if name not in _STOKES:
            at[name] = slice(off, off + free.size)
            off += free.size
    lu_a, schur, b, bt, summary = ops.stokes_factors()
    solve_s = _StokesSolve(lu_a=lu_a, schur=schur, b=b, bt=bt, r_e=r_e)
    lu, summary_k = ops.maxwell_factor()
    summary = {**summary, "maxwell": summary_k}
    if "sigma" in at:
        summary["edge_mass"] = ops.lu_c_summary
    solve_k = _MaxwellSolve(
        edge=at.get("E", at.get("j")), sigma=at.get("sigma"), b=at["B"],
        r=at["r"], mr=at["mr"].start, s=s, r_m=r_m, lu_c=ops.lu_c,
        k_free=ops.K_free, vols=ops.mesh.volumes, g_ct=ops.g_ct,
        tree_faces=ops.tree_faces, lu_t=ops.lu_t, lu=lu)
    return BlockFactors(first=np.flatnonzero(in_stokes),
                        second=np.flatnonzero(~in_stokes), lu_first=solve_s,
                        lu_second=solve_k), summary


def _step_plan(ops: DiscreteOps, formulation: str,
               params: MhdParams) -> _StepPlan:
    """The step plan, cached on the mesh's context for the last key."""
    numbers = (params.r_e, params.r_m, params.s)
    key = (formulation, *numbers)
    if ops.plan is not None and ops.plan.key == key:
        return ops.plan
    # the old plan goes first, so its maps can be freed
    ops.plan = None
    form = _FORMULATIONS[formulation]

    # full DOF of each unknown -> reduced unknown, -1 where constrained
    unknowns, to_reduced, n = [], {}, 0
    for name, space in form.unknowns:
        fe = getattr(ops, space) if space else None
        dim = fe.dof_count if fe else 1
        free = fe.free_index if fe else np.arange(1)
        unknowns.append((name, dim, free))
        to_reduced[name] = np.full(dim, -1, dtype=np.int64)
        to_reduced[name][free] = n + np.arange(free.size)
        n += free.size
    # reduced row * n + col of every entry in free rows and columns: the
    # fixed blocks' entries, then those of each element array
    keys, fixed, takes = [], [], []
    for rname, cname, op, transposed, coef in form.blocks:
        if op in KERNEL_RULES:
            r, c, _ = element_dofs(ops.mesh, op)
        else:
            mat = ops.mesh.volumes if op == "volumes" else getattr(ops, op)
            coo = sp.coo_matrix(mat[:, None] if mat.ndim == 1 else mat)
            r, c = coo.row, coo.col
        if transposed:
            r, c = c, r
        r, c = np.broadcast_arrays(to_reduced[rname][r], to_reduced[cname][c])
        free = ((r >= 0) & (c >= 0)).ravel()
        if op in KERNEL_RULES:
            takes.append((op, coef(*numbers), np.flatnonzero(free)))
        else:
            fixed.append(coef(*numbers) * coo.data[free])
        keys.append((r * n + c).ravel()[free])
    keys = np.concatenate(keys)
    # the distinct keys in order and each key's rank among them, from one
    # argsort: faster than np.unique's hash path or a searchsorted
    order = np.argsort(keys)
    keys = keys[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    slots = np.empty(keys.size, dtype=np.int64)
    slots[order] = np.cumsum(first) - 1
    used = keys[first]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(used // n, minlength=n), out=indptr[1:])
    pattern = sp.csr_matrix((np.zeros(used.size), used % n, indptr),
                            shape=(n, n))
    fixed = np.concatenate(fixed)
    # the map's temporaries are freed before a mesh's first plan factors
    # its blocks, so the factorization reuses their memory
    del keys, order, used, first, r, c, free
    factors, summary = _block_factors(ops, numbers, unknowns)
    ops.plan = _StepPlan(
        key=key, unknowns=unknowns, pattern=pattern, fixed=fixed,
        takes=tuple(takes), slots=slots, factors=factors, summary=summary)
    return ops.plan


def _step_system(ops: DiscreteOps, formulation: str, prev: MhdState,
                 params: MhdParams) -> tuple:
    """(plan, reduced matrix, reduced right-hand side) of one Picard step.

    The element entries the plan takes from the iterate blocks are
    scattered with one bincount onto the fixed values; it sums in a fixed
    order, so the matrix is a deterministic function of (prev, params).
    """
    # loads first: their temporaries then fit in memory the factorization
    # of a new plan reuses
    loads = _loads(ops.mesh, params)
    plan = _step_plan(ops, formulation, params)
    # weights in slots order: the fixed values, then each block's entries
    weights = np.empty(plan.slots.size)
    off = plan.fixed.size
    weights[:off] = plan.fixed
    elems = {}
    for kernel, coef, take in plan.takes:
        if kernel not in elems:
            # looked up when called, so a rebinding of the module's kernel
            # (a profiler's, say) takes effect
            func = getattr(assembly, f"{kernel}_elements")
            elems[kernel] = func(ops.tab(KERNEL_RULES[kernel]), prev.u
                                 if kernel == "convection" else prev.B)
        np.multiply(elems[kernel].ravel()[take], coef,
                    out=weights[off:off + take.size])
        off += take.size
    data = np.bincount(plan.slots, weights, minlength=plan.pattern.nnz)
    a = sp.csr_matrix((data, plan.pattern.indices, plan.pattern.indptr),
                      shape=plan.pattern.shape)
    b = np.concatenate([loads[_LOADS[name]][free] if name in _LOADS
                        else np.zeros(free.size)
                        for name, _, free in plan.unknowns])
    return plan, a, b


def stall_message(formulation: str, step: int) -> str:
    """Why a run ended with "linear-stall" at Picard step step."""
    why = ("" if formulation == "BJ" else "; the electric-field step is "
           "only guaranteed uniquely solvable under the stringent "
           "small-Reynolds condition R_e <= 2 / (sqrt(5) C2 |f|_(-1))")
    return (f"linear-stall: the linear solve of Picard step {step} stalled, "
            f"and Picard only contracts under small data{why}.")


def _picard_step(prev: MhdState, params: MhdParams,
                 formulation: str) -> MhdState:
    """One step of formulation linearized around (prev.u, prev.B)."""
    plan, a, b = _step_system(discrete_ops(prev.mesh), formulation, prev,
                              params)
    # GMRES starts from prev on the free DOFs, the mean multipliers at 0
    x0 = np.concatenate([np.zeros(1) if name in ("mp", "mr")
                         else getattr(prev, name)[free]
                         for name, _, free in plan.unknowns])
    try:
        x, record = solve_preconditioned(a, b, plan.factors, x0)
    except LinearStallError as exc:
        exc.record["factors"] = plan.summary
        raise
    record["factors"] = plan.summary
    parts, off = {}, 0
    for name, dim, free in plan.unknowns:
        parts[name] = np.zeros(dim)
        parts[name][free] = x[off:off + free.size]
        off += free.size
    fields = {name: parts[name]
              for name, space in _FORMULATIONS[formulation].unknowns if space}
    return MhdState(formulation, prev.mesh, B_prev=prev.B.copy(),
                    linear_solve=record, **fields)


def be_picard_step(prev: MhdState, params: MhdParams) -> MhdState:
    """One electric-field solve linearized around (prev.u, prev.B)."""
    return _picard_step(prev, params, "BE")


def bj_picard_step(prev: MhdState, params: MhdParams) -> MhdState:
    """One current-based solve linearized around (prev.u, prev.B)."""
    return _picard_step(prev, params, "BJ")


# ---------------------------------------------------------------------------
# structure diagnostics


def current_at(tab: Tabulation, state) -> np.ndarray:
    """The iterate's current density at the rule's points, (T, nq, 3): j
    for a current-based state, E + u x B_prev for an electric-field one."""
    if state.formulation == "BJ":
        return tab.edge_at(state.j)
    return tab.edge_at(state.E) + np.cross(tab.velocity_at(state.u),
                                           tab.face_at(state.B_prev))


def diagnostics(state, params: MhdParams, current=None) -> dict:
    """Measure the preserved structures of one iterate; current, if given,
    is an electric-field state's current_at at the degree-6 points.

    Keys: div_b_max (largest elementwise |div B|), b_l2, multiplier_norm
    (L2 norm of r), energy_work (the discrete <f, u>), energy_residual
    (|R_e^-1 |grad u|^2 + S |j|^2 - <f, u>|, with j = E + u x B_prev for
    electric-field states), energy_scale (pre-cancellation magnitude of the
    identity, the denominator for a relative check), and energy_slack (gap
    left in the a-priori energy bound).  Current-based states add curl_j_sigma
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

    loads = _loads(ops.mesh, params)
    grad2 = float(state.u @ (ops.lap @ state.u))
    work = float(loads["f"] @ state.u)
    if state.formulation == "BJ":
        j2 = float(state.j @ (ops.M_c @ state.j))
    else:
        tab = ops.tab(RULE_DEG6)
        j2 = tab.l2sq(current_at(tab, state) if current is None else current)
    out["energy_work"] = work
    out["energy_residual"] = abs(grad2 / params.r_e + params.s * j2 - work)
    # magnitude of the terms the identity cancels; the roundoff floor for
    # the residual.  The pressure pairing matters for gradient-type forces
    # whose exact velocity is zero.
    p_norm = math.sqrt(float(state.p @ (ops.pres_mass @ state.p)))
    out["energy_scale"] = (abs(work) + grad2 / params.r_e + params.s * j2
                           + p_norm * float(np.linalg.norm(ops.bdiv
                                                           @ state.u)))
    dual = POINCARE_H01 * loads["f_l2"]
    out["energy_slack"] = (0.5 * params.r_e * dual ** 2
                           - 0.5 * grad2 / params.r_e - params.s * j2)

    if state.formulation == "BJ":
        free = ops.space_c.free_index
        dcurl = ops.curl @ (state.j - state.sigma)
        out["curl_j_sigma"] = math.sqrt(float(dcurl @ (ops.M_d @ dcurl)))

        s, rm = params.s, params.r_m
        # (u x B_prev, w_e) for every edge function, the velocity-edge
        # cross-coupling matrix applied to u
        tab = ops.tab(RULE_DEG4)
        cross_u = assemble_load(tab, ops.space_c,
                                np.cross(tab.velocity_at(state.u),
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


def _or_inf(value_of) -> float:
    """value_of(), or inf where one of its float powers overflows."""
    try:
        return value_of()
    except OverflowError:
        return math.inf


def check_small_data_conditions(params: MhdParams, mesh: Mesh,
                                seed: int) -> dict:
    """Evaluate the sufficient conditions for Picard contraction, plus the
    small-Reynolds solvability condition of the electric-field step.

    The loads are evaluated first, so data that is not finite fails before
    any constant is estimated.  c1 is the embedding constant SOBOLEV_L6;
    c2 is the cross-product bound sampled by estimate_cross_bound (20
    trials from seed), a lower estimate of the supremum, so a satisfied
    condition is evaluated, not guaranteed sufficient: with the true c2
    it may fail.  |f|_(-1) is upper-bounded by C_P |f| with the unit
    cube's Poincare constant POINCARE_H01.  A condition whose lhs
    overflows reads inf, unsatisfied.
    contraction_satisfied ands the two contraction flags; the small_re
    entry only concerns the electric-field formulation.
    """
    f_l2 = _loads(mesh, params)["f_l2"]
    dual = POINCARE_H01 * f_l2
    c1, c2 = SOBOLEV_L6, estimate_cross_bound(mesh, trials=20, seed=seed)
    re, rm = params.r_e, params.r_m
    lhs1 = _or_inf(lambda: c1 ** 2 * re ** 2 * dual
                   + 2.0 * c1 ** 4 * re ** 4 * dual ** 2
                   + 8.0 * c2 ** 2 * re ** 2 * rm ** 3 * dual ** 2)
    lhs2 = _or_inf(lambda: 16.0 * rm ** 4 * c2 ** 2 * re ** 2 * dual ** 2)
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


def solve_nonlinear(formulation: str, params: MhdParams, initial, *,
                    rtol: float, atol: float, max_iter: int):
    """Picard-iterate one formulation to a fixed point.

    Stops once |u^n - u^(n-1)|_1 + |B^n - B^(n-1)|_d falls below
    rtol (|u^n|_1 + |B^n|_d) + atol, after max_iter steps, or when a
    step's linear solve stalls (linalg.LinearStallError); the state is
    then the last iterate, initial at the first step.  Returns (state,
    outcome), the outcome being a run report's picard section less its
    warnings: formulation, termination ("converged", "max-iterations" or
    "linear-stall"), n_iterations, iterations and stalled_solve (the
    stalled step's linear_solve record, else None).

    iterations holds one record per step: the increment norms, the
    increment energy (weighted velocity gradient plus current terms) and
    its ratio to the previous step's (None at the first), the iterate's
    u_h1 and diagnostics(), and linear_solve: the reduced system size
    (unknowns), the GMRES iterations (krylov_iterations, which fall as the
    iterates converge, GMRES starting from the previous iterate), the
    achieved |b - Ax| / (|A|_F |x| + |b|) (relative_residual), and
    factors: n, lu_nnz and min_pivot of each factor behind the
    preconditioner ("laplacian" and "pressure_schur" of the Stokes block,
    "maxwell" of the (E, A) system, and "edge_mass" in the current-based
    step).  Those are the mesh's factors at r_e = r_m = s = 1, which
    every parameter set's block solves scale.  Every entry is a
    deterministic function of the inputs.

    Non-convergence and a stall are outcomes, never raised; a mesh too
    coarse for the velocity-pressure pair raises SingularSystemError.  The
    loop checks no regime condition: runners judge a B-E run with
    check_small_data_conditions.  An initial field that is not finite
    raises ValueError naming it.
    """
    if formulation not in ("BE", "BJ"):
        raise ValueError(f"unknown formulation {formulation!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if initial.formulation != formulation:
        raise TypeError(f"initial state for {formulation} is a "
                        f"{initial.formulation} state")
    for name, value in vars(initial).items():
        if isinstance(value, np.ndarray) and not np.isfinite(value).all():
            raise ValueError(f"initial state field {name} is not finite")

    ops = discrete_ops(initial.mesh)
    step = be_picard_step if formulation == "BE" else bj_picard_step
    state = initial
    records = []
    prev_energy = None
    termination, stalled = "max-iterations", None
    # the B-E current is an L2 function, differenced at the degree-6 points;
    # each iterate's values are carried to the next step
    tab = ops.tab(RULE_DEG6)
    cur = current_at(tab, state) if formulation == "BE" else None
    for n in range(1, max_iter + 1):
        try:
            new = step(state, params)
        except LinearStallError as exc:
            termination, stalled = "linear-stall", exc.record
            break
        du = new.u - state.u
        grad2 = float(du @ (ops.lap @ du))
        inc_u = math.sqrt(float(du @ (ops.vel_mass @ du)) + grad2)
        inc_b = ops.norm_d(new.B - state.B)
        if formulation == "BJ":
            dj = new.j - state.j
            ej2 = float(dj @ (ops.M_c @ dj))
        else:
            prev_cur, cur = cur, current_at(tab, new)
            ej2 = tab.l2sq(cur - prev_cur)
        energy = 0.5 * grad2 / params.r_e + 0.5 * params.s * ej2 / params.r_m
        ratio = None
        if n >= 2 and prev_energy is not None and prev_energy > 0.0:
            ratio = energy / prev_energy
        diag = diagnostics(new, params, cur)
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

    return state, {"formulation": formulation, "termination": termination,
                   "n_iterations": len(records), "iterations": records,
                   "stalled_solve": stalled}
