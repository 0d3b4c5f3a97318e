"""Weak differential operators, field norms, and constant estimators.

The weak curl maps a div-conforming (face-element) function into the
curl-conforming (edge-element) space through the duality
(weak_curl B, F) = (B, curl F); the weak divergence maps an edge-element
function to nodal P1 values through (weak_div w, v) = -(w, grad v).
Both act on full-length coefficient vectors whose boundary-constrained
entries are zero and return vectors of the same layout, so mass and
incidence matrices apply without index bookkeeping.

DiscreteOps instances are immutable after construction; the cached
factorizations are reused by every solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .assembly import (RULE_DEG6, FormKind, Tabulation, assemble,
                       assemble_load)
from .derham import (NEDELEC, P1, RT, VELOCITY, FeSpace, build_space,
                     curl_incidence, div_incidence, grad_incidence)
from .mesh import Mesh

_POINCARE_DOF_LIMIT = 2000


class CapabilityError(Exception):
    """A diagnostic was asked to run beyond its intended problem size."""


class DiscreteOps:
    """Mass matrices, incidence pairings, and cached factorizations.

    Attributes:
      space_c, space_d, space_g: edge-, face-, and vertex-based spaces,
        each carrying its essential boundary condition.
      M_c, M_d, M_g: mass matrices over the full index sets; constraints
        enter only through which rows get solved.
      K_cd: (faces x edges) pairing matrix (curl w_e, w_f).
      K_gc: (edges x vertices) pairing matrix (grad v_i, w_e).
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.space_c = build_space(mesh, NEDELEC, essential_bc=True)
        self.space_d = build_space(mesh, RT, essential_bc=True)
        self.space_g = build_space(mesh, P1, essential_bc=True)
        self.M_c = assemble(FormKind("Mass"), self.space_c, self.space_c)
        self.M_d = assemble(FormKind("Mass"), self.space_d, self.space_d)
        self.M_g = assemble(FormKind("Mass"), self.space_g, self.space_g)
        self.K_cd = (self.M_d @ curl_incidence(mesh)).tocsr()
        self.K_gc = (self.M_c @ grad_incidence(mesh)).tocsr()
        self._div = div_incidence(mesh)
        self._lu_c = _factor(self.M_c, self.space_c.free_index, "edge")
        self._lu_g = _factor(self.M_g, self.space_g.free_index, "vertex")
        # velocity matrices only feed the norms; built on first use
        self._vel = None
        self._vel_mass = None
        self._vel_stiff = None

    def weak_curl(self, B) -> np.ndarray:
        """Edge-element x with (x, F) = (B, curl F) for all admissible F."""
        B = np.asarray(B, dtype=float)
        rhs = self.K_cd.T @ B
        return _solve_free(self._lu_c, rhs, self.space_c)

    def weak_div(self, w) -> np.ndarray:
        """Nodal y with (y, v) = -(w, grad v) for all admissible v."""
        w = np.asarray(w, dtype=float)
        rhs = -(self.K_gc.T @ w)
        return _solve_free(self._lu_g, rhs, self.space_g)

    def l2_project_curl(self, field) -> np.ndarray:
        """L2 projection onto the constrained edge-element space.

        field is a point evaluator (callable or .value bundle, integrated
        with the degree-6 rule) or an edge-element coefficient vector, in
        which case the projection just re-imposes the constraint.
        """
        if hasattr(field, "value"):
            field = field.value
        if callable(field):
            load = assemble_load(self.space_c, field, RULE_DEG6)
        else:
            c = np.asarray(field, dtype=float)
            if c.shape != (self.space_c.dof_count,):
                raise ValueError("expected a point evaluator or an "
                                 "edge-element coefficient vector")
            load = self.M_c @ c
        return _solve_free(self._lu_c, load, self.space_c)

    # -- norms ------------------------------------------------------------

    def norm_c(self, j) -> float:
        j = np.asarray(j, dtype=float)
        return math.sqrt(max(j @ (self.M_c @ j), 0.0))

    def norm_d(self, B) -> float:
        """sqrt(|B|^2 + |div B|^2 + |weak curl B|^2)."""
        B = np.asarray(B, dtype=float)
        dv = self._div @ B
        x = self.weak_curl(B)
        total = B @ (self.M_d @ B) + np.sum(dv * dv / self.mesh.volumes) \
            + x @ (self.M_c @ x)
        return math.sqrt(max(total, 0.0))

    def norm_h1_velocity(self, u) -> float:
        """Full H1 norm, sqrt(|u|^2 + |grad u|^2)."""
        _, mass, stiff = self._velocity_forms()
        u = np.asarray(u, dtype=float)
        return math.sqrt(max(u @ (mass @ u) + u @ (stiff @ u), 0.0))

    def seminorm_h1_velocity(self, u) -> float:
        _, _, stiff = self._velocity_forms()
        u = np.asarray(u, dtype=float)
        return math.sqrt(max(u @ (stiff @ u), 0.0))

    def norm_l2_p1(self, p) -> float:
        p = np.asarray(p, dtype=float)
        return math.sqrt(max(p @ (self.M_g @ p), 0.0))

    def norm_l2_dg0(self, r) -> float:
        r = np.asarray(r, dtype=float)
        return math.sqrt(max(np.sum(self.mesh.volumes * r * r), 0.0))

    def norm_a(self, u, B, p, r) -> float:
        """Combined state norm: full H1 of u, graph norm of B, L2 of the
        nodal pressure p and the piecewise-constant multiplier r."""
        return math.sqrt(self.norm_h1_velocity(u) ** 2 + self.norm_d(B) ** 2
                         + self.norm_l2_p1(p) ** 2 + self.norm_l2_dg0(r) ** 2)

    def _velocity_forms(self):
        if self._vel is None:
            self._vel = build_space(self.mesh, VELOCITY, essential_bc=True)
            self._vel_mass = assemble(FormKind("Mass"), self._vel, self._vel)
            self._vel_stiff = assemble(
                FormKind("VectorLaplacian"), self._vel, self._vel)
        return self._vel, self._vel_mass, self._vel_stiff


def _factor(M, free: np.ndarray, what: str):
    if free.size == 0:
        return None
    try:
        return spla.splu(M[free][:, free].tocsc())
    except RuntimeError as exc:
        raise RuntimeError(
            f"{what} mass matrix is singular; this indicates a bug") from exc


def _solve_free(lu, rhs: np.ndarray, space: FeSpace) -> np.ndarray:
    out = np.zeros(space.dof_count)
    free = space.free_index
    if free.size:
        out[free] = lu.solve(rhs[free])
    return out


# ---------------------------------------------------------------------------
# constant estimators

def estimate_poincare_constant(mesh: Mesh) -> float:
    """Largest |B| / |weak curl B| over constrained divergence-free
    face-element fields, by a dense generalized eigenproblem on a kernel
    basis of the divergence incidence matrix."""
    space_d = build_space(mesh, RT, essential_bc=True)
    free_d = space_d.free_index
    if free_d.size > _POINCARE_DOF_LIMIT:
        raise CapabilityError(
            f"dense eigensolve handles at most {_POINCARE_DOF_LIMIT} free "
            f"face DOFs, got {free_d.size}; use a smaller mesh")
    ops = DiscreteOps(mesh)
    kernel = scipy.linalg.null_space(div_incidence(mesh).toarray()[:, free_d])
    if kernel.shape[1] == 0:
        raise CapabilityError("mesh carries no divergence-free fields")
    free_c = ops.space_c.free_index
    mass = kernel.T @ ops.M_d[free_d][:, free_d].toarray() @ kernel
    rhs = ops.K_cd.T[free_c][:, free_d].toarray() @ kernel
    curl = rhs.T @ ops._lu_c.solve(rhs)
    eigs = scipy.linalg.eigh(0.5 * (mass + mass.T), 0.5 * (curl + curl.T),
                             eigvals_only=True)
    return float(math.sqrt(eigs[-1]))


def estimate_cross_bound(mesh: Mesh, trials: int = 100, seed: int = 0) -> float:
    """Empirical constant in |u x B| <= C |u|_1 |weak curl B|.

    Probes pair random constrained velocity fields with random
    divergence-free face-element fields (curls of constrained edge-element
    fields).  Degenerate magnetic probes are resampled.  |u x B|^2 is a
    degree-6 polynomial on each tet, so the degree-6 rule applied to u and
    B at its points integrates it exactly; no matrix is assembled.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    ops = DiscreteOps(mesh)
    vel, vel_mass, vel_stiff = ops._velocity_forms()
    free_e = ops.space_c.free_index
    free_u = vel.free_index
    if free_e.size == 0 or free_u.size == 0:
        raise CapabilityError("mesh has no interior DOFs to probe")
    G = curl_incidence(mesh)
    tab = Tabulation(mesh, RULE_DEG6)
    rng = np.random.default_rng(seed)
    best = 0.0
    done = 0
    while done < trials:
        e = np.zeros(ops.space_c.dof_count)
        e[free_e] = rng.standard_normal(free_e.size)
        B = G @ e
        curl_norm = ops.norm_c(ops.weak_curl(B))
        if curl_norm <= 1e-14 * np.linalg.norm(e):
            continue
        u = np.zeros(vel.dof_count)
        u[free_u] = rng.standard_normal(free_u.size)
        cross = np.cross(tab.velocity_at(u), tab.face_at(B))
        num = math.sqrt(np.sum(tab.wq * np.einsum("tqk,tqk->tq", cross, cross)))
        den = math.sqrt(u @ (vel_mass @ u) + u @ (vel_stiff @ u)) * curl_norm
        best = max(best, num / den)
        done += 1
    return best


def estimate_sobolev_ratio(mesh: Mesh, trials: int = 50, seed: int = 0) -> float:
    """Empirical ratio |u|_{L6} / |grad u| over random constrained velocity
    fields.  The L6 norm uses the degree-6 tet rule, so this is a sampling
    estimate rather than an exact integral."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    vel = build_space(mesh, VELOCITY, essential_bc=True)
    stiff = assemble(FormKind("VectorLaplacian"), vel, vel)
    tab = Tabulation(mesh, RULE_DEG6)
    free_u = vel.free_index
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        u = np.zeros(vel.dof_count)
        u[free_u] = rng.standard_normal(free_u.size)
        at = tab.velocity_at(u)
        mag2 = np.einsum("tqk,tqk->tq", at, at)
        l6 = np.sum(tab.wq * mag2 ** 3) ** (1.0 / 6.0)
        best = max(best, l6 / math.sqrt(u @ (stiff @ u)))
    return best


def sobolev_embedding_constant() -> float:
    """Sharp constant of the 3-d embedding of H1_0 into L6, valid on any
    domain by extension with zero."""
    return (math.gamma(3.0) / math.gamma(1.5)) ** (1.0 / 3.0) \
        / math.sqrt(3.0 * math.pi)


def poincare_h01_box(box) -> float:
    """Constant in |v| <= C |grad v| for H1_0 functions on an axis-aligned
    box, from the first Dirichlet eigenvalue."""
    box = np.asarray(box, dtype=float)
    lengths = box[:, 1] - box[:, 0]
    if box.shape != (3, 2) or np.any(lengths <= 0):
        raise ValueError("box must be three intervals of positive length")
    return 1.0 / (math.pi * math.sqrt(np.sum(1.0 / lengths ** 2)))


@dataclass(frozen=True)
class DiagnosticConstants:
    """Constants entering the small-data convergence conditions.

    c1 bounds |u|_{0,6} <= c1 |grad u|; c2 is the empirical cross-product
    bound; poincare_div bounds |B| <= poincare_div |weak curl B| on
    divergence-free fields and may be omitted where only the convergence
    conditions are needed (its eigensolve is the expensive part).
    """

    c1: float
    c2: float
    poincare_div: float | None = None

    def __post_init__(self):
        vals = [self.c1, self.c2]
        if self.poincare_div is not None:
            vals.append(self.poincare_div)
        if min(vals) <= 0:
            raise ValueError("diagnostic constants must be positive")


def estimate_constants(mesh: Mesh, trials: int = 100,
                       seed: int = 0) -> DiagnosticConstants:
    """Bundle the analytic Sobolev bound with the mesh-probed constants."""
    return DiagnosticConstants(
        c1=sobolev_embedding_constant(),
        c2=estimate_cross_bound(mesh, trials=trials, seed=seed),
        poincare_div=estimate_poincare_constant(mesh),
    )
