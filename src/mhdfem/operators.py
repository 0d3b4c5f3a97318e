"""The per-mesh discrete de Rham context, the weak curl, and the
constant estimators.

DiscreteOps owns what both Picard schemes share on one mesh: the velocity,
pressure, multiplier, edge and face spaces, every fixed matrix, the
factored free-edge mass, the basis tabulations at each quadrature rule,
and the solvers' step plans and loads.  discrete_ops(mesh) hands every
caller the one instance of the most recent mesh.

The weak curl maps a div-conforming (face-element) function into the
curl-conforming (edge-element) space through the duality
(weak_curl B, F) = (B, curl F).  It acts on full-length coefficient
vectors whose boundary-constrained entries are zero and returns a vector
of the same layout, so mass and incidence matrices apply without index
bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .assembly import RULE_DEG6, FormKind, QuadratureRule, Tabulation, assemble
from .derham import (DG0, NEDELEC, P1, RT, VELOCITY, FeSpace, build_space,
                     curl_incidence, div_incidence)
from .mesh import Mesh

# largest free face-DOF count the dense Poincare eigensolve accepts
POINCARE_DOF_LIMIT = 2000


class CapabilityError(Exception):
    """A diagnostic was asked to run beyond its intended problem size."""


class DiscreteOps:
    """Spaces, fixed matrices, factorizations and tabulations of one mesh.

    Attributes:
      vel, pres, mult: velocity (with its essential condition), zero-mean
        pressure and zero-mean multiplier spaces.
      space_c, space_d: edge- and face-based spaces, each carrying its
        essential boundary condition.
      vel_mass, lap, bdiv, pres_mass: velocity mass, vector Laplacian,
        velocity-pressure pairing (div u, q) and pressure mass.
      M_c, M_d: edge and face mass matrices over the full index sets;
        constraints enter only through which rows get solved.
      K_cd: (faces x edges) pairing matrix (curl w_e, w_f).
      div, curl: face-to-cell and edge-to-face incidences.
      mean_p: integral of each pressure basis function.
      plans, loads: the solvers' step plans and loads, cached here so they
        share the context's lifetime.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.vel = build_space(mesh, VELOCITY, essential_bc=True)
        self.pres = build_space(mesh, P1, essential_bc=False, zero_mean=True)
        self.mult = build_space(mesh, DG0, essential_bc=False, zero_mean=True)
        self.space_c = build_space(mesh, NEDELEC, essential_bc=True)
        self.space_d = build_space(mesh, RT, essential_bc=True)
        self.vel_mass = assemble(FormKind("Mass"), self.vel, self.vel)
        self.lap = assemble(FormKind("VectorLaplacian"), self.vel, self.vel)
        self.bdiv = assemble(FormKind("MixedDiv"), self.vel, self.pres)
        self.pres_mass = assemble(FormKind("Mass"), self.pres, self.pres)
        self.M_c = assemble(FormKind("Mass"), self.space_c, self.space_c)
        self.M_d = assemble(FormKind("Mass"), self.space_d, self.space_d)
        self.div = div_incidence(mesh)
        self.curl = curl_incidence(mesh)
        self.K_cd = (self.M_d @ self.curl).tocsr()
        self.mean_p = np.zeros(self.pres.dof_count)
        np.add.at(self.mean_p, mesh.tets.ravel(),
                  np.repeat(mesh.volumes / 4.0, 4))
        self._lu_c = _factor(self.M_c, self.space_c.free_index, "edge")
        self._tabs = {}
        # formulation -> the solvers' step plan of the last (r_e, r_m, s)
        self.plans = {}
        # [params, loads] of the last parameter object the solvers saw
        self.loads = []

    def tab(self, rule: QuadratureRule) -> Tabulation:
        """The mesh's basis at one rule's points, tabulated on first use."""
        if rule not in self._tabs:
            self._tabs[rule] = Tabulation(self.mesh, rule)
        return self._tabs[rule]

    def weak_curl(self, B) -> np.ndarray:
        """Edge-element x with (x, F) = (B, curl F) for all admissible F."""
        B = np.asarray(B, dtype=float)
        rhs = self.K_cd.T @ B
        return _solve_free(self._lu_c, rhs, self.space_c)

    # -- norms ------------------------------------------------------------

    def norm_c(self, j) -> float:
        j = np.asarray(j, dtype=float)
        return math.sqrt(max(j @ (self.M_c @ j), 0.0))

    def norm_d(self, B) -> float:
        """sqrt(|B|^2 + |div B|^2 + |weak curl B|^2)."""
        B = np.asarray(B, dtype=float)
        dv = self.div @ B
        x = self.weak_curl(B)
        total = B @ (self.M_d @ B) + np.sum(dv * dv / self.mesh.volumes) \
            + x @ (self.M_c @ x)
        return math.sqrt(max(total, 0.0))


# one entry: a larger cache would keep the contexts, tabulations and step
# plans (block factors included) of meshes the caller has already dropped
@lru_cache(maxsize=1)
def discrete_ops(mesh: Mesh) -> DiscreteOps:
    """The context of mesh, built once and shared until another mesh asks."""
    return DiscreteOps(mesh)


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
    free_d = build_space(mesh, RT, essential_bc=True).free_index
    if free_d.size > POINCARE_DOF_LIMIT:
        raise CapabilityError(
            f"dense eigensolve handles at most {POINCARE_DOF_LIMIT} free "
            f"face DOFs, got {free_d.size}; use a smaller mesh")
    ops = discrete_ops(mesh)
    kernel = scipy.linalg.null_space(ops.div.toarray()[:, free_d])
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
    ops = discrete_ops(mesh)
    free_e = ops.space_c.free_index
    free_u = ops.vel.free_index
    if free_e.size == 0 or free_u.size == 0:
        raise CapabilityError("mesh has no interior DOFs to probe")
    tab = ops.tab(RULE_DEG6)
    rng = np.random.default_rng(seed)
    best = 0.0
    done = 0
    while done < trials:
        e = np.zeros(ops.space_c.dof_count)
        e[free_e] = rng.standard_normal(free_e.size)
        B = ops.curl @ e
        curl_norm = ops.norm_c(ops.weak_curl(B))
        if curl_norm <= 1e-14 * np.linalg.norm(e):
            continue
        u = np.zeros(ops.vel.dof_count)
        u[free_u] = rng.standard_normal(free_u.size)
        cross = np.cross(tab.velocity_at(u), tab.face_at(B))
        num = math.sqrt(np.sum(tab.wq * np.einsum("tqk,tqk->tq", cross, cross)))
        den = math.sqrt(u @ (ops.vel_mass @ u) + u @ (ops.lap @ u)) * curl_norm
        best = max(best, num / den)
        done += 1
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

