"""The per-mesh discrete de Rham context, the weak curl, and the
constant estimators.

DiscreteOps owns what both Picard schemes and the diagnostics share on one
mesh: the velocity, pressure, multiplier, edge and face spaces (no other
code builds a space), the incidences, every fixed matrix (summed from the
assembly element kernels on its degree-4 tabulation), the factored
free-edge mass, the basis tabulations at each quadrature rule, and the
solvers' step plan.  discrete_ops(mesh) hands every caller the one
instance of the most recent mesh.  Each cube's main diagonal is an
interior edge, so no free DOF set of a mesh is empty.

Two spanning trees, built once per mesh, serve the solvers' Maxwell
solve.  The free edges outside a spanning tree of the interior vertices
(the boundary merged into one ground node), the cotree, carry a vector
potential: the curl over them, G_ct, maps onto the divergence-free
free-face fields one to one.  A spanning tree of the cells, joined by the
free faces, makes D_T, the divergence over its faces and the non-root
cells, square and nonsingular.

The weak curl maps a div-conforming (face-element) function into the
curl-conforming (edge-element) space through the duality
(weak_curl B, F) = (B, curl F).  It acts on full-length coefficient
vectors whose boundary-constrained entries are zero and returns a vector
of the same layout, so mass and incidence matrices apply without index
bookkeeping.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import minimum_spanning_tree

from .assembly import (RULE_DEG4, RULE_DEG6, QuadratureRule, Tabulation,
                       kernel_matrix)
from .derham import FeSpace, curl_incidence, div_incidence
from .linalg import factor
from .mesh import Mesh

# largest free face-DOF count the dense Poincare eigensolve accepts
POINCARE_DOF_LIMIT = 2000

# C in |v| <= C |grad v| for H1_0 functions on the unit cube, from the
# first Dirichlet eigenvalue 3 pi^2
POINCARE_H01 = 1.0 / (math.pi * math.sqrt(3.0))

# c1 in |v|_(0,6) <= c1 |grad v|: the sharp constant of the 3-d embedding
# of H1_0 into L6, valid on any domain by extension with zero
SOBOLEV_L6 = (math.gamma(3.0) / math.gamma(1.5)) ** (1.0 / 3.0) \
    / math.sqrt(3.0 * math.pi)


class DiscreteOps:
    """Spaces, fixed matrices, factorizations and tabulations of one mesh.

    Attributes:
      vel, pres, mult: velocity (with its essential condition), pressure
        and multiplier spaces; the step systems constrain the last two to
        zero mean.
      space_c, space_d: edge- and face-based spaces, each carrying its
        essential boundary condition.
      vel_mass, lap, bdiv, pres_mass: velocity mass, vector Laplacian,
        velocity-pressure pairing (div u, q) and pressure mass.
      M_c, M_d: edge and face mass matrices over the full index sets;
        constraints enter only through which rows get solved.
      K_cd: (faces x edges) pairing matrix (curl w_e, w_f).
      div, curl: face-to-cell and edge-to-face incidences.
      mean_p: integral of each pressure basis function.
      lu_c, lu_c_summary: factors of the edge mass over free edges and
        their linalg.factor summary.
      cotree: the free edges outside the edge tree, as positions among
        the free edges, ascending.
      g_ct: curl over (free faces x cotree edges).
      tree_faces: the dual-tree faces, as positions among the free faces,
        ascending.
      lu_t: factors of D_T = div over (cells 1.., tree_faces); cell 0 is
        the dual tree's root.
      plan: the solvers' step plan of the last (formulation, r_e, r_m,
        s), block factors included, cached here so it shares the
        context's lifetime.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.vel = FeSpace("P2", mesh, np.tile(np.concatenate(
            [mesh.boundary_vertex, mesh.boundary_edge]), 3))
        self.pres = FeSpace("P1", mesh, np.zeros(mesh.num_vertices, bool))
        self.mult = FeSpace("DG0", mesh, np.zeros(mesh.num_tets, bool))
        self.space_c = FeSpace("NedelecEdge0", mesh, mesh.boundary_edge)
        self.space_d = FeSpace("RaviartThomas0", mesh, mesh.boundary_face)
        self._tabs = {}
        tab = self.tab(RULE_DEG4)
        (self.vel_mass, self.lap, self.bdiv, self.pres_mass, self.M_c,
         self.M_d) = (kernel_matrix(tab, kernel) for kernel in (
             "velocity_mass", "laplacian", "divergence", "pressure_mass",
             "edge_mass", "face_mass"))
        self.div = div_incidence(mesh)
        self.curl = curl_incidence(mesh)
        self.K_cd = (self.M_d @ self.curl).tocsr()
        self.mean_p = np.zeros(self.pres.dof_count)
        np.add.at(self.mean_p, mesh.tets.ravel(),
                  np.repeat(mesh.volumes / 4.0, 4))
        free_c = self.space_c.free_index
        self.lu_c, self.lu_c_summary = factor(self.M_c[free_c][:, free_c])
        free_d = self.space_d.free_index
        self.cotree = _cotree_edges(mesh, free_c)
        self.g_ct = self.curl[free_d][:, free_c[self.cotree]].tocsr()
        # the cell graph: every free face joins its two cells
        div_free = self.div[:, free_d]
        cells = div_free.tocsc().indices.reshape(-1, 2)
        self.tree_faces = _spanning_tree(cells[:, 0], cells[:, 1],
                                         mesh.num_tets)
        self.lu_t, _ = factor(div_free[1:][:, self.tree_faces])
        self.plan = None

    def tab(self, rule: QuadratureRule) -> Tabulation:
        """The mesh's basis at one rule's points, tabulated on first use."""
        if rule not in self._tabs:
            self._tabs[rule] = Tabulation(self.mesh, rule)
        return self._tabs[rule]

    def weak_curl(self, B) -> np.ndarray:
        """Edge-element x with (x, F) = (B, curl F) for all admissible F."""
        free = self.space_c.free_index
        out = np.zeros(self.space_c.dof_count)
        out[free] = self.lu_c.solve((self.K_cd.T @ np.asarray(B, float))[free])
        return out

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


def _spanning_tree(a: np.ndarray, b: np.ndarray, n_nodes: int) -> np.ndarray:
    """Ascending positions k of the graph edges (a[k], b[k]) that form the
    minimum spanning tree when edge k weighs k + 1.  Self-loops are
    dropped, and of parallel edges only the first can be chosen: a sparse
    matrix would sum their weights."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    k = np.flatnonzero(lo != hi)
    _, first = np.unique(lo[k] * n_nodes + hi[k], return_index=True)
    k = k[first]
    graph = sp.csr_matrix(((k + 1).astype(float), (lo[k], hi[k])),
                          shape=(n_nodes, n_nodes))
    return np.sort(minimum_spanning_tree(graph).data.astype(np.int64) - 1)


def _cotree_edges(mesh: Mesh, free_c: np.ndarray) -> np.ndarray:
    """Positions among free_c of the free edges outside the spanning tree
    of the interior vertices, every boundary vertex merged into node 0."""
    inner = ~mesh.boundary_vertex
    node = np.zeros(mesh.num_vertices, dtype=np.int64)
    node[inner] = np.arange(1, 1 + np.count_nonzero(inner))
    ends = node[mesh.edges[free_c]]
    tree = _spanning_tree(ends[:, 0], ends[:, 1], node.max() + 1)
    return np.setdiff1d(np.arange(free_c.size), tree, assume_unique=True)


# ---------------------------------------------------------------------------
# constant estimators

def estimate_poincare_constant(mesh: Mesh) -> float | None:
    """Largest |B| / |weak curl B| over constrained divergence-free
    face-element fields; None on a mesh with more than POINCARE_DOF_LIMIT
    free face DOFs.

    Those fields are the curls of constrained edge fields, so the constant
    is 1 / sqrt(mu) for the smallest nonzero eigenvalue mu of the discrete
    Maxwell problem (curl w, curl v) = mu (w, v) over free edges, solved
    densely.  On the cube its kernel is exactly the gradients of the
    interior-vertex hats, so mu comes after one zero per interior vertex.
    """
    if np.count_nonzero(~mesh.boundary_face) > POINCARE_DOF_LIMIT:
        return None
    ops = discrete_ops(mesh)
    free_c = ops.space_c.free_index
    n_grad = int(np.count_nonzero(~mesh.boundary_vertex))
    stiff = (ops.curl.T @ ops.K_cd)[free_c][:, free_c].toarray()
    mass = ops.M_c[free_c][:, free_c].toarray()
    eigs = scipy.linalg.eigh(stiff, mass, eigvals_only=True)
    return float(1.0 / math.sqrt(eigs[n_grad]))


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
