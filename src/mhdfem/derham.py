"""Lowest-order de Rham elements and the Taylor-Hood pair: the space
record, shape functions, interpolation, point evaluation and incidences.

The four sequence spaces are P1 (vertices), lowest-order edge elements
(edges), lowest-order face elements (faces), and piecewise constants (tets).
Velocity is three stacked P2 scalar components, component-major (with n
scalar nodes, coefficient c*n + i is component c at node i), and pressure
is P1.  DOFs follow entity-index order.  Only operators.DiscreteOps, the
per-mesh context, builds a mesh's spaces.

Orientation is fixed once and globally: edge tangents run from lower to
higher vertex index, face normals follow the right-hand rule on the
ascending-sorted vertex triple.  Element tabulation applies the matching
sign per tet, so coefficients are single-valued global DOFs.  Each edge
and face basis is written once, as a function of per-tet barycentric
gradients and barycentric points; tabulation and point evaluation (at
the tets mesh.locate finds) both call it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import _LOCAL_EDGES, _LOCAL_FACES, Mesh, locate

@dataclass(frozen=True, eq=False)
class FeSpace:
    """A finite element space bound to a mesh.

    tag names the element: "P1", "P2" (the velocity, three components),
    "NedelecEdge0", "RaviartThomas0" or "DG0".  boundary_dof marks, per
    DOF, those the essential boundary condition eliminates.
    """

    tag: str
    mesh: Mesh
    boundary_dof: np.ndarray

    def __post_init__(self):
        self.boundary_dof.setflags(write=False)

    @property
    def dof_count(self) -> int:
        return self.boundary_dof.size

    @property
    def free_index(self) -> np.ndarray:
        return np.flatnonzero(~self.boundary_dof)


# ---------------------------------------------------------------------------
# reference shape functions (barycentric arguments, shape (nq, 4))

def p2_values(bary: np.ndarray) -> np.ndarray:
    """P2 values, local order: 4 vertex functions then 6 edge bubbles."""
    lam = np.asarray(bary, dtype=float)
    vert = lam * (2.0 * lam - 1.0)
    edge = 4.0 * lam[:, _LOCAL_EDGES[:, 0]] * lam[:, _LOCAL_EDGES[:, 1]]
    return np.concatenate([vert, edge], axis=1)


def _edge_signs(mesh: Mesh) -> np.ndarray:
    a = mesh.tets[:, _LOCAL_EDGES[:, 0]]
    b = mesh.tets[:, _LOCAL_EDGES[:, 1]]
    return np.where(a < b, 1.0, -1.0)


def _sorted_face_locals(mesh: Mesh) -> np.ndarray:
    # local vertex positions of each tet face, ordered by global vertex id
    order = np.argsort(mesh.tets[:, _LOCAL_FACES], axis=2)
    return _LOCAL_FACES[np.arange(4)[:, None], order]


def tabulate_p2_gradients(mesh: Mesh, bary: np.ndarray) -> np.ndarray:
    """Physical gradients of the 10 local P2 functions, (T, nq, 10, 3)."""
    lam = np.asarray(bary, dtype=float)
    g = mesh.grad_bary                                    # (T, 4, 3)
    out = np.empty((mesh.num_tets, lam.shape[0], 10, 3))
    out[:, :, :4] = (4.0 * lam - 1.0)[None, :, :, None] * g[:, None, :, :]
    for k, (i, j) in enumerate(_LOCAL_EDGES):
        out[:, :, 4 + k] = 4.0 * (lam[None, :, i, None] * g[:, None, j]
                                  + lam[None, :, j, None] * g[:, None, i])
    return out


def _nedelec_values(g, s, lam):
    """Signed Whitney edge functions s_k (lam_i grad lam_j - lam_j grad
    lam_i), (T, 6, nq, 3) function-major, from the barycentric gradients g
    (T, 4, 3), edge signs s (T, 6) and barycentric points (1 or T, nq, 4)."""
    vals = np.empty((g.shape[0], 6, lam.shape[1], 3))
    for k, (i, j) in enumerate(_LOCAL_EDGES):
        w = lam[:, :, i, None] * g[:, None, j] - lam[:, :, j, None] * g[:, None, i]
        vals[:, k] = s[:, k, None, None] * w
    return vals


def _rt_values(g, loc, lam):
    """Face functions 2 (la gb x gc + lb gc x ga + lc ga x gb) of each
    face's sorted local vertices a, b, c (loc, (T, 4, 3)), (T, 4, nq, 3)
    function-major; g and lam as in _nedelec_values."""
    t_idx = np.arange(g.shape[0])[:, None]
    ga, gb, gc = (g[t_idx, loc[:, :, m]] for m in range(3))    # (T, 4, 3)
    lam = np.broadcast_to(lam, (g.shape[0],) + lam.shape[1:])
    la, lb, lc = (lam[t_idx, :, loc[:, :, m]][..., None]
                  for m in range(3))                            # (T, 4, nq, 1)
    return np.ascontiguousarray(2.0 * (la * np.cross(gb, gc)[:, :, None]
                                       + lb * np.cross(gc, ga)[:, :, None]
                                       + lc * np.cross(ga, gb)[:, :, None]))


def tabulate_nedelec(mesh: Mesh, bary: np.ndarray):
    """Edge values (T, nq, 6, 3), stored function-major, curls (T, 6, 3)."""
    g = mesh.grad_bary
    s = _edge_signs(mesh)
    vals = _nedelec_values(g, s, np.asarray(bary, dtype=float)[None])
    curls = s[:, :, None] * 2.0 * np.cross(g[:, _LOCAL_EDGES[:, 0]],
                                           g[:, _LOCAL_EDGES[:, 1]])
    return vals.transpose(0, 2, 1, 3), curls


def tabulate_rt(mesh: Mesh, bary: np.ndarray):
    """Face values (T, nq, 4, 3), stored function-major, and div (T, 4)."""
    g = mesh.grad_bary
    loc = _sorted_face_locals(mesh)                       # (T, 4, 3)
    vals = _rt_values(g, loc, np.asarray(bary, dtype=float)[None])
    t_idx = np.arange(mesh.num_tets)[:, None]
    ga, gb, gc = (g[t_idx, loc[:, :, m]] for m in range(3))
    divs = 6.0 * np.einsum("tfk,tfk->tf", ga, np.cross(gb, gc))
    return vals.transpose(0, 2, 1, 3), divs


def interpolate(space: FeSpace, field) -> np.ndarray:
    """Canonical interpolation into the edge, face or cell space: evaluate
    the space's DOF functionals.

    Edge elements take tangential line moments, face elements normal flux
    moments, DG0 cell averages.  field is a callable taking points (n, 3)
    and returning (n, 3), or (n,) for DG0.
    """
    from .assembly import DOF_EDGE_RULE, DOF_TET_RULE, DOF_TRI_RULE

    mesh = space.mesh
    tag = space.tag
    if tag == "NedelecEdge0":
        t, w = DOF_EDGE_RULE
        a = mesh.vertices[mesh.edges[:, 0]]
        d = mesh.vertices[mesh.edges[:, 1]] - a
        pts = a[:, None, :] + t[None, :, None] * d[:, None, :]
        f = np.asarray(field(pts.reshape(-1, 3)), dtype=float).reshape(len(a), -1, 3)
        return np.einsum("q,eqk,ek->e", w, f, d)

    if tag == "RaviartThomas0":
        bary, w = DOF_TRI_RULE
        x = mesh.vertices[mesh.faces]                     # (F, 3, 3) sorted verts
        pts = np.einsum("qi,fik->fqk", bary, x)
        normal = np.cross(x[:, 1] - x[:, 0], x[:, 2] - x[:, 0])
        f = np.asarray(field(pts.reshape(-1, 3)), dtype=float).reshape(len(x), -1, 3)
        return np.einsum("q,fqk,fk->f", w, f, normal)

    if tag == "DG0":
        bary, w = DOF_TET_RULE
        x = mesh.vertices[mesh.tets]
        pts = np.einsum("qi,tik->tqk", bary, x)
        f = np.asarray(field(pts.reshape(-1, 3)), dtype=float).reshape(len(x), -1)
        # reference weights sum to 1/6, so the average carries a factor 6
        return 6.0 * np.einsum("q,tq->t", w, f)

    raise ValueError(f"cannot interpolate into {tag!r}")


def point_eval(space: FeSpace, coeffs, points) -> np.ndarray:
    """Evaluate the edge- or face-element function with the given
    coefficients at points, (n, 3), in the tets mesh.locate finds, as the
    sum of c_k w_k in local order; other spaces are evaluated at
    quadrature points (assembly.Tabulation)."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (space.dof_count,):
        raise ValueError(f"expected {space.dof_count} coefficients")
    mesh = space.mesh
    if space.tag not in ("NedelecEdge0", "RaviartThomas0"):
        raise ValueError(f"cannot evaluate {space.tag!r}")
    tet_of, bary = locate(mesh, points)
    g = mesh.grad_bary[tet_of]
    if space.tag == "NedelecEdge0":
        w = _nedelec_values(g, _edge_signs(mesh)[tet_of], bary[:, None])
        c = coeffs[mesh.tet_edges[tet_of]]
    else:
        w = _rt_values(g, _sorted_face_locals(mesh)[tet_of], bary[:, None])
        c = coeffs[mesh.tet_faces[tet_of]]
    return sum(c[:, k, None] * w[:, k, 0] for k in range(c.shape[1]))


# ---------------------------------------------------------------------------
# incidence matrices and the commuting diagram

def curl_incidence(mesh: Mesh) -> sp.csr_matrix:
    """Edge→face incidence G: edge-element coefficients map to face-element
    coefficients of the exact curl, G[f, e] = ±1."""
    f = np.repeat(np.arange(mesh.num_faces), 3)
    e = mesh.face_edges.ravel()
    s = mesh.face_edge_sign.ravel().astype(float)
    return sp.csr_matrix((s, (f, e)), shape=(mesh.num_faces, mesh.num_edges))


def div_incidence(mesh: Mesh) -> sp.csr_matrix:
    """Face→cell incidence D: row t holds the outward signs of tet t's
    faces, so (D c)_t = |T_t| * div of the face-element function on tet t."""
    t = np.repeat(np.arange(mesh.num_tets), 4)
    f = mesh.tet_faces.ravel()
    s = mesh.tet_face_sign.ravel().astype(float)
    return sp.csr_matrix((s, (t, f)), shape=(mesh.num_tets, mesh.num_faces))


def check_commuting(ops, value, curl, div) -> dict:
    """Defect norms of the two commuting squares for an analytic field, on
    the spaces and incidences of ops, a mesh's operators.DiscreteOps.

    value, curl and div are callables of points (n, 3), returning the
    field, its curl and its divergence.  Returns the discrete-L2 norms of
    curl(interp_edge value) - interp_face(curl) and
    div(interp_face value) - cellavg(div).  Interpolation reads no
    boundary mask, so the constrained spaces serve.
    """
    mesh = ops.mesh
    defect = ops.curl @ interpolate(ops.space_c, value) \
        - interpolate(ops.space_d, curl)
    curl_defect = float(np.sqrt(abs(defect @ (ops.M_d @ defect))))

    cell_div = (ops.div @ interpolate(ops.space_d, value)) / mesh.volumes
    defect = cell_div - interpolate(ops.mult, div)
    return {"curl_defect": curl_defect,
            "div_defect": float(np.sqrt(np.sum(mesh.volumes * defect ** 2)))}
