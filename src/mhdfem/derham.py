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
ascending-sorted vertex triple.  The per-tet coefficients carry the
matching sign per tet, so coefficients are single-valued global DOFs.
Each edge and face basis is written once, in whitney_coefficients: both
are linear in the barycentric coordinates, so their values at a tet's four
vertices, from the per-tet barycentric gradients, define them.  A field is
combined on each tet first and evaluated at its points second, by
point_eval (at the tets mesh.locate finds) and by assembly.Tabulation; the
fixed forms contract the coefficients in closed form and evaluate nothing.
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


def p2_derivatives(bary: np.ndarray) -> np.ndarray:
    """Derivatives of the P2 functions in the barycentric coordinates,
    (nq, 10, 4): the gradient of function i is sum_m d[:, i, m] grad lam_m."""
    lam = np.asarray(bary, dtype=float)
    d = np.zeros((lam.shape[0], 10, 4))
    d[:, np.arange(4), np.arange(4)] = 4.0 * lam - 1.0
    i, j = _LOCAL_EDGES.T
    d[:, 4 + np.arange(6), i] = 4.0 * lam[:, j]
    d[:, 4 + np.arange(6), j] = 4.0 * lam[:, i]
    return d


def _edge_signs(mesh: Mesh) -> np.ndarray:
    a = mesh.tets[:, _LOCAL_EDGES[:, 0]]
    b = mesh.tets[:, _LOCAL_EDGES[:, 1]]
    return np.where(a < b, 1.0, -1.0)


def _sorted_face_locals(mesh: Mesh) -> np.ndarray:
    # local vertex positions of each tet face, ordered by global vertex id
    order = np.argsort(mesh.tets[:, _LOCAL_FACES], axis=2)
    return _LOCAL_FACES[np.arange(4)[:, None], order]


def whitney_coefficients(mesh: Mesh, tag: str) -> np.ndarray:
    """The edge ("NedelecEdge0") or face ("RaviartThomas0") functions as
    per-tet barycentric coefficients, (T, n, 4, 3) function-major: function
    k is sum_m lam_m c[:, k, m], c[:, k, m] being its value at vertex m.

    Edge k = (i, j) of the tet carries s_k (lam_i grad lam_j - lam_j grad
    lam_i), s_k its sign; face f, with sorted local vertices a, b, c,
    carries 2 (lam_a grad lam_b x grad lam_c + lam_b grad lam_c x grad lam_a
    + lam_c grad lam_a x grad lam_b)."""
    g = mesh.grad_bary
    if tag == "NedelecEdge0":
        s = _edge_signs(mesh)[..., None]
        i, j = _LOCAL_EDGES.T
        out = np.zeros((mesh.num_tets, 6, 4, 3))
        out[:, np.arange(6), i] = s * g[:, j]
        out[:, np.arange(6), j] = -s * g[:, i]
        return out
    t = np.arange(mesh.num_tets)[:, None]
    loc = _sorted_face_locals(mesh)                       # (T, 4, 3)
    ga, gb, gc = (g[t, loc[:, :, m]] for m in range(3))
    out = np.zeros((mesh.num_tets, 4, 4, 3))
    for m, (x, y) in enumerate(((gb, gc), (gc, ga), (ga, gb))):
        out[t, np.arange(4), loc[:, :, m]] = 2.0 * np.cross(x, y)
    return out


def tet_field(basis: np.ndarray, local: np.ndarray) -> np.ndarray:
    """Per-tet barycentric coefficients (T, 4, 3) of the field
    sum_k local[:, k] w_k, from the basis coefficients (T, n, 4, 3) of
    whitney_coefficients and the local coefficient vectors (T, n)."""
    return np.matmul(local[:, None], basis.reshape(*local.shape, 12)) \
        .reshape(-1, 4, 3)


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
    coefficients at points, (n, 3), in the tets mesh.locate finds: the
    field is combined on every tet first (tet_field) and evaluated at the
    points' barycentric coordinates second; other spaces are evaluated at
    quadrature points (assembly.Tabulation)."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (space.dof_count,):
        raise ValueError(f"expected {space.dof_count} coefficients")
    mesh = space.mesh
    local = {"NedelecEdge0": mesh.tet_edges,
             "RaviartThomas0": mesh.tet_faces}.get(space.tag)
    if local is None:
        raise ValueError(f"cannot evaluate {space.tag!r}")
    tet_of, bary = locate(mesh, points)
    field = tet_field(whitney_coefficients(mesh, space.tag), coeffs[local])
    return np.matmul(bary[:, None], field[tet_of])[:, 0]


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
