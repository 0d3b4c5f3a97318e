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
sign per tet, so coefficients are single-valued global DOFs.  Point
evaluation finds each point's tet through the unit cube's grid of cubes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import _LOCAL_EDGES, _LOCAL_FACES, Mesh

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
    tf = mesh.tets[:, _LOCAL_FACES]
    order = np.argsort(tf, axis=2)
    return np.take_along_axis(
        np.broadcast_to(_LOCAL_FACES, tf.shape), order, axis=2)


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


def tabulate_nedelec(mesh: Mesh, bary: np.ndarray):
    """Edge values (T, nq, 6, 3), stored function-major, curls (T, 6, 3)."""
    lam = np.asarray(bary, dtype=float)
    g = mesh.grad_bary
    s = _edge_signs(mesh)
    vals = np.empty((mesh.num_tets, 6, lam.shape[0], 3))
    curls = np.empty((mesh.num_tets, 6, 3))
    for k, (i, j) in enumerate(_LOCAL_EDGES):
        w = (lam[None, :, i, None] * g[:, None, j]
             - lam[None, :, j, None] * g[:, None, i])
        vals[:, k] = s[:, k, None, None] * w
        curls[:, k] = s[:, k, None] * 2.0 * np.cross(g[:, i], g[:, j])
    return vals.transpose(0, 2, 1, 3), curls


def tabulate_rt(mesh: Mesh, bary: np.ndarray):
    """Face values (T, nq, 4, 3), stored function-major, and div (T, 4)."""
    lam = np.asarray(bary, dtype=float)
    g = mesh.grad_bary
    loc = _sorted_face_locals(mesh)                       # (T, 4, 3)
    t_idx = np.arange(mesh.num_tets)[:, None]
    ga = g[t_idx, loc[:, :, 0]]                           # (T, 4, 3)
    gb = g[t_idx, loc[:, :, 1]]
    gc = g[t_idx, loc[:, :, 2]]
    la, lb, lc = (lam[:, loc[:, :, m]].transpose(1, 2, 0)[..., None]
                  for m in range(3))                      # (T, 4, nq, 1)
    cross_bc = np.cross(gb, gc)
    cross_ca = np.cross(gc, ga)
    cross_ab = np.cross(ga, gb)
    vals = np.ascontiguousarray(2.0 * (la * cross_bc[:, :, None]
                                       + lb * cross_ca[:, :, None]
                                       + lc * cross_ab[:, :, None]))
    divs = 6.0 * np.einsum("tfk,tfk->tf", ga, cross_bc)
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


# ---------------------------------------------------------------------------
# point evaluation

def _locate(mesh: Mesh, points: np.ndarray, tol: float = 1e-10):
    """Containing tet and barycentric coordinates for each point; only the
    six tets of the point's cube in the unit cube's grid are tried, in
    Kuhn permutation order, and the first that holds the point wins."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    nx, ny, nz = dims = np.array(mesh.grid_shape)
    idx = np.clip(np.floor(points * dims).astype(np.int64), 0, dims - 1)
    cube = idx[:, 0] + nx * (idx[:, 1] + ny * idx[:, 2])
    candidates = 6 * cube[:, None] + np.arange(6)[None, :]

    tet_of = np.full(n, -1, dtype=np.int64)
    bary = np.zeros((n, 4))
    remaining = np.arange(n)
    for k in range(candidates.shape[1]):
        if remaining.size == 0:
            break
        t = candidates[remaining, k]
        x0 = mesh.vertices[mesh.tets[t, 0]]
        lam = np.empty((remaining.size, 4))
        lam[:, 1:] = np.einsum("tik,tk->ti", mesh.grad_bary[t, 1:],
                               points[remaining] - x0)
        lam[:, 0] = 1.0 - lam[:, 1:].sum(axis=1)
        inside = lam.min(axis=1) >= -tol
        hit = remaining[inside]
        tet_of[hit] = t[inside]
        bary[hit] = lam[inside]
        remaining = remaining[~inside]
    if remaining.size:
        raise ValueError(f"point {points[remaining[0]]} is outside the mesh")
    return tet_of, bary


def point_eval(space: FeSpace, coeffs, points) -> np.ndarray:
    """Evaluate the edge- or face-element function with the given
    coefficients at points, (n, 3); other spaces are evaluated at
    quadrature points (assembly.Tabulation).  Location is O(1) per point
    through the unit cube's grid (see _locate)."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (space.dof_count,):
        raise ValueError(f"expected {space.dof_count} coefficients")
    mesh = space.mesh
    tag = space.tag
    tet_of, bary = _locate(mesh, points)
    n = tet_of.size
    g = mesh.grad_bary[tet_of]
    if tag == "NedelecEdge0":
        s = _edge_signs(mesh)[tet_of]
        out = np.zeros((n, 3))
        c = coeffs[mesh.tet_edges[tet_of]]
        for k, (i, j) in enumerate(_LOCAL_EDGES):
            w = bary[:, i, None] * g[:, j] - bary[:, j, None] * g[:, i]
            out += (s[:, k] * c[:, k])[:, None] * w
        return out
    if tag == "RaviartThomas0":
        loc = _sorted_face_locals(mesh)[tet_of]
        out = np.zeros((n, 3))
        c = coeffs[mesh.tet_faces[tet_of]]
        r = np.arange(n)
        for k in range(4):
            la, lb, lc = (bary[r, loc[:, k, 0]], bary[r, loc[:, k, 1]],
                          bary[r, loc[:, k, 2]])
            ga, gb, gc = (g[r, loc[:, k, 0]], g[r, loc[:, k, 1]],
                          g[r, loc[:, k, 2]])
            w = 2.0 * (la[:, None] * np.cross(gb, gc)
                       + lb[:, None] * np.cross(gc, ga)
                       + lc[:, None] * np.cross(ga, gb))
            out += c[:, k, None] * w
        return out
    raise ValueError(f"cannot evaluate {tag!r}")


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
