"""Lowest-order de Rham spaces, Taylor-Hood pair, and canonical interpolation.

The four sequence spaces are P1 (vertices), lowest-order edge elements
(edges), lowest-order face elements (faces), and piecewise constants (tets).
Velocity is three stacked P2 scalar components, component-major, and
pressure is P1 with a zero-mean flag.

Orientation is fixed once and globally: edge tangents run from lower to
higher vertex index, face normals follow the right-hand rule on the
ascending-sorted vertex triple.  Element tabulation applies the matching
sign per tet, so coefficients are single-valued global DOFs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import _LOCAL_EDGES, _LOCAL_FACES, Mesh

_TAGS = ("P1", "P2", "NedelecEdge0", "RaviartThomas0", "DG0")


@dataclass(frozen=True)
class SpaceKind:
    tag: str
    components: int = 1

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown space tag {self.tag!r}")
        if self.components not in (1, 3):
            raise ValueError("components must be 1 or 3")
        if self.components == 3 and self.tag != "P2":
            raise ValueError("only the P2 velocity space is component-stacked")


P1 = SpaceKind("P1")
P2 = SpaceKind("P2")
VELOCITY = SpaceKind("P2", components=3)
NEDELEC = SpaceKind("NedelecEdge0")
RT = SpaceKind("RaviartThomas0")
DG0 = SpaceKind("DG0")


@dataclass(frozen=True, eq=False)
class FeSpace:
    """A finite element space bound to a mesh.

    boundary_dof marks DOFs eliminated by the essential boundary condition
    (empty mask when the space was built without one).  n_scalar is the DOF
    count of one component; dof_count = components * n_scalar.
    """

    kind: SpaceKind
    mesh: Mesh
    n_scalar: int
    dof_count: int
    boundary_dof: np.ndarray
    zero_mean: bool = False

    def __post_init__(self):
        self.boundary_dof.setflags(write=False)

    @property
    def n_free(self) -> int:
        return self.dof_count - int(self.boundary_dof.sum())

    @property
    def free_index(self) -> np.ndarray:
        return np.flatnonzero(~self.boundary_dof)


def _scalar_boundary_mask(mesh: Mesh, tag: str) -> np.ndarray:
    if tag == "P1":
        return mesh.boundary_vertex.copy()
    if tag == "P2":
        return np.concatenate([mesh.boundary_vertex, mesh.boundary_edge])
    if tag == "NedelecEdge0":
        return mesh.boundary_edge.copy()
    if tag == "RaviartThomas0":
        return mesh.boundary_face.copy()
    # piecewise constants carry no boundary DOFs
    return np.zeros(mesh.num_tets, dtype=bool)


def build_space(mesh: Mesh, kind: SpaceKind, essential_bc: bool,
                zero_mean: bool = False) -> FeSpace:
    """Enumerate DOFs in entity-index order and attach the BC mask.

    Vector (velocity) DOF layout is component-major: coefficient
    c*n_scalar + i is component c at scalar node i.
    """
    counts = {
        "P1": mesh.num_vertices,
        "P2": mesh.num_vertices + mesh.num_edges,
        "NedelecEdge0": mesh.num_edges,
        "RaviartThomas0": mesh.num_faces,
        "DG0": mesh.num_tets,
    }
    n_scalar = counts[kind.tag]
    if essential_bc:
        mask = np.tile(_scalar_boundary_mask(mesh, kind.tag), kind.components)
    else:
        mask = np.zeros(kind.components * n_scalar, dtype=bool)
    return FeSpace(kind=kind, mesh=mesh, n_scalar=n_scalar,
                   dof_count=kind.components * n_scalar,
                   boundary_dof=mask, zero_mean=zero_mean)


# ---------------------------------------------------------------------------
# reference shape functions (barycentric arguments, shape (nq, 4))

def p1_values(bary: np.ndarray) -> np.ndarray:
    return np.asarray(bary, dtype=float)


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
    """Edge-element values (T, nq, 6, 3) and constant curls (T, 6, 3)."""
    lam = np.asarray(bary, dtype=float)
    g = mesh.grad_bary
    s = _edge_signs(mesh)
    vals = np.empty((mesh.num_tets, lam.shape[0], 6, 3))
    curls = np.empty((mesh.num_tets, 6, 3))
    for k, (i, j) in enumerate(_LOCAL_EDGES):
        w = (lam[None, :, i, None] * g[:, None, j]
             - lam[None, :, j, None] * g[:, None, i])
        vals[:, :, k] = s[:, k, None, None] * w
        curls[:, k] = s[:, k, None] * 2.0 * np.cross(g[:, i], g[:, j])
    return vals, curls


def tabulate_rt(mesh: Mesh, bary: np.ndarray):
    """Face-element values (T, nq, 4, 3) and constant divergences (T, 4)."""
    lam = np.asarray(bary, dtype=float)
    g = mesh.grad_bary
    loc = _sorted_face_locals(mesh)                       # (T, 4, 3)
    t_idx = np.arange(mesh.num_tets)[:, None]
    ga = g[t_idx, loc[:, :, 0]]                           # (T, 4, 3)
    gb = g[t_idx, loc[:, :, 1]]
    gc = g[t_idx, loc[:, :, 2]]
    la = lam[:, loc[:, :, 0]].transpose(1, 0, 2)          # (T, nq, 4)
    lb = lam[:, loc[:, :, 1]].transpose(1, 0, 2)
    lc = lam[:, loc[:, :, 2]].transpose(1, 0, 2)
    cross_bc = np.cross(gb, gc)
    cross_ca = np.cross(gc, ga)
    cross_ab = np.cross(ga, gb)
    vals = 2.0 * (la[:, :, :, None] * cross_bc[:, None, :, :]
                  + lb[:, :, :, None] * cross_ca[:, None, :, :]
                  + lc[:, :, :, None] * cross_ab[:, None, :, :])
    divs = 6.0 * np.einsum("tfk,tfk->tf", ga, cross_bc)
    return vals, divs


def scalar_dof_points(mesh: Mesh, tag: str) -> np.ndarray:
    if tag == "P1":
        return mesh.vertices
    if tag == "P2":
        mid = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
        return np.vstack([mesh.vertices, mid])
    raise ValueError(f"no nodal points for {tag!r}")


def interpolate(space: FeSpace, field) -> np.ndarray:
    """Canonical interpolation: evaluate the space's DOF functionals.

    Lagrange spaces use point values, edge elements tangential line moments,
    face elements normal flux moments, DG0 cell averages.  field is a
    callable taking points (n, 3) and returning (n,) or (n, 3).
    """
    from .assembly import DOF_EDGE_RULE, DOF_TET_RULE, DOF_TRI_RULE

    mesh = space.mesh
    tag = space.kind.tag
    if tag in ("P1", "P2"):
        pts = scalar_dof_points(mesh, tag)
        vals = np.asarray(field(pts), dtype=float)
        if space.kind.components == 3:
            if vals.shape != (space.n_scalar, 3):
                raise ValueError("vector field must return (n, 3)")
            return np.concatenate([vals[:, c] for c in range(3)])
        return vals

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
    """Containing tet and barycentric coordinates for each point."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    if mesh.grid_shape is not None:
        nx, ny, nz = mesh.grid_shape
        lo = mesh.box[:, 0]
        ext = mesh.box[:, 1] - mesh.box[:, 0]
        rel = (points - lo) / ext * np.array([nx, ny, nz])
        idx = np.clip(np.floor(rel).astype(np.int64), 0,
                      np.array([nx, ny, nz]) - 1)
        cube = idx[:, 0] + nx * (idx[:, 1] + ny * idx[:, 2])
        candidates = 6 * cube[:, None] + np.arange(6)[None, :]
    else:
        candidates = np.broadcast_to(np.arange(mesh.num_tets), (n, mesh.num_tets))

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
    """Evaluate the FE function with the given coefficients at points.

    Returns (n,) for scalar spaces and (n, 3) for vector-valued ones.  For
    box meshes location is O(1) per point through the cube grid.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (space.dof_count,):
        raise ValueError(f"expected {space.dof_count} coefficients")
    mesh = space.mesh
    tag = space.kind.tag
    tet_of, bary = _locate(mesh, points)
    n = tet_of.size

    if tag == "P1":
        return np.einsum("ni,ni->n", bary, coeffs[mesh.tets[tet_of]])
    if tag == "P2":
        vals = p2_values(bary)
        gdofs = np.concatenate([mesh.tets[tet_of],
                                mesh.num_vertices + mesh.tet_edges[tet_of]], axis=1)
        if space.kind.components == 3:
            out = np.empty((n, 3))
            for c in range(3):
                out[:, c] = np.einsum("ni,ni->n", vals,
                                      coeffs[c * space.n_scalar + gdofs])
            return out
        return np.einsum("ni,ni->n", vals, coeffs[gdofs])
    if tag == "DG0":
        return coeffs[tet_of]

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


def grad_incidence(mesh: Mesh) -> sp.csr_matrix:
    """Vertex→edge incidence: nodal values of a P1 function map to the
    edge-element coefficients of its gradient, row e = (-1 tail, +1 head)."""
    e = np.repeat(np.arange(mesh.num_edges), 2)
    v = mesh.edges.ravel()
    s = np.tile(np.array([-1.0, 1.0]), mesh.num_edges)
    return sp.csr_matrix((s, (e, v)), shape=(mesh.num_edges, mesh.num_vertices))


def check_commuting(mesh: Mesh, field) -> dict:
    """Defect norms of the two commuting squares for an analytic field.

    field carries .value and optionally .curl / .div callables.  Returns
    discrete-L2 norms of curl(interp_edge F) - interp_face(curl F) and
    div(interp_face C) - cellavg(div C); entries are None when the matching
    derivative is not supplied.
    """
    from .assembly import FormKind, assemble

    out = {"curl_defect": None, "div_defect": None}
    value = field.value if hasattr(field, "value") else field["value"]
    curl = getattr(field, "curl", None) if hasattr(field, "value") else field.get("curl")
    div = getattr(field, "div", None) if hasattr(field, "value") else field.get("div")

    if curl is not None:
        ned = build_space(mesh, NEDELEC, essential_bc=False)
        rt = build_space(mesh, RT, essential_bc=False)
        defect = curl_incidence(mesh) @ interpolate(ned, value) \
            - interpolate(rt, curl)
        m_d = assemble(FormKind("Mass"), rt, rt)
        out["curl_defect"] = float(np.sqrt(abs(defect @ (m_d @ defect))))

    if div is not None:
        rt = build_space(mesh, RT, essential_bc=False)
        dg = build_space(mesh, DG0, essential_bc=False)
        cell_div = (div_incidence(mesh) @ interpolate(rt, value)) / mesh.volumes
        defect = cell_div - interpolate(dg, div)
        out["div_defect"] = float(np.sqrt(np.sum(mesh.volumes * defect ** 2)))
    return out


@dataclass(frozen=True)
class AnalyticField:
    """Analytic field bundle for interpolation checks."""

    value: object
    curl: object = None
    div: object = None
