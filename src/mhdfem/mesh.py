"""Tetrahedral meshes of the unit cube with oriented topology.

The unit cube [0, 1]^3 is split into a grid of cubes, each into six
tetrahedra that all share the cube's main diagonal (Kuhn subdivision), so
uniform refinements stay nested and faces match across neighbouring cubes.
Edges and faces are stored with ascending vertex indices; orientation signs
relative to each tet are derived from that single global convention.
build_box_mesh is the only source of meshes: there is no general tet-mesh
input and no other domain.

Only this module states the Kuhn grid: the order of a cube's six tets,
the cube numbering and kuhn_order's tie rule, from which locate finds each
point's tet in closed form.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


class MeshError(Exception):
    """Invalid subdivision counts."""


# local vertex pairs/triples of a tet; face k is opposite vertex k
_LOCAL_EDGES = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
_LOCAL_FACES = np.array([(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)])


@dataclass(frozen=True, eq=False)
class Mesh:
    """Tet mesh with derived edge/face topology and orientation signs.

    Immutable after construction: all arrays are marked read-only.  Equality
    is identity so meshes can key caches.
    """

    vertices: np.ndarray        # (V, 3) float
    tets: np.ndarray            # (T, 4) int, positive signed volume
    edges: np.ndarray           # (E, 2) int, rows ascending
    faces: np.ndarray           # (F, 3) int, rows ascending
    tet_edges: np.ndarray       # (T, 6) edge ids, _LOCAL_EDGES order
    tet_faces: np.ndarray       # (T, 4) face ids, _LOCAL_FACES order
    tet_face_sign: np.ndarray   # (T, 4) +1 if global face normal points outward
    face_edges: np.ndarray      # (F, 3) edge ids of (a,b),(b,c),(a,c) for face (a<b<c)
    face_edge_sign: np.ndarray  # (F, 3) = (+1, +1, -1) boundary-orientation signs
    boundary_vertex: np.ndarray  # (V,) bool
    boundary_edge: np.ndarray    # (E,) bool
    boundary_face: np.ndarray    # (F,) bool
    volumes: np.ndarray          # (T,)
    grad_bary: np.ndarray        # (T, 4, 3) gradients of the barycentric functions
    h: float                     # max circumdiameter over tets
    grid_shape: tuple[int, int, int]   # (nx, ny, nz) cube counts

    def __post_init__(self):
        for name in ("vertices", "tets", "edges", "faces", "tet_edges",
                     "tet_faces", "tet_face_sign", "face_edges",
                     "face_edge_sign", "boundary_vertex", "boundary_edge",
                     "boundary_face", "volumes", "grad_bary"):
            getattr(self, name).setflags(write=False)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def num_faces(self) -> int:
        return self.faces.shape[0]

    @property
    def num_tets(self) -> int:
        return self.tets.shape[0]


def _circumdiameters(vertices: np.ndarray, tets: np.ndarray) -> np.ndarray:
    # circumcenter c solves 2(x_i - x_0)·c = |x_i|^2 - |x_0|^2, i = 1..3
    x = vertices[tets]
    a = 2.0 * (x[:, 1:] - x[:, :1])
    rhs = np.sum(x[:, 1:] ** 2, axis=2) - np.sum(x[:, :1] ** 2, axis=2)
    c = np.linalg.solve(a, rhs[:, :, None])[:, :, 0]
    return 2.0 * np.linalg.norm(c - x[:, 0], axis=1)


def _derive_topology(vertices: np.ndarray, tets: np.ndarray,
                     grid_shape) -> Mesh:
    """Build the Mesh of the unit cube's Kuhn tets, deriving all topology.

    Edges and faces are deduplicated through sorted vertex keys.  Boundary
    faces are those incident to exactly one tet; boundary edges and vertices
    are inherited downward from boundary faces.  build_box_mesh hands over
    positively oriented tets, so no input is checked or reordered here.
    """
    nv = vertices.shape[0]
    x = vertices[tets]
    vol = np.linalg.det(x[:, 1:] - x[:, :1]) / 6.0

    edge_keys = np.sort(tets[:, _LOCAL_EDGES], axis=2).reshape(-1, 2)
    edges, tet_edges = np.unique(edge_keys, axis=0, return_inverse=True)
    tet_edges = tet_edges.reshape(-1, 6)

    face_keys = np.sort(tets[:, _LOCAL_FACES], axis=2).reshape(-1, 3)
    faces, tet_faces = np.unique(face_keys, axis=0, return_inverse=True)
    tet_faces = tet_faces.reshape(-1, 4)

    boundary_face = np.bincount(tet_faces.ravel(),
                                minlength=faces.shape[0]) == 1

    # edges of face (a<b<c): (a,b), (b,c), (a,c) with signs (+1, +1, -1)
    fe_keys = np.stack([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [0, 2]]], axis=1)
    enc = edges[:, 0] * np.int64(nv) + edges[:, 1]
    fe_enc = fe_keys[:, :, 0] * np.int64(nv) + fe_keys[:, :, 1]
    face_edges = np.searchsorted(enc, fe_enc)
    face_edge_sign = np.tile(np.array([1, 1, -1], dtype=np.int64), (faces.shape[0], 1))

    # outward test: +1 when the ascending-order face normal leaves the tet
    fx = vertices[faces[tet_faces]]                       # (T, 4, 3, 3)
    normal = np.cross(fx[:, :, 1] - fx[:, :, 0], fx[:, :, 2] - fx[:, :, 0])
    centroid = fx.mean(axis=2)
    opposite = vertices[tets][:, np.arange(4), :]         # vertex k faces _LOCAL_FACES[k]
    tet_face_sign = np.where(
        np.einsum("tfk,tfk->tf", normal, centroid - opposite) > 0.0, 1, -1
    ).astype(np.int64)

    boundary_edge = np.zeros(edges.shape[0], dtype=bool)
    boundary_edge[face_edges[boundary_face].ravel()] = True
    boundary_vertex = np.zeros(nv, dtype=bool)
    boundary_vertex[faces[boundary_face].ravel()] = True

    # gradients of barycentric coordinates: rows of the inverse edge matrix
    jac = np.swapaxes(x[:, 1:] - x[:, :1], 1, 2)          # columns x_i - x_0
    inv = np.linalg.inv(jac)
    grad = np.empty((tets.shape[0], 4, 3))
    grad[:, 1:] = inv
    grad[:, 0] = -inv.sum(axis=1)

    return Mesh(
        vertices=vertices, tets=tets, edges=edges, faces=faces,
        tet_edges=tet_edges, tet_faces=tet_faces, tet_face_sign=tet_face_sign,
        face_edges=face_edges, face_edge_sign=face_edge_sign,
        boundary_vertex=boundary_vertex, boundary_edge=boundary_edge,
        boundary_face=boundary_face, volumes=vol, grad_bary=grad,
        h=float(np.max(_circumdiameters(vertices, tets))),
        grid_shape=grid_shape,
    )


# vertex chains of the six Kuhn tets: corner -> +e_p0 -> +e_p1 -> +e_p2,
# in lexicographic order; a chain's first two axes give its rank
_KUHN_PERMS = list(itertools.permutations((0, 1, 2)))
_KUHN_RANK = np.zeros((3, 3), dtype=np.int64)
_KUHN_RANK[tuple(np.array(_KUHN_PERMS)[:, :2].T)] = np.arange(6)


def build_box_mesh(nx: int, ny: int, nz: int) -> Mesh:
    """Mesh the unit cube with nx*ny*nz cubes, 6 Kuhn tets each.

    All tets of a cube share its main diagonal, and every cube uses the same
    diagonal direction, so faces match across cubes and uniform refinements
    are nested.  Tets are stored cube-major: tet 6*c + k is the k-th
    permutation tet of cube c, cube (i, j, k) being c = i + nx*(j + ny*k).
    """
    for name, n in (("nx", nx), ("ny", ny), ("nz", nz)):
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise MeshError(f"{name} must be a positive integer, got {n!r}")

    axes = [np.linspace(0.0, 1.0, n + 1) for n in (nx, ny, nz)]
    gz, gy, gx = np.meshgrid(axes[2], axes[1], axes[0], indexing="ij")
    vertices = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])

    # each cube's lowest vertex, and the vertex id step along each axis
    corner = np.arange(len(vertices)).reshape(nz + 1, ny + 1, nx + 1)
    corner = corner[:-1, :-1, :-1].ravel()
    stride = np.array([1, nx + 1, (nx + 1) * (ny + 1)])
    tets = np.empty((corner.size, 6, 4), dtype=np.int64)
    for k, perm in enumerate(_KUHN_PERMS):
        chain = np.cumsum([0, *stride[list(perm)]])
        if np.linalg.det(np.eye(3)[list(perm)]) < 0:
            chain[[1, 2]] = chain[[2, 1]]     # odd: orient positively
        tets[:, k] = corner[:, None] + chain

    return _derive_topology(vertices, tets.reshape(-1, 4), (nx, ny, nz))


def kuhn_order(xi: np.ndarray) -> np.ndarray:
    """Each row's axes, largest coordinate first, ties by ascending axis:
    the chain of the first Kuhn permutation whose tet holds the point xi
    of the unit cube."""
    return np.argsort(-xi, axis=1, kind="stable")


def locate(mesh: Mesh, points) -> tuple[np.ndarray, np.ndarray]:
    """Tet and barycentric coordinates of each point (n, 3): its cube of
    the grid, then the tet of kuhn_order of its coordinates in that cube.
    A point that is not finite, or has a barycentric below -1e-10 there,
    is outside the mesh and raises ValueError."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        raise ValueError(f"point {points[~finite][0]} is outside the mesh")
    dims = np.array(mesh.grid_shape)
    idx = np.clip(np.floor(points * dims), 0, dims - 1).astype(np.int64)
    order = kuhn_order(points * dims - idx)
    cube = idx[:, 0] + dims[0] * (idx[:, 1] + dims[1] * idx[:, 2])
    tet = 6 * cube + _KUHN_RANK[order[:, 0], order[:, 1]]
    bary = np.empty((tet.size, 4))
    bary[:, 1:] = np.einsum("tik,tk->ti", mesh.grad_bary[tet, 1:],
                            points - mesh.vertices[mesh.tets[tet, 0]])
    bary[:, 0] = 1.0 - bary[:, 1:].sum(axis=1)
    outside = ~(bary.min(axis=1) >= -1e-10)
    if outside.any():
        raise ValueError(f"point {points[outside][0]} is outside the mesh")
    return tet, bary


def write_vtk(mesh: Mesh, path, point_data, cell_data) -> None:
    """Dump the mesh and its fields as a legacy-ASCII VTK file.

    point_data / cell_data map names to arrays of shape (N,) for scalars or
    (N, 3) for vectors, N being the vertex / tet count.
    """
    v = mesh.vertices
    t = mesh.tets

    def fmt(row):
        return " ".join(f"{x:.17g}" for x in row)

    lines = [
        "# vtk DataFile Version 3.0",
        "mhdfem fields",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {len(v)} double",
    ]
    lines += [fmt(p) for p in v]
    lines.append(f"CELLS {len(t)} {5 * len(t)}")
    lines += ["4 " + " ".join(str(i) for i in row) for row in t]
    lines.append(f"CELL_TYPES {len(t)}")
    lines += ["10"] * len(t)

    def data_block(tag, count, data):
        lines.append(f"{tag} {count}")
        for name, arr in data.items():
            arr = np.asarray(arr, dtype=float)
            if arr.ndim == 1:
                lines.append(f"SCALARS {name} double 1")
                lines.append("LOOKUP_TABLE default")
                lines.extend(f"{x:.17g}" for x in arr)
            else:
                lines.append(f"VECTORS {name} double")
                lines.extend(fmt(row) for row in arr)

    if point_data:
        data_block("POINT_DATA", len(v), point_data)
    if cell_data:
        data_block("CELL_DATA", len(t), cell_data)

    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
