from __future__ import annotations

import numpy as np
import pytest

from mhdfem.mesh import build_box_mesh, kuhn_order, locate, write_vtk

# entity counts for the unit cube split into 6 tets, worked out by hand:
# 8 corners, 12 cube edges + 6 face diagonals + 1 main diagonal = 19 edges,
# 2 triangles per cube face + 6 interior = 18 faces.
UNIT_CUBE_COUNTS = (8, 19, 18, 6)


def test_unit_cube_counts():
    m = build_box_mesh(1, 1, 1)
    assert (m.num_vertices, m.num_edges, m.num_faces, m.num_tets) == UNIT_CUBE_COUNTS
    assert m.boundary_face.sum() == 12
    assert m.boundary_edge.sum() == 18
    assert m.boundary_vertex.sum() == 8
    # the one interior edge is the shared main diagonal
    assert m.edges[~m.boundary_edge].tolist() == [[0, 7]]


def test_unit_cube_geometry():
    m = build_box_mesh(1, 1, 1)
    assert m.volumes.sum() == pytest.approx(1.0, rel=1e-14)
    assert np.all(m.volumes > 0)
    # every Kuhn tet of the unit cube has circumdiameter sqrt(3)
    assert m.h == pytest.approx(np.sqrt(3.0), rel=1e-14)


@pytest.mark.parametrize("dims", [(2, 1, 1), (2, 3, 1), (3, 3, 3),
                                  (5, 2, 3)])
def test_box_volume_and_euler(dims):
    m = build_box_mesh(*dims)
    assert m.vertices.min() == 0.0 and m.vertices.max() == 1.0
    # the Kuhn tets come out positively oriented; nothing reorders them
    x = m.vertices[m.tets]
    signed = np.linalg.det(x[:, 1:] - x[:, :1]) / 6.0
    assert np.all(signed > 0.0)
    assert np.array_equal(m.volumes, signed)
    assert m.volumes.sum() == pytest.approx(1.0, rel=1e-13)
    # a solid ball triangulation has Euler characteristic 1
    assert m.num_vertices - m.num_edges + m.num_faces - m.num_tets == 1
    assert m.num_tets == 6 * np.prod(dims)


def test_tets_are_cube_major():
    m = build_box_mesh(2, 2, 2)
    # all 6 tets of cube c contain its corner vertex and its main diagonal end
    for c in range(8):
        block = m.tets[6 * c:6 * c + 6]
        shared = set(block[0])
        for row in block[1:]:
            shared &= set(row)
        assert len(shared) == 2  # the cube diagonal


def test_entity_rows_are_ascending():
    m = build_box_mesh(2, 1, 2)
    assert np.all(m.edges[:, 0] < m.edges[:, 1])
    assert np.all(m.faces[:, :-1] < m.faces[:, 1:])


def test_grad_bary():
    m = build_box_mesh(2, 3, 1)
    assert np.abs(m.grad_bary.sum(axis=1)).max() == 0.0
    x = m.vertices[m.tets]
    for i in range(4):
        for j in range(4):
            # lambda_i is affine: grad . (x_j - x_i) = delta_ij - 1
            val = np.einsum("tk,tk->t", m.grad_bary[:, i], x[:, j] - x[:, i])
            assert np.abs(val - (0.0 if i == j else -1.0)).max() < 1e-12


def test_face_edge_signs_chain_to_zero():
    # boundary-of-boundary: the signed edges of the signed faces of any tet cancel
    m = build_box_mesh(2, 2, 2)
    acc = np.zeros((m.num_tets, m.num_edges), dtype=np.int64)
    for lf in range(4):
        f = m.tet_faces[:, lf]
        sf = m.tet_face_sign[:, lf]
        for le in range(3):
            np.add.at(acc, (np.arange(m.num_tets), m.face_edges[f, le]),
                      sf * m.face_edge_sign[f, le])
    assert np.all(acc == 0)


def test_tet_face_sign_is_outward():
    m = build_box_mesh(1, 2, 1)
    x = m.vertices
    for t in range(m.num_tets):
        cen = x[m.tets[t]].mean(axis=0)
        for lf in range(4):
            a, b, c = m.faces[m.tet_faces[t, lf]]
            n = np.cross(x[b] - x[a], x[c] - x[a])
            outward = np.dot(n, x[[a, b, c]].mean(axis=0) - cen)
            assert np.sign(outward) == m.tet_face_sign[t, lf]


@pytest.mark.parametrize("dims", [(0, 1, 1), (1, -2, 1), (1, 1, 0)])
def test_build_box_mesh_rejects_bad_counts(dims):
    with pytest.raises(ValueError):
        build_box_mesh(*dims)


def test_mesh_is_immutable():
    m = build_box_mesh(1, 1, 1)
    with pytest.raises(ValueError):
        m.tets[0, 0] = 3


def test_refinement_is_nested():
    coarse = build_box_mesh(2, 2, 2)
    fine = build_box_mesh(4, 4, 4)
    # every coarse vertex appears among the fine vertices
    fe = {tuple(np.round(p, 12)) for p in fine.vertices}
    assert all(tuple(np.round(p, 12)) in fe for p in coarse.vertices)


def six_candidate_locate(mesh, points, tol=1e-10):
    """Reference location: try the six tets of each point's cube in Kuhn
    permutation order and keep the first whose barycentrics are all at
    least -tol."""
    nx, ny, nz = dims = np.array(mesh.grid_shape)
    idx = np.clip(np.floor(points * dims).astype(np.int64), 0, dims - 1)
    cube = idx[:, 0] + nx * (idx[:, 1] + ny * idx[:, 2])
    tet_of = np.full(len(points), -1, dtype=np.int64)
    bary = np.zeros((len(points), 4))
    remaining = np.arange(len(points))
    for k in range(6):
        t = 6 * cube[remaining] + k
        lam = np.empty((remaining.size, 4))
        lam[:, 1:] = np.einsum("tik,tk->ti", mesh.grad_bary[t, 1:],
                               points[remaining] - mesh.vertices[mesh.tets[t, 0]])
        lam[:, 0] = 1.0 - lam[:, 1:].sum(axis=1)
        inside = lam.min(axis=1) >= -tol
        tet_of[remaining[inside]] = t[inside]
        bary[remaining[inside]] = lam[inside]
        remaining = remaining[~inside]
    assert remaining.size == 0
    return tet_of, bary


def grid_points(dims, rng, n=200):
    """Points of the unit cube for the mesh with dims cubes: random ones,
    ones on the grid's planes, on the Kuhn faces x=y, y=z and x=z of their
    cube and on its diagonal x=y=z, the grid vertices, and ones up to
    1e-12 outside the unit cube."""
    dims = np.array(dims)
    pts = [rng.random((n, 3))]
    for axis in range(3):
        on_plane = rng.random((n, 3))
        on_plane[:, axis] = rng.integers(0, dims[axis] + 1, n) / dims[axis]
        pts.append(on_plane)
    for tied in ((0, 1), (1, 2), (0, 2), (0, 1, 2)):
        # local coordinates k/64 keep their tie through the rounding of
        # (cube + local) / dims and back
        local = rng.integers(0, 65, (n, 3)) / 64
        local[:, tied] = local[:, tied[:1]]
        on_face = (rng.integers(0, dims, (n, 3)) + local) / dims
        xi = on_face * dims - np.floor(on_face * dims)
        assert np.all(xi[:, tied] == xi[:, tied[:1]])
        pts.append(on_face)
    axes = [np.arange(d + 1) / d for d in dims]
    pts.append(np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3))
    outside = rng.random((n, 3))
    beyond = 1e-12 * rng.random(n)
    outside[np.arange(n), rng.integers(0, 3, n)] = np.where(
        rng.random(n) < 0.5, -beyond, 1.0 + beyond)
    pts.append(outside)
    return np.concatenate(pts)


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 3, 1), (4, 4, 4)])
def test_locate_matches_six_candidate_search(dims):
    mesh = build_box_mesh(*dims)
    pts = grid_points(dims, np.random.default_rng(3))
    tet, bary = locate(mesh, pts)
    want_tet, want_bary = six_candidate_locate(mesh, pts)
    assert np.array_equal(tet, want_tet)
    assert np.array_equal(bary, want_bary)


def test_kuhn_order_breaks_ties_by_ascending_axis():
    xi = np.array([[0.2, 0.5, 0.1], [0.5, 0.5, 0.5], [0.3, 0.7, 0.7],
                   [0.4, 0.1, 0.4]])
    assert kuhn_order(xi).tolist() == [[1, 0, 2], [0, 1, 2], [1, 2, 0],
                                       [0, 2, 1]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("point", [[np.nan, 0.5, 0.5], [0.5, np.nan, 0.5],
                                   [2.0, 0.5, 0.5], [0.5, 0.5, -1e-6],
                                   [-1e308, 0.5, 0.5], [1e308, 0.5, 0.5]])
def test_locate_rejects_points_outside_the_mesh(point):
    mesh = build_box_mesh(2, 3, 1)
    with pytest.raises(ValueError, match="outside"):
        locate(mesh, np.array([[0.3, 0.3, 0.3], point]))


def test_write_vtk(tmp_path):
    m = build_box_mesh(1, 1, 1)
    out = tmp_path / "mesh.vtk"
    write_vtk(m, out, point_data={"u": np.ones((8, 3))},
              cell_data={"p": np.arange(6.0)})
    text = out.read_text()
    assert text.startswith("# vtk DataFile Version 3.0")
    assert "POINTS 8 double" in text
    assert "CELL_TYPES 6" in text
    assert "VECTORS u double" in text
    assert "SCALARS p double 1" in text
