from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from mhdfem import derham as dh
from mhdfem.assembly import QuadratureRule, Tabulation
from mhdfem.mesh import build_box_mesh
from mhdfem.operators import discrete_ops

import reference


@pytest.fixture(scope="module")
def cube2():
    return build_box_mesh(2, 2, 2)


def space_of(mesh, tag):
    """The space of mesh's context whose element is tag."""
    ops = discrete_ops(mesh)
    return next(space for space in (ops.vel, ops.pres, ops.mult,
                                    ops.space_c, ops.space_d)
                if space.tag == tag)


def test_space_dimensions_match_entities(cube2):
    m = cube2
    assert space_of(m, "P1").dof_count == m.num_vertices
    assert space_of(m, "NedelecEdge0").dof_count == m.num_edges
    assert space_of(m, "RaviartThomas0").dof_count == m.num_faces
    assert space_of(m, "DG0").dof_count == m.num_tets
    assert space_of(m, "P2").dof_count == 3 * (m.num_vertices + m.num_edges)
    # pressure and multiplier carry no essential condition
    assert not space_of(m, "P1").boundary_dof.any()
    assert not space_of(m, "DG0").boundary_dof.any()


def test_unit_cube_free_dof_counts():
    m = build_box_mesh(1, 1, 1)
    assert space_of(m, "RaviartThomas0").free_index.size == 6
    assert space_of(m, "NedelecEdge0").free_index.size == 1
    # one interior P2 node (the diagonal midpoint), three components
    assert space_of(m, "P2").free_index.size == 3
    assert m.boundary_vertex.all()


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 2), (3, 3, 3)])
def test_sequence_exactness_dimension_sum(dims):
    m = build_box_mesh(*dims)
    n_grad = int(np.count_nonzero(~m.boundary_vertex))
    n_curl = space_of(m, "NedelecEdge0").free_index.size
    n_div = space_of(m, "RaviartThomas0").free_index.size
    n_l2 = space_of(m, "DG0").dof_count - 1  # zero-mean constraint
    assert n_grad - n_curl + n_div - n_l2 == 0


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 2), (3, 3, 3)])
def test_incidence_composition_vanishes(dims):
    m = build_box_mesh(*dims)
    g = dh.curl_incidence(m)
    d = dh.div_incidence(m)
    prod = (d @ g).toarray()
    assert np.array_equal(prod, np.zeros_like(prod))
    assert np.array_equal(np.abs(g.toarray()) > 0, g.toarray() != 0)
    assert set(np.unique(g.data)) <= {1.0, -1.0}
    assert set(np.unique(d.data)) <= {1.0, -1.0}


def test_rt_divergence_matches_incidence_sign(cube2):
    m = cube2
    from mhdfem.assembly import RULE_DEG4, _bary
    _, divs = reference.tabulate_rt(m, _bary(RULE_DEG4.tet_points))
    assert np.abs(divs - m.tet_face_sign / m.volumes[:, None]).max() < 1e-12


def test_edge_basis_curl_is_incidence_combination(cube2):
    m = cube2
    from mhdfem.assembly import RULE_DEG4, _bary
    lam = _bary(RULE_DEG4.tet_points)
    rt_vals, _ = reference.tabulate_rt(m, lam)
    _, curls = reference.tabulate_nedelec(m, lam)
    g = dh.curl_incidence(m).toarray()
    for t in range(0, m.num_tets, 7):
        for le in range(6):
            coef = g[m.tet_faces[t], m.tet_edges[t, le]]
            recon = np.einsum("f,qfk->qk", coef, rt_vals[t])
            assert np.abs(recon - curls[t, le]).max() < 1e-12


def gradient_incidence(mesh):
    """Vertex-to-edge incidence: nodal values of a P1 function map to the
    edge-element coefficients of its gradient, row e = (-1 tail, +1 head)."""
    e = np.repeat(np.arange(mesh.num_edges), 2)
    s = np.tile([-1.0, 1.0], mesh.num_edges)
    return sp.csr_matrix((s, (e, mesh.edges.ravel())),
                         shape=(mesh.num_edges, mesh.num_vertices))


def test_gradient_incidence_composition_vanishes(cube2):
    ge = gradient_incidence(cube2)
    prod = (dh.curl_incidence(cube2) @ ge).toarray()
    assert np.array_equal(prod, np.zeros_like(prod))
    assert set(np.unique(ge.data)) <= {1.0, -1.0}
    # each edge row holds one +1 (head) and one -1 (tail)
    assert np.array_equal(np.asarray(ge.sum(axis=1)).ravel(),
                          np.zeros(cube2.num_edges))


def test_gradient_incidence_matches_edge_interpolation(cube2):
    def phi(p):
        return p[:, 0] ** 2 * p[:, 1] + p[:, 2] ** 3

    def grad(p):
        return np.column_stack(
            [2.0 * p[:, 0] * p[:, 1], p[:, 0] ** 2, 3.0 * p[:, 2] ** 2])

    direct = dh.interpolate(space_of(cube2, "NedelecEdge0"), grad)
    chained = gradient_incidence(cube2) @ phi(cube2.vertices)
    assert np.abs(direct - chained).max() < 1e-13


def test_constant_fields_reproduced(cube2):
    c = np.array([0.3, -1.2, 0.7])
    pts = np.random.default_rng(0).random((25, 3))
    for tag in ("RaviartThomas0", "NedelecEdge0"):
        space = space_of(cube2, tag)
        coeffs = dh.interpolate(space, lambda x: np.broadcast_to(c, x.shape))
        assert np.abs(dh.point_eval(space, coeffs, pts) - c).max() < 1e-13


def test_gradient_of_linear_reproduced(cube2):
    grad = np.array([1.0, -2.0, 0.5])
    space = space_of(cube2, "NedelecEdge0")
    coeffs = dh.interpolate(space, lambda x: np.broadcast_to(grad, x.shape))
    pts = np.random.default_rng(1).random((25, 3))
    assert np.abs(dh.point_eval(space, coeffs, pts) - grad).max() < 1e-13


@pytest.mark.parametrize("tag", ["NedelecEdge0", "RaviartThomas0"])
def test_interpolation_idempotent(cube2, tag):
    space = space_of(cube2, tag)
    rng = np.random.default_rng(42)
    coeffs = rng.standard_normal(space.dof_count)
    back = dh.interpolate(space, lambda x: dh.point_eval(space, coeffs, x))
    assert np.abs(back - coeffs).max() < 1e-13


def test_cell_interpolation_of_affine_field_is_centroid_value(cube2):
    # the DG0 DOF is the cell average, which an affine field takes at the
    # centroid
    grad, shift = np.array([0.7, -1.3, 2.1]), 0.4
    got = dh.interpolate(space_of(cube2, "DG0"), lambda x: x @ grad + shift)
    centroids = cube2.vertices[cube2.tets].mean(axis=1)
    assert np.abs(got - (centroids @ grad + shift)).max() < 1e-13


def test_commuting_curl_square(cube2):
    def value(x):
        return np.column_stack([x[:, 0] ** 2 + x[:, 1], x[:, 1] * x[:, 2],
                                x[:, 0] - x[:, 2] ** 2])

    def curl(x):
        z = np.zeros(len(x))
        return np.column_stack([-x[:, 1], z - 1.0, z - 1.0])

    def div(x):
        return 2.0 * x[:, 0] - x[:, 2]

    out = dh.check_commuting(discrete_ops(cube2), value, curl, div)
    assert out["curl_defect"] < 1e-12
    assert out["div_defect"] < 1e-12


def test_commuting_div_square(cube2):
    def value(x):
        return np.column_stack([x[:, 0] * x[:, 1], x[:, 1] * x[:, 2],
                                x[:, 2] * x[:, 0]])

    def curl(x):
        return -x[:, [1, 2, 0]]

    out = dh.check_commuting(discrete_ops(cube2), value, curl,
                             lambda x: x.sum(axis=1))
    assert out["div_defect"] < 1e-12
    assert out["curl_defect"] < 1e-12


def test_gradient_field_has_zero_discrete_curl(cube2):
    # F = grad(x y z) so curl F = 0; the interpolated curl must vanish too
    def value(x):
        return np.column_stack([x[:, 1] * x[:, 2], x[:, 0] * x[:, 2],
                                x[:, 0] * x[:, 1]])

    # div F = 0 as well: x y z is harmonic
    out = dh.check_commuting(discrete_ops(cube2), value, np.zeros_like,
                             lambda x: np.zeros(len(x)))
    assert out["curl_defect"] < 1e-12
    assert out["div_defect"] < 1e-12
    coeffs = dh.interpolate(space_of(cube2, "NedelecEdge0"), value)
    assert np.abs(dh.curl_incidence(cube2) @ coeffs).max() < 1e-13


def test_divergence_free_field_is_exactly_divergence_free(cube2):
    # C = curl of something: div-free polynomial
    def value(x):
        return np.column_stack([x[:, 1] ** 2, x[:, 2] ** 2, x[:, 0] ** 2])

    coeffs = dh.interpolate(space_of(cube2, "RaviartThomas0"), value)
    cell_div = dh.div_incidence(cube2) @ coeffs / cube2.volumes
    assert np.abs(cell_div).max() < 1e-12


def test_point_outside_mesh_raises(cube2):
    space = space_of(cube2, "RaviartThomas0")
    with pytest.raises(ValueError, match="outside"):
        dh.point_eval(space, np.zeros(space.dof_count), np.array([[2.0, 0.5, 0.5]]))


def test_point_eval_rejects_nodal_and_cell_spaces(cube2):
    for tag in ("P1", "P2", "DG0"):
        space = space_of(cube2, tag)
        with pytest.raises(ValueError, match="cannot evaluate"):
            dh.point_eval(space, np.zeros(space.dof_count),
                          np.array([[0.5, 0.5, 0.5]]))


def test_interpolation_into_nodal_spaces_is_rejected(cube2):
    for tag in ("P1", "P2"):
        space = space_of(cube2, tag)
        with pytest.raises(ValueError, match="cannot interpolate"):
            dh.interpolate(space, lambda x: x)


def test_velocity_dof_layout_is_component_major(cube2):
    vel = space_of(cube2, "P2")
    ns = vel.dof_count // 3
    # one point, the midpoint of each tet's local edge (0, 1), where the
    # P2 function of that edge is 1 and every other one 0; its scalar DOF
    # is num_vertices + the edge's index
    tab = Tabulation(cube2, QuadratureRule(np.array([[0.5, 0.0, 0.0]]),
                                           np.array([1.0 / 6.0])))
    node = cube2.num_vertices + cube2.tet_edges[0, 0]
    for c in range(3):
        coeffs = np.zeros(vel.dof_count)
        coeffs[c * ns + node] = 1.0
        assert np.abs(tab.velocity_at(coeffs)[0, 0]
                      - np.eye(3)[c]).max() < 1e-14


def test_point_eval_takes_no_cross_product_per_point(cube2, monkeypatch):
    # the face functions are combined on each tet first, so every cross
    # product runs over the tets and none over the points
    rows = []
    cross = np.cross

    def recorded(a, b, *args, **kwargs):
        rows.append(len(a))
        return cross(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "cross", recorded)
    space = space_of(cube2, "RaviartThomas0")
    pts = np.random.default_rng(3).random((1000, 3))
    dh.point_eval(space, np.ones(space.dof_count), pts)
    assert rows and set(rows) == {cube2.num_tets}
