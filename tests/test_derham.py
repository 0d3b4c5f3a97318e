from __future__ import annotations

import numpy as np
import pytest

from mhdfem import derham as dh
from mhdfem.mesh import build_box_mesh, derive_topology


@pytest.fixture(scope="module")
def cube2():
    return build_box_mesh(2, 2, 2)


def test_space_dimensions_match_entities(cube2):
    m = cube2
    assert dh.build_space(m, dh.P1, False).dof_count == m.num_vertices
    assert dh.build_space(m, dh.NEDELEC, False).dof_count == m.num_edges
    assert dh.build_space(m, dh.RT, False).dof_count == m.num_faces
    assert dh.build_space(m, dh.DG0, False).dof_count == m.num_tets
    vel = dh.build_space(m, dh.VELOCITY, False)
    assert vel.dof_count == 3 * (m.num_vertices + m.num_edges)


def test_unit_cube_free_dof_counts():
    m = build_box_mesh(1, 1, 1)
    assert dh.build_space(m, dh.RT, True).n_free == 6
    assert dh.build_space(m, dh.NEDELEC, True).n_free == 1
    # one interior P2 node (the diagonal midpoint), three components
    assert dh.build_space(m, dh.VELOCITY, True).n_free == 3
    assert dh.build_space(m, dh.P1, True).n_free == 0


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 2), (3, 3, 3)])
def test_sequence_exactness_dimension_sum(dims):
    m = build_box_mesh(*dims)
    n_grad = dh.build_space(m, dh.P1, True).n_free
    n_curl = dh.build_space(m, dh.NEDELEC, True).n_free
    n_div = dh.build_space(m, dh.RT, True).n_free
    n_l2 = dh.build_space(m, dh.DG0, False).dof_count - 1  # zero-mean constraint
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
    _, divs = dh.tabulate_rt(m, _bary(RULE_DEG4.tet_points))
    assert np.abs(divs - m.tet_face_sign / m.volumes[:, None]).max() < 1e-12


def test_edge_basis_curl_is_incidence_combination(cube2):
    m = cube2
    from mhdfem.assembly import RULE_DEG4, _bary
    lam = _bary(RULE_DEG4.tet_points)
    rt_vals, _ = dh.tabulate_rt(m, lam)
    _, curls = dh.tabulate_nedelec(m, lam)
    g = dh.curl_incidence(m).toarray()
    for t in range(0, m.num_tets, 7):
        for le in range(6):
            coef = g[m.tet_faces[t], m.tet_edges[t, le]]
            recon = np.einsum("f,qfk->qk", coef, rt_vals[t])
            assert np.abs(recon - curls[t, le]).max() < 1e-12


def test_gradient_incidence_composition_vanishes(cube2):
    ge = dh.grad_incidence(cube2)
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

    ned = dh.build_space(cube2, dh.NEDELEC, False)
    direct = dh.interpolate(ned, grad)
    chained = dh.grad_incidence(cube2) @ phi(cube2.vertices)
    assert np.abs(direct - chained).max() < 1e-13


def test_constant_fields_reproduced(cube2):
    c = np.array([0.3, -1.2, 0.7])
    pts = np.random.default_rng(0).random((25, 3))
    for kind in (dh.RT, dh.NEDELEC):
        space = dh.build_space(cube2, kind, False)
        coeffs = dh.interpolate(space, lambda x: np.broadcast_to(c, x.shape))
        assert np.abs(dh.point_eval(space, coeffs, pts) - c).max() < 1e-13


def test_gradient_of_linear_reproduced(cube2):
    grad = np.array([1.0, -2.0, 0.5])
    space = dh.build_space(cube2, dh.NEDELEC, False)
    coeffs = dh.interpolate(space, lambda x: np.broadcast_to(grad, x.shape))
    pts = np.random.default_rng(1).random((25, 3))
    assert np.abs(dh.point_eval(space, coeffs, pts) - grad).max() < 1e-13


@pytest.mark.parametrize("kind,bc", [
    (dh.P1, False), (dh.P2, False), (dh.VELOCITY, True),
    (dh.NEDELEC, False), (dh.RT, False), (dh.DG0, False),
])
def test_interpolation_idempotent(cube2, kind, bc):
    space = dh.build_space(cube2, kind, bc)
    rng = np.random.default_rng(42)
    coeffs = rng.standard_normal(space.dof_count)
    back = dh.interpolate(space, lambda x: dh.point_eval(space, coeffs, x))
    assert np.abs(back - coeffs).max() < 1e-13


def test_commuting_curl_square(cube2):
    def value(x):
        return np.column_stack([x[:, 0] ** 2 + x[:, 1], x[:, 1] * x[:, 2],
                                x[:, 0] - x[:, 2] ** 2])

    def curl(x):
        z = np.zeros(len(x))
        return np.column_stack([-x[:, 1], z - 1.0, z - 1.0])

    out = dh.check_commuting(cube2, dh.AnalyticField(value=value, curl=curl))
    assert out["curl_defect"] < 1e-12
    assert out["div_defect"] is None


def test_commuting_div_square(cube2):
    def value(x):
        return np.column_stack([x[:, 0] * x[:, 1], x[:, 1] * x[:, 2],
                                x[:, 2] * x[:, 0]])

    out = dh.check_commuting(cube2, dh.AnalyticField(
        value=value, div=lambda x: x.sum(axis=1)))
    assert out["div_defect"] < 1e-12


def test_gradient_field_has_zero_discrete_curl(cube2):
    # F = grad(x y z) so curl F = 0; the interpolated curl must vanish too
    def value(x):
        return np.column_stack([x[:, 1] * x[:, 2], x[:, 0] * x[:, 2],
                                x[:, 0] * x[:, 1]])

    out = dh.check_commuting(cube2, dh.AnalyticField(
        value=value, curl=lambda x: np.zeros_like(x)))
    assert out["curl_defect"] < 1e-12
    ned = dh.build_space(cube2, dh.NEDELEC, False)
    coeffs = dh.interpolate(ned, value)
    assert np.abs(dh.curl_incidence(cube2) @ coeffs).max() < 1e-13


def test_divergence_free_field_is_exactly_divergence_free(cube2):
    # C = curl of something: div-free polynomial
    def value(x):
        return np.column_stack([x[:, 1] ** 2, x[:, 2] ** 2, x[:, 0] ** 2])

    rt = dh.build_space(cube2, dh.RT, False)
    coeffs = dh.interpolate(rt, value)
    cell_div = dh.div_incidence(cube2) @ coeffs / cube2.volumes
    assert np.abs(cell_div).max() < 1e-12


def test_point_eval_on_hand_built_mesh():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], float)
    m = derive_topology(verts, np.array([[0, 1, 2, 3], [1, 2, 3, 4]]))
    rt = dh.build_space(m, dh.RT, False)
    c = np.array([0.5, 0.25, -1.0])
    coeffs = dh.interpolate(rt, lambda x: np.broadcast_to(c, x.shape))
    pts = np.array([[0.2, 0.2, 0.2], [0.6, 0.6, 0.6]])
    assert np.abs(dh.point_eval(rt, coeffs, pts) - c).max() < 1e-13


def test_point_outside_mesh_raises(cube2):
    space = dh.build_space(cube2, dh.P1, False)
    with pytest.raises(ValueError, match="outside"):
        dh.point_eval(space, np.zeros(space.dof_count), np.array([[2.0, 0.5, 0.5]]))


def test_space_kind_validation():
    with pytest.raises(ValueError):
        dh.SpaceKind("P3")
    with pytest.raises(ValueError):
        dh.SpaceKind("RaviartThomas0", components=3)


def test_velocity_dof_layout_is_component_major(cube2):
    vel = dh.build_space(cube2, dh.VELOCITY, False)

    def field(x):
        return np.column_stack([x[:, 0], 2.0 * x[:, 1], np.zeros(len(x))])

    coeffs = dh.interpolate(vel, field)
    pts = dh.scalar_dof_points(cube2, "P2")
    ns = vel.n_scalar
    assert np.abs(coeffs[:ns] - pts[:, 0]).max() == 0.0
    assert np.abs(coeffs[ns:2 * ns] - 2.0 * pts[:, 1]).max() == 0.0
    assert np.abs(coeffs[2 * ns:]).max() == 0.0
