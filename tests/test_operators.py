"""Weak curl/div operators, norms, and constant estimators."""

import math

import numpy as np
import pytest

from mhdfem.assembly import RULE_DEG4, RULE_DEG6, FormKind, assemble
from mhdfem.derham import (NEDELEC, RT, VELOCITY, build_space, curl_incidence,
                           div_incidence, point_eval, tabulate_nedelec,
                           tabulate_rt)
from mhdfem.mesh import build_box_mesh
from mhdfem.operators import (CapabilityError, DiagnosticConstants,
                              DiscreteOps, estimate_constants,
                              estimate_cross_bound,
                              estimate_poincare_constant,
                              estimate_sobolev_ratio, poincare_h01_box,
                              sobolev_embedding_constant)

# regression value for the coarsest box; the dense eigensolve is the oracle
POINCARE_SINGLE_CUBE = 0.2236067977499790


@pytest.fixture(scope="module")
def mesh2():
    return build_box_mesh(2, 2, 2)


@pytest.fixture(scope="module")
def mesh3():
    return build_box_mesh(3, 3, 3)


@pytest.fixture(scope="module")
def ops2(mesh2):
    return DiscreteOps(mesh2)


@pytest.fixture(scope="module")
def ops3(mesh3):
    return DiscreteOps(mesh3)


def random_free(space, rng):
    out = np.zeros(space.dof_count)
    idx = space.free_index
    out[idx] = rng.standard_normal(idx.size)
    return out


def quadrature_curl_pairing(mesh):
    """(curl w_e, w_f) assembled by a direct quadrature loop, dense."""
    lam = np.column_stack([1.0 - RULE_DEG4.tet_points.sum(axis=1),
                           RULE_DEG4.tet_points])
    wq = (6.0 * mesh.volumes)[:, None] * RULE_DEG4.tet_weights[None, :]
    rt_vals, _ = tabulate_rt(mesh, lam)
    _, ned_curls = tabulate_nedelec(mesh, lam)
    out = np.zeros((mesh.num_faces, mesh.num_edges))
    for t in range(mesh.num_tets):
        block = np.einsum("q,qik,jk->ij", wq[t], rt_vals[t], ned_curls[t])
        out[np.ix_(mesh.tet_faces[t], mesh.tet_edges[t])] += block
    return out


def quadrature_grad_pairing(mesh):
    """(grad v_i, w_e) assembled by a direct quadrature loop, dense."""
    lam = np.column_stack([1.0 - RULE_DEG4.tet_points.sum(axis=1),
                           RULE_DEG4.tet_points])
    wq = (6.0 * mesh.volumes)[:, None] * RULE_DEG4.tet_weights[None, :]
    ned_vals, _ = tabulate_nedelec(mesh, lam)
    out = np.zeros((mesh.num_edges, mesh.num_vertices))
    for t in range(mesh.num_tets):
        block = np.einsum("q,qek,ik->ei", wq[t], ned_vals[t],
                          mesh.grad_bary[t])
        out[np.ix_(mesh.tet_edges[t], mesh.tets[t])] += block
    return out


def test_pairing_matrices_match_quadrature(mesh2, ops2):
    scale = np.abs(ops2.K_cd.toarray()).max()
    assert np.abs(ops2.K_cd.toarray()
                  - quadrature_curl_pairing(mesh2)).max() <= 1e-14 * scale
    scale = np.abs(ops2.K_gc.toarray()).max()
    assert np.abs(ops2.K_gc.toarray()
                  - quadrature_grad_pairing(mesh2)).max() <= 1e-14 * scale


def test_weak_curl_zero(ops2):
    out = ops2.weak_curl(np.zeros(ops2.space_d.dof_count))
    assert not np.any(out)


def test_weak_curl_defining_identity(ops2):
    rng = np.random.default_rng(7)
    free = ops2.space_c.free_index
    for _ in range(10):
        B = random_free(ops2.space_d, rng)
        x = ops2.weak_curl(B)
        lhs = (ops2.M_c @ x)[free]
        rhs = (ops2.K_cd.T @ B)[free]
        assert np.linalg.norm(lhs - rhs) <= 1e-11 * np.linalg.norm(rhs)
        assert not np.any(x[ops2.space_c.boundary_dof])


def test_weak_curl_of_exact_curl_nonnegative(mesh2, ops2):
    G = curl_incidence(mesh2)
    rng = np.random.default_rng(8)
    for _ in range(10):
        f = random_free(ops2.space_c, rng)
        B = G @ f
        pairing = ops2.weak_curl(B) @ (ops2.M_c @ f)
        energy = B @ (ops2.M_d @ B)
        assert pairing >= -1e-12 * energy
        assert abs(pairing - energy) <= 1e-11 * energy


def test_weak_curl_adjointness(ops2):
    rng = np.random.default_rng(9)
    for _ in range(10):
        B = random_free(ops2.space_d, rng)
        f = random_free(ops2.space_c, rng)
        lhs = ops2.weak_curl(B) @ (ops2.M_c @ f)
        rhs = B @ (ops2.K_cd @ f)
        assert abs(lhs - rhs) <= 1e-11 * max(abs(rhs), 1e-30)


def test_weak_div_zero(ops3):
    out = ops3.weak_div(np.zeros(ops3.space_c.dof_count))
    assert not np.any(out)


def test_weak_div_defining_identity(ops3):
    rng = np.random.default_rng(10)
    free = ops3.space_g.free_index
    assert free.size == 8
    for _ in range(10):
        w = random_free(ops3.space_c, rng)
        y = ops3.weak_div(w)
        lhs = (ops3.M_g @ y)[free]
        rhs = -(ops3.K_gc.T @ w)[free]
        assert np.linalg.norm(lhs - rhs) <= 1e-11 * np.linalg.norm(rhs)


def test_weak_div_of_weak_curl_vanishes(ops3):
    rng = np.random.default_rng(11)
    for _ in range(5):
        B = random_free(ops3.space_d, rng)
        w = ops3.weak_curl(B)
        y = ops3.weak_div(w)
        assert np.linalg.norm(y) <= 1e-10 * np.linalg.norm(w)


def test_l2_project_zero(ops2):
    out = ops2.l2_project_curl(np.zeros(ops2.space_c.dof_count))
    assert not np.any(out)
    out = ops2.l2_project_curl(lambda pts: np.zeros_like(pts))
    assert np.linalg.norm(out) <= 1e-14


def test_l2_project_idempotent_on_members(mesh2, ops2):
    rng = np.random.default_rng(12)
    c = random_free(ops2.space_c, rng)
    assert np.linalg.norm(ops2.l2_project_curl(c) - c) \
        <= 1e-12 * np.linalg.norm(c)
    # same field presented as a point evaluator
    space = ops2.space_c
    out = ops2.l2_project_curl(lambda pts: point_eval(space, c, pts))
    assert np.linalg.norm(out - c) <= 1e-12 * np.linalg.norm(c)


def test_l2_project_cross_orthogonality(mesh2, ops2):
    rng = np.random.default_rng(13)
    vel = build_space(mesh2, VELOCITY, essential_bc=True)
    u = random_free(vel, rng)
    B = random_free(ops2.space_d, rng)

    def cross_field(pts):
        return np.cross(point_eval(vel, u, pts),
                        point_eval(ops2.space_d, B, pts))

    x = ops2.l2_project_curl(cross_field)

    # independent quadrature of (u x B, w_e) from the tabulated bases
    lam = np.column_stack([1.0 - RULE_DEG6.tet_points.sum(axis=1),
                           RULE_DEG6.tet_points])
    wq = (6.0 * mesh2.volumes)[:, None] * RULE_DEG6.tet_weights[None, :]
    ned_vals, _ = tabulate_nedelec(mesh2, lam)
    rt_vals, _ = tabulate_rt(mesh2, lam)
    b_at = np.einsum("tqfk,tf->tqk", rt_vals, B[mesh2.tet_faces])
    pts = np.einsum("qi,tik->tqk", lam, mesh2.vertices[mesh2.tets])
    u_at = point_eval(vel, u, pts.reshape(-1, 3)).reshape(b_at.shape)
    cross_at = np.cross(u_at, b_at)
    load = np.zeros(ops2.space_c.dof_count)
    np.add.at(load, mesh2.tet_edges.ravel(),
              np.einsum("tq,tqk,tqik->ti", wq, cross_at, ned_vals).ravel())

    free = ops2.space_c.free_index
    scale = np.linalg.norm(load[free])
    for _ in range(20):
        f = random_free(ops2.space_c, rng)
        residual = load @ f - x @ (ops2.M_c @ f)
        assert abs(residual) <= 1e-11 * scale * np.linalg.norm(f[free])

    # the mass-weighted coupling matrix gives the same load on free rows
    coupling = assemble(FormKind("CrossCoupling", coeff=B), vel, ops2.space_c)
    assert np.linalg.norm((coupling @ u)[free] - load[free]) <= 1e-12 * scale


def test_l2_project_self_adjoint_and_idempotent(ops2):
    rng = np.random.default_rng(14)
    n = ops2.space_c.dof_count
    for _ in range(5):
        a = rng.standard_normal(n)   # boundary entries deliberately nonzero
        b = rng.standard_normal(n)
        pa, pb = ops2.l2_project_curl(a), ops2.l2_project_curl(b)
        lhs = pa @ (ops2.M_c @ b)
        rhs = a @ (ops2.M_c @ pb)
        assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), abs(rhs))
        assert np.linalg.norm(ops2.l2_project_curl(pa) - pa) \
            <= 1e-11 * np.linalg.norm(pa)


def test_l2_project_rejects_bad_vector(ops2):
    with pytest.raises(ValueError, match="coefficient vector"):
        ops2.l2_project_curl(np.zeros(3))


def test_norms_of_zero_fields(ops2):
    nv = ops2._velocity_forms()[0].dof_count
    assert ops2.norm_c(np.zeros(ops2.space_c.dof_count)) == 0.0
    assert ops2.norm_d(np.zeros(ops2.space_d.dof_count)) == 0.0
    assert ops2.norm_a(np.zeros(nv), np.zeros(ops2.space_d.dof_count),
                       np.zeros(ops2.space_g.dof_count),
                       np.zeros(ops2.mesh.num_tets)) == 0.0


def test_norm_d_dominates_l2(ops2):
    rng = np.random.default_rng(15)
    for _ in range(10):
        B = random_free(ops2.space_d, rng)
        l2 = math.sqrt(B @ (ops2.M_d @ B))
        assert ops2.norm_d(B) >= l2 * (1.0 - 1e-14)


def test_norm_d_divergence_free_split(mesh2, ops2):
    rng = np.random.default_rng(16)
    B = curl_incidence(mesh2) @ random_free(ops2.space_c, rng)
    dv = div_incidence(mesh2) @ B
    assert np.sum(dv * dv / mesh2.volumes) <= 1e-22
    x = ops2.weak_curl(B)
    expected = B @ (ops2.M_d @ B) + x @ (ops2.M_c @ x)
    assert np.isclose(ops2.norm_d(B) ** 2, expected, rtol=1e-12)


def test_norm_a_combines_components(mesh2, ops2):
    rng = np.random.default_rng(17)
    vel = ops2._velocity_forms()[0]
    u = random_free(vel, rng)
    B = random_free(ops2.space_d, rng)
    p = rng.standard_normal(ops2.space_g.dof_count)
    r = rng.standard_normal(mesh2.num_tets)
    expected = math.sqrt(ops2.norm_h1_velocity(u) ** 2 + ops2.norm_d(B) ** 2
                         + ops2.norm_l2_p1(p) ** 2 + ops2.norm_l2_dg0(r) ** 2)
    assert np.isclose(ops2.norm_a(u, B, p, r), expected, rtol=1e-14)
    # the constant multiplier integrates by volume
    assert np.isclose(ops2.norm_l2_dg0(np.ones(mesh2.num_tets)), 1.0,
                      rtol=1e-13)
    assert ops2.seminorm_h1_velocity(u) <= ops2.norm_h1_velocity(u)


def test_mass_matrices_positive_definite_on_free(ops2):
    for mat, space in [(ops2.M_c, ops2.space_c), (ops2.M_d, ops2.space_d),
                       (ops2.M_g, ops2.space_g)]:
        free = space.free_index
        sub = mat[free][:, free].toarray()
        assert np.linalg.eigvalsh(sub).min() > 0


def test_poincare_single_cube():
    val = estimate_poincare_constant(build_box_mesh(1, 1, 1))
    assert np.isclose(val, POINCARE_SINGLE_CUBE, rtol=1e-10)


def test_poincare_refinement_ratio(mesh2):
    c2 = estimate_poincare_constant(mesh2)
    c4 = estimate_poincare_constant(build_box_mesh(4, 4, 4))
    assert c2 > 0 and c4 > 0
    assert 0.5 <= c2 / c4 <= 2.0


def test_poincare_capability_limit():
    with pytest.raises(CapabilityError, match="smaller mesh"):
        estimate_poincare_constant(build_box_mesh(8, 8, 8))


def test_poincare_bounds_divergence_free_probes(mesh2, ops2):
    cp = estimate_poincare_constant(mesh2)
    G = curl_incidence(mesh2)
    rng = np.random.default_rng(18)
    for _ in range(50):
        B = G @ random_free(ops2.space_c, rng)
        l2 = math.sqrt(B @ (ops2.M_d @ B))
        curl_norm = ops2.norm_c(ops2.weak_curl(B))
        assert l2 <= cp * curl_norm * (1.0 + 1e-10)


def test_cross_bound_stability(mesh2):
    c100 = estimate_cross_bound(mesh2, trials=100)
    c400 = estimate_cross_bound(mesh2, trials=400)
    assert c100 > 0 and np.isfinite(c100)
    # shared generator prefix makes the 400-trial max dominate
    assert c400 >= c100
    assert abs(c400 - c100) <= 0.20 * c400


def test_cross_bound_refinement_trend(mesh2):
    coarse = estimate_cross_bound(mesh2, trials=40)
    fine = estimate_cross_bound(build_box_mesh(4, 4, 4), trials=40)
    assert 0 < fine <= coarse


def assembled_cross_bound(mesh, trials, seed):
    """The probe with its numerator as u^T C u of the assembled
    velocity-velocity cross Gram matrix, same draws as the library."""
    ops = DiscreteOps(mesh)
    vel, vel_mass, vel_stiff = ops._velocity_forms()
    free_e = ops.space_c.free_index
    free_u = vel.free_index
    G = curl_incidence(mesh)
    rng = np.random.default_rng(seed)
    best = 0.0
    done = 0
    while done < trials:
        e = np.zeros(ops.space_c.dof_count)
        e[free_e] = rng.standard_normal(free_e.size)
        B = G @ e
        curl_norm = ops.norm_c(ops.weak_curl(B))
        if curl_norm <= 1e-14 * np.linalg.norm(e):
            continue
        u = np.zeros(vel.dof_count)
        u[free_u] = rng.standard_normal(free_u.size)
        cross = assemble(FormKind("CrossCoupling", coeff=B), vel, vel)
        num = math.sqrt(max(u @ (cross @ u), 0.0))
        den = math.sqrt(u @ (vel_mass @ u) + u @ (vel_stiff @ u)) * curl_norm
        best = max(best, num / den)
        done += 1
    return best


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", [0, 7])
def test_cross_bound_matches_assembled_gram(n, seed):
    mesh = build_box_mesh(n, n, n)
    ref = assembled_cross_bound(mesh, trials=20, seed=seed)
    got = estimate_cross_bound(mesh, trials=20, seed=seed)
    assert got == pytest.approx(ref, rel=1e-12, abs=0)


def test_cross_gram_form_equals_quadrature_of_cross(mesh2):
    rng = np.random.default_rng(11)
    vel = build_space(mesh2, VELOCITY, essential_bc=True)
    rt = build_space(mesh2, RT, essential_bc=True)
    lam = np.column_stack([1.0 - RULE_DEG6.tet_points.sum(axis=1),
                           RULE_DEG6.tet_points])
    wq = (6.0 * mesh2.volumes)[:, None] * RULE_DEG6.tet_weights[None, :]
    rt_vals, _ = tabulate_rt(mesh2, lam)
    pts = np.einsum("qi,tik->tqk", lam, mesh2.vertices[mesh2.tets])
    for _ in range(3):
        u = random_free(vel, rng)
        B = random_free(rt, rng)
        C = assemble(FormKind("CrossCoupling", coeff=B), vel, vel)
        u_at = point_eval(vel, u, pts.reshape(-1, 3)).reshape(pts.shape)
        b_at = np.einsum("tqfk,tf->tqk", rt_vals, B[mesh2.tet_faces])
        cross = np.cross(u_at, b_at)
        quad = np.sum(wq * np.einsum("tqk,tqk->tq", cross, cross))
        assert u @ (C @ u) == pytest.approx(quad, rel=1e-12, abs=0)


def test_cross_bound_validates_trials(mesh2):
    with pytest.raises(ValueError, match="trials"):
        estimate_cross_bound(mesh2, trials=0)


def test_sobolev_ratio_below_analytic_bound(mesh2):
    bound = sobolev_embedding_constant()
    assert np.isclose(bound, 0.42726054, rtol=1e-7)
    ratio = estimate_sobolev_ratio(mesh2, trials=50)
    assert 0 < ratio < bound


def test_poincare_box_helper():
    assert np.isclose(poincare_h01_box(((0, 1), (0, 1), (0, 1))),
                      1.0 / (math.pi * math.sqrt(3.0)), rtol=1e-14)
    # one long side relaxes the constant toward the 2-d limit
    slab = poincare_h01_box(((0, 1), (0, 1), (0, 100)))
    assert slab > poincare_h01_box(((0, 1), (0, 1), (0, 1)))
    with pytest.raises(ValueError, match="positive length"):
        poincare_h01_box(((0, 1), (1, 1), (0, 1)))


def test_estimate_constants_bundle(mesh2):
    consts = estimate_constants(mesh2, trials=20)
    assert consts.c1 == sobolev_embedding_constant()
    assert consts.c2 > 0 and consts.poincare_div > 0
    with pytest.raises(ValueError, match="positive"):
        DiagnosticConstants(c1=0.0, c2=1.0, poincare_div=1.0)
