"""The per-mesh context: weak curl, norms, and constant estimators."""

import math

import numpy as np
import pytest
import scipy.linalg

from mhdfem.assembly import RULE_DEG4, RULE_DEG6, Tabulation, kernel_matrix
from mhdfem.derham import (curl_incidence, div_incidence, tabulate_nedelec,
                           tabulate_rt)
from mhdfem.mesh import build_box_mesh
from mhdfem.operators import (POINCARE_DOF_LIMIT, POINCARE_H01, SOBOLEV_L6,
                              DiscreteOps, estimate_cross_bound, discrete_ops,
                              estimate_poincare_constant)

# regression value for the coarsest box; the dense eigensolve is the oracle
POINCARE_SINGLE_CUBE = 0.2236067977499790


@pytest.fixture(scope="module")
def mesh2():
    return build_box_mesh(2, 2, 2)


@pytest.fixture(scope="module")
def ops2(mesh2):
    return DiscreteOps(mesh2)


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


def test_pairing_matrices_match_quadrature(mesh2, ops2):
    scale = np.abs(ops2.K_cd.toarray()).max()
    assert np.abs(ops2.K_cd.toarray()
                  - quadrature_curl_pairing(mesh2)).max() <= 1e-14 * scale


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


def test_cross_coupling_load_matches_quadrature(mesh2, ops2):
    rng = np.random.default_rng(13)
    u = random_free(ops2.vel, rng)
    B = random_free(ops2.space_d, rng)

    # independent quadrature of (u x B, w_e) from the tabulated bases
    lam = np.column_stack([1.0 - RULE_DEG6.tet_points.sum(axis=1),
                           RULE_DEG6.tet_points])
    wq = (6.0 * mesh2.volumes)[:, None] * RULE_DEG6.tet_weights[None, :]
    ned_vals, _ = tabulate_nedelec(mesh2, lam)
    rt_vals, _ = tabulate_rt(mesh2, lam)
    b_at = np.einsum("tqfk,tf->tqk", rt_vals, B[mesh2.tet_faces])
    u_at = Tabulation(mesh2, RULE_DEG6).velocity_at(u)
    cross_at = np.cross(u_at, b_at)
    load = np.zeros(ops2.space_c.dof_count)
    np.add.at(load, mesh2.tet_edges.ravel(),
              np.einsum("tq,tqk,tqik->ti", wq, cross_at, ned_vals).ravel())

    free = ops2.space_c.free_index
    scale = np.linalg.norm(load[free])

    # the assembled coupling matrix applied to u gives that load on free rows
    coupling = kernel_matrix(Tabulation(mesh2, RULE_DEG4), "cross", B)
    assert np.linalg.norm((coupling @ u)[free] - load[free]) <= 1e-12 * scale


def test_norms_of_zero_fields(ops2):
    assert ops2.norm_c(np.zeros(ops2.space_c.dof_count)) == 0.0
    assert ops2.norm_d(np.zeros(ops2.space_d.dof_count)) == 0.0


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


def test_mass_matrices_positive_definite_on_free(ops2):
    for mat, space in [(ops2.M_c, ops2.space_c), (ops2.M_d, ops2.space_d)]:
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


def null_space_poincare(mesh):
    """The constant by its definition: a dense kernel basis of the
    divergence incidence on free faces, and on it the largest eigenvalue of
    |B|^2 against |weak curl B|^2."""
    ops = discrete_ops(mesh)
    free_c, free_d = ops.space_c.free_index, ops.space_d.free_index
    kernel = scipy.linalg.null_space(ops.div.toarray()[:, free_d])
    mass = kernel.T @ ops.M_d[free_d][:, free_d].toarray() @ kernel
    rhs = ops.K_cd.T[free_c][:, free_d].toarray() @ kernel
    curl = rhs.T @ np.linalg.solve(ops.M_c[free_c][:, free_c].toarray(), rhs)
    eigs = scipy.linalg.eigh(0.5 * (mass + mass.T), 0.5 * (curl + curl.T),
                             eigvals_only=True)
    return math.sqrt(eigs[-1])


@pytest.mark.parametrize("n", [2, 3])
def test_poincare_matches_null_space_reference(n):
    mesh = build_box_mesh(n, n, n)
    assert estimate_poincare_constant(mesh) \
        == pytest.approx(null_space_poincare(mesh), rel=1e-12, abs=0)


def test_poincare_capability_limit():
    # 8^3 has 5,760 free faces, past the dense eigensolve's limit
    mesh = build_box_mesh(8, 8, 8)
    assert (~mesh.boundary_face).sum() > POINCARE_DOF_LIMIT
    assert estimate_poincare_constant(mesh) is None


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
    vel, vel_mass, vel_stiff = ops.vel, ops.vel_mass, ops.lap
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
        cross = kernel_matrix(ops.tab(RULE_DEG6), "cross_cross", B)
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


def test_cross_gram_form_equals_quadrature_of_cross(mesh2, ops2):
    rng = np.random.default_rng(11)
    vel, rt = ops2.vel, ops2.space_d
    lam = np.column_stack([1.0 - RULE_DEG6.tet_points.sum(axis=1),
                           RULE_DEG6.tet_points])
    wq = (6.0 * mesh2.volumes)[:, None] * RULE_DEG6.tet_weights[None, :]
    rt_vals, _ = tabulate_rt(mesh2, lam)
    tab = Tabulation(mesh2, RULE_DEG6)
    for _ in range(3):
        u = random_free(vel, rng)
        B = random_free(rt, rng)
        C = kernel_matrix(tab, "cross_cross", B)
        u_at = tab.velocity_at(u)
        b_at = np.einsum("tqfk,tf->tqk", rt_vals, B[mesh2.tet_faces])
        cross = np.cross(u_at, b_at)
        quad = np.sum(wq * np.einsum("tqk,tqk->tq", cross, cross))
        assert u @ (C @ u) == pytest.approx(quad, rel=1e-12, abs=0)


def test_cross_bound_validates_trials(mesh2):
    with pytest.raises(ValueError, match="trials"):
        estimate_cross_bound(mesh2, trials=0)


def test_sobolev_ratio_below_analytic_bound(ops2):
    bound = SOBOLEV_L6
    assert np.isclose(bound, 0.42726054, rtol=1e-7)
    # |u|_{L6} / |grad u| of random constrained velocities, the L6 norm by
    # the degree-6 rule (a sampling estimate, not an exact integral)
    tab = ops2.tab(RULE_DEG6)
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = random_free(ops2.vel, rng)
        at = tab.velocity_at(u)
        l6 = np.sum(tab.wq * np.einsum("tqk,tqk->tq", at, at) ** 3) ** (1 / 6)
        assert 0 < l6 / math.sqrt(u @ (ops2.lap @ u)) < bound


def test_poincare_h01_bounds_conforming_rayleigh_quotients(ops2):
    # conforming P2 eigenvalues bound the first Dirichlet eigenvalue
    # 3 pi^2 from above, so no velocity beats the constant, and the
    # smallest quotient comes close to it
    free = ops2.vel.free_index
    lap = ops2.lap[free][:, free].toarray()
    mass = ops2.vel_mass[free][:, free].toarray()
    smallest = scipy.linalg.eigh(lap, mass, eigvals_only=True)[0]
    assert POINCARE_H01 == 1.0 / (math.pi * math.sqrt(3.0))
    assert 1.0 / math.sqrt(smallest) <= POINCARE_H01
    assert 1.0 / math.sqrt(smallest) >= 0.9 * POINCARE_H01
