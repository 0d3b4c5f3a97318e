from __future__ import annotations

from math import factorial

import numpy as np
import pytest

from mhdfem import derham as dh
from mhdfem.assembly import (
    DOF_EDGE_RULE,
    DOF_TRI_RULE,
    RULE_DEG4,
    RULE_DEG6,
    FormKind,
    apply_essential_bc,
    assemble,
    assemble_load,
    _bary,
)
from mhdfem.linalg import AssemblyError, BlockSystem, finalize_assembly
from mhdfem.mesh import build_box_mesh


@pytest.fixture(scope="module")
def cube2():
    return build_box_mesh(2, 2, 2)


@pytest.fixture(scope="module")
def spaces(cube2):
    return {
        "vel": dh.build_space(cube2, dh.VELOCITY, True),
        "p1": dh.build_space(cube2, dh.P1, False, zero_mean=True),
        "ned": dh.build_space(cube2, dh.NEDELEC, True),
        "rt": dh.build_space(cube2, dh.RT, True),
    }


def einsum_reference(tag, coeff, trial, test):
    """Convection and CrossCoupling assembled term by term with einsum
    contractions over the quadrature points, rows over test DOFs."""
    m = trial.mesh
    vel = trial if trial.kind.components == 3 else test
    rule = RULE_DEG4 if trial is not test else RULE_DEG6
    lam = _bary(rule.tet_points)
    wq = (6.0 * m.volumes)[:, None] * rule.tet_weights[None, :]
    vals = dh.p2_values(lam)
    ns = vel.n_scalar
    gd = np.concatenate([m.tets, m.num_vertices + m.tet_edges], axis=1)
    vd = gd[:, None, :] + ns * np.arange(3)[None, :, None]   # (T, c, i)
    if tag == "Convection":
        grads = dh.tabulate_p2_gradients(m, lam)
        w_at = np.stack([np.einsum("qi,ti->tq", vals, coeff[c * ns + gd])
                         for c in range(3)], axis=-1)
        wgrad = np.einsum("tqc,tqjc->tqj", w_at, grads)
        adv = np.einsum("tq,qi,tqj->tij", wq, vals, wgrad)
        elem = np.broadcast_to((0.5 * (adv - adv.transpose(0, 2, 1)))[:, None],
                               (m.num_tets, 3, 10, 10))
        rows, cols = vd[:, :, :, None], vd[:, :, None, :]
    else:
        rt_vals, _ = dh.tabulate_rt(m, lam)
        g_at = np.einsum("tqfk,tf->tqk", rt_vals, coeff[m.tet_faces])
        basis_cross = np.cross(np.eye(3)[None, None, :, :], g_at[:, :, None, :])
        if trial is test:
            cc = np.einsum("tqck,tqdk->tqcd", basis_cross, basis_cross)
            elem = np.einsum("tq,qi,qj,tqcd->tcidj", wq, vals, vals, cc)
            rows, cols = vd[:, :, :, None, None], vd[:, None, None, :, :]
        else:
            ned_vals, _ = dh.tabulate_nedelec(m, lam)
            elem = np.einsum("tq,qi,tqck,tqjk->tcij", wq, vals, basis_cross,
                             ned_vals)
            rows = m.tet_edges[:, None, None, :]
            cols = vd[:, :, :, None]
            if trial is not vel:
                rows, cols = cols, rows
    rows, cols, elem = np.broadcast_arrays(rows, cols, elem)
    return finalize_assembly(rows.ravel(), cols.ravel(), elem.ravel(),
                             (test.dof_count, trial.dof_count))


def assert_matches_reference(form, trial, test):
    got = assemble(form, trial, test)
    want = einsum_reference(form.tag, form.coeff, trial, test)
    assert np.abs((got - want).toarray()).max() \
        <= 1e-14 * np.abs(want.toarray()).max()
    return got


@pytest.mark.parametrize("rule,deg", [(RULE_DEG4, 4), (RULE_DEG6, 6)])
def test_tet_rule_exactness(rule, deg):
    p, w = rule.tet_points, rule.tet_weights
    assert np.all(w > 0)
    assert abs(w.sum() - 1.0 / 6.0) < 1e-15
    worst = 0.0
    for a in range(deg + 1):
        for b in range(deg + 1 - a):
            for c in range(deg + 1 - a - b):
                got = np.sum(w * p[:, 0] ** a * p[:, 1] ** b * p[:, 2] ** c)
                exact = factorial(a) * factorial(b) * factorial(c) \
                    / factorial(a + b + c + 3)
                worst = max(worst, abs(got - exact))
    assert worst < 1e-14


def test_deg4_rule_has_11_points():
    assert RULE_DEG4.tet_points.shape == (11, 3)


def test_triangle_rule_exactness():
    bary, w = DOF_TRI_RULE
    assert np.all(w > 0)
    assert abs(w.sum() - 0.5) < 1e-15
    x, y = bary[:, 1], bary[:, 2]
    for a in range(6):
        for b in range(6 - a):
            got = np.sum(w * x ** a * y ** b)
            assert abs(got - factorial(a) * factorial(b) / factorial(a + b + 2)) < 1e-15


def test_edge_rule_exactness():
    t, w = DOF_EDGE_RULE
    assert np.all(w > 0)
    for k in range(8):
        assert abs(np.sum(w * t ** k) - 1.0 / (k + 1)) < 1e-14


def test_dg0_mass_is_volume_diagonal():
    m = build_box_mesh(1, 1, 1)
    dg = dh.build_space(m, dh.DG0, False)
    mass = assemble(FormKind("Mass"), dg, dg)
    assert mass.nnz == m.num_tets
    assert np.abs(mass.diagonal() - m.volumes).max() < 1e-16
    assert abs(mass.diagonal().sum() - 1.0) < 1e-14


@pytest.mark.parametrize("key", ["vel", "ned", "rt", "p1"])
def test_mass_matrices_symmetric_positive(spaces, key):
    s = spaces[key]
    mass = assemble(FormKind("Mass"), s, s)
    asym = np.abs((mass - mass.T).toarray())
    scale = np.abs(mass.toarray()).max()
    assert asym.max() <= 1e-14 * scale
    eigs = np.linalg.eigvalsh(mass.toarray())
    assert eigs.min() > 0


def test_rt_mass_reproduces_constant_norms(spaces, cube2):
    rt = spaces["rt"]
    mass = assemble(FormKind("Mass"), rt, rt)
    for c in (np.array([1.0, 0.0, 0.0]), np.array([0.4, -2.0, 1.5])):
        coeffs = dh.interpolate(rt, lambda x: np.broadcast_to(c, x.shape))
        exact = np.dot(c, c) * cube2.volumes.sum()
        assert abs(coeffs @ (mass @ coeffs) - exact) < 1e-12


def test_laplacian_symmetric_and_kernel_free_on_bc(spaces):
    vel = spaces["vel"]
    lap = assemble(FormKind("VectorLaplacian"), vel, vel)
    assert np.abs((lap - lap.T).toarray()).max() < 1e-14
    free = vel.free_index
    sub = lap[free][:, free].toarray()
    assert np.linalg.eigvalsh(sub).min() > 0


def test_convection_is_skew(spaces):
    vel = spaces["vel"]
    rng = np.random.default_rng(3)
    w = rng.standard_normal(vel.dof_count)
    a = assert_matches_reference(FormKind("Convection", w), vel, vel)
    assert np.abs((a + a.T).toarray()).max() < 1e-13
    for _ in range(3):
        v = rng.standard_normal(vel.dof_count)
        assert abs(v @ (a @ v)) <= 1e-13 * (np.abs(v).max() ** 2 + 1.0)


def test_convection_against_dense_oracle():
    # independent evaluation of 1/2[(w.grad u, v) - (w.grad v, u)] on one cube
    m = build_box_mesh(1, 1, 1)
    vel = dh.build_space(m, dh.VELOCITY, False)
    rng = np.random.default_rng(9)
    w = rng.standard_normal(vel.dof_count)
    a = assemble(FormKind("Convection", w), vel, vel).toarray()

    lam = _bary(RULE_DEG6.tet_points)
    vals = dh.p2_values(lam)
    grads = dh.tabulate_p2_gradients(m, lam)
    gd = np.concatenate([m.tets, m.num_vertices + m.tet_edges], axis=1)
    ns = vel.n_scalar
    ref = np.zeros_like(a)
    for t in range(m.num_tets):
        wq = 6.0 * m.volumes[t] * RULE_DEG6.tet_weights
        w_at = np.stack([vals @ w[c * ns + gd[t]] for c in range(3)], axis=1)
        wgrad = np.einsum("qc,qjc->qj", w_at, grads[t])
        adv = np.einsum("q,qi,qj->ij", wq, vals, wgrad)
        sk = 0.5 * (adv - adv.T)
        for c in range(3):
            idx = c * ns + gd[t]
            ref[np.ix_(idx, idx)] += sk
    assert np.abs(a - ref).max() < 1e-13


def test_cross_coupling_transpose_pair(spaces):
    vel, ned, rt = spaces["vel"], spaces["ned"], spaces["rt"]
    rng = np.random.default_rng(4)
    g = rng.standard_normal(rt.dof_count)
    to_edge = assert_matches_reference(FormKind("CrossCoupling", g), vel, ned)
    to_vel = assert_matches_reference(FormKind("CrossCoupling", g), ned, vel)
    assert np.abs((to_edge - to_vel.T).toarray()).max() == 0.0


def test_cross_coupling_antisymmetry_oracle():
    # (u x G, F) pairing is the negative of the (F x G, u) pairing entrywise
    m = build_box_mesh(1, 1, 1)
    vel = dh.build_space(m, dh.VELOCITY, False)
    ned = dh.build_space(m, dh.NEDELEC, False)
    rt = dh.build_space(m, dh.RT, False)
    rng = np.random.default_rng(8)
    g = rng.standard_normal(rt.dof_count)
    x_ev = assemble(FormKind("CrossCoupling", g), ned, vel).toarray()

    lam = _bary(RULE_DEG4.tet_points)
    vals = dh.p2_values(lam)
    ned_vals, _ = dh.tabulate_nedelec(m, lam)
    rt_vals, _ = dh.tabulate_rt(m, lam)
    gd = np.concatenate([m.tets, m.num_vertices + m.tet_edges], axis=1)
    ns = vel.n_scalar
    ref = np.zeros_like(x_ev)
    eye = np.eye(3)
    for t in range(m.num_tets):
        wq = 6.0 * m.volumes[t] * RULE_DEG4.tet_weights
        g_at = np.einsum("qfk,f->qk", rt_vals[t], g[m.tet_faces[t]])
        for c in range(3):
            for i in range(10):
                u_gi = c * ns + gd[t, i]
                for j in range(6):
                    e_gj = m.tet_edges[t, j]
                    # (F x G) . u with F the edge basis, u the velocity basis
                    fxg = np.cross(ned_vals[t, :, j], g_at)
                    val = np.sum(wq * vals[:, i] * fxg[:, c] * 1.0)
                    ref[u_gi, e_gj] += val
    assert np.abs(x_ev + ref).max() < 1e-13


def test_cross_cross_is_gram_matrix(spaces):
    vel, rt = spaces["vel"], spaces["rt"]
    rng = np.random.default_rng(5)
    g = rng.standard_normal(rt.dof_count)
    a = assert_matches_reference(FormKind("CrossCoupling", g), vel, vel)
    assert np.abs((a - a.T).toarray()).max() < 1e-13
    for _ in range(4):
        v = rng.standard_normal(vel.dof_count)
        assert v @ (a @ v) >= -1e-13


def test_velocity_divergence_row_sums_vanish(spaces):
    # summing (div u, psi_q) over all P1 hats integrates div u over the box,
    # which is zero for velocities vanishing on the boundary
    vel, p1 = spaces["vel"], spaces["p1"]
    b = assemble(FormKind("MixedDiv"), vel, p1)
    rng = np.random.default_rng(6)
    u = rng.standard_normal(vel.dof_count)
    u[vel.boundary_dof] = 0.0
    assert abs(np.ones(p1.dof_count) @ (b @ u)) < 1e-12


def test_load_partition_of_unity(spaces, cube2):
    vel = spaces["vel"]
    c = np.array([1.0, 2.0, -0.5])
    load = assemble_load(vel, lambda x: np.broadcast_to(c, x.shape))
    ns = vel.n_scalar
    vol = cube2.volumes.sum()
    for comp in range(3):
        assert abs(load[comp * ns:(comp + 1) * ns].sum() - c[comp] * vol) < 1e-12


def test_load_matches_mass_action_for_fe_fields(spaces, cube2):
    # for an FE coefficient field, the load vector equals Mass @ coeffs
    ned = spaces["ned"]
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(ned.dof_count)
    load = assemble_load(ned, lambda x: dh.point_eval(ned, coeffs, x))
    mass = assemble(FormKind("Mass"), ned, ned)
    assert np.abs(load - mass @ coeffs).max() < 1e-12


def test_mesh_mismatch_rejected():
    m1 = build_box_mesh(1, 1, 1)
    m2 = build_box_mesh(1, 1, 1)
    v1 = dh.build_space(m1, dh.VELOCITY, True)
    v2 = dh.build_space(m2, dh.VELOCITY, True)
    with pytest.raises(AssemblyError):
        assemble(FormKind("VectorLaplacian"), v1, v2)


def test_unsupported_pairing_rejected(spaces):
    with pytest.raises(AssemblyError):
        assemble(FormKind("VectorLaplacian"), spaces["ned"], spaces["ned"])
    with pytest.raises(AssemblyError):
        assemble(FormKind("Convection"), spaces["vel"], spaces["vel"])
    with pytest.raises(AssemblyError):
        FormKind("NotAForm")


def test_apply_essential_bc_counts():
    m = build_box_mesh(1, 1, 1)
    vel = dh.build_space(m, dh.VELOCITY, True)
    ned = dh.build_space(m, dh.NEDELEC, True)
    rt = dh.build_space(m, dh.RT, True)
    dg = dh.build_space(m, dh.DG0, False)
    bs = BlockSystem([("u", vel.dof_count), ("E", ned.dof_count),
                      ("B", rt.dof_count), ("s", dg.dof_count)])
    bs.add_block("u", "u", assemble(FormKind("VectorLaplacian"), vel, vel))
    bs.add_block("E", "E", assemble(FormKind("Mass"), ned, ned))
    bs.add_block("B", "B", assemble(FormKind("Mass"), rt, rt))
    bs.add_block("s", "s", assemble(FormKind("Mass"), dg, dg))
    red = apply_essential_bc(bs, {"u": vel.boundary_dof, "E": ned.boundary_dof,
                                  "B": rt.boundary_dof})
    dims = dict(red.spaces)
    # free magnetic DOFs on the unit cube: 6 faces + 1 edge
    assert dims["B"] == 6
    assert dims["E"] == 1
    assert dims["u"] == 3
    assert dims["s"] == dg.dof_count  # DG block untouched


def test_apply_essential_bc_preserves_interior_rows(spaces, cube2):
    vel = spaces["vel"]
    lap = assemble(FormKind("VectorLaplacian"), vel, vel)
    load = assemble_load(vel, lambda x: np.broadcast_to([1.0, 0.0, 0.0], x.shape))
    bs = BlockSystem([("u", vel.dof_count)])
    bs.add_block("u", "u", lap)
    bs.set_rhs("u", load)
    red = apply_essential_bc(bs, {"u": vel.boundary_dof})
    a, b = red.assemble()
    free = vel.free_index
    assert np.abs((a - lap[free][:, free]).toarray()).max() == 0.0
    assert np.array_equal(b, load[free])
