from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

import numpy as np
import pytest
import scipy.sparse as sp

from mhdfem import assembly
from mhdfem import derham as dh
from mhdfem.assembly import (
    DOF_EDGE_RULE,
    DOF_TRI_RULE,
    KERNEL_RULES,
    RULE_DEG4,
    RULE_DEG6,
    Tabulation,
    assemble_load,
    kernel_matrix,
    _bary,
)
from mhdfem.mesh import build_box_mesh
from mhdfem.operators import discrete_ops

import reference


@pytest.fixture(scope="module")
def cube2():
    return build_box_mesh(2, 2, 2)


@pytest.fixture(scope="module")
def spaces(cube2):
    ops = discrete_ops(cube2)
    return {"vel": ops.vel, "p1": ops.pres, "ned": ops.space_c,
            "rt": ops.space_d}


def form_matrix(kernel, mesh, *coeff):
    """Global matrix of one assembly kernel on its own rule's tabulation."""
    return kernel_matrix(Tabulation(mesh, KERNEL_RULES[kernel]), kernel,
                         *coeff)


def einsum_reference(kernel, coeff, trial, test):
    """The convection and cross-coupling matrices assembled term by term
    with einsum contractions over the quadrature points, rows over test
    DOFs."""
    m = trial.mesh
    vel = trial if trial.tag == "P2" else test
    rule = RULE_DEG4 if trial is not test else RULE_DEG6
    lam = _bary(rule.tet_points)
    wq = (6.0 * m.volumes)[:, None] * rule.tet_weights[None, :]
    vals = dh.p2_values(lam)
    ns = vel.dof_count // 3
    gd = np.concatenate([m.tets, m.num_vertices + m.tet_edges], axis=1)
    vd = gd[:, None, :] + ns * np.arange(3)[None, :, None]   # (T, c, i)
    if kernel == "convection":
        grads = reference.tabulate_p2_gradients(m, lam)
        w_at = np.stack([np.einsum("qi,ti->tq", vals, coeff[c * ns + gd])
                         for c in range(3)], axis=-1)
        wgrad = np.einsum("tqc,tqjc->tqj", w_at, grads)
        adv = np.einsum("tq,qi,tqj->tij", wq, vals, wgrad)
        elem = np.broadcast_to((0.5 * (adv - adv.transpose(0, 2, 1)))[:, None],
                               (m.num_tets, 3, 10, 10))
        rows, cols = vd[:, :, :, None], vd[:, :, None, :]
    else:
        rt_vals, _ = reference.tabulate_rt(m, lam)
        g_at = np.einsum("tqfk,tf->tqk", rt_vals, coeff[m.tet_faces])
        basis_cross = np.cross(np.eye(3)[None, None, :, :], g_at[:, :, None, :])
        if trial is test:
            cc = np.einsum("tqck,tqdk->tqcd", basis_cross, basis_cross)
            elem = np.einsum("tq,qi,qj,tqcd->tcidj", wq, vals, vals, cc)
            rows, cols = vd[:, :, :, None, None], vd[:, None, None, :, :]
        else:
            ned_vals, _ = reference.tabulate_nedelec(m, lam)
            elem = np.einsum("tq,qi,tqck,tqjk->tcij", wq, vals, basis_cross,
                             ned_vals)
            rows = m.tet_edges[:, None, None, :]
            cols = vd[:, :, :, None]
            if trial is not vel:
                rows, cols = cols, rows
    rows, cols, elem = np.broadcast_arrays(rows, cols, elem)
    return sp.csr_matrix((elem.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(test.dof_count, trial.dof_count))


def assert_matches_reference(kernel, coeff, trial, test):
    got = form_matrix(kernel, trial.mesh, coeff)
    if trial.tag != "P2":
        got = got.T
    want = einsum_reference(kernel, coeff, trial, test)
    assert np.abs((got - want).toarray()).max() \
        <= 1e-14 * np.abs(want.toarray()).max()
    return got


def tabulated(mesh, rule):
    """(lam, wq, P2 values, P2 gradients, edge values, face values) of one
    rule, tabulated by the reference formulas, the vector bases
    point-major."""
    lam = _bary(rule.tet_points)
    wq = (6.0 * mesh.volumes)[:, None] * rule.tet_weights[None, :]
    return (lam, wq, dh.p2_values(lam),
            reference.tabulate_p2_gradients(mesh, lam),
            reference.tabulate_nedelec(mesh, lam)[0],
            reference.tabulate_rt(mesh, lam)[0])


# each fixed kernel's element array, term by term
FIXED_REFERENCES = {
    "velocity_mass": lambda lam, wq, p2, g, ned, rt: np.einsum(
        "tq,qi,qj->tij", wq, p2, p2)[:, None],
    "laplacian": lambda lam, wq, p2, g, ned, rt: np.einsum(
        "tq,tqik,tqjk->tij", wq, g, g)[:, None],
    "divergence": lambda lam, wq, p2, g, ned, rt: np.einsum(
        "tq,qi,tqjc->tcij", wq, lam, g),
    "pressure_mass": lambda lam, wq, p2, g, ned, rt: np.einsum(
        "tq,qi,qj->tij", wq, lam, lam),
    "edge_mass": lambda lam, wq, p2, g, ned, rt: np.einsum(
        "tq,tqik,tqjk->tij", wq, ned, ned),
    "face_mass": lambda lam, wq, p2, g, ned, rt: np.einsum(
        "tq,tqik,tqjk->tij", wq, rt, rt),
}
RULES = pytest.mark.parametrize("rule", [RULE_DEG4, RULE_DEG6],
                                ids=["deg4", "deg6"])


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@RULES
@pytest.mark.parametrize("kernel", sorted(FIXED_REFERENCES))
def test_fixed_kernel_matches_einsum_reference(kernel, rule):
    mesh = build_box_mesh(2, 3, 2)
    got = getattr(assembly, f"{kernel}_elements")(Tabulation(mesh, rule))
    assert_close(got, FIXED_REFERENCES[kernel](*tabulated(mesh, rule)))


def exact_average(poly):
    """Average over a tet of a polynomial {exponents of lam: coefficient},
    from the integral of lam^a, 6 |T| a! / (|a| + 3)!."""
    return sum(c * Fraction(6 * prod(map(factorial, a)), factorial(sum(a) + 3))
               for a, c in poly.items())


def monomial(coeff, *factors):
    """coeff times the product of lam_i over i in factors."""
    return {tuple(factors.count(i) for i in range(4)): Fraction(coeff)}


def poly_product(p, q):
    out = {}
    for a, x in p.items():
        for b, y in q.items():
            key = tuple(i + j for i, j in zip(a, b))
            out[key] = out.get(key, 0) + x * y
    return out


def poly_derivative(p, m):
    """d p / d lam_m."""
    out = {}
    for a, c in p.items():
        if a[m]:
            key = tuple(k - (i == m) for i, k in enumerate(a))
            out[key] = out.get(key, 0) + c * a[m]
    return out


def test_reference_averages_are_exact():
    lam = [monomial(1, i) for i in range(4)]
    # lam_i (2 lam_i - 1), then 4 lam_i lam_j on each local edge
    p2 = [{**monomial(2, i, i), **monomial(-1, i)} for i in range(4)]
    p2 += [monomial(4, i, j)
           for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]
    dp2 = [[poly_derivative(p, m) for m in range(4)] for p in p2]

    def table(shape, entry):
        return np.array([float(exact_average(entry(*idx)))
                         for idx in np.ndindex(*shape)]).reshape(shape)

    exact = {
        "_LAM_LAM": table((4, 4), lambda i, j: poly_product(lam[i], lam[j])),
        "_P2_P2": table((10, 10), lambda i, j: poly_product(p2[i], p2[j])),
        "_DP2_DP2": table((10, 4, 10, 4), lambda i, m, j, n: poly_product(
            dp2[i][m], dp2[j][n])),
        "_LAM_DP2": table((4, 10, 4), lambda i, j, m: poly_product(
            lam[i], dp2[j][m])),
    }
    for name, want in exact.items():
        got = getattr(assembly, name)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want))), name


def test_fixed_matrices_do_not_depend_on_the_rule():
    # the fixed kernels read no point of the tabulation: their matrices on
    # the two rules agree bit for bit, stored entries included
    mesh = build_box_mesh(3, 2, 3)
    like = Tabulation(mesh, RULE_DEG4)
    for kernel in sorted(FIXED_REFERENCES):
        a = kernel_matrix(like, kernel)
        b = kernel_matrix(Tabulation(mesh, RULE_DEG6, like), kernel)
        assert np.array_equal(a.indptr, b.indptr), kernel
        assert np.array_equal(a.indices, b.indices), kernel
        assert np.array_equal(a.data, b.data), kernel


@RULES
def test_vector_bases_evaluate_like_einsum_reference(rule):
    # a tabulation keeps per-tet coefficients; combined and then evaluated
    # at the points they give what the reference formulas tabulate there
    mesh = build_box_mesh(2, 3, 2)
    tab = Tabulation(mesh, rule)
    lam, wq, _, grads, ned, rt = tabulated(mesh, rule)
    rng = np.random.default_rng(11)
    e = rng.standard_normal(mesh.num_edges)
    b = rng.standard_normal(mesh.num_faces)
    u = rng.standard_normal(3 * (mesh.num_vertices + mesh.num_edges))
    field = rng.standard_normal((*wq.shape, 3))
    assert_close(tab.edge_at(e),
                 np.einsum("tqek,te->tqk", ned, e[mesh.tet_edges]))
    assert_close(tab.face_at(b),
                 np.einsum("tqfk,tf->tqk", rt, b[mesh.tet_faces]))
    assert_close(tab.velocity_grad(u),
                 np.einsum("tqjk,tcj->tqck", grads, u[tab.vel_dofs]))
    moments = np.einsum("tq,tqk,tqek->te", wq, field, ned)
    assert_close(assemble_load(tab, discrete_ops(mesh).space_c, field),
                 np.bincount(mesh.tet_edges.ravel(), moments.ravel(),
                             minlength=mesh.num_edges))
    moments = np.einsum("tq,tqk,tqfk->tf", wq, field, rt)
    assert_close(assemble_load(tab, discrete_ops(mesh).space_d, field),
                 np.bincount(mesh.tet_faces.ravel(), moments.ravel(),
                             minlength=mesh.num_faces))
    for coeffs, vals in ((tab.ned, ned), (tab.rt, rt)):
        assert_close(np.einsum("qm,tkmc->tqkc", lam, coeffs), vals)


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


MASS = {"vel": "velocity_mass", "ned": "edge_mass", "rt": "face_mass",
        "p1": "pressure_mass"}


@pytest.mark.parametrize("key", ["vel", "ned", "rt", "p1"])
def test_mass_matrices_symmetric_positive(spaces, key):
    mass = form_matrix(MASS[key], spaces[key].mesh)
    asym = np.abs((mass - mass.T).toarray())
    scale = np.abs(mass.toarray()).max()
    assert asym.max() <= 1e-14 * scale
    eigs = np.linalg.eigvalsh(mass.toarray())
    assert eigs.min() > 0


def test_rt_mass_reproduces_constant_norms(spaces, cube2):
    rt = spaces["rt"]
    mass = form_matrix("face_mass", cube2)
    for c in (np.array([1.0, 0.0, 0.0]), np.array([0.4, -2.0, 1.5])):
        coeffs = dh.interpolate(rt, lambda x: np.broadcast_to(c, x.shape))
        exact = np.dot(c, c) * cube2.volumes.sum()
        assert abs(coeffs @ (mass @ coeffs) - exact) < 1e-12


def test_laplacian_symmetric_and_kernel_free_on_bc(spaces):
    vel = spaces["vel"]
    lap = form_matrix("laplacian", vel.mesh)
    assert np.abs((lap - lap.T).toarray()).max() < 1e-14
    free = vel.free_index
    sub = lap[free][:, free].toarray()
    assert np.linalg.eigvalsh(sub).min() > 0


def test_convection_is_skew(spaces):
    vel = spaces["vel"]
    rng = np.random.default_rng(3)
    w = rng.standard_normal(vel.dof_count)
    a = assert_matches_reference("convection", w, vel, vel)
    assert np.abs((a + a.T).toarray()).max() < 1e-13
    for _ in range(3):
        v = rng.standard_normal(vel.dof_count)
        assert abs(v @ (a @ v)) <= 1e-13 * (np.abs(v).max() ** 2 + 1.0)


def test_convection_against_dense_oracle():
    # independent evaluation of 1/2[(w.grad u, v) - (w.grad v, u)] on one cube
    m = build_box_mesh(1, 1, 1)
    vel = discrete_ops(m).vel
    rng = np.random.default_rng(9)
    w = rng.standard_normal(vel.dof_count)
    a = form_matrix("convection", m, w).toarray()

    lam = _bary(RULE_DEG6.tet_points)
    vals = dh.p2_values(lam)
    grads = reference.tabulate_p2_gradients(m, lam)
    gd = np.concatenate([m.tets, m.num_vertices + m.tet_edges], axis=1)
    ns = vel.dof_count // 3
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
    to_edge = assert_matches_reference("cross", g, vel, ned)
    to_vel = assert_matches_reference("cross", g, ned, vel)
    assert np.abs((to_edge - to_vel.T).toarray()).max() == 0.0


def test_cross_coupling_antisymmetry_oracle():
    # (u x G, F) pairing is the negative of the (F x G, u) pairing entrywise
    m = build_box_mesh(1, 1, 1)
    ops = discrete_ops(m)
    vel, rt = ops.vel, ops.space_d
    rng = np.random.default_rng(8)
    g = rng.standard_normal(rt.dof_count)
    x_ev = form_matrix("cross", m, g).T.toarray()

    lam = _bary(RULE_DEG4.tet_points)
    vals = dh.p2_values(lam)
    ned_vals, _ = reference.tabulate_nedelec(m, lam)
    rt_vals, _ = reference.tabulate_rt(m, lam)
    gd = np.concatenate([m.tets, m.num_vertices + m.tet_edges], axis=1)
    ns = vel.dof_count // 3
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
    a = assert_matches_reference("cross_cross", g, vel, vel)
    assert np.abs((a - a.T).toarray()).max() < 1e-13
    for _ in range(4):
        v = rng.standard_normal(vel.dof_count)
        assert v @ (a @ v) >= -1e-13


def test_velocity_divergence_row_sums_vanish(spaces):
    # summing (div u, psi_q) over all P1 hats integrates div u over the box,
    # which is zero for velocities vanishing on the boundary
    vel, p1 = spaces["vel"], spaces["p1"]
    b = form_matrix("divergence", vel.mesh)
    rng = np.random.default_rng(6)
    u = rng.standard_normal(vel.dof_count)
    u[vel.boundary_dof] = 0.0
    assert abs(np.ones(p1.dof_count) @ (b @ u)) < 1e-12


def test_load_partition_of_unity(spaces, cube2):
    vel = spaces["vel"]
    c = np.array([1.0, 2.0, -0.5])
    tab = Tabulation(cube2, RULE_DEG6)
    load = assemble_load(tab, vel, np.broadcast_to(c, tab.points.shape))
    ns = vel.dof_count // 3
    vol = cube2.volumes.sum()
    for comp in range(3):
        assert abs(load[comp * ns:(comp + 1) * ns].sum() - c[comp] * vol) < 1e-12


def fe_field_at(space, coeffs, tab):
    """An FE coefficient field at tab's points, (T, nq, 3)."""
    at = dh.point_eval(space, coeffs, tab.points.reshape(-1, 3))
    return at.reshape(tab.points.shape)


def test_load_matches_mass_action_for_fe_fields(spaces, cube2):
    # for an FE coefficient field, the load vector equals Mass @ coeffs
    ned = spaces["ned"]
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(ned.dof_count)
    tab = Tabulation(cube2, RULE_DEG6)
    load = assemble_load(tab, ned, fe_field_at(ned, coeffs, tab))
    mass = form_matrix("edge_mass", cube2)
    assert np.abs(load - mass @ coeffs).max() < 1e-12


def test_face_load_matches_mass_action(spaces, cube2):
    rt = spaces["rt"]
    coeffs = np.random.default_rng(10).standard_normal(rt.dof_count)
    tab = Tabulation(cube2, RULE_DEG6)
    load = assemble_load(tab, rt, fe_field_at(rt, coeffs, tab))
    mass = form_matrix("face_mass", cube2)
    assert np.abs(load - mass @ coeffs).max() < 1e-12


def test_load_rejects_spaces_without_data_slot(spaces, cube2):
    tab = Tabulation(cube2, RULE_DEG6)
    with pytest.raises(ValueError):
        assemble_load(tab, spaces["p1"], np.zeros(tab.points.shape))
