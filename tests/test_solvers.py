"""Picard steps, structure diagnostics, and the nonlinear driver."""

import gc
import math
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import mhdfem
from mhdfem import linalg
from mhdfem.assembly import (KERNEL_RULES, RULE_DEG4, RULE_DEG6, Tabulation,
                             assemble_load, element_dofs, kernel_matrix)
from mhdfem.derham import (curl_incidence, div_incidence, interpolate,
                           p2_values, point_eval, tabulate_nedelec,
                           tabulate_p2_gradients, tabulate_rt)
from mhdfem.harness import _PICARD_DEFAULTS as PICARD
from mhdfem.harness import load_config, run_solve
from mhdfem.linalg import (LinearStallError, SingularSystemError,
                           solve_direct, solve_preconditioned)
from mhdfem.mesh import build_box_mesh
from mhdfem.operators import (SOBOLEV_L6, DiscreteOps, discrete_ops,
                              estimate_cross_bound)
from mhdfem.solvers import (MhdParams, be_picard_step, bj_picard_step,
                            check_small_data_conditions, diagnostics,
                            solve_nonlinear, zero_state,
                            _fixed_matrix, _loads, _slot_load, _step_plan,
                            _step_system)


def smooth_force(pts):
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    out = np.zeros((len(x), 3))
    out[:, 0] = np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)
    out[:, 1] = np.cos(np.pi * x) * y * (1.0 - y) * z
    out[:, 2] = x * (1.0 - x) * y
    return out


def seed_field(pts):
    # divergence-free with vanishing normal trace on the unit box
    x, y = pts[:, 0], pts[:, 1]
    out = np.zeros((len(x), 3))
    out[:, 0] = np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
    out[:, 1] = -np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
    return out


@pytest.fixture(scope="module")
def mesh2():
    return build_box_mesh(2, 2, 2)


@pytest.fixture(scope="module")
def ops2(mesh2):
    return DiscreteOps(mesh2)


@pytest.fixture(scope="module")
def params():
    return MhdParams(r_e=1.0, r_m=1.0, s=1.0, f=smooth_force)


def seed_flux(mesh):
    rt = discrete_ops(mesh).space_d
    b0 = interpolate(rt, seed_field)
    b0[rt.boundary_dof] = 0.0
    return b0


@pytest.fixture(scope="module")
def seeded_bj(mesh2, params):
    """Two chained current-based steps from a magnetically seeded start."""
    init = zero_state(mesh2, "BJ")
    init.B = seed_flux(mesh2)
    init.B_prev = init.B.copy()
    s1 = bj_picard_step(init, params)
    s2 = bj_picard_step(s1, params)
    return init, s1, s2


@pytest.fixture(scope="module")
def seeded_be(mesh2, params):
    init = zero_state(mesh2, "BE")
    init.B = seed_flux(mesh2)
    init.B_prev = init.B.copy()
    s1 = be_picard_step(init, params)
    s2 = be_picard_step(s1, params)
    return init, s1, s2


@pytest.fixture(scope="module")
def solved_bj(mesh2, params):
    init = zero_state(mesh2, "BJ")
    init.B = seed_flux(mesh2)
    init.B_prev = init.B.copy()
    return solve_nonlinear("BJ", params, init, **PICARD)


@pytest.fixture(scope="module")
def solved_be(mesh2, params):
    init = zero_state(mesh2, "BE")
    init.B = seed_flux(mesh2)
    init.B_prev = init.B.copy()
    return solve_nonlinear("BE", params, init, **PICARD)


# ---------------------------------------------------------------------------
# independent quadrature evaluation, bypassing the assembled matrices


def lam_of(rule):
    return np.column_stack([1.0 - rule.tet_points.sum(axis=1),
                            rule.tet_points])


def phys_weights(mesh, rule):
    return (6.0 * mesh.volumes)[:, None] * rule.tet_weights[None, :]


def vel_dofs(mesh):
    return np.concatenate([mesh.tets, mesh.num_vertices + mesh.tet_edges],
                          axis=1)


def velocity_at(mesh, u, lam):
    p2v = p2_values(lam)
    gd = vel_dofs(mesh)
    n = mesh.num_vertices + mesh.num_edges
    return np.stack([np.einsum("qi,ti->tq", p2v, u[c * n + gd])
                     for c in range(3)], axis=-1)


def edge_field_at(mesh, coeffs, lam):
    vals, _ = tabulate_nedelec(mesh, lam)
    return np.einsum("tqek,te->tqk", vals, coeffs[mesh.tet_edges])


def face_field_at(mesh, coeffs, lam):
    vals, _ = tabulate_rt(mesh, lam)
    return np.einsum("tqfk,tf->tqk", vals, coeffs[mesh.tet_faces])


def quad_grad2(mesh, u):
    lam = lam_of(RULE_DEG4)
    wq = phys_weights(mesh, RULE_DEG4)
    grads = tabulate_p2_gradients(mesh, lam)
    gd = vel_dofs(mesh)
    n = mesh.num_vertices + mesh.num_edges
    total = 0.0
    for c in range(3):
        g_at = np.einsum("tqik,ti->tqk", grads, u[c * n + gd])
        total += float(np.sum(wq * np.einsum("tqk,tqk->tq", g_at, g_at)))
    return total


def quad_l2sq(mesh, field_at, rule):
    return float(np.sum(phys_weights(mesh, rule)
                        * np.einsum("tqk,tqk->tq", field_at, field_at)))


def quad_work(mesh, u, force):
    lam = lam_of(RULE_DEG6)
    pts = np.einsum("qi,tik->tqk", lam, mesh.vertices[mesh.tets])
    f_at = np.asarray(force(pts.reshape(-1, 3))).reshape(mesh.num_tets, -1, 3)
    u_at = velocity_at(mesh, u, lam)
    return float(np.sum(phys_weights(mesh, RULE_DEG6)
                        * np.einsum("tqk,tqk->tq", f_at, u_at)))


def iterate_matrix(kernel, coeff, mesh):
    """Global matrix of an iterate kernel at coefficient coeff."""
    return kernel_matrix(Tabulation(mesh, KERNEL_RULES[kernel]), kernel,
                         coeff)


def force_load(ops, force):
    """The velocity load of a callable force at the degree-6 points."""
    tab = ops.tab(RULE_DEG6)
    at = np.asarray(force(tab.points.reshape(-1, 3)), dtype=float)
    return assemble_load(tab, ops.vel, at.reshape(tab.points.shape))


def tet_divergences(mesh, B):
    _, divs = tabulate_rt(mesh, lam_of(RULE_DEG4))
    return np.einsum("tf,tf->t", divs, B[mesh.tet_faces])


# ---------------------------------------------------------------------------
# parameters, states, loads


def test_params_positivity():
    with pytest.raises(ValueError):
        MhdParams(r_e=0.0, r_m=1.0, s=1.0)
    with pytest.raises(ValueError):
        MhdParams(r_e=1.0, r_m=-2.0, s=1.0)
    with pytest.raises(ValueError):
        MhdParams(r_e=1.0, r_m=1.0, s=float("nan"))
    p = MhdParams(r_e=1, r_m=2, s=3)
    assert p.r_e == 1.0 and isinstance(p.r_e, float)


def test_zero_state_shapes(mesh2):
    nv, ne, nf, nt = (mesh2.num_vertices, mesh2.num_edges, mesh2.num_faces,
                      mesh2.num_tets)
    be = zero_state(mesh2, "BE")
    bj = zero_state(mesh2, "BJ")
    assert be.u.size == 3 * (nv + ne) and bj.u.size == 3 * (nv + ne)
    assert be.E.size == ne and bj.j.size == ne and bj.sigma.size == ne
    assert be.B.size == nf and be.B_prev.size == nf
    assert be.p.size == nv and be.r.size == nt


def test_load_vector_paths(mesh2):
    ops = discrete_ops(mesh2)
    tab = ops.tab(RULE_DEG6)
    rng = np.random.default_rng(3)
    load, l2sq = _slot_load(tab, ops.vel, None, None, ops.vel_mass, "f")
    assert not np.any(load) and l2sq == 0.0
    coeff = rng.standard_normal(ops.vel.dof_count)
    direct, _ = _slot_load(tab, ops.vel, coeff, None, ops.vel_mass, "f")
    assert np.allclose(direct, ops.vel_mass @ coeff, rtol=0, atol=0)
    by_call, l2sq = _slot_load(tab, ops.vel, smooth_force,
                               smooth_force(tab.points.reshape(-1, 3)),
                               ops.vel_mass, "f")
    assert np.allclose(by_call, force_load(ops, smooth_force), rtol=0,
                       atol=0)
    assert l2sq == quad_l2sq(mesh2, smooth_force(tab.points.reshape(-1, 3))
                             .reshape(tab.points.shape), RULE_DEG6)
    with pytest.raises(ValueError, match="data slot f must be callable"):
        _slot_load(tab, ops.vel, np.zeros(7), None, ops.vel_mass, "f")


def test_non_finite_data_names_its_slot():
    # rejected with the slot's name before any factor sees it
    mesh = build_box_mesh(3, 3, 3)
    nan_force = MhdParams(r_e=1.0, r_m=1.0, s=1.0,
                          f=lambda p: np.full((len(p), 3), np.nan))
    with pytest.raises(ValueError, match="data slot f is not finite"):
        bj_picard_step(zero_state(mesh, "BJ"), nan_force)
    h = np.zeros(discrete_ops(mesh).space_d.dof_count)
    h[3] = np.inf
    inf_h = MhdParams(r_e=1.0, r_m=1.0, s=1.0, h=h)
    with pytest.raises(ValueError, match="data slot h is not finite"):
        bj_picard_step(zero_state(mesh, "BJ"), inf_h)


@pytest.mark.parametrize("slot", ["f", "h"])
@pytest.mark.parametrize("shape", [lambda n: (3, n), lambda n: (n,)],
                         ids=["3xn", "n"])
def test_data_slot_callable_of_wrong_shape_names_its_slot(slot, shape):
    # a (3, n) array would reshape into a scrambled field, an (n,) one
    # would fail deep inside the load assembly
    mesh = build_box_mesh(2, 2, 2)
    params = MhdParams(r_e=1.0, r_m=1.0, s=1.0,
                       **{slot: lambda p: np.ones(shape(len(p)))})
    with pytest.raises(ValueError, match=rf"data slot {slot} must be "
                       rf"callable.*got shape \(.*\), not \(\d+, 3\)"):
        bj_picard_step(zero_state(mesh, "BJ"), params)


@pytest.mark.parametrize("data", [lambda p: np.ones((3, len(p))),
                                  lambda p: np.full((len(p), 3), np.nan)],
                         ids=["3xn", "nan"])
def test_callable_data_fails_before_the_context_is_built(data, monkeypatch):
    # a callable is checked at the mesh's degree-6 points first
    def build(self, mesh):
        raise AssertionError("the context was built")

    monkeypatch.setattr("mhdfem.operators.DiscreteOps.__init__", build)
    params = MhdParams(r_e=1.0, r_m=1.0, s=1.0, f=data)
    with pytest.raises(ValueError, match="data slot f"):
        _loads(build_box_mesh(2, 2, 2), params)


def test_loads_go_with_their_mesh():
    # a parameter object keeps its loads per mesh, weakly, so it keeps no
    # mesh alive once the mesh's context has moved on
    params = MhdParams(r_e=1.0, r_m=1.0, s=1.0, f=smooth_force)
    mesh = build_box_mesh(2, 2, 2)
    assert _loads(mesh, params) is _loads(mesh, params)
    gone = weakref.ref(mesh)
    del mesh
    discrete_ops(build_box_mesh(1, 1, 1))
    gc.collect()
    assert gone() is None and len(params._loaded) == 0


@pytest.mark.parametrize("formulation, name, value", [
    ("BE", "u", np.nan), ("BE", "B", np.inf),
    ("BJ", "u", np.nan), ("BJ", "B", np.inf)])
def test_non_finite_initial_state_names_its_field(formulation, name, value):
    # rejected before a step, whose block solves would choke on it
    mesh = build_box_mesh(3, 3, 3)
    params = MhdParams(r_e=1.0, r_m=1.0, s=1.0, f=smooth_force)
    state = zero_state(mesh, formulation)
    getattr(state, name)[1] = value
    with pytest.raises(ValueError,
                       match=f"initial state field {name} is not finite"):
        solve_nonlinear(formulation, params, state, **PICARD)


@pytest.mark.parametrize("formulation", ["BE", "BJ"])
def test_nan_right_hand_side_stalls_the_step_solve(params, formulation):
    # the NaN passes the Schur solve unchecked, and GMRES stops on it
    mesh = build_box_mesh(3, 3, 3)
    plan, a, b = _step_system(discrete_ops(mesh), formulation,
                              seeded_start(mesh, formulation), params)
    b[0] = np.nan
    with pytest.raises(LinearStallError) as info:
        solve_preconditioned(a, b, plan.factors, np.zeros(b.size))
    assert info.value.record["krylov_iterations"] == 0
    assert np.isnan(info.value.record["relative_residual"])


def test_callable_data_evaluated_once_per_params(mesh2, params):
    calls = {"f": 0, "h": 0}

    def counted(slot, data):
        def field(pts):
            calls[slot] += 1
            return data(pts)
        return field

    counting = MhdParams(r_e=params.r_e, r_m=params.r_m, s=params.s,
                         f=counted("f", smooth_force),
                         h=counted("h", seed_field))
    for formulation in ("BE", "BJ"):
        solve_nonlinear(formulation, counting,
                        seeded_start(mesh2, formulation),
                        **dict(PICARD, max_iter=2))
    # the load vector, f_l2 and every step and diagnostic share one call
    assert calls == {"f": 1, "h": 1}
    assert _loads(mesh2, counting)["f_l2"] > 0.0


# ---------------------------------------------------------------------------
# single steps satisfy their variational equations


def test_bj_step_solves_every_equation(mesh2, ops2, params, seeded_bj):
    _, s1, s2 = seeded_bj
    vel = ops2.vel
    lap, bdiv = ops2.lap, ops2.bdiv
    conv = iterate_matrix("convection", s1.u, mesh2)
    cross = iterate_matrix("cross", s1.B, mesh2)
    div = div_incidence(mesh2)
    f_load = force_load(ops2, smooth_force)
    re, rm, s = params.r_e, params.r_m, params.s
    free_u, free_e = vel.free_index, ops2.space_c.free_index
    free_f = ops2.space_d.free_index

    assert np.array_equal(s2.B_prev, s1.B)

    res_u = ((lap @ s2.u) / re + conv @ s2.u + s * (cross.T @ s2.j)
             - bdiv.T @ s2.p - f_load)
    assert np.linalg.norm(res_u[free_u]) <= 1e-10 * np.linalg.norm(f_load)

    res_j = s * (ops2.M_c @ s2.j) - (s / rm) * (ops2.K_cd.T @ s2.B)
    assert np.linalg.norm(res_j[free_e]) \
        <= 1e-10 * np.linalg.norm((ops2.K_cd.T @ s2.B)[free_e])

    res_sig = (s / rm) * (ops2.M_c @ s2.sigma) - (s / rm) * (cross @ s2.u)
    assert np.linalg.norm(res_sig[free_e]) \
        <= 1e-10 * max(np.linalg.norm((cross @ s2.u)[free_e]), 1e-30)

    res_b = (s / rm) * (ops2.K_cd @ (s2.j - s2.sigma)) + div.T @ s2.r
    # scale by the pre-cancellation row magnitude: the equation enforces the
    # residual terms to cancel, so their individual sizes set the floor
    scale_b = (s / rm) * np.linalg.norm(
        abs(ops2.K_cd) @ (np.abs(s2.j) + np.abs(s2.sigma)))
    assert np.linalg.norm(res_b[free_f]) <= 1e-10 * max(scale_b, 1e-30)

    assert np.linalg.norm(bdiv @ s2.u) \
        <= 1e-12 * max(np.linalg.norm(s2.u), 1e-30)
    assert np.abs(div @ s2.B).max() \
        <= 1e-12 * max(np.abs(s2.B).max(), 1e-30)


def test_be_step_solves_every_equation(mesh2, ops2, params, seeded_be):
    _, s1, s2 = seeded_be
    vel = ops2.vel
    lap, bdiv = ops2.lap, ops2.bdiv
    conv = iterate_matrix("convection", s1.u, mesh2)
    cross = iterate_matrix("cross", s1.B, mesh2)
    cross2 = iterate_matrix("cross_cross", s1.B, mesh2)
    div = div_incidence(mesh2)
    f_load = force_load(ops2, smooth_force)
    re, rm, s = params.r_e, params.r_m, params.s
    free_u, free_e = vel.free_index, ops2.space_c.free_index
    free_f = ops2.space_d.free_index

    res_u = ((lap @ s2.u) / re + conv @ s2.u + s * (cross2 @ s2.u)
             + s * (cross.T @ s2.E) - bdiv.T @ s2.p - f_load)
    assert np.linalg.norm(res_u[free_u]) <= 1e-10 * np.linalg.norm(f_load)

    res_e = (s * (cross @ s2.u) + s * (ops2.M_c @ s2.E)
             - (s / rm) * (ops2.K_cd.T @ s2.B))
    assert np.linalg.norm(res_e[free_e]) \
        <= 1e-10 * max(np.linalg.norm((ops2.K_cd.T @ s2.B)[free_e]), 1e-30)

    res_b = (s / rm) * (ops2.K_cd @ s2.E) + div.T @ s2.r
    scale_b = (s / rm) * np.linalg.norm(abs(ops2.K_cd) @ np.abs(s2.E))
    assert np.linalg.norm(res_b[free_f]) <= 1e-10 * max(scale_b, 1e-30)

    assert np.linalg.norm(bdiv @ s2.u) \
        <= 1e-12 * max(np.linalg.norm(s2.u), 1e-30)
    assert np.abs(div @ s2.B).max() \
        <= 1e-12 * max(np.abs(s2.B).max(), 1e-30)


# ---------------------------------------------------------------------------
# block-preconditioned step solves

STEPS = {"BE": be_picard_step, "BJ": bj_picard_step}


def seeded_start(mesh, formulation):
    init = zero_state(mesh, formulation)
    init.B = seed_flux(mesh)
    init.B_prev = init.B.copy()
    return init


def direct_step_fields(prev, params, formulation):
    """The step's own reduced system solved by one LU of the whole matrix."""
    plan, a, b = _step_system(discrete_ops(prev.mesh), formulation, prev,
                              params)
    x = solve_direct(a, b)
    out, off = {}, 0
    for name, dim, free in plan.unknowns:
        out[name] = np.zeros(dim)
        out[name][free] = x[off:off + free.size]
        off += free.size
    return out, x


def paper_system(ops, formulation, params, prev=None):
    """A step's reduced matrix and right-hand side, the blocks transcribed
    from the paper's B-E and B-J schemes and merged by sp.bmat, then
    restricted to free DOFs; without prev, the matrix is the fixed part
    (no convection, no cross coupling)."""
    re, rm, s = params.r_e, params.r_m, params.s
    lap, bdiv, m_c, k_cd, div = ops.lap, ops.bdiv, ops.M_c, ops.K_cd, ops.div
    mean = sp.csr_matrix(ops.mean_p[:, None])
    vol = sp.csr_matrix(ops.mesh.volumes[:, None])
    if formulation == "BE":
        # unknowns u, E, B, p, r, mp, mr
        blocks = [
            [(1.0 / re) * lap, None, None, -bdiv.T, None, None, None],
            [None, s * m_c, -(s / rm) * k_cd.T, None, None, None, None],
            [None, (s / rm) * k_cd, None, None, div.T, None, None],
            [-bdiv, None, None, None, None, mean, None],
            [None, None, div, None, None, None, vol],
            [None, None, None, mean.T, None, None, None],
            [None, None, None, None, vol.T, None, None]]
    else:
        # unknowns u, j, sigma, B, p, r, mp, mr
        blocks = [
            [(1.0 / re) * lap, None, None, None, -bdiv.T, None, None, None],
            [None, s * m_c, None, -(s / rm) * k_cd.T, None, None, None, None],
            [None, None, (s / rm) * m_c, None, None, None, None, None],
            [None, (s / rm) * k_cd, -(s / rm) * k_cd, None, None, div.T, None,
             None],
            [-bdiv, None, None, None, None, None, mean, None],
            [None, None, None, div, None, None, None, vol],
            [None, None, None, None, mean.T, None, None, None],
            [None, None, None, None, None, vol.T, None, None]]
    if prev is not None:
        conv = iterate_matrix("convection", prev.u, ops.mesh)
        cross = iterate_matrix("cross", prev.B, ops.mesh)
        blocks[0][1] = s * cross.T
        if formulation == "BE":
            cross2 = iterate_matrix("cross_cross", prev.B, ops.mesh)
            blocks[0][0] = blocks[0][0] + conv + s * cross2
            blocks[1][0] = s * cross
        else:
            blocks[0][0] = blocks[0][0] + conv
            blocks[2][0] = -(s / rm) * cross
    edge = [ops.space_c.boundary_dof] * (1 if formulation == "BE" else 2)
    n_scalar = ops.pres.dof_count + ops.mult.dof_count + 2
    constrained = np.concatenate([ops.vel.boundary_dof, *edge,
                                  ops.space_d.boundary_dof,
                                  np.zeros(n_scalar, dtype=bool)])
    zeros = [np.zeros(ops.space_c.dof_count)] * len(edge)
    rhs = np.concatenate([force_load(ops, params.f), *zeros,
                          ops.M_d @ params.h, np.zeros(n_scalar)])
    keep = np.flatnonzero(~constrained)
    return sp.bmat(blocks, format="csr")[keep][:, keep], rhs[keep]


@pytest.mark.parametrize("formulation", ["BE", "BJ"])
def test_plan_fixed_matrix_is_the_paper_system(formulation):
    ops = discrete_ops(build_box_mesh(3, 3, 3))
    params = MhdParams(r_e=0.7, r_m=1.9, s=2.3, f=smooth_force,
                       h=np.zeros(ops.space_d.dof_count))
    plan = _step_plan(ops, formulation, params)
    got = _fixed_matrix(plan.pattern, plan.fixed, plan.slots)
    want, _ = paper_system(ops, formulation, params)
    # the factored operator keeps its stored zeros: they steer SuperLU's
    # ordering and with it every bit downstream
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()
    assert np.count_nonzero(got.data == 0.0) == 30


@pytest.mark.parametrize("formulation", ["BE", "BJ"])
@pytest.mark.parametrize("n", [2, 3])
def test_scattered_step_matches_assembled_blocks(formulation, n):
    mesh = build_box_mesh(n, n, n)
    ops = discrete_ops(mesh)
    rng = np.random.default_rng(n)
    params = MhdParams(r_e=0.7, r_m=1.9, s=2.3, f=smooth_force,
                       h=rng.standard_normal(ops.space_d.dof_count))
    prev = zero_state(mesh, formulation)
    for _ in range(2):
        prev.u = rng.standard_normal(prev.u.size)
        prev.B = rng.standard_normal(prev.B.size)
        _, a, b = _step_system(ops, formulation, prev, params)
        want_a, want_b = paper_system(ops, formulation, params, prev)
        assert a.shape == want_a.shape
        assert np.abs((a - want_a).toarray()).max() \
            <= 1e-14 * np.abs(want_a.data).max()
        assert np.array_equal(b, want_b)


@pytest.mark.parametrize("formulation", ["BE", "BJ"])
def test_plan_slots_cover_free_entries_only(formulation):
    ops = discrete_ops(build_box_mesh(3, 3, 3))
    plan = _step_plan(ops, formulation,
                      MhdParams(r_e=0.7, r_m=1.9, s=2.3, f=smooth_force))
    # no dump slot: every slot is a pattern entry, and every entry is hit
    assert plan.slots.min() == 0 and plan.slots.max() == plan.pattern.nnz - 1
    assert np.unique(plan.slots).size == plan.pattern.nnz
    # one slot per block entry in a free row and a free column
    free = {name: np.isin(np.arange(dim), idx)
            for name, dim, idx in plan.unknowns}
    form = mhdfem.solvers._FORMULATIONS[formulation]
    counts = []
    for rname, cname, op, transposed, _ in form.blocks:
        if op in KERNEL_RULES:
            rows, cols, _ = element_dofs(ops.mesh, op)
        else:
            mat = ops.mesh.volumes if op == "volumes" else getattr(ops, op)
            coo = sp.coo_matrix(mat[:, None] if mat.ndim == 1 else mat)
            rows, cols = coo.row, coo.col
        if transposed:
            rows, cols = cols, rows
        counts.append(np.count_nonzero(free[rname][rows] & free[cname][cols]))
    n_iterate = sum(op in KERNEL_RULES for _, _, op, _, _ in form.blocks)
    assert [take.size for _, _, take in plan.takes] == counts[-n_iterate:]
    assert plan.fixed.size == sum(counts[:-n_iterate])
    assert plan.slots.size == sum(counts)


def count_calls(monkeypatch, name):
    """Count calls of one mhdfem function through every module binding it."""
    calls = []
    orig = getattr(mhdfem.linalg if name == "splu" else mhdfem.assembly,
                   name)

    def counted(*args, **kwargs):
        calls.append(name)
        return orig(*args, **kwargs)

    for mod in (mhdfem.linalg, mhdfem.assembly, mhdfem.operators,
                mhdfem.solvers):
        if getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("formulation", ["BE", "BJ"])
def test_later_steps_assemble_nothing_and_load_nothing(params, formulation,
                                                       monkeypatch):
    mesh = build_box_mesh(2, 2, 2)
    first = STEPS[formulation](seeded_start(mesh, formulation), params)
    diagnostics(first, params)
    assembled = count_calls(monkeypatch, "kernel_matrix")
    # no data slot is loaded again; the B-J diagnostics' load of the
    # iterate's u x B_prev is not a data load
    loaded = []

    def counted(*args):
        loaded.append(args[-1])
        return _slot_load(*args)

    monkeypatch.setattr("mhdfem.solvers._slot_load", counted)
    second = STEPS[formulation](first, params)
    diagnostics(second, params)
    assert assembled == [] and loaded == []


def test_context_keeps_no_basis_at_every_point(monkeypatch):
    # after a whole run, the context and its tabulations hold per-rule
    # tables (no tet axis) and per-tet coefficients (no point axis): a basis
    # at every point of every tet lives only inside the call that needs it
    meshes = []

    def recorded(*counts):
        meshes.append(build_box_mesh(*counts))
        return meshes[-1]

    monkeypatch.setattr("mhdfem.harness.build_box_mesh", recorded)
    run_solve(load_config({"mesh": [3, 3, 3], "case": "trig-1",
                           "formulation": "BE"}))
    ops = discrete_ops(meshes[0])
    n_tets = meshes[0].num_tets
    assert {RULE_DEG4, RULE_DEG6} <= set(ops._tabs)
    for tab in ops._tabs.values():
        nq = len(tab.lam)
        held = [a for a in vars(tab).values() if isinstance(a, np.ndarray)]
        for a in held + [a for a in vars(ops).values()
                         if isinstance(a, np.ndarray)]:
            assert not (a.shape[:1] == (n_tets,)
                        and {nq, 3 * nq} & set(a.shape[1:])), a.shape
        # ned, rt and vel_dofs are 150 numbers a tet, whatever the rule
        assert sum(a.nbytes for a in held) <= 2048 * n_tets


def test_be_current_evaluated_once_per_iterate(mesh2, params, monkeypatch):
    calls = []
    orig = mhdfem.solvers.current_at

    def counted(tab, state):
        calls.append(state)
        return orig(tab, state)

    monkeypatch.setattr(mhdfem.solvers, "current_at", counted)
    _, report = solve_nonlinear("BE", params, seeded_start(mesh2, "BE"),
                                **PICARD)
    # the start once, then every iterate once: diagnostics is passed the
    # loop's current
    assert len(calls) == 1 + report["n_iterations"]


@pytest.mark.parametrize("formulation", ["BE", "BJ"])
def test_preconditioned_steps_match_direct_solve(params, formulation):
    mesh = build_box_mesh(3, 3, 3)
    state = seeded_start(mesh, formulation)
    for _ in range(3):
        ref, x = direct_step_fields(state, params, formulation)
        state = STEPS[formulation](state, params)
        record = state.linear_solve
        assert record["unknowns"] == x.size
        assert 0 < record["krylov_iterations"] <= 10
        assert record["relative_residual"] <= 1e-10
        for name, want in ref.items():
            if name in ("mp", "mr"):
                continue
            # r vanishes in exact arithmetic and both solves return
            # roundoff, so it is measured against the whole solution
            scale = np.linalg.norm(x if name == "r" else want)
            assert np.linalg.norm(getattr(state, name) - want) \
                <= 1e-10 * scale, (formulation, name)


@pytest.mark.parametrize("formulation", ["BE", "BJ"])
def test_step_starts_krylov_from_previous_iterate(params, formulation,
                                                  monkeypatch):
    mesh = build_box_mesh(2, 2, 2)
    prev = STEPS[formulation](seeded_start(mesh, formulation), params)
    starts = []

    def spy(a, b, factors, x0):
        starts.append(x0)
        return solve_preconditioned(a, b, factors, x0)

    monkeypatch.setattr(mhdfem.solvers, "solve_preconditioned", spy)
    STEPS[formulation](prev, params)
    plan = _step_plan(discrete_ops(mesh), formulation, params)
    off = 0
    for name, _, free in plan.unknowns:
        # prev on the free DOFs, the mean multipliers at 0
        want = (np.zeros(1) if name in ("mp", "mr")
                else getattr(prev, name)[free])
        assert np.array_equal(starts[0][off:off + free.size], want), name
        off += free.size
    assert off == starts[0].size


@pytest.mark.parametrize("formulation", ["BE", "BJ"])
def test_stalled_krylov_ends_the_run_as_linear_stall(params, formulation,
                                                     monkeypatch):
    mesh = build_box_mesh(3, 3, 3)
    init = seeded_start(mesh, formulation)
    monkeypatch.setattr(linalg, "_KRYLOV_CAP", 0)
    calls = count_calls(monkeypatch, "splu")
    state, report = solve_nonlinear(formulation, params, init, **PICARD)
    # the plan's A_0 and (E, A) factors; nothing factors the whole step
    assert len(calls) == 2
    assert state is init
    assert report["termination"] == "linear-stall"
    assert report["iterations"] == []
    plan = _step_plan(discrete_ops(mesh), formulation, params)
    stalled = report["stalled_solve"]
    assert stalled == {
        "unknowns": plan.pattern.shape[0], "krylov_iterations": 0,
        "relative_residual": stalled["relative_residual"],
        "factors": plan.summary}
    assert math.isfinite(stalled["relative_residual"])


@pytest.mark.parametrize("formulation", ["BE", "BJ"])
def test_step_is_bitwise_deterministic(params, formulation):
    mesh = build_box_mesh(3, 3, 3)
    prev = STEPS[formulation](seeded_start(mesh, formulation), params)
    one = STEPS[formulation](prev, params)
    two = STEPS[formulation](prev, params)
    assert one.linear_solve == two.linear_solve
    for name in ("u", "B", "p", "r", "B_prev"):
        assert np.array_equal(getattr(one, name), getattr(two, name)), name


def test_block_factors_cached_per_mesh_and_params(mesh2, params):
    ops = discrete_ops(mesh2)
    assert discrete_ops(mesh2) is ops
    first = _step_plan(ops, "BJ", params)
    assert _step_plan(ops, "BJ", params) is first
    assert first.factors is not None
    other = MhdParams(r_e=2.0, r_m=1.0, s=1.0, f=smooth_force)
    assert _step_plan(ops, "BJ", other) is not first


def test_block_factors_release_dropped_meshes(params):
    mesh_a = build_box_mesh(2, 2, 2)
    solve_nonlinear("BJ", params, zero_state(mesh_a, "BJ"),
                    **dict(PICARD, max_iter=1))
    ref = weakref.ref(_step_plan(discrete_ops(mesh_a), "BJ", params).factors)
    assert ref() is not None
    solve_nonlinear("BJ", params, zero_state(build_box_mesh(2, 2, 2), "BJ"),
                    **dict(PICARD, max_iter=1))
    del mesh_a
    gc.collect()
    assert ref() is None


def fixed_block(plan, positions):
    """The unsplit diagonal block of a plan's fixed matrix over positions:
    factors.first for the Stokes block over (u, p, mp), factors.second for
    the Maxwell block over the rest."""
    fixed = _fixed_matrix(plan.pattern, plan.fixed, plan.slots)
    return fixed[positions][:, positions]


@pytest.mark.parametrize("formulation, n, s, r_m", [
    # the 3^3 case at s = r_m = 1 keeps the formulation alone as its id
    pytest.param(form, n, s, r_m, id=form if (n, s) == (3, 1.0)
                 else f"{form}-{n}-{s}-{r_m}")
    for form in ("BE", "BJ") for n in (2, 3)
    for s, r_m in ((1.0, 1.0), (0.3, 4.0))])
def test_structured_maxwell_solve_matches_unsplit_factor(formulation, n, s,
                                                         r_m):
    ops = discrete_ops(build_box_mesh(n, n, n))
    plan = _step_plan(ops, formulation,
                      MhdParams(r_e=0.7, r_m=r_m, s=s, f=smooth_force))
    k = fixed_block(plan, plan.factors.second)
    solve = plan.factors.lu_second
    div = ops.div[:, ops.space_d.free_index]
    lu = splu(k.tocsc())
    rng = np.random.default_rng(7)
    for _ in range(3):
        rho = rng.standard_normal(k.shape[0])
        want = lu.solve(rho)
        got = solve.solve(rho)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        # every row of K, the mean-multiplier row included, at roundoff
        res = np.linalg.norm(k @ got - rho)
        fro = np.sqrt(np.dot(k.data, k.data))
        assert res <= 1e-15 * (fro * np.linalg.norm(got)
                               + np.linalg.norm(rho))
        # Gauss's law from the tree solve: D B = rho_r - mr vols
        b, rho_r = got[solve.b], rho[solve.r]
        gauss = div @ b + got[solve.mr] * solve.vols - rho_r
        assert np.abs(gauss).max() <= 1e-14 * (np.abs(rho_r).max()
                                               + np.abs(b).max())
    summary = plan.summary
    # the (E, A) system: the edge field on the free edges, A on the cotree
    assert summary["maxwell"]["n"] == (ops.space_c.free_index.size
                                       + ops.cotree.size)
    # S splits into A_0 once per velocity component and the dense (p, mp)
    # Schur complement
    n_pm = ops.pres.dof_count + 1
    assert summary["laplacian"]["n"] == ops.vel.free_index.size // 3
    assert (summary["pressure_schur"]["n"], summary["pressure_schur"]["lu_nnz"]) \
        == (n_pm, n_pm ** 2)
    assert 3 * summary["laplacian"]["n"] + n_pm == plan.factors.first.size
    assert (summary.get("edge_mass") is not None) == (formulation == "BJ")
    for entry in summary.values():
        assert entry["lu_nnz"] >= entry["n"] and entry["min_pivot"] > 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_trees_split_edges_and_faces(n):
    mesh = build_box_mesh(n, n, n)
    ops = DiscreteOps(mesh)
    free_c, free_d = ops.space_c.free_index, ops.space_d.free_index
    # the edge tree spans the interior vertices plus the ground node
    assert ops.cotree.size == free_c.size - np.count_nonzero(
        ~mesh.boundary_vertex)
    assert ops.tree_faces.size == mesh.num_tets - 1
    g_ct = ops.g_ct.toarray()
    assert g_ct.shape == (free_d.size, ops.cotree.size)
    assert np.linalg.matrix_rank(g_ct) == ops.cotree.size
    # every cotree curl is divergence-free, exactly
    assert not np.any(ops.div[:, free_d].toarray() @ g_ct)
    # D_T, over the non-root cells and the tree faces, is nonsingular
    d_t = ops.div[1:][:, free_d[ops.tree_faces]].toarray()
    assert np.linalg.matrix_rank(d_t) == mesh.num_tets - 1
    # deterministic: a second build of the same grid picks the same trees
    again = DiscreteOps(build_box_mesh(n, n, n))
    assert np.array_equal(again.cotree, ops.cotree)
    assert np.array_equal(again.tree_faces, ops.tree_faces)


@pytest.mark.parametrize("formulation", ["BE", "BJ"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("r_e", [0.05, 1.0, 7.0])
def test_stokes_schur_solve_matches_unsplit_factor(formulation, n, r_e):
    ops = discrete_ops(build_box_mesh(n, n, n))
    plan = _step_plan(ops, formulation,
                      MhdParams(r_e=r_e, r_m=1.0, s=1.0, f=smooth_force))
    s = fixed_block(plan, plan.factors.first)
    fro = np.sqrt(np.dot(s.data, s.data))
    lu = splu(s.tocsc())
    rng = np.random.default_rng(n)
    for _ in range(3):
        rho = rng.standard_normal(s.shape[0])
        got = plan.factors.lu_first.solve(rho)
        want = lu.solve(rho)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        # every row of S, the pressure and mean rows included, at roundoff
        assert np.linalg.norm(s @ got - rho) \
            <= 1e-15 * (fro * np.linalg.norm(got) + np.linalg.norm(rho))


@pytest.mark.parametrize("formulation", ["BE", "BJ"])
def test_stokes_velocity_block_repeats_the_scalar_laplacian(params,
                                                            formulation):
    # the structure the Schur solve relies on: S_uu = I_3 (x) A_0
    ops = discrete_ops(build_box_mesh(3, 3, 3))
    plan = _step_plan(ops, formulation, params)
    s = fixed_block(plan, plan.factors.first)
    n_u = ops.vel.free_index.size
    m = n_u // 3
    assert 3 * m == n_u
    a_uu = s[:n_u, :n_u].toarray()
    assert np.array_equal(a_uu, np.kron(np.eye(3), a_uu[:m, :m]))
    assert np.count_nonzero(a_uu[:m, :m]) > m


def test_bj_plan_factors_two_blocks(params, monkeypatch):
    ops = discrete_ops(build_box_mesh(3, 3, 3))
    calls = count_calls(monkeypatch, "splu")
    plan = _step_plan(ops, "BJ", params)
    # A_0 and the (E, A) system; the Schur complement is dense, sigma
    # solves with the context's edge-mass factor and the trees with its D_T
    assert len(calls) == 2
    assert plan.factors.lu_first.lu_a.shape[0] == ops.vel.free_index.size // 3
    assert plan.factors.lu_second.lu_c is ops.lu_c
    assert plan.factors.lu_second.lu_t is ops.lu_t


def test_step_plan_releases_dropped_meshes(params):
    mesh_a = build_box_mesh(2, 2, 2)
    solve_nonlinear("BE", params, zero_state(mesh_a, "BE"),
                    **dict(PICARD, max_iter=2))
    ops = discrete_ops(mesh_a)
    refs = [weakref.ref(ops.plan), weakref.ref(ops.tab(RULE_DEG6))]
    del ops
    solve_nonlinear("BE", params, zero_state(build_box_mesh(2, 2, 2), "BE"),
                    **dict(PICARD, max_iter=1))
    del mesh_a
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


# ---------------------------------------------------------------------------
# preserved structures


def test_divergence_free_every_iterate(solved_bj, solved_be, mesh2):
    for state, report in (solved_bj, solved_be):
        for rec in report["iterations"]:
            assert rec["div_b_max"] <= 1e-12 * max(rec["b_l2"], 1e-250) / mesh2.h
        direct = np.abs(tet_divergences(mesh2, state.B)).max()
        d = diagnostics(state, MhdParams(r_e=1.0, r_m=1.0, s=1.0))
        assert abs(direct - d["div_b_max"]) <= 1e-12 * max(d["b_l2"], 1e-250)


def test_multiplier_vanishes_every_iterate(solved_bj, solved_be):
    for _, report in (solved_bj, solved_be):
        for rec in report["iterations"]:
            scale = max(rec["u_h1"] + rec["b_l2"], 1e-250)
            assert rec["multiplier_norm"] <= 1e-10 * scale


def test_energy_identity_bj_independent_quadrature(mesh2, params, seeded_bj):
    _, _, s2 = seeded_bj
    grad2 = quad_grad2(mesh2, s2.u)
    j2 = quad_l2sq(mesh2, edge_field_at(mesh2, s2.j, lam_of(RULE_DEG4)),
                   RULE_DEG4)
    work = quad_work(mesh2, s2.u, smooth_force)
    assert abs(grad2 / params.r_e + params.s * j2 - work) <= 1e-10 * abs(work)


def test_energy_identity_be_independent_quadrature(mesh2, params, seeded_be):
    _, _, s2 = seeded_be
    lam = lam_of(RULE_DEG6)
    j_at = (edge_field_at(mesh2, s2.E, lam)
            + np.cross(velocity_at(mesh2, s2.u, lam),
                       face_field_at(mesh2, s2.B_prev, lam)))
    grad2 = quad_grad2(mesh2, s2.u)
    j2 = quad_l2sq(mesh2, j_at, RULE_DEG6)
    work = quad_work(mesh2, s2.u, smooth_force)
    assert abs(grad2 / params.r_e + params.s * j2 - work) <= 1e-10 * abs(work)


def test_energy_identity_recorded_each_iterate(solved_bj, solved_be):
    for _, report in (solved_bj, solved_be):
        for rec in report["iterations"]:
            assert rec["energy_residual"] <= 1e-10 * abs(rec["energy_work"])


def test_energy_inequality_slack(solved_bj, params):
    state, _ = solved_bj
    d = diagnostics(state, params)
    assert d["energy_slack"] is not None
    assert d["energy_slack"] >= -1e-10 * max(abs(d["energy_work"]), 1.0)


def test_elimination_identities(mesh2, ops2, params, solved_bj):
    state, _ = solved_bj
    d = diagnostics(state, params)
    assert d["elimination_j"] <= 1e-10
    assert d["elimination_sigma"] <= 1e-10
    assert d["curl_j_sigma"] \
        <= 1e-10 * max(ops2.norm_c(state.j) + ops2.norm_c(state.sigma), 1e-30)

    j_pred = ops2.weak_curl(state.B) / params.r_m
    assert ops2.norm_c(state.j - j_pred) \
        <= 1e-10 * max(ops2.norm_c(j_pred), 1e-30)

    # L2 projection of u x B_prev onto the constrained edge space
    free = ops2.space_c.free_index
    tab = ops2.tab(RULE_DEG6)
    at = np.cross(tab.velocity_at(state.u), tab.face_at(state.B_prev))
    sig_pred = np.zeros(ops2.space_c.dof_count)
    sig_pred[free] = np.linalg.solve(
        ops2.M_c[free][:, free].toarray(),
        assemble_load(tab, ops2.space_c, at)[free])
    assert ops2.norm_c(state.sigma - sig_pred) \
        <= 1e-10 * max(ops2.norm_c(sig_pred), 1e-30)


def test_formulations_agree_at_fixed_point(solved_bj, solved_be):
    bj, _ = solved_bj
    be, _ = solved_be
    # with force-only data the common fixed point is hydrodynamic and B has
    # decayed to roundoff, so the velocity magnitude is the natural scale
    scale = max(np.abs(bj.u).max(), np.abs(be.u).max(), 1e-30)
    assert np.abs(bj.u - be.u).max() <= 1e-8 * scale
    assert np.abs(bj.B - be.B).max() <= 1e-8 * scale
    assert np.abs(bj.p - be.p).max() <= 1e-8 * max(np.abs(bj.p).max(), 1e-30)


# ---------------------------------------------------------------------------
# exactly representable fixed point: B* a discrete curl, u* = 0


@pytest.fixture(scope="module")
def in_space_case(mesh2, ops2):
    ned, rt = ops2.space_c, ops2.space_d
    G = curl_incidence(mesh2)
    rng = np.random.default_rng(42)
    e = np.zeros(ned.dof_count)
    e[ned.free_index] = rng.standard_normal(ned.free_index.size)
    b_star = G @ e
    re, rm, s = 1.0, 1.25, 2.0
    j0 = ops2.weak_curl(b_star) / rm

    def force(pts):
        return s * np.cross(point_eval(rt, b_star, pts),
                            point_eval(ned, j0, pts))

    params = MhdParams(r_e=re, r_m=rm, s=s, f=force, h=(s / rm) * (G @ j0))
    return b_star, j0, params


def test_discrete_curl_start_is_bj_fixed_point(mesh2, in_space_case):
    b_star, j0, params = in_space_case
    init = zero_state(mesh2, "BJ")
    init.B = b_star.copy()
    init.B_prev = b_star.copy()
    state = bj_picard_step(init, params)
    scale = np.abs(j0).max()
    assert np.abs(state.u).max() <= 1e-12 * scale
    assert np.abs(state.j - j0).max() <= 1e-12 * scale
    assert np.abs(state.sigma).max() <= 1e-12 * scale
    assert np.abs(state.B - b_star).max() <= 1e-12 * scale
    assert np.abs(state.p).max() <= 1e-8
    assert np.abs(state.r).max() <= 1e-10

    final, report = solve_nonlinear("BJ", params, init, **PICARD)
    assert report["termination"] == "converged"
    assert report["n_iterations"] == 1
    assert np.abs(final.B - b_star).max() <= 1e-12 * scale


def test_discrete_curl_start_is_be_fixed_point(mesh2, in_space_case):
    b_star, j0, params = in_space_case
    init = zero_state(mesh2, "BE")
    init.B = b_star.copy()
    init.B_prev = b_star.copy()
    state = be_picard_step(init, params)
    scale = np.abs(j0).max()
    assert np.abs(state.u).max() <= 1e-12 * scale
    assert np.abs(state.E - j0).max() <= 1e-12 * scale
    assert np.abs(state.B - b_star).max() <= 1e-12 * scale
    assert np.abs(state.p).max() <= 1e-8


# ---------------------------------------------------------------------------
# degenerate systems


def test_single_cube_steps_are_singular():
    # one cube carries 3 interior velocity DOFs against 7 zero-mean
    # pressures: the mesh, not the Reynolds number, makes both steps
    # singular
    mesh = build_box_mesh(1, 1, 1)
    params = MhdParams(r_e=1.0, r_m=1.0, s=1.0,
                       f=lambda p: np.ones((len(p), 3)))
    for formulation, step in STEPS.items():
        with pytest.raises(SingularSystemError,
                           match="1x1x1 box mesh is too coarse, its 3 "
                                 "interior velocity DOFs cannot carry its 7"):
            step(zero_state(mesh, formulation), params)


def test_singular_step_on_fine_mesh_names_the_formulation(params,
                                                          monkeypatch):
    def singular(*args):
        raise SingularSystemError("forced")

    # a fresh mesh, so no cached plan skips the block factorization
    mesh = build_box_mesh(2, 2, 2)
    monkeypatch.setattr(mhdfem.solvers, "_block_factors", singular)
    with pytest.raises(SingularSystemError, match="regime violation"):
        be_picard_step(zero_state(mesh, "BE"), params)
    with pytest.raises(SingularSystemError,
                       match=r"numerically singular at this scaling "
                             r"\(r_e = 1, r_m = 1, s = 1\)"):
        bj_picard_step(zero_state(mesh, "BJ"), params)


# ---------------------------------------------------------------------------
# nonlinear driver


def test_zero_data_converges_immediately(mesh2):
    params0 = MhdParams(r_e=1.0, r_m=1.0, s=1.0)
    for formulation in ("BE", "BJ"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state, report = solve_nonlinear(formulation, params0,
                                            zero_state(mesh2, formulation),
                                            **PICARD)
        assert report["termination"] == "converged"
        assert report["n_iterations"] == 1
        for name in ("u", "B", "p", "r"):
            assert not np.any(getattr(state, name))
        d = diagnostics(state, params0)
        for key, val in d.items():
            assert val is None or val == 0.0, key


def test_fixed_forms_release_dropped_meshes(params):
    mesh_a = build_box_mesh(2, 2, 2)
    solve_nonlinear("BJ", params, zero_state(mesh_a, "BJ"),
                    **dict(PICARD, max_iter=1))
    ops_ref = weakref.ref(discrete_ops(mesh_a))
    solve_nonlinear("BJ", params, zero_state(build_box_mesh(2, 2, 2), "BJ"),
                    **dict(PICARD, max_iter=1))
    ref = weakref.ref(mesh_a)
    del mesh_a
    gc.collect()
    assert ref() is None
    assert ops_ref() is None


def test_report_structure(solved_bj):
    state, report = solved_bj
    assert report["formulation"] == "BJ"
    assert report["termination"] == "converged"
    assert [rec["iteration"] for rec in report["iterations"]] \
        == list(range(1, report["n_iterations"] + 1))
    assert report["iterations"][0]["ratio"] is None
    assert all(rec["ratio"] is not None for rec in report["iterations"][1:])
    assert state.formulation == "BJ"


def test_contraction_under_small_data(solved_bj, solved_be, mesh2, params):
    # the data is well inside the contraction regime; the proved factor is
    # 1/2, asserted at 0.75 to absorb roundoff near the increment floor
    cond = check_small_data_conditions(params, mesh2, seed=0)
    assert cond["contraction_satisfied"]
    for _, report in (solved_bj, solved_be):
        assert report["n_iterations"] >= 3
        for rec in report["iterations"][1:]:
            assert rec["ratio"] <= 0.75


def test_max_iterations_is_reported_not_raised(mesh2, params):
    init = zero_state(mesh2, "BJ")
    init.B = seed_flux(mesh2)
    init.B_prev = init.B.copy()
    state, report = solve_nonlinear("BJ", params, init,
                                    **dict(PICARD, max_iter=1))
    assert report["termination"] == "max-iterations"
    assert report["n_iterations"] == 1
    assert state.formulation == "BJ"


def test_solver_input_validation(mesh2, params):
    with pytest.raises(ValueError):
        solve_nonlinear("XX", params, zero_state(mesh2, "BJ"), **PICARD)
    with pytest.raises(TypeError):
        solve_nonlinear("BE", params, zero_state(mesh2, "BJ"), **PICARD)
    with pytest.raises(ValueError):
        solve_nonlinear("BJ", params, zero_state(mesh2, "BJ"),
                        **dict(PICARD, max_iter=0))
    # the Picard settings have one owner, the harness; none is defaulted
    with pytest.raises(TypeError, match="rtol"):
        solve_nonlinear("BJ", params, zero_state(mesh2, "BJ"))


# ---------------------------------------------------------------------------
# convergence conditions


@pytest.fixture
def round_constants(monkeypatch):
    """c1 = 1/2 and c2 = 1/4 in check_small_data_conditions."""
    monkeypatch.setattr("mhdfem.solvers.SOBOLEV_L6", 0.5)
    monkeypatch.setattr("mhdfem.solvers.estimate_cross_bound",
                        lambda mesh, trials, seed: 0.25)


def test_conditions_zero_data(mesh2):
    rep = check_small_data_conditions(MhdParams(r_e=1.0, r_m=1.0, s=1.0),
                                      mesh2, seed=3)
    # the conditions take c1 from the embedding constant and c2 from a
    # 20-trial probe at their seed
    assert rep["c1"] == SOBOLEV_L6
    assert rep["c2"] == estimate_cross_bound(mesh2, trials=20, seed=3)
    assert rep["condition1"]["lhs"] == 0.0
    assert rep["condition2"]["lhs"] == 0.0
    assert rep["small_re"]["limit"] == math.inf
    assert rep["contraction_satisfied"]
    assert rep["small_re"]["satisfied"]


def test_conditions_hand_arithmetic(mesh2, round_constants):
    # unit force in x: |f| = 1 exactly, so the dual bound is the unit
    # cube's Poincare constant d = 1 / (pi sqrt 3); with c1 = 1/2,
    # c2 = 1/4, R_e = 2, R_m = 3/2 the condition polynomials collapse to
    # d + 8.75 d^2 and 20.25 d^2
    def unit_x(pts):
        out = np.zeros((len(pts), 3))
        out[:, 0] = 1.0
        return out

    params = MhdParams(r_e=2.0, r_m=1.5, s=1.0, f=unit_x)
    rep = check_small_data_conditions(params, mesh2, seed=0)
    d = 1.0 / (math.pi * math.sqrt(3.0))
    assert abs(rep["f_l2"] - 1.0) <= 1e-12
    assert abs(rep["f_dual_bound"] - d) <= 1e-12 * d
    assert abs(rep["condition1"]["lhs"] - (d + 8.75 * d ** 2)) \
        <= 1e-10 * rep["condition1"]["lhs"]
    assert abs(rep["condition2"]["lhs"] - 20.25 * d ** 2) \
        <= 1e-10 * rep["condition2"]["lhs"]
    expected_limit = 2.0 / (math.sqrt(5.0) * 0.25 * d)
    assert abs(rep["small_re"]["limit"] - expected_limit) \
        <= 1e-10 * expected_limit
    assert rep["condition1"]["satisfied"] and rep["condition2"]["satisfied"]
    assert rep["small_re"]["satisfied"]

    # doubling the force strictly increases every left-hand side; the
    # quadratic condition scales exactly by four
    params2 = MhdParams(r_e=2.0, r_m=1.5, s=1.0,
                        f=lambda p: 2.0 * unit_x(p))
    rep2 = check_small_data_conditions(params2, mesh2, seed=0)
    assert rep2["condition1"]["lhs"] > rep["condition1"]["lhs"]
    assert abs(rep2["condition2"]["lhs"] - 4.0 * rep["condition2"]["lhs"]) \
        <= 1e-10 * rep2["condition2"]["lhs"]
    assert rep2["small_re"]["limit"] < rep["small_re"]["limit"]


def test_conditions_flag_violation(mesh2, round_constants):
    params = MhdParams(r_e=200.0, r_m=1.5, s=1.0,
                       f=lambda p: np.ones((len(p), 3)))
    rep = check_small_data_conditions(params, mesh2, seed=0)
    assert not rep["condition1"]["satisfied"]
    assert not rep["small_re"]["satisfied"]
    assert not rep["contraction_satisfied"]


@pytest.mark.parametrize("r_e, r_m, infinite", [
    (1e78, 1.0, {"condition1"}), (1.0, 1e78, {"condition2"}),
    (1e300, 1.0, {"condition1", "condition2"})])
def test_overflowing_condition_reads_inf_and_unsatisfied(
        mesh2, round_constants, r_e, r_m, infinite):
    # a float power that overflows raises in Python; the lhs reads inf
    params = MhdParams(r_e=r_e, r_m=r_m, s=1.0,
                       f=lambda p: np.ones((len(p), 3)))
    rep = check_small_data_conditions(params, mesh2, seed=0)
    for key in ("condition1", "condition2"):
        assert (rep[key]["lhs"] == math.inf) == (key in infinite)
        assert not rep[key]["satisfied"]
    assert not rep["contraction_satisfied"]
