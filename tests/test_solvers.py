"""Picard steps, structure diagnostics, and the nonlinear driver."""

import gc
import math
import warnings
import weakref

import numpy as np
import pytest

import mhdfem
from mhdfem import linalg
from mhdfem.assembly import (RULE_DEG4, RULE_DEG6, FormKind,
                             apply_essential_bc, assemble, assemble_load)
from mhdfem.derham import (P1, RT, VELOCITY, AnalyticField, build_space,
                           curl_incidence, div_incidence, interpolate,
                           p2_values, point_eval, tabulate_nedelec,
                           tabulate_p2_gradients, tabulate_rt)
from mhdfem.linalg import SingularSystemError, solve_direct
from mhdfem.mesh import build_box_mesh, derive_topology
from mhdfem.operators import (DiagnosticConstants, DiscreteOps, discrete_ops,
                              poincare_h01_box)
from mhdfem.solvers import (MhdParams, MhdStateBJ,
                            be_picard_step, bj_picard_step,
                            check_small_data_conditions, diagnostics,
                            solve_nonlinear, zero_state_be, zero_state_bj,
                            _essential_masks, _linear_system, _load_vector,
                            _step_plan, _step_system)


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
    rt = build_space(mesh, RT, essential_bc=True)
    b0 = interpolate(rt, seed_field)
    b0[rt.boundary_dof] = 0.0
    return b0


@pytest.fixture(scope="module")
def seeded_bj(mesh2, params):
    """Two chained current-based steps from a magnetically seeded start."""
    init = zero_state_bj(mesh2)
    init.B = seed_flux(mesh2)
    init.B_prev = init.B.copy()
    s1 = bj_picard_step(init, params)
    s2 = bj_picard_step(s1, params)
    return init, s1, s2


@pytest.fixture(scope="module")
def seeded_be(mesh2, params):
    init = zero_state_be(mesh2)
    init.B = seed_flux(mesh2)
    init.B_prev = init.B.copy()
    s1 = be_picard_step(init, params)
    s2 = be_picard_step(s1, params)
    return init, s1, s2


@pytest.fixture(scope="module")
def solved_bj(mesh2, params):
    init = zero_state_bj(mesh2)
    init.B = seed_flux(mesh2)
    init.B_prev = init.B.copy()
    return solve_nonlinear("BJ", params, init)


@pytest.fixture(scope="module")
def solved_be(mesh2, params):
    init = zero_state_be(mesh2)
    init.B = seed_flux(mesh2)
    init.B_prev = init.B.copy()
    return solve_nonlinear("BE", params, init)


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
    be = zero_state_be(mesh2)
    bj = zero_state_bj(mesh2)
    assert be.u.size == 3 * (nv + ne) and bj.u.size == 3 * (nv + ne)
    assert be.E.size == ne and bj.j.size == ne and bj.sigma.size == ne
    assert be.B.size == nf and be.B_prev.size == nf
    assert be.p.size == nv and be.r.size == nt


def test_load_vector_paths(mesh2):
    ops = discrete_ops(mesh2)
    rng = np.random.default_rng(3)
    assert not np.any(_load_vector(ops.vel, None, ops.vel_mass))
    coeff = rng.standard_normal(ops.vel.dof_count)
    direct = _load_vector(ops.vel, coeff, ops.vel_mass)
    assert np.allclose(direct, ops.vel_mass @ coeff, rtol=0, atol=0)
    by_call = _load_vector(ops.vel, smooth_force, ops.vel_mass)
    wrapped = _load_vector(ops.vel, AnalyticField(value=smooth_force),
                           ops.vel_mass)
    assert np.array_equal(by_call, wrapped)
    assert np.allclose(by_call, assemble_load(ops.vel, smooth_force,
                                              RULE_DEG6), rtol=0, atol=0)
    with pytest.raises(ValueError):
        _load_vector(ops.vel, np.zeros(7), ops.vel_mass)


# ---------------------------------------------------------------------------
# single steps satisfy their variational equations


def test_bj_step_solves_every_equation(mesh2, ops2, params, seeded_bj):
    _, s1, s2 = seeded_bj
    vel = build_space(mesh2, VELOCITY, essential_bc=True)
    pres = build_space(mesh2, P1, essential_bc=False, zero_mean=True)
    lap = assemble(FormKind("VectorLaplacian"), vel, vel)
    conv = assemble(FormKind("Convection", coeff=s1.u), vel, vel)
    cross = assemble(FormKind("CrossCoupling", coeff=s1.B), vel, ops2.space_c)
    bdiv = assemble(FormKind("MixedDiv"), vel, pres)
    div = div_incidence(mesh2)
    f_load = assemble_load(vel, smooth_force, RULE_DEG6)
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
    vel = build_space(mesh2, VELOCITY, essential_bc=True)
    pres = build_space(mesh2, P1, essential_bc=False, zero_mean=True)
    lap = assemble(FormKind("VectorLaplacian"), vel, vel)
    conv = assemble(FormKind("Convection", coeff=s1.u), vel, vel)
    cross = assemble(FormKind("CrossCoupling", coeff=s1.B), vel, ops2.space_c)
    cross2 = assemble(FormKind("CrossCoupling", coeff=s1.B), vel, vel)
    bdiv = assemble(FormKind("MixedDiv"), vel, pres)
    div = div_incidence(mesh2)
    f_load = assemble_load(vel, smooth_force, RULE_DEG6)
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

STEPS = {"BE": (zero_state_be, be_picard_step),
         "BJ": (zero_state_bj, bj_picard_step)}


def seeded_start(mesh, formulation):
    init = STEPS[formulation][0](mesh)
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


def assembled_step_system(ops, prev, params, formulation):
    """A step's reduced system built from assemble() blocks, reduced by
    apply_essential_bc and merged by BlockSystem.assemble."""
    vel, ned, s, rm = ops.vel, ops.space_c, params.s, params.r_m
    conv = assemble(FormKind("Convection", coeff=prev.u), vel, vel)
    cross = assemble(FormKind("CrossCoupling", coeff=prev.B), vel, ned)
    system = _linear_system(ops, formulation, params)
    if formulation == "BE":
        cross2 = assemble(FormKind("CrossCoupling", coeff=prev.B), vel, vel)
        system.add_block("u", "u", conv + s * cross2)
        system.add_block("u", "E", s * cross.T)
        system.add_block("E", "u", s * cross)
    else:
        system.add_block("u", "u", conv)
        system.add_block("u", "j", s * cross.T)
        system.add_block("sigma", "u", -(s / rm) * cross)
    system.set_rhs("u", assemble_load(vel, params.f, RULE_DEG6))
    system.set_rhs("B", ops.M_d @ params.h)
    return apply_essential_bc(system,
                              _essential_masks(ops, formulation)).assemble()


@pytest.mark.parametrize("formulation", ["BE", "BJ"])
@pytest.mark.parametrize("n", [2, 3])
def test_scattered_step_matches_assembled_blocks(formulation, n):
    mesh = build_box_mesh(n, n, n)
    ops = discrete_ops(mesh)
    rng = np.random.default_rng(n)
    params = MhdParams(r_e=0.7, r_m=1.9, s=2.3, f=smooth_force,
                       h=rng.standard_normal(ops.space_d.dof_count))
    prev = STEPS[formulation][0](mesh)
    for _ in range(2):
        prev.u = rng.standard_normal(prev.u.size)
        prev.B = rng.standard_normal(prev.B.size)
        _, a, b = _step_system(ops, formulation, prev, params)
        want_a, want_b = assembled_step_system(ops, prev, params, formulation)
        assert a.shape == want_a.shape
        assert np.abs((a - want_a).toarray()).max() \
            <= 1e-14 * np.abs(want_a.data).max()
        assert np.array_equal(b, want_b)


def count_calls(monkeypatch, name):
    """Count calls of one mhdfem function through every module binding it."""
    calls = []
    orig = getattr(mhdfem.linalg if name == "finalize_assembly"
                   else mhdfem.assembly, name)

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
    first = STEPS[formulation][1](seeded_start(mesh, formulation), params)
    diagnostics(first, params)
    finalized = count_calls(monkeypatch, "finalize_assembly")
    loaded = count_calls(monkeypatch, "assemble_load")
    second = STEPS[formulation][1](first, params)
    diagnostics(second, params)
    assert finalized == [] and loaded == []
    assert second.linear_solve["fallback"] is False


def test_be_current_evaluated_once_per_iterate(mesh2, params, monkeypatch):
    calls = []
    orig = mhdfem.solvers.current_at

    def counted(tab, state):
        calls.append(state)
        return orig(tab, state)

    monkeypatch.setattr(mhdfem.solvers, "current_at", counted)
    _, report = solve_nonlinear("BE", params, seeded_start(mesh2, "BE"))
    # the start once, then every iterate in the loop and in diagnostics
    assert len(calls) == 1 + 2 * report.n_iterations


@pytest.mark.parametrize("formulation", ["BE", "BJ"])
def test_preconditioned_steps_match_direct_solve(params, formulation):
    mesh = build_box_mesh(3, 3, 3)
    state = seeded_start(mesh, formulation)
    for _ in range(3):
        ref, x = direct_step_fields(state, params, formulation)
        state = STEPS[formulation][1](state, params)
        record = state.linear_solve
        assert record["fallback"] is False
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
def test_stalled_krylov_falls_back_to_direct(params, formulation,
                                             monkeypatch):
    mesh = build_box_mesh(3, 3, 3)
    init = seeded_start(mesh, formulation)
    ref, x = direct_step_fields(init, params, formulation)
    monkeypatch.setattr(linalg, "_KRYLOV_CAP", 0)
    state = STEPS[formulation][1](init, params)
    assert state.linear_solve == {
        "unknowns": x.size, "krylov_iterations": 0,
        "relative_residual": state.linear_solve["relative_residual"],
        "fallback": True}
    assert state.linear_solve["relative_residual"] <= 1e-10
    for name, want in ref.items():
        if name not in ("mp", "mr"):
            assert np.array_equal(getattr(state, name), want), name


@pytest.mark.parametrize("formulation", ["BE", "BJ"])
def test_step_is_bitwise_deterministic(params, formulation):
    mesh = build_box_mesh(3, 3, 3)
    prev = STEPS[formulation][1](seeded_start(mesh, formulation), params)
    one = STEPS[formulation][1](prev, params)
    two = STEPS[formulation][1](prev, params)
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
    solve_nonlinear("BJ", params, zero_state_bj(mesh_a), max_iter=1)
    ref = weakref.ref(_step_plan(discrete_ops(mesh_a), "BJ", params).factors)
    assert ref() is not None
    solve_nonlinear("BJ", params, zero_state_bj(build_box_mesh(2, 2, 2)),
                    max_iter=1)
    del mesh_a
    gc.collect()
    assert ref() is None


def test_step_plan_releases_dropped_meshes(params):
    mesh_a = build_box_mesh(2, 2, 2)
    solve_nonlinear("BE", params, zero_state_be(mesh_a), max_iter=2)
    ops = discrete_ops(mesh_a)
    refs = [weakref.ref(ops.plans["BE"]), weakref.ref(ops.tab(RULE_DEG6))]
    del ops
    solve_nonlinear("BE", params, zero_state_be(build_box_mesh(2, 2, 2)),
                    max_iter=1)
    del mesh_a
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


# ---------------------------------------------------------------------------
# preserved structures


def test_divergence_free_every_iterate(solved_bj, solved_be, mesh2):
    for state, report in (solved_bj, solved_be):
        for rec in report.iterations:
            assert rec["div_b_max"] <= 1e-12 * max(rec["b_l2"], 1e-250) / mesh2.h
        direct = np.abs(tet_divergences(mesh2, state.B)).max()
        d = diagnostics(state, MhdParams(r_e=1.0, r_m=1.0, s=1.0))
        assert abs(direct - d["div_b_max"]) <= 1e-12 * max(d["b_l2"], 1e-250)


def test_multiplier_vanishes_every_iterate(solved_bj, solved_be):
    for _, report in (solved_bj, solved_be):
        for rec in report.iterations:
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
        for rec in report.iterations:
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

    vel = build_space(mesh2, VELOCITY, essential_bc=True)
    rt = build_space(mesh2, RT, essential_bc=True)

    def cross_field(pts):
        return np.cross(point_eval(vel, state.u, pts),
                        point_eval(rt, state.B_prev, pts))

    # L2 projection of u x B_prev onto the constrained edge space
    free = ops2.space_c.free_index
    sig_pred = np.zeros(ops2.space_c.dof_count)
    sig_pred[free] = np.linalg.solve(
        ops2.M_c[free][:, free].toarray(),
        assemble_load(ops2.space_c, cross_field, RULE_DEG6)[free])
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
    e[ned.free_index] = rng.standard_normal(ned.n_free)
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
    init = zero_state_bj(mesh2)
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

    final, report = solve_nonlinear("BJ", params, init)
    assert report.termination == "converged"
    assert report.n_iterations == 1
    assert np.abs(final.B - b_star).max() <= 1e-12 * scale


def test_discrete_curl_start_is_be_fixed_point(mesh2, in_space_case):
    b_star, j0, params = in_space_case
    init = zero_state_be(mesh2)
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
    mesh = build_box_mesh(1, 1, 1)
    params = MhdParams(r_e=1.0, r_m=1.0, s=1.0,
                       f=lambda p: np.ones((len(p), 3)))
    with pytest.raises(SingularSystemError, match="regime violation"):
        be_picard_step(zero_state_be(mesh), params)
    with pytest.raises(SingularSystemError, match="implementation bug"):
        bj_picard_step(zero_state_bj(mesh), params)


# ---------------------------------------------------------------------------
# nonlinear driver


def test_zero_data_converges_immediately(mesh2):
    params0 = MhdParams(r_e=1.0, r_m=1.0, s=1.0)
    for formulation, zero in (("BE", zero_state_be), ("BJ", zero_state_bj)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state, report = solve_nonlinear(formulation, params0, zero(mesh2))
        assert report.termination == "converged"
        assert report.n_iterations == 1
        for name in ("u", "B", "p", "r"):
            assert not np.any(getattr(state, name))
        d = diagnostics(state, params0)
        for key, val in d.items():
            assert val is None or val == 0.0, key


def test_fixed_forms_release_dropped_meshes(params):
    mesh_a = build_box_mesh(2, 2, 2)
    solve_nonlinear("BJ", params, zero_state_bj(mesh_a), max_iter=1)
    ops_ref = weakref.ref(discrete_ops(mesh_a))
    solve_nonlinear("BJ", params, zero_state_bj(build_box_mesh(2, 2, 2)),
                    max_iter=1)
    ref = weakref.ref(mesh_a)
    del mesh_a
    gc.collect()
    assert ref() is None
    assert ops_ref() is None


def test_report_structure(solved_bj):
    state, report = solved_bj
    assert report.formulation == "BJ"
    assert report.termination == "converged"
    assert [rec["iteration"] for rec in report.iterations] \
        == list(range(1, report.n_iterations + 1))
    assert report.iterations[0]["ratio"] is None
    assert all(rec["ratio"] is not None for rec in report.iterations[1:])
    assert len(report.ratios()) == report.n_iterations - 1
    assert isinstance(state, MhdStateBJ)


def test_contraction_under_small_data(solved_bj, solved_be, mesh2, params):
    # the data is well inside the contraction regime; the proved factor is
    # 1/2, asserted at 0.75 to absorb roundoff near the increment floor
    consts = DiagnosticConstants(c1=0.5, c2=0.05)
    cond = check_small_data_conditions(params, consts, mesh2)
    assert cond["contraction_satisfied"]
    for _, report in (solved_bj, solved_be):
        assert report.n_iterations >= 3
        for ratio in report.ratios():
            assert ratio <= 0.75


def test_max_iterations_is_reported_not_raised(mesh2, params):
    init = zero_state_bj(mesh2)
    init.B = seed_flux(mesh2)
    init.B_prev = init.B.copy()
    state, report = solve_nonlinear("BJ", params, init, max_iter=1)
    assert report.termination == "max-iterations"
    assert report.n_iterations == 1
    assert isinstance(state, MhdStateBJ)


def test_solver_input_validation(mesh2, params):
    with pytest.raises(ValueError):
        solve_nonlinear("XX", params, zero_state_bj(mesh2))
    with pytest.raises(TypeError):
        solve_nonlinear("BE", params, zero_state_bj(mesh2))
    with pytest.raises(ValueError):
        solve_nonlinear("BJ", params, zero_state_bj(mesh2), max_iter=0)


def test_high_reynolds_warns_but_proceeds(mesh2):
    params = MhdParams(r_e=1.0e6, r_m=1.0, s=1.0, f=smooth_force)
    with pytest.warns(RuntimeWarning, match="outside the guaranteed regime"):
        _, report = solve_nonlinear("BE", params, zero_state_be(mesh2),
                                    max_iter=1)
    assert report.warnings
    assert report.condition_report is not None
    assert not report.condition_report["small_re"]["satisfied"]


# ---------------------------------------------------------------------------
# convergence conditions


def test_conditions_zero_data(mesh2):
    consts = DiagnosticConstants(c1=0.5, c2=0.25)
    rep = check_small_data_conditions(MhdParams(r_e=1.0, r_m=1.0, s=1.0),
                                      consts, mesh2)
    assert rep["condition1"]["lhs"] == 0.0
    assert rep["condition2"]["lhs"] == 0.0
    assert rep["small_re"]["limit"] == math.inf
    assert rep["contraction_satisfied"]
    assert rep["small_re"]["satisfied"]


def test_conditions_hand_arithmetic(mesh2):
    # unit force in x: |f| = 1 exactly, so the dual bound is the box
    # Poincare constant; with c1 = 1/2, c2 = 1/4, R_e = 2, R_m = 3/2 the
    # condition polynomials collapse to d + 8.75 d^2 and 20.25 d^2
    def unit_x(pts):
        out = np.zeros((len(pts), 3))
        out[:, 0] = 1.0
        return out

    consts = DiagnosticConstants(c1=0.5, c2=0.25)
    params = MhdParams(r_e=2.0, r_m=1.5, s=1.0, f=unit_x)
    rep = check_small_data_conditions(params, consts, mesh2)
    d = poincare_h01_box(mesh2.box)
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
    rep2 = check_small_data_conditions(params2, consts, mesh2)
    assert rep2["condition1"]["lhs"] > rep["condition1"]["lhs"]
    assert abs(rep2["condition2"]["lhs"] - 4.0 * rep["condition2"]["lhs"]) \
        <= 1e-10 * rep2["condition2"]["lhs"]
    assert rep2["small_re"]["limit"] < rep["small_re"]["limit"]


def test_conditions_flag_violation(mesh2):
    consts = DiagnosticConstants(c1=0.5, c2=0.25)
    params = MhdParams(r_e=200.0, r_m=1.5, s=1.0,
                       f=lambda p: np.ones((len(p), 3)))
    rep = check_small_data_conditions(params, consts, mesh2)
    assert not rep["condition1"]["satisfied"]
    assert not rep["small_re"]["satisfied"]
    assert not rep["contraction_satisfied"]


def test_conditions_need_box_geometry(mesh2):
    bare = derive_topology(mesh2.vertices, mesh2.tets)
    consts = DiagnosticConstants(c1=0.5, c2=0.25)
    with pytest.raises(ValueError, match="box"):
        check_small_data_conditions(MhdParams(r_e=1.0, r_m=1.0, s=1.0),
                                    consts, bare)
