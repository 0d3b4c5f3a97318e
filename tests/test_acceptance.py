"""End-to-end guarantees: conservation, contraction, and convergence.

Each test states one property the solvers must deliver, at the tolerance
it must hold.  The magnetically seeded runs share their iterates through
a cache, so the per-iterate checks all look at the same four solves.
"""

import time
from functools import lru_cache

import numpy as np

from mhdfem.derham import (check_commuting, curl_incidence, div_incidence,
                           interpolate)
from mhdfem.harness import _PICARD_DEFAULTS as PICARD
from mhdfem.harness import load_config, run_study
from mhdfem.mesh import build_box_mesh
from mhdfem.operators import discrete_ops, estimate_poincare_constant
from mhdfem.solvers import (MhdParams, be_picard_step, bj_picard_step,
                            check_small_data_conditions, diagnostics,
                            solve_nonlinear, zero_state)

MESHES = (2, 4)
FORMULATIONS = ("BJ", "BE")


def rotational_force(pts):
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    out = np.zeros((len(x), 3))
    out[:, 0] = np.sin(np.pi * y) * np.sin(np.pi * z)
    out[:, 1] = np.sin(np.pi * z) * np.sin(np.pi * x)
    out[:, 2] = np.sin(np.pi * x) * np.sin(np.pi * y)
    return out


def seed_flux_field(pts):
    # divergence free with vanishing normal trace, so the interpolant is
    # an admissible starting magnetic field
    x, y = pts[:, 0], pts[:, 1]
    out = np.zeros((len(x), 3))
    out[:, 0] = np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
    out[:, 1] = -np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
    return out


def seeded_state(mesh, formulation):
    rt = discrete_ops(mesh).space_d
    b0 = interpolate(rt, seed_flux_field)
    b0[rt.boundary_dof] = 0.0
    state = zero_state(mesh, formulation)
    state.B = b0
    state.B_prev = b0.copy()
    return state


@lru_cache(maxsize=None)
def structure_run(n: int, formulation: str):
    """Smooth-force solve from a seeded magnetic field, with the full
    diagnostics of every Picard iterate measured on a replay."""
    mesh = build_box_mesh(n, n, n)
    params = MhdParams(r_e=1.0, r_m=1.0, s=1.0, f=rotational_force)
    t0 = time.perf_counter()
    state, report = solve_nonlinear(formulation, params,
                                    seeded_state(mesh, formulation), **PICARD)
    elapsed = time.perf_counter() - t0

    step = be_picard_step if formulation == "BE" else bj_picard_step
    iterates = []
    st = seeded_state(mesh, formulation)
    for rec in report["iterations"]:
        st = step(st, params)
        diag = diagnostics(st, params)
        assert diag["b_l2"] == rec["b_l2"], "replay left the trajectory"
        diag["u_h1"] = rec["u_h1"]
        iterates.append(diag)
    return mesh, report, iterates, elapsed


def test_gauss_law_exact_at_every_iterate():
    for n in MESHES:
        for formulation in FORMULATIONS:
            mesh, report, iterates, elapsed = structure_run(n, formulation)
            assert report["termination"] == "converged"
            assert elapsed <= 30.0
            for diag in iterates:
                assert diag["div_b_max"] <= 1e-12 * diag["b_l2"] / mesh.h, \
                    (n, formulation, diag["div_b_max"], diag["b_l2"])


def test_multiplier_vanishes_at_every_iterate():
    for n in MESHES:
        for formulation in FORMULATIONS:
            _, _, iterates, _ = structure_run(n, formulation)
            for diag in iterates:
                scale = diag["u_h1"] + diag["b_l2"]
                assert diag["multiplier_norm"] <= 1e-10 * scale, \
                    (n, formulation, diag["multiplier_norm"], scale)


def test_energy_identity_and_a_priori_bound():
    for n in MESHES:
        for formulation in FORMULATIONS:
            _, _, iterates, _ = structure_run(n, formulation)
            for diag in iterates:
                assert diag["energy_residual"] \
                    <= 1e-10 * diag["energy_scale"], (n, formulation, diag)
                assert diag["energy_slack"] >= -1e-10, (n, formulation, diag)


def test_elimination_identities_at_every_iterate():
    for n in MESHES:
        _, _, iterates, _ = structure_run(n, "BJ")
        for diag in iterates:
            assert diag["elimination_j"] <= 1e-10, (n, diag)
            assert diag["elimination_sigma"] <= 1e-10, (n, diag)


def test_picard_contracts_under_small_data():
    mesh = build_box_mesh(4, 4, 4)
    params = MhdParams(r_e=1.0, r_m=1.0, s=1.0, f=rotational_force)
    conditions = check_small_data_conditions(params, mesh, seed=0)
    assert conditions["condition1"]["satisfied"]
    assert conditions["condition2"]["satisfied"]
    for formulation in FORMULATIONS:
        t0 = time.perf_counter()
        _, report = solve_nonlinear(formulation, params,
                                    seeded_state(mesh, formulation), **PICARD)
        assert time.perf_counter() - t0 <= 60.0
        assert report["termination"] == "converged"
        ratios = [rec["ratio"] for rec in report["iterations"][1:]]
        assert ratios, "need at least two iterates to observe contraction"
        assert all(r <= 0.75 for r in ratios), (formulation, ratios)


def test_complex_is_exact_and_commutes():
    probe = (lambda x: np.column_stack([x[:, 0] ** 2 + x[:, 1],
                                        x[:, 1] * x[:, 2],
                                        x[:, 0] - x[:, 2] ** 2]),
             lambda x: np.column_stack([-x[:, 1], -np.ones(len(x)),
                                        -np.ones(len(x))]),
             lambda x: 2.0 * x[:, 0] - x[:, 2])
    for n in (1, 2, 3):
        mesh = build_box_mesh(n, n, n)
        product = div_incidence(mesh) @ curl_incidence(mesh)
        assert product.nnz == 0 or np.abs(product.data).max() == 0.0
        ops = discrete_ops(mesh)
        dims = [np.count_nonzero(~mesh.boundary_vertex),
                ops.space_c.free_index.size, ops.space_d.free_index.size,
                mesh.num_tets - 1]
        assert dims[0] - dims[1] + dims[2] - dims[3] == 0, (n, dims)
        defects = check_commuting(ops, *probe)
        assert defects["curl_defect"] <= 1e-12
        assert defects["div_defect"] <= 1e-12


def test_poincare_estimate_stable_under_refinement():
    coarse = estimate_poincare_constant(build_box_mesh(2, 2, 2))
    fine = estimate_poincare_constant(build_box_mesh(4, 4, 4))
    assert max(coarse, fine) <= 2.0 * min(coarse, fine), (coarse, fine)


def test_convergence_rates_of_manufactured_solution():
    t0 = time.perf_counter()
    out = run_study(load_config({"case": "trig-1", "formulation": "BJ",
                                 "levels": [2, 4, 8]}))
    assert time.perf_counter() - t0 <= 600.0
    assert out["aborted"] is None
    finest = out["rows"][-1]
    assert finest["converged"] is True
    assert 0.8 <= finest["rate_b_l2"] <= 1.3, finest
    assert 1.7 <= finest["rate_u_h1"] <= 2.3, finest


def test_zero_force_gives_zero_state_in_one_iteration():
    mesh = build_box_mesh(2, 2, 2)
    params = MhdParams(r_e=1.0, r_m=1.0, s=1.0)
    for formulation in ("BJ", "BE"):
        state, report = solve_nonlinear(formulation, params,
                                        zero_state(mesh, formulation),
                                        **PICARD)
        assert report["termination"] == "converged"
        assert report["n_iterations"] == 1
        fields = [state.u, state.B, state.p, state.r]
        fields += [state.j, state.sigma] if formulation == "BJ" \
            else [state.E]
        for vec in fields:
            assert not vec.any()
        for key, value in diagnostics(state, params).items():
            assert value == 0.0, (formulation, key, value)
