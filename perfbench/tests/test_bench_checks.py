"""Every output check of the benchmark rejects a corrupted output."""
import copy
import math

import pytest

from mhdfem import harness
from mhdfem.mesh import build_box_mesh
from mhdfem.solvers import (MhdParams, be_picard_step, diagnostics,
                             zero_state_be)
from workloads import (UNIT_CUBE_POINCARE_DIV, check_diagnose,
                       check_solve_be, check_study)


@pytest.fixture(scope="module")
def be_doc():
    config = {"mesh": [2, 2, 2], "formulation": "BE", "case": "trig-1"}
    doc = harness.run_solve(harness.load_config(config))
    ref = harness.run_solve(harness.load_config(dict(config,
                                                     formulation="BJ")))
    return doc, ref["errors"]


def test_real_be_solve_passes(be_doc):
    doc, ref = be_doc
    assert check_solve_be(doc, ref) == []


def test_perturbed_flux_coefficient_breaks_gauss_law(be_doc):
    doc, ref = be_doc
    mesh = build_box_mesh(2, 2, 2)
    case = harness.manufactured_case("trig-1")
    params = MhdParams(r_e=1.0, r_m=1.0, s=1.0,
                       **case.data(mesh, 1.0, 1.0, 1.0))
    start = zero_state_be(mesh)
    start.B = case.initial_flux(mesh)
    start.B_prev = start.B.copy()
    state = be_picard_step(start, params)
    exact = diagnostics(state, params)
    assert exact["div_b_max"] <= 1e-12 * exact["b_l2"] / mesh.h

    interior = int(state.B.nonzero()[0][0])
    state.B[interior] += 1e-6
    broken = diagnostics(state, params)
    bad = copy.deepcopy(doc)
    bad["picard"]["iterations"][-1].update(div_b_max=broken["div_b_max"],
                                           b_l2=broken["b_l2"])
    problems = check_solve_be(bad, ref)
    assert len(problems) == 1 and "Gauss" in problems[0]


@pytest.mark.parametrize("corrupt, phrase", [
    (lambda d, r: d["picard"].update(termination="max-iterations"),
     "max-iterations"),
    (lambda d, r: d["picard"]["iterations"][-1].update(ratio=0.8),
     "contraction"),
    (lambda d, r: d["picard"]["iterations"][0].update(div_b_max=math.nan),
     "Gauss"),
    (lambda d, r: d["errors"].update(u_h1=1.02 * r["u_h1"]), "B-J"),
    (lambda d, r: d["errors"].update(p_l2=0.98 * r["p_l2"]), "B-J"),
])
def test_be_checks_reject_corruption(be_doc, corrupt, phrase):
    doc, ref = be_doc
    bad = copy.deepcopy(doc)
    corrupt(bad, ref)
    problems = check_solve_be(bad, ref)
    assert len(problems) == 1 and phrase in problems[0], problems


def _study(u_rate=1.8, b_rate=1.0, converged=True, aborted=None):
    h0, h1 = math.sqrt(3) / 3, math.sqrt(3) / 5
    row0 = {"level": 3, "h": h0, "converged": True,
            "err_u_h1": 1.0, "err_b_l2": 0.9}
    row1 = {"level": 5, "h": h1, "converged": converged,
            "err_u_h1": 1.0 * (h1 / h0) ** u_rate,
            "err_b_l2": 0.9 * (h1 / h0) ** b_rate}
    return {"rows": [row0, row1], "aborted": aborted}


def test_study_in_band_passes():
    assert check_study(_study(), (3, 5)) == []
    assert check_study(_study(u_rate=1.71, b_rate=1.29), (3, 5)) == []


@pytest.mark.parametrize("study, phrase", [
    (_study(u_rate=1.62), "u_h1 rate"),
    (_study(u_rate=2.4), "u_h1 rate"),
    (_study(b_rate=0.7), "b_l2 rate"),
    (_study(b_rate=1.35), "b_l2 rate"),
    (_study(converged=False), "did not converge"),
])
def test_study_checks_reject_corruption(study, phrase):
    problems = check_study(study, (3, 5))
    assert len(problems) == 1 and phrase in problems[0], problems


def test_study_that_stopped_early_fails():
    study = _study(converged=False, aborted=5)
    assert any("stopped early" in p for p in check_study(study, (3, 5)))
    study = _study()
    study["rows"].pop()
    assert check_study(study, (3, 5)) != []


def _diagnose():
    passed = {"worst": 1e-15, "tolerance": 1e-12, "pass": True,
              "applicable": True}
    return {
        "complex": {"incidence_product_max": 0.0, "dimension_sum": 0},
        "commuting": {"curl_defect": 2e-15, "div_defect": 2e-15},
        "constants": {"poincare_div": 0.2296},
        "structure": {"termination": "converged",
                      "checks": {k: dict(passed) for k in
                                 ("gauss_law", "elimination_j",
                                  "elimination_sigma")}},
    }


def test_diagnose_passes():
    assert check_diagnose(_diagnose()) == []


@pytest.mark.parametrize("path, value, phrase", [
    (("complex", "incidence_product_max"), 1e-300, "div o curl"),
    (("complex", "dimension_sum"), 1, "Euler"),
    (("commuting", "curl_defect"), 2e-12, "curl_defect"),
    (("commuting", "div_defect"), None, "div_defect"),
    (("structure", "termination"), "max-iterations", "max-iterations"),
    (("structure", "checks", "gauss_law", "pass"), False, "gauss_law"),
    (("structure", "checks", "elimination_j", "pass"), None, "elimination_j"),
    (("structure", "checks", "elimination_sigma", "pass"), False,
     "elimination_sigma"),
    (("constants", "poincare_div"), 1.06 * UNIT_CUBE_POINCARE_DIV,
     "poincare"),
    (("constants", "poincare_div"), 0.94 * UNIT_CUBE_POINCARE_DIV,
     "poincare"),
    (("constants", "poincare_div"), None, "poincare"),
])
def test_diagnose_checks_reject_corruption(path, value, phrase):
    doc = _diagnose()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    problems = check_diagnose(doc)
    assert len(problems) == 1 and phrase in problems[0], problems
