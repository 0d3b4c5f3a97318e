"""The benchmark's workloads: configs, set-up, and output checks.

Each workload is one call of a public `mhdfem.harness` runner on a fixed
config.  The only input that depends on the seed is the config's `seed`,
which drives the random probes of `estimate_cross_bound`; the Picard
trajectories do not depend on it.

The checks test properties the method must have (convergence, exact
discrete divergence, contraction, convergence rates, complex identities),
never a stored copy of an earlier output.  Each returns a list of problems,
empty when the output is correct.
"""

import math
from dataclasses import dataclass

# first non-zero Maxwell eigenvalue of the unit cube is 2 pi^2, so the
# divergence-free Poincare constant is 1 / (pi sqrt 2)
UNIT_CUBE_POINCARE_DIV = 1.0 / (math.pi * math.sqrt(2.0))


@dataclass(frozen=True)
class Workload:
    name: str
    runner: str          # name of the mhdfem.harness entry point
    config: dict


# why each workload is there is recorded in BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload("study-bj", "run_study",
             {"formulation": "BJ", "case": "trig-1", "levels": [3, 5]}),
    Workload("solve-be", "run_solve",
             {"mesh": [4, 4, 4], "formulation": "BE", "case": "trig-1"}),
    Workload("diagnose-inspace", "run_diagnose",
             {"mesh": [4, 4, 4], "formulation": "BJ", "case": "inspace-1"}),
)}


def make_config(harness, workload: Workload, seed: int):
    """Parse the workload's config and compile its manufactured case.

    This is what every CLI invocation pays before the solver starts:
    importing the package, `load_config`, and the sympy derivation and
    lambdify of the case's exact fields and data.
    """
    from mhdfem.mesh import build_box_mesh

    config = harness.load_config(dict(workload.config, seed=seed))
    case = harness.manufactured_case(config.case)
    case.data(build_box_mesh(1, 1, 1), config.r_e, config.r_m, config.s)
    return config


def picard_steps(workload: Workload, out: dict) -> int:
    if workload.runner == "run_study":
        return sum(row["iterations"] for row in out["rows"])
    if workload.runner == "run_solve":
        return out["picard"]["n_iterations"]
    return len(out["structure"]["iterations"])


# ---------------------------------------------------------------------------
# checks

U_H1_RATE_BAND = (1.7, 2.3)
B_L2_RATE_BAND = (0.8, 1.3)
CONTRACTION_LIMIT = 0.75
GAUSS_REL = 1e-12
COMMUTING_TOL = 1e-12
BE_BJ_AGREEMENT = 0.01
POINCARE_REL = 0.05


def observed_rate(coarse: dict, fine: dict, key: str) -> float:
    """Convergence order from two study rows, log(e0/e1) / log(h0/h1)."""
    return (math.log(coarse[f"err_{key}"] / fine[f"err_{key}"])
            / math.log(coarse["h"] / fine["h"]))


def check_study(out: dict, levels) -> list:
    rows = out["rows"]
    problems = []
    if out["aborted"] is not None or [r["level"] for r in rows] != list(levels):
        problems.append(f"study stopped early (aborted at {out['aborted']})")
    problems += [f"level {r['level']} did not converge"
                 for r in rows if not r["converged"]]
    if len(rows) >= 2:
        for key, (lo, hi) in (("u_h1", U_H1_RATE_BAND),
                              ("b_l2", B_L2_RATE_BAND)):
            rate = observed_rate(rows[0], rows[-1], key)
            if not lo <= rate <= hi:
                problems.append(f"{key} rate {rate:.4f} outside [{lo}, {hi}]")
    return problems


def check_solve_be(out: dict, reference_errors: dict) -> list:
    """B-E solve: convergence, exact Gauss law, contraction, and agreement
    of the manufactured-solution errors with a B-J solve of the same
    configuration (both share the velocity and flux spaces)."""
    picard = out["picard"]
    h = out["mesh"]["h"]
    problems = []
    if picard["termination"] != "converged":
        problems.append(f"solve ended with {picard['termination']}")
    for rec in picard["iterations"]:
        if not rec["div_b_max"] <= GAUSS_REL * rec["b_l2"] / h:
            problems.append(f"iterate {rec['iteration']}: div B "
                            f"{rec['div_b_max']:.3e} breaks Gauss's law")
        if rec["ratio"] is not None and not rec["ratio"] <= CONTRACTION_LIMIT:
            problems.append(f"iterate {rec['iteration']}: contraction ratio "
                            f"{rec['ratio']:.4f} > {CONTRACTION_LIMIT}")
    for key, ref in reference_errors.items():
        err = out["errors"][key]
        if not abs(err - ref) <= BE_BJ_AGREEMENT * ref:
            problems.append(f"{key} error {err:.6g} differs from the B-J "
                            f"solve's {ref:.6g} by more than "
                            f"{BE_BJ_AGREEMENT:.0%}")
    return problems


def check_diagnose(out: dict) -> list:
    problems = []
    cx = out["complex"]
    if cx["incidence_product_max"] != 0.0:
        problems.append(f"div o curl = {cx['incidence_product_max']!r}, "
                        "not exactly 0")
    if cx["dimension_sum"] != 0:
        problems.append(f"dimension sum {cx['dimension_sum']} is not the "
                        "box's Euler characteristic 0")
    for key, defect in out["commuting"].items():
        if defect is None or not defect <= COMMUTING_TOL:
            problems.append(f"{key} {defect!r} > {COMMUTING_TOL}")
    structure = out["structure"]
    if structure["termination"] != "converged":
        problems.append(f"solve ended with {structure['termination']}")
    for key in ("gauss_law", "elimination_j", "elimination_sigma"):
        check = structure["checks"].get(key)
        if check is None or check["pass"] is not True:
            problems.append(f"{key} check did not pass: {check}")
    poincare = out["constants"]["poincare_div"]
    if poincare is None or not (abs(poincare - UNIT_CUBE_POINCARE_DIV)
                                <= POINCARE_REL * UNIT_CUBE_POINCARE_DIV):
        problems.append(f"poincare_div {poincare!r} not within "
                        f"{POINCARE_REL:.0%} of 1/(pi sqrt 2)")
    return problems
