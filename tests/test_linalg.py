from __future__ import annotations

import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from mhdfem import linalg
from mhdfem.linalg import (
    BlockFactors,
    LinearStallError,
    SingularSystemError,
    factor,
    factor_dense,
    solve_direct,
    solve_preconditioned,
)


def test_solve_identity():
    b = np.array([3.0, -1.0, 2.5])
    x = solve_direct(sp.identity(3, format="csr"), b)
    assert np.array_equal(x, b)


def test_solve_saddle_point_2x2():
    a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 0.0]]))
    x = solve_direct(a, np.array([3.0, 1.0]))
    assert x == pytest.approx([1.0, 1.0], abs=1e-14)


def test_solve_roundtrip_random_systems():
    rng = np.random.default_rng(11)
    for n in (10, 60, 200):
        a = sp.random(n, n, density=0.1, random_state=rng, format="csr")
        a = a + sp.identity(n, format="csr") * n  # diagonally dominant
        x_ref = rng.standard_normal(n)
        x = solve_direct(a, a @ x_ref)
        assert np.linalg.norm(x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)


def test_solve_residual_contract():
    rng = np.random.default_rng(23)
    n = 120
    a = sp.random(n, n, density=0.07, random_state=rng, format="csr")
    a = a + sp.identity(n, format="csr")
    b = rng.standard_normal(n)
    x = solve_direct(a, b)
    fro = np.sqrt(np.dot(a.data, a.data))
    assert np.linalg.norm(b - a @ x) <= 1e-10 * (fro * np.linalg.norm(x)
                                                 + np.linalg.norm(b))


def test_solve_is_deterministic():
    rng = np.random.default_rng(5)
    a = sp.random(50, 50, density=0.2, random_state=rng, format="csr")
    a = a + sp.identity(50, format="csr") * 3.0
    b = rng.standard_normal(50)
    x1 = solve_direct(a, b)
    x2 = solve_direct(a.copy(), b.copy())
    assert np.array_equal(x1, x2)


def test_exactly_singular_matrix_factors_once(monkeypatch):
    # SuperLU itself rejects an exact zero pivot; the error must come from
    # that one factorization, with no second one to locate the breakdown
    calls, splu = [], linalg.splu

    def counted(a):
        calls.append(a.shape)
        return splu(a)

    monkeypatch.setattr(linalg, "splu", counted)
    a = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularSystemError, match="sparse LU failed"):
        solve_direct(a, np.array([1.0, 1.0]))
    assert calls == [(2, 2)]


def test_zero_row_is_singular():
    a = sp.csr_matrix(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(SingularSystemError):
        solve_direct(a, np.ones(3))


def test_numerically_singular_matrix_is_rejected_despite_consistent_rhs():
    # singular in real arithmetic, with a right-hand side in its range: a
    # roundoff pivot would return one of many solutions at a tiny residual
    a = sp.csr_matrix(np.array([[0.1, 0.3], [0.3, 0.9]]))
    with pytest.raises(SingularSystemError, match="roundoff"):
        solve_direct(a, np.array([1.0, 3.0]))


def test_nonsquare_rejected():
    with pytest.raises(ValueError):
        solve_direct(sp.csr_matrix((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        solve_direct(sp.identity(3, format="csr"), np.ones(2))


# ---------------------------------------------------------------------------
# block-preconditioned solves


def perturbed_block_system(rng, n1=40, n2=30, eps=0.05):
    """Block-diagonal L plus a small first-row-block perturbation and an
    arbitrary coupling in the second block's rows."""
    def block(n):
        m = sp.random(n, n, density=0.1, random_state=rng, format="csr")
        return m + sp.identity(n, format="csr") * 4.0

    lin = sp.block_diag([block(n1), block(n2)], format="csr")
    small = eps * sp.random(n1, n1 + n2, density=0.1, random_state=rng)
    coupling = sp.random(n2, n1, density=0.1, random_state=rng)
    a = lin + sp.vstack([small, sp.hstack([coupling, sp.csr_matrix((n2, n2))])])
    perm = rng.permutation(n1 + n2)
    # scatter the first block over the unknowns
    a = sp.csr_matrix(a)[perm][:, perm]
    lin = lin[perm][:, perm]
    first = np.flatnonzero(perm < n1)
    return sp.csr_matrix(a), lin, first


def block_factors(lin, first):
    """BlockFactors of lin's two diagonal blocks split by first."""
    second = np.setdiff1d(np.arange(lin.shape[0]), first)
    return BlockFactors(first=first, second=second,
                        lu_first=factor(lin[first][:, first])[0],
                        lu_second=factor(lin[second][:, second])[0])


def test_preconditioned_solve_matches_direct():
    rng = np.random.default_rng(3)
    a, lin, first = perturbed_block_system(rng)
    b = rng.standard_normal(a.shape[0])
    x, record = solve_preconditioned(a, b, block_factors(lin, first),
                                     np.zeros(b.size))
    ref = solve_direct(a, b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    assert record["unknowns"] == a.shape[0]
    assert 0 < record["krylov_iterations"] < 30
    fro = np.sqrt(np.dot(a.data, a.data))
    res = b - a @ x
    assert record["relative_residual"] == pytest.approx(
        np.linalg.norm(res) / (fro * np.linalg.norm(x) + np.linalg.norm(b)))
    # the closing correction leaves a residual only where P and A differ
    second = np.setdiff1d(np.arange(a.shape[0]), first)
    assert np.linalg.norm(res[second]) <= 1e-14 * np.linalg.norm(b)


def test_preconditioned_solve_zero_rhs_is_exact_zero():
    rng = np.random.default_rng(4)
    a, lin, first = perturbed_block_system(rng)
    zero = np.zeros(a.shape[0])
    x, record = solve_preconditioned(a, zero, block_factors(lin, first),
                                     zero)
    assert not x.any()
    assert record["relative_residual"] == 0.0


def test_stalled_preconditioned_solve_raises_with_its_record(monkeypatch):
    rng = np.random.default_rng(5)
    a, lin, first = perturbed_block_system(rng)
    b = rng.standard_normal(a.shape[0])
    monkeypatch.setattr(linalg, "_KRYLOV_CAP", 0)
    with pytest.raises(LinearStallError, match="stalled") as info:
        solve_preconditioned(a, b, block_factors(lin, first),
                             np.zeros(b.size))
    record = info.value.record
    assert set(record) == {"unknowns", "krylov_iterations",
                           "relative_residual"}
    assert record["unknowns"] == a.shape[0]
    assert record["krylov_iterations"] == 0
    assert record["relative_residual"] > 0.0


def test_nan_residual_fails_the_contract():
    # GMRES starts at the solution and takes no step; a block solve that
    # returns NaN then poisons the closing correction
    class NanSolve:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            return np.full_like(self.lu.solve(rhs), np.nan)

    rng = np.random.default_rng(8)
    a, lin, first = perturbed_block_system(rng)
    b = rng.standard_normal(a.shape[0])
    good = block_factors(lin, first)
    factors = BlockFactors(first=good.first, second=good.second,
                           lu_first=NanSolve(good.lu_first),
                           lu_second=good.lu_second)
    with pytest.raises(LinearStallError) as info:
        solve_preconditioned(a, b, factors, solve_direct(a, b))
    assert info.value.record["krylov_iterations"] == 0
    assert np.isnan(info.value.record["relative_residual"])


def test_nan_right_hand_side_stalls_instead_of_raising():
    # GMRES stops on the NaN residual before its least-squares solve sees
    # it; the closing correction carries the NaN into the record
    rng = np.random.default_rng(9)
    a, lin, first = perturbed_block_system(rng)
    b = rng.standard_normal(a.shape[0])
    b[3] = np.nan
    with pytest.raises(LinearStallError) as info:
        solve_preconditioned(a, b, block_factors(lin, first),
                             np.zeros(b.size))
    assert info.value.record["krylov_iterations"] == 0
    assert np.isnan(info.value.record["relative_residual"])


def test_non_finite_hessenberg_entry_ends_gmres():
    # an operator that overflows mid-Arnoldi: the solve stops there,
    # not converged, with the iterations taken so far
    rng = np.random.default_rng(10)
    a, _, _ = perturbed_block_system(rng)
    b = rng.standard_normal(a.shape[0])
    calls = []

    class Overflowing:
        def __matmul__(self, v):
            calls.append(1)
            out = a @ v
            return out if len(calls) < 3 else np.full_like(out, np.inf)

    x0 = np.zeros(b.size)
    with np.errstate(invalid="ignore"):
        x, its, converged = linalg._gmres(Overflowing(), b, lambda r: r,
                                          1e-13, x0)
    assert not converged
    assert its == 2
    assert np.array_equal(x, x0)


def test_preconditioned_solve_started_at_the_solution_takes_no_step():
    rng = np.random.default_rng(6)
    a, lin, first = perturbed_block_system(rng)
    b = rng.standard_normal(a.shape[0])
    ref = solve_direct(a, b)
    x, record = solve_preconditioned(a, b, block_factors(lin, first), ref)
    assert record["krylov_iterations"] == 0
    assert record["relative_residual"] <= 1e-10
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_factor_rejects_numerically_singular_matrix():
    # exactly singular in real arithmetic; the factorization sees a pivot
    # at roundoff instead of an exact zero
    s = sp.csr_matrix(np.array([[0.1, 0.3], [0.3, 0.9]]))
    lin = sp.block_diag([s, sp.identity(2)], format="csr")
    with pytest.raises(SingularSystemError, match="roundoff"):
        factor(lin)


def test_factor_summary_reports_size_fill_and_smallest_pivot():
    a = sp.csr_matrix(np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.0],
                                [0.0, 0.0, 0.5]]))
    lu, summary = factor(a)
    assert np.allclose(lu.solve(np.ones(3)), np.linalg.solve(a.toarray(),
                                                             np.ones(3)))
    assert summary["n"] == 3
    # SuperLU's stored entries: every nonzero of L and U, the shared
    # diagonal once
    assert summary["lu_nnz"] == lu.nnz >= lu.L.nnz + lu.U.nnz - 3
    assert summary["min_pivot"] == np.abs(lu.U.diagonal()).min()


@pytest.mark.parametrize("singular", [
    [[1.0, 1.0], [1.0, 1.0]],                     # an exact zero pivot
    [[0.1, 0.3], [0.3, 0.9]],                     # a pivot at roundoff
])
def test_factor_dense_rejects_singular_matrix_without_warning(singular):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystemError, match="roundoff"):
            factor_dense(np.array(singular))


def test_factor_dense_summary_reports_size_fill_and_smallest_pivot():
    a = np.array([[4.0, 1.0, 0.0], [2.0, 3.0, 1.0], [0.0, 1.0, 0.5]])
    lu, summary = factor_dense(a.copy())
    assert np.allclose(scipy.linalg.lu_solve(lu, np.ones(3)),
                       np.linalg.solve(a, np.ones(3)))
    assert summary == {"n": 3, "lu_nnz": 9,
                       "min_pivot": np.abs(np.diagonal(lu[0])).min()}
