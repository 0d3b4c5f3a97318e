"""Deterministic sparse solves.

Direct solves go through SuperLU with equilibration and one step of
iterative refinement, which keeps row-wise residuals small enough that
the structural invariants downstream (exact divergence constraints)
survive the linear algebra.  A system that is a
perturbation of a block operator whose two diagonal blocks have exact
solves (BlockFactors, each block's solve built by the caller, for
instance from the sparse factor and the dense factor_dense) is solved by
GMRES, started from a caller's guess and preconditioned with the block
lower-triangular operator (solve_preconditioned), to the same residual
contract.  Such a solve never factors the whole system: when GMRES
stalls or the contract fails it raises LinearStallError.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu


class SingularSystemError(Exception):
    """Factorization hit a zero or untrustworthy pivot."""


class LinearStallError(Exception):
    """GMRES missed the residual contract; record is the solve's record."""

    def __init__(self, message: str, record: dict):
        super().__init__(message)
        self.record = record


_RESIDUAL_REL = 1e-10


def _singular(d: np.ndarray) -> bool:
    """Whether pivot magnitudes d mark a singular matrix."""
    # a zero pivot makes the triangular solves emit garbage (and BLAS
    # error chatter); a pivot at roundoff of the largest marks a
    # numerically singular matrix, whose solve could pass the residual
    # check with one of many solutions.  Which of the two a singular matrix
    # shows depends on the ordering, and so on the explicit zeros its
    # pattern carries; reject both before solving
    return bool(d.min() <= d.size * np.finfo(float).eps * d.max())


def _factor(a_csc):
    """SuperLU factors of a square matrix and the magnitudes of their
    pivots; SingularSystemError on breakdown."""
    try:
        lu = splu(a_csc)
    except RuntimeError as exc:
        raise SingularSystemError(f"sparse LU failed ({exc})") from exc

    # SuperLU exposes only L, U, nnz, perm_c, perm_r, shape and solve, so
    # the pivots are read off U; the check below needs them.  The first read
    # makes scipy (1.17) build CSC copies of both L and U, which the factor
    # keeps while it lives: about 12 bytes per entry of lu.nnz
    d = np.abs(lu.U.diagonal())
    if _singular(d):
        step = int(np.argmin(d))
        raise SingularSystemError(
            f"pivot {d[step]:.3e} at roundoff of the largest {d.max():.3e}, "
            f"elimination step {step}, unknown {int(lu.perm_c[step])}")
    return lu, d


def factor(a) -> tuple:
    """(lu, summary) of a square sparse matrix: its SuperLU factors, and
    their size n, fill lu_nnz and smallest pivot |U_kk|.  lu_nnz counts the
    entries SuperLU stores for L and U, its supernodal blocks in full.

    A zero pivot, or one at roundoff of the largest, raises
    SingularSystemError.
    """
    lu, pivots = _factor(sp.csc_matrix(a))
    return lu, {"n": int(a.shape[0]), "lu_nnz": int(lu.nnz),
                "min_pivot": float(pivots.min())}


def factor_dense(a: np.ndarray) -> tuple:
    """(lu, summary) of a square dense matrix, overwritten: its LAPACK LU
    factors (scipy.linalg.lu_factor, solved with scipy.linalg.lu_solve),
    and their size n, stored entries lu_nnz = n^2 and smallest pivot.

    Pivots are judged as in factor: a zero pivot, or one at roundoff of
    the largest, raises SingularSystemError.
    """
    with warnings.catch_warnings():
        # LAPACK's exact-zero warning; the pivot check below reports it
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu = scipy.linalg.lu_factor(a, overwrite_a=True, check_finite=False)
    d = np.abs(np.diagonal(lu[0]))
    if _singular(d):
        raise SingularSystemError(
            f"dense pivot {d.min():.3e} at roundoff of the largest "
            f"{d.max():.3e}, elimination step {int(np.argmin(d))}")
    return lu, {"n": int(d.size), "lu_nnz": int(d.size) ** 2,
                "min_pivot": float(d.min())}


def solve_direct(A, b) -> np.ndarray:
    """Solve Ax = b by sparse LU with threshold partial pivoting.

    Factors, always applies one step of iterative refinement, and verifies
    ||Ax-b|| <= 1e-10 (||A||_F ||x|| + ||b||), refining further if needed.
    A pivot at roundoff of the largest (an exact zero included) or a
    residual that refinement cannot repair raises SingularSystemError.
    """
    a_csr = sp.csr_matrix(A)
    n, m = a_csr.shape
    if n != m:
        raise ValueError(f"matrix must be square, got {a_csr.shape}")
    b = np.asarray(b, dtype=np.float64).ravel()
    if b.size != n:
        raise ValueError(f"rhs length {b.size} does not match matrix size {n}")
    if n == 0:
        return np.zeros(0)

    lu, d = _factor(a_csr.tocsc())
    x = lu.solve(b)
    fro = np.sqrt(np.dot(a_csr.data, a_csr.data))
    bnorm = np.linalg.norm(b)
    # always refine once: constraint rows of saddle systems need the
    # backward error pushed to the roundoff of a residual evaluation, a
    # couple of digits below what one triangular solve delivers
    x = x + lu.solve(b - a_csr @ x)
    for _ in range(2):
        res = b - a_csr @ x
        if np.linalg.norm(res) <= _RESIDUAL_REL * (fro * np.linalg.norm(x) + bnorm):
            return x
        x = x + lu.solve(res)

    res = np.linalg.norm(b - a_csr @ x)
    if res <= _RESIDUAL_REL * (fro * np.linalg.norm(x) + bnorm):
        return x
    step = int(np.argmin(d))
    raise SingularSystemError(
        f"residual {res:.3e} exceeds tolerance after refinement; smallest pivot "
        f"{d[step]:.3e} at elimination step {step}, unknown {int(lu.perm_c[step])}")


# ---------------------------------------------------------------------------
# block-preconditioned Krylov solves

# GMRES stops once its residual falls below _KRYLOV_REL ||b||; the closing
# preconditioner correction then pushes every row where the preconditioner
# equals the matrix to factorization roundoff
_KRYLOV_REL = 1e-13
_KRYLOV_RESTART = 30
# iterations after which GMRES counts as stalled; the solve then raises
# LinearStallError, it never factors the whole system
_KRYLOV_CAP = 60


@dataclass(frozen=True, eq=False)
class BlockFactors:
    """Exact solves with the two diagonal blocks of a square operator.

    first and second partition the unknowns, each in ascending order;
    lu_first and lu_second solve (their solve(rhs) method) with the
    operator restricted to first x first and second x second: SuperLU
    factors, or any solve exact to factorization roundoff.
    """

    first: np.ndarray
    second: np.ndarray
    lu_first: object
    lu_second: object


def _gmres(a, b, precond, tol, x0):
    """Right-preconditioned restarted GMRES from x = x0.

    Returns (x, iterations, converged); converged means the true residual
    |b - a x| fell to tol within _KRYLOV_CAP iterations, none when x0
    already meets it.  A non-finite residual or Hessenberg entry stops it.
    """
    x = x0
    r = b - a @ x
    its = 0
    while True:
        beta = np.linalg.norm(r)
        if beta <= tol:
            return x, its, True
        if its >= _KRYLOV_CAP or not np.isfinite(beta):
            return x, its, False
        m = min(_KRYLOV_RESTART, _KRYLOV_CAP - its)
        v = np.zeros((m + 1, b.size))
        z = np.zeros((m, b.size))
        h = np.zeros((m + 1, m))
        e1 = np.zeros(m + 1)
        e1[0] = beta
        v[0] = r / beta
        for k in range(m):
            z[k] = precond(v[k])
            w = a @ z[k]
            for i in range(k + 1):  # modified Gram-Schmidt
                h[i, k] = v[i] @ w
                w -= h[i, k] * v[i]
            h[k + 1, k] = np.linalg.norm(w)
            its += 1
            if not np.isfinite(h[:k + 2, k]).all():
                return x, its, False
            c = np.linalg.lstsq(h[:k + 2, :k + 1], e1[:k + 2], rcond=None)[0]
            if (h[k + 1, k] == 0.0 or np.linalg.norm(
                    h[:k + 2, :k + 1] @ c - e1[:k + 2]) <= tol):
                break
            v[k + 1] = w / h[k + 1, k]
        x = x + z[:k + 1].T @ c
        r = b - a @ x


def solve_preconditioned(A, b, factors: BlockFactors, x0):
    """Solve Ax = b by GMRES with a block lower-triangular preconditioner,
    started from x0.

    With A split as [A_11 A_12; A_21 A_22] by factors.first/second, the
    preconditioner is P = [S 0; A_21 K], S and K the blocks that
    factors.lu_first and lu_second solve with exactly, so
    P differs from A only where A_11 differs from S, A_22 from K, or A_12
    is nonzero.  After GMRES one correction x <- x + P^-1 (b - A x) always
    follows; it leaves a residual only in the rows where P and A differ,
    every other row holds to factorization roundoff.  The solve then
    verifies solve_direct's residual contract.

    Returns (x, record); record holds unknowns, krylov_iterations and
    relative_residual (|b - Ax| / (|A|_F |x| + |b|)).  When GMRES stalls
    (_KRYLOV_CAP iterations or a non-finite residual) or the contract fails,
    a NaN residual included, LinearStallError carries the last record.
    """
    a = sp.csr_matrix(A)
    b = np.asarray(b, dtype=np.float64).ravel()
    fro = np.sqrt(np.dot(a.data, a.data))
    bnorm = np.linalg.norm(b)
    one, two = factors.first, factors.second
    a21 = a[two][:, one]

    def precond(rho):
        out = np.empty_like(rho)
        y1 = factors.lu_first.solve(rho[one])
        out[one] = y1
        out[two] = factors.lu_second.solve(rho[two] - a21 @ y1)
        return out

    x, its, converged = _gmres(a, b, precond, _KRYLOV_REL * bnorm,
                               np.asarray(x0, dtype=np.float64).ravel())
    x = x + precond(b - a @ x)
    scale = fro * np.linalg.norm(x) + bnorm
    res = np.linalg.norm(b - a @ x)
    rel = float(res / scale) if scale > 0.0 else float(res)
    record = {"unknowns": int(b.size), "krylov_iterations": its,
              "relative_residual": rel}
    if not converged or not rel <= _RESIDUAL_REL:
        raise LinearStallError(
            f"preconditioned solve stalled: relative residual {rel:.3e} "
            f"after {its} GMRES iterations, contract {_RESIDUAL_REL:.0e}",
            record)
    return x, record
