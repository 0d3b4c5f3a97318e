"""Reference formulas for tests only: per-point bases, and the fixed
part of a step plan's matrix.

Each basis function tabulates a basis at barycentric points (nq, 4) on
every tet of a mesh, written term by term from its textbook formula with the
package's orientation conventions (edge tangents from the lower to the
higher global vertex, face functions over the ascending-sorted vertex
triple).  Nothing here reads the per-tet coefficients or the barycentric
derivative tables of the package, so the two can check each other.
"""
import numpy as np
import scipy.sparse as sp

from mhdfem.mesh import _LOCAL_EDGES, _LOCAL_FACES


def edge_signs(mesh):
    """+1 where a tet's local edge runs from its lower to its higher global
    vertex, -1 otherwise, (T, 6)."""
    a = mesh.tets[:, _LOCAL_EDGES[:, 0]]
    b = mesh.tets[:, _LOCAL_EDGES[:, 1]]
    return np.where(a < b, 1.0, -1.0)


def sorted_face_locals(mesh):
    """Local vertex positions of each tet face, ordered by global vertex
    id, (T, 4, 3)."""
    order = np.argsort(mesh.tets[:, _LOCAL_FACES], axis=2)
    return _LOCAL_FACES[np.arange(4)[:, None], order]


def tabulate_p2_gradients(mesh, bary):
    """Physical gradients of the 10 local P2 functions, (T, nq, 10, 3)."""
    lam = np.asarray(bary, dtype=float)
    g = mesh.grad_bary                                    # (T, 4, 3)
    out = np.empty((mesh.num_tets, lam.shape[0], 10, 3))
    out[:, :, :4] = (4.0 * lam - 1.0)[None, :, :, None] * g[:, None, :, :]
    for k, (i, j) in enumerate(_LOCAL_EDGES):
        out[:, :, 4 + k] = 4.0 * (lam[None, :, i, None] * g[:, None, j]
                                  + lam[None, :, j, None] * g[:, None, i])
    return out


def tabulate_nedelec(mesh, bary):
    """Signed Whitney edge functions s_k (lam_i grad lam_j - lam_j grad
    lam_i), (T, nq, 6, 3), and their curls, (T, 6, 3)."""
    lam = np.asarray(bary, dtype=float)
    g = mesh.grad_bary
    s = edge_signs(mesh)
    vals = np.empty((mesh.num_tets, lam.shape[0], 6, 3))
    for k, (i, j) in enumerate(_LOCAL_EDGES):
        vals[:, :, k] = s[:, k, None, None] * (
            lam[None, :, i, None] * g[:, None, j]
            - lam[None, :, j, None] * g[:, None, i])
    curls = s[:, :, None] * 2.0 * np.cross(g[:, _LOCAL_EDGES[:, 0]],
                                           g[:, _LOCAL_EDGES[:, 1]])
    return vals, curls


def tabulate_rt(mesh, bary):
    """Face functions 2 (la gb x gc + lb gc x ga + lc ga x gb) of each
    face's sorted local vertices a, b, c, (T, nq, 4, 3), and their
    divergences, (T, 4)."""
    lam = np.asarray(bary, dtype=float)
    g = mesh.grad_bary
    loc = sorted_face_locals(mesh)
    t_idx = np.arange(mesh.num_tets)[:, None]
    ga, gb, gc = (g[t_idx, loc[:, :, m]] for m in range(3))    # (T, 4, 3)
    la, lb, lc = (lam.T[loc[:, :, m]][..., None]
                  for m in range(3))                            # (T, 4, nq, 1)
    vals = 2.0 * (la * np.cross(gb, gc)[:, :, None]
                  + lb * np.cross(gc, ga)[:, :, None]
                  + lc * np.cross(ga, gb)[:, :, None])
    divs = 6.0 * np.einsum("tfk,tfk->tf", ga, np.cross(gb, gc))
    return np.ascontiguousarray(vals.transpose(0, 2, 1, 3)), divs


def fixed_matrix(pattern, fixed, slots):
    """The fixed part of a step plan's scatter: the fixed values on their
    own entries of pattern, stored zeros included."""
    at = slots[:fixed.size]
    keep = np.zeros(pattern.nnz, dtype=bool)
    keep[at] = True
    data = np.zeros(pattern.nnz)
    data[at] = fixed
    indptr = np.concatenate([[0], np.cumsum(keep)])[pattern.indptr]
    return sp.csr_matrix((data[keep], pattern.indices[keep], indptr),
                         shape=pattern.shape)
