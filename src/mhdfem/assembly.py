"""Quadrature tables, per-mesh basis tabulations and the element kernels
of every form in the solvers.

All integrands arising from the lowest-order spaces with P2 coefficient
fields are polynomial, and each is integrated exactly: the fixed forms,
whose coefficients are constant on each tet, in closed form (the tet's
volume times a reference average), and the forms carrying FE coefficient
fields by a tet rule of their degree, 4 for a single cross product against
a magnetic field, 6 for the convection form and the double cross product.
Exact integration is what turns the structural statements (skew-symmetry,
adjointness, incidence identities) into machine-precision matrix facts
rather than approximations.

Each form is an element kernel: <name>_elements(tab[, coeff]) contracts
the bases of a Tabulation into one element array per tet, and
element_dofs(mesh, name) gives the global row and column of each entry,
rows over test DOFs.  kernel_matrix sums the fixed forms' arrays into the
matrices of operators.DiscreteOps; the Picard steps scatter the arrays of
the forms that carry an iterate (convection, cross couplings) into their
own pattern.  Loads integrate data given at a tabulation's points.

A Tabulation keeps one rule's reference tables and per-tet coefficients,
never a basis at every point of every tet: that is T nq times the basis
size, and would grow to about 0.41 GB at 16^3 for the two rules.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss

from .derham import (
    FeSpace,
    p2_derivatives,
    p2_values,
    tet_field,
    whitney_coefficients,
)

# ---------------------------------------------------------------------------
# quadrature
#
# The 11-point tet rule is exact through degree 4 with all-positive weights;
# weights sum to the reference volume 1/6.  Verified against the monomial
# moments a!b!c!/(a+b+c+3)!.

_TET4 = np.array([
    (0.44204369537695565, 0.11007376783791513, 0.10577547000968035, 0.024018746373476983),
    (0.36981062614058663, 0.10115200829485037, 0.47741621913400617, 0.016395975018442723),
    (0.08195043518763263, 0.7857641195232954, 0.07727120054273312, 0.007375961222335013),
    (0.020067959522003152, 0.14217646446206764, 0.26234842680647713, 0.010766750424420652),
    (0.17972961657353304, 0.06544061748336333, 0.4092331254405425, 0.019745602433285634),
    (0.03273582089367767, 0.08195117847949455, 0.7869153205797601, 0.0071131073451761685),
    (0.09711939553031529, 0.403415993675296, 0.38889645777638676, 0.024980726731268013),
    (0.11095035197059509, 0.4450387340269152, 0.0750889630562039, 0.02121406158933875),
    (0.7793281849378222, 0.05298330373751188, 0.09962738457355212, 0.007489771988893313),
    (0.13274635076506328, 0.07286875566378248, 0.03437862772623808, 0.007710714143930963),
    (0.4403516742009084, 0.38706660645444335, 0.09602915027786478, 0.019855249396098458),
])


def _tet6_rule():
    # symmetric 24-point rule, exact through degree 6
    pts, wts = [], []
    for a, w in ((0.214602871259152, 0.0399227502581679),
                 (0.0406739585346113, 0.0100772110553207),
                 (0.322337890142275, 0.0553571815436544)):
        base = (a, a, a, 1.0 - 3.0 * a)
        for p in sorted(set(itertools.permutations(base))):
            pts.append(p)
            wts.append(w)
    a, b = 0.0636610018750175, 0.269672331458316
    base = (a, a, b, 1.0 - 2.0 * a - b)
    for p in sorted(set(itertools.permutations(base))):
        pts.append(p)
        wts.append(27.0 / 560.0)
    bary = np.array(pts)
    return bary[:, 1:], np.array(wts) / 6.0


def _tri5_rule():
    # 7-point degree-5 rule in barycentric coordinates, weights sum to 1/2
    a = (6.0 - np.sqrt(15.0)) / 21.0
    b = (6.0 + np.sqrt(15.0)) / 21.0
    wa = (155.0 - np.sqrt(15.0)) / 1200.0
    wb = (155.0 + np.sqrt(15.0)) / 1200.0
    pts = [(1 / 3, 1 / 3, 1 / 3)]
    wts = [9.0 / 40.0]
    for c, w in ((a, wa), (b, wb)):
        base = (c, c, 1.0 - 2.0 * c)
        for p in sorted(set(itertools.permutations(base))):
            pts.append(p)
            wts.append(w)
    return np.array(pts), np.array(wts) / 2.0


def _edge_rule():
    x, w = leggauss(4)
    return (x + 1.0) / 2.0, w / 2.0


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Tet rule; hashed by identity, so a rule can key a table of
    tabulations."""

    tet_points: np.ndarray    # (nq, 3) reference coordinates
    tet_weights: np.ndarray   # sum = 1/6


RULE_DEG4 = QuadratureRule(_TET4[:, :3].copy(), _TET4[:, 3].copy())
RULE_DEG6 = QuadratureRule(*_tet6_rule())

# rules backing the canonical DOF functionals (interpolation)
DOF_TET_RULE = (np.column_stack([1.0 - _TET4[:, :3].sum(axis=1), _TET4[:, :3]]),
                _TET4[:, 3].copy())
DOF_TRI_RULE = _tri5_rule()
DOF_EDGE_RULE = _edge_rule()


def _bary(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    return np.column_stack([1.0 - points.sum(axis=1), points])


# ---------------------------------------------------------------------------
# tabulation


def quadrature_points(mesh, rule: QuadratureRule) -> np.ndarray:
    """The rule's points on every tet of mesh, (T, nq, 3)."""
    return np.einsum("qi,tik->tqk", _bary(rule.tet_points),
                     mesh.vertices[mesh.tets])


def _velocity_dofs(mesh) -> np.ndarray:
    """Velocity DOF of each (tet, component, local P2 function), (T, 3, 10)."""
    n = mesh.num_vertices + mesh.num_edges
    p2 = np.concatenate([mesh.tets, mesh.num_vertices + mesh.tet_edges],
                        axis=1)
    return p2[:, None, :] + n * np.arange(3)[None, :, None]


class Tabulation:
    """One tet rule's reference tables, and one mesh's bases as per-tet
    coefficients.

    Per rule: lam (nq, 4) barycentric coordinates of the points, which are
    also the P1 values, p2 (nq, 10) P2 values and dp2 (nq, 10, 4) their
    barycentric derivatives.  Per tet: vel_dofs (T, 3, 10), the velocity
    DOF of each (tet, component, local P2 function), and ned (T, 6, 4, 3)
    and rt (T, 4, 4, 3), the edge and face functions as barycentric
    coefficients (derham.whitney_coefficients).  No array held has both a
    tet and a point axis: wq and points are computed when read, and a
    field or basis at the points lives only in the call that needs it,
    which combines per-tet coefficients first and evaluates at the points
    second.
    """

    def __init__(self, mesh, rule: QuadratureRule, like=None):
        """like, a tabulation of the same mesh, lends its per-tet arrays."""
        self.mesh = mesh
        self.rule = rule
        self.lam = _bary(rule.tet_points)
        self.p2 = p2_values(self.lam)
        self.dp2 = p2_derivatives(self.lam)
        if like is None:
            self.vel_dofs = _velocity_dofs(mesh)
            self.ned = whitney_coefficients(mesh, "NedelecEdge0")
            self.rt = whitney_coefficients(mesh, "RaviartThomas0")
        else:
            self.vel_dofs, self.ned, self.rt = like.vel_dofs, like.ned, like.rt

    @property
    def wq(self) -> np.ndarray:
        """Physical weights (T, nq): the reference weights sum to 1/6, and
        |detJ| = 6 * volume."""
        return (6.0 * self.mesh.volumes)[:, None] \
            * self.rule.tet_weights[None, :]

    @property
    def points(self) -> np.ndarray:
        return quadrature_points(self.mesh, self.rule)

    def l2sq(self, field_at) -> float:
        """Squared L2 norm of a vector field at the points, (T, nq, 3)."""
        return float(np.sum(self.wq * np.einsum("tqk,tqk->tq", field_at,
                                                field_at)))

    def _local(self, coeff, dofs, size, what) -> np.ndarray:
        coeff = np.asarray(coeff, dtype=float)
        if coeff.shape != (size,):
            raise ValueError(f"{what} coefficient vector has wrong length")
        return coeff[dofs]

    def _velocity(self, u) -> np.ndarray:
        """Local velocity coefficients, (T, 3, 10)."""
        n = 3 * (self.mesh.num_vertices + self.mesh.num_edges)
        return self._local(u, self.vel_dofs, n, "velocity")

    # FE functions at the points, (T, nq, 3)
    def velocity_at(self, u) -> np.ndarray:
        at = np.matmul(self._velocity(u).reshape(-1, 10), self.p2.T)
        return at.reshape(len(self.vel_dofs), 3, -1).transpose(0, 2, 1)

    def velocity_grad(self, u) -> np.ndarray:
        """grad u at the points, (T, nq, 3, 3), [..., c, k] = d u_c/d x_k:
        the barycentric derivatives at the points, then the chain rule."""
        u = self._velocity(u)
        dp2 = self.dp2.transpose(1, 0, 2).reshape(10, -1)
        du = np.matmul(u.reshape(-1, 10), dp2).reshape(len(u), -1, 4)
        grad = np.matmul(du, self.mesh.grad_bary).reshape(len(u), 3, -1, 3)
        return grad.transpose(0, 2, 1, 3)

    def edge_at(self, e) -> np.ndarray:
        e = self._local(e, self.mesh.tet_edges, self.mesh.num_edges,
                        "edge-element")
        return np.matmul(self.lam, tet_field(self.ned, e))

    def face_at(self, b) -> np.ndarray:
        b = self._local(b, self.mesh.tet_faces, self.mesh.num_faces,
                        "face-element")
        return np.matmul(self.lam, tet_field(self.rt, b))

    def moments(self, basis, field_at) -> np.ndarray:
        """(field, w_i) on each tet for each function of basis, ned or rt,
        (T, n): the weighted field's barycentric moments (T, 4, 3) first,
        then the coefficients."""
        f = np.matmul(self.lam.T, self.wq[..., None] * field_at)
        return np.matmul(basis.reshape(*basis.shape[:2], 12),
                         f.reshape(-1, 12, 1))[..., 0]


# ---------------------------------------------------------------------------
# element kernels of the fixed forms, in closed form.  Each integrand is a
# polynomial in the barycentric coordinates with coefficients constant on a
# tet (grad_bary, ned, rt), so each kernel is the tet's volume times one
# reference tensor, an average over the tet, contracted with them; no rule
# and no point enters.  The averages of lam lam, phi phi, (dphi/dlam)
# (dphi/dlam) and lam dphi/dlam are multiples of 1/840: their integrands
# have integer coefficients and degree at most 4, and lam^a averages to
# 6 a! / (|a| + 3)!.  So the degree-4 rule's sums, rounded to that grid,
# are exact.


def _reference_averages():
    lam = _bary(RULE_DEG4.tet_points)
    p2, dp2 = p2_values(lam), p2_derivatives(lam)

    def average(spec, *tables):
        total = np.einsum(spec, 6.0 * RULE_DEG4.tet_weights, *tables)
        return np.round(840.0 * total) / 840.0

    return (average("q,qi,qj->ij", lam, lam), average("q,qi,qj->ij", p2, p2),
            average("q,qim,qjn->imjn", dp2, dp2),
            average("q,qi,qjm->ijm", lam, dp2))


# (4, 4), (10, 10), (10, 4, 10, 4) and (4, 10, 4)
_LAM_LAM, _P2_P2, _DP2_DP2, _LAM_DP2 = _reference_averages()


def velocity_mass_elements(tab: Tabulation) -> np.ndarray:
    """(phi_j, phi_i), (T, 1, 10, 10): one scalar block, repeated on the
    three velocity components."""
    return tab.mesh.volumes[:, None, None, None] * _P2_P2


def laplacian_elements(tab: Tabulation) -> np.ndarray:
    """(grad phi_j, grad phi_i), (T, 1, 10, 10), repeated likewise."""
    g = tab.mesh.grad_bary
    gg = np.matmul(g, g.transpose(0, 2, 1)).reshape(-1, 16)
    elem = np.matmul(gg, _DP2_DP2.transpose(1, 3, 0, 2).reshape(16, 100))
    return (tab.mesh.volumes[:, None] * elem).reshape(-1, 1, 10, 10)


def divergence_elements(tab: Tabulation) -> np.ndarray:
    """(d_c phi_j, psi_i) of velocity component c against the P1 hat psi_i,
    (T, 3, 4, 10)."""
    div = np.matmul(tab.mesh.grad_bary.transpose(0, 2, 1),
                    _LAM_DP2.transpose(2, 0, 1).reshape(4, 40))
    return tab.mesh.volumes[:, None, None, None] * div.reshape(-1, 3, 4, 10)


def pressure_mass_elements(tab: Tabulation) -> np.ndarray:
    """(psi_j, psi_i) of the P1 hats, (T, 4, 4)."""
    return tab.mesh.volumes[:, None, None] * _LAM_LAM


def _whitney_mass(tab: Tabulation, basis: np.ndarray) -> np.ndarray:
    """(w_j, w_i) of the functions of basis, ned or rt, (T, n, n)."""
    n = basis.shape[1]
    weighted = np.matmul(_LAM_LAM, basis).reshape(-1, n, 12)
    return tab.mesh.volumes[:, None, None] * np.matmul(
        weighted, basis.reshape(-1, n, 12).transpose(0, 2, 1))


def edge_mass_elements(tab: Tabulation) -> np.ndarray:
    """(w_j, w_i) of the edge functions, (T, 6, 6)."""
    return _whitney_mass(tab, tab.ned)


def face_mass_elements(tab: Tabulation) -> np.ndarray:
    """(w_j, w_i) of the face functions, (T, 4, 4)."""
    return _whitney_mass(tab, tab.rt)


# ---------------------------------------------------------------------------
# element kernels of the iterate-dependent forms, scattered by the Picard
# steps: the iterate is combined on each tet first, and every contraction
# over the points is one matrix product


def convection_elements(tab: Tabulation, w) -> np.ndarray:
    """1/2 [(w.grad phi_j, phi_i) - (w.grad phi_i, phi_j)], (T, 3, 10, 10):
    one scalar block, repeated on the three velocity components."""
    wq = tab.wq
    t, q = wq.shape
    # w.grad lam_m at the points, weighted, (T, 4 nq) over (m, point)
    wg = np.matmul(np.matmul(tab.mesh.grad_bary, tab._velocity(w))
                   .reshape(-1, 10), tab.p2.T).reshape(t, 4, q)
    wg = (wg * wq[:, None]).reshape(t, 4 * q)
    # w.grad phi_j = sum_m dp2[:, j, m] w.grad lam_m, so one table of the
    # rule, phi_i dphi_j/dlam_m made skew in (i, j), takes every point
    pd = tab.p2[None, :, :, None] * tab.dp2.transpose(2, 0, 1)[:, :, None]
    skew = 0.5 * (pd - pd.transpose(0, 1, 3, 2))
    elem = np.matmul(wg, skew.reshape(4 * q, 100)).reshape(t, 10, 10)
    return np.broadcast_to(elem[:, None], (t, 3, 10, 10))


def cross_elements(tab: Tabulation, g) -> np.ndarray:
    """((phi_(c,i) x G), w_j) = (e_c, (G x w_j) phi_i), (T, 3, 10, 6)."""
    wq = tab.wq
    t, q = wq.shape
    gq = tab.face_at(g)[:, :, None]                       # (T, nq, 1, 3)
    # the edge functions at the points, for this call only, (T, nq, 6, 3)
    ned = np.matmul(tab.lam, tab.ned.transpose(0, 2, 1, 3).reshape(t, 4, 18))
    ned = ned.reshape(t, q, 6, 3)
    gxw = np.stack([gq[..., a] * ned[..., b] - gq[..., b] * ned[..., a]
                    for a, b in ((1, 2), (2, 0), (0, 1))], axis=1)
    return np.matmul((tab.p2.T * wq[:, None, :])[:, None], gxw)


def cross_cross_elements(tab: Tabulation, g) -> np.ndarray:
    """((phi_(d,j) x G), (phi_(c,i) x G)), (T, 3, 3, 10, 10) over c, d, i, j."""
    wq = tab.wq
    t, q = wq.shape
    # w (e_c x G).(e_d x G) = w (|G|^2 delta_cd - G_c G_d), (T, 3, 3, nq)
    gt = tab.face_at(g).transpose(0, 2, 1)
    wcc = -(gt[:, :, None] * (wq[:, None] * gt)[:, None])
    g2 = (gt * gt).sum(axis=1, keepdims=True)
    wcc.reshape(t, 9, q)[:, ::4] += wq[:, None] * g2
    pp = (tab.p2[:, :, None] * tab.p2[:, None, :]).reshape(q, 100)
    return np.matmul(wcc.reshape(t * 9, q), pp).reshape(t, 3, 3, 10, 10)


# kernel name -> rule integrating <name>_elements exactly: a single cross
# product is degree 4, convection and the double cross product degree 6;
# the fixed forms read no point, and name the degree-4 rule
KERNEL_RULES = {"velocity_mass": RULE_DEG4, "laplacian": RULE_DEG4,
                "divergence": RULE_DEG4, "pressure_mass": RULE_DEG4,
                "edge_mass": RULE_DEG4, "face_mass": RULE_DEG4,
                "convection": RULE_DEG6, "cross": RULE_DEG4,
                "cross_cross": RULE_DEG6}


def element_dofs(mesh, kernel: str) -> tuple:
    """Global (row, col) DOFs of a kernel's element array, broadcastable
    to its shape, and the global matrix's shape.  Rows run over test DOFs:
    the cross kernel's rows are edges and its columns velocity, the
    divergence kernel's rows pressure."""
    vd = _velocity_dofs(mesh)
    n_vel, n_edge = 3 * (mesh.num_vertices + mesh.num_edges), mesh.num_edges
    if kernel in ("velocity_mass", "laplacian", "convection"):
        return vd[:, :, :, None], vd[:, :, None, :], (n_vel, n_vel)
    if kernel == "cross_cross":
        return vd[:, :, None, :, None], vd[:, None, :, None, :], (n_vel, n_vel)
    if kernel == "cross":
        return mesh.tet_edges[:, None, None, :], vd[:, :, :, None], \
            (n_edge, n_vel)
    if kernel == "divergence":
        return mesh.tets[:, None, :, None], vd[:, :, None, :], \
            (mesh.num_vertices, n_vel)
    local, n = {"pressure_mass": (mesh.tets, mesh.num_vertices),
                "edge_mass": (mesh.tet_edges, n_edge),
                "face_mass": (mesh.tet_faces, mesh.num_faces)}[kernel]
    return local[:, :, None], local[:, None, :], (n, n)


def kernel_matrix(tab: Tabulation, kernel: str, *coeff) -> sp.csr_matrix:
    """Global matrix of <kernel>_elements on tab, rows over test DOFs; an
    iterate kernel takes its coefficient vector as coeff.

    One COO-to-CSR conversion sums the duplicates; the triplets always
    arrive in canonical element order, so the result is deterministic.
    """
    # looked up when called, so a rebinding of the module's kernel (a
    # profiler's, say) takes effect
    elem = globals()[f"{kernel}_elements"](tab, *coeff)
    rows, cols, shape = element_dofs(tab.mesh, kernel)
    rows, cols, vals = np.broadcast_arrays(rows, cols, elem)
    return sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                         shape=shape)


def assemble_load(tab: Tabulation, space: FeSpace,
                  field_at: np.ndarray) -> np.ndarray:
    """Load vector (field, phi_i) of the velocity, edge- or face-element
    space, the field given at tab's points, (T, nq, 3)."""
    if space.tag == "P2":
        elem = np.matmul(field_at.transpose(0, 2, 1) * tab.wq[:, None], tab.p2)
        dofs = tab.vel_dofs
    elif space.tag == "NedelecEdge0":
        elem = tab.moments(tab.ned, field_at)
        dofs = tab.mesh.tet_edges
    elif space.tag == "RaviartThomas0":
        elem = tab.moments(tab.rt, field_at)
        dofs = tab.mesh.tet_faces
    else:
        raise ValueError(f"cannot build a load vector for {space.tag!r}")
    return np.bincount(dofs.ravel(), elem.ravel(), minlength=space.dof_count)
