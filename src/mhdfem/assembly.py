"""Quadrature tables and element assembly for every form in the solvers.

All integrands arising from the lowest-order spaces with P2 coefficient
fields are polynomial, and the rules are chosen to integrate them exactly:
a degree-4 tet rule for constant-coefficient forms, a degree-6 rule for
forms carrying FE coefficient fields (the convection form and the cross
products against a magnetic field).  Exact integration is what turns the
structural statements (skew-symmetry, adjointness, incidence identities)
into machine-precision matrix facts rather than approximations.

Matrix layout convention: assemble(form, trial, test) returns the matrix
M[i, j] = form(trial_j, test_i), i.e. rows run over test DOFs.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from .derham import (
    FeSpace,
    p1_values,
    p2_values,
    tabulate_nedelec,
    tabulate_p2_gradients,
    tabulate_rt,
)
from .linalg import AssemblyError, BlockSystem, SparseMatrix, finalize_assembly

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
    """Tet rule plus the lower-dimensional rules used by DOF functionals;
    hashed by identity, so a rule can key a table of tabulations."""

    tet_points: np.ndarray    # (nq, 3) reference coordinates
    tet_weights: np.ndarray   # sum = 1/6
    tri_points: np.ndarray    # (7, 3) barycentric
    tri_weights: np.ndarray   # sum = 1/2
    edge_points: np.ndarray   # (4,) on [0, 1]
    edge_weights: np.ndarray  # sum = 1


_TRI_P, _TRI_W = _tri5_rule()
_EDGE_P, _EDGE_W = _edge_rule()
_TET6_P, _TET6_W = _tet6_rule()

RULE_DEG4 = QuadratureRule(_TET4[:, :3].copy(), _TET4[:, 3].copy(),
                           _TRI_P, _TRI_W, _EDGE_P, _EDGE_W)
RULE_DEG6 = QuadratureRule(_TET6_P, _TET6_W, _TRI_P, _TRI_W, _EDGE_P, _EDGE_W)

# rules backing the canonical DOF functionals (interpolation)
DOF_TET_RULE = (np.column_stack([1.0 - _TET4[:, :3].sum(axis=1), _TET4[:, :3]]),
                _TET4[:, 3].copy())
DOF_TRI_RULE = (_TRI_P, _TRI_W)
DOF_EDGE_RULE = (_EDGE_P, _EDGE_W)


def _bary(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    return np.column_stack([1.0 - points.sum(axis=1), points])


# ---------------------------------------------------------------------------
# forms

_TAGS = ("VectorLaplacian", "Mass", "MixedDiv", "Convection", "CrossCoupling")


@dataclass(frozen=True, eq=False)
class FormKind:
    """Weak-form tag plus the coefficient field it closes over.

    coeff holds velocity coefficients for Convection and face-element
    (magnetic) coefficients for CrossCoupling; unused otherwise.
    """

    tag: str
    coeff: np.ndarray | None = None

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise AssemblyError(f"unknown form tag {self.tag!r}")


_SHORT = {("P1", 1): "P1", ("P2", 1): "P2", ("P2", 3): "velocity",
          ("NedelecEdge0", 1): "edge", ("RaviartThomas0", 1): "face",
          ("DG0", 1): "cell"}


def _check_pair(form: FormKind, trial: FeSpace, test: FeSpace, pairs) -> str:
    if trial.mesh is not test.mesh:
        raise AssemblyError("trial and test spaces live on different meshes")
    tagpair = (_SHORT[(trial.kind.tag, trial.kind.components)],
               _SHORT[(test.kind.tag, test.kind.components)])
    if tagpair not in pairs:
        raise AssemblyError(
            f"form {form.tag} does not accept trial={tagpair[0]}, test={tagpair[1]}")
    return "-".join(tagpair)


def _tet_weights(mesh, rule: QuadratureRule) -> np.ndarray:
    # reference weights sum to 1/6; |detJ| = 6 * volume
    return (6.0 * mesh.volumes)[:, None] * rule.tet_weights[None, :]


def _p2_dofs(mesh) -> np.ndarray:
    return np.concatenate([mesh.tets, mesh.num_vertices + mesh.tet_edges], axis=1)


def _velocity_dofs(mesh) -> np.ndarray:
    """Velocity DOF of each (tet, component, local P2 function), (T, 3, 10)."""
    n = mesh.num_vertices + mesh.num_edges
    return _p2_dofs(mesh)[:, None, :] + n * np.arange(3)[None, :, None]


def _finalize_elements(rows, cols, elem, trial: FeSpace,
                       test: FeSpace) -> SparseMatrix:
    """Sum element arrays into the global matrix; rows and cols hold the
    global DOFs of the entries and broadcast against elem."""
    rows, cols, vals = np.broadcast_arrays(rows, cols, elem)
    return finalize_assembly(rows.ravel(), cols.ravel(), vals.ravel(),
                             (test.dof_count, trial.dof_count))


class Tabulation:
    """Basis functions of one mesh at the points of one tet rule.

    wq (T, nq) physical weights, p2 (nq, 10) P2 values, vel_dofs (T, 3, 10)
    the velocity DOF of each (tet, component, local P2 function); points
    (T, nq, 3), p2_grads (T, nq, 10, 3), ned (T, nq, 6, 3) and rt
    (T, nq, 4, 3) are tabulated on first use.
    """

    def __init__(self, mesh, rule: QuadratureRule):
        self.mesh = mesh
        self.lam = _bary(rule.tet_points)
        self.wq = _tet_weights(mesh, rule)
        self.p2 = p2_values(self.lam)
        self.vel_dofs = _velocity_dofs(mesh)

    @cached_property
    def points(self) -> np.ndarray:
        return np.einsum("qi,tik->tqk", self.lam,
                         self.mesh.vertices[self.mesh.tets])

    @cached_property
    def p2_grads(self) -> np.ndarray:
        return tabulate_p2_gradients(self.mesh, self.lam)

    @cached_property
    def ned(self) -> np.ndarray:
        return tabulate_nedelec(self.mesh, self.lam)[0]

    @cached_property
    def rt(self) -> np.ndarray:
        return tabulate_rt(self.mesh, self.lam)[0]

    def _local(self, coeff, dofs, size, what) -> np.ndarray:
        coeff = np.asarray(coeff, dtype=float)
        if coeff.shape != (size,):
            raise AssemblyError(f"{what} coefficient vector has wrong length")
        return coeff[dofs]

    # FE functions at the points, (T, nq, 3)
    def velocity_at(self, u) -> np.ndarray:
        m = self.mesh
        u = self._local(u, self.vel_dofs, 3 * (m.num_vertices + m.num_edges),
                        "velocity")
        return np.matmul(self.p2, u.transpose(0, 2, 1))

    def edge_at(self, e) -> np.ndarray:
        e = self._local(e, self.mesh.tet_edges, self.mesh.num_edges,
                        "edge-element")
        return np.einsum("tqek,te->tqk", self.ned, e)

    def face_at(self, b) -> np.ndarray:
        b = self._local(b, self.mesh.tet_faces, self.mesh.num_faces,
                        "face-element")
        return np.einsum("tqfk,tf->tqk", self.rt, b)

    def edge_load(self, field_at) -> np.ndarray:
        """(field, w_e) for every edge function, field given at the points."""
        at = np.matmul(self.ned, field_at[..., None])[..., 0]
        elem = np.matmul(self.wq[:, None, :], at)[:, 0]
        return np.bincount(self.mesh.tet_edges.ravel(), elem.ravel(),
                           minlength=self.mesh.num_edges)


# ---------------------------------------------------------------------------
# element kernels of the iterate-dependent forms: batched matrix products
# against a Tabulation, shared by assemble() and the Picard steps


def convection_elements(tab: Tabulation, w) -> np.ndarray:
    """1/2 [(w.grad phi_j, phi_i) - (w.grad phi_i, phi_j)], (T, 3, 10, 10):
    one scalar block, repeated on the three velocity components."""
    wgrad = np.matmul(tab.p2_grads, tab.velocity_at(w)[..., None])[..., 0]
    adv = np.matmul(tab.p2.T * tab.wq[:, None, :], wgrad)
    elem = 0.5 * (adv - adv.transpose(0, 2, 1))
    return np.broadcast_to(elem[:, None], (elem.shape[0], 3, 10, 10))


def cross_elements(tab: Tabulation, g) -> np.ndarray:
    """((phi_(c,i) x G), w_j) = (e_c, (G x w_j) phi_i), (T, 3, 10, 6)."""
    t, q = tab.wq.shape
    gxw = np.cross(tab.face_at(g)[:, :, None, :], tab.ned)
    out = np.matmul(tab.p2.T * tab.wq[:, None, :], gxw.reshape(t, q, 18))
    return out.reshape(t, 10, 6, 3).transpose(0, 3, 1, 2)


def cross_cross_elements(tab: Tabulation, g) -> np.ndarray:
    """((phi_(d,j) x G), (phi_(c,i) x G)), (T, 3, 3, 10, 10) over c, d, i, j."""
    t, q = tab.wq.shape
    basis_cross = np.cross(np.eye(3)[None, None], tab.face_at(g)[:, :, None])
    cc = np.matmul(basis_cross, basis_cross.transpose(0, 1, 3, 2))
    pp = (tab.p2[:, :, None] * tab.p2[:, None, :]).reshape(q, 100)
    wcc = (tab.wq[:, :, None] * cc.reshape(t, q, 9)).transpose(0, 2, 1)
    return np.matmul(wcc.reshape(t * 9, q), pp).reshape(t, 3, 3, 10, 10)


# name -> (kernel, rule integrating it exactly); a single cross product
# is degree 4, convection and the double cross product degree 6
ELEMENT_KERNELS = {"convection": (convection_elements, RULE_DEG6),
                   "cross": (cross_elements, RULE_DEG4),
                   "cross_cross": (cross_cross_elements, RULE_DEG6)}


def element_dofs(mesh, kernel: str) -> tuple:
    """Global (row, col) DOFs of a kernel's element array, broadcastable
    to its shape; the cross kernel's rows are edges, its columns velocity."""
    vd = _velocity_dofs(mesh)
    if kernel == "convection":
        return vd[:, :, :, None], vd[:, :, None, :]
    if kernel == "cross_cross":
        return vd[:, :, None, :, None], vd[:, None, :, None, :]
    return mesh.tet_edges[:, None, None, :], vd[:, :, :, None]


def _assemble_elements(kernel: str, coeff, trial: FeSpace, test: FeSpace,
                       transpose: bool = False) -> SparseMatrix:
    func, rule = ELEMENT_KERNELS[kernel]
    rows, cols = element_dofs(trial.mesh, kernel)
    if transpose:
        rows, cols = cols, rows
    return _finalize_elements(rows, cols, func(Tabulation(trial.mesh, rule),
                                                coeff), trial, test)


def assemble(form: FormKind, trial: FeSpace, test: FeSpace) -> SparseMatrix:
    """Assemble the global matrix of a weak form, rows over test DOFs.

    MixedDiv is the velocity-pressure pairing (div u, q).  The divergence
    and curl pairings of the de Rham spaces are integer incidence matrices
    composed with mass matrices (derham.div_incidence, curl_incidence) and
    are not assembled here.
    """
    mesh = trial.mesh
    tag = form.tag

    if tag == "VectorLaplacian":
        _check_pair(form, trial, test, [("velocity", "velocity")])
        rule = RULE_DEG4
        lam = _bary(rule.tet_points)
        grads = tabulate_p2_gradients(mesh, lam)
        wq = _tet_weights(mesh, rule)
        elem = np.einsum("tq,tqik,tqjk->tij", wq, grads, grads)
        vd = _velocity_dofs(mesh)
        return _finalize_elements(vd[:, :, :, None], vd[:, :, None, :],
                                  elem[:, None], trial, test)

    if tag == "Mass":
        return _assemble_mass(form, trial, test)

    if tag == "MixedDiv":
        _check_pair(form, trial, test, [("velocity", "P1")])
        return _div_velocity_p1(trial, test)

    if tag in ("Convection", "CrossCoupling"):
        kind = _check_pair(form, trial, test, [
            ("velocity", "velocity"), ("velocity", "edge"), ("edge", "velocity")]
            if tag == "CrossCoupling" else [("velocity", "velocity")])
        if form.coeff is None:
            field = "velocity" if tag == "Convection" else "face-element"
            raise AssemblyError(f"{tag} needs a {field} coefficient field")
        if tag == "Convection":
            return _assemble_elements("convection", form.coeff, trial, test)
        if kind == "velocity-velocity":
            return _assemble_elements("cross_cross", form.coeff, trial, test)
        return _assemble_elements("cross", form.coeff, trial, test,
                                  transpose=kind == "edge-velocity")

    raise AssemblyError(f"unknown form tag {tag!r}")


def _assemble_mass(form: FormKind, trial: FeSpace, test: FeSpace) -> SparseMatrix:
    kind = _check_pair(form, trial, test, [
        ("velocity", "velocity"), ("P2", "P2"), ("P1", "P1"),
        ("edge", "edge"), ("face", "face"), ("cell", "cell")])
    mesh = trial.mesh
    rule = RULE_DEG4
    lam = _bary(rule.tet_points)
    wq = _tet_weights(mesh, rule)

    if kind == "cell-cell":
        n = mesh.num_tets
        return finalize_assembly(np.arange(n), np.arange(n), mesh.volumes, (n, n))
    if kind in ("velocity-velocity", "P2-P2", "P1-P1"):
        vals = p1_values(lam) if kind == "P1-P1" else p2_values(lam)
        elem = np.einsum("tq,qi,qj->tij", wq, vals, vals)
        if kind == "velocity-velocity":
            vd = _velocity_dofs(mesh)
            return _finalize_elements(vd[:, :, :, None], vd[:, :, None, :],
                                      elem[:, None], trial, test)
        gd = mesh.tets if kind == "P1-P1" else _p2_dofs(mesh)
    else:
        if kind == "edge-edge":
            vals, _ = tabulate_nedelec(mesh, lam)
            gd = mesh.tet_edges
        else:
            vals, _ = tabulate_rt(mesh, lam)
            gd = mesh.tet_faces
        elem = np.einsum("tq,tqik,tqjk->tij", wq, vals, vals)
    return _finalize_elements(gd[:, :, None], gd[:, None, :], elem,
                              trial, test)


def _div_velocity_p1(vel: FeSpace, p1: FeSpace) -> SparseMatrix:
    """Matrix of (div u, q): rows P1 test, cols velocity trial."""
    mesh = vel.mesh
    lam = _bary(RULE_DEG4.tet_points)
    grads = tabulate_p2_gradients(mesh, lam)
    wq = _tet_weights(mesh, RULE_DEG4)
    elem = np.stack([np.einsum("tq,qi,tqj->tij", wq, p1_values(lam),
                               grads[:, :, :, c]) for c in range(3)], axis=1)
    return _finalize_elements(mesh.tets[:, None, :, None],
                              _velocity_dofs(mesh)[:, :, None, :], elem,
                              vel, p1)


def assemble_load(space: FeSpace, field, rule: QuadratureRule = RULE_DEG6) -> np.ndarray:
    """Load vector (field, phi_i) by tet quadrature on an analytic field."""
    mesh, tag = space.mesh, space.kind.tag
    tab = Tabulation(mesh, rule)
    f = np.asarray(field(tab.points.reshape(-1, 3)), dtype=float)
    f = f.reshape(*tab.wq.shape, -1)
    if tag == "DG0":
        return np.einsum("tq,tq->t", tab.wq, f[..., 0])
    if tag in ("P1", "P2"):
        vals = p1_values(tab.lam) if tag == "P1" else tab.p2
        elem = np.einsum("tq,tqc,qi->tci", tab.wq, f, vals)
        gd = (mesh.tets[:, None, :] if tag == "P1"
              else tab.vel_dofs[:, :space.kind.components])
    elif tag in ("NedelecEdge0", "RaviartThomas0"):
        edge = tag == "NedelecEdge0"
        elem = np.einsum("tq,tqk,tqik->ti", tab.wq, f,
                         tab.ned if edge else tab.rt)
        gd = mesh.tet_edges if edge else mesh.tet_faces
    else:
        raise AssemblyError(f"cannot build a load vector for {tag!r}")
    return np.bincount(gd.ravel(), elem.ravel(), minlength=space.dof_count)


def apply_essential_bc(system: BlockSystem, masks: dict) -> BlockSystem:
    """Restrict a block system to free DOFs (homogeneous essential BCs).

    masks maps space names to boolean constrained-DOF masks; spaces without
    a mask keep all DOFs.  Rows and columns are deleted symmetrically; with
    homogeneous data the RHS needs no lift.
    """
    free = {}
    reduced_spaces = []
    for name, dim in system.spaces:
        mask = masks.get(name)
        if mask is None:
            idx = np.arange(dim)
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.size != dim:
                raise AssemblyError(
                    f"mask for {name!r} has length {mask.size}, expected {dim}")
            idx = np.flatnonzero(~mask)
        free[name] = idx
        reduced_spaces.append((name, idx.size))

    out = BlockSystem(reduced_spaces)
    for rname, cname, mat in system._blocks:
        out.add_block(rname, cname, mat[free[rname]][:, free[cname]])
    for name, vec in system._rhs.items():
        out.set_rhs(name, vec[free[name]])
    return out
