"""Global matrix of one assembly element kernel, for tests that check a
kernel through the whole matrix it stands for."""
import numpy as np

from mhdfem import assembly
from mhdfem.linalg import finalize_assembly


def kernel_matrix(kernel, coeff, mesh, transpose=False):
    """Sum assembly.<kernel>_elements at coefficient coeff into the global
    matrix, rows over test DOFs; transpose swaps the kernel's rows and
    columns (the cross kernel's rows are edges, its columns velocity)."""
    rows, cols = assembly.element_dofs(mesh, kernel)
    tab = assembly.Tabulation(mesh, assembly.KERNEL_RULES[kernel])
    elem = getattr(assembly, f"{kernel}_elements")(tab, coeff)
    n_vel = 3 * (mesh.num_vertices + mesh.num_edges)
    shape = (mesh.num_edges if kernel == "cross" else n_vel, n_vel)
    if transpose:
        rows, cols, shape = cols, rows, shape[::-1]
    rows, cols, vals = np.broadcast_arrays(rows, cols, elem)
    return finalize_assembly(rows.ravel(), cols.ravel(), vals.ravel(), shape)
