"""Mesh construction, the FEM matrices, and the two data projections.

Builds the uniform triangulations (one lower-left-to-upper-right diagonal
per cell), shows that the P1 stiffness matrix realizes the classical
5-point stencil (``fem.stiffness`` is the sine view's, seen in nodal
coordinates; ``to_dense`` forms it column by column), and measures the O(h^2) convergence of the L2 and Ritz projections of a
smooth function.
"""

import numpy as np

from fracstep import meshfem as mf

print("mesh statistics")
for M in (2, 4, 8, 16):
    mesh = mf.build_mesh(M)
    print(
        f"  M={M:3d}: h={mesh.h:<8g} nodes={len(mesh.nodes):5d} "
        f"triangles={len(mesh.triangles):5d} interior dofs={mesh.n_interior}"
    )

print("\n5-point stencil at the center of the M=4 mesh")
sys4 = mf.fem_system(4)
# rounded: the sine transforms leave entries of 1e-16 where the stencil has 0
row = sys4.stiffness.to_dense()[4].round(12) + 0.0
print("  stiffness row:", np.array2string(row, precision=3))
print("  (diagonal 4, axis neighbors -1, diagonal neighbors 0)")

print("\nmass matrix partition of unity")
row_sums = sys4.mass.matvec(np.ones(sys4.n_dof))
print(f"  central row sum = {row_sums[4]:.6f}  (h^2 = {sys4.mesh.h ** 2:.6f})")

g = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
g_grad = lambda x, y: (
    np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
    np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
)

print("\nprojection errors for sin(pi x) sin(pi y)")
print(f"  {'M':>4} {'L2 proj error':>14} {'Ritz proj error':>16}")
prev = None
for M in (8, 16, 32):
    sys_ = mf.fem_system(M)
    e_l2, _ = mf.error_norms(sys_, mf.l2_project(sys_, g), g)
    e_rz, _ = mf.error_norms(sys_, mf.ritz_project(sys_, g_grad), g)
    note = ""
    if prev is not None:
        note = f"   ratios: {prev[0] / e_l2:.2f}, {prev[1] / e_rz:.2f} (expect 4)"
    print(f"  {M:>4} {e_l2:14.3e} {e_rz:16.3e}{note}")
    prev = (e_l2, e_rz)
