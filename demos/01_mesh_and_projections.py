"""Mesh construction, the FEM matrices, and the L2 projection of the data.

Builds the uniform triangulations (one lower-left-to-upper-right diagonal
per cell), shows that the P1 stiffness matrix realizes the classical
5-point stencil (``fem.stiffness`` is the sine view's, seen in nodal
coordinates; ``to_dense`` forms it column by column), and measures the
convergence of the L2 projection of smooth data against its sine series,
in closed form: O(h^2) in L2 and O(h) in H1.
"""

import numpy as np

from fracstep import meshfem as mf
from fracstep import reference as ref

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

# case (a)'s data, the bubble xy(1-x)(1-y), and its sine series at t = 0,
# against which the projection is measured in closed form
case = ref.get_case("a", 0.5)
series = ref.exact_solution(case, ref.modal_coefficients(case, 255), 0.0)

print("\nL2 projection errors for the bubble xy(1-x)(1-y)")
print(f"  {'M':>4} {'L2 error':>12} {'H1 error':>12}")
prev = None
for M in (8, 16, 32):
    sys_ = mf.fem_system(M)
    e_l2, e_h1 = series.error_norms(sys_, mf.l2_project(sys_, case.v))
    note = ""
    if prev is not None:
        note = f"   ratios: {prev[0] / e_l2:.2f} (expect 4), {prev[1] / e_h1:.2f} (expect 2)"
    print(f"  {M:>4} {e_l2:12.3e} {e_h1:12.3e}{note}")
    prev = (e_l2, e_h1)
