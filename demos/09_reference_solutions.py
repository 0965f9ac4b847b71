"""The two reference-solution paths and how they relate.

The continuous path expands the data in Dirichlet eigenfunctions of the
square (closed-form sine coefficients) and propagates each mode with
Mittag-Leffler kernels. The discrete path does the same with the eigenpairs
of the interior FEM matrices and is exact in time for the semidiscrete
problem, which is what makes clean temporal-rate measurements possible.
The two differ exactly by the spatial discretization error, O(h^2).
"""

import math

import numpy as np

from fracstep import meshfem as mf
from fracstep import reference as ref

case = ref.get_case("a", 0.5)

print("closed-form modal coefficients of the bubble data (odd modes only)")
for k, l in ((1, 1), (1, 3), (3, 3), (2, 1)):
    print(f"  (v, phi_{k}{l}) = {case.vhat(float(k), float(l)):.6e}")

exp = ref.modal_coefficients(case, 255)
print(f"\nParseval check: sum of squared coefficients = {np.sum(exp.vcoef ** 2):.10f}")
print(f"                exact ||v||^2               = {1.0 / 900.0:.10f}")

print("\nsolution norms over time (series amplitudes, 255 modes per axis)")
print(f"  {'t':>6} {'||u||_L2':>12} {'|u|_H1':>12} {'u(center)':>12}")
# u(1/2, 1/2) = 2 sum A[k, l] sin(k pi/2) sin(l pi/2)
sx, sy = np.sin(0.5 * math.pi * exp.ks), np.sin(0.5 * math.pi * exp.ls)
for t in (0.0, 0.001, 0.01, 0.1, 1.0):
    sol = ref.exact_solution(case, exp, t)
    center = 2.0 * float(sx @ sol.amplitudes @ sy)
    print(f"  {t:>6g} {sol.l2_norm():12.5e} {sol.h1_seminorm():12.5e} {center:12.5e}")

print("\ncontinuous vs time-exact discrete reference (difference is O(h^2))")
print("measured in closed form in the sine view, as a spatial study measures a cell")
t = 0.1
sol = ref.exact_solution(case, exp, t)
prev = None
for M in (4, 8, 16):
    sys_ = mf.fem_system(M).sine
    disc = ref.discrete_reference(sys_, case, t)
    l2, _ = sol.error_norms(sys_, disc)
    note = "" if prev is None else f"   ratio {prev / l2:.2f} (expect 4)"
    print(f"  M={M:3d}: |discrete - series|_L2 = {l2:.3e}{note}")
    prev = l2
