"""Spatial convergence against the truncated series solution.

Refines the mesh at a fixed fine time step and measures L2 and H1 errors
against the eigenfunction-series solution: second order in L2, first order
in the energy seminorm, including for data that only sit in H^(1/2 - eps).
Takes about ten seconds on one core (the finest mesh runs a thousand
steps, and the error norms sum the series at 295k quadrature points).
"""

from fracstep import harness

cfg = harness.StudyConfig(
    case="e",
    alphas=(1.5,),
    schemes=("sbd",),
    kind="spatial",
    M_list=(8, 16, 32, 64),
    N=1000,
    t=0.1,
    K_max=255,
)
report = harness.run_study(cfg)
print(harness.emit(report, "markdown"))

blk = report.blocks[0]
import math

l2_rates = [
    math.log2(blk.err_l2[k] / blk.err_l2[k + 1]) for k in range(len(blk.err_l2) - 1)
]
h1_rates = [
    math.log2(blk.err_h1[k] / blk.err_h1[k + 1]) for k in range(len(blk.err_h1) - 1)
]
print("L2 rates per doubling:", [round(r, 2) for r in l2_rates], "(expect 2)")
print("H1 rates per doubling:", [round(r, 2) for r in h1_rates], "(expect 1)")
