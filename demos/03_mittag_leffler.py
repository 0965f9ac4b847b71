"""Mittag-Leffler evaluation across its three regimes.

Tabulates E_{alpha,beta}(-x) over ten orders of magnitude, checks the
special cases that collapse to elementary functions, and exercises the
recurrence identity that ties the series, contour, and asymptotic routes
together.
"""

import math

from fracstep.mlf import mlf_neg

print("E_{alpha,1}(-x) for a range of orders")
xs = [0.0, 0.1, 1.0, 5.0, 10.0, 100.0, 1e4]
header = "  x".ljust(10) + "".join(f"a={a:<11g}" for a in (0.25, 0.5, 1.0, 1.5, 1.9))
print(header)
for x in xs:
    row = f"  {x:<8g}"
    for a in (0.25, 0.5, 1.0, 1.5, 1.9):
        row += f"{mlf_neg(a, 1.0, x):<12.4e} "
    print(row)

print("\nelementary special cases (absolute deviation)")
for y in (0.5, 4.0, 36.0):
    d1 = mlf_neg(1.0, 1.0, y) - math.exp(-y)
    d2 = mlf_neg(2.0, 1.0, y) - math.cos(math.sqrt(y))
    d3 = mlf_neg(2.0, 2.0, y) - math.sin(math.sqrt(y)) / math.sqrt(y)
    print(f"  y={y:<5g} exp: {d1:.1e}  cos: {d2:.1e}  sinc: {d3:.1e}")

print("\nrecurrence identity E_{a,b}(-y) = 1/Gamma(b) - y E_{a,b+a}(-y)")
worst = 0.0
for a in (0.1, 0.5, 0.9, 1.1, 1.5, 1.9):
    for y in (0.5, 2.0, 5.0, 20.0, 200.0):
        lhs = mlf_neg(a, 1.0, y)
        inner = mlf_neg(a, 1.0 + a, y)
        resid = abs(lhs - (1.0 - y * inner))
        worst = max(worst, resid / max(abs(lhs), y * abs(inner), 1.0))
print(f"  worst residual over the grid: {worst:.2e}")

print("\nsolution kernels t^(b-1) E_{a,b}(-lam t^a) at lam = 2 pi^2")
lam = 2.0 * math.pi ** 2
for t in (0.0, 0.01, 0.1, 1.0):
    e1 = mlf_neg(0.5, 1.0, lam * t ** 0.5)
    e2 = t * mlf_neg(1.5, 2.0, lam * t ** 1.5)
    print(f"  t={t:<5g} subdiffusion factor {e1: .6f}   wave velocity factor {e2: .6f}")
