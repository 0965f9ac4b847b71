"""Convolution-quadrature weight generation and its basic identities.

The weights of the fractional differentiation operator are Taylor
coefficients of (delta(xi)/tau)^alpha. The demo shows the first weights of
both rules, the composition law for orders, and the startup sequence
(0, 3/2, 1, 1, ...) that drives the first-step correction of the
second-order scheme.
"""

import numpy as np

from fracstep.cq import BE, SBD, cq_apply, cq_weights

print("backward Euler weights, alpha = 0.5, tau = 1 (binomial series):")
print(" ", cq_weights(BE, 0.5, 1.0, 6))

print("\nsecond-order weights, alpha = 0.5, tau = 1:")
print(" ", cq_weights(SBD, 0.5, 1.0, 6))

print("\ncomposition: weights(a) * weights(b) = weights(a+b)")
for a, b in ((0.3, 0.4), (0.9, 0.9)):
    wa = cq_weights(BE, a, 1.0, 64)
    wb = cq_weights(BE, b, 1.0, 64)
    wab = cq_weights(BE, a + b, 1.0, 64)
    dev = np.max(np.abs(np.convolve(wa, wb)[:65] - wab)) / np.max(np.abs(wab))
    print(f"  {a} + {b}: {dev:.2e}")

print("\nstartup sequence: order-1 SBD quadrature applied to the ramp t")
tau = 0.1
w = cq_weights(SBD, 1.0, tau, 8)
ramp = tau * np.arange(9)
seq = [float(cq_apply(w, ramp, n)) for n in range(7)]
print("  ", np.round(seq, 12), " (exactly 0, 3/2, 1, 1, ...)")
