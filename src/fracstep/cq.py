"""Convolution quadrature weights and discrete convolutions.

The weights of the fractional-power operator are the Taylor coefficients of
``(delta(xi)/tau)**alpha`` where ``delta`` is the generating quotient of the
underlying multistep method (backward Euler or the second-order backward
difference). They are computed with the power-series power recurrence.

The Taylor coefficients of delta(xi)**alpha depend on neither tau nor the
number of terms asked for, so the module keeps one growing list of them per
(delta coefficients, alpha), for at most 64 such pairs (least recently used
go first), beside the same floats as an array that is converted again only
when the list grows. A ladder over N or t therefore runs the recurrence once
per rule and alpha, up to its largest N, and each call scales the array's
head by tau**-alpha.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CqRule:
    """Generating quotient delta(xi) of a linear multistep method."""

    kind: str
    delta_coeffs: tuple


BE = CqRule("BE", (1.0, -1.0))
SBD = CqRule("SBD", (1.5, -2.0, 0.5))

_RULES = {"BE": BE, "SBD": SBD}


def get_rule(kind):
    try:
        return _RULES[kind.upper()]
    except KeyError:
        raise ValueError(f"unknown quadrature rule {kind!r}") from None


class _Series(list):
    """A growing list of Taylor coefficients, and ``array``, the same floats
    as a read-only array, converted again only when the list has grown."""

    array = np.empty(0)


@functools.lru_cache(maxsize=64)
def _series(coeffs, alpha):
    """The one growing list of Taylor coefficients of p(xi)**alpha.

    ``_series_power`` extends it in place; the first n terms do not depend
    on how many more are asked for, and none depends on tau.
    """
    if coeffs[0] <= 0.0:
        raise ValueError("invalid generating polynomial")
    return _Series([coeffs[0] ** alpha])


def _series_power(coeffs, alpha, n_terms):
    """Taylor coefficients q_0..q_{n_terms-1} of p(xi)**alpha, via the power
    recurrence on Python floats, as a read-only array.

    With p = sum a_j xi^j and a_0 > 0:
        q_0 = a_0**alpha,
        q_n = (n a_0)^-1 sum_{j=1}^{min(n,deg)} ((alpha+1) j - n) a_j q_{n-j}.
    """
    a = tuple(float(c) for c in coeffs)
    q = _series(a, alpha)
    deg = len(a) - 1
    for n in range(len(q), n_terms):
        s = 0.0
        for j in range(1, min(n, deg) + 1):
            s += ((alpha + 1.0) * j - n) * a[j] * q[n - j]
        q.append(s / (n * a[0]))
    if len(q.array) < len(q):
        q.array = np.array(q)
        q.array.flags.writeable = False
    return q.array[:n_terms]


def cq_weights(rule, alpha, tau, N):
    """Quadrature weights of (delta(xi)/tau)**alpha, indices 0..N, read-only.

    They are q_0..q_N times tau**-alpha, where q is the series of
    delta(xi)**alpha that ``_series`` keeps per (rule, alpha).
    """
    alpha, tau = float(alpha), float(tau)
    if not (math.isfinite(alpha) and math.isfinite(tau)):
        raise ValueError("alpha and tau must be finite")
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if not float(N).is_integer() or N < 0:
        raise ValueError("N must be a nonnegative integer")
    w = _series_power(rule.delta_coeffs, alpha, int(N) + 1) * tau ** (-alpha)
    w.flags.writeable = False
    return w


def cq_apply(w, g, n):
    """Discrete convolution sum_{j=0}^{n} w_j g_{n-j} of a weight array.

    ``g`` holds the samples g_0..g_n (at least); entries may be scalars or
    coefficient vectors stacked along axis 0.
    """
    if n >= len(w):
        raise ValueError(f"index {n} exceeds weight table length {len(w) - 1}")
    g = np.asarray(g, dtype=float)
    if g.shape[0] < n + 1:
        raise ValueError("sample sequence shorter than n+1")
    return w[: n + 1] @ g[n::-1]
