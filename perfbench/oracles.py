"""Computations made apart from fracstep, against which the benchmark checks it.

Nothing here imports fracstep. The P1 matrices of the criss-cross mesh are
written down from their stencils, the load vectors come from a Gauss rule of
higher degree than the program's, the eigenpairs come from numpy.linalg and
the Mittag-Leffler values from scipy.special.erfcx, which is
E_{1/2}(-y) = erfcx(y).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfcx


def grid_index(points, M):
    """Row of each interior point (x, y) of the M-mesh in this module's order.

    The order is x-major over the (M-1)^2 interior nodes; callers use it to
    line a program vector up with an oracle vector by node coordinates.
    """
    ij = np.rint(np.asarray(points, dtype=float) * M).astype(int)
    if np.any(ij < 1) or np.any(ij > M - 1):
        raise ValueError("points must be interior nodes of the mesh")
    return (ij[:, 0] - 1) * (M - 1) + (ij[:, 1] - 1)


def p1_matrices(M):
    """Dense interior mass and stiffness matrices of P1 on the criss-cross mesh.

    Each cell is cut by its lower-left/upper-right diagonal. The stiffness is
    the 5-point stencil; the mass has h^2/2 on the diagonal and h^2/12 for
    each edge: the four axis neighbours and the two diagonal ones.
    """
    m = M - 1
    h2 = 1.0 / M ** 2
    one_d = 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
    stiff = np.kron(one_d, np.eye(m)) + np.kron(np.eye(m), one_d)
    axis = np.eye(m, k=1) + np.eye(m, k=-1)
    edges = (
        np.kron(axis, np.eye(m))
        + np.kron(np.eye(m), axis)
        + np.kron(np.eye(m, k=1), np.eye(m, k=1))
        + np.kron(np.eye(m, k=-1), np.eye(m, k=-1))
    )
    mass = h2 * (0.5 * np.eye(m * m) + edges / 12.0)
    return mass, stiff


def _triangle_rule(n=5):
    """Barycentric points and weights, exact for degree 2n-2 (collapsed Gauss)."""
    x, w = np.polynomial.legendre.leggauss(n)
    u, wu = 0.5 * (x + 1.0), 0.5 * w
    U, V = np.meshgrid(u, u, indexing="ij")
    WU, WV = np.meshgrid(wu, wu, indexing="ij")
    l1 = U.ravel()
    l2 = (V * (1.0 - U)).ravel()
    wts = (WU * WV * (1.0 - U)).ravel()  # sums to 1/2, the reference area
    return np.column_stack([1.0 - l1 - l2, l1, l2]), 2.0 * wts


def load_vector(M, g):
    """(g, phi_i) for every interior hat function, in grid_index order.

    g must be smooth on each triangle; the indicator of x <= 1/2 is, because
    x = 1/2 is a mesh line for even M.
    """
    h = 1.0 / M
    i, j = np.meshgrid(np.arange(M), np.arange(M), indexing="ij")
    i, j = i.ravel(), j.ravel()
    corners = [
        ((i, j), (i + 1, j), (i + 1, j + 1)),
        ((i, j), (i + 1, j + 1), (i, j + 1)),
    ]
    bary, w = _triangle_rule()
    out = np.zeros((M + 1) * (M + 1))
    for tri in corners:
        xs = np.stack([c[0] * h for c in tri], axis=1)  # (cells, 3)
        ys = np.stack([c[1] * h for c in tri], axis=1)
        px = xs @ bary.T  # (cells, points)
        py = ys @ bary.T
        vals = g(px, py) * (w * 0.5 * h * h)
        for a, (ci, cj) in enumerate(tri):
            np.add.at(out, ci * (M + 1) + cj, vals @ bary[:, a])
    full = out.reshape(M + 1, M + 1)
    return full[1:M, 1:M].ravel()


def bubble(x, y):
    return x * y * (1.0 - x) * (1.0 - y)


def half_strip(x, y):
    return np.where(x <= 0.5, 1.0, 0.0)


class SemidiscreteHalfOrder:
    """Exact-in-time P1 solution of the subdiffusion equation with alpha = 1/2.

    u_h(t) = sum_j c_j E_{1/2}(-lam_j t^{1/2}) phi_j over the eigenpairs of
    the pencil (K, M), with c the L2 projection of the initial value; no
    source. Vectors are in grid_index order.
    """

    def __init__(self, M, v):
        mass, stiff = p1_matrices(M)
        chol = np.linalg.cholesky(mass)
        inner = np.linalg.solve(chol, np.linalg.solve(chol, stiff).T)
        lam, Q = np.linalg.eigh(0.5 * (inner + inner.T))
        self.M = M
        self.lam = lam
        self.basis = np.linalg.solve(chol.T, Q)  # M-orthonormal columns
        self.coef = self.basis.T @ load_vector(M, v)

    def __call__(self, t):
        return self.basis @ (self.coef * erfcx(self.lam * math.sqrt(t)))


def half_strip_series(x, y, t, k_max=1023):
    """Exact solution of case (b) with alpha = 1/2: v = indicator of x <= 1/2.

    u = sum_{k,l} 4 F(k) G(l) erfcx(pi^2 (k^2 + l^2) sqrt(t)) sin(k pi x) sin(l pi y)
    with F(k) = (1 - cos(k pi / 2)) / (k pi), the integral of sin(k pi x)
    over (0, 1/2), and G(l) = (1 - (-1)^l) / (l pi), that over (0, 1).
    Evaluated on the tensor grid x by y; returns shape (len(x), len(y)).
    """
    k = np.arange(1, k_max + 1, dtype=float)
    F = (1.0 - np.cos(0.5 * math.pi * k)) / (math.pi * k)
    G = (1.0 - (-1.0) ** k) / (math.pi * k)
    ks, ls = k[F != 0.0], k[G != 0.0]
    lam = math.pi ** 2 * (ks[:, None] ** 2 + ls[None, :] ** 2)
    amp = 4.0 * F[F != 0.0][:, None] * G[G != 0.0][None, :] * erfcx(lam * math.sqrt(t))
    SX = np.sin(math.pi * np.outer(x, ks))
    SY = np.sin(math.pi * np.outer(y, ls))
    return SX @ amp @ SY.T
