"""Uniform P1 finite elements on the unit square.

The square is split into M x M cells and each cell into two right triangles
by its lower-left/upper-right diagonal; on this mesh the P1 stiffness matrix
reproduces the classical 5-point stencil exactly. Homogeneous Dirichlet
conditions are imposed by eliminating boundary rows and columns, so all
systems act on the (M-1)^2 interior degrees of freedom.

Every linear system here has the form a M + b S with the interior mass M and
stiffness S, and a system's ``step_system(a, b)`` returns its solver, with
``solve(rhs, stats)``. A solver answers the steps of one march in order
and chooses the start of each solve itself. Three kinds of system share
it:

* ``FemSystem`` (``fem_system(M)``) holds the nodal matrices and assembles
  every load. Schemes on it march in its sine view, and its
  ``step_system`` (a projection is one solve) is the view's solver with the
  right-hand side mapped in and the solution mapped back.
* ``SineSystem`` (``fem.sine``) works in the coordinates Q u of the
  orthonormal sine basis Q = Phi (x) Phi of the interior grid (Phi the
  DST-I matrix; Q is its own inverse, so ``coords`` maps both ways). With
  c_k = cos(pi k/M) the stiffness is diag(4 - 2 c_k - 2 c_l), and the mass
  is diag(mu) + (h^2/24) G (x) G: mu are the eigenvalues of M~, the mass
  stencil with its diagonal coupling spread over both diagonals, and
  G = Phi D Phi for the central difference D, as M - M~ = (h^2/24) D (x) D.
  CG (backend ``cg``) solves each step system d + a (h^2/24) G (x) G,
  d = a mu + b lam, to the relative residual ``STEP_RTOL``, preconditioned
  by division by d, the fast-diagonalization preconditioner a M~ + b S
  (Lynch, Rice & Thomas 1964; Buzbee, Golub & Nielson 1970). The
  preconditioned spectrum lies in [0.63, 1.37] for every h and a, b >= 0,
  so iterations do not grow with the mesh; Q is orthogonal, so they are
  those of the same CG in nodal coordinates. The first solve starts from
  zero, the second from the last solution x1, later ones from 2 x1 - x2;
  the start's residual comes from the products A x = rhs - r of those
  solves, r the true residual CG confirmed, at no product.
* ``ModalSystem``, the modal view of a ``FemSystem``, works in the
  coordinates c = Phi^T M u of the M-orthonormal eigensystem (lam, Phi) of
  the pencil (S, M): the mass is the identity, the stiffness diag(lam), an
  assembled nodal load F becomes Phi^T F (``coords``), and a step solve is
  one division per mode (backend ``modal``). So ``l2_project`` gives
  Phi^T F, ``ritz_project`` Phi^T G / lam and ``l2_norm`` the Euclidean
  norm. ``fem.modal`` builds it once, by one ``eigh`` of the sine view's
  mass scaled by S^(-1/2) on both sides; the discrete reference reads it.

Mesh and matrices are assembled over whole arrays, from exact closed-form
element matrices. Loads use a 6-point degree-4 triangle rule, once per
(nodal system, function): the nodal load is cached read-only, and so are
its coordinates in a view, per (view, function), each in its system or
view (``system_cache``), so they are freed with it. Error norms
use a denser collapsed-Gauss rule because modal reference solutions carry
high sine modes that a degree-4 rule would misresolve on coarse cells. Its
points form one tensor grid over the cells per triangle half and rule
point: the cell corners (i/M, j/M) shifted by the point's offset in its
cell. The squared errors are summed one grid at a time, so no field over
all points is held; a series solution (``reference.ExactSolution``) sums
itself on each grid from sine tables of the corners and of the offsets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .numkit import SparseMatrix, cg_solve

# relative residual of every CG step solve and projection; the step errors
# it leaves set the error floor of decay studies solved by CG
STEP_RTOL = 1e-12

# classic 6-point degree-4 rule, barycentric (weights sum to 1)
_Q4_A1 = 0.445948490915965
_Q4_A2 = 0.091576213509771
_Q4_W1 = 0.223381589678011
_Q4_W2 = 0.109951743655322


def _quad_rule_deg4():
    # three points per a: 1 - 2a at one vertex, a at the other two
    a = np.repeat([_Q4_A1, _Q4_A2], 3)[:, None]
    pts = np.where(np.tile(np.eye(3, dtype=bool), (2, 1)), 1 - 2 * a, a)
    return pts, np.repeat([_Q4_W1, _Q4_W2], 3)


def _quad_rule_collapsed(n=6):
    """Triangle rule from an n x n Gauss grid via the Duffy collapse.

    Exact for total degree <= 2n-2; n=6 resolves degree 10, comfortably
    above the degree-4 floor required for error integration.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    # point (i, j), row-major: xi = u_i, eta = u_j (1 - u_i)
    xi = np.repeat(u, n)
    eta = np.tile(u, n) * (1.0 - xi)
    W = np.repeat(wu, n) * np.tile(wu, n) * (1.0 - xi) * 2.0
    return np.column_stack([1.0 - xi - eta, xi, eta]), W


_RULES = {4: _quad_rule_deg4(), 10: _quad_rule_collapsed(6)}


@dataclass(frozen=True, eq=False)
class Mesh:
    M: int
    nodes: np.ndarray        # ((M+1)^2, 2)
    triangles: np.ndarray    # (2 M^2, 3) node indices, positively oriented
    interior_map: np.ndarray  # node -> interior dof index, -1 on the boundary

    @property
    def h(self):
        return 1.0 / self.M

    @property
    def n_interior(self):
        return (self.M - 1) ** 2


def build_mesh(M):
    """Criss-cross triangulation with M subdivisions per side (M even)."""
    if M < 2 or M % 2 != 0:
        raise ValueError("mesh divisions must be even and positive")
    M = int(M)
    side = np.linspace(0.0, 1.0, M + 1)
    X, Y = np.meshgrid(side, side, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    # node (i, j) is i (M+1) + j; cell (i, j), row-major, has the triangles
    # (n00, n10, n11) and (n00, n11, n01) of its lower-left node n00
    n00 = np.arange(M * (M + 1), dtype=np.intp).reshape(M, M + 1)[:, :M].ravel()
    corners = np.array([[0, M + 1, M + 2], [0, M + 2, 1]], dtype=np.intp)
    triangles = (n00[:, None, None] + corners).reshape(-1, 3)
    # interior nodes are numbered row-major over i, j = 1..M-1
    interior_map = np.full((M + 1, M + 1), -1, dtype=np.intp)
    interior_map[1:M, 1:M] = np.arange((M - 1) ** 2).reshape(M - 1, M - 1)
    interior_map = interior_map.ravel()
    return Mesh(M, nodes, triangles, interior_map)


@dataclass(frozen=True, eq=False)
class FemSystem:
    mesh: Mesh
    mass: SparseMatrix
    stiffness: SparseMatrix

    # element gradients for vectorized quadrature, filled by assemble()
    _grads: np.ndarray = field(default=None, repr=False)

    @property
    def n_dof(self):
        return self.mesh.n_interior

    @property
    def fem(self):
        """The nodal system that assembles this system's loads: itself."""
        return self

    def coords(self, load):
        """An assembled nodal load in this system's coordinates: unchanged."""
        return load

    def step_system(self, a, b):
        """The solver of (a*mass + b*stiffness) x = rhs to ``STEP_RTOL``;
        a, b >= 0, not both 0 (see the module docstring)."""
        return NodalSolver(self.sine, self.sine.step_system(a, b))

    @functools.cached_property
    def sine(self):
        """The sine view of this system, built on first use."""
        return SineSystem(self)

    @functools.cached_property
    def modal(self):
        """The modal view of this system, built on first use."""
        return ModalSystem(self)

    def quad_points(self, order=4):
        """Quadrature points (nel, nq, 2) on every element, the weights (nq,)
        scaled by element area, and the shape values (nq, 3)."""
        return self._points(order, self.mesh.triangles)

    def grid_points(self, order=10):
        """The points of ``quad_points(order)`` as 2 nq tensor grids.

        Returns (xs (2 nq, M), ys (2 nq, M), weights, shape values). Point q
        of triangle t in cell (i, j), element (i M + j) 2 + t, lies at
        (xs[t nq + q, i], ys[t nq + q, j]), bit for bit: its x does not
        depend on j nor its y on i, so cells (i, 0) and (0, j) give both.
        """
        M = self.mesh.M
        cells = self.mesh.triangles.reshape(M, M, 2, 3)
        pts, w, bary = self._points(order, np.concatenate([cells[:, 0], cells[0, :]]))
        grids = pts.reshape(2, M, 2, len(w), 2).transpose(0, 4, 2, 3, 1).reshape(2, 2, -1, M)
        return grids[0, 0], grids[1, 1], w, bary

    def _points(self, order, triangles):
        if order not in _RULES:
            raise ValueError(f"no quadrature rule of order {order}; orders are {sorted(_RULES)}")
        bary, wts = _RULES[order]
        pts = np.einsum("qk,ekd->eqd", bary, self.mesh.nodes[triangles.reshape(-1, 3)])
        return pts, wts * (0.5 * self.mesh.h ** 2), bary


class CgSolver:
    """Backend ``cg``: preconditioned CG to ``STEP_RTOL``, from a start of
    its own choosing (see the module docstring)."""

    backend = "cg"

    def __init__(self, matrix, precond):
        self.matrix = matrix
        self.precond = precond
        self._last = []   # (x, matrix x) of the last two solves, newest first

    def solve(self, rhs, stats=None):
        """x with ||matrix x - rhs|| <= STEP_RTOL ||rhs||, or CgError.

        A ``stats`` dict receives the iteration count and final residual.
        """
        x0 = r0 = None
        if len(self._last) == 1:
            (x0, ax0), = self._last
            r0 = rhs - ax0
        elif self._last:
            (x1, ax1), (x2, ax2) = self._last
            x0 = 2.0 * x1 - x2
            r0 = rhs - (2.0 * ax1 - ax2)
        info = {}
        x = cg_solve(
            self.matrix, rhs, rel_tol=STEP_RTOL, x0=x0, stats=info, precond=self.precond, r0=r0
        )
        # the true residual cg_solve confirmed gives matrix x = rhs - r
        self._last = [(x, rhs - info["residual_vector"]), *self._last[:1]]
        if stats is not None:
            stats["iterations"], stats["residual"] = info["iterations"], info["residual"]
        return x


class NodalSolver:
    """``FemSystem.step_system``: a sine-view solver, nodal in and out."""

    def __init__(self, view, solver):
        self.view, self.solver = view, solver
        self.backend = solver.backend

    def solve(self, rhs, stats=None):
        return self.view.coords(self.solver.solve(self.view.coords(rhs), stats))


class SineSystem:
    """The sine view of ``fem`` (see the module docstring)."""

    def __init__(self, fem):
        M = fem.mesh.M
        n = M - 1
        self.fem, self.n_dof = fem, fem.n_dof
        self._phi = phi = sine_basis(n)
        # eigenvalues of M~ and S on the sine mode (k, l), c_k = cos(pi k/M)
        c = np.cos(np.pi * np.arange(1, n + 1) / M)
        ck, cl = c[:, None], c[None, :]
        mu = (0.5 + (ck + cl + ck * cl) / 6.0) / M ** 2
        lam = 4.0 - 2.0 * ck - 2.0 * cl
        # D takes sine mode k to a cosine orthogonal to the sine modes l with
        # k + l even: G is zero there, its diagonal too. Zeros and G^T = -G
        # are set exactly
        G = phi @ (np.eye(n, k=1) - np.eye(n, k=-1)) @ phi
        k = np.arange(n)
        G[(k[:, None] + k) % 2 == 0] = 0.0
        G = 0.5 * (G - G.T)
        self.mass = DiagPlusKron(mu.ravel(), 1.0 / (24.0 * M ** 2), G)
        self.stiffness = DiagPlusKron(lam.ravel(), 0.0, G)

    def coords(self, x):
        """Q x: sine coordinates of a nodal load, or nodal values of sine
        coordinates."""
        phi = self._phi
        return (phi @ np.reshape(x, phi.shape) @ phi).ravel()

    def to_nodal(self, U):
        """Map the rows of U to nodal coordinates in place, one at a time."""
        phi = self._phi
        tmp = np.empty(phi.shape)
        for row in U:
            X = row.reshape(phi.shape)
            np.matmul(phi, X, out=tmp)
            np.matmul(tmp, phi, out=X)

    def step_system(self, a, b):
        _check_step(a, b)
        matrix = self.mass.scaled_add(a, self.stiffness, b)
        return CgSolver(matrix, lambda r: r / matrix.d)


class DiagPlusKron:
    """diag(d) + c G (x) G on the row-major (n, n) grid, G antisymmetric
    with zero diagonal: the sine view's matrices. A product is two n x n
    matrix products, none if c = 0."""

    def __init__(self, d, c, G):
        self.d, self.c, self.G = d, c, G
        self.n_rows = len(d)
        # (G (x) G) x is G X G^T = -G X G for the grid X of x
        self._minus_cG = -c * G if c else None

    def matvec(self, x):
        y = self.d * x
        if self.c:
            y += (self._minus_cG @ np.reshape(x, self.G.shape) @ self.G).ravel()
        return y

    def scaled_add(self, coeff, other, other_coeff):
        """coeff*self + other_coeff*other, for the same G."""
        return DiagPlusKron(
            coeff * self.d + other_coeff * other.d, coeff * self.c + other_coeff * other.c, self.G
        )

    def frobenius_norm(self):
        # ||G (x) G||_F = ||G||_F^2, and the cross term d_i c (G (x) G)_ii is 0
        return math.sqrt(self.d @ self.d + (self.c * np.sum(self.G * self.G)) ** 2)


class ModalSystem:
    """The modal view of ``fem`` (see the module docstring).

    ``lam`` holds the ascending eigenvalues of the pencil (S, M) of ``fem``
    and ``basis`` its M-orthonormal eigenvector columns, solved in the sine
    view. There S = diag(d) and M = diag(mu) + c G (x) G. With s = d^(-1/2),
    the SPD matrix C = s M s has the eigenpairs (1/lam, z), and the pencil's
    M-orthonormal vectors are sqrt(lam) s z, mapped to nodal coordinates.
    """

    def __init__(self, fem):
        n = fem.n_dof
        if n > 4000:
            raise ValueError(
                "dense eigensolve guard exceeded; use the temporal "
                "self-convergence reference instead"
            )
        sine = fem.sine
        mass = sine.mass
        s = 1.0 / np.sqrt(sine.stiffness.d)
        C = np.kron(mass.G, mass.G)
        C *= mass.c
        C.reshape(-1)[:: n + 1] += mass.d
        C *= s
        C *= s[:, None]
        w, Z = np.linalg.eigh(C)
        lam = 1.0 / w[::-1]
        # one contiguous row per eigenvector, as to_nodal maps rows in place
        rows = np.ascontiguousarray(Z.T[::-1])
        rows *= s
        rows *= np.sqrt(lam)[:, None]
        sine.to_nodal(rows)
        self.fem, self.lam, self.basis = fem, lam, rows.T
        self.n_dof = n
        self.mass, self.stiffness = Identity(np.ones(n)), Diagonal(lam)

    def coords(self, load):
        """The modal coordinates Phi^T F of an assembled nodal load F."""
        return self.basis.T @ load

    def step_system(self, a, b):
        _check_step(a, b)
        return Diagonal(a + b * self.lam)


class Diagonal:
    """diag(d): the modal view's mass and stiffness, and its step solver."""

    backend = "modal"

    def __init__(self, d):
        self.d = d

    def matvec(self, x):
        return self.d * x

    def solve(self, rhs, stats=None):
        """rhs / d, exact up to one rounding per entry. A ``stats`` dict
        receives 0 iterations and no residual (None)."""
        if stats is not None:
            stats["iterations"], stats["residual"] = 0, None
        return rhs / self.d


class Identity(Diagonal):
    """The modal view's mass: ``matvec`` returns x itself, not a copy."""

    def matvec(self, x):
        return x


def _check_step(a, b):
    if not (a >= 0.0 and b >= 0.0 and a + b > 0.0):
        raise ValueError(f"step system needs a, b >= 0, not both zero (got {a}, {b})")


def sine_basis(n):
    """Orthonormal DST-I matrix sqrt(2/(n+1)) sin(pi j k/(n+1)), j, k = 1..n.

    It is symmetric and its own inverse.
    """
    k = np.arange(1, n + 1)
    # reduce j*k modulo the period first, so sin sees arguments below 2 pi
    jk = np.outer(k, k) % (2 * (n + 1))
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * jk / (n + 1))


def element_matrices(coords):
    """Exact P1 mass (..., 3, 3), stiffness (..., 3, 3), area (...) and
    gradients (..., 2, 3) of the triangles ``coords`` (..., 3, 2)."""
    (x0, y0), (x1, y1), (x2, y2) = np.moveaxis(coords, (-2, -1), (0, 1))
    bmat = np.array([[y1 - y2, y2 - y0, y0 - y1], [x2 - x1, x0 - x2, x1 - x0]])
    det = x1 * y2 - x2 * y1 - x0 * (y2 - y1) + y0 * (x2 - x1)
    area = 0.5 * det
    grads = np.ascontiguousarray(np.moveaxis(bmat / det, (0, 1), (-2, -1)))
    a = area[..., None, None]
    K = a * np.swapaxes(grads, -1, -2) @ grads
    Mloc = a / 12.0 * (np.ones((3, 3)) + np.eye(3))
    return Mloc, K, area, grads


def assemble(mesh):
    """Interior-dof mass and stiffness matrices for the P1 space; entries
    are summed in (element, a, b) order, as an element loop would."""
    n = mesh.n_interior
    Mloc, Kloc, _, grads = element_matrices(mesh.nodes[mesh.triangles])
    dofs = mesh.interior_map[mesh.triangles]
    rows = np.broadcast_to(dofs[:, :, None], Mloc.shape)
    cols = np.broadcast_to(dofs[:, None, :], Mloc.shape)
    keep = (rows >= 0) & (cols >= 0)
    mass = SparseMatrix.from_coo(n, n, rows[keep], cols[keep], Mloc[keep])
    stiffness = SparseMatrix.from_coo(n, n, rows[keep], cols[keep], Kloc[keep])
    return FemSystem(mesh, mass, stiffness, grads)


@functools.lru_cache(maxsize=16)
def fem_system(M):
    """Assembled system for mesh parameter M; cached so that repeated studies
    share one instance (and with it its sine and modal views)."""
    return assemble(build_mesh(M))


def _scatter(fem, contrib):
    """Sum per-element contributions (nel, 3) into the interior nodal load."""
    dofs = fem.mesh.interior_map[fem.mesh.triangles]
    ok = dofs >= 0
    return np.bincount(dofs[ok], weights=contrib[ok], minlength=fem.n_dof)


def system_cache(maxsize):
    """``functools.lru_cache(maxsize)`` for ``func(owner, *key)``, with each
    owner's entries held in the owner itself, so they die with it; one
    cache for all owners would keep every system it has seen alive.
    ``entries(owner)`` is the owner's dict, least recently used first."""
    def decorate(func):
        name = f"_{func.__name__}_entries"

        @functools.wraps(func)
        def cached(owner, *key):
            entries = vars(owner).setdefault(name, {})
            if key in entries:
                out = entries.pop(key)
            else:
                out = func(owner, *key)
                if len(entries) >= maxsize:
                    del entries[next(iter(entries))]
            entries[key] = out
            return out

        cached.entries = lambda owner: vars(owner).get(name, {})
        return cached

    return decorate


@system_cache(maxsize=64)
def _nodal_load(fem, g):
    """The nodal load (g, phi_i) of ``fem`` by elementwise quadrature, for
    a pure function ``g``; cached read-only, as ladders repeat it."""
    pts, w, shape = fem.quad_points()
    vals = np.broadcast_to(np.asarray(g(pts[..., 0], pts[..., 1]), dtype=float), pts.shape[:2])
    load = _scatter(fem, np.einsum("eq,q,qa->ea", vals, w, shape))
    load.flags.writeable = False
    return load


@system_cache(maxsize=64)
def _view_load(view, g):
    """The coordinates of the cached nodal load F in a modal or sine view,
    cached read-only per (view, function), as ladders repeat them."""
    load = view.coords(_nodal_load(view.fem, g))
    load.flags.writeable = False
    return load


def load_vector(sys, g):
    """Load vector (g, phi_i) in sys's coordinates, read-only: the cached
    nodal load, or its cached coordinates in a view."""
    return _nodal_load(sys, g) if sys.fem is sys else _view_load(sys, g)


def l2_project(sys, g):
    """Coefficients of the L2-orthogonal projection of g."""
    return sys.step_system(1.0, 0.0).solve(load_vector(sys, g))


def ritz_project(sys, g_grad):
    """Coefficients of the energy projection; ``g_grad(x, y) -> (gx, gy)``."""
    fem = sys.fem
    pts, w, _ = fem.quad_points()
    gx, gy = g_grad(pts[..., 0], pts[..., 1])
    gx = np.broadcast_to(np.asarray(gx, dtype=float), pts.shape[:2])
    gy = np.broadcast_to(np.asarray(gy, dtype=float), pts.shape[:2])
    # element gradients are constant: (grad g, grad phi_a) needs only the
    # quadrature average of grad g per element
    mean_gx = gx @ w
    mean_gy = gy @ w
    contrib = mean_gx[:, None] * fem._grads[:, 0, :] + mean_gy[:, None] * fem._grads[:, 1, :]
    return sys.step_system(0.0, 1.0).solve(sys.coords(_scatter(fem, contrib)))


def l2_norm(sys, c):
    c = np.asarray(c)
    return float(np.sqrt(max(c @ sys.mass.matvec(c), 0.0)))


def h1_seminorm(sys, c):
    c = np.asarray(c)
    return float(np.sqrt(max(c @ sys.stiffness.matvec(c), 0.0)))


def nodal_values(sys, c):
    """Full nodal vector (zeros on the boundary) from interior coefficients."""
    full = np.zeros(len(sys.mesh.nodes))
    sel = sys.mesh.interior_map >= 0
    full[sel] = np.asarray(c)[sys.mesh.interior_map[sel]]
    return full


def error_norms(sys, c, u_exact, grad_exact=None, order=10):
    """(L2, H1-seminorm) error between the FE function and a pointwise field.

    The squared errors are summed one grid of ``grid_points`` at a time.
    ``u_exact(x, y)`` is called per grid, with x (M, 1) and y (1, M). The
    H1 part is None unless ``grad_exact`` maps the same arguments to
    (du/dx, du/dy). When ``u_exact`` is a ``reference.ExactSolution`` and
    ``grad_exact`` is None or its own ``grad``, the fields come from its
    ``cell_grids`` instead, as each grid is the cell corners shifted by one
    offset.
    """
    xs, ys, w, shape = sys.grid_points(order)
    M, nq = sys.mesh.M, len(w)
    with_grad = grad_exact is not None
    if hasattr(u_exact, "cell_grids") and grad_exact in (None, u_exact.grad):
        fields = u_exact.cell_grids(xs[:, 0], ys[:, 0], M, with_grad)
    else:
        fields = (
            (g, u_exact(x, y), *(grad_exact(x, y) if with_grad else (None, None)))
            for g, (x, y) in enumerate(zip(xs[:, :, None], ys[:, None, :]))
        )
    local = nodal_values(sys, c)[sys.mesh.triangles]  # (nel, 3)
    if with_grad:
        # the FE gradient is constant per element
        fe_gx, fe_gy = (np.einsum("ea,ea->e", sys._grads[:, d, :], local).reshape(M, M, 2)
                        for d in (0, 1))
    # element (i M + j) 2 + t is [i, j, t]; grid t nq + q holds its point q
    local = local.reshape(M, M, 2, 3)
    sq = np.zeros((2 * nq, 2))  # per grid: squared L2 and H1 errors
    for g, u, ux, uy in fields:
        t, q = divmod(g, nq)
        d = local[:, :, t] @ shape[q] - u
        sq[g, 0] = np.vdot(d, d)
        if with_grad:
            dx, dy = fe_gx[:, :, t] - ux, fe_gy[:, :, t] - uy
            sq[g, 1] = np.vdot(dx, dx) + np.vdot(dy, dy)
    l2_sq, h1_sq = np.tile(w, 2) @ sq
    return math.sqrt(l2_sq), (math.sqrt(h1_sq) if with_grad else None)
