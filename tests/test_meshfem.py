import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.integrate import dblquad

from _oracles import gen_sym_eig, loop_assembly, loop_mesh, pointwise_error_norms, row_dot_series
from fracstep import baselines, meshfem as mf, reference as ref, schemes


@pytest.fixture(scope="module")
def sys4():
    return mf.assemble(mf.build_mesh(4))


@pytest.fixture(scope="module")
def sys8():
    return mf.assemble(mf.build_mesh(8))


class TestMesh:
    def test_counts_m2(self):
        m = mf.build_mesh(2)
        assert len(m.nodes) == 9
        assert len(m.triangles) == 8
        assert m.n_interior == 1

    def test_counts_m4(self):
        m = mf.build_mesh(4)
        assert len(m.nodes) == 25
        assert len(m.triangles) == 32
        assert m.n_interior == 9

    @pytest.mark.parametrize("M", [2, 4, 8])
    def test_triangle_areas_exact(self, M):
        m = mf.build_mesh(M)
        for tri in m.triangles:
            x, y = m.nodes[tri, 0], m.nodes[tri, 1]
            area = 0.5 * (
                (x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0])
            )
            assert area == pytest.approx(1.0 / (2 * M * M), abs=1e-16)
            assert area > 0.0  # positive orientation

    @pytest.mark.parametrize("M", [0, 1, 3, 7])
    def test_rejects_odd_or_nonpositive(self, M):
        with pytest.raises(ValueError, match="even and positive"):
            mf.build_mesh(M)


class TestAssembly:
    def test_single_dof_entries(self):
        sys2 = mf.assemble(mf.build_mesh(2))
        assert sys2.stiffness.to_dense()[0, 0] == pytest.approx(4.0, abs=1e-14)
        assert sys2.mass.to_dense()[0, 0] == pytest.approx(0.125, abs=1e-16)

    def test_five_point_stencil(self, sys4):
        K = sys4.stiffness.to_dense()
        center = 4  # dof (2,2) on the 3x3 interior grid
        row = K[center]
        assert row[center] == pytest.approx(4.0, abs=1e-13)
        neighbors = [1, 3, 5, 7]
        diagonals = [0, 2, 6, 8]
        assert np.allclose(row[neighbors], -1.0, atol=1e-13)
        assert np.allclose(row[diagonals], 0.0, atol=1e-13)

    def test_mass_partition_of_unity(self, sys8):
        # interior dofs whose hat support touches no boundary node
        M = sys8.mesh.M
        h2 = sys8.mesh.h ** 2
        row_sums = sys8.mass.matvec(np.ones(sys8.n_dof))
        imap = sys8.mesh.interior_map
        for i in range(2, M - 1):
            for j in range(2, M - 1):
                dof = imap[i * (M + 1) + j]
                assert row_sums[dof] == pytest.approx(h2, abs=1e-16)

    def test_same_sparsity_pattern(self, sys8):
        assert np.array_equal(sys8.mass.offsets, sys8.stiffness.offsets)
        assert len(sys8.mass.offsets) == 7

    def test_mass_spd_stiffness_psd(self, sys4):
        Md = sys4.mass.to_dense()
        Kd = sys4.stiffness.to_dense()
        assert np.allclose(Md, Md.T)
        assert np.allclose(Kd, Kd.T)
        assert np.all(np.linalg.eigvalsh(Md) > 0.0)
        assert np.all(np.linalg.eigvalsh(Kd) > -1e-12)
        assert np.all(np.diag(Kd) > 0.0)

    def test_element_stiffness_reproduces_linear_gradients(self):
        # per-element: K_T g|_T = area * grad(phi_i) . grad(g) for linear g
        mesh = mf.build_mesh(4)
        rng = np.random.default_rng(0)
        a, bx, cy = rng.standard_normal(3)
        for tri in mesh.triangles[:8]:
            coords = mesh.nodes[tri]
            Mloc, Kloc, area, grads = mf.element_matrices(coords)
            gvals = a + bx * coords[:, 0] + cy * coords[:, 1]
            expect = area * grads.T @ np.array([bx, cy])
            assert np.allclose(Kloc @ gvals, expect, atol=1e-14)

    @pytest.mark.parametrize("M", [2, 6, 16, 64])
    def test_matches_element_loop(self, M):
        # bit for bit: the whole-array assembly sums each entry's element
        # contributions in the order of the element loop
        nodes, triangles, interior_map = loop_mesh(M)
        mesh = mf.build_mesh(M)
        for got, want in [
            (mesh.nodes, nodes), (mesh.triangles, triangles), (mesh.interior_map, interior_map)
        ]:
            assert got.dtype == want.dtype and np.array_equal(got, want)
        rows, cols, mass, stiffness, grads = loop_assembly(nodes, triangles, interior_map)
        sys_ = mf.assemble(mesh)
        diagonals = np.array(sorted(set((cols - rows).tolist())))
        for mat, vals in ((sys_.mass, mass), (sys_.stiffness, stiffness)):
            assert np.array_equal(mat.offsets, diagonals)
            band = np.searchsorted(mat.offsets, cols - rows)
            assert np.array_equal(mat.bands[band, rows].view(np.uint64), vals.view(np.uint64))
            dense = np.zeros((mat.n_rows, mat.n_cols))
            dense[rows, cols] = vals
            assert mat.to_dense().tobytes() == dense.tobytes()
        assert np.array_equal(sys_._grads, grads)

    def test_assembly_against_quadrature_oracle(self):
        # brute-force element integrals of phi_i phi_j and grad phi_i . grad phi_j
        mesh = mf.build_mesh(2)
        tri = mesh.triangles[0]
        coords = mesh.nodes[tri]
        Mloc, Kloc, area, grads = mf.element_matrices(coords)

        def barycentric(x, y):
            T = np.array(
                [
                    [coords[1, 0] - coords[0, 0], coords[2, 0] - coords[0, 0]],
                    [coords[1, 1] - coords[0, 1], coords[2, 1] - coords[0, 1]],
                ]
            )
            s, t = np.linalg.solve(T, np.array([x - coords[0, 0], y - coords[0, 1]]))
            return np.array([1.0 - s - t, s, t])

        # integrate over the reference triangle mapped to physical coords
        for i in range(3):
            for j in range(3):
                def f(t, s):
                    lam = np.array([1.0 - s - t, s, t])
                    return lam[i] * lam[j]

                val, _ = dblquad(f, 0.0, 1.0, 0.0, lambda s: 1.0 - s, epsabs=1e-13)
                assert 2 * area * val == pytest.approx(Mloc[i, j], abs=1e-12)


class TestProjections:
    def test_l2_project_zero(self, sys4):
        c = mf.l2_project(sys4, lambda x, y: np.zeros_like(x))
        assert np.all(c == 0.0)

    def test_l2_projection_rate(self):
        g = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        errs = []
        for M in (8, 16, 32):
            s = mf.assemble(mf.build_mesh(M))
            c = mf.l2_project(s, g)
            e, _ = mf.error_norms(s, c, g)
            errs.append(e)
        for k in range(2):
            assert errs[k] / errs[k + 1] == pytest.approx(4.0, rel=0.15)

    def test_chi_load_vector_against_dblquad(self):
        # hat-function loads for the half-strip indicator, M=4
        sys4 = mf.assemble(mf.build_mesh(4))
        chi = lambda x, y: np.where(np.asarray(x) <= 0.5, 1.0, 0.0)
        load = mf.load_vector(sys4, chi)
        mesh = sys4.mesh
        M = mesh.M

        def hat(i0, j0, x, y):
            # piecewise-linear hat at grid node (i0, j0) on the criss-cross mesh
            h = mesh.h
            s = (x - i0 * h) / h
            t = (y - j0 * h) / h
            # support: |s|,|t| <= 1 on the six incident triangles
            val = 0.0
            if -1 <= s <= 1 and -1 <= t <= 1:
                if s >= 0 and t >= 0:
                    val = max(0.0, 1 - max(s, t))
                elif s <= 0 and t <= 0:
                    val = max(0.0, 1 + min(s, t))
                elif s >= 0 and t <= 0:
                    val = max(0.0, 1 - s + t) if s - t <= 1 else 0.0
                else:
                    val = max(0.0, 1 + s - t) if t - s <= 1 else 0.0
            return val

        for (i0, j0) in [(1, 1), (2, 2), (2, 1), (3, 2)]:
            dof = mesh.interior_map[i0 * (M + 1) + j0]

            def f(y, x):
                return hat(i0, j0, x, y) * (1.0 if x <= 0.5 else 0.0)

            lo_x = (i0 - 1) * mesh.h
            hi_x = (i0 + 1) * mesh.h
            lo_y = (j0 - 1) * mesh.h
            hi_y = (j0 + 1) * mesh.h
            ref, err = dblquad(f, lo_x, hi_x, lo_y, hi_y, epsabs=1e-13)
            assert load[dof] == pytest.approx(ref, abs=5e-12)

    def test_ritz_zero_for_zero_data(self, sys4):
        c = mf.ritz_project(sys4, lambda x, y: (np.zeros_like(x), np.zeros_like(y)))
        assert np.allclose(c, 0.0, atol=1e-14)

    def test_ritz_rate(self):
        g = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        gg = lambda x, y: (
            np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
        )
        errs = []
        for M in (8, 16, 32):
            s = mf.assemble(mf.build_mesh(M))
            c = mf.ritz_project(s, gg)
            e, _ = mf.error_norms(s, c, g)
            errs.append(e)
        for k in range(2):
            assert errs[k] / errs[k + 1] == pytest.approx(4.0, rel=0.2)

    def test_galerkin_orthogonality(self, sys8):
        # residual of the Ritz system vanishes to solver tolerance
        gg = lambda x, y: (
            np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
        )
        c = mf.ritz_project(sys8, gg)
        pts, w, _ = sys8.quad_points()
        gx, gy = gg(pts[..., 0], pts[..., 1])
        mean_gx = gx @ w
        mean_gy = gy @ w
        contrib = (
            mean_gx[:, None] * sys8._grads[:, 0, :]
            + mean_gy[:, None] * sys8._grads[:, 1, :]
        )
        rhs = np.zeros(sys8.n_dof)
        dofs = sys8.mesh.interior_map[sys8.mesh.triangles]
        ok = dofs >= 0
        np.add.at(rhs, dofs[ok], contrib[ok])
        resid = rhs - sys8.stiffness.matvec(c)
        assert np.max(np.abs(resid)) <= 1e-11 * np.max(np.abs(rhs))


class TestNorms:
    def test_zero(self, sys4):
        assert mf.l2_norm(sys4, np.zeros(9)) == 0.0
        assert mf.h1_seminorm(sys4, np.zeros(9)) == 0.0

    def test_single_dof_l2(self):
        sys2 = mf.assemble(mf.build_mesh(2))
        assert mf.l2_norm(sys2, np.array([1.0])) == pytest.approx(math.sqrt(0.125))

    def test_error_zero_for_fe_function_itself(self, sys8):
        rng = np.random.default_rng(4)
        c = rng.standard_normal(sys8.n_dof)
        full = mf.nodal_values(sys8, c)
        mesh = sys8.mesh

        def u(x, y):
            # evaluate the FE function: locate the cell, then the triangle half
            M = mesh.M
            x, y = np.broadcast_arrays(x, y)
            xx = x.ravel()
            yy = y.ravel()
            out = np.empty_like(xx)
            for idx, (a, b) in enumerate(zip(xx, yy)):
                i = min(int(a * M), M - 1)
                j = min(int(b * M), M - 1)
                s = a * M - i
                t = b * M - j
                n00 = full[i * (M + 1) + j]
                n10 = full[(i + 1) * (M + 1) + j]
                n11 = full[(i + 1) * (M + 1) + j + 1]
                n01 = full[i * (M + 1) + j + 1]
                if s >= t:
                    out[idx] = n00 + s * (n10 - n00) + t * (n11 - n10)
                else:
                    out[idx] = n00 + t * (n01 - n00) + s * (n11 - n01)
            return out.reshape(x.shape)

        l2, _ = mf.error_norms(sys8, c, u)
        assert l2 <= 1e-13 * mf.l2_norm(sys8, c)

    def test_exact_solution_tabulated_once(self, sys8, monkeypatch):
        case = ref.get_case("e", 1.5)
        sol = ref.exact_solution(case, ref.modal_coefficients(case, 31), 0.1)
        c = mf.l2_project(sys8, case.v)
        builds = []
        real = ref._cell_tables

        def counted(offsets, M, modes):
            # one table build tabulates the x side, then the y side
            if modes is sol.expansion.ks:
                builds.append(1)
            return real(offsets, M, modes)

        monkeypatch.setattr(ref, "_cell_tables", counted)
        l2, h1 = mf.error_norms(sys8, c, sol, sol.grad)
        assert len(builds) == 1 and h1 > 0.0
        assert mf.error_norms(sys8, c, sol) == (l2, None)
        assert len(builds) == 2
        # a gradient that is not sol.grad itself is evaluated per grid
        apart = mf.error_norms(sys8, c, sol, lambda x, y: sol.grad(x, y))
        assert len(builds) == 2
        assert apart == pytest.approx((l2, h1), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("M", [2, 8, 16])
    @pytest.mark.parametrize("cid,alpha", [("a", 0.5), ("b", 0.5), ("e", 1.5)])
    def test_series_norms_against_pointwise_oracle(self, cid, alpha, M):
        # the discrete reference lies O(h^2) from the series, as a solve does
        case = ref.get_case(cid, alpha)
        sol = ref.exact_solution(case, ref.modal_coefficients(case, 255), 0.1)
        s = mf.fem_system(M)
        c = ref.discrete_reference(s, case, 0.1)
        l2, h1 = mf.error_norms(s, c, sol, sol.grad)
        want = pointwise_error_norms(
            s, c, lambda x, y: row_dot_series(sol, x, y)[0],
            lambda x, y: row_dot_series(sol, x, y)[1],
        )
        assert l2 == pytest.approx(want[0], rel=1e-14, abs=0.0)
        assert h1 == pytest.approx(want[1], rel=1e-14, abs=0.0)
        assert mf.error_norms(s, c, sol) == (l2, None)

    @pytest.mark.parametrize("M", [2, 8, 16])
    def test_plain_callable_norms_against_pointwise_oracle(self, M):
        s = mf.fem_system(M)
        case = ref.get_case("a", 0.5)
        c = mf.l2_project(s, case.v)
        g = lambda x, y: np.sin(np.pi * x) * np.sin(2 * np.pi * y)
        for u, grad in ((case.v, case.v_grad), (ref._chi_left, None), (g, None)):
            got, want = mf.error_norms(s, c, u, grad), pointwise_error_norms(s, c, u, grad)
            assert got[0] == pytest.approx(want[0], rel=1e-14, abs=0.0)
            if grad is None:
                assert got[1] is want[1] is None
            else:
                assert got[1] == pytest.approx(want[1], rel=1e-14, abs=0.0)

    def test_series_norms_peak_allocation(self):
        # the fields are summed grid by grid: no (2 nq, M, M) field and no
        # table of every distinct point against every mode
        case = ref.get_case("e", 1.5)
        sol = ref.exact_solution(case, ref.modal_coefficients(case, 255), 0.1)
        s = mf.fem_system(64)
        c = mf.l2_project(s, case.v)
        tracemalloc.start()
        try:
            mf.error_norms(s, c, sol, sol.grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6, peak

    def test_discrete_poincare(self, sys8):
        rng = np.random.default_rng(9)
        bound = 1.0 / (math.pi * math.sqrt(2.0)) + 1e-3
        for _ in range(20):
            c = rng.standard_normal(sys8.n_dof)
            assert mf.l2_norm(sys8, c) <= bound * mf.h1_seminorm(sys8, c)


class TestEigenvalue:
    def test_smallest_eigenvalue_converges_one_sided(self):
        lam_exact = 2.0 * math.pi ** 2
        errs = []
        for M in (4, 8, 16):
            s = mf.assemble(mf.build_mesh(M))
            w, _ = gen_sym_eig(s.stiffness.to_dense(), s.mass.to_dense())
            assert w[0] > lam_exact  # consistent-mass bias is from above
            errs.append(w[0] - lam_exact)
        # O(h^2): error ratio ~ 4 per doubling
        for k in range(2):
            assert errs[k] / errs[k + 1] == pytest.approx(4.0, rel=0.2)
        # M=8: within 4 percent (the consistent-mass constant gives 3.9%)
        assert errs[1] / lam_exact < 0.04


class TestQuadratureRules:
    @pytest.mark.parametrize("M", [2, 8, 64])
    @pytest.mark.parametrize("order", [4, 10])
    def test_grid_points_are_quad_points_bitwise(self, M, order):
        s = mf.fem_system(M)
        pts, w, shape = s.quad_points(order)
        xs, ys, grid_w, grid_shape = s.grid_points(order)
        nq = len(w)
        # element (i M + j) 2 + t, rule point q: grid t nq + q, entry (i, j)
        grids = pts.reshape(M, M, 2, nq, 2).transpose(2, 3, 0, 1, 4).reshape(2 * nq, M, M, 2)
        bits = lambda a: np.ascontiguousarray(a).view(np.uint64)
        assert xs.shape == ys.shape == (2 * nq, M)
        full = grids.shape[:3]
        assert np.array_equal(bits(grids[..., 0]), bits(np.broadcast_to(xs[:, :, None], full)))
        assert np.array_equal(bits(grids[..., 1]), bits(np.broadcast_to(ys[:, None, :], full)))
        assert np.array_equal(grid_w, w) and np.array_equal(grid_shape, shape)

    @pytest.mark.parametrize("M", [2, 8, 64])
    @pytest.mark.parametrize("order", [4, 10])
    def test_grid_points_are_cell_corners_plus_offset(self, M, order):
        # what ExactSolution.cell_grids assumes: x = i/M + xs[g, 0]
        xs, ys, _, _ = mf.fem_system(M).grid_points(order)
        corners = np.arange(M) / M
        assert np.max(np.abs(xs - corners - xs[:, :1])) <= 2.3e-16
        assert np.max(np.abs(ys - corners - ys[:, :1])) <= 2.3e-16

    def test_unknown_order_rejected(self, sys4):
        for call in (sys4.quad_points, sys4.grid_points,
                     lambda order: mf.error_norms(sys4, np.zeros(9), ref._chi_left, order=order)):
            with pytest.raises(ValueError, match=r"orders are \[4, 10\]"):
                call(7)

    @pytest.mark.parametrize("order", [4, 10])
    def test_exactness_on_monomials(self, order):
        sys2 = mf.assemble(mf.build_mesh(2))
        pts, w, shape = sys2.quad_points(order)
        deg = 4 if order == 4 else 8
        # integrate x^a y^b over the square via the rule; compare exactly
        for a in range(deg + 1):
            for b in range(deg + 1 - a):
                vals = pts[..., 0] ** a * pts[..., 1] ** b
                got = float(np.sum(vals @ w))
                assert got == pytest.approx(1.0 / ((a + 1) * (b + 1)), rel=1e-13)


def modal_view(M):
    """fem_system(M) and its modal view."""
    base = mf.fem_system(M)
    return base, base.modal


# the backward Euler step weight tau^-alpha at tau = 1e-7, alpha = 1.5
W0 = 1e-7 ** -1.5

# (case, alpha, initial projection) per scheme: the SBD first-step term
# (v != 0), the sources of (c) and (g), the b data of (f) and the Ritz
# projection of the bubble (a), (d)
PRIMARY_CASES = [
    ("a", 0.5, "Ritz"), ("b", 0.5, "L2"), ("c", 0.5, "L2"),
    ("d", 1.5, "Ritz"), ("e", 1.5, "L2"), ("f", 1.5, "L2"), ("g", 1.5, "L2"),
]
MATCH_CASES = {
    "be": PRIMARY_CASES,
    "sbd": PRIMARY_CASES,
    "l1": [("a", 0.5, "L2"), ("b", 0.5, "L2"), ("c", 0.5, "L2")],
    "zeng1": [("a", 0.5, "L2"), ("b", 0.5, "L2"), ("c", 0.5, "L2")],
    "zeng2": [("a", 0.5, "L2"), ("b", 0.5, "L2"), ("c", 0.5, "L2")],
    "cn": [("d", 1.5, "L2"), ("e", 1.5, "L2"), ("f", 1.5, "L2"), ("g", 1.5, "L2")],
}


class TestStepSolvers:
    def test_backend_follows_the_system(self):
        base, view = modal_view(8)
        assert base.fem is base and view.fem is base
        assert view is base.modal
        lam, basis = ref._eigensystem(base)
        assert view.lam is lam and view.basis is basis
        assert base.step_system(1.0, 1.0).backend == "cg"
        assert view.step_system(1.0, 1.0).backend == "modal"
        # identity mass, diagonal stiffness, loads mapped by Phi^T
        x = np.arange(1.0, view.n_dof + 1)
        assert view.mass.matvec(x) is x
        assert np.array_equal(view.stiffness.matvec(x), lam * x)
        assert np.array_equal(view.coords(x), basis.T @ x)
        assert base.coords(x) is x

    def test_modal_load_cached_read_only(self):
        base, view = modal_view(8)
        g = ref.get_case("c", 0.5).source_space
        first = mf.load_vector(view, g)
        assert mf.load_vector(view, g) is first
        assert not first.flags.writeable
        assert np.array_equal(first, view.basis.T @ mf.load_vector(base, g))

    @pytest.mark.parametrize("M", [8, 16])
    @pytest.mark.parametrize("a,b", [(1.0, 0.0), (0.0, 1.0), (W0, 1.0)])
    def test_modal_residual(self, M, a, b):
        base, view = modal_view(M)
        solver = view.step_system(a, b)
        A = a * base.mass.to_dense() + b * base.stiffness.to_dense()
        rng = np.random.default_rng(M)
        for _ in range(3):
            load = rng.standard_normal(view.n_dof)
            rhs = view.coords(load)
            stats = {}
            c = solver.solve(rhs, stats=stats)
            # in the view's own coordinates the solve is one division per mode
            res = np.linalg.norm((a + b * view.lam) * c - rhs)
            assert res <= 2e-15 * np.linalg.norm(rhs)
            assert stats["iterations"] == 0 and stats["residual"] is None
            # mapped back, Phi c solves the nodal system with the load itself
            nodal = np.linalg.norm(A @ (view.basis @ c) - load)
            assert nodal <= 5e-14 * np.linalg.norm(load)

    @pytest.mark.parametrize("scheme", ["be", "sbd", "l1", "zeng1", "zeng2", "cn"])
    def test_schemes_match_cg(self, scheme):
        # the modal march mapped back with Phi against the nodal CG march
        base, view = modal_view(8)
        grid = schemes.TimeGrid(0.1, 20)

        def run(sys_, case, projection):
            if scheme in ("be", "sbd"):
                equation = "subdiffusion" if case.alpha < 1.0 else "diffusion_wave"
                cfg = schemes.SchemeConfig(scheme.upper(), equation, True, projection)
                return schemes.solve(sys_, case, cfg, grid)
            return baselines.solve_baseline(sys_, case, scheme, grid)

        for cid, alpha, projection in MATCH_CASES[scheme]:
            case = ref.get_case(cid, alpha)
            cg, modal = run(base, case, projection), run(view, case, projection)
            assert (cg.backend, modal.backend) == ("cg", "modal")
            nodal = modal.U @ view.basis.T
            assert np.linalg.norm(nodal - cg.U) <= 1e-9 * np.linalg.norm(cg.U), cid
            assert [n for n, _, _ in modal.solve_stats] == list(range(1, 21))
            assert all(its == 0 for _, its, _ in modal.solve_stats)
            assert all(its > 0 for _, its, _ in cg.solve_stats)

    @pytest.mark.parametrize("cid,alpha", [("a", 0.5), ("c", 0.5), ("e", 1.5), ("f", 1.5)])
    def test_discrete_reference_in_view_coordinates(self, cid, alpha):
        base, view = modal_view(8)
        case = ref.get_case(cid, alpha)
        for t in (0.1, 1e-4):
            nodal = ref.discrete_reference(base, case, t)
            amp = ref.discrete_reference(view, case, t)
            want = view.basis.T @ base.mass.matvec(nodal)
            assert np.linalg.norm(amp - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("a,b", [(-1.0, 1.0), (1.0, -1.0), (0.0, 0.0), (float("nan"), 1.0)])
    def test_rejects_coefficients(self, a, b):
        base, view = modal_view(4)
        for sys_ in (base, view):
            with pytest.raises(ValueError, match="a, b >= 0"):
                sys_.step_system(a, b)

    def test_modal_view_solved_once(self, monkeypatch):
        # the view belongs to its system: the views of other systems never
        # evict its eigensystem, and the reference reads the same one
        base, view = modal_view(8)
        for M in (2, 4, 6) * 3:
            assert mf.assemble(mf.build_mesh(M)).modal.n_dof == (M - 1) ** 2
        calls = []
        real = np.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        assert base.modal is view
        assert base.modal.lam is ref._eigensystem(base)[0]
        assert calls == []

    def test_throwaway_system_freed(self):
        fem = mf.assemble(mf.build_mesh(8))
        assert fem.modal.fem is fem
        gone = weakref.ref(fem)
        del fem
        gc.collect()
        assert gone() is None

    def test_throwaway_system_freed_with_its_caches(self):
        # loads, view loads and reference factors are kept with their system
        fem = mf.assemble(mf.build_mesh(4))
        case = ref.get_case("c", 0.5)
        ref.discrete_reference(fem, case, 0.1)
        mf.l2_project(fem, case.source_space)
        mf.load_vector(fem.sine, case.source_space)
        assert mf._nodal_load.entries(fem) and ref._discrete_factor.entries(fem)
        assert mf._view_load.entries(fem.modal) and mf._view_load.entries(fem.sine)
        gone = [weakref.ref(x) for x in (fem, fem.modal, fem.sine)]
        del fem
        gc.collect()
        assert [r() for r in gone] == [None] * 3

    def test_system_cache_is_bounded_lru(self):
        fem = mf.assemble(mf.build_mesh(2))
        loads = [lambda x, y, k=k: x + k for k in range(65)]
        first = mf.load_vector(fem, loads[0])
        for g in loads[1:64]:
            mf.load_vector(fem, g)
        # 64 entries; loads[0], the oldest, is used again, so loads[1] goes
        assert mf.load_vector(fem, loads[0]) is first
        mf.load_vector(fem, loads[64])
        kept = list(mf._nodal_load.entries(fem))
        assert len(kept) == 64 and (loads[1],) not in kept
        assert kept[-2:] == [(loads[0],), (loads[64],)]
