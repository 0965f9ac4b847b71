import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.integrate import dblquad

from _oracles import (
    RULE_10, bincount_matvec, error_norms, gen_sym_eig, loop_assembly, loop_element,
    loop_matrices, loop_mesh,
)
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
        area = 0.5 * mesh.h ** 2
        for tri in mesh.triangles[:8]:
            coords = mesh.nodes[tri]
            Mloc, Kloc, grads = loop_element(coords)
            gvals = a + bx * coords[:, 0] + cy * coords[:, 1]
            expect = area * grads.T @ np.array([bx, cy])
            assert np.allclose(Kloc @ gvals, expect, atol=1e-14)

    @pytest.mark.parametrize("M", [2, 6, 16, 64])
    def test_matches_element_loop(self, M):
        # bit for bit: the mesh of the loop
        nodes, triangles, interior_map = loop_mesh(M)
        mesh = mf.build_mesh(M)
        for got, want in [
            (mesh.nodes, nodes), (mesh.triangles, triangles), (mesh.interior_map, interior_map)
        ]:
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("M", [2, 4, 8, 16])
    def test_nodal_operators_match_element_loop(self, M):
        # the sine view's matrices in nodal coordinates are the assembled ones
        sys_ = mf.assemble(mf.build_mesh(M))
        mass, stiffness = loop_matrices(M)
        for op, want, tol in (
            (sys_.mass, mass, 2e-15 * np.max(mass)),
            (sys_.stiffness, stiffness, 1e-14),
            (sys_.mass.scaled_add(1.7, sys_.stiffness, 0.3), 1.7 * mass + 0.3 * stiffness, 1e-14),
        ):
            assert np.max(np.abs(op.to_dense() - want)) <= tol
            assert np.max(np.abs(op.diagonal() - np.diag(want))) <= tol
            assert abs(op.frobenius_norm() - np.linalg.norm(want)) <= 1e-15 * np.linalg.norm(want)

    @pytest.mark.parametrize("M", [8, 16, 32, 64])
    def test_nodal_norms_match_element_loop(self, M):
        # sqrt(c^T A c) with A the element loop's, by products of its entries
        sys_ = mf.assemble(mf.build_mesh(M))
        rows, cols, mass, stiffness, _ = loop_assembly(*loop_mesh(M))
        rng = np.random.default_rng(M)
        for c in (rng.standard_normal(sys_.n_dof), np.ones(sys_.n_dof)):
            for norm, vals in ((mf.l2_norm, mass), (mf.h1_seminorm, stiffness)):
                want = math.sqrt(c @ bincount_matvec(sys_.n_dof, rows, cols, vals, c))
                assert abs(norm(sys_, c) - want) <= 1e-14 * want

    def test_assembly_against_quadrature_oracle(self):
        # brute-force element integrals of phi_i phi_j and grad phi_i . grad phi_j
        mesh = mf.build_mesh(2)
        tri = mesh.triangles[0]
        coords = mesh.nodes[tri]
        Mloc, Kloc, grads = loop_element(coords)
        area = 0.5 * mesh.h ** 2

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
            e, _ = error_norms(s, c, g)
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
            # piecewise-linear hat at grid node (i0, j0): six triangles, two
            # cells split by their lower-left-to-upper-right diagonal
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
        mesh = sys8.mesh
        full = np.zeros(len(mesh.nodes))
        full[mesh.interior_map >= 0] = c

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

        l2, _ = error_norms(sys8, c, u)
        assert l2 <= 1e-13 * mf.l2_norm(sys8, c)

    def test_series_closed_form_in_every_view(self):
        # the discrete reference is one FE function in nodal, sine and modal
        # coordinates, so it lies at one distance from the series
        case = ref.get_case("b", 0.5)
        sol = ref.exact_solution(case, ref.modal_coefficients(case, 63), 0.1)
        base = mf.fem_system(8)
        want = sol.error_norms(base, ref.discrete_reference(base, case, 0.1))
        for view in (base.sine, base.modal):
            got = sol.error_norms(view, ref.discrete_reference(view, case, 0.1))
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_series_closed_form_peak_allocation(self):
        # four (M-1, K) node tables and a few (K, L) mode tables, no field
        # over points: 1.9 MB measured at M=64, K_max=255
        case = ref.get_case("e", 1.5)
        sol = ref.exact_solution(case, ref.modal_coefficients(case, 255), 0.1)
        s = mf.fem_system(64).sine
        c = mf.l2_project(s, case.v)
        tracemalloc.start()
        try:
            sol.error_norms(s, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3e6, peak

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
    @pytest.mark.parametrize("order", [4, 10])
    def test_exactness_on_monomials(self, order):
        # the load rule, and the degree-10 rule of the error oracle
        sys2 = mf.assemble(mf.build_mesh(2))
        if order == 4:
            pts, w, _ = sys2.quad_points()
        else:
            bary, w = RULE_10
            pts = np.einsum("qk,ekd->eqd", bary, sys2.mesh.nodes[sys2.mesh.triangles])
            w = w * sys2.mesh.h ** 2
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

# (case, alpha) per scheme: the SBD first-step term (v != 0), the sources
# of (c) and (g) and the b data of (f)
SUB_CASES = [("a", 0.5), ("b", 0.5), ("c", 0.5)]
WAVE_CASES = [("d", 1.5), ("e", 1.5), ("f", 1.5), ("g", 1.5)]
MATCH_CASES = {
    "be": SUB_CASES + WAVE_CASES,
    "sbd": SUB_CASES + WAVE_CASES,
    "l1": SUB_CASES,
    "zeng1": SUB_CASES,
    "zeng2": SUB_CASES,
    "cn": WAVE_CASES,
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
        # identity mass, diagonal stiffness, loads mapped by Phi^T: coords
        # goes through the sine view's blocks, within 2.3e-15 ||x|| of the
        # dense product
        x = np.arange(1.0, view.n_dof + 1)
        assert view.mass.matvec(x) is x
        assert np.array_equal(view.stiffness.matvec(x), lam * x)
        assert np.max(np.abs(view.coords(x) - basis.T @ x)) <= 1e-14 * np.linalg.norm(x)
        assert base.coords(x) is x

    def test_modal_load_cached_read_only(self):
        base, view = modal_view(8)
        g = ref.get_case("c", 0.5).source_space
        first = mf.load_vector(view, g)
        assert mf.load_vector(view, g) is first
        assert not first.flags.writeable
        # the blocks' coordinates of the nodal load: 1.9e-15 from Phi^T F
        load = mf.load_vector(base, g)
        assert np.linalg.norm(first - view.basis.T @ load) <= 1e-14 * np.linalg.norm(load)

    @pytest.mark.parametrize("M", [8, 16])
    def test_nodal_is_phi(self, M):
        # the blocks mapped through the sine view against the dense basis:
        # 2.1e-16 and 3.8e-16 relative here
        base, view = modal_view(M)
        c = np.random.default_rng(M).standard_normal(view.n_dof)
        want = view.basis @ c
        assert np.linalg.norm(view.nodal(c) - want) <= 2e-15 * np.linalg.norm(want)

    def test_basis_columns_are_nodal_unit_vectors(self):
        # basis maps one row per eigenvector through the sine view in place,
        # the transform nodal applies to the modal coordinates e_i
        _, view = modal_view(8)
        eye = np.eye(view.n_dof)
        assert all(np.array_equal(view.basis[:, i], view.nodal(e)) for i, e in enumerate(eye))

    def test_modal_view_build_peak_allocation(self):
        # four blocks of at most 256 x 256 at M=32: 3.0 MB traced, where one
        # dense eigh of all 961 modes peaked at 22.3 MB
        fem = mf.assemble(mf.build_mesh(32))
        tracemalloc.start()
        try:
            fem.modal
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

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
            c = solver.solve(rhs)
            # in the view's own coordinates the solve is one division per mode
            res = np.linalg.norm((a + b * view.lam) * c - rhs)
            assert res <= 2e-15 * np.linalg.norm(rhs)
            # mapped back, Phi c solves the nodal system with the load itself
            nodal = np.linalg.norm(A @ (view.basis @ c) - load)
            assert nodal <= 5e-14 * np.linalg.norm(load)
        assert solver.record is None
        # a march's steps report 0 iterations and no residual
        case = ref.get_case("b", 0.5)
        hist = schemes.solve(view, case, schemes.SchemeConfig(), schemes.TimeGrid(0.1, 5))
        assert hist.solve_stats == [(n, 0, None) for n in range(1, 6)]

    @pytest.mark.parametrize("scheme", ["be", "sbd", "l1", "zeng1", "zeng2", "cn"])
    def test_schemes_match_cg(self, scheme):
        # the modal march mapped back with Phi against the nodal CG march
        base, view = modal_view(8)
        grid = schemes.TimeGrid(0.1, 20)

        def run(sys_, case):
            if scheme in ("be", "sbd"):
                equation = "subdiffusion" if case.alpha < 1.0 else "diffusion_wave"
                cfg = schemes.SchemeConfig(scheme.upper(), equation, True)
                return schemes.solve(sys_, case, cfg, grid)
            return baselines.solve_baseline(sys_, case, scheme, grid)

        for cid, alpha in MATCH_CASES[scheme]:
            case = ref.get_case(cid, alpha)
            cg, modal = run(base, case), run(view, case)
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

    @pytest.mark.parametrize("cid,alpha", [("a", 0.5), ("f", 1.5)])
    def test_discrete_reference_in_sine_coordinates(self, cid, alpha):
        # on the sine view the reference is Q u, not the nodal u
        base = mf.fem_system(4)
        case = ref.get_case(cid, alpha)
        nodal = ref.discrete_reference(base, case, 0.1)
        got = ref.discrete_reference(base.sine, case, 0.1)
        assert np.array_equal(got, base.sine.coords(nodal))
        assert np.linalg.norm(got - nodal) > 1e-3 * np.linalg.norm(nodal)

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
        assert vars(fem)["_loads"] and vars(fem)["_factors"]
        assert vars(fem.modal)["_loads"] and vars(fem.sine)["_loads"]
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
        kept = list(vars(fem)["_loads"])
        assert len(kept) == 64 and loads[1] not in kept
        assert kept[-2:] == [loads[0], loads[64]]

    def test_owner_cache_returns_what_its_filing_evicts(self):
        # six keys through a cache of four: one compute call for the four
        # missing ones, every value returned, the last four filed kept
        owner = mf.assemble(mf.build_mesh(2))
        calls = []

        def compute(keys):
            calls.append(list(keys))
            return [np.full(1, float(k)) for k in keys]

        first = mf.owner_cache(owner, "_test", 4, [0], compute)[0]
        got = mf.owner_cache(owner, "_test", 4, [1, 2, 0, 3, 4, 2], compute)
        assert calls == [[0], [1, 2, 3, 4]]
        assert [float(v[0]) for v in got] == [1, 2, 0, 3, 4, 2]
        assert got[2] is first and got[1] is got[5]
        assert list(vars(owner)["_test"]) == [2, 0, 3, 4]
        assert not any(v.flags.writeable for v in got)

    def test_owner_cache_hit_outlives_the_misses_filed_before_it(self):
        # a full cache of four; the two misses filed first evict 0 and 1,
        # yet 0 is a hit of the same call, taken out before any filing
        owner = mf.assemble(mf.build_mesh(2))

        def compute(keys):
            return [np.full(1, float(k)) for k in keys]

        kept = mf.owner_cache(owner, "_test", 4, [0, 1, 2, 3], compute)
        got = mf.owner_cache(owner, "_test", 4, [5, 6, 0], compute)
        assert [float(v[0]) for v in got] == [5, 6, 0]
        assert got[2] is kept[0]
        assert list(vars(owner)["_test"]) == [3, 5, 6, 0]
