import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from _oracles import gen_sym_eig
from fracstep import meshfem as mf
from fracstep import reference as ref
from fracstep.mlf import mlf_neg


@pytest.fixture(scope="module")
def sys8():
    return mf.assemble(mf.build_mesh(8))


class TestCases:
    def test_compatibility_guards(self):
        with pytest.raises(ValueError):
            ref.get_case("a", 1.5)
        with pytest.raises(ValueError):
            ref.get_case("d", 0.5)
        with pytest.raises(ValueError):
            ref.get_case("z", 0.5)

    def test_case_instances_cached(self):
        assert ref.get_case("a", 0.5) is ref.get_case("a", 0.5)

    def test_antiderivative(self):
        c = ref.get_case("c", 0.5)
        t = 0.37
        assert c.source_time_integral(t) == pytest.approx(t + t ** 1.2 / 1.2, rel=1e-14)
        # d/dt of the antiderivative is the time factor
        h = 1e-6
        fd = (c.source_time_integral(t + h) - c.source_time_integral(t - h)) / (2 * h)
        assert fd == pytest.approx(c.source_time(t), rel=1e-8)

    def test_chi_left_broadcasts(self):
        x = np.array([0.2, 0.5, 0.7])
        y = np.array([0.1, 0.9])
        got = ref._chi_left(x[:, None], y[None, :])
        assert got.shape == (3, 2)
        assert np.array_equal(got, np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]))
        assert ref._chi_left(0.3, y).shape == (2,)

    def test_data_l2_norms_against_quadrature(self):
        va, _ = dblquad(
            lambda y, x: (x * y * (1 - x) * (1 - y)) ** 2, 0, 1, 0, 1, epsabs=1e-14
        )
        assert va == pytest.approx(1.0 / 900.0, abs=1e-13)
        assert ref.get_case("a", 0.5).v_l2_norm == pytest.approx(math.sqrt(va), rel=1e-12)
        assert ref.get_case("b", 0.5).v_l2_norm == pytest.approx(math.sqrt(0.5), rel=1e-14)


class TestModalCoefficients:
    def test_case_a_closed_form(self):
        c = ref.get_case("a", 0.5)
        assert c.vhat(1.0, 1.0) == pytest.approx(32.0 / math.pi ** 6, rel=1e-13)
        assert c.vhat(2.0, 1.0) == 0.0
        assert c.vhat(3.0, 5.0) == pytest.approx(
            32.0 / (27.0 * 125.0 * math.pi ** 6), rel=1e-13
        )

    def test_case_a_1d_factor_against_quadrature(self):
        for k in (1, 3, 5):
            val, _ = quad(lambda x: x * (1 - x) * math.sin(k * math.pi * x), 0, 1, epsabs=1e-14)
            assert val == pytest.approx(4.0 / (k * math.pi) ** 3, abs=1e-13)

    def test_case_b_closed_form_and_2d_quadrature(self):
        c = ref.get_case("b", 0.5)
        assert c.vhat(1.0, 1.0) == pytest.approx(4.0 / math.pi ** 2, rel=1e-13)

        def f(y, x):
            return 2.0 * math.sin(math.pi * x) * math.sin(math.pi * y)

        val, _ = dblquad(f, 0.0, 0.5, 0.0, 1.0, epsabs=1e-13)
        assert c.vhat(1.0, 1.0) == pytest.approx(val, abs=1e-11)

    @pytest.mark.parametrize("cid,norm2", [("a", 1.0 / 900.0), ("b", 0.5)])
    def test_parseval_convergence(self, cid, norm2):
        c = ref.get_case(cid, 0.5)
        partial = []
        for K in (15, 63, 255):
            e = ref.modal_coefficients(c, K)
            partial.append(float(np.sum(e.vcoef ** 2)))
        assert partial[0] <= partial[1] <= partial[2] <= norm2 + 1e-12
        assert partial[2] == pytest.approx(norm2, rel=6e-3)

    def test_active_mode_filter(self):
        e = ref.modal_coefficients(ref.get_case("a", 0.5), 16)
        assert np.all(e.ks % 2 == 1)
        assert np.all(e.ls % 2 == 1)


class TestExactSolution:
    def test_t0_reproduces_data(self):
        c = ref.get_case("a", 0.5)
        sol = ref.exact_solution(c, ref.modal_coefficients(c, 63), 0.0)
        xs = np.array([0.3, 0.5, 0.77])
        ys = np.array([0.41, 0.5, 0.13])
        assert np.max(np.abs(sol(xs, ys) - c.v(xs, ys))) < 3e-7

    def test_single_mode_heat_kernel(self):
        # one retained mode at alpha -> 1 decays like exp(-lam t)
        c = ref.get_case("a", 1.0 - 1e-12)
        e = ref.modal_coefficients(c, 1)
        t = 0.05
        sol = ref.exact_solution(c, e, t)
        lam = float(e.lam[0, 0])
        expect = float(e.vcoef[0, 0]) * math.exp(-lam * t)
        assert sol.amplitudes[0, 0] == pytest.approx(expect, rel=1e-11)

    def test_duhamel_closed_form_vs_quadrature(self):
        # case (c) mode (1,1): endpoint-regularized quadrature oracle
        alpha, lam, t = 0.5, 2.0 * math.pi ** 2, 0.1

        def integrand(w):
            s = t - w ** (1.0 / alpha)
            return mlf_neg(alpha, alpha, lam * w) * (1.0 + s ** 0.2) / alpha

        oracle, err = quad(integrand, 0.0, t ** alpha, epsabs=1e-14, limit=300)
        factor = lambda beta: ref._homogeneous_factor(alpha, beta, np.array([lam]), t)
        mine = ref.duhamel_factor(alpha, ((1.0, 0.0), (1.0, 0.2)), t, factor)[0]
        assert mine == pytest.approx(oracle, rel=1e-8)

    def test_gradient_consistency(self):
        c = ref.get_case("b", 0.5)
        sol = ref.exact_solution(c, ref.modal_coefficients(c, 31), 0.1)
        x0, y0 = 0.41, 0.63
        h = 1e-6
        gx, gy = sol.grad(np.array([x0]), np.array([y0]))
        fx = (sol(np.array([x0 + h]), np.array([y0])) - sol(np.array([x0 - h]), np.array([y0]))) / (2 * h)
        fy = (sol(np.array([x0]), np.array([y0 + h])) - sol(np.array([x0]), np.array([y0 - h]))) / (2 * h)
        assert gx[0] == pytest.approx(fx[0], rel=1e-6)
        assert gy[0] == pytest.approx(fy[0], rel=1e-6)

    def test_decay_law_slopes(self):
        # ||u(t) - v|| ~ t^(q alpha / 2) as t -> 0
        for cid, expect in (("a", 0.5), ("b", 0.125)):
            c = ref.get_case(cid, 0.5)
            e = ref.modal_coefficients(c, 255)
            ts = np.array([1e-8, 1e-7, 1e-6, 1e-5])
            errs = []
            for t in ts:
                sol = ref.exact_solution(c, e, float(t))
                errs.append(np.sqrt(np.sum((sol.amplitudes - e.vcoef) ** 2)))
            slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
            assert slope == pytest.approx(expect, abs=0.05)

    def test_tail_bound_monotone(self):
        c = ref.get_case("b", 0.5)
        tails = []
        for K in (31, 63, 127, 255):
            sol = ref.exact_solution(c, ref.modal_coefficients(c, K), 0.1)
            tails.append(sol.tail_bound())
        assert all(t1 >= t2 for t1, t2 in zip(tails, tails[1:]))


def _brute_force_series(sol, x, y):
    """Value and gradient of the series, one term per mode, at broadcast x, y."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    u = np.zeros(x.shape)
    gx = np.zeros(x.shape)
    gy = np.zeros(x.shape)
    ks, ls = sol.expansion.ks, sol.expansion.ls
    for i, k in enumerate(ks):
        for j, l in enumerate(ls):
            a = 2.0 * sol.amplitudes[i, j]
            sx, sy = np.sin(k * math.pi * x), np.sin(l * math.pi * y)
            u += a * sx * sy
            gx += a * k * math.pi * np.cos(k * math.pi * x) * sy
            gy += a * l * math.pi * sx * np.cos(l * math.pi * y)
    return u, gx, gy


class TestSeriesEvaluation:
    @pytest.fixture(scope="class")
    def sol(self):
        c = ref.get_case("e", 1.5)
        return ref.exact_solution(c, ref.modal_coefficients(c, 31), 0.1)

    def _inputs(self, sys8):
        pts, _, _ = sys8.quad_points(10)
        rng = np.random.default_rng(7)
        grid_x = np.linspace(0.05, 0.95, 6)
        grid_y = np.array([0.1, 0.5, 0.5, 0.8])
        return {
            "quadrature_M8": (pts[..., 0], pts[..., 1]),
            "random_2d": (rng.random((7, 5)), rng.random((7, 5))),
            "scalar": (0.3, 0.7),
            "broadcast_grid": (grid_x[:, None], grid_y[None, :]),
        }

    @pytest.mark.parametrize(
        "kind", ["quadrature_M8", "random_2d", "scalar", "broadcast_grid"]
    )
    def test_against_brute_force(self, sol, sys8, kind):
        x, y = self._inputs(sys8)[kind]
        u, gx, gy = _brute_force_series(sol, x, y)
        got = sol(x, y)
        got_gx, got_gy = sol.grad(x, y)
        assert got.shape == u.shape == np.broadcast(x, y).shape
        assert got_gx.shape == got_gy.shape == u.shape
        assert np.max(np.abs(got - u)) <= 1e-13 * np.max(np.abs(u))
        gscale = max(np.max(np.abs(gx)), np.max(np.abs(gy)))
        assert np.max(np.abs(got_gx - gx)) <= 1e-13 * gscale
        assert np.max(np.abs(got_gy - gy)) <= 1e-13 * gscale

    @pytest.mark.parametrize("M", [2, 8])
    @pytest.mark.parametrize("cid", "abefg")
    def test_cell_grids_match_calls(self, cid, M):
        # sin(k pi (i/M + d)) by the addition formula, at the rule's grids
        case = ref.get_case(cid, 0.5 if cid in "abc" else 1.5)
        sol = ref.exact_solution(case, ref.modal_coefficients(case, 63), 0.1)
        xs, ys, _, _ = mf.fem_system(M).grid_points(10)
        full = sol.cell_grids(xs[:, 0], ys[:, 0], M, True)
        plain = sol.cell_grids(xs[:, 0], ys[:, 0], M)
        seen = []
        for (g, u, ux, uy), (g_plain, *rest) in zip(full, plain):
            x, y = xs[g][:, None], ys[g][None, :]
            want, (want_x, want_y) = sol(x, y), sol.grad(x, y)
            assert np.max(np.abs(u - want)) <= 1e-14 * np.max(np.abs(want))
            gscale = max(np.max(np.abs(want_x)), np.max(np.abs(want_y)))
            assert np.max(np.abs(ux - want_x)) <= 1e-14 * gscale
            assert np.max(np.abs(uy - want_y)) <= 1e-14 * gscale
            assert g_plain == g and np.array_equal(rest[0], u) and rest[1:] == [None, None]
            seen.append(g)
        assert sorted(seen) == list(range(len(xs)))

    def test_cell_tables_reduce_corner_phases_exactly(self):
        # k pi i/M reaches 790 at M=64, K=255, where rounding the phase
        # itself would cost 8e-14; reduced modulo 2 pi first, every entry
        # is within a few ulp of the exact sine and cosine
        M, ks = 64, np.arange(1.0, 256.0)
        sines, cosines, _, _ = ref._cell_tables(np.zeros(1), M, ks)
        ki = [mp.mpf(i * k) / M for i in range(M) for k in range(1, 256)]
        for table, exact in ((sines, mp.sinpi), (cosines, mp.cospi)):
            want = np.array([float(exact(v)) for v in ki]).reshape(table.shape)
            assert np.max(np.abs(table - want)) <= 1e-15


class TestModeFactors:
    @pytest.fixture(scope="class", params=["continuous_e_K63", "discrete_M8"])
    def spectrum(self, request, sys8):
        if request.param == "continuous_e_K63":
            lam = ref.modal_coefficients(ref.get_case("e", 1.5), 63).lam.ravel()
            return 1.5, lam
        return 0.5, ref._eigensystem(sys8)[0]

    def test_factors_bitwise_equal_per_mode(self, spectrum):
        # one array call on every mode, duplicates kept: deduplication must
        # not change a single bit of any mode's factor
        alpha, lam = spectrum
        t = 0.1
        y = lam * t ** alpha
        for beta in (1.0, 2.0):
            per_mode = mlf_neg(alpha, beta, y)
            assert np.array_equal(ref._homogeneous_factor(alpha, beta, lam, t), per_mode)
        powers = ((1.0, 0.0), (1.0, 0.2))
        per_mode = np.zeros(len(lam))
        for c, g in powers:
            pref = c * math.gamma(g + 1.0) * t ** (alpha + g)
            per_mode += pref * mlf_neg(alpha, alpha + g + 1.0, y)
        factor = lambda beta: ref._homogeneous_factor(alpha, beta, lam, t)
        assert np.array_equal(ref.duhamel_factor(alpha, powers, t, factor), per_mode)

    @pytest.mark.parametrize("cid,alpha,factors", [("e", 1.5, 1), ("c", 0.5, 2)])
    def test_one_mlf_call_per_distinct_eigenvalue(self, monkeypatch, cid, alpha, factors):
        c = ref.get_case(cid, alpha)
        e = ref.modal_coefficients(c, 63)
        received = []
        real = ref.mlf_neg

        def counted(a, b, y):
            received.append(np.ravel(y))
            return real(a, b, y)

        monkeypatch.setattr(ref, "mlf_neg", counted)
        ref.exact_solution(c, e, 0.1)
        distinct = len(np.unique(e.lam))
        assert distinct < e.lam.size
        assert len(received) == factors
        for ys in received:
            assert len(np.unique(ys)) == len(ys)
        assert sum(len(ys) for ys in received) == factors * distinct


class TestDiscreteReference:
    def test_t0_is_projection(self, sys8):
        c = ref.get_case("a", 0.5)
        u0 = ref.discrete_reference(sys8, c, 0.0)
        vc = mf.l2_project(sys8, c.v)
        assert np.max(np.abs(u0 - vc)) < 1e-12

    def test_alpha_one_matches_heat_semigroup(self, sys8):
        c = ref.get_case("a", 1.0 - 1e-12)
        lam, Phi = ref._eigensystem(sys8)
        vc = mf.l2_project(sys8, c.v)
        vb = Phi.T @ sys8.mass.matvec(vc)
        t = 0.05
        expect = Phi @ (vb * np.exp(-lam * t))
        got = ref.discrete_reference(sys8, c, t)
        assert np.max(np.abs(got - expect)) < 1e-12

    def test_expansion_reconstructs_data(self, sys8):
        c = ref.get_case("b", 0.5)
        view = sys8.modal
        vc = mf.l2_project(sys8, c.v)
        recon = view.basis @ mf.load_vector(view, c.v)
        assert np.max(np.abs(recon - vc)) <= 1e-10

    def test_one_mlf_call_per_distinct_factor(self, monkeypatch, sys8):
        # cases a and b share E_{alpha,1} on one spectrum, c needs two Duhamel
        # factors; the modal view reads the same cache as the nodal system
        received = []
        real = ref.mlf_neg

        def counted(a, b, y):
            received.append((a, b))
            return real(a, b, y)

        monkeypatch.setattr(ref, "mlf_neg", counted)
        ref._discrete_factor.entries(sys8).clear()
        view = sys8.modal
        calls = [(cid, t) for t in (0.1, 0.01) for cid in "abc"] + [("a", 0.1), ("b", 0.01)]
        for cid, t in calls:
            c = ref.get_case(cid, 0.5)
            nodal = ref.discrete_reference(sys8, c, t)
            assert np.array_equal(nodal, view.basis @ ref.discrete_reference(view, c, t))
        assert sorted(received) == sorted([(0.5, 1.0), (0.5, 1.5), (0.5, 1.7)] * 2)
        assert len(ref._discrete_factor.entries(sys8)) == len(received)
        for key_t in (0.1, 0.01):
            for beta in (1.0, 1.5, 1.7):
                cached = ref._discrete_factor(sys8, 0.5, key_t, beta)
                assert not cached.flags.writeable
                with pytest.raises(ValueError):
                    cached[0] = 0.0
        alone = ref._homogeneous_factor(0.5, 1.0, view.lam, 0.1)
        assert np.array_equal(ref._discrete_factor(sys8, 0.5, 0.1, 1.0), alone)

    def test_exact_solution_needs_continuous_expansion(self, sys8):
        view = sys8.modal
        exp = ref.ModalExpansion(view.lam, *[np.zeros(view.n_dof)] * 3)
        with pytest.raises(ValueError, match="continuous expansion"):
            ref.exact_solution(ref.get_case("a", 0.5), exp, 0.1)

    def test_dof_guard(self):
        big = mf.assemble(mf.build_mesh(66))
        with pytest.raises(ValueError, match="self-convergence"):
            ref.discrete_reference(big, ref.get_case("a", 0.5), 0.1)

    @pytest.mark.parametrize("M", [8, 16, 32])
    def test_eigensystem_matches_dense_oracle(self, M):
        # the sine-view eigensolve against Cholesky on the dense nodal pencil;
        # M-orthonormality loses about eps lam_max / lam_min to the S^(-1/2)
        # scaling, 2.3e-13 at M=32
        fem = mf.fem_system(M)
        S, Mass = fem.stiffness.to_dense(), fem.mass.to_dense()
        lam, basis = ref._eigensystem(fem)
        lam_ref, _ = gen_sym_eig(S, Mass)
        assert np.all(np.diff(lam) >= 0.0)
        assert np.max(np.abs(lam - lam_ref) / lam_ref) <= 1e-12
        assert np.max(np.abs(basis.T @ Mass @ basis - np.eye(fem.n_dof))) <= 1e-12
        assert np.max(np.abs(S @ basis - (Mass @ basis) * lam)) <= 1e-14 * lam[-1]

    def test_be_solution_approaches_reference(self, sys8):
        # independent cross-check of the two solution paths
        from fracstep import schemes

        c = ref.get_case("a", 0.5)
        r = ref.discrete_reference(sys8, c, 0.1)
        cfg = schemes.SchemeConfig("BE", "subdiffusion")
        e_coarse = mf.l2_norm(
            sys8, schemes.solve(sys8, c, cfg, schemes.TimeGrid(0.1, 256)).final - r
        )
        e_fine = mf.l2_norm(
            sys8, schemes.solve(sys8, c, cfg, schemes.TimeGrid(0.1, 512)).final - r
        )
        assert e_fine <= 0.6 * e_coarse  # first-order halving
        assert e_fine < 1e-5
