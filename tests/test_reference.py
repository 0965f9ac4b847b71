import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from _oracles import gen_sym_eig, series_fields
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
        u, _ = series_fields(sol)
        # the points (xs[i], ys[i]) are the diagonal of the grid xs by ys
        got = np.diag(u(xs[:, None], ys[None, :]))
        assert np.max(np.abs(got - c.v(xs, ys))) < 3e-7

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
        factor = lambda beta: ref._homogeneous_factors(alpha, beta, np.array([lam]), (t,))[0]
        mine = ref.duhamel_factor(alpha, ((1.0, 0.0), (1.0, 0.2)), t, factor)[0]
        assert mine == pytest.approx(oracle, rel=1e-8)

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


class TestSeriesEvaluation:
    def test_cell_tables_reduce_corner_phases_exactly(self):
        # the node tables of the closed-form moments: k pi i/M reaches 790
        # at M=64, K=255, where rounding the phase itself would cost 8e-14;
        # reduced modulo 2 pi first, every entry is within a few ulp of the
        # exact sine and cosine
        M, ks = 64, np.arange(1.0, 256.0)
        sines, cosines = mf._node_tables(M, ks)
        ki = [mp.mpf(i * k) / M for i in range(1, M) for k in range(1, 256)]
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
            assert np.array_equal(ref._homogeneous_factors(alpha, beta, lam, (t,))[0], per_mode)
        powers = ((1.0, 0.0), (1.0, 0.2))
        per_mode = np.zeros(len(lam))
        for c, g in powers:
            pref = c * math.gamma(g + 1.0) * t ** (alpha + g)
            per_mode += pref * mlf_neg(alpha, alpha + g + 1.0, y)
        factor = lambda beta: ref._homogeneous_factors(alpha, beta, lam, (t,))[0]
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

    def test_times_must_be_finite_and_nonnegative(self, sys8):
        # a negative time's t^alpha is complex, and an infinite one gave case f
        # NaN rows; the exact series shares the check
        for c in (ref.get_case("a", 0.5), ref.get_case("f", 1.5)):
            for t in (-1.0, math.nan, math.inf):
                with pytest.raises(ValueError):
                    ref.discrete_reference(sys8, c, t)
                with pytest.raises(ValueError):
                    ref.discrete_reference(sys8, c, [0.1, t])
                with pytest.raises(ValueError):
                    ref.exact_solution(c, ref.modal_coefficients(c, 7), t)

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
        vars(sys8).pop("_factors", None)
        view = sys8.modal
        calls = [(cid, t) for t in (0.1, 0.01) for cid in "abc"] + [("a", 0.1), ("b", 0.01)]
        for cid, t in calls:
            c = ref.get_case(cid, 0.5)
            nodal = ref.discrete_reference(sys8, c, t)
            assert np.array_equal(nodal, view.nodal(ref.discrete_reference(view, c, t)))
        assert sorted(received) == sorted([(0.5, 1.0), (0.5, 1.5), (0.5, 1.7)] * 2)
        entries = vars(sys8)["_factors"]
        assert len(entries) == len(received)
        for key_t in (0.1, 0.01):
            for beta in (1.0, 1.5, 1.7):
                (cached,) = ref._discrete_factors(sys8, 0.5, beta, (key_t,))
                assert cached is entries[0.5, key_t, beta]
                assert not cached.flags.writeable
                with pytest.raises(ValueError):
                    cached[0] = 0.0
        assert len(received) == 6
        alone = ref._homogeneous_factors(0.5, 1.0, view.lam, (0.1,))[0]
        assert np.array_equal(entries[0.5, 0.1, 1.0], alone)

    @pytest.mark.parametrize("cid", "abcdefg")
    def test_ladder_factors_equal_lone_factors(self, monkeypatch, cid):
        # one call per beta for eight times: each time's factor is the one it
        # gets alone and the one of mlf_neg on all its modes
        fem = mf.assemble(mf.build_mesh(8))
        case = ref.get_case(cid, 0.5 if cid in "abc" else 1.5)
        view = fem.modal
        times = [10.0 ** -k for k in range(1, 9)]
        asked, real = [], ref.mlf_neg

        def counted(a, b, y):
            asked.append(b)
            return real(a, b, y)

        monkeypatch.setattr(ref, "mlf_neg", counted)
        refs = ref.discrete_reference(view, case, times)
        # 1 for v, 2 for b and alpha + g + 1 for each source power t^g
        duhamel = [case.alpha + g + 1.0 for _, g in case.source_powers]
        expected = ([1.0] if case.v else []) + ([2.0] if case.b else [])
        assert asked == expected + (duhamel if case.source_space else [])
        monkeypatch.setattr(ref, "mlf_neg", real)
        entries = vars(fem)["_factors"]
        assert len(entries) == len(asked) * len(times)
        for beta in asked:
            for t in times:
                alone = ref._homogeneous_factors(case.alpha, beta, view.lam, (t,))[0]
                assert np.array_equal(entries[case.alpha, t, beta], alone)
                assert np.array_equal(alone, mlf_neg(case.alpha, beta, view.lam * t ** case.alpha))
        assert refs.shape == (len(times), view.n_dof)
        for t, r in zip(times, refs):
            assert np.array_equal(r, ref.discrete_reference(view, case, t))

    def test_ladder_rows_equal_lone_calls_in_every_coordinates(self):
        # fem_system(8) itself, its sine view and its modal view: a ladder's
        # row is bit for bit the reference at its time alone
        fem = mf.fem_system(8)
        times = [0.1, 1e-3, 0.0, 1e-6]
        for cid, alpha in (("b", 0.5), ("c", 0.5), ("f", 1.5)):
            case = ref.get_case(cid, alpha)
            for sys_ in (fem, fem.sine, fem.modal):
                rows = ref.discrete_reference(sys_, case, times)
                assert rows.shape == (len(times), fem.n_dof)
                for t, row in zip(times, rows):
                    assert np.array_equal(row, ref.discrete_reference(sys_, case, t))

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

    def test_blocks_beyond_dense_oracle(self):
        # at M=48 (2209 modes), past the dense oracle's reach: each block's
        # vectors, mapped to sine coordinates, against the sine view's own
        # operators. Measured: residual 7.9e-17 lam_max, M-orthonormality
        # 5.3e-14 (eps lam_max / lam_min is 6.7e-13)
        fem = mf.assemble(mf.build_mesh(48))
        view, sine = fem.modal, fem.sine
        d = sine.stiffness.d

        def vectors(block):
            X = np.zeros((view.n_dof, len(block.lam)))
            block.extend(block.vectors, X)
            return X

        assert sorted(len(b.lam) for b in view._blocks) == [529, 552, 552, 576]
        assert np.all(np.diff(view.lam) >= 0.0)
        for c in view._blocks:
            X = vectors(c)
            MX = np.column_stack([sine.mass.matvec(x) for x in X.T])
            assert np.max(np.abs(d[:, None] * X - MX * c.lam)) <= 1e-15 * view.lam[-1]
            for b in view._blocks:
                gram = vectors(b).T @ MX
                if b is c:
                    gram -= np.eye(len(c.lam))
                assert np.max(np.abs(gram)) <= 2e-13

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
