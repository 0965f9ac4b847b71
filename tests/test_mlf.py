import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
import scipy.special as special

import fracstep.mlf as mlf
from fracstep.mlf import MlfAccuracyError, mlf_neg


def erfcx_cf(x, terms=500):
    """Scaled complementary error function by modified Lentz iteration.

    Independent of both scipy and the module under test; accurate for x >= 1:
    erfcx(x) = (1/sqrt(pi)) / (x + (1/2)/(x + (2/2)/(x + (3/2)/(x + ...)))).
    """
    tiny = 1e-300
    f = tiny
    c = f
    d = 0.0
    for n in range(1, terms):
        a = 1.0 if n == 1 else (n - 1) / 2.0
        d = x + a * d
        if d == 0.0:
            d = tiny
        c = x + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return f / math.sqrt(math.pi)


def mp_mlf(alpha, beta, y, max_lost=400):
    """Adaptive-precision series oracle; digits sized to cover cancellation.

    Raises ValueError where the cancellation would cost more than
    ``max_lost`` digits; the cost of a point grows with them.
    """
    af, bf, yf = float(alpha), float(beta), float(y)
    if yf == 0.0:
        return 1.0 / math.gamma(bf)
    kpeak = max(5, int(yf ** (1.0 / af) / af) + 2)
    lost = max(0.0, (kpeak * math.log(yf) - math.lgamma(af * kpeak + bf)) / math.log(10))
    if lost > max_lost:
        raise ValueError("oracle would need too many digits")
    old = mp.mp.dps
    try:
        mp.mp.dps = int(lost) + 40
        a, b, yy = mp.mpf(repr(af)), mp.mpf(repr(bf)), mp.mpf(repr(yf))
        s = mp.mpf(0)
        k = 0
        while True:
            term = (-yy) ** k / mp.gamma(a * k + b)
            s += term
            if abs(term) < mp.mpf(10) ** (-mp.mp.dps + 8) and k > 5:
                break
            k += 1
        return float(s)
    finally:
        mp.mp.dps = old


def talbot_mlf(alpha, beta, y):
    """E_{alpha,beta}(-y) by numerical inversion of its Laplace transform.

    t^(beta-1) E_{alpha,beta}(-y t^alpha) has the transform
    s^(alpha-beta) / (s^alpha + y); mpmath inverts it at t = 1 on the fixed
    Talbot contour at 40 digits. Unlike the series oracle, its cost does not
    grow with y or 1/alpha.
    """
    with mp.workdps(40):
        a, b, yy = (mp.mpf(repr(float(v))) for v in (alpha, beta, y))

        def transform(s):
            ln_s = mp.log(s)
            return mp.exp((a - b) * ln_s) / (mp.exp(a * ln_s) + yy)

        return float(mp.invertlaplace(transform, 1, method="talbot"))


class TestClosedForms:
    def test_exponential(self):
        assert mlf_neg(1.0, 1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_at_zero(self):
        for beta in (0.5, 1.0, 2.0, 3.7):
            assert mlf_neg(1.3, beta, 0.0) == pytest.approx(1.0 / math.gamma(beta), rel=1e-14)

    def test_erfcx_identity_known_value(self):
        # E_{1/2,1}(-x) = exp(x^2) erfc(x)
        assert mlf_neg(0.5, 1.0, 1.0) == pytest.approx(0.4275835761558070, rel=1e-12)

    @pytest.mark.parametrize("x", [1.0, 2.5, 5.0, 10.0, 25.0, 60.0, 100.0])
    def test_erfcx_identity_cf_oracle(self, x):
        got = mlf_neg(0.5, 1.0, x)
        ref_cf = erfcx_cf(x)
        ref_scipy = float(special.erfcx(x))
        # the two oracles must agree with each other first
        assert ref_cf == pytest.approx(ref_scipy, rel=1e-13)
        assert got == pytest.approx(ref_scipy, rel=1e-10)

    def test_erfcx_dense_grid(self):
        xs = np.linspace(0.0, 100.0, 401)
        ref = special.erfcx(xs)
        got = mlf_neg(0.5, 1.0, xs)
        assert np.max(np.abs(got - ref) / ref) <= 1e-10

    @pytest.mark.parametrize("y", [0.3, 3.0, 12.0, 80.0, 700.0])
    def test_alpha1_beta12(self, y):
        assert mlf_neg(1.0, 1.0, y) == pytest.approx(math.exp(-y), rel=1e-12, abs=1e-300)
        assert mlf_neg(1.0, 2.0, y) == pytest.approx((1.0 - math.exp(-y)) / y, rel=1e-12)

    @pytest.mark.parametrize("y", [0.5, 2.0, 9.0, 50.0, 400.0])
    def test_alpha2_trigonometric(self, y):
        r = math.sqrt(y)
        assert mlf_neg(2.0, 1.0, y) == pytest.approx(math.cos(r), rel=1e-11, abs=1e-13)
        assert mlf_neg(2.0, 2.0, y) == pytest.approx(math.sin(r) / r, rel=1e-11, abs=1e-13)

    def test_alpha2_trigonometric_large_arguments(self):
        # the residue pair alone answers at large y: no spurious damping from
        # cos(pi/2) and no phase digits lost to the size of sqrt(y)
        ys = 10.0 ** np.arange(0, 33)
        cos_got = mlf_neg(2.0, 1.0, ys)
        sin_got = mlf_neg(2.0, 2.0, ys)
        for y, c, s in zip(ys, cos_got, sin_got):
            r = math.sqrt(y)
            assert abs(c - math.cos(r)) <= 1e-14, y
            assert abs(r * s - math.sin(r)) <= 1e-14, y


class TestHighPrecisionOracle:
    @pytest.mark.parametrize("alpha", [0.3, 0.7, 0.9, 1.1, 1.5, 1.9])
    def test_grid(self, alpha):
        # every cell against the Talbot oracle; the series oracle joins where
        # it loses at most 40 digits (under about 0.1 s a point), and there
        # the two oracles must agree first
        ys = (0.5, 2.0, 7.0, 19.0, 45.0)
        series_cells = 0
        for beta in (1.0, 2.0, alpha, alpha + 1.2):
            got = mlf_neg(alpha, beta, np.array(ys))
            for y, g in zip(ys, got):
                ref = talbot_mlf(alpha, beta, y)
                scale = max(abs(ref), 1e-3 / (1.0 + y))
                try:
                    series = mp_mlf(alpha, beta, y, max_lost=40)
                except ValueError:
                    pass
                else:
                    assert abs(series - ref) <= 1e-14 * scale, (alpha, beta, y)
                    series_cells += 1
                assert abs(g - ref) <= 1e-11 * scale, (alpha, beta, y)
        assert series_cells >= (8 if alpha < 0.5 else 16)


class TestRecurrenceIdentity:
    # E_{a,b}(-y) = 1/Gamma(b) - y E_{a,b+a}(-y); measured against the
    # dominant identity scale since the small side is condition-limited
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 1.0, 1.1, 1.5, 1.9, 2.0])
    def test_across_regimes(self, alpha):
        for beta in (0.8, 1.0, 2.0, 3.2):
            for y in (0.0, 0.5, 1.3, 2.0, 4.0, 5.5, 8.0, 20.0, 60.0, 1e3, 1e5):
                lhs = mlf_neg(alpha, beta, y)
                inner = mlf_neg(alpha, beta + alpha, y)
                rhs = 1.0 / math.gamma(beta) - y * inner
                scale = max(abs(lhs), abs(y * inner), 1.0 / math.gamma(beta))
                assert abs(lhs - rhs) <= 1e-10 * scale, (alpha, beta, y)


class TestDifferentiationFormula:
    # d/dt [t^(b-1) E_{a,b}(-lam t^a)] = t^(b-2) E_{a,b-1}(-lam t^a)
    @pytest.mark.parametrize(
        "alpha,beta,lam,t",
        [(0.5, 2.0, 3.0, 0.7), (1.5, 2.5, 10.0, 0.4), (1.9, 1.5, 2.0, 1.1),
         (0.9, 3.0, 25.0, 0.25), (1.1, 1.8, 6.0, 0.9)],
    )
    def test_central_difference(self, alpha, beta, lam, t):
        def f(s):
            return s ** (beta - 1.0) * mlf_neg(alpha, beta, lam * s ** alpha)

        h = 1e-5 * t
        fd = (f(t + h) - f(t - h)) / (2.0 * h)
        ref = t ** (beta - 2.0) * mlf_neg(alpha, beta - 1.0, lam * t ** alpha)
        assert fd == pytest.approx(ref, rel=1e-6)


class TestBoundedness:
    @pytest.mark.parametrize("alpha,beta", [(0.3, 1.0), (0.8, 2.0), (1.4, 1.0), (1.9, 1.9)])
    def test_algebraic_envelope(self, alpha, beta):
        xs = np.geomspace(1e-3, 1e6, 60)
        vals = np.abs(mlf_neg(alpha, beta, xs))
        c = np.max(vals * (1.0 + xs))
        assert np.isfinite(c)
        assert c < 50.0


class TestCompleteMonotonicity:
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8, 1.0])
    def test_positive_decreasing(self, alpha):
        xs = np.linspace(0.0, 40.0, 400)
        vals = mlf_neg(alpha, 1.0, xs)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 1e-15)


class TestContracts:
    def test_param_validation(self):
        for alpha in (0.0, -0.5, 2.5):
            with pytest.raises(ValueError, match="alpha"):
                mlf_neg(alpha, 1.0, 1.0)
        for beta in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="beta"):
                mlf_neg(0.5, beta, 1.0)

    def test_positive_argument_rejected(self):
        # mlf_neg(alpha, beta, y) is E_{alpha,beta}(x) at x = -y
        with pytest.raises(ValueError, match="nonnegative"):
            mlf_neg(0.5, 1.0, -1.0)

    def test_submodule_import_binds_the_module(self):
        import types

        import fracstep.mlf as m

        assert isinstance(m, types.ModuleType)
        assert m.mlf_neg is mlf_neg

    def test_nan_rejected(self):
        # alpha = 1 has its own route, which must refuse NaN as the others do
        for alpha in (0.5, 1.0, 1.5, 2.0):
            with pytest.raises(ValueError, match="NaN"):
                mlf_neg(alpha, 1.0, math.nan)
            with pytest.raises(ValueError, match="NaN"):
                mlf_neg(alpha, 1.0, np.array([0.0, 1.0, math.nan]))
        with pytest.raises(ValueError, match="nonnegative"):
            mlf_neg(0.5, 1.0, np.array([[1.0, 2.0], [3.0, -1e-300]]))

    def test_infinite_argument(self):
        for alpha in (0.3, 1.0, 1.5, 1.9):
            assert mlf_neg(alpha, 1.0, math.inf) == 0.0
        assert mlf_neg(2.0, 2.0, math.inf) == 0.0
        got = mlf_neg(1.5, 2.0, np.array([0.0, 3.0, math.inf]))
        assert got[2] == 0.0 and got[0] == 1.0
        # E_{2,beta}(-y) keeps oscillating without decay for beta <= 1
        with pytest.raises(ValueError, match="no limit"):
            mlf_neg(2.0, 1.0, math.inf)


def _series_one_at_a_time(alpha, beta, y, full=False):
    """The power-series route for one argument, one term per loop step. At
    the end of each block of ``mlf._BLOCK`` terms it leaves with an infinite
    estimate once the terms shrink and its certificate must miss, unless
    ``full``, which runs the loop to its own stop."""
    term = mlf._recip_gamma(beta)
    s, comp, s_abs, max_abs, small = term, 0.0, abs(term), abs(term), 0
    for k in range(1, 20001):
        ratio = y * mlf._gamma_ratio(alpha * (k - 1) + beta, alpha * k + beta)
        term = -term * ratio
        if not math.isfinite(term):
            return 0.0, math.inf
        t = s + (term - comp)
        comp = (t - s) - (term - comp)
        s = t
        s_abs += abs(term)
        max_abs = max(max_abs, abs(term))
        if max_abs > 1e40:
            return 0.0, math.inf
        small = small + 1 if abs(term) <= 1e-17 * max(abs(s), 1e-300) else 0
        if small >= 2:
            break
        doomed = ratio < 1.0 and 4e-16 * s_abs > 4.0 * mlf.DEFAULT_TOL * (abs(s) + abs(term))
        if not full and k % mlf._BLOCK == 0 and doomed:
            return 0.0, math.inf
    return s, 4.0e-16 * s_abs + abs(term)


# y grid over all three routes: series at small y, the branch-cut integral
# in between, the expansion (with residues for alpha > 1) at large y
_ROUTE_GRID = np.array([0.0, 0.5, 2.0, 7.0, 19.0, 45.0, 120.0, 400.0])


class TestArrayCalls:
    def test_scalar_and_zero_d_give_float(self):
        for y in (0.0, 2.0, np.float64(2.0), np.array(2.0), 3):
            got = mlf_neg(0.7, 1.3, y)
            assert type(got) is float
        assert mlf_neg(0.7, 1.3, np.array(2.0)) == mlf_neg(0.7, 1.3, 2.0)

    @pytest.mark.parametrize(
        "y",
        [np.array([1.0, 30.0]), np.linspace(0.0, 50.0, 12).reshape(3, 4),
         np.zeros((2, 0)), np.zeros(0), np.array([0.0, 5.0, 0.0]), np.zeros((2, 2))],
        ids=["1d", "2d", "empty_2d", "empty", "zeros_inside", "all_zero"],
    )
    def test_shape_kept(self, y):
        got = mlf_neg(1.5, 1.0, y)
        assert isinstance(got, np.ndarray)
        assert got.shape == y.shape
        assert np.all(got[y == 0.0] == 1.0)

    @pytest.mark.parametrize(
        "alpha,beta", [(0.3, 1.0), (0.7, 1.9), (1.0, 1.0), (1.0, 2.5), (1.5, 1.0),
                       (1.5, 2.7), (1.9, 1.9), (2.0, 2.0)],
    )
    def test_batch_invariance(self, alpha, beta):
        ys = np.concatenate([_ROUTE_GRID, np.geomspace(1e-3, 1e3, 25)])
        got = mlf_neg(alpha, beta, ys)
        for i, y in enumerate(ys):
            assert mlf_neg(alpha, beta, y) == got[i], (alpha, beta, y)
        # and in a reversed sub-batch
        sub = ys[::-3]
        assert np.array_equal(mlf_neg(alpha, beta, sub), got[::-3])
        # and straddling the boundary between two chunks
        pad = np.geomspace(1e-3, 1e3, mlf._CHUNK - len(ys) // 2)
        long = mlf_neg(alpha, beta, np.concatenate([pad, ys]))
        assert np.array_equal(long[len(pad):], got)

    @pytest.mark.parametrize("alpha,beta", [(0.1, 1.0), (0.5, 1.7), (1.0, 2.5), (1.5, 1.0), (1.9, 2.7)])
    def test_series_route_matches_term_by_term_loop(self, alpha, beta):
        # the block-wise array series does the loop's arithmetic exactly
        ys = np.concatenate([_ROUTE_GRID[1:], np.geomspace(1e-3, 3e2, 30)])
        val, err = mlf._try_series(alpha, beta, ys)
        for i, y in enumerate(ys):
            assert (val[i], err[i]) == _series_one_at_a_time(alpha, beta, float(y)), y

    def test_leaving_the_series_early_changes_no_output(self, monkeypatch):
        # an element that leaves the series once its certificate must miss
        # goes on to the same route as after the full loop
        ys = np.concatenate([_ROUTE_GRID, np.geomspace(1e-3, 3e2, 30)])
        pairs = [(0.1, 1.0), (0.5, 1.7), (0.9, 0.6), (1.0, 2.5), (1.5, 1.0), (1.9, 2.7), (2.0, 2.0)]

        def full_series(alpha, beta, y):
            out = [_series_one_at_a_time(alpha, beta, float(v), full=True) for v in y]
            return np.array([v for v, _ in out]), np.array([e for _, e in out])

        accepted_seen = left_seen = 0
        got = {}
        for alpha, beta in pairs:
            val, err = mlf._try_series(alpha, beta, ys[1:])
            full_val, full_err = full_series(alpha, beta, ys[1:])
            accepted = full_err <= mlf.DEFAULT_TOL * np.abs(full_val)
            assert np.array_equal(err <= mlf.DEFAULT_TOL * np.abs(val), accepted)
            assert np.array_equal(val[accepted], full_val[accepted])
            assert np.array_equal(err[accepted], full_err[accepted])
            accepted_seen += accepted.sum()
            left_seen += (np.isinf(err) & np.isfinite(full_err)).sum()
            got[alpha, beta] = mlf_neg(alpha, beta, ys)
        assert accepted_seen and left_seen
        monkeypatch.setattr(mlf, "_try_series", full_series)
        for alpha, beta in pairs:
            assert np.array_equal(mlf_neg(alpha, beta, ys), got[alpha, beta]), (alpha, beta)

    def test_oracle_one_call_per_pair(self, monkeypatch):
        # each route spied on, so the grid is known to reach every one
        seen = {"series": 0, "asymptotic": 0, "mid_betas": [], "cut_betas": [],
                "residue_betas": []}

        def spy(name, record):
            real = getattr(mlf, name)

            def wrapped(alpha, beta, y, *rest):
                out = real(alpha, beta, y, *rest)
                record(alpha, beta, y, out)
                return out

            monkeypatch.setattr(mlf, name, wrapped)

        def certified(key):
            def record(alpha, beta, y, out):
                val, err = out
                seen[key] += int(np.sum(err <= mlf.DEFAULT_TOL * np.abs(val)))
            return record

        spy("_try_series", certified("series"))
        spy("_try_asymptotic", certified("asymptotic"))
        spy("_mid", lambda a, b, y, out: seen["mid_betas"].append((b, len(y))))
        spy("_branch_cut_integral", lambda a, b, y, out: seen["cut_betas"].append((b, len(y))))
        spy("_residue_pair", lambda a, b, y, out: seen["residue_betas"].append((b, len(y))))

        pairs = [(0.7, 1.0), (0.7, 1.9), (1.5, 1.0), (1.5, 2.7), (1.9, 1.0)]
        for alpha, beta in pairs:
            ys, refs = [], []
            for y in _ROUTE_GRID:
                try:
                    refs.append(mp_mlf(alpha, beta, y))
                except ValueError:
                    continue
                ys.append(y)
            ys, refs = np.array(ys), np.array(refs)
            assert len(ys) >= 6
            got = mlf_neg(alpha, beta, ys)
            scale = np.maximum(np.abs(refs), 1e-3 / (1.0 + ys))
            assert np.all(np.abs(got - refs) <= 1e-11 * scale), (alpha, beta)
        assert seen["series"] > 0 and seen["asymptotic"] > 0
        # the recurrence: _mid at beta = 2.7 lowers beta to 2.7 - 1.5 = 1.2,
        # where the residue pair joins the integral
        mids = {b for b, n in seen["mid_betas"] if n}
        assert {1.9, 2.7}.issubset(mids) and 2.7 - 1.5 in {b for b, n in seen["cut_betas"] if n}
        assert (2.7 - 1.5) in {b for b, n in seen["residue_betas"] if n}

    def test_accuracy_error_reports_worst_element(self, monkeypatch):
        real = mlf._mid
        ys = np.array([12.0, 19.0, 45.0, 80.0])  # all four reach the middle zone

        def mid_with(bounds):
            # bounds per argument, so the fake serves any chunk of ys
            def fake(alpha, beta, y):
                val, err = real(alpha, beta, y)
                return val, np.maximum(err, bounds[np.searchsorted(ys, y)])
            return fake

        monkeypatch.setattr(mlf, "_mid", mid_with(np.array([0.0, 2e-3, 0.0, 5e-3])))
        with pytest.raises(MlfAccuracyError) as info:
            mlf_neg(1.5, 1.0, ys)
        assert info.value.achieved == 5e-3
        assert "2 of 4" in str(info.value)
        monkeypatch.setattr(mlf, "_mid", mid_with(np.array([0.0, 2e-3, 0.0, 0.0])))
        with pytest.raises(MlfAccuracyError) as info:
            mlf_neg(1.5, 1.0, ys)
        assert info.value.achieved == 2e-3
        # misses in two chunks: the worst and the count span both
        monkeypatch.setattr(mlf, "_CHUNK", 3)
        for bounds, worst in (([0.0, 2e-3, 0.0, 5e-3], 80.0), ([0.0, 5e-3, 0.0, 2e-3], 19.0)):
            monkeypatch.setattr(mlf, "_mid", mid_with(np.array(bounds)))
            with pytest.raises(MlfAccuracyError) as info:
                mlf_neg(1.5, 1.0, ys)
            assert info.value.achieved == 5e-3
            assert "2 of 4" in str(info.value) and f"(-{worst})" in str(info.value)
        monkeypatch.setattr(mlf, "_mid", real)
        assert np.array_equal(mlf_neg(1.5, 1.0, ys), [mlf_neg(1.5, 1.0, y) for y in ys])


class TestSeriesScreen:
    _ALPHAS = np.linspace(0.05, 2.0, 40)
    _BETAS = (0.1, 0.3, 0.5, 0.9, 1.0, 1.2, 1.5, 1.7, 2.0, 2.5, 3.0, 4.0, 5.0, 7.0)
    _YS = np.geomspace(1e-4, 1e5, 400)

    def test_skipped_arguments_fail_the_series(self):
        # the screen only drops arguments whose series certificate must miss,
        # so skipping them changes no value
        skipped = 0
        for alpha in self._ALPHAS.tolist():
            for beta in self._BETAS:
                skip = ~mlf._series_may_pass(alpha, beta, self._YS)
                y = self._YS[skip]
                val, err = mlf._try_series(alpha, beta, y)
                assert not np.any(err <= mlf.DEFAULT_TOL * np.abs(val)), (alpha, beta)
                # and its premise: a term near the peak exceeds 2600 B
                k = np.floor((y ** (1.0 / alpha) - beta) / alpha)[:, None] + np.arange(-2.0, 4.0)
                k = np.maximum(k, 0.0)
                ln_t = k * np.log(y)[:, None] - special.gammaln(alpha * k + beta)
                margin = ln_t.max(axis=1) - math.log(2600.0) - mlf._log_bound(alpha, beta, y)
                assert np.all(margin > 0.0), (alpha, beta)
                skipped += int(skip.sum())
        assert skipped > 80_000

    def test_bound_holds(self):
        ys = self._YS[::10]
        for alpha in self._ALPHAS.tolist():
            for beta in self._BETAS:
                got = np.abs(mlf_neg(alpha, beta, ys))
                bound = np.exp(mlf._log_bound(alpha, beta, ys))
                assert np.all(got <= bound), (alpha, beta, ys[np.argmax(got / bound)])


class TestResidueSkip:
    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9, 2.0])
    def test_residue_skip_changes_no_value(self, alpha, monkeypatch):
        # a pair left out is under half an ulp of the expansion's value
        real = mlf._residue_pair
        given = []

        def spy(a, b, y):
            given.append(y)
            return real(a, b, y)

        monkeypatch.setattr(mlf, "_residue_pair", spy)
        ys = np.geomspace(1.5, 1e6, 300)
        left_out = 0
        for beta in (0.5, 1.0, 1.7, 2.5):
            given.clear()
            val, _ = mlf._try_asymptotic(alpha, beta, ys)
            out = ~np.isin(ys, np.concatenate(given))
            pair = real(alpha, beta, ys[out])
            assert np.array_equal(val[out] + pair, val[out]), beta
            left_out += int(out.sum())
        # at alpha = 2 the pair is undamped and never left out
        assert (left_out > 0) == (alpha < 2.0)


class TestChunks:
    def test_peak_allocation(self):
        # routes run a chunk at a time: their temporaries do not grow with
        # the argument count
        y = np.geomspace(1e-3, 4e4, 50_000)
        tracemalloc.start()
        try:
            mlf_neg(1.5, 1.0, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6, peak


def _mid_recursive(alpha, beta, y):
    """The middle zone as one call per recurrence step, the reference for
    the loop in ``mlf._mid``."""
    if beta >= alpha + 0.75:
        inner, err = _mid_recursive(alpha, beta - alpha, y)
        return (mlf._recip_gamma(beta - alpha) - inner) / y, err / y + 4e-16
    res = mlf._residue_pair(alpha, beta, y) if alpha > 1.0 else np.zeros(len(y))
    integral, err = mlf._branch_cut_integral(alpha, beta, y, np.abs(res))
    return res + integral, err + 2e-16 * np.abs(res)


class TestMidRecurrence:
    @pytest.mark.parametrize("alpha,beta", [(0.3, 2.0), (0.5, 3.2), (1.1, 4.0), (1.5, 2.7)])
    def test_loop_matches_recursion(self, alpha, beta):
        ys = np.array([1.3, 4.0, 9.0, 17.0])
        val, err = mlf._mid(alpha, beta, ys)
        ref_val, ref_err = _mid_recursive(alpha, beta, ys)
        assert np.array_equal(val, ref_val) and np.array_equal(err, ref_err)

    def test_small_alpha_large_beta(self):
        # about 1,050 recurrence steps, more than the interpreter's stack allows
        ys = np.array([1.02, 1.03])
        got = mlf_neg(0.005, 6.0, ys)
        for y, g in zip(ys, got):
            ref = talbot_mlf(0.005, 6.0, y)
            assert abs(g - ref) <= 1e-11 * abs(ref), y
