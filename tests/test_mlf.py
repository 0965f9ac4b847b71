import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as special

from fracstep.mlf import mlf_neg


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


def mp_mlf(alpha, beta, y):
    """Adaptive-precision series oracle; digits sized to cover cancellation."""
    af, bf, yf = float(alpha), float(beta), float(y)
    if yf == 0.0:
        return 1.0 / math.gamma(bf)
    kpeak = max(5, int(yf ** (1.0 / af) / af) + 2)
    lost = max(0.0, (kpeak * math.log(yf) - math.lgamma(af * kpeak + bf)) / math.log(10))
    if lost > 400:
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
        got = np.array([mlf_neg(0.5, 1.0, float(x)) for x in xs])
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


class TestHighPrecisionOracle:
    @pytest.mark.parametrize("alpha", [0.3, 0.7, 0.9, 1.1, 1.5, 1.9])
    def test_grid(self, alpha):
        for beta in (1.0, 2.0, alpha, alpha + 1.2):
            for y in (0.5, 2.0, 7.0, 19.0, 45.0):
                try:
                    ref = mp_mlf(alpha, beta, y)
                except ValueError:
                    continue
                got = mlf_neg(alpha, beta, y)
                scale = max(abs(ref), 1e-3 / (1.0 + y))
                assert abs(got - ref) <= 1e-11 * scale, (alpha, beta, y)


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
        vals = np.array([abs(mlf_neg(alpha, beta, float(x))) for x in xs])
        c = np.max(vals * (1.0 + xs))
        assert np.isfinite(c)
        assert c < 50.0


class TestCompleteMonotonicity:
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8, 1.0])
    def test_positive_decreasing(self, alpha):
        xs = np.linspace(0.0, 40.0, 400)
        vals = np.array([mlf_neg(alpha, 1.0, float(x)) for x in xs])
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 1e-15)


class TestContracts:
    def test_param_validation(self):
        for alpha in (0.0, -0.5, 2.5):
            with pytest.raises(ValueError, match="alpha"):
                mlf_neg(alpha, 1.0, 1.0)
        for beta in (0.0, -1.0):
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
