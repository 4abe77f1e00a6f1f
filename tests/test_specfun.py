import itertools
import math
import re

import numpy as np
import pytest

from raygrowth.errors import ConvergenceError, DomainError, PoleError
import raygrowth.specfun as specfun
from raygrowth.kernels import h_value
from raygrowth.specfun import (
    EULER_GAMMA,
    SERIES_CHECK_STRIDE,
    digamma,
    gamma,
    gegenbauer_terms,
    hyp2f1,
    legendre_weighted,
    rgamma,
    rising_ratio,
    sum_series,
)

SQRT_PI = math.sqrt(math.pi)


def legendre_p(nu, mu, xi):
    """P^mu_nu(xi) on the cut -1 < xi < 1, as (1 - xi^2)^(-mu/2) times the
    weighted form at x = (1 - xi)/2 (DLMF 14.3.1)."""
    return ((1.0 - xi) * (1.0 + xi)) ** (-mu / 2.0) * legendre_weighted(nu, mu, (1.0 - xi) / 2.0)


def gegenbauer(lam, j, xi):
    """Gegenbauer polynomial G^lam_j(xi), the j-th term of gegenbauer_terms."""
    return next(itertools.islice(gegenbauer_terms(lam, xi), j, None))


class TestGamma:
    def test_factorial_base_case(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_half(self):
        assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-14)

    def test_double_argument_identity_n5(self):
        # sqrt(pi) (n-3)! = 2^{n-3} Gamma((n-1)/2) Gamma((n-2)/2) at n=5:
        # both sides equal 2 sqrt(pi)
        n = 5
        lhs = SQRT_PI * math.factorial(n - 3)
        rhs = 2.0 ** (n - 3) * gamma((n - 1) / 2.0) * gamma((n - 2) / 2.0)
        assert lhs == pytest.approx(2.0 * SQRT_PI, rel=1e-14)
        assert rhs == pytest.approx(2.0 * SQRT_PI, rel=1e-13)

    def test_duplication_identity_on_grid(self):
        for z in np.linspace(0.1, 5.0, 61):
            lhs = gamma(2.0 * z)
            rhs = 2.0 ** (2.0 * z - 1.0) / SQRT_PI * gamma(float(z)) * gamma(z + 0.5)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_reflection_negative_axis(self):
        z = -0.5
        assert gamma(z) == pytest.approx(-2.0 * SQRT_PI, rel=1e-13)

    def test_complex_against_scipy(self):
        from scipy.special import gamma as sp_gamma

        rng = np.random.default_rng(7)
        for _ in range(50):
            z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
            if abs(z.imag) < 1e-2 and z.real <= 0.5:
                continue
            ours = gamma(z)
            ref = complex(sp_gamma(z))
            assert abs(ours - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("z", [0.0, -1.0, -5.0, -3])
    def test_pole_error(self, z):
        with pytest.raises(PoleError):
            gamma(z)

    def test_lanczos_overflow_is_domain_error(self):
        # Gamma(z) exceeds the double range from about z = 171.6 on
        with pytest.raises(DomainError, match="overflows"):
            gamma(172.0)
        assert gamma(140.0) == pytest.approx(math.gamma(140.0), rel=1e-13)

    @pytest.mark.parametrize("z", [150.0, 171.5])
    def test_large_argument_against_mpmath(self, z):
        # finite although t^(z-1/2) alone overflows the double range
        mp = pytest.importorskip("mpmath")
        assert gamma(z) == pytest.approx(float(mp.gamma(z)), rel=1e-13)

    def test_real_axis_against_mpmath(self):
        # a real argument takes math.gamma; the complex Lanczos sum is off by
        # up to 2.6e-13 on these draws
        mp = pytest.importorskip("mpmath")
        worst_gamma = worst_rgamma = 0.0
        for x in _real_draws():
            want = mp.gamma(x)
            worst_gamma = max(worst_gamma, float(abs(gamma(x) - want) / abs(want)))
            worst_rgamma = max(worst_rgamma, float(abs(rgamma(x) * want - 1)))
        assert worst_gamma <= 1e-15 and worst_rgamma <= 1e-15

    def test_integers_give_exact_factorials(self):
        for k in range(1, 21):
            assert gamma(k) == gamma(float(k)) == math.factorial(k - 1)

    def test_complex_argument_keeps_its_values(self):
        # the complex Lanczos sum, pinned by repr
        for z, want_gamma, want_digamma in COMPLEX_VALUES:
            assert repr(gamma(z)) == repr(want_gamma)
            assert repr(digamma(z)) == repr(want_digamma)

    @pytest.mark.parametrize("z,error,message", [
        (-180.5, DomainError, r"^gamma\(-180\.5\) overflows the double range$"),
        (np.float64(-180.5), DomainError, r"^gamma\(-180\.5\) overflows the double range$"),
        (171.7, DomainError, r"^gamma\(171\.7\) overflows the double range$"),
        (0, PoleError, r"^gamma pole at z=0$"),
        (-3, PoleError, r"^gamma pole at z=-3$"),
        (-3 + 1e-13, PoleError, r"^gamma pole at z=-2\.9999999999999$"),
    ], ids=["-180.5", "float64 -180.5", "171.7", "0", "-3", "-3+1e-13"])
    def test_refusals_name_the_argument(self, z, error, message):
        # below 0.5 the reflection's gamma(1 - z) overflows, and gamma itself
        # underflows: rgamma would divide by zero
        with pytest.raises(error, match=message):
            gamma(z)
        if error is DomainError:
            with pytest.raises(error, match=message):
                rgamma(z)


def _real_draws():
    """2000 seeded reals in [-20, 171.6], at least 1e-3 from a pole of gamma."""
    x = np.random.default_rng(31).uniform(-20.0, 171.6, 2100)
    return x[(x > 0.5) | (np.abs(x - np.round(x)) >= 1e-3)][:2000].tolist()


# gamma and digamma at 20 seeded complex arguments (real parts in [-10, 30],
# imaginary parts in [-5, 5]): (z, gamma(z), digamma(z))
COMPLEX_VALUES = [
    ((20.39487527118103-1.2945578292668412j), (-2.817859951353392e+17+2.5257213693198534e+17j), (2.9926786501737763-0.06496473679622006j)),
    ((9.291785443316435+3.0006005642249782j), (43793.21967244828+13419.447701962381j), (2.229291378563249+0.32860544781120254j)),
    ((-1.3293664411286255+3.7746105188091814j), (-0.00025566596295139367-0.0004886704838900816j), (1.4323253874861577+2.0239710656985954j)),
    ((16.41573318117064+0.9994679201173327j), (-3706000361085.8174+1458511366949.6597j), (2.769438458462295+0.06269465694673676j)),
    ((1.6755719418648454+2.7809360427242407j), (-0.011970204644444843+0.10803882613439564j), (1.101814186806493+1.1674843723574901j)),
    ((14.336091357228664-2.5756938758613277j), (10375704489.013994-5656838003.876036j), (2.6445104812074414-0.18397527509943032j)),
    ((18.733045363107394-2.1696421310716376j), (2587471998798869-54768681829480.375j), (2.910385957433828-0.11840915164257726j)),
    ((-5.961774406270899-4.4213490324589655j), (2.4213744079675448e-08-2.6158800595994314e-08j), (2.0581608379155982-2.5421604216786777j)),
    ((16.928563048613174-1.3021953660463073j), (-14238312456811.3+7868158594045.959j), (2.80230444735111-0.07907459084236328j)),
    ((-1.0283674545729227+2.465382754499373j), (-0.01208800425240011-0.0007868121743627596j), (1.062816011997232+2.130258736040921j)),
    ((16.819039575181517-0.24070531529516792j), (9849629628612.566-7838349975565.429j), (2.7925975213710634-0.014744291224317868j)),
    ((-2.393253488498175-3.9759223312471583j), (-4.70574763923165e-05-5.462132427280409e-05j), (1.5922199181811507-2.2015147267052178j)),
    ((26.888601895918015+1.676811635366148j), (1.861349181411052e+26-1.8931484488032966e+26j), (3.275006064555804+0.06345017098312118j)),
    ((25.212546353337665-2.4791601943076245j), (-1.0998480410772124e+23-1.0769897668677875e+24j), (3.2123841357351375-0.09997196564800966j)),
    ((12.539201138698964-3.4079805097585494j), (-58282315.09133242-73412331.8341966j), (2.5269356287925544-0.2757173755353107j)),
    ((1.2183819107437+0.181818371891743j), (0.8940907897484436-0.04201262707368389j), (-0.242940071648529+0.2225822718283771j)),
    ((20.441163851488213+4.176080601228881j), (2.9347378720164365e+17-1.1070386028679472e+16j), (3.014339194978704+0.206396480760937j)),
    ((5.55124337038488-4.3368914458861365j), (3.9510624357470574-9.849923825816694j), (1.895905371715714-0.7085254928044958j)),
    ((16.74905266531596-2.755477849441761j), (1294410305231.749-8119082951945.934j), (2.8023548059475325-0.16792923212963234j)),
    ((-2.7755813018818465+3.7797073896313513j), (2.70122913157541e-05+5.4397700187910915e-05j), (1.6095246835270616+2.2865138355066543j)),
]


def _pulled(terms, counter):
    """The iterator ``terms``, counting in counter[0] the terms taken."""
    for term in terms:
        counter[0] += 1
        yield np.asarray(term, dtype=float)


class TestSeriesStoppingRule:
    def test_checked_on_stride_only(self):
        # every term after the first is tiny, but the test runs only at the
        # first multiple of the stride past ``first``
        for first, stop in ((0, SERIES_CHECK_STRIDE), (3, SERIES_CHECK_STRIDE),
                            (SERIES_CHECK_STRIDE, 2 * SERIES_CHECK_STRIDE)):
            pulled = [0]
            terms = ([1.0] if k == first else [1e-20] for k in itertools.count(first))
            total = sum_series(_pulled(terms, pulled), "test series", str, 1e-13, 1000, first)
            assert pulled[0] == stop - first + 1
            assert total.tolist() == [1.0]

    def test_needs_both_terms_small_at_every_point(self):
        # point 0: small terms at 1..8, then large ones it must not take;
        # point 1: a term of 1e-3 at index 8 keeps it open until 16
        def terms():
            yield [1.0, 2.0]
            for k in itertools.count(1):
                yield [1e-20 if k <= SERIES_CHECK_STRIDE else 1.0,
                       1e-3 if k == SERIES_CHECK_STRIDE else 1e-20]

        pulled = [0]
        total = sum_series(_pulled(terms(), pulled), "test series", str, 1e-13, 1000)
        assert pulled[0] == 2 * SERIES_CHECK_STRIDE + 1
        # each point keeps the sum it had when it stopped
        assert total.tolist() == [1.0 + SERIES_CHECK_STRIDE * 1e-20,
                                  2.0 + 1e-3 + (2 * SERIES_CHECK_STRIDE - 1) * 1e-20]

    def test_no_points(self):
        # an empty call has no point left open at the first stride check
        pulled = [0]
        total = sum_series(_pulled(iter(lambda: [], None), pulled), "test series", str, 1e-13, 1000)
        assert total.shape == (0,) and pulled[0] == SERIES_CHECK_STRIDE + 1
        # the terminating 2F1 series has no guard against an empty x
        assert hyp2f1(-1.0, 2.0, 1.0, np.array([])).shape == (0,)
        assert legendre_weighted(1.0, 0.0, []).shape == (0,)

    def test_term_cap_message(self, monkeypatch):
        # at lam = 85 and q = 1 the tail series at u = 0.49 has not converged
        # after its 400 terms
        with pytest.raises(ConvergenceError, match=re.escape(
                "h tail series did not converge within 400 terms (lam=85.0, q=1, worst u=0.49)")):
            h_value(85.0, 1, np.array([0.1, 0.49]), 1.0)
        monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 16)
        with pytest.raises(ConvergenceError, match=re.escape(
                "2F1 series did not converge within 16 terms "
                "(a=0.3, b=0.4, c=0.5, worst |x|=0.7)")):
            hyp2f1(0.3, 0.4, 0.5, [0.1, 0.7])
        with pytest.raises(ConvergenceError, match=re.escape(
                "2F1 log-case series did not converge within 16 terms (a=0.3, b=0.4, m=1, ")):
            hyp2f1(0.3, 0.4, 1.7, 0.76)


class TestDigamma:
    def test_at_one(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-14)

    def test_at_two_via_recurrence(self):
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, rel=1e-14)

    def test_negative_half_by_recurrence(self):
        # psi(0.5) = psi(-0.5) - 1/(-0.5) with psi(0.5) = -gamma_E - 2 ln 2
        psi_half = -EULER_GAMMA - 2.0 * math.log(2.0)
        assert digamma(0.5) == pytest.approx(psi_half, rel=1e-14)
        assert digamma(-0.5) == pytest.approx(psi_half - 1.0 / (-0.5), rel=1e-13)

    def test_pole_error(self):
        with pytest.raises(PoleError):
            digamma(-2.0)

    def test_real_axis_against_mpmath(self):
        # the reflection takes tan(pi (x - round(x))), whose argument is exact;
        # tan(pi x) would cost up to 2.57e-13 relative next to the negative poles
        mp = pytest.importorskip("mpmath")
        worst_rel = worst = 0.0
        for x in _real_draws():
            want = mp.digamma(x)
            err = float(abs(digamma(x) - want))
            worst_rel = max(worst_rel, err / float(abs(want)))
            worst = max(worst, err / max(1.0, float(abs(want))))
        assert worst_rel <= 2.6e-13 and worst <= 2e-15

    def test_matches_scipy_on_grid(self):
        from scipy.special import digamma as sp_digamma

        for x in np.linspace(0.05, 12.0, 97):
            assert digamma(float(x)) == pytest.approx(float(sp_digamma(x)), rel=1e-12)


class TestGegenbauer:
    def test_constant_term(self):
        assert gegenbauer(0.5, 0, 0.7) == 1.0

    def test_linear_term(self):
        assert gegenbauer(0.5, 1, 0.7) == pytest.approx(0.7, rel=1e-15)

    def test_generating_function_oracle(self):
        # partial sums of sum_j G^lam_j(xi) t^j against the closed form,
        # carried far enough that the geometric tail is below 1e-10
        lam, xi, t = 1.5, 0.3, 0.2
        closed = (1.0 - 2.0 * t * xi + t * t) ** (-lam)
        partial = sum(gegenbauer(lam, j, xi) * t**j for j in range(19))
        assert partial == pytest.approx(closed, abs=1e-10)
        # the value at j=4 is what the truncated oracle pins down
        assert gegenbauer(lam, 4, xi) == pytest.approx(-0.1685625, rel=1e-12)

    def test_partial_sums_geometric_tail(self):
        lam, xi = 2.5, -0.6
        for t in (0.25, 0.5):
            closed = (1.0 - 2.0 * t * xi + t * t) ** (-lam)
            errs = []
            total = 0.0
            for j in range(40):
                total += gegenbauer(lam, j, xi) * t**j
                errs.append(abs(total - closed))
            # tail shrinks at least geometrically once j is moderate
            assert errs[30] < errs[15] * (0.7**15)

    def test_vectorized_matches_scalar(self):
        xi = np.linspace(-0.9, 0.9, 7)
        vec = gegenbauer(1.5, 5, xi)
        for i, x in enumerate(xi):
            assert vec[i] == pytest.approx(gegenbauer(1.5, 5, float(x)), rel=1e-14)

    def test_terms_in_turn_equal_single_polynomials(self):
        # each term against mpmath's C^lam_j at 30 digits, on a scalar and on
        # an array, to 1e-14 of the polynomial's largest value on [-1, 1],
        # C^lam_j(1)
        mp = pytest.importorskip("mpmath")
        lam = 2.5
        for xi in (np.asarray(-0.6), np.linspace(-0.9, 0.9, 7)):
            for j, g in zip(range(30), gegenbauer_terms(lam, xi)):
                with mp.workdps(30):
                    want = [float(mp.gegenbauer(j, lam, x)) for x in np.atleast_1d(xi)]
                    scale = float(mp.gegenbauer(j, lam, 1))
                assert np.shape(g) == np.shape(xi)
                assert np.max(np.abs(np.atleast_1d(g) - want)) <= 1e-14 * scale, j
        first = [float(g) for _, g in zip(range(3), gegenbauer_terms(lam, np.asarray(0.3)))]
        assert first == pytest.approx([1.0, 2.0 * lam * 0.3,
                                       2.0 * lam * (lam + 1.0) * 0.09 - lam], rel=1e-15, abs=0)


class TestRisingRatio:
    def test_small_values(self):
        # (x+1)_m / m! is the binomial coefficient C(x+m, m) at integer x
        assert rising_ratio(0.7, 0) == 1.0
        assert rising_ratio(0.5, 1) == 1.5
        assert rising_ratio(3.0, 4) == pytest.approx(math.comb(7, 4), rel=1e-15, abs=0)
        assert rising_ratio(-0.5, 2) == pytest.approx(0.375, rel=1e-15, abs=0)
        assert type(rising_ratio(0.5, 3)) is float

    @pytest.mark.parametrize("x", [-0.999999999, -0.3, 0.05, 1.5, 12.3])
    def test_against_mpmath_where_the_factorial_overflows(self, x):
        # 171! is beyond the double range; the ratio stays finite
        mp = pytest.importorskip("mpmath")
        for m in (1, 10, 100, 170, 171, 200):
            want = mp.rf(mp.mpf(x) + 1, m) / mp.factorial(m)
            assert rising_ratio(x, m) == pytest.approx(float(want), rel=1e-13, abs=0)

    def test_array_equals_scalar_calls(self):
        x = np.array([[-0.9, 0.05], [1.5, 12.3]])
        vec = rising_ratio(x, 60)
        assert vec.shape == x.shape
        assert vec.tobytes() == np.array([rising_ratio(float(v), 60) for v in x.flat]).tobytes()


class TestHyp2F1:
    def test_at_zero(self):
        assert hyp2f1(1.7, -2.3, 0.4, 0.0) == 1.0

    def test_log_closed_form(self):
        # 2F1(1, 1; 2; x) = -ln(1-x)/x
        assert hyp2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(1.3862943611198906, rel=1e-13)

    def test_series_oracle(self):
        # high-precision series value, frozen from a 40-digit summation
        assert hyp2f1(-0.5, 1.5, 1.0, 0.3) == pytest.approx(0.74919749974701998, rel=1e-12)

    def test_parameter_pole(self):
        with pytest.raises(PoleError):
            hyp2f1(1.0, 1.0, 0.0, 0.3)
        with pytest.raises(PoleError):
            hyp2f1(1.0, 1.0, -3.0, 0.3)

    def test_domain(self):
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, 2.0, 1.0)
        # a negative integer c - a - b is refused (see the envelope rows)
        # unless the series terminates: here 1 + 10 x - 35 x^2, c - a - b = -1
        assert hyp2f1(-2.0, 2.5, -0.5, 0.9) == pytest.approx(1.0 + 9.0 - 28.35, rel=1e-14)

    def test_branches_agree_across_overlap(self):
        # the direct series remains valid past the switch point; evaluate
        # on a straddling pair and compare against mpmath
        mp = pytest.importorskip("mpmath")
        for a, b, c in [(-1.3, 2.7, 1.9), (0.4, 0.9, 2.3), (1.2, -0.4, 0.7)]:
            for x in (0.7499, 0.7501, 0.95):
                ref = complex(mp.hyp2f1(a, b, c, x)).real
                assert hyp2f1(a, b, c, x) == pytest.approx(ref, rel=5e-12)

    def test_integer_gap_log_case(self):
        mp = pytest.importorskip("mpmath")
        for m in (0, 1, 2):
            a, b = 0.7, -1.4
            c = a + b + m
            for x in (0.8, 0.99, 0.9999):
                ref = complex(mp.hyp2f1(a, b, c, x)).real
                assert hyp2f1(a, b, c, x) == pytest.approx(ref, rel=1e-11)

    def test_complex_parameters(self):
        mp = pytest.importorskip("mpmath")
        a = 0.4 + 0.3j
        val = hyp2f1(a, -a, 1.3, 0.62)
        ref = complex(mp.hyp2f1(a, -a, 1.3, 0.62))
        assert abs(val - ref) <= 1e-12 * abs(ref)

    def test_array_argument(self):
        xs = np.array([0.0, 0.05, 0.2, 0.74, 0.9, 0.999])
        vec = hyp2f1(0.3, 1.1, 2.2, xs)
        for i, x in enumerate(xs):
            assert vec[i] == pytest.approx(hyp2f1(0.3, 1.1, 2.2, float(x)), rel=1e-13)


def _row_draw(rng, branch):
    """Three rows (a - i, b + i) that share c and c - a - b, and points on
    the branch: a non-integer c - a - b for the even-n connection formula,
    a non-negative integer one for the odd-n log case."""
    a, b = float(rng.uniform(-3.0, -0.2)), float(rng.uniform(0.3, 4.0))
    if branch == "log case":
        c = a + b + int(rng.integers(0, 4))
        if c <= 0.05:
            c += 4.0
    else:
        c = float(rng.uniform(0.1, 4.0))
    lo, hi = (0.0, 0.75) if branch == "central" else (0.75, 0.999)
    return [(a - i, b + i) for i in range(3)], c, lo, hi


class TestStackedRows:
    """Rows of (a, b) that share c and c - a - b go in one call, as flat
    arrays of x's size; each point's value is its one-row call's, by repr."""

    # 7 points a row stay below LOG_SPAN_POINTS in the log case and 60 go
    # past it; 400 go past ONE_PASS_POINTS, where each row has its own call
    @pytest.mark.parametrize("points", [7, 60, 400])
    @pytest.mark.parametrize("branch", ["central", "nonint connection", "log case"])
    def test_row_equals_one_row_call(self, branch, points):
        rng = np.random.default_rng(29)
        for _ in range(12):
            rows, c, lo, hi = _row_draw(rng, branch)
            x = rng.uniform(lo, hi, points)
            a, b = (np.repeat(col, points) for col in zip(*rows))
            stacked = hyp2f1(a, b, c, np.tile(x, len(rows)))
            for (ai, bi), got in zip(rows, np.split(stacked, len(rows))):
                assert [repr(v) for v in got.tolist()] == [repr(v) for v in hyp2f1(ai, bi, c, x).tolist()]

    @pytest.mark.parametrize("branch", ["central", "nonint connection", "log case"])
    def test_rows_with_their_own_points(self, branch):
        # each row a run of points of its own
        rng = np.random.default_rng(31)
        for _ in range(12):
            rows, c, lo, hi = _row_draw(rng, branch)
            xs = [rng.uniform(lo, hi, k) for k in (5, 2, 3)]
            a = np.concatenate([np.full(x.size, ai) for (ai, _), x in zip(rows, xs)])
            b = np.concatenate([np.full(x.size, bi) for (_, bi), x in zip(rows, xs)])
            got = np.split(hyp2f1(a, b, c, np.concatenate(xs)), [5, 7])
            for (ai, bi), x, part in zip(rows, xs, got):
                assert [repr(v) for v in part.tolist()] == [repr(v) for v in hyp2f1(ai, bi, c, x).tolist()]

    def test_one_row_array_equals_scalar_call(self):
        x = np.linspace(0.0, 0.99, 9)
        got = hyp2f1(np.full(9, -2.3), np.full(9, 3.3), 1.5, x)
        assert got.tobytes() == hyp2f1(-2.3, 3.3, 1.5, x).tobytes()

    def test_terminating_rows(self):
        x = np.linspace(0.0, 0.99, 9)
        stacked = hyp2f1(np.repeat([-3.0, -4.0], 9), np.repeat([4.5, 5.5], 9), 2.5, np.tile(x, 2))
        for ai, bi, got in ((-3.0, 4.5, stacked[:9]), (-4.0, 5.5, stacked[9:])):
            assert got.tobytes() == hyp2f1(ai, bi, 2.5, x).tobytes()

    def test_rows_must_share_the_branch(self):
        with pytest.raises(DomainError, match="share c - a - b"):
            hyp2f1(np.array([0.3, 0.4]), np.array([1.1, 1.1]), 2.5, [0.2, 0.9])
        with pytest.raises(DomainError, match="all terminate or none"):
            hyp2f1(np.array([-2.0, -2.5]), np.array([1.0, 1.5]), 2.5, [0.2, 0.9])

    def test_parameter_arrays_match_x(self):
        with pytest.raises(DomainError, match="flat"):
            hyp2f1(np.array([[0.3], [0.4]]), 1.1, 2.5, [0.2, 0.9])
        with pytest.raises(DomainError, match="flat"):
            hyp2f1(np.array([0.3, 0.3, 0.3]), np.array([1.1, 1.1, 1.1]), 2.5, [0.2, 0.9])
        # stacked rows are real: a complex degree takes one scalar row
        for a, b, c in ((np.array([0.3 + 0.1j, 0.4]), np.array([1.1, 1.0]), 2.5),
                        (np.array([0.3, 0.4]), np.array([1.1, 1.0 + 0j]), 2.5),
                        (np.array([0.3, 0.4]), np.array([1.1, 1.0]), 2.5 + 0.1j)):
            with pytest.raises(DomainError, match="must be real"):
                hyp2f1(a, b, c, [0.2, 0.9])


class TestLegendreCut:
    def test_normalization_near_one(self):
        # P_nu(1) = 1; probed just inside the cut
        for nu in (0.5, 1.7, 3.2):
            assert legendre_p(nu, 0.0, 1.0 - 1e-8) == pytest.approx(1.0, abs=1e-6)

    def test_half_integer_order_reduction(self):
        # P^{1/2}_{-rho-1/2}(cos a) = sqrt(2/(pi sin a)) cos(rho a)
        rho, alpha = 0.7, 1.1
        want = math.sqrt(2.0 / (math.pi * math.sin(alpha))) * math.cos(rho * alpha)
        got = legendre_p(-rho - 0.5, 0.5, math.cos(alpha))
        assert got == pytest.approx(want, rel=1e-12)

    def test_degree_symmetry_complex(self):
        nu = 0.4 + 0.3j
        a = legendre_p(nu, -0.5, 0.2)
        b = legendre_p(-nu - 1.0, -0.5, 0.2)
        assert abs(a - b) <= 1e-10 * (1.0 + abs(a))

    def test_log_blowup_toward_minus_one(self):
        # P_rho(x) ~ (sin(pi rho)/pi) ln((1+x)/2) as x -> -1: the ratio
        # approaches 1, and gets closer as x does
        rho = 0.5
        ratios = []
        for eps in (1e-6, 1e-9, 1e-12):
            x = -1.0 + eps
            lead = math.sin(math.pi * rho) / math.pi * math.log((1.0 + x) / 2.0)
            ratios.append(legendre_p(rho, 0.0, x) / lead)
        assert abs(ratios[-1] - 1.0) < 0.1
        assert abs(ratios[2] - 1.0) < abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)

    def test_degree_symmetry_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            nu = rng.uniform(-4.0, 4.0)
            mu = rng.uniform(-2.5, 0.9)
            xi = rng.uniform(-0.99, 0.99)
            a = legendre_p(nu, mu, xi)
            b = legendre_p(-nu - 1.0, mu, xi)
            assert abs(a - b) <= 1e-10 * (1.0 + abs(a))

    def test_order_recurrence(self):
        # (nu-mu+1) P^mu_{nu+1} - (nu+mu+1) xi P^mu_nu = sqrt(1-xi^2) P^{mu+1}_nu
        rng = np.random.default_rng(3)
        for _ in range(300):
            nu = rng.uniform(-3.0, 4.0)
            mu = rng.uniform(-2.0, 0.8)
            xi = rng.uniform(-0.95, 0.95)
            lhs = (nu - mu + 1.0) * legendre_p(nu + 1.0, mu, xi) \
                - (nu + mu + 1.0) * xi * legendre_p(nu, mu, xi)
            rhs = math.sqrt(1.0 - xi * xi) * legendre_p(nu, mu + 1.0, xi)
            scale = abs(lhs) + abs(rhs) + 1.0
            assert abs(lhs - rhs) <= 1e-9 * scale

    def test_zero_free_for_complex_degree(self):
        # sampling probe: no value anywhere near zero once Im(nu) >= 0.1
        for im in (0.1, 0.5, 2.0):
            for re in (-1.5, 0.3, 2.0):
                for mu in (-1.0, -0.5, 0.0):
                    for xi in np.linspace(-0.9, 0.9, 13):
                        val = legendre_p(complex(re, im), mu, float(xi))
                        assert abs(val) > 1e-12

    def test_half_degree_at_zero(self):
        assert legendre_p(0.5, 0.0, 0.0) == pytest.approx(0.53935260118837936, rel=1e-12)

    def test_nonfinite_rejected(self):
        for nu, mu in ((complex(np.inf, 0.0), 0.0), (math.nan, 0.0), (0.5, math.inf),
                       (complex(0.5, math.nan), 0.0)):
            with pytest.raises(DomainError):
                legendre_p(nu, mu, 0.5)

    def test_convergence_cap_near_minus_one(self):
        # extremely close to the cut edge the series machinery must either
        # deliver a finite value or raise the explicit failure, never hang
        val = legendre_p(0.5, 0.0, -1.0 + 1e-14)
        assert np.isfinite(val)


class TestLegendreWeighted:
    def test_against_mpmath(self):
        # (1 - xi^2)^(mu/2) P^mu_nu(xi) at x = (1 - xi)/2, the axis x = 0 included
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            for nu in (-2.6, -0.3, 0.5, 1.7, 4.2):
                for mu in (-2.5, -1.0, -0.5, 0.0, 0.5):
                    for x in (0.0, 1e-9, 0.1, 0.37, 0.6, 0.9):
                        if x == 0.0:
                            ref = mp.mpf(2) ** mu * mp.rgamma(1 - mu)
                        else:
                            xi = 1 - 2 * mp.mpf(x)
                            ref = (1 - xi**2) ** (mp.mpf(mu) / 2) * mp.legenp(nu, mu, xi, type=2)
                        got = legendre_weighted(nu, mu, x)
                        assert abs(got - float(ref)) <= 1e-12 * max(1.0, abs(float(ref)))

    def test_array_matches_scalar(self):
        x = np.array([0.0, 0.2, 0.8])
        vec = legendre_weighted(1.3, -0.5, x)
        assert [legendre_weighted(1.3, -0.5, float(v)) for v in x] == pytest.approx(vec, rel=1e-15)

    def test_domain(self):
        for x in (-0.1, 1.0, math.nan):
            with pytest.raises(DomainError):
                legendre_weighted(0.5, -0.5, x)

    def test_positive_integer_order_is_a_pole(self):
        # 1 - mu is a pole of the 2F1's c
        for mu in (1.0, 2.0):
            for nu in (0.7, 2.3):
                with pytest.raises(PoleError):
                    legendre_weighted(nu, mu, 0.3)


def test_no_nan_escapes():
    rng = np.random.default_rng(23)
    for _ in range(200):
        nu = rng.uniform(-5, 5)
        mu = rng.uniform(-3, 0.9)
        xi = rng.uniform(-0.9999, 0.9999)
        try:
            val = legendre_p(nu, mu, xi)
        except (PoleError, ConvergenceError, DomainError):
            continue
        assert np.isfinite(val)
