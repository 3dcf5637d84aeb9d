import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

import epashrink
from epashrink import shrinkage
from epashrink import (
    DomainError,
    DoubleExponential,
    Gaussian,
    InputError,
    MixturePriorParams,
    NumericError,
    esr,
    marginal_m,
    rule_statistics,
)
from oracles import (delta_slab, epanechnikov_pdf, posterior_mean_oracle, reference_esr,
                     unblocked_esr)

PARAMS = MixturePriorParams(alpha=0.95, beta=6.0, lam=3.0)

param_strategy = st.builds(
    MixturePriorParams,
    alpha=st.floats(0.01, 0.999),
    beta=st.floats(0.5, 20.0),
    lam=st.floats(0.05, 10.0),
)


class TestPriorDensities:
    def test_epanechnikov_peak(self):
        assert epanechnikov_pdf(0.0, 1.0) == pytest.approx(0.75, abs=1e-15)

    def test_epanechnikov_support_edges(self):
        assert epanechnikov_pdf(2.0, 2.0) == 0.0
        assert epanechnikov_pdf(-2.0, 2.0) == 0.0
        assert epanechnikov_pdf(5.0, 2.0) == 0.0

    def test_epanechnikov_interior_value(self):
        # 3/(4*8) * (4 - 1) = 9/32
        assert epanechnikov_pdf(1.0, 2.0) == pytest.approx(9 / 32, abs=1e-15)

    def test_epanechnikov_integrates_to_one(self):
        for beta in (0.5, 3.0, 8.0):
            val = quad(lambda t: epanechnikov_pdf(t, beta), -beta, beta)[0]
            assert val == pytest.approx(1.0, abs=1e-10)

    def test_epanechnikov_bad_beta(self):
        with pytest.raises(DomainError):
            epanechnikov_pdf(0.0, 0.0)

    def test_double_exp_at_zero(self):
        # lam = 0.5 -> scale 1, density 1/2 at the mode
        assert DoubleExponential(0.5).pdf(0.0, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_double_exp_mode_value(self):
        for lam in (0.25, 1.0, 4.0):
            assert DoubleExponential(lam).pdf(1.3, 1.3) == pytest.approx(
                math.sqrt(2 * lam) / 2, abs=1e-14
            )

    def test_double_exp_integrates_to_one(self):
        val = quad(lambda d: DoubleExponential(2.0).pdf(d, 0.7), -np.inf, np.inf,
                   points=None, limit=200)[0]
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_double_exp_bad_lambda(self):
        with pytest.raises(DomainError):
            DoubleExponential(-1.0)


class TestParams:
    @pytest.mark.parametrize(
        "alpha,beta,lam",
        [(0.0, 1, 1), (1.0, 1, 1), (1.5, 1, 1), (0.5, 0.0, 1), (0.5, 1, 0.0),
         (0.5, -2, 1), (0.5, 1, -3), (0.5, math.inf, 1), (0.5, math.nan, 1),
         (0.5, 1, math.inf), (0.5, 1, math.nan)],
    )
    def test_invalid_params_rejected(self, alpha, beta, lam):
        with pytest.raises(DomainError):
            MixturePriorParams(alpha=alpha, beta=beta, lam=lam)

    def test_noise_scale(self):
        assert MixturePriorParams(0.5, 1.0, 0.5).noise_scale == pytest.approx(1.0)


class TestMarginal:
    def test_symmetry(self):
        ds = np.linspace(0.0, 20.0, 101)
        np.testing.assert_allclose(
            marginal_m(ds, PARAMS), marginal_m(-ds, PARAMS), rtol=0, atol=0
        )

    def test_matches_direct_quadrature_at_zero(self):
        # frozen from integrating slab x likelihood for beta=6, lam=3
        assert marginal_m(0.0, PARAMS) == pytest.approx(
            0.12384260011751354, abs=1e-8
        )

    def test_matches_direct_quadrature_on_grid(self):
        beta, lam = PARAMS.beta, PARAMS.lam
        a = math.sqrt(2 * lam)

        def brute(d):
            f = lambda t: (3 / (4 * beta**3)) * (beta**2 - t**2) \
                * (a / 2) * math.exp(-a * abs(d - t))
            pts = [d] if -beta < d < beta else None
            return quad(f, -beta, beta, points=pts, limit=200, epsabs=1e-13)[0]

        for d in (0.0, 1.0, 4.0, 5.999, 6.0, 6.5, 9.0, 25.0):
            assert marginal_m(d, PARAMS) == pytest.approx(brute(d), abs=1e-10)

    def test_integrates_to_one(self):
        for beta in (3.0, 6.0, 8.0):
            for lam in (0.5, 1.0, 3.0, 7.0):
                p = MixturePriorParams(0.5, beta, lam)
                core = quad(lambda d: marginal_m(d, p), -beta, beta,
                            points=[0.0], limit=200, epsabs=1e-12)[0]
                tail = quad(lambda d: marginal_m(d, p), beta, np.inf,
                            limit=200, epsabs=1e-12)[0]
                assert core + 2 * tail == pytest.approx(1.0, abs=1e-6)

    def test_positive_everywhere(self):
        ds = np.concatenate([np.linspace(-30, 30, 301), [1e3, 1e6, -1e6]])
        assert np.all(marginal_m(ds, PARAMS) > 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            marginal_m(np.nan, PARAMS)
        with pytest.raises(InputError):
            marginal_m(np.inf, PARAMS)


class TestSlabRule:
    def test_zero_maps_to_zero(self):
        assert delta_slab(0.0, PARAMS) == 0.0

    def test_far_value_frozen_against_quadrature(self):
        # past the support the slab posterior is d-free; frozen oracle value
        # for beta=6, lam=3 from direct integration at d=50
        assert delta_slab(50.0, PARAMS) == pytest.approx(
            5.213309225068097, abs=1e-6
        )
        assert 0.0 < delta_slab(50.0, PARAMS) < 6.0

    def test_exact_antisymmetry_on_grid(self):
        ds = np.linspace(-18, 18, 1001)
        vals = delta_slab(ds, PARAMS)
        flipped = delta_slab(-ds, PARAMS)
        assert np.max(np.abs(vals + flipped)) < 1e-12

    def test_bounded_by_beta(self):
        ds = np.linspace(-1e4, 1e4, 2001)
        assert np.all(np.abs(delta_slab(ds, PARAMS)) < PARAMS.beta)


class TestMixtureRule:
    def test_zero_maps_to_zero(self):
        assert esr(0.0, PARAMS) == 0.0

    def test_agrees_with_oracle_at_three(self):
        # frozen oracle value for alpha=.95, beta=6, lam=3 at d=3
        val = esr(3.0, PARAMS)
        assert 0.0 < val < 3.0
        assert val == pytest.approx(2.5180053194634215, abs=1e-6)

    def test_fig_regime_value(self):
        # alpha=.99, beta=8, lam=1, d=10 (frozen oracle value)
        p = MixturePriorParams(0.99, 8.0, 1.0)
        val = esr(10.0, p)
        assert 0.0 < val < 8.0
        assert val == pytest.approx(5.978210334759921, abs=1e-6)
        assert val == pytest.approx(posterior_mean_oracle(10.0, p), abs=1e-9)

    def test_spike_dominates_as_alpha_to_one(self):
        p = MixturePriorParams(1 - 1e-12, 6.0, 3.0)
        ds = np.linspace(-3.0, 3.0, 61)
        assert np.max(np.abs(esr(ds, p))) < 1e-6

    def test_rule_is_constant_past_the_support(self):
        at_beta = esr(PARAMS.beta, PARAMS)
        for d in (6.5, 10.0, 1e3, 1e9, 1e300):
            assert esr(d, PARAMS) == pytest.approx(at_beta, rel=1e-12)

    def test_vectorized_matches_scalar(self):
        ds = np.linspace(-10, 10, 41)
        vec = esr(ds, PARAMS)
        assert vec.shape == ds.shape
        for d, v in zip(ds, vec):
            assert esr(float(d), PARAMS) == v

    @settings(max_examples=60, deadline=None)
    @given(params=param_strategy, d=st.floats(-100, 100, allow_nan=False))
    def test_antisymmetry_shrinkage_boundedness(self, params, d):
        v = esr(d, params)
        assert esr(-d, params) == -v
        assert abs(v) <= abs(d)
        assert abs(v) < params.beta
        # spike weight only ever pulls toward zero (up to final rounding)
        slab_only = abs(delta_slab(d, params))
        assert abs(v) <= slab_only * (1.0 + 1e-12) + 1e-15

    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_subnormal_input_keeps_sign_and_bound(self, beta):
        params = MixturePriorParams(alpha=0.5, beta=beta, lam=1.0)
        for d in (5e-324, 1e-310):
            assert 0.0 <= esr(d, params) <= d
            assert esr(-d, params) == -esr(d, params)

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            esr(np.inf, PARAMS)


class TestOracleAgreement:
    def test_dense_grid_small(self):
        # smaller companion of the acceptance grid; full grid runs there
        for alpha in (0.6, 0.99):
            for beta in (3.0, 8.0):
                for lam in (0.5, 7.0):
                    p = MixturePriorParams(alpha, beta, lam)
                    ds = np.linspace(-3 * beta, 3 * beta, 41)
                    closed = esr(ds, p)
                    worst = max(
                        abs(closed[i] - posterior_mean_oracle(float(d), p))
                        for i, d in enumerate(ds)
                    )
                    assert worst < 1e-6, (alpha, beta, lam, worst)

    def test_oracle_zero(self):
        assert abs(posterior_mean_oracle(0.0, PARAMS)) < 1e-12


class TestRuleStatistics:
    def test_zero_theta_unbiased(self):
        stats = rule_statistics(0.0, PARAMS)
        assert stats.bias_sq < 1e-16

    def test_decomposition_identity(self):
        for theta in (0.5, 2.0, 4.5):
            stats = rule_statistics(theta, PARAMS)
            assert abs(stats.risk - stats.bias_sq - stats.variance) < 1e-8

    def test_symmetry_in_theta(self):
        for theta in (0.7, 3.1):
            r_pos = rule_statistics(theta, PARAMS).risk
            r_neg = rule_statistics(-theta, PARAMS).risk
            assert abs(r_pos - r_neg) <= 1e-10 * max(abs(r_pos), 1.0)

    def test_gaussian_noise_model(self):
        stats = rule_statistics(2.0, PARAMS, Gaussian(0.5))
        assert abs(stats.risk - stats.bias_sq - stats.variance) < 1e-8
        assert stats.variance > 0

    def test_peak_ordering_in_alpha(self):
        thetas = np.linspace(0.0, 4.5, 16)
        peaks = []
        for alpha in (0.6, 0.99):
            p = MixturePriorParams(alpha, 6.0, 3.0)
            peaks.append(max(rule_statistics(t, p).risk for t in thetas))
        assert peaks[0] < peaks[1]

    def test_noise_model_validation(self):
        with pytest.raises(DomainError):
            DoubleExponential(0.0)
        with pytest.raises(DomainError):
            Gaussian(-1.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError, match="finite"):
                DoubleExponential(bad)
            with pytest.raises(DomainError, match="finite"):
                Gaussian(bad)

    def test_non_finite_theta_rejected(self):
        with pytest.raises(InputError):
            rule_statistics(math.nan, PARAMS)

    @pytest.mark.parametrize("noise", [None, Gaussian(0.5)])
    def test_overflowing_risk_raises_numeric_error(self, noise):
        # (plateau - theta)^2 overflows a double
        with pytest.raises(NumericError):
            rule_statistics(1e200, PARAMS, noise)

    def test_gaussian_closed_form_matches_scipy(self):
        model = Gaussian(0.7)
        d = np.linspace(-8.0, 8.0, 161)
        np.testing.assert_allclose(
            model.pdf(d, 1.3), norm.pdf(d, loc=1.3, scale=0.7), rtol=1e-14, atol=1e-300
        )
        for x in d:
            want = norm.sf(x, loc=1.3, scale=0.7)
            assert model.sf(float(x), 1.3) == pytest.approx(want, rel=1e-13, abs=1e-300)
        assert model.pdf(1e300, 0.0) == 0.0


def quad_rule_statistics(theta, params, noise=None):
    """rule_statistics by adaptive quadrature: the oracle for the sum.

    Three quad calls on [-beta, beta], with the density kink at d = theta
    handed to the subdivider and esr evaluated one scalar at a time, plus
    the exact plateau tails. The Gaussian density and survival function
    come from scipy.stats, not from the package's closed forms.
    """
    if noise is None:
        noise = DoubleExponential(params.lam)
    if isinstance(noise, Gaussian):
        def pdf(d):
            return norm.pdf(d, loc=theta, scale=noise.sigma)

        def sf(x):
            return float(norm.sf(x, loc=theta, scale=noise.sigma))
    else:
        def pdf(d):
            return noise.pdf(d, theta)

        def sf(x):
            return noise.sf(x, theta)

    beta = params.beta
    plateau = esr(beta, params)

    def integral(f):
        pts = [theta] if -beta < theta < beta else None
        value, abserr = quad(lambda d: f(esr(d, params)) * pdf(d), -beta, beta,
                             points=pts, epsabs=1e-12, epsrel=1e-12, limit=200)
        assert abserr <= 1e-6 * max(1.0, abs(value))
        return value

    p_hi = sf(beta)
    p_lo = 1.0 - sf(-beta)
    mean = integral(lambda r: r) + plateau * (p_hi - p_lo)
    second = integral(lambda r: r * r) + plateau**2 * (p_hi + p_lo)
    risk = (integral(lambda r: (r - theta) ** 2) + (plateau - theta) ** 2 * p_hi
            + (plateau + theta) ** 2 * p_lo)
    return (mean - theta) ** 2, second - mean**2, risk


ORACLE_CASES = [
    pytest.param(MixturePriorParams(0.6, 6.0, 3.0), id="alpha0.6"),
    pytest.param(MixturePriorParams(0.95, 6.0, 3.0), id="alpha0.95"),
    pytest.param(MixturePriorParams(0.99, 6.0, 3.0), id="alpha0.99"),
    # a*beta = 0.027 < 0.05: esr runs on its series branch
    pytest.param(MixturePriorParams(0.95, 6.0, 1e-5), id="series-seam"),
    # noise scale 0.05, a hundred and twentieth of beta
    pytest.param(MixturePriorParams(0.95, 6.0, 200.0), id="narrow-kernel"),
]


class TestRuleStatisticsAgainstQuadrature:
    """The Gauss-Legendre sum against adaptive quadrature, to 1e-9 absolute
    (relative once the value is above 1)."""

    @pytest.mark.parametrize("model", ["dexp", "gaussian"])
    @pytest.mark.parametrize("params", ORACLE_CASES)
    def test_matches_quadrature(self, params, model):
        noise = None if model == "dexp" else Gaussian(params.noise_scale)
        beta = params.beta
        for theta in (-beta - 1.0, -beta, -2.7, 0.0, 1e-6, 0.999 * beta, beta, beta + 2.0):
            s = rule_statistics(theta, params, noise)
            want = quad_rule_statistics(theta, params, noise)
            for what, got, ref in zip(("bias_sq", "variance", "risk"),
                                      (s.bias_sq, s.variance, s.risk), want):
                assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref)), (what, theta, got, ref)


class TestRuleStatisticsExtremeScales:
    """Length scales far below beta. Adaptive quadrature misses the noise
    density there: at theta = 3 it returns bias_sq = 9 with risk 0.

    The statistics stay finite, the split risk = bias_sq + variance holds
    and esr sees a bounded number of nodes. Under narrow noise the risk
    also approaches its zero-noise limit (esr(theta) - theta)^2: away from
    the kill threshold the rule's slope is at most about one, so the gap is
    at most twice the noise variance (plus rounding of the O(1) terms).
    """

    @pytest.fixture
    def esr_sizes(self, monkeypatch):
        """Sizes of the arguments rule_statistics passes to esr."""
        sizes = []

        def counting_esr(d, p):
            sizes.append(np.size(d))
            return esr(d, p)

        monkeypatch.setattr(shrinkage, "esr", counting_esr)
        return sizes

    @pytest.mark.parametrize("params, noise, noise_var", [
        pytest.param(MixturePriorParams(0.95, 6.0, 1e12), None, 1e-12, id="lambda1e12"),
        pytest.param(PARAMS, Gaussian(1e-9), 1e-18, id="gaussian1e-9"),
    ])
    @pytest.mark.parametrize("theta", [0.0, 1e-6, 1.0, 3.0, 5.5, 6.0, -4.0, 7.0])
    def test_finite_bounded_and_zero_noise_limit(self, params, noise, noise_var, theta,
                                                 esr_sizes):
        s = rule_statistics(theta, params, noise)
        assert all(math.isfinite(v) for v in (s.bias_sq, s.variance, s.risk))
        assert abs(s.risk - s.bias_sq - s.variance) < 1e-8
        assert max(esr_sizes) <= 100 * 24
        limit = (esr(theta, params) - theta) ** 2
        assert abs(s.risk - limit) <= 2.0 * noise_var + 1e-15

    def test_wide_noise_over_sharp_rule_stays_bounded(self, esr_sizes):
        # unit noise over a rule whose length scale is 7e-7: the panels
        # grade geometrically away from the rule's breakpoints
        params = MixturePriorParams(0.95, 6.0, 1e12)
        s = rule_statistics(3.0, params, Gaussian(1.0))
        assert all(math.isfinite(v) for v in (s.bias_sq, s.variance, s.risk))
        assert abs(s.risk - s.bias_sq - s.variance) < 1e-8
        assert max(esr_sizes) <= 1300 * 24


def test_cli_import_leaves_quadrature_and_stats_unloaded():
    """Importing the CLI loads neither scipy.stats nor scipy.integrate, and
    the quadrature oracle matches the closed form."""
    p = MixturePriorParams(0.95, 6.0, 3.0)
    for d in (-7.0, -2.5, 0.3, 3.0, 6.0, 9.0):
        assert abs(posterior_mean_oracle(d, p) - esr(d, p)) < 1e-9, d
    code = (
        "import sys\n"
        "import epashrink.cli\n"
        "heavy = [m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules]\n"
        "assert not heavy, heavy\n"
    )
    src = str(Path(epashrink.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("lam", [1e160, 1e300, sys.float_info.max])
@pytest.mark.parametrize("beta", [0.3, 6.0, 1e3])
def test_esr_at_huge_lambda_is_the_clamp(lam, beta):
    # the likelihood is then far narrower than the slab: away from the
    # spike (|d| below ~1e-75 beta) the posterior mean is d inside the
    # support and its edge beta past it
    import warnings

    params = MixturePriorParams(0.95, beta, lam)
    d = np.concatenate([np.linspace(-3 * beta, 3 * beta, 601),
                        [5e-324, -1e-300, 1e-100 * beta]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = esr(d, params)
        scalar = esr(1.5 * beta, params)
    assert not caught
    assert np.isfinite(out).all()
    assert np.all(np.abs(out) <= np.abs(d))
    assert np.array_equal(np.sign(out[out != 0]), np.sign(d[out != 0]))
    clamp = np.sign(d) * np.minimum(np.abs(d), beta)
    away = np.abs(d) > 1e-3 * beta
    np.testing.assert_allclose(out[away], clamp[away], rtol=1e-12)
    assert scalar == pytest.approx(beta, rel=1e-12)


@pytest.mark.parametrize("field", ["alpha", "beta", "lam"])
def test_rule_statistics_takes_one_parameter_set(field):
    # as do esr and marginal_m: MixturePriorParams holds one set, so a
    # field of one or more dimensions is an input error when it is built,
    # and a 0-d array is the number it holds
    values = {"alpha": 0.9, "beta": 6.0, "lam": 3.0}
    one_set = MixturePriorParams(**values)
    zero_d = MixturePriorParams(**{**values, field: np.array(values[field])})
    for shape in ((2, 1), (1,)):
        with pytest.raises(InputError, match="MixturePriorParams takes one parameter set"):
            MixturePriorParams(**{**values, field: np.full(shape, values[field])})
    for func in (esr, marginal_m, rule_statistics):
        assert func(1.0, zero_d) == func(1.0, one_set)


# (alpha, beta, lam) with a*beta = 0.0245 (series side of the seam) and 14.7
_SERIES_ROW, _DIRECT_ROW = (0.9, 0.01, 3.0), (0.9, 6.0, 3.0)


@pytest.mark.parametrize("row", [_SERIES_ROW, _DIRECT_ROW, (0.95, 6.0, 1e200)])
def test_esr_in_blocks_matches_unblocked_oracle_on_a_long_row(row):
    # three whole blocks and a ragged end
    params = MixturePriorParams(*row)
    d = (np.random.default_rng(11).standard_normal(3 * shrinkage._BLOCK_COEFFS + 5)
         * 4.0 * row[1])
    assert np.array_equal(esr(d, params), unblocked_esr(d, params))
    # a strided stack is cut in slices of its flattened coefficients and
    # keeps its shape, as does an empty one
    stack = d[:3 * shrinkage._BLOCK_COEFFS].reshape(3, -1).T
    out = esr(stack, params)
    assert out.shape == stack.shape
    assert np.array_equal(out, unblocked_esr(stack, params))
    assert esr(d[:0].reshape(2, 0), params).shape == (2, 0)


def _reference_at_normal_scale(d, params):
    """reference_esr at the point (s d, s beta, lam / s^2), divided by s.

    The rule is equivariant under that rescale, and for a power of two s
    so is the reference closed form, bit for bit, except where its terms
    turn subnormal: it loses digits once beta^2 / lam falls below about
    1e-300. s is the least power of two that lifts beta^2 / lam to 2^-900,
    and the rule is constant past the support, so d is cut to 2 beta
    first."""
    k = max(0, math.ceil((math.log2(params.lam) - 2.0 * math.log2(params.beta) - 900) / 4))
    s = 2.0**k
    scaled = MixturePriorParams(params.alpha, params.beta * s, params.lam / s / s)
    return reference_esr(np.clip(d, -2.0 * params.beta, 2.0 * params.beta) * s, scaled) / s


@st.composite
def _rule_points(draw):
    """A parameter set with b = a beta >= 0.05, over spike weights from
    1e-12 to 1 - 1e-15, slab supports from 1e-3 to 1e8 and lam up to the
    largest float, with b in [0.05, 1) as often as above it, and
    coefficients at 0, at the edge +-beta and near it, subnormal, past the
    support and at 1e300."""
    alpha = draw(st.one_of(st.floats(-12.0, -0.3).map(lambda e: 10.0**e),
                           st.floats(-15.0, -0.3).map(lambda e: 1.0 - 10.0**e)))
    beta = 10.0 ** draw(st.floats(-3.0, 8.0))
    log_b = draw(st.one_of(st.floats(math.log10(0.05), 0.0), st.floats(0.0, 163.0)))
    ratio = 10.0**log_b / beta
    lam = draw(st.sampled_from([0.5 * ratio * ratio, sys.float_info.max]))
    assume(0.0 < lam < math.inf)
    b = float(shrinkage._rate(lam)) * beta
    assume(b >= 0.05)
    params = MixturePriorParams(alpha, beta, lam)
    fractions = draw(st.lists(st.floats(-1.5, 1.5), max_size=4))
    # and within a few 1/b of the edge, where D is about 1/b
    edges = draw(st.lists(st.floats(0.0, 20.0), max_size=3))
    d = np.array([0.0, beta, -beta, 5e-324, -5e-324, 1e300, -1e300,
                  *(f * beta for f in fractions), *(beta * (1.0 - t / b) for t in edges)])
    return params, d


@settings(max_examples=150, deadline=None)
@given(_rule_points())
def test_esr_matches_the_reference_closed_form(point):
    # the form in u and b against the one in beta and lam: to 1e-13 beta
    # for b >= 1, and to 1e-9 beta where the terms of D cancel, down to
    # the seam at b = 0.05
    params, d = point
    b = float(shrinkage._rate(params.lam)) * params.beta
    tol = (1e-13 if b >= 1.0 else 1e-9) * params.beta
    assert np.max(np.abs(esr(d, params) - _reference_at_normal_scale(d, params))) <= tol


@pytest.mark.parametrize("func", [esr, marginal_m, delta_slab])
def test_overflowing_slab_support_is_a_numeric_error(func):
    # beta**3 overflows: outside any caller's guard this is still an
    # error, not a nan with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            func(3.0, MixturePriorParams(0.9, 1e200, 3.0))


@pytest.mark.parametrize("lam", [1e300, sys.float_info.max])
def test_rule_statistics_at_huge_lambda_vanish(lam):
    # the noise scale 1/sqrt(2 lam) is below 1e-150 and the rule is the
    # clamp, so bias, variance and risk all vanish; 2 lam overflowing must
    # not leave the noise model without a scale
    params = MixturePriorParams(0.95, 6.0, lam)
    for theta in (0.0, 1.5, 5.9):
        stats = rule_statistics(theta, params)
        assert 0.0 <= stats.bias_sq <= 1e-200
        assert 0.0 <= stats.variance <= 1e-200
        assert 0.0 <= stats.risk <= 1e-200
