import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from epashrink import (
    DomainError,
    MixturePriorParams,
    NumericError,
    esr,
    hard_threshold,
    soft_threshold,
    universal_threshold,
)
from oracles import sign_soft_threshold, where_hard_threshold


class TestHard:
    def test_kill_below(self):
        assert hard_threshold(2.0, 3.5) == 0.0

    def test_keep_above(self):
        assert hard_threshold(5.0, 3.5) == 5.0
        assert hard_threshold(-5.0, 3.5) == -5.0

    def test_boundary_killed(self):
        assert hard_threshold(3.5, 3.5) == 0.0

    def test_negative_eta_rejected(self):
        with pytest.raises(DomainError):
            hard_threshold(1.0, -0.1)


class TestSoft:
    def test_shrink_above(self):
        assert soft_threshold(5.0, 3.5) == pytest.approx(1.5, abs=1e-15)
        assert soft_threshold(-5.0, 3.5) == pytest.approx(-1.5, abs=1e-15)

    def test_continuous_at_boundary(self):
        assert soft_threshold(3.5, 3.5) == 0.0
        eps = 1e-9
        assert abs(soft_threshold(3.5 + eps, 3.5)) <= 2 * eps

    def test_vectorized(self):
        d = np.array([-4.0, -1.0, 0.0, 1.0, 4.0])
        np.testing.assert_allclose(
            soft_threshold(d, 2.0), [-2.0, 0.0, 0.0, 0.0, 2.0]
        )


@settings(max_examples=100, deadline=None)
@given(d=st.floats(-1e6, 1e6, allow_nan=False), eta=st.floats(0, 1e6))
def test_ordering_and_antisymmetry(d, eta):
    s = soft_threshold(d, eta)
    h = hard_threshold(d, eta)
    assert abs(s) <= abs(h) <= abs(d)
    assert soft_threshold(-d, eta) == -s
    assert hard_threshold(-d, eta) == -h


class TestUniversal:
    def test_sqrt_identity(self):
        # n = e^2: threshold is sigma * sqrt(4) = 2
        assert universal_threshold(1.0, math.e**2) == pytest.approx(2.0, abs=1e-12)

    def test_reference_value(self):
        assert universal_threshold(2.0, 1024) == pytest.approx(
            2 * math.sqrt(2 * math.log(1024)), abs=1e-12
        )

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            universal_threshold(1.0, 1)

    def test_bad_sigma_rejected(self):
        with pytest.raises(DomainError):
            universal_threshold(0.0, 100)

    def test_overflow_raises_numeric_error(self):
        with pytest.raises(NumericError):
            universal_threshold(1e308, 4096)


def test_rule_sandwich_between_hard_and_soft():
    # with a wide slab and gentle rate the mixture rule interpolates the
    # classical rules: a small spike weight tracks keep-or-kill, a large
    # one tracks shrink-by-eta (sup distance on a grid above the threshold)
    beta, lam, eta = 8.0, 1.0, 3.5
    grid = np.linspace(4.0, 12.0, 161)
    hard = hard_threshold(grid, eta)
    soft = soft_threshold(grid, eta)
    dist = {}
    for alpha in (0.65, 0.99):
        vals = esr(grid, MixturePriorParams(alpha, beta, lam))
        dist[alpha] = (
            np.max(np.abs(vals - hard)),
            np.max(np.abs(vals - soft)),
        )
    assert dist[0.65][0] < dist[0.99][0]  # small alpha hugs the hard rule
    assert dist[0.99][1] < dist[0.65][1]  # large alpha hugs the soft rule


def test_per_row_thresholds_match_rows():
    d = np.random.default_rng(6).standard_normal((4, 33)) * 3.0
    sigma = np.array([0.5, 1.0, 2.0, 1e-3])
    eta = universal_threshold(sigma, 33)
    assert eta.shape == (4,)
    for rule in (hard_threshold, soft_threshold):
        out = rule(d, eta[:, None])
        for r in range(4):
            assert eta[r] == universal_threshold(float(sigma[r]), 33)
            assert np.array_equal(out[r], rule(d[r], float(eta[r])))


def test_per_row_thresholds_are_checked():
    with pytest.raises(DomainError):
        hard_threshold(np.zeros((2, 3)), np.array([[1.0], [-1.0]]))
    with pytest.raises(DomainError):
        universal_threshold(np.array([1.0, 0.0]), 16)
    with pytest.raises(NumericError):
        universal_threshold(np.array([1.0, 1e308]), 4096)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


_coefficients = hnp.arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 9)),
                           elements=st.floats(allow_nan=False, width=64))
_thresholds = st.floats(0, 1e300) | st.just(0.0) | st.just(math.inf)


@settings(max_examples=200, deadline=None)
@given(d=_coefficients, eta_kind=st.sampled_from(["scalar", "column", "array"]),
       data=st.data())
@pytest.mark.parametrize("rule, oracle", [(hard_threshold, where_hard_threshold),
                                          (soft_threshold, sign_soft_threshold)],
                         ids=["hard", "soft"])
def test_in_place_thresholds_are_the_allocating_forms_bit_for_bit(rule, oracle, d, eta_kind,
                                                                  data):
    # out=d writes the result over its own input, signed zeros included,
    # for a number, a column of one per row and an array of one per
    # coefficient; and both forms are the np.where and np.sign definitions
    # they replaced, wherever those are not a nan
    if eta_kind == "scalar":
        eta = data.draw(_thresholds)
    else:
        shape = (d.shape[0], 1) if eta_kind == "column" else d.shape
        eta = data.draw(hnp.arrays(float, shape, elements=_thresholds))
    with np.errstate(invalid="ignore"):  # inf - inf under soft
        fresh = rule(d, eta)
        want = oracle(d, eta)
        inplace = d.copy()
        assert rule(inplace, eta, out=inplace) is inplace
    assert np.array_equal(_bits(inplace), _bits(fresh))
    assert np.array_equal(np.isnan(fresh), np.isnan(want))
    kept = ~np.isnan(want)
    assert np.array_equal(_bits(fresh[kept]), _bits(want[kept]))


@pytest.mark.parametrize("rule", [hard_threshold, soft_threshold])
def test_out_takes_the_broadcast_shape(rule):
    d = np.array([-3.0, -0.0, 0.0, 0.5, 3.0])
    eta = np.array([[0.0], [1.0]])
    out = np.full((2, 5), np.nan)
    assert rule(d, eta, out=out) is out
    assert np.array_equal(_bits(out), _bits(rule(d, eta)))
    assert np.array_equal(_bits(out[1]), _bits(rule(d, 1.0)))


def test_signed_zeros():
    # a negative d shrunk to zero keeps its sign under soft, a killed one
    # does not under hard, and -0.0 comes out +0.0 under both
    d = np.array([-0.5, -0.0, 0.0, 0.5])
    assert _bits(soft_threshold(d, 1.0)).tolist() == _bits([-0.0, 0.0, 0.0, 0.0]).tolist()
    assert _bits(hard_threshold(d, 1.0)).tolist() == _bits([0.0] * 4).tolist()
    assert _bits(soft_threshold(d, 0.0)).tolist() == _bits([-0.5, 0.0, 0.0, 0.5]).tolist()
