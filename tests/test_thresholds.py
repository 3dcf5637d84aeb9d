import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epashrink import (
    DomainError,
    MixturePriorParams,
    NumericError,
    esr,
    hard_threshold,
    soft_threshold,
    universal_threshold,
)


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
