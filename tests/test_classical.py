import math

import numpy as np
import pytest
from scipy import stats

from groverweight import classical, decision
from groverweight.errors import ParameterError


def test_single_step_error_is_exact():
    # one query, k = 1: error = 1 - cos^2(pi/6) = 1/4
    assert classical.error_probability(1, 1) == pytest.approx(0.25, abs=1e-15)


def test_error_probability_matches_scipy_binomial_cdf():
    # independent route: regularized incomplete beta instead of the log-gamma sum
    for k in (1, 3, 10, 101):
        p = classical.single_query_accuracy(k)
        for g in (1, 7, 101, 1001):
            ours = classical.error_probability(k, g)
            reference = stats.binom.cdf((g - 1) // 2, g, p)
            assert ours == pytest.approx(reference, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize(
    "k, g", [(766342, 766343), (1000, 999999), (999, 998001), (99, 970299), (51, 132651), (300, 90001)]
)
def test_error_probability_matches_40_digit_sum(k, g):
    # independent precision: the window below the top term summed at 40 digits,
    # from the same double p, down to terms 1e-30 of the sum
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        p = mpmath.mpf(classical.single_query_accuracy(k))
        q = 1 - p
        i = (g - 1) // 2
        term = total = mpmath.binomial(g, i) * p**i * q ** (g - i)
        while i > 0 and term > total * mpmath.mpf(10) ** -30:
            term *= mpmath.mpf(i) / (g - i + 1) * q / p
            total += term
            i -= 1
        reference = float(total)
    assert classical.error_probability(k, g) == pytest.approx(reference, rel=1e-9)


def test_even_query_counts_rejected():
    with pytest.raises(ParameterError):
        classical.error_probability(3, 4)
    with pytest.raises(ParameterError):
        classical.error_probability(3, 0)


def test_error_decreases_with_more_queries():
    for k in (1, 5, 20):
        values = [classical.error_probability(k, g) for g in range(1, 202, 2)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_limit_regimes():
    assert 0.45 < classical.error_probability(101, 101) < 0.55
    phi = 0.5 * math.erfc(math.pi / 4 / math.sqrt(2))
    assert classical.error_probability(201, 201**2) == pytest.approx(phi, abs=0.02)
    assert classical.error_probability(11, 11**3) < 0.01


def test_linear_regime_approaches_half_from_below():
    values = [classical.error_probability(k, k) for k in (11, 25, 51, 101)]
    assert all(a < b < 0.5 for a, b in zip(values, values[1:]))


def test_majority_vote_trial_basics():
    # every query of a constant oracle agrees, so the vote names its weight
    size = 1 << 6
    constants = decision.PromisePair(size=size, t_small=0, t_big=size, k=1)
    rng = np.random.default_rng(0)
    for t in (0, size):
        for g in (1, 3, 9):
            assert classical.empirical_error_rate(t, g, 50, rng, constants) == 0.0
    with pytest.raises(ParameterError):
        classical.empirical_error_rate(t, 2, 50, rng, constants)
    with pytest.raises(ParameterError):
        classical.empirical_error_rate(t, 3, 0, rng, constants)


def test_single_query_vote_on_near_constant_oracle():
    # weight 1 vs N - 1: a single query errs exactly when it hits the one solution
    n = 6
    size = 1 << n
    pair = decision.PromisePair(size=size, t_small=1, t_big=size - 1, k=1)
    trials = 20_000
    rate = classical.empirical_error_rate(1, 1, trials, np.random.default_rng(7), pair)
    expect = 1 / size
    sigma = math.sqrt(expect * (1 - expect) / trials)
    assert abs(rate - expect) <= 4 * sigma


def test_empirical_error_matches_exact_formula():
    n, k, g = 12, 3, 3
    size = 1 << n
    pair = decision.PromisePair.for_iterations(k, size)
    trials = 100_000
    rate = classical.empirical_error_rate(pair.t_small, g, trials, np.random.default_rng(3), pair)
    # the rounded weight shifts the per-query accuracy by at most 0.5/N
    exact = classical.error_probability(k, g)
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(rate - exact) <= 4 * sigma + g * 0.5 / size


def test_scaling_table_regimes():
    def regime(k, s):
        return classical.error_probability(k, classical.nearest_odd(float(k) ** s))

    assert abs(regime(51, 1) - 0.5) < 0.05
    assert abs(regime(51, 2) - 0.216) < 0.02
    assert classical.nearest_odd(11.0**3) == 1331 and regime(11, 3) < 0.01
    with pytest.raises(ParameterError):
        regime(101, 3)  # over the 1e6 budget


def test_error_probability_budget():
    assert 0.0 < classical.error_probability(10**5, classical.MAX_G - 1) < 0.5
    with pytest.raises(ParameterError, match="compute budget"):
        classical.error_probability(3, classical.MAX_G + 1)


def test_nearest_odd():
    assert classical.nearest_odd(1.0) == 1
    assert classical.nearest_odd(2.9) == 3
    assert classical.nearest_odd(4.0) == 5  # ties go up
    assert classical.nearest_odd(0.2) == 1
