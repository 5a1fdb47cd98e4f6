import math

import numpy as np
import pytest
from scipy import stats

from groverweight import classical, decision
from groverweight.errors import ParameterError
from groverweight.oracle import make_random_oracle


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
    size = 1 << 6
    pair = decision.PromisePair.for_iterations(1, size)
    all_ones = make_random_oracle(6, size, seed=0)
    rng = np.random.default_rng(0)
    assert all(
        classical.majority_vote_trial(all_ones, g, rng, pair) == pair.t_big
        for g in (1, 3, 9)
    )
    with pytest.raises(ParameterError):
        classical.majority_vote_trial(all_ones, 2, rng, pair)


def test_single_query_vote_on_near_constant_oracle():
    # weight 1: a single query says t_small with probability (N-1)/N
    n = 6
    size = 1 << n
    orc = make_random_oracle(n, 1, seed=1)
    pair = decision.PromisePair.for_iterations(1, size)
    rng = np.random.default_rng(7)
    trials = 20_000
    hits = sum(
        classical.majority_vote_trial(orc, 1, rng, pair) == pair.t_small
        for _ in range(trials)
    )
    expect = (size - 1) / size
    sigma = math.sqrt(expect * (1 - expect) / trials)
    assert abs(hits / trials - expect) <= 4 * sigma


def test_empirical_error_matches_exact_formula():
    n, k, g = 12, 3, 3
    size = 1 << n
    pair = decision.PromisePair.for_iterations(k, size)
    orc = make_random_oracle(n, pair.t_small, seed=2)
    trials = 100_000
    rate = classical.empirical_error_rate(orc, g, trials, np.random.default_rng(3), pair)
    # the rounded weight shifts the per-query accuracy by at most 0.5/N
    exact = classical.error_probability(k, g)
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(rate - exact) <= 4 * sigma + g * 0.5 / size


def test_scaling_table_regimes():
    rows = classical.scaling_table([51], [1, 2])
    by_s = {s: e for (_, s, _, e) in rows}
    assert abs(by_s[1] - 0.5) < 0.05
    assert abs(by_s[2] - 0.216) < 0.02
    rows = classical.scaling_table([11], [3])
    assert rows[0][2] == 1331 and rows[0][3] < 0.01
    with pytest.raises(ParameterError):
        classical.scaling_table([101], [3])  # over the 1e6 budget


def test_error_probability_budget():
    assert 0.0 < classical.error_probability(10**5, classical.MAX_G - 1) < 0.5
    with pytest.raises(ParameterError, match="compute budget"):
        classical.error_probability(3, classical.MAX_G + 1)


def test_nearest_odd():
    assert classical.nearest_odd(1.0) == 1
    assert classical.nearest_odd(2.9) == 3
    assert classical.nearest_odd(4.0) == 5  # ties go up
    assert classical.nearest_odd(0.2) == 1
