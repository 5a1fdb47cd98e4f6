"""Majority-vote baseline: the best known classical probabilistic strategy.

Each uniformly random query indicates the true hypothesis of the promise
pair with probability p = cos^2(pi k / (2(2k+1))); after g (odd) queries
the vote errs with the binomial tail E(k, g).  The tail is evaluated in
log space via log-gamma so that g up to 10^6 stays exact to ~1e-12
relative error; larger g is refused before anything is allocated.
"""
from __future__ import annotations

import math

import numpy as np

from .decision import PromisePair
from .errors import ParameterError
from .oracle import BooleanOracle

QUERY_CHUNK = 1 << 22  # cap on queries materialized per vectorized block
MAX_G = 10**6  # compute budget of the exact tail: (g + 1) / 2 terms


def single_query_accuracy(k: int) -> float:
    """Probability one random query's output indicates the true weight."""
    if k < 1:
        raise ParameterError("k must be >= 1")
    return math.cos(math.pi * k / (2 * (2 * k + 1))) ** 2


def error_probability(k: int, g: int) -> float:
    """Exact majority-vote error E(k, g) for odd g.

    E = sum_{i=0}^{(g-1)/2} C(g, i) p^i (1-p)^{g-i} with
    p = cos^2(pi k / (2(2k+1))).
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    if g < 1 or g % 2 == 0:
        raise ParameterError(f"query count must be odd and positive, got {g}")
    if g > MAX_G:
        raise ParameterError(f"g = {g} exceeds the compute budget MAX_G = {MAX_G}")
    # Deferred: scipy is needed here only, and importing it dominates CLI start-up.
    from scipy.special import gammaln

    p = single_query_accuracy(k)
    i = np.arange(0, (g - 1) // 2 + 1, dtype=np.float64)
    log_terms = (
        gammaln(g + 1.0)
        - gammaln(i + 1.0)
        - gammaln(g - i + 1.0)
        + i * math.log(p)
        + (g - i) * math.log1p(-p)
    )
    return float(np.exp(log_terms).sum())


def majority_vote_trial(
    oracle: BooleanOracle, g: int, rng: np.random.Generator, promise: PromisePair
) -> int:
    """One vote: g uniform queries with replacement, majority output decides.

    Output one in the majority means the higher weight.
    """
    if g < 1 or g % 2 == 0:
        raise ParameterError(f"query count must be odd and positive, got {g}")
    idx = rng.integers(0, oracle.size, size=g)
    ones = int(oracle.bits[idx].sum())
    return promise.t_big if 2 * ones > g else promise.t_small


def empirical_error_rate(
    oracle: BooleanOracle,
    g: int,
    trials: int,
    rng: np.random.Generator,
    promise: PromisePair,
) -> float:
    """Monte Carlo error rate of the vote, vectorized in memory-capped blocks."""
    if g < 1 or g % 2 == 0:
        raise ParameterError(f"query count must be odd and positive, got {g}")
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    per_block = max(1, QUERY_CHUNK // g)
    wrong = 0
    done = 0
    while done < trials:
        block = min(per_block, trials - done)
        idx = rng.integers(0, oracle.size, size=(block, g))
        ones = oracle.bits[idx].sum(axis=1)
        inferred_big = 2 * ones > g
        inferred = np.where(inferred_big, promise.t_big, promise.t_small)
        wrong += int(np.count_nonzero(inferred != oracle.t))
        done += block
    return wrong / trials


def nearest_odd(value: float) -> int:
    """Nearest odd integer >= 1."""
    return max(1, 2 * int(math.floor((value - 1.0) / 2.0 + 0.5)) + 1)


def scaling_table(k_list, exponents) -> list[tuple[int, float, int, float]]:
    """Rows (k, s, g = nearest odd k^s, E) across the requested regimes."""
    rows = []
    for k in k_list:
        for s in exponents:
            g = nearest_odd(float(k) ** float(s))
            rows.append((k, float(s), g, error_probability(k, g)))
    return rows
