"""Quantum counting: phase estimation of the Grover eigenphase.

One Grover iteration at weight fraction u rotates the invariant plane by
2*beta_H, so its eigenvalues are e^{+-2i beta_H} and the uniform state
splits evenly between the two eigenbranches.  Coupling a P-point register
through controlled powers and Fourier-transforming it gives the exact
measured distribution as a half/half mix of two Dirichlet kernels; the
whole register-plane system is size 2P, never 2^n * P.

Planners accept hypothesis weights as exact angle fractions a with
theta = pi / a (a rational, given as int, Fraction or 'p/q' string),
since the common register size is a least-common-multiple construction
that is meaningless on floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .decision import DecisionOutcome
from .errors import ParameterError, PlanningError, PromiseViolationError
from .subspace import round_weight

if TYPE_CHECKING:
    import numpy as np

    from .oracle import BooleanOracle

SUPPORT_TOL = 1e-12
MAX_P = 10**6  # compute budget of the register: P points per distribution


def _as_fraction(a) -> Fraction:
    if isinstance(a, Fraction):
        frac = a
    elif isinstance(a, int):
        frac = Fraction(a)
    elif isinstance(a, str):
        frac = Fraction(a.strip())
    else:
        raise ParameterError(f"angle fraction must be exact (int/Fraction/'p/q'), got {a!r}")
    if frac <= 1 or frac == 2:
        raise ParameterError(f"angle divisor must satisfy a > 1, a != 2 (weight in (0,1)); got {frac}")
    return frac


def weight_of(a) -> float:
    """Weight fraction sin^2(pi / a) for an exact angle divisor a."""
    return math.sin(math.pi / float(_as_fraction(a))) ** 2


@dataclass(frozen=True)
class Hypothesis:
    """One candidate weight: divisor a, fraction sin^2(pi/a), outcome k."""

    a: Fraction
    weight: float
    k: int


@dataclass(frozen=True)
class CountingPlan:
    """Register size, hypothesis list and the sequential-power query cost."""

    P: int
    hypotheses: tuple[Hypothesis, ...]
    total_oracle_calls: int

    def __post_init__(self):
        folded = [min(h.k, self.P - h.k) for h in self.hypotheses]
        if len(set(folded)) != len(folded):
            raise PlanningError(f"folded outcomes collide: {folded}")
        for h in self.hypotheses:
            if not 0 < h.k < self.P:
                raise PlanningError(f"expected outcome {h.k} outside (0, {self.P})")


def _dirichlet_kernel(x: np.ndarray, points: int) -> np.ndarray:
    """|sum_m e^{imx}|^2 / P^2 with the removable singularity filled in."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    mod = np.mod(x, 2.0 * math.pi)
    near = (mod < 1e-12) | ((2.0 * math.pi - mod) < 1e-12)
    safe = np.where(near, 1.0, x)
    value = np.sin(points * safe / 2.0) ** 2 / (points * np.sin(safe / 2.0)) ** 2
    return np.where(near, 1.0, value)


def _kernel_at(x: float, points: int) -> float:
    """_dirichlet_kernel at one point in math: the same operations, in order."""
    mod = x % (2.0 * math.pi)
    if mod < 1e-12 or 2.0 * math.pi - mod < 1e-12:
        return 1.0
    return math.sin(points * x / 2.0) ** 2 / (points * math.sin(x / 2.0)) ** 2


def _check_register(points: int) -> None:
    if points > MAX_P:
        raise ParameterError(f"register size P = {points} exceeds the compute budget MAX_P = {MAX_P}")


def _register_probabilities(u: float, values, points: int, kernel=_dirichlet_kernel):
    """Probabilities of the given register values for weight fraction u.

    values is an array with the default kernel, one int with _kernel_at.
    """
    omega = 2.0 * math.asin(math.sqrt(u))
    xs = 2.0 * math.pi * values / points
    return 0.5 * (kernel(xs + omega, points) + kernel(xs - omega, points))


def phase_distribution(u: float, points: int) -> np.ndarray:
    """Exact register distribution for weight fraction u and P-point register."""
    if points < 2:
        raise ParameterError("register size must be >= 2")
    _check_register(points)
    if not 0.0 <= u <= 1.0:
        raise ParameterError(f"weight fraction {u} outside [0, 1]")
    import numpy as np

    return _register_probabilities(u, np.arange(points), points)


def counting_distribution(t: float, size: int, points: int) -> np.ndarray:
    """Distribution of the measured register value for a weight-t oracle.

    t may be fractional for promise-exact hypothesis studies; degenerate
    t in {0, N} is handled (single eigenbranch at phase 0 or pi).
    """
    if not 0 <= t <= size:
        raise ParameterError(f"weight {t} outside [0, {size}]")
    return phase_distribution(t / size, points)


def fold(f_tilde: int, points: int) -> int:
    """Map f~ > P/2 to P - f~, the estimator's fundamental domain."""
    return points - f_tilde if f_tilde > points / 2 else f_tilde


def estimate_weight(f_tilde: int, points: int, size: int) -> float:
    """Weight estimate N sin^2(f~ pi / P)."""
    return size * math.sin(f_tilde * math.pi / points) ** 2


def plan_check_weight(a, multiplier: int = 1) -> CountingPlan:
    """Plan to confirm a single hypothesis w = sin^2(pi/a).

    P = multiplier * a must be an integer; the hypothesis is accepted iff
    the measured value folds to multiplier.
    """
    frac = _as_fraction(a)
    if multiplier < 1:
        raise ParameterError("multiplier must be >= 1")
    p_exact = multiplier * frac
    if p_exact.denominator != 1:
        raise PlanningError(f"P = {multiplier} * {frac} is not an integer")
    points = int(p_exact)
    _check_register(points)
    hyp = Hypothesis(a=frac, weight=weight_of(frac), k=multiplier)
    return CountingPlan(P=points, hypotheses=(hyp,), total_oracle_calls=points - 1)


def plan_n_weights(a_list) -> CountingPlan:
    """Shared-register plan distinguishing one weight per divisor.

    The register size is the least P with P/a_i integral for every i,
    i.e. the lcm of the reduced numerators; outcome k_i = P/a_i.
    """
    fracs = [_as_fraction(a) for a in a_list]
    if not fracs:
        raise ParameterError("at least one weight is required")
    if len(set(fracs)) != len(fracs):
        raise PlanningError("duplicate weights cannot be distinguished")
    points = 1
    for frac in fracs:
        points = points * frac.numerator // math.gcd(points, frac.numerator)
    _check_register(points)
    hyps = tuple(
        Hypothesis(a=frac, weight=weight_of(frac), k=int(points / frac))
        for frac in fracs
    )
    return CountingPlan(P=points, hypotheses=hyps, total_oracle_calls=points - 1)


def comparison_pair(k: int) -> tuple[Fraction, Fraction]:
    """Angle divisors of the complementary pair decided by k iterations.

    w1 = sin^2(k pi / (4k+2)) and w2 = cos^2(k pi / (4k+2)) = its
    complement, i.e. divisors (4k+2)/k and (4k+2)/(k+1).
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    return Fraction(4 * k + 2, k), Fraction(4 * k + 2, k + 1)


def decide_by_counting(
    oracle: BooleanOracle, plan: CountingPlan, rng: np.random.Generator
) -> DecisionOutcome:
    """Sample the register, fold, and match the outcome to a hypothesis.

    A folded value matching no hypothesis signals a promise violation.
    """
    dist = counting_distribution(oracle.t, oracle.size, plan.P)
    f_tilde = int(rng.choice(plan.P, p=dist / dist.sum()))
    folded = fold(f_tilde, plan.P)
    for hyp in plan.hypotheses:
        if folded == min(hyp.k, plan.P - hyp.k):
            inferred = round_weight(hyp.weight, oracle.size)
            return DecisionOutcome(
                measured_x=folded,
                f_of_x=None,
                inferred_t=inferred,
                correct=inferred == oracle.t,
                oracle_calls=plan.total_oracle_calls,
            )
    raise PromiseViolationError(
        f"measured register value {f_tilde} (folded {folded}) matches no hypothesis"
    )


def hypothesis_success_probability(plan: CountingPlan, index: int) -> float:
    """Exact probability the decision names hypothesis `index` when it is true.

    Needs the fraction only, not an oracle: the register distribution
    depends on the weight fraction alone.
    """
    hyp = plan.hypotheses[index]
    target = min(hyp.k, plan.P - hyp.k)
    # The register values that fold to target: target itself and, unless
    # target = P/2, its mirror P - target (summed in ascending order).
    mass = _register_probabilities(hyp.weight, target, plan.P, _kernel_at)
    if target < plan.P / 2:
        mass += _register_probabilities(hyp.weight, plan.P - target, plan.P, _kernel_at)
    return mass


def cost_comparison(k: int) -> tuple[int, int, float]:
    """(weight-decision calls, counting calls, ratio) for the k-step pair.

    Weight decision spends k + 1 queries; counting the same pair needs a
    (4k+2)-point register, i.e. P - 1 = 4k + 1 sequential controlled
    iterations.  The ratio approaches 4.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    decision_calls = k + 1
    counting_calls = 4 * k + 1
    return decision_calls, counting_calls, counting_calls / decision_calls
