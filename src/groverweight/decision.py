"""Randomized weight decision by repeated Grover iterations.

Implements the one-shot N/4 vs 3N/4 discriminator and its k-iteration
generalization for the promise pair (round(mu_k * N), round((1-mu_k) * N)),
including the parity-based inference rule and the exact success
probability; every class probability comes from `class_probabilities`.

Oracle-call accounting: reported counts include the single classical
verification query f(x_hat) on top of the k phase queries, so a k-iteration
run costs k + 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import subspace
from .errors import ParameterError, PromiseViolationError
from .oracle import BooleanOracle, round_weight
from .statevector import measure_distribution, run_full_schedule

SUPPORT_TOL = 1e-12


@dataclass(frozen=True)
class DecisionOutcome:
    """Result of one decision run: measurement, inference and cost."""

    measured_x: int
    f_of_x: int | None
    inferred_t: int
    correct: bool
    oracle_calls: int


@dataclass(frozen=True)
class PromisePair:
    """The two promised weights decidable with k standard iterations."""

    size: int
    t_small: int
    t_big: int
    k: int

    @classmethod
    def for_iterations(cls, k: int, size: int) -> "PromisePair":
        if k < 1:
            raise ParameterError("k must be >= 1")
        m = subspace.mu(k)
        t_small = round_weight(m, size)
        t_big = round_weight(1.0 - m, size)
        if not 0 < t_small < t_big < size:
            raise ParameterError(
                f"promise pair degenerate at N = {size}, k = {k}: ({t_small}, {t_big})"
            )
        return cls(size=size, t_small=t_small, t_big=t_big, k=k)

    def weights(self) -> tuple[int, int]:
        return self.t_small, self.t_big


def small_bit(k: int) -> int:
    """Step-11 parity rule: the verified bit f(x_hat) that names the smaller weight.

    After k standard iterations the smaller weight of the promise pair has
    its mass in the solution class for odd k and in the non-solution class
    for even k; the other bit names the bigger weight.
    """
    return k % 2


def infer_from_bit(k: int, f_bit: int, t_small: int, t_big: int) -> int:
    """Map the verified bit f(x_hat) after k iterations to a weight."""
    return t_small if f_bit == small_bit(k) else t_big


def correct_probability(k: int, small: bool, p_zero: float, p_one: float) -> float:
    """Probability that the verified bit names the true hypothesis.

    p_zero and p_one are the final f = 0 and f = 1 outcome probabilities;
    small says whether the true weight is the smaller of the pair.
    """
    names_small_on_one = small_bit(k) == 1
    return p_one if names_small_on_one == small else p_zero


def class_probabilities(u: float, schedule: subspace.PhaseSchedule) -> tuple[float, float]:
    """(P(f=0 outcome), P(f=1 outcome)) after a phase schedule at weight fraction u.

    p_zero is taken as 1 - p_one so the pair sums to one exactly; after
    standard iterations p_one is exactly 0 at u = 0 and 1 at u = 1.
    """
    p_one = abs(subspace.evolve(u, schedule)[1]) ** 2
    return 1.0 - p_one, p_one


def _sample_outcome(oracle: BooleanOracle, p_sol: float, rng: np.random.Generator) -> tuple[int, int]:
    """Draw x_hat: Bernoulli on the class, then uniform within the class.

    At t in {0, N} one class is empty; rounding can leave it an ulp of
    probability, so the other class is taken (the Bernoulli draw is still
    made, keeping the random stream as for any other weight).
    """
    in_solution = rng.random() < p_sol
    if not 0 < oracle.t < oracle.size:
        in_solution = oracle.t > 0
    pool = oracle.ones if in_solution else oracle.zeros
    x_hat = int(pool[rng.integers(len(pool))])
    return x_hat, int(in_solution)


def distinguish_quarter(oracle: BooleanOracle, rng: np.random.Generator | None = None) -> DecisionOutcome:
    """One-iteration discrimination of weights N/4 vs 3N/4.

    At the promised weights one entire class has zero amplitude, so the
    single verified bit f(x_hat) decides with certainty.  A final
    distribution with support in both classes contradicts both
    hypotheses and raises.
    """
    size = oracle.size
    if size % 4 != 0:
        raise ParameterError("domain size must be divisible by 4")
    rng = np.random.default_rng() if rng is None else rng
    sv = run_full_schedule(oracle, subspace.PhaseSchedule.standard(1))
    probs = measure_distribution(sv)
    mass_zero = float(probs[oracle.zeros].sum()) if len(oracle.zeros) else 0.0
    mass_one = float(probs[oracle.ones].sum()) if len(oracle.ones) else 0.0
    if mass_zero > SUPPORT_TOL and mass_one > SUPPORT_TOL:
        raise PromiseViolationError(
            "measurement support spans both classes; weight is neither N/4 nor 3N/4"
        )
    x_hat = int(rng.choice(size, p=probs / probs.sum()))
    f_bit = oracle.value(x_hat)
    inferred = infer_from_bit(1, f_bit, size // 4, 3 * size // 4)
    return DecisionOutcome(
        measured_x=x_hat,
        f_of_x=f_bit,
        inferred_t=inferred,
        correct=inferred == oracle.t,
        oracle_calls=2,
    )


def run_and_infer(
    oracle: BooleanOracle,
    schedule: subspace.PhaseSchedule,
    t_small: int,
    t_big: int,
    rng: np.random.Generator,
) -> DecisionOutcome:
    """Run a k-step schedule, measure once, verify one bit, infer by parity.

    The one decision path of the randomized and sure-success algorithms;
    the measurement is sampled from the exact class probabilities at the
    oracle's own weight, and the run costs k phase queries plus f(x_hat).
    """
    k = len(schedule)
    _, p_sol = class_probabilities(oracle.t / oracle.size, schedule)
    x_hat, f_bit = _sample_outcome(oracle, p_sol, rng)
    inferred = infer_from_bit(k, f_bit, t_small, t_big)
    return DecisionOutcome(
        measured_x=x_hat,
        f_of_x=f_bit,
        inferred_t=inferred,
        correct=inferred == oracle.t,
        oracle_calls=k + 1,
    )


def randomized_weight_decision(
    oracle: BooleanOracle, k: int, rng: np.random.Generator
) -> DecisionOutcome:
    """k standard iterations, one sampled measurement, one verified bit.

    The inference rule is total, so an off-promise oracle still yields an
    answer, with correct=False.
    """
    pair = PromisePair.for_iterations(k, oracle.size)
    return run_and_infer(oracle, subspace.PhaseSchedule.standard(k), pair.t_small, pair.t_big, rng)


def exact_success_probability(k: int, t: int, size: int) -> float:
    """Probability that the parity rule names the true weight; no sampling.

    O(1) in k: the k standard iterations are one closed-form rotation of
    the invariant plane.
    """
    pair = PromisePair.for_iterations(k, size)
    if t not in pair.weights():
        raise ParameterError(f"weight {t} is not one of the promised pair {pair.weights()}")
    p_zero, p_one = class_probabilities(t / size, subspace.PhaseSchedule.standard(k))
    return correct_probability(k, t == pair.t_small, p_zero, p_one)


def theorem_bound(k: int, size: int) -> float:
    """Guaranteed success lower bound 1 - 64 (k+1)^2 / N^2."""
    return 1.0 - 64.0 * (k + 1) ** 2 / size**2


def empirical_success_count(
    oracle: BooleanOracle,
    k: int,
    trials: int,
    rng: np.random.Generator,
) -> int:
    """Correct inferences over independent runs of the randomized decision.

    Only the measured class determines the inference, so each run is
    correct with the exact probability of the right class and the count
    is one Binomial(trials, p) draw.  An oracle off the promise pair is
    never inferred correctly and scores 0.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    pair = PromisePair.for_iterations(k, oracle.size)
    if oracle.t not in pair.weights():
        return 0
    p_zero, p_one = class_probabilities(oracle.t / oracle.size, subspace.PhaseSchedule.standard(k))
    p = correct_probability(k, oracle.t == pair.t_small, p_zero, p_one)
    return int(rng.binomial(trials, p))
