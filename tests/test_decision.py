import math

import numpy as np
import pytest

from groverweight import decision, statevector, subspace, sure_success
from groverweight.errors import ParameterError, PromiseViolationError
from groverweight.oracle import make_random_oracle, round_weight
from groverweight.subspace import PhaseSchedule


def statevector_success_probability(oracle, k):
    """Independent oracle: run the full state vector and apply the rule."""
    out = statevector.run_full_schedule(oracle, PhaseSchedule.standard(k))
    probs = statevector.measure_distribution(out)
    pair = decision.PromisePair.for_iterations(k, oracle.size)
    mass = 0.0
    for x in range(oracle.size):
        inferred = decision.infer_from_bit(k, oracle.value(x), pair.t_small, pair.t_big)
        if inferred == oracle.t:
            mass += probs[x]
    return mass


def test_promise_pair_formulas():
    pair = decision.PromisePair.for_iterations(3, 1 << 10)
    assert pair.t_small == round_weight(subspace.mu(3), 1 << 10)
    assert pair.t_big == round_weight(1 - subspace.mu(3), 1 << 10)
    assert pair.t_small < pair.t_big


def test_distinguish_quarter_small_cases():
    rng = np.random.default_rng(0)
    for t, expect_bit in ((1, 1), (3, 0)):
        orc = make_random_oracle(2, t, seed=5)
        for _ in range(20):
            out = decision.distinguish_quarter(orc, rng)
            assert out.f_of_x == expect_bit
            assert out.inferred_t == t
            assert out.correct
            assert out.oracle_calls == 2


def test_distinguish_quarter_support_is_single_class():
    # n = 4, t = 4: every measurement support point gives the right answer
    orc = make_random_oracle(4, 4, seed=1)
    dist = statevector.measure_distribution(
        statevector.run_full_schedule(orc, PhaseSchedule.standard(1))
    )
    support = np.flatnonzero(dist > 1e-12)
    assert all(orc.value(int(x)) == 1 for x in support)
    rng = np.random.default_rng(9)
    for _ in range(10):
        assert decision.distinguish_quarter(orc, rng).inferred_t == 4


def test_distinguish_quarter_flags_promise_violation():
    orc = make_random_oracle(4, 7, seed=0)
    with pytest.raises(PromiseViolationError):
        decision.distinguish_quarter(orc, np.random.default_rng(0))


def test_randomized_decision_exact_at_integral_roots():
    rng = np.random.default_rng(1)
    for t in (1, 3):
        orc = make_random_oracle(2, t, seed=2)
        for _ in range(25):
            out = decision.randomized_weight_decision(orc, 1, rng)
            assert out.inferred_t == t and out.correct
            assert out.oracle_calls == 2


def test_randomized_decision_parameter_checks():
    orc = make_random_oracle(4, 4, seed=0)
    with pytest.raises(ParameterError):
        decision.randomized_weight_decision(orc, 0, np.random.default_rng(0))


def test_exact_probability_matches_statevector_rule():
    for n, k in ((6, 2), (7, 3), (8, 1), (6, 4)):
        size = 1 << n
        pair = decision.PromisePair.for_iterations(k, size)
        for t in pair.weights():
            orc = make_random_oracle(n, t, seed=n * k + t)
            exact = decision.exact_success_probability(k, t, size)
            assert exact == pytest.approx(statevector_success_probability(orc, k), abs=1e-12)


def test_exact_probability_reaches_one_at_exact_roots():
    # mu_1 N integral: both promised weights decided with certainty
    assert decision.exact_success_probability(1, 4, 16) == pytest.approx(1.0)
    assert decision.exact_success_probability(1, 12, 16) == pytest.approx(1.0)


def test_exact_probability_requires_promised_weight():
    with pytest.raises(ParameterError):
        decision.exact_success_probability(2, 100, 1 << 10)


def test_success_bound_holds_across_sizes_and_iterations():
    for n in range(8, 17, 2):
        size = 1 << n
        for k in range(1, 11):
            pair = decision.PromisePair.for_iterations(k, size)
            bound = decision.theorem_bound(k, size)
            for t in pair.weights():
                assert decision.exact_success_probability(k, t, size) >= bound


def test_empirical_rate_agrees_with_exact():
    n, k = 12, 5
    size = 1 << n
    t = round_weight(subspace.mu(k), size)
    orc = make_random_oracle(n, t, seed=4)
    exact = decision.exact_success_probability(k, t, size)
    trials = 100_000
    rate = decision.empirical_success_count(orc, k, trials, np.random.default_rng(99)) / trials
    sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / trials)
    assert abs(rate - exact) <= 4 * sigma + 1e-9
    assert rate >= decision.theorem_bound(k, size) - 4 * sigma


def test_oracle_call_count_includes_verification_query():
    orc = make_random_oracle(6, decision.PromisePair.for_iterations(3, 64).t_small, seed=8)
    out = decision.randomized_weight_decision(orc, 3, np.random.default_rng(0))
    assert out.oracle_calls == 4


def test_both_algorithms_share_one_seeded_decision_path():
    # (measured_x, f_of_x, inferred_t, oracle_calls) from one seeded stream,
    # pinned from 0.5.0: sharing run_and_infer moves no seeded outcome
    rng = np.random.default_rng(12)
    got = []
    for n, k in ((4, 2), (8, 3), (10, 5)):
        for t in decision.PromisePair.for_iterations(k, 1 << n).weights():
            o = decision.randomized_weight_decision(make_random_oracle(n, t, seed=3), k, rng)
            got.append((o.measured_x, o.f_of_x, o.inferred_t, o.oracle_calls))
    for n, t, w in ((6, 21, 1 / 3), (6, 43, 1 / 3), (5, 11, 0.3)):
        o = sure_success.sure_success_decide(make_random_oracle(n, t, seed=4), w, rng)
        got.append((o.measured_x, o.f_of_x, o.inferred_t, o.oracle_calls))
    assert got == [
        (15, 0, 6, 3), (15, 1, 10, 3), (146, 1, 100, 4), (91, 0, 156, 4), (703, 1, 439, 6),
        (119, 0, 585, 6), (51, 0, 21, 3), (0, 1, 43, 3), (22, 0, 10, 3),
    ]


def recurrence_success_probability(k, t, size):
    """Independent reference: the O(k) amplitude recurrence and the parity rule."""
    pair = decision.PromisePair.for_iterations(k, size)
    a, b = subspace.recurrence_amplitudes(k, t / size)
    p_zero, p_one = (size - t) * a * a / size, t * b * b / size
    return decision.correct_probability(k, t == pair.t_small, p_zero, p_one)


def test_exact_probability_matches_recurrence_and_bound_at_large_sizes():
    ks = sorted({int(k) for k in np.geomspace(1, 1000, 25)})
    for n in range(20, 31):
        size = 1 << n
        for k in ks:
            pair = decision.PromisePair.for_iterations(k, size)
            bound = decision.theorem_bound(k, size)
            for t in pair.weights():
                exact = decision.exact_success_probability(k, t, size)
                assert exact >= bound, (n, k, t)
                assert abs(exact - recurrence_success_probability(k, t, size)) <= 1e-12, (n, k, t)


def test_exact_probability_meets_bound_at_the_three_quarter_root():
    # the closed form of the recurrence missed this bound by two ulps
    size = 1 << 30
    exact = decision.exact_success_probability(1, 3 * size // 4, size)
    assert exact >= decision.theorem_bound(1, size) == 0.9999999999999998
    assert exact == 1.0


def test_exact_probability_makes_no_o_k_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("O(k) recurrence called")

    monkeypatch.setattr(subspace, "recurrence_amplitudes", refuse)
    k, size = 10**6, 1 << 30
    pair = decision.PromisePair.for_iterations(k, size)
    for t in pair.weights():
        assert decision.exact_success_probability(k, t, size) >= decision.theorem_bound(k, size)


@pytest.mark.parametrize("t", [0, 1 << 6])
def test_constant_oracles_run_off_the_promise_pair(t):
    orc = make_random_oracle(6, t, seed=1)
    rng = np.random.default_rng(3)
    for k in (1, 2, 5):
        out = decision.randomized_weight_decision(orc, k, rng)
        assert out.f_of_x == (1 if t else 0) and not out.correct
        assert decision.empirical_success_count(orc, k, 1000, rng) == 0


class _FixedDraw:
    """Generator stand-in whose uniform draw is a fixed value."""

    def __init__(self, value):
        self.value = value
        self.rng = np.random.default_rng(0)

    def random(self):
        return self.value

    def integers(self, *args):
        return self.rng.integers(*args)


@pytest.mark.parametrize("t, p_sol, draw", [(8, 1.0 - 2.0**-53, 1.0 - 2.0**-53), (0, 2.0**-1074, 0.0)])
def test_sample_outcome_never_draws_from_the_empty_class(t, p_sol, draw):
    # A sure-success schedule can leave p_sol one ulp short of 1 at t = N,
    # and the uniform draw can land in that ulp; the empty class is not used.
    orc = make_random_oracle(3, t, seed=1)
    x_hat, f_bit = decision._sample_outcome(orc, p_sol, _FixedDraw(draw))
    assert f_bit == int(t > 0) == orc.value(x_hat)
