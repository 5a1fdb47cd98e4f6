import math
from fractions import Fraction

import numpy as np
import pytest

from groverweight import counting
from groverweight.errors import ParameterError, PlanningError, PromiseViolationError
from groverweight.oracle import make_random_oracle


def test_balanced_weight_four_point_register():
    dist = counting.counting_distribution(8, 16, 4)
    assert dist[1] == pytest.approx(0.5) and dist[3] == pytest.approx(0.5)
    assert dist[0] == pytest.approx(0.0, abs=1e-12)
    assert dist[2] == pytest.approx(0.0, abs=1e-12)


def test_fractional_weight_hits_exact_bins():
    # sin^2(beta_H) = sin^2(pi/5): ten-point register peaks at {2, 8}
    size = 1 << 10
    t = size * math.sin(math.pi / 5) ** 2
    dist = counting.counting_distribution(t, size, 10)
    assert dist[2] == pytest.approx(0.5, abs=1e-12)
    assert dist[8] == pytest.approx(0.5, abs=1e-12)


def test_distribution_normalized_on_grid():
    rng = np.random.default_rng(1)
    for _ in range(60):
        size = 1 << int(rng.integers(2, 17))
        points = int(rng.integers(2, 1 << 14))
        t = int(rng.integers(0, size + 1))
        dist = counting.counting_distribution(t, size, points)
        assert abs(dist.sum() - 1.0) < 1e-10


def test_distribution_symmetric_about_fold():
    rng = np.random.default_rng(4)
    for _ in range(30):
        size = 256
        t = int(rng.integers(1, size))
        points = int(rng.integers(3, 200))
        dist = counting.counting_distribution(t, size, points)
        for f in range(1, points):
            assert dist[f] == pytest.approx(dist[points - f], abs=1e-12)


def test_degenerate_weights():
    dist = counting.counting_distribution(0, 64, 9)
    assert dist[0] == pytest.approx(1.0)
    dist = counting.counting_distribution(64, 64, 8)
    assert dist[4] == pytest.approx(1.0)
    dist = counting.counting_distribution(64, 64, 7)  # odd register: phase pi spreads
    assert abs(dist.sum() - 1.0) < 1e-10


def test_spread_distribution_estimator_window():
    # non-integral phase: estimate lands within N*pi/P of t with prob >= 0.8
    rng = np.random.default_rng(9)
    for _ in range(40):
        size = 1 << int(rng.integers(4, 12))
        points = int(rng.integers(8, 300))
        t = int(rng.integers(1, size))
        dist = counting.counting_distribution(t, size, points)
        ests = np.array([counting.estimate_weight(f, points, size) for f in range(points)])
        in_window = np.abs(ests - t) <= size * math.pi / points
        assert dist[in_window].sum() >= 0.8


def test_plan_check_weight_examples():
    plan = counting.plan_check_weight(4)
    assert plan.P == 4 and plan.hypotheses[0].k == 1
    plan = counting.plan_check_weight(5)
    assert plan.P == 5 and plan.hypotheses[0].k == 1
    assert plan.hypotheses[0].weight == pytest.approx(math.sin(math.pi / 5) ** 2)
    plan = counting.plan_check_weight(6, multiplier=2)
    assert plan.P == 12 and plan.hypotheses[0].k == 2
    with pytest.raises(PlanningError):
        counting.plan_check_weight(Fraction(10, 3), multiplier=1)  # P = 10/3 not integral


def test_plan_two_weights_comparison_pair():
    a1, a2 = counting.comparison_pair(2)
    assert (a1, a2) == (Fraction(5), Fraction(10, 3))
    plan = counting.plan_n_weights([a1, a2])
    assert plan.P == 10
    assert [h.k for h in plan.hypotheses] == [2, 3]
    assert plan.total_oracle_calls == 9


def test_plan_two_weights_lcm_case():
    plan = counting.plan_n_weights([4, 6])
    assert plan.P == 12
    assert [h.k for h in plan.hypotheses] == [3, 2]
    with pytest.raises(PlanningError):
        counting.plan_n_weights([4, 4])


def test_plan_rejects_folded_collisions():
    # a = 4 and a = 4/3 name the same weight via supplementary angles
    with pytest.raises(PlanningError):
        counting.plan_n_weights([4, Fraction(4, 3)])


def test_plan_n_weights():
    plan = counting.plan_n_weights([4, 5, 10])
    assert plan.P == 20
    assert [h.k for h in plan.hypotheses] == [5, 4, 2]
    single = counting.plan_n_weights([7])
    assert single.P == 7 and single.hypotheses[0].k == 1
    with pytest.raises(PlanningError):
        counting.plan_n_weights([4, 5, 4])
    with pytest.raises(ParameterError):
        counting.plan_n_weights([])


def test_invalid_angle_divisors_rejected():
    with pytest.raises(ParameterError):
        counting.plan_check_weight(1)  # weight would be 0
    with pytest.raises(ParameterError):
        counting.plan_check_weight(2)  # weight would be 1
    with pytest.raises(ParameterError):
        counting.plan_check_weight(0.3)  # floats are not exact


def test_decide_balanced_oracle_always_right():
    orc = make_random_oracle(4, 8, seed=0)
    plan = counting.plan_check_weight(4)  # P = 4, balanced expects fold 1
    rng = np.random.default_rng(0)
    for _ in range(25):
        out = counting.decide_by_counting(orc, plan, rng)
        assert out.correct and out.inferred_t == 8
        assert out.oracle_calls == 3
        assert out.f_of_x is None


def test_decide_flags_off_promise_weight():
    # weight far from the hypothesis: most register values match nothing
    orc = make_random_oracle(4, 3, seed=1)
    plan = counting.plan_check_weight(4)
    rng = np.random.default_rng(5)
    saw_violation = False
    for _ in range(50):
        try:
            counting.decide_by_counting(orc, plan, rng)
        except PromiseViolationError:
            saw_violation = True
            break
    assert saw_violation


def test_hypothesis_success_probability_exact_pair():
    plan = counting.plan_n_weights(counting.comparison_pair(2))
    assert counting.hypothesis_success_probability(plan, 0) == pytest.approx(1.0, abs=1e-12)
    assert counting.hypothesis_success_probability(plan, 1) == pytest.approx(1.0, abs=1e-12)


def test_estimator_exact_on_integral_support():
    for size, points, t in ((64, 12, 16), (256, 8, 128), (1024, 9, 768)):
        dist = counting.counting_distribution(t, size, points)
        support = np.flatnonzero(dist > 1e-12)
        for f in support:
            est = counting.estimate_weight(int(f), points, size)
            assert round(est) == t and abs(est - t) < 1e-6


def test_cost_comparison_values():
    assert counting.cost_comparison(2) == (3, 9, 3.0)
    dec, cnt, ratio = counting.cost_comparison(10)
    assert (dec, cnt) == (11, 41)
    assert ratio == pytest.approx(41 / 11)
    assert counting.cost_comparison(10_000)[2] == pytest.approx(4.0, abs=1e-3)


def reference_success_probability(plan, index):
    """Sum the register mass of every value that folds to the target."""
    hyp = plan.hypotheses[index]
    dist = counting.phase_distribution(hyp.weight, plan.P)
    target = min(hyp.k, plan.P - hyp.k)
    mass = 0.0
    for f_tilde in range(plan.P):
        if counting.fold(f_tilde, plan.P) == target:
            mass += float(dist[f_tilde])
    return mass


def test_success_probability_equals_the_folding_loop():
    rng = np.random.default_rng(12)
    plans = [counting.plan_n_weights(counting.comparison_pair(k)) for k in (1, 2, 5, 40, 333)]
    for _ in range(40):
        points = int(rng.integers(5, 3000))
        outcomes = [1] + [int(x) + 2 for x in rng.choice((points + 1) // 2 - 2, 2, replace=False)]
        plans.append(counting.plan_n_weights([Fraction(points, f) for f in outcomes]))
    for plan in plans:
        for i in range(len(plan.hypotheses)):
            assert counting.hypothesis_success_probability(plan, i) == reference_success_probability(plan, i)


def test_register_budget_is_checked_before_any_register_array(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("register values built before the budget was checked")

    # counting imports numpy inside the functions that build arrays
    monkeypatch.setattr(np, "arange", refuse)
    with pytest.raises(ParameterError, match="MAX_P"):
        counting.phase_distribution(0.25, counting.MAX_P + 1)
    with pytest.raises(ParameterError, match="MAX_P"):
        counting.plan_n_weights([101, 103, 107, 109, 113])  # P = 13,710,311,357
    with pytest.raises(ParameterError, match="MAX_P"):
        counting.plan_check_weight(1001, multiplier=1000)
    assert counting.plan_check_weight(1000, multiplier=1000).P == counting.MAX_P
