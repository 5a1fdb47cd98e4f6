import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groverweight import statevector, subspace, sure_success
from groverweight.errors import (
    GeometryInfeasibleError,
    GroverWeightError,
    IndistinguishablePairError,
    ParameterError,
    PhaseSolutionFailureError,
)
from groverweight.oracle import make_random_oracle
from groverweight.subspace import PhaseSchedule


def test_select_k_examples():
    assert sure_success.select_k(0.3) == 2
    assert sure_success.select_k(math.sin(math.pi / 5) ** 2) == 2  # boundary inclusive
    assert sure_success.select_k(0.4) == 4
    assert sure_success.select_k(0.7) == 2  # mirrored through 1 - w
    with pytest.raises(IndistinguishablePairError):
        sure_success.select_k(0.5)
    with pytest.raises(ParameterError):
        sure_success.select_k(0.0)


def test_select_k_bracket_property():
    rng = np.random.default_rng(2)
    for w in rng.uniform(1e-4, 0.4999, 300):
        k = sure_success.select_k(float(w))
        assert k >= 2
        if k == 2:
            assert w <= subspace.mu(2)
        else:
            assert subspace.mu(k - 1) < w <= subspace.mu(k)


def reference_select_k(weights):
    """select_k by the walk k = 3, 4, ... (the loop it replaced), per weight.

    The walk is monotone in w, so one walk over the sorted fractions gives
    every weight the result of its own walk from k = 3.
    """
    out = {}
    k = 3
    for w in sorted(weights, key=lambda v: min(v, 1.0 - v)):
        w_min = min(w, 1.0 - w)
        if w_min <= subspace.mu(2):
            out[w] = 2
            continue
        while w_min > subspace.mu(k):
            k += 1
        out[w] = k
    return out


def test_select_k_equals_the_loop_on_a_log_sweep():
    gaps = np.geomspace(1e-7, 0.45, 400)
    weights = [0.5 - float(d) for d in gaps] + [0.5 + float(d) for d in gaps[::7]]
    for w, k in reference_select_k(weights).items():
        assert sure_success.select_k(w) == k, w


def test_select_k_equals_the_loop_at_every_boundary():
    weights = []
    for k in range(1, 2001):
        mu = subspace.mu(k)
        weights += [math.nextafter(mu, 0.0), mu, math.nextafter(mu, 1.0)]
    for w, k in reference_select_k(weights).items():
        assert sure_success.select_k(w) == k, w


def test_select_k_refuses_counts_beyond_max_k(monkeypatch):
    calls = []
    real_mu = subspace.mu
    monkeypatch.setattr(subspace, "mu", lambda k: calls.append(k) or real_mu(k))
    for w in (0.5 - 1e-8, 0.5 + 1e-9, 0.5 - 1e-12, math.nextafter(0.5, 0.0)):
        calls.clear()
        with pytest.raises(ParameterError, match="MAX_K"):
            sure_success.select_k(w)
        assert calls == [2]  # refused before the fix-up compares any mu_k


def test_near_half_weights_plan_or_fail_mapped(monkeypatch):
    calls = []
    real_mu = subspace.mu
    monkeypatch.setattr(subspace, "mu", lambda k: calls.append(k) or real_mu(k))
    for gap in (1e-5, 1e-6, 1e-7, 5e-8, 2e-8, 1e-9, 1e-12):
        needs = math.pi / (8 * gap)  # k with mu_k = 1/2 - gap, to leading order
        for w in (0.5 - gap, 0.5 + gap):
            calls.clear()
            try:
                plan = sure_success.plan_for_weight(w)
            except GroverWeightError as exc:
                assert isinstance(exc, ParameterError) and needs > sure_success.MAX_K, (w, exc)
                continue
            assert needs <= sure_success.MAX_K
            assert plan.k <= sure_success.MAX_K
            assert len(calls) <= 5  # closed-form estimate, then a fix-up of at most a few steps
            w_small = min(w, 1.0 - w)
            for _, p_correct in sure_success.hypothesis_report(plan, w_small, 1.0 - w_small):
                assert p_correct >= 1 - 1e-9


def test_sure_success_schedule_stores_two_explicit_steps():
    plan = sure_success.plan_for_weight(0.4999)
    schedule = plan.schedule
    assert len(schedule) == plan.k and schedule.prefix == plan.k - 2
    assert schedule.steps == ((-plan.theta1, math.pi), (-plan.theta2, math.pi))
    assert list(schedule) == [(math.pi, math.pi)] * (plan.k - 2) + list(schedule.steps)


def test_cross_point_boundary_lies_in_xz_plane():
    point = sure_success.cross_point(2, 2 * math.pi / 5)
    assert point.y == pytest.approx(0.0, abs=1e-7)
    assert point.x == pytest.approx(-0.5877852522924731, abs=1e-12)
    assert point.z == pytest.approx(0.8090169943749475, abs=1e-12)
    assert point.norm() == pytest.approx(1.0, abs=1e-10)


def test_cross_point_unit_norm_across_brackets():
    rng = np.random.default_rng(3)
    for k in range(2, 9):
        lo, hi = sure_success.bracket(k)
        lo = 1e-3 if k == 2 else lo  # k = 2 serves every fraction below mu_2
        for beta in rng.uniform(lo + 1e-9, hi, 50):
            point = sure_success.cross_point(k, float(beta))
            assert point.norm() == pytest.approx(1.0, abs=1e-10)
            assert point.y >= 0.0


def test_cross_point_infeasible_off_bracket():
    # mirrored angle pi - beta lies outside the bracket; the formula leaves the sphere
    with pytest.raises(GeometryInfeasibleError):
        sure_success.cross_point(2, math.pi - 2 * math.pi / 5)


def test_theta1_boundary_is_pi_exactly():
    assert sure_success.solve_theta1(2, 2 * math.pi / 5) == pytest.approx(math.pi, abs=1e-12)


def test_theta1_rotation_lands_on_cross_point():
    # Rodrigues rotation is the independent check on the phase equation
    for k, w in ((2, 0.30), (4, 0.40), (3, math.sin(math.pi / 5) ** 2 + 0.02)):
        beta = 2 * math.asin(math.sqrt(w))
        theta1 = sure_success.solve_theta1(k, beta)
        target = sure_success.cross_point(k, beta)
        axis = np.array([math.sin(beta), 0.0, -math.cos(beta)])
        start = np.array(
            [-math.sin((2 * k - 3) * beta), 0.0, -math.cos((2 * k - 3) * beta)]
        )
        hits = []
        for signed in (theta1, -theta1):
            rotated = sure_success.rotate(start, axis, signed)
            hits.append(np.allclose(rotated, [target.x, target.y, target.z], atol=1e-9))
        assert any(hits)


def test_theta2_boundary_is_pi_exactly():
    # w = mu_2 puts the k = 2 cross point at y = 0 (beta = 2 pi / 5).
    plan = sure_success.plan_for_weight(subspace.mu(2))
    assert plan.k == 2
    assert abs(abs(plan.theta2) - math.pi) < 1e-12


def test_plan_certainty_for_spec_scale_cases():
    for w in (0.30, 0.40, 0.25, 11 / 32, 0.47):
        plan = sure_success.plan_for_weight(w)
        report = sure_success.hypothesis_report(plan, min(w, 1 - w), max(w, 1 - w))
        for z, p_correct in report:
            assert p_correct >= 1 - 1e-9
            assert abs(abs(z) - 1.0) < 1e-9


def test_plan_shares_one_phase_pair_for_both_hypotheses():
    plan = sure_success.plan_for_weight(0.3)
    schedule = plan.schedule
    assert len(schedule) == plan.k
    assert schedule.steps[-2] == (-plan.theta1, math.pi)
    assert schedule.steps[-1] == (-plan.theta2, math.pi)
    # both runs consume the same schedule object; final poles are opposite
    small = subspace.evolve(0.3, schedule)
    big = subspace.evolve(0.7, schedule)
    assert abs(small[0]) ** 2 == pytest.approx(1.0, abs=1e-9)  # even k: non-solution pole
    assert abs(big[1]) ** 2 == pytest.approx(1.0, abs=1e-9)


def test_boundary_weights_degenerate_to_standard_grover():
    for k in range(2, 11):
        plan = sure_success.plan_for_weight(subspace.mu(k))
        assert plan.k == k
        assert abs(abs(plan.theta1) - math.pi) < 1e-9
        assert abs(abs(plan.theta2) - math.pi) < 1e-9


def test_every_mu_k_plans_and_verifies():
    # the phase cosines' roundoff grows like k^2 eps; fixed tolerances failed from k = 626
    for k in range(2, 10_001):
        w = subspace.mu(k)
        plan = sure_success.plan_for_weight(w)
        assert plan.k == k
        for _, p_correct in sure_success.hypothesis_report(plan, w, 1.0 - w):
            assert p_correct >= 1 - 1e-9, k


def test_plan_refuses_a_branch_that_does_not_verify(monkeypatch):
    real = sure_success._solve_theta2
    monkeypatch.setattr(sure_success, "_solve_theta2", lambda *args: real(*args) + 0.5)
    with pytest.raises(PhaseSolutionFailureError):
        sure_success.plan_for_weight(0.3)


# The fraction nearest 1/2 that plans is mu(MAX_K); the gaps stay just outside it.
_MIN_GAP = 1.001 * (0.5 - subspace.mu(sure_success.MAX_K))
_GAPS = st.floats(math.log(_MIN_GAP), math.log(0.45)).map(math.exp)


def _ulp_neighbours(k):
    mu = subspace.mu(k)
    return st.sampled_from([math.nextafter(mu, 0.0), mu, math.nextafter(mu, 1.0)])


_WEIGHTS = st.one_of(
    st.floats(math.log(1e-300), math.log(0.45)).map(math.exp),  # toward 0
    _GAPS.map(lambda gap: 0.5 - gap),  # toward 1/2 from below
    _GAPS.map(lambda gap: 0.5 + gap),  # and from above
    st.integers(2, sure_success.MAX_K - 1).flatmap(_ulp_neighbours),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(w=_WEIGHTS)
@example(w=1e-17)  # |cos theta1| rounded to 1.39
@example(w=1e-16)  # the theta2 coefficients fell below a fixed 1e-15 guard
@example(w=5e-324)
def test_planner_property_every_weight_plans(w):
    plan = sure_success.plan_for_weight(w)
    assert 2 <= plan.k <= sure_success.MAX_K
    w_small = min(w, 1.0 - w)
    for _, p_correct in sure_success.hypothesis_report(plan, w_small, 1.0 - w_small):
        assert p_correct >= 1 - 1e-9


def test_plan_survives_theta2_degenerate_weight():
    # w with D = 0 exactly: the linear-form solver still verifies a branch
    w = math.sin(math.pi / 8) ** 2
    plan = sure_success.plan_for_weight(w)
    report = sure_success.hypothesis_report(plan, w, 1 - w)
    assert all(p >= 1 - 1e-9 for _, p in report)


def test_decide_statevector_support_both_hypotheses():
    # integral N*w: probability-1 inference via the full simulator's support
    size = 32
    w = 11 / 32
    plan = sure_success.plan_for_weight(w)
    for t, good_bit in ((11, 1 if plan.k % 2 else 0), (21, 0 if plan.k % 2 else 1)):
        orc = make_random_oracle(5, t, seed=t)
        out = statevector.run_full_schedule(orc, plan.schedule)
        dist = statevector.measure_distribution(out)
        support = np.flatnonzero(dist > 1e-12)
        assert all(orc.value(int(x)) == good_bit for x in support)


def test_decide_outcomes_correct_on_both_weights():
    rng = np.random.default_rng(8)
    expected_calls = sure_success.plan_for_weight(11 / 32).k + 1
    for t in (11, 21):
        orc = make_random_oracle(5, t, seed=t + 1)
        for _ in range(20):
            out = sure_success.sure_success_decide(orc, 11 / 32, rng)
            assert out.correct and out.inferred_t == t
            assert out.oracle_calls == expected_calls


def test_decide_with_redundant_small_plan():
    # w = 1/4 is decidable with one standard iteration; the k = 2 plan must also work
    rng = np.random.default_rng(21)
    orc = make_random_oracle(2, 1, seed=0)
    for _ in range(20):
        out = sure_success.sure_success_decide(orc, 0.25, rng)
        assert out.correct and out.inferred_t == 1


def test_no_cross_inequality_on_brackets():
    for k in (3, 5, 7, 9):
        lo, hi = sure_success.bracket(k)
        for beta in np.linspace(lo, hi, 102)[1:]:
            assert sure_success.verify_no_cross(k, float(beta))
            assert sure_success.verify_first_cross(k, float(beta))


def test_no_cross_negative_control_below_bracket():
    lo, _ = sure_success.bracket(3)
    assert not sure_success.verify_no_cross(3, lo - 0.1)


def test_first_cross_boundary_equality_allowed():
    for k in (3, 5, 9):
        _, hi = sure_success.bracket(k)
        assert sure_success.verify_first_cross(k, hi)


def test_cross_checks_reject_even_k():
    with pytest.raises(ParameterError):
        sure_success.verify_no_cross(4, 1.3)
    with pytest.raises(ParameterError):
        sure_success.even_k_cross_analogues(5, 1.3)


def test_even_k_analogues_hold_empirically():
    for k in (4, 6, 8, 10):
        lo, hi = sure_success.bracket(k)
        for beta in np.linspace(lo, hi, 102)[1:]:
            no_cross, first_cross = sure_success.even_k_cross_analogues(k, float(beta))
            assert no_cross and first_cross


def test_bloch_and_hilbert_paths_agree():
    rng = np.random.default_rng(31)
    for w in rng.uniform(0.02, 0.48, 25):
        w = float(w)
        plan = sure_success.plan_for_weight(w)
        for u in (w, 1 - w):
            beta = 2 * math.asin(math.sqrt(u))
            bloch_vec = sure_success.run_schedule_bloch(beta, plan.schedule)
            pair = subspace.evolve(u, plan.schedule)
            z_hilbert = abs(pair[1]) ** 2 - abs(pair[0]) ** 2
            assert bloch_vec[2] == pytest.approx(z_hilbert, abs=1e-9)
            assert np.linalg.norm(bloch_vec) == pytest.approx(1.0, abs=1e-9)
