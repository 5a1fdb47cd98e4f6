"""Acceptance suite: every headline quantitative claim, checked at desk scale.

Each criterion is a standalone check returning pass/fail plus a one-line
detail; the CLI selftest and the pytest suite both route through here so
there is exactly one definition of "done".
"""
from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass

import numpy as np

from . import classical, counting, decision, subspace, sure_success
from .errors import ParameterError
from .oracle import make_random_oracle
from .statevector import measure_distribution, run_full_schedule
from .subspace import round_weight

# Published root table (six decimals): zeros of the non-solution-class
# amplitude on the first line of each k, solution-class zeros on the second.
ROOT_TABLE = {
    1: ([0.250000], [0.750000]),
    2: ([0.095492, 0.654508], [0.345492, 0.904508]),
    3: ([0.049516, 0.388740, 0.811745], [0.188255, 0.611260, 0.950484]),
    4: (
        [0.030154, 0.250000, 0.586824, 0.883022],
        [0.116978, 0.413176, 0.750000, 0.969846],
    ),
    5: (
        [0.020254, 0.172570, 0.428843, 0.707708, 0.920627],
        [0.079373, 0.292292, 0.571157, 0.827430, 0.979746],
    ),
    6: (
        [0.014529, 0.125745, 0.322698, 0.560268, 0.784032, 0.942728],
        [0.057272, 0.215968, 0.439732, 0.677302, 0.874255, 0.985471],
    ),
    7: (
        [0.010926, 0.095492, 0.250000, 0.447736, 0.654508, 0.834565, 0.956773],
        [0.043227, 0.165435, 0.345492, 0.552264, 0.750000, 0.904508, 0.989074],
    ),
    8: (
        [0.008513, 0.074891, 0.198683, 0.363169, 0.546134, 0.722869, 0.869504, 0.966236],
        [0.033764, 0.130496, 0.277131, 0.453866, 0.636831, 0.801317, 0.925109, 0.991487],
    ),
    9: (
        [0.006819, 0.060263, 0.161359, 0.299152, 0.458710, 0.622743, 0.773474, 0.894570, 0.972909],
        [0.027091, 0.105430, 0.226526, 0.377257, 0.541290, 0.700848, 0.838641, 0.939737, 0.993181],
    ),
    10: (
        [0.005585, 0.049516, 0.133474, 0.250000, 0.388740, 0.537365, 0.682671, 0.811745, 0.913119, 0.977786],
        [0.022214, 0.086881, 0.188255, 0.317329, 0.462635, 0.611260, 0.750000, 0.866526, 0.950484, 0.994415],
    ),
}


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  criterion {self.number}: {self.name} [{self.elapsed:.2f}s] {self.detail}"


def _criterion_1() -> tuple[bool, str]:
    """Root table reproduction through the CLI, 5e-7 tolerance, under 1 s."""
    from . import cli

    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for k, (a_expected, b_expected) in ROOT_TABLE.items():
        buf = io.StringIO()
        code = cli.run(["roots", "--k", str(k)], stdout=buf)
        if code != 0:
            return False, f"roots --k {k} exited {code}"
        rows = [r for r in csv.reader(io.StringIO(buf.getvalue())) if r and not r[0].startswith("#")]
        rows = rows[1:]  # header
        got = {"a": [], "b": []}
        for row in rows:
            got[row[1]].append(float(row[3]))
        for expected, actual in ((a_expected, got["a"]), (b_expected, got["b"])):
            if len(expected) != len(actual):
                return False, f"k={k}: expected {len(expected)} roots, got {len(actual)}"
            for e, a in zip(expected, sorted(actual)):
                worst = max(worst, abs(e - a))
                checked += 1
    elapsed = time.perf_counter() - start
    ok = worst < 5e-7 and elapsed < 1.0 and checked == 110
    return ok, f"{checked} roots, max dev {worst:.2e}, {elapsed:.3f}s"


def _criterion_2() -> tuple[bool, str]:
    """State-vector vs subspace backends agree to TV < 1e-9 on random runs."""
    rng = np.random.default_rng(20260809)
    start = time.perf_counter()
    worst = 0.0
    for case in range(200):
        n = int(rng.integers(1, 11))
        size = 1 << n
        t = int(rng.integers(1, size))
        oracle = make_random_oracle(n, t, seed=int(rng.integers(2**31)))
        steps = tuple(
            (float(th), float(ph))
            for th, ph in rng.uniform(-math.pi, math.pi, size=(int(rng.integers(0, 51)), 2))
        )
        schedule = subspace.PhaseSchedule(steps)
        sv_dist = measure_distribution(run_full_schedule(oracle, schedule))
        p_zero, p_one = decision.class_probabilities(t / size, schedule)
        induced = np.empty(size)
        induced[oracle.zeros] = p_zero / (size - t)
        induced[oracle.ones] = p_one / t
        worst = max(worst, 0.5 * float(np.abs(sv_dist - induced).sum()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 30.0
    return ok, f"200 cases, max TV {worst:.2e}, {elapsed:.1f}s"


def _criterion_3() -> tuple[bool, str]:
    """Quarter-weight discrimination is exact on the full support."""
    worst = 0.0
    for n in range(2, 9):
        size = 1 << n
        for t in (size // 4, 3 * size // 4):
            oracle = make_random_oracle(n, t, seed=7 * n + t)
            probs = measure_distribution(run_full_schedule(oracle, subspace.PhaseSchedule.standard(1)))
            # correct inference: f(x)=1 support for t=N/4, f(x)=0 for 3N/4
            good = oracle.ones if t == size // 4 else oracle.zeros
            worst = max(worst, 1.0 - float(probs[good].sum()))
    return worst <= 1e-12, f"max wrong-class mass {worst:.2e}"


def _criterion_4() -> tuple[bool, str]:
    """Exact success beats the 1 - 64(k+1)^2/N^2 bound on every pair."""
    start = time.perf_counter()
    margin = math.inf
    for n in (10, 12, 14, 16):
        size = 1 << n
        for k in range(1, 11):
            pair = decision.PromisePair.for_iterations(k, size)
            bound = decision.theorem_bound(k, size)
            for t in pair.weights():
                margin = min(margin, decision.exact_success_probability(k, t, size) - bound)
    elapsed = time.perf_counter() - start
    ok = margin >= 0.0 and elapsed < 5.0
    return ok, f"min (exact - bound) {margin:.3e}, {elapsed:.2f}s"


def _criterion_5() -> tuple[bool, str]:
    """Sure-success certainty across every feasible pair up to n = 10."""
    start = time.perf_counter()
    worst = 1.0
    cases = 0
    for n in range(4, 11):
        size = 1 << n
        for t in range(1, size // 2):
            plan = sure_success.plan_for_weight(t / size)
            report = sure_success.hypothesis_report(plan, t / size, (size - t) / size)
            for _, p_correct in report:
                worst = min(worst, p_correct)
            cases += 1
    boundary_dev = 0.0
    for k in range(2, 11):
        plan = sure_success.plan_for_weight(subspace.mu(k))
        boundary_dev = max(
            boundary_dev,
            abs(abs(plan.theta1) - math.pi),
            abs(abs(plan.theta2) - math.pi),
        )
    elapsed = time.perf_counter() - start
    ok = worst >= 1.0 - 1e-9 and boundary_dev < 1e-9 and elapsed < 120.0
    return ok, (
        f"{cases} pairs, min correct-prob {worst:.12f}, "
        f"boundary |theta - pi| max {boundary_dev:.1e}, {elapsed:.1f}s"
    )


def _criterion_6() -> tuple[bool, str]:
    """Cross-point inequalities on 1000-point brackets; even k reported only."""
    odd_ok = True
    for k in (3, 5, 7, 9):
        lo, hi = sure_success.bracket(k)
        betas = np.linspace(lo, hi, 1001)[1:]
        for beta in betas:
            if not sure_success.verify_no_cross(k, float(beta)):
                odd_ok = False
            if not sure_success.verify_first_cross(k, float(beta)):
                odd_ok = False
    even_report = []
    for k in (4, 6, 8, 10):
        lo, hi = sure_success.bracket(k)
        betas = np.linspace(lo, hi, 1001)[1:]
        holds = all(
            all(sure_success.even_k_cross_analogues(k, float(beta))) for beta in betas
        )
        even_report.append(f"k={k}:{'holds' if holds else 'fails'}")
    return odd_ok, f"odd k in {{3,5,7,9}} asserted; even-k analogue empirical: {', '.join(even_report)}"


def _criterion_7() -> tuple[bool, str]:
    """Majority-vote regimes: g = k, k^2 and k^3 behave as proved."""
    start = time.perf_counter()
    e_linear = classical.error_probability(101, 101)
    e_quad = classical.error_probability(201, 201**2)
    e_cubic = classical.error_probability(11, 11**3)
    phi = 0.5 * math.erfc(math.pi / 4.0 / math.sqrt(2.0))
    elapsed = time.perf_counter() - start
    ok = (
        0.45 < e_linear < 0.55
        and abs(e_quad - phi) < 0.02
        and e_cubic < 0.01
        and elapsed < 10.0
    )
    return ok, (
        f"E(101,101)={e_linear:.4f}, E(201,201^2)={e_quad:.4f} (limit {phi:.4f}), "
        f"E(11,11^3)={e_cubic:.2e}, {elapsed:.2f}s"
    )


def _criterion_8() -> tuple[bool, str]:
    """Counting support law at integral phase points plus the k=2 comparison."""
    triples = []
    for size in (16, 64, 256, 1024, 4096):
        for mult in (1, 2, 3, 4):
            triples.append((size // 2, size, 4 * mult))
            triples.append((size // 4, size, 6 * mult))
            triples.append((3 * size // 4, size, 6 * mult))
    triples = triples[:50]
    min_mass = 1.0
    for t, size, points in triples:
        dist = counting.counting_distribution(t, size, points)
        beta = math.asin(math.sqrt(t / size))
        f = round(points * beta / math.pi)
        mass = float(dist[f % points])
        if (points - f) % points != f % points:
            mass += float(dist[(points - f) % points])
        min_mass = min(min_mass, mass)
        est = counting.estimate_weight(f, points, size)
        if round(est) != t or abs(est - t) > 1e-6:
            return False, f"estimator returned {est} for t={t}"
    a1, a2 = counting.comparison_pair(2)
    plan = counting.plan_n_weights([a1, a2])
    p0 = counting.hypothesis_success_probability(plan, 0)
    p1 = counting.hypothesis_success_probability(plan, 1)
    calls = counting.cost_comparison(2)
    ok = (
        len(triples) == 50
        and min_mass >= 1.0 - 1e-9
        and plan.P == 10
        and {h.k for h in plan.hypotheses} == {2, 3}
        and p0 >= 1.0 - 1e-9
        and p1 >= 1.0 - 1e-9
        and calls[:2] == (3, 9)
    )
    return ok, (
        f"50 triples, min support mass {min_mass:.12f}; k=2 pair P={plan.P}, "
        f"success ({p0:.6f}, {p1:.6f}), calls {calls[:2]}"
    )


def _criterion_9() -> tuple[bool, str]:
    """Headline comparison at k = 51: quantum near-certain, classical near-coin."""
    k, n = 51, 20
    size = 1 << n
    pair = decision.PromisePair.for_iterations(k, size)
    q_small = decision.exact_success_probability(k, pair.t_small, size)
    q_big = decision.exact_success_probability(k, pair.t_big, size)
    classical_success = 1.0 - classical.error_probability(k, k)
    ok = q_small >= 0.999 and q_big >= 0.999 and classical_success <= 0.55
    return ok, (
        f"quantum at {k + 1} calls: ({q_small:.6f}, {q_big:.6f}); "
        f"classical at {k} calls: {classical_success:.4f}"
    )


CRITERIA = {
    1: ("root table reproduction", _criterion_1),
    2: ("backend equivalence", _criterion_2),
    3: ("quarter-weight exactness", _criterion_3),
    4: ("success-probability bound", _criterion_4),
    5: ("sure-success certainty", _criterion_5),
    6: ("cross-point inequalities", _criterion_6),
    7: ("classical vote regimes", _criterion_7),
    8: ("counting support law", _criterion_8),
    9: ("quadratic speed-up narrative", _criterion_9),
}


def run_criterion(number: int) -> CriterionResult:
    name, func = CRITERIA[number]
    start = time.perf_counter()
    try:
        passed, detail = func()
    except Exception as exc:  # a crashed criterion is a failed criterion
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    return CriterionResult(
        number=number,
        name=name,
        passed=passed,
        detail=detail,
        elapsed=time.perf_counter() - start,
    )


def run_all(numbers=None) -> list[CriterionResult]:
    numbers = sorted(CRITERIA) if numbers is None else list(numbers)
    unknown = sorted(set(numbers) - CRITERIA.keys())
    if unknown:
        raise ParameterError(f"unknown criteria {unknown}; choose from {sorted(CRITERIA)}")
    return [run_criterion(number) for number in numbers]
