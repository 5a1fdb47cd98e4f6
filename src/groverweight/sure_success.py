"""Probability-1 weight decision via phase-modified final two iterations.

For a promised fraction w the plan picks the iteration count k, keeps the
first k-2 iterations standard and replaces the last two with phases
(-theta1, pi) and (-theta2, pi).  theta1 rotates the (k-2)-step state onto
the cross point where both hypotheses' rotation circles meet their target
lines; theta2 then sends the two hypotheses to opposite Bloch poles with
one shared phase pair.

The theta2 relation is implicit (theta2 appears on both sides), so it is
rewritten to the linear form A cos(theta2) + B sin(theta2) = C and solved
in closed form.  The one analytic (theta1, theta2) branch is accepted only
after the exact 2x2 simulation drives both hypotheses to opposite poles;
a branch that does not verify is an error, never a silent fallback.

Angles here are Bloch angles (twice the Hilbert half-angle).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import subspace
from .errors import (
    GeometryInfeasibleError,
    IndistinguishablePairError,
    InfeasiblePhaseError,
    ParameterError,
    PhaseSolutionFailureError,
)
from .decision import DecisionOutcome, class_probabilities, correct_probability, run_and_infer
from .decision import small_bit
from .subspace import BlochVector, PhaseSchedule, round_weight

if TYPE_CHECKING:
    import numpy as np

    from .oracle import BooleanOracle

POLE_TOL = 1e-9
# Floors of the phase-cosine tolerances; _cos_tolerance raises them with k.
COS_CLAMP = 1e-10
COS_SNAP = 5e-13
# Largest iteration count the planner accepts.  Beyond about 2e7 the
# double-precision phase equations stop having solutions (|cos theta1| > 1)
# even at generic w; select_k refuses larger counts before any loop.
MAX_K = 10**7


@dataclass(frozen=True)
class SureSuccessPlan:
    """Iteration count, final-two phases and the geometry they solve."""

    k: int
    theta1: float
    theta2: float

    @property
    def schedule(self) -> PhaseSchedule:
        return PhaseSchedule.sure_success(self.k, self.theta1, self.theta2)


def select_k(w: float) -> int:
    """Smallest usable iteration count for the promise pair (w, 1-w).

    k = 2 whenever min(w, 1-w) <= mu_2; otherwise the unique k with
    mu_{k-1} < min(w, 1-w) <= mu_k.  mu_k <= w_min is k/(2k+1) >=
    (2/pi) asin(sqrt(w_min)), solved for k in closed form; the estimate is
    then corrected by the same mu comparisons that define the bracket.
    Counts above MAX_K are refused before any loop runs.
    """
    if not 0.0 < w < 1.0:
        raise ParameterError(f"weight fraction must lie in (0, 1), got {w}")
    if w == 0.5:
        raise IndistinguishablePairError("w = 1/2 makes the two hypotheses identical")
    w_min = min(w, 1.0 - w)
    if w_min <= subspace.mu(2):
        return 2
    x = 2.0 / math.pi * math.asin(math.sqrt(w_min))
    gap = 1.0 - 2.0 * x
    if gap <= 0.0 or x / gap > MAX_K:
        raise ParameterError(
            f"w = {w!r} is too close to 1/2: it needs more than MAX_K = {MAX_K} iterations"
        )
    k = max(3, math.ceil(x / gap))
    while k > 3 and w_min <= subspace.mu(k - 1):
        k -= 1
    while w_min > subspace.mu(k):
        k += 1
    if k > MAX_K:
        raise ParameterError(
            f"w = {w!r} is too close to 1/2: it needs {k} > MAX_K = {MAX_K} iterations"
        )
    return k


def _cos_tolerance(k: int, floor: float) -> float:
    """Roundoff allowance of a phase cosine: its error grows like k^2 eps (2.64 k^2 eps seen)."""
    return max(floor, 4.0 * k * k * sys.float_info.epsilon)


def _snap_cos(value: float, k: int) -> float:
    """Clamp a cosine into [-1, 1] and absorb roundoff at the endpoints."""
    value = max(-1.0, min(1.0, value))
    if 1.0 - abs(value) < _cos_tolerance(k, COS_SNAP):
        return math.copysign(1.0, value)
    return value


def cross_point(k: int, beta: float) -> BlochVector:
    """Target of the first modified rotation, on the unit sphere.

    x and z follow the cross-point equations; y is fixed as the positive
    root of 1 - x^2 - z^2 (tiny negative radicands are clamped to zero).
    """
    sign = (-1.0) ** small_bit(k)
    x = (math.cos((2 * k - 2) * beta) - sign * math.cos(beta)) / (2.0 * math.sin(beta))
    z = (-math.cos((2 * k - 2) * beta) - sign * math.cos(beta)) / (2.0 * math.cos(beta))
    radicand = 1.0 - x * x - z * z
    if radicand < -1e-12:
        raise GeometryInfeasibleError(
            f"cross point leaves the sphere (radicand {radicand:.3e}); k and beta mismatch"
        )
    return BlochVector(x=x, y=math.sqrt(max(radicand, 0.0)), z=z)


def solve_theta1(k: int, beta: float) -> float:
    """First modified diffusion phase, in [0, pi].

    As beta -> 0 the numerator cancels to order beta^2, which adds about
    eps/|den| of rounding (|cos theta1| = 1.39 at w = 1e-17).
    """
    sign = (-1.0) ** small_bit(k)
    num = sign * math.cos(beta) - math.cos(2 * beta) * math.cos((2 * k - 2) * beta)
    den = math.sin(2 * beta) * math.sin((2 * k - 2) * beta)
    value = num / den
    allowance = max(_cos_tolerance(k, COS_CLAMP), 4.0 * sys.float_info.epsilon / abs(den))
    if abs(value) > 1.0 + allowance:
        raise InfeasiblePhaseError(f"|cos theta1| = {abs(value):.6f} > 1 at k = {k}")
    return math.acos(_snap_cos(value, k))


def _solve_theta2(k: int, beta: float, theta1: float) -> float:
    """Closed-form solution of A cos(theta2) + B sin(theta2) = C."""
    sign = (-1.0) ** small_bit(k)
    y = math.sin(theta1) * math.sin((2 * k - 2) * beta)
    a = math.cos(beta) * math.cos(2 * beta) - sign * math.cos((2 * k - 2) * beta)
    b = -sign * y * math.sin(2 * beta)
    c = -math.sin(2 * beta) * math.sin(beta)
    r = math.hypot(a, b)
    if r == 0.0:  # only at tiny w, where both hypotheses already sit on their poles
        return math.pi
    return math.atan2(b, a) + math.acos(_snap_cos(c / r, k))


def plan_for_weight(w: float) -> SureSuccessPlan:
    """Solve the full plan for the promise pair (w, 1-w).

    One plan serves both hypotheses.  It is returned only if the exact
    simulation puts both on the pole whose verified bit names them, else
    the solve fails loudly.
    """
    k = select_k(w)
    w_small = min(w, 1.0 - w)
    beta = 2.0 * math.asin(math.sqrt(w_small))
    theta1 = solve_theta1(k, beta)
    plan = SureSuccessPlan(k=k, theta1=theta1, theta2=_solve_theta2(k, beta, theta1))
    if not all(p >= 1.0 - POLE_TOL for _, p in hypothesis_report(plan, w_small, 1.0 - w_small)):
        raise PhaseSolutionFailureError(f"phase branch does not verify for w = {w} (k = {k})")
    return plan


def hypothesis_report(plan: SureSuccessPlan, u_small: float, u_big: float):
    """(final Bloch z, correct-inference probability) per hypothesis.

    u_small and u_big are the actual weight fractions run, which may be
    rounded versions of the promised w; certainty then degrades to the
    reported probability instead of being overclaimed.
    """
    schedule = plan.schedule
    out = []
    for u, small in ((u_small, True), (u_big, False)):
        p_zero, p_one = class_probabilities(u, schedule)
        out.append((p_one - p_zero, correct_probability(plan.k, small, p_zero, p_one)))
    return out


def sure_success_decide(
    oracle: BooleanOracle, w: float, rng: np.random.Generator
) -> DecisionOutcome:
    """Run the plan against an oracle and infer max/min weight by parity.

    When N*w is an integer and the oracle weight matches a hypothesis the
    inference is certain; otherwise the sampled outcome follows the exact
    final distribution at the oracle's true fraction.
    """
    plan = plan_for_weight(w)
    size = oracle.size
    t_small = round_weight(min(w, 1.0 - w), size)
    t_big = round_weight(max(w, 1.0 - w), size)
    return run_and_infer(oracle, plan.schedule, t_small, t_big, rng)


def verify_no_cross(k: int, beta: float) -> bool:
    """Inequality guaranteeing no cross point before the (k-1)-th step.

    -sin(2 beta) > sin((2k-3) beta), proved for odd k on the bracket
    ((k-1)/(2k-1) pi, k/(2k+1) pi].
    """
    if k < 3 or k % 2 == 0:
        raise ParameterError("the no-cross inequality is stated for odd k >= 3")
    return -math.sin(2 * beta) > math.sin((2 * k - 3) * beta)


def verify_first_cross(k: int, beta: float) -> bool:
    """Inequality placing the first cross point at the (k-1)-th step.

    sin(2 beta) >= sin((2k-1) beta) on the same bracket, odd k.
    """
    if k < 3 or k % 2 == 0:
        raise ParameterError("the first-cross inequality is stated for odd k >= 3")
    return math.sin(2 * beta) >= math.sin((2 * k - 1) * beta) - 1e-12


def even_k_cross_analogues(k: int, beta: float) -> tuple[bool, bool]:
    """Mirrored no-cross / first-cross checks for even k.

    For even k the trajectory sits on the opposite side of the x axis, so
    the empirical analogues are sin((2k-3) beta) > sin(2 beta) and
    sin((2k-1) beta) >= -sin(2 beta).  Reported, not proved.
    """
    if k < 4 or k % 2 == 1:
        raise ParameterError("analogue checks are for even k >= 4")
    no_cross = math.sin((2 * k - 3) * beta) > math.sin(2 * beta)
    first_cross = math.sin((2 * k - 1) * beta) >= -math.sin(2 * beta) - 1e-12
    return no_cross, first_cross


def bracket(k: int) -> tuple[float, float]:
    """Bloch-angle bracket ((k-1)/(2k-1) pi, k/(2k+1) pi] for one k."""
    if k < 2:
        raise ParameterError("k must be >= 2")
    return (k - 1) / (2 * k - 1) * math.pi, k / (2 * k + 1) * math.pi


def rotate(vector: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    """Right-handed Rodrigues rotation of a 3-vector about a unit axis."""
    import numpy as np

    axis = np.asarray(axis, dtype=float)
    vector = np.asarray(vector, dtype=float)
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    return (
        vector * cos_a
        + np.cross(axis, vector) * sin_a
        + axis * np.dot(axis, vector) * (1.0 - cos_a)
    )


def run_schedule_bloch(beta: float, schedule) -> np.ndarray:
    """Execute a schedule as Bloch rotations for the hypothesis at angle beta.

    The Hilbert step -I_{psi0}(theta) I_{sol}(phi) acts as a rotation by
    phi about the solution pole followed by a rotation by theta about this
    hypothesis's uniform-state axis (global phase discarded).
    """
    import numpy as np

    psi0_axis = np.array([math.sin(beta), 0.0, -math.cos(beta)])
    z_axis = np.array([0.0, 0.0, 1.0])
    vec = psi0_axis.copy()
    for theta, phi in schedule:
        vec = rotate(vec, z_axis, phi)
        vec = rotate(vec, psi0_axis, theta)
    return vec
