"""Exact evolution in the two-dimensional invariant plane of Grover dynamics.

Every phase-oracle / diffusion operator preserves the plane spanned by the
normalized uniform superpositions over non-solutions and solutions.  A state
is therefore a complex pair (c_ns, c_sol), and one generalized iteration is
an exact 2x2 unitary.  Two angle conventions appear throughout:

* Hilbert half-angle  beta_H = arcsin(sqrt(t/N)),
* Bloch angle         beta_B = 2 * beta_H.

Functions document which one they take.  The amplitude recurrence is this
module's ground truth; `evolve`'s closed-form prefix rotation and the root
sets follow the assignment that agrees with it (a_k tracks the
non-solution class, b_k the solution class).
"""
from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSubspaceError, ParameterError

NORM_TOL = 1e-9


@dataclass(frozen=True)
class SubspaceState:
    """Amplitudes of the normalized (non-solution, solution) components."""

    c_ns: complex
    c_sol: complex
    t: int
    size: int

    def __post_init__(self):
        norm = abs(self.c_ns) ** 2 + abs(self.c_sol) ** 2
        if abs(norm - 1.0) > NORM_TOL:
            raise ParameterError(f"state not normalized: |c|^2 = {norm}")


@dataclass(frozen=True)
class BlochVector:
    x: float
    y: float
    z: float

    def norm(self) -> float:
        return math.sqrt(self.x**2 + self.y**2 + self.z**2)


@dataclass(frozen=True)
class PhaseSchedule:
    """Ordered (theta, phi) phase pairs, one per generalized iteration.

    theta drives the diffusion operator -I_{psi0}(theta), phi the oracle
    phase I_{sol}(phi); the standard Grover iteration is (pi, pi).  The
    schedule is `prefix` standard iterations followed by the explicit
    `steps`; the prefix is stored as a count because it rotates the plane
    in closed form.  Length and iteration cover the whole schedule.
    """

    steps: tuple[tuple[float, float], ...]
    prefix: int = 0

    def __post_init__(self):
        object.__setattr__(self, "prefix", operator.index(self.prefix))
        if self.prefix < 0:
            raise ParameterError("iteration count must be non-negative")
        steps = tuple((float(t), float(p)) for t, p in self.steps)
        for theta, phi in steps:
            if not (math.isfinite(theta) and math.isfinite(phi)):
                raise ParameterError("phase angles must be finite")
        object.__setattr__(self, "steps", steps)

    def __len__(self) -> int:
        return self.prefix + len(self.steps)

    def __iter__(self):
        return itertools.chain(itertools.repeat((math.pi, math.pi), self.prefix), self.steps)

    @classmethod
    def standard(cls, k: int) -> "PhaseSchedule":
        """k standard Grover iterations."""
        return cls((), prefix=k)

    @classmethod
    def sure_success(cls, k: int, theta1: float, theta2: float) -> "PhaseSchedule":
        """k-2 standard iterations followed by (-theta1, pi), (-theta2, pi)."""
        if k < 2:
            raise ParameterError("sure-success schedules need k >= 2")
        return cls(((-theta1, math.pi), (-theta2, math.pi)), prefix=k - 2)


def hilbert_angle(u: float) -> float:
    """beta_H with sin^2(beta_H) = u."""
    if not 0.0 <= u <= 1.0:
        raise ParameterError(f"weight fraction {u} outside [0, 1]")
    return math.asin(math.sqrt(u))


def _step(c: float, s: float, c_ns: complex, c_sol: complex, theta: float, phi: float):
    """One -I_{psi0}(theta) . I_{sol}(phi) on the pair (c_ns, c_sol).

    (c, s) = (cos beta_H, sin beta_H) are the uniform state's coordinates.
    At (pi, pi) this is the plain rotation by 2*beta_H (one Grover
    iteration); at (0, 0) it collapses to -identity.
    """
    c_sol = c_sol * cmath.exp(1j * phi)
    overlap = (1.0 - cmath.exp(1j * theta)) * (c * c_ns + s * c_sol)
    return overlap * c - c_ns, overlap * s - c_sol


def evolve(u: float, steps) -> np.ndarray:
    """Run a phase schedule from the uniform state at weight fraction u.

    Low-level path shared by integer-weight and real-fraction callers;
    returns the final (c_ns, c_sol) pair.  A PhaseSchedule's standard
    prefix of m iterations is applied in closed form, as the rotation to
    (cos((2m+1) beta_H), sin((2m+1) beta_H)), so the cost is O(1) in m;
    the explicit steps (or any iterable of (theta, phi) pairs) follow one
    scalar update each.
    """
    beta = hilbert_angle(u)
    prefix, tail = (steps.prefix, steps.steps) if isinstance(steps, PhaseSchedule) else (0, steps)
    angle = (2 * prefix + 1) * beta
    c_ns, c_sol = complex(math.cos(angle)), complex(math.sin(angle))
    c, s = math.cos(beta), math.sin(beta)
    for theta, phi in tail:
        c_ns, c_sol = _step(c, s, c_ns, c_sol, theta, phi)
    return np.array([c_ns, c_sol], dtype=complex)


def run_schedule(t: int, size: int, schedule: PhaseSchedule | tuple) -> SubspaceState:
    """Left-to-right composition of generalized steps from the uniform state.

    t in {0, N} leaves no two-dimensional plane and raises.
    """
    if not 0 <= t <= size:
        raise ParameterError(f"weight {t} outside [0, {size}]")
    if t in (0, size):
        raise DegenerateSubspaceError(
            f"t = {t} of N = {size}: no two-dimensional invariant plane"
        )
    vec = evolve(t / size, schedule)
    return SubspaceState(c_ns=vec[0], c_sol=vec[1], t=t, size=size)


def recurrence_amplitudes(k: int, u: float) -> tuple[float, float]:
    """Per-state class amplitudes after k standard iterations, times sqrt(N).

    a_k multiplies every non-solution state, b_k every solution state; the
    common 1/sqrt(N) factor is carried symbolically.  This O(k) recurrence is
    the reference for evolve's closed form (a_k cos(b), b_k sin(b)), where
    a_k = cos((2k+1)b)/cos(b), b_k = sin((2k+1)b)/sin(b), b = beta_H.
    """
    if k < 0:
        raise ParameterError("iteration count must be non-negative")
    if not 0.0 < u < 1.0:
        raise ParameterError(f"weight fraction {u} outside (0, 1)")
    a, b = 1.0, 1.0
    for _ in range(k):
        a, b = (1.0 - 2.0 * u) * a - 2.0 * u * b, 2.0 * (1.0 - u) * a + (1.0 - 2.0 * u) * b
    return a, b


def roots(k: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The k weight-fraction zeros of a_k and of b_k, each ascending.

    a_k vanishes at sin^2((2m-1)/(2k+1) * pi/2) and b_k at
    sin^2(l*pi/(2k+1)), 1 <= m, l <= k; paired elements across the two
    sets sum to one.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    a_roots = tuple(math.sin((2 * m - 1) / (2 * k + 1) * math.pi / 2) ** 2 for m in range(1, k + 1))
    b_roots = tuple(math.sin(l * math.pi / (2 * k + 1)) ** 2 for l in range(1, k + 1))
    return a_roots, b_roots


def mu(k: int) -> float:
    """The root closest to 1/2 decidable with k standard iterations."""
    if k < 1:
        raise ParameterError("k must be >= 1")
    return math.sin(k / (2 * k + 1) * math.pi / 2) ** 2


def bloch_from_state(state: SubspaceState) -> BlochVector:
    """Bloch picture with the solution pole at (0, 0, +1).

    The uniform state maps to (sin beta_B, 0, -cos beta_B).
    """
    cross = np.conj(state.c_ns) * state.c_sol
    return BlochVector(
        x=2.0 * cross.real,
        y=2.0 * cross.imag,
        z=abs(state.c_sol) ** 2 - abs(state.c_ns) ** 2,
    )
