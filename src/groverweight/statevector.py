"""Full 2^n-amplitude simulation of the generalized Grover operators.

This backend is the independent check on the two-dimensional subspace
backend: it applies the phase oracle index-by-index and the diffusion
operator by mean subtraction (O(N), not an O(N^2) matrix product).  The
ancilla qubit of the textbook circuits is never materialized; its effect
is the phase kickback applied here directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PromiseViolationError
from .oracle import BooleanOracle

PROMISE_TOL = 1e-9


@dataclass(frozen=True)
class StateVector:
    n: int
    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise ParameterError(f"amplitude array must have length 2^{self.n}")
        object.__setattr__(self, "amps", amps)

    @property
    def size(self) -> int:
        return 1 << self.n

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def uniform_state(n: int) -> StateVector:
    size = 1 << n
    return StateVector(n=n, amps=np.full(size, 1.0 / math.sqrt(size), dtype=np.complex128))


def _diffuse_in_place(amps: np.ndarray, theta: float) -> None:
    # -(a - (1 - e^{i theta}) mean), written as shift - a
    np.subtract((1.0 - np.exp(1j * theta)) * amps.mean(), amps, out=amps)


def apply_oracle_phase(sv: StateVector, oracle: BooleanOracle, phi: float) -> StateVector:
    """Multiply amplitudes of solution states by e^{i*phi}.

    phi = pi is the standard (-1)^{f(x)} kickback.
    """
    if sv.n != oracle.n:
        raise ParameterError(f"state has {sv.n} qubits, oracle {oracle.n}")
    amps = sv.amps.copy()
    amps[oracle.bits == 1] *= np.exp(1j * phi)
    return StateVector(n=sv.n, amps=amps)


def apply_generalized_diffusion(sv: StateVector, theta: float) -> StateVector:
    """Apply -I_{psi0}(theta); theta = pi is the inversion about the mean."""
    amps = sv.amps.copy()
    _diffuse_in_place(amps, theta)
    return StateVector(n=sv.n, amps=amps)


def run_full_schedule(oracle: BooleanOracle, schedule) -> StateVector:
    """Alternate oracle phase phi_i then diffusion theta_i from the uniform state.

    Both operators update one amplitude buffer in place.  The solution
    index is computed here, not taken from the oracle's cached `ones`, so
    a run leaves no index array attached to the oracle.
    """
    amps = uniform_state(oracle.n).amps
    ones = np.flatnonzero(oracle.bits)
    for theta, phi in schedule:
        amps[ones] *= np.exp(1j * phi)
        _diffuse_in_place(amps, theta)
    return StateVector(n=oracle.n, amps=amps)


def measure_distribution(sv: StateVector) -> np.ndarray:
    """Computational-basis Born probabilities."""
    return np.abs(sv.amps) ** 2


def _hadamard_transform(amps: np.ndarray) -> np.ndarray:
    """In-place fast Walsh-Hadamard transform with 1/sqrt(2) per stage."""
    out = amps.copy()
    size = out.size
    h = 1
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    while h < size:
        out = out.reshape(-1, 2 * h)
        lo, hi = out[:, :h].copy(), out[:, h:].copy()
        out[:, :h] = (lo + hi) * inv_sqrt2
        out[:, h:] = (lo - hi) * inv_sqrt2
        out = out.reshape(-1)
        h *= 2
    return out


def deutsch_jozsa(oracle: BooleanOracle) -> str:
    """Decide 'constant' vs 'balanced' with one phase query.

    Simulates H^n . kickback . H^n and inspects the all-zero outcome
    probability: 1 means constant, 0 means balanced.  Any intermediate
    value breaks the promise and raises.
    """
    sv = uniform_state(oracle.n)
    sv = apply_oracle_phase(sv, oracle, math.pi)
    amps = _hadamard_transform(sv.amps)
    p_zero = abs(amps[0]) ** 2
    if p_zero > 1.0 - PROMISE_TOL:
        return "constant"
    if p_zero < PROMISE_TOL:
        return "balanced"
    raise PromiseViolationError(
        f"all-zero probability {p_zero:.6f} is neither 0 nor 1; "
        "oracle is neither constant nor balanced"
    )
