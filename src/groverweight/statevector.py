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

from .errors import ParameterError
from .oracle import BooleanOracle


@dataclass(frozen=True)
class StateVector:
    n: int
    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise ParameterError(f"amplitude array must have length 2^{self.n}")
        object.__setattr__(self, "amps", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def uniform_state(n: int) -> StateVector:
    size = 1 << n
    return StateVector(n=n, amps=np.full(size, 1.0 / math.sqrt(size), dtype=np.complex128))


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
        # diffusion -(a - (1 - e^{i theta}) mean), written as shift - a
        np.subtract((1.0 - np.exp(1j * theta)) * amps.mean(), amps, out=amps)
    return StateVector(n=oracle.n, amps=amps)


def measure_distribution(sv: StateVector) -> np.ndarray:
    """Computational-basis Born probabilities."""
    return np.abs(sv.amps) ** 2
