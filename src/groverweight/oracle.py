"""Boolean functions as black-box oracles with a known weight.

An n-variable Boolean function is stored as its full truth table: bit x of
the table is f(x), where the input bitstring is identified with the integer
x (bit i of x is variable number i+1).  The weight t is the number of ones.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ParameterError, WeightOutOfRangeError
from .subspace import round_weight  # noqa: F401  (re-exported; defined without numpy)

MAX_VARIABLES = 24


@dataclass(frozen=True)
class BooleanOracle:
    """Truth table of an n-variable Boolean function with cached weight.

    Immutable after construction; safe to share between threads.
    """

    n: int
    bits: np.ndarray = field(repr=False)
    t: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_VARIABLES:
            raise ParameterError(f"n must be in [1, {MAX_VARIABLES}], got {self.n}")
        bits = np.array(self.bits, dtype=np.uint8)  # private copy, frozen below
        if bits.shape != (1 << self.n,):
            raise ParameterError(f"table must have length 2^{self.n}")
        if not np.all(bits <= 1):
            raise ParameterError("table entries must be bits")
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)
        if self.t != int(bits.sum()):
            raise ParameterError("cached weight does not match popcount of table")

    @property
    def size(self) -> int:
        """Domain size N = 2^n."""
        return 1 << self.n

    def value(self, x: int) -> int:
        if not 0 <= x < self.size:
            raise IndexError(f"input {x} outside [0, {self.size})")
        return int(self.bits[x])

    @cached_property
    def ones(self) -> np.ndarray:
        """Indices x with f(x) = 1, ascending."""
        return np.flatnonzero(self.bits)

    @cached_property
    def zeros(self) -> np.ndarray:
        """Indices x with f(x) = 0, ascending."""
        return np.flatnonzero(self.bits == 0)

    def to_hex(self) -> str:
        """Truth table as a hex string; most-significant bit is x = N-1."""
        packed = np.packbits(self.bits, bitorder="little").tobytes()
        value = int.from_bytes(packed, "little")
        width = max(1, (self.size + 3) // 4)
        return format(value, f"0{width}x")


def from_bits(bits) -> BooleanOracle:
    """Build an oracle from an explicit bit sequence of length 2^n."""
    arr = np.asarray(bits, dtype=np.uint8)
    n = arr.size.bit_length() - 1
    if n < 0 or 1 << n != arr.size:
        raise ParameterError("table length must be a power of two")
    return BooleanOracle(n=n, bits=arr, t=int(arr.sum()))


def from_hex(n: int, text: str) -> BooleanOracle:
    """Inverse of :meth:`BooleanOracle.to_hex`.

    n is checked before anything of size 2^n is allocated.
    """
    if not 1 <= n <= MAX_VARIABLES:
        raise ParameterError(f"n must be in [1, {MAX_VARIABLES}], got {n}")
    value = int(text, 16)
    size = 1 << n
    if value >> size:
        raise ParameterError("hex string encodes more bits than 2^n")
    packed = np.frombuffer(value.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    bits = np.unpackbits(packed, bitorder="little")[:size]
    return BooleanOracle(n=n, bits=bits, t=int(bits.sum()))


def make_random_oracle(n: int, t: int, seed: int) -> BooleanOracle:
    """Uniformly random weight-t function, reproducible from the seed.

    The solution positions (or, for t > N/2, the non-solution positions)
    are one draw without replacement from range(N), so the same
    (n, t, seed) always yields the identical table.
    """
    if not 1 <= n <= MAX_VARIABLES:
        raise ParameterError(f"n must be in [1, {MAX_VARIABLES}], got {n}")
    size = 1 << n
    if not 0 <= t <= size:
        raise WeightOutOfRangeError(f"weight {t} outside [0, {size}]")
    rng = np.random.default_rng(seed)
    # Selecting the complement keeps the draw at most N/2 positions long.
    pick, invert = (t, False) if t <= size // 2 else (size - t, True)
    bits = np.full(size, invert, dtype=np.uint8)
    bits[rng.choice(size, pick, replace=False, shuffle=False)] = not invert
    return BooleanOracle(n=n, bits=bits, t=t)
