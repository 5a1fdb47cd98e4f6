import math

import numpy as np
import pytest

from groverweight import oracle
from groverweight.errors import ParameterError, WeightOutOfRangeError


def test_extreme_weights_force_constant_tables():
    assert oracle.make_random_oracle(2, 0, seed=7).bits.tolist() == [0, 0, 0, 0]
    assert oracle.make_random_oracle(2, 4, seed=7).bits.tolist() == [1, 1, 1, 1]


def test_generated_popcount_matches_requested_weight():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 11))
        t = int(rng.integers(0, (1 << n) + 1))
        orc = oracle.make_random_oracle(n, t, seed=int(rng.integers(2**31)))
        assert int(orc.bits.sum()) == t == orc.t


def test_generation_is_deterministic():
    a = oracle.make_random_oracle(6, 17, seed=123)
    b = oracle.make_random_oracle(6, 17, seed=123)
    assert np.array_equal(a.bits, b.bits)
    c = oracle.make_random_oracle(6, 17, seed=124)
    assert not np.array_equal(a.bits, c.bits)


def test_weight_out_of_range_rejected():
    with pytest.raises(WeightOutOfRangeError):
        oracle.make_random_oracle(3, 9, seed=0)
    with pytest.raises(WeightOutOfRangeError):
        oracle.make_random_oracle(3, -1, seed=0)


def test_evaluate_agrees_with_table_exhaustively():
    for n in (1, 4, 7, 10):
        orc = oracle.make_random_oracle(n, (1 << n) // 3, seed=n)
        for x in range(orc.size):
            assert orc.value(x) == int(orc.bits[x])


def test_evaluate_bounds_checked():
    orc = oracle.make_random_oracle(3, 4, seed=0)
    with pytest.raises(IndexError):
        orc.value(8)
    with pytest.raises(IndexError):
        orc.value(-1)


def test_bit_order_least_significant_first():
    # table 1010 as a bit sequence: f(0)=1, f(1)=0, f(2)=1, f(3)=0
    orc = oracle.from_bits([1, 0, 1, 0])
    assert orc.value(0) == 1
    assert orc.value(1) == 0


def test_from_bits_rejects_tables_that_are_not_a_power_of_two():
    for bits in ([], [1, 0, 1]):
        with pytest.raises(ParameterError):
            oracle.from_bits(bits)
    with pytest.raises(ParameterError):
        oracle.from_bits([1])  # one entry is n = 0 variables


def test_round_weight_examples():
    assert oracle.round_weight(0.25, 16) == 4
    # 32 * sin^2(pi/5) = 11.0557..., nearest integer 11
    assert oracle.round_weight(math.sin(math.pi / 5) ** 2, 32) == 11
    assert oracle.round_weight(0.5 - 1e-9, 4) == 2
    # exact half-integer rounds half-up: 4 * 0.375 = 1.5
    assert oracle.round_weight(0.375, 4) == 2
    with pytest.raises(ParameterError):
        oracle.round_weight(0.0, 4)
    with pytest.raises(ParameterError):
        oracle.round_weight(1.0, 4)


def test_round_weight_within_half():
    rng = np.random.default_rng(11)
    for _ in range(500):
        w = float(rng.uniform(1e-9, 1 - 1e-9))
        size = int(2 ** rng.integers(1, 20))
        m = oracle.round_weight(w, size)
        assert abs(m - size * w) <= 0.5 + 1e-9


def test_hex_round_trip_and_bit_order():
    orc = oracle.from_bits([0, 0, 0, 1])  # only f(3) = 1, the msb
    assert orc.to_hex() == "8"
    back = oracle.from_hex(2, "8")
    assert np.array_equal(back.bits, orc.bits)
    rng = np.random.default_rng(5)
    for n in (1, 3, 6, 9):
        orc = oracle.make_random_oracle(n, int(rng.integers(0, 1 << n)), seed=int(rng.integers(1 << 20)))
        again = oracle.from_hex(n, orc.to_hex())
        assert np.array_equal(again.bits, orc.bits)


def test_tables_are_immutable():
    orc = oracle.make_random_oracle(4, 5, seed=9)
    with pytest.raises(ValueError):
        orc.bits[0] = 1
