import math

import numpy as np
import pytest
from scipy import stats

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
    for n, t in ((6, 17), (10, 1000)):  # t > N/2 draws the zeros instead
        a = oracle.make_random_oracle(n, t, seed=123)
        b = oracle.make_random_oracle(n, t, seed=123)
        assert np.array_equal(a.bits, b.bits)
        c = oracle.make_random_oracle(n, t, seed=124)
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


def test_tables_are_uniform_over_all_weight_t_subsets():
    # n = 3, t = 3: each of the C(8, 3) = 56 tables is equally likely.
    counts = {}
    for seed in range(20_000):
        key = oracle.make_random_oracle(3, 3, seed=seed).bits.tobytes()
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == math.comb(8, 3)
    assert stats.chisquare(list(counts.values())).pvalue > 1e-4


def big_int_from_hex(n, text):
    """The 0.4.0 decoder, one bit at a time: the reference for from_hex."""
    value = int(text, 16)
    size = 1 << n
    if value >> size:
        raise ParameterError("hex string encodes more bits than 2^n")
    bits = np.fromiter(((value >> x) & 1 for x in range(size)), dtype=np.uint8, count=size)
    return oracle.BooleanOracle(n=n, bits=bits, t=int(bits.sum()))


@pytest.mark.parametrize(
    "n, text",
    [
        (4, "BEEF"), (4, "beef"), (4, "00beef"), (3, " a5\n"), (4, "0xBEEF"), (4, "0X0f"),
        (1, "3"), (2, "0"), (5, "dead_beef"),
        (4, "beeg"), (4, "1beef"), (4, ""), (4, "-1"), (2, "0x"), (3, "a 5"),
    ],
)
def test_from_hex_accepts_and_rejects_what_the_big_int_decoder_does(n, text):
    try:
        want = big_int_from_hex(n, text)
    except (ValueError, ParameterError) as exc:
        with pytest.raises(type(exc)):
            oracle.from_hex(n, text)
    else:
        assert np.array_equal(oracle.from_hex(n, text).bits, want.bits)


@pytest.mark.parametrize("n", [0, 25, -1])
def test_from_hex_checks_n_before_allocating(monkeypatch, n):
    def refuse(*args, **kwargs):
        raise AssertionError("a 2^n-sized buffer was built before n was checked")

    for name in ("frombuffer", "unpackbits", "fromiter"):
        monkeypatch.setattr(oracle.np, name, refuse)
    with pytest.raises(ParameterError):
        oracle.from_hex(n, "1")


def test_hex_round_trip_at_22_variables():
    orc = oracle.make_random_oracle(22, 1 << 20, seed=22)
    text = orc.to_hex()
    assert len(text) == 1 << 20
    assert text == np.packbits(orc.bits, bitorder="little")[::-1].tobytes().hex()
    back = oracle.from_hex(22, text)
    assert back.t == orc.t and np.array_equal(back.bits, orc.bits)


def test_to_hex_matches_the_packed_bit_reference_for_every_small_table():
    for n in range(1, 5):
        size = 1 << n
        width = max(1, size // 4)
        for value in range(1 << size):
            bits = (value >> np.arange(size)) & 1
            text = oracle.from_bits(bits).to_hex()
            packed = np.packbits(bits.astype(np.uint8), bitorder="little")[::-1].tobytes().hex()
            assert text == packed[-width:] == format(value, f"0{width}x")
