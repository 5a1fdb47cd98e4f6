import math

import numpy as np
import pytest

from groverweight import statevector as sv
from groverweight import subspace
from groverweight.errors import ParameterError, PromiseViolationError
from groverweight.oracle import from_bits, make_random_oracle
from groverweight.subspace import PhaseSchedule


def test_oracle_phase_trivial_cases():
    state = sv.uniform_state(3)
    zeros = make_random_oracle(3, 0, seed=0)
    assert np.allclose(sv.apply_oracle_phase(state, zeros, math.pi).amps, state.amps)
    some = make_random_oracle(3, 5, seed=0)
    assert np.allclose(sv.apply_oracle_phase(state, some, 0.0).amps, state.amps)


def test_oracle_phase_flips_single_solution():
    state = sv.uniform_state(2)
    orc = from_bits([0, 0, 0, 1])
    out = sv.apply_oracle_phase(state, orc, math.pi)
    assert np.allclose(out.amps, [0.5, 0.5, 0.5, -0.5])


def test_oracle_phase_dimension_mismatch():
    with pytest.raises(ParameterError):
        sv.apply_oracle_phase(sv.uniform_state(3), from_bits([0, 1]), math.pi)


def test_diffusion_fixes_uniform_state_and_identity_phase():
    state = sv.uniform_state(4)
    out = sv.apply_generalized_diffusion(state, math.pi)
    assert np.allclose(out.amps, state.amps)  # uniform state is the +1 eigenvector
    out = sv.apply_generalized_diffusion(state, 0.0)
    assert np.allclose(out.amps, -state.amps)


def test_one_standard_iteration_concentrates_single_solution():
    orc = from_bits([0, 1, 0, 0])
    out = sv.run_full_schedule(orc, PhaseSchedule.standard(1))
    probs = sv.measure_distribution(out)
    assert probs[1] == pytest.approx(1.0)
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_measure_distribution_basics():
    amps = np.zeros(8, dtype=complex)
    amps[3] = 1.0
    dist = sv.measure_distribution(sv.StateVector(3, amps))
    assert dist[3] == 1.0 and dist.sum() == 1.0
    dist = sv.measure_distribution(sv.uniform_state(2))
    assert np.allclose(dist, 0.25)


def test_norm_preserved_over_long_random_schedule():
    rng = np.random.default_rng(0)
    orc = make_random_oracle(6, 23, seed=1)
    steps = tuple((float(a), float(b)) for a, b in rng.uniform(-math.pi, math.pi, (1000, 2)))
    out = sv.run_full_schedule(orc, PhaseSchedule(steps))
    assert abs(out.norm() - 1.0) < 1e-10


def test_amplitudes_constant_within_each_class():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        size = 1 << n
        orc = make_random_oracle(n, int(rng.integers(1, size)), seed=int(rng.integers(1 << 30)))
        steps = tuple((float(a), float(b)) for a, b in rng.uniform(-math.pi, math.pi, (12, 2)))
        out = sv.run_full_schedule(orc, PhaseSchedule(steps))
        for cls in (orc.zeros, orc.ones):
            amps = out.amps[cls]
            assert np.max(np.abs(amps - amps[0])) < 1e-10


def test_backends_agree_on_random_schedules():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(1, 11))
        size = 1 << n
        t = int(rng.integers(1, size))
        orc = make_random_oracle(n, t, seed=int(rng.integers(1 << 30)))
        length = int(rng.integers(0, 51))
        steps = tuple((float(a), float(b)) for a, b in rng.uniform(-math.pi, math.pi, (length, 2)))
        schedule = PhaseSchedule(steps)
        dist = sv.measure_distribution(sv.run_full_schedule(orc, schedule))
        p_sol = abs(subspace.run_schedule(t, size, schedule).c_sol) ** 2
        induced = np.empty(size)
        induced[orc.zeros] = (1 - p_sol) / (size - t)
        induced[orc.ones] = p_sol / t
        assert 0.5 * np.abs(dist - induced).sum() < 1e-9


def test_single_iteration_amplitudes_match_closed_form():
    for n in range(2, 9):
        size = 1 << n
        for t in range(0, size + 1):
            orc = make_random_oracle(n, t, seed=t + 1)
            out = sv.run_full_schedule(orc, PhaseSchedule.standard(1))
            expect_zero = (size - 4 * t) / (size * math.sqrt(size))
            expect_one = (3 * size - 4 * t) / (size * math.sqrt(size))
            if len(orc.zeros):
                assert np.allclose(out.amps[orc.zeros], expect_zero, atol=1e-12)
            if len(orc.ones):
                assert np.allclose(out.amps[orc.ones], expect_one, atol=1e-12)


def test_deutsch_jozsa_promise_cases():
    assert sv.deutsch_jozsa(make_random_oracle(4, 0, seed=0)) == "constant"
    assert sv.deutsch_jozsa(make_random_oracle(4, 16, seed=0)) == "constant"
    assert sv.deutsch_jozsa(make_random_oracle(4, 8, seed=3)) == "balanced"
    assert sv.deutsch_jozsa(make_random_oracle(1, 1, seed=0)) == "balanced"


def test_deutsch_jozsa_detects_promise_violation():
    with pytest.raises(PromiseViolationError):
        sv.deutsch_jozsa(make_random_oracle(4, 5, seed=2))


def test_in_place_run_equals_composed_operators():
    rng = np.random.default_rng(23)
    orc = make_random_oracle(7, 45, seed=4)
    steps = tuple((float(a), float(b)) for a, b in rng.uniform(-math.pi, math.pi, (9, 2)))
    expect = sv.uniform_state(orc.n)
    for theta, phi in steps:
        expect = sv.apply_generalized_diffusion(sv.apply_oracle_phase(expect, orc, phi), theta)
    assert np.array_equal(sv.run_full_schedule(orc, PhaseSchedule(steps)).amps, expect.amps)
    assert np.array_equal(
        sv.run_full_schedule(orc, PhaseSchedule.standard(3)).amps,
        sv.run_full_schedule(orc, PhaseSchedule(((math.pi, math.pi),) * 3)).amps,
    )


def test_operators_leave_their_input_unchanged():
    state = sv.uniform_state(4)
    before = state.amps.copy()
    sv.apply_oracle_phase(state, make_random_oracle(4, 5, seed=1), 1.3)
    sv.apply_generalized_diffusion(state, 0.7)
    assert np.array_equal(state.amps, before)
