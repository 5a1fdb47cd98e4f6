import math

import numpy as np
import pytest

from groverweight import subspace
from groverweight.errors import DegenerateSubspaceError, ParameterError
from groverweight.subspace import PhaseSchedule


def reference_step_matrix(u, theta, phi):
    """Independent oracle: assemble -I_psi0(theta) I_sol(phi) from projectors."""
    beta = math.asin(math.sqrt(u))
    psi0 = np.array([math.cos(beta), math.sin(beta)], dtype=complex)
    i_psi0 = np.eye(2) - (1 - np.exp(1j * theta)) * np.outer(psi0, psi0.conj())
    i_sol = np.diag([1.0, np.exp(1j * phi)])
    return -(i_psi0 @ i_sol)


def uniform(t, size):
    """The uniform state as run_schedule reports it before any step."""
    return subspace.run_schedule(t, size, PhaseSchedule(()))


def test_initial_state_decompositions():
    s = uniform(1, 4)
    assert s.c_ns == pytest.approx(math.sqrt(3) / 2)
    assert s.c_sol == pytest.approx(0.5)
    s = uniform(2, 4)
    assert s.c_ns == pytest.approx(math.sqrt(2) / 2)
    assert s.c_sol == pytest.approx(math.sqrt(2) / 2)
    s = uniform(3, 4)
    assert (s.c_ns, s.c_sol) == (pytest.approx(0.5), pytest.approx(math.sqrt(3) / 2))


def test_degenerate_weights_rejected():
    for t in (0, 8):
        with pytest.raises(DegenerateSubspaceError):
            subspace.run_schedule(t, 8, PhaseSchedule.standard(1))
    with pytest.raises(ParameterError):
        subspace.run_schedule(9, 8, PhaseSchedule(()))


def test_identity_phases_give_minus_identity():
    state = uniform(3, 16)
    out = subspace.run_schedule(3, 16, ((0.0, 0.0),))
    assert out.c_ns == pytest.approx(-state.c_ns)
    assert out.c_sol == pytest.approx(-state.c_sol)


def test_single_standard_iteration_is_exact_for_quarter_weight():
    out = subspace.evolve(0.25, [(math.pi, math.pi)])
    assert abs(out[0]) == pytest.approx(0.0, abs=1e-12)
    assert abs(out[1]) == pytest.approx(1.0)


def test_step_matches_independent_matrix_product():
    rng = np.random.default_rng(42)
    u = 3 / 10  # arbitrary non-degenerate plane
    psi0 = np.array([math.sqrt(1 - u), math.sqrt(u)], dtype=complex)
    for _ in range(50):
        theta, phi = rng.uniform(-math.pi, math.pi, 2)
        out = subspace.evolve(u, [(theta, phi)])
        expect = reference_step_matrix(u, theta, phi) @ psi0
        assert np.allclose(out, expect, atol=1e-14)


def test_pure_diffusion_preserves_solution_magnitude():
    psi0 = np.array([math.sqrt(3) / 2, 0.5], dtype=complex)
    out = subspace.evolve(0.25, [(math.pi, 0.0)])
    expect = reference_step_matrix(0.25, math.pi, 0.0) @ psi0
    assert np.allclose(out, expect, atol=1e-14)
    assert abs(out[1]) == pytest.approx(0.5)


def test_unitarity_over_random_steps():
    rng = np.random.default_rng(7)
    steps = [tuple(pair) for pair in rng.uniform(-2 * math.pi, 2 * math.pi, (10_000, 2))]
    for length in range(1000, 10_001, 1000):
        vec = subspace.evolve(5 / 32, steps[:length])
        norm = abs(vec[0]) ** 2 + abs(vec[1]) ** 2
        assert abs(norm - 1.0) < 1e-12


def test_run_schedule_empty_returns_initial_state():
    out = subspace.run_schedule(3, 8, PhaseSchedule(()))
    assert out.c_ns == pytest.approx(math.sqrt(5 / 8))
    assert out.c_sol == pytest.approx(math.sqrt(3 / 8))


def test_run_schedule_standard_cases():
    out = subspace.run_schedule(1, 4, PhaseSchedule.standard(1))
    assert abs(out.c_sol) == pytest.approx(1.0)
    # weight 3N/4: the solution-class amplitude vanishes instead
    out = subspace.run_schedule(3, 4, PhaseSchedule.standard(1))
    assert abs(out.c_ns) == pytest.approx(1.0)
    assert abs(out.c_sol) == pytest.approx(0.0, abs=1e-12)


def test_schedule_rejects_non_finite_angles():
    with pytest.raises(ParameterError):
        PhaseSchedule(((math.nan, 0.0),))


def test_recurrence_known_zeros_and_start():
    a1, _ = subspace.recurrence_amplitudes(1, 0.25)
    assert a1 == pytest.approx(0.0, abs=1e-15)
    assert subspace.recurrence_amplitudes(0, 0.37) == (1.0, 1.0)
    _, b1 = subspace.recurrence_amplitudes(1, 0.75)
    assert b1 == pytest.approx(0.0, abs=1e-15)


def test_recurrence_single_step_matches_direct_formula():
    # after one iteration the per-state amplitudes are (1-4u) and (3-4u)
    for u in (0.1, 0.33, 0.5, 0.9):
        a, b = subspace.recurrence_amplitudes(1, u)
        assert a == pytest.approx(1 - 4 * u)
        assert b == pytest.approx(3 - 4 * u)


def test_closed_form_equals_recurrence_on_grid():
    # evolve's closed-form prefix is (a_k cos(beta_H), b_k sin(beta_H)) of the recurrence
    worst = 0.0
    for u in np.arange(0.01, 1.0, 0.01):
        u = float(u)
        cos_b, sin_b = math.sqrt(1 - u), math.sqrt(u)
        a = b = 1.0  # incremental recurrence, checked against the plane kernel at every k
        for k in range(0, 201):
            c_ns, c_sol = subspace.evolve(u, PhaseSchedule.standard(k))
            worst = max(worst, abs(a * cos_b - c_ns), abs(b * sin_b - c_sol))
            a, b = (1 - 2 * u) * a - 2 * u * b, 2 * (1 - u) * a + (1 - 2 * u) * b
    assert worst < 1e-10
    # spot-check that the incremental walk above matches the module function
    a, b = subspace.recurrence_amplitudes(200, 0.37)
    assert subspace.evolve(0.37, PhaseSchedule.standard(200)) == pytest.approx(
        [a * math.sqrt(0.63), b * math.sqrt(0.37)], abs=1e-10
    )


def test_roots_match_printed_table_rows():
    a, b = subspace.roots(1)
    assert a == (pytest.approx(0.25),)
    assert b == (pytest.approx(0.75),)
    a, b = subspace.roots(2)
    assert np.allclose(a, [0.095492, 0.654508], atol=5e-7)
    assert np.allclose(b, [0.345492, 0.904508], atol=5e-7)
    a, _ = subspace.roots(3)
    assert np.allclose(a, [0.049516, 0.388740, 0.811745], atol=5e-7)


def test_roots_kill_their_amplitudes():
    for k in range(1, 51):
        a_roots, b_roots = subspace.roots(k)
        assert len(a_roots) == len(b_roots) == k
        for r in a_roots:
            a, _ = subspace.recurrence_amplitudes(k, r)
            assert abs(a) < 1e-9
        for r in b_roots:
            _, b = subspace.recurrence_amplitudes(k, r)
            assert abs(b) < 1e-9


def test_roots_pair_to_one_across_sets():
    for k in (1, 2, 5, 12, 30):
        a_roots, b_roots = subspace.roots(k)
        for r in a_roots:
            partners = [rb for rb in b_roots if abs(r + rb - 1.0) < 1e-12]
            assert len(partners) == 1


def test_mu_values_and_membership():
    assert subspace.mu(1) == pytest.approx(0.25)
    assert subspace.mu(2) == pytest.approx(math.sin(math.pi / 5) ** 2)
    # odd k: mu_k is a zero of the non-solution amplitude; even k: of the solution one
    for k in (1, 3, 7):
        assert any(abs(subspace.mu(k) - r) < 1e-12 for r in subspace.roots(k)[0])
    for k in (2, 4, 8):
        assert any(abs(subspace.mu(k) - r) < 1e-12 for r in subspace.roots(k)[1])


def test_mu_strictly_increasing_below_half():
    ks = np.arange(1, 10_001)
    values = np.sin(ks / (2 * ks + 1) * np.pi / 2) ** 2
    assert np.all(np.diff(values) > 0)
    assert values[-1] < 0.5
    assert subspace.mu(10_000) == pytest.approx(values[-1])


def test_bloch_poles_and_initial_state():
    v = subspace.bloch_from_state(subspace.SubspaceState(1.0, 0.0, 3, 8))
    assert (v.x, v.y, v.z) == (0.0, 0.0, pytest.approx(-1.0))
    v = subspace.bloch_from_state(subspace.SubspaceState(0.0, 1.0, 3, 8))
    assert v.z == pytest.approx(1.0)
    v = subspace.bloch_from_state(uniform(1, 4))
    assert v.x == pytest.approx(math.sqrt(3) / 2)
    assert v.y == pytest.approx(0.0)
    assert v.z == pytest.approx(-0.5)


def test_bloch_consistency_after_standard_runs():
    for t, size, k in ((1, 8, 3), (3, 16, 5), (5, 32, 2), (7, 16, 10)):
        state = subspace.run_schedule(t, size, PhaseSchedule.standard(k))
        v = subspace.bloch_from_state(state)
        beta_b = 2 * math.asin(math.sqrt(t / size))
        assert abs(v.norm() - 1.0) < 1e-12
        assert v.z == pytest.approx(-math.cos((2 * k + 1) * beta_b), abs=1e-10)
        assert v.x == pytest.approx(math.sin((2 * k + 1) * beta_b), abs=1e-10)


def test_closed_form_prefix_matches_step_by_step_product():
    rng = np.random.default_rng(11)
    for prefix in (0, 1, 2, 7, 64, 500, 1999, 2000):
        for _ in range(4):
            u = float(rng.uniform(0.001, 0.999))
            tail = tuple(map(tuple, rng.uniform(-math.pi, math.pi, (int(rng.integers(0, 6)), 2))))
            beta = math.asin(math.sqrt(u))
            expect = np.array([math.cos(beta), math.sin(beta)], dtype=complex)
            for theta, phi in ((math.pi, math.pi),) * prefix + tail:
                expect = reference_step_matrix(u, theta, phi) @ expect
            got = subspace.evolve(u, PhaseSchedule(tail, prefix=prefix))
            assert np.max(np.abs(got - expect)) < 1e-11, (prefix, u)


def test_evolve_accepts_plain_step_sequences():
    steps = ((math.pi, math.pi), (0.3, -1.1), (2.0, 0.4))
    assert np.array_equal(subspace.evolve(0.2, steps), subspace.evolve(0.2, PhaseSchedule(steps)))


def test_standard_schedule_stores_a_count():
    schedule = PhaseSchedule.standard(5)
    assert schedule.steps == () and schedule.prefix == 5
    assert len(schedule) == 5
    assert list(schedule) == [(math.pi, math.pi)] * 5
    with pytest.raises(ParameterError):
        PhaseSchedule.standard(-1)
