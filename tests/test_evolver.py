import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, solve_banded

from cdwlab import evolver, model
from cdwlab.errors import DomainError
from cdwlab.evolver import (
    ComplexField,
    Trajectory,
    detect_blowup,
    detect_resonance,
    evolve,
    gaussian_packet,
    step_crank_nicolson_printed,
    step_crank_nicolson_standard,
    step_dufort_frankel_printed,
    step_dufort_frankel_standard,
    trajectory_table,
)
from cdwlab.model import FieldDriveParams, PhysicalParams


FREE = PhysicalParams(D=2.0, omega_p_sq=0.0, mu_E=0.0, theta=0.0)
WELL = PhysicalParams(D=1.0, omega_p_sq=1.0, mu_E=0.012, theta=2.0)


def potential_on_grid(f, p):
    # independent washboard evaluation for the oracles below
    x = f.x0 + f.dx * np.arange(f.values.size)
    return (0.5 * p.mu_E * (x - p.theta) ** 2
            + 0.5 * p.D * p.omega_p_sq * (1.0 - np.cos(x)))


def lap_matrix(n):
    L = np.zeros((n, n))
    for i in range(1, n - 1):
        L[i, i - 1] = 1.0
        L[i, i] = -2.0
        L[i, i + 1] = 1.0
    return L


def random_pair(rng, n=12, dx=0.2, x0=-1.0):
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    return ComplexField(a, dx, x0), ComplexField(b, dx, x0)


def cn_printed_oracle(prev, curr, p, dt):
    # matrix-form evaluation of the printed two-level update
    n = curr.values.size
    L = lap_matrix(n)
    V = potential_on_grid(curr, p)
    kappa = p.hbar / (p.D * curr.dx ** 2)
    drift = (2.0 / p.hbar) * V * curr.values
    new = prev.values + 1j * dt * (
        kappa * (L @ curr.values + L @ prev.values) - drift)
    new[0] = curr.values[0]
    new[-1] = curr.values[-1]
    return new


def df_oracle(prev, curr, p, dt, as_printed):
    # term-by-term interior evaluation with Dirichlet ends
    V = potential_on_grid(curr, p)
    r2 = -1j * dt * p.hbar / (p.D * curr.dx ** 2)
    cv = curr.values
    new = cv.copy()
    for j in range(1, cv.size - 1):
        pair = cv[j - 1] - cv[j + 1] if as_printed else cv[j - 1] + cv[j + 1]
        new[j] = (r2 / (1 + r2) * pair
                  + (1 - r2) / (1 + r2) * prev.values[j]
                  - 1j * dt * (V[j] / p.hbar) * cv[j])
    return new


def cn_standard_oracle(curr, p, dt):
    # dense Cayley-form solve
    n = curr.values.size
    L = lap_matrix(n)
    V = potential_on_grid(curr, p)
    M = 1j * (p.hbar / (p.D * curr.dx ** 2)) * L \
        - 1j * np.diag(V) / p.hbar
    M[0, :] = 0.0
    M[-1, :] = 0.0
    eye = np.eye(n)
    A = eye - 0.5 * dt * M
    B = eye + 0.5 * dt * M
    return np.linalg.solve(A, B @ curr.values)


def test_complex_field_validation():
    with pytest.raises(DomainError):
        ComplexField([1.0, 2.0], 0.1)
    with pytest.raises(DomainError):
        ComplexField([1.0, math.inf, 0.0], 0.1)
    with pytest.raises(DomainError):
        ComplexField([1.0, 0.0, 0.0], 0.0)
    src = np.ones(4, dtype=complex)
    f = ComplexField(src, 0.1)
    src[0] = 5.0
    assert f.values[0] == 1.0
    np.testing.assert_allclose(f.grid(), [0.0, 0.1, 0.2, 0.3], atol=1e-15)


def test_trajectory_validation():
    with pytest.raises(DomainError):
        Trajectory([0.0, 1.0], [0.0], [1.0, 1.0])
    with pytest.raises(DomainError):
        Trajectory([0.0, 0.0], [0.0, 0.0], [1.0, 1.0])
    t = Trajectory([0.0, 1.0, 2.0], [0.0, 0.1, 0.2], [1.0, 1.0, 1.0])
    assert len(t) == 3


def test_cn_printed_constant_and_zero():
    c = ComplexField(np.full(9, 0.7 + 0.2j), 0.1)
    out = step_crank_nicolson_printed(c, c, FREE, 1e-3)
    np.testing.assert_allclose(out.values, c.values, rtol=0, atol=1e-15)
    z = ComplexField(np.zeros(9, dtype=complex), 0.1)
    out = step_crank_nicolson_printed(z, z, FREE, 1e-3)
    assert np.all(out.values == 0.0)


def test_cn_printed_impulse_spread():
    # one step from a fresh impulse puts i*dt*hbar/(D*dx^2) on the
    # neighbors to first order
    n, dx, dt = 11, 0.1, 1e-4
    zero = ComplexField(np.zeros(n, dtype=complex), dx)
    vals = np.zeros(n, dtype=complex)
    vals[5] = 1.0
    curr = ComplexField(vals, dx)
    out = step_crank_nicolson_printed(zero, curr, FREE, dt)
    coeff = 1j * dt * FREE.hbar / (FREE.D * dx * dx)
    assert out.values[4] == pytest.approx(coeff, rel=1e-12)
    assert out.values[6] == pytest.approx(coeff, rel=1e-12)
    # nothing beyond the immediate neighbors after one step
    assert out.values[3] == 0.0
    assert out.values[7] == 0.0


def test_cn_printed_matches_matrix_oracle():
    rng = np.random.default_rng(31)
    prev, curr = random_pair(rng)
    out = step_crank_nicolson_printed(prev, curr, WELL, 2e-3)
    ref = cn_printed_oracle(prev, curr, WELL, 2e-3)
    np.testing.assert_allclose(out.values, ref, rtol=1e-13, atol=1e-15)


def test_cn_printed_grid_mismatch():
    a = ComplexField(np.zeros(8, dtype=complex), 0.1)
    b = ComplexField(np.zeros(9, dtype=complex), 0.1)
    with pytest.raises(DomainError):
        step_crank_nicolson_printed(a, b, FREE, 1e-3)


def test_df_printed_constant_not_preserved():
    # the printed neighbor difference kills the constant mode:
    # new = (1-2R)/(1+2R) * c on the interior
    c0 = 0.8 - 0.3j
    c = ComplexField(np.full(9, c0), 0.1)
    dt = 1e-3
    out = step_dufort_frankel_printed(c, c, FREE, dt)
    r2 = -1j * dt * FREE.hbar / (FREE.D * 0.1 ** 2)
    expect = (1 - r2) / (1 + r2) * c0
    np.testing.assert_allclose(out.values[1:-1], np.full(7, expect),
                               rtol=1e-13)
    assert expect != pytest.approx(c0, rel=1e-6)


def test_df_printed_matches_term_oracle():
    rng = np.random.default_rng(32)
    prev, curr = random_pair(rng)
    out = step_dufort_frankel_printed(prev, curr, WELL, 2e-3)
    ref = df_oracle(prev, curr, WELL, 2e-3, as_printed=True)
    np.testing.assert_allclose(out.values, ref, rtol=1e-13, atol=1e-15)


def test_df_standard_matches_term_oracle():
    rng = np.random.default_rng(33)
    prev, curr = random_pair(rng)
    out = step_dufort_frankel_standard(prev, curr, WELL, 2e-3)
    ref = df_oracle(prev, curr, WELL, 2e-3, as_printed=False)
    np.testing.assert_allclose(out.values, ref, rtol=1e-13, atol=1e-15)


def test_df_standard_preserves_constant():
    c0 = 0.8 - 0.3j
    c = ComplexField(np.full(9, c0), 0.1)
    out = step_dufort_frankel_standard(c, c, FREE, 1e-3)
    np.testing.assert_allclose(out.values, np.full(9, c0), rtol=1e-14)


def test_df_standard_free_run_stays_bounded():
    # |g| = 1 for every mode of the free equation: marginal stability
    f = gaussian_packet(101, 0.1)
    drive = FieldDriveParams(a_D=0.0)
    t = evolve("df-standard", f, FREE, drive, 1e-3, 1000)
    assert not t.truncated
    assert np.max(t.norm) <= 3.0 * t.norm[0]
    assert detect_blowup(t, 10.0) is None


def test_cn_standard_matches_dense_oracle():
    rng = np.random.default_rng(34)
    prev, curr = random_pair(rng)
    out = step_crank_nicolson_standard(prev, curr, WELL, 2e-3)
    ref = cn_standard_oracle(curr, WELL, 2e-3)
    np.testing.assert_allclose(out.values, ref, rtol=1e-11, atol=1e-14)


def test_cn_standard_norm_conserved():
    # unitary Cayley update: norm drift below 1e-10 over 1000 steps
    f = gaussian_packet(301, 0.05)
    drive = FieldDriveParams(a_D=0.0)
    for p in [FREE, WELL]:
        t = evolve("cn-standard", f, p, drive, 5e-3, 1000)
        assert not t.truncated
        drift = abs(t.norm[-1] - t.norm[0]) / t.norm[0]
        assert drift < 1e-10


def test_all_schemes_identity_as_dt_vanishes():
    # cold start (prev = curr): one step must approach the input
    # linearly in dt
    rng = np.random.default_rng(35)
    vals = rng.normal(size=21) + 1j * rng.normal(size=21)
    f = ComplexField(vals, 0.2)
    steppers = [step_crank_nicolson_printed, step_dufort_frankel_printed,
                step_crank_nicolson_standard, step_dufort_frankel_standard]
    for stepper in steppers:
        devs = []
        for dt in [1e-6, 1e-7]:
            out = stepper(f, f, WELL, dt)
            devs.append(np.linalg.norm(out.values - f.values))
        assert devs[1] < 1e-3
        ratio = devs[0] / devs[1]
        assert 8.0 < ratio < 12.0


def test_all_schemes_hold_dirichlet_boundaries():
    rng = np.random.default_rng(36)
    prev, curr = random_pair(rng)
    steppers = [step_crank_nicolson_printed, step_dufort_frankel_printed,
                step_crank_nicolson_standard, step_dufort_frankel_standard]
    for stepper in steppers:
        out = stepper(prev, curr, WELL, 2e-3)
        assert out.values[0] == curr.values[0]
        assert out.values[-1] == curr.values[-1]


def phase_norm(values, x, dx):
    # oracle for evolve's block reduction: mean phase (0 at zero norm)
    # and L2 norm of one level by 1-D sums
    w = np.abs(values) ** 2
    total = float(w.sum())
    phase = float((x * w).sum() / total) if total != 0.0 else 0.0
    return phase, math.sqrt(total * dx)


def evolver_phase_norm(f):
    # the block reduction evolve records, on a one-level block
    phases, norms = evolver._phase_norm(f.values[None], f.grid(), f.dx)
    return phases[0], norms[0]


def test_mean_phase_anchors():
    # impulse sitting exactly on x = 2*pi
    n = 9
    vals = np.zeros(n, dtype=complex)
    vals[4] = 1.0
    f = ComplexField(vals, math.pi / 2, x0=0.0)
    assert evolver_phase_norm(f)[0] == pytest.approx(2 * math.pi, rel=1e-15)
    # symmetric packet about zero
    g = gaussian_packet(51, 0.1)
    assert evolver_phase_norm(g)[0] == pytest.approx(0.0, abs=1e-12)
    # equal impulses at 0 and 2*pi average to pi
    vals = np.zeros(n, dtype=complex)
    vals[0] = 1.0
    vals[8] = 1.0
    f = ComplexField(vals, math.pi / 4, x0=0.0)
    assert evolver_phase_norm(f)[0] == pytest.approx(math.pi, rel=1e-15)


def test_field_norm_hand_value():
    f = ComplexField([1.0, 2.0j, 0.0], 0.5)
    assert evolver_phase_norm(f)[1] == pytest.approx(math.sqrt(2.5),
                                                     rel=1e-15)


def test_gaussian_packet_layout():
    f = gaussian_packet(101, 0.1)
    x = f.grid()
    assert x[0] == pytest.approx(-5.0)
    assert x[-1] == pytest.approx(5.0)
    assert np.argmax(np.abs(f.values)) == 50
    g = gaussian_packet(101, 0.1, x_c=1.0)
    assert g.grid()[np.argmax(np.abs(g.values))] == pytest.approx(1.0)
    h = gaussian_packet(5, 0.1, x0=2.0)
    assert h.grid()[0] == 2.0
    with pytest.raises(DomainError):
        gaussian_packet(2, 0.1)
    with pytest.raises(DomainError):
        gaussian_packet(5, 0.1, alpha0=0.0)


def test_evolve_zero_field_single_step():
    z = ComplexField(np.zeros(9, dtype=complex), 0.1)
    drive = FieldDriveParams(a_D=0.0)
    t = evolve("cn-standard", z, FREE, drive, 1e-3, 1)
    assert len(t) == 2
    assert np.all(t.norm == 0.0)
    assert np.all(t.mean_phase == 0.0)
    assert not t.truncated


def test_evolve_rejects_bad_arguments():
    f = gaussian_packet(11, 0.1)
    drive = FieldDriveParams(a_D=0.0)
    with pytest.raises(DomainError):
        evolve("no-such-scheme", f, FREE, drive, 1e-3, 10)
    with pytest.raises(DomainError):
        evolve("cn-standard", f, FREE, drive, 1e-3, 0)
    with pytest.raises(DomainError):
        evolve("cn-standard", f, FREE, drive, 0.0, 10)


def assert_evolve_matches_steppers(p, drive):
    # the recorded run must equal, bit for bit, stepping by hand through
    # the checked steppers with theta_n = theta0 + a_D*(n*dt)
    f = gaussian_packet(41, 0.1, x_c=0.5)
    dt, steps = 2e-3, 6
    cases = [("cn-printed", step_crank_nicolson_printed),
             ("df-printed", step_dufort_frankel_printed),
             ("cn-standard", step_crank_nicolson_standard),
             ("df-standard", step_dufort_frankel_standard)]
    for kind, stepper in cases:
        t = evolve(kind, f, p, drive, dt, steps)
        prev = curr = f
        levels = [f]
        for n in range(steps):
            pn = replace(p, theta=p.theta + drive.a_D * (n * dt))
            new = stepper(prev, curr, pn, dt)
            prev, curr = curr, new
            levels.append(curr)
        phases, norms = zip(*(phase_norm(g.values, g.grid(), g.dx)
                              for g in levels))
        assert not t.truncated
        np.testing.assert_array_equal(t.times,
                                      [n * dt for n in range(steps + 1)])
        np.testing.assert_array_equal(t.norm, norms)
        np.testing.assert_array_equal(t.mean_phase, phases)


def test_evolve_drive_advances_theta():
    p = PhysicalParams(D=1.0, omega_p_sq=1.0, mu_E=0.012, theta=0.7)
    assert_evolve_matches_steppers(p, FieldDriveParams(a_D=0.3))


@pytest.mark.parametrize("mu_E, a_D", [(0.0, 0.3), (0.012, 0.0)])
def test_evolve_static_potential_matches_steppers(mu_E, a_D):
    # no tilt, or no drive: evolve builds V and the step plan once
    p = PhysicalParams(D=1.0, omega_p_sq=1.0, mu_E=mu_E, theta=0.7)
    assert_evolve_matches_steppers(p, FieldDriveParams(a_D=a_D))


@pytest.mark.parametrize("kind", list(evolver._PLANS))
def test_evolve_potential_evaluations(kind, monkeypatch):
    # the washboard formula runs once for a static potential and once
    # per step for a driven one
    calls = []
    washboard = model._washboard

    def counted(*args):
        calls.append(args[2])
        return washboard(*args)

    monkeypatch.setattr(model, "_washboard", counted)
    monkeypatch.setattr(evolver, "_washboard", counted)
    f = gaussian_packet(21, 0.1)
    steps = 5
    for p, a_D, expect in [(FREE, 0.3, 1), (WELL, 0.0, 1),
                           (WELL, 0.3, steps)]:
        calls.clear()
        t = evolve(kind, f, p, FieldDriveParams(a_D=a_D), 1e-3, steps)
        assert not t.truncated
        assert len(calls) == expect
        assert calls == [p.theta + a_D * (n * 1e-3) for n in range(expect)]


def test_evolve_rejects_non_finite_driving_phase():
    # theta_n = 1e308*n overflows at n = 2; where theta cannot change V
    # (mu_E = 0) the run is the same as at any other drive rate
    f = gaussian_packet(21, 0.1)
    drive = FieldDriveParams(a_D=1e308)
    t = evolve("df-standard", f, FREE, drive, 1.0, 5)
    ref = evolve("df-standard", f, FREE, FieldDriveParams(a_D=0.67), 1.0, 5)
    assert t.truncated == ref.truncated
    np.testing.assert_array_equal(t.times, ref.times)
    np.testing.assert_array_equal(t.mean_phase, ref.mean_phase)
    np.testing.assert_array_equal(t.norm, ref.norm)
    # with a tilt V overflows at n = 1 and truncates the run first
    t = evolve("df-standard", f, WELL, drive, 1.0, 5)
    assert t.truncated
    assert len(t) == 2
    # a (subnormal) tilt small enough to keep V finite at theta_1 = 1e308
    # reaches theta_2 = inf on the driven path, which is an error
    with pytest.raises(DomainError):
        evolve("df-standard", f, PhysicalParams(mu_E=1e-320), drive, 1.0, 5)


def test_evolve_truncates_on_overflow_every_scheme():
    # the potential itself overflows, so no step leaves a finite field
    f = gaussian_packet(101, 0.1)
    p = PhysicalParams(mu_E=1e308)
    drive = FieldDriveParams(a_D=0.0)
    for kind in evolver._PLANS:
        with np.errstate(over="ignore"):
            t = evolve(kind, f, p, drive, 1e-3, 5)
        assert t.truncated
        assert len(t) == 1


def test_evolve_static_theta_below_pi_is_bounded():
    # no tunneling for theta < pi: the packet sloshes but the mean
    # phase never reaches the next well; the detection window must
    # cover at least two sloshing periods (about 9.2 time units each)
    f = gaussian_packet(501, 0.05, x_c=1.0)
    drive = FieldDriveParams(a_D=0.0)
    t = evolve("cn-standard", f, WELL, drive, 5e-3, 4000)
    assert not t.truncated
    assert np.max(np.abs(t.mean_phase)) < 2 * math.pi
    assert detect_resonance(t, 4000)


def test_evolve_df_standard_resonance():
    # same phenomenology out of the stable leapfrog at its own dt
    f = gaussian_packet(501, 0.05, x_c=1.0)
    drive = FieldDriveParams(a_D=0.0)
    t = evolve("df-standard", f, WELL, drive, 2e-3, 10000)
    assert not t.truncated
    assert np.max(np.abs(t.mean_phase)) < 2 * math.pi
    assert detect_resonance(t, 10000)


def test_evolve_cn_printed_blows_up():
    # calibrated run: the printed scheme leaves the finite range and
    # the norm passes 10x its initial value near 100 steps
    f = gaussian_packet(501, 0.05)
    p = PhysicalParams(D=1.0, omega_p_sq=1.0, mu_E=0.012, theta=2.0)
    drive = FieldDriveParams(a_D=0.0)
    t = evolve("cn-printed", f, p, drive, 8e-4, 2000)
    assert t.truncated
    assert len(t) < 2001
    idx = detect_blowup(t, 10.0)
    assert idx is not None
    assert 50 <= idx <= 150


@settings(derandomize=True, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 80),
       dx=st.floats(0.02, 0.5), dt=st.floats(1e-4, 2e-2),
       p=st.sampled_from([FREE, WELL]))
def test_cn_standard_step_conserves_norm(seed, n, dx, dt, p):
    # the Cayley step is unitary: ends held at zero keep sum |psi|^2 to
    # rounding
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=n) + 1j * rng.normal(size=n)
    vals[0] = vals[-1] = 0.0
    f = ComplexField(vals, dx, x0=-0.5 * dx * (n - 1))
    out = step_crank_nicolson_standard(f, f, p, dt)
    before, after = (phase_norm(g.values, g.grid(), dx)[1] for g in (f, out))
    assert abs(after - before) <= 1e-12 * before


@settings(derandomize=True, max_examples=300, deadline=None)
@given(c=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3),
       n=st.integers(3, 80), dx=st.floats(0.02, 0.5),
       dt=st.floats(1e-4, 2e-2))
def test_df_standard_step_keeps_constants(c, n, dx, dt):
    f = ComplexField(np.full(n, c), dx)
    out = step_dufort_frankel_standard(f, f, FREE, dt)
    np.testing.assert_allclose(out.values, f.values, rtol=1e-14)


def cn_standard_banded_reference(curr, V, p, dx, dt):
    # one Cayley step by scipy's one-shot banded solve in its (1, 1)
    # layout
    n = curr.size
    koff = 1j * p.hbar / (p.D * dx * dx)
    diag_m = -2.0 * koff - 1j * V / p.hbar
    half = 0.5 * dt
    wrapped = np.concatenate((curr[-1:], curr, curr[:1]))
    rhs = curr + half * (koff * (wrapped[:-2] + wrapped[2:]) + diag_m * curr)
    diag = 1.0 - half * diag_m
    off = -half * koff
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = off
    ab[2, :-1] = off
    rhs[0], rhs[-1] = curr[0], curr[-1]
    diag[0] = diag[-1] = 1.0
    ab[1] = diag
    ab[0, 1] = ab[2, -2] = 0.0
    return solve_banded((1, 1), ab, rhs, check_finite=False)


def cn_standard_plan_step(curr, V, p, dx, dt):
    build = evolver._PLANS["cn-standard"]
    return build(V, p, dx, dt)(curr, curr, np.empty_like(curr))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 80),
       dx=st.floats(0.02, 0.5), dt=st.floats(1e-4, 2e-1),
       v_max=st.sampled_from([0.0, 1.0, 1e3]),
       D=st.floats(0.1, 10.0), hbar=st.floats(0.1, 10.0))
def test_cn_standard_plan_matches_banded_solve(seed, n, dx, dt, v_max, D,
                                               hbar):
    # the LU factors kept by the plan give, bit for bit, the one-shot
    # banded solve of the same step
    rng = np.random.default_rng(seed)
    curr = rng.normal(size=n) + 1j * rng.normal(size=n)
    V = v_max * rng.random(n)
    p = PhysicalParams(D=D, hbar=hbar)
    out = cn_standard_plan_step(curr, V, p, dx, dt)
    ref = cn_standard_banded_reference(curr, V, p, dx, dt)
    np.testing.assert_array_equal(out, ref)


def test_cn_standard_plan_non_finite_potential():
    # a non-finite matrix entry gives a non-finite step, as the one-shot
    # solve did; at held Dirichlet ends V is not in the matrix
    rng = np.random.default_rng(37)
    curr = rng.normal(size=9) + 1j * rng.normal(size=9)
    p = PhysicalParams()
    for bad in [math.inf, math.nan]:
        V = rng.random(9)
        V[4] = bad
        with np.errstate(invalid="ignore"):
            out = cn_standard_plan_step(curr, V, p, 0.1, 1e-2)
            ref = cn_standard_banded_reference(curr, V, p, 0.1, 1e-2)
        assert not np.isfinite(out).all()
        assert not np.isfinite(ref).all()
        V = rng.random(9)
        V[0] = V[-1] = bad
        with np.errstate(invalid="ignore"):
            out = cn_standard_plan_step(curr, V, p, 0.1, 1e-2)
            ref = cn_standard_banded_reference(curr, V, p, 0.1, 1e-2)
        np.testing.assert_array_equal(out, ref)


def test_tridiagonal_lapack_errors_raise():
    # a zero pivot is a LinAlgError, as from solve_banded
    d = np.array([1.0, 0.0, 1.0], dtype=complex)
    off = np.zeros(2, dtype=complex)
    ab = np.array([[0.0, 0.0, 0.0], d, [0.0, 0.0, 0.0]])
    with pytest.raises(LinAlgError):
        solve_banded((1, 1), ab, np.ones(3), check_finite=False)
    with pytest.raises(LinAlgError):
        evolver._lu(off.copy(), d.copy(), off.copy())
    with pytest.raises(ValueError):
        evolver._check_info(-2)


def test_lapack_wrappers_are_scipys():
    # the extension module loaded alone gives scipy.linalg.lapack's
    # factors, info and solution bit for bit on a pivoting system
    from scipy.linalg import lapack

    rng = np.random.default_rng(41)
    n = 50

    def cplx(size):
        return rng.normal(size=size) + 1j * rng.normal(size=size)

    dl, d, du, b = cplx(n - 1), cplx(n), cplx(n - 1), cplx(n)
    d[7] = 1e-14
    zgttrf, zgttrs = evolver._lapack()
    ours = zgttrf(dl.copy(), d.copy(), du.copy())
    theirs = lapack.zgttrf(dl.copy(), d.copy(), du.copy())
    assert not np.array_equal(ours[4], np.arange(1, n + 1))  # pivoted
    assert ours[-1] == theirs[-1] == 0
    for a, ref in zip(ours[:-1], theirs[:-1]):
        assert a.dtype == ref.dtype and a.tobytes() == ref.tobytes()
    x, info = zgttrs(*ours[:-1], b.copy())
    x_ref, info_ref = lapack.zgttrs(*theirs[:-1], b.copy())
    assert info == info_ref == 0
    assert x.tobytes() == x_ref.tobytes()


def test_lapack_missing_extension_raises(tmp_path, monkeypatch):
    import scipy

    linalg = tmp_path / "scipy" / "linalg"
    linalg.mkdir(parents=True)
    (linalg / "lapack.py").write_text("")
    monkeypatch.setattr(scipy, "__file__", str(linalg.parent / "__init__.py"))
    evolver._lapack.cache_clear()
    try:
        with pytest.raises(ImportError, match=re.escape(str(linalg))):
            evolver._lapack()
    finally:
        evolver._lapack.cache_clear()


def test_detect_blowup_basics():
    t = Trajectory([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [1.0, 2.0, 20.0])
    assert detect_blowup(t, 10.0) == 2
    flat = Trajectory([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    assert detect_blowup(flat, 10.0) is None
    with pytest.raises(DomainError):
        detect_blowup(flat, 1.0)


def test_detect_resonance_basics():
    n = 64
    times = np.arange(n, dtype=float)
    # monotone drift through 2*pi: no resonance
    drifting = Trajectory(times, np.linspace(0, 8.0, n), np.ones(n))
    assert not detect_resonance(drifting, 32)
    # bounded oscillation of amplitude pi: resonance
    osc = Trajectory(times, math.pi * np.sin(times / 3.0), np.ones(n))
    assert detect_resonance(osc, 32)
    # oscillation that exceeds 2*pi does not count
    big = Trajectory(times, 7.0 * np.sin(times / 3.0), np.ones(n))
    assert not detect_resonance(big, 32)
    # flat phase has no extrema
    flat = Trajectory(times, np.zeros(n), np.ones(n))
    assert not detect_resonance(flat, 32)
    with pytest.raises(DomainError):
        detect_resonance(osc, 3)
    with pytest.raises(DomainError):
        detect_resonance(Trajectory([0.0, 1.0], [0.0, 0.0], [1.0, 1.0]), 4)


def test_trajectory_table_layout():
    t = Trajectory([0.0, 0.5], [0.1, 0.2], [1.0, 0.9])
    table = trajectory_table(t)
    assert table.columns == ("t", "mean_phase", "norm")
    assert len(table) == 2
    assert [r[2] for r in table.rows] == [1.0, 0.9]


def reference_plan(kind, V, p, dx, dt):
    # oracle for the in-place kernels: one allocating expression per
    # step, in the same floating-point order
    def neighbours(a, combine=np.add):
        a = np.concatenate((a[-1:], a, a[:1]))
        return combine(a[:-2], a[2:])

    def lap(a):
        out = np.zeros_like(a)
        out[1:-1] = a[2:] - 2.0 * a[1:-1] + a[:-2]
        return out

    if kind == "cn-printed":
        kappa = p.hbar / (p.D * dx * dx)
        drift_v = (2.0 / p.hbar) * V

        def step(prev, curr):
            new = prev + 1j * dt * (kappa * (lap(curr) + lap(prev))
                                    - drift_v * curr)
            new[0], new[-1] = curr[0], curr[-1]
            return new
    elif kind == "cn-standard":
        koff = 1j * p.hbar / (p.D * dx * dx)
        diag_m = -2.0 * koff - 1j * V / p.hbar
        half = 0.5 * dt
        diag = 1.0 - half * diag_m
        dl = np.full(V.size - 1, -half * koff)
        du = dl.copy()
        diag[0] = diag[-1] = 1.0
        du[0] = dl[-1] = 0.0
        solver = evolver._lu(dl, diag, du)

        def step(prev, curr):
            rhs = curr + half * (koff * neighbours(curr) + diag_m * curr)
            rhs[0], rhs[-1] = curr[0], curr[-1]
            if solver is None:
                return np.full_like(rhs, np.nan)
            return solver(rhs, overwrite_b=1)[0]
    else:
        combine = np.subtract if kind == "df-printed" else np.add
        r2 = -1j * dt * p.hbar / (p.D * dx * dx)
        a = r2 / (1.0 + r2)
        b = (1.0 - r2) / (1.0 + r2)
        pot = 1j * dt * (V / p.hbar)

        def step(prev, curr):
            new = a * neighbours(curr, combine) + b * prev - pot * curr
            new[0], new[-1] = curr[0], curr[-1]
            return new
    return step


def reference_evolve(kind, init, p, drive, dt, steps, plan=reference_plan):
    # oracle for the blocked loop: one finiteness check and one
    # phase/norm reduction of 1-D sums per level
    x, dx = init.grid(), init.dx
    driven = p.mu_E != 0.0 and drive.a_D != 0.0
    prev = curr = init.values
    truncated = False
    with np.errstate(over="ignore", invalid="ignore"):
        levels = [phase_norm(curr, x, dx)]
        step = plan(kind, model.washboard_potential(x, p), p, dx, dt)
        for n in range(steps):
            if driven and n:
                theta_n = p.theta + drive.a_D * (n * dt)
                if not math.isfinite(theta_n):
                    raise DomainError("non-finite physical parameter")
                step = plan(kind, model.washboard_potential(
                    x, replace(p, theta=theta_n)), p, dx, dt)
            new = step(prev, curr)
            if not np.isfinite(new).all():
                truncated = True
                break
            prev, curr = curr, new
            levels.append(phase_norm(curr, x, dx))
    return Trajectory(dt * np.arange(len(levels)), [ph for ph, _ in levels],
                      [norm for _, norm in levels], truncated=truncated)


def assert_trajectories_bitwise(t, ref):
    assert t.truncated == ref.truncated
    for name in ("times", "mean_phase", "norm"):
        got, want = getattr(t, name), getattr(ref, name)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64),
                                      want.view(np.int64))


DRIVEN = PhysicalParams(D=1.0, omega_p_sq=1.0, mu_E=0.012, theta=0.7)
KINDS = tuple(evolver._PLANS)


@pytest.mark.parametrize("steps", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("a_D", [0.0, 0.3], ids=["static", "driven"])
@pytest.mark.parametrize("kind", KINDS)
def test_evolve_matches_reference_bitwise(kind, a_D, steps):
    # block edges at 64 levels: runs of 2, 64, 65, 66 and 131 levels
    f = gaussian_packet(41, 0.1, x_c=0.5)
    drive = FieldDriveParams(a_D=a_D)
    t = evolve(kind, f, DRIVEN, drive, 2e-3, steps)
    ref = reference_evolve(kind, f, DRIVEN, drive, 2e-3, steps)
    assert not ref.truncated
    assert_trajectories_bitwise(t, ref)


@pytest.mark.parametrize("kind", KINDS)
def test_evolve_matches_reference_on_overflow(kind):
    # the printed schemes leave the finite range in mid-block (after 356
    # and 931 steps); the stable ones run all steps
    f = gaussian_packet(501, 0.05)
    p = PhysicalParams(D=1.0, omega_p_sq=1.0, mu_E=0.012, theta=2.0)
    drive = FieldDriveParams(a_D=0.0)
    t = evolve(kind, f, p, drive, 5e-3, 2000)
    ref = reference_evolve(kind, f, p, drive, 5e-3, 2000)
    assert ref.truncated == kind.endswith("-printed")
    assert_trajectories_bitwise(t, ref)


def poisoned(bad_level):
    # a plan whose step writing level `bad_level` leaves one NaN in it
    # (counted over every plan built, so also for a driven V); evolve
    # passes out, reference_evolve does not
    calls = [0]

    def plan(kind, V, p, dx, dt):
        inner = evolver._PLANS[kind](V, p, dx, dt)

        def step(prev, curr, out=None):
            new = inner(prev, curr,
                        np.empty_like(curr) if out is None else out)
            calls[0] += 1
            if calls[0] == bad_level:
                new[3] = np.nan
            return new
        return step
    return plan


@pytest.mark.parametrize("bad_level", [1, 2, 40, 63, 64, 65, 100, 127, 128])
@pytest.mark.parametrize("a_D", [0.0, 0.3], ids=["static", "driven"])
def test_evolve_truncation_lands_on_any_block_row(bad_level, a_D,
                                                  monkeypatch):
    # level 64k is the first row of a block and 64k - 1 its last
    f = gaussian_packet(41, 0.1, x_c=0.5)
    drive = FieldDriveParams(a_D=a_D)
    for kind in KINDS:
        ref = reference_evolve(kind, f, DRIVEN, drive, 2e-3, 130,
                               plan=poisoned(bad_level))
        plan = poisoned(bad_level)
        monkeypatch.setitem(evolver._PLANS, "poisoned",
                            lambda *args, kind=kind: plan(kind, *args))
        t = evolve("poisoned", f, DRIVEN, drive, 2e-3, 130)
        assert ref.truncated
        assert len(ref) == bad_level
        assert_trajectories_bitwise(t, ref)


# at dt = 1e-3 theta_n = theta + a_D*(n*dt) first overflows at n = 70,
# after the first block of 64 levels is recorded; a tilt of 5e-324
# rounds 0.5*mu_E to zero, so V stays finite (and equal to the static
# well) up to that step
TINY_TILT = PhysicalParams(D=1.0, omega_p_sq=1.0, mu_E=5e-324,
                           theta=1.7e308)
LATE_INF_DRIVE = FieldDriveParams(
    a_D=float(np.finfo(float).max - TINY_TILT.theta) / 0.0695)


@pytest.mark.parametrize("kind", KINDS)
def test_evolve_late_driving_phase_overflow_raises(kind):
    theta = [TINY_TILT.theta + LATE_INF_DRIVE.a_D * (n * 1e-3)
             for n in (69, 70)]
    assert math.isfinite(theta[0]) and not math.isfinite(theta[1])
    f = gaussian_packet(41, 0.1, x_c=0.5)
    for run in (evolve, reference_evolve):
        with pytest.raises(DomainError, match="non-finite physical"):
            run(kind, f, TINY_TILT, LATE_INF_DRIVE, 1e-3, 130)


@pytest.mark.parametrize("bad_level", [66, 70])
def test_evolve_truncation_before_late_phase_overflow(bad_level,
                                                      monkeypatch):
    # the field leaves the finite range in the pending block before
    # theta_70 overflows: the run is truncated, not an error
    f = gaussian_packet(41, 0.1, x_c=0.5)
    ref = reference_evolve("df-standard", f, TINY_TILT, LATE_INF_DRIVE,
                           1e-3, 130, plan=poisoned(bad_level))
    plan = poisoned(bad_level)
    monkeypatch.setitem(evolver._PLANS, "poisoned",
                        lambda *args: plan("df-standard", *args))
    t = evolve("poisoned", f, TINY_TILT, LATE_INF_DRIVE, 1e-3, 130)
    assert ref.truncated
    assert len(ref) == bad_level
    assert_trajectories_bitwise(t, ref)


@pytest.mark.parametrize("kind", KINDS)
def test_evolve_one_row_block_matches_reference(kind):
    # two levels of this grid exceed the block's 1 MiB, so every level
    # is a block of its own
    n = 40001
    assert 2 * 16 * n > evolver._BLOCK_BYTES
    f = gaussian_packet(n, 1e-3)
    for a_D in (0.0, 0.3):
        drive = FieldDriveParams(a_D=a_D)
        t = evolve(kind, f, DRIVEN, drive, 1e-6, 3)
        ref = reference_evolve(kind, f, DRIVEN, drive, 1e-6, 3)
        assert not ref.truncated
        assert_trajectories_bitwise(t, ref)


@pytest.mark.parametrize("kind", KINDS)
def test_plan_step_writes_into_out(kind):
    # the step fills and returns out, bit for bit the allocating
    # expressions, and leaves both inputs as they were
    rng = np.random.default_rng(38)
    prev, curr = random_pair(rng, n=17)
    V = potential_on_grid(curr, WELL)
    keep = prev.values.copy(), curr.values.copy()
    step = evolver._PLANS[kind](V, WELL, curr.dx, 2e-3)
    ref = reference_plan(kind, V, WELL, curr.dx, 2e-3)(
        prev.values.copy(), curr.values.copy())
    out = np.full(17, np.nan, dtype=complex)
    assert step(prev.values, curr.values, out) is out
    np.testing.assert_array_equal(out.view(np.int64), ref.view(np.int64))
    np.testing.assert_array_equal(prev.values, keep[0])
    np.testing.assert_array_equal(curr.values, keep[1])


@pytest.mark.parametrize("kind", KINDS)
def test_plan_step_allocates_less_than_a_level(kind):
    # a step writes into out and its own scratch: the traced peak over
    # 100 steps stays below one level of the grid (16 bytes a point)
    f = gaussian_packet(501, 0.05)
    step = evolver._PLANS[kind](potential_on_grid(f, WELL), WELL, f.dx,
                                2e-3)
    prev, curr, out = f.values.copy(), f.values * 0.5, np.empty_like(f.values)
    step(prev, curr, out)
    tracemalloc.start()
    try:
        for _ in range(100):
            step(prev, curr, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * f.values.size


def test_steppers_return_fresh_fields():
    # the public steppers allocate their result and leave both inputs
    # as they were
    rng = np.random.default_rng(39)
    prev, curr = random_pair(rng)
    keep = prev.values.copy(), curr.values.copy()
    steppers = [step_crank_nicolson_printed, step_dufort_frankel_printed,
                step_crank_nicolson_standard, step_dufort_frankel_standard]
    for stepper in steppers:
        out = stepper(prev, curr, WELL, 2e-3)
        assert isinstance(out, ComplexField)
        assert out is not prev and out is not curr
        assert not np.shares_memory(out.values, prev.values)
        assert not np.shares_memory(out.values, curr.values)
        np.testing.assert_array_equal(prev.values.view(np.int64),
                                      keep[0].view(np.int64))
        np.testing.assert_array_equal(curr.values.view(np.int64),
                                      keep[1].view(np.int64))
