import math

import numpy as np
import pytest

from cdwlab.errors import DiagnosticError, DomainError, FieldOverflowError
from cdwlab.sinegordon import (
    ChainState,
    KinkSpec,
    chain_acceleration,
    chain_energy,
    chain_trajectory_table,
    integrate_chain_rk4,
    kink_phase,
    kink_phase_rate,
    kink_velocity_estimate,
    sine_gordon_residual,
    thin_wall_profile,
)


def make_kink_chain(sites, omega0_sq, omega1_sq, center, beta, sign=1):
    """Discretized traveling kink with the matching velocity profile.

    Lattice spacing d=1, so v = omega0*d and z_i = (omega1/omega0)*(i-center).
    """
    k = KinkSpec(beta=beta, sign=sign)
    scale = math.sqrt(omega1_sq) / math.sqrt(omega0_sq)
    z = scale * (np.arange(sites) - center)
    phi = kink_phase(z, 0.0, k)
    phi_dot = math.sqrt(omega1_sq) * kink_phase_rate(z, 0.0, k)
    return ChainState(phi, phi_dot, omega0_sq, omega1_sq)


def test_kink_spec_validation():
    with pytest.raises(DomainError):
        KinkSpec(beta=1.0)
    with pytest.raises(DomainError):
        KinkSpec(beta=-1.5)
    with pytest.raises(DomainError):
        KinkSpec(sign=0)


def test_kink_phase_anchors():
    for beta in [0.0, 0.3, -0.9]:
        k = KinkSpec(beta=beta, sign=1)
        assert kink_phase(0.0, 0.0, k) == pytest.approx(math.pi, rel=1e-15)
    k = KinkSpec(beta=0.0, sign=1)
    assert kink_phase(40.0, 0.0, k) == pytest.approx(2 * math.pi, abs=1e-12)
    assert kink_phase(-40.0, 0.0, k) == pytest.approx(0.0, abs=1e-12)
    # antikink runs the other way
    ka = KinkSpec(beta=0.0, sign=-1)
    assert kink_phase(40.0, 0.0, ka) == pytest.approx(0.0, abs=1e-12)


def test_kink_phase_monotone_and_bounded():
    # strict growth checked inside the float-resolvable window; the
    # arctan saturates to its asymptote beyond |u| ~ 37
    k = KinkSpec(beta=0.5, sign=1)
    z = np.linspace(-15, 15, 1001)
    phi = kink_phase(z, 0.7, k)
    assert np.all(np.diff(phi) > 0)
    assert np.all(phi > 0)
    assert np.all(phi < 2 * math.pi)


def test_kink_translation_invariance():
    # profile depends only on z + beta*tau
    k = KinkSpec(beta=0.6, sign=1)
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = rng.uniform(-5, 5)
        tau = rng.uniform(-5, 5)
        delta = rng.uniform(-3, 3)
        a = kink_phase(z, tau + delta, k)
        b = kink_phase(z + k.beta * delta, tau, k)
        assert a == pytest.approx(b, rel=1e-12)


def test_kink_phase_rate_matches_difference_quotient():
    k = KinkSpec(beta=0.4, sign=-1)
    h = 1e-6
    for z in [-2.0, 0.0, 1.5]:
        num = (kink_phase(z, h, k) - kink_phase(z, -h, k)) / (2 * h)
        assert kink_phase_rate(z, 0.0, k) == pytest.approx(num, rel=1e-8)


def test_residual_zero_for_constant_solutions():
    n = 50
    for c in [0.0, math.pi]:
        lev = np.full(n, c)
        r = sine_gordon_residual(lev, lev, lev, 0.01, 0.01)
        assert r.shape == (n - 2,)
        assert np.max(np.abs(r)) <= 1e-14


def test_residual_small_on_analytic_kink():
    # truncation of second-order central differences on the exact solution
    dz = dtau = 0.01
    z = np.arange(-10.0, 10.0 + dz / 2, dz)
    for beta in [0.0, 0.5, -0.5]:
        k = KinkSpec(beta=beta, sign=1)
        prev = kink_phase(z, -dtau, k)
        curr = kink_phase(z, 0.0, k)
        nxt = kink_phase(z, dtau, k)
        r = sine_gordon_residual(prev, curr, nxt, dz, dtau)
        assert np.max(np.abs(r)) <= 1e-3


def test_residual_input_validation():
    with pytest.raises(DomainError):
        sine_gordon_residual([0, 0], [0, 0], [0, 0], 0.01, 0.01)
    with pytest.raises(DomainError):
        sine_gordon_residual([0, 0, 0], [0, 0, 0, 0], [0, 0, 0], 0.01, 0.01)
    with pytest.raises(DomainError):
        sine_gordon_residual([0, 0, 0], [0, 0, 0], [0, 0, 0], -0.01, 0.01)


def test_chain_state_validation():
    with pytest.raises(DomainError):
        ChainState([0.0, 0.0], [0.0, 0.0])
    with pytest.raises(DomainError):
        ChainState([0.0, 0.0, 0.0], [0.0, 0.0])
    with pytest.raises(DomainError):
        ChainState([0.0, math.nan, 0.0], [0.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        ChainState([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], omega0_sq=-1.0)
    # constructor copies its inputs
    src = np.zeros(4)
    s = ChainState(src, src)
    src[0] = 9.0
    assert s.phi[0] == 0.0


def test_chain_acceleration_anchors():
    s = ChainState(np.zeros(5), np.zeros(5))
    assert np.all(chain_acceleration(s) == 0.0)
    s = ChainState(np.full(5, math.pi), np.zeros(5))
    assert np.max(np.abs(chain_acceleration(s))) <= 1e-14
    s = ChainState([0.0, math.pi / 2, 0.0], np.zeros(3),
                   omega0_sq=1.0, omega1_sq=0.0)
    acc = chain_acceleration(s)
    assert acc[0] == 0.0 and acc[2] == 0.0
    assert acc[1] == pytest.approx(-math.pi, rel=1e-15)


def test_chain_acceleration_odd():
    rng = np.random.default_rng(17)
    phi = rng.uniform(-3, 3, size=9)
    s_plus = ChainState(phi, np.zeros(9), 2.0, 3.0)
    s_minus = ChainState(-phi, np.zeros(9), 2.0, 3.0)
    np.testing.assert_allclose(chain_acceleration(s_minus),
                               -chain_acceleration(s_plus),
                               rtol=1e-13, atol=1e-13)


def test_rk4_equilibrium_fixed_point():
    s = ChainState(np.zeros(6), np.zeros(6))
    snaps = integrate_chain_rk4(s, 0.01, 50, stride=10)
    assert len(snaps) == 6
    assert np.all(snaps[-1].phi == 0.0)
    assert np.all(snaps[-1].phi_dot == 0.0)


def test_rk4_single_pendulum_period():
    # small-amplitude pendulum: period 2*pi/omega1 within 0.1%
    omega1 = 2.0
    period = 2 * math.pi / omega1
    dt = period / 1000
    amp = 1e-3
    s = ChainState([0.0, amp, 0.0], [0.0, 0.0, 0.0],
                   omega0_sq=0.0, omega1_sq=omega1 ** 2)
    snaps = integrate_chain_rk4(s, dt, 2300, stride=1)
    mid = np.array([snap.phi[1] for snap in snaps])
    t = np.arange(len(mid)) * dt
    # upward zero crossings, linearly interpolated
    ups = []
    for i in range(len(mid) - 1):
        if mid[i] < 0.0 <= mid[i + 1]:
            frac = -mid[i] / (mid[i + 1] - mid[i])
            ups.append(t[i] + frac * dt)
    assert len(ups) >= 2
    measured = ups[1] - ups[0]
    assert abs(measured - period) / period < 1e-3


def test_rk4_overflow_reports_step():
    # far beyond the RK4 stability limit for the stiffest lattice mode
    s = make_kink_chain(64, 900.0, 1.0, 32, beta=0.0)
    with pytest.raises(FieldOverflowError) as exc:
        integrate_chain_rk4(s, 0.2, 2000)
    assert exc.value.step is not None
    assert exc.value.step >= 1


def test_rk4_argument_validation():
    s = ChainState(np.zeros(4), np.zeros(4))
    with pytest.raises(DomainError):
        integrate_chain_rk4(s, 0.0, 10)
    with pytest.raises(DomainError):
        integrate_chain_rk4(s, 0.01, 0)
    with pytest.raises(DomainError):
        integrate_chain_rk4(s, 0.01, 10, stride=0)


def test_chain_energy_conserved():
    # drift below 1e-6 relative over 1e4 RK4 steps at dt=1e-3
    s = make_kink_chain(200, 900.0, 1.0, 100, beta=0.3)
    e0 = chain_energy(s)
    snaps = integrate_chain_rk4(s, 1e-3, 10000, stride=10000)
    e1 = chain_energy(snaps[-1])
    assert abs(e1 - e0) / e0 < 1e-6


def test_velocity_estimate_exact_shift():
    # profile moving one lattice site per snapshot
    k = KinkSpec(beta=0.0, sign=1)
    scale = 1.0 / 30.0
    snaps = []
    for n in range(6):
        z = scale * (np.arange(300) - 100 - n)
        phi = kink_phase(z, 0.0, k)
        snaps.append(ChainState(phi, np.zeros(300), 900.0, 1.0))
    v = kink_velocity_estimate(snaps, dx_lattice=1.0, dt_snapshot=0.5)
    assert v == pytest.approx(1.0 / 0.5, rel=1e-12)


def test_velocity_estimate_stationary():
    s = make_kink_chain(200, 900.0, 1.0, 100, beta=0.0)
    snaps = integrate_chain_rk4(s, 0.002, 1000, stride=200)
    v = kink_velocity_estimate(snaps, 1.0, 0.4)
    assert abs(v) < 0.05


def test_velocity_estimate_traveling_kink():
    # v = omega0 * d = 30, target speed v*beta = 15 within 2%; the
    # profile depends on z + beta*tau, so it translates toward -x
    s = make_kink_chain(400, 900.0, 1.0, 240, beta=0.5)
    snaps = integrate_chain_rk4(s, 0.002, 3000, stride=100)
    v = kink_velocity_estimate(snaps, 1.0, 0.2)
    assert v < 0
    assert abs(abs(v) - 15.0) / 15.0 < 0.02


def test_velocity_estimate_diagnostics():
    flat = ChainState(np.zeros(10), np.zeros(10))
    with pytest.raises(DiagnosticError):
        kink_velocity_estimate([flat, flat], 1.0, 1.0)
    # a bump crossing pi twice
    x = np.linspace(-6, 6, 200)
    bump = thin_wall_profile(x, 2.0, -3.0, 3.0)
    s = ChainState(bump, np.zeros(200))
    with pytest.raises(DiagnosticError):
        kink_velocity_estimate([s, s], 1.0, 1.0)
    with pytest.raises(DomainError):
        kink_velocity_estimate([flat], 1.0, 1.0)


def test_thin_wall_profile_anchors():
    b, xa, xb = 3.0, -2.0, 2.0
    assert thin_wall_profile(0.0, b, xa, xb) == pytest.approx(
        2 * math.pi, abs=1e-4)
    assert thin_wall_profile(-50.0, b, xa, xb) == pytest.approx(0.0, abs=1e-12)
    expect = math.pi * math.tanh(b * (xb - xa))
    assert thin_wall_profile(xa, b, xa, xb) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(DomainError):
        thin_wall_profile(0.0, b, 2.0, -2.0)
    with pytest.raises(DomainError):
        thin_wall_profile(0.0, 0.0, -2.0, 2.0)


def test_thin_wall_box_limit():
    # pointwise convergence to the 2*pi box indicator away from the walls
    x = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
    inside = (x > -2.0) & (x < 2.0)
    for b in [5.0, 20.0, 80.0]:
        prof = thin_wall_profile(x, b, -2.0, 2.0)
        target = np.where(inside, 2 * math.pi, 0.0)
        err = np.max(np.abs(prof - target))
        assert err < 4 * math.pi * math.exp(-2 * b * 1.0)


def test_trajectory_table_layout():
    s = ChainState([0.0, 1.0, 2.0], [0.1, 0.2, 0.3])
    snaps = [s, s]
    table = chain_trajectory_table(snaps, 0.5)
    assert table.columns == ("t", "site", "phi", "phi_dot")
    assert len(table) == 6
    t, site, phi, _ = zip(*table.rows)
    assert t == (0.0, 0.0, 0.0, 0.5, 0.5, 0.5)
    assert site[:3] == (0.0, 1.0, 2.0)
    assert phi[4] == 1.0
