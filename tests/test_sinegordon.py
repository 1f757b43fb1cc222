import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_banded

from cdwlab import cli, sinegordon
from cdwlab.curves import format_number
from cdwlab.errors import DomainError, FieldOverflowError
from cdwlab.sinegordon import (
    ChainState,
    KinkSpec,
    chain_energy,
    chain_trajectory_table,
    integrate_chain_rk4,
    kink_chain,
    kink_phase,
    kink_phase_rate,
    kink_velocity_estimate,
    sine_gordon_residual,
    thin_wall_profile,
)


def _reference_force(phi, omega0_sq, omega1_sq):
    # the kernel's order: np.correlate sums w0*(1, -2, 1) . (left, mid,
    # right) left to right
    acc = np.zeros_like(phi)
    acc[1:-1] = (((omega0_sq * phi[:-2] + (-2.0 * omega0_sq) * phi[1:-1])
                  + omega0_sq * phi[2:]) - omega1_sq * np.sin(phi[1:-1]))
    return acc


def _textbook_force(phi, omega0_sq, omega1_sq):
    acc = np.zeros_like(phi)
    acc[1:-1] = (omega0_sq * (phi[2:] - 2.0 * phi[1:-1] + phi[:-2])
                 - omega1_sq * np.sin(phi[1:-1]))
    return acc


def reference_rk4(s, dt, steps, stride, textbook=False):
    """Allocating RK4 on separate phi / phi_dot arrays: the snapshots
    (phi, phi_dot) integrate_chain_rk4 must reproduce bit for bit, or
    ("overflow", step) when the state leaves the finite range.  Its
    update is np.dot of the stage weights with the stacked (4, 2m)
    derivatives.  textbook=True sums the Laplacian and the update term
    by term instead, (dt/6)*(k1 + 2 k2 + 2 k3 + k4): the same RK4 in
    another floating-point order, which the kernel matches within
    rounding only."""
    w0, w1 = s.omega0_sq, s.omega1_sq
    force = _textbook_force if textbook else _reference_force
    weights = dt / 6.0 * np.array((1.0, 2.0, 2.0, 1.0))

    def derivative(phi, dot):
        dphi = dot.copy()
        dphi[0] = dphi[-1] = 0.0
        return dphi, force(phi, w0, w1)

    phi, dot = s.phi.copy(), s.phi_dot.copy()
    snaps = [(phi, dot)]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, steps + 1):
            k1 = derivative(phi, dot)
            k2 = derivative(phi + 0.5 * dt * k1[0], dot + 0.5 * dt * k1[1])
            k3 = derivative(phi + 0.5 * dt * k2[0], dot + 0.5 * dt * k2[1])
            k4 = derivative(phi + dt * k3[0], dot + dt * k3[1])
            if textbook:
                phi = phi + (dt / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0]
                                          + k4[0])
                dot = dot + (dt / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1]
                                          + k4[1])
            else:
                ks = np.array([np.concatenate(k) for k in (k1, k2, k3, k4)])
                phi, dot = np.split(np.concatenate((phi, dot))
                                    + np.dot(weights, ks), 2)
            if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(dot))):
                return "overflow", n
            if n % stride == 0:
                snaps.append((phi, dot))
    return snaps


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


def test_kink_phase_rate_far_tail_is_zero():
    # cosh overflows to inf far from the core; 2/inf = 0 is the exact limit
    for k in [KinkSpec(beta=0.5), KinkSpec(beta=0.999999999, sign=-1)]:
        assert kink_phase_rate(1000.0, 0.0, k) == 0.0
        np.testing.assert_array_equal(
            kink_phase_rate(np.array([-1000.0, 1000.0]), 0.0, k), 0.0)


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


def chain_acceleration(s):
    # the RK4 step's in-place force, written into a buffer whose clamped
    # end sites stay 0
    acc = np.zeros_like(s.phi)
    stencil = s.omega0_sq * np.array((1.0, -2.0, 1.0))
    sinegordon._force(s.phi, s.phi[1:-1], stencil, s.omega1_sq, acc[1:-1],
                      np.empty(acc.size - 2))
    return acc


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
    # the in-place force is the allocating formula, bit for bit
    np.testing.assert_array_equal(chain_acceleration(s_plus),
                                  _reference_force(phi, 2.0, 3.0))


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


@pytest.mark.parametrize("s, dt, steps, stride", [
    (kink_chain(400, 900.0, 1.0, 240, KinkSpec(beta=0.5)), 0.004, 2500, 50),
    (kink_chain(400, 900.0, 1.0, 240, KinkSpec(beta=0.5)), 0.004, 7, 3),
    (ChainState([0.1, -0.0, 2.0], [-0.0, 0.3, 0.5], 2.0, 3.0), 0.01, 100, 9),
    (kink_chain(400, 900.0, 1.0, 240, KinkSpec(beta=-0.9, sign=-1)),
     0.004, 70, 7),
    # O(1) clamped-end velocities of both signs, a -0.0 end angle
    (ChainState([-0.0, 0.4, -0.3, 1.1, 2.0], [0.7, 0.2, -0.5, 0.1, -0.7],
                2.0, 3.0), 0.01, 40, 3),
], ids=["default-kink", "stride-not-dividing", "three-sites",
        "reversed-kink", "end-velocities"])
def test_rk4_matches_reference_bitwise(s, dt, steps, stride):
    snaps = integrate_chain_rk4(s, dt, steps, stride=stride)
    ref = reference_rk4(s, dt, steps, stride)
    assert len(snaps) == len(ref) == 1 + steps // stride
    for snap, (phi, dot) in zip(snaps, ref):
        # compared as integers, so the sign of a zero counts too
        np.testing.assert_array_equal(snap.phi.view(np.int64),
                                      phi.view(np.int64))
        np.testing.assert_array_equal(snap.phi_dot.view(np.int64),
                                      dot.view(np.int64))
        # the clamped ends' velocities are held outside the RK4 state
        np.testing.assert_array_equal(snap.phi_dot[[0, -1]].view(np.int64),
                                      dot[[0, -1]].view(np.int64))


def test_rk4_default_kink_within_rounding_of_the_textbook_order():
    # the same RK4 summed term by term: the default pendulum-kink run
    # stays within 1e-12 rad in phi and 1e-10 in phi_dot of it
    s = kink_chain(400, 900.0, 1.0, 240, KinkSpec(beta=0.5))
    snaps = integrate_chain_rk4(s, 0.004, 2500, stride=50)
    ref = reference_rk4(s, 0.004, 2500, 50, textbook=True)
    assert len(snaps) == len(ref) == 51
    assert max(np.max(np.abs(a.phi - phi)) for a, (phi, _) in
               zip(snaps, ref)) <= 1e-12
    assert max(np.max(np.abs(a.phi_dot - dot)) for a, (_, dot) in
               zip(snaps, ref)) <= 1e-10


@pytest.mark.parametrize("m", [3, 400])
def test_rk4_stage_block_reshapes_are_views(m):
    # the update's (4, 2m) derivatives and (2m,) state, as the kernel
    # builds them, write through to the (4, 3, m) stage block
    b = np.zeros((4, 3, m))
    assert np.shares_memory(b[:, 1:].reshape(4, 2 * m), b)
    assert np.shares_memory(b[0, :2].reshape(2 * m), b)


def test_pendulum_kink_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the Laplacian's ddot and the update's gemv go through BLAS
    cfg = tmp_path / "pk.cfg"
    cfg.write_text("experiment = pendulum-kink\nchain.sites = 5000\n"
                   "chain.steps = 50\n")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / ("pk-%s.csv" % threads)
        proc = subprocess.run(
            [sys.executable, "-m", "cdwlab.cli", str(cfg), "--output",
             str(out)], capture_output=True, text=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_rk4_peak_memory_does_not_grow_with_steps():
    # a step allocates nothing that outlives it: 1000 steps peak at most
    # one 400-site row above 10 steps (both runs return two snapshots)
    s = kink_chain(400, 900.0, 1.0, 240, KinkSpec(beta=0.5))
    integrate_chain_rk4(s, 0.004, 10, stride=10)
    peaks = []
    for steps in (10, 1000):
        tracemalloc.start()
        try:
            integrate_chain_rk4(s, 0.004, steps, stride=steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 8 * 400


def test_main_pendulum_kink_bytes_match_reference(tmp_path):
    # the whole pendulum-kink path, RK4 and CSV, against the allocating
    # reference written value by value
    cfg = tmp_path / "pk.cfg"
    cfg.write_text("experiment = pendulum-kink\nchain.sites = 40\n"
                   "chain.steps = 60\nchain.stride = 7\n")
    out = tmp_path / "pk.csv"
    assert cli.main([str(cfg), "--output", str(out)]) == 0
    s = kink_chain(40, 900.0, 1.0, 24.0, KinkSpec(beta=0.5))
    lines = ["t,site,phi,phi_dot"]
    for k, (phi, dot) in enumerate(reference_rk4(s, 0.004, 60, 7)):
        for i in range(40):
            lines.append(",".join(map(format_number, (
                k * (0.004 * 7), float(i), phi[i], dot[i]))))
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_rk4_snapshots_are_independent_copies():
    s = kink_chain(40, 900.0, 1.0, 24, KinkSpec(beta=0.5))
    snaps = integrate_chain_rk4(s, 0.004, 20, stride=5)
    ref = reference_rk4(s, 0.004, 20, 5)
    snaps[1].phi[:] = 7.0
    snaps[2].phi_dot[:] = 7.0
    s.phi[:] = 7.0
    s.phi_dot[:] = 7.0
    for i, snap in enumerate(snaps):
        if i != 1:
            np.testing.assert_array_equal(snap.phi, ref[i][0])
        if i != 2:
            np.testing.assert_array_equal(snap.phi_dot, ref[i][1])


@pytest.mark.parametrize("steps, stride", [
    (2000, 1), (2000, 7), (2000, 107), (2000, 108), (2000, 109),
    (2000, 5000), (108, 50)], ids=["stride-1", "stride-7", "stride-107",
                                   "stride-108", "stride-109", "stride-5000",
                                   "last-step"])
def test_rk4_overflow_reports_step(steps, stride):
    # far beyond the RK4 stability limit for the stiffest lattice mode:
    # the state first leaves the finite range at step 108, which the
    # run finds by replaying from its last snapshot (at the last step
    # when steps = 108)
    s = kink_chain(64, 900.0, 1.0, 32, KinkSpec(beta=0.0))
    kind, step = reference_rk4(s, 0.2, steps, stride)
    assert (kind, step) == ("overflow", 108)
    with pytest.raises(FieldOverflowError) as exc:
        integrate_chain_rk4(s, 0.2, steps, stride=stride)
    assert str(exc.value) == ("chain state became non-finite at step %d "
                              "of %d" % (step, steps))


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
    s = kink_chain(200, 900.0, 1.0, 100, KinkSpec(beta=0.3))
    e0 = chain_energy(s)
    snaps = integrate_chain_rk4(s, 1e-3, 10000, stride=10000)
    e1 = chain_energy(snaps[-1])
    assert abs(e1 - e0) / e0 < 1e-6


@pytest.mark.parametrize("beta", [0.0, 0.5, 0.9])
def test_kink_energy_saturates_the_bogomolnyi_bound(beta):
    # the default chain as pendulum-kink launches it: its energy over
    # the static bound 8*omega0*omega1*|Q| is the kink's gamma
    # (deviations 3.4e-3, 1.7e-3 and 1.8e-4)
    s = kink_chain(400, 900.0, 1.0, 240.0, KinkSpec(beta=beta))
    q = (s.phi[-1] - s.phi[0]) / (2 * math.pi)
    ratio = chain_energy(s) / (8 * 30.0 * 1.0 * abs(q))
    assert abs(ratio - 1.0 / math.sqrt(1.0 - beta * beta)) < 1e-2


def test_kink_antikink_pair_energy_against_separation():
    # a kink at z = -d/2 and an antikink at z = d/2, at rest and
    # unrelaxed, on 2001 sites of width ell = omega0/omega1 = 30: the
    # energy in units of two kinks rises towards 1 as 1 - 2 e^(-d)
    # (Perring & Skyrme 1962)
    ell = 30.0
    z = (np.arange(2001) - 1000.0) / ell
    k = KinkSpec()
    seps = [1.0, 2.0, 3.0, 4.0, 6.0, 8.0]
    pair = []
    for d in seps:
        phi = (kink_phase(z + 0.5 * d, 0.0, k)
               + kink_phase(-(z - 0.5 * d), 0.0, k) - 2 * math.pi)
        s = ChainState(phi, np.zeros_like(phi), ell * ell, 1.0)
        pair.append(chain_energy(s) / (16 * ell))
    assert np.all(np.diff(pair) > 0) and pair[-1] < 1.0
    for d, e in zip(seps, pair):
        if d >= 4:
            assert abs(e - (1.0 - 2.0 * math.exp(-d))) < 1e-2


def _right_pi_crossing(phi, x):
    # the one |phi| = pi crossing on x >= 0, linearly interpolated
    half = x.size // 2
    d = np.abs(phi[half:]) - math.pi
    hits = np.nonzero(d[:-1] * d[1:] < 0.0)[0]
    assert len(hits) == 1
    i = int(hits[0])
    return x[half + i] + d[i] / (d[i] - d[i + 1]) * (x[1] - x[0])


@pytest.mark.parametrize("beta", [0.2, 0.6])
def test_kink_antikink_pass_through_shift(beta):
    # the Perring-Skyrme solution 4*arctan(sinh(g*beta*t)/(beta*cosh(g*x))),
    # g = 1/sqrt(1 - beta^2), is a kink and an antikink that pass through
    # each other: far from t = 0 its |phi| = pi crossings sit at
    # +-(beta*|t| + shift/2), so each kink comes out shift =
    # 2*sqrt(1 - beta^2)*ln(1/beta) widths ahead of its incoming line.
    # Launched from it 30 widths apart on a chain whose kink is 10 sites
    # wide (omega1_sq = 1), the lattice reads 1.00022 and 1.00007 of it
    ell, dt, stride = 10, 0.02, 50
    g = 1.0 / math.sqrt(1.0 - beta * beta)
    shift = 2.0 * math.sqrt(1.0 - beta * beta) * math.log(1.0 / beta)
    t0 = -(15.0 - 0.5 * shift) / beta
    x = np.arange(-30 * ell, 30 * ell + 1) / ell
    u = math.sinh(g * beta * t0) / (beta * np.cosh(g * x))
    rate = 4.0 / (1.0 + u * u) * g * math.cosh(g * beta * t0) / np.cosh(g * x)
    steps = round(-2.0 * t0 / (dt * stride)) * stride
    snaps = integrate_chain_rk4(
        ChainState(4.0 * np.arctan(u), rate, ell * ell, 1.0), dt, steps,
        stride)
    t = t0 + np.arange(len(snaps)) * (dt * stride)
    # the lines of the crossing in the first and last quarter of the run,
    # both read off at the collision, t = 0
    q = len(snaps) // 4
    lines = [np.polyfit(t[part], [_right_pi_crossing(sn.phi, x)
                                  for sn in snaps[part]], 1)
             for part in (slice(None, q), slice(-q, None))]
    assert lines[0][0] == pytest.approx(-beta, rel=1e-3)
    assert lines[1][0] == pytest.approx(beta, rel=1e-3)
    assert abs((lines[0][1] + lines[1][1]) / shift - 1.0) < 2e-3


def static_kink(ell, centre):
    # the clamped chain of 40 ell + 41 sites at rest with a kink from 0
    # to 2 pi, Newton-solved for force 0 from the continuum kink centred
    # at site `centre`: each step is one tridiagonal solve of the force's
    # Jacobian, and the start's symmetry about its centre is kept
    sites, w = 40 * ell + 41, float(ell * ell)
    phi = 4.0 * np.arctan(np.exp((np.arange(sites) - centre) / ell))
    phi[0], phi[-1] = 0.0, 2.0 * math.pi
    jac = np.full((3, sites - 2), w)
    for _ in range(8):
        mid = phi[1:-1]
        force = w * (phi[2:] - 2.0 * mid + phi[:-2]) - np.sin(mid)
        jac[1] = -2.0 * w - np.cos(mid)
        phi[1:-1] -= solve_banded((1, 1), jac, force)
    mid = phi[1:-1]
    force = w * (phi[2:] - 2.0 * mid + phi[:-2]) - np.sin(mid)
    assert np.abs(force).max() <= 2e-14
    return chain_energy(ChainState(phi, np.zeros(sites), w, 1.0))


def test_peierls_nabarro_barrier_falls_as_exp_minus_pi_squared_ell():
    # a kink centred on a site is the saddle between two centred on
    # bonds, and the barrier between them falls as e^(-pi^2 ell) with the
    # kink's width ell (Peyrard & Kruskal, Physica D 14, 88, 1984).  The
    # prefactor 64 pi^2 ell^2 is a fit to these three widths, which read
    # 0.7763, 0.9249 and 0.9860 of it
    ratios = []
    for ell, ratio in ((1, 0.7763), (2, 0.9249), (3, 0.9860)):
        centre = 20.0 * ell + 20.0
        barrier = static_kink(ell, centre) - static_kink(ell, centre + 0.5)
        ratios.append(barrier * math.exp(math.pi ** 2 * ell)
                      / (64.0 * math.pi ** 2 * ell * ell))
        assert ratios[-1] == pytest.approx(ratio, rel=1e-3)
    assert 0.0 < ratios[0] < ratios[1] < ratios[2] < 1.0


def pair_spans(beta, d, sites, ell=1.5, dt=0.02, stride=50):
    # a kink and an antikink d widths apart on a chain whose kink is ell
    # sites wide, closing at beta each, run to twice the time they take
    # to meet plus 40: the span in sites between the outermost
    # |phi| = pi crossings at each snapshot (0 when there is none)
    z = (np.arange(sites) - 0.5 * (sites - 1)) / ell
    kink, anti = KinkSpec(-beta, 1), KinkSpec(beta, -1)
    phi = (kink_phase(z + 0.5 * d, 0.0, kink)
           + kink_phase(z - 0.5 * d, 0.0, anti) - 2.0 * math.pi)
    rate = (kink_phase_rate(z + 0.5 * d, 0.0, kink)
            + kink_phase_rate(z - 0.5 * d, 0.0, anti))
    steps = round((d / beta + 40.0) / (dt * stride)) * stride
    snaps = integrate_chain_rk4(ChainState(phi, rate, ell * ell, 1.0), dt,
                                steps, stride)
    spans = []
    for sn in snaps:
        a = np.abs(sn.phi) - math.pi
        i = np.nonzero(a[:-1] * a[1:] < 0.0)[0]
        x = i + a[i] / (a[i] - a[i + 1])
        spans.append(x[-1] - x[0] if i.size else 0.0)
    return np.array(spans)


@pytest.mark.parametrize("beta, captured", [(0.05, True), (0.12, False)])
def test_kink_antikink_capture_on_the_lattice(beta, captured):
    # the continuum pair passes through itself; the lattice radiates, and
    # below a critical speed the pair is captured into a bound S-S' pair
    # (Peyrard & Campbell, Physica D 9, 33, 1983).  20 widths apart at
    # ell = 1.5, the last ten snapshots read spans of at most 6.3 sites at
    # beta = 0.05 and at least 42 at beta = 0.12
    ell = 1.5
    spans = pair_spans(beta, 20.0, 300, ell)
    assert spans[0] == pytest.approx(20.0 * ell, rel=1e-2)
    if captured:
        assert spans[-10:].max() < 5.0 * ell
    else:
        assert spans[-10:].min() > 20.0 * ell


@pytest.mark.parametrize("omega", [0.6, 0.9])
def test_bound_pair_is_a_breather(omega):
    # the sine-Gordon breather 4*arctan(k/omega * sin(omega*t)/cosh(k*z)),
    # k = sqrt(1 - omega^2), is a kink and an antikink bound to each
    # other; it passes phi = 0 with phi_t = 4k/cosh(k z) and has energy
    # 16k in the chain's units (two kink masses of 8, times k).  Launched
    # from there on a chain whose kink is 10 sites wide, the middle site
    # crosses 0 every pi/omega: over three periods the lattice reads the
    # frequency 3.1e-4 and 3.0e-5 below omega, and the energy of 16 ell k
    # holds to 2.0e-10 and 9.3e-11
    ell, dt, stride = 10, 0.01, 5
    k = math.sqrt(1.0 - omega * omega)
    z = np.arange(-30 * ell, 30 * ell + 1) / ell
    steps = round(6.0 * math.pi / omega / (dt * stride)) * stride
    snaps = integrate_chain_rk4(
        ChainState(np.zeros(z.size), 4.0 * k / np.cosh(k * z), ell * ell,
                   1.0), dt, steps, stride)
    mid = np.array([sn.phi[z.size // 2] for sn in snaps])
    i = np.nonzero(mid[:-1] * mid[1:] < 0.0)[0]
    zeros = (i + mid[i] / (mid[i] - mid[i + 1])) * (dt * stride)
    assert len(zeros) >= 5
    freq = math.pi * (len(zeros) - 1) / (zeros[-1] - zeros[0])
    assert abs(freq - omega) < 5e-3
    law = 16.0 * ell * k
    for sn in snaps:
        assert abs(chain_energy(sn) / law - 1.0) < 1e-4


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
    s = kink_chain(200, 900.0, 1.0, 100, KinkSpec(beta=0.0))
    snaps = integrate_chain_rk4(s, 0.002, 1000, stride=200)
    v = kink_velocity_estimate(snaps, 1.0, 0.4)
    assert abs(v) < 0.05


def test_velocity_estimate_traveling_kink():
    # v = omega0 * d = 30, target speed v*beta = 15 within 2%; the
    # profile depends on z + beta*tau, so it translates toward -x
    s = kink_chain(400, 900.0, 1.0, 240, KinkSpec(beta=0.5))
    snaps = integrate_chain_rk4(s, 0.002, 3000, stride=100)
    v = kink_velocity_estimate(snaps, 1.0, 0.2)
    assert v < 0
    assert abs(abs(v) - 15.0) / 15.0 < 0.02


def test_velocity_estimate_diagnostics():
    flat = ChainState(np.zeros(10), np.zeros(10))
    with pytest.raises(DomainError, match="no phi = pi crossing"):
        kink_velocity_estimate([flat, flat], 1.0, 1.0)
    # a bump crossing pi twice
    x = np.linspace(-6, 6, 200)
    bump = thin_wall_profile(x, 2.0, 6.0)
    s = ChainState(bump, np.zeros(200))
    with pytest.raises(DomainError, match="multiple phi = pi crossings"):
        kink_velocity_estimate([s, s], 1.0, 1.0)
    with pytest.raises(DomainError):
        kink_velocity_estimate([flat], 1.0, 1.0)


def test_thin_wall_profile_anchors():
    b, L = 3.0, 4.0
    assert thin_wall_profile(0.0, b, L) == pytest.approx(2 * math.pi, abs=1e-4)
    assert thin_wall_profile(-50.0, b, L) == pytest.approx(0.0, abs=1e-12)
    expect = math.pi * math.tanh(b * L)
    assert thin_wall_profile(-0.5 * L, b, L) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(DomainError):
        thin_wall_profile(0.0, b, -4.0)
    with pytest.raises(DomainError):
        thin_wall_profile(0.0, 0.0, 4.0)


def test_thin_wall_profile_is_centred():
    x = np.linspace(-7.0, 7.0, 1001)
    for b, L in [(3.0, 4.0), (1e4, 1.0), (250.0, 0.37)]:
        assert np.array_equal(thin_wall_profile(-x, b, L),
                              thin_wall_profile(x, b, L))


def test_thin_wall_box_limit():
    # pointwise convergence to the 2*pi box indicator away from the walls
    x = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
    inside = (x > -2.0) & (x < 2.0)
    for b in [5.0, 20.0, 80.0]:
        prof = thin_wall_profile(x, b, 4.0)
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


@pytest.mark.parametrize("make, message", [
    (lambda: ChainState(np.zeros((2, 3)), np.zeros((2, 3))),
     "chain state must be 1-D"),
    (lambda: ChainState(np.zeros(3), np.zeros(3), 1.0, -1.0),
     "omega1_sq must be finite and >= 0"),
    (lambda: kink_velocity_estimate([ChainState(np.zeros(3), np.zeros(3))]
                                    * 2, 0.0, 1.0),
     "spacings must be positive"),
    (lambda: kink_velocity_estimate([ChainState(np.zeros(3), np.zeros(3))]
                                    * 2, 1.0, -1.0),
     "spacings must be positive")],
    ids=["not-1d", "omega1-negative", "dx-zero", "dt-negative"])
def test_chain_input_checks(make, message):
    with pytest.raises(DomainError, match=message):
        make()
