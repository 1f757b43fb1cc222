"""End-to-end acceptance checks for the lab.

One test per criterion; each prints a single verdict line with the
measured quantities so a failing run shows how far off it landed.
"""

import math
import time

import numpy as np
import pytest
from mpmath import mp

from cdwlab import cli, evolver
from cdwlab.model import FieldDriveParams, PhysicalParams
from cdwlab.sinegordon import (
    KinkSpec,
    chain_energy,
    integrate_chain_rk4,
    kink_chain,
    kink_phase,
    kink_velocity_estimate,
    sine_gordon_residual,
)
from cdwlab.tunneling import (
    CurrentParams,
    current_beckwith,
    current_zener,
    erf,
    gaussian_norm_constant,
    thin_wall_fourier_check,
)
from cdwlab.variational import (
    AnsatzCoeffs,
    QuadratureSpec,
    count_local_minima,
    energy_expectation,
    phase_jumps,
    sweep_theta,
)

WELL = PhysicalParams(D=1.0, omega_p_sq=1.0, mu_E=0.012, theta=2.0)
THETA_GRID = np.linspace(-4 * math.pi, 4 * math.pi, 81)


def verdict(num, name, ok, detail):
    line = "criterion %02d %-24s %s  [%s]" % (
        num, name, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def coupled_sweep():
    t0 = time.perf_counter()
    res = sweep_theta(PhysicalParams(), THETA_GRID)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def decoupled_sweep():
    return sweep_theta(PhysicalParams(delta_prime=0.0), THETA_GRID)


def test_criterion_01_kink_residual():
    t0 = time.perf_counter()
    dz = dtau = 0.01
    z = np.arange(-10.0, 10.0 + 0.5 * dz, dz)
    worst = 0.0
    for beta in (0.0, 0.5, -0.5):
        k = KinkSpec(beta=beta, sign=1)
        r = sine_gordon_residual(kink_phase(z, -dtau, k),
                                 kink_phase(z, 0.0, k),
                                 kink_phase(z, dtau, k), dz, dtau)
        worst = max(worst, float(np.max(np.abs(r))))
    el = time.perf_counter() - t0
    verdict(1, "kink residual", worst <= 1e-3 and el < 5.0,
            "max|r|=%.3e t=%.2fs" % (worst, el))


def test_criterion_02_traveling_wave_speed():
    t0 = time.perf_counter()
    m, w0, w1, center, beta = 2000, 900.0, 1.0, 1000, 0.5
    state = kink_chain(m, w0, w1, center, KinkSpec(beta=beta, sign=1))
    e0 = chain_energy(state)
    snaps = integrate_chain_rk4(state, 0.002, 12500, stride=125)
    speed = abs(kink_velocity_estimate(snaps, 1.0, 0.002 * 125))
    drift = max(abs(chain_energy(s) - e0) for s in snaps) / e0
    el = time.perf_counter() - t0
    target = math.sqrt(w0) * beta
    rel = abs(speed - target) / target
    verdict(2, "traveling-wave speed",
            rel < 0.02 and drift < 1e-6 and el < 30.0,
            "speed=%.4f (target %.1f, rel %.4f) drift=%.2e t=%.1fs"
            % (speed, target, rel, drift, el))


def test_criterion_03_single_chain_phenomenology():
    init = evolver.gaussian_packet(501, 0.05, x_c=1.0)
    drive = FieldDriveParams()
    traj = evolver.evolve("cn-standard", init, WELL, drive, 0.005, 10000)
    peak = max(abs(v) for v in traj.mean_phase)
    resonant = evolver.detect_resonance(traj, 8000)
    blow = evolver.evolve("cn-printed", init, WELL, drive, 0.0008, 1000)
    idx = evolver.detect_blowup(blow, 10.0)
    ok = (peak < 2 * math.pi) and resonant and idx is not None and idx <= 1000
    verdict(3, "single-chain behavior", ok,
            "max|<phi>|=%.3f resonance=%s blowup_step=%s"
            % (peak, resonant, idx))


def test_criterion_04_norm_conservation():
    free = PhysicalParams(D=1.0, omega_p_sq=0.0, mu_E=0.0, theta=0.0)
    init = evolver.gaussian_packet(501, 0.05)
    traj = evolver.evolve("cn-standard", init, free, FieldDriveParams(),
                          0.005, 1000)
    norms = np.array(traj.norm)
    drift = float(np.max(np.abs(norms - norms[0])) / norms[0])
    verdict(4, "norm conservation", drift < 1e-10, "drift=%.3e" % drift)


def test_criterion_05_band_minima(coupled_sweep):
    res, el = coupled_sweep
    n = count_local_minima([row.e_min for row in res.rows])
    conv = sum(1 for row in res.rows if row.converged)
    verdict(5, "band-structure minima", n == 5 and el < 600.0,
            "local_minima=%d (need 5) converged=%d/%d sweep_t=%.0fs"
            % (n, conv, len(res.rows), el))


def test_criterion_06_phase_staircase(coupled_sweep, decoupled_sweep):
    res, _ = coupled_sweep
    tol = 0.15 * 2 * math.pi

    def two_pi_jumps(rows):
        jumps = phase_jumps([row.mean_phi for row in rows])
        return [j for j in jumps if abs(abs(j) - 2 * math.pi) <= tol]

    with_coupling = two_pi_jumps(res.rows)
    without = two_pi_jumps(decoupled_sweep.rows)
    ok = len(with_coupling) >= 1 and len(without) == 0
    verdict(6, "tunneling staircase", ok,
            "2pi_jumps coupled=%d (need >=1) decoupled=%d (need 0)"
            % (len(with_coupling), len(without)))


def test_criterion_07_kinetic_anchor():
    center = (0.0, 0.0, 1.0, 0.0, 0.0)
    a = AnsatzCoeffs(center, center, 1.0)
    free = PhysicalParams(E1=0.0, E2=0.0, delta_prime=0.0)
    e = energy_expectation(a, free, 0.0, QuadratureSpec(20.0, 160, 12))
    ref = 1.0 / 174.091
    rel = abs(e - ref) / ref
    verdict(7, "kinetic anchor", rel < 1e-8,
            "E=%.12e ref=%.12e rel=%.2e" % (e, ref, rel))


def test_criterion_08_current_positivity():
    cp = CurrentParams()
    grid = 5.0 * cp.E_T * cp.c_v * np.arange(1, 1001) / 1000.0
    beck = np.array([current_beckwith(E, cp) for E in grid])
    below = grid[grid < cp.E_T * cp.c_v]
    zener_neg = all(current_zener(E, cp, gated=False) < 0.0 for E in below)
    zener_zero = all(current_zener(E, cp) == 0.0 for E in below)
    anchor = current_beckwith(cp.E_T * cp.c_v / math.sqrt(2.0), cp)
    anchor_err = abs(anchor - math.exp(-math.sqrt(2.0)))
    ok = (np.all(beck > 0.0) and zener_neg and zener_zero
          and anchor_err < 1e-12)
    verdict(8, "current positivity", ok,
            "min I=%.3e zener_neg=%s zener_gate=%s anchor_err=%.1e"
            % (float(np.min(beck)), zener_neg, zener_zero, anchor_err))


def test_criterion_09_fourier_cross_check():
    dev = thin_wall_fourier_check(1.0, 1.0e4, 10, 16.0)
    verdict(9, "fourier cross-check", dev <= 0.01, "max_rel_dev=%.3e" % dev)


def _erf_series_mp(x):
    # brute-force Maclaurin sum at 50 significant digits
    x = mp.mpf(x)
    if x == 0:
        return mp.mpf(0)
    term = x
    total = x
    n = 0
    while abs(term) > mp.mpf("1e-60"):
        n += 1
        term *= -x * x * (2 * n - 1) / (n * (2 * n + 1))
        total += term
    return 2 / mp.sqrt(mp.pi) * total


def test_criterion_10_special_functions():
    mp.dps = 50
    xs = np.arange(0.0, 5.0 + 0.005, 0.01)
    worst_erf = max(abs(erf(float(x)) - float(_erf_series_mp(x)))
                    for x in xs)

    rng = np.random.default_rng(77)
    worst_norm = 0.0
    n = 8000
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    for _ in range(100):
        a = rng.uniform(0.05, 3.0)
        upper = rng.uniform(0.3, 6.0)
        c = gaussian_norm_constant(a, upper)
        x = np.linspace(0.0, upper, n + 1)
        y = (c * np.exp(-a * x * x)) ** 2
        integral = (upper / n) / 3.0 * float(np.dot(w, y))
        worst_norm = max(worst_norm, abs(integral - 1.0))
    ok = worst_erf < 1e-12 and worst_norm < 1e-10
    verdict(10, "special functions", ok,
            "erf_dev=%.2e norm_resid=%.2e" % (worst_erf, worst_norm))


def test_criterion_11_determinism(tmp_path):
    runs = {
        "iv.cfg": "experiment = iv-curve\niv.points = 200\nseed = 5\n",
        "sc.cfg": ("experiment = single-chain\nevolver.n = 101\n"
                   "evolver.steps = 200\nseed = 5\n"),
    }
    identical = True
    for name, text in runs.items():
        cfg = tmp_path / name
        cfg.write_text(text)
        a = tmp_path / (name + ".a.csv")
        b = tmp_path / (name + ".b.csv")
        assert cli.main([str(cfg), "--output", str(a)]) == 0
        assert cli.main([str(cfg), "--output", str(b)]) == 0
        identical = identical and a.read_bytes() == b.read_bytes()
    verdict(11, "determinism", identical,
            "byte-identical reruns across %d experiments" % len(runs))
