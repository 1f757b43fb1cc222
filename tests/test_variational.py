import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from cdwlab import variational
from cdwlab.errors import DomainError, QuadratureError
from cdwlab.model import PhysicalParams
from cdwlab.variational import (
    CENTERS,
    AnsatzCoeffs,
    QuadratureSpec,
    SweepResult,
    SweepRow,
    count_local_minima,
    energy_expectation,
    phase_expectation,
    phase_jumps,
    sweep_theta,
)

Q = QuadratureSpec()
QF = QuadratureSpec(eta=20.0, panels=160, order=12)
STD = PhysicalParams()
DECOUPLED = PhysicalParams(delta_prime=0.0)
FREE = PhysicalParams(E1=0.0, E2=0.0, delta_prime=0.0)
# the 81-point acceptance grid and its three points around theta = 0
GRID = np.linspace(-4 * math.pi, 4 * math.pi, 81)
SLICE = GRID[39:42]

E2ONLY = (0.0, 0.0, 1.0, 0.0, 0.0)


def assert_unit_combs(a, tol):
    # both comb vectors have unit Euclidean length
    for v in (a.b, a.c):
        assert abs(sum(x * x for x in v) - 1.0) <= tol


def comb_1d(phi, coeff, alpha):
    # independent comb evaluation for the oracles below
    phi = np.asarray(phi, dtype=float)
    out = np.zeros_like(phi)
    for m, cm in zip(range(-2, 3), coeff):
        out += cm * np.exp(-alpha * (phi - 2 * math.pi * m) ** 2)
    return out


def comb_1d_ddot(phi, coeff, alpha):
    phi = np.asarray(phi, dtype=float)
    out = np.zeros_like(phi)
    for m, cm in zip(range(-2, 3), coeff):
        d = phi - 2 * math.pi * m
        out += cm * (4 * alpha * alpha * d * d
                     - 2 * alpha) * np.exp(-alpha * d * d)
    return out


def gl_points(q):
    base_x, base_w = np.polynomial.legendre.leggauss(q.order)
    edges = np.linspace(-q.eta * math.pi, q.eta * math.pi, q.panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    w = (half[:, None] * base_w[None, :]).ravel()
    return x, w


def energy_2d_oracle(a, p, theta, q):
    """Direct tensor-product 2-D evaluation of <H>/<1>, no separable
    shortcuts: checks the factorized moment algebra end to end."""
    x, w = gl_points(q)
    u1 = comb_1d(x, a.b, a.alpha)
    u2 = comb_1d(x, a.c, a.alpha)
    t1 = comb_1d_ddot(x, a.b, a.alpha)
    t2 = comb_1d_ddot(x, a.c, a.alpha)
    W = np.outer(w, w)
    psi2 = np.outer(u1 * u1, u2 * u2)
    kin = -(p.hbar ** 2 / (2 * p.D1)) * (
        np.sum(W * np.outer(u1 * t1, u2 * u2))
        + np.sum(W * np.outer(u1 * u1, u2 * t2)))
    pot = (p.E1 * ((1 - np.cos(x))[:, None] + (1 - np.cos(x))[None, :])
           + p.E2 * (((x - theta) ** 2)[:, None] + ((x - theta) ** 2)[None, :])
           + p.delta_prime * (1 - np.cos(x[:, None] - x[None, :])))
    num = kin + np.sum(W * psi2 * pot)
    return num / np.sum(W * psi2)


# The scalar minimizer the stacked one replaced, kept as its oracle: one
# (theta, alpha) point at a time, scipy's generalized eigh (LAPACK sygvx)
# for every half step, and a scalar golden-section search per theta.

def _ref_matrices(p, alpha, theta):
    s = math.sqrt(math.pi / (2.0 * alpha)) * np.exp(
        -0.5 * alpha * variational._DELTA2)
    c = variational._PARITY * math.exp(-0.125 / alpha) * s
    kin = p.hbar * p.hbar / (2.0 * p.D1) * (
        alpha - alpha * alpha * variational._DELTA2)
    chg = p.E2 * ((variational._MU - theta) ** 2 + 0.25 / alpha)
    h = (kin + p.E1 + chg) * s - p.E1 * c
    return s, h, c, variational._MU * s


def _ref_ground(a, s):
    w, v = eigh(a, s, subset_by_index=(0, 1), check_finite=False)
    g = v[:, 0] / np.linalg.norm(v[:, 0])
    return (-g if g.sum() < 0 else g), float(w[1] - w[0])


def _ref_quotient(m, s, v):
    return float(v @ m @ v) / float(v @ s @ v)


def _ref_energy(mats, dp, b, c):
    s, h, cos, _ = mats
    return (_ref_quotient(h, s, b) + _ref_quotient(h, s, c)
            + dp * (1.0 - _ref_quotient(cos, s, b)
                    * _ref_quotient(cos, s, c)))


def _ref_reduced(mats, dp, c):
    s, h, cos, _ = mats
    return _ref_ground(h - dp * _ref_quotient(cos, s, c) * cos, s)


def reference_alternate(p, theta, log_alpha):
    alpha = math.exp(log_alpha)
    mats = _ref_matrices(p, alpha, theta)
    c = _ref_ground(mats[1], mats[0])[0]
    e_prev = math.inf
    for _ in range(variational._MAX_ALTERNATIONS):
        b, gap = _ref_reduced(mats, p.delta_prime, c)
        e = _ref_energy(mats, p.delta_prime, b, c)
        conv = e_prev - e <= variational._ETOL * abs(e)
        if conv:
            break
        e_prev = e
        b, c = c, b
    return e, conv, b, c, gap, alpha, mats


def _ref_golden(f, lo, hi):
    invphi = variational._INVPHI
    x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > variational._LOG_ALPHA_TOL:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)


def reference_minimize(p, theta):
    seen = []

    def run(la):
        seen.append(reference_alternate(p, theta, la))
        return seen[-1][0]

    step = variational._LOG_ALPHA_STEP
    las = list(variational._LOG_ALPHA_SCAN)
    es = [run(la) for la in las]
    lo, hi = variational._LOG_ALPHA_LIMITS
    while es[0] == min(es) and las[0] - step >= lo:
        las.insert(0, las[0] - step)
        es.insert(0, run(las[0]))
    while es[-1] == min(es) and las[-1] + step <= hi:
        las.append(las[-1] + step)
        es.append(run(las[-1]))
    i = int(np.argmin(es))
    interior = 0 < i < len(las) - 1
    if interior:
        _ref_golden(run, las[i - 1], las[i + 1])
    e, conv, b, c, gap, alpha, mats = min(seen, key=lambda r: r[0])
    phi = 0.5 * (_ref_quotient(mats[3], mats[0], b)
                 + _ref_quotient(mats[3], mats[0], c))
    return SweepRow(theta, e, phi, interior and conv,
                    AnsatzCoeffs(tuple(b), tuple(c), alpha), gap)


def two_pi_jumps(rows):
    # criterion 6's count: staircase jumps within 15% of 2 pi
    jumps = phase_jumps([row.mean_phi for row in rows])
    return sum(abs(abs(j) - 2 * math.pi) <= 0.15 * 2 * math.pi
               for j in jumps)


def assert_matches_reference(rows, p, e_rtol=1e-14):
    ref = [reference_minimize(p, row.theta) for row in rows]
    assert [r.converged for r in rows] == [r.converged for r in ref]
    for row, r in zip(rows, ref):
        assert abs(row.e_min - r.e_min) <= e_rtol * abs(r.e_min)
        assert abs(row.mean_phi - r.mean_phi) <= 1e-6
        # alpha is refined to a 1e-6 bracket in log alpha, so it and the
        # combs may move by about that much; the sign convention may not
        assert row.coeffs.alpha == pytest.approx(r.coeffs.alpha, rel=1e-5)
        assert np.allclose(row.coeffs.b + row.coeffs.c,
                           r.coeffs.b + r.coeffs.c, rtol=0, atol=1e-5)
    for count in (two_pi_jumps,
                  lambda rs: count_local_minima([r.e_min for r in rs])):
        assert count(rows) == count(ref)


def energy_at(p, theta, log_alphas):
    """Energies of _alternate at one theta over an array of log alphas."""
    las = np.atleast_1d(np.asarray(log_alphas, dtype=float))
    return variational._alternate(p, np.full(las.size, theta),
                                  las)[:, variational._E]


@pytest.fixture(scope="module")
def grid_sweeps():
    return {p: sweep_theta(p, GRID).rows for p in (STD, DECOUPLED)}


def test_quadrature_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(eta=0.0)
    with pytest.raises(DomainError):
        QuadratureSpec(panels=0)
    with pytest.raises(DomainError):
        QuadratureSpec(order=1)


def test_ansatz_coeffs_validation():
    with pytest.raises(DomainError):
        AnsatzCoeffs((1.0,) * 4, (0.0,) * 5, 1.0)
    with pytest.raises(DomainError):
        AnsatzCoeffs(E2ONLY, E2ONLY, 0.0)
    with pytest.raises(DomainError):
        AnsatzCoeffs((math.nan,) + (0.0,) * 4, E2ONLY, 1.0)
    a = AnsatzCoeffs((2.0, 0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 3.0, 0.0, 0.0),
                     1.0)
    proj = a.projected()
    assert proj.b == (1.0, 0.0, 0.0, 0.0, 0.0)
    assert proj.c == E2ONLY
    with pytest.raises(DomainError):
        AnsatzCoeffs((0.0,) * 5, E2ONLY, 1.0).projected()


def test_norm_squared_quadrature_failure():
    # a comb far narrower than the node spacing underflows to a zero
    # ansatz norm
    a = AnsatzCoeffs(E2ONLY, E2ONLY, 1e12)
    with pytest.raises(QuadratureError):
        energy_expectation(a, STD, 0.0, Q)


def test_energy_kinetic_anchor():
    # decoupled chains, one centered Gaussian each: E = hbar^2*alpha/D1
    a = AnsatzCoeffs(E2ONLY, E2ONLY, 1.0)
    e = energy_expectation(a, FREE, 0.0, QF)
    assert abs(e - 1.0 / 174.091) / (1.0 / 174.091) < 1e-8
    # default quadrature stays within a relaxed tolerance
    e0 = energy_expectation(a, FREE, 0.0, Q)
    assert abs(e0 - 1.0 / 174.091) / (1.0 / 174.091) < 1e-6


def test_energy_linear_in_potential_strength():
    # the normalized expectation is affine in each potential coefficient
    a = AnsatzCoeffs((0.1, 0.4, 0.8, 0.3, 0.1), (0.2, 0.3, 0.9, 0.1, 0.05),
                     0.3).projected()
    es = [energy_expectation(
        a, PhysicalParams(E1=k * 1e-5, E2=0.0, delta_prime=0.0), 0.5, Q)
        for k in range(3)]
    assert es[2] - es[1] == pytest.approx(es[1] - es[0], rel=1e-10)


def test_energy_exchange_symmetry():
    b = (0.1, 0.4, 0.8, 0.3, 0.1)
    c = (0.2, 0.3, 0.9, 0.1, 0.05)
    a = AnsatzCoeffs(b, c, 0.3).projected()
    sw = AnsatzCoeffs(c, b, 0.3).projected()
    assert energy_expectation(a, STD, 0.0, Q) == pytest.approx(
        energy_expectation(sw, STD, 0.0, Q), rel=1e-13)


def test_energy_sign_flip_invariance():
    b = (0.1, 0.4, 0.8, 0.3, 0.1)
    c = (0.2, 0.3, 0.9, 0.1, 0.05)
    a = AnsatzCoeffs(b, c, 0.3).projected()
    flip_b = AnsatzCoeffs(tuple(-v for v in a.b), a.c, 0.3)
    flip_c = AnsatzCoeffs(a.b, tuple(-v for v in a.c), 0.3)
    e = energy_expectation(a, STD, 0.9, Q)
    assert energy_expectation(flip_b, STD, 0.9, Q) == pytest.approx(
        e, rel=1e-13)
    assert energy_expectation(flip_c, STD, 0.9, Q) == pytest.approx(
        e, rel=1e-13)


def test_energy_relabel_invariance_without_charging():
    # shifting both combs one period is invisible to the E2-free
    # Hamiltonian; truncation at eta=20 is far below 1e-8
    p = PhysicalParams(E2=0.0)
    a1 = AnsatzCoeffs((0.1, 0.5, 0.7, 0.2, 0.0), (0.3, 0.4, 0.6, 0.1, 0.0),
                      0.3).projected()
    a2 = AnsatzCoeffs((0.0, 0.1, 0.5, 0.7, 0.2), (0.0, 0.3, 0.4, 0.6, 0.1),
                      0.3).projected()
    for theta in [0.0, 1.3]:
        d = abs(energy_expectation(a1, p, theta, Q)
                - energy_expectation(a2, p, theta, Q))
        assert d < 1e-8


def test_energy_panel_doubling_converged():
    a = AnsatzCoeffs((0.1, 0.5, 0.7, 0.2, 0.1), (0.3, 0.4, 0.6, 0.1, 0.2),
                     0.05).projected()
    for alpha in [0.05, 0.3]:
        aa = AnsatzCoeffs(a.b, a.c, alpha)
        e1 = energy_expectation(aa, STD, 0.7, QuadratureSpec(20.0, 80, 8))
        e2 = energy_expectation(aa, STD, 0.7, QuadratureSpec(20.0, 160, 8))
        assert abs(e1 - e2) < 1e-8


def test_energy_matches_2d_oracle():
    # direct 2-D tensor quadrature against the factorized moments, on
    # the identical node set: only the algebra differs
    q = QuadratureSpec(eta=20.0, panels=40, order=6)
    a = AnsatzCoeffs((0.15, 0.45, 0.78, 0.31, 0.08),
                     (0.05, 0.38, 0.84, 0.25, 0.12), 0.31).projected()
    for theta in [0.0, 0.4]:
        e = energy_expectation(a, STD, theta, q)
        ref = energy_2d_oracle(a, STD, theta, q)
        assert e == pytest.approx(ref, rel=1e-10)


def test_energy_kinetic_matches_stencil():
    # 5-point finite-difference second derivative against the analytic
    # comb curvature, through the full decoupled energy
    a = AnsatzCoeffs((0.1, 0.4, 0.8, 0.3, 0.1), (0.2, 0.3, 0.9, 0.1, 0.05),
                     0.45).projected()
    x, w = gl_points(Q)
    h = 1e-3
    total = []
    for coeff in (a.b, a.c):
        u = comb_1d(x, coeff, a.alpha)
        upp = (-comb_1d(x + 2 * h, coeff, a.alpha)
               + 16 * comb_1d(x + h, coeff, a.alpha)
               - 30 * u
               + 16 * comb_1d(x - h, coeff, a.alpha)
               - comb_1d(x - 2 * h, coeff, a.alpha)) / (12 * h * h)
        n = np.sum(w * u * u)
        kin = -(STD.hbar ** 2 / (2 * STD.D1)) * np.sum(w * u * upp)
        total.append(kin / n)
    ref = sum(total)
    e = energy_expectation(a, FREE, 0.0, Q)
    assert abs(e - ref) / abs(ref) < 1e-6


def test_minimize_kinetic_only_runs_downhill():
    # with no potential the energy is hbar^2 alpha / D1, which has no
    # minimum in alpha: the search runs down to its lower alpha limit
    # and reports no convergence, and its best point must still end at
    # least as low as a single alpha=1 tooth
    e_init = energy_expectation(AnsatzCoeffs(E2ONLY, E2ONLY, 1.0), FREE,
                                0.0, Q)
    row = sweep_theta(FREE, [0.0]).rows[0]
    assert not row.converged
    coeffs, e = row.coeffs, row.e_min
    assert_unit_combs(coeffs, 1e-10)
    assert e <= e_init + 1e-12
    lo = variational._LOG_ALPHA_LIMITS[0]
    assert lo <= math.log(coeffs.alpha) < lo + variational._LOG_ALPHA_STEP


@pytest.mark.parametrize("p", [PhysicalParams(E1=1.0),
                               PhysicalParams(hbar=1e-3)])
def test_minimize_finds_alpha_beyond_the_scan(p):
    # both optima lie above the coarse scan's top alpha: the scan must be
    # extended until the energy rises, and alpha refined inside that
    top = variational._LOG_ALPHA_SCAN[-1]
    row = sweep_theta(p, [0.3]).rows[0]
    assert row.converged
    coeffs, e = row.coeffs, row.e_min
    assert math.log(coeffs.alpha) > top + variational._LOG_ALPHA_STEP
    assert e < energy_at(p, 0.3, top)[0]
    la = math.log(coeffs.alpha)
    assert (energy_at(p, 0.3, [la - 1e-3, la + 1e-3]) >= e).all()


def test_minimize_theta_zero_symmetric_and_near_grid_scan():
    # coarse scan over (b0, b1 = b_-1, alpha) with b2 fixed by the norm
    row = sweep_theta(STD, [0.0]).rows[0]
    coeffs, e = row.coeffs, row.e_min
    b = np.array(coeffs.b)
    assert np.max(np.abs(b - b[::-1])) < 0.02
    assert abs(phase_expectation(coeffs, Q)) < 0.05

    best = math.inf
    for b0 in np.linspace(0.5, 1.0, 11):
        for b1 in np.linspace(0.0, 0.6, 13):
            rem = 1.0 - b0 * b0 - 2 * b1 * b1
            if rem < 0:
                continue
            b2 = math.sqrt(rem / 2.0)
            comb = (b2, b1, b0, b1, b2)
            for la in np.linspace(math.log(0.05), math.log(2.0), 15):
                a = AnsatzCoeffs(comb, comb, math.exp(la))
                best = min(best, energy_expectation(a, STD, 0.0, Q))
    assert e <= best + 1e-12
    assert abs(e - best) / abs(best) < 0.01


COEFF = st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5).filter(
    lambda v: np.linalg.norm(v) >= 0.1)


@settings(derandomize=True, deadline=None)
@given(b=COEFF, c=COEFF, alpha=st.floats(0.02, 5.0),
       theta=st.floats(-4 * math.pi, 4 * math.pi))
def test_closed_form_matches_quadrature_oracle(b, c, alpha, theta):
    # the exact comb moments against fine quadrature on [-20 pi, 20 pi];
    # both agree to ~1e-12 relative.  The mean phase also gets an
    # absolute 1e-9: it vanishes for mirror-symmetric combs, where a
    # relative bound alone would ask for agreement in rounding noise
    rtol, atol_phase = 1e-9, 1e-9
    a = AnsatzCoeffs(b, c, alpha).projected()
    mats = variational._chain_matrices(STD, np.array([theta]),
                                       np.array([alpha]))
    qb = variational._quotients(mats, np.array([a.b]))[:, 0]
    qc = variational._quotients(mats, np.array([a.c]))[:, 0]
    e = variational._energy(qb, qc, STD.delta_prime)
    ref = energy_expectation(a, STD, theta, QF)
    assert abs(e - ref) <= rtol * abs(ref)
    phi = 0.5 * (qb[2] + qc[2])
    ref = phase_expectation(a, QF)
    assert abs(phi - ref) <= rtol * abs(ref) + atol_phase


def test_phase_expectation_anchors():
    # mirror-symmetric combs put the mean at zero
    sym = AnsatzCoeffs((0.2, 0.3, 0.8, 0.3, 0.2), (0.1, 0.5, 0.7, 0.5, 0.1),
                       0.4).projected()
    assert phase_expectation(sym, Q) == pytest.approx(0.0, abs=1e-12)
    m1 = (0.0, 0.0, 0.0, 1.0, 0.0)
    both = AnsatzCoeffs(m1, m1, 1.0)
    assert phase_expectation(both, Q) == pytest.approx(2 * math.pi,
                                                       rel=1e-12)
    mixed = AnsatzCoeffs(m1, E2ONLY, 1.0)
    assert phase_expectation(mixed, Q) == pytest.approx(math.pi, rel=1e-12)


def test_phase_expectation_bounded_by_box():
    rng = np.random.default_rng(53)
    for _ in range(10):
        a = AnsatzCoeffs(tuple(rng.normal(size=5)), tuple(rng.normal(size=5)),
                         rng.uniform(0.1, 2.0)).projected()
        phi = phase_expectation(a, Q)
        assert -Q.eta * math.pi <= phi <= Q.eta * math.pi


def test_sweep_single_point_composes():
    # every sweep point is minimized on its own, so each row repeats a
    # one-point sweep exactly
    grid = [-0.4, 0.0, 0.3]
    res = sweep_theta(STD, grid)
    assert len(res.rows) == len(grid)
    for theta, row in zip(grid, res.rows):
        assert row == sweep_theta(STD, [theta]).rows[0]
        assert row.theta == theta
        assert row.converged
        assert_unit_combs(row.coeffs, 1e-10)
        assert row.mean_phi == pytest.approx(
            phase_expectation(row.coeffs, Q), rel=1e-10, abs=1e-12)


def test_sweep_grid_validation():
    with pytest.raises(DomainError):
        sweep_theta(STD, [])
    with pytest.raises(DomainError):
        sweep_theta(STD, [0.2, 0.1])


def test_sweep_rows_record_eigen_gap():
    # each row's energy, mean phase and gap are those of its own (b, c,
    # alpha, theta), bit for bit: the gap of the reduced problem for b
    # given c, rebuilt by the helpers as a one-member stack
    grid = np.linspace(-math.pi, math.pi, 5)
    for p in (STD, DECOUPLED):
        for row in sweep_theta(p, grid).rows:
            a = row.coeffs
            mats = variational._chain_matrices(p, np.array([row.theta]),
                                               np.array([a.alpha]))
            qb = variational._quotients(mats, np.array([a.b]))
            qc = variational._quotients(mats, np.array([a.c]))
            w, white = variational._whiten(mats)
            b, gap = variational._reduced(w, white, p.delta_prime * qc[1])
            assert row.converged
            assert row.e_min == variational._energy(qb, qc,
                                                    p.delta_prime)[0]
            assert row.mean_phi == 0.5 * (qb[2, 0] + qc[2, 0])
            assert row.gap == gap[0]
            assert tuple(b[0]) == a.b
            assert math.isfinite(row.gap) and row.gap > 0.0


@pytest.mark.parametrize("p", [STD, DECOUPLED], ids=["coupled", "decoupled"])
def test_sweep_matches_scalar_reference_on_slice(p):
    assert_matches_reference(sweep_theta(p, SLICE).rows, p)


@pytest.mark.parametrize("p", [STD, DECOUPLED], ids=["coupled", "decoupled"])
def test_sweep_matches_scalar_reference_on_acceptance_grid(grid_sweeps, p):
    assert_matches_reference(grid_sweeps[p], p)


@pytest.mark.parametrize("p, e_rtol", [
    # runs down to the lower limit alpha = 1e-4, where the overlap's
    # condition number is 6e10: rounding the matrix entries alone moves
    # the exact ground energy by 3e-8 relative, so no two eigensolvers
    # agree to better than about 1e-7 there (5e-8 measured)
    (FREE, 1e-6),
    (PhysicalParams(E1=1.0), 1e-14),
    (PhysicalParams(hbar=1e-3), 1e-14)], ids=["free", "E1", "hbar"])
def test_sweep_matches_scalar_reference_past_the_scan(p, e_rtol):
    # the scan is extended to one limit (free) or towards the other
    assert_matches_reference(sweep_theta(p, [0.0, 0.3]).rows, p, e_rtol)


@pytest.mark.parametrize("p", [STD, DECOUPLED], ids=["coupled", "decoupled"])
def test_sweep_row_does_not_depend_on_the_grid(grid_sweeps, p):
    # README: each offset is minimized independently, so a theta's row
    # is bit-identical alone, inside the slice and inside the full grid
    rows = grid_sweeps[p]
    assert sweep_theta(p, SLICE).rows == rows[39:42]
    for j in range(0, GRID.size, 10):
        assert sweep_theta(p, [GRID[j]]).rows[0] == rows[j]


def test_nonconverged_point_kept_in_row(monkeypatch):
    # one alternation step can never show that the energy stopped changing
    monkeypatch.setattr(variational, "_MAX_ALTERNATIONS", 1)
    row = sweep_theta(STD, [0.3]).rows[0]
    assert not row.converged
    best = row.coeffs
    assert isinstance(best, AnsatzCoeffs)
    assert_unit_combs(best, 1e-12)
    # the kept point is the lowest of the alpha scan, and its energy is
    # that of its own coefficients
    scan = energy_at(STD, 0.3, variational._LOG_ALPHA_SCAN)
    assert math.isfinite(row.e_min) and row.e_min <= scan.min()
    mats = variational._chain_matrices(STD, np.array([0.3]),
                                       np.array([best.alpha]))
    assert row.e_min == variational._energy(
        variational._quotients(mats, np.array([best.b])),
        variational._quotients(mats, np.array([best.c])),
        STD.delta_prime)[0]
    assert sweep_theta(STD, [0.3]).rows[0] == row
    # the scalar loop stops at the same cap with the same energy
    assert row.e_min == pytest.approx(reference_minimize(STD, 0.3).e_min,
                                      rel=1e-14)


def test_sweep_result_table_and_order():
    a = AnsatzCoeffs(E2ONLY, E2ONLY, 1.0)
    rows = [SweepRow(0.0, 1.0, 0.0, True, a, 0.2),
            SweepRow(0.5, 1.1, 0.1, False, a, 0.3)]
    res = SweepResult(rows)
    table = res.to_table()
    assert table.columns == ("theta", "E_min", "mean_Phi", "converged",
                             "b_-2", "b_-1", "b_0", "b_1", "b_2",
                             "c_-2", "c_-1", "c_0", "c_1", "c_2", "alpha")
    assert [r[3] for r in table.rows] == [1.0, 0.0]
    assert [r[-1] for r in table.rows] == [1.0, 1.0]


def test_count_local_minima():
    assert count_local_minima([1.0, 2.0, 3.0, 4.0]) == 0
    assert count_local_minima([4.0, 3.0, 2.0, 1.0]) == 0
    assert count_local_minima([1.0, 0.0, 1.0, 0.0, 1.0]) == 2
    # plateaus collapse to one sample
    assert count_local_minima([2.0, 1.0, 1.0, 1.0, 2.0]) == 1
    assert count_local_minima([1.0, 1.0, 0.0, 0.0, 1.0, 1.0]) == 1
    assert count_local_minima([0.0, 1.0, 2.0]) == 0
    # five shifted parabolic arcs
    theta = np.linspace(-5 * math.pi, 5 * math.pi, 401)
    arcs = np.min([(theta - c) ** 2 for c in CENTERS], axis=0)
    assert count_local_minima(arcs) == 5


def test_phase_jumps():
    assert phase_jumps([0.0, 0.1, 0.2, 0.3]) == []
    # one clean staircase step of ~2 pi split over two samples
    phases = [0.0, 0.1, 3.2, 6.2, 6.25]
    jumps = phase_jumps(phases)
    assert len(jumps) == 1
    assert jumps[0] == pytest.approx(6.1, rel=1e-12)
    # two separated jumps, one downward
    phases = [0.0, 6.3, 6.4, 0.2, 0.1]
    jumps = phase_jumps(phases)
    assert len(jumps) == 2
    assert jumps[0] == pytest.approx(6.3, rel=1e-12)
    assert jumps[1] == pytest.approx(-6.2, rel=1e-12)
