import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from cdwlab import variational
from cdwlab.errors import DomainError
from cdwlab.evolver import ComplexField, step_crank_nicolson_printed
from cdwlab.model import PhysicalParams, washboard_potential
from cdwlab.variational import (
    CENTERS,
    AnsatzCoeffs,
    QuadratureSpec,
    SweepRow,
    count_local_minima,
    energy_expectation,
    phase_jumps,
    sweep_table,
    sweep_theta,
)
from spectral import lowest_levels, two_chain_levels, two_chain_mean_phase

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


def phase_oracle(a, q):
    # mean joint phase <(phi1 + phi2)/2> under |Psi|^2 by quadrature
    x, w = gl_points(q)
    u2 = [comb_1d(x, coeff, a.alpha) ** 2 * w for coeff in (a.b, a.c)]
    return 0.5 * sum(np.sum(u * x) / np.sum(u) for u in u2)


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
    kin = -(1 / (2 * p.D1)) * (
        np.sum(W * np.outer(u1 * t1, u2 * u2))
        + np.sum(W * np.outer(u1 * u1, u2 * t2)))
    pot = (p.E1 * ((1 - np.cos(x))[:, None] + (1 - np.cos(x))[None, :])
           + p.E2 * (((x - theta) ** 2)[:, None] + ((x - theta) ** 2)[None, :])
           + p.delta_prime * (1 - np.cos(x[:, None] - x[None, :])))
    num = kin + np.sum(W * psi2 * pot)
    return num / np.sum(W * psi2)


# The scalar minimizer the stacked one replaced, kept as its oracle: one
# (theta, alpha) point at a time, scipy's generalized eigh (LAPACK sygvx)
# for every half step, and a scalar Brent search per theta.  The
# golden-section search that Brent's replaced stays as a bound on it.

def _ref_matrices(p, alpha, theta):
    s = math.sqrt(math.pi / (2.0 * alpha)) * np.exp(
        -0.5 * alpha * variational._DELTA2)
    # 1 - cos: 1 - exp(-1/(8 alpha)) on even and 1 + exp(...) on odd
    # offsets, the first by expm1
    y = math.expm1(-0.125 / alpha)
    v = np.where(variational._PARITY > 0, -y, 2.0 + y) * s
    kin = 1.0 / (2.0 * p.D1) * (
        alpha - alpha * alpha * variational._DELTA2)
    chg = p.E2 * ((variational._MU - theta) ** 2 + 0.25 / alpha)
    h = (kin + chg) * s + p.E1 * v
    return s, h, v, variational._MU * s


def _ref_ground(a, s):
    w, v = eigh(a, s, subset_by_index=(0, 1), check_finite=False)
    g = v[:, 0] / np.linalg.norm(v[:, 0])
    return (-g if g.sum() < 0 else g), float(w[1] - w[0])


def _ref_quotient(m, s, v):
    return float(v @ m @ v) / float(v @ s @ v)


def _ref_energy(mats, dp, b, c):
    # 1 - <cos><cos> = 1 - (1 - vb)(1 - vc) from the 1 - cos quotients
    s, h, v, _ = mats
    vb, vc = _ref_quotient(v, s, b), _ref_quotient(v, s, c)
    return (_ref_quotient(h, s, b) + _ref_quotient(h, s, c)
            + dp * (vb + vc - vb * vc))


def _ref_reduced(mats, dp, c):
    s, h, v, _ = mats
    return _ref_ground(h + dp * (1.0 - _ref_quotient(v, s, c)) * v, s)


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


def _ref_brent(f, las, es, i):
    # Brent's method (Brent 1973, ch. 5; the Numerical Recipes form)
    # from the scan's best point las[i] and its two neighbours, whose
    # energies es the scan already holds, down to the sweep's bracket
    tol = variational._LOG_ALPHA_TOL / 3.0
    cgold = 1.0 - variational._INVPHI
    a, b = las[i - 1], las[i + 1]
    (fx, x), (fw, w), (fv, v) = sorted(zip(es[i - 1:i + 2], las[i - 1:i + 2]))
    d = e = b - a
    while b - a > variational._LOG_ALPHA_TOL:
        xm = 0.5 * (a + b)
        golden = True
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            etemp, e = e, d
            if (abs(p) < abs(0.5 * q * etemp) and p > q * (a - x)
                    and p < q * (b - x)):
                golden = False
                d = p / q
                u = x + d
                if u - a < 2 * tol or b - u < 2 * tol:
                    d = math.copysign(tol, xm - x)
        if golden:
            e = a - x if x >= xm else b - x
            d = cgold * e
        u = x + d if abs(d) >= tol else x + math.copysign(tol, d)
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x, fv, fw, fx = w, x, u, fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w, fv, fw = w, u, fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _ref_golden(f, las, es, i):
    invphi = variational._INVPHI
    lo, hi = las[i - 1], las[i + 1]
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


def folded(theta):
    # theta = 2 pi k + u' with k = round(theta / 2 pi), as the sweep reduces it
    k = round(theta / (2 * math.pi))
    return k, theta - 2 * math.pi * k


def reference_minimize(p, theta, refine=_ref_brent):
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
        refine(run, las, es, i)
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


def reference_row(p, theta):
    # the scalar reference at the signed offset u', whose teeth sit at
    # 2 pi m, moved to the teeth at 2 pi (k + m) of theta's row
    k, u = folded(theta)
    r = reference_minimize(p, u)
    return dataclasses.replace(r, theta=theta,
                               mean_phi=r.mean_phi + 2 * math.pi * k)


def assert_matches_reference(rows, p, e_rtol=1e-14):
    ref = [reference_row(p, row.theta) for row in rows]
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
    return {p: sweep_theta(p, GRID) for p in (STD, DECOUPLED)}


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
    with pytest.raises(DomainError, match="ansatz norm is not positive"):
        energy_expectation(a, STD, 0.0, Q)


@pytest.mark.parametrize("p, theta", [
    (PhysicalParams(E2=1e308), 10.0),
    (PhysicalParams(D1=1e-308, E2=1e308), 0.0)], ids=["charging", "both"])
def test_energy_overflow_is_domain_error(p, theta):
    # finite moments whose weighted sum overflows the energy to inf
    a = AnsatzCoeffs(E2ONLY, E2ONLY, 1.0)
    with pytest.raises(DomainError,
                       match="energy expectation is not finite"):
        energy_expectation(a, p, theta, Q)


def test_energy_kinetic_anchor():
    # decoupled chains, one centered Gaussian each: E = alpha/D1
    a = AnsatzCoeffs(E2ONLY, E2ONLY, 1.0)
    e = energy_expectation(a, FREE, 0.0, QF)
    assert abs(e - 1.0 / 174.091) / (1.0 / 174.091) < 1e-8
    # default quadrature stays within a relaxed tolerance
    e0 = energy_expectation(a, FREE, 0.0, Q)
    assert abs(e0 - 1.0 / 174.091) / (1.0 / 174.091) < 1e-6


@pytest.mark.parametrize("theta", [0.0, 2.0, math.pi])
def test_single_chain_is_one_chain_of_the_pair(theta):
    # with D = 2 D1, omega_p^2 = E1/D1 and mu_E = 2 E2 the evolver's
    # washboard and kinetic term are one chain of the two-chain
    # Hamiltonian, so at delta' = 0 the pair's ground energy is twice
    # the single chain's
    chain = PhysicalParams(D=2.0 * STD.D1, omega_p_sq=STD.E1 / STD.D1,
                           mu_E=2.0 * STD.E2, theta=theta)
    phi = np.linspace(-4 * math.pi, 4 * math.pi, 201)
    one_chain = STD.E1 * (1.0 - np.cos(phi)) + STD.E2 * (phi - theta) ** 2
    np.testing.assert_allclose(washboard_potential(phi, chain), one_chain,
                               rtol=1e-15, atol=0)
    # an impulse's first printed step puts i*dt*(1/D)/dx^2 on each
    # neighbour; a comb tooth's kinetic moment is alpha/(2 D1)
    dx, dt = 0.1, 1e-4
    impulse = np.zeros(9, dtype=complex)
    impulse[4] = 1.0
    out = step_crank_nicolson_printed(ComplexField(np.zeros(9), dx),
                                      ComplexField(impulse, dx), chain, dt)
    s, h = variational._chain_matrices(
        PhysicalParams(E1=0.0, E2=0.0), np.zeros(1), np.ones(1))[:2]
    assert out.values[3] / (1j * dt / dx ** 2) == pytest.approx(
        1.0 / chain.D, rel=1e-15)
    assert h[0, 2, 2] / s[0, 2, 2] == pytest.approx(
        1.0 / (2.0 * STD.D1), rel=1e-15)


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
        kin = -(1 / (2 * STD.D1)) * np.sum(w * u * upp)
        total.append(kin / n)
    ref = sum(total)
    e = energy_expectation(a, FREE, 0.0, Q)
    assert abs(e - ref) / abs(ref) < 1e-6


def test_minimize_kinetic_only_runs_downhill():
    # with no potential the energy is alpha / D1, which has no
    # minimum in alpha: the search runs down to its lower alpha limit
    # and reports no convergence, and its best point must still end at
    # least as low as a single alpha=1 tooth
    e_init = energy_expectation(AnsatzCoeffs(E2ONLY, E2ONLY, 1.0), FREE,
                                0.0, Q)
    row = sweep_theta(FREE, [0.0])[0]
    assert not row.converged
    coeffs, e = row.coeffs, row.e_min
    assert_unit_combs(coeffs, 1e-10)
    assert e <= e_init + 1e-12
    lo = variational._LOG_ALPHA_LIMITS[0]
    assert lo <= math.log(coeffs.alpha) < lo + variational._LOG_ALPHA_STEP


@pytest.mark.parametrize("p", [PhysicalParams(E1=1.0),
                               PhysicalParams(D1=174.091 / 1e-3 ** 2)])
def test_minimize_finds_alpha_beyond_the_scan(p):
    # both optima lie above the coarse scan's top alpha: the scan must be
    # extended until the energy rises, and alpha refined inside that
    top = variational._LOG_ALPHA_SCAN[-1]
    row = sweep_theta(p, [0.3])[0]
    assert row.converged
    coeffs, e = row.coeffs, row.e_min
    assert math.log(coeffs.alpha) > top + variational._LOG_ALPHA_STEP
    assert e < energy_at(p, 0.3, top)[0]
    la = math.log(coeffs.alpha)
    assert (energy_at(p, 0.3, [la - 1e-3, la + 1e-3]) >= e).all()


def test_minimize_theta_zero_symmetric_and_near_grid_scan():
    # coarse scan over (b0, b1 = b_-1, alpha) with b2 fixed by the norm
    row = sweep_theta(STD, [0.0])[0]
    coeffs, e = row.coeffs, row.e_min
    b = np.array(coeffs.b)
    assert np.max(np.abs(b - b[::-1])) < 0.02
    assert abs(phase_oracle(coeffs, Q)) < 0.05

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
    ref = phase_oracle(a, QF)
    assert abs(phi - ref) <= rtol * abs(ref) + atol_phase


def closed_form_phase(a):
    # the sweep's mean phase: half the sum of the two combs' <phi>
    mats = variational._chain_matrices(STD, np.zeros(1), np.array([a.alpha]))
    return 0.5 * sum(variational._quotients(mats, np.array([v]))[2, 0]
                     for v in (a.b, a.c))


def test_phase_expectation_anchors():
    # mirror-symmetric combs put the mean at zero
    sym = AnsatzCoeffs((0.2, 0.3, 0.8, 0.3, 0.2), (0.1, 0.5, 0.7, 0.5, 0.1),
                       0.4).projected()
    assert closed_form_phase(sym) == pytest.approx(0.0, abs=1e-12)
    m1 = (0.0, 0.0, 0.0, 1.0, 0.0)
    both = AnsatzCoeffs(m1, m1, 1.0)
    assert closed_form_phase(both) == pytest.approx(2 * math.pi, rel=1e-12)
    mixed = AnsatzCoeffs(m1, E2ONLY, 1.0)
    assert closed_form_phase(mixed) == pytest.approx(math.pi, rel=1e-12)


def test_sweep_single_point_composes():
    # every sweep point is minimized on its own, so each row repeats a
    # one-point sweep exactly; beyond +-pi its combs weigh the teeth at
    # 2 pi (k + m), which the oracle's teeth at 2 pi m see shifted by -2 pi k
    grid = [-7.0, -0.4, 0.0, 0.3, 4.0, 9.0]
    rows = sweep_theta(STD, grid)
    assert len(rows) == len(grid)
    for theta, row in zip(grid, rows):
        assert row == sweep_theta(STD, [theta])[0]
        assert row.theta == theta
        assert row.converged
        assert_unit_combs(row.coeffs, 1e-10)
        shift = 2 * math.pi * folded(theta)[0]
        assert row.mean_phi == pytest.approx(
            phase_oracle(row.coeffs, Q) + shift, rel=1e-10, abs=1e-12)


def test_sweep_grid_validation():
    with pytest.raises(DomainError):
        sweep_theta(STD, [])
    with pytest.raises(DomainError):
        sweep_theta(STD, [0.2, 0.1])
    # a non-finite theta is named before its comb matrices overflow
    for grid in ([math.nan], [0.0, math.inf], [-math.inf, 0.0]):
        with pytest.raises(DomainError, match="theta grid must be finite"):
            sweep_theta(STD, grid)


def energy_criterion_alternate(p, theta, log_alpha):
    # _alternate written plainly: each member descends from the uncoupled
    # pair (c, c) until its energy stops falling, its row rewritten every
    # half step
    alpha = np.exp(log_alpha)
    mats = variational._chain_matrices(p, theta, alpha)
    w, white = variational._whiten(mats, 2)
    rows = np.empty((alpha.size, 15))
    live = np.arange(alpha.size)
    c = variational._reduced(w, white[0])[0]
    qc = variational._quotients(mats, c)
    e_prev = variational._energy(qc, qc, p.delta_prime)
    for _ in range(variational._MAX_ALTERNATIONS):
        dp_kappa = p.delta_prime * (1.0 - qc[1])
        b, vals = variational._reduced(
            w, white[0] + dp_kappa[:, None, None] * white[1])
        gap = vals[:, 1] - vals[:, 0]
        qb = variational._quotients(mats, b)
        e = variational._energy(qb, qc, p.delta_prime)
        done = e_prev - e <= variational._ETOL * np.abs(e)
        rows[live] = np.column_stack(
            (e, done, gap, 0.5 * (qb[2] + qc[2]), alpha[live], b, c))
        keep = ~done
        live, mats, w, white = (live[keep], mats[:, keep], w[keep],
                                white[:, keep])
        if not live.size:
            break
        c, qc, e_prev = b[keep], qb[:, keep], e[keep]
    return rows


@pytest.mark.parametrize("p", [STD, DECOUPLED,
                               PhysicalParams(delta_prime=1e-9),
                               PhysicalParams(delta_prime=1.0)],
                         ids=["coupled", "decoupled", "weak", "strong"])
def test_alternation_rows_match_the_energy_descent(p):
    # each member's row is bit for bit the one the plain energy descent
    # ends on, over the alpha scan at every acceptance-grid theta
    scan = variational._LOG_ALPHA_SCAN
    theta, las = np.repeat(GRID, scan.size), np.tile(scan, GRID.size)
    rows = variational._alternate(p, theta, las)
    ref = energy_criterion_alternate(p, theta, las)
    np.testing.assert_array_equal(rows.view(np.int64), ref.view(np.int64))


def count_calls(monkeypatch, name):
    # record the member count of every call to variational.<name>, whose
    # last argument has one entry per member
    calls, orig = [], getattr(variational, name)

    def counted(*args):
        calls.append(len(args[-1]))
        return orig(*args)

    monkeypatch.setattr(variational, name, counted)
    return calls


def test_decoupled_alternation_stops_after_one_solve(monkeypatch):
    # at delta' = 0 the problem for b is the uncoupled one that gave c, so
    # the one eigh for c ends every member, with b = c.  V enters only
    # through delta', so the whitened stack holds W H W^T alone there and
    # both W H W^T and W V W^T when coupled
    whitened, whiten = [], variational._whiten

    def recorded(mats, n):
        w, white = whiten(mats, n)
        whitened.append((mats, w, white))
        return w, white

    monkeypatch.setattr(variational, "_whiten", recorded)
    calls = count_calls(monkeypatch, "_reduced")
    las = variational._LOG_ALPHA_SCAN
    for p, depth in ((DECOUPLED, 1), (STD, 2)):
        del whitened[:]
        variational._alternate(p, np.full(las.size, 0.3), las)
        [(mats, w, white)] = whitened
        assert white.shape == (depth, las.size, 5, 5)
        np.testing.assert_array_equal(white[0],
                                      w @ mats[1] @ w.swapaxes(1, 2))
    for theta in (0.0, 1.3):
        del calls[:]
        rows = variational._alternate(DECOUPLED, np.full(las.size, theta),
                                      las)
        assert calls == [las.size]
        assert rows[:, variational._CONV].all()
    # over the slice: one solve per _alternate call decoupled (11 of
    # each), while the coupled sweep keeps its 42 half steps
    rounds = count_calls(monkeypatch, "_alternate")
    del calls[:]
    rows = sweep_theta(DECOUPLED, SLICE)
    assert len(calls) == len(rounds) == 11
    for row in rows:
        assert (np.array(row.coeffs.b).view(np.int64)
                == np.array(row.coeffs.c).view(np.int64)).all()
    del calls[:]
    sweep_theta(STD, SLICE)
    assert len(calls) == 42


@pytest.mark.parametrize("p, rounds, members",
                         [(STD, 8, 758), (DECOUPLED, 11, 755)],
                         ids=["coupled", "decoupled"])
def test_sweep_gathers_every_offset_into_each_round(monkeypatch, p, rounds,
                                                    members):
    # the default 81-point grid folds to 16 offsets, each round one
    # _alternate call on all their points: the first holds the 16 scans
    # and each later one a point of every offset still refining.  5 of
    # the 16 offsets are rounding twins: theta - 2 pi k differs in its
    # last bits between periods, so equal |u'| do not always fold to one
    # offset, and folding them would move these counts
    calls = count_calls(monkeypatch, "_alternate")
    sweep_theta(p, GRID)
    assert calls[0] == 16 * variational._LOG_ALPHA_SCAN.size
    assert len(calls) == rounds and sum(calls) == members


def test_sweep_rows_record_eigen_gap():
    # each row's energy, mean phase and gap are those of its own (b, c,
    # alpha) at its offset |u'|, bit for bit: the gap of the reduced
    # problem for b given c, rebuilt by the helpers as a one-member stack.
    # Where u' < 0 the row holds the mirror of that offset's combs
    grid = np.linspace(-math.pi, math.pi, 5)
    for p in (STD, DECOUPLED):
        for row in sweep_theta(p, grid):
            a, (k, u) = row.coeffs, folded(row.theta)
            sign = -1.0 if u < 0 else 1.0
            bs, cs = (a.b, a.c) if u >= 0 else (a.b[::-1], a.c[::-1])
            mats = variational._chain_matrices(p, np.array([abs(u)]),
                                               np.array([a.alpha]))
            qb = variational._quotients(mats, np.array([bs]))
            qc = variational._quotients(mats, np.array([cs]))
            w, white = variational._whiten(mats, 2)
            dp_kappa = p.delta_prime * (1.0 - qc[1])
            b, vals = variational._reduced(
                w, white[0] + dp_kappa[:, None, None] * white[1])
            gap = vals[:, 1] - vals[:, 0]
            assert row.converged
            assert row.e_min == variational._energy(qb, qc,
                                                    p.delta_prime)[0]
            assert row.mean_phi == (sign * 0.5 * (qb[2, 0] + qc[2, 0])
                                    + 2 * math.pi * k)
            assert row.gap == gap[0]
            assert tuple(b[0]) == bs
            assert math.isfinite(row.gap) and row.gap > 0.0


@pytest.mark.parametrize("p", [STD, DECOUPLED], ids=["coupled", "decoupled"])
def test_sweep_matches_scalar_reference_on_slice(p):
    assert_matches_reference(sweep_theta(p, SLICE), p)


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
    (PhysicalParams(D1=174.091 / 1e-3 ** 2), 1e-14)],
    ids=["free", "E1", "D1"])
def test_sweep_matches_scalar_reference_past_the_scan(p, e_rtol):
    # the scan is extended to one limit (free) or towards the other
    assert_matches_reference(sweep_theta(p, [0.0, 0.3]), p, e_rtol)


@pytest.mark.parametrize("p", [STD, DECOUPLED, FREE, PhysicalParams(E1=1.0),
                               PhysicalParams(D1=174.091 / 1e-3 ** 2)],
                         ids=["coupled", "decoupled", "free", "E1", "D1"])
def test_brent_ends_no_higher_than_golden_section(p):
    # the golden-section search that Brent's method replaced, from the
    # same bracket to the same width, bounds each row's energy from above
    grid = SLICE if p in (STD, DECOUPLED) else [0.0, 0.3]
    for row in sweep_theta(p, grid):
        golden = reference_minimize(p, row.theta, _ref_golden)
        assert row.e_min <= golden.e_min + 1e-14 * abs(golden.e_min)


@pytest.mark.parametrize("p, cap", [(STD, 10), (DECOUPLED, 12)],
                         ids=["coupled", "decoupled"])
def test_brent_refines_the_slice_in_few_rounds(monkeypatch, p, cap):
    # the scan is one call and each refinement round one more: 8 calls
    # coupled and 11 decoupled, where the flat energy stops each offset
    # once its three best energies agree to _ETOL, before its bracket is
    # 1e-6 wide; the golden-section search made 29 calls on either slice.
    # The slice's +-pi/10 are one offset, so the scan holds 2 of them
    calls = count_calls(monkeypatch, "_alternate")
    sweep_theta(p, SLICE)
    assert calls[0] == 2 * variational._LOG_ALPHA_SCAN.size
    assert len(calls) <= cap


def test_sweep_without_an_interior_point_makes_no_empty_call(monkeypatch):
    # the free chain's energy falls all the way to the lower alpha
    # limit, so no theta refines alpha and no eigh runs on an empty
    # stack; the row is pinned bit for bit
    calls = count_calls(monkeypatch, "_reduced")
    row = sweep_theta(FREE, [0.0])[0]
    # at delta' = 0 each _alternate call is one solve: the scan and the
    # 15 steps out to alpha = 1e-4
    assert len(calls) == 16 and min(calls) > 0
    comb = (0.12163546002457923, -0.47911941764671934, 0.7150516044841633,
            -0.4791194175741898, 0.12163545998791005)
    assert row == SweepRow(0.0, 2.317217865204866e-07, -1.081530476896589e-07,
                           False, AnsatzCoeffs(comb, comb,
                                               0.00010636591793889921),
                           4.431917844805827e-07)


@pytest.mark.parametrize("p", [STD, DECOUPLED], ids=["coupled", "decoupled"])
def test_sweep_row_does_not_depend_on_the_grid(grid_sweeps, p):
    # README: each offset is minimized independently, so a theta's row
    # is bit-identical alone, inside the slice and inside the full grid
    rows = grid_sweeps[p]
    assert sweep_theta(p, SLICE) == rows[39:42]
    for j in range(0, GRID.size, 10):
        assert sweep_theta(p, [GRID[j]])[0] == rows[j]


@pytest.mark.parametrize("p", [STD, DECOUPLED], ids=["coupled", "decoupled"])
@pytest.mark.parametrize("t", [0.7, 2.5])
def test_sweep_row_at_minus_theta_is_the_mirror(p, t):
    # H(-theta) is H(theta) with phi -> -phi: the row at -t reverses both
    # combs and negates the mean phase of the row at t, bit for bit
    row = sweep_theta(p, [t])[0]
    a = row.coeffs
    assert sweep_theta(p, [-t])[0] == SweepRow(
        -t, row.e_min, -row.mean_phi, row.converged,
        AnsatzCoeffs(a.b[::-1], a.c[::-1], a.alpha), row.gap)


@pytest.mark.parametrize("p", [STD, DECOUPLED], ids=["coupled", "decoupled"])
def test_sweep_row_repeats_every_two_pi(p):
    # H(theta + 2 pi k) is H(theta) with every phi shifted by 2 pi k: the
    # row at theta + 2 pi k is theta's, its combs on the teeth at
    # 2 pi (k + m) and its mean phase moved by 2 pi k.  Both thetas give
    # theta + 2 pi k - 2 pi k back exactly, so each k searches theta itself
    for theta in (1.0, -2.0):
        row = sweep_theta(p, [theta])[0]
        for k in (-2, -1, 1, 2):
            shifted = theta + 2 * math.pi * k
            assert folded(shifted) == (k, theta)
            assert sweep_theta(p, [shifted])[0] == dataclasses.replace(
                row, theta=shifted, mean_phi=row.mean_phi + 2 * math.pi * k)


@pytest.mark.parametrize("p", [STD, DECOUPLED], ids=["coupled", "decoupled"])
def test_sweep_energy_is_two_pi_periodic_on_the_grid(grid_sweeps, p):
    # 20 grid steps are 2 pi; theta and theta + 2 pi reduce to offsets
    # that may differ in their last bits, so the energies agree to rounding
    e = np.array([row.e_min for row in grid_sweeps[p]])
    np.testing.assert_allclose(e[20:], e[:-20], rtol=1e-14, atol=0)


@pytest.mark.parametrize("delta_prime", [STD.delta_prime, 0.0],
                         ids=["coupled", "decoupled"])
def test_weak_pinning_sweep_keeps_the_periodic_minima_count(delta_prime):
    # at E1 = 1e-4 the E2 well is nearly flat over several teeth; a comb
    # whose teeth stop at 2 pi m, |m| <= 2, showed 5 (coupled) and 7
    # (decoupled) minima on the 81-point grid, which no 2 pi-periodic
    # curve can show.  The periodic sweep has one per period: 3
    p = PhysicalParams(E1=1e-4, delta_prime=delta_prime)
    rows = sweep_theta(p, GRID)
    assert count_local_minima([row.e_min for row in rows]) == 3


@pytest.mark.parametrize("E1, coupled, decoupled", [
    (2e-3, 0, 0), (3e-3, 4, 0), (5e-3, 4, 0), (1e-2, 4, 4)])
def test_shipped_comb_criterion_6_window(E1, coupled, decoupled):
    # the shipped comb passes criterion 6 (coupled jumps, none
    # decoupled) at E1 = 3e-3 and 5e-3 but not at 2e-3 or 1e-2
    assert [two_pi_jumps(sweep_theta(dataclasses.replace(p, E1=E1),
                                     GRID))
            for p in (STD, DECOUPLED)] == [coupled, decoupled]


def test_sweep_row_keeps_the_first_of_tied_minima(monkeypatch):
    # an energy that is exactly 0.5 wherever log alpha is within 0.5 of
    # -theta: the scan and Brent's method both evaluate ties there, and
    # each row keeps the first alpha its theta evaluated on the plateau
    # (a row replaced on an equal energy would hold a later one).  The
    # thetas lie in (0, pi), where each is its own offset
    evaluated = []

    def flat(p, theta, log_alpha):
        e = np.maximum(np.abs(log_alpha + theta), 0.5)
        rows = np.zeros((e.size, 15))
        rows[:, variational._E] = e
        rows[:, variational._CONV] = 1.0
        rows[:, variational._ALPHA] = np.exp(log_alpha)
        evaluated.extend(zip(theta.tolist(), log_alpha.tolist(),
                             rows.tolist()))
        return rows

    monkeypatch.setattr(variational, "_alternate", flat)
    grid = [0.5, 2.0, 3.0]
    for row in sweep_theta(STD, grid):
        ties = [(la, r[variational._ALPHA]) for t, la, r in evaluated
                if t == row.theta and r[variational._E] == 0.5]
        # the refinement evaluates ties of its own after the scan's
        assert {la for la, _ in ties} - set(variational._LOG_ALPHA_SCAN)
        assert row.e_min == 0.5 and row.converged
        assert row.coeffs.alpha == ties[0][1]


def test_brent_stops_once_its_energies_agree(monkeypatch):
    # an energy exactly flat where log alpha is within 0.05 of -theta, a
    # window narrower than a scan step and far wider than the bracket
    # Brent's method would refine: each theta stops once its three best
    # energies agree, after the scan and at most 3 rounds (26 calls when
    # only the 1e-6 bracket stops it), and keeps its first plateau point.
    # The thetas lie in (0, pi), where each is its own offset
    evaluated, calls = [], []

    def plateau(p, theta, log_alpha):
        e = 1.0 + np.maximum(np.abs(log_alpha + theta) - 0.05, 0.0) ** 2
        rows = np.zeros((e.size, 15))
        rows[:, variational._E] = e
        rows[:, variational._CONV] = 1.0
        rows[:, variational._ALPHA] = np.exp(log_alpha)
        calls.append(e.size)
        evaluated.extend(zip(theta.tolist(), log_alpha.tolist(),
                             rows.tolist()))
        return rows

    monkeypatch.setattr(variational, "_alternate", plateau)
    grid = [0.5, 2.0, 3.0]
    rows = sweep_theta(STD, grid)
    assert len(calls) <= 4
    for row in rows:
        las = sorted(la for t, la, _ in evaluated if t == row.theta)
        # the bracket's ends are two distinct evaluated points, so it is
        # at least as wide as the closest pair of them
        assert np.diff(las).min() > variational._LOG_ALPHA_TOL
        ties = [r[variational._ALPHA] for t, _, r in evaluated
                if t == row.theta and r[variational._E] == 1.0]
        assert row.e_min == 1.0 and row.converged
        assert row.coeffs.alpha == ties[0]


def test_thetas_in_different_phases_share_calls(monkeypatch):
    # theta < 1.5 refines a kinked minimum at log alpha = -3 inside the
    # scan, theta > 1.5 extends the scan up to a plateau around log alpha =
    # 2.5; one theta's Brent points ride in the same calls as the other's
    # extension points, so the pair costs what the slower theta costs
    # alone, and each row is the one its theta gets alone.  Both thetas
    # lie in (0, pi), where each is its own offset
    calls = []

    def phases(p, theta, log_alpha):
        below = 1.0 + np.abs(log_alpha + 3.0) ** 1.5 + 0.1 * (log_alpha + 3.0)
        above = 1.0 + np.maximum(np.abs(log_alpha - 2.5) - 0.05, 0.0) ** 2
        rows = np.zeros((theta.size, 15))
        rows[:, variational._E] = np.where(theta < 1.5, below, above)
        rows[:, variational._CONV] = 1.0
        rows[:, variational._ALPHA] = np.exp(log_alpha)
        calls.append(theta.size)
        return rows

    monkeypatch.setattr(variational, "_alternate", phases)
    alone, counts = [], []
    for theta in (1.0, 2.0):
        del calls[:]
        alone += sweep_theta(STD, [theta])
        counts.append(len(calls))
    del calls[:]
    assert sweep_theta(STD, [1.0, 2.0]) == alone
    assert counts == [14, 10]
    assert len(calls) == max(counts)
    assert all(row.converged for row in alone)


def test_nonconverged_point_kept_in_row(monkeypatch):
    # one alternation step can never show that the energy stopped changing
    monkeypatch.setattr(variational, "_MAX_ALTERNATIONS", 1)
    row = sweep_theta(STD, [0.3])[0]
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
    assert sweep_theta(STD, [0.3])[0] == row
    # the scalar loop stops at the same cap with the same energy
    assert row.e_min == pytest.approx(reference_minimize(STD, 0.3).e_min,
                                      rel=1e-14)


def test_sweep_result_table_and_order():
    a = AnsatzCoeffs(E2ONLY, E2ONLY, 1.0)
    rows = [SweepRow(0.0, 1.0, 0.0, True, a, 0.2),
            SweepRow(0.5, 1.1, 0.1, False, a, 0.3)]
    table = sweep_table(rows)
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


@pytest.mark.parametrize("x1, count", [(1.61, 0), (1.615, 4)])
def test_two_level_staircase_count_rule(x1, count):
    # criterion 6's count on a closed-form staircase: four two-level
    # crossings at theta = +-pi, +-3pi, each <Phi> = pi (1 + x/sqrt(1 + x^2))
    # with x = x1 (theta - c) / (pi/10).  On the 81-point grid c is a grid
    # point, and the two steps around it are the jump, 2 pi x1/sqrt(1 +
    # x1^2), within 15% of 2 pi iff x1 >= 0.85/sqrt(1 - 0.85^2) = 1.6136
    x = x1 * (GRID[:, None] - math.pi * np.array([-3, -1, 1, 3])) / (
        math.pi / 10)
    phases = (math.pi * (1.0 + x / np.sqrt(1.0 + x * x))).sum(axis=1)
    jumps = phase_jumps(phases)
    assert len(jumps) == 4
    assert sum(abs(abs(j) - 2 * math.pi) <= 0.15 * 2 * math.pi
               for j in jumps) == count


# the exact two-chain levels at theta = 0, pi/2 and pi, by sequential
# diagonalisation on sinc-DVR grids of step 0.7 over |Phi| <= 26 and
# |chi| <= 12 pi with m = 10 channels per Phi node
EXACT_THETAS = [0.0, math.pi / 2, math.pi]
EXACT_GRID = (0.7, 26.0, 12 * math.pi, 10)


@pytest.fixture(scope="module")
def exact_levels():
    return two_chain_levels(STD, EXACT_THETAS, *EXACT_GRID)


def test_comb_lies_a_third_above_the_exact_two_chain_ground_state(
        exact_levels):
    # m = 10 channels per Phi node span the m = 6 basis, so the ground
    # level can only fall with m.  The shipped five-tooth comb, one width
    # for every tooth, lies 34.5% above
    e0, e1 = exact_levels[0, :2]
    assert e0 == pytest.approx(3.37359423e-3, rel=1e-8)
    assert e1 - e0 == pytest.approx(5.968951e-5, rel=1e-6)
    fewer = two_chain_levels(STD, [0.0], 0.7, 26.0, 12 * math.pi, 6)
    assert fewer[0, 0] > e0
    for row, exact in zip(sweep_theta(STD, EXACT_THETAS),
                          exact_levels[:, 0]):
        assert 0.34 < row.e_min / exact - 1.0 < 0.35


@pytest.mark.parametrize("h, chi_max, m", [(0.7, 12 * math.pi, 16),
                                           (0.5, 12 * math.pi, 10),
                                           (0.7, 16 * math.pi, 10)],
                         ids=["m", "h", "chi"])
def test_exact_two_chain_ground_level_is_converged(exact_levels, h,
                                                   chi_max, m):
    # more channels, a finer grid or a wider chi window each move E0 at
    # theta = 0 by 5e-11, 9e-12 and 8e-12
    e0 = two_chain_levels(STD, [0.0], h, 26.0, chi_max, m)[0, 0]
    assert abs(e0 - exact_levels[0, 0]) <= 1e-10


def test_exact_two_chain_curve_is_even_periodic_with_three_minima():
    # V(Phi, chi; theta) = V(Phi + 2 pi, chi; theta + 2 pi) =
    # V(-Phi, -chi; -theta), so E0 is even and 2 pi-periodic; the Phi
    # window is widened by 2 pi to hold the shifted ground state
    # (m = 6).  E0 rises over the offsets [0, pi], and the 81-point grid
    # mapped from its 11 offsets has criterion 5's 3 minima, not 5
    offsets = math.pi / 10 * np.arange(11)
    e0 = two_chain_levels(STD, [*offsets, -0.7, 0.7, 0.7 + 2 * math.pi], 0.7,
                          26.0 + 2 * math.pi, 12 * math.pi, 6)[:, 0]
    assert abs(e0[11] - e0[12]) <= 1e-15
    assert abs(e0[13] - e0[12]) <= 1e-13
    assert np.all(np.diff(e0[:11]) > 0)
    k = np.round(GRID / (2 * math.pi))
    folded = np.round(np.abs(GRID - 2 * math.pi * k) / (math.pi / 10))
    assert count_local_minima(e0[folded.astype(int)]) == 3


@pytest.mark.parametrize("E1, converged, side", [(3e-3, 1.3638, 1),
                                                  (5e-3, 0.2785, -1)],
                         ids=["3e-3", "5e-3"])
def test_exact_criterion_6_window_opens_between_3e_3_and_5e_3(E1, converged,
                                                             side):
    # criterion 6 counts a jump iff <Phi>(0.9 pi) <= 0.15 pi = 0.4712
    # (test_two_level_staircase_count_rule).  At delta' = 0.005 the exact
    # pair reads 1.3566 at E1 = 3e-3 and 0.2796 at 5e-3 (h = 0.35,
    # |Phi - theta| <= 10, |chi| <= 4 pi + 3, m = 16): at least 0.19 from
    # the rule and within 0.008 of the h = 0.25, |chi| <= 6 pi + 3, m = 32
    # readings 1.3638 and 0.2785.  m = 12 is too coarse (0.3237 at 5e-3)
    phase = two_chain_mean_phase(PhysicalParams(E1=E1), 0.9 * math.pi, 0.35,
                                 10.0, 4 * math.pi + 3, 16)
    assert side * (phase - 0.15 * math.pi) >= 0.19
    assert abs(phase - converged) <= 0.008


def test_decoupled_comb_lies_just_above_the_product_ground_state():
    # at delta' = 0 the pair is two copies of the single chain of
    # test_single_chain_is_one_chain_of_the_pair, so its exact ground
    # energy is twice the chain's (sinc-DVR, step 0.5 over |phi| <= 40);
    # the decoupled comb lies 0.028-0.032% above it
    x = 0.5 * np.arange(-80, 81)
    for row in sweep_theta(DECOUPLED, EXACT_THETAS):
        chain = PhysicalParams(D=2.0 * STD.D1, omega_p_sq=STD.E1 / STD.D1,
                               mu_E=2.0 * STD.E2, theta=row.theta)
        e0 = lowest_levels(x, washboard_potential(x, chain), chain.D, 1)[0]
        assert 0.0 < row.e_min / (2.0 * e0) - 1.0 < 3.5e-4
