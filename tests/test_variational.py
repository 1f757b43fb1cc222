import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdwlab import variational
from cdwlab.errors import ConvergenceError, DomainError, QuadratureError
from cdwlab.model import PhysicalParams
from cdwlab.variational import (
    CENTERS,
    AnsatzCoeffs,
    QuadratureSpec,
    SweepResult,
    SweepRow,
    count_local_minima,
    energy_expectation,
    minimize_energy,
    norm_squared,
    phase_expectation,
    phase_jumps,
    sweep_theta,
)

Q = QuadratureSpec()
QF = QuadratureSpec(eta=20.0, panels=160, order=12)
STD = PhysicalParams()
FREE = PhysicalParams(E1=0.0, E2=0.0, delta_prime=0.0)

E2ONLY = (0.0, 0.0, 1.0, 0.0, 0.0)


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
    assert not a.is_normalized()
    proj = a.projected()
    assert proj.is_normalized()
    assert proj.b[0] == 1.0
    assert proj.c[2] == 1.0
    with pytest.raises(DomainError):
        AnsatzCoeffs((0.0,) * 5, E2ONLY, 1.0).projected()


def test_norm_squared_single_gaussian():
    # (integral of e^{-2 phi^2})^2 = pi/2 on the eta=20 box
    a = AnsatzCoeffs(E2ONLY, E2ONLY, 1.0)
    assert abs(norm_squared(a, QF) - math.pi / 2.0) < 1e-10


def test_norm_squared_scaling():
    rng = np.random.default_rng(52)
    b = tuple(rng.normal(size=5))
    c = tuple(rng.normal(size=5))
    a = AnsatzCoeffs(b, c, 0.4)
    doubled = AnsatzCoeffs(tuple(2 * v for v in b), tuple(2 * v for v in c),
                           0.4)
    assert norm_squared(doubled, Q) == pytest.approx(
        16.0 * norm_squared(a, Q), rel=1e-13)


def test_norm_squared_large_alpha_orthogonal():
    # well-separated teeth: norm -> (sum b^2)(sum c^2) * pi/(2 alpha)
    alpha = 10.0
    a = AnsatzCoeffs((0.1, 0.2, 0.9, 0.3, 0.2), (0.5, 0.1, 0.8, 0.2, 0.1),
                     alpha).projected()
    assert norm_squared(a, QF) == pytest.approx(math.pi / (2 * alpha),
                                                rel=1e-10)


def test_norm_squared_quadrature_failure():
    # a comb far narrower than the node spacing underflows to zero
    a = AnsatzCoeffs(E2ONLY, E2ONLY, 1e12)
    with pytest.raises(QuadratureError):
        norm_squared(a, Q)


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
    with pytest.raises(ConvergenceError) as err:
        minimize_energy(FREE, 0.0)
    coeffs, e = err.value.best_coeffs, err.value.best_energy
    assert e <= e_init + 1e-12
    lo = variational._LOG_ALPHA_LIMITS[0]
    assert lo <= math.log(coeffs.alpha) < lo + variational._LOG_ALPHA_STEP


@pytest.mark.parametrize("p", [PhysicalParams(E1=1.0),
                               PhysicalParams(hbar=1e-3)])
def test_minimize_finds_alpha_beyond_the_scan(p):
    # both optima lie above the coarse scan's top alpha: the scan must be
    # extended until the energy rises, and alpha refined inside that
    top = variational._LOG_ALPHA_SCAN[-1]
    coeffs, e = minimize_energy(p, 0.3)
    assert math.log(coeffs.alpha) > top + variational._LOG_ALPHA_STEP
    assert e < variational._alternate(p, 0.3, top)[0]
    for step in (-1e-3, 1e-3):
        la = math.log(coeffs.alpha) + step
        assert variational._alternate(p, 0.3, la)[0] >= e


def test_minimize_theta_zero_symmetric_and_near_grid_scan():
    # coarse scan over (b0, b1 = b_-1, alpha) with b2 fixed by the norm
    coeffs, e = minimize_energy(STD, 0.0)
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
    mats = variational._chain_matrices(STD, alpha, theta)
    vb, vc = np.array(a.b), np.array(a.c)
    e = variational._energy(mats, STD.delta_prime, vb, vc)
    ref = energy_expectation(a, STD, theta, QF)
    assert abs(e - ref) <= rtol * abs(ref)
    phi = variational._mean_phase(mats, vb, vc)
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
    # lone minimize_energy call exactly
    grid = [-0.4, 0.0, 0.3]
    res = sweep_theta(STD, grid)
    assert len(res.rows) == len(grid)
    for theta, row in zip(grid, res.rows):
        coeffs, e = minimize_energy(STD, theta)
        assert row.theta == theta
        assert row.converged
        assert row.e_min == e
        assert row.coeffs == coeffs
        assert coeffs.is_normalized(tol=1e-10)
        assert row.mean_phi == pytest.approx(phase_expectation(coeffs, Q),
                                             rel=1e-10, abs=1e-12)


def test_sweep_grid_validation():
    with pytest.raises(DomainError):
        sweep_theta(STD, [])
    with pytest.raises(DomainError):
        sweep_theta(STD, [0.2, 0.1])


def test_sweep_rows_record_eigen_gap():
    for p in (STD, PhysicalParams(delta_prime=0.0)):
        for row in sweep_theta(p, [-0.3, 0.0, 0.3]).rows:
            assert math.isfinite(row.gap) and row.gap > 0.0


def test_nonconverged_point_kept_in_row(monkeypatch):
    # one alternation step can never show that the energy stopped changing
    monkeypatch.setattr(variational, "_MAX_ALTERNATIONS", 1)
    with pytest.raises(ConvergenceError) as err:
        minimize_energy(STD, 0.3)
    best = err.value.best_coeffs
    assert isinstance(best, AnsatzCoeffs) and best.is_normalized()
    assert math.isfinite(err.value.best_energy)
    row = sweep_theta(STD, [0.3]).rows[0]
    assert not row.converged
    assert row.coeffs == best
    assert row.e_min == err.value.best_energy


def test_sweep_result_table_and_order():
    a = AnsatzCoeffs(E2ONLY, E2ONLY, 1.0)
    rows = [SweepRow(0.0, 1.0, 0.0, True, a),
            SweepRow(0.5, 1.1, 0.1, False, a)]
    res = SweepResult(rows)
    table = res.to_table()
    assert table.columns == ("theta", "E_min", "mean_Phi", "converged",
                             "b_-2", "b_-1", "b_0", "b_1", "b_2",
                             "c_-2", "c_-1", "c_0", "c_1", "c_2", "alpha")
    assert [r[3] for r in table.rows] == [1.0, 0.0]
    assert [r[-1] for r in table.rows] == [1.0, 1.0]
    with pytest.raises(DomainError):
        SweepResult([rows[1], rows[0]])


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
