import math

import numpy as np
import pytest

from cdwlab.errors import DomainError
from cdwlab.model import (
    FieldDriveParams,
    PhysicalParams,
    driving_theta,
    extended_potential,
    multichain_potential,
    quadratic_coupling_approx,
    threshold_field,
    washboard_potential,
)


def test_physical_params_validation():
    with pytest.raises(DomainError):
        PhysicalParams(D=0.0)
    with pytest.raises(DomainError):
        PhysicalParams(D=-1.0)
    with pytest.raises(DomainError):
        PhysicalParams(omega_p_sq=-0.1)
    with pytest.raises(DomainError):
        PhysicalParams(mu_E=-1e-9)
    with pytest.raises(DomainError):
        PhysicalParams(D1=0.0)
    with pytest.raises(DomainError):
        PhysicalParams(E1=-1.0)
    with pytest.raises(DomainError):
        PhysicalParams(E2=-1.0)
    with pytest.raises(DomainError):
        PhysicalParams(delta_prime=-0.005)
    with pytest.raises(DomainError):
        PhysicalParams(hbar=0.0)
    with pytest.raises(DomainError):
        PhysicalParams(theta=math.inf)


def test_drive_params_validation():
    FieldDriveParams(a_D=-0.5)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            FieldDriveParams(a_D=bad)


def test_washboard_anchor_values():
    p0 = PhysicalParams(D=1.0, omega_p_sq=1.0, mu_E=0.3, theta=0.0)
    assert washboard_potential(0.0, p0) == 0.0

    p1 = PhysicalParams(D=1.0, omega_p_sq=1.0, mu_E=0.0, theta=0.0)
    assert washboard_potential(math.pi, p1) == pytest.approx(1.0, abs=1e-15)

    # half-way up the well: 0.5*0.01*(pi/2)^2 + 0.5
    p2 = PhysicalParams(D=1.0, omega_p_sq=1.0, mu_E=0.01, theta=0.0)
    expect = 0.5 * 0.01 * (math.pi / 2) ** 2 + 0.5
    assert expect == pytest.approx(0.512337, abs=5e-7)
    assert washboard_potential(math.pi / 2, p2) == pytest.approx(
        expect, rel=1e-15)


def test_washboard_nonnegative_and_vectorized():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = PhysicalParams(D=rng.uniform(0.1, 5),
                           omega_p_sq=rng.uniform(0, 4),
                           mu_E=rng.uniform(0, 1),
                           theta=rng.uniform(-10, 10))
        phi = rng.uniform(-30, 30, size=17)
        v = washboard_potential(phi, p)
        assert v.shape == phi.shape
        assert np.all(v >= 0)
        # scalar path agrees with vector path
        assert washboard_potential(float(phi[3]), p) == pytest.approx(
            float(v[3]), rel=1e-14, abs=1e-300)


def test_washboard_rejects_nonfinite():
    p = PhysicalParams()
    with pytest.raises(DomainError):
        washboard_potential(math.nan, p)
    with pytest.raises(DomainError):
        washboard_potential(np.array([0.0, math.inf]), p)


def test_multichain_anchor_values():
    p = PhysicalParams(E1=0.0, E2=0.0, delta_prime=0.005, theta=0.0)
    assert multichain_potential([0.0, 0.0], p) == 0.0
    assert multichain_potential([2.5, 2.5], p) == pytest.approx(0.0, abs=1e-15)
    assert multichain_potential([0.0, math.pi], p) == pytest.approx(
        0.01, rel=1e-14)


def test_multichain_needs_two_sites():
    p = PhysicalParams()
    with pytest.raises(DomainError):
        multichain_potential([0.0], p)


def test_multichain_full_sum_oracle():
    # compare against a direct loop over the defining sum
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = rng.integers(2, 9)
        phis = rng.uniform(-7, 7, size=n)
        p = PhysicalParams(E1=rng.uniform(0, 1), E2=rng.uniform(0, 1),
                           delta_prime=rng.uniform(0, 1),
                           theta=rng.uniform(-3, 3))
        ref = 0.0
        for k in range(n):
            ref += p.E1 * (1 - math.cos(phis[k]))
            ref += p.E2 * (phis[k] - p.theta) ** 2
            if k >= 1:
                ref += p.delta_prime * (1 - math.cos(phis[k] - phis[k - 1]))
        assert multichain_potential(phis, p) == pytest.approx(ref, rel=1e-13,
                                                              abs=1e-13)


def test_multichain_periodic_shift_when_uncharged():
    rng = np.random.default_rng(3)
    for _ in range(20):
        phis = rng.uniform(-5, 5, size=6)
        p = PhysicalParams(E1=rng.uniform(0, 1), E2=0.0,
                           delta_prime=rng.uniform(0, 1),
                           theta=rng.uniform(-3, 3))
        a = multichain_potential(phis, p)
        b = multichain_potential(phis + 2 * math.pi, p)
        assert b == pytest.approx(a, rel=1e-12, abs=1e-12)


def test_quadratic_coupling_values_and_bound():
    p = PhysicalParams(E1=0.0, E2=0.0, delta_prime=1.0, theta=0.0)
    assert quadratic_coupling_approx([0.0, 0.0], p) == 0.0
    assert quadratic_coupling_approx([0.0, 0.01], p) == pytest.approx(
        5e-5, rel=1e-14)
    # cosine Taylor remainder: |quadratic - exact| <= dphi^4 / 24
    dphi = 0.1
    diff = abs(quadratic_coupling_approx([0.0, dphi], p)
               - multichain_potential([0.0, dphi], p))
    assert diff <= dphi ** 4 / 24


def test_quadratic_coupling_quartic_convergence():
    p = PhysicalParams(E1=0.3, E2=0.0, delta_prime=0.7, theta=0.0)
    prev = None
    for dphi in [0.4, 0.2, 0.1, 0.05]:
        phis = [0.1, 0.1 + dphi, 0.1 + 2 * dphi]
        diff = abs(quadratic_coupling_approx(phis, p)
                   - multichain_potential(phis, p))
        if prev is not None:
            # halving dphi should shrink the defect by roughly 16
            assert diff < prev / 8
        prev = diff


def test_extended_potential_values():
    assert extended_potential(1.3, 1.3, 2.0, 5.0) == 0.0
    assert extended_potential(-1.0, 1.0, 1.0, 1.0) == pytest.approx(
        20.0, rel=1e-14)
    assert extended_potential(0.0, 1.0, 2.0, 3.0) == pytest.approx(
        5.0, rel=1e-14)


def test_extended_potential_zero_on_diagonal():
    rng = np.random.default_rng(11)
    for _ in range(30):
        phi0 = rng.uniform(-5, 5)
        c1, c2 = rng.uniform(-2, 2, size=2)
        assert extended_potential(phi0, phi0, c1, c2) == 0.0


def test_extended_potential_oracle():
    rng = np.random.default_rng(13)
    for _ in range(30):
        phi, phi0 = rng.uniform(-3, 3, size=2)
        c1, c2 = rng.uniform(-2, 2, size=2)
        d = phi - phi0
        ref = c1 * d * d - 4 * c2 * phi * phi0 * d * d \
            + c2 * (phi * phi - phi0 * phi0) ** 2
        assert extended_potential(phi, phi0, c1, c2) == pytest.approx(
            ref, rel=1e-13, abs=1e-13)


def test_driving_theta_and_threshold():
    assert driving_theta(0.0, 2.0) == 0.0
    assert driving_theta(1.0, 2.0) == pytest.approx(math.pi, rel=1e-15)
    assert driving_theta(2.0, 2.0) == pytest.approx(2 * math.pi, rel=1e-15)
    assert threshold_field(2.0) == 1.0
    assert threshold_field(1.0) == 0.5
    # composition lands exactly on the depinning boundary
    e_star = 3.7
    assert driving_theta(threshold_field(e_star), e_star) == pytest.approx(
        math.pi, rel=1e-15)
    with pytest.raises(DomainError):
        driving_theta(1.0, 0.0)
    with pytest.raises(DomainError):
        threshold_field(-1.0)


def test_driving_theta_linear():
    rng = np.random.default_rng(5)
    e_star = 2.0
    for _ in range(20):
        a, b = rng.uniform(0, 10, size=2)
        lhs = driving_theta(a + b, e_star)
        rhs = driving_theta(a, e_star) + driving_theta(b, e_star)
        assert lhs == pytest.approx(rhs, rel=1e-13)
