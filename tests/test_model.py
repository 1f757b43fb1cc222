import math

import numpy as np
import pytest

from cdwlab.errors import DomainError
from cdwlab.model import (
    FieldDriveParams,
    PhysicalParams,
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
