"""Model constants and potential-energy expressions.

Everything here is a pure function of its inputs.  Units are
dimensionless with the reduced Planck constant h = 1; a run at another
h is the run here with D/h and mu_E/h (single chain) or D1/h^2 (two
chains) in place of D, mu_E and D1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class PhysicalParams:
    """Coefficients of the single-chain washboard and the two-chain
    Hamiltonian.

    D, omega_p_sq, mu_E, theta parameterize the single-chain washboard;
    D1, E1, E2, delta_prime the two-chain Hamiltonian of
    `cdwlab.variational`.
    """

    D: float = 1.0
    omega_p_sq: float = 1.0
    mu_E: float = 0.0
    theta: float = 0.0
    D1: float = 174.091
    E1: float = 1.0e-5
    E2: float = 1.0e-6
    delta_prime: float = 0.005

    def __post_init__(self):
        mags = (self.D, self.omega_p_sq, self.mu_E, self.theta,
                self.D1, self.E1, self.E2, self.delta_prime)
        if not all(math.isfinite(v) for v in mags):
            raise DomainError("non-finite physical parameter")
        if self.D <= 0 or self.D1 <= 0:
            raise DomainError("D and D1 must be positive")
        if (self.omega_p_sq < 0 or self.mu_E < 0 or self.E1 < 0
                or self.E2 < 0 or self.delta_prime < 0):
            raise DomainError("magnitude coefficients must be non-negative")


@dataclass(frozen=True)
class FieldDriveParams:
    """Drive rate: the driving phase advances as theta + a_D*t."""

    a_D: float = 0.67

    def __post_init__(self):
        if not math.isfinite(self.a_D):
            raise DomainError("non-finite drive parameter")


def washboard_potential(phi, p):
    """Tilted washboard: 0.5*mu_E*(phi-theta)^2 + 0.5*D*omega_p_sq*(1-cos phi).

    Returns an array of phi's shape (0-d for a scalar phase);
    non-negative for the validated parameter ranges.
    """
    phi = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phi)):
        raise DomainError("non-finite phase")
    return _washboard(phi, p, p.theta, _pinning(phi, p))


def _pinning(phi, p):
    """The theta-independent pinning term 0.5*D*omega_p_sq*(1-cos phi)."""
    return 0.5 * p.D * p.omega_p_sq * (1.0 - np.cos(phi))


def _washboard(phi, p, theta, pin):
    """washboard_potential at driving phase theta in place of p.theta,
    for a float array phi the caller has checked and its _pinning(phi, p)."""
    d = phi - theta
    return 0.5 * p.mu_E * d * d + pin
