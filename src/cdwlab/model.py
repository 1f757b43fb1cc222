"""Model constants and potential-energy expressions.

Everything here is a pure function of its inputs.  Units are
dimensionless throughout with hbar carried explicitly (default 1), so
all coefficients are plain numbers supplied by the caller.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class PhysicalParams:
    """Coefficients of the single-chain and multi-chain potentials.

    D, omega_p_sq, mu_E, theta parameterize the single-chain washboard;
    D1, E1, E2, delta_prime the multi-chain form.
    """

    D: float = 1.0
    omega_p_sq: float = 1.0
    mu_E: float = 0.0
    theta: float = 0.0
    D1: float = 174.091
    E1: float = 1.0e-5
    E2: float = 1.0e-6
    delta_prime: float = 0.005
    hbar: float = 1.0

    def __post_init__(self):
        mags = (self.D, self.omega_p_sq, self.mu_E, self.theta,
                self.D1, self.E1, self.E2, self.delta_prime, self.hbar)
        if not all(math.isfinite(v) for v in mags):
            raise DomainError("non-finite physical parameter")
        if self.D <= 0 or self.D1 <= 0 or self.hbar <= 0:
            raise DomainError("D, D1 and hbar must be positive")
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

    Accepts a scalar or an array of phases; non-negative for the
    validated parameter ranges.
    """
    phi = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phi)):
        raise DomainError("non-finite phase")
    d = phi - p.theta
    out = 0.5 * p.mu_E * d * d + 0.5 * p.D * p.omega_p_sq * (1.0 - np.cos(phi))
    if out.ndim == 0:
        return float(out)
    return out


def multichain_potential(phis, p):
    """Chain-summed potential with nearest-neighbor cosine coupling.

    Sum over sites of E1*(1-cos phi) + E2*(phi-theta)^2 plus
    delta_prime*(1-cos(phi_n - phi_{n-1})) over consecutive pairs of an
    open chain.
    """
    phis = np.asarray(phis, dtype=float)
    if phis.ndim != 1 or phis.size < 2:
        raise DomainError("need at least 2 chain phases")
    if not np.all(np.isfinite(phis)):
        raise DomainError("non-finite phase")
    d = phis - p.theta
    onsite = p.E1 * np.sum(1.0 - np.cos(phis)) + p.E2 * np.sum(d * d)
    coupling = p.delta_prime * np.sum(1.0 - np.cos(np.diff(phis)))
    return float(onsite + coupling)


def quadratic_coupling_approx(phis, p):
    """Small-difference reduction: E1*sum(1-cos) + (delta_prime/2)*sum(dphi^2).

    Agrees with multichain_potential at E2=0 to fourth order in the
    phase differences.
    """
    phis = np.asarray(phis, dtype=float)
    if phis.ndim != 1 or phis.size < 2:
        raise DomainError("need at least 2 chain phases")
    if not np.all(np.isfinite(phis)):
        raise DomainError("non-finite phase")
    steps = np.diff(phis)
    return float(p.E1 * np.sum(1.0 - np.cos(phis))
                 + 0.5 * p.delta_prime * np.sum(steps * steps))


def extended_potential(phi, phi0, C1, C2):
    """Quartic double-well extension used for the false-vacuum picture."""
    vals = (phi, phi0, C1, C2)
    if not all(math.isfinite(float(v)) for v in vals):
        raise DomainError("non-finite input")
    d = phi - phi0
    return (C1 * d * d
            - 4.0 * C2 * phi * phi0 * d * d
            + C2 * (phi * phi - phi0 * phi0) ** 2)


def driving_theta(E, field_scale):
    """Driving phase 2*pi*E/E* for applied field E and field scale E*."""
    if not (math.isfinite(field_scale) and field_scale > 0):
        raise DomainError("field scale must be positive")
    if not math.isfinite(E):
        raise DomainError("non-finite field")
    return 2.0 * math.pi * E / field_scale


def threshold_field(field_scale):
    """Depinning threshold E_T = E*/2."""
    if not (math.isfinite(field_scale) and field_scale > 0):
        raise DomainError("field scale must be positive")
    return 0.5 * field_scale
