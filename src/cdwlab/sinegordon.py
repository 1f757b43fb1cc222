"""Discrete pendulum chain and its sine-Gordon continuum limit.

The chain obeys phi_ddot_i = omega0_sq*(phi_{i+1} - 2 phi_i + phi_{i-1})
- omega1_sq*sin(phi_i) with both end sites clamped at their initial
values (the flip-over connects the two vacua, so the ends sit at 0 and
2*pi).  In dimensionless variables z = (omega1/v)*x, tau = omega1*t the
continuum limit is phi_tautau - phi_zz + sin(phi) = 0, whose traveling
kink is the 4*arctan(exp(.)) profile.
"""

import math
from dataclasses import dataclass

import numpy as np

from .curves import CurveTable
from .errors import DiagnosticError, DomainError, FieldOverflowError


@dataclass
class ChainState:
    """Angles and angular velocities of the pendulum chain."""

    phi: np.ndarray
    phi_dot: np.ndarray
    omega0_sq: float = 1.0
    omega1_sq: float = 1.0

    def __post_init__(self):
        self.phi = np.array(self.phi, dtype=float, copy=True)
        self.phi_dot = np.array(self.phi_dot, dtype=float, copy=True)
        if self.phi.ndim != 1 or self.phi_dot.ndim != 1:
            raise DomainError("chain state must be 1-D")
        if self.phi.size != self.phi_dot.size:
            raise DomainError("phi and phi_dot lengths differ")
        if self.phi.size < 3:
            raise DomainError("chain needs at least 3 sites")
        if not (np.all(np.isfinite(self.phi))
                and np.all(np.isfinite(self.phi_dot))):
            raise DomainError("non-finite chain state")
        if not (math.isfinite(self.omega0_sq) and self.omega0_sq >= 0):
            raise DomainError("omega0_sq must be finite and >= 0")
        if not (math.isfinite(self.omega1_sq) and self.omega1_sq >= 0):
            raise DomainError("omega1_sq must be finite and >= 0")


@dataclass(frozen=True)
class KinkSpec:
    """Kink velocity fraction and orientation branch."""

    beta: float = 0.0
    sign: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.beta) and abs(self.beta) < 1.0):
            raise DomainError("|beta| must be strictly below 1")
        if self.sign not in (1, -1):
            raise DomainError("sign must be +1 or -1")


def kink_phase(z, tau, k):
    """Traveling kink 4*arctan(exp(sign*(z + beta*tau)/sqrt(1-beta^2)))."""
    gamma = math.sqrt(1.0 - k.beta * k.beta)
    u = k.sign * (np.asarray(z, dtype=float) + k.beta * tau) / gamma
    with np.errstate(over="ignore"):
        out = 4.0 * np.arctan(np.exp(u))
    if out.ndim == 0:
        return float(out)
    return out


def kink_phase_rate(z, tau, k):
    """Analytic d(phi)/d(tau) of the kink, for launching chain runs."""
    gamma = math.sqrt(1.0 - k.beta * k.beta)
    u = k.sign * (np.asarray(z, dtype=float) + k.beta * tau) / gamma
    out = 2.0 / np.cosh(u) * k.sign * k.beta / gamma
    if out.ndim == 0:
        return float(out)
    return out


def sine_gordon_residual(phi_prev, phi_curr, phi_next, dz, dtau):
    """Central-difference residual of phi_tautau - phi_zz + sin(phi).

    Takes three consecutive time levels of a spatial grid and returns
    the residual on interior points of the middle level.
    """
    prev = np.asarray(phi_prev, dtype=float)
    curr = np.asarray(phi_curr, dtype=float)
    nxt = np.asarray(phi_next, dtype=float)
    if prev.shape != curr.shape or nxt.shape != curr.shape:
        raise DomainError("time levels have mismatched shapes")
    if curr.ndim != 1 or curr.size < 3:
        raise DomainError("grid too small for central differences")
    if not (dz > 0 and dtau > 0):
        raise DomainError("spacings must be positive")
    phi_tt = (prev[1:-1] - 2.0 * curr[1:-1] + nxt[1:-1]) / dtau ** 2
    phi_zz = (curr[2:] - 2.0 * curr[1:-1] + curr[:-2]) / dz ** 2
    return phi_tt - phi_zz + np.sin(curr[1:-1])


def _force(phi, omega0_sq, omega1_sq):
    acc = np.zeros_like(phi)
    acc[1:-1] = (omega0_sq * (phi[2:] - 2.0 * phi[1:-1] + phi[:-2])
                 - omega1_sq * np.sin(phi[1:-1]))
    return acc


def chain_acceleration(s):
    """Discrete Laplacian coupling minus pendulum restoring force.

    End sites are clamped: their acceleration is reported as zero.
    """
    return _force(s.phi, s.omega0_sq, s.omega1_sq)


def _derivative(phi, phi_dot, omega0_sq, omega1_sq):
    # clamped ends: both the angle and its velocity are frozen there
    dphi = phi_dot.copy()
    dphi[0] = 0.0
    dphi[-1] = 0.0
    return dphi, _force(phi, omega0_sq, omega1_sq)


def integrate_chain_rk4(s, dt, steps, stride=1):
    """Classical RK4 on (phi, phi_dot); snapshots every `stride` steps.

    The returned list starts with a copy of the initial state.  A
    non-finite state aborts with the offending step index.
    """
    if not (dt > 0):
        raise DomainError("dt must be positive")
    if steps < 1:
        raise DomainError("steps must be >= 1")
    if stride < 1:
        raise DomainError("stride must be >= 1")
    w0, w1 = s.omega0_sq, s.omega1_sq
    phi = s.phi.copy()
    dot = s.phi_dot.copy()
    snaps = [ChainState(phi, dot, w0, w1)]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, steps + 1):
            k1p, k1d = _derivative(phi, dot, w0, w1)
            k2p, k2d = _derivative(phi + 0.5 * dt * k1p,
                                   dot + 0.5 * dt * k1d, w0, w1)
            k3p, k3d = _derivative(phi + 0.5 * dt * k2p,
                                   dot + 0.5 * dt * k2d, w0, w1)
            k4p, k4d = _derivative(phi + dt * k3p, dot + dt * k3d, w0, w1)
            phi = phi + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
            dot = dot + (dt / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
            if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(dot))):
                raise FieldOverflowError("chain state became non-finite",
                                         step=n)
            if n % stride == 0:
                snaps.append(ChainState(phi, dot, w0, w1))
    return snaps


def chain_energy(s):
    """Discrete energy 0.5*sum(phi_dot^2) + omega1_sq*sum(1-cos phi)
    + 0.5*omega0_sq*sum(dphi^2); conserved by the clamped-end dynamics."""
    kin = 0.5 * np.sum(s.phi_dot ** 2)
    pend = s.omega1_sq * np.sum(1.0 - np.cos(s.phi))
    steps = np.diff(s.phi)
    spring = 0.5 * s.omega0_sq * np.sum(steps * steps)
    return float(kin + pend + spring)


def _pi_crossing(phi, dx_lattice):
    """Position of the single interior phi = pi crossing, interpolated."""
    d = phi - math.pi
    hits = np.nonzero(d[:-1] * d[1:] < 0.0)[0]
    exact = np.nonzero(d == 0.0)[0]
    count = len(hits) + len(exact)
    if count == 0:
        raise DiagnosticError("no phi = pi crossing in snapshot")
    if count > 1:
        raise DiagnosticError("multiple phi = pi crossings in snapshot")
    if len(exact):
        return float(exact[0]) * dx_lattice
    i = int(hits[0])
    frac = (math.pi - phi[i]) / (phi[i + 1] - phi[i])
    return (i + frac) * dx_lattice


def kink_velocity_estimate(snapshots, dx_lattice, dt_snapshot):
    """Slope of a linear fit to the phi = pi crossing position vs time."""
    if len(snapshots) < 2:
        raise DomainError("need at least 2 snapshots for a velocity fit")
    if not (dx_lattice > 0 and dt_snapshot > 0):
        raise DomainError("spacings must be positive")
    times = np.arange(len(snapshots)) * dt_snapshot
    pos = np.array([_pi_crossing(s.phi, dx_lattice) for s in snapshots])
    slope = np.polyfit(times, pos, 1)[0]
    return float(slope)


def thin_wall_profile(x, b, x_a, x_b):
    """Sharp-wall pair profile pi*(tanh(b*(x-x_a)) + tanh(b*(x_b-x)))."""
    if not (math.isfinite(b) and b > 0):
        raise DomainError("steepness b must be positive")
    if not x_a < x_b:
        raise DomainError("wall centers must satisfy x_a < x_b")
    x = np.asarray(x, dtype=float)
    out = math.pi * (np.tanh(b * (x - x_a)) + np.tanh(b * (x_b - x)))
    if out.ndim == 0:
        return float(out)
    return out


def chain_trajectory_table(snapshots, dt_snapshot):
    """Long-format table of chain snapshots: one row per (time, site)."""
    return CurveTable(("t", "site", "phi", "phi_dot"),
                      ((k * dt_snapshot, float(i), s.phi[i], s.phi_dot[i])
                       for k, s in enumerate(snapshots)
                       for i in range(s.phi.size)))
