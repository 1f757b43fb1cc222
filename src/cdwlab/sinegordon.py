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
from numpy import add as _add, multiply as _multiply, subtract as _subtract

from .curves import CurveTable
from .errors import DomainError, FieldOverflowError


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
        return 4.0 * np.arctan(np.exp(u))


def kink_phase_rate(z, tau, k):
    """d(phi)/d(tau) of the kink; kink_chain is the chain as launched."""
    gamma = math.sqrt(1.0 - k.beta * k.beta)
    u = k.sign * (np.asarray(z, dtype=float) + k.beta * tau) / gamma
    with np.errstate(over="ignore"):  # cosh overflows far out; 2/inf = 0
        return 2.0 / np.cosh(u) * k.sign * k.beta / gamma


def kink_chain(sites, omega0_sq, omega1_sq, center, spec):
    """The chain launched as the kink spec centred on site center: at
    spacing 1, v = omega0 and z_i = (omega1/omega0)*(i - center).  The
    caller checks that omega0_sq and omega1_sq are positive and finite."""
    omega1 = math.sqrt(omega1_sq)
    z = (omega1 / math.sqrt(omega0_sq)) * (np.arange(sites) - center)
    return ChainState(kink_phase(z, 0.0, spec), omega1 * kink_phase_rate(
        z, 0.0, spec), omega0_sq, omega1_sq)


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


def _force(row, mid, stencil, omega1_sq, out, sin):
    """Write omega0_sq*(phi_{i+1} - 2 phi_i + phi_{i-1})
    - omega1_sq*sin(phi_i) into out for the interior sites mid = row[1:-1]
    of a chain's angles row, where stencil = omega0_sq*(1, -2, 1).  The
    Laplacian is one np.correlate, which sums the three products left to
    right (numpy's dot, through BLAS ddot) into one new (m-2)-float
    array; sin is scratch of out's size.  omega1_sq None stands for 1
    and skips its multiply, which would leave every value bit for bit
    as it is (-0.0, inf and NaN too)."""
    np.sin(mid, sin)
    if omega1_sq is not None:
        _multiply(sin, omega1_sq, sin)
    _subtract(np.correlate(row, stencil), sin, out)


def integrate_chain_rk4(s, dt, steps, stride=1):
    """Classical RK4 on (phi, phi_dot); snapshots every `stride` steps.

    The stages live in one (4, 3, m) block b with rows phi, phi_dot and
    phi_ddot: stage j is b[j, :2] (stage 0 is the state y) and its
    derivative b[j, 1:].  b, its views and the force stencil are built
    once per run.  A step is 20 numpy calls (24 when omega1_sq != 1):
    3 per force, 2 to form each later stage, and the update
    y += (dt/6)*(k1 + 2 k2 + 2 k3 + k4) as one matmul of the weights
    with the (4, 2m) view of the derivatives and one add.  It allocates
    only np.correlate's (m-2)-float row per force.  The Laplacian's
    ddot and the update's gemv run through BLAS, and the snapshots are
    the same bytes at 1 and 2 BLAS threads (tested).
    Both end sites are clamped: their angles never change, their
    phi_dot and phi_ddot columns in b stay 0, and their own velocities
    are held aside for the snapshots.  The returned list starts with a
    copy of the initial state, and every snapshot holds its own copies
    of the arrays.  A non-finite state aborts with the offending step.
    It is checked at snapshots and the last step only: a non-finite
    value stays so (the ends are clamped, and NaN and inf survive every
    update y += k), so a failed check replays from the last snapshot."""
    if not (math.isfinite(dt) and dt > 0):
        raise DomainError("dt must be positive")
    if steps < 1:
        raise DomainError("steps must be >= 1")
    if stride < 1:
        raise DomainError("stride must be >= 1")
    m = s.phi.size
    b = np.zeros((4, 3, m))
    b[0, 0], b[0, 1, 1:-1] = s.phi, s.phi_dot[1:-1]
    y, ks, inc = b[0, :2], b[:, 1:].reshape(4, 2 * m), np.empty(2 * m)
    flat = y.reshape(2 * m)
    ends = s.phi_dot[::m - 1] + 0.0  # as y += 0 leaves them
    sin = np.empty(m - 2)
    stencil = s.omega0_sq * np.array((1.0, -2.0, 1.0))
    weights = dt / 6.0 * np.array((1.0, 2.0, 2.0, 1.0))
    half, full = np.array(0.5 * dt), np.array(dt)
    w1 = None if s.omega1_sq == 1.0 else np.array(s.omega1_sq)

    # stage j: k, h with b[j, :2] = y + h*k (k None at j = 0), its views
    plan = [(b[j - 1, 1:] if j else None, h, b[j, :2], b[j, 0],
             b[j, 0, 1:-1], b[j, 2, 1:-1])
            for j, h in enumerate((None, half, half, full))]

    def step():
        for k, h, stage, row, mid, acc in plan:
            if k is not None:
                _multiply(k, h, stage)
                _add(y, stage, stage)
            _force(row, mid, stencil, w1, acc, sin)
        np.matmul(weights, ks, out=inc)
        _add(flat, inc, flat)

    snaps = [ChainState(s.phi, s.phi_dot, s.omega0_sq, s.omega1_sq)]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, steps + 1):
            step()
            if (n % stride == 0 or n == steps) and not np.isfinite(y).all():
                y[0], y[1, 1:-1] = snaps[-1].phi, snaps[-1].phi_dot[1:-1]
                n = (len(snaps) - 1) * stride
                while np.isfinite(y).all():
                    step()
                    n += 1
                raise FieldOverflowError(
                    "chain state became non-finite at step %d of %d"
                    % (n, steps))
            if n % stride == 0:
                snaps.append(ChainState(*y, s.omega0_sq, s.omega1_sq))
                snaps[-1].phi_dot[::m - 1] = ends
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
        raise DomainError("no phi = pi crossing in snapshot")
    if count > 1:
        raise DomainError("multiple phi = pi crossings in snapshot")
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


def thin_wall_profile(x, b, L):
    """Sharp-wall pair profile centred on 0, walls at -L/2 and L/2:
    pi*(tanh(b*(x + L/2)) + tanh(b*(L/2 - x)))."""
    if not (math.isfinite(b) and b > 0):
        raise DomainError("steepness b must be positive and finite")
    if not (math.isfinite(L) and L > 0):
        raise DomainError("separation L must be positive")
    x = np.asarray(x, dtype=float)
    h = 0.5 * L
    return math.pi * (np.tanh(b * (x + h)) + np.tanh(b * (h - x)))


def chain_trajectory_table(snapshots, dt_snapshot):
    """Long-format table of chain snapshots: one row per (time, site)."""
    phi = np.array([s.phi for s in snapshots])
    phi_dot = np.array([s.phi_dot for s in snapshots])
    n, m = phi.shape
    return CurveTable(("t", "site", "phi", "phi_dot"), np.column_stack((
        np.repeat(np.arange(n) * dt_snapshot, m),
        np.tile(np.arange(m, dtype=float), n), phi.ravel(), phi_dot.ravel())))
