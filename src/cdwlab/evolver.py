"""Finite-difference evolution of a complex amplitude on the phase grid.

Four schemes: the two difference equations exactly as printed in the
source material (kept for their instability phenomenology) and their
textbook-correct counterparts.  The governing equation is

    i*hbar*psi_t = -(hbar^2/D)*psi_xx + V(x, t)*psi

with V the washboard potential whose driving phase theta advances
linearly in time at rate a_D.  Grid boundaries are held fixed
(Dirichlet) by default; a periodic variant sits behind the boundary
flag.
"""

import enum
import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import zgttrf, zgttrs

from .curves import CurveTable
from .errors import DomainError, FieldOverflowError
from .model import _washboard, washboard_potential


@dataclass
class ComplexField:
    """Complex amplitude sampled on a uniform 1-D grid."""

    values: np.ndarray
    dx: float
    x0: float = 0.0

    def __post_init__(self):
        self.values = np.array(self.values, dtype=complex, copy=True)
        if self.values.ndim != 1 or self.values.size < 3:
            raise DomainError("field needs at least 3 grid points")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("non-finite field amplitudes")
        if not (math.isfinite(self.dx) and self.dx > 0):
            raise DomainError("grid spacing must be positive")
        if not math.isfinite(self.x0):
            raise DomainError("grid origin must be finite")

    def grid(self):
        return self.x0 + self.dx * np.arange(self.values.size)


class SchemeKind(enum.Enum):
    CRANK_NICOLSON_AS_PRINTED = "cn-printed"
    DUFORT_FRANKEL_AS_PRINTED = "df-printed"
    CRANK_NICOLSON_STANDARD = "cn-standard"
    DUFORT_FRANKEL_STANDARD = "df-standard"


@dataclass
class Trajectory:
    """Per-step record of time, mean phase and L2 norm."""

    times: np.ndarray
    mean_phase: np.ndarray
    norm: np.ndarray
    truncated: bool = False

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.mean_phase = np.asarray(self.mean_phase, dtype=float)
        self.norm = np.asarray(self.norm, dtype=float)
        if not (self.times.size == self.mean_phase.size == self.norm.size):
            raise DomainError("trajectory sequences must have equal length")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise DomainError("times must be strictly increasing")

    def __len__(self):
        return self.times.size


def _check(dt, boundary, sweeps):
    """Validate the step arguments; True when the ends are periodic."""
    if not (math.isfinite(dt) and dt > 0):
        raise DomainError("dt must be positive")
    if boundary not in ("dirichlet", "periodic"):
        raise DomainError("boundary must be 'dirichlet' or 'periodic'")
    if sweeps < 1:
        raise DomainError("need at least one fixed-point sweep")
    return boundary == "periodic"


def _neighbours(a, combine=np.add):
    """combine(a[j-1], a[j+1]) at every grid point, wrapping around at
    the ends (kernels with held ends overwrite the end points)."""
    a = np.concatenate((a[-1:], a, a[:1]))
    return combine(a[:-2], a[2:])


def _laplacian(a, periodic):
    out = np.zeros_like(a)
    out[1:-1] = a[2:] - 2.0 * a[1:-1] + a[:-2]
    if periodic:
        out[0] = a[1] - 2.0 * a[0] + a[-1]
        out[-1] = a[0] - 2.0 * a[-1] + a[-2]
    return out


def _lu(dl, d, du):
    """LAPACK LU factors of the tridiagonal matrix (dl, d, du), by the
    same partial-pivoting elimination as LAPACK's one-shot ?gtsv solve;
    overwrites its arguments.  None for a non-finite matrix, whose
    solutions are non-finite (?gtsv gives them; zgttrf may instead
    report a zero pivot)."""
    if not all(np.isfinite(a).all() for a in (dl, d, du)):
        return None
    *factors, info = zgttrf(dl, d, du, overwrite_dl=1, overwrite_d=1,
                            overwrite_du=1)
    _check_info(info)
    return factors


def _solve(factors, b):
    """Solution of the factored system for b; overwrites b."""
    if factors is None:
        return np.full_like(b, np.nan)
    x, info = zgttrs(*factors, b, overwrite_b=1)
    _check_info(info)
    return x


def _check_info(info):
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError("illegal value in argument %d of zgttrf/zgttrs"
                         % -info)


# A plan builder takes (V, p, dx, dt, periodic, sweeps), computes what
# depends only on them, and returns step(prev, curr) -> new on plain
# arrays; only cn-printed reads sweeps.  Steps check nothing, and
# without periodic ends they hold the end points at curr's.
def _cn_printed(V, p, dx, dt, periodic, sweeps):
    kappa = p.hbar / (p.D * dx * dx)
    drift_v = (2.0 / p.hbar) * V

    def step(prev, curr):
        lap_c = _laplacian(curr, periodic)
        drift = drift_v * curr
        g = prev
        for _ in range(sweeps):
            new = prev + 1j * dt * (kappa * (lap_c + _laplacian(g, periodic))
                                    - drift)
            if not periodic:
                new[0], new[-1] = curr[0], curr[-1]
            g = new
        return new

    return step


def _dufort_frankel(V, p, dx, dt, periodic, sweeps, combine=np.add):
    r2 = -1j * dt * p.hbar / (p.D * dx * dx)  # 2*R~
    a = r2 / (1.0 + r2)
    b = (1.0 - r2) / (1.0 + r2)
    pot = 1j * dt * (V / p.hbar)

    def step(prev, curr):
        new = a * _neighbours(curr, combine) + b * prev - pot * curr
        if not periodic:
            new[0], new[-1] = curr[0], curr[-1]
        return new

    return step


_df_printed = partial(_dufort_frankel, combine=np.subtract)


def _cn_standard(V, p, dx, dt, periodic, sweeps):
    koff = 1j * p.hbar / (p.D * dx * dx)
    diag_m = -2.0 * koff - 1j * V / p.hbar
    half = 0.5 * dt
    diag = 1.0 - half * diag_m
    off = -half * koff
    dl = np.full(V.size - 1, off)
    du = dl.copy()

    def explicit(curr):
        return curr + half * (koff * _neighbours(curr) + diag_m * curr)

    if not periodic:
        diag[0] = diag[-1] = 1.0
        du[0] = dl[-1] = 0.0
        lu = _lu(dl, diag, du)

        def step(prev, curr):
            rhs = explicit(curr)
            rhs[0], rhs[-1] = curr[0], curr[-1]
            return _solve(lu, rhs)

        return step

    # Cyclic corners by Sherman-Morrison: the matrix is T + u v^T with
    # T tridiagonal, u = (gamma, 0, .., off), v = (1, 0, .., off/gamma);
    # z = T^-1 u and v.z depend on V only.
    gamma = -diag[0]
    diag[0] -= gamma
    diag[-1] -= off * off / gamma
    lu = _lu(dl, diag, du)
    u = np.zeros(V.size, dtype=complex)
    u[0] = gamma
    u[-1] = off
    z = _solve(lu, u)
    ratio = off / gamma
    vz = z[0] + ratio * z[-1]

    def step(prev, curr):
        y = _solve(lu, explicit(curr))
        vy = y[0] + ratio * y[-1]
        return y - z * (vy / (1.0 + vz))

    return step


_PLANS = {
    SchemeKind.CRANK_NICOLSON_AS_PRINTED: _cn_printed,
    SchemeKind.DUFORT_FRANKEL_AS_PRINTED: _df_printed,
    SchemeKind.CRANK_NICOLSON_STANDARD: _cn_standard,
    SchemeKind.DUFORT_FRANKEL_STANDARD: _dufort_frankel,
}


def _step(build, prev, curr, p, dt, boundary, sweeps=1):
    if (prev.values.size != curr.values.size or prev.dx != curr.dx
            or prev.x0 != curr.x0):
        raise DomainError("prev and curr live on different grids")
    periodic = _check(dt, boundary, sweeps)
    with np.errstate(over="ignore", invalid="ignore"):
        step = build(washboard_potential(curr.grid(), p), p, curr.dx, dt,
                     periodic, sweeps)
        new = step(prev.values, curr.values)
    if not np.isfinite(new).all():
        raise FieldOverflowError("field left the finite range")
    return ComplexField(new, curr.dx, curr.x0)


def step_crank_nicolson_printed(prev, curr, p, dt, sweeps=1,
                                boundary="dirichlet"):
    """One step of the printed Crank-Nicolson-like leapfrog.

    new = prev + i*dt*( (hbar/D)*(lap(curr) + lap(new))/dx^2
                        - (2*V/hbar)*curr )

    The implicit lap(new) is resolved by Jacobi-style fixed-point sweeps
    seeded from prev; one sweep reproduces the printed update.  The
    scheme is unstable for every dt (kept deliberately).
    """
    return _step(_cn_printed, prev, curr, p, dt, boundary, sweeps)


def step_dufort_frankel_printed(prev, curr, p, dt, boundary="dirichlet"):
    """The printed DuFort-Frankel-like update, sign error and all:

    new = (2R/(1+2R))*(curr_{j-1} - curr_{j+1}) + ((1-2R)/(1+2R))*prev
          - i*dt*(V/hbar)*curr,   R = -i*dt*hbar/(2*D*dx^2)

    The neighbor difference (instead of sum) means even a constant field
    is not preserved."""
    return _step(_df_printed, prev, curr, p, dt, boundary)


def step_dufort_frankel_standard(prev, curr, p, dt, boundary="dirichlet"):
    """DuFort-Frankel with the neighbor sum; preserves constants exactly
    at V=0 and is marginally stable (|g| = 1) for the free equation."""
    return _step(_dufort_frankel, prev, curr, p, dt, boundary)


def step_crank_nicolson_standard(prev, curr, p, dt, boundary="dirichlet"):
    """Textbook Crank-Nicolson (Cayley form), unconditionally stable.

    (I - dt/2 M) psi_new = (I + dt/2 M) psi,
    M = i*(hbar/D)*L/dx^2 - (i/hbar) diag(V)

    Dirichlet rows are identity so held boundary values pass through;
    the periodic variant folds the cyclic corners in by the
    Sherman-Morrison correction.  prev is accepted for signature
    uniformity and ignored."""
    return _step(_cn_standard, prev, curr, p, dt, boundary)


def _phase_norm(values, x, dx):
    """Mean phase (None at zero norm) and L2 norm of a field on grid x;
    call under np.errstate(over="ignore", invalid="ignore")."""
    w = np.abs(values) ** 2
    total = float(w.sum())
    phase = float((x * w).sum() / total) if total != 0.0 else None
    return phase, math.sqrt(total * dx)


def _field_phase_norm(f):
    with np.errstate(over="ignore", invalid="ignore"):
        return _phase_norm(f.values, f.grid(), f.dx)


def mean_phase(f):
    """Norm-weighted mean grid coordinate sum(x*|psi|^2)/sum(|psi|^2)."""
    phase = _field_phase_norm(f)[0]
    if phase is None:
        raise DomainError("mean phase of a zero-norm field is undefined")
    return phase


def field_norm(f):
    """L2 norm sqrt(dx * sum|psi|^2); may overflow to inf near blow-up."""
    return _field_phase_norm(f)[1]


def gaussian_packet(n, dx, x0=None, x_c=0.0, alpha0=1.0):
    """Unnormalized Gaussian exp(-alpha0*(x - x_c)^2) on an n-point grid.

    With x0 omitted the grid is centered on zero."""
    if n < 3:
        raise DomainError("field needs at least 3 grid points")
    if not (dx > 0 and alpha0 > 0):
        raise DomainError("dx and alpha0 must be positive")
    if x0 is None:
        x0 = -0.5 * dx * (n - 1)
    x = x0 + dx * np.arange(n)
    with np.errstate(over="ignore"):  # a huge exponent underflows to 0
        return ComplexField(np.exp(-alpha0 * (x - x_c) ** 2), dx, x0)


def evolve(kind, init, p, drive, dt, steps, sweeps=1, boundary="dirichlet"):
    """March `steps` steps from `init`, recording t, mean phase and norm
    at every level (the initial state included).

    The driving phase at step n is p.theta + drive.a_D*(n*dt).  If a
    step overflows, the trajectory is truncated at the last finite level
    and marked.  Zero-norm levels record mean phase 0."""
    if steps < 1:
        raise DomainError("steps must be >= 1")
    try:
        build = _PLANS[SchemeKind(kind)]
    except ValueError:
        raise DomainError("unknown scheme kind %r" % (kind,)) from None
    periodic = _check(dt, boundary, sweeps)
    x, dx = init.grid(), init.dx

    # V is the same at every step when its tilt term is +0.0 (mu_E = 0)
    # or theta_n is theta (a_D = 0); only a driven V is rebuilt per step.
    driven = p.mu_E != 0.0 and drive.a_D != 0.0
    prev = curr = init.values
    truncated = False
    with np.errstate(over="ignore", invalid="ignore"):
        levels = [_phase_norm(curr, x, dx)]
        step = build(washboard_potential(x, p), p, dx, dt, periodic, sweeps)
        for n in range(steps):
            if driven and n:
                theta_n = p.theta + drive.a_D * (n * dt)
                if not math.isfinite(theta_n):
                    raise DomainError("non-finite physical parameter")
                step = build(_washboard(x, p, theta_n), p, dx, dt, periodic,
                             sweeps)
            new = step(prev, curr)
            if not np.isfinite(new).all():
                truncated = True
                break
            prev, curr = curr, new
            levels.append(_phase_norm(curr, x, dx))
    return Trajectory(dt * np.arange(len(levels)),
                      [0.0 if ph is None else ph for ph, _ in levels],
                      [norm for _, norm in levels], truncated=truncated)


def detect_blowup(t, factor):
    """Index of the first trajectory entry whose norm exceeds factor
    times the initial norm, or None."""
    if not factor > 1.0:
        raise DomainError("blow-up factor must exceed 1")
    limit = factor * t.norm[0]
    hits = np.nonzero(t.norm > limit)[0]
    if hits.size == 0:
        return None
    return int(hits[0])


def detect_resonance(t, window):
    """True when the last `window` mean-phase samples oscillate (at
    least two local extrema) while staying inside (-2*pi, 2*pi)."""
    if window < 4:
        raise DomainError("window must be at least 4")
    if len(t) < window:
        raise DomainError("trajectory shorter than window")
    seg = t.mean_phase[-window:]
    if np.max(np.abs(seg)) >= 2.0 * math.pi:
        return False
    d = np.diff(seg)
    signs = np.sign(d)
    signs = signs[signs != 0.0]
    if signs.size < 2:
        return False
    extrema = int(np.sum(signs[1:] * signs[:-1] < 0))
    return extrema >= 2


def trajectory_table(t):
    """Trajectory as a three-column table t, mean_phase, norm."""
    return CurveTable(("t", "mean_phase", "norm"),
                      zip(t.times, t.mean_phase, t.norm))
