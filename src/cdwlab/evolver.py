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
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.linalg import solve_banded

from .curves import CurveTable
from .errors import DomainError, FieldOverflowError
from .model import washboard_potential


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


def _band(diag, off):
    """Tridiagonal matrix in solve_banded's (1, 1) layout: diag on the
    main diagonal and the constant off on both neighbours."""
    ab = np.zeros((3, diag.size), dtype=complex)
    ab[0, 1:] = off
    ab[1] = diag
    ab[2, :-1] = off
    return ab


def _cn_printed(prev, curr, V, p, dx, dt, periodic, sweeps):
    kappa = p.hbar / (p.D * dx * dx)
    lap_c = _laplacian(curr, periodic)
    drift = (2.0 / p.hbar) * V * curr
    g = prev
    for _ in range(sweeps):
        new = prev + 1j * dt * (kappa * (lap_c + _laplacian(g, periodic))
                                - drift)
        if not periodic:
            new[0], new[-1] = curr[0], curr[-1]
        g = new
    return new


def _dufort_frankel(prev, curr, V, p, dx, dt, periodic, sweeps,
                    combine=np.add):
    r2 = -1j * dt * p.hbar / (p.D * dx * dx)  # 2*R~
    a = r2 / (1.0 + r2)
    b = (1.0 - r2) / (1.0 + r2)
    new = (a * _neighbours(curr, combine) + b * prev
           - 1j * dt * (V / p.hbar) * curr)
    if not periodic:
        new[0], new[-1] = curr[0], curr[-1]
    return new


_df_printed = partial(_dufort_frankel, combine=np.subtract)


def _cn_standard(prev, curr, V, p, dx, dt, periodic, sweeps):
    koff = 1j * p.hbar / (p.D * dx * dx)
    diag_m = -2.0 * koff - 1j * V / p.hbar
    half = 0.5 * dt
    rhs = curr + half * (koff * _neighbours(curr) + diag_m * curr)
    diag = 1.0 - half * diag_m
    if periodic:
        return _solve_cyclic(diag, -half * koff, rhs)
    rhs[0], rhs[-1] = curr[0], curr[-1]
    diag[0] = diag[-1] = 1.0
    ab = _band(diag, -half * koff)
    ab[0, 1] = ab[2, -2] = 0.0
    return solve_banded((1, 1), ab, rhs, check_finite=False)


def _solve_cyclic(diag, off, rhs):
    """Cyclic tridiagonal solve with constant off-diagonal, by
    Sherman-Morrison on top of solve_banded; overwrites diag."""
    gamma = -diag[0]
    diag[0] -= gamma
    diag[-1] -= off * off / gamma
    u = np.zeros(diag.size, dtype=complex)
    u[0] = gamma
    u[-1] = off
    sol = solve_banded((1, 1), _band(diag, off), np.column_stack([rhs, u]),
                       check_finite=False)
    y, z = sol[:, 0], sol[:, 1]
    vy = y[0] + (off / gamma) * y[-1]
    vz = z[0] + (off / gamma) * z[-1]
    return y - z * (vy / (1.0 + vz))


# The scheme kernels step plain arrays and check nothing.  Each takes
# (prev, curr, V, p, dx, dt, periodic, sweeps); only cn-printed reads
# sweeps.  Without periodic ends they hold the end points at curr's.
_KERNELS = {
    SchemeKind.CRANK_NICOLSON_AS_PRINTED: _cn_printed,
    SchemeKind.DUFORT_FRANKEL_AS_PRINTED: _df_printed,
    SchemeKind.CRANK_NICOLSON_STANDARD: _cn_standard,
    SchemeKind.DUFORT_FRANKEL_STANDARD: _dufort_frankel,
}


def _step(kernel, prev, curr, p, dt, boundary, sweeps=1):
    if (prev.values.size != curr.values.size or prev.dx != curr.dx
            or prev.x0 != curr.x0):
        raise DomainError("prev and curr live on different grids")
    periodic = _check(dt, boundary, sweeps)
    with np.errstate(over="ignore", invalid="ignore"):
        V = washboard_potential(curr.grid(), p)
        new = kernel(prev.values, curr.values, V, p, curr.dx, dt, periodic,
                     sweeps)
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
    """Mean phase (None at zero norm) and L2 norm of a field on grid x."""
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.abs(values) ** 2
        total = float(w.sum())
        phase = float((x * w).sum() / total) if total != 0.0 else None
        return phase, math.sqrt(total * dx)


def mean_phase(f):
    """Norm-weighted mean grid coordinate sum(x*|psi|^2)/sum(|psi|^2)."""
    phase = _phase_norm(f.values, f.grid(), f.dx)[0]
    if phase is None:
        raise DomainError("mean phase of a zero-norm field is undefined")
    return phase


def field_norm(f):
    """L2 norm sqrt(dx * sum|psi|^2); may overflow to inf near blow-up."""
    return _phase_norm(f.values, f.grid(), f.dx)[1]


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
        kernel = _KERNELS[SchemeKind(kind)]
    except ValueError:
        raise DomainError("unknown scheme kind %r" % (kind,)) from None
    periodic = _check(dt, boundary, sweeps)
    x, dx = init.grid(), init.dx
    prev = curr = init.values
    levels = [_phase_norm(curr, x, dx)]
    truncated = False
    for n in range(steps):
        with np.errstate(over="ignore", invalid="ignore"):
            V = washboard_potential(
                x, replace(p, theta=p.theta + drive.a_D * (n * dt)))
            new = kernel(prev, curr, V, p, dx, dt, periodic, sweeps)
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
