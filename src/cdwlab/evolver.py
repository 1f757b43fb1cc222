"""Finite-difference evolution of a complex amplitude on the phase grid.

Four schemes: the two difference equations exactly as printed in the
source material (kept for their instability phenomenology) and their
textbook-correct counterparts.  The governing equation is

    i*hbar*psi_t = -(hbar^2/D)*psi_xx + V(x, t)*psi

with V the washboard potential whose driving phase theta advances
linearly in time at rate a_D.  Both grid end points are held at their
current values (Dirichlet ends) in every scheme.
"""

import math
import os
from dataclasses import dataclass
from functools import cache, partial
from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                 FileFinder)
from importlib.util import module_from_spec

import numpy as np
from numpy import add as _add, multiply as _multiply, subtract as _subtract

from .curves import CurveTable
from .errors import DomainError, FieldOverflowError
from .model import _pinning, _washboard, washboard_potential


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


def _check(dt):
    """Validate the step arguments."""
    if not (math.isfinite(dt) and dt > 0):
        raise DomainError("dt must be positive")


def _lu(dl, d, du):
    """Solver b -> (x, info) by the LAPACK LU factors of the tridiagonal
    matrix (dl, d, du), from the same partial-pivoting elimination as
    LAPACK's one-shot ?gtsv solve; overwrites its arguments.  None for a
    non-finite matrix, whose solutions are non-finite (?gtsv gives them;
    zgttrf may instead report a zero pivot)."""
    if not all(np.isfinite(a).all() for a in (dl, d, du)):
        return None
    zgttrf, zgttrs = _lapack()
    *factors, info = zgttrf(dl, d, du, overwrite_dl=1, overwrite_d=1,
                            overwrite_du=1)
    _check_info(info)
    return partial(zgttrs, *factors)


@cache
def _lapack():
    """scipy's zgttrf and zgttrs from its f2py extension `_flapack`,
    loaded alone at the first call (only cn-standard needs them) and
    kept out of sys.modules, so the `scipy.linalg` package is never
    imported.  The top-level `scipy` import is light and runs the
    wheel's DLL set-up on Windows."""
    import scipy
    where = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    spec = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES)
                      ).find_spec("_flapack")
    if spec is None:
        raise ImportError("no scipy LAPACK extension _flapack in %s" % where)
    flapack = module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return flapack.zgttrf, flapack.zgttrs


def _check_info(info):
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError("illegal value in argument %d of zgttrf/zgttrs"
                         % -info)


# A plan builder takes (V, p, dx, dt), computes what depends only on
# them, and returns step(prev, curr, out) -> out on plain arrays,
# writing the new level into out, which must alias neither prev nor
# curr.  Steps check nothing and hold the end points at curr's.  Each
# ufunc call keeps the operand order of the allocating expression it
# replaces, takes `out` positionally and gets every scalar (as a 0-d
# array) and coefficient row in the other operand's dtype: on
# 398-element rows (numpy 2.4) `out=` costs 0.04 us a call more, and a
# Python float 0.23 us (complex128 row: 0.37 us).
def _cn_printed(V, p, dx, dt):
    kappa, two, i_dt = (np.array(c, complex) for c in (
        p.hbar / (p.D * dx * dx), 2.0, 1j * dt))
    drift_v = ((2.0 / p.hbar) * V)[1:-1].astype(complex)
    lap, scratch = np.empty((2, V.size - 2), dtype=complex)

    def step(prev, curr, out):
        # interior prev + 1j*dt*(kappa*(lap(curr) + lap(prev))
        # - drift_v*curr), lap(a) = (a[j+1] - 2.0*a[j]) + a[j-1]
        for a, row in ((curr, lap), (prev, scratch)):
            _multiply(two, a[1:-1], row)
            _subtract(a[2:], row, row)
            _add(row, a[:-2], row)
        _add(lap, scratch, lap)
        _multiply(kappa, lap, lap)
        _multiply(drift_v, curr[1:-1], scratch)
        _subtract(lap, scratch, lap)
        _multiply(i_dt, lap, lap)
        _add(prev[1:-1], lap, out[1:-1])
        out[0], out[-1] = curr[0], curr[-1]
        return out

    return step


def _dufort_frankel(V, p, dx, dt, combine=np.add):
    r2 = -1j * dt * p.hbar / (p.D * dx * dx)  # 2*R~
    a, b = map(np.array, (r2 / (1.0 + r2), (1.0 - r2) / (1.0 + r2)))
    pot = (1j * dt * (V / p.hbar))[1:-1]
    scratch = np.empty_like(pot)

    def step(prev, curr, out):
        # interior a*(curr[j-1] +/- curr[j+1]) + b*prev[j] - pot[j]*curr[j]
        new = out[1:-1]
        combine(curr[:-2], curr[2:], new)
        _multiply(a, new, new)
        _multiply(b, prev[1:-1], scratch)
        _add(new, scratch, new)
        _multiply(pot, curr[1:-1], scratch)
        _subtract(new, scratch, new)
        out[0], out[-1] = curr[0], curr[-1]
        return out

    return step


_df_printed = partial(_dufort_frankel, combine=np.subtract)


def _cn_standard(V, p, dx, dt):
    koff = 1j * p.hbar / (p.D * dx * dx)
    diag_m = -2.0 * koff - 1j * V / p.hbar
    half = 0.5 * dt
    diag = 1.0 - half * diag_m
    off = -half * koff
    dl = np.full(V.size - 1, off)
    du = dl.copy()
    # identity end rows pass the held end points through
    diag[0] = diag[-1] = 1.0
    du[0] = dl[-1] = 0.0
    solver = _lu(dl, diag, du)
    diag_m = diag_m[1:-1]
    scratch = np.empty_like(diag_m)
    koff, half = np.array(koff), np.array(half, complex)

    def step(prev, curr, out):
        # curr + half*(koff*(neighbour sum) + diag_m*curr), solved in place
        if solver is None:
            out.fill(np.nan)
            return out
        rhs = out[1:-1]
        _add(curr[:-2], curr[2:], rhs)
        _multiply(koff, rhs, rhs)
        _multiply(diag_m, curr[1:-1], scratch)
        _add(rhs, scratch, rhs)
        _multiply(half, rhs, rhs)
        _add(curr[1:-1], rhs, rhs)
        out[0], out[-1] = curr[0], curr[-1]
        _check_info(solver(out, overwrite_b=1)[1])
        return out

    return step


_PLANS = {
    "cn-printed": _cn_printed,
    "df-printed": _df_printed,
    "cn-standard": _cn_standard,
    "df-standard": _dufort_frankel,
}


def _step(build, prev, curr, p, dt):
    if (prev.values.size != curr.values.size or prev.dx != curr.dx
            or prev.x0 != curr.x0):
        raise DomainError("prev and curr live on different grids")
    _check(dt)
    with np.errstate(over="ignore", invalid="ignore"):
        step = build(washboard_potential(curr.grid(), p), p, curr.dx, dt)
        new = step(prev.values, curr.values, np.empty_like(curr.values))
    if not np.isfinite(new).all():
        raise FieldOverflowError("field left the finite range")
    return ComplexField(new, curr.dx, curr.x0)


def step_crank_nicolson_printed(prev, curr, p, dt):
    """One step of the printed Crank-Nicolson-like leapfrog.

    new = prev + i*dt*( (hbar/D)*(lap(curr) + lap(new))/dx^2
                        - (2*V/hbar)*curr )

    with lap(new) taken at prev, the printed update.  The scheme is
    unstable for every dt (kept deliberately).
    """
    return _step(_cn_printed, prev, curr, p, dt)


def step_dufort_frankel_printed(prev, curr, p, dt):
    """The printed DuFort-Frankel-like update, sign error and all:

    new = (2R/(1+2R))*(curr_{j-1} - curr_{j+1}) + ((1-2R)/(1+2R))*prev
          - i*dt*(V/hbar)*curr,   R = -i*dt*hbar/(2*D*dx^2)

    The neighbor difference (instead of sum) means even a constant field
    is not preserved."""
    return _step(_df_printed, prev, curr, p, dt)


def step_dufort_frankel_standard(prev, curr, p, dt):
    """DuFort-Frankel with the neighbor sum; preserves constants exactly
    at V=0 and is marginally stable (|g| = 1) for the free equation."""
    return _step(_dufort_frankel, prev, curr, p, dt)


def step_crank_nicolson_standard(prev, curr, p, dt):
    """Textbook Crank-Nicolson (Cayley form), unconditionally stable.

    (I - dt/2 M) psi_new = (I + dt/2 M) psi,
    M = i*(hbar/D)*L/dx^2 - (i/hbar) diag(V)

    The end rows are identity, so the held end points pass through.
    prev is accepted for signature uniformity and ignored."""
    return _step(_cn_standard, prev, curr, p, dt)


def _phase_norm(block, x, dx):
    """Per-row mean phase (0 at zero norm) and L2 norm of a C-contiguous
    (k, n) block of fields on grid x, as two float64 arrays; call under
    np.errstate(over="ignore", invalid="ignore").  Row sums of a
    contiguous block equal the sums of each row alone, bit for bit."""
    w = np.abs(block) ** 2
    totals = w.sum(axis=1)
    moments = (x * w).sum(axis=1)
    return (moments / np.where(totals == 0.0, 1.0, totals),
            np.sqrt(totals * dx))


def gaussian_packet(n, dx, x0=None, x_c=0.0, alpha0=1.0):
    """Unnormalized Gaussian exp(-alpha0*(x - x_c)^2) on an n-point grid.

    With x0 omitted the grid is centered on zero."""
    if n < 3:
        raise DomainError("field needs at least 3 grid points")
    if not (dx > 0 and alpha0 > 0):
        raise DomainError("dx and alpha0 must be positive")
    if x0 is None:
        x0 = -0.5 * dx * (n - 1)
    # a huge exponent underflows to 0; ComplexField rejects non-finite values
    with np.errstate(over="ignore", invalid="ignore"):
        x = x0 + dx * np.arange(n)
        return ComplexField(np.exp(-alpha0 * (x - x_c) ** 2), dx, x0)


# Levels held by evolve's block: at most 64, and at most 1 MiB of them
_BLOCK_ROWS = 64
_BLOCK_BYTES = 1 << 20


def evolve(kind, init, p, drive, dt, steps):
    """March `steps` steps from `init`, recording t, mean phase and norm
    at every level (the initial state included).

    The driving phase at step n is p.theta + drive.a_D*(n*dt).  If a
    step overflows, the trajectory is truncated at the last finite level
    and marked.  Zero-norm levels record mean phase 0.  The scheme
    plan's `step(prev, curr, out)` writes each level into the next
    row of a preallocated block (out); the finiteness check and the
    phase/norm sums run once per block."""
    if steps < 1:
        raise DomainError("steps must be >= 1")
    build = _PLANS.get(kind)
    if build is None:
        raise DomainError("unknown scheme kind %r" % (kind,))
    _check(dt)
    x, dx = init.grid(), init.dx

    # V is the same at every step when its tilt term is +0.0 (mu_E = 0)
    # or theta_n is theta (a_D = 0); only a driven V is rebuilt per step,
    # from a pinning term computed once.
    driven = p.mu_E != 0.0 and drive.a_D != 0.0
    rows = max(1, min(_BLOCK_ROWS, steps + 1, _BLOCK_BYTES // (16 * x.size)))
    block = np.empty((rows, x.size), dtype=complex)
    block[0] = init.values
    prev = curr = block[0]
    filled = 1
    phases, norms = [], []

    def record():  # the block's levels before its first non-finite one
        finite = np.isfinite(block[:filled]).all(axis=1)
        end = filled if finite.all() else int(finite.argmin())
        ph, nm = _phase_norm(block[:end], x, dx)
        phases.append(ph)
        norms.append(nm)
        return end < filled

    with np.errstate(over="ignore", invalid="ignore"):
        step = build(washboard_potential(x, p), p, dx, dt)
        pin = _pinning(x, p) if driven else None
        for n in range(steps):
            if driven and n:
                theta_n = p.theta + drive.a_D * (n * dt)
                if not math.isfinite(theta_n):
                    # a field that overflowed first truncates the run
                    if record():
                        break
                    raise DomainError("non-finite physical parameter")
                step = build(_washboard(x, p, theta_n, pin), p, dx, dt)
            if filled == rows:
                if record():
                    break
                # the next rows overwrite the block: keep the last two
                prev, curr = prev.copy(), curr.copy()
                filled = 0
            prev, curr = curr, step(prev, curr, block[filled])
            filled += 1
        else:
            record()
    phases, norms = np.concatenate(phases), np.concatenate(norms)
    return Trajectory(dt * np.arange(norms.size), phases, norms,
                      truncated=norms.size <= steps)


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
                      np.column_stack((t.times, t.mean_phase, t.norm)))
