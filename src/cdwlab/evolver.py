"""Finite-difference evolution of a complex amplitude on the phase grid.

Four schemes: the two difference equations exactly as printed in the
source material (kept for their instability phenomenology) and two
standard counterparts.  The governing equation is

    i*psi_t = -(1/D)*psi_xx + V(x, t)*psi

with V the washboard potential whose driving phase theta advances
linearly in time at rate a_D.  cn-standard integrates it; df-standard
does not.  Its DuFort-Frankel coefficient 2R = -i*dt/(D*dx^2) has the
opposite sign and half the size of this equation's, so its free part
is i*psi_t = +(1/(2D))*psi_xx: a free packet exp(-x^2 + 2ix) at D = 1
drifts to -2 by t = 1, not to +4 (ROADMAP item 14, not yet mended).
Both grid end points are held at their
current values (Dirichlet ends) in every scheme.  Each scheme's update
is documented on its plan builder in `_PLANS`; `evolve` marches a run,
which fails before its first step or runs to its end or its first
non-finite level, and the `step_*` names take one checked single step.
"""

import math
import os
import sys
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
# them, and returns step(prev, curr, out), which writes the new level
# into out.  Each argument is the `_views` tuple of one row, built once
# per run; out aliases neither prev nor curr and already holds curr's
# end points, which a step leaves as they are.  Steps check nothing
# and write only the interior.  Each ufunc call keeps the operand order
# of the allocating expression it replaces, takes `out` positionally and
# gets every scalar (as a 0-d array) and coefficient row in the other
# operand's dtype: on 398-element rows (numpy 2.4) `out=` costs 0.04 us
# a call more, and a Python float 0.23 us (complex128 row: 0.37 us).
def _views(row):
    """The views of a row that a plan step reads: the row, its interior
    and the interior shifted one point left and one point right."""
    return row, row[1:-1], row[:-2], row[2:]


def _cn_printed(V, p, dx, dt):
    """The printed Crank-Nicolson-like leapfrog:

    new = prev + i*dt*( (1/D)*(lap(curr) + lap(new))/dx^2 - 2*V*curr )

    with lap(new) taken at prev, the printed update.  The scheme is
    unstable for every dt (kept deliberately)."""
    kappa, two, i_dt = (np.array(c, complex) for c in (
        1.0 / (p.D * dx * dx), 2.0, 1j * dt))
    drift_v = (2.0 * V)[1:-1].astype(complex)
    lap, scratch = np.empty((2, V.size - 2), dtype=complex)

    def step(prev, curr, out):
        # lap(a) = (a[j+1] - 2.0*a[j]) + a[j-1], in that operand order
        for (_, mid, left, right), row in ((curr, lap), (prev, scratch)):
            _multiply(two, mid, row)
            _subtract(right, row, row)
            _add(row, left, row)
        _add(lap, scratch, lap)
        _multiply(kappa, lap, lap)
        _multiply(drift_v, curr[1], scratch)
        _subtract(lap, scratch, lap)
        _multiply(i_dt, lap, lap)
        _add(prev[1], lap, out[1])

    return step


def _dufort_frankel(V, p, dx, dt, combine=np.add):
    """DuFort-Frankel, with combine the neighbour sum (np.add) or the
    printed neighbour difference (np.subtract):

    new = (2R/(1+2R))*(curr_{j-1} +/- curr_{j+1}) + ((1-2R)/(1+2R))*prev
          - i*dt*V*curr,   R = -i*dt/(2*D*dx^2)

    The sum preserves constants exactly at V=0 and is marginally stable
    (|g| = 1) for the free equation.  The printed difference, sign error
    and all, does not preserve even a constant field."""
    r2 = -1j * dt / (p.D * dx * dx)  # 2R
    a, b = map(np.array, (r2 / (1.0 + r2), (1.0 - r2) / (1.0 + r2)))
    pot = (1j * dt * V)[1:-1]
    scratch = np.empty_like(pot)

    def step(prev, curr, out):
        _, mid, left, right = curr
        new = out[1]
        combine(left, right, new)
        _multiply(a, new, new)
        _multiply(b, prev[1], scratch)
        _add(new, scratch, new)
        _multiply(pot, mid, scratch)
        _subtract(new, scratch, new)

    return step


_df_printed = partial(_dufort_frankel, combine=np.subtract)


def _cn_standard(V, p, dx, dt):
    """Textbook Crank-Nicolson (Cayley form), unconditionally stable:

    psi_new = (I - dt/2 M)^-1 (I + dt/2 M) psi = 2 chi - psi,
    (I - dt/2 M)/2 chi = psi,   M = i*(1/D)*L/dx^2 - i diag(V)

    the form of Goldberg, Schey & Schwartz (Am. J. Phys. 35, 177, 1967),
    which needs no product with (I + dt/2 M).  The halved matrix is
    built directly (diagonal 0.5 - (dt/4)*diag(M), off-diagonals
    -(dt/4)*i/(D*dx^2), end rows 0.5): it is the unhalved one times 0.5
    bit for bit, so zgttrf pivots alike and chi is exactly twice the
    unhalved solve.  A step is one copy of psi into the plan's scratch
    row chi, the in-place solve and one subtract on the interior.  prev
    is ignored."""
    koff = 1j / (p.D * dx * dx)
    quarter = 0.25 * dt
    diag = 0.5 - quarter * (-2.0 * koff - 1j * V)
    dl = np.full(V.size - 1, -quarter * koff)
    du = dl.copy()
    diag[0] = diag[-1] = 0.5
    du[0] = dl[-1] = 0.0
    solver = _lu(dl, diag, du)
    chi = np.empty(V.size, dtype=complex)

    def step(prev, curr, out):
        if solver is None:
            out[1].fill(np.nan)
            return
        np.copyto(chi, curr[0])
        _check_info(solver(chi, overwrite_b=1)[1])
        _subtract(chi[1:-1], curr[1], out[1])

    return step


_PLANS = {
    "cn-printed": _cn_printed,
    "df-printed": _df_printed,
    "cn-standard": _cn_standard,
    "df-standard": _dufort_frankel,
}


def _check(kind, p, dx, dt):
    """The plan builder of scheme `kind`, after checking the kind, dt
    and D*dx^2, in that order."""
    build = _PLANS.get(kind)
    if build is None:
        raise DomainError("unknown scheme kind %r" % (kind,))
    if not (math.isfinite(dt) and dt > 0):
        raise DomainError("dt must be positive")
    if not p.D * dx * dx > 0:  # every plan divides by it
        raise DomainError("D*dx^2 underflows to 0")
    if not math.isfinite(p.D * dx * dx):
        raise DomainError("D*dx^2 overflows")
    return build


def _step(kind, prev, curr, p, dt):
    """One checked step of scheme `kind` from levels prev and curr, with
    V built on curr's grid; the new level as a fresh ComplexField."""
    if (prev.values.size != curr.values.size or prev.dx != curr.dx
            or prev.x0 != curr.x0):
        raise DomainError("prev and curr live on different grids")
    build = _check(kind, p, curr.dx, dt)
    with np.errstate(over="ignore", invalid="ignore"):
        step = build(washboard_potential(curr.grid(), p), p, curr.dx, dt)
        new = curr.values.copy()
        step(_views(prev.values), _views(curr.values), _views(new))
    if not np.isfinite(new).all():
        raise FieldOverflowError("field left the finite range")
    return ComplexField(new, curr.dx, curr.x0)


# the single-step names that perfbench/micro.py times
step_crank_nicolson_printed = partial(_step, "cn-printed")
step_dufort_frankel_printed = partial(_step, "df-printed")
step_dufort_frankel_standard = partial(_step, "df-standard")
step_crank_nicolson_standard = partial(_step, "cn-standard")


def _phase_norm(block, x, dx, w):
    """Per-row mean phase (0 at zero norm) and L2 norm of a C-contiguous
    (k, n) block of fields on grid x, as two float64 arrays, summed in w,
    float64 scratch of the block's shape; call under np.errstate(
    over="ignore", invalid="ignore").  Row sums of a contiguous block
    equal the sums of each row alone, bit for bit.  A row's norm is
    non-finite if it holds a NaN or inf or if its |psi|^2 overflows."""
    np.abs(block, w)
    np.square(w, w)
    totals = w.sum(axis=1)
    np.multiply(w, x, w)
    moments = w.sum(axis=1)
    return (moments / np.where(totals == 0.0, 1.0, totals),
            np.sqrt(totals * dx))


def gaussian_packet(n, dx, x0=None, x_c=0.0, alpha0=1.0):
    """Unnormalized Gaussian exp(-alpha0*(x - x_c)^2) on an n-point grid.

    With x0 omitted the grid is centered on zero."""
    if not (dx > 0 and alpha0 > 0):
        raise DomainError("dx and alpha0 must be positive")
    if x0 is None:
        x0 = -0.5 * dx * (n - 1)
    # ComplexField rejects n < 3 and non-finite values; exp underflows to 0
    with np.errstate(over="ignore", invalid="ignore"):
        x = x0 + dx * np.arange(n)
        return ComplexField(np.exp(-alpha0 * (x - x_c) ** 2), dx, x0)


# Levels held by evolve's ring: at most 64, and at most 1 MiB of them
_BLOCK_ROWS = 64
_BLOCK_BYTES = 1 << 20


def evolve(kind, init, p, drive, dt, steps):
    """March `steps` steps from `init`, recording t, mean phase and norm
    at every level (the initial state included).

    The driving phase at step n is p.theta + drive.a_D*(n*dt), monotone
    in n, so an overflowing dt*steps or last phase raises DomainError
    before the first step.  If a step overflows, the trajectory is
    truncated at the last finite level and marked.  Zero-norm levels
    record mean phase 0.  The levels live in a preallocated ring, level j
    in row j % rows; every row starts as level 0, so its end points are
    written once and level 0 is also the first step's prev.  Each step
    writes its row from the `_views` of the two rows before it, built
    once.  The phase/norm sums run once per full ring, just before row 0
    is overwritten, and once on the last partial ring, in one reused
    scratch.  A non-finite level has a non-finite norm, so only a ring
    with a non-finite norm is checked level by level for where to cut.
    Reading finiteness once per ring costs on the error path only: a run
    whose level goes non-finite keeps stepping to the ring's next wrap,
    at most rows - 1 = 63 wasted steps."""
    if steps < 1:
        raise DomainError("steps must be >= 1")
    build = _check(kind, p, init.dx, dt)
    # an int steps past the float range cannot be converted for dt*steps
    if steps > sys.float_info.max or not math.isfinite(dt * steps):
        raise DomainError("dt*steps overflows")
    x, dx = init.grid(), init.dx

    # V is the same at every step when its tilt term is +0.0 (mu_E = 0)
    # or theta_n is theta (a_D = 0); only a driven V is rebuilt per step,
    # from a pinning term computed once.
    driven = p.mu_E != 0.0 and drive.a_D != 0.0
    if driven and not math.isfinite(p.theta + drive.a_D * ((steps - 1) * dt)):
        raise DomainError("non-finite physical parameter")
    # at least 3 rows, so a step's out aliases neither prev nor curr
    rows = max(3, min(_BLOCK_ROWS, steps + 1, _BLOCK_BYTES // (16 * x.size)))
    block = np.empty((rows, x.size), dtype=complex)
    w = np.empty(block.shape)
    block[:] = init.values
    views = [_views(row) for row in block]
    phases, norms = [], []

    def record(filled):  # rows 0:filled, up to their first non-finite one
        levels = block[:filled]
        ph, nm = _phase_norm(levels, x, dx, w[:filled])
        finite = np.isfinite(nm).all() or np.isfinite(levels).all(axis=1)
        end = nm.size if np.all(finite) else int(finite.argmin())
        phases.append(ph[:end])
        norms.append(nm[:end])
        return end < nm.size

    with np.errstate(over="ignore", invalid="ignore"):
        step = build(washboard_potential(x, p), p, dx, dt)
        pin = _pinning(x, p) if driven else None
        for n in range(steps):
            if driven and n:
                theta_n = p.theta + drive.a_D * (n * dt)
                step = build(_washboard(x, p, theta_n, pin), p, dx, dt)
            j = (n + 1) % rows
            if not j and record(rows):
                break
            step(views[j - 2], views[j - 1], views[j])
        else:
            record(steps % rows + 1)
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
    extrema = int(np.sum(signs[1:] * signs[:-1] < 0))
    return extrema >= 2


def trajectory_table(t):
    """Trajectory as a three-column table t, mean_phase, norm."""
    return CurveTable(("t", "mean_phase", "norm"),
                      np.column_stack((t.times, t.mean_phase, t.norm)))
