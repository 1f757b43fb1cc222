"""Two-chain Gaussian-comb variational ground state.

The trial state is a product of two five-tooth Gaussian combs,

    Psi(phi1, phi2) = (sum_m b_m g(phi1 - 2 pi m)) (sum_m c_m g(phi2 - 2 pi m)),
    g(u) = exp(-alpha u^2),  m = -2..2,

with unit-norm coefficient vectors and a shared width alpha.  The
energy functional is the normalized expectation of

    H = -hbar^2/(2 D1) (d^2/dphi1^2 + d^2/dphi2^2)
        + sum_n [E1 (1 - cos phi_n) + E2 (phi_n - theta)^2]
        + delta_prime (1 - cos(phi1 - phi2)).

Because all teeth share one width, every 1-D moment of g_m g_n has a
closed form (Gaussian product theorem; Boys 1950, Proc. R. Soc. A 200,
542), so the energy is 5x5 matrix algebra.  The minimizer is
Rayleigh-Ritz: alternating generalized eigenproblems for b and c at
fixed alpha, and a log-alpha scan (extended outward while the energy
still falls at an end) refined by golden-section search.  It runs on
stacks: each (theta, alpha) member's overlap is whitened once by its
Cholesky factor, each half step is one numpy ``eigh`` over the members
still alternating, and all thetas scan and refine in lockstep.  Every
theta still sees the evaluations it would see alone, so its row is
bit-identical whether it is swept alone or in a grid.

Composite Gauss-Legendre quadrature on [-eta pi, eta pi]
(``energy_expectation``, ``phase_expectation``) is kept as an
independent oracle for the closed form.
"""

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .curves import CurveTable
from .errors import DomainError, FieldOverflowError, QuadratureError
from .tunneling import _composite_gl

CENTERS = 2.0 * math.pi * np.arange(-2, 3, dtype=float)

_DELTA2 = (CENTERS[:, None] - CENTERS[None, :]) ** 2
_MU = 0.5 * (CENTERS[:, None] + CENTERS[None, :])
_PARITY = (-1.0) ** np.add.outer(np.arange(5), np.arange(5))

# coarse log-alpha scan; golden-section refinement between the best
# scan point's neighbours, down to this bracket width in log alpha
_LOG_ALPHA_SCAN = np.linspace(math.log(0.002), math.log(5.0), 41)
_LOG_ALPHA_STEP = float(_LOG_ALPHA_SCAN[1] - _LOG_ALPHA_SCAN[0])
# the scan is extended outward by its own step while the energy still
# falls at an end, but not past these limits: below alpha = 1e-4 the
# teeth merge and the overlap matrix's condition number passes 1e10
_LOG_ALPHA_LIMITS = (math.log(1e-4), math.log(1e6))
_LOG_ALPHA_TOL = 1e-6
_INVPHI = 0.5 * (math.sqrt(5.0) - 1.0)
# alternation stops once the energy falls by no more than _ETOL * |E|
_ETOL = 1e-13
_MAX_ALTERNATIONS = 500


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Gauss-Legendre rule on [-eta*pi, eta*pi]."""

    eta: float = 20.0
    panels: int = 80
    order: int = 8

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise DomainError("eta must be positive")
        if self.panels < 1:
            raise DomainError("panels must be >= 1")
        if self.order < 2:
            raise DomainError("order must be >= 2")


@dataclass(frozen=True)
class AnsatzCoeffs:
    """Comb coefficients for both chains plus the shared width."""

    b: tuple
    c: tuple
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))
        object.__setattr__(self, "c", tuple(float(v) for v in self.c))
        if len(self.b) != 5 or len(self.c) != 5:
            raise DomainError("coefficient vectors must have 5 entries")
        if not all(math.isfinite(v) for v in self.b + self.c):
            raise DomainError("non-finite coefficient")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise DomainError("alpha must be positive")

    def projected(self):
        """Copy with both coefficient vectors normalized to unit length."""
        nb = math.sqrt(sum(v * v for v in self.b))
        nc = math.sqrt(sum(v * v for v in self.c))
        if nb < 1e-8 or nc < 1e-8:
            raise DomainError("cannot project a near-zero coefficient vector")
        return AnsatzCoeffs(tuple(v / nb for v in self.b),
                            tuple(v / nc for v in self.c), self.alpha)


@dataclass(frozen=True)
class SweepRow:
    theta: float
    e_min: float
    mean_phi: float
    converged: bool
    coeffs: AnsatzCoeffs
    # gap above the ground state of the last reduced problem; not in CSV
    gap: float


@dataclass
class SweepResult:
    rows: list

    def to_table(self):
        cols = ["theta", "E_min", "mean_Phi", "converged"]
        cols += ["b_%d" % m for m in range(-2, 3)]
        cols += ["c_%d" % m for m in range(-2, 3)]
        cols.append("alpha")
        return CurveTable(cols, [
            (r.theta, r.e_min, r.mean_phi, r.converged)
            + r.coeffs.b + r.coeffs.c + (r.coeffs.alpha,) for r in self.rows])


@cache
def _nodes(q):
    x, w = _composite_gl(-q.eta * math.pi, q.eta * math.pi, q.panels,
                         q.order)
    d = x[None, :] - CENTERS[:, None]
    return x, w, np.cos(x), np.sin(x), d * d


def _chain_moments(coeff, alpha, theta, p, nd):
    """1-D moments of one comb factor u(phi):

    returns (norm, kinetic, pinning, charging, <cos>, <sin>)
    where kinetic = -hbar^2/(2 D1) * int u u'' and the rest are plain
    weighted moments of u^2."""
    x, w, cosx, sinx, d2 = nd
    g = np.exp(-alpha * d2)
    u = coeff @ g
    u2w = u * u * w
    n = float(u2w.sum())
    upp = coeff @ (g * (4.0 * alpha * alpha * d2 - 2.0 * alpha))
    kin = -(p.hbar * p.hbar / (2.0 * p.D1)) * float((w * u * upp).sum())
    pin = p.E1 * float((u2w * (1.0 - cosx)).sum())
    dphi = x - theta
    chg = p.E2 * float((u2w * dphi * dphi).sum())
    mcos = float((u2w * cosx).sum())
    msin = float((u2w * sinx).sum())
    return n, kin, pin, chg, mcos, msin


def _comb_on(nd, coeff, alpha):
    d2 = nd[4]
    return np.asarray(coeff) @ np.exp(-alpha * d2)


def energy_expectation(a, p, theta, q):
    """Normalized energy <Psi|H|Psi>/<Psi|Psi> at driving phase theta."""
    nd = _nodes(q)
    b = np.asarray(a.b)
    c = np.asarray(a.c)
    n1, k1, p1, q1, mc1, ms1 = _chain_moments(b, a.alpha, theta, p, nd)
    n2, k2, p2, q2, mc2, ms2 = _chain_moments(c, a.alpha, theta, p, nd)
    if not (math.isfinite(n1) and math.isfinite(n2) and n1 > 0 and n2 > 0):
        raise QuadratureError("ansatz norm is not positive")
    e = (k1 * n2 + n1 * k2
         + p1 * n2 + n1 * p2
         + q1 * n2 + n1 * q2
         + p.delta_prime * (n1 * n2 - mc1 * mc2 - ms1 * ms2))
    e /= n1 * n2
    if not math.isfinite(e):
        raise QuadratureError("energy expectation is not finite")
    return e


def phase_expectation(a, q):
    """Mean joint phase <(phi1 + phi2)/2> under |Psi|^2."""
    nd = _nodes(q)
    x, w = nd[0], nd[1]
    u1 = _comb_on(nd, a.b, a.alpha)
    u2 = _comb_on(nd, a.c, a.alpha)
    n1 = float((u1 * u1 * w).sum())
    n2 = float((u2 * u2 * w).sum())
    if not (n1 > 0 and n2 > 0):
        raise QuadratureError("ansatz norm is not positive")
    m1 = float((u1 * u1 * w * x).sum())
    m2 = float((u2 * u2 * w * x).sum())
    return 0.5 * (m1 / n1 + m2 / n2)


def _chain_matrices(p, theta, alpha):
    """Exact 5x5 moment matrices of one comb factor at each (theta,
    alpha) pair of two equal-length arrays, as one (4, K, 5, 5) stack
    (S, H, C, X): the overlap, the one-chain Hamiltonian, the cosine and
    the position matrix <g_m|.|g_n> over the whole line.  g_m g_n is one
    Gaussian of exponent 2 alpha centred at mu, so every moment has a
    closed form."""
    a = alpha[:, None, None]
    s = np.sqrt(math.pi / (2.0 * a)) * np.exp(-0.5 * a * _DELTA2)
    c = _PARITY * np.exp(-0.125 / a) * s
    kin = p.hbar * p.hbar / (2.0 * p.D1) * (a - a * a * _DELTA2)
    chg = p.E2 * ((_MU - theta[:, None, None]) ** 2 + 0.25 / a)
    h = (kin + p.E1 + chg) * s - p.E1 * c
    return np.stack((s, h, c, _MU * s))


def _whiten(mats):
    """W = inv(cholesky(S)) per member and (W H W^T, W C W^T)."""
    w = np.linalg.inv(np.linalg.cholesky(mats[0]))
    return w, w @ mats[1:3] @ w.swapaxes(1, 2)


def _quotients(mats, v):
    """(3, K) Rayleigh quotients v.Mv / v.Sv of M = H, C, X."""
    vmv = ((mats @ v[:, :, None])[..., 0] * v).sum(axis=-1)
    return vmv[1:] / vmv[0]


def _reduced(w, white, dp_kappa):
    """Ground state of H - dp kappa C, the problem for one comb given the
    other (dp_kappa = dp * c.Cc / c.Sc): W^T v, unit length with a
    positive sum, and the gap to the next eigenvalue."""
    vals, vecs = np.linalg.eigh(white[0] - dp_kappa[:, None, None] * white[1])
    g = (vecs[:, None, :, 0] @ w)[:, 0]
    g /= np.sqrt((g * g).sum(axis=1))[:, None]
    g[g.sum(axis=1) < 0] *= -1.0
    return g, vals[:, 1] - vals[:, 0]


def _energy(qb, qc, dp):
    """Normalized energy of the product comb from its (3, K) quotients."""
    return qb[0] + qc[0] + dp * (1.0 - qb[1] * qc[1])


# columns of the rows that _alternate returns
_E, _CONV, _GAP, _PHI, _ALPHA = range(5)
_B, _C = slice(5, 10), slice(10, 15)


def _alternate(p, theta, log_alpha):
    """Alternating exact minimization over the two combs at each (theta,
    log alpha) pair, each from its uncoupled ground state until its
    energy stops changing; every half step is one eigh over the members
    still alternating, so no energy rises.  Returns a row per member:
    energy, converged, the eigen-gap of the problem for b given c, the
    mean joint phase <(phi1 + phi2)/2>, alpha, b (the last comb solved)
    and c."""
    alpha = np.exp(log_alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        mats = _chain_matrices(p, theta, alpha)
        w, white = _whiten(mats)
    if not np.isfinite(white).all():
        raise FieldOverflowError("the comb moment matrices overflow")
    rows = np.empty((alpha.size, 15))
    live = np.arange(alpha.size)
    c = _reduced(w, white, np.zeros(alpha.size))[0]
    qc, e_prev = _quotients(mats, c), np.inf
    for _ in range(_MAX_ALTERNATIONS):
        b, gap = _reduced(w, white, p.delta_prime * qc[1])
        qb = _quotients(mats, b)
        e = _energy(qb, qc, p.delta_prime)
        done = e_prev - e <= _ETOL * np.abs(e)
        rows[live] = np.column_stack(
            (e, done, gap, 0.5 * (qb[2] + qc[2]), alpha[live], b, c))
        keep = ~done
        live, mats, w, white = (live[keep], mats[:, keep], w[keep],
                                white[:, keep])
        if not live.size:
            break
        c, qc, e_prev = b[keep], qb[:, keep], e[keep]
    return rows


def sweep_theta(p, theta_grid):
    """Minimize the energy over (b, c, alpha) at each theta of a strictly
    increasing grid: the combs by ``_alternate``, alpha by a log-alpha
    scan, extended outward while the energy still falls at an end, and
    golden-section refinement.  A row keeps the best point its theta saw
    and reads converged=False if that point's alternation hit the cap or
    the energy still falls at a scan limit."""
    grid = np.asarray(theta_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise DomainError("theta grid must be a non-empty 1-D sequence")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise DomainError("theta grid must be strictly increasing")
    n, scan = grid.size, _LOG_ALPHA_SCAN.size
    seen = []

    def run(idx, las):
        seen.append((idx, _alternate(p, grid[idx], np.asarray(las))))
        return seen[-1][1][:, _E]

    es = run(np.repeat(np.arange(n), scan), np.tile(_LOG_ALPHA_SCAN, n))
    es = [list(e) for e in es.reshape(n, scan)]
    las = [list(_LOG_ALPHA_SCAN) for _ in es]
    lo, hi = _LOG_ALPHA_LIMITS
    for end, step in ((0, -_LOG_ALPHA_STEP), (-1, _LOG_ALPHA_STEP)):
        while grow := [j for j in range(n) if es[j][end] == min(es[j])
                       and lo <= las[j][end] + step <= hi]:
            new = [las[j][end] + step for j in grow]
            for j, la, e in zip(grow, new, run(np.array(grow), new)):
                at = 0 if end == 0 else len(es[j])
                las[j].insert(at, la)
                es[j].insert(at, e)
    best = [int(np.argmin(e)) for e in es]
    interior = [0 < i < len(e) - 1 for i, e in zip(best, es)]
    # golden-section search between the best point's neighbours, in
    # lockstep: one evaluation per theta and round
    idx = np.flatnonzero(interior)
    lo = np.array([las[j][best[j] - 1] for j in idx])
    hi = np.array([las[j][best[j] + 1] for j in idx])
    x1, x2 = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
    f1, f2 = np.split(run(np.tile(idx, 2), np.concatenate((x1, x2))), 2)
    while (keep := hi - lo > _LOG_ALPHA_TOL).any():
        idx, lo, hi, x1, x2, f1, f2 = (
            v[keep] for v in (idx, lo, hi, x1, x2, f1, f2))
        left = f1 < f2
        hi, lo = np.where(left, x2, hi), np.where(left, lo, x1)
        x1, x2 = (np.where(left, hi - _INVPHI * (hi - lo), x2),
                  np.where(left, x1, lo + _INVPHI * (hi - lo)))
        fn = run(idx, np.where(left, x1, x2))
        f1, f2 = np.where(left, fn, f2), np.where(left, f1, fn)
    # each theta's first lowest point, in the order it saw them
    idx, rows = (np.concatenate(v) for v in zip(*seen))
    order = np.lexsort((np.arange(idx.size), rows[:, _E], idx))
    rows = rows[order[np.r_[True, np.diff(idx[order]) != 0]]]
    return SweepResult([
        SweepRow(t, r[_E], r[_PHI], bool(inner and r[_CONV]),
                 AnsatzCoeffs(r[_B], r[_C], r[_ALPHA]), r[_GAP])
        for t, r, inner in zip(grid.tolist(), rows.tolist(), interior)])


def count_local_minima(values):
    """Strict interior minima after collapsing exact plateaus."""
    vals = [float(v) for v in values]
    collapsed = [v for i, v in enumerate(vals) if i == 0 or v != vals[i - 1]]
    count = 0
    for i in range(1, len(collapsed) - 1):
        if collapsed[i] < collapsed[i - 1] and collapsed[i] < collapsed[i + 1]:
            count += 1
    return count


def phase_jumps(phases, step_threshold=0.5 * math.pi):
    """Magnitudes of consecutive-run jumps in a plateau staircase.

    A jump is a maximal run of consecutive differences all exceeding
    step_threshold in absolute value; its magnitude is the total phase
    change across the run."""
    phases = np.asarray(phases, dtype=float)
    d = np.diff(phases)
    jumps = []
    i = 0
    while i < d.size:
        if abs(d[i]) > step_threshold:
            j = i
            while j + 1 < d.size and abs(d[j + 1]) > step_threshold:
                j += 1
            jumps.append(float(phases[j + 1] - phases[i]))
            i = j + 1
        else:
            i += 1
    return jumps
