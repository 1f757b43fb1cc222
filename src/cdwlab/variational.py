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
still falls at an end) refined by golden-section search.  Every theta
of a sweep is minimized independently of the others.

Composite Gauss-Legendre quadrature on [-eta pi, eta pi]
(``energy_expectation``, ``norm_squared``, ``phase_expectation``) is
kept as an independent oracle for the closed form.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .curves import CurveTable
from .errors import ConvergenceError, DomainError, QuadratureError
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

    def is_normalized(self, tol=1e-12):
        nb = sum(v * v for v in self.b)
        nc = sum(v * v for v in self.c)
        return abs(nb - 1.0) <= tol and abs(nc - 1.0) <= tol


@dataclass(frozen=True)
class SweepRow:
    theta: float
    e_min: float
    mean_phi: float
    converged: bool
    coeffs: AnsatzCoeffs
    # gap above the ground state of the final reduced problem; not in CSV
    gap: float = math.nan


@dataclass
class SweepResult:
    rows: list

    def __post_init__(self):
        thetas = [r.theta for r in self.rows]
        if len(thetas) > 1 and not all(
                b > a for a, b in zip(thetas, thetas[1:])):
            raise DomainError("sweep rows must be strictly increasing in theta")

    def to_table(self):
        cols = ["theta", "E_min", "mean_Phi", "converged"]
        cols += ["b_%d" % m for m in range(-2, 3)]
        cols += ["c_%d" % m for m in range(-2, 3)]
        cols.append("alpha")
        table = CurveTable(cols)
        for r in self.rows:
            table.append((r.theta, r.e_min, r.mean_phi,
                          1.0 if r.converged else 0.0)
                         + r.coeffs.b + r.coeffs.c + (r.coeffs.alpha,))
        return table


_NODE_CACHE = {}


def _nodes(q):
    key = (float(q.eta), int(q.panels), int(q.order))
    hit = _NODE_CACHE.get(key)
    if hit is not None:
        return hit
    x, w = _composite_gl(-q.eta * math.pi, q.eta * math.pi, q.panels,
                         q.order)
    d = x[None, :] - CENTERS[:, None]
    hit = (x, w, np.cos(x), np.sin(x), d * d)
    _NODE_CACHE[key] = hit
    return hit


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


def norm_squared(a, q):
    """Quadrature norm of the full 2-D ansatz (factorized)."""
    nd = _nodes(q)
    w = nd[1]
    n1 = float(((_comb_on(nd, a.b, a.alpha)) ** 2 * w).sum())
    n2 = float(((_comb_on(nd, a.c, a.alpha)) ** 2 * w).sum())
    total = n1 * n2
    if not (math.isfinite(total) and total > 0):
        raise QuadratureError("ansatz norm is not positive (alpha too "
                              "extreme for the quadrature grid?)")
    return total


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


def _chain_matrices(p, alpha, theta):
    """Exact 5x5 moment matrices of one comb factor, (S, H, C, X): the
    overlap, the one-chain Hamiltonian, the cosine and the position
    matrix <g_m|.|g_n> over the whole line.  g_m g_n is one Gaussian of
    exponent 2 alpha centred at mu, so every moment has a closed form."""
    s = math.sqrt(math.pi / (2.0 * alpha)) * np.exp(-0.5 * alpha * _DELTA2)
    c = _PARITY * math.exp(-0.125 / alpha) * s
    kin = p.hbar * p.hbar / (2.0 * p.D1) * (alpha - alpha * alpha * _DELTA2)
    chg = p.E2 * ((_MU - theta) ** 2 + 0.25 / alpha)
    h = (kin + p.E1 + chg) * s - p.E1 * c
    return s, h, c, _MU * s


def _ground(a, s):
    """Lowest generalized eigenvector of (a, s), unit length with a
    positive sum, and the gap to the next eigenvalue."""
    w, v = eigh(a, s, subset_by_index=(0, 1), check_finite=False)
    g = v[:, 0] / np.linalg.norm(v[:, 0])
    return (-g if g.sum() < 0 else g), float(w[1] - w[0])


def _quotient(m, s, v):
    return float(v @ m @ v) / float(v @ s @ v)


def _energy(mats, dp, b, c):
    """Closed-form normalized energy of the product comb (b, c)."""
    s, h, cos, _ = mats
    return (_quotient(h, s, b) + _quotient(h, s, c)
            + dp * (1.0 - _quotient(cos, s, b) * _quotient(cos, s, c)))


def _mean_phase(mats, b, c):
    """Closed-form mean joint phase <(phi1 + phi2)/2>."""
    return 0.5 * (_quotient(mats[3], mats[0], b)
                  + _quotient(mats[3], mats[0], c))


def _reduced(mats, dp, c):
    """Ground state of the mean-field problem for one comb given the
    other: the operator H - dp kappa_c C, kappa_c = c.Cc / c.Sc."""
    s, h, cos, _ = mats
    return _ground(h - dp * _quotient(cos, s, c) * cos, s)


def _alternate(p, theta, log_alpha):
    """Alternating exact minimization over the two combs at one alpha,
    from the uncoupled ground state until the energy stops changing;
    each half step is a generalized eigenproblem, so the energy never
    rises.  Returns (energy, converged, coeffs)."""
    alpha = math.exp(log_alpha)
    mats = _chain_matrices(p, alpha, theta)
    c = _ground(mats[1], mats[0])[0]
    e_prev = math.inf
    for _ in range(_MAX_ALTERNATIONS):
        b = _reduced(mats, p.delta_prime, c)[0]
        e = _energy(mats, p.delta_prime, b, c)
        conv = e_prev - e <= _ETOL * abs(e)
        if conv:
            break
        e_prev = e
        b, c = c, b
    return e, conv, AnsatzCoeffs(tuple(b), tuple(c), alpha)


def _golden(f, lo, hi):
    """Golden-section search for the minimum of f on [lo, hi]."""
    x1, x2 = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > _LOG_ALPHA_TOL:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = f(x2)


def minimize_energy(p, theta):
    """Minimize the energy over (b, c, alpha) by Rayleigh-Ritz: the combs
    by ``_alternate``, alpha by a log-alpha scan, extended outward while
    the energy still falls at an end, and golden-section refinement.
    Returns (AnsatzCoeffs, energy); raises ConvergenceError carrying the
    best point if its alternation hit the cap or the energy still falls
    at a scan limit."""
    seen = []

    def run(la):
        seen.append(_alternate(p, theta, la))
        return seen[-1][0]

    las = list(_LOG_ALPHA_SCAN)
    es = [run(la) for la in las]
    lo, hi = _LOG_ALPHA_LIMITS
    while es[0] == min(es) and las[0] - _LOG_ALPHA_STEP >= lo:
        las.insert(0, las[0] - _LOG_ALPHA_STEP)
        es.insert(0, run(las[0]))
    while es[-1] == min(es) and las[-1] + _LOG_ALPHA_STEP <= hi:
        las.append(las[-1] + _LOG_ALPHA_STEP)
        es.append(run(las[-1]))
    i = int(np.argmin(es))
    interior = 0 < i < len(las) - 1
    if interior:
        _golden(run, las[i - 1], las[i + 1])
    energy, conv, coeffs = min(seen, key=lambda r: r[0])
    if not (interior and conv):
        raise ConvergenceError(
            "alternation cap reached before the energy stopped changing"
            if interior else "energy still falls at a limit of the alpha scan",
            best_coeffs=coeffs, best_energy=energy)
    return coeffs, energy


def sweep_theta(p, theta_grid):
    """Minimize each theta of a strictly increasing grid on its own.

    Convergence failures are recorded in-row (converged=False, best
    point kept) and the sweep continues.  Each row carries the
    closed-form mean phase and the eigen-gap of the final reduced
    problem."""
    grid = np.asarray(theta_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise DomainError("theta grid must be a non-empty 1-D sequence")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise DomainError("theta grid must be strictly increasing")
    rows = []
    for theta in map(float, grid):
        try:
            coeffs, energy = minimize_energy(p, theta)
            conv = True
        except ConvergenceError as err:
            coeffs, energy, conv = err.best_coeffs, err.best_energy, False
        mats = _chain_matrices(p, coeffs.alpha, theta)
        gap = _reduced(mats, p.delta_prime, coeffs.c)[1]
        phi = _mean_phase(mats, coeffs.b, coeffs.c)
        rows.append(SweepRow(theta, energy, phi, conv, coeffs, gap))
    return SweepResult(rows)


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
