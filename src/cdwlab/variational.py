"""Two-chain Gaussian-comb variational ground state.

The trial state is a product of two five-tooth Gaussian combs,

    Psi(phi1, phi2) = (sum_m b_m g(phi1 - 2 pi m)) (sum_m c_m g(phi2 - 2 pi m)),
    g(u) = exp(-alpha u^2),  m = -2..2,

with unit-norm coefficient vectors and a shared width alpha.  The
energy functional is the normalized expectation of

    H = -1/(2 D1) (d^2/dphi1^2 + d^2/dphi2^2)
        + sum_n [E1 (1 - cos phi_n) + E2 (phi_n - theta)^2]
        + delta_prime (1 - cos(phi1 - phi2)).

Because all teeth share one width, every 1-D moment of g_m g_n has a
closed form (Gaussian product theorem; Boys 1950, Proc. R. Soc. A 200,
542), so the energy is 5x5 matrix algebra.  The minimizer is
Rayleigh-Ritz: alternating generalized eigenproblems for b and c at
fixed alpha, from the uncoupled pair, until a half step lowers the
energy by no more than _ETOL relative.  At delta' = 0 the uncoupled
pair is the minimum, so it is returned after its one solve, with only
H whitened and only the H and X quotients formed.

H(theta + 2 pi k) is H(theta) with every phi shifted by 2 pi k, and
H(-theta) is H(theta) with phi -> -phi.  A sweep therefore reduces each
theta to its signed offset u' = theta - 2 pi k, k = round(theta / 2 pi),
and searches each distinct |u'| once; a row at theta has its teeth at
2 pi (k + m), so b_m and c_m weigh those, reversed where u' < 0.  Each
offset runs its own alpha search: a log-alpha scan, extended outward
while the energy still falls at an end, refined by Brent's method to a
1e-6 bracket or until its three best energies agree to _ETOL, so a flat
energy (delta' near 0) fixes alpha and the combs only as finely as it
resolves them.  Each round is one batched evaluation of every searching
offset's points, gathered as lists and handed back by running list
bounds; a (u, alpha) member's overlap is whitened once by its Cholesky
factor and each half step is one numpy ``eigh`` over the members still
alternating.  A theta's row is bit-identical whether it is swept alone
or in a grid.

Composite Gauss-Legendre quadrature on [-eta pi, eta pi]
(``energy_expectation``) is kept as an independent oracle for the
closed-form energy.
"""

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .curves import CurveTable
from .errors import DomainError, FieldOverflowError
from .tunneling import _composite_gl

CENTERS = 2.0 * math.pi * np.arange(-2, 3, dtype=float)

_DELTA2 = (CENTERS[:, None] - CENTERS[None, :]) ** 2
_MU = 0.5 * (CENTERS[:, None] + CENTERS[None, :])
_PARITY = (-1.0) ** np.add.outer(np.arange(5), np.arange(5))

# coarse log-alpha scan; Brent's method between the best scan point's
# neighbours refines it down to this bracket width in log alpha
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
# phase_jumps counts a sweep step larger than this (in |.|) towards a jump
_STEP_THRESHOLD = 0.5 * math.pi


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


@cache
def _nodes(q):
    x, w = _composite_gl(-q.eta * math.pi, q.eta * math.pi, q.panels,
                         q.order)
    d = x[None, :] - CENTERS[:, None]
    return x, w, np.cos(x), np.sin(x), d * d


def _chain_moments(coeff, alpha, theta, p, nd):
    """1-D moments of one comb factor u(phi):

    returns (norm, kinetic, pinning, charging, <cos>, <sin>)
    where kinetic = -1/(2 D1) * int u u'' and the rest are plain
    weighted moments of u^2."""
    x, w, cosx, sinx, d2 = nd
    g = np.exp(-alpha * d2)
    u = coeff @ g
    u2w = u * u * w
    n = float(u2w.sum())
    upp = coeff @ (g * (4.0 * alpha * alpha * d2 - 2.0 * alpha))
    kin = -(1.0 / (2.0 * p.D1)) * float((w * u * upp).sum())
    pin = p.E1 * float((u2w * (1.0 - cosx)).sum())
    dphi = x - theta
    chg = p.E2 * float((u2w * dphi * dphi).sum())
    mcos = float((u2w * cosx).sum())
    msin = float((u2w * sinx).sum())
    return n, kin, pin, chg, mcos, msin


def energy_expectation(a, p, theta, q):
    """Normalized energy <Psi|H|Psi>/<Psi|Psi> at driving phase theta."""
    nd = _nodes(q)
    b = np.asarray(a.b)
    c = np.asarray(a.c)
    n1, k1, p1, q1, mc1, ms1 = _chain_moments(b, a.alpha, theta, p, nd)
    n2, k2, p2, q2, mc2, ms2 = _chain_moments(c, a.alpha, theta, p, nd)
    if not (math.isfinite(n1) and math.isfinite(n2) and n1 > 0 and n2 > 0):
        raise DomainError("ansatz norm is not positive")
    e = (k1 * n2 + n1 * k2
         + p1 * n2 + n1 * p2
         + q1 * n2 + n1 * q2
         + p.delta_prime * (n1 * n2 - mc1 * mc2 - ms1 * ms2))
    e /= n1 * n2
    if not math.isfinite(e):
        raise DomainError("energy expectation is not finite")
    return e


def _chain_matrices(p, theta, alpha):
    """Exact 5x5 moment matrices of one comb factor at each (theta,
    alpha) pair of two equal-length arrays, as one (4, K, 5, 5) stack
    (S, H, V, X) of <g_m|.|g_n> over the line for . = 1, H, 1 - cos phi
    and phi.  g_m g_n is one Gaussian of exponent 2 alpha centred at mu,
    so each has a closed form; expm1 keeps V exact for narrow teeth."""
    a = alpha[:, None, None]
    s = np.sqrt(math.pi / (2.0 * a)) * np.exp(-0.5 * a * _DELTA2)
    v = (1.0 - _PARITY - _PARITY * np.expm1(-0.125 / a)) * s
    kin = 1.0 / (2.0 * p.D1) * (a - a * a * _DELTA2)
    chg = p.E2 * ((_MU - theta[:, None, None]) ** 2 + 0.25 / a)
    h = (kin + chg) * s + p.E1 * v
    return np.stack((s, h, v, _MU * s))


def _whiten(mats, n):
    """W = inv(cholesky(S)) per member and the (n, K, 5, 5) stack W M W^T
    of the first n of H, V: n = 1 at delta' = 0, where V is never used."""
    w = np.linalg.inv(np.linalg.cholesky(mats[0]))
    return w, w @ mats[1:1 + n] @ w.swapaxes(1, 2)


def _quotients(mats, v):
    """(n - 1, K) Rayleigh quotients v.Mv / v.Sv of each M after S in the
    stack mats: H, V and X for the (S, H, V, X) of _chain_matrices."""
    vmv = ((mats @ v[:, :, None])[..., 0] * v).sum(axis=-1)
    return vmv[1:] / vmv[0]


def _reduced(w, white):
    """Ground state of one whitened (K, 5, 5) problem for a comb given the
    other, W (H + dp kappa V) W^T with dp kappa = dp * (1 - c.Vc / c.Sc)
    (W H W^T alone for the uncoupled comb): W^T v, unit length with a
    positive sum, and the ascending eigenvalues, whose first two give
    the gap."""
    vals, vecs = np.linalg.eigh(white)
    g = (vecs[:, None, :, 0] @ w)[:, 0]
    g /= np.sqrt((g * g).sum(axis=1))[:, None]
    np.negative(g, out=g, where=g.sum(axis=1)[:, None] < 0)
    return g, vals


def _energy(qb, qc, dp):
    """Normalized energy of the product comb from its (3, K) quotients."""
    return qb[0] + qc[0] + dp * (qb[1] + qc[1] - qb[1] * qc[1])


# columns of the rows that _alternate returns
_E, _CONV, _GAP, _PHI, _ALPHA = range(5)
_B, _C = slice(5, 10), slice(10, 15)


def _alternate(p, theta, log_alpha):
    """Alternating exact minimization over the two combs at each (theta,
    log alpha) pair, each a descent from the uncoupled pair (c, c): a
    member stops on the first half step that lowers its energy by no
    more than _ETOL * |E|, or at _MAX_ALTERNATIONS.  At delta' = 0 the
    problem for b is the one that gave c, so each member returns the
    converged pair (c, c) after that one solve: only H is whitened, only
    the H and X quotients are formed, and E = 2 c.Hc / c.Sc.  Every half
    step is one eigh over the members still alternating, so no energy
    rises, and the gap is taken only for the members that stop.
    Returns a row per member: energy, converged, the eigen-gap of the
    problem for b given c, the mean joint phase <(phi1 + phi2)/2>,
    alpha, b (the last comb solved) and c."""
    alpha = np.exp(log_alpha)
    dp = p.delta_prime
    with np.errstate(over="ignore", invalid="ignore"):
        mats = _chain_matrices(p, theta, alpha)
        w, white = _whiten(mats, 2 if dp else 1)
    if not np.isfinite(white).all():
        raise FieldOverflowError("the comb moment matrices overflow")
    c, vals = _reduced(w, white[0])
    if not dp:
        # S, H and X: the V quotient would be multiplied by delta' = 0
        qh, qx = _quotients(mats[[0, 1, 3]], c)
        return np.column_stack((qh + qh, np.ones_like(qh),
                                vals[:, 1] - vals[:, 0], qx, alpha, c, c))
    qc = _quotients(mats, c)
    e_prev = _energy(qc, qc, dp)
    rows = np.empty((alpha.size, 15))
    live = np.arange(alpha.size)
    for i in range(_MAX_ALTERNATIONS):
        b, vals = _reduced(w, white[0] + (dp * (1.0 - qc[1]))[:, None, None]
                           * white[1])
        qb = _quotients(mats, b)
        e = _energy(qb, qc, dp)
        done = e_prev - e <= _ETOL * np.abs(e)
        # every member still alternating stops at the cap
        stop = done if i + 1 < _MAX_ALTERNATIONS else np.ones_like(done)
        if stop.any():
            new = np.column_stack((e, done, vals[:, 1], 0.5 * (qb[2] + qc[2]),
                                   alpha[live], b, c))[stop]
            new[:, _GAP] -= vals[stop, 0]
            rows[live[stop]] = new
            keep = ~stop
            live, mats, w, white, b, qb, e = (
                live[keep], mats[:, keep], w[keep], white[:, keep],
                b[keep], qb[:, keep], e[keep])
            if not live.size:
                break
        c, qc, e_prev = b, qb, e
    return rows


def _search():
    """One theta's alpha search: a generator that yields the log alphas it
    needs evaluated, is sent their energies, and returns whether its best
    point is interior.  It asks for the scan, then one point at a time: the
    scan extended by its step while the energy still falls at an end, then
    Brent's method (Brent 1973, ch. 5) from the best point x, the next
    lowest w and the third v (its neighbours).  d is the last step and e
    the one before; no step is shorter than tol, a third of the final
    width, so a step of tol to each side of x closes the bracket (a, b)."""
    las = _LOG_ALPHA_SCAN.tolist()
    es = yield las
    step, (lo, hi) = _LOG_ALPHA_STEP, _LOG_ALPHA_LIMITS
    while es[0] == min(es) and (la := las[0] - step) >= lo:
        las, es = [la] + las, (yield [la]) + es
    while es[-1] == min(es) and (la := las[-1] + step) <= hi:
        las, es = las + [la], es + (yield [la])
    i = int(np.argmin(es))
    if not 0 < i < len(es) - 1:
        return False
    (fx, x), (fw, w), (fv, v) = sorted(zip(es[i - 1:i + 2], las[i - 1:i + 2]))
    a, b, tol = las[i - 1], las[i + 1], _LOG_ALPHA_TOL / 3.0
    d = e = b - a
    while b - a > _LOG_ALPHA_TOL and max(fw, fv) - fx > _ETOL * abs(fx):
        r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
        s, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
        s, q = -s if q > 0 else s, abs(q)
        # the parabola's step s / q is taken if it is under half of e and
        # lands inside (a, b); else a golden step into the larger part
        if (abs(e) > tol and abs(s) < abs(0.5 * q * e)
                and q * (a - x) < s < q * (b - x)):
            d, e = s / q, d
            if x + d - a < 2 * tol or b - (x + d) < 2 * tol:
                d = math.copysign(tol, a + b - 2 * x)
        else:
            e = a - x if x >= 0.5 * (a + b) else b - x
            d = (1.0 - _INVPHI) * e
        u = x + d if abs(d) >= tol else x + math.copysign(tol, d)
        [fu] = yield [u]
        # x keeps the lower of x and u, and the other, u, ends the bracket
        if fu <= fx:
            v, w, x, u, fv, fw, fx = w, x, u, x, fw, fx, fu
        elif fu <= fw:
            v, w, fv, fw = w, u, fw, fu
        elif fu <= fv:
            v, fv = u, fu
        a, b = (u, b) if u < x else (a, u)
    return True


def sweep_theta(p, theta_grid):
    """Minimize the energy over (b, c, alpha) at each theta of a finite,
    strictly increasing grid.  Theta = 2 pi k + u' with k = round(theta /
    2 pi) is H(u') with every phi shifted by 2 pi k, and H(-u) is H(u)
    with phi -> -phi, so the combs by ``_alternate`` and alpha by one
    ``_search`` run once per distinct offset u = |u'|, each round one
    ``_alternate`` call on all their points, whose energies go back to
    each offset by the running bounds of its part.  An offset keeps the first
    lowest point it saw, unconverged if that hit the alternation cap or
    the energy falls at a scan limit.  Its row is mapped back to theta:
    where u' < 0 both combs are reversed and mean_Phi negated, and mean_Phi
    gains 2 pi k, so b_m and c_m weigh the teeth at 2 pi (k + m)."""
    grid = np.asarray(theta_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise DomainError("theta grid must be a non-empty 1-D sequence")
    if not np.isfinite(grid).all():
        raise DomainError("theta grid must be finite")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise DomainError("theta grid must be strictly increasing")
    k = np.round(grid / (2.0 * math.pi))
    signed = grid - 2.0 * math.pi * k
    offsets, back = np.unique(np.abs(signed), return_inverse=True)
    rows = np.full((offsets.size, 15), np.inf)
    offsets = offsets.tolist()
    searches = [_search() for _ in offsets]
    asks = {j: next(s) for j, s in enumerate(searches)}
    while asks:
        us, las = [], []
        for j, a in asks.items():
            us += [offsets[j]] * len(a)
            las += a
        new = _alternate(p, np.array(us), np.array(las))
        es, hi = new[:, _E].tolist(), 0
        for j, a in list(asks.items()):
            lo, hi = hi, hi + len(a)
            part = es[lo:hi]
            # min and index both keep the first of tied minima
            if (e := min(part)) < rows[j, _E]:
                rows[j] = new[lo + part.index(e)]
            try:
                asks[j] = searches[j].send(part)
            except StopIteration as stop:
                rows[j, _CONV] *= stop.value
                del asks[j]
    rows, flip = rows[back], signed < 0
    for comb in (_B, _C):
        rows[flip, comb] = rows[flip, comb][:, ::-1]
    rows[flip, _PHI] *= -1.0
    rows[:, _PHI] += 2.0 * math.pi * k
    return [SweepRow(t, r[_E], r[_PHI], bool(r[_CONV]),
                     AnsatzCoeffs(r[_B], r[_C], r[_ALPHA]), r[_GAP])
            for t, r in zip(grid.tolist(), rows.tolist())]


def sweep_table(rows):
    """Sweep rows as a table theta, E_min, mean_Phi, converged, the b
    and c coefficients (m = -2..2) and alpha; the gap is not a column."""
    cols = ["theta", "E_min", "mean_Phi", "converged"]
    cols += ["b_%d" % m for m in range(-2, 3)]
    cols += ["c_%d" % m for m in range(-2, 3)]
    cols.append("alpha")
    return CurveTable(cols, [
        (r.theta, r.e_min, r.mean_phi, r.converged)
        + r.coeffs.b + r.coeffs.c + (r.coeffs.alpha,) for r in rows])


def count_local_minima(values):
    """Strict interior minima after collapsing exact plateaus."""
    vals = [float(v) for v in values]
    collapsed = [v for i, v in enumerate(vals) if i == 0 or v != vals[i - 1]]
    count = 0
    for i in range(1, len(collapsed) - 1):
        if collapsed[i] < collapsed[i - 1] and collapsed[i] < collapsed[i + 1]:
            count += 1
    return count


def phase_jumps(phases):
    """Magnitudes of consecutive-run jumps in a plateau staircase.

    A jump is a maximal run of consecutive differences all exceeding
    _STEP_THRESHOLD (pi/2) in absolute value; its magnitude is the total
    phase change across the run."""
    phases = np.asarray(phases, dtype=float)
    d = np.diff(phases)
    jumps = []
    i = 0
    while i < d.size:
        if abs(d[i]) > _STEP_THRESHOLD:
            j = i
            while j + 1 < d.size and abs(d[j + 1]) > _STEP_THRESHOLD:
                j += 1
            jumps.append(float(phases[j + 1] - phases[i]))
            i = j + 1
        else:
            i += 1
    return jumps
