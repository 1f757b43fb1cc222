"""Closed-form tunneling-current stack.

Soliton-pair Fourier amplitudes, the erf-based wavefunctional
normalization, the cosh-form current, the phenomenological Zener
comparison and the pair-separation geometry.
All closed-form (erf is ``math.erf``); the only numerics are one windowed
quadrature cross-checking the sharp-wall Fourier amplitude against the
smooth tanh profile.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .curves import CurveTable
from .errors import CdwError, DomainError
from .sinegordon import thin_wall_profile

@dataclass(frozen=True)
class PairGeometry:
    """Soliton-antisoliton pair: wall separation, steepness and centers."""

    L: float
    b: float
    x_a: float
    x_b: float

    def __post_init__(self):
        if not (math.isfinite(self.L) and self.L > 0):
            raise DomainError("separation L must be positive")
        if not (math.isfinite(self.b) and self.b > 0):
            raise DomainError("steepness b must be positive")
        if not math.isclose(self.x_b - self.x_a, self.L,
                            rel_tol=1e-12, abs_tol=1e-12):
            raise DomainError("wall centers must satisfy x_b - x_a = L")


@dataclass(frozen=True)
class CurrentParams:
    """Threshold scale and current prefactors."""

    E_T: float = 1.0
    c_v: float = 1.0
    C_tilde: float = 1.0
    G_p: float = 1.0

    def __post_init__(self):
        vals = (self.E_T, self.c_v, self.C_tilde, self.G_p)
        if not all(math.isfinite(v) and v > 0 for v in vals):
            raise DomainError("current parameters must be positive")


def erf(x):
    """Error function of a finite argument (``math.erf``)."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("erf needs finite argument")
    return math.erf(x)


def gaussian_norm_constant(a_exp, upper):
    """Normalization 1/sqrt(integral_0^upper exp(-2*a_exp*phi^2) dphi),
    evaluated in closed form through erf.  upper may be math.inf."""
    if not (math.isfinite(a_exp) and a_exp > 0):
        raise DomainError("exponent a_exp must be positive")
    if math.isnan(upper) or upper <= 0:
        raise DomainError("upper limit must be positive")
    e = math.erf(upper * math.sqrt(2.0 * a_exp))
    integral = 0.5 * math.sqrt(math.pi / (2.0 * a_exp)) * e
    return 1.0 / math.sqrt(integral)


def soliton_fourier(k, L):
    """Sharp-wall pair amplitude sqrt(2/pi)*sin(k*L/2)/k with the k -> 0
    limit sqrt(2/pi)*L/2."""
    if not (math.isfinite(L) and L > 0):
        raise DomainError("separation L must be positive")
    scale = math.sqrt(2.0 / math.pi)
    if abs(k) < 1e-12 * (2.0 * math.pi / L):
        return scale * L / 2.0
    return scale * math.sin(k * L / 2.0) / k


def _composite_gl(lo, hi, panels, order):
    """Composite Gauss-Legendre rule on [lo, hi]: `panels` equal panels
    of `order` nodes each; returns flat (nodes, weights)."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return x, w


def _fourier_modes(g, n_modes, box):
    """Per-mode rows (k, numeric amplitude, closed form, relative
    deviation or None for excluded near-zero reference modes)."""
    if n_modes < 1:
        raise DomainError("need at least one mode")
    if g.b * g.L < 100.0:
        raise DomainError("sharp-wall regime needs b*L >= 100")
    if not 10.0 * g.L <= box < math.inf:
        raise DomainError("box must be finite and at least 10*L")
    mid = 0.5 * (g.x_a + g.x_b)
    half_l = 0.5 * g.L
    # beyond w = 40/b both tanh factors are flat to ~e^{-80}, so the
    # plateau and tail integrate exactly; only the wall needs quadrature
    w = min(40.0 / g.b, g.L / 4.0)
    u, uw = _composite_gl(half_l - w, half_l + w, 40, 16)
    f = thin_wall_profile(mid + u, g.b, g.x_a, g.x_b) / (2.0 * math.pi)
    scale = math.sqrt(2.0 / math.pi)
    floor = 1e-8 * scale * g.L / 2.0
    rows = []
    for n in range(1, n_modes + 1):
        k = 2.0 * math.pi * n / box
        ref = soliton_fourier(k, g.L)
        plateau = math.sin(k * (half_l - w)) / k
        window = float(np.sum(uw * f * np.cos(k * u)))
        num = scale * (plateau + window)
        dev = abs(num - ref) / abs(ref) if abs(ref) >= floor else None
        rows.append((k, num, ref, dev))
    return rows


def thin_wall_fourier_check(g, n_modes, box):
    """Max relative deviation between the numerically transformed tanh
    profile and the sharp-wall closed form over the first n_modes box
    wavenumbers (near-zero reference modes excluded).

    The profile is normalized by 2*pi and centered; its transform splits
    into an exact plateau integral plus a quadrature window around each
    wall, so the comparison resolves deviations far below the sharp-wall
    difference itself.
    """
    devs = [r[3] for r in _fourier_modes(g, n_modes, box) if r[3] is not None]
    if not devs:
        raise DomainError("all requested modes have near-zero amplitude")
    return max(devs)


def fourier_check_table(g, n_modes, box):
    """Mode-by-mode comparison table; excluded modes carry a missing
    deviation entry."""
    return CurveTable(("k", "numeric", "closed_form", "rel_deviation"),
                      _fourier_modes(g, n_modes, box))


def current_beckwith(E, cp):
    """Tunneling current C~1 * cosh(sqrt(2E/(E_T c_v)) - sqrt(E_T c_v/E))
    * exp(-E_T c_v/E); strictly positive for E > 0."""
    if not (math.isfinite(E) and E > 0):
        raise DomainError("field E must be positive")
    ecv = cp.E_T * cp.c_v
    u = math.sqrt(2.0 * E / ecv)
    v = math.sqrt(ecv / E)
    return cp.C_tilde * math.cosh(u - v) * math.exp(-ecv / E)


def current_zener(E, cp, gated=True):
    """Phenomenological Zener form G_p*(E - E_T)*exp(-E_T/E).

    gated=True: zero for E <= E_T.  gated=False: the raw formula, which
    goes negative below threshold."""
    if not (math.isfinite(E) and E >= 0):
        raise DomainError("field E must be non-negative")
    if E == 0.0 or (gated and E <= cp.E_T):
        return 0.0
    return cp.G_p * (E - cp.E_T) * math.exp(-cp.E_T / E)


def iv_curve(E_grid, cp):
    """Current-versus-field table: cosh form plus gated and ungated
    Zener columns.  Failed points are recorded as missing, not dropped."""
    grid = np.asarray(E_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError("field grid must be a non-empty 1-D sequence")
    if not np.all(grid > 0):
        raise DomainError("field grid must be positive")
    with np.errstate(invalid="ignore"):  # inf - inf is NaN: not increasing
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise DomainError("field grid must be strictly increasing")
    columns = (current_beckwith, current_zener,
               partial(current_zener, gated=False))
    rows = []
    for E in grid.tolist():
        row = [E]
        for fn in columns:
            try:
                row.append(fn(E, cp))
            except (CdwError, OverflowError):
                row.append(None)
        rows.append(row)
    return CurveTable(("E", "I_beckwith", "I_zener_gated", "I_zener_ungated"),
                      rows)
