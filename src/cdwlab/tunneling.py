"""Closed-form tunneling-current stack.

Soliton-pair Fourier amplitudes, the erf-based wavefunctional
normalization, the cosh-form current, the phenomenological Zener
comparison.
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


def gaussian_norm_constant(a_exp, upper):
    """Normalization 1/sqrt(integral_0^upper exp(-2*a_exp*phi^2) dphi),
    evaluated in closed form through erf.  upper may be math.inf."""
    if not (math.isfinite(a_exp) and a_exp > 0):
        raise DomainError("exponent a_exp must be positive")
    if math.isnan(upper) or upper <= 0:
        raise DomainError("upper limit must be positive")
    s = math.sqrt(a_exp)  # so neither a huge nor a subnormal a_exp overflows
    e = math.erf(upper * math.sqrt(2.0) * s)
    integral = 0.5 * math.sqrt(math.pi / 2.0) / s * e
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


def fourier_check_table(L, b_L, n_modes, box_factor):
    """Mode-by-mode comparison (k, numeric amplitude, closed form,
    relative deviation) of the numerically transformed tanh profile and
    the sharp-wall closed form over the first n_modes box wavenumbers;
    a near-zero reference mode's deviation is missing (NaN).

    The soliton-antisoliton pair is centred on 0 with walls at -L/2 and
    L/2, wall steepness b = b_L/L and a box box_factor*L long.  The
    sharp-wall regime needs b_L >= 100 and box_factor >= 10, both
    compared as given.  The profile is normalized by 2*pi; its transform
    splits into an exact plateau integral plus a quadrature window
    around each wall, so the comparison resolves deviations far below
    the sharp-wall difference itself.
    """
    if not (math.isfinite(L) and L > 0):
        raise DomainError("separation L must be positive")
    b, box = b_L / L, box_factor * L
    if not (math.isfinite(b) and b > 0):
        raise DomainError("steepness b must be positive and finite")
    if n_modes < 1:
        raise DomainError("need at least one mode")
    if b_L < 100.0:
        raise DomainError("sharp-wall regime needs b*L >= 100")
    if not (10.0 <= box_factor and box < math.inf):
        raise DomainError("box must be finite and at least 10*L")
    half_l = 0.5 * L
    # beyond w = 40/b both tanh factors are flat to ~e^{-80}, so the
    # plateau and tail integrate exactly; only the wall needs quadrature
    w = min(40.0 / b, L / 4.0)
    u, uw = _composite_gl(half_l - w, half_l + w, 40, 16)
    f = thin_wall_profile(u, b, L) / (2.0 * math.pi)
    scale = math.sqrt(2.0 / math.pi)
    # box >= 10*L puts mode 1 at k*L/2 <= pi/10, where |ref| is at least
    # 0.98 * scale * L/2: mode 1 is never excluded by this floor
    floor = 1e-8 * scale * L / 2.0
    rows = []
    for n in range(1, n_modes + 1):
        k = 2.0 * math.pi * n / box
        ref = soliton_fourier(k, L)
        plateau = math.sin(k * (half_l - w)) / k
        window = float(np.sum(uw * f * np.cos(k * u)))
        num = scale * (plateau + window)
        dev = abs(num - ref) / abs(ref) if abs(ref) >= floor else None
        rows.append((k, num, ref, dev))
    return CurveTable(("k", "numeric", "closed_form", "rel_deviation"), rows)


def current_beckwith(E, cp):
    """Tunneling current C~1 * cosh(sqrt(2E/(E_T c_v)) - sqrt(E_T c_v/E))
    * exp(-E_T c_v/E); strictly positive where E_T c_v/E is finite, and
    DomainError for an E far enough below threshold to overflow it."""
    if not (math.isfinite(E) and E > 0):
        raise DomainError("field E must be positive")
    ecv = cp.E_T * cp.c_v
    r = ecv / E
    if not math.isfinite(r):  # cosh(-inf)*exp(-inf) would be NaN
        raise DomainError("E_T*c_v/E overflows")
    return (cp.C_tilde * math.cosh(math.sqrt(2.0 * E / ecv) - math.sqrt(r))
            * math.exp(-r))


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
