import math

import numpy as np
import pytest

from cdwlab.errors import DomainError
from cdwlab.tunneling import (
    CurrentParams,
    PairGeometry,
    current_beckwith,
    current_zener,
    erf,
    fourier_check_table,
    gaussian_norm_constant,
    iv_curve,
    soliton_fourier,
    thin_wall_fourier_check,
)


def simpson(f, a, b, n=8001):
    # composite Simpson oracle, n odd sample count
    x = np.linspace(a, b, n)
    y = f(x)
    h = (b - a) / (n - 1)
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum()
                      + 2.0 * y[2:-2:2].sum())


def test_pair_geometry_validation():
    PairGeometry(L=2.0, b=100.0, x_a=-1.0, x_b=1.0)
    with pytest.raises(DomainError):
        PairGeometry(L=2.0, b=100.0, x_a=-1.0, x_b=0.5)
    with pytest.raises(DomainError):
        PairGeometry(L=0.0, b=100.0, x_a=0.0, x_b=0.0)
    with pytest.raises(DomainError):
        PairGeometry(L=2.0, b=-1.0, x_a=-1.0, x_b=1.0)


def test_current_params_validation():
    with pytest.raises(DomainError):
        CurrentParams(E_T=0.0)
    with pytest.raises(DomainError):
        CurrentParams(c_v=-1.0)
    with pytest.raises(DomainError):
        CurrentParams(C_tilde=0.0)
    with pytest.raises(DomainError):
        CurrentParams(G_p=0.0)


def test_erf_anchors():
    assert erf(0.0) == 0.0
    assert erf(1.0) == pytest.approx(0.842700792950, abs=1e-12)
    # stdlib cross-check over both evaluation branches
    for x in np.arange(0.0, 6.0, 0.125):
        assert erf(float(x)) == pytest.approx(math.erf(float(x)),
                                              abs=2e-15, rel=2e-15)
    with pytest.raises(DomainError):
        erf(math.inf)


def test_erf_odd():
    rng = np.random.default_rng(41)
    for _ in range(40):
        x = rng.uniform(0, 6)
        assert erf(-x) == -erf(x)


def test_gaussian_norm_closed_values():
    # a=1/2, infinite limit: integral sqrt(pi)/2
    c = gaussian_norm_constant(0.5, math.inf)
    assert c == pytest.approx(1.0 / math.sqrt(math.sqrt(math.pi) / 2.0),
                              rel=1e-14)
    assert c == pytest.approx(1.06225, abs=5e-6)
    # a=1/2, unit limit: integral (sqrt(pi)/2)*erf(1) = 0.746824...
    c1 = gaussian_norm_constant(0.5, 1.0)
    integral = 0.5 * math.sqrt(math.pi) * math.erf(1.0)
    assert integral == pytest.approx(0.746824, abs=5e-7)
    assert c1 == pytest.approx(1.0 / math.sqrt(integral), rel=1e-14)
    with pytest.raises(DomainError):
        gaussian_norm_constant(0.0, 1.0)
    with pytest.raises(DomainError):
        gaussian_norm_constant(1.0, 0.0)


def test_gaussian_norm_constant_huge_finite_upper():
    # a finite limit whose erf argument overflows is the infinite limit
    assert gaussian_norm_constant(1.0, 1.7e308) == gaussian_norm_constant(
        1.0, math.inf)


def test_gaussian_norm_round_trip():
    # C^2 * integral_0^upper exp(-2 a phi^2) dphi = 1 against Simpson
    rng = np.random.default_rng(42)
    for _ in range(100):
        a = rng.uniform(0.05, 5.0)
        upper = rng.uniform(0.1, 4.0)
        c = gaussian_norm_constant(a, upper)
        val = c * c * simpson(lambda t: np.exp(-2.0 * a * t * t), 0.0, upper)
        assert abs(val - 1.0) < 1e-10


def test_soliton_fourier_values():
    L = 2.0
    scale = math.sqrt(2.0 / math.pi)
    assert soliton_fourier(0.0, L) == pytest.approx(scale * L / 2, rel=1e-15)
    assert soliton_fourier(1e-15, L) == pytest.approx(scale * L / 2,
                                                      rel=1e-15)
    assert soliton_fourier(2 * math.pi / L, L) == pytest.approx(0.0,
                                                                abs=1e-15)
    assert soliton_fourier(math.pi / L, L) == pytest.approx(
        scale * 2.0 / math.pi, rel=1e-14)
    # sqrt(2/pi)*2/pi = 0.507949...; five-digit renderings of this
    # value in circulation are off in the last digit
    assert soliton_fourier(math.pi / L, L) == pytest.approx(0.50795,
                                                            abs=5e-5)


def test_soliton_fourier_even_with_periodic_zeros():
    rng = np.random.default_rng(43)
    L = 3.0
    for _ in range(30):
        k = rng.uniform(-20, 20)
        assert soliton_fourier(k, L) == soliton_fourier(-k, L)
    for j in range(1, 6):
        assert abs(soliton_fourier(2 * math.pi * j / L, L)) < 1e-14


def test_thin_wall_fourier_deviation():
    # sharp-wall regime: tanh pair transforms onto the closed form; the
    # leading defect is (pi*k/(2b))^2/6 at the largest retained mode
    L = 1.0
    box = 16.0 * L
    devs = []
    for b in [1e4, 1e5, 1e6]:
        g = PairGeometry(L=L, b=b, x_a=-0.5, x_b=0.5)
        dev = thin_wall_fourier_check(g, 10, box)
        k_max = 2.0 * math.pi * 10 / box
        theory = (math.pi * k_max / (2.0 * b)) ** 2 / 6.0
        assert dev == pytest.approx(theory, rel=0.01)
        devs.append(dev)
    assert devs[0] <= 0.01
    assert devs[0] > devs[1] > devs[2]


def test_thin_wall_fourier_preconditions():
    g = PairGeometry(L=1.0, b=50.0, x_a=-0.5, x_b=0.5)
    with pytest.raises(DomainError):
        thin_wall_fourier_check(g, 10, 16.0)
    g = PairGeometry(L=1.0, b=1e4, x_a=-0.5, x_b=0.5)
    with pytest.raises(DomainError):
        thin_wall_fourier_check(g, 10, 5.0)


def test_fourier_zero_modes_excluded():
    # box = 16*L puts the reference zeros at mode numbers 16, 32, ...;
    # a run out to 32 modes must mark them missing, not divide by zero
    g = PairGeometry(L=1.0, b=1e4, x_a=-0.5, x_b=0.5)
    table = fourier_check_table(g, 32, 16.0)
    assert len(table) == 32
    assert math.isnan(table.rows[15, 3])
    assert math.isnan(table.rows[31, 3])
    assert np.isnan(table.rows).sum() == 2


def test_beckwith_anchor():
    cp = CurrentParams(E_T=1.0, c_v=1.0, C_tilde=1.0)
    E = 1.0 / math.sqrt(2.0)
    # both square-root arguments equal 2^(1/4) here, so cosh(0) = 1
    assert current_beckwith(E, cp) == pytest.approx(math.exp(-math.sqrt(2.0)),
                                                    rel=1e-14)
    assert current_beckwith(E, cp) == pytest.approx(0.243117, abs=5e-7)


def test_beckwith_limits_and_scaling():
    cp = CurrentParams(E_T=2.0, c_v=3.0, C_tilde=1.0)
    cp2 = CurrentParams(E_T=2.0, c_v=3.0, C_tilde=2.0)
    ecv = cp.E_T * cp.c_v
    assert current_beckwith(1e-3 * ecv, cp) < 1e-300
    rng = np.random.default_rng(45)
    for _ in range(20):
        E = rng.uniform(0.01, 50)
        assert current_beckwith(E, cp) > 0.0
        assert current_beckwith(E, cp2) == pytest.approx(
            2.0 * current_beckwith(E, cp), rel=1e-15)
    with pytest.raises(DomainError):
        current_beckwith(0.0, cp)
    with pytest.raises(DomainError):
        current_beckwith(-1.0, cp)


def test_beckwith_monotone_past_threshold_scale():
    cp = CurrentParams(E_T=1.0, c_v=1.0)
    grid = np.linspace(1.0, 20.0, 400)
    vals = [current_beckwith(float(E), cp) for E in grid]
    assert np.all(np.diff(vals) > 0)


def test_zener_values():
    cp = CurrentParams(E_T=1.0, c_v=1.0, G_p=1.0)
    assert current_zener(0.0, cp) == 0.0
    assert current_zener(1.0, cp) == 0.0
    assert current_zener(0.5, cp) == 0.0
    raw = current_zener(0.5, cp, gated=False)
    assert raw == pytest.approx(-0.5 * math.exp(-2.0), rel=1e-14)
    assert raw == pytest.approx(-0.06767, abs=5e-6)
    assert current_zener(2.0, cp) == pytest.approx(math.exp(-0.5), rel=1e-14)
    assert current_zener(2.0, cp) == pytest.approx(0.60653, abs=5e-6)
    with pytest.raises(DomainError):
        current_zener(-1.0, cp)


def test_zener_continuous_at_threshold():
    cp = CurrentParams(E_T=1.0, c_v=1.0, G_p=3.0)
    eps = 1e-8
    just_above = current_zener(1.0 + eps, cp)
    assert just_above > 0
    assert just_above == pytest.approx(3.0 * eps * math.exp(-1.0), rel=1e-6)


def test_iv_curve_columns_and_signs():
    cp = CurrentParams(E_T=1.0, c_v=1.0)
    table = iv_curve([1.0], cp)
    assert table.columns == ("E", "I_beckwith", "I_zener_gated",
                             "I_zener_ungated")
    row = table.rows[0]
    assert row[2] == 0.0
    assert row[1] > 0.0
    grid = np.linspace(0.05, 5.0, 200)
    table = iv_curve(grid, cp)
    Es, beck, _, ungated = zip(*table.rows)
    assert all(v > 0 for v in beck)
    for E, v in zip(Es, ungated):
        if E < cp.E_T:
            assert v < 0


def test_iv_curve_grid_validation():
    cp = CurrentParams()
    with pytest.raises(DomainError):
        iv_curve([], cp)
    with pytest.raises(DomainError):
        iv_curve([1.0, 1.0], cp)
    with pytest.raises(DomainError):
        iv_curve([-1.0, 1.0], cp)


def test_iv_curve_records_missing_points():
    # cosh overflows at absurd fields; the row stays, the cell is empty
    cp = CurrentParams(E_T=1.0, c_v=1.0)
    table = iv_curve([1.0, 1e9], cp)
    assert len(table) == 2
    assert math.isnan(table.rows[1, 1])
    assert np.isnan(table.rows).sum() == 1
