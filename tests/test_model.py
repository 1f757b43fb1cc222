import math

import numpy as np
import pytest

from cdwlab.errors import DomainError
from cdwlab.model import (
    FieldDriveParams,
    PhysicalParams,
    washboard_potential,
)
from cdwlab.variational import count_local_minima, phase_jumps
from spectral import lowest_levels, lowest_states


def test_physical_params_validation():
    with pytest.raises(DomainError):
        PhysicalParams(D=0.0)
    with pytest.raises(DomainError):
        PhysicalParams(D=-1.0)
    with pytest.raises(DomainError):
        PhysicalParams(omega_p_sq=-0.1)
    with pytest.raises(DomainError):
        PhysicalParams(mu_E=-1e-9)
    with pytest.raises(DomainError):
        PhysicalParams(D1=0.0)
    with pytest.raises(DomainError):
        PhysicalParams(E1=-1.0)
    with pytest.raises(DomainError):
        PhysicalParams(E2=-1.0)
    with pytest.raises(DomainError):
        PhysicalParams(delta_prime=-0.005)
    with pytest.raises(DomainError):
        PhysicalParams(theta=math.inf)


def test_drive_params_validation():
    FieldDriveParams(a_D=-0.5)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            FieldDriveParams(a_D=bad)


def test_washboard_anchor_values():
    p0 = PhysicalParams(D=1.0, omega_p_sq=1.0, mu_E=0.3, theta=0.0)
    assert washboard_potential(0.0, p0) == 0.0

    p1 = PhysicalParams(D=1.0, omega_p_sq=1.0, mu_E=0.0, theta=0.0)
    assert washboard_potential(math.pi, p1) == pytest.approx(1.0, abs=1e-15)

    # half-way up the well: 0.5*0.01*(pi/2)^2 + 0.5
    p2 = PhysicalParams(D=1.0, omega_p_sq=1.0, mu_E=0.01, theta=0.0)
    expect = 0.5 * 0.01 * (math.pi / 2) ** 2 + 0.5
    assert expect == pytest.approx(0.512337, abs=5e-7)
    assert washboard_potential(math.pi / 2, p2) == pytest.approx(
        expect, rel=1e-15)


def test_washboard_nonnegative_and_vectorized():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = PhysicalParams(D=rng.uniform(0.1, 5),
                           omega_p_sq=rng.uniform(0, 4),
                           mu_E=rng.uniform(0, 1),
                           theta=rng.uniform(-10, 10))
        phi = rng.uniform(-30, 30, size=17)
        v = washboard_potential(phi, p)
        assert v.shape == phi.shape
        assert np.all(v >= 0)
        # scalar path agrees with vector path
        assert washboard_potential(float(phi[3]), p) == pytest.approx(
            float(v[3]), rel=1e-14, abs=1e-300)


def test_washboard_rejects_nonfinite():
    p = PhysicalParams()
    with pytest.raises(DomainError):
        washboard_potential(math.nan, p)
    with pytest.raises(DomainError):
        washboard_potential(np.array([0.0, math.inf]), p)


@pytest.mark.parametrize("E1", [8e-3, 1.6e-2])
def test_tunnelling_splitting_matches_instanton_law(E1):
    # one chain of the two-chain Hamiltonian as the evolver's washboard
    # (D = 2 D1, omega_p^2 = E1/D1, mu_E = 2 E2) at theta = pi, where the
    # wells at 0 and 2 pi are degenerate: the splitting of the two lowest
    # levels is half the Mathieu ground-band width (DLMF 28.8(i)),
    # q = 4 D1 E1 and 4 sqrt(q) the Bogomol'nyi action of the instanton.
    # Sinc-DVR on pi +- 12 at h = 0.05 reads ratios 0.9977 and 1.0004;
    # h = 0.04 agrees to 1.4e-6
    base = PhysicalParams()
    p = PhysicalParams(D=2.0 * base.D1, omega_p_sq=E1 / base.D1,
                       mu_E=2.0 * base.E2, theta=math.pi)
    x = math.pi + 0.05 * np.arange(-240, 241)
    e0, e1 = lowest_levels(x, washboard_potential(x, p), p.D, 2)
    q = 4.0 * base.D1 * E1
    law = (1.0 / (8.0 * base.D1) * 16.0 * math.sqrt(2.0 / math.pi)
           * q ** 0.75 * math.exp(-4.0 * math.sqrt(q))
           * (1.0 - 7.0 / (32.0 * math.sqrt(q))))
    assert abs((e1 - e0) / law - 1.0) < 1e-2


@pytest.mark.parametrize("theta", [math.pi / 2, math.pi])
def test_pinning_enters_at_first_order_at_default_constants(theta):
    # one chain of the two-chain Hamiltonian at the default constants
    # (D = 2 D1, omega_p^2 = E1/D1, mu_E = 2 E2): the E2 oscillator
    # spreads the chain over sigma^2 = 1/(2 sqrt(2 D1 E2)) = 26.8 rad^2,
    # so the pinning's first order, E1*exp(-sigma^2/2)*(1 - cos theta)
    # with amplitude 1.5e-11, is all of E0(theta) - E0(0): E0 has minima
    # only at theta = 2 pi m (criterion 5 finds 3, not 5) and the ground
    # state follows theta with no 2 pi jump (criterion 6).  Sinc-DVR at
    # h = 0.2 on theta +- 50 reads 1.85e-4 and 1.90e-4 above it; that
    # residual grows as E1^2 (4.8e-5 at E1/2, 7.6e-4 at 2 E1), the next
    # order
    base = PhysicalParams()

    def e0(at):
        p = PhysicalParams(D=2.0 * base.D1, omega_p_sq=base.E1 / base.D1,
                           mu_E=2.0 * base.E2, theta=at)
        x = at + 0.2 * np.arange(-250, 251)
        return lowest_levels(x, washboard_potential(x, p), p.D, 1)[0]

    sigma_sq = 1.0 / (2.0 * math.sqrt(2.0 * base.D1 * base.E2))
    first = base.E1 * math.exp(-0.5 * sigma_sq) * (1.0 - math.cos(theta))
    assert abs((e0(theta) - e0(0.0)) / first - 1.0) < 2e-4


def test_period_20_sequence_gives_criterion_5_three_minima():
    # shifting every phase by 2 pi maps H(theta) onto H(theta + 2 pi),
    # and phi -> -phi maps it onto H(-theta), so the exact E0 is even and
    # 2 pi-periodic: its values at offsets 0..pi fix the whole 81-point
    # acceptance curve on [-4 pi, 4 pi] (20 points per period, both ends
    # at theta = 0 mod 2 pi).  A periodic curve with r minima per period
    # has 4r strict interior minima there, or 4r - 1 if one sits at
    # theta = 0: here r = 1 at theta = 2 pi m, so criterion 5 finds 3.
    # Sinc-DVR at h = 0.4 on theta +- 50 reads the symmetry to 2.8e-13
    # and the period exactly; h = 0.2 agrees to 6e-13 in E0 and 1.1e-6
    # in E0(pi) - E0(0), both at the level of the solver's rounding
    base = PhysicalParams()

    def e0(at):
        p = PhysicalParams(D=2.0 * base.D1, omega_p_sq=base.E1 / base.D1,
                           mu_E=2.0 * base.E2, theta=at)
        x = at + 0.4 * np.arange(-125, 126)
        return lowest_levels(x, washboard_potential(x, p), p.D, 1)[0]

    offsets = math.pi / 10 * np.arange(11)
    e = np.array([e0(t) for t in offsets])
    assert abs(e0(2.0 * math.pi) / e[0] - 1.0) <= 1e-12
    for t, et in zip(offsets[1:], e[1:]):
        assert abs(e0(-t) / et - 1.0) <= 1e-12
    k = np.arange(-40, 41) % 20
    assert count_local_minima(e[np.minimum(k, 20 - k)]) == 3


def _chain_states(n, E1, theta, k):
    """Grid and k lowest states (sinc-DVR at h = 0.2 on theta +- 60) of
    one chain of the decoupled pair (n = 1: D = 2 D1, omega_p^2 = E1/D1,
    mu_E = 2 E2) or of the locked pair's Phi = (phi1 + phi2)/2 (n = 2,
    delta' -> infinity, no Born-Oppenheimer correction: D = 4 D1 over
    2 E1 (1 - cos Phi) + 2 E2 (Phi - theta)^2), the other constants at
    their defaults."""
    base = PhysicalParams()
    p = PhysicalParams(D=2.0 * n * base.D1, omega_p_sq=E1 / base.D1,
                       mu_E=2.0 * n * base.E2, theta=theta)
    x = theta + 0.2 * np.arange(-300, 301)
    return x, lowest_states(x, washboard_potential(x, p), p.D, k)


@pytest.mark.parametrize("n, E1", [(1, 7e-3), (1, 1e-2), (2, 1e-3)],
                         ids=["decoupled-7e-3", "decoupled-1e-2",
                              "locked-1e-3"])
def test_staircase_step_is_a_two_level_crossing(n, E1):
    # near theta = pi the wells at 0 and 2 pi are two diabatic levels
    # that differ by s (theta - pi), s = 2 pi mu_E, split by the gap Delta
    # at theta = pi, so <phi> = pi (1 + x/sqrt(1 + x^2)) with x = s (theta
    # - pi)/Delta: criterion 6's staircase step (chains as in
    # _chain_states).  The exact <phi>(0.9 pi) reads 0.9153, 0.0855 and
    # 1.3039, the law 0.9187, 0.0851 and 1.3036
    _, (e, _) = _chain_states(n, E1, math.pi, 2)
    x, (_, v) = _chain_states(n, E1, 0.9 * math.pi, 1)
    phase = float(x @ v[:, 0] ** 2)
    mu_E = 2.0 * n * PhysicalParams().E2
    z = 2.0 * math.pi * mu_E * (-0.1 * math.pi) / (e[1] - e[0])
    law = math.pi * (1.0 + z / math.sqrt(1.0 + z * z))
    assert abs(phase - law) < 1e-2


@pytest.mark.parametrize("n, E1, count", [
    (1, 7e-3, 0), (1, 1e-2, 4), (2, 1e-3, 0), (2, 1.5e-3, 4)],
    ids=["decoupled-7e-3", "decoupled-1e-2", "locked-1e-3", "locked-1.5e-3"])
def test_staircase_thresholds_bracket_criterion_6(n, E1, count):
    # criterion 6's exact 81-point staircase on [-4 pi, 4 pi]: <phi> at
    # the 11 offsets in [0, pi], mapped out by the mirror (<phi>(-t) =
    # -<phi>(t)) and the period (<phi>(t + 2 pi) = <phi>(t) + 2 pi), then
    # counted by phase_jumps with the criterion's 15% tolerance.  The two
    # steps around each theta = (2m + 1) pi are a jump iff x1 = s pi/(10
    # Delta) >= 1.61 (test_two_level_staircase_count_rule); bisection puts
    # that at E1 in (7.92e-3, 7.97e-3) decoupled and (1.340e-3, 1.347e-3)
    # locked, so each arm reads 0 below its threshold and 4 above it
    mean = []
    for t in math.pi / 10 * np.arange(11):
        x, (_, v) = _chain_states(n, E1, t, 1)
        mean.append(float(x @ v[:, 0] ** 2))
    k = np.arange(-40, 41)
    period = np.round(k / 20)
    r = (k - 20 * period).astype(int)
    phases = 2.0 * math.pi * period + np.sign(r) * np.array(mean)[abs(r)]
    tol = 0.15 * 2 * math.pi
    jumps = phase_jumps(phases)
    assert sum(abs(abs(j) - 2 * math.pi) <= tol for j in jumps) == count
