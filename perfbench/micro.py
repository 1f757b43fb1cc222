"""Fixed-input microtimings of single layer operations.

Each operation is called once to fill caches, then timed in batches for
a fixed budget; the result is the median batch time per call.  Inputs
are the CLI defaults (n=501 evolver grid, 400-site chain, 640-node
quadrature) and do not depend on the workload seed.
"""

import statistics
import time

import numpy as np

from cdwlab import curves, evolver, model, sinegordon, variational

BUDGET_S = 0.3
BATCH_S = 0.02
RK4_STEPS = 50
CSV_SNAPSHOTS = 51  # 51 snapshots x 400 sites: the pendulum-kink artifact size


def per_call(fn):
    """Median seconds per call of fn()."""
    fn()
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    n = max(1, int(BATCH_S / once))
    batches = []
    end = time.perf_counter() + BUDGET_S
    while not batches or time.perf_counter() < end:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        batches.append((time.perf_counter() - t0) / n)
    return statistics.median(batches)


def _kink_state():
    sites, w0, w1 = 400, 900.0, 1.0
    z = (w1 ** 0.5 / w0 ** 0.5) * (np.arange(sites) - 0.6 * sites)
    spec = sinegordon.KinkSpec(beta=0.5)
    return sinegordon.ChainState(sinegordon.kink_phase(z, 0.0, spec),
                                 sinegordon.kink_phase_rate(z, 0.0, spec),
                                 w0, w1)


def run_all():
    out = {}
    p = model.PhysicalParams()
    b = np.array([0.1, 0.2, 0.9, 0.2, 0.1])
    a = variational.AnsatzCoeffs(b, b[::-1], 0.3).projected()
    q = variational.QuadratureSpec()
    out["micro.variational.energy_us"] = 1e6 * per_call(
        lambda: variational.energy_expectation(a, p, 0.0, q))

    f = evolver.gaussian_packet(501, 0.05)
    steppers = {"df-standard": evolver.step_dufort_frankel_standard,
                "cn-standard": evolver.step_crank_nicolson_standard,
                "df-printed": evolver.step_dufort_frankel_printed,
                "cn-printed": evolver.step_crank_nicolson_printed}
    for scheme, step in steppers.items():
        out["micro.evolver.step_us." + scheme] = 1e6 * per_call(
            lambda step=step: step(f, f, p, 0.005))
    x = f.grid()
    out["micro.model.washboard_us"] = 1e6 * per_call(
        lambda: model.washboard_potential(x, p))

    state = _kink_state()
    out["micro.sinegordon.rk4_step_us"] = 1e6 * per_call(
        lambda: sinegordon.integrate_chain_rk4(
            state, 0.004, RK4_STEPS, stride=RK4_STEPS)) / RK4_STEPS

    table = sinegordon.chain_trajectory_table([state] * CSV_SNAPSHOTS, 0.2)
    out["micro.curves.format_rows_per_s"] = len(table) / per_call(
        lambda: curves.to_csv_text(table))
    return out
