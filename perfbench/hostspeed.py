"""Host speed calibration.

On a host whose cores are shared with other tenants the speed drifts by
up to half over minutes: on a 2-vCPU Xeon cloud VM the same cdw-lab
invocation took 0.26 s at one time and 0.38 s a few minutes later.  A
run therefore also times a fixed kernel, before and after each
invocation and every ``ALARM_S`` during it (that time is left out of
the invocation's), and the benchmark reports every time scaled to a
nominal host, one on which each part of the kernel takes ``NOMINAL_S``:

    reported time = measured time * nominal kernel time / kernel time

Slow spells slow some kinds of work more than others (numpy ufuncs on
small arrays by up to 1.8x, the interpreter loop and dense exp/matmul
quadrature by about 1.4x), so each workload's kernel is made of the
parts that match the work of its hot layer:

    sweep     Python-driven Nelder-Mead over a 640-node quadrature:
              the interpreter loop and the quadrature parts
    dynamics  a Python loop of small numpy updates on a 501-point grid:
              the interpreter loop and the ufunc parts
    kink      RK4 with sin() on a 400-site chain: the ufunc part
    setup     importing modules: the interpreter loop part

Over five minutes of such drift on that VM, the ratio of each workload's
hot operation to its kernel kept a quartile spread of 3-5% where the
raw times spread by 27-42%.  The kernel calls nothing of cdwlab, so no
change under ``src/`` moves it.  Every run prints its raw times and
kernel median too.
"""

import signal
import time

import numpy as np

NOMINAL_S = 0.002  # per part
# a calibration point times the kernel for this share of the time since
# the previous point, but for at least MIN_S and at most MAX_S
SHARE = 0.05
MIN_S = 0.01
MAX_S = 0.5
# the host's speed changes within seconds, so long invocations are also
# calibrated while they run, from a SIGALRM handler
ALARM_S = 0.5

_CENTERS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
_X = np.linspace(-4.0, 4.0, 640)
_D2 = (_X[None, :] - _CENTERS[:, None]) ** 2
_W = np.full(640, 8.0 / 640)
_COEFF = np.array([0.1, 0.2, 0.9, 0.2, 0.1])


def interpreter_loop():
    total = 0
    for i in range(30000):
        total += i * i % 7
    return total


def ufuncs():
    x = np.linspace(0.0, 1.0, 501)
    y = x
    for _ in range(200):
        y = np.sin(x) * y + 0.5 * x
    return float(y[0])


def quadrature():
    total = 0.0
    for i in range(60):
        alpha = 0.3 + 0.001 * i
        g = np.exp(-alpha * _D2)
        u = _COEFF @ g
        u2w = u * u * _W
        upp = _COEFF @ (g * (4.0 * alpha * alpha * _D2 - 2.0 * alpha))
        total += (float(u2w.sum()) + float((_W * u * upp).sum())
                  + float((u2w * _X).sum()))
    return total


PARTS = {"sweep": (interpreter_loop, quadrature),
         "dynamics": (interpreter_loop, ufuncs),
         "kink": (ufuncs,),
         "setup": (interpreter_loop,)}


class Calibration:
    """Timings of one kind's kernel, taken at calibration points."""

    def __init__(self, kind):
        self.parts = PARTS[kind]
        self.nominal_s = NOMINAL_S * len(self.parts)
        self.time_kernel()  # the first call pays numpy's lazy set-up
        self.samples = []
        self._last = time.perf_counter()
        self._during = None  # kernel timings of the running invocation
        self._paused = 0.0

    def time_kernel(self):
        t0 = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - t0

    def point(self):
        """Time the kernel now; return this point's timings."""
        budget = min(MAX_S, max(MIN_S, SHARE * (time.perf_counter()
                                                - self._last)))
        taken = []
        while not taken or sum(taken) < budget:
            taken.append(self.time_kernel())
        self.samples += taken
        self._last = time.perf_counter()
        return taken

    def _alarm(self, signum, frame):
        if self._during is None:
            return
        t0 = time.perf_counter()
        self._during.append(self.time_kernel())
        self._paused += time.perf_counter() - t0

    def timed(self, fn):
        """Run fn() while timing the kernel every ALARM_S; return fn's
        result, its wall time less the kernel's, and the kernel timings."""
        self._during, self._paused = [], 0.0
        old = signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, ALARM_S, ALARM_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
            during, self._during = self._during, None
        self.samples += during
        return result, wall - self._paused, during
