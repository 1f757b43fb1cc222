"""Digests of the CSV bytes, stderr and exit code of fixed cdw-lab runs.

    python tests/csv_digests.py [SRC]

runs each invocation below in a fresh interpreter against the package
under SRC (default: the ``src`` next to this directory) and prints one
line per run: label, sha256 of the CSV (``-`` when none was written),
sha256 of stderr, exit code.  Running it against two source trees and
diffing the outputs checks that a change keeps the artifacts'
byte contract.  The runs are the five experiments at their defaults,
the benchmark's invocations (``perfbench/workloads.py``), a driven
``single-chain`` per scheme (its V and, for cn-standard, its LU factors
rebuilt every step) and edge cases with missing cells, excluded modes,
a non-unit pair separation, every ``fourier-check`` error line, a
negative kink, a chain overflow found between snapshots, on a snapshot
step, with no snapshot before it and on the last step, non-finite chain
frequencies, a chain at omega1_sq != 1 (the only runs whose force
multiplies by it), the shortest chain (3 sites, so the long-format CSV's
blocks are 3 rows), every evolver argument error line (an underflowing and an
overflowing grid step among them), the two errors an evolver run raises
before its first step (a dt*steps that overflows and a driven phase
theta + a_D*(n*dt) that overflows at step 70 of 130), a current field
far below threshold, an all-zero field, a ``model.hbar`` setting (an
unknown key: units have
the reduced Planck constant set to 1), a cn-standard run whose
dt/(2*D*dx^2) exceeds 1 with the packet on the left end, where the
tridiagonal solve pivots and rounds the left end of its solution, a
cn-standard run whose V overflows (mu_E = 1e308), so its matrix is not
finite, no LU factors are kept and the run is truncated after 0 steps, the
edges of the evolver's 64-row ring for cn-standard and df-standard (level
j in row j % 64: the ring exactly full at 63 steps, the first wrap at 64
and one past it at 65, then the same around the second wrap at 127, 128
and 129), a grid whose ring has its minimum of 3 rows and wraps within a
3-step run, the decoupled
``variational-sweep`` on its default 81 points and the same sweep at
weak coupling (delta' = 1e-9), whose energy is as flat in log alpha, a
free two-point sweep (no pinning, charging or coupling), whose energy
falls down to the lower alpha limit at both points, so neither refines
alpha and both rows read not converged, a two-point sweep at E1 = 1,
whose alpha scan is extended past alpha = 5 and refined around alpha =
6.55, a three-point sweep at delta' = 1, where every member of the
alpha scan alternates for several half steps before its energy stops
falling, a nine-point sweep at D1 = 1.9 on [0.1, 3.1], whose thetas
(each its own offset) need 11 to 14 evaluation rounds each when swept
alone and 4 or 5 scan-extension steps, so one batched call holds one
theta's scan-extension points with another's Brent points, a sweep whose
finite theta bounds (-1e308, 1e308) give a span that overflows, a lone
negative theta, whose row mirrors the search at its offset |theta|, and
an eight-point sweep on [2, 9], across pi and 2 pi, whose thetas reduce
by 2 pi and by the mirror to offsets in [0, pi].
"""

import hashlib
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "perfbench"))

import workloads  # noqa: E402

EXPERIMENTS = ("single-chain", "pendulum-kink", "variational-sweep",
               "iv-curve", "fourier-check")

SCHEMES = ("df-standard", "df-printed", "cn-printed", "cn-standard")
DRIVEN = ["model.mu_E=0.012", "model.theta=2", "drive.a_D=0.3"]

EDGE_CASES = [
    ("iv-curve", ["iv.E_max_factor=1e6", "iv.points=10"]),
    ("iv-curve", ["iv.E_max_factor=1e9", "iv.points=50"]),
    # far below threshold E_T*c_v/E overflows: every cosh-form cell is nan
    ("iv-curve", ["iv.E_max_factor=1e-306", "iv.points=10"]),
    ("fourier-check", ["fourier.n_modes=40"]),
    # a non-unit separation: the walls sit at -1.5 and 1.5
    ("fourier-check", ["fourier.L=3", "fourier.b_L=1e3", "fourier.n_modes=12"]),
    # the lowest b*L at a separation where b_L/L*L rounds below it
    ("fourier-check", ["fourier.L=97", "fourier.b_L=100"]),
    ("fourier-check", ["fourier.box_factor=1e13", "fourier.n_modes=2"]),
    # one run per fourier-check error line
    ("fourier-check", ["fourier.L=0"]),
    ("fourier-check", ["fourier.L=1e-308"]),  # b = b_L/L overflows
    ("fourier-check", ["fourier.b_L=-1"]),
    ("fourier-check", ["fourier.n_modes=0"]),
    ("fourier-check", ["fourier.b_L=99"]),
    ("fourier-check", ["fourier.L=1e308"]),  # box = 16*L overflows
    ("pendulum-kink", ["chain.beta=-0.9", "chain.sign=-1", "chain.stride=7"]),
    ("pendulum-kink", ["chain.dt=1"]),  # overflows at step 55: exit 1
    # the same overflow found with a check every step, on a snapshot
    # step, with no snapshot before it and on the last step (the default
    # stride of 50 finds it between snapshots)
    ("pendulum-kink", ["chain.dt=1", "chain.stride=1"]),
    ("pendulum-kink", ["chain.dt=1", "chain.stride=55"]),
    ("pendulum-kink", ["chain.dt=1", "chain.stride=5000"]),
    ("pendulum-kink", ["chain.dt=1", "chain.steps=55"]),
    ("pendulum-kink", ["chain.omega1_sq=inf"]),
    # omega1_sq != 1: the chain force's multiply by it
    ("pendulum-kink", ["chain.omega1_sq=2.25", "chain.steps=200"]),
    # the shortest chain: long-format CSV blocks of 3 rows
    ("pendulum-kink", ["chain.sites=3"]),
    ("single-chain", ["evolver.dx=1e-308"]),  # D*dx^2 underflows to 0
    ("single-chain", ["evolver.dx=1e200", "evolver.steps=20"]),  # overflows
    # one run per other evolver argument error line
    ("single-chain", ["evolver.dt=0"]),
    ("single-chain", ["evolver.steps=0"]),
    ("single-chain", ["evolver.n=2"]),
    ("single-chain", ["evolver.dx=0"]),
    ("single-chain", ["evolver.alpha0=0"]),
    ("single-chain", ["evolver.dt=1e308", "evolver.steps=3", "model.D=1e10",
                      "evolver.dx=1", "model.omega_p_sq=0"]),
    # a tilt of 5e-324 keeps V finite; theta_70 is the first inf phase
    ("single-chain", ["model.mu_E=5e-324", "model.theta=1.7e308",
                      "drive.a_D=1.4056566167239677e308", "evolver.dt=1e-3",
                      "evolver.steps=130"]),
    # a packet far off the grid is all zeros: every level has zero norm
    ("single-chain", ["evolver.x_c=1000", "evolver.steps=5"]),
    ("single-chain", ["model.hbar=1"]),
    # |dt/(2*D*dx^2)| = 4 with a non-zero left end: the solve pivots
    ("single-chain", ["evolver.scheme=cn-standard", "evolver.dt=0.02",
                      "evolver.x_c=-12", "evolver.steps=200"]),
    # V overflows to inf inside the grid: the cn-standard matrix is not
    # finite, so no LU factors are kept and the first step's interior
    # is NaN
    ("single-chain", ["evolver.scheme=cn-standard", "model.mu_E=1e308"]),
] + [
    ("single-chain", ["evolver.scheme=" + scheme, "evolver.steps=%d" % steps])
    for scheme in ("cn-standard", "df-standard")
    for steps in (63, 64, 65, 127, 128, 129)
] + [
    # two levels exceed the ring's 1 MiB: it has its minimum of 3 rows
    ("single-chain", ["evolver.n=40001", "evolver.dx=0.001",
                      "evolver.dt=1e-6", "evolver.steps=3"]),
    ("variational-sweep", ["model.delta_prime=0"]),
    # weak coupling: alpha and the combs are as flat in log alpha as at
    # delta' = 0, so these rows show where the refinement stops
    ("variational-sweep", ["model.delta_prime=1e-9"]),
    ("variational-sweep", ["model.E1=0", "model.E2=0", "model.delta_prime=0",
                           "variational.theta_points=2"]),
    ("variational-sweep", ["model.E1=1", "variational.theta_points=2"]),
    # strong coupling: every scan member alternates for several half steps
    ("variational-sweep", ["model.delta_prime=1",
                           "variational.theta_points=3"]),
    # offsets in different stages of their alpha searches share calls
    ("variational-sweep", ["model.D1=1.9", "variational.theta_min=0.1",
                           "variational.theta_max=3.1",
                           "variational.theta_points=9"]),
    # the span overflows: the grid holds inf and nan
    ("variational-sweep", ["variational.theta_min=-1e308",
                           "variational.theta_max=1e308"]),
    # a row mapped back through the mirror alone
    ("variational-sweep", ["variational.theta_min=-0.3",
                           "variational.theta_max=-0.3",
                           "variational.theta_points=1"]),
    # rows mapped back through the period and the mirror
    ("variational-sweep", ["variational.theta_min=2",
                           "variational.theta_max=9",
                           "variational.theta_points=8"]),
]


def runs():
    """(label, config text, --set overrides) of every invocation."""
    out = [("default-" + e, "experiment = %s\n" % e, []) for e in EXPERIMENTS]
    for make in workloads.WORKLOADS.values():
        out += [("bench-" + inv.label, inv.config, list(inv.sets))
                for inv in make()]
    out += [("driven-" + scheme, "experiment = single-chain\n",
             ["evolver.scheme=" + scheme] + DRIVEN) for scheme in SCHEMES]
    out += [("edge-%s %s" % (e, " ".join(sets)), "experiment = %s\n" % e,
             sets) for e, sets in EDGE_CASES]
    return out


def digest(src, config, sets, workdir):
    cfg = os.path.join(workdir, "run.cfg")
    csv = os.path.join(workdir, "run.csv")
    with open(cfg, "w") as handle:
        handle.write(config)
    if os.path.exists(csv):
        os.unlink(csv)
    argv = [sys.executable, "-m", "cdwlab.cli", cfg, "--output", csv]
    for item in sets:
        argv += ["--set", item]
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(argv, capture_output=True, env=env, cwd=workdir)
    csv_sha = "-"
    if os.path.exists(csv):
        with open(csv, "rb") as handle:
            csv_sha = hashlib.sha256(handle.read()).hexdigest()
    return csv_sha, hashlib.sha256(proc.stderr).hexdigest(), proc.returncode


def main(argv):
    src = argv[1] if len(argv) > 1 else os.path.join(HERE, os.pardir, "src")
    with tempfile.TemporaryDirectory() as workdir:
        for label, config, sets in runs():
            print("%s %s %s %d" % ((label,) + digest(src, config, sets,
                                                     workdir)), flush=True)


if __name__ == "__main__":
    main(sys.argv)
