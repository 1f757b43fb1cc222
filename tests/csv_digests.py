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
a negative kink, an overflow and an all-zero field.
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
    ("fourier-check", ["fourier.n_modes=40"]),
    ("pendulum-kink", ["chain.beta=-0.9", "chain.sign=-1", "chain.stride=7"]),
    ("pendulum-kink", ["chain.dt=1"]),  # overflows at step 55: exit 1
    # a packet far off the grid is all zeros: every level has zero norm
    ("single-chain", ["evolver.x_c=1000", "evolver.steps=5"]),
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
