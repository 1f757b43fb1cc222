"""Workload definitions and artifact correctness checks.

A workload is a list of cdw-lab invocations, run as one cycle; the seed
picks the order of the invocations in each cycle.  Each invocation is a config text plus ``--set`` overrides
and writes one CSV artifact, which is checked against ``reference.json``
(recorded by ``run.py --record-reference``).
"""

import csv
import io
import itertools
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# the 81-point acceptance grid: theta in [-4 pi, 4 pi], spacing pi/10;
# the sweep slice is its three points centred on theta = 0
_THETA_STEP = 8.0 * math.pi / 80
SWEEP_SLICE = ("variational.theta_min = %r\nvariational.theta_max = %r\n"
               "variational.theta_points = 3\n"
               % (-_THETA_STEP, _THETA_STEP))

SCHEMES = ("df-standard", "cn-standard", "df-printed", "cn-printed")


class Invocation:
    """One cdw-lab run: label, config text, --set overrides, and how its
    artifact is checked: "sweep" rules, or (rtol, atol) on every value."""

    def __init__(self, label, config, sets=(), check=(1e-9, 1e-13)):
        self.label = label
        self.config = config
        self.sets = tuple(sets)
        self.check = check


def _sweep():
    cfg = "experiment = variational-sweep\n" + SWEEP_SLICE
    return [Invocation("sweep-coupled", cfg, check="sweep"),
            Invocation("sweep-decoupled", cfg, ["model.delta_prime=0"],
                       check="sweep")]


def _dynamics():
    # the printed schemes grow until they overflow, so rounding
    # differences grow with them; the looser rtol covers that
    return [Invocation("single-chain-" + s, "experiment = single-chain\n",
                       ["evolver.scheme=" + s], check=(1e-6, 1e-9))
            for s in SCHEMES]


def _kink():
    return [Invocation("pendulum-kink", "experiment = pendulum-kink\n",
                       check=(1e-8, 1e-10)),
            Invocation("iv-curve", "experiment = iv-curve\n"),
            Invocation("fourier-check", "experiment = fourier-check\n")]


WORKLOADS = {"sweep": _sweep, "dynamics": _dynamics, "kink": _kink}

# units of work per cycle, for the end-to-end throughput metric
WORK_UNIT = {"sweep": "theta points", "dynamics": "recorded levels",
             "kink": "RK4 steps"}
THROUGHPUT_NAME = {"sweep": "sweep_points_per_s",
                   "dynamics": "evolver_steps_per_s",
                   "kink": "chain_steps_per_s"}
KINK_STEPS = 2500  # chain.steps default
DYNAMICS_LEVELS = 2001  # evolver.steps default plus the initial level

# sweep rows: E_min may not exceed the reference by more than this,
# nor undercut it by more than SWEEP_E_FLOOR_REL * |reference|
SWEEP_E_SLACK = 1e-12
SWEEP_E_FLOOR_REL = 1e-2
SWEEP_PHI_ATOL = 1e-3
# rows kept per artifact in reference.json (the last row always kept)
REFERENCE_SAMPLES = 100


def cycle_orders(workload, seed):
    """Endless sequence of invocation orders, one per cycle: every
    permutation of the workload's invocations once, in an order the seed
    picks, then again.  A run of many cycles thus weighs every order
    alike, and an invocation's dependence on the one before it (cache and
    allocator state) does not vary with the seed."""
    perms = [list(p) for p in itertools.permutations(WORKLOADS[workload]())]
    random.Random(seed).shuffle(perms)
    return itertools.cycle(perms)


def invocations(workload, seed):
    """The workload's invocations in the order of the seed's first cycle."""
    return next(cycle_orders(workload, seed))


def work_units(workload, rows):
    """Units of work in one cycle, from the artifact row counts."""
    if workload == "kink":
        return KINK_STEPS
    return sum(rows.values())


def parse_csv(text):
    """(header, rows of floats) of one artifact."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    rows = [[float(v) for v in row] for row in reader]
    for row in rows:
        if len(row) != len(header):
            raise ValueError("ragged row")
    return header, rows


def load_reference():
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def summarize(header, rows):
    """Reference record of one artifact: the first row of every block of
    ``stride`` rows and the last row, plus per-block column sums."""
    stride = max(1, len(rows) // REFERENCE_SAMPLES)
    keep = list(range(0, len(rows), stride))
    if rows and keep[-1] != len(rows) - 1:
        keep.append(len(rows) - 1)
    return {"header": header, "rows": len(rows), "stride": stride,
            "samples": [[i, [_encode(v) for v in rows[i]]] for i in keep],
            "blocks": _block_stats(rows, stride, len(header))}


def _encode(v):
    return v if math.isfinite(v) else repr(v)


def _block_stats(rows, stride, ncols):
    """Per block of rows, per column: [sum, sum of |v|, non-finite count]
    over the block's finite values.  Blocks keep the scale local, so a
    column that grows to 1e300 still checks its small early values."""
    out = []
    for b in range(0, len(rows), stride):
        block = rows[b:b + stride]
        stats = []
        for j in range(ncols):
            finite = [r[j] for r in block if math.isfinite(r[j])]
            stats.append([math.fsum(finite),
                          math.fsum(abs(v) for v in finite),
                          len(block) - len(finite)])
        out.append(stats)
    return out


def _close(a, r, rtol, atol):
    if math.isnan(r) or math.isinf(r):
        return repr(a) == repr(r)
    return math.isfinite(a) and abs(a - r) <= atol + rtol * abs(r)


def check_artifact(text, ref, check):
    """Return None when the artifact matches its reference, else a reason.

    With (rtol, atol) every sampled value must satisfy
    |value - reference| <= atol + rtol * |reference|, non-finite values
    must match exactly, and block column sums must agree to that scale."""
    try:
        header, rows = parse_csv(text)
    except (ValueError, StopIteration) as err:
        return "unparsable artifact: %s" % err
    if header != ref["header"]:
        return "header %s != %s" % (header, ref["header"])
    if len(rows) != ref["rows"]:
        return "%d rows != reference %d" % (len(rows), ref["rows"])
    if check == "sweep":
        return _check_sweep(header, rows, ref)
    rtol, atol = check
    for i, sample in ref["samples"]:
        for j, r in enumerate(sample):
            if not _close(rows[i][j], float(r), rtol, atol):
                return "row %d %s = %r, reference %r" % (
                    i, header[j], rows[i][j], float(r))
    stride = ref["stride"]
    got = _block_stats(rows, stride, len(header))
    for b, (mine, theirs) in enumerate(zip(got, ref["blocks"])):
        for j, ((total, _, bad), (r_total, r_abs, r_bad)) in enumerate(
                zip(mine, theirs)):
            where = "rows %d-%d of column %s" % (
                b * stride, min(len(rows), (b + 1) * stride) - 1, header[j])
            if bad != r_bad:
                return "%s: %d non-finite values, reference %d" % (
                    where, bad, r_bad)
            if abs(total - r_total) > atol * stride + rtol * r_abs:
                return "%s sum to %r, reference %r" % (where, total, r_total)
    return None


def _check_sweep(header, rows, ref):
    col = {name: j for j, name in enumerate(header)}
    for (i, sample), row in zip(ref["samples"], rows):
        r = [float(v) for v in sample]
        theta = row[col["theta"]]
        if not _close(theta, r[col["theta"]], 1e-15, 1e-15):
            return "row %d theta %r != %r" % (i, theta, r[col["theta"]])
        if row[col["converged"]] != r[col["converged"]]:
            return "row %d converged flag %r != %r" % (
                i, row[col["converged"]], r[col["converged"]])
        e, e_ref = row[col["E_min"]], r[col["E_min"]]
        if not e <= e_ref + SWEEP_E_SLACK:
            return "row %d E_min %r above reference %r" % (i, e, e_ref)
        if not e >= e_ref - SWEEP_E_FLOOR_REL * abs(e_ref):
            return "row %d E_min %r far below reference %r" % (i, e, e_ref)
        phi, phi_ref = row[col["mean_Phi"]], r[col["mean_Phi"]]
        if not abs(phi - phi_ref) <= SWEEP_PHI_ATOL:
            return "row %d mean_Phi %r, reference %r" % (i, phi, phi_ref)
        if not (all(math.isfinite(v) for v in row) and row[col["alpha"]] > 0):
            return "row %d has a non-finite value or alpha <= 0" % i
    return None
