"""cdwlab benchmark: times the cdw-lab CLI end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload {sweep,dynamics,kink} --seed N
                             --seconds S --trace {0,1}
    python3 perfbench/run.py --compare PARENT CHANGE
    python3 perfbench/run.py --record-reference

A run first times set-up in fresh interpreters, then drives the
workload's cdw-lab invocations (``cli.main``: parse_config,
apply_overrides, run) in cycles inside one fresh child with BLAS pinned
to one thread, for S seconds and at least one whole cycle.  Every
artifact is checked against ``reference.json``.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json; ``--trace 1`` adds a traced
child and the layer microtimings and reports the per-layer metrics.
The seed picks the order of the invocations in each cycle and is passed
to cdw-lab as ``--seed``.

Reported times are scaled to a nominal host by a calibration kernel
timed before and after every invocation (see ``hostspeed.py``), since
a shared host's speed drifts by far more than the bounds; the raw times
are printed too.  Reported times are medians over the run's cycles.

stdout carries one line per metric, a ``# provenance:`` line and, last,
one JSON object {correct, attempted, failed, metrics}.  Saved stdout
files are the result sets that ``--compare`` reads.  Spans of a traced
run are written to ``.perfbench_out/trace-<workload>-seed<N>.json``.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import compare
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = ".perfbench_out"
SETUP_SAMPLES = 7
TRACED_MAX_CYCLES = 5
DEADLINE_S = 170.0
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")
# the layers whose spans (children included) must cover this share of
# the traced wall time
COVERAGE = {"sweep": (("variational",), 0.95),
            "dynamics": (("evolver",), 0.80),
            "kink": (("sinegordon", "curves"), 0.80)}


class BenchError(Exception):
    pass


class Runner:
    """Starts the children of one run within one deadline."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ)
        src = os.path.abspath("src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        for var in BLAS_VARS:
            self.env[var] = str(BLAS_THREADS)

    def run(self, args):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before starting %s" % args[-2:])
        try:
            proc = subprocess.run([sys.executable] + args, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError("child %s timed out" % args[-2:]) from None
        if proc.returncode != 0:
            raise BenchError("child %s exited %d: %s" % (
                args[-2:], proc.returncode, proc.stderr.strip()[-2000:]))
        return proc

    def setup(self, config_path, importtime):
        flags = ["-X", "importtime"] if importtime else []
        proc = self.run(flags + [CHILD, "setup", config_path])
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        if importtime:
            sample["packages"] = import_split(proc.stderr)
        return sample

    def workload(self, workdir, name, **spec):
        spec.update(workdir=workdir, out=os.path.join(workdir, name + ".json"))
        path = os.path.join(workdir, name + ".spec.json")
        with open(path, "w") as handle:
            json.dump(spec, handle)
        self.run([CHILD, "workload", path])
        with open(spec["out"]) as handle:
            return json.load(handle)


def import_split(stderr):
    """Seconds of self import time per top-level package, from the
    ``-X importtime`` log."""
    out = {"numpy": 0.0, "scipy": 0.0, "cdwlab": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us = int(fields[0])
        except ValueError:
            continue  # the header line
        top = fields[2].strip().split(".", 1)[0]
        if top in out:
            out[top] += self_us * 1e-6
    return out


def median(values):
    return statistics.median(values) if values else 0.0


def span_wall(sp):
    """Time in the invocation (root) spans.  Unlike the invocations'
    wall_s it includes the calibration timings taken during them, as the
    layer spans do, so it is the base of the layers' shares."""
    return sum(s[4] - s[3] for s in sp if s[2] is None)


def scale(child):
    """Factor to the nominal host of the times a child measured: nominal
    over median kernel time (see hostspeed.py)."""
    return child["nominal_kernel_s"] / median(child["calib_s"])


def nominal_cycle_walls(child):
    """Cycle wall times, each invocation scaled to the nominal host by the
    kernel timings taken just before and just after it."""
    return [sum(r["wall_s"] * child["nominal_kernel_s"] / r["kernel_s"]
                for r in cycle) for cycle in child["cycles"]]


def end_to_end(workload, child, setups):
    walls = nominal_cycle_walls(child)
    rates = [workloads.work_units(workload, {r["label"]: r["rows"]
                                             for r in cycle}) / wall
             for cycle, wall in zip(child["cycles"], walls)]
    return {"setup_s": median([s["setup_s"] * scale(s) for s in setups]),
            "wall_s": median(walls),
            "throughput_per_s": median(rates),
            "peak_rss_mb": child["peak_rss_mb"]}


def invocation_finder(sp):
    """Function mapping a span to the label of its invocation (root) span."""
    by_id = {s[0]: s for s in sp}

    def invocation_of(span):
        while span[2] is not None:
            span = by_id[span[2]]
        return span[1].split(".", 1)[1]
    return invocation_of


def per_layer(plain, traced, setups):
    """The per-layer metrics of BENCHMARK.json.  Each is measured on every
    workload: microtimings, counts, shares, and span times of the layers
    every invocation passes through (cli, curves).  Times are scaled to
    the nominal host, each by the calibration of the child that took it."""
    sp = traced["spans"]
    k_plain, k_traced = scale(plain), scale(traced)
    ncyc = len(traced["cycles"])
    wall = span_wall(sp)
    records = [r for cycle in traced["cycles"] for r in cycle]

    metrics = {}
    for pkg in ("numpy", "scipy", "cdwlab"):
        metrics["setup.%s_s" % pkg] = median(
            [s["packages"][pkg] * scale(s) for s in setups])
    parse = {}  # cli.main span id -> its parse and override time
    for s in sp:
        if s[1] in ("cli.parse_config", "cli.apply_overrides"):
            parse[s[2]] = parse.get(s[2], 0.0) + s[4] - s[3]
    metrics["cli.parse_s"] = median(list(parse.values())) * k_traced
    metrics["trace_overhead_s"] = (median(nominal_cycle_walls(traced))
                                   - median(nominal_cycle_walls(plain)))
    for name, value in plain["micro"].items():
        metrics[name] = (value / k_plain if name.endswith("_per_s")
                         else value * k_plain)
    fmt = sum(spans.durations(sp, "curves.to_csv_text")) * k_traced
    metrics["curves.format_rows_per_s"] = (
        sum(r["rows"] for r in records) / fmt if fmt else 0.0)
    metrics["curves.write_s"] = sum(
        spans.durations(sp, "curves.write_csv")) * k_traced / ncyc
    metrics["curves.bytes"] = sum(r["bytes"] for r in records) / ncyc
    metrics["model.washboard_calls"] = len(
        spans.durations(sp, "model.washboard_potential")) / ncyc
    for scheme in workloads.SCHEMES:
        rows = [r["rows"] for r in records
                if r["label"] == "single-chain-" + scheme]
        levels = rows[0] if rows else 0
        metrics["evolver.truncated_at." + scheme] = (
            levels if 0 < levels < workloads.DYNAMICS_LEVELS else 0)
    metrics["variational.converged_rows"] = sum(
        r["converged"] for r in records) / ncyc
    for layer, t in spans.layer_self_times(sp).items():
        metrics[layer + ".self_frac"] = t / wall
    return metrics


def span_details(workload, traced):
    """Span numbers of the layers the workload exercises, as
    {name: (value, unit)}, times scaled to the nominal host; printed in
    the report, not in the result, because on other workloads those
    layers are idle."""
    sp = traced["spans"]
    ncyc = len(traced["cycles"])
    wall = span_wall(sp)
    records = [r for cycle in traced["cycles"] for r in cycle]
    invocation_of = invocation_finder(sp)
    details = {}
    points = spans.durations(sp, "variational.minimize_energy")
    if points:
        details["variational.point_s.median"] = (median(points), "s")
        details["variational.point_s.max"] = (max(points), "s")
        details["variational.point_s.count"] = (len(points), "count")
        details["variational.phase_s"] = (
            median(spans.durations(sp, "variational.phase_expectation")), "s")
        sweep_rows = sum(r["rows"] for r in records if r["label"].startswith(
            "sweep-"))
        details["variational.converged"] = (
            sum(r["converged"] for r in records) / sweep_rows, "frac")
    rows_of = {r["label"]: r["rows"] for r in records}
    per_step = {}
    for s in sp:
        if s[1] == "evolver.evolve":
            label = invocation_of(s)
            if rows_of[label] > 1:
                per_step.setdefault(label, []).append(
                    1e6 * (s[4] - s[3]) / (rows_of[label] - 1))
    for label, values in per_step.items():
        details["evolver.step_us." + label[len("single-chain-"):]] = (
            median(values), "us")
    for name, key, unit, factor in (
            ("evolver.trajectory_table", "evolver.table_s", "s", 1.0),
            ("model.washboard_potential", "model.washboard_us", "us", 1e6),
            ("sinegordon.integrate_chain_rk4", "sinegordon.rk4_step_us",
             "us", 1e6 / workloads.KINK_STEPS),
            ("sinegordon.chain_trajectory_table", "sinegordon.table_s",
             "s", 1.0),
            ("tunneling.iv_curve", "tunneling.iv_curve_s", "s", 1.0),
            ("tunneling.fourier_check_table", "tunneling.fourier_s", "s",
             1.0)):
        values = spans.durations(sp, name)
        if values:
            details[key] = (factor * median(values), unit)
    for layer, t in spans.layer_self_times(sp).items():
        details["self_s." + layer] = (t / ncyc, "s")
    layers, floor = COVERAGE[workload]
    share = spans.covered_time(sp, layers) / wall
    details["coverage." + "+".join(layers)] = (share, "frac")
    details["coverage_ok"] = (int(share >= floor), "bool")
    details["span_tree_ok"] = (int(not spans.check_nesting(sp)), "bool")
    k = scale(traced)
    return {name: (value * k if unit in ("s", "us") else value, unit)
            for name, (value, unit) in details.items()}


def provenance(args, plain):
    commit = None
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                digest.update(path.encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return dict(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, nproc=os.cpu_count(),
                blas_threads=BLAS_THREADS, git_commit=commit,
                source_sha256=digest.hexdigest(),
                host_kernel_s=median(plain["calib_s"]),
                nominal_kernel_s=plain["nominal_kernel_s"],
                **plain["versions"])


def run_workload(args, bench, deadline):
    runner = Runner(deadline)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        first = workloads.invocations(args.workload, args.seed)[0]
        cfg = os.path.join(workdir, "setup.cfg")
        with open(cfg, "w") as handle:
            handle.write(first.config)
        setups = [runner.setup(cfg, importtime=bool(args.trace))
                  for _ in range(SETUP_SAMPLES)]
        common = dict(workload=args.workload, seed=args.seed,
                      seconds=args.seconds)
        plain = runner.workload(workdir, "plain", traced=False,
                                micro=bool(args.trace), max_cycles=10 ** 9,
                                **common)
        children = [plain]
        if args.trace:
            traced = runner.workload(workdir, "traced", traced=True,
                                     micro=False,
                                     max_cycles=TRACED_MAX_CYCLES, **common)
            children.append(traced)
            metrics = per_layer(plain, traced, setups)
            details = span_details(args.workload, traced)
            path = os.path.join(OUT_DIR, "trace-%s-seed%d.json"
                                % (args.workload, args.seed))
            with open(path, "w") as handle:
                json.dump({"span_fields": ["id", "name", "parent", "start",
                                           "end"],
                           "spans": traced["spans"]}, handle)
            wanted = bench["per_layer"]
        else:
            metrics = end_to_end(args.workload, plain, setups)
            details = {}
            wanted = bench["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for child in children for cycle in child["cycles"]
               for r in cycle]
    failures = [r for r in records if r["reason"] is not None]
    out = {}
    for m in wanted:
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    report(args, plain, out, details, records, failures)
    print("# provenance: " + json.dumps(provenance(args, plain)))
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures), "metrics": out}))
    return 0


def report(args, plain, metrics, details, records, failures):
    print("workload %s (%s per cycle), seed %d, %d cycles"
          % (args.workload, workloads.WORK_UNIT[args.workload], args.seed,
             len(plain["cycles"])))
    print("  host kernel median %.6f s over %d timings; the times below "
          "are scaled by %.4f to the nominal host (kernel %.3f s), except "
          "the raw invocation times" % (median(plain["calib_s"]),
                                        len(plain["calib_s"]), scale(plain),
                                        plain["nominal_kernel_s"]))
    for label in sorted({r["label"] for r in records}):
        walls = [r["wall_s"] for r in records if r["label"] == label]
        kernels = [r["kernel_s"] for r in records if r["label"] == label]
        print("  invocation %-26s median %.6f s  max %.6f s  n=%d (raw; "
              "kernel around it %.6f s)" % (label, median(walls), max(walls),
                                            len(walls), median(kernels)))
    for name, m in metrics.items():
        print("  %-36s %.6g %s" % (name, m["value"], m["unit"]))
        if name == "throughput_per_s":
            print("  %-36s %.6g %s/s" % (
                workloads.THROUGHPUT_NAME[args.workload], m["value"],
                workloads.WORK_UNIT[args.workload]))
    for name, (value, unit) in sorted(details.items()):
        print("  %-36s %.6g %s" % (name, value, unit))
    print("  %-36s %.6g failed/attempted" % (
        "failed_frac", len(failures) / max(1, len(records))))
    for r in failures[:10]:
        print("  FAILED %s: %s" % (r["label"], r["reason"]))


def record_reference(deadline):
    """Run every workload once and store its artifacts' summaries."""
    runner = Runner(deadline)
    os.makedirs(OUT_DIR, exist_ok=True)
    if os.path.exists(workloads.REFERENCE_PATH):
        os.remove(workloads.REFERENCE_PATH)  # so children check nothing
    refs = {}
    for name in workloads.WORKLOADS:
        workdir = tempfile.mkdtemp(prefix="ref-", dir=OUT_DIR)
        try:
            child = runner.workload(workdir, "ref", workload=name, seed=0,
                                    seconds=0, traced=False, micro=False,
                                    max_cycles=1)
            for r in child["cycles"][0]:
                if r["exit"] != 0:
                    raise BenchError("%s failed: %s" % (r["label"],
                                                        r["reason"]))
                with open(os.path.join(workdir, r["label"] + ".csv")) as f:
                    refs[r["label"]] = workloads.summarize(
                        *workloads.parse_csv(f.read()))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as handle:
        handle.write("{\n%s\n}\n" % ",\n".join(
            "%s: %s" % (json.dumps(k), json.dumps(refs[k]))
            for k in sorted(refs)))
    print("wrote %s" % workloads.REFERENCE_PATH)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    start = time.monotonic()
    if args.compare:
        with open("BENCHMARK.json") as handle:
            bench = json.load(handle)
        return compare.main(bench, *args.compare)
    if not os.path.isfile(os.path.join("src", "cdwlab", "cli.py")):
        print("error: run from the repository root (no src/cdwlab here)",
              file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            return record_reference(start + 3000.0)
        if args.workload is None:
            parser.error("--workload is required")
        with open("BENCHMARK.json") as handle:
            bench = json.load(handle)
        return run_workload(args, bench, start + DEADLINE_S)
    except BenchError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
