"""Work done in a fresh child interpreter, started by run.py.

    child.py setup <config-path>
        time ``import cdwlab.cli`` plus one ``parse_config``; print JSON.
    child.py workload <spec-path>
        run the workload's invocations through ``cli.main`` in whole
        cycles that fit the spec's seconds (at least one), check each
        artifact, optionally traced and followed by the layer
        microtimings; write JSON to the spec's ``out`` path.

The heavy imports sit inside the functions so that the setup timing
starts from an interpreter that has loaded nothing but the stdlib.
"""

import json
import sys
import time

SETUP_CALIBRATIONS = 10


def setup(config_path):
    t0 = time.perf_counter()
    import cdwlab.cli
    t1 = time.perf_counter()
    with open(config_path, "rb") as handle:
        cdwlab.cli.parse_config(handle.read())
    t2 = time.perf_counter()
    import hostspeed
    calib = hostspeed.Calibration("setup")
    for _ in range(SETUP_CALIBRATIONS):
        calib.point()
    print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1,
                      "setup_s": t2 - t0, "calib_s": calib.samples,
                      "nominal_kernel_s": calib.nominal_s}))


def _invoke(cli, argv):
    """Run cli.main; return (exit code, error text or None)."""
    import contextlib
    import io
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # an escaped exception is a failed invocation
        return None, "%s: %s" % (type(exc).__name__, exc)
    if code != 0:
        return code, "exit status %r: %s" % (code, err.getvalue().strip())
    return code, None


def workload(spec_path):
    import os
    import resource
    import statistics

    import hostspeed
    import workloads
    from spans import Tracer

    with open(spec_path) as handle:
        spec = json.load(handle)
    import cdwlab.cli as cli

    workdir = spec["workdir"]
    invs = workloads.invocations(spec["workload"], spec["seed"])
    orders = workloads.cycle_orders(spec["workload"], spec["seed"])
    refs = (workloads.load_reference()
            if os.path.exists(workloads.REFERENCE_PATH) else {})
    argvs = {}
    for inv in invs:
        cfg = os.path.join(workdir, inv.label + ".cfg")
        with open(cfg, "w") as handle:
            handle.write(inv.config)
        argv = [cfg, "--output", os.path.join(workdir, inv.label + ".csv"),
                "--seed", str(spec["seed"])]
        for item in inv.sets:
            argv += ["--set", item]
        argvs[inv.label] = argv

    tracer = Tracer()
    if spec["traced"]:
        tracer.install()
    verdicts = {}  # artifact sha256 -> check result
    cycles = []
    calib = hostspeed.Calibration(spec["workload"])
    before = calib.point()
    start = last = time.perf_counter()
    # a new cycle starts only if one more like the last still fits
    while not cycles or (len(cycles) < spec["max_cycles"] and
                         2 * time.perf_counter() - last - start
                         <= spec["seconds"]):
        last = time.perf_counter()
        cycle = []
        for inv in next(orders):
            out = argvs[inv.label][2]
            if os.path.exists(out):
                os.unlink(out)
            sid = tracer.open("invocation." + inv.label)
            (code, reason), wall, during = calib.timed(
                lambda: _invoke(cli, argvs[inv.label]))
            tracer.close(sid)
            record = {"label": inv.label, "wall_s": wall, "exit": code,
                      "rows": 0, "bytes": 0, "converged": 0,
                      "reason": reason}
            if reason is None:
                _check(record, out, inv, refs, verdicts)
            # the host's speed over this invocation: its two ends and
            # the timings during it, which are evenly spaced in time
            after = calib.point()
            record["kernel_s"] = statistics.mean(
                [statistics.median(before)] + during
                + [statistics.median(after)])
            before = after
            cycle.append(record)
        cycles.append(cycle)
    if spec["traced"]:
        tracer.uninstall()

    result = {"cycles": cycles, "spans": tracer.spans,
              "calib_s": calib.samples,
              "nominal_kernel_s": calib.nominal_s,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "versions": _versions()}
    if spec["micro"]:
        import micro
        result["micro"] = micro.run_all()
    with open(spec["out"], "w") as handle:
        json.dump(result, handle)


def _check(record, path, inv, refs, verdicts):
    """Fill the record's rows, converged count and failure reason; an
    artifact whose bytes were checked before reuses that verdict."""
    import hashlib

    import workloads
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        record["reason"] = "missing artifact"
        return
    record["bytes"] = len(data)
    key = hashlib.sha256(data).hexdigest()
    if key not in verdicts:
        text = data.decode("utf-8")
        rows = text.count("\n") - 1
        ref = refs.get(inv.label)
        reason = ("no reference recorded" if ref is None
                  else workloads.check_artifact(text, ref, inv.check))
        converged = 0
        if reason is None and inv.check == "sweep":
            header, parsed = workloads.parse_csv(text)
            j = header.index("converged")
            converged = sum(1 for row in parsed if row[j] == 1.0)
        verdicts[key] = (rows, converged, reason)
    record["rows"], record["converged"], record["reason"] = verdicts[key]


def _versions():
    import platform

    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    else:
        workload(sys.argv[2])
