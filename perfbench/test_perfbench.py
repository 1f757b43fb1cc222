"""Tests of the benchmark itself: artifact checks, span tree, compare.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cdwlab import cli  # noqa: E402

REFS = workloads.load_reference()
INVOCATIONS = {inv.label: inv for name in workloads.WORKLOADS
               for inv in workloads.invocations(name, 0)}


def artifact(label, tmp_path):
    inv = INVOCATIONS[label]
    cfg = tmp_path / (label + ".cfg")
    cfg.write_text(inv.config)
    out = tmp_path / (label + ".csv")
    argv = [str(cfg), "--output", str(out)]
    for item in inv.sets:
        argv += ["--set", item]
    assert cli.main(argv) == 0
    return out.read_text()


def check(label, text):
    return workloads.check_artifact(text, REFS[label],
                                    INVOCATIONS[label].check)


def with_value(text, row, col, fn):
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = repr(fn(float(cells[col])))
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("label", ["iv-curve", "fourier-check",
                                   "single-chain-df-printed",
                                   "single-chain-cn-printed"])
def test_fresh_artifact_matches_reference(label, tmp_path):
    assert check(label, artifact(label, tmp_path)) is None


def test_perturbed_artifact_rejected(tmp_path):
    text = artifact("fourier-check", tmp_path)
    assert check("fourier-check", with_value(
        text, 3, 1, lambda v: v * (1 + 1e-6))) is not None
    assert check("fourier-check",
                 "\n".join(text.splitlines()[:-1]) + "\n") is not None
    assert check("fourier-check", text.replace("numeric", "num")) is not None


def test_perturbed_unsampled_row_rejected(tmp_path):
    text = artifact("single-chain-df-printed", tmp_path)
    sampled = {i for i, _ in REFS["single-chain-df-printed"]["samples"]}
    row = next(i for i in range(1, 900) if i not in sampled)
    assert check("single-chain-df-printed", with_value(
        text, row, 2, lambda v: v + 1.0)) is not None
    assert check("single-chain-df-printed", with_value(
        text, row, 2, lambda v: float("nan"))) is not None


def sweep_text(label, edit=None):
    ref = REFS[label]
    rows = [[float(v) for v in sample] for _, sample in ref["samples"]]
    if edit:
        edit(ref["header"], rows)
    return "\n".join([",".join(ref["header"])]
                     + [",".join(repr(v) for v in row) for row in rows]) + "\n"


def test_sweep_check():
    label = "sweep-coupled"

    def shift(column, delta, row=1):
        def edit(header, rows):
            rows[row][header.index(column)] += delta
        return edit

    assert check(label, sweep_text(label)) is None
    # a lower energy is allowed; a higher one beyond 1e-12 is not
    assert check(label, sweep_text(label, shift("E_min", -1e-10))) is None
    assert check(label, sweep_text(label, shift("E_min", 1e-9))) is not None
    assert check(label, sweep_text(label, shift("mean_Phi", 0.01))) is not None
    assert check(label, sweep_text(label, shift("theta", 1e-6))) is not None
    assert check(label, sweep_text(label, shift("converged", -1.0))) \
        is not None


def test_span_tree_nests(tmp_path):
    tracer = spans.Tracer()
    original = cli.main
    tracer.install()
    try:
        sid = tracer.open("invocation.iv-curve")
        artifact("iv-curve", tmp_path)
        tracer.close(sid)
    finally:
        tracer.uninstall()
    assert cli.main is original
    sp = tracer.spans
    assert spans.check_nesting(sp) == []
    by_id = {s[0]: s for s in sp}
    names = {s[1] for s in sp}
    assert {"cli.main", "cli.parse_config", "cli.run", "tunneling.iv_curve",
            "curves.write_csv", "curves.to_csv_text"} <= names
    iv = next(s for s in sp if s[1] == "tunneling.iv_curve")
    assert by_id[iv[2]][1] == "cli.run"
    assert all(t >= 0 for t in spans.self_times(sp).values())
    assert "curves.format_number" not in names


def test_self_time_and_coverage():
    sp = [[0, "invocation.x", None, 0.0, 10.0],
          [1, "cli.main", 0, 0.0, 10.0],
          [2, "variational.sweep", 1, 1.0, 9.0],
          [3, "variational.point", 2, 2.0, 5.0],
          [4, "curves.write", 1, 9.0, 10.0]]
    assert spans.self_times(sp) == {0: 0.0, 1: 1.0, 2: 5.0, 3: 3.0, 4: 1.0}
    assert spans.layer_self_times(sp)["variational"] == 8.0
    assert spans.covered_time(sp, ("variational",)) == 8.0
    assert spans.covered_time(sp, ("variational", "curves")) == 9.0
    assert spans.check_nesting(sp) == []
    sp[3][4] = 9.5
    assert spans.check_nesting(sp)
    sp[3][4] = None
    assert spans.check_nesting(sp)


def test_compare_verdicts():
    parent = [(s, 10.0 + 0.01 * s) for s in range(10)]

    def scaled(f, noise=0.01):
        return [(s, f * (10.0 + noise * s)) for s in range(10)]

    assert compare.verdict(parent, scaled(0.8), True, 0.1)[0] == "better"
    assert compare.verdict(parent, scaled(1.3), True, 0.1)[0] == "worse"
    assert compare.verdict(parent, scaled(1.0), True, 0.1)[0] == "unchanged"
    assert compare.verdict(parent, scaled(1.0, noise=1.0), True,
                           0.1)[0] == "unresolved"
    # higher is better: a throughput that fell is worse
    assert compare.verdict(parent, scaled(0.8), False, 0.1)[0] == "worse"
    # one run has no spread to judge by
    assert compare.verdict(parent[:1], scaled(0.5)[:1], True,
                           None)[0] == "unresolved"


def test_compare_reads_saved_runs(tmp_path, capsys):
    bench = {"end_to_end": [{"name": "wall_s", "unit": "s",
                             "better": "lower", "bound": 0.1}],
             "per_layer": []}
    for side, value in (("a", 10.0), ("b", 5.0)):
        (tmp_path / side).mkdir()
        for seed in range(3):
            prov = {"workload": "kink", "seed": seed, "trace": 0}
            result = {"correct": True, "attempted": 1, "failed": 0,
                      "metrics": {"wall_s": {"value": value + 0.01 * seed,
                                             "unit": "s"}}}
            (tmp_path / side / ("%d.txt" % seed)).write_text(
                "# provenance: %s\n%s\n" % (json.dumps(prov),
                                            json.dumps(result)))
    compare.main(bench, str(tmp_path / "a"), str(tmp_path / "b"))
    line = capsys.readouterr().out.splitlines()[1]
    assert line.split()[:2] == ["kink", "wall_s"]
    assert line.split()[-1] == "better"


def test_cycle_orders_weigh_every_order_alike():
    orders = workloads.cycle_orders("kink", 3)
    first = [tuple(i.label for i in next(orders)) for _ in range(6)]
    assert len(set(first)) == 6
    assert [tuple(i.label for i in next(orders)) for _ in range(6)] == first
    assert tuple(i.label for i in workloads.invocations("kink", 3)) \
        == first[0]


def test_times_scaled_by_kernel_around_each_invocation():
    import run
    child = {"nominal_kernel_s": 0.004, "calib_s": [0.008, 0.008],
             "cycles": [[{"wall_s": 2.0, "kernel_s": 0.008},
                         {"wall_s": 1.0, "kernel_s": 0.002}]]}
    assert run.nominal_cycle_walls(child) == [3.0]
    assert run.scale(child) == 0.5
    # layer shares are taken of the invocation spans, which hold the
    # calibration timings taken during them
    assert run.span_wall([[0, "invocation.x", None, 0.0, 2.0],
                          [1, "cli.main", 0, 0.5, 1.0],
                          [2, "invocation.y", None, 3.0, 4.0]]) == 3.0


def test_calibration_point_takes_at_least_its_floor():
    import hostspeed
    calib = hostspeed.Calibration("kink")
    taken = calib.point()
    assert taken and sum(taken) >= hostspeed.MIN_S
    assert calib.samples == taken


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kink",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
