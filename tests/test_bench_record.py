import glob
import json
import os

from bench_record import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_records_name_every_workload_and_pass():
    # each BENCH_<pr>.json at the repository root, as bench_record.py
    # writes it: every workload, run without a failed invocation
    paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    assert paths
    for path in paths:
        with open(path) as handle:
            record = json.load(handle)
        assert sorted(record) == sorted(WORKLOADS), path
        for name, entry in record.items():
            assert entry["provenance"]["workload"] == name, path
            assert entry["result"]["correct"] is True, (path, name)
            assert entry["result"]["failed"] == 0, (path, name)
