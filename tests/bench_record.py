"""Record BENCH_<pr>.json: every benchmark workload, end to end.
Run from the repository root:  python tests/bench_record.py PR [--seed N]
[--seconds S].  Each workload of perfbench/workloads.py's WORKLOADS runs
once, perfbench/run.py --trace 0, and its stdout's last two lines, the
provenance and the result, are kept as
{workload: {"provenance": ..., "result": ...}}.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "perfbench"))

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("pr", type=int)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    args = parser.parse_args()
    record = {}
    for name in WORKLOADS:
        lines = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True).stdout.splitlines()
        record[name] = {"provenance": json.loads(lines[-2].split(": ", 1)[1]),
                        "result": json.loads(lines[-1])}
    with open("BENCH_%d.json" % args.pr, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
