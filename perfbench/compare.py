"""Compare two result sets of the benchmark.

A result set is a file or a directory of files, each the saved stdout of
one ``run.py`` run (its ``# provenance:`` line and final JSON line).  For
every (workload, metric) pair the verdict is:

  better      the change's median is better by more than the parent's
              quartile spread, and the change wins at least 9 in 10 of
              the run pairs (runs paired by seed, else by rank);
  worse       the change's median is worse by more than the bound;
  unresolved  either side has a single run, or the spread of either
              side is wider than the bound and not every change run
              beats every parent run;
  unchanged   otherwise.

Per-layer metrics have no bound; they are judged by the spread alone.
"""

import json
import os
import statistics

WIN_SHARE = 0.9


def load(path):
    """{(workload, trace): [(seed, {metric: value}), ...]} of a result set."""
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path])
    out = {}
    for name in files:
        with open(name) as handle:
            lines = handle.read().strip().splitlines()
        prov = [json.loads(line.split(":", 1)[1]) for line in lines
                if line.startswith("# provenance:")]
        if not prov or not lines:
            continue
        result = json.loads(lines[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        key = (prov[-1]["workload"], prov[-1]["trace"])
        out.setdefault(key, []).append((prov[-1]["seed"], values))
    return out


def spread(values):
    """Quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent, change, lower_is_better, bound):
    """parent, change: lists of (seed, value)."""
    sign = 1.0 if lower_is_better else -1.0
    a = [v for _, v in parent]
    b = [v for _, v in change]
    ma, mb = statistics.median(a), statistics.median(b)
    # positive = the change is worse, as a share of the parent's median
    delta = sign * (mb - ma) / abs(ma) if ma else 0.0
    if min(len(a), len(b)) < 2:
        return "unresolved", delta, float("nan")
    noise = max(spread(a), spread(b))
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    if bound is not None and noise > bound and not all_better:
        return "unresolved", delta, noise
    if bound is not None and delta > bound:
        return "worse", delta, noise
    seeds = dict(parent)
    pairs = [(seeds[s], v) for s, v in change if s in seeds]
    if not pairs:
        pairs = list(zip(sorted(a), sorted(b)))
    wins = sum(1 for x, y in pairs if sign * y < sign * x)
    if -delta > spread(a) and wins >= WIN_SHARE * len(pairs):
        return "better", delta, noise
    if bound is None and delta > noise:
        return "worse", delta, noise
    return "unchanged", delta, noise


def main(bench, parent_path, change_path):
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = load(parent_path), load(change_path)
    print("%-9s %-36s %14s %14s %8s %8s %7s  %s" % (
        "workload", "metric", "parent", "change", "worse%", "spread%",
        "bound%", "verdict"))
    for key in sorted(set(parent) & set(change)):
        names = sorted(set().union(*(v for _, v in parent[key]))
                       & set().union(*(v for _, v in change[key])))
        for name in names:
            m = metrics.get(name)
            if m is None:
                continue
            a = [(s, v[name]) for s, v in parent[key] if name in v]
            b = [(s, v[name]) for s, v in change[key] if name in v]
            bound = m.get("bound")
            word, delta, noise = verdict(a, b, m["better"] == "lower", bound)
            print("%-9s %-36s %14.6g %14.6g %+8.2f %8.2f %7s  %s" % (
                key[0], name, statistics.median(v for _, v in a),
                statistics.median(v for _, v in b), 100 * delta,
                100 * noise, "-" if bound is None else "%.1f" % (100 * bound),
                word))
    return 0
