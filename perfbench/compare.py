"""Compare two sets of benchmark records, metric by metric.

    python3 perfbench/run.py --workload union --seed 1 --out base.jsonl
    ...  (several seeds, on each commit)
    python3 perfbench/compare.py base.jsonl new.jsonl

Each file holds the JSON lines `run.py --out` appends.  For every workload
and metric, prints both medians, each side's quartile spread as a share of
its median, and the change, counted positive when the metric got worse.
An end-to-end metric that got worse by more than its bound in
`BENCHMARK.json` is marked REGRESSED and makes the exit code 1.

Records made with different matching kernels are never compared: the
optional compiled kernel is a different program (exit code 2).
"""
import argparse
import json
import pathlib
import statistics
import sys

SPEC_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def by_workload(records):
    """{(workload, trace): {metric: [values]}}"""
    out = {}
    for r in records:
        group = out.setdefault((r["workload"], r["trace"]), {})
        for name, m in r["result"]["metrics"].items():
            group.setdefault(name, []).append(m["value"])
    return out


def spread(values):
    """Interquartile distance as a share of the median (0 if too few)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=pathlib.Path)
    ap.add_argument("new", type=pathlib.Path)
    args = ap.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(args.base), load(args.new)
    kernels = {r["kernel"] for r in base + new}
    if len(kernels) != 1:
        print("refusing to compare records made with different kernels: %s"
              % ", ".join(sorted(kernels)), file=sys.stderr)
        return 2
    pythons = {r["python"] for r in base + new}
    print("kernel %s, python %s" % (kernels.pop(), ", ".join(sorted(pythons))))
    if any(not r["result"]["correct"] for r in base + new):
        print("warning: some records are not correct", file=sys.stderr)

    regressed = False
    old_groups, new_groups = by_workload(base), by_workload(new)
    print("%-10s %-30s %12s %7s %12s %7s %8s" % (
        "workload", "metric", "base", "spread", "new", "spread", "worse"))
    for key in sorted(old_groups.keys() & new_groups.keys()):
        old_metrics, new_metrics = old_groups[key], new_groups[key]
        for name in [n for n in old_metrics if n in new_metrics]:
            m = metrics[name]
            a = statistics.median(old_metrics[name])
            b = statistics.median(new_metrics[name])
            worse = (b - a) / a if a else 0.0
            if m["better"] == "higher":
                worse = -worse
            mark = ""
            if "bound" in m and worse > m["bound"]:
                mark = "  REGRESSED (bound %g)" % m["bound"]
                regressed = True
            print("%-10s %-30s %12.6g %6.1f%% %12.6g %6.1f%% %+7.1f%%%s" % (
                key[0], name, a, 100 * spread(old_metrics[name]), b,
                100 * spread(new_metrics[name]), 100 * worse, mark))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
