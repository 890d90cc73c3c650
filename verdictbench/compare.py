"""Compare two sets of verdictbench results, metric by metric.

Usage:  python3 verdictbench/compare.py BASE_DIR NEW_DIR

Each directory holds the result files run.py writes (verdictbench-out/ of a
checkout). For every workload and end-to-end metric this prints both medians,
their ratio, and whether the new median is worse than the base one by more
than the bound in BENCHMARK.json. Results taken on different kernel backends
measure different code, so a mix of backends is refused with exit code 2.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    """{workload: {metric: [values]}} over the untraced results, and the set
    of kernel backends they ran on."""
    out, backends = {}, set()
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        backends.add(doc["run"]["kernel_backend"])
        metrics = out.setdefault(doc["run"]["workload"], {})
        for name, m in doc["result"]["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return out, backends


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    (base, base_be), (new, new_be) = load(argv[0]), load(argv[1])
    if len(base_be | new_be) != 1:
        print("refusing to compare results from kernel backends %s"
              % sorted(base_be | new_be), file=sys.stderr)
        return 2
    regressed = False
    for workload in sorted(set(base) & set(new)):
        for name, m in spec.items():
            a = statistics.median(base[workload][name])
            b = statistics.median(new[workload][name])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "REGRESSED" if worse > m["bound"] else "ok"
            regressed |= worse > m["bound"]
            print("%-10s %-16s %12.4f %12.4f  x%.3f  %s"
                  % (workload, name, a, b, b / a, flag))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
