#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, checked against BENCHMARK.json.

Usage: python3 perfbench/spread.py perfbench/records/<file>.jsonl

Each input line is one end-to-end run: {"set", "workload", "seed", "result"},
where "result" is the run's last stdout line. For every set, workload and
metric it prints the median and the interquartile range as a share of the
median (statistics.quantiles, n=4), and marks a spread above the metric's
bound. With two or more sets, it also prints how much worse each later set's
median is than the first set's, and marks a change beyond the bound.
"""

import json
import statistics
import sys
from pathlib import Path


def main(path):
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    runs = {}
    for line in Path(path).read_text().splitlines():
        r = json.loads(line)
        assert r["result"]["correct"], f"failed run: {r['workload']} seed {r['seed']}"
        runs.setdefault(r["workload"], {}).setdefault(r["set"], []).append(r)
    for workload, sets in runs.items():
        first = None
        for name, rs in sets.items():
            print(f"{workload} set {name}: {len(rs)} runs, seeds {[r['seed'] for r in rs]}")
            medians = {}
            for m, spec_m in metrics.items():
                xs = [r["result"]["metrics"][m]["value"] for r in rs]
                med = statistics.median(xs)
                q = statistics.quantiles(xs, n=4)
                spread = (q[2] - q[0]) / med
                medians[m] = med
                flag = "  ABOVE BOUND" if spread > spec_m["bound"] and m != "setup_s" else ""
                line = f"  {m:16} median {med:14.4f}  spread {spread * 100:5.1f}%"
                if first is not None:
                    worse = (med - first[m]) / first[m]
                    if spec_m["better"] == "higher":
                        worse = -worse
                    flag += "  WORSE BEYOND BOUND" if worse > spec_m["bound"] else ""
                    line += f"  worse than set 1 by {worse * 100:5.1f}%"
                print(line + flag)
            first = first or medians


if __name__ == "__main__":
    main(sys.argv[1])
