"""Summarize benchmark run records into a BENCH_*.json document.

    python3 perfbench/summarize.py LABEL [RUNS_DIR] > perfbench/BENCH_<topic>.json

Reads the records that ``run.py`` leaves in ``.perfbench/runs/`` (or in
RUNS_DIR). Per workload it gives each end-to-end metric's median and
quartiles over the untraced runs, with the spread (q3 - q1) / median. It
also gives the failed fraction as measured, each per-layer metric's median
over the traced runs, and the exact counts of the first traced run.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(records) -> dict:
    by_workload = defaultdict(lambda: {0: [], 1: []})
    for rec in records:
        by_workload[rec["workload"]][rec["trace"]].append(rec)
    out = {}
    for workload, runs in sorted(by_workload.items()):
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            recs = runs[trace]
            if not recs:
                continue
            values = defaultdict(list)
            units = {}
            for rec in recs:
                for name, metric in rec["result"]["metrics"].items():
                    values[name].append(metric["value"])
                    units[name] = metric["unit"]
            table = {}
            for name, vals in values.items():
                q1, med, q3 = _quartiles(vals)
                table[name] = {"median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med if med else 0.0,
                               "unit": units[name]}
            attempted = sum(r["result"]["attempted"] for r in recs)
            failed = sum(r["result"]["failed"] for r in recs)
            entry[key] = {
                "runs": len(recs),
                "seeds": sorted(r["seed"] for r in recs),
                "seconds": recs[0]["seconds"],
                "all_correct": all(r["result"]["correct"] for r in recs),
                "ops_attempted": attempted,
                "ops_failed_frac": failed / attempted,
                "findings": sorted({f for r in recs for f in r["findings"]}),
                "metrics": table,
            }
            if trace:
                entry[key]["counts_first_run"] = recs[0]["counts"]
                entry[key]["count_ops"] = recs[0]["count_ops"]
        entry["env"] = (runs[0] or runs[1])[0]["env"]
        out[workload] = entry
    return out


def main(argv) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    runs_dir = Path(argv[1]) if len(argv) > 1 else Path(".perfbench/runs")
    records = [json.loads(p.read_text()) for p in sorted(runs_dir.glob("*.json"))]
    if not records:
        print(f"summarize.py: no run records in {runs_dir}", file=sys.stderr)
        return 1
    doc = {"label": argv[0], "workloads": summarize(records)}
    print(json.dumps(doc, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
