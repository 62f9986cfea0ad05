#!/usr/bin/env python3
"""Run every workload untraced and traced, and write one result file.

    python3 perfbench/record.py --seed 1 --seconds 38 --out perfbench/results/baseline.json

Each run is its own `run.py` process, one after another. The result holds,
per workload, the end-to-end medians with their sample counts, the quality
metrics, the output digests and the per-layer numbers; next to them the
ROADMAP Baseline rows these workloads cover, and a machine record (CPU
model, nproc, Python and numpy versions, line count of src/).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END, QUALITY  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# ROADMAP Baseline rows (single perf_counter runs of the library calls) and
# the CLI operation of this benchmark that covers each of them. The ROADMAP
# instance is gaussian_blobs(seed=1), whose blob distance is drawn; the
# benchmark's blobs sit exactly 6 apart. No solve row is covered: the
# smallest exact_solve row is n=12, and solve-small runs n=8.
BASELINE_ROWS = (
    {"row": "ring_coreset n=200, d=2, z=2", "workload": "coreset-2d",
     "op": "build det n=200 z=2", "roadmap_s": 0.55},
)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def src_lines():
    total = 0
    src = os.path.join(ROOT, "src", "detclust")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def run_one(workload, seed, seconds, trace):
    out = os.path.join(HERE, "out", f"record-{workload}-trace{trace}.json")
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--out", out],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    sys.stdout.write(res.stdout)
    sys.stderr.write(res.stderr)
    if res.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {res.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def summary(values, unit, better):
    vals = values if isinstance(values, list) else [values]
    return {"median": statistics.median(vals), "min": min(vals), "max": max(vals),
            "samples": len(vals), "unit": unit, "better": better}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=38)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    result = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        plain = run_one(name, args.seed, args.seconds, 0)
        traced = run_one(name, args.seed, args.seconds, 1)
        e2e = {metric: summary(plain["end_to_end"][metric], unit, better)
               for metric, unit, better in END_TO_END}
        for key, vals in plain["samples"].items():  # per-pass values
            unit, better = ("1/s", "higher") if key.startswith("points_per") else ("s", "lower")
            e2e[key] = summary(vals, unit, better)
        e2e["failed_ops_ratio"] = summary(plain["failed_ops_ratio"], "ratio", "lower")
        for key, val in plain["quality"].items():
            e2e[key] = summary(val, *QUALITY[key])
        result["workloads"][name] = {
            "end_to_end": e2e,
            "op_seconds": plain["op_seconds"],
            "digests": plain["digests"],
            "per_layer": traced["per_layer"],
            "traced_counts": traced["traced_counts"],
        }
        result["machine"] = plain["machine"]
    result["machine"]["cpu_model"] = cpu_model()
    result["src_lines"] = src_lines()

    rows = []
    for row in BASELINE_ROWS:
        wl = result["workloads"][row["workload"]]
        entry = dict(row, measured_s=statistics.median(wl["op_seconds"][row["op"]]))
        if "roadmap_peak_rss_mb" in row:
            entry["measured_peak_rss_mb"] = wl["end_to_end"]["peak_rss_mb"]["median"]
        rows.append(entry)
    result["baseline_crosscheck"] = rows

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("\nROADMAP Baseline rows vs this run (CLI time includes file read/write)")
    for e in rows:
        rss = ""
        if "roadmap_peak_rss_mb" in e:
            rss = f", peak RSS {e['roadmap_peak_rss_mb']:.0f} MB -> {e['measured_peak_rss_mb']:.0f} MB"
        print(f"  {e['row']}: {e['roadmap_s']} s -> {e['measured_s']:.2f} s{rss}")
    print(f"machine: {result['machine']}  src lines: {result['src_lines']}")


if __name__ == "__main__":
    main()
