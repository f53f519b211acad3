"""Summarize saved benchmark results into one BENCH_*.json entry.

    python3 bench/record.py OUT.json [--label TEXT]

Reads every ``.bench_out/result-*.json`` (untraced runs) and
``.bench_out/trace-*.json`` (traced runs) and writes, per workload, the
median and quartiles of each end-to-end metric over the runs with their
seeds, the failed ratio, the accuracy values of the last run, and the
per-layer metrics of the traced runs.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics

from run import OUT, WORKLOADS


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def accuracy(jobs):
    last = {}
    for j in jobs:
        last[j["job"]] = {k: v for k, v in j["outputs"].items() if isinstance(v, float)}
    return last


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("out")
    ap.add_argument("--label", default="")
    args = ap.parse_args(argv)
    entry = {"label": args.label, "workloads": {}}
    for wl in WORKLOADS:
        runs = sorted((json.loads(p.read_text()) for p in OUT.glob(f"result-{wl}-seed*.json")),
                      key=lambda r: r["seed"])
        traces = [json.loads(p.read_text()) for p in OUT.glob(f"trace-{wl}-seed*.json")]
        if not runs and not traces:
            continue
        row = {}
        if runs:
            entry.update(git_sha=runs[0]["git_sha"], threads=runs[0]["threads"],
                         environment=runs[0]["environment"])
            jobs = [j for r in runs for j in r["jobs"]]
            row["seeds"] = [r["seed"] for r in runs]
            row["end_to_end"] = {
                k: dict(quartiles([r["metrics"][k]["value"] for r in runs]),
                        unit=runs[0]["metrics"][k]["unit"])
                for k in runs[0]["metrics"]}
            row["failed_ratio"] = sum(not j["ok"] for j in jobs) / len(jobs)
            row["accuracy"] = accuracy(jobs)
        if traces:
            row["per_layer"] = {
                k: dict(quartiles([t["metrics"][k]["value"] for t in traces]),
                        unit=traces[0]["metrics"][k]["unit"])
                for k in traces[0]["metrics"]}
        entry["workloads"][wl] = row
    pathlib.Path(args.out).write_text(json.dumps(entry, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
