"""flowkernels benchmark: four desk-scale workloads, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all          # every workload, untraced

The library is imported from ``src/`` of the tree this file sits in.
Workloads (see jobs.py for why each was chosen): presets,
collocation_large, mkl_bank, crosscheck.

``--trace 0`` first sets the workload up in SETUP_SAMPLES fresh processes
that run no job, then runs it as a closed loop of passes over its job list
for the rest of about ``--seconds`` (at least two passes), each pass in a
fresh process, and reports the end-to-end metrics:

* ``wall_s``: one pass over the job list, the sum of each job's median time;
* ``setup_s``: imports plus building the workload, median over all the
  processes;
* ``peak_rss_mib``: peak resident memory of a workload process, median.

``failed_ratio`` (failed / attempted jobs) is printed with them and carried
by the ``attempted`` and ``failed`` fields of the result.

``--trace 1`` is the traced run: for every workload, in a fresh process,
one untraced pass, one pass with the layers timed and one with their memory
traced by ``tracemalloc``.  It reports the per-layer metrics of layers.py;
each layer is measured on the workloads it should move.
``trace.overhead_s`` is the named workload's timed pass minus its untraced
pass in the same process.  The untraced pass runs first and so also pays
the first-call costs; the tracing wrappers cost far less than the time
passes differ by, so the value is mostly noise and can be negative.

Each workload process gets the same pinned BLAS thread count (at most 2),
because MKL's optimizer path changes with it.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  Full results
(per-job outputs, accuracy values, environment, spans) are written under
``.bench_out/`` in the tree.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

import layers
from worker import THREAD_VARS, wall_s

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("presets", "collocation_large", "mkl_bank", "crosscheck")
THREADS = min(2, len(os.sched_getaffinity(0)))
MIN_PROCESSES = 2       # fresh workload processes per untraced run, at least
SETUP_SAMPLES = 10      # extra processes per untraced run that only set up
BUDGET_S = 170.0        # a run must finish within 180 s


class BenchError(RuntimeError):
    pass


def git_sha(root: pathlib.Path):
    """Commit of the tree from .git, without running git (which would look
    outside the tree when there is no repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    def __init__(self, seed: int):
        self.seed = seed
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(os.environ)
        for var in THREAD_VARS:
            self.env[var] = str(THREADS)
        self.env.pop("PYTHONPATH", None)

    def worker(self, workload: str, *extra: str) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(self.seed), "--src", str(SRC), "--workdir", str(OUT), *extra]
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time budget used up")
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload} worker timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"{workload} worker printed no result:\n{proc.stderr[-2000:]}")
        return json.loads(lines[-1])

    def untraced(self, workload: str, seconds: float) -> dict:
        """Fresh processes one after another, one pass each, pooled.

        Timings differ more between processes than between passes of one
        process, so each pass gets its own process (and gives a set-up
        sample).  SETUP_SAMPLES processes that only set up come first, so
        that ``setup_s`` is a median of many samples.  At least
        MIN_PROCESSES passes run; more follow while one more pass, as long
        as the last, would still end within ``seconds`` of the start.
        """
        start = time.monotonic()
        setups = [self.worker(workload, "--setup-only")["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        runs = []
        while True:
            t = time.monotonic()
            runs.append(self.worker(workload))
            last = time.monotonic() - t
            if len(runs) >= MIN_PROCESSES and time.monotonic() - start + last > seconds:
                break
        jobs = [j for r in runs for j in r["jobs"]]
        res = {
            "workload": workload, "seed": self.seed, "jobs": jobs,
            "pass_s": [r["pass_s"] for r in runs],
            "setup_samples": setups + [r["setup_s"] for r in runs],
            "peak_rss_samples": [r["peak_rss_mib"] for r in runs],
            "environment": runs[0]["environment"],
        }
        res["metrics"] = {
            "wall_s": {"value": wall_s(jobs), "unit": "s"},
            "setup_s": {"value": statistics.median(res["setup_samples"]), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(res["peak_rss_samples"]), "unit": "MiB"},
        }
        return res

    def traced(self, workload: str) -> dict:
        traces = {wl: self.worker(wl, "--trace") for wl in WORKLOADS}
        own = traces[workload]
        values = layers.layer_metrics(traces, own["wall_s"] - own["untraced_wall_s"])
        return {
            "workload": workload, "seed": self.seed,
            "jobs": [j for t in traces.values()
                     for j in t["untraced_jobs"] + t["jobs"] + t["memory_jobs"]],
            "environment": own["environment"],
            "untraced_wall_s": {wl: t["untraced_wall_s"] for wl, t in traces.items()},
            "traced_wall_s": {wl: t["wall_s"] for wl, t in traces.items()},
            "metrics": {k: {"value": values[k], "unit": unit}
                        for k, (unit, _) in layers.METRICS.items()},
            "traces": traces,
        }


def summarize(res: dict) -> dict:
    jobs = res["jobs"]
    failed = sum(not j["ok"] for j in jobs)
    return {"correct": failed == 0, "attempted": len(jobs), "failed": failed,
            "metrics": res["metrics"]}


def report(workload: str, res: dict, summary: dict) -> None:
    env = res["environment"]
    passes = f"passes {len(res['pass_s'])}" if "pass_s" in res else "traced run"
    print(f"== {workload}  seed {res['seed']}  threads {THREADS}  {passes}  "
          f"jobs {summary['attempted']}")
    print(f"   numpy {env['numpy']} ({env['numpy_blas']}), scipy {env['scipy']} "
          f"({env['scipy_blas']}), python {env['python']}, cores {env['cores']}")
    for name, m in summary["metrics"].items():
        print(f"   {name:42s} {m['value']:.6g} {m['unit']}")
    print(f"   {'failed_ratio':42s} {summary['failed'] / summary['attempted']:.6g} 1")
    last = {}
    for j in res["jobs"]:
        last[j["job"]] = j
    for name, j in last.items():
        values = ", ".join(f"{k}={v:.6g}" for k, v in j["outputs"].items()
                           if isinstance(v, float))
        print(f"   accuracy {name}: {values}")
    for j in res["jobs"]:
        for problem in j["problems"]:
            print(f"   FAILED {j['job']} (pass {j['pass']}): {problem.strip()}")


def save(res: dict, name: str) -> None:
    res["git_sha"] = git_sha(ROOT)
    res["threads"] = THREADS
    (OUT / name).write_text(json.dumps(res, indent=1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "flowkernels" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no flowkernels sources under {SRC}\n")
        return 2
    if args.workload == "all" and args.trace:
        sys.stderr.write("bench: the traced run covers every workload; name one\n")
        return 2
    OUT.mkdir(exist_ok=True)
    runner = Runner(args.seed)
    try:
        if args.trace:
            res = runner.traced(args.workload)
            summary = summarize(res)
            save(res, f"trace-{args.workload}-seed{args.seed}.json")
            report(args.workload, res, summary)
            print(json.dumps(summary))
            return 0
        summaries = {}
        for wl in WORKLOADS if args.workload == "all" else (args.workload,):
            runner.deadline = time.monotonic() + BUDGET_S
            res = runner.untraced(wl, args.seconds)
            summaries[wl] = summarize(res)
            save(res, f"result-{wl}-seed{args.seed}.json")
            report(wl, res, summaries[wl])
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1
    if len(summaries) == 1:
        print(json.dumps(summaries[args.workload]))
    else:
        print(json.dumps({
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{wl}.{k}": m for wl, s in summaries.items()
                        for k, m in s["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
