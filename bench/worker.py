"""One workload in one fresh process; started by run.py.

    python3 bench/worker.py --workload NAME --seed N --src DIR --workdir DIR
        [--trace] [--setup-only]

It runs one pass over the workload's job list; with --trace, one untraced
pass, one with the layers timed and then one with their memory traced.
With --setup-only it sets the workload up, reports the set-up time and
runs no job.

The BLAS thread count must be fixed in the environment before numpy loads,
so run.py sets it; this process records it.  Set-up (imports plus building
the workload) is timed from the first line of this file.  The result is
printed as one JSON object on the last line of standard output.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_pass(jobs, tracer=None, label="0"):
    """Run the job list once, each job right after the previous one.

    A job that raises, or whose check reports a problem, is recorded as
    failed and the pass goes on.
    """
    records = []
    t_pass = time.perf_counter()
    for job in jobs:
        span = None
        if tracer is not None:
            tracer.run = f"{label}:{job.name}"
            span = tracer.open("job", job=job.name)
        t = time.perf_counter()
        try:
            outputs = job.run()
            elapsed = time.perf_counter() - t
            problems = job.check(outputs)
        except Exception:  # noqa: BLE001 - a failing job must not stop the run
            elapsed = time.perf_counter() - t
            outputs, problems = {}, [traceback.format_exc(limit=3)]
        except SystemExit as exc:   # argparse in cli.main exits on a bad option
            elapsed = time.perf_counter() - t
            outputs, problems = {}, [f"exited with code {exc.code!r}"]
        finally:
            if tracer is not None:
                tracer.close(span)
                tracer.end_run()
        records.append({"pass": label, "job": job.name, "seconds": elapsed,
                        "ok": not problems, "problems": problems, "outputs": outputs})
    return {"pass_s": time.perf_counter() - t_pass, "jobs": records}


def traced_pass(jobs, tracer, label):
    """One pass with the layer entry points wrapped for ``tracer``."""
    import layers

    layers.install(tracer)
    try:
        return run_pass(jobs, tracer, label)
    finally:
        tracer.restore()


def wall_s(records):
    """One pass over the job list: the sum of each job's median time."""
    times = {}
    for r in records:
        times.setdefault(r["job"], []).append(r["seconds"])
    return sum(statistics.median(t) for t in times.values())


def environment():
    import numpy as np
    import scipy

    def blas(show_config):
        try:
            info = show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (KeyError, TypeError):
            return "unknown"

    return {
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "cores": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy_blas": blas(scipy.show_config),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    missing = [v for v in THREAD_VARS if v not in os.environ]
    if missing:
        sys.stderr.write(f"worker: {', '.join(missing)} must be set before numpy loads\n")
        return 2

    src = pathlib.Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import flowkernels

    if pathlib.Path(flowkernels.__file__).resolve().parent != src / "flowkernels":
        sys.stderr.write(f"worker: imported {flowkernels.__file__}, not the one under {src}\n")
        return 2
    import jobs

    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir))
    try:
        job_list = jobs.build(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            import layers
            from spans import Tracer

            # the untraced pass runs in this process so that the overhead is
            # not swamped by the speed difference between processes
            plain = run_pass(job_list, label="untraced")
            timing, memory = Tracer(), Tracer(layers.MEMORY_SPANS)
            result = traced_pass(job_list, timing, "timing")
            result["memory_jobs"] = traced_pass(job_list, memory, "memory")["jobs"]
            result.update(untraced_jobs=plain["jobs"], untraced_wall_s=wall_s(plain["jobs"]))
            result.update(spans=[s.to_dict() for s in timing.spans],
                          counters=timing.counters,
                          memory_spans=[s.to_dict() for s in memory.spans if s.peak is not None])
        else:
            result = run_pass(job_list)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result.update(
        workload=args.workload, seed=args.seed, setup_s=setup_s,
        wall_s=wall_s(result["jobs"]),
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=environment(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
