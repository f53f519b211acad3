"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

import json
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import layers
import run
from spans import Span, Tracer, covered, self_times
from worker import THREAD_VARS, run_pass

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _job(name, run_fn, check=lambda out: []):
    return SimpleNamespace(name=name, run=run_fn, check=check)


def _boom():
    raise ValueError("boom")


def _bad_option():
    raise SystemExit(2)     # what argparse does in cli.main on a bad option


def test_raising_job_counts_as_failed_and_run_continues():
    jobs = [_job("ok", lambda: {"x": 1.0}),
            _job("raises", _boom),
            _job("exits", _bad_option),
            _job("wrong", lambda: {"x": 2.0}, lambda out: ["x is wrong"]),
            _job("after", lambda: {})]
    result = run_pass(jobs)
    summary = run.summarize({"jobs": result["jobs"], "metrics": {}})
    assert summary["attempted"] == 5
    assert summary["failed"] == 3
    assert summary["correct"] is False
    ok, raises, exits, wrong, after = result["jobs"]
    assert ok["ok"] and after["ok"] and not wrong["ok"]
    assert "ValueError: boom" in raises["problems"][0]
    assert exits["problems"] == ["exited with code 2"]
    assert wrong["problems"] == ["x is wrong"]


def test_setup_only_worker_reports_setup_time(tmp_path):
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", "crosscheck",
         "--seed", "0", "--src", str(run.SRC), "--workdir", str(tmp_path), "--setup-only"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(result) == ["setup_s"] and result["setup_s"] > 0
    assert list(tmp_path.iterdir()) == []


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5.0)
    assert covered([(-1, 2), (9, 12)], 0, 10) == pytest.approx(3.0)
    assert covered([], 0, 10) == 0.0


def test_self_time_of_nested_spans():
    def span(sid, parent, start, end):
        s = Span(sid, f"s{sid}", start, parent, "r", {})
        s.end = end
        return s

    # root 0..10 with children 1..3 and 4..6; the first child has a child
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 3.0),
             span(2, 1, 1.5, 2.5), span(3, 0, 4.0, 6.0)]
    st = self_times(spans)
    assert st[0] == pytest.approx(6.0)
    assert st[1] == pytest.approx(1.0)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(2.0)
    assert sum(st.values()) == pytest.approx(spans[0].duration)


def test_tracer_wrap_records_parents_and_memory_peaks():
    tracer = Tracer(memory_spans=("outer",))

    def inner():
        return np.ones(2_000_000).sum()      # 16 MB temporary

    inner_t = tracer.wrap(inner, "inner")
    outer_t = tracer.wrap(lambda: inner_t() + inner_t(), "outer")
    tracer.run = "job"
    assert outer_t() == 4_000_000
    outer, first, second = tracer.spans
    assert first.parent == outer.id and second.parent == outer.id
    assert all(s.run == "job" for s in tracer.spans)
    assert first.peak >= 16_000_000 and outer.peak >= first.peak
    assert sum(self_times(tracer.spans).values()) == pytest.approx(outer.duration)


def test_replace_everywhere_is_undone_by_restore():
    owner = SimpleNamespace(f=len)
    alias = SimpleNamespace(g=len, other=abs)
    tracer = Tracer()
    tracer.replace_everywhere([owner, alias], owner, "f", tracer.wrap(len, "len"))
    assert owner.f("ab") == 2 and alias.g("abc") == 3 and alias.other is abs
    assert [s.name for s in tracer.spans] == ["len", "len"]
    tracer.restore()
    assert owner.f is len and alias.g is len


def test_layer_metrics_report_every_metric_on_empty_traces():
    empty = {"spans": [], "counters": {}, "jobs": [], "memory_spans": []}
    values = layers.layer_metrics({wl: empty for wl in run.WORKLOADS}, 0.5)
    assert list(values) == list(layers.METRICS)
    assert values["trace.overhead_s"] == 0.5


def test_metric_names_and_benchmark_file_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + ["failed_ratio"]
    assert all(layers.NAME_RE.fullmatch(n) for n in names + list(layers.METRICS))
    assert len(set(names)) == len(names)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (unit, _) in layers.METRICS.items()}
    assert {m["name"] for m in spec["workloads"]} <= set(run.WORKLOADS)
