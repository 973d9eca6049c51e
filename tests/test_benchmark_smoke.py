"""The benchmark runner still runs end to end: one-second runs answer
every query correctly.  The traced wp-stream run wraps every library name
the tracer knows, so it also fails when one of them is renamed or removed;
the untraced decide-mix run checks every public decider and CLI command
against the benchmark's own answer keys, and the untraced free-monoid run
the acceptors and Stallings graphs.  No timing is asserted.

A traced run writes its spans under the checkout it runs from, so it runs
from a temporary copy of `src/`, `perfbench/` and `BENCHMARK.json`."""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_benchmark(workload, trace, root=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_wp_stream_run(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench_out")
    for tree in ("src", "perfbench"):
        shutil.copytree(os.path.join(ROOT, tree), tmp_path / tree,
                        ignore=ignore)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    result = run_benchmark("wp-stream", "1", root=tmp_path)
    assert (tmp_path / ".perfbench_out" / "spans-wp-stream-1.jsonl").exists()
    assert result["correct"] is True
    assert result["failed"] == 0


def test_untraced_decide_mix_run():
    result = run_benchmark("decide-mix", "0")
    assert result["correct"] is True
    assert result["failed"] == 0


def test_untraced_free_monoid_run():
    result = run_benchmark("free-monoid", "0")
    assert result["correct"] is True
    assert result["failed"] == 0
