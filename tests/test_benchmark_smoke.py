"""The benchmark runner still runs end to end: a one-second traced
wp-stream run answers every query correctly.  The traced run wraps every
library name the tracer knows, so it also fails when one of them is
renamed or removed.  No timing is asserted."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_wp_stream_run():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wp-stream",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
