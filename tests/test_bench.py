import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["walkthrough", "bulk"])
def test_traced_bench_run_is_correct(workload):
    # a short traced run: the tracer's hooks (such as len() of the PSDS
    # sweep's detections) and the CLI calls the bench makes must still work
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "0.1", "--trace", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stderr[-2000:]
