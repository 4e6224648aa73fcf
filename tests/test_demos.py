"""Each fast demo script runs to completion as a standalone program.

ratio_experiment.py is left out: it takes about 19 s and calls only
run_experiment and default_config, which test_experiments.py covers.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "name", ["ordering_basics", "scheduling_walkthrough", "synthetic_workloads", "trace_format"]
)
def test_demo_exits_zero(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
