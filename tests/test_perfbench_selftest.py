"""The benchmark's own self-tests, run as one tier-1 test.

They pin library seams the benchmark relies on: which functions call which
(``witness_scheme`` calls ``sir_feasible`` directly, ``Route.validate`` runs
inside it) and which module namespaces bind ``stage_costs``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert " 0 failed" in proc.stdout, proc.stdout + proc.stderr
    assert proc.returncode == 0, proc.stdout + proc.stderr
