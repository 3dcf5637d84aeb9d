"""The benchmark's output checks, run against the library in this checkout.

perfbench/selftest.py calls the library the way the benchmark does and
proves that each of its checks accepts the real output and rejects a
corrupted one. Running it here makes a library change that breaks those
calls fail the test suite, not only the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_rejects_every_corruption():
    result = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                            cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "all checks reject their corruption" in result.stdout
