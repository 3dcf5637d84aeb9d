"""Make ``import epashrink`` load the checkout's own source, single-threaded.

Imported first by every benchmark entry point. It pins the numeric
libraries to one thread (each workload runs in one process with no extra
threads), puts ``<checkout>/src`` at the front of sys.path and refuses to
go on if epashrink is missing there or would load from anywhere else.
"""

import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def child_env() -> dict:
    """Environment for child processes: same pinning, same source tree."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


os.environ.update({var: "1" for var in THREAD_VARS})
if not (SRC / "epashrink" / "__init__.py").is_file():
    sys.exit(f"benchmark: no epashrink source under {SRC}")
sys.path.insert(0, str(SRC))
import epashrink  # noqa: E402

if Path(epashrink.__file__).resolve().parent != SRC / "epashrink":
    sys.exit(f"benchmark: epashrink loaded from {epashrink.__file__}, not from {SRC}")
