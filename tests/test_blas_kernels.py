"""The results that must not depend on the BLAS kernel OpenBLAS picks.

OpenBLAS built with DYNAMIC_ARCH picks its kernels for the host's CPU; an
AVX2 (Haswell) or SSE (Nehalem) kernel sums a dot product in another order
than an AVX-512 one. OPENBLAS_CORETYPE forces a kernel, and only takes
effect when the library loads, so each kernel runs in a child process with
the variable set in that child's environment alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import epashrink

KERNELS = ("Haswell", "Nehalem")

# prints the huge-lambda rule statistics and the AMSE of a small study
CHILD = """
import json
from epashrink.shrinkage import MixturePriorParams, rule_statistics
from epashrink.study import StudyConfig, run_study

stats = [[s.bias_sq, s.variance, s.risk]
         for lam in (1e300, 1.7976931348623157e308)
         for s in (rule_statistics(theta, MixturePriorParams(0.95, 6.0, lam))
                   for theta in (0.0, 1.5, 5.9))]
config = StudyConfig(functions=("bumps", "doppler"), sizes=(64, 1024), snrs=(0.5, 3.0),
                     replications=3, rules=("esr", "soft", "hard:2"), seed=17)
print(json.dumps({"stats": stats, "amse": [c.amse for c in run_study(config).cells]}))
"""


def _dynamic_openblas() -> bool:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "DYNAMIC_ARCH" in str(blas.get("openblas configuration", ""))


@pytest.mark.skipif(not _dynamic_openblas(),
                    reason="numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH")
def test_rule_statistics_and_study_amse_agree_across_blas_kernels():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(epashrink.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")])}
    # None: the kernel OpenBLAS picks for this host
    children = {kernel: subprocess.Popen(
                    [sys.executable, "-c", CHILD],
                    env={**env, "OPENBLAS_CORETYPE": kernel} if kernel else env,
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                for kernel in (None, *KERNELS)}
    results = {}
    for kernel, child in children.items():
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, err
        assert not err, err
        results[kernel] = json.loads(out)
    want = results.pop(None)["amse"]
    for kernel, got in results.items():
        # the noise scale is below 1e-150 and the rule is the clamp, so
        # bias, variance and risk all vanish, under every kernel
        for bias_sq, variance, risk in got["stats"]:
            assert 0.0 <= bias_sq <= 1e-200, kernel
            assert 0.0 <= variance <= 1e-200, kernel
            assert 0.0 <= risk <= 1e-200, kernel
        np.testing.assert_allclose(got["amse"], want, rtol=1e-12, atol=0.0, err_msg=kernel)
