"""Spans around calls into epashrink, recorded from the benchmark side.

Each public function is replaced, at the name its caller looks up (for
example ``epashrink.study.dwt_forward``), by a wrapper that records a span:
name, start, end, parent span and, for the rule, the number of
coefficients it was given. Spans stay in memory until the run ends. A
layer that the program stops calling simply records no spans.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# span name -> (module, attribute) pairs that callers look the function up by
HOOKS = {
    "dwt.filter": [("study", "make_daubechies_filter"), ("cli", "make_daubechies_filter")],
    "dwt.forward": [("study", "dwt_forward"), ("cli", "dwt_forward")],
    "dwt.inverse": [("study", "dwt_inverse"), ("cli", "dwt_inverse")],
    "signals.add_noise": [("study", "add_noise")],
    "signals.generate": [("study", "generate_test_function")],
    "elicitation.estimate_sigma": [("study", "estimate_sigma")],
    "elicitation.beta_level": [("study", "beta_level")],
    "elicitation.alpha_level": [("study", "alpha_level")],
    "elicitation.lambda_from_s": [("study", "lambda_from_s")],
    "shrinkage.esr": [("study", "esr"), ("shrinkage", "esr")],
    "shrinkage.rule_statistics": [("shrinkage", "rule_statistics")],
    "shrinkage.noise_pdf": [("shrinkage.DoubleExponential", "pdf"),
                            ("shrinkage.Gaussian", "pdf")],
    "thresholds.hard": [("study", "hard_threshold")],
    "thresholds.soft": [("study", "soft_threshold")],
    "thresholds.universal": [("study", "universal_threshold")],
    "study.denoise": [("study", "denoise")],
    "study.mse": [("study", "mse")],
    "study.shrink_pyramid": [("study", "shrink_pyramid"), ("cli", "shrink_pyramid")],
    "study.run_study": [("study", "run_study")],
    "cli.read_signal_csv": [("cli", "read_signal_csv")],
    "cli.write_csv": [("cli", "write_signal_csv"), ("cli", "write_table_csv")],
    "cli.command": [("cli.cmd_denoise", "callback"), ("cli.cmd_coeffs", "callback")],
}


def _resolve(path: str):
    """The object at ``epashrink.<path>``, or None if its module is not
    loaded: tracing never imports a module the workload does not use."""
    module, _, rest = path.partition(".")
    target = sys.modules.get(f"epashrink.{module}")
    for part in filter(None, rest.split(".")):
        target = getattr(target, part, None)
    return target


class Tracer:
    """Records spans as [name, start, end, parent index, coefficient count]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count = name == "shrinkage.esr"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    int(np.size(args[0])) if count and args else 0]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        for name, sites in HOOKS.items():
            for path, attr in sites:
                owner = _resolve(path)
                if owner is None or not hasattr(owner, attr):
                    continue
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def add_span(self, name: str, start: float, end: float) -> None:
        self.spans.append([name, start, end, -1, 0])

    def extend(self, spans: list) -> None:
        """Append spans recorded elsewhere (a child process), keeping parents."""
        base = len(self.spans)
        for name, start, end, parent, coeffs in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1,
                               coeffs])


def summarise(spans: list) -> dict:
    """Per span name: calls, busy seconds, self seconds and coefficients."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _, coeffs) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0, "coeffs": 0})
        s["calls"] += 1
        s["busy"] += end - start
        s["self"] += end - start - child_time[i]
        s["coeffs"] += coeffs
    return out


def layer_metrics(spans: list, rounds: int) -> dict:
    """The per-layer metrics of BENCHMARK.json, as totals per round.

    Ratios are taken between counts of the same run and read 0 when their
    base layer was not called.
    """
    s = summarise(spans)

    def get(name, key):
        return s.get(name, {}).get(key, 0) / rounds

    def total(prefix, key):
        return sum(v[key] for k, v in s.items() if k.startswith(prefix)) / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "dwt.filter.calls": get("dwt.filter", "calls"),
        "dwt.filter.busy_s": get("dwt.filter", "busy"),
        "dwt.filter.calls_per_denoise": ratio(get("dwt.filter", "calls"),
                                              get("study.denoise", "calls")),
        "dwt.forward.calls": get("dwt.forward", "calls"),
        "dwt.forward.busy_s": get("dwt.forward", "busy"),
        "dwt.forward.calls_per_draw": ratio(get("dwt.forward", "calls"),
                                            get("signals.add_noise", "calls")),
        "dwt.inverse.calls": get("dwt.inverse", "calls"),
        "dwt.inverse.busy_s": get("dwt.inverse", "busy"),
        "signals.add_noise.calls": get("signals.add_noise", "calls"),
        "signals.add_noise.busy_s": get("signals.add_noise", "busy"),
        "signals.generate.busy_s": get("signals.generate", "busy"),
        "elicitation.calls": total("elicitation.", "calls"),
        "elicitation.busy_s": total("elicitation.", "busy"),
        "shrinkage.esr.calls": get("shrinkage.esr", "calls"),
        "shrinkage.esr.coeffs": get("shrinkage.esr", "coeffs"),
        "shrinkage.esr.busy_s": get("shrinkage.esr", "busy"),
        "shrinkage.esr.coeffs_per_call": ratio(get("shrinkage.esr", "coeffs"),
                                               get("shrinkage.esr", "calls")),
        "shrinkage.rule_statistics.calls": get("shrinkage.rule_statistics", "calls"),
        "shrinkage.rule_statistics.busy_s": get("shrinkage.rule_statistics", "busy"),
        "shrinkage.noise_pdf.calls": get("shrinkage.noise_pdf", "calls"),
        "shrinkage.noise_pdf.busy_s": get("shrinkage.noise_pdf", "busy"),
        "thresholds.calls": total("thresholds.", "calls"),
        "thresholds.busy_s": total("thresholds.", "busy"),
        "study.denoise.calls": get("study.denoise", "calls"),
        "study.mse.busy_s": get("study.mse", "busy"),
        "study.shrink_pyramid.self_s": get("study.shrink_pyramid", "self"),
        "study.run_study.self_s": get("study.run_study", "self"),
        "cli.import_s": get("cli.import", "busy"),
        "cli.read_signal_csv.busy_s": get("cli.read_signal_csv", "busy"),
        "cli.write_csv.busy_s": get("cli.write_csv", "busy"),
        "cli.command.self_s": get("cli.command", "self"),
    }
