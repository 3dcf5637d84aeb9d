"""The four workloads: inputs from a seed, whole rounds of operations, checks.

Every workload is a class with the same shape:

- the constructor is the set-up: it makes the inputs from the seed;
- ``warmup()`` runs one round whose outputs are checked in full against
  the independent references (reference.py) and whose timings are dropped;
- ``round(tracer)`` runs one whole round: the same operations every time,
  each timed on its own, each output checked outside the timed region;
- ``finish()`` runs the end-of-run checks and returns the timing metrics.

Operation kinds A and B are the two timings a workload contrasts; see
README.md for what they are on each workload and why.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

import bootstrap
from hostclock import HostClock
from epashrink import dwt, shrinkage, signals, study
from epashrink.elicitation import ElicitationConfig
from reference import (
    AMSE_TARGETS,
    check_amse,
    check_close,
    check_denoised,
    check_diagnostics,
    check_esr_sample,
    check_filter_taps,
    check_odd,
    check_pyramid,
    check_risk_symmetry,
    check_rule_statistics,
    coefficient_scale,
    ref_rule_statistics,
    reference_denoise,
    require,
)

FUNCTIONS = ("bumps", "blocks", "doppler", "heavisine")
WAVELET_ORDER = 10


def esr_values(d, alpha, beta, lam):
    return shrinkage.esr(d, shrinkage.MixturePriorParams(alpha, beta, lam))


def check_filters() -> None:
    """Closed-form db1/db2 taps and the identities of the order in use."""
    for order in (1, 2, WAVELET_ORDER):
        filt = dwt.make_daubechies_filter(order)
        check_filter_taps(order, filt.lowpass, filt.highpass)


def check_pipeline(y: np.ndarray, rule: study.RuleSpec, cfg: ElicitationConfig):
    """One denoise checked end to end: transform, elicitation, rule, inverse,
    the odd symmetry and the mean and energy properties. Returns the output."""
    filt = dwt.make_daubechies_filter(WAVELET_ORDER)
    ref_out, ref_diag, (ref_scaling, ref_details), _ = reference_denoise(
        y, rule.kind, cfg, filt.lowpass, filt.highpass, esr_values)
    pyramid = dwt.dwt_forward(y, filt, cfg.coarse_level)
    check_pyramid(pyramid.scaling, pyramid.details, ref_scaling, ref_details,
                  coefficient_scale(y))
    check_diagnostics(study.shrink_pyramid(pyramid, rule, cfg, y.size), ref_diag)
    out = study.denoise(signals.Signal(y), rule, cfg, WAVELET_ORDER).samples
    check_denoised(y, out, ref_out)
    check_odd(out, study.denoise(signals.Signal(-y), rule, cfg, WAVELET_ORDER).samples)
    return out


class Workload:
    """Counters and timings shared by the workloads.

    Every round repeats the same distinct operations, so each operation
    has one timing per round. The gated figures are medians over the run
    of each operation's reference time (hostclock.py), which takes out the
    host's drifting speed. The medians of the wall times go to the results
    file beside them.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.wall: dict[tuple, list] = defaultdict(list)
        self.ref: dict[tuple, list] = defaultdict(list)
        self.units: dict[tuple, int] = {}
        self.rounds = 0
        self.notes: dict = {}  # extra figures for the results file
        self.clock: HostClock | None = None

    def start_clock(self) -> None:
        """Called by warm-up, so that set-up alone never samples the host."""
        self.clock = HostClock()

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(what)

    def timed(self, kind: str, op, fn, *args, units: int = 1):
        """Run one operation of kind "a", "b" or other, doing `units` ops,
        and record its wall and reference times. Returns its result."""
        result, wall, ref = self.clock.call(fn, *args)
        self.record(kind, op, wall, ref, units)
        return result

    def record(self, kind: str, op, wall: float, ref: float, units: int = 1) -> None:
        self.wall[(kind, op)].append(wall)
        self.ref[(kind, op)].append(ref)
        self.units[(kind, op)] = units

    def clear_times(self) -> None:
        self.wall.clear()
        self.ref.clear()

    def round_ref_s(self) -> float:
        """Reference seconds of one round's timed operations, from medians."""
        return sum(statistics.median(t) for t in self.ref.values())

    def timing_metrics(self) -> dict:
        """ops_per_s, op_a_ms and op_b_ms from the median reference times."""
        def figures(times):
            med = {key: statistics.median(t) for key, t in times.items()}

            def per_op_ms(kind):
                keys = [k for k in med if k[0] == kind]
                return 1e3 * statistics.fmean(med[k] / self.units[k] for k in keys)

            return {"ops_per_s": sum(self.units.values()) / sum(med.values()),
                    "op_a_ms": per_op_ms("a"), "op_b_ms": per_op_ms("b")}

        self.notes["wall_figures"] = figures(self.wall)
        self.notes["op_wall_s"] = {str(k): v for k, v in self.wall.items()}
        self.notes["op_ref_s"] = {str(k): v for k, v in self.ref.items()}
        self.notes["clock_samples_s"] = self.clock.samples
        self.notes["repetitions"] = min(len(t) for t in self.ref.values())
        self.notes["host_speed"] = self.clock.speed()
        return figures(self.ref)


# ---------------------------------------------------------------------------


class StudyDesk(Workload):
    """run_study on the acceptance-desk grid, benchmark protocol.

    One round runs every cell with two replications, one run_study call
    per sample size; A and B are the time per denoise at n = 512 and
    n = 2048. AMSE is pooled over all rounds of the run.
    """

    name = "study-desk"
    SIZES = (512, 1024, 2048)
    SNRS = (0.2, 1.0, 3.0)
    REPS_PER_ROUND = 2
    MIN_REPS = 60  # the +-25% AMSE band is then at least 4 standard errors wide

    def __init__(self, seed: int, work: Path):
        super().__init__()
        self.seed = seed
        self.elicitation = study.benchmark_elicitation()
        self.rules = (study.RuleSpec("esr"), study.RuleSpec("soft"))
        truth = signals.generate_test_function(FUNCTIONS[seed % 4], 512)
        self.check_draw = signals.add_noise(truth, 1.0, (seed, 512)).samples
        self.mse: dict[tuple, list] = defaultdict(list)

    def config(self, n: int) -> study.StudyConfig:
        return study.StudyConfig(
            functions=tuple(signals.TestFunctionKind), sizes=(n,), snrs=self.SNRS,
            replications=self.REPS_PER_ROUND, rules=self.rules,
            elicitation=self.elicitation, seed=self.seed * 100_003 + self.rounds)

    def warmup(self) -> None:
        self.start_clock()
        check_filters()
        for rule in self.rules:
            check_pipeline(self.check_draw, rule, self.elicitation)
        self.round(None)
        self.clear_times()

    def round(self, tracer) -> None:
        per_size = len(FUNCTIONS) * len(self.SNRS) * len(self.rules) * self.REPS_PER_ROUND
        for n in self.SIZES:
            cfg = self.config(n)
            self.attempted += per_size
            kind = {512: "a", 2048: "b"}.get(n, "other")
            try:
                report = self.timed(kind, n, study.run_study, cfg, units=per_size)
            except Exception as exc:  # counted, and the run goes on
                self.fail(f"run_study n={n}: {exc!r}", per_size)
                continue
            require(len(report.cells) == per_size // self.REPS_PER_ROUND,
                    f"run_study returned {len(report.cells)} cells")
            for cell in report.cells:
                vals = np.asarray(cell.mse_samples, dtype=float)
                require(vals.shape == (self.REPS_PER_ROUND,) and np.isfinite(vals).all()
                        and (vals > 0).all() and math.isclose(cell.amse, vals.mean()),
                        f"bad cell {cell.function.value}/{cell.n}/{cell.snr}/{cell.rule}")
                self.mse[(cell.function.value, cell.n, cell.snr, cell.rule)].extend(vals)
        self.rounds += 1

    def finish(self) -> dict:
        while self.rounds * self.REPS_PER_ROUND < self.MIN_REPS:
            self.round(None)
        amse = {key: float(np.mean(v)) for key, v in self.mse.items()}
        self.notes["replications"] = self.rounds * self.REPS_PER_ROUND
        self.notes["amse"] = {"/".join(map(str, key)): amse[key]
                              for key in sorted(amse) if key[0] == "heavisine"
                              or key in {t[:4] for t in AMSE_TARGETS}}
        check_amse(amse)
        return self.timing_metrics()


# ---------------------------------------------------------------------------


class DenoiseLarge(Workload):
    """denoise of 65536-sample signals, CLI-default elicitation (MAD).

    One round denoises the four test functions at SNR 1 with A = esr and
    B = hard-universal. Every output must match the checked warm-up output
    for the same input.
    """

    name = "denoise-large"
    N = 65536

    def __init__(self, seed: int, work: Path):
        super().__init__()
        self.cfg = ElicitationConfig()
        self.inputs = [
            signals.add_noise(signals.generate_test_function(f, self.N), 1.0, (seed, i))
            for i, f in enumerate(FUNCTIONS)
        ]
        self.rules = {"a": study.RuleSpec("esr"), "b": study.RuleSpec("hard")}
        self.expected: dict = {}

    def warmup(self) -> None:
        self.start_clock()
        check_filters()
        for i, y in enumerate(self.inputs):
            for kind, rule in self.rules.items():
                self.expected[(i, kind)] = check_pipeline(y.samples, rule, self.cfg)
        self.round(None)
        self.clear_times()

    def round(self, tracer) -> None:
        for i, y in enumerate(self.inputs):
            tol = 1e-12 * coefficient_scale(y.samples)
            for kind, rule in self.rules.items():
                self.attempted += 1
                try:
                    out = self.timed(kind, i, study.denoise, y, rule, self.cfg, WAVELET_ORDER)
                except Exception as exc:
                    self.fail(f"denoise {FUNCTIONS[i]} {rule.label}: {exc!r}")
                    continue
                check_close(f"denoise {FUNCTIONS[i]} {rule.label}", out.samples,
                            self.expected[(i, kind)], tol)
        self.rounds += 1

    def finish(self) -> dict:
        return self.timing_metrics()


# ---------------------------------------------------------------------------


def _write_csv(path: Path, samples) -> None:
    path.write_text("y\n" + "".join("%.17g\n" % v for v in samples))


def _read_column(path: Path, column: int = 0) -> np.ndarray:
    rows = path.read_text().splitlines()[1:]
    return np.array([float(r.split(",")[column]) for r in rows])


class CliCold(Workload):
    """Fresh-process CLI runs on a 4096-sample CSV.

    A = ``denoise``, B = ``coeffs``, PAIRS times each per round. Each round
    also runs the two inputs of the named faults (a NaN sample, and samples
    of +-1e308 under the esr rule). They fail today, so every round attempts
    2 * PAIRS + 2 commands of which two fail; they are not timed.
    """

    name = "cli-cold"
    N = 4096
    PAIRS = 3
    FAULT_AT = (1000, 3000)

    def __init__(self, seed: int, work: Path):
        super().__init__()
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        truth = signals.generate_test_function("bumps", self.N)
        self.y = signals.add_noise(truth, 1.0, (seed,)).samples
        _write_csv(work / "signal.csv", self.y)
        # fault inputs do not depend on the seed
        base = signals.generate_test_function("heavisine", self.N).samples
        nan = base.copy()
        nan[self.FAULT_AT[0]] = np.nan
        _write_csv(work / "nan.csv", nan)
        huge = base.copy()
        huge[list(self.FAULT_AT)] = (1e308, -1e308)
        _write_csv(work / "huge.csv", huge)
        self.peak_rss_mb = 0.0

    def warmup(self) -> None:
        self.start_clock()
        check_filters()
        filt = dwt.make_daubechies_filter(WAVELET_ORDER)
        cfg = ElicitationConfig()  # the CLI defaults
        self.ref_out, self.ref_diag, (scaling, details), shrunk = reference_denoise(
            self.y, "esr", cfg, filt.lowpass, filt.highpass, esr_values)
        self.ref_empirical = np.abs(np.concatenate([scaling] + [details[j] for j in sorted(details)]))
        self.ref_shrunk = np.abs(np.concatenate([scaling] + [shrunk[j] for j in sorted(shrunk)]))
        self.ref_levels = np.concatenate(
            [np.zeros(scaling.size)] + [np.full(details[j].size, j) for j in sorted(details)])

    def _command(self, tracer, args: list) -> list:
        if tracer is None:
            return [sys.executable, "-m", "epashrink.cli", *args]
        shim = str(Path(__file__).resolve().parent / "cli_shim.py")
        return [sys.executable, shim, str(self.work / "spans.json"), *args]

    def _run(self, tracer, args: list):
        """Run one CLI command; return (exit code, stderr, wall seconds,
        reference seconds, max RSS MB)."""
        with open(self.work / "stdout.txt", "wb") as out, open(self.work / "stderr.txt", "wb") as err:
            code, usage, wall, ref = self.clock.run(
                self._command(tracer, args), cwd=self.work, env=bootstrap.child_env(),
                stdout=out, stderr=err)
        if tracer is not None and (self.work / "spans.json").exists():
            tracer.extend(json.loads((self.work / "spans.json").read_text()))
            (self.work / "spans.json").unlink()
        stderr = (self.work / "stderr.txt").read_text(errors="replace")
        return code, stderr, wall, ref, usage.ru_maxrss / 1024.0

    def _check_denoise(self) -> None:
        out = _read_column(self.work / "out.csv")
        check_denoised(self.y, out, self.ref_out)
        report = json.loads((self.work / "out.csv.report.json").read_text())
        require(report["n"] == self.N and report["rule"] == "esr", "sidecar header is wrong")
        check_diagnostics(report, self.ref_diag)

    def _check_coeffs(self) -> None:
        scale = coefficient_scale(self.y)
        empirical = _read_column(self.work / "c.empirical.csv", 3)
        shrunk = _read_column(self.work / "c.shrunk.csv", 3)
        levels = _read_column(self.work / "c.empirical.csv", 1)
        require(np.array_equal(levels, self.ref_levels), "coefficient table layout is wrong")
        check_close("empirical coefficient table", empirical, self.ref_empirical, 1e-12 * scale)
        check_close("shrunk coefficient table", shrunk, self.ref_shrunk, 1e-10 * scale)
        energy = self.y @ self.y
        require(abs(empirical @ empirical - energy) <= 1e-10 * energy,
                "empirical coefficient energy != signal energy")
        require(shrunk @ shrunk <= empirical @ empirical, "shrinking added energy")

    def round(self, tracer) -> None:
        ops = [("a", ["denoise", "signal.csv", "--out", "out.csv"]),
               ("b", ["coeffs", "signal.csv", "--out-prefix", "c"])] * self.PAIRS
        for kind, args in ops:
            for stale in self.work.glob("out.csv*"):
                stale.unlink()
            for stale in self.work.glob("c.*.csv"):
                stale.unlink()
            self.attempted += 1
            code, stderr, wall, ref, rss = self._run(tracer, args)
            if code != 0:
                self.fail(f"{args[0]} exited {code}: {stderr.strip()[-300:]}")
                continue
            self.record(kind, args[0], wall, ref)
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
            if kind == "a":
                self._check_denoise()
            else:
                self._check_coeffs()
        self._fault(tracer, "nan.csv", lambda code, err: code == 2 and "line" in err)
        self._fault(tracer, "huge.csv", lambda code, err: code == 5)
        self.rounds += 1

    def _fault(self, tracer, name: str, handled) -> None:
        """A named-fault input: it passes only with the documented exit code."""
        self.attempted += 1
        code, stderr, _, _, _ = self._run(tracer, ["denoise", name, "--out", "fault.csv"])
        if not handled(code, stderr):
            last = stderr.strip().splitlines()[-1:] or [""]
            self.fail(f"{name}: exit {code}: {last[0][:200]}")

    def finish(self) -> dict:
        return self.timing_metrics()


# ---------------------------------------------------------------------------


class RuleProfile(Workload):
    """rule_statistics for the criterion-6 parameters.

    alpha in {0.6, 0.8, 0.95, 0.99}, beta = 6, lambda = 3. The seed draws,
    per alpha, one theta in each quarter of [0, 0.75 beta]. One round
    evaluates those 16 thetas under A = DoubleExponential(lambda) and under
    B = Gaussian(1/sqrt(2 lambda)). Every round must reproduce the checked
    warm-up statistics.
    """

    name = "rule-profile"
    ALPHAS = (0.6, 0.8, 0.95, 0.99)
    BETA = 6.0
    LAM = 3.0
    STRATA = 4

    def __init__(self, seed: int, work: Path):
        super().__init__()
        self.models = {"a": ("dexp", shrinkage.DoubleExponential(self.LAM)),
                       "b": ("gauss", shrinkage.Gaussian(1.0 / math.sqrt(2.0 * self.LAM)))}
        self.params = [shrinkage.MixturePriorParams(a, self.BETA, self.LAM)
                       for a in self.ALPHAS]
        u = np.random.default_rng(seed).random((len(self.ALPHAS), self.STRATA))
        self.thetas = (np.arange(self.STRATA) + u) * (0.75 * self.BETA / self.STRATA)
        self.expected: dict = {}

    def warmup(self) -> None:
        self.start_clock()
        for params in self.params:
            ds = np.linspace(-2.0 * self.BETA, 2.0 * self.BETA, 17)
            check_esr_sample(ds, shrinkage.esr(ds, params), params.alpha, params.beta,
                             params.lam, idx=range(ds.size))
        self.round(None)
        for (kind, i, k), stats in self.expected.items():
            params, theta = self.params[i], float(self.thetas[i, k])
            ref = ref_rule_statistics(theta, params.beta, params.lam, self.models[kind][0],
                                      lambda d: shrinkage.esr(d, params))
            check_rule_statistics(theta, stats, ref)
        params, theta = self.params[2], float(self.thetas[2, 1])
        for _, model in self.models.values():
            pos = shrinkage.rule_statistics(theta, params, model).risk
            neg = shrinkage.rule_statistics(-theta, params, model).risk
            check_risk_symmetry(theta, pos, neg)
        self.clear_times()

    def round(self, tracer) -> None:
        for kind, (_, model) in self.models.items():
            for i, params in enumerate(self.params):
                for k, theta in enumerate(self.thetas[i]):
                    self.attempted += 1
                    try:
                        s = self.timed(kind, (i, k), shrinkage.rule_statistics,
                                       float(theta), params, model)
                    except Exception as exc:
                        self.fail(f"rule_statistics {kind} theta={theta}: {exc!r}")
                        continue
                    stats = (s.bias_sq, s.variance, s.risk)
                    check_rule_statistics(theta, stats, None)
                    first = self.expected.setdefault((kind, i, k), stats)
                    check_close(f"rule statistics at theta={theta}", stats, first,
                                1e-12 * max(1.0, abs(first[2])))
        self.rounds += 1

    def finish(self) -> dict:
        return self.timing_metrics()


WORKLOADS = {w.name: w for w in (StudyDesk, DenoiseLarge, CliCold, RuleProfile)}
