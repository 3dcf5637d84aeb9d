#!/usr/bin/env python3
"""Show that the benchmark's checks can fail.

    python3 perfbench/selftest.py

Each case runs one check on a correct result, which must pass, and on a
deliberately corrupted copy (one perturbed coefficient, a flipped sign, a
wrong noise-scale estimate, ...), which must raise CheckFailure. Exits 1 if
any correct result is rejected or any corruption gets through.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import bootstrap  # noqa: E402,F401

import numpy as np  # noqa: E402

from epashrink import dwt, shrinkage, signals, study  # noqa: E402
from epashrink.elicitation import ElicitationConfig  # noqa: E402
import reference as ref  # noqa: E402
from workloads import CliCold, esr_values  # noqa: E402


def bumped(a, i=0, by=1e-6):
    out = np.array(a, dtype=float, copy=True)
    out.flat[i] += by
    return out


def cases(work: Path):
    """Yield (name, check on the correct result, check on a corrupted one)."""
    filt = dwt.make_daubechies_filter(10)
    h, g = filt.lowpass, filt.highpass
    yield ("filter identities", lambda: ref.check_filter_taps(10, h, g),
           lambda: ref.check_filter_taps(10, bumped(h, 3, 1e-9),
                                         ((-1.0) ** np.arange(20)) * bumped(h, 3, 1e-9)[::-1]))
    db2 = dwt.make_daubechies_filter(2)
    yield ("closed-form db2 taps", lambda: ref.check_filter_taps(2, db2.lowpass, db2.highpass),
           lambda: ref.check_filter_taps(2, db2.lowpass[::-1], db2.lowpass * [1, -1, 1, -1]))

    truth = signals.generate_test_function("doppler", 1024)
    y = signals.add_noise(truth, 1.0, (7,)).samples
    cfg = study.benchmark_elicitation()
    scale = ref.coefficient_scale(y)
    pyramid = dwt.dwt_forward(y, filt)
    r_scaling, r_details = ref.ref_forward(y, h, g, 0)
    yield ("forward transform",
           lambda: ref.check_pyramid(pyramid.scaling, pyramid.details, r_scaling, r_details, scale),
           lambda: ref.check_pyramid(pyramid.scaling, {**pyramid.details, 6: bumped(pyramid.details[6], 5)},
                                     r_scaling, r_details, scale))
    yield ("inverse transform",
           lambda: ref.check_close("inverse", dwt.dwt_inverse(pyramid, filt),
                                   ref.ref_inverse(r_scaling, r_details, h, g), 1e-12 * scale),
           lambda: ref.check_close("inverse", bumped(dwt.dwt_inverse(pyramid, filt), 100),
                                   ref.ref_inverse(r_scaling, r_details, h, g), 1e-12 * scale))

    esr_rule = study.RuleSpec("esr")
    diag = study.shrink_pyramid(pyramid.copy(), esr_rule, cfg, y.size)
    r_diag = ref.ref_diagnostics(r_details, "esr", cfg, y.size)
    wrong_sigma = {**diag, "sigma_hat": diag["sigma_hat"] * 1.001}
    unclamped = {**diag, "levels": [{**diag["levels"][0], "alpha": 0.0}] + diag["levels"][1:]}
    yield ("noise-scale estimate", lambda: ref.check_diagnostics(diag, r_diag),
           lambda: ref.check_diagnostics(wrong_sigma, r_diag))
    yield ("spike-weight clamp", lambda: ref.check_diagnostics(diag, r_diag),
           lambda: ref.check_diagnostics(unclamped, r_diag))

    level = r_diag["levels"][7]
    d = r_details[7]
    shrunk = esr_values(d, level["alpha"], level["beta"], r_diag["lambda"])
    args = (level["alpha"], level["beta"], r_diag["lambda"])
    yield ("esr against quadrature", lambda: ref.check_esr_sample(d, shrunk, *args),
           lambda: ref.check_esr_sample(d, bumped(shrunk, 0, 1e-5), *args))

    for rule in (esr_rule, study.RuleSpec("hard"), study.RuleSpec("soft")):
        out = study.denoise(signals.Signal(y), rule, cfg).samples
        r_out = ref.reference_denoise(y, rule.kind, cfg, h, g, esr_values)[0]
        flipped = out.copy()
        k = int(np.argmax(np.abs(out - out.mean())))
        flipped[k] = -flipped[k]
        yield (f"{rule.label} pipeline output", lambda o=out, r=r_out: ref.check_denoised(y, o, r),
               lambda f=flipped, r=r_out: ref.check_denoised(y, f, r))

    out = study.denoise(signals.Signal(y), esr_rule, cfg).samples
    neg = study.denoise(signals.Signal(-y), esr_rule, cfg).samples
    yield ("odd symmetry", lambda: ref.check_odd(out, neg),
           lambda: ref.check_odd(out, bumped(neg, 10, abs(neg[10]) * 1e-15 or 1e-300)))
    yield ("mean passes through", lambda: ref.check_mean_and_energy(y, out),
           lambda: ref.check_mean_and_energy(y, out + 1e-6))
    yield ("energy does not grow", lambda: ref.check_mean_and_energy(y, out),
           lambda: ref.check_mean_and_energy(y, y.mean() + (y - y.mean()) * 1.001))

    params = shrinkage.MixturePriorParams(0.95, 6.0, 3.0)
    theta = 1.3
    for kind, model in (("dexp", shrinkage.DoubleExponential(3.0)),
                        ("gauss", shrinkage.Gaussian(1.0 / math.sqrt(6.0)))):
        s = shrinkage.rule_statistics(theta, params, model)
        stats = (s.bias_sq, s.variance, s.risk)
        r_stats = ref.ref_rule_statistics(theta, 6.0, 3.0, kind, lambda x: shrinkage.esr(x, params))
        shifted = (s.bias_sq + 1e-5, s.variance - 1e-5, s.risk)
        yield (f"risk decomposition ({kind})",
               lambda st=stats, r=r_stats: ref.check_rule_statistics(theta, st, r),
               lambda st=stats: ref.check_rule_statistics(theta, (st[0], st[1], st[2] + 1e-7), None))
        yield (f"risk against quadrature ({kind})",
               lambda st=stats, r=r_stats: ref.check_rule_statistics(theta, st, r),
               lambda sh=shifted, r=r_stats: ref.check_rule_statistics(theta, sh, r))
    risk = shrinkage.rule_statistics(theta, params).risk
    yield ("risk symmetry", lambda: ref.check_risk_symmetry(theta, risk, risk),
           lambda: ref.check_risk_symmetry(theta, risk, risk * (1 + 1e-8)))

    amse = {(f, n, snr, rule): value for f, n, snr, rule, value in ref.AMSE_TARGETS}
    amse.update({("heavisine", 512, 1.0, "esr"): 1.6, ("heavisine", 2048, 1.0, "esr"): 0.8})
    off_band = {**amse, ("bumps", 2048, 1.0, "esr"): 9.86 * 1.3}
    not_monotone = {**amse, ("heavisine", 2048, 1.0, "esr"): 1.2}
    yield ("published AMSE band", lambda: ref.check_amse(amse), lambda: ref.check_amse(off_band))
    yield ("AMSE decreases with n", lambda: ref.check_amse(amse),
           lambda: ref.check_amse(not_monotone))

    cli = CliCold(3, work)
    cli.warmup()
    code, err, _, _, _ = cli._run(None, ["denoise", "signal.csv", "--out", "out.csv"])
    assert code == 0, err
    code, err, _, _, _ = cli._run(None, ["coeffs", "signal.csv", "--out-prefix", "c"])
    assert code == 0, err
    originals = {p: p.read_text() for p in (work / "out.csv", work / "out.csv.report.json",
                                            work / "c.empirical.csv")}

    def corrupt(path, edit, check):
        def run():
            path.write_text(edit(originals[path]))
            try:
                check()
            finally:
                path.write_text(originals[path])
        return run

    def bump_row(text, row=200):
        lines = text.splitlines()
        fields = lines[row].split(",")
        fields[-1] = repr(float(fields[-1]) * (1 + 1e-6) + 1e-9)
        lines[row] = ",".join(fields)
        return "\n".join(lines) + "\n"

    def wrong_lambda(text):
        report = json.loads(text)
        report["lambda"] *= 1.001
        return json.dumps(report)

    yield ("cli denoise csv", cli._check_denoise,
           corrupt(work / "out.csv", bump_row, cli._check_denoise))
    yield ("cli denoise sidecar", cli._check_denoise,
           corrupt(work / "out.csv.report.json", wrong_lambda, cli._check_denoise))
    yield ("cli coeffs energy identity", cli._check_coeffs,
           corrupt(work / "c.empirical.csv", bump_row, cli._check_coeffs))


def main() -> int:
    work = HERE / "work" / f"selftest-{os.getpid()}"
    bad = 0
    try:
        for name, good, corrupted in cases(work):
            try:
                good()
                accepted = True
            except ref.CheckFailure as exc:
                accepted, detail = False, str(exc)
            try:
                corrupted()
                caught = False
            except ref.CheckFailure as exc:
                caught, detail_bad = True, str(exc)
            ok = accepted and caught
            bad += not ok
            note = detail_bad if ok else (detail if not accepted else "corruption passed")
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {note[:110]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{bad} of the self-test cases failed" if bad else "all checks reject their corruption")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
