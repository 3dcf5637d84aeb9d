"""Independent reference computations and the output checks built on them.

Nothing here calls into epashrink: every reference value is recomputed from
its defining formula (filter identities, shifted-sum filter bank,
elicitation formulas, posterior mean by Gauss-Legendre quadrature,
threshold definitions). Each ``check_*`` function raises CheckFailure when
a result disagrees, so a corrupted result cannot pass silently; see
selftest.py.
"""

from __future__ import annotations

import math

import numpy as np

# clamps documented in the package README and study module
SIGMA_FLOOR = 1e-8
BETA_FLOOR = 1e-8
ALPHA_MIN = 1e-12
ALPHA_MAX = 1.0 - 1e-15
MAD_CONSISTENCY = 0.6745

ESR_TOL = 1e-6  # criterion 1: closed form against a quadrature oracle
RISK_SPLIT_TOL = 1e-8  # criterion 6: risk == bias^2 + variance

# closed-form extremal-phase taps, energy front-loaded
DB1 = np.array([1.0, 1.0]) / math.sqrt(2.0)
DB2 = np.array([1 + math.sqrt(3), 3 + math.sqrt(3), 3 - math.sqrt(3),
                1 - math.sqrt(3)]) / (4.0 * math.sqrt(2.0))


class CheckFailure(Exception):
    """An output of the program disagrees with its reference."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def _max_dev(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    require(a.shape == b.shape, f"shape {a.shape} != reference shape {b.shape}")
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def check_close(what: str, value, ref, tol: float) -> None:
    dev = _max_dev(value, ref)
    require(dev <= tol, f"{what}: max deviation {dev:.3e} from reference > {tol:.1e}")


# ---------------------------------------------------------------------------
# filter taps


def check_filter_taps(order: int, lowpass, highpass) -> None:
    """Defining identities of an orthonormal Daubechies pair."""
    h = np.asarray(lowpass, dtype=float)
    g = np.asarray(highpass, dtype=float)
    require(h.shape == (2 * order,) and g.shape == h.shape,
            f"db{order}: expected {2 * order} taps, got {h.shape}, {g.shape}")
    require(abs(h.sum() - math.sqrt(2.0)) <= 1e-12, f"db{order}: taps do not sum to sqrt(2)")
    require(abs(h @ h - 1.0) <= 1e-12, f"db{order}: taps are not unit norm")
    for m in range(1, order):
        require(abs(h[2 * m:] @ h[:-2 * m]) <= 1e-12,
                f"db{order}: shift-{2 * m} orthogonality fails")
    mirror = ((-1.0) ** np.arange(2 * order)) * h[::-1]
    require(np.array_equal(g, mirror), f"db{order}: highpass is not the mirror of lowpass")
    k = np.arange(2 * order, dtype=float)
    for p in range(order):
        moment = abs(np.dot(k**p, g))
        require(moment <= 1e-8 * max(np.dot(k**p, np.abs(g)), 1.0),
                f"db{order}: moment {p} of the highpass does not vanish")
    if order == 1:
        check_close("db1 taps", h, DB1, 1e-15)
    if order == 2:
        check_close("db2 taps", h, DB2, 1e-15)


# ---------------------------------------------------------------------------
# periodic filter bank as shifted sums


def ref_forward(y, h, g, coarse_level: int):
    """Periodic Mallat analysis: c[k] = sum_m h[m] a[(2k + m) mod N]."""
    approx = np.asarray(y, dtype=float)
    depth = approx.size.bit_length() - 1
    details = {}
    for j in range(depth - 1, coarse_level - 1, -1):
        lo = np.zeros(approx.size // 2)
        hi = np.zeros(approx.size // 2)
        for m in range(len(h)):
            shifted = np.roll(approx, -m)[::2]
            lo += h[m] * shifted
            hi += g[m] * shifted
        approx, details[j] = lo, hi
    return approx, details


def ref_inverse(scaling, details: dict, h, g):
    """Adjoint of ref_forward: a[(2k + m) mod N] += h[m] c[k] + g[m] d[k]."""
    approx = np.asarray(scaling, dtype=float)
    for j in sorted(details):
        d = details[j]
        out = np.zeros(2 * approx.size)
        for m in range(len(h)):
            up = np.zeros(2 * approx.size)
            up[::2] = h[m] * approx + g[m] * d
            out += np.roll(up, m)
        approx = out
    return approx


def coefficient_scale(y) -> float:
    """Tolerance scale for transform outputs: the signal's L2 norm."""
    return max(1.0, float(np.linalg.norm(y)))


def check_pyramid(scaling, details: dict, ref_scaling, ref_details: dict, scale: float):
    require(sorted(details) == sorted(ref_details),
            f"detail levels {sorted(details)} != {sorted(ref_details)}")
    tol = 1e-12 * scale
    check_close("scaling block", scaling, ref_scaling, tol)
    for j in ref_details:
        check_close(f"detail level {j}", details[j], ref_details[j], tol)


# ---------------------------------------------------------------------------
# elicitation


def ref_sigma(finest, method: str) -> float:
    d = np.asarray(finest, dtype=float)
    if method == "sd":
        mean = d.sum() / d.size
        s = math.sqrt(float(((d - mean) ** 2).sum()) / (d.size - 1))
    else:
        s = float(np.median(np.abs(d))) / MAD_CONSISTENCY
    return max(s, SIGMA_FLOOR)


def ref_lambda(s: float, c: float, tau: float) -> float:
    return 1.0 / s**2 + (c / tau) * math.exp(-s / tau)


def ref_alpha(j: int, coarse_level: int, gamma: float, l: float) -> float:
    base = j - coarse_level + l
    if base <= 1.0:
        return ALPHA_MIN
    return min(max(1.0 - base ** (-gamma), ALPHA_MIN), ALPHA_MAX)


def ref_beta(block) -> float:
    beta = float(np.max(np.abs(block)))
    return beta if beta > 0.0 else BETA_FLOOR


def ref_eta(sigma: float, n: int) -> float:
    return sigma * math.sqrt(2.0 * math.log(n))


def ref_diagnostics(details: dict, rule: str, cfg, n: int) -> dict:
    """Elicited quantities for one pyramid, in the layout of the sidecar."""
    levels = sorted(details)
    sigma = ref_sigma(details[levels[-1]], cfg.sigma_estimator.value)
    diag = {"sigma_hat": sigma, "levels": [
        {"level": j, "alpha": ref_alpha(j, cfg.coarse_level, cfg.gamma, cfg.l),
         "beta": ref_beta(details[j])} for j in levels]}
    if rule == "esr":
        diag["lambda"] = ref_lambda(sigma, cfg.c, cfg.tau)
    else:
        diag["eta"] = ref_eta(sigma, n)
    return diag


def check_diagnostics(diag: dict, ref: dict) -> None:
    """Elicited values against the formulas, to 1e-10 relative."""
    def close(what, a, b):
        require(abs(a - b) <= 1e-10 * max(abs(b), 1e-300),
                f"{what}: {a!r} != reference {b!r}")

    for key in ("sigma_hat", "lambda", "eta"):
        if key in ref:
            require(key in diag, f"diagnostics lack {key!r}")
            close(key, diag[key], ref[key])
    require(len(diag["levels"]) == len(ref["levels"]),
            f"{len(diag['levels'])} levels reported, expected {len(ref['levels'])}")
    for got, want in zip(diag["levels"], ref["levels"]):
        require(got["level"] == want["level"], f"level {got['level']} != {want['level']}")
        close(f"alpha at level {want['level']}", got["alpha"], want["alpha"])
        close(f"beta at level {want['level']}", got["beta"], want["beta"])


# ---------------------------------------------------------------------------
# posterior mean by quadrature

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _gauss_legendre(func, breakpoints, scale: float) -> float:
    """Composite 20-point Gauss-Legendre over panels no wider than scale/2.

    The integrands here are smooth between the breakpoints and vary on the
    length scale of the likelihood, so this is exact to rounding.
    """
    total = 0.0
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        if hi <= lo:
            continue
        panels = int(min(max(math.ceil((hi - lo) / (0.5 * scale)), 1), 2000))
        edges = np.linspace(lo, hi, panels + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        x = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        total += float(np.sum(half[:, None] * _GL_WEIGHTS[None, :] * func(x)))
    return total


def ref_posterior_mean(d: float, alpha: float, beta: float, lam: float) -> float:
    """E[theta | d] under alpha*delta_0 + (1-alpha)*Epanechnikov(beta) and
    the double-exponential likelihood of rate a = sqrt(2 lam).

    Every kernel value is divided by exp(-a * max(|d| - beta, 0)), which
    cancels in the ratio and keeps every exponent nonpositive.
    """
    a = math.sqrt(2.0 * lam)
    shift = max(abs(d) - beta, 0.0)

    def kernel(t):
        return np.exp(-a * (np.abs(d - t) - shift))

    def slab(t):
        return 0.75 / beta**3 * (beta**2 - t**2)

    points = sorted({-beta, beta} | ({d} if abs(d) < beta else set()))
    num = _gauss_legendre(lambda t: t * slab(t) * kernel(t), points, 1.0 / a)
    den = _gauss_legendre(lambda t: slab(t) * kernel(t), points, 1.0 / a)
    spike = math.exp(-a * (abs(d) - shift))
    return (1.0 - alpha) * num / (alpha * spike + (1.0 - alpha) * den)


def sample_indices(n: int, count: int = 8) -> np.ndarray:
    """Evenly spread positions of a block, always including the first."""
    return np.unique(np.linspace(0, n - 1, min(count, n)).astype(int))


def check_esr_sample(d, out, alpha: float, beta: float, lam: float, idx=None) -> None:
    """Shrunk coefficients at sampled positions against the quadrature mean."""
    d = np.asarray(d, dtype=float)
    out = np.asarray(out, dtype=float)
    require(out.shape == d.shape, "esr output has the wrong shape")
    if idx is None:
        idx = np.union1d(sample_indices(d.size), [int(np.argmax(np.abs(d)))])
    for i in idx:
        want = ref_posterior_mean(float(d[i]), alpha, beta, lam)
        require(abs(out[i] - want) <= ESR_TOL,
                f"esr({float(d[i])!r}) = {float(out[i])!r}, quadrature gives {want!r}")


def ref_hard(d, eta: float):
    d = np.asarray(d, dtype=float)
    return np.where(np.abs(d) > eta, d, 0.0)


def ref_soft(d, eta: float):
    d = np.asarray(d, dtype=float)
    mag = np.maximum(np.abs(d) - eta, 0.0)
    return np.where(d < 0, -mag, mag)


# ---------------------------------------------------------------------------
# whole pipeline


def reference_denoise(y, rule: str, cfg, h, g, esr_fn):
    """Reference transform, elicitation and rule, then reference inverse.

    The ESR values come from ``esr_fn`` (the rule under test) and are
    checked on a sample of positions per level against the quadrature
    mean; the thresholds are applied from their definitions. Returns the
    output samples, the diagnostics and the empirical and shrunk blocks.
    """
    y = np.asarray(y, dtype=float)
    scaling, details = ref_forward(y, h, g, cfg.coarse_level)
    diag = ref_diagnostics(details, rule, cfg, y.size)
    shrunk = {}
    for entry in diag["levels"]:
        j = entry["level"]
        if rule == "esr":
            shrunk[j] = np.asarray(esr_fn(details[j], entry["alpha"], entry["beta"],
                                          diag["lambda"]), dtype=float)
            check_esr_sample(details[j], shrunk[j], entry["alpha"], entry["beta"],
                             diag["lambda"])
        elif rule == "hard":
            shrunk[j] = ref_hard(details[j], diag["eta"])
        else:
            shrunk[j] = ref_soft(details[j], diag["eta"])
    out = ref_inverse(scaling, shrunk, h, g)
    return out, diag, (scaling, details), shrunk


def check_denoised(y, out, ref_out) -> None:
    """Output against the reference pipeline, plus the pipeline properties
    that need no reference: the scaling block passes through at J0 = 0, so
    the mean is kept, and shrinkage never adds energy."""
    y = np.asarray(y, dtype=float)
    out = np.asarray(out, dtype=float)
    require(np.isfinite(out).all(), "denoised output is not finite")
    check_close("denoised samples", out, ref_out, 1e-10 * max(1.0, float(np.max(np.abs(y)))))
    check_mean_and_energy(y, out)


def check_mean_and_energy(y, out) -> None:
    y = np.asarray(y, dtype=float)
    out = np.asarray(out, dtype=float)
    scale = max(1.0, float(np.max(np.abs(y))))
    require(abs(out.mean() - y.mean()) <= 1e-10 * scale,
            f"mean changed: {float(out.mean())!r} vs input {float(y.mean())!r}")
    require(out @ out <= (y @ y) * (1.0 + 1e-12),
            f"output energy {float(out @ out)!r} exceeds input energy {float(y @ y)!r}")


def check_odd(out, out_of_negated) -> None:
    """denoise(-y) == -denoise(y), bit for bit."""
    require(np.array_equal(np.asarray(out_of_negated), -np.asarray(out)),
            "denoise(-y) != -denoise(y)")


# ---------------------------------------------------------------------------
# frequentist profiles


def _noise_model(kind: str, lam: float):
    """pdf, P(d > x) and length scale of the noise model around theta."""
    if kind == "dexp":
        a = math.sqrt(2.0 * lam)

        def pdf(x, theta):
            return 0.5 * a * np.exp(-a * np.abs(x - theta))

        def sf(x, theta):
            if x >= theta:
                return 0.5 * math.exp(-a * (x - theta))
            return 1.0 - 0.5 * math.exp(-a * (theta - x))

        return pdf, sf, 1.0 / a
    sigma = 1.0 / math.sqrt(2.0 * lam)

    def pdf(x, theta):
        return np.exp(-0.5 * ((x - theta) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))

    def sf(x, theta):
        return 0.5 * math.erfc((x - theta) / (sigma * math.sqrt(2.0)))

    return pdf, sf, sigma


def ref_rule_statistics(theta: float, beta: float, lam: float, kind: str, esr_fn):
    """(bias^2, variance, risk) of the rule at theta by composite quadrature
    on [-beta, beta] split at {-beta, 0, theta, beta}, plus the exact tails
    where the rule is its plateau value."""
    pdf, sf, scale = _noise_model(kind, lam)
    points = sorted({-beta, 0.0, beta} | ({theta} if abs(theta) < beta else set()))
    plateau = float(esr_fn(np.array([beta]))[0])

    def moment(f):
        return _gauss_legendre(lambda x: f(esr_fn(x.ravel()).reshape(x.shape))
                               * pdf(x, theta), points, scale)

    p_hi = sf(beta, theta)
    p_lo = 1.0 - sf(-beta, theta)
    mean = moment(lambda r: r) + plateau * (p_hi - p_lo)
    second = moment(lambda r: r * r) + plateau**2 * (p_hi + p_lo)
    risk = (moment(lambda r: (r - theta) ** 2) + (plateau - theta) ** 2 * p_hi
            + (plateau + theta) ** 2 * p_lo)
    return (mean - theta) ** 2, second - mean**2, risk


def check_rule_statistics(theta, stats, ref) -> None:
    bias_sq, variance, risk = stats
    require(all(math.isfinite(v) for v in stats), f"non-finite statistics at theta={theta}")
    require(abs(risk - bias_sq - variance) < RISK_SPLIT_TOL,
            f"risk {risk!r} != bias^2 + variance at theta={theta}")
    if ref is not None:
        for what, got, want in zip(("bias^2", "variance", "risk"), stats, ref):
            require(abs(got - want) <= 1e-7 * max(1.0, abs(want)),
                    f"{what} at theta={theta}: {got!r}, quadrature gives {want!r}")


def check_risk_symmetry(theta, risk_pos: float, risk_neg: float) -> None:
    require(abs(risk_pos - risk_neg) <= 1e-10 * max(abs(risk_pos), 1.0),
            f"risk({theta}) = {risk_pos!r} but risk(-{theta}) = {risk_neg!r}")


# ---------------------------------------------------------------------------
# Monte-Carlo reproduction

# Published AMSE values (300-replication runs of the benchmark protocol),
# the same six cells as AMSE_TARGETS in tests/test_acceptance.py.
AMSE_TARGETS = (
    ("heavisine", 1024, 3.0, "esr", 0.352),
    ("heavisine", 1024, 1.0, "esr", 1.107),
    ("doppler", 2048, 0.2, "esr", 28.282),
    ("doppler", 2048, 0.2, "soft-universal", 46.385),
    ("bumps", 2048, 1.0, "esr", 9.86),
    ("blocks", 512, 1.0, "esr", 9.924),
)
AMSE_BAND = 0.25


def check_amse(amse: dict) -> None:
    """Pooled AMSE per (function, n, snr, rule) against the published cells,
    the monotone decrease in n, and the esr-beats-soft ordering."""
    for function, n, snr, rule, target in AMSE_TARGETS:
        value = amse[(function, n, snr, rule)]
        require(abs(value - target) <= AMSE_BAND * target,
                f"AMSE {function}/{n}/{snr}/{rule} = {value:.4f}, "
                f"outside +-25% of {target}")
    heavisine = [amse[("heavisine", n, 1.0, "esr")] for n in (512, 1024, 2048)]
    require(heavisine[0] > heavisine[1] > heavisine[2],
            f"heavisine AMSE at SNR 1 does not decrease with n: {heavisine}")
    esr_v = amse[("doppler", 2048, 0.2, "esr")]
    soft_v = amse[("doppler", 2048, 0.2, "soft-universal")]
    require(esr_v < soft_v, f"esr ({esr_v:.3f}) does not beat soft ({soft_v:.3f}) "
                            "on doppler/2048/0.2")
