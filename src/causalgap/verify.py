"""Self-check suites wiring the closed forms to their brute-force oracles.

Each check returns a CheckResult instead of raising, so the CLI can print a
full pass/fail table.  Randomized checks derive every draw from the given
seed; two runs with the same seed produce identical results, including the
detail strings.  Each such check draws from its own random.Random, seeded
with seed * 1000 + a stream number below 1000, so the draws are the same on
every platform and numpy version and verify needs only numpy's core: a
kernel's taps are bytes of that stream, mapped to doubles by numpy's
integer ops.  Each array check compares energies, adds back the mean of
the kernel tail its grid misses (the oracles add it themselves), and allows
the proven rest, its rule's error and _ROUNDING.
"""

from __future__ import annotations

import math
import random

import numpy as np

from . import analog, digital, operators
from ._frozen import Frozen
from .errors import DomainError
from .kernel import TWO_PI, BandpassInterval, oscillatory_tail_integral, oscillatory_tail_sum
from .oracle import (
    _analog_tail,
    _digital_tail,
    _midpoint_energy,
    analog_distance_oracle,
    digital_distance_oracle,
)
from .signals import AnalogDelay, DigitalDelay, DigitalSequence

__all__ = ["CheckResult", "run_checks", "SUITES"]

PI_4 = 0.25 * math.pi
#: allowance for rounding in the sums the oracle checks compare, far above it
_ROUNDING = 1e-12


class CheckResult(Frozen):
    __slots__ = ("suite", "name", "passed", "detail")

    def __init__(self, suite: str, name: str, passed: bool, detail: str) -> None:
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)


def _fmt(x: float) -> str:
    return format(x, ".3e")


def _result(suite: str, name: str, worst: float, tol: float) -> CheckResult:
    return CheckResult(
        suite, name, worst <= tol, f"worst {_fmt(worst)} tol {_fmt(tol)}"
    )


def _worst_case(suite: str, name: str, cases) -> CheckResult:
    """The result for the (gap, bound) pair with the largest gap / bound."""
    return _result(suite, name, *max(cases, key=lambda case: case[0] / case[1]))


def _rule_error(c: float, a: float, b: float, dt: float, k: int) -> float:
    """Bound on |rule - integral| of f = |h|^2 = (1 - cos ct) / (pi t^2) over
    [a, b], 0 < a < b <= inf, for the midpoint (k = 24) or trapezoid (k = 12)
    rule of step dt: Euler-Maclaurin (DLMF 2.10.1) to its f' term, the rest at
    most dt^4/384 times the integral of |f^(4)| beyond a, by |1 - cos| <= 2."""

    def df(t: float) -> float:
        if math.isinf(t):
            return 0.0
        return (c * t * math.sin(c * t) - 2.0 * (1.0 - math.cos(c * t))) / (math.pi * t**3)

    d4 = (c**4 / a + 4 * c**3 / a**2 + 12 * c**2 / a**3 + 24 * c / a**4 + 48 / a**5) / math.pi
    return dt**2 / k * (abs(df(a)) + abs(df(b))) + dt**4 / 384 * d4


def _rng(seed: int, stream: int) -> random.Random:
    """The generator of one check's draws: stream < 1000 numbers the check."""
    return random.Random(seed * 1000 + stream)


# ---------------------------------------------------------------- analog


def _random_analog_bands(seed: int, n: int) -> list[BandpassInterval]:
    rng = _rng(seed, 101)
    bands = []
    while len(bands) < n:
        a, b = sorted((rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)))
        if b - a > 1e-3:
            bands.append(BandpassInterval.analog(a, b))
    return bands


def _chk_causal_constants(seed: int) -> CheckResult:
    worst = 0.0
    for band in _random_analog_bands(seed, 25):
        rep = analog.causal_report(band)
        worst = max(
            worst,
            abs(rep.angle - PI_4),
            abs(rep.distance - math.sqrt(0.5 * (band.b - band.a))),
        )
    return _result("analog", "causal-constants", worst, 1e-15)


def _chk_delay_zero(seed: int) -> CheckResult:
    worst = 0.0
    for band in (
        BandpassInterval.analog(0.0, 2.0),
        BandpassInterval.analog(-2.0, 3.0),
        BandpassInterval.analog(0.0, math.pi),
    ):
        zero = analog.delayed_report(band, AnalogDelay(0.0))
        causal = analog.causal_report(band)
        worst = max(
            worst, abs(zero.distance - causal.distance), abs(zero.angle - causal.angle)
        )
    return _result("analog", "delay-zero-matches-causal", worst, 1e-12)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1] for even n, as (nodes, weights).

    Newton's method on P_n from Tricomi's guesses cos(pi (i + 3/4) / (n + 1/2))
    finds the positive nodes, with P_n and P_n' from the three-term
    recurrence; each weight is 2 / ((1 - x^2) P_n'^2), P_n' taken at the last
    step.  The negative half mirrors the positive one, so the rule is exactly
    symmetric.
    """
    x = np.cos(math.pi * (np.arange(n // 2) + 0.75) / (n + 0.5))
    for _ in range(10):  # quadratic convergence: 4 steps reach rounding
        p0, p1 = 1.0, x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        step = p1 / dp
        x = x - step
        if np.abs(step).max() <= 1e-15:
            break
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return np.concatenate([-x, x[::-1]]), np.concatenate([w, w[::-1]])


#: the 64-point Gauss-Legendre rule on [-1, 1], as (nodes, weights)
_GAUSS_LEGENDRE_64 = _gauss_legendre(64)


def _chk_quad_vs_si(seed: int) -> CheckResult:
    # kernel mass over [-T, T]: the closed form against a fixed 64-point
    # Gauss-Legendre rule on [0, T] of 2 sin^2(c t / 2) / (pi t^2), which
    # shares no code with it
    nodes, weights = _GAUSS_LEGENDRE_64
    worst = 0.0
    for c in (0.5, 1.0, math.pi, 6.0):
        for T in (0.1, 1.0, 10.0):
            t = 0.5 * T * (nodes + 1.0)
            kernel = 2.0 * np.sin(0.5 * c * t) ** 2 / (math.pi * t * t)
            rule = T * float(np.dot(weights, kernel))
            closed = c - 2.0 * oscillatory_tail_integral(c, T) / math.pi
            worst = max(worst, abs(rule - closed))
    return _result("analog", "quadrature-vs-sine-integral", worst, 1e-8)


def _chk_distance_monotone(seed: int) -> CheckResult:
    rng = _rng(seed, 102)
    band = _random_analog_bands(seed, 1)[0]
    ladder = sorted(rng.uniform(0.0, 100.0) for _ in range(8))
    dist = [analog.delayed_distance_si(band, AnalogDelay(T)) for T in ladder]
    worst = max(
        (dist[i + 1] - dist[i] for i in range(len(dist) - 1)), default=0.0
    )
    return _result("analog", "distance-nonincreasing-in-T", max(0.0, worst), 1e-10)


def _chk_angle_range(seed: int) -> CheckResult:
    worst = 0.0
    for c in (0.5, math.pi, 6.0):
        band = BandpassInterval.analog(0.0, c)
        for T in (0.0, 0.7, 3.0, 20.0):
            rep = analog.delayed_report(band, AnalogDelay(T))
            worst = max(worst, -rep.angle, rep.angle - PI_4)
    return _result("analog", "angle-within-quarter-turn", max(0.0, worst), 1e-12)


def _chk_analog_oracle(seed: int) -> CheckResult:
    # the midpoints cover [-R, -T]; the oracle adds back the energy beyond -R
    band = BandpassInterval.analog(0.0, 2.0)
    c, T, radius, dt = band.bandwidth, 0.5, 1e2, 1e-2
    rep = analog.delayed_report(band, AnalogDelay(T))
    orc = analog_distance_oracle(band, AnalogDelay(T), radius, dt)
    gap = abs(rep.distance**2 - orc.value**2)
    tol = orc.tail_bound + _rule_error(c, T, radius, dt, 24) + _ROUNDING
    return _result("analog", "riemann-oracle-agreement", gap, tol)


def _chk_plancherel(seed: int) -> CheckResult:
    # |h|^2 holds no frequency beyond c < 2 pi / dt, so by Poisson summation
    # the midpoints over the whole line sum to c exactly: what [-R, R] misses
    # is the two tails, each sampled by the midpoint rule
    band = BandpassInterval.analog(0.0, 2.0)
    c, radius, dt = band.bandwidth, 1e2, 1e-2
    energy = _midpoint_energy(band, -radius, dt, int(round(2 * radius / dt)))
    mean, rest = _analog_tail(c, radius)
    gap = abs(energy + 2.0 * mean - c)
    tol = 2.0 * (rest + _rule_error(c, radius, math.inf, dt, 24)) + _ROUNDING
    return _result("analog", "kernel-norm-plancherel", gap, tol)


def _chk_bandwidth_to_zero(seed: int) -> CheckResult:
    band = BandpassInterval.analog(0.0, 1e-6)
    rep = analog.delayed_report(band, AnalogDelay(1.0))
    return _result("analog", "narrow-band-angle-limit", abs(rep.angle - PI_4), 1e-3)


# ---------------------------------------------------------------- digital


def _half_circle() -> BandpassInterval:
    return BandpassInterval.digital(0.5 * math.pi, 1.5 * math.pi)


def _chk_half_circle_constants(seed: int) -> CheckResult:
    rep = digital.causal_report_digital(_half_circle())
    worst = max(
        abs(rep.distance - 0.5 / math.sqrt(2.0)), abs(rep.angle - math.pi / 6.0)
    )
    return _result("digital", "half-circle-constants", worst, 1e-15)


def _chk_digital_oracle(seed: int) -> CheckResult:
    # the oracle sums k up to K and adds back the energy beyond K
    K = 10**4
    cases = []
    for c in (1.0, math.pi):
        band = digital._band_of_width(c)
        for N in (0, 5):
            rep = digital.delayed_report_digital(band, DigitalDelay(N))
            orc = digital_distance_oracle(band, DigitalDelay(N), K)
            cases.append((abs(rep.distance**2 - orc.value**2), orc.tail_bound + _ROUNDING))
    return _worst_case("digital", "series-oracle-agreement", cases)


def _chk_parseval(seed: int) -> CheckResult:
    # h holds c_k for |k| <= K: the defect is the energy of both tails
    K = 10**4
    cases = []
    for c in (1.0, math.pi, 6.0):
        band = digital._band_of_width(c)
        h = digital.best_causal_coefficients(band, DigitalDelay(K), K)
        defect = band.bandwidth / TWO_PI - h.norm() ** 2
        mean, rest = _digital_tail(c, K)
        cases.append((abs(defect - 2.0 * mean), 2.0 * rest + _ROUNDING))
    return _worst_case("digital", "parseval-defect", cases)


def _chk_angle_monotone_N(seed: int) -> CheckResult:
    worst = 0.0
    for c in (1.0, math.pi):
        band = digital._band_of_width(c)
        angles = [
            digital.delayed_report_digital(band, DigitalDelay(N)).angle
            for N in range(51)
        ]
        worst = max(
            worst,
            max(
                (angles[i + 1] - angles[i] for i in range(len(angles) - 1)),
                default=0.0,
            ),
        )
    return _result("digital", "angle-nonincreasing-in-N", max(0.0, worst), 1e-15)


def _chk_causal_is_delay_zero(seed: int) -> CheckResult:
    ok = True
    for c in (0.3, 1.0, math.pi):
        band = digital._band_of_width(c)
        a = digital.causal_report_digital(band)
        b = digital.delayed_report_digital(band, DigitalDelay(0))
        ok = ok and a.distance == b.distance and a.angle == b.angle
    return CheckResult(
        "digital", "causal-equals-zero-lookahead", ok, "bit-identical" if ok else "mismatch"
    )


def _chk_best_coefficients(seed: int) -> CheckResult:
    # h holds c_k for -K <= k <= 0; the energy below -K is added back
    band = _half_circle()
    K = 10**4
    rep = digital.causal_report_digital(band)
    h = digital.best_causal_coefficients(band, DigitalDelay(0), K)
    mean, rest = _digital_tail(band.bandwidth, K)
    pythag = h.norm() ** 2 + mean + rep.distance**2 - rep.kernel_norm**2
    worst = max(abs(pythag), abs(complex(h.values[0]) - 0.5))
    return _result("digital", "best-approximant-energy-split", worst, rest + _ROUNDING)


def _chk_tail_sum_route(seed: int) -> CheckResult:
    # the whole tail from k = 1 against Parseval: sum_k (1 - cos kc)/k^2 = c(2 pi - c)/4
    worst = 0.0
    for c in (0.1, 1.0, math.pi, 6.0):
        parseval = 0.25 * c * (2.0 * math.pi - c)
        worst = max(worst, abs(oscillatory_tail_sum(c, 1) - parseval) / parseval)
    return _result("digital", "tail-sum-dual-route", worst, 1e-14)


# -------------------------------------------------------------- operators


def _random_kernel(rng: random.Random) -> DigitalSequence:
    """1 to 256 taps at an offset in [-64, 64]; each part of each tap is a
    multiple of 2**-52 in [-1, 1), from the top 53 bits of 8 of rng's bytes."""
    n = rng.randrange(1, 257)
    vals = (np.frombuffer(rng.randbytes(16 * n), dtype="<u8") >> 11) * 2.0**-52
    vals -= 1.0
    return DigitalSequence._own(rng.randrange(-64, 65), vals.view(np.complex128))


def _chk_matched_filter(seed: int) -> CheckResult:
    rng = _rng(seed, 301)
    worst = 0.0
    for _ in range(50):
        h = _random_kernel(rng)
        est = operators.operator_norm_estimate(h)
        # the certificate against ||h||, and the matched peak against the bound
        worst = max(worst, abs(est.lower - h.norm()), est.lower - (est.upper + 1e-12))
    return _result("operators", "matched-filter-norm-identity", worst, 1e-12)


def _chk_time_invariance(seed: int) -> CheckResult:
    rng = _rng(seed, 302)
    ok = True
    for _ in range(20):
        x = _random_kernel(rng)
        h = _random_kernel(rng)
        m = rng.randrange(-20, 21)
        lhs = operators.convolve_digital(x.shifted(m), h)
        rhs = operators.convolve_digital(x, h).shifted(m)
        ok = ok and lhs.offset == rhs.offset and np.array_equal(lhs.values, rhs.values)
    return CheckResult(
        "operators", "shift-commutes-with-convolution", ok, "exact" if ok else "mismatch"
    )


def _chk_truncation_residual(seed: int) -> CheckResult:
    rng = _rng(seed, 303)
    ok = True
    for _ in range(20):
        h = _random_kernel(rng)
        N = rng.randrange(0, 8)
        kept = operators.truncate_to_delay(h, DigitalDelay(N))
        dropped = h.indices() < -N
        ok = ok and np.all(kept.values[dropped] == 0.0)
        ok = ok and np.array_equal(kept.values[~dropped], h.values[~dropped])
        ok = ok and kept.offset == h.offset
    return CheckResult(
        "operators",
        "truncation-residual-identity",
        bool(ok),
        "projection exact" if ok else "mismatch",
    )


def _chk_digital_truncation_limit(seed: int) -> CheckResult:
    # h holds c_k for |k| <= K; the energy above K is added back
    band = _half_circle()
    K = 2048
    h = digital.best_causal_coefficients(band, DigitalDelay(K), K)
    kept = operators.truncate_to_delay(h, DigitalDelay(0))
    mean, rest = _digital_tail(band.bandwidth, K)
    resid2 = h.norm() ** 2 - kept.norm() ** 2 + mean
    target = digital.causal_report_digital(band).distance ** 2
    return _result("operators", "causal-truncation-energy", abs(resid2 - target), rest + _ROUNDING)


def _chk_sampled_analog_truncation(seed: int) -> CheckResult:
    # the samples dropped, t_j in [-R, -T), are a rectangle rule; half of
    # each end sample, the first kept one at the cut, makes it the
    # trapezoid rule on [-R, t_cut], and the energy beyond -R is added back
    band = BandpassInterval.analog(0.0, 2.0)
    c, T, radius, dt = band.bandwidth, 0.5, 1e2, 1e-2
    h = analog._sample(band, -radius, dt, int(round(2 * radius / dt)) + 1)
    kept = operators.truncate_to_delay_analog(h, AnalogDelay(T))
    cut = operators._analog_cut(h, AnalogDelay(T))
    ends = 0.5 * dt * (abs(h.values[cut]) ** 2 - abs(h.values[0]) ** 2)
    mean, rest = _analog_tail(c, radius)
    target = analog.delayed_report(band, AnalogDelay(T)).distance ** 2
    gap = abs(h.energy() - kept.energy() + ends + mean - target)
    tol = rest + _rule_error(c, T, radius, dt, 12) + _ROUNDING
    return _result("operators", "sampled-truncation-energy", gap, tol)


SUITES: dict[str, tuple] = {
    "analog": (
        _chk_causal_constants,
        _chk_delay_zero,
        _chk_quad_vs_si,
        _chk_distance_monotone,
        _chk_angle_range,
        _chk_analog_oracle,
        _chk_plancherel,
        _chk_bandwidth_to_zero,
    ),
    "digital": (
        _chk_half_circle_constants,
        _chk_digital_oracle,
        _chk_parseval,
        _chk_angle_monotone_N,
        _chk_causal_is_delay_zero,
        _chk_best_coefficients,
        _chk_tail_sum_route,
    ),
    "operators": (
        _chk_matched_filter,
        _chk_time_invariance,
        _chk_truncation_residual,
        _chk_digital_truncation_limit,
        _chk_sampled_analog_truncation,
    ),
}


def run_checks(suite: str, seed: int = 0) -> list[CheckResult]:
    """Run one suite ("analog", "digital", "operators") or "all".

    The seed must be nonnegative, so that seed * 1000 + stream gives every
    seed and check a stream of its own.
    """
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise DomainError(f"unknown suite {suite!r}")
    results = []
    for name in names:
        for chk in SUITES[name]:
            results.append(chk(seed))
    return results
