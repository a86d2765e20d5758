"""Self-check suites: one line per theorem of the paper or of its proofs.

Each line compares what the library reports with a second route that
shares no code with it, and prints the worst gap against a stated bound:
proven where a proof is known, else an allowance that rests on a measured
error and says so.  Each check returns a CheckResult instead of raising,
so the CLI can print a full pass/fail table.  Randomized checks draw from
their own random.Random, seeded with seed * 1000 + a stream number below
1000, so two runs with one seed print the same bytes on every platform and
numpy version, and verify needs only numpy's core: a kernel's taps are
bytes of that stream, mapped to doubles by numpy's integer ops.  Each array
check compares energies, adds back the mean of the kernel tail its grid
misses (the oracles add it themselves), and allows the proven rest, its
rule's error and _ROUNDING.
"""

from __future__ import annotations

import math
import random

import numpy as np

from . import analog, digital, operators
from ._frozen import Frozen
from .errors import DomainError
from .kernel import _TWO_PI_LO, TWO_PI, BandpassInterval, oscillatory_tail_sum
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
#: the unit roundoff of a double
_U = 2.0**-53
#: how many ulps a reported distance or angle, or a tail sum, may sit from
#: its exact value: measured, not proven, until ROADMAP item 2.  Against
#: 40-digit mpmath (tests/mpref.py) the worst seen is 3.4 ulp, an analog
#: angle, on seeded grids of 3,000 analog and 2,730 digital reports, and
#: 4.1e-16 relative for oscillatory_tail_sum (tests/test_kernel.py)
_ULPS = 4


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), the relative error of n roundings
    (Accuracy and Stability of Numerical Algorithms, 2nd ed., Lemma 3.1)."""
    return n * _U / (1.0 - n * _U)


class CheckResult(Frozen):
    __slots__ = ("suite", "name", "passed", "detail")

    def __init__(self, suite: str, name: str, passed: bool, detail: str) -> None:
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)


def _result(suite: str, name: str, worst: float, tol: float) -> CheckResult:
    return CheckResult(suite, name, worst <= tol, f"worst {worst:.3e} tol {tol:.3e}")


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


def _rise(values: list[float]) -> float:
    """The largest step up from one value to the next, or 0.0."""
    return max([0.0] + [b - a for a, b in zip(values, values[1:])])


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
    # sqrt(c / 2) and pi / 4 are each one correctly rounded operation
    # (IEEE 754 sqrt; 0.5 c and math.pi / 4 scale exactly), so the report
    # and the reference each lie within half an ulp of the exact value,
    # which is below sqrt(50) for the widths drawn
    worst = 0.0
    for band in _random_analog_bands(seed, 25):
        rep = analog.causal_report(band)
        want = math.sqrt(0.5 * (band.b - band.a))
        worst = max(worst, abs(rep.angle - PI_4), abs(rep.distance - want))
    return _result("analog", "causal-constants", worst, math.ulp(math.sqrt(50.0)))


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


def _gauss_mass_error(c: float, T: float, rule: float, kernel: np.ndarray) -> float:
    """Bound on |rule - m|, m the mass of k(t) = (1 - cos ct) / (pi t^2) =
    (c^2 / pi) phi(ct) over [-T, T], rule = T sum_i w_i k(t_i) the 64-point
    Gauss-Legendre rule on [0, T] and kernel the k(t_i).  As
    phi(w) = integral_0^1 (1 - s) cos(sw) ds, |phi(w)| <= cosh(Im w) / 2 and
    |phi'| <= 1/6.  The rule's error on the Bernstein ellipse E_rho, where
    f(s) = T k(T (s + 1) / 2) is at most M = T c^2 / (2 pi) cosh(cT (rho -
    1/rho) / 4), is at most 64 M / (15 (1 - rho^-2) rho^128) (Trefethen,
    SIAM Review 50(1), 2008, Thm 4.5): below 1e-60 at rho = 8 for cT <= 60.
    Seven roundings in each k(t_i), 64 in the dot product and one in T times
    it make gamma_72 of the positive sum (Higham, Lemma 3.1 and (3.5)).
    The stored nodes lie within u and the weights within 2u of a 50-digit
    rule, measured, until ROADMAP item 2; with two roundings each t_i lies
    within 2.5 u T of its place, and |k'| <= c^3 / (6 pi).
    """
    rho = 8.0
    big = T * c * c / TWO_PI * math.cosh(0.25 * c * T * (rho - 1.0 / rho))
    rule_error = 64.0 * big / (15.0 * (1.0 - rho**-2) * rho**128)
    nodes = 5.0 * _U * T * T * c**3 / (6.0 * math.pi)
    weights = 2.0 * _U * T * float(np.sum(kernel))
    return rule_error + _gamma(72) * rule + nodes + weights


def _chk_quad_vs_si(seed: int) -> CheckResult:
    # kernel mass over [-T, T]: c - 2 d(T)^2 with the distance the analog
    # report gives, against a fixed 64-point Gauss-Legendre rule on [0, T]
    # of 2 sin^2(c t / 2) / (pi t^2), which shares no code with it; d is
    # within _ULPS ulps, and forming c - 2 d^2 rounds twice
    nodes, weights = _GAUSS_LEGENDRE_64
    gaps, bounds = [], []
    for c in (0.5, 1.0, math.pi, 6.0):
        band = BandpassInterval.analog(0.0, c)
        for T in (0.1, 1.0, 10.0):
            t = 0.5 * T * (nodes + 1.0)
            kernel = 2.0 * np.sin(0.5 * c * t) ** 2 / (math.pi * t * t)
            rule = T * float(np.dot(weights, kernel))
            d = analog.delayed_report(band, AnalogDelay(T)).distance
            gaps.append(abs(rule - (c - 2.0 * d * d)))
            closed_error = 4.0 * d * _ULPS * math.ulp(d) + _gamma(2) * (c + 2.0 * d * d)
            bounds.append(_gauss_mass_error(c, T, rule, kernel) + closed_error)
    # each gap lies within its own bound, so the widest within the widest
    return _result("analog", "quadrature-vs-sine-integral", max(gaps), max(bounds))


def _chk_distance_monotone(seed: int) -> CheckResult:
    rng = _rng(seed, 102)
    band = _random_analog_bands(seed, 1)[0]
    ladder = sorted(rng.uniform(0.0, 100.0) for _ in range(8))
    dist = [analog.delayed_distance_si(band, AnalogDelay(T)) for T in ladder]
    # each distance within _ULPS ulps of d(T), which does not rise with T
    tol = 2 * _ULPS * math.ulp(dist[0])
    return _result("analog", "distance-nonincreasing-in-T", _rise(dist), tol)


def _chk_angle_range(seed: int) -> CheckResult:
    worst = 0.0
    for c in (0.5, math.pi, 6.0):
        band = BandpassInterval.analog(0.0, c)
        for T in (0.0, 0.7, 3.0, 20.0):
            rep = analog.delayed_report(band, AnalogDelay(T))
            worst = max(worst, -rep.angle, rep.angle - PI_4)
    # asin of a nonnegative ratio is nonnegative; an angle of at most pi / 4
    # is reported within _ULPS ulps of it, and PI_4 within half an ulp
    tol = (_ULPS + 0.5) * math.ulp(PI_4)
    return _result("analog", "angle-within-quarter-turn", max(0.0, worst), tol)


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
    # sin^2(angle) = 1/2 - S(x) / pi at x = cT, S(x) = integral_0^x (1 - cos u)
    # / u^2 du in [0, x / 2], so cos(2 angle) lies in [0, x / pi] and
    # |angle - pi / 4| <= asin(x / pi) / 2; plus _ULPS ulps and PI_4's half ulp
    band, T = BandpassInterval.analog(0.0, 1e-6), 1.0
    rep = analog.delayed_report(band, AnalogDelay(T))
    tol = 0.5 * math.asin(band.bandwidth * T / math.pi) + (_ULPS + 0.5) * math.ulp(PI_4)
    return _result("analog", "narrow-band-angle-limit", abs(rep.angle - PI_4), tol)


# ---------------------------------------------------------------- digital


_HALF_CIRCLE = BandpassInterval.digital(0.5 * math.pi, 1.5 * math.pi)


def _chk_half_circle_constants(seed: int) -> CheckResult:
    # the report within _ULPS ulps, each reference two roundings from
    # 1 / (2 sqrt 2) or pi / 6, which is the larger
    rep = digital.causal_report_digital(_HALF_CIRCLE)
    worst = max(
        abs(rep.distance - 0.5 / math.sqrt(2.0)), abs(rep.angle - math.pi / 6.0)
    )
    tol = (_ULPS + 1) * math.ulp(math.pi / 6.0)
    return _result("digital", "half-circle-constants", worst, tol)


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
    worst, top = 0.0, 0.0
    for c in (1.0, math.pi):
        band = digital._band_of_width(c)
        angles = [digital.delayed_report_digital(band, DigitalDelay(N)).angle for N in range(51)]
        worst, top = max(worst, _rise(angles)), max(top, angles[0])
    # each angle within _ULPS ulps of one that does not rise with N
    return _result("digital", "angle-nonincreasing-in-N", worst, 2 * _ULPS * math.ulp(top))


def _chk_best_coefficients(seed: int) -> CheckResult:
    # h holds c_k for -K <= k <= 0; the energy below -K is added back
    band = _HALF_CIRCLE
    K = 10**4
    rep = digital.causal_report_digital(band)
    h = digital.best_causal_coefficients(band, DigitalDelay(0), K)
    mean, rest = _digital_tail(band.bandwidth, K)
    pythag = h.norm() ** 2 + mean + rep.distance**2 - rep.kernel_norm**2
    worst = max(abs(pythag), abs(complex(h.values[0]) - 0.5))
    return _result("digital", "best-approximant-energy-split", worst, rest + _ROUNDING)


def _chk_tail_sum_route(seed: int) -> CheckResult:
    # the whole tail from k = 1 against Parseval: sum_k (1 - cos kc)/k^2 =
    # c(2 pi - c)/4, with 2 pi - c against the two-part 2 pi, so the
    # reference is three roundings off; the sum is within _ULPS ulps
    worst = 0.0
    for c in (0.1, 1.0, math.pi, 6.0):
        parseval = 0.25 * c * ((TWO_PI - c) + _TWO_PI_LO)
        worst = max(worst, abs(oscillatory_tail_sum(c, 1) - parseval) / parseval)
    return _result("digital", "tail-sum-dual-route", worst, _gamma(3) + 2 * _ULPS * _U)


# -------------------------------------------------------------- operators


def _random_kernel(rng: random.Random) -> DigitalSequence:
    """1 to 256 taps at an offset in [-64, 64]; each part of each tap is a
    multiple of 2**-52 in [-1, 1), from the top 53 bits of 8 of rng's bytes."""
    n = rng.randrange(1, 257)
    vals = (np.frombuffer(rng.randbytes(16 * n), dtype="<u8") >> 11) * 2.0**-52
    vals -= 1.0
    return DigitalSequence._own(rng.randrange(-64, 65), vals.view(np.complex128))


def _chk_matched_filter(seed: int) -> CheckResult:
    # the matched input's peak output against ||h||, equal by Cauchy-Schwarz.
    # Higham's bound on both roundings, gamma_(4n+4) ||h||, reaches 2.6e-12
    # at 256 taps of norm sqrt(512), so 1e-12 stays: measured, until ROADMAP
    # item 2; the worst over seeds 0-999 is 10 ulps of ||h||, 1.8e-14
    rng = _rng(seed, 301)
    worst = 0.0
    for _ in range(50):
        h = _random_kernel(rng)
        worst = max(worst, abs(operators.operator_norm_estimate(h).lower - h.norm()))
    return _result("operators", "matched-filter-norm-identity", worst, 1e-12)


def _chk_digital_truncation_limit(seed: int) -> CheckResult:
    # h holds c_k for |k| <= K; the energy above K is added back
    band = _HALF_CIRCLE
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
        _chk_best_coefficients,
        _chk_tail_sum_route,
    ),
    "operators": (
        _chk_matched_filter,
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
    if suite != "all" and suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}")
    names = list(SUITES) if suite == "all" else [suite]
    return [chk(seed) for name in names for chk in SUITES[name]]
