"""Distances and angles for ideal digital bandpass filters on the circle.

The ideal band [a, b] inside (0, 2 pi) acts by multiplication on the
frequency side; its convolution kernel is the Fourier coefficient sequence
c_k of the indicator.  Keeping only the coefficients with index >= -N is
the best approximation among filters that look ahead at most N taps, so the
squared distance is the tail energy sum_{k > N} |c_k|^2.  For N = 0 it has
the closed form (b - a)(2 pi - (b - a)) / (8 pi^2); for N >= 1 it is
kernel.oscillatory_tail_sum(c, N + 1) / (2 pi^2), one route at every N.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING

from .analog import ApproximationReport
from .errors import DomainError
from .kernel import TWO_PI, BandpassInterval, _fold, oscillatory_tail_sum
from .signals import DigitalDelay, DigitalSequence

if TYPE_CHECKING:
    from collections.abc import Iterator

__all__ = [
    "causal_report_digital",
    "delayed_report_digital",
    "best_causal_coefficients",
]


def _require_digital(band: BandpassInterval) -> None:
    if band.mode != "digital":
        raise ValueError("expected a digital band")


def _band_of_width(c: float) -> BandpassInterval:
    """The digital band of width c centred on pi; DomainError unless 0 < c < 2 pi.

    Also DomainError where rounding collapses the band: below about ulp(pi)
    both edges round to pi, and within about ulp(pi) of 2 pi the upper edge
    rounds to 2 pi.
    """
    try:
        return BandpassInterval.digital(math.pi - 0.5 * c, math.pi + 0.5 * c)
    except ValueError as exc:
        raise DomainError(f"digital bandwidth {c!r} has no band centred on pi: {exc}") from exc


def _coefficient_factors(k, c: float, center: float, sin, exp):
    """sin(k c / 2) / (pi k) and exp(-i k center), whose product is c_k, for a
    float k != 0.

    k is one float, with sin and exp math.sin and cmath.exp, or a float
    array, with np.sin and np.exp; both kinds evaluate the same operations
    in the same order, so they agree bit for bit.  The first factor is the
    same at -k and the second is conjugated, since sin is odd.

    Both routes form c_k as two float products, amp Re(phase) and
    amp Im(phase).  A float x complex multiply adds a zero product to each,
    and Python and numpy (which may fuse it) round a part that underflows
    to zeros of different signs.
    """
    return sin(0.5 * k * c) / (math.pi * k), exp(-1j * k * center)


def _coefficients(band: BandpassInterval, ks) -> Iterator[complex]:
    """c_k for each integer k of ks, lazily and without numpy: bit for bit
    the values best_causal_coefficients builds with numpy."""
    c, center = band.bandwidth, band.center
    c0 = complex(c / TWO_PI)
    for k in ks:
        if not k:
            yield c0
            continue
        amp, phase = _coefficient_factors(float(k), c, center, math.sin, cmath.exp)
        yield complex(amp * phase.real, amp * phase.imag)


def _bracket(band: BandpassInterval, N: int) -> float:
    """Normalized tail fraction sin^2(angle) after N taps of look-ahead.

    bracket = (2 pi / c) * sum_{k > N} |c_k|^2
            = (1 / (pi c)) sum_{k > N} (1 - cos(k c)) / k^2.

    N = 0 is the causal closed form 1/2 - c/(4 pi), written rho/(4 pi) for
    c > pi so it keeps its relative precision as c approaches 2 pi; every
    N >= 1 takes the tail from oscillatory_tail_sum.  The result is always
    positive: that sum's head terms are nonnegative, its Euler-Maclaurin
    tail is a positive integral plus corrections of relative size about
    1/a, and in its Lerch tail psi'(a) > 1/a exceeds 19 times the cosine
    sum, by Abel's bound 1/(a^2 sin(rho/2)) with a rho >= 60.
    """
    c = band.bandwidth
    if N > 0:
        return oscillatory_tail_sum(c, N + 1) / (math.pi * c)
    if c <= math.pi:
        return 0.5 - c / (4.0 * math.pi)
    hi, lo = _fold(c)
    return (hi + lo) / (4.0 * math.pi)


def _report_from_bracket(
    band: BandpassInterval,
    bracket: float,
    subspace: str,
    delay_taps: int | None,
) -> ApproximationReport:
    """Turn the tail fraction, sin^2 of the angle, into a report."""
    c = band.bandwidth
    norm = math.sqrt(c / TWO_PI)
    ratio = math.sqrt(min(1.0, bracket))
    return ApproximationReport(
        kernel_norm=norm,
        distance=norm * ratio,
        angle=math.asin(ratio),
        subspace=subspace,
        method="ClosedForm",
        error_estimate=0.0,
        delay=delay_taps,
    )


def causal_report_digital(band: BandpassInterval) -> ApproximationReport:
    """Distance and angle from the band kernel to the causal digital filters.

    Closed form: kernel_norm = sqrt(c / (2 pi)) and
    angle = arcsin(sqrt(1/2 - c / (4 pi))).  The half-circle band c = pi
    gives angle pi/6 and distance 1 / (2 sqrt(2)) exactly.
    """
    _require_digital(band)
    return _report_from_bracket(band, _bracket(band, 0), "Causal", None)


def delayed_report_digital(
    band: BandpassInterval, delay: DigitalDelay
) -> ApproximationReport:
    """Distance and angle to the digital filters with N taps of look-ahead.

    N = 0 is the causal subspace and returns the causal report unchanged.
    """
    _require_digital(band)
    if delay.N == 0:
        return causal_report_digital(band)
    return _report_from_bracket(band, _bracket(band, delay.N), "Delayed", delay.N)


def best_causal_coefficients(
    band: BandpassInterval, delay: DigitalDelay, window: int
) -> DigitalSequence:
    """Impulse response of the best approximation with N taps of look-ahead.

    The optimal filter keeps h[n] = c_{-n} for n >= -N and drops the rest;
    the returned sequence covers n in [-N, window] and window must be >= N
    so it is never empty on the causal side.
    """
    _require_digital(band)
    N = delay.N
    if window < N:
        raise ValueError("window must be at least the look-ahead")
    import numpy as np

    k = np.arange(1, window + 1, dtype=np.float64)
    amp, phase = _coefficient_factors(k, band.bandwidth, band.center, np.sin, np.exp)
    values = np.empty(N + 1 + window, dtype=np.complex128)  # h[n] = c_k at k = -n
    causal = values[N + 1:]  # c_1, ..., c_window until conjugated below
    np.multiply(amp, phase.real, out=causal.real)
    np.multiply(amp, phase.imag, out=causal.imag)
    values[:N] = causal[:N][::-1]  # c_N, ..., c_1
    values[N] = band.bandwidth / TWO_PI  # c_0, at n = 0
    np.negative(causal.imag, out=causal.imag)  # c_{-k} = conj(c_k)
    return DigitalSequence._own(-N, values)

