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

from ._frozen import Frozen
from .analog import ApproximationReport
from .errors import DomainError
from .kernel import TWO_PI, BandpassInterval, _fold_bandwidth, oscillatory_tail_sum
from .signals import DigitalDelay, DigitalSequence

if TYPE_CHECKING:
    from collections.abc import Iterator

    import numpy as np

__all__ = [
    "FourierCoefficientTable",
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


def _coefficient(k, c: float, center: float, sin, exp):
    """c_k = sin(k c / 2) / (pi k) * exp(-i k center) for a float k != 0.

    k is one float, with sin and exp math.sin and cmath.exp, or a float
    array, with np.sin and np.exp; both kinds evaluate the same operations
    in the same order, so they agree bit for bit.
    """
    return sin(0.5 * k * c) / (math.pi * k) * exp(-1j * k * center)


def _coefficients(band: BandpassInterval, ks) -> Iterator[complex]:
    """c_k for each integer k of ks, lazily and without numpy: bit for bit
    the values of FourierCoefficientTable.build."""
    c, center = band.bandwidth, band.center
    c0 = complex(c / TWO_PI)
    return (
        _coefficient(float(k), c, center, math.sin, cmath.exp) if k else c0 for k in ks
    )


class FourierCoefficientTable(Frozen):
    """Coefficients c_k of a band indicator for k in [k_min, k_min + len).

    Stable product form: c_0 = (b - a) / (2 pi) and, for k != 0,
    c_k = sin(k c / 2) / (pi k) * exp(-i k (a + b) / 2).
    """

    __slots__ = ("band", "k_min", "values")
    _hidden = ("values",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, band: BandpassInterval, k_min: int, values: np.ndarray) -> None:
        import numpy as np

        arr = np.asarray(values, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficient table must be a nonempty vector")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "band", band)
        object.__setattr__(self, "k_min", k_min)
        object.__setattr__(self, "values", arr)

    @classmethod
    def build(cls, band: BandpassInterval, k_min: int, k_max: int) -> "FourierCoefficientTable":
        """Table of c_k for k_min <= k <= k_max inclusive."""
        import numpy as np

        _require_digital(band)
        if k_max < k_min:
            raise ValueError("need k_min <= k_max")
        k = np.arange(k_min, k_max + 1)
        vals = np.empty(k.shape, dtype=np.complex128)
        nz = k != 0
        kk = k[nz].astype(np.float64)
        vals[nz] = _coefficient(kk, band.bandwidth, band.center, np.sin, np.exp)
        vals[~nz] = band.bandwidth / TWO_PI
        return cls(band, k_min, vals)

    def __len__(self) -> int:
        return len(self.values)

    def indices(self) -> np.ndarray:
        import numpy as np

        return self.k_min + np.arange(len(self.values))

    def coefficient(self, k: int) -> complex:
        if not self.k_min <= k < self.k_min + len(self.values):
            raise IndexError(f"index {k} outside table range")
        return complex(self.values[k - self.k_min])

    def energy(self) -> float:
        """sum |c_k|^2 over the table window."""
        import numpy as np

        return float(np.sum(np.abs(self.values) ** 2))

    def parseval_defect(self) -> float:
        """(b - a) / (2 pi) minus the table energy; tends to 0 as the window grows."""
        return self.band.bandwidth / TWO_PI - self.energy()


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
    return _fold_bandwidth(c) / (4.0 * math.pi)


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
    table = FourierCoefficientTable.build(band, -window, N)
    return DigitalSequence._own(-N, table.values[::-1].copy())

