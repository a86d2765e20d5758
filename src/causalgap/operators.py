"""Convolution operators, matched inputs, and operator-norm witnesses.

The convolution operator built from a kernel h has operator norm equal to
the sup of |H| on the frequency side; for an ideal band indicator that sup
is 1 and it is attained in the limit by inputs concentrating their spectrum
inside the band.  On finite windows the matched input (time-reversed
conjugate of the kernel) already achieves ||h||, giving a certified lower
bound, while Young's inequality caps any single probe from above.
"""

from __future__ import annotations

import bisect

from ._frozen import Frozen
from .errors import ZeroKernel
from .signals import AnalogDelay, DigitalDelay, DigitalSequence, SampledSignal, _finite

__all__ = [
    "NormEstimate",
    "convolve_digital",
    "operator_norm_estimate",
    "truncate_to_delay",
    "truncate_to_delay_analog",
]


def convolve_digital(h: DigitalSequence, f: DigitalSequence) -> DigitalSequence:
    """Full convolution of two finitely supported sequences; offsets add."""
    import numpy as np

    # the result is fresh, so it is held without a copy, but a product of
    # finite taps can still overflow to inf
    vals = _finite(np.convolve(h.values, f.values))
    return DigitalSequence._own(h.offset + f.offset, vals)


def _matched(h: DigitalSequence, norm: float) -> DigitalSequence:
    """Unit-norm input maximizing |(h * f)[0]|: the reversed conjugate of h
    over norm = ||h||."""
    import numpy as np

    if norm == 0.0:
        raise ZeroKernel("matched input of the zero kernel is undefined")
    vals = np.conj(h.values[::-1])
    vals /= norm
    return DigitalSequence._own(-(h.offset + len(h.values) - 1), vals)


class NormEstimate(Frozen):
    """Operator-norm bracket: the matched input's peak output, and ||h||_2."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: float, upper: float) -> None:
        if not lower <= upper * (1.0 + 1e-12):
            raise ValueError("lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


def operator_norm_estimate(h: DigitalSequence) -> NormEstimate:
    """Bracket the peak-output gain max_n |(h * f)[n]| over unit-norm inputs.

    Cauchy-Schwarz caps every output sample by ||h||_2 ||f||_2, so
    upper = ||h||_2; the matched input attains it, so lower, its peak
    output, equals upper up to rounding either way.  ZeroKernel for h = 0.
    """
    import numpy as np

    norm = h.norm()
    out = convolve_digital(h, _matched(h, norm))
    return NormEstimate(lower=float(np.abs(out.values).max()), upper=norm)


def _kept(values, cut: int):
    """A copy of values with values[:cut] set to +0.0.  Only values[cut:] is
    written: a large np.zeros takes pages the OS has zeroed, and the prefix
    stays on the shared zero page, out of resident memory, until written."""
    import numpy as np

    vals = np.zeros(len(values), dtype=np.complex128)
    vals[cut:] = values[cut:]
    return vals


def truncate_to_delay(h: DigitalSequence, delay: DigitalDelay) -> DigitalSequence:
    """Zero out every tap at index < -N, the projection onto N-tap look-ahead.

    Those taps are the first -N - offset, clamped to [0, len(h)]; only the
    taps kept are written.
    """
    cut = min(len(h), max(0, -delay.N - h.offset))
    return DigitalSequence._own(h.offset, _kept(h.values, cut))


def _analog_cut(h: SampledSignal, delay: AnalogDelay) -> int:
    """How many leading samples of h lie at time < -T.

    The times t0 + dt * j rise with j, so those samples are a prefix; its
    length is found by bisecting that same expression.
    """
    return bisect.bisect_left(
        range(len(h)), True, key=lambda j: not h.t0 + h.dt * j < -delay.T
    )


def truncate_to_delay_analog(h: SampledSignal, delay: AnalogDelay) -> SampledSignal:
    """Zero out every sample at time < -T; the boundary sample at -T survives.

    The samples to zero are the prefix _analog_cut finds; only the samples
    kept are written.
    """
    return SampledSignal._own(h.t0, h.dt, _kept(h.values, _analog_cut(h, delay)))
