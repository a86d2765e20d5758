"""Distances and angles from ideal analog bandpass kernels to realizable ones.

The ideal band [a, b] has impulse response

    h(t) = (c / sqrt(2 pi)) * sinc(c t / 2) * exp(i (a+b) t / 2),  c = b - a,

whose squared magnitude is the oscillatory kernel of width c.  Removing the
anticausal part of h (everything at t < -T) is the best approximation from
the filters realizable with look-ahead T, so distances are truncation-tail
energies and reduce to integrals of the kernel.  For T = 0 the tail holds
exactly half the energy, which pins the angle at pi/4 independent of the
band.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ._frozen import Frozen
from .kernel import TWO_PI, BandpassInterval, oscillatory_tail_integral
from .signals import AnalogDelay, SampledSignal

if TYPE_CHECKING:
    import numpy as np

SQRT_TWO_PI = math.sqrt(TWO_PI)

__all__ = [
    "ApproximationReport",
    "impulse_response",
    "causal_report",
    "delayed_report",
    "delayed_distance_si",
]


class ApproximationReport(Frozen):
    """Best-approximation summary for one kernel against one subspace.

    distance is the norm of the part of the kernel the subspace cannot
    represent, angle = arcsin(distance / kernel_norm) (0 for the zero
    kernel by convention).  Every report comes from a closed form, so
    converged is always true; it stays a field because report schema 1
    prints it.
    """

    __slots__ = ("kernel_norm", "distance", "angle", "subspace", "method",
                 "error_estimate", "delay", "converged")

    def __init__(self, kernel_norm: float, distance: float, angle: float, subspace: str,
                 method: str, error_estimate: float = 0.0,
                 delay: float | int | None = None, converged: bool = True) -> None:
        if kernel_norm < 0.0 or distance < 0.0:
            raise ValueError("norms and distances must be nonnegative")
        if distance > kernel_norm * (1.0 + 1e-12) + 1e-300:
            raise ValueError("distance cannot exceed the kernel norm")
        if not -1e-12 <= angle <= 0.5 * math.pi + 1e-12:
            raise ValueError("angle must lie in [0, pi/2]")
        if subspace not in ("Causal", "Delayed"):
            raise ValueError(f"unknown subspace {subspace!r}")
        object.__setattr__(self, "kernel_norm", kernel_norm)
        object.__setattr__(self, "distance", distance)
        object.__setattr__(self, "angle", angle)
        object.__setattr__(self, "subspace", subspace)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "error_estimate", error_estimate)
        object.__setattr__(self, "delay", delay)
        object.__setattr__(self, "converged", converged)

    def consistency_error(self) -> float:
        """|distance - kernel_norm * sin(angle)|, zero up to rounding."""
        return abs(self.distance - self.kernel_norm * math.sin(self.angle))

    @property
    def angle_degrees(self) -> float:
        return math.degrees(self.angle)


def impulse_response(band: BandpassInterval, t):
    """Ideal impulse response of the band at time t (scalar or array).

    Stable product form; at t = 0 it returns (b - a) / sqrt(2 pi) exactly.
    Every finite value is bit for bit that of the literal
    (c / sqrt(2 pi)) * np.sinc(c t / 2 pi) * np.exp(1j * center * t), whose
    ufuncs each block runs in turn.  An array is computed in blocks of
    _BLOCK points, one after another on the caller's thread, into one
    preallocated output.
    """
    import numpy as np

    _require_analog(band)
    t_arr = np.asarray(t, dtype=np.float64)
    flat = t_arr.reshape(-1)
    out = np.empty(flat.size, dtype=np.complex128)
    _fill_range(band, lambda lo, hi, buf: flat[lo:hi], flat.size, out)
    if t_arr.ndim == 0:
        return complex(out[0])
    return out.reshape(t_arr.shape)


#: points per block: a block's few scratch rows stay in cache
_BLOCK = 1 << 14


def _fill_range(band: BandpassInterval, times, n: int,
                out: np.ndarray | None = None) -> list[float]:
    """out[lo:hi] = h(t[lo:hi]) for each block [lo, hi) of range(n), in order.

    times(lo, hi, buf) gives t[lo:hi], and may write it into buf, a scratch
    row long enough for any block.

    With no out, nothing is written and the list of each block's sum of
    |h|^2 comes back instead: that is the sum of amp^2 for the real
    amplitude amp = (c / sqrt(2 pi)) sinc(c t / 2 pi), since the phase
    exp(i center t) has modulus 1, so no complex value is formed.  np.sum
    adds them: a BLAS dot product's sum varies with its thread count.

    Each block runs the literal form's own ufuncs, np.sinc's three steps
    (y = pi x, eps where y is zero, sin(y) / y) among them, into buffers
    made once per call, not once per block.  A block that raises, as under
    np.errstate(all="raise"), leaves the blocks after it unfilled.
    """
    import numpy as np

    c = band.bandwidth
    rot = 1j * band.center
    eps = np.finfo(np.float64).eps
    size = min(_BLOCK, n)
    buf, y, amp = np.empty(size), np.empty(size), np.empty(size)
    zero = np.empty(size, dtype=bool)
    sums = []
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        k = stop - start
        t = times(start, stop, buf)
        yk, ak, zk = y[:k], amp[:k], zero[:k]
        np.multiply(c, t, out=yk)
        np.divide(yk, TWO_PI, out=yk)
        np.multiply(np.pi, yk, out=yk)
        np.equal(yk, 0.0, out=zk)
        np.copyto(yk, eps, where=zk)
        np.sin(yk, out=ak)
        np.divide(ak, yk, out=ak)
        np.multiply(c / SQRT_TWO_PI, ak, out=ak)
        if out is None:
            sums.append(float(np.sum(np.multiply(ak, ak, out=ak))))
            continue
        block = out[start:stop]
        np.multiply(rot, t, out=block)
        np.exp(block, out=block)
        np.multiply(ak, block, out=block)
    return sums


def _sample(band: BandpassInterval, t0: float, dt: float, n: int) -> SampledSignal:
    """h at t0 + dt * j for j = 0 .. n-1: the analog impulse grid.

    Bit for bit impulse_response(band, t0 + dt * np.arange(n)), but the grid
    is formed one block at a time, never in full.  ValueError before any
    work unless the band is analog, n >= 1, and c t and the band center
    times t stay finite on the grid, which keeps every value of h finite.
    """
    import numpy as np

    _require_analog(band)
    if n < 1:
        raise ValueError("need at least one sample")
    # the times are monotone in j, so the widest |t| is at an end
    reach = max(abs(t0), abs(t0 + dt * (n - 1)))
    if not (math.isfinite(band.bandwidth * reach) and math.isfinite(band.center * reach)):
        raise ValueError("c * t and the band center * t must stay finite on the grid")

    def times(lo: int, hi: int, buf: np.ndarray) -> np.ndarray:
        t = np.multiply(np.arange(lo, hi, dtype=np.float64), dt, out=buf[: hi - lo])
        return np.add(t, t0, out=t)

    out = np.empty(n, dtype=np.complex128)
    _fill_range(band, times, n, out)
    return SampledSignal._own(t0, dt, out)


def _require_analog(band: BandpassInterval) -> None:
    if band.mode != "analog":
        raise ValueError("expected an analog band")


def causal_report(band: BandpassInterval) -> ApproximationReport:
    """Distance and angle from the ideal band to the causal filters.

    Closed form: the anticausal half of h carries exactly half the energy,
    so distance = sqrt((b - a) / 2) and the angle is pi/4 for every band.
    """
    _require_analog(band)
    c = band.bandwidth
    return ApproximationReport(
        kernel_norm=math.sqrt(c),
        distance=math.sqrt(0.5 * c),
        angle=0.25 * math.pi,
        subspace="Causal",
        method="ClosedForm",
        error_estimate=0.0,
    )


def delayed_report(band: BandpassInterval, delay: AnalogDelay) -> ApproximationReport:
    """Distance and angle to the filters allowed to look ahead by T.

    distance(T)^2 is the kernel mass beyond T, F(cT) / (pi T) with
    F(x) = 1 - Re E_2(i x) (kernel.oscillatory_tail_integral), reported as
    "ClosedForm" with error_estimate 0: F is evaluated without cancellation,
    so the relative error stays at rounding level for every cT, at a cost
    that does not grow with T.  T = 0 returns the causal closed form
    unchanged.
    """
    _require_analog(band)
    c = band.bandwidth
    T = delay.T
    if T == 0.0:
        # empty window; zero look-ahead IS the causal subspace, so the
        # closed-form causal report is the exact answer
        return causal_report(band)
    dist = delayed_distance_si(band, delay)
    norm = math.sqrt(c)
    return ApproximationReport(
        kernel_norm=norm,
        distance=dist,
        angle=math.asin(min(1.0, dist / norm)),
        subspace="Delayed",
        method="ClosedForm",
        error_estimate=0.0,
        delay=T,
    )


def delayed_distance_si(band: BandpassInterval, delay: AnalogDelay) -> float:
    """Distance to the filters with look-ahead T, from the closed form.

    sqrt of (1/pi) integral_T^inf (1 - cos(c t)) / t^2 dt
    (kernel.oscillatory_tail_integral); sqrt(c/2) at T = 0.  Where the tail
    overflows, which happens for c above about 1.14e308 while cT < 4, it is
    scaled from width 1 instead: tail(c, T) = c tail(1, cT).
    """
    _require_analog(band)
    c = band.bandwidth
    T = delay.T
    if T == 0.0:
        return math.sqrt(0.5 * c)
    tail = oscillatory_tail_integral(c, T)
    if math.isinf(tail):
        # tail(1, cT) / pi <= 1/2, so the product stays finite
        return math.sqrt(c * (oscillatory_tail_integral(1.0, c * T) / math.pi))
    return math.sqrt(tail / math.pi)
