"""Distances and angles from ideal analog bandpass kernels to realizable ones.

The ideal band [a, b] has impulse response

    h(t) = (c / sqrt(2 pi)) * sinc(c t / 2) * exp(i (a+b) t / 2),  c = b - a,

whose squared magnitude is the oscillatory kernel of width c.  Removing the
anticausal part of h (everything at t < -T) is the best approximation from
the filters realizable with look-ahead T, so distances are truncation-tail
energies and reduce to integrals of the kernel.  For T = 0 the tail holds
exactly half the energy, which pins the angle at pi/4 independent of the
band; the same mechanism gives pi/4 for any filter with a real transfer
function.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING

from ._frozen import Frozen
from .errors import NonRealInput
from .kernel import TWO_PI, BandpassInterval, oscillatory_tail_integral
from .signals import AnalogDelay, SampledSignal

if TYPE_CHECKING:
    import numpy as np

SQRT_TWO_PI = math.sqrt(TWO_PI)

#: geometric floor ladder for the log-integrability diagnostic
PW_FLOOR_LADDER = tuple(10.0 ** (-(3 + j)) for j in range(10))
#: final ladder slope (integral growth per decade of floor) above which the
#: log integral is treated as divergent
PW_SLOPE_THRESHOLD = 0.5
#: reporting threshold for near-vanishing transfer-function intervals
PW_VANISH_TOL = 1e-14

__all__ = [
    "ApproximationReport",
    "TransferFunctionSamples",
    "AnalogImpulseResponse",
    "PaleyWienerDiagnostic",
    "impulse_response",
    "causal_report",
    "delayed_report",
    "delayed_distance_si",
    "real_transfer_report",
    "paley_wiener_diagnostic",
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


class TransferFunctionSamples(Frozen):
    """Values of a transfer function on a uniform frequency grid."""

    __slots__ = ("xi_min", "xi_max", "values")
    _hidden = ("values",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, xi_min: float, xi_max: float, values: np.ndarray) -> None:
        if not (math.isfinite(xi_min) and math.isfinite(xi_max)):
            raise ValueError("grid endpoints must be finite")
        if not xi_min < xi_max:
            raise ValueError("grid must satisfy xi_min < xi_max")
        import numpy as np

        arr = np.asarray(values, dtype=np.complex128)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("need at least two samples")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "xi_min", xi_min)
        object.__setattr__(self, "xi_max", xi_max)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.values)

    def grid(self) -> np.ndarray:
        import numpy as np

        return np.linspace(self.xi_min, self.xi_max, len(self.values))


def impulse_response(band: BandpassInterval, t):
    """Ideal impulse response of the band at time t (scalar or array).

    Stable product form; at t = 0 it returns (b - a) / sqrt(2 pi) exactly.
    Every finite value is bit for bit that of the literal
    (c / sqrt(2 pi)) * np.sinc(c t / 2 pi) * np.exp(1j * center * t), whose
    ufuncs each block runs in turn.  An array is computed in blocks of
    _BLOCK points into one preallocated output, and its blocks are shared
    out across every CPU this process may run on; np.errstate and
    warning filters act on every block as they do on the caller's own
    thread.
    """
    import numpy as np

    _require_analog(band)
    t_arr = np.asarray(t, dtype=np.float64)
    flat = t_arr.reshape(-1)
    out = _fill(band, flat.size, lambda lo, hi, buf: flat[lo:hi])
    if t_arr.ndim == 0:
        return complex(out[0])
    return out.reshape(t_arr.shape)


#: points per block: a block's few scratch rows stay in cache
_BLOCK = 1 << 14


def _fill(band: BandpassInterval, n: int, times) -> np.ndarray:
    """h at n times into a new array; times(lo, hi, buf) gives t[lo:hi].

    times may write its block into buf, a scratch row long enough for it.
    """
    import numpy as np

    out = np.empty(n, dtype=np.complex128)
    _in_parts(n, lambda lo, hi: _fill_range(band, times, lo, hi, out))
    return out


def _sum_in_parts(n: int, run) -> float:
    """The exact sum of the block sums run(lo, hi) lists for the parts of range(n);
    blocks start at multiples of _BLOCK, so the parts do not change it."""
    return math.fsum(s for part in _in_parts(n, run) for s in part)


def _in_parts(n: int, run) -> list:
    """[run(lo, hi) for each part of range(n)], the parts cut at block edges.

    There is one part per usable CPU, at most one per block; the caller's
    thread runs the first part, and each other part runs in a copy of the
    caller's context.
    """
    blocks = -(-n // _BLOCK)
    parts = min(_usable_cpus(), blocks)
    if parts <= 1:
        return [run(0, n)]
    import contextvars
    from concurrent.futures import ThreadPoolExecutor

    edges = [min(n, _BLOCK * (blocks * i // parts)) for i in range(parts + 1)]
    with ThreadPoolExecutor(parts - 1) as pool:
        futures = [
            pool.submit(contextvars.copy_context().run, run, lo, hi)
            for lo, hi in zip(edges[1:-1], edges[2:])
        ]
        first = run(edges[0], edges[1])
        return [first] + [future.result() for future in futures]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _fill_range(band: BandpassInterval, times, lo: int, hi: int,
                out: np.ndarray | None = None) -> list[float]:
    """out[lo:hi] = h(times(lo, hi)), one block at a time.

    With no out, nothing is written and the list of each block's sum of
    |h|^2 comes back instead: that is the sum of amp^2 for the real
    amplitude amp = (c / sqrt(2 pi)) sinc(c t / 2 pi), since the phase
    exp(i center t) has modulus 1, so no complex value is formed.  np.sum
    adds them: a BLAS dot product's sum varies with its thread count.

    Each block runs the literal form's own ufuncs, np.sinc's three steps
    (y = pi x, eps where y is zero, sin(y) / y) among them, into buffers
    made once per call: a fresh set of temporaries for every block leaves
    the allocator holding about 30 MB more at the peak of a verify run.
    """
    import numpy as np

    c = band.bandwidth
    rot = 1j * band.center
    eps = np.finfo(np.float64).eps
    size = min(_BLOCK, hi - lo)
    buf, y, amp = np.empty(size), np.empty(size), np.empty(size)
    zero = np.empty(size, dtype=bool)
    sums = []
    for start in range(lo, hi, _BLOCK):
        stop = min(start + _BLOCK, hi)
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


class AnalogImpulseResponse(Frozen):
    """Callable wrapper around impulse_response for one fixed band."""

    __slots__ = ("band",)

    def __init__(self, band: BandpassInterval) -> None:
        _require_analog(band)
        object.__setattr__(self, "band", band)

    def __call__(self, t):
        return impulse_response(self.band, t)

    def sample(self, t0: float, dt: float, n: int) -> SampledSignal:
        """h at t0 + dt * j for j = 0 .. n-1, the grid SampledSignal.times() gives.

        The grid is formed one block at a time, never in full.  ValueError
        before any work unless n >= 1 and c t and the band center times t
        stay finite on the grid, which keeps every value of h finite.
        """
        import numpy as np

        if n < 1:
            raise ValueError("need at least one sample")
        # the times are monotone in j, so the widest |t| is at an end
        reach = max(abs(t0), abs(t0 + dt * (n - 1)))
        if not (math.isfinite(self.band.bandwidth * reach)
                and math.isfinite(self.band.center * reach)):
            raise ValueError("c * t and the band center * t must stay finite on the grid")

        def times(lo: int, hi: int, buf: np.ndarray) -> np.ndarray:
            t = np.multiply(np.arange(lo, hi, dtype=np.float64), dt, out=buf[: hi - lo])
            return np.add(t, t0, out=t)

        return SampledSignal._own(t0, dt, _fill(self.band, n, times))


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


def real_transfer_report(samples: TransferFunctionSamples) -> ApproximationReport:
    """Causal distance and angle for a filter given by a real transfer function.

    The norm comes from the trapezoid rule on the grid.  Real symmetry forces
    the same even split of energy as the ideal band, so distance is
    norm / sqrt(2) and the angle is pi/4 (0 for the zero function by
    convention).  Rejects inputs whose imaginary part exceeds
    1e-14 * max|H|.
    """
    import numpy as np

    vals = samples.values
    sup = float(np.max(np.abs(vals)))
    if sup > 0.0 and float(np.max(np.abs(vals.imag))) > 1e-14 * sup:
        raise NonRealInput("transfer function has a non-negligible imaginary part")
    re = vals.real
    grid = samples.grid()
    norm = math.sqrt(float(np.trapezoid(re * re, grid)))
    if norm == 0.0:
        return ApproximationReport(0.0, 0.0, 0.0, "Causal", "ClosedForm")
    return ApproximationReport(
        kernel_norm=norm,
        distance=norm / math.sqrt(2.0),
        angle=0.25 * math.pi,
        subspace="Causal",
        method="ClosedForm",
    )


class PaleyWienerDiagnostic(Frozen):
    """Result of the log-integrability probe.

    ladder holds (floor, integral) pairs for the clamped integrals
    integral |log max(|H|, floor)| / (1 + xi^2); integral_estimate is the
    last rung.  verdict is "DivergenceEvidence" when the ladder keeps
    growing (final slope above PW_SLOPE_THRESHOLD per decade) or when H is
    identically zero on a grid subinterval, else
    "ConsistentWithRealizable".  vanishing_intervals lists the maximal
    grid intervals with |H| < 1e-14; they are informational and do not by
    themselves decide the verdict.
    """

    __slots__ = ("integral_estimate", "vanishing_intervals", "verdict", "ladder",
                 "final_slope_per_decade")

    def __init__(self, integral_estimate: float,
                 vanishing_intervals: tuple[tuple[float, float], ...], verdict: str,
                 ladder: tuple[tuple[float, float], ...],
                 final_slope_per_decade: float) -> None:
        object.__setattr__(self, "integral_estimate", integral_estimate)
        object.__setattr__(self, "vanishing_intervals", vanishing_intervals)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "ladder", ladder)
        object.__setattr__(self, "final_slope_per_decade", final_slope_per_decade)


def _value_runs(mask: np.ndarray, grid: np.ndarray) -> list[tuple[float, float]]:
    """Maximal runs of True covering at least two consecutive grid points."""
    runs: list[tuple[float, float]] = []
    start = None
    for i, flag in enumerate(mask):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if i - start >= 2:
                runs.append((float(grid[start]), float(grid[i - 1])))
            start = None
    if start is not None and len(mask) - start >= 2:
        runs.append((float(grid[start]), float(grid[-1])))
    return runs


def paley_wiener_diagnostic(samples: TransferFunctionSamples) -> PaleyWienerDiagnostic:
    """Probe whether |H| decays too hard to belong to any causal filter.

    A causal filter's transfer function must keep
    integral |log|H|| / (1 + xi^2) finite.  The integral is evaluated with
    |H| clamped below at a ladder of floors from 1e-3 down to 1e-12; a
    genuinely vanishing H makes the clamped integral grow linearly in
    -log(floor) while an integrable log levels off.
    """
    import numpy as np

    grid = samples.grid()
    mag = np.abs(samples.values)
    weight = 1.0 + grid * grid
    ladder = []
    for floor in PW_FLOOR_LADDER:
        integrand = np.abs(np.log(np.maximum(mag, floor))) / weight
        ladder.append((floor, float(np.trapezoid(integrand, grid))))
    final_slope = ladder[-1][1] - ladder[-2][1]  # rungs are one decade apart

    vanishing = tuple(_value_runs(mag < PW_VANISH_TOL, grid))
    hard_zero = len(_value_runs(mag == 0.0, grid)) > 0
    if final_slope > PW_SLOPE_THRESHOLD or hard_zero:
        verdict = "DivergenceEvidence"
    else:
        verdict = "ConsistentWithRealizable"
    return PaleyWienerDiagnostic(
        integral_estimate=ladder[-1][1],
        vanishing_intervals=vanishing,
        verdict=verdict,
        ladder=tuple(ladder),
        final_slope_per_decade=final_slope,
    )
