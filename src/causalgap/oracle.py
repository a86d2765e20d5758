"""Brute-force cross-checks for the closed-form distances, plus limit probes.

Nothing here shares an evaluation path with the results it validates: the
analog oracle is a plain midpoint Riemann sum of |h|^2, summed as the
squared real amplitude (c / sqrt(2 pi)) sinc(c t / 2 pi) of the kernel (no
closed form, no sine integral), and the digital oracle sums |c_k|^2 from
the defining difference of exponentials, each an anchor's times a table's
(no half-angle form).  Each oracle adds back the mean of the kernel energy
its grid or index cutoff misses and reports the proven bound on the rest as
tail_bound; the error of the analog oracle's midpoint rule is not in it.
"""

from __future__ import annotations

import math

from ._frozen import Frozen
from .analog import _BLOCK, _fill_range, _require_analog, delayed_distance_si, delayed_report
from .digital import _band_of_width, _require_digital, delayed_report_digital
from .errors import DomainError, NonMonotoneLadder
from .kernel import TWO_PI, BandpassInterval
from .signals import AnalogDelay, DigitalDelay

__all__ = [
    "OracleDistance",
    "LimitProbeResult",
    "analog_distance_oracle",
    "digital_distance_oracle",
    "limit_probe",
]


class OracleDistance(Frozen):
    """Brute-force distance, with the tail mean added, and the bound on the
    rest of the tail."""

    __slots__ = ("value", "tail_bound")

    def __init__(self, value: float, tail_bound: float) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "tail_bound", tail_bound)


def analog_distance_oracle(
    band: BandpassInterval,
    delay: AnalogDelay,
    grid_radius: float,
    dt: float,
) -> OracleDistance:
    """Riemann-sum distance to the delay-T filters, from the kernel samples.

    sqrt(dt * sum over midpoints t in [-R, -T) of |h(t)|^2 + 1/(pi R)): the
    energy the grid misses beyond -R is its mean 1/(pi R) within tail_bound
    2/(pi c R^2).  The midpoint rule's own error is not in tail_bound.
    (R - T) / dt must lie within 1e-9 of a whole number m of steps, relative
    to m, or the grid would end away from -T and the sliver between would be
    counted nowhere; DomainError otherwise.
    """
    _require_analog(band)
    if not dt > 0.0:
        raise DomainError("dt must be positive")
    if not (math.isfinite(grid_radius) and grid_radius > 0.0):
        raise DomainError("grid radius must be finite and positive")
    if grid_radius < delay.T:
        raise DomainError("grid radius must reach the truncation point")
    steps = (grid_radius - delay.T) / dt
    m = round(steps) if math.isfinite(steps) else 0
    if not abs(steps - m) <= 1e-9 * max(1, m):
        raise DomainError("the grid must step from -R to -T in a whole number of dt")
    mean, rest = _analog_tail(band.bandwidth, grid_radius)
    energy = _midpoint_energy(band, -grid_radius, dt, m) if m > 0 else 0.0
    return OracleDistance(math.sqrt(energy + mean), rest)


def _analog_tail(c: float, R: float) -> tuple[float, float]:
    """The energy of h beyond R, (1/pi) int_R^inf (1 - cos ct) / t^2 dt, as its
    mean 1/(pi R) and the bound 2/(pi c R^2) on the rest (cos(ct) / t^2 by parts)."""
    return 1.0 / (math.pi * R), 2.0 / (math.pi * c * R * R)


def _midpoint_energy(band: BandpassInterval, start: float, dt: float, m: int) -> float:
    """dt * sum of |h(t)|^2 over the m midpoints t = start + (j + 1/2) dt.

    |h| is the real amplitude of the kernel, so each block of midpoints is
    summed as amp^2 and the block sums are added exactly.
    """
    import numpy as np

    def times(lo: int, hi: int, buf: np.ndarray) -> np.ndarray:
        t = np.add(np.arange(lo, hi, dtype=np.float64), 0.5, out=buf[: hi - lo])
        np.multiply(t, dt, out=t)
        return np.add(start, t, out=t)

    return dt * math.fsum(_fill_range(band, times, m))


def digital_distance_oracle(
    band: BandpassInterval, delay: DigitalDelay, max_index: int
) -> OracleDistance:
    """Partial-sum distance to the N-tap filters, from the defining c_k.

    sqrt(sum_{k=N+1}^{K} |c_k|^2 + mean) with
    c_k = (exp(-i k a) - exp(-i k b)) / (2 pi i k), each exponential made
    from an anchor and a table with no large phase rounded, in blocks whose
    sums are added exactly.  The energy beyond K is its mean
    (1/K - 1/(2K^2)) / (2 pi^2) within tail_bound; see _digital_tail.
    """
    _require_digital(band)
    N = delay.N
    if not isinstance(max_index, int) or isinstance(max_index, bool):
        raise DomainError("max_index must be an integer")
    if max_index <= N:
        raise DomainError("max_index must exceed the look-ahead")
    mean, rest = _digital_tail(band.bandwidth, max_index)
    energy = math.fsum(_coefficient_energies(band, N, max_index - N))
    return OracleDistance(math.sqrt(energy + mean), rest)


def _digital_tail(c: float, K: int) -> tuple[float, float]:
    """The energy of c_k beyond K, sum_{k>K} (1 - cos kc) / k^2 / (2 pi^2), as its
    mean (1/K - 1/(2K^2)) / (2 pi^2) and the bound on the rest: sum_{k>K} 1/k^2
    exceeds 1/K - 1/(2K^2) by under 1/(6K^3) (DLMF 2.10.1), and Abel summation
    bounds the cosine sum by 1/((K+1)^2 sin(c/2)), 0 < c < 2 pi."""
    rest = 1.0 / (6.0 * K**3) + 1.0 / ((K + 1) ** 2 * math.sin(0.5 * c))
    return (1.0 / K - 0.5 / K**2) / (2.0 * math.pi**2), rest / (2.0 * math.pi**2)


_STRIDE = 128  # indices per anchor of the digital oracle's exponentials


def _coefficient_energies(band: BandpassInterval, N: int, n: int) -> list[float]:
    """Sum of |c_k|^2 over each block of k = N + 1 + j, j in range(n), in
    order, into buffers made once per call.

    exp(-i k x) for x = a, b is exp(-i k0 x) exp(-i q x), an anchor k0 every
    _STRIDE indices from the block's first times a table for q < _STRIDE.
    """
    import numpy as np

    def exp_ikx(x: float, k: np.ndarray) -> np.ndarray:
        # x = hi + lo with hi of 32 bits (Veltkamp): k hi is exact for every
        # k < 2**21, so unlike exp(-1j * k * x) no large phase is rounded
        hi = x * 2097153.0 - (x * 2097153.0 - x)
        return np.exp(-1j * hi * k) * np.exp(-1j * (x - hi) * k)

    rows = -(-min(_BLOCK, n) // _STRIDE)
    grid = np.arange(rows * _STRIDE, dtype=np.float64).reshape(rows, _STRIDE)  # j, by anchor
    tables = [exp_ikx(x, grid[0]) for x in (band.a, band.b)]
    k, mag = np.empty((2, rows, _STRIDE))
    ea, eb = np.empty((2, rows, _STRIDE), dtype=np.complex128)
    sums = []
    for start in range(0, n, _BLOCK):
        m = min(start + _BLOCK, n) - start
        r = -(-m // _STRIDE)
        np.add(grid[:r], N + 1 + start, out=k[:r])
        for x, table, e in zip((band.a, band.b), tables, (ea, eb)):
            np.multiply(exp_ikx(x, k[:r, :1]), table, out=e[:r])
        kb, wb, da, db = (v[:r].reshape(-1)[:m] for v in (k, mag, ea, eb))
        np.abs(np.subtract(da, db, out=da), out=wb)
        np.divide(wb, np.multiply(TWO_PI, kb, out=kb), out=wb)  # |c_k|
        sums.append(float(np.sum(np.square(wb, out=wb))))
    return sums


class LimitProbeResult(Frozen):
    """Ladder of (parameter, value) rows with an extrapolated limit.

    fitted_limit is None when the last three values oscillate too much for
    the extrapolation to be trusted.  For the bandwidth-to-infinity probe
    of d(T), candidate_limit carries the sine-integral heuristic
    1 / sqrt(pi T) and reference_bracket the interval (0, 2 pi / T); both
    are reported for comparison only, neither is asserted.
    """

    __slots__ = ("quantity", "rows", "fitted_limit", "candidate_limit", "reference_bracket")

    def __init__(self, quantity: str, rows: tuple[tuple[float, float], ...],
                 fitted_limit: float | None, candidate_limit: float | None = None,
                 reference_bracket: tuple[float, float] | None = None) -> None:
        object.__setattr__(self, "quantity", quantity)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "fitted_limit", fitted_limit)
        object.__setattr__(self, "candidate_limit", candidate_limit)
        object.__setattr__(self, "reference_bracket", reference_bracket)


def _extrapolate(values: list[float]) -> float | None:
    """Aitken delta-squared on the last three values.

    Exact for geometric convergence.  Returns None when the tail is
    oscillating (sign-alternating steps beyond 1e-3 of the value scale),
    falls back to the last value when the steps have already collapsed or
    the acceleration would overshoot.
    """
    v1, v2, v3 = values[-3:]
    d1 = v2 - v1
    d2 = v3 - v2
    scale = max(abs(v1), abs(v2), abs(v3), 1e-300)
    if d1 * d2 < 0.0 and min(abs(d1), abs(d2)) > 1e-3 * scale:
        return None
    denom = d2 - d1
    if abs(denom) <= 1e-14 * scale:
        return v3
    correction = d2 * d2 / denom
    if abs(correction) > 10.0 * abs(d2) + 1e-14 * scale:
        return v3
    return v3 - correction


def _check_ladder(ladder) -> list[float]:
    vals = [float(x) for x in ladder]
    if len(vals) < 4:
        raise NonMonotoneLadder("ladder needs at least four rungs")
    if any(not math.isfinite(x) for x in vals):
        raise NonMonotoneLadder("ladder rungs must be finite")
    steps = [b - a for a, b in zip(vals, vals[1:])]
    if not (all(s > 0.0 for s in steps) or all(s < 0.0 for s in steps)):
        raise NonMonotoneLadder("ladder must be strictly monotone")
    return vals


def limit_probe(
    quantity: str,
    ladder,
    band: BandpassInterval | None = None,
    delay: AnalogDelay | DigitalDelay | None = None,
) -> LimitProbeResult:
    """Evaluate a distance or angle along a parameter ladder and fit its limit.

    Each value is read off the public report functions (delayed_report,
    delayed_report_digital), except dT_vs_T, which takes the bare
    delayed_distance_si that those reports are built on.  quantity selects
    what varies and what is measured:

    * ``dT_vs_T``: distance to the delay-T filters as T runs over the
      ladder, for the fixed analog band (required).
    * ``dT_vs_bandwidth``: the same distance as the bandwidth runs over the
      ladder, at fixed AnalogDelay (required); reports the unproven
      candidate limit and bracket alongside.
    * ``thetaN_vs_N``: digital angle as the look-ahead N runs over the
      ladder, for the fixed digital band (required).
    * ``theta_vs_bandwidth``: angle as the bandwidth runs over the ladder;
      digital causal by default, digital with look-ahead if delay is a
      DigitalDelay, analog delay-T if delay is an AnalogDelay.

    A rung that its band or delay refuses, such as a negative T or an N
    beyond DigitalDelay's bound, raises DomainError with their message.
    """
    rungs = _check_ladder(ladder)
    candidate = bracket = None
    try:
        if quantity == "dT_vs_T":
            if band is None or band.mode != "analog":
                raise DomainError("dT_vs_T needs an analog band")
            # deep look-aheads: the bare distance, without building a report per rung
            values = [delayed_distance_si(band, AnalogDelay(T)) for T in rungs]
        elif quantity == "dT_vs_bandwidth":
            if not isinstance(delay, AnalogDelay):
                raise DomainError("dT_vs_bandwidth needs an AnalogDelay")
            values = [delayed_report(BandpassInterval.analog(0.0, c), delay).distance
                      for c in rungs]
            if delay.T > 0.0:
                candidate = 1.0 / math.sqrt(math.pi * delay.T)
                bracket = (0.0, TWO_PI / delay.T)
        elif quantity == "thetaN_vs_N":
            if band is None or band.mode != "digital":
                raise DomainError("thetaN_vs_N needs a digital band")
            if any(N != int(N) for N in rungs):
                raise DomainError("look-ahead rungs must be integers")
            values = [delayed_report_digital(band, DigitalDelay(int(N))).angle for N in rungs]
        elif quantity == "theta_vs_bandwidth" and isinstance(delay, AnalogDelay):
            values = [delayed_report(BandpassInterval.analog(0.0, c), delay).angle
                      for c in rungs]
        elif quantity == "theta_vs_bandwidth":
            dd = delay if isinstance(delay, DigitalDelay) else DigitalDelay(0)
            values = [delayed_report_digital(_band_of_width(c), dd).angle for c in rungs]
        else:
            raise DomainError(f"unknown probe quantity {quantity!r}")
    except DomainError:
        raise
    except ValueError as exc:
        raise DomainError(str(exc)) from exc
    return LimitProbeResult(
        quantity, tuple(zip(rungs, values)), _extrapolate(values), candidate, bracket
    )
