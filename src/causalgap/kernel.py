"""Shared numeric primitives.

Everything downstream reduces to integrals or series over one even kernel,

    kappa_c(t) = (1 - cos(c t)) / (pi t^2),   kappa_c(0) = c^2 / (2 pi),

which is the squared magnitude of the ideal band impulse response for a band
of width c.  This module provides the band type, oscillatory_tail_integral,
the one route to the kernel's tail integral behind every analog distance,
and oscillatory_tail_sum, the one route to the tail sums of the squared
Fourier coefficients (1 - cos(k c)) / (pi k^2) behind every digital
distance.  Everything is pure Python.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator

from ._frozen import Frozen

TWO_PI = 2.0 * math.pi
#: 2 pi - TWO_PI, so that TWO_PI + _TWO_PI_LO carries 2 pi to twice the precision
_TWO_PI_LO = 2.4492935982947064e-16

__all__ = [
    "TWO_PI",
    "BandpassInterval",
    "oscillatory_tail_integral",
    "oscillatory_tail_sum",
]


class BandpassInterval(Frozen):
    """A frequency band [a, b], either on the real line or on the circle.

    Analog bands allow any finite a < b.  Digital bands must sit strictly
    inside (0, 2 pi); violations are rejected at construction so downstream
    code never sees an invalid band.
    """

    __slots__ = ("a", "b", "mode")

    def __init__(self, a: float, b: float, mode: str = "analog") -> None:
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("band edges must be finite")
        if not a < b:
            raise ValueError(f"band edges must satisfy a < b, got [{a}, {b}]")
        if not math.isfinite(b - a):
            raise ValueError(f"band width b - a overflows, got [{a}, {b}]")
        if mode not in ("analog", "digital"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "digital" and not (0.0 < a and b < TWO_PI):
            raise ValueError(
                f"digital band must lie strictly inside (0, 2*pi), got [{a}, {b}]"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "mode", mode)

    @property
    def bandwidth(self) -> float:
        return self.b - self.a

    @property
    def center(self) -> float:
        # halving each edge first keeps a + b from overflowing, but it
        # rounds differently where an edge is subnormal, so it is only the
        # fallback
        mid = 0.5 * (self.a + self.b)
        return mid if math.isfinite(mid) else 0.5 * self.a + 0.5 * self.b

    @classmethod
    def analog(cls, a: float, b: float) -> "BandpassInterval":
        return cls(float(a), float(b), "analog")

    @classmethod
    def digital(cls, a: float, b: float) -> "BandpassInterval":
        return cls(float(a), float(b), "digital")


_E2_MAX_STEPS = 200
#: (-1)^(k+1) / ((2k)! (2k - 1)), k = 1..20: the Taylor series of
#: S(x) = Si(x) - (1 - cos x) / x = integral_0^x (1 - cos u) / u^2 du to x = 4
_S_COEFFICIENTS = tuple(
    (-1.0) ** (k + 1) / (math.factorial(2 * k) * (2 * k - 1)) for k in range(1, 21)
)


def _half_pi_minus_s(x: float) -> float:
    """pi/2 - S(x) for 0 <= x < 4, summed exactly with a two-part pi/2.

    S climbs from 0 to S(4) = 1.345, so the difference stays above 0.22.
    """
    x2 = x * x
    power = x
    terms = [0.5 * math.pi, 0.25 * _TWO_PI_LO]
    for coef in _S_COEFFICIENTS:
        term = coef * power
        terms.append(-term)
        if abs(term) < 2.0**-60:
            break
        power *= x2
    return math.fsum(terms)


def _re_e2_imaginary(x: float) -> float:
    """Re E_2(i x) = Re(h e^{-i x}) for x >= 4, E_2(z) = integral_1^inf e^{-z s} / s^2 ds.

    h = 1 / (z + 2 - 1*2 / (z + 4 - 2*3 / (z + 6 - ...))) by the modified
    Lentz method in complex arithmetic (Numerical Recipes 6.3, expint):
    about 50 steps near x = 4, 8 at x = 100 and 3 from x = 1e4 on.
    """
    b = complex(2.0, x)
    c = 1e300
    h = d = 1.0 / b
    for i in range(1, _E2_MAX_STEPS):
        an = -i * (i + 1.0)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= 2.0**-53:
            return h.real * math.cos(x) + h.imag * math.sin(x)
    raise RuntimeError(f"E_2 continued fraction did not settle at x = {x!r}")


def oscillatory_tail_integral(c: float, T: float) -> float:
    """integral over t >= T of (1 - cos(c t)) / t^2, for c > 0 and T >= 0.

    pi times the kernel mass beyond T: F(cT) / T with
    F(x) = 1 - cos x + x (pi/2 - Si x) = 1 - Re E_2(i x) (DLMF 6.2, 8.19).
    From x = 4 on |E_2(i x)| is about 1/x, so 1 - Re E_2 cancels nothing;
    below, F = x (pi/2 - S(x)) and c (pi/2 - S) is returned.  The relative
    error stays below about 1e-15 at every cT, where c/2 - (1/2)
    integral_{-T}^{T} loses about cT ulps.  From cT = 2^56 on the
    correction to 1/T lies below rounding and 1/T is returned, which keeps
    cT from overflowing.  T = 0 gives pi c / 2.
    """
    if not c > 0.0:
        raise ValueError("bandwidth c must be positive")
    if not T >= 0.0:
        raise ValueError("start T must be nonnegative")
    if T == 0.0:
        return 0.5 * math.pi * c
    x = c * T
    if x >= 2.0**56:
        return 1.0 / T
    if x < 4.0:
        return c * _half_pi_minus_s(x)
    return (1.0 - _re_e2_imaginary(x)) / T


#: B_2, B_4, ..., B_16
_BERNOULLI_EVEN = (
    1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0,
    5.0 / 66.0, -691.0 / 2730.0, 7.0 / 6.0, -3617.0 / 510.0,
)
#: first index of the series in oscillatory_tail_sum, which are accurate to
#: rounding from there on; smaller indices are summed term by term
_SERIES_MIN_INDEX = 256
#: a * rho below which Euler-Maclaurin replaces the expansion of Phi
_EXPANSION_MIN_ARG = 60.0
_EXPANSION_MAX_TERMS = 100
#: (-1)^j / j! for j = 1, 2, ...
_SIGNED_INV_FACTORIAL = tuple(
    (-1.0) ** j / math.factorial(j) for j in range(1, _EXPANSION_MAX_TERMS + 1)
)


class _Width:
    """What oscillatory_tail_sum has computed for one width hi + lo, grown on demand.

    rho is hi + lo rounded.  half is rho / 2 in three parts: Veltkamp's
    split of hi / 2 into two of 26 bits each, whose products with any
    k < 256 are exact, and lo / 2.  head holds the terms
    2 sin^2(k rho / 2) / k^2 from k = 257 - len(head) to 255 and then the
    series tail from 256; it is empty until a call with first < 256.
    lerch is None or (ratio, (b_0, ..., b_M)), the Lerch expansion's
    coefficients.  Each field is an immutable value that is only ever
    replaced whole, so threads that share an entry may repeat work but
    always read a consistent one.
    """

    __slots__ = ("rho", "half", "head", "lerch")

    def __init__(self, hi: float, lo: float) -> None:
        self.rho = hi + lo
        h = 0.5 * hi
        top = (p := 134217729.0 * h) - (p - h)  # 2^27 + 1 leaves top 26 bits
        self.half = (top, h - top, 0.5 * lo)
        self.head = ()
        self.lerch = None


@functools.lru_cache(maxsize=64)
def _width(hi: float, lo: float) -> _Width:
    """The memo entry of width hi + lo; the 64 widths used last are kept."""
    return _Width(hi, lo)


def _trigamma(a: float) -> float:
    """psi'(a) for a >= _SERIES_MIN_INDEX, by its asymptotic series.

    psi'(a) ~ 1/a + 1/(2 a^2) + sum_j B_2j / a^(2j+1) (DLMF 5.15.8),
    cut after B_10: at a >= 256 the first omitted term is below 1e-29 of
    the sum.
    """
    inv2 = 1.0 / (a * a)
    power = inv2 / a
    terms = [1.0 / a, 0.5 * inv2]
    for bern in _BERNOULLI_EVEN[:5]:
        terms.append(bern * power)
        power *= inv2
    return math.fsum(terms)


def _lerch_cos_sum(width: _Width, a: float) -> float:
    """sum_{k >= a} cos(k rho) / k^2 for a * rho >= _EXPANSION_MIN_ARG.

    The sum is Re[e^{i a rho} Phi(w, 2, a)] with w = e^{i rho}, and
    Phi(w, 2, a) = integral_0^inf t e^{-a t} / (1 - w e^{-t}) dt
    (DLMF 25.14.5).  Expanding 1 / (1 - w e^{-t}) = sum_m b_m t^m gives the
    large-a series Phi ~ sum_m b_m (m+1)! / a^(m+2), whose coefficients
    follow from (1 - w e^{-t}) sum_m b_m t^m = 1:
    (1 - w) b_m = w sum_{j=1}^{m} b_{m-j} (-1)^j / j!.  The terms fall like
    m! / (a rho)^m.  Summation stops when two consecutive terms are both
    negligible, since at rho = pi every other coefficient vanishes.  The b_m
    depend on rho alone: they are read from width, and only the ones no
    earlier call needed are computed and stored back.
    """
    rho = width.rho
    if width.lerch is None:
        half = math.sin(0.5 * rho)
        b0 = 1.0 / complex(2.0 * half * half, -math.sin(rho))  # 1 / (1 - w)
        width.lerch = (cmath.rect(1.0, rho) * b0, (b0,))
    ratio, known = width.lerch
    coeffs = list(known)
    total = coeffs[0]
    scale = 1.0
    previous = abs(total)
    # the tail is about 1/a and the terms enter it divided by a^2
    negligible = 2.0**-55 * a
    for m in range(1, _EXPANSION_MAX_TERMS):
        if m == len(coeffs):
            coeffs.append(
                ratio * sum(map(operator.mul, reversed(coeffs), _SIGNED_INV_FACTORIAL))
            )
        scale *= (m + 1) / a
        term = coeffs[m] * scale
        total += term
        size = abs(term)
        if size + previous <= negligible:
            break
        previous = size
    else:
        raise RuntimeError(f"Lerch expansion did not settle at a*rho = {a * rho!r}")
    if len(coeffs) > len(known):
        width.lerch = (ratio, tuple(coeffs))
    return (cmath.rect(1.0, a * rho) * total).real / (a * a)


def _euler_maclaurin_tail(rho: float, a: float) -> float:
    """sum_{k >= a} (1 - cos(k rho)) / k^2 for a * rho < _EXPANSION_MIN_ARG.

    Euler-Maclaurin on g(k) = (1 - cos(rho k)) / k^2 (DLMF 2.10.1): the
    integral from a (oscillatory_tail_integral), plus g(a)/2, minus
    sum_j B_2j / (2j)! g^(2j-1)(a).  The derivatives come from Leibniz'
    rule with u = 1 - cos(rho k), u^(n) = -rho^n cos(rho k + n pi/2), and
    v = k^-2, v^(n) = (-1)^n (n+1)! k^-(n+2).  Here rho < 60/256, so eight
    terms leave a remainder near 2 (rho / 2 pi)^16, far below rounding.
    """
    x = a * rho
    half = math.sin(0.5 * x)
    u0 = 2.0 * half * half
    cos_x, sin_x = math.cos(x), math.sin(x)
    top = 2 * len(_BERNOULLI_EVEN)
    du = [u0]
    dv = [1.0 / (a * a)]
    rho_n = 1.0
    for n in range(1, top):
        rho_n *= rho
        du.append(-rho_n * (cos_x, -sin_x, -cos_x, sin_x)[n % 4])
        dv.append(-dv[-1] * (n + 1) / a)
    parts = [oscillatory_tail_integral(rho, a), 0.5 * u0 * dv[0]]
    for j, bern in enumerate(_BERNOULLI_EVEN, start=1):
        p = 2 * j - 1
        deriv = sum(math.comb(p, n) * du[n] * dv[p - n] for n in range(p + 1))
        parts.append(-bern / math.factorial(2 * j) * deriv)
    return math.fsum(parts)


def _fold(c: float) -> tuple[float, float]:
    """(hi, lo) with hi + lo = min(c, 2 pi - c), the width that 1 - cos(k c)
    sees for integer k, to twice double precision.

    2 pi - c is taken against a two-part 2 pi: hi = TWO_PI - c is exact, and
    the rounded sum hi + lo keeps full relative precision as c approaches
    2 pi.
    """
    return (c, 0.0) if c <= math.pi else (TWO_PI - c, _TWO_PI_LO)


def _series_tail(width: _Width, a: float) -> float:
    """sum over k >= a of (1 - cos(k rho)) / k^2, for a >= _SERIES_MIN_INDEX."""
    if a * width.rho < _EXPANSION_MIN_ARG:
        return _euler_maclaurin_tail(width.rho, a)
    return _trigamma(a) - _lerch_cos_sum(width, a)


def oscillatory_tail_sum(c: float, first: int) -> float:
    """sum over k >= first of (1 - cos(k c)) / k^2, at a cost independent of first.

    c must lie in (0, 2 pi) and first in [1, 2^53], beyond which the index
    is no longer exact in double precision.  Only the width
    rho = min(c, 2 pi - c) enters, as _fold's pair and rounded.  From
    a = max(first, 256) on the sum is
    psi'(a) - Re[e^{i a rho} Phi(e^{i rho}, 2, a)] (DLMF 25.14), psi' from
    its asymptotic series and Phi from its large-a expansion.  Below
    a * rho = 60 that expansion needs too many terms, and Euler-Maclaurin
    on the summand is used instead.  The phase a * rho is rounded once; its
    error of a few ulps of a * rho moves the sum by a few ulps, since the
    oscillating part is only 1/(a rho) of it.  A first below 256 adds the
    head terms 2 sin^2(k rho / 2) / k^2, first <= k < 256, in one exact
    sum; all of them are nonnegative, so nothing cancels.  Each head phase
    x + e = k rho / 2 comes from _Width.half by Fast2Sum, to twice double
    precision, and sin(x + e) is taken as sin x + e cos x.

    What depends on the width alone is kept for the 64 widths used last:
    the head terms with the tail from 256, and the Lerch coefficients b_m.
    The first call on a width computes what it needs, as many as 255 sines
    and cosines, and stores it; a repeated call computes only what no earlier call on that
    width did, so below 256 it costs one exact sum of at most 256 stored
    terms, and from 256 on O(M) for the M expansion terms it reads.
    math.fsum is correctly rounded, so a value does not depend on which
    calls came before.
    """
    if not 0.0 < c < TWO_PI:
        raise ValueError("bandwidth c must lie in (0, 2*pi)")
    if not 1 <= first <= 2**53:
        raise ValueError("first index must lie in [1, 2**53]")
    width = _width(*_fold(c))
    if first >= _SERIES_MIN_INDEX:
        return _series_tail(width, float(first))
    head = width.head
    lo = _SERIES_MIN_INDEX + 1 - len(head)
    if first < lo:
        top, mid, low = width.half
        sin, cos = math.sin, math.cos
        terms = []
        for k in map(float, range(first, min(lo, _SERIES_MIN_INDEX))):
            x = (a := k * top) + (b := k * mid)  # a and b are exact
            # Fast2Sum's error of x, plus the fold's low part, is e
            s = sin(x) + ((b - (x - a)) + k * low) * cos(x)
            terms.append(2.0 * s * s / (k * k))
        terms += head or (_series_tail(width, float(_SERIES_MIN_INDEX)),)
        head = width.head = tuple(terms)
        lo = first
    return math.fsum(head[first - lo:])
