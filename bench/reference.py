"""Independent 40-digit reference for the numbers causalgap reports.

Shares no code with causalgap: it works from the defining closed forms in
mpmath, with every float argument converted exactly.

Analog band of width c, look-ahead T (DLMF 6.2.5 for the sine integral):

    d^2 = c/2 - (c Si(cT) - 2 sin^2(cT/2) / T) / pi,      d^2 = c/2 at T = 0.

Digital band of width c in (0, 2 pi), look-ahead N samples.  The squared
distance is sum_{k>N} (1 - cos kc) / (2 pi^2 k^2); with the Hurwitz zeta
function and the Lerch transcendent (DLMF 25.11.1, 25.14.1)

    d^2 = (zeta(2, N+1) - Re[e^{i(N+1)c} Phi(e^{ic}, 2, N+1)]) / (2 pi^2).

For N <= DIRECT_MAX_N the same tail is taken as the full sum
sum_{k>=1} (1 - cos kc) / k^2 = pi c / 2 - c^2 / 4 minus a direct mpmath
partial sum, which is faster there and independent of the Lerch route.

Fourier coefficients of the band indicator are taken literally,
c_k = (e^{-ika} - e^{-ikb}) / (2 pi i k) and c_0 = (b - a) / (2 pi).
"""

from __future__ import annotations

import mpmath

DPS = 40
DIRECT_MAX_N = 1000


def analog_distance(c: float, T: float | None) -> mpmath.mpf:
    with mpmath.workdps(DPS):
        c = mpmath.mpf(c)
        if not T:
            return mpmath.sqrt(c / 2)
        T = mpmath.mpf(T)
        x = c * T
        mass = (c * mpmath.si(x) - 2 * mpmath.sin(x / 2) ** 2 / T) / mpmath.pi
        return mpmath.sqrt(c / 2 - mass)


def digital_distance(c: float, N: int | None) -> mpmath.mpf:
    N = N or 0
    tail = digital_tail_direct if N <= DIRECT_MAX_N else digital_tail_lerch
    with mpmath.workdps(DPS):
        return mpmath.sqrt(tail(c, N) / (2 * mpmath.pi**2))


def digital_tail_direct(c: float, N: int) -> mpmath.mpf:
    """sum_{k>N} (1 - cos kc) / k^2 as the full sum minus N direct terms."""
    with mpmath.workdps(DPS):
        c = mpmath.mpf(c)
        partial = mpmath.fsum((1 - mpmath.cos(k * c)) / k**2 for k in range(1, N + 1))
        return mpmath.pi * c / 2 - c * c / 4 - partial


def digital_tail_lerch(c: float, N: int) -> mpmath.mpf:
    """sum_{k>N} (1 - cos kc) / k^2 through zeta(2, N+1) and Phi(e^{ic}, 2, N+1)."""
    with mpmath.workdps(DPS):
        c = mpmath.mpf(c)
        phi = mpmath.lerchphi(mpmath.expj(c), 2, N + 1)
        return mpmath.zeta(2, N + 1) - mpmath.re(mpmath.expj((N + 1) * c) * phi)


def analog_norm(c: float) -> mpmath.mpf:
    with mpmath.workdps(DPS):
        return mpmath.sqrt(mpmath.mpf(c))


def digital_norm(c: float) -> mpmath.mpf:
    with mpmath.workdps(DPS):
        return mpmath.sqrt(mpmath.mpf(c) / (2 * mpmath.pi))


def fourier_coefficient(a: float, b: float, k: int) -> mpmath.mpc:
    with mpmath.workdps(DPS):
        a = mpmath.mpf(a)
        b = mpmath.mpf(b)
        if k == 0:
            return mpmath.mpc((b - a) / (2 * mpmath.pi))
        return (mpmath.expj(-k * a) - mpmath.expj(-k * b)) / (2j * mpmath.pi * k)


def angle(distance: mpmath.mpf, norm: mpmath.mpf) -> mpmath.mpf:
    with mpmath.workdps(DPS):
        return mpmath.asin(distance / norm)


def rel_err(value: float, ref: mpmath.mpf) -> float:
    with mpmath.workdps(DPS):
        return float(abs(mpmath.mpf(value) - ref) / abs(ref))
