"""40-digit mpmath references for the delayed distances, used only by tests.

Every float argument converts exactly, so the references are the distances
of the very doubles the library receives.

Kernel: kappa_c(t) = (1 - cos ct) / (pi t^2) = 2 sin^2(ct/2) / (pi t^2), and
its mass over [-T, T] by mpmath quadrature, which shares nothing with the
sine-integral closed forms below.

Analog: d^2 = c/2 - (c Si(cT) - 2 sin^2(cT/2) / T) / pi (DLMF 6.2), with
the working precision raised by the digits that form loses to cancellation.
Digital: d^2 = (zeta(2, N+1) - Re[e^{i(N+1)c} Phi(e^{ic}, 2, N+1)]) / (2 pi^2)
(DLMF 25.11, 25.14), or, for many N at once, the whole sum c(2 pi - c)/4
(Parseval) minus the running partial sum, which also gives the tails.
"""

from __future__ import annotations

import math

import mpmath

DPS = 40


def kernel(c: float, t: float) -> mpmath.mpf:
    """kappa_c(t), with its limit c^2 / (2 pi) at t = 0."""
    with mpmath.workdps(DPS):
        c = mpmath.mpf(c)
        t = mpmath.mpf(t)
        if t == 0:
            return c**2 / (2 * mpmath.pi)
        return 2 * mpmath.sin(c * t / 2) ** 2 / (mpmath.pi * t**2)


def window_mass(c: float, T: float) -> mpmath.mpf:
    """integral over [-T, T] of kappa_c, by quadrature over its half periods."""
    with mpmath.workdps(DPS):
        pieces = max(1, math.ceil(c * T / math.pi))
        nodes = mpmath.linspace(0, mpmath.mpf(T), pieces + 1)
        return 2 * mpmath.quad(lambda t: kernel(c, t), nodes)


def analog_distance(c: float, T: float) -> mpmath.mpf:
    extra = max(0, int(math.log10(c * T))) if c * T > 1.0 else 0
    with mpmath.workdps(DPS + extra):
        c = mpmath.mpf(c)
        T = mpmath.mpf(T)
        x = c * T
        mass = (c * mpmath.si(x) - 2 * mpmath.sin(x / 2) ** 2 / T) / mpmath.pi
        return +mpmath.sqrt(c / 2 - mass)


def digital_tail(c: float, N: int) -> mpmath.mpf:
    """sum_{k > N} (1 - cos kc) / k^2."""
    with mpmath.workdps(DPS):
        c = mpmath.mpf(c)
        phi = mpmath.lerchphi(mpmath.expj(c), 2, N + 1)
        return mpmath.zeta(2, N + 1) - mpmath.re(mpmath.expj((N + 1) * c) * phi)


def digital_distance(c: float, N: int) -> mpmath.mpf:
    with mpmath.workdps(DPS):
        return mpmath.sqrt(digital_tail(c, N) / (2 * mpmath.pi**2))


def digital_tails_upto(c: float, n_max: int) -> list[mpmath.mpf]:
    """digital_tail(c, N) for N = 0, 1, ..., n_max, at one term per N.

    The tail is c (2 pi - c) / 4 minus sum_{k <= N} (1 - cos kc) / k^2; the
    subtraction cancels at most log10 of 1/tail digits of the 40.
    """
    with mpmath.workdps(DPS):
        c = mpmath.mpf(c)
        tail = c * (2 * mpmath.pi - c) / 4
        out = [tail]
        for k in range(1, n_max + 1):
            tail -= (1 - mpmath.cos(k * c)) / k**2
            out.append(tail)
        return out


def digital_distances_upto(c: float, n_max: int) -> list[mpmath.mpf]:
    """digital_distance(c, N) for N = 0, 1, ..., n_max, from digital_tails_upto."""
    with mpmath.workdps(DPS):
        scale = 2 * mpmath.pi**2
        return [mpmath.sqrt(tail / scale) for tail in digital_tails_upto(c, n_max)]


def rel_err(value: float, ref: mpmath.mpf) -> float:
    with mpmath.workdps(DPS):
        return float(abs(mpmath.mpf(value) - ref) / abs(ref))
