"""Checks the benchmark's mpmath reference against brute force at small T and N.

Run with: python3 -m pytest bench/test_reference.py
"""

import math
import os
import sys

import mpmath
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402


def _gap(x, y) -> mpmath.mpf:
    with mpmath.workdps(reference.DPS):
        return abs(x - y)


def _square(x) -> mpmath.mpf:
    with mpmath.workdps(reference.DPS):
        return x * x


def _analog_brute(c: float, T: float) -> mpmath.mpf:
    """d^2 as the tail integral of (1 - cos ct) / (pi t^2) over [T, inf).

    The non-oscillating 1 / (pi t^2) part integrates to 1 / (pi T); the
    cosine part goes to mpmath's oscillatory quadrature.  At T = 0 the
    smooth kernel is integrated over [0, 1] first.
    """
    with mpmath.workdps(30):
        cc = mpmath.mpf(c)
        if T == 0.0:
            kernel = lambda t: (1 - mpmath.cos(cc * t)) / (mpmath.pi * t * t)  # noqa: E731
            return mpmath.quad(kernel, [0, 1]) + _analog_brute(c, 1.0)
        TT = mpmath.mpf(T)
        wave = lambda t: mpmath.cos(cc * t) / (mpmath.pi * t * t)  # noqa: E731
        return 1 / (mpmath.pi * TT) - mpmath.quadosc(wave, [TT, mpmath.inf], omega=cc)


def _digital_brute(c: float, N: int, extra: int) -> tuple[mpmath.mpf, mpmath.mpf]:
    """2 pi^2 d^2 summed term by term to K = N + extra, plus a bound on the rest.

    The monotone part of the remainder, sum_{k>K} 1/k^2, is zeta(2, K+1);
    summation by parts bounds the cosine part by 2 / ((K+1)^2 |sin(c/2)|).
    """
    with mpmath.workdps(30):
        cc = mpmath.mpf(c)
        K = N + extra
        head = mpmath.fsum((1 - mpmath.cos(k * cc)) / k**2 for k in range(N + 1, K + 1))
        value = head + mpmath.zeta(2, K + 1)
        bound = 2 / ((K + 1) ** 2 * abs(mpmath.sin(cc / 2)))
        return value, bound


@pytest.mark.parametrize("c", [0.75, 2.0, 5.5])
@pytest.mark.parametrize("T", [0.25, 1.0, 3.0])
def test_analog_matches_quadrature(c, T):
    brute = _analog_brute(c, T)
    ref = _square(reference.analog_distance(c, T))
    assert _gap(ref, brute) <= 1e-20 * brute


@pytest.mark.parametrize("c", [0.75, 2.0])
def test_analog_causal_is_half_the_energy(c):
    ref = _square(reference.analog_distance(c, None))
    assert _gap(ref, _analog_brute(c, 0.0)) <= 1e-18 * ref


@pytest.mark.parametrize("route", [reference.digital_tail_direct, reference.digital_tail_lerch])
@pytest.mark.parametrize("c", [0.5, math.pi, 5.0])
@pytest.mark.parametrize("N", [0, 1, 7, 40])
def test_digital_tail_matches_term_sum(route, c, N):
    brute, bound = _digital_brute(c, N, extra=4000)
    assert _gap(route(c, N), brute) <= bound


def test_digital_routes_agree_past_direct_cutoff():
    N = reference.DIRECT_MAX_N + 1
    for c in (1.25, 3.5):
        direct = reference.digital_tail_direct(c, N)
        lerch = reference.digital_tail_lerch(c, N)
        assert _gap(direct, lerch) <= 1e-30 * direct


def test_digital_distance_half_circle_constant():
    # width pi, causal: distance 1 / (2 sqrt 2)
    assert _gap(reference.digital_distance(math.pi, None), 1 / (2 * mpmath.sqrt(2))) < 1e-16


@pytest.mark.parametrize("k", [-9, -1, 0, 2, 33])
def test_fourier_coefficient_matches_quadrature(k):
    a, b = 0.625, 2.875
    with mpmath.workdps(30):
        brute = mpmath.quad(lambda t: mpmath.expj(-k * t), [a, b]) / (2 * mpmath.pi)
    assert _gap(reference.fourier_coefficient(a, b, k), brute) < 1e-25
