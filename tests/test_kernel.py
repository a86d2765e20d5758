"""Numeric primitives: band type, kernel tail integral, kernel tail sums.

Every closed form used downstream is checked here against an independent
brute-force route (literal partial summation, or 40-digit mpmath: special
functions, or quadrature of the defining integrand).
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
import mpmath
import mpref

from causalgap import BandpassInterval
from causalgap import kernel
from causalgap.kernel import oscillatory_tail_integral, oscillatory_tail_sum

TWO_PI = 2.0 * math.pi


class TestBandpassInterval:
    def test_bandwidth_and_center(self):
        band = BandpassInterval.analog(-1.0, 3.0)
        assert band.bandwidth == 4.0
        assert band.center == 1.0
        assert band.mode == "analog"

    def test_rejects_empty_or_reversed_band(self):
        with pytest.raises(ValueError):
            BandpassInterval.analog(2.0, 2.0)
        with pytest.raises(ValueError):
            BandpassInterval.analog(3.0, 1.0)

    def test_digital_band_range(self):
        BandpassInterval.digital(1e-9, TWO_PI - 1e-9)
        with pytest.raises(ValueError):
            BandpassInterval.digital(0.0, 1.0)
        with pytest.raises(ValueError):
            BandpassInterval.digital(1.0, TWO_PI)
        with pytest.raises(ValueError):
            BandpassInterval.digital(-0.5, 1.0)

    def test_rejects_nonfinite_edges(self):
        with pytest.raises(ValueError):
            BandpassInterval.analog(0.0, math.inf)
        with pytest.raises(ValueError):
            BandpassInterval.analog(math.nan, 1.0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            BandpassInterval(0.0, 1.0, mode="mixed")

    def test_rejects_overflowing_width(self):
        with pytest.raises(ValueError):
            BandpassInterval.analog(-1e308, 1e308)
        with pytest.raises(ValueError):
            BandpassInterval.analog(-9e307, 9e307)

    def test_center_is_finite_and_keeps_its_rounding(self):
        assert BandpassInterval.analog(1e308, 1.7e308).center == 1.35e308
        # halving each subnormal edge first would round to 5e-324
        assert BandpassInterval.analog(5e-324, 1e-323).center == 1e-323


def _si_form(x):
    """(1 - cos x) / x + pi/2 - Si(x) at 40 digits, pi/2 at x = 0."""
    with mpmath.workdps(40):
        if x == 0.0:
            return +mpmath.pi / 2
        x = mpmath.mpf(x)
        return 2 * mpmath.sin(x / 2) ** 2 / x + mpmath.pi / 2 - mpmath.si(x)


class TestSineIntegral:
    """The sine integral enters through F(x) = 1 - cos x + x (pi/2 - Si x),
    which oscillatory_tail_integral(c, T) returns as F(cT) / T."""

    def test_at_zero(self):
        # Si(0) = 0: the tail from 0, or from a start where cT is subnormal, is pi c / 2
        assert oscillatory_tail_integral(2.0, 0.0) == math.pi
        assert oscillatory_tail_integral(2.0, 1e-320) == math.pi

    def test_against_quadrature_oracle(self):
        # independent route: Si by 40-digit quadrature of sin(u)/u itself
        for x in (0.5, 1.0, math.pi, 10.0, 50.0):
            with mpmath.workdps(40):
                si = mpmath.quad(lambda u: mpmath.sin(u) / u, mpmath.linspace(0, x, 17))
                s = mpmath.sin(mpmath.mpf(x) / 2)
                closed = float(2 * s * s + x * (mpmath.pi / 2 - si))
            assert abs(oscillatory_tail_integral(x, 1.0) - closed) <= 1e-12 * max(1.0, x)

    @given(st.floats(0.0, 1e4))
    def test_matches_si_form_at_random_points(self, x):
        ref = _si_form(x)
        assert mpref.rel_err(oscillatory_tail_integral(1.0, x), ref) <= 1e-15

    def test_large_argument_asymptote(self):
        # F(x) -> 1 as Si(x) -> pi/2
        assert abs(1e4 * oscillatory_tail_integral(1.0, 1e4) - 1.0) < 1e-3


class TestSineIntegralComplement:
    """pi/2 - Si(x), plus (1 - cos x) / x, is oscillatory_tail_integral(1, x);
    the points straddle the switch from the series to E_2 at x = 4."""

    @pytest.mark.parametrize("x", [0.0, 1e-8, 0.5, 3.99, 4.0, 4.01, 10.0, 1e6, 1e12, 1e300])
    def test_absolute_error_against_mpmath(self, x):
        with mpmath.workdps(40):
            complement = -mpmath.im(mpmath.e1(mpmath.mpc(0, x))) if x else mpmath.pi / 2
            ref = complement + (2 * mpmath.sin(mpmath.mpf(x) / 2) ** 2 / x if x else 0)
            err = float(abs(mpmath.mpf(oscillatory_tail_integral(1.0, x)) - ref))
        # absolute error, scaled by the 1/x envelope the function decays in
        assert err * max(1.0, x) <= 2e-15
        assert mpref.rel_err(oscillatory_tail_integral(1.0, x), ref) <= 1e-15

    def test_rejects_negative_argument(self):
        for T in (-1.0, math.nan):
            with pytest.raises(ValueError):
                oscillatory_tail_integral(1.0, T)


class TestOscillatoryTailIntegral:
    def test_zero_start_is_half_the_energy(self):
        assert oscillatory_tail_integral(2.0, 0.0) == math.pi

    def test_matches_sine_integral_mass(self):
        # pi * (c/2 - (1/2) mass over [-T, T]) = tail beyond T, Si from mpmath
        for c, T in ((0.5, 0.1), (2.0, 1.0), (6.0, 10.0)):
            s = math.sin(0.5 * c * T)
            si = float(mpmath.si(c * T))
            mass = 2.0 * (c * si - 2.0 * s * s / T) / math.pi
            assert oscillatory_tail_integral(c, T) == pytest.approx(
                math.pi * (0.5 * c - 0.5 * mass), rel=1e-12
            )

    def test_antiderivative_identity(self):
        # mass over [0, T] by 40-digit quadrature must match c/2 less the
        # closed-form tail beyond T
        for c in (0.5, 1.0, math.pi, 6.0):
            for T in (0.1, 1.0, 10.0):
                quad = float(mpref.window_mass(c, T)) / 2.0
                closed = 0.5 * c - oscillatory_tail_integral(c, T) / math.pi
                assert abs(quad - closed) <= 1e-8

    def test_unsettled_fraction_raises(self, monkeypatch):
        monkeypatch.setattr(kernel, "_E2_MAX_STEPS", 3)
        with pytest.raises(RuntimeError):
            oscillatory_tail_integral(1.0, 5.0)

    def test_far_start_tends_to_one_over_t(self):
        # c T beyond 2^56: the oscillating correction is below rounding
        assert oscillatory_tail_integral(1e300, 1.0) == 1.0
        assert oscillatory_tail_integral(1e300, 1e300) == 1e-300
        d = math.sqrt(oscillatory_tail_integral(1e10, 1e7) / math.pi)
        assert mpref.rel_err(d, mpref.analog_distance(1e10, 1e7)) <= 1e-14


class TestCoefficientTailSum:
    """The tail of the squared Fourier coefficients, (1 - cos k c) / (pi k^2),
    which is oscillatory_tail_sum scaled by 1 / pi."""

    def test_against_direct_partial_sum(self):
        # dumb oracle: literal (1 - cos k c) / (pi k^2), one million terms
        for c, start in ((1.0, 1), (math.pi, 3), (6.0, 2)):
            value = oscillatory_tail_sum(c, start) / math.pi
            k = np.arange(start, start + 10**6, dtype=np.float64)
            dumb = float(np.sum((1.0 - np.cos(c * k)) / (math.pi * k * k)))
            # what the dumb sum left out is at most the comparison bound
            slack = 2.0 / (math.pi * (start + 10**6 - 1))
            assert abs(value - dumb) <= slack

    def test_far_tail_is_small(self):
        value = oscillatory_tail_sum(math.pi, 10**6) / math.pi
        assert 0.0 < value <= 2.0 / (math.pi * 10**6)

    def test_rejects_bad_domain(self):
        # outside 0 < c < 2 pi, non-finite, or a first index below one
        for c in (-1.0, 7.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                oscillatory_tail_sum(c, 1)
        with pytest.raises(ValueError):
            oscillatory_tail_sum(1.0, -3)


class TestOscillatoryTailSum:
    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            oscillatory_tail_sum(0.0, 1)
        with pytest.raises(ValueError):
            oscillatory_tail_sum(TWO_PI, 1)
        with pytest.raises(ValueError):
            oscillatory_tail_sum(1.0, 0)
        with pytest.raises(ValueError):
            oscillatory_tail_sum(1.0, 2**53 + 1)
        with pytest.raises(ValueError):
            oscillatory_tail_sum(1.0, 10**400)

    @pytest.mark.parametrize("c", [1e-3, 0.1, 0.199, 0.2, 1.0, math.pi, 4.0, TWO_PI - 1e-3])
    @pytest.mark.parametrize("first", [1, 2, 100, 255, 256, 301, 5000, 10**8])
    def test_against_lerch_reference(self, c, first):
        # a few ulps: below a rho = 60 the error of pi/2 - Si(a rho) carries over
        ref = mpref.digital_tail(c, first - 1)
        assert mpref.rel_err(oscillatory_tail_sum(c, first), ref) <= 1e-15

    @pytest.mark.parametrize("c", [0.1, 1.0, math.pi, 6.0, TWO_PI - 1e-9])
    def test_whole_tail_is_parseval(self, c):
        # sum_{k >= 1} (1 - cos kc) / k^2 = c (2 pi - c) / 4
        with mpmath.workdps(40):
            cc = mpmath.mpf(c)
            ref = cc * (2 * mpmath.pi - cc) / 4
        assert mpref.rel_err(oscillatory_tail_sum(c, 1), ref) <= 1e-15

    def test_head_terms_only_add(self):
        # below index 256 each step adds one nonnegative term to the same
        # series tail, in one exact sum, so the values can only grow
        for c in (0.05, 1.0, math.pi, TWO_PI - 1e-6):
            tails = [oscillatory_tail_sum(c, first) for first in range(1, 257)]
            assert all(later <= earlier for earlier, later in zip(tails, tails[1:]))

    def test_head_matches_array_form_bit_for_bit(self):
        # the head in the order an array evaluation takes: for float k, the
        # phase k rho / 2 as x + e from Veltkamp's split of hi / 2 and
        # Fast2Sum, s = sin(x) + e cos(x), then 2 s^2 / k^2, all terms in
        # one exact sum
        rng = np.random.default_rng(8)
        for c, first in zip(rng.uniform(1e-6, TWO_PI - 1e-6, 40), rng.integers(1, 300, 40)):
            first = int(first)
            hi, lo = kernel._fold(c)
            h = 0.5 * hi
            top = 134217729.0 * h - (134217729.0 * h - h)
            k = np.arange(first, 256, dtype=np.float64)
            a, b = k * top, k * (h - top)
            x = a + b
            s = np.sin(x) + ((b - (x - a)) + k * (0.5 * lo)) * np.cos(x)
            tail = oscillatory_tail_sum(c, max(first, 256))
            expected = math.fsum([tail, *(2.0 * s * s / (k * k)).tolist()])
            assert oscillatory_tail_sum(c, first) == expected

    def test_head_phases_keep_the_tail_within_5e_16(self):
        # each head phase k rho / 2 is carried to twice double precision;
        # rounded once, it put the tail 3.9e-15 off at the first width
        # below, N = 112, and 4.3e-15 off at the second, N = 197
        rng = np.random.default_rng(22)
        widths = [2.9706975731792493, 2.8337324945405786, *rng.uniform(1.5, TWO_PI - 1.5, 38)]
        for c in map(float, widths):
            refs = mpref.digital_tails_upto(c, 255)
            errs = [mpref.rel_err(oscillatory_tail_sum(c, N + 1), refs[N]) for N in range(20, 256)]
            assert max(errs) <= 5e-16, (c, 20 + errs.index(max(errs)), max(errs))

    def test_against_literal_partial_sum(self):
        # a million literal terms plus the 1/k^2 comparison bound on the rest
        for c, first in ((1.0, 300), (math.pi, 1000), (0.05, 400), (2.0, 1)):
            k = np.arange(first, first + 10**6, dtype=np.float64)
            dumb = math.fsum((1.0 - np.cos(c * k)) / (k * k))
            slack = 2.0 / (first + 10**6 - 1)
            assert abs(oscillatory_tail_sum(c, first) - dumb) <= slack


def _cold(c: float, first: int) -> float:
    """oscillatory_tail_sum(c, first) with nothing kept from earlier calls."""
    kernel._width.cache_clear()
    return oscillatory_tail_sum(c, first)


class TestWidthMemo:
    """What depends on the width alone is kept per width; every value is the
    one a call on an empty memo gives, bit for bit, whatever came before."""

    _HEAD_FIRSTS = (1, 2, 17, 128, 254, 255, 256)

    @pytest.mark.parametrize("order", [1, -1], ids=["ascending", "descending"])
    def test_head_grows_and_is_reused(self, order):
        # descending grows the head one term at a time; ascending fills it
        # at once and then only reads it; the second pass reads it in both
        for c in (0.05, 0.234375, 1.0, math.pi, 4.0, TWO_PI - 1e-6):
            firsts = self._HEAD_FIRSTS[::order]
            cold = [_cold(c, first) for first in firsts]
            kernel._width.cache_clear()
            for _ in range(2):
                assert [oscillatory_tail_sum(c, first) for first in firsts] == cold, c

    def test_a_width_above_pi_keeps_its_fold_in_two_parts(self):
        # 2 pi - c is exact and keys the entry with 2 pi's low part, so the
        # rounded fold rho, given as a width of its own, is another entry:
        # the two widths differ by under half an ulp, and so do the sums
        for c in (4.0, 6.0, TWO_PI - 1e-3):
            hi, lo = kernel._fold(c)
            assert (hi, lo) == (TWO_PI - c, kernel._TWO_PI_LO) and hi + c == TWO_PI
            rho = hi + lo
            cold = _cold(c, 17)
            kernel._width.cache_clear()
            assert oscillatory_tail_sum(c, 17) == cold
            assert oscillatory_tail_sum(rho, 17) == pytest.approx(cold, rel=1e-15)
            assert oscillatory_tail_sum(c, 17) == cold
            assert kernel._width(hi, lo).rho == rho
            info = kernel._width.cache_info()
            assert (info.currsize, info.hits) == (2, 2)

    @pytest.mark.parametrize("order", [1, -1], ids=["large-a-first", "small-a-first"])
    def test_lerch_coefficients_grow_and_are_reused(self, order):
        # a large a needs few b_m and a small one many: one order extends
        # the stored coefficients, the other reads a prefix of them
        for c in (0.234375, 0.5, 1.0, math.pi, 5.0):
            firsts = (2**53, 10**8, 10**6 + 1, 1001, 301, 256, 17)[::order]
            cold = [_cold(c, first) for first in firsts]
            kernel._width.cache_clear()
            assert [oscillatory_tail_sum(c, first) for first in firsts] == cold, c

    @pytest.mark.parametrize("a", [256, 1000, 4321])
    def test_where_a_rho_rounds_to_the_route_switch(self, a):
        # Euler-Maclaurin below a rho = 60 and the Lerch expansion from there,
        # on one stored width, in both orders
        rho = 60.0 / a
        assert a * rho == pytest.approx(60.0, rel=1e-15)
        firsts = (a - 1, a, a + 1, 1)
        cold = [_cold(rho, first) for first in firsts]
        for order in (1, -1):
            kernel._width.cache_clear()
            got = [oscillatory_tail_sum(rho, first) for first in firsts[::order]]
            assert got == cold[::order]

    def test_many_widths_keep_the_memo_bounded(self):
        kernel._width.cache_clear()
        for i in range(200):
            oscillatory_tail_sum(0.01 + 0.03 * i, 1 + i)
        info = kernel._width.cache_info()
        assert info.maxsize == 64
        assert info.currsize <= 64

    def test_two_threads_on_an_empty_memo(self):
        import sys
        import threading

        rng = np.random.default_rng(34)
        widths = rng.uniform(1e-3, TWO_PI - 1e-3, 6)
        calls = [(float(c), int(first)) for c in widths for first in (1, 40, 200, 255, 256, 5000)]
        cold = {call: _cold(*call) for call in calls}
        kernel._width.cache_clear()
        start = threading.Barrier(2)
        got = [None, None]

        def run(slot, order):
            start.wait()
            got[slot] = {call: oscillatory_tail_sum(*call) for call in calls[::order]}

        threads = [threading.Thread(target=run, args=(i, (1, -1)[i])) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the calls, not between them
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert got == [cold, cold]
