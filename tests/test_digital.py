"""Digital side: Fourier coefficients of band indicators and look-ahead reports."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
import mpmath
import mpref

from causalgap import (
    BandpassInterval,
    DigitalDelay,
    DomainError,
    best_causal_coefficients,
    causal_report_digital,
    delayed_report_digital,
)
from causalgap.kernel import oscillatory_tail_sum
from causalgap.digital import _band_of_width, _bracket, _coefficients

TWO_PI = 2.0 * math.pi


def _half_circle() -> BandpassInterval:
    return BandpassInterval.digital(0.5 * math.pi, 1.5 * math.pi)


def _centred_band(c: float) -> BandpassInterval:
    return BandpassInterval.digital(math.pi - 0.5 * c, math.pi + 0.5 * c)


def _table(band: BandpassInterval, K: int) -> np.ndarray:
    """c_k at position k + K for |k| <= K: the taps h[n] = c_{-n} of the best
    filter with K taps of look-ahead over the window K, reversed."""
    return best_causal_coefficients(band, DigitalDelay(K), K).values[::-1]


def _coefficient(band: BandpassInterval, k: int) -> complex:
    """c_k from the smallest window that holds it."""
    return complex(_table(band, abs(k))[k + abs(k)])


def _parseval_defect(band: BandpassInterval, K: int) -> float:
    """(b - a) / (2 pi) minus the energy of the c_k with |k| <= K."""
    taps = best_causal_coefficients(band, DigitalDelay(K), K)
    return band.bandwidth / TWO_PI - taps.norm() ** 2


def _literal(band: BandpassInterval, k: int) -> complex:
    """c_k from its definition: (b - a) / (2 pi) at k = 0, else
    (e^{-ika} - e^{-ikb}) / (2 pi i k), literally."""
    if k == 0:
        return complex(band.bandwidth / TWO_PI)
    return (cmath.exp(-1j * k * band.a) - cmath.exp(-1j * k * band.b)) / (2j * math.pi * k)


@st.composite
def digital_bands(draw):
    a = draw(st.floats(1e-3, 6.0))
    b = draw(st.floats(a + 1e-2, TWO_PI - 1e-3))
    return BandpassInterval.digital(a, b)


class TestFourierCoefficient:
    def test_mean_coefficient(self):
        # c_0 is the bandwidth fraction of the circle
        assert _coefficient(_half_circle(), 0) == 0.5 + 0.0j
        band = BandpassInterval.digital(1.0, 2.5)
        assert _coefficient(band, 0) == complex(1.5 / TWO_PI)

    def test_half_circle_first_coefficient(self):
        c1 = _coefficient(_half_circle(), 1)
        assert abs(c1) == pytest.approx(1.0 / math.pi, rel=1e-15)
        assert c1.real == pytest.approx(-1.0 / math.pi, rel=1e-15)
        assert abs(c1.imag) <= 1e-15

    def test_against_defining_form(self):
        # independent route: (e^{-ika} - e^{-ikb}) / (2 pi i k), literally
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = float(rng.uniform(1e-3, 5.0))
            b = float(rng.uniform(a + 1e-3, TWO_PI - 1e-3))
            band = BandpassInterval.digital(a, b)
            table = _table(band, 200)
            for k in (1, -1, 2, 7, -33, 200):
                assert abs(table[k + 200] - _literal(band, k)) <= 1e-14

    @given(digital_bands(), st.integers(1, 500))
    def test_magnitude_symmetry(self, band, k):
        table = _table(band, k)
        plus = abs(table[2 * k])
        minus = abs(table[0])
        assert math.isclose(plus, minus, rel_tol=1e-14, abs_tol=1e-300)

    def test_rejects_analog_band(self):
        with pytest.raises(ValueError):
            best_causal_coefficients(BandpassInterval.analog(0.0, 1.0), DigitalDelay(0), 0)


class TestTwoSidedTaps:
    """With K taps of look-ahead over the window K the taps hold every c_k, |k| <= K."""

    def test_matches_single_coefficients(self):
        band = BandpassInterval.digital(1.0, 4.0)
        taps = best_causal_coefficients(band, DigitalDelay(6), 6)
        assert len(taps) == 13
        assert np.array_equal(taps.offset + np.arange(len(taps)), np.arange(-6, 7))
        for k in range(-6, 7):
            assert abs(taps.values[6 - k] - _literal(band, k)) <= 1e-15

    def test_energy_is_sum_of_squares(self):
        band = _half_circle()
        taps = best_causal_coefficients(band, DigitalDelay(4), 4)
        direct = sum(abs(_literal(band, k)) ** 2 for k in range(-4, 5))
        assert taps.norm() ** 2 == pytest.approx(direct, rel=1e-14)

    def test_parseval_defect_shrinks_with_window(self):
        band = BandpassInterval.digital(1.0, 1.0 + math.pi)
        small = _parseval_defect(band, 100)
        large = _parseval_defect(band, 10000)
        assert 0.0 < large < small

    def test_parseval_defect_bound(self):
        # the energy outside |k| <= K is at most 2 / (pi^2 K)
        K = 10**4
        for c in (1.0, math.pi, 6.0):
            band = BandpassInterval.digital(0.1, 0.1 + c)
            defect = _parseval_defect(band, K)
            assert 0.0 < defect <= 2.0 / (math.pi**2 * K) + 1e-12

    def test_parseval_defect_crude_bound_large_window(self):
        K = 10**5
        band = _half_circle()
        defect = _parseval_defect(band, K)
        assert defect <= 4.0 / (K * math.pi) + 1e-10


class TestScalarCoefficients:
    """The CLI's numpy-free route is bit for bit best_causal_coefficients."""

    @staticmethod
    def _bands():
        rng = np.random.default_rng(20261019)
        edges = [tuple(sorted(rng.uniform(0.0, TWO_PI, 2))) for _ in range(12)]
        edges += [
            (math.pi, math.nextafter(math.pi, 4.0)),  # c = ulp(pi)
            (1.0, 1.0 + 1e-12),
            (1e-12, TWO_PI - 1e-12),
            (5e-324, math.nextafter(TWO_PI, 0.0)),  # c one ulp below 2 pi
            (0.5 * math.pi, 1.5 * math.pi),
            (1e-300, 2e-300),  # amp Im(phase) underflows: the sign of zero
        ]
        return [BandpassInterval.digital(a, b) for a, b in edges]

    @pytest.mark.parametrize("window", [0, 1, 10**4])
    def test_matches_the_taps_bit_for_bit(self, window):
        for band in self._bands():
            ks = range(-window, window + 1)
            table = _table(band, window)
            scalar = np.array(list(_coefficients(band, ks)), dtype=np.complex128)
            # int64 views tell signed zeros apart and compare NaN payloads
            for part in ("real", "imag"):
                got = getattr(scalar, part).view(np.int64)
                want = getattr(table, part).view(np.int64)
                assert np.array_equal(got, want), (band, window, part)

    @pytest.mark.parametrize("N, window", [(1, 1), (3, 200), (200, 123457)])
    def test_mirrored_taps_match_bit_for_bit(self, N, window):
        # the taps at k < 0 are the conjugated factors of c_|k|
        for band in self._bands():
            taps = best_causal_coefficients(band, DigitalDelay(N), window).values
            scalar = np.array(list(_coefficients(band, range(N, -window - 1, -1))))
            for part in ("real", "imag"):
                got = getattr(taps, part).view(np.int64)
                want = getattr(scalar, part).view(np.int64)
                assert np.array_equal(got, want), (band, N, window, part)


class TestCausalReportDigital:
    def test_half_circle_constants(self):
        rep = causal_report_digital(_half_circle())
        assert rep.kernel_norm == math.sqrt(0.5)
        assert abs(rep.distance - 0.5 / math.sqrt(2.0)) <= 1e-15
        assert abs(rep.angle - math.pi / 6.0) <= 1e-15
        assert rep.subspace == "Causal"
        assert rep.method == "ClosedForm"
        assert rep.error_estimate == 0.0
        assert rep.delay is None

    @given(digital_bands())
    def test_angle_strictly_between_zero_and_quarter_turn(self, band):
        rep = causal_report_digital(band)
        assert 0.0 < rep.angle < 0.25 * math.pi
        assert rep.consistency_error() <= 1e-12 * rep.kernel_norm

    def test_norm_is_bandwidth_fraction(self):
        band = BandpassInterval.digital(1.0, 3.0)
        rep = causal_report_digital(band)
        assert rep.kernel_norm == pytest.approx(math.sqrt(2.0 / TWO_PI), rel=1e-15)

    @pytest.mark.parametrize(
        "c", [1e-6, 0.1, 1.0, math.pi, 4.0, 6.2, TWO_PI - 1e-3, TWO_PI - 1e-6, TWO_PI - 1e-9]
    )
    def test_closed_form_against_mpmath(self, c):
        # 1/2 - c/(4 pi) cancels as c -> 2 pi; above pi it is rho/(4 pi)
        band = _centred_band(c)
        rep = causal_report_digital(band)
        with mpmath.workdps(40):
            cc = mpmath.mpf(band.bandwidth)
            ref = mpmath.sqrt(cc * (2 * mpmath.pi - cc)) / (2 * mpmath.sqrt(2) * mpmath.pi)
        assert mpref.rel_err(rep.distance, ref) <= 1e-15

    def test_rejects_analog_band(self):
        with pytest.raises(ValueError):
            causal_report_digital(BandpassInterval.analog(0.0, 1.0))


class TestDelayedReportDigital:
    def test_zero_lookahead_is_the_causal_report(self):
        band = _half_circle()
        assert delayed_report_digital(band, DigitalDelay(0)) == causal_report_digital(band)

    def test_one_tap_half_circle(self):
        rep = delayed_report_digital(_half_circle(), DigitalDelay(1))
        # tail fraction drops from 1/4 by the single term 2/pi^2
        bracket = 0.25 - 2.0 / math.pi**2
        assert abs(rep.distance - math.sqrt(0.5 * bracket)) <= 1e-15
        assert abs(rep.angle - math.asin(math.sqrt(bracket))) <= 1e-15
        assert rep.subspace == "Delayed"
        assert rep.method == "ClosedForm"
        assert rep.delay == 1

    def test_angle_nonincreasing_with_equality_only_at_dead_terms(self):
        # c = pi: even-index terms vanish, so the angle moves only on odd steps
        band = _half_circle()
        c = band.bandwidth
        prev = delayed_report_digital(band, DigitalDelay(0)).angle
        for N in range(1, 61):
            cur = delayed_report_digital(band, DigitalDelay(N)).angle
            assert cur <= prev + 1e-15
            step = math.sin(0.5 * c * N) ** 2
            if step > 1e-12:
                assert cur < prev
            else:
                assert cur == pytest.approx(prev, abs=1e-16)
            prev = cur

    def test_angle_strictly_decreasing_for_generic_band(self):
        band = BandpassInterval.digital(1.0, 2.0)
        angles = [
            delayed_report_digital(band, DigitalDelay(N)).angle for N in range(0, 61)
        ]
        assert all(b < a for a, b in zip(angles, angles[1:]))

    def test_location_independence_is_bit_exact(self):
        lo = BandpassInterval.digital(1.0, 1.0 + math.pi)
        hi = BandpassInterval.digital(2.0, 2.0 + math.pi)
        assert lo.bandwidth == hi.bandwidth
        for N in (0, 3, 17):
            assert delayed_report_digital(lo, DigitalDelay(N)) == delayed_report_digital(
                hi, DigitalDelay(N)
            )

    def test_self_consistency(self):
        for c in (0.1, 1.0, math.pi, 6.2):
            band = BandpassInterval.digital(0.05, 0.05 + c)
            for N in (0, 1, 5, 40):
                rep = delayed_report_digital(band, DigitalDelay(N))
                assert rep.consistency_error() <= 1e-12 * rep.kernel_norm

    def test_agrees_with_tail_summation_route(self):
        # independent route: the 40-digit zeta / Lerch form of the tail energy
        for c in (0.1, 1.0, math.pi, 5.0, 6.2):
            band = BandpassInterval.digital(0.01, 0.01 + c)
            for N in (0, 1, 2, 5, 20, 100):
                rep = delayed_report_digital(band, DigitalDelay(N))
                ref = mpref.digital_distance(band.bandwidth, N)
                assert mpref.rel_err(rep.distance, ref) <= 1e-14


class TestFarLookahead:
    """Reports at every look-ahead come from the constant-cost tail."""

    # 2**53 - 1 is the largest look-ahead DigitalDelay takes
    @pytest.mark.parametrize("N", [10**11, 10**15, 2**53 - 1])
    @pytest.mark.parametrize("c", [1e-6, 1.0, math.pi, 2.25, TWO_PI - 1e-6])
    def test_against_lerch_reference(self, c, N):
        band = _centred_band(c)
        rep = delayed_report_digital(band, DigitalDelay(N))
        assert rep.method == "ClosedForm"
        ref = mpref.digital_distance(band.bandwidth, N)
        assert mpref.rel_err(rep.distance, ref) <= 1e-14

    @pytest.mark.parametrize(
        "c, N",
        [
            (2.25, 301),  # expansion with a short head before it
            (math.pi, 301),  # every other expansion coefficient vanishes
            (math.pi - 1e-9, 10**4),
            (0.1, 301),  # a rho = 30: Euler-Maclaurin
            (1e-6, 1000),  # a rho = 1e-3: Euler-Maclaurin
            (1e-6, 10**8),  # a rho = 100: 1 - e^{i rho} must not cancel
            (TWO_PI - 1e-6, 10**6),  # rho = 2 pi - c near its double floor
            (0.2, 300 + 1),  # a rho = 60.2, the longest expansion
            (0.199, 301),  # a rho = 59.9, Euler-Maclaurin at its widest rho
        ],
    )
    def test_regimes_against_lerch_reference(self, c, N):
        band = _centred_band(c)
        rep = delayed_report_digital(band, DigitalDelay(N))
        ref = mpref.digital_distance(band.bandwidth, N)
        assert mpref.rel_err(rep.distance, ref) <= 1e-14

    @pytest.mark.parametrize("c", [0.1, 1.0, 2.25, math.pi, 5.0])
    def test_head_and_expansion_meet_at_the_split(self, c):
        # N = 254, 255 add one and no head term to the series from k = 256;
        # N = 256, 257 take the series alone
        band = _centred_band(c)
        reps = [delayed_report_digital(band, DigitalDelay(N)) for N in range(253, 259)]
        for N, rep in zip(range(253, 259), reps):
            ref = mpref.digital_distance(band.bandwidth, N)
            assert mpref.rel_err(rep.distance, ref) <= 1e-15
        assert all(later.angle <= earlier.angle for earlier, later in zip(reps, reps[1:]))

    def test_small_rho_grid_against_mpmath(self):
        # N = 200..300 with 256 rho near 4, where the Euler-Maclaurin tail
        # from index 256 starts from the analog tail integral
        worst = 0.0
        for i in range(24):
            band = BandpassInterval.digital(1.0, 1.0 + (0.010 + 0.001 * i))
            refs = mpref.digital_distances_upto(band.bandwidth, 300)
            for N in range(200, 301):
                d = delayed_report_digital(band, DigitalDelay(N)).distance
                worst = max(worst, mpref.rel_err(d, refs[N]))
        assert worst <= 1e-15

    @pytest.mark.parametrize("N", [1, 5, 254, 255, 300, 10**4])
    def test_every_lookahead_takes_the_tail_route(self, N):
        band = _centred_band(2.0)
        assert _bracket(band, N) == oscillatory_tail_sum(2.0, N + 1) / (math.pi * 2.0)

    @pytest.mark.parametrize("N", [1, 255, 300])
    def test_near_full_circle(self, N):
        # the partial sum cancelling against 1/2 - c/(4 pi) lost 2e-10 here
        band = _centred_band(TWO_PI - 1e-6)
        rep = delayed_report_digital(band, DigitalDelay(N))
        ref = mpref.digital_distance(band.bandwidth, N)
        assert mpref.rel_err(rep.distance, ref) <= 1e-15


class TestBracketIsPositive:
    # sin^2 of the angle is a tail energy over the kernel energy, so the
    # report takes its square root with no clamp
    @given(st.floats(0.0, TWO_PI, exclude_min=True, exclude_max=True),
           st.integers(0, 2**53 - 1))
    def test_bracket_is_positive(self, c, N):
        try:
            band = _band_of_width(c)
        except DomainError:  # rounding collapses the band's edges
            assume(False)
        assert _bracket(band, N) > 0.0

    # the narrowest and widest bands that keep their edges, at the causal cut,
    # one tap and the farthest look-ahead; the bracket only falls from its
    # causal value 1/2 - c/(4 pi) as taps are added
    @pytest.mark.parametrize("N", [0, 1, 2**53 - 1])
    @pytest.mark.parametrize("c", [1e-12, math.pi, TWO_PI - 1e-6])
    def test_bracket_is_positive_at_the_edges(self, c, N):
        assert 0.0 < _bracket(_band_of_width(c), N) < 0.5


class TestBestCausalCoefficients:
    def test_causal_taps_are_reflected_coefficients(self):
        band = _half_circle()
        seq = best_causal_coefficients(band, DigitalDelay(0), window=8)
        assert seq.offset == 0
        assert len(seq) == 9
        assert seq.values[0] == _literal(band, 0)
        for n in range(9):
            expected = _literal(band, -n)
            assert abs(seq.values[n] - expected) <= 1e-15

    def test_lookahead_extends_into_negative_indices(self):
        band = BandpassInterval.digital(1.0, 4.0)
        seq = best_causal_coefficients(band, DigitalDelay(2), window=5)
        assert seq.offset == -2
        assert len(seq) == 8
        indices = seq.offset + np.arange(len(seq))
        for i, n in enumerate(indices):
            expected = _literal(band, -int(n))
            assert abs(seq.values[i] - expected) <= 1e-15

    def test_window_must_cover_lookahead(self):
        with pytest.raises(ValueError):
            best_causal_coefficients(_half_circle(), DigitalDelay(4), window=3)

    def test_energy_split(self):
        # kept energy plus residual energy reassembles the kernel energy
        band = _half_circle()
        window = 10**4
        for N in (0, 2):
            seq = best_causal_coefficients(band, DigitalDelay(N), window=window)
            rep = delayed_report_digital(band, DigitalDelay(N))
            total = band.bandwidth / TWO_PI
            recon = seq.norm() ** 2 + rep.distance**2
            assert abs(recon - total) <= 1.0 / (math.pi**2 * window) + 1e-12

    def test_near_full_band_filter_is_near_identity(self):
        band = BandpassInterval.digital(1e-6, TWO_PI - 1e-6)
        seq = best_causal_coefficients(band, DigitalDelay(0), window=4)
        assert abs(seq.values[0] - 1.0) <= 1e-5


class TestBandOfWidth:
    @pytest.mark.parametrize("c", [1e-300, 4e-16, math.nextafter(TWO_PI, 0.0)])
    def test_collapsed_edges_are_a_domain_error(self, c):
        # below about ulp(pi) both edges round to pi; within about ulp(pi)
        # of 2 pi the upper edge rounds to 2 pi
        with pytest.raises(DomainError):
            _band_of_width(c)
