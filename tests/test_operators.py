"""Convolution operators: norm estimates, matched inputs, delay truncation."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from causalgap import (
    AnalogDelay,
    BandpassInterval,
    DigitalDelay,
    DigitalSequence,
    SampledSignal,
    ZeroKernel,
    best_causal_coefficients,
    convolve_digital,
    delayed_report,
    operator_norm_estimate,
    truncate_to_delay,
    truncate_to_delay_analog,
)
from causalgap.analog import _sample
from causalgap.operators import _analog_cut, _matched


def _seq(offset, values):
    return DigitalSequence(offset, np.asarray(values, dtype=np.complex128))


class TestConvolveDigital:
    def test_hand_computed_product(self):
        out = convolve_digital(_seq(0, [1.0, 2.0]), _seq(5, [3.0, 4.0]))
        assert out.offset == 5
        assert np.array_equal(out.values, np.array([3.0, 10.0, 8.0], dtype=complex))

    def test_unit_impulse_is_identity(self):
        h = _seq(-2, [1.0, -1.5j, 0.25])
        out = convolve_digital(h, _seq(0, [1.0]))
        assert out.offset == h.offset
        assert np.array_equal(out.values, h.values)

    def test_offsets_add(self):
        h = _seq(3, [1.0, 1.0])
        f = _seq(-7, [2.0])
        assert convolve_digital(h, f).offset == -4

    def test_shift_commutes_with_convolution(self):
        rng = np.random.default_rng(5)
        h = _seq(-1, rng.normal(size=6) + 1j * rng.normal(size=6))
        f = _seq(2, rng.normal(size=4) + 1j * rng.normal(size=4))
        for m in (-3, 0, 11):
            a = convolve_digital(h.shifted(m), f)
            b = convolve_digital(h, f).shifted(m)
            assert a.offset == b.offset
            assert np.array_equal(a.values, b.values)

    def test_overflowing_product_is_refused(self):
        # finite taps whose product overflows to inf
        with pytest.raises(ValueError, match="values must be finite"):
            convolve_digital(_seq(0, [1e200, 1e200]), _seq(0, [1e200]))

    def test_result_is_read_only(self):
        out = convolve_digital(_seq(0, [1.0, 2.0]), _seq(0, [3.0]))
        assert not out.values.flags.writeable
        with pytest.raises(ValueError):
            out.values[0] = 0.0


class TestMatchedInput:
    def test_is_normalized_reflected_conjugate(self):
        h = _seq(7, [3.0, 4.0j])
        m = _matched(h, h.norm())
        assert m.offset == -(7 + 1)
        assert m.norm() == pytest.approx(1.0, rel=1e-15)
        assert np.allclose(m.values, np.array([-0.8j, 0.6]))

    def test_peak_output_attains_kernel_norm(self):
        h = _seq(-4, [3.0, 4.0])
        out = convolve_digital(h, _matched(h, h.norm()))
        assert float(np.max(np.abs(out.values))) == pytest.approx(5.0, rel=1e-14)

    def test_rejects_zero_kernel(self):
        h = _seq(0, [0.0, 0.0])
        with pytest.raises(ZeroKernel):
            _matched(h, h.norm())


def _random_probes(h, count, seed):
    """count unit-norm complex inputs on the support of h plus a margin of 2 len(h)."""
    rng = np.random.default_rng(seed)
    m = 3 * len(h.values)
    probes = []
    for _ in range(count):
        raw = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        probes.append(DigitalSequence(-(m // 2), raw / np.linalg.norm(raw)))
    return probes


class TestOperatorNormEstimate:
    def test_three_four_five(self):
        est = operator_norm_estimate(_seq(0, [3.0, 4.0]))
        assert est.upper == 5.0
        assert abs(est.lower - 5.0) <= 1e-12

    def test_unit_impulse(self):
        est = operator_norm_estimate(_seq(9, [1.0]))
        assert est.upper == 1.0
        assert abs(est.lower - 1.0) <= 1e-14

    def test_matched_input_closes_the_bracket(self):
        rng = np.random.default_rng(17)
        for i in range(30):
            n = int(rng.integers(1, 129))
            values = rng.normal(size=n) + 1j * rng.normal(size=n)
            h = _seq(int(rng.integers(-50, 50)), values)
            est = operator_norm_estimate(h)
            assert est.upper == pytest.approx(h.norm(), rel=1e-15)
            assert abs(est.lower - est.upper) <= 1e-12 * est.upper
            # no probe may beat the analytic bound
            for f in _random_probes(h, 7, 100 + i):
                peak = float(np.max(np.abs(convolve_digital(h, f).values)))
                assert peak / f.norm() <= est.upper * (1.0 + 1e-12)

    def test_band_filter_taps(self):
        band = BandpassInterval.digital(1.0, 4.0)
        h = best_causal_coefficients(band, DigitalDelay(3), window=64)
        est = operator_norm_estimate(h)
        assert abs(est.lower - h.norm()) <= 1e-12

    def test_rejects_zero_kernel(self):
        with pytest.raises(ZeroKernel):
            operator_norm_estimate(_seq(0, [0.0]))

    def test_matches_the_copying_form_bit_for_bit(self):
        # the literal form: the matched input divided out of place, the
        # peak of the full product (both bounds are positive, so == is bitwise)
        rng = np.random.default_rng(36)
        for _ in range(100):
            n = int(rng.integers(1, 257))
            h = _seq(int(rng.integers(-64, 65)), rng.normal(size=n) + 1j * rng.normal(size=n))
            norm = h.norm()
            product = np.convolve(h.values, np.conj(h.values[::-1]) / norm)
            est = operator_norm_estimate(h)
            assert (est.lower, est.upper) == (float(np.abs(product).max()), norm)


#: finite values whose bits a copy must keep: signed zeros and subnormals
_SIGNED_AND_SUBNORMAL = np.array(
    [complex(a, b) for a, b in [
        (-0.0, -0.0), (5e-324, -0.0), (-0.0, 1e-310), (-5e-324, -1e-310),
        (1.0, -0.0), (-0.0, 2.0), (-1e-310, 5e-324), (-0.0, -0.0), (3.0, -5e-324),
    ]],
    dtype=np.complex128,
)


class TestTruncateToDelay:
    def test_zeroes_strictly_left_of_lookahead(self):
        h = _seq(-3, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])  # indices -3 .. 2
        out = truncate_to_delay(h, DigitalDelay(1))
        assert out.offset == h.offset
        assert np.array_equal(
            out.values, np.array([0.0, 0.0, 3.0, 4.0, 5.0, 6.0], dtype=complex)
        )

    def test_causal_input_unchanged(self):
        h = _seq(0, [1.0, 2.0, 3.0])
        out = truncate_to_delay(h, DigitalDelay(0))
        assert np.array_equal(out.values, h.values)

    def test_residual_energy_shrinks_with_lookahead(self):
        rng = np.random.default_rng(23)
        h = _seq(-10, rng.normal(size=21))
        prev = math.inf
        for N in (0, 2, 5, 10):
            kept = truncate_to_delay(h, DigitalDelay(N))
            residual = h.norm() ** 2 - kept.norm() ** 2
            assert residual <= prev + 1e-15
            prev = residual
        assert prev == pytest.approx(0.0, abs=1e-15)

    # indices offset .. offset + 8 against -N = -2: the cut before the
    # support, on its first tap, inside it, on its last tap, and past it
    @pytest.mark.parametrize("offset", [0, -2, -5, -10, -11, -20])
    def test_cut_matches_the_mask_form_bit_for_bit(self, offset):
        h = DigitalSequence(offset, _SIGNED_AND_SUBNORMAL)
        out = truncate_to_delay(h, DigitalDelay(2))
        want = h.values.copy()
        want[h.indices() < -2] = 0.0
        assert out.offset == offset
        assert np.array_equal(out.values.view(np.int64), want.view(np.int64))


_CUT_GRIDS = [
    (-2.0, 0.5, 9, 1.0),  # -T exactly on a sample
    (-2.0, 0.5, 9, 1.2),  # -T between two samples
    (-1.0, 0.1, 21, 0.3),  # between, where t0 + dt * j rounds near -T
    (-2.0, 0.5, 9, 5.0),  # -T below t0: nothing is cut
    (-10.0, 1.0, 5, 1.0),  # -T past the last sample: everything is cut
    (-2.0, 0.5, 9, 0.0),  # T = 0
    (-1e3, 1e-3, 2_000_001, 0.5),  # the sampled-truncation-energy grid
]


class TestAnalogCut:
    # the one cut rule that truncate_to_delay_analog and the CLI's analog
    # impulse both use
    @pytest.mark.parametrize("t0, dt, n, T", _CUT_GRIDS)
    def test_counts_the_samples_left_of_minus_T(self, t0, dt, n, T):
        sig = SampledSignal(t0, dt, np.zeros(n))
        t = sig.t0 + sig.dt * np.arange(n)
        assert _analog_cut(sig, AnalogDelay(T)) == np.count_nonzero(t < -T)


class TestTruncateToDelayAnalog:
    def test_boundary_sample_is_kept(self):
        sig = SampledSignal(-2.0, 0.5, np.ones(9))  # grid -2.0 .. 2.0
        out = truncate_to_delay_analog(sig, AnalogDelay(1.0))
        assert out.t0 == sig.t0 and out.dt == sig.dt
        t = out.t0 + out.dt * np.arange(len(out))
        assert np.all(out.values[t < -1.0] == 0.0)
        assert np.all(out.values[t >= -1.0] == 1.0)

    @pytest.mark.parametrize("t0, dt, n, T", _CUT_GRIDS)
    def test_bisected_cut_matches_the_mask_form(self, t0, dt, n, T):
        sig = SampledSignal(t0, dt, np.arange(1, n + 1, dtype=np.complex128))
        out = truncate_to_delay_analog(sig, AnalogDelay(T))
        want = sig.values.copy()
        want[sig.t0 + sig.dt * np.arange(len(sig)) < -T] = 0.0
        assert np.array_equal(out.values.view(np.int64), want.view(np.int64))

    def test_kept_run_survives_bit_for_bit(self):
        # -0.0 and subnormal parts on both sides of the cut: the kept run is
        # copied bit for bit, and the dropped prefix reads +0.0 in every bit
        sig = SampledSignal(-2.0, 0.5, _SIGNED_AND_SUBNORMAL)  # grid -2.0 .. 2.0
        out = truncate_to_delay_analog(sig, AnalogDelay(0.7))  # cuts -2.0 .. -1.0
        bits = out.values.view(np.int64).reshape(-1, 2)
        assert not bits[:3].any()
        assert np.array_equal(bits[3:], sig.values.view(np.int64).reshape(-1, 2)[3:])

    def test_sampled_residual_matches_delay_distance(self):
        band = BandpassInterval.analog(0.0, 2.0)
        T, dt, radius = 0.5, 1e-3, 1e3
        n = int(round(2.0 * radius / dt)) + 1
        sig = _sample(band, -radius, dt, n)
        kept = truncate_to_delay_analog(sig, AnalogDelay(T))
        residual = sig.energy() - kept.energy()
        expected = delayed_report(band, AnalogDelay(T)).distance ** 2
        assert abs(residual - expected) <= max(1e-3, 5.0 * dt)

    def test_sampled_ideal_band_sits_at_quarter_turn(self):
        # the energy the causal cut drops is half the total: angle pi/4
        band = BandpassInterval.analog(0.0, 2.0)
        h = _sample(band, -100.0, 0.01, 20001)
        kept = truncate_to_delay_analog(h, AnalogDelay(0.0))
        total = h.energy()
        angle = math.asin(math.sqrt((total - kept.energy()) / total))
        assert abs(angle - 0.25 * math.pi) <= 5e-3


class TestOwnership:
    """Arrays the library makes are handed over; arrays a caller gives are copied."""

    BAND = BandpassInterval.analog(0.0, 2.0)

    def test_sampled_and_truncated_values_are_read_only(self):
        h = _sample(self.BAND, -2.0, 0.5, 9)
        before = h.values.copy()
        kept = truncate_to_delay_analog(h, AnalogDelay(1.0))
        for sig in (h, kept):
            assert not sig.values.flags.writeable
        assert np.array_equal(h.values, before)
        assert not np.shares_memory(kept.values, h.values)

    def test_sampling_and_truncation_make_one_array_each(self):
        n = 300_001
        _sample(self.BAND, -150.0, 1e-3, n)  # settles lazy imports
        tracemalloc.start()
        try:
            h = _sample(self.BAND, -150.0, 1e-3, n)
            _, sampled = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            held, _ = tracemalloc.get_traced_memory()
            truncate_to_delay_analog(h, AnalogDelay(0.5))
            _, truncated = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one complex array of n points, plus under 1 MiB of block buffers
        assert sampled <= 16 * n + 2**20
        assert truncated - held <= 16 * n + 2**20

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm"
    )
    def test_truncation_makes_only_the_kept_run_resident(self):
        # tracemalloc counts the whole result; the resident size shows that
        # the dropped prefix is never written, and not paged in by a read
        code = """if True:
            import os
            import numpy as np
            from causalgap import AnalogDelay, BandpassInterval, truncate_to_delay_analog
            from causalgap.analog import _sample

            def resident():
                with open("/proc/self/statm") as f:
                    return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

            band = BandpassInterval.analog(0.0, 2.0)
            h = _sample(band, -1e3, 1e-3, 2_000_001)
            before = resident()
            kept = truncate_to_delay_analog(h, AnalogDelay(0.5))
            kept.energy()
            grown = resident() - before
            cut = int(np.count_nonzero(h.t0 + h.dt * np.arange(len(h)) < -0.5))
            print(grown, len(h) - cut)
        """
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        grown, kept = map(int, proc.stdout.split())
        assert kept == 1_000_501
        assert grown <= 16 * kept + 2**22

    def test_digital_truncation_copies_once_and_shift_shares(self):
        h = _seq(-3, [1.0, 2.0, 3.0, 4.0])
        kept = truncate_to_delay(h, DigitalDelay(1))
        assert not kept.values.flags.writeable
        assert np.array_equal(h.values, [1.0, 2.0, 3.0, 4.0])
        assert not np.shares_memory(kept.values, h.values)
        moved = h.shifted(2)
        assert moved.offset == -1 and moved.values is h.values
        with pytest.raises(ValueError):
            h.shifted(1.5)

    @pytest.mark.parametrize(
        "make", [lambda a: SampledSignal(0.0, 1.0, a), lambda a: DigitalSequence(0, a)],
        ids=["SampledSignal", "DigitalSequence"],
    )
    def test_public_constructors_copy_and_scan(self, make):
        arr = np.array([1.0, 2.0], dtype=np.complex128)
        held = make(arr)
        arr[0] = 5.0
        assert held.values[0] == 1.0
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="values must be finite"):
                make(np.array([1.0, bad], dtype=np.complex128))

    @pytest.mark.parametrize(
        "t0, dt, n, message",
        [
            (-1.0, 0.5, 0, "need at least one sample"),
            (-1.0, 1e308, 3, "must stay finite"),  # the last time overflows
            (-1e308, 1.0, 3, "must stay finite"),  # c t overflows
            (math.nan, 0.5, 3, "must stay finite"),
        ],
    )
    def test_sampling_rejects_grids_without_finite_values(self, t0, dt, n, message):
        with pytest.raises(ValueError, match=message):
            _sample(self.BAND, t0, dt, n)
