"""Analog side: ideal band kernels and causal/delayed distances."""

import hashlib
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
import mpref

from causalgap import (
    AnalogDelay,
    ApproximationReport,
    BandpassInterval,
    causal_report,
    delayed_distance_si,
    delayed_report,
    impulse_response,
)
from causalgap import analog as analog_module
from causalgap.kernel import oscillatory_tail_integral
from causalgap.oracle import _midpoint_energy

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


@st.composite
def analog_bands(draw):
    a = draw(st.floats(-40.0, 40.0))
    c = draw(st.floats(1e-3, 30.0))
    return BandpassInterval.analog(a, a + c)


class TestImpulseResponse:
    def test_value_at_origin(self):
        # h(0) = (b - a) / sqrt(2 pi)
        band = BandpassInterval.analog(-1.0, 1.0)
        val = impulse_response(band, 0.0)
        assert val.real == pytest.approx(2.0 / SQRT_TWO_PI, rel=1e-15)
        assert val.imag == 0.0

    def test_zero_crossings(self):
        # width-2 baseband kernel vanishes at multiples of pi
        band = BandpassInterval.analog(-1.0, 1.0)
        for k in (1, 2, 5):
            assert abs(impulse_response(band, k * math.pi)) < 1e-15

    def test_squared_magnitude_is_the_kernel(self):
        rng = np.random.default_rng(7)
        for a, b in ((0.0, 2.0), (1.0, 4.0), (-3.0, -0.5)):
            band = BandpassInterval.analog(a, b)
            for t in rng.uniform(-50.0, 50.0, size=40):
                h = impulse_response(band, float(t))
                k = float(mpref.kernel(band.bandwidth, float(t)))
                # near sinc zero crossings only the absolute level is meaningful
                assert abs(h) ** 2 == pytest.approx(k, rel=1e-12, abs=1e-15)

    def test_array_matches_scalars(self):
        band = BandpassInterval.analog(1.0, 4.0)
        t = np.array([-2.0, 0.0, 0.3, 7.0])
        arr = impulse_response(band, t)
        assert arr.shape == t.shape
        for i, ti in enumerate(t):
            assert arr[i] == impulse_response(band, float(ti))

    @pytest.mark.parametrize("a, b, t0, dt, n", [
        (0.0, 2.0, -1.0, 0.5, 5),
        (-3.0, -0.5, -3.7, 0.1, 75),
        (1.0, 4.0, 0.0, 1e-3, 3 * 2**14 + 1),  # three full blocks and one point
        (0.0, 2.0, -1e3, 1e-3, 2_000_001),
    ])
    def test_grid_is_impulse_response_at_its_times(self, a, b, t0, dt, n):
        band = BandpassInterval.analog(a, b)
        sig = analog_module._sample(band, t0, dt, n)
        assert sig.t0 == t0 and sig.dt == dt and len(sig) == n
        want = impulse_response(band, t0 + dt * np.arange(n))
        assert np.array_equal(sig.values.view(np.int64), want.view(np.int64))

    def test_rejects_digital_band(self):
        band = BandpassInterval.digital(1.0, 2.0)
        with pytest.raises(ValueError):
            impulse_response(band, 0.0)
        with pytest.raises(ValueError):
            causal_report(band)


def _literal_response(band, t):
    """The whole-array form impulse_response computes block by block."""
    t = np.asarray(t, dtype=np.float64)
    c = band.bandwidth
    return (c / SQRT_TWO_PI) * np.sinc(c * t / (2.0 * math.pi)) * np.exp(1j * band.center * t)


def _same_bits(got, want):
    got = np.atleast_1d(np.asarray(got))
    want = np.atleast_1d(np.asarray(want, dtype=np.complex128))
    assert got.dtype == np.complex128 and got.shape == want.shape
    return np.array_equal(got.view(np.int64), want.view(np.int64))


_BLOCK = analog_module._BLOCK
#: 2,000,001 points at step 1e-3 over [-1e3, 1e3]: 123 blocks, the last one partial
_WIDE_GRID = -1e3 + 1e-3 * np.arange(2_000_001)
_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.5, -0.5])
#: a signed-zero center and a width that scales to a subnormal amplitude
_BANDS = (
    BandpassInterval.analog(0.0, 2.0),
    BandpassInterval.analog(-3.0, -0.5),
    BandpassInterval.analog(-1.0, 1.0),
    BandpassInterval.analog(-5e-324, 5e-324),
)


class TestBlockwiseImpulseResponse:
    """Blocks and the sampled grid change no bit of the literal form."""

    @pytest.mark.parametrize("band", _BANDS, ids=str)
    def test_every_input_shape_matches_the_literal_form(self, band):
        rng = np.random.default_rng(11)
        wide = rng.standard_normal((300, 70)) * 40.0
        inputs = (
            _WIDE_GRID,
            np.sort(rng.uniform(-1e4, 1e4, 100_003)),
            _EDGES,
            wide,
            wide[::2, ::3],
            _WIDE_GRID[::7],
        )
        for t in inputs:
            assert _same_bits(impulse_response(band, t), _literal_response(band, t))
        for t in _EDGES:
            value = impulse_response(band, float(t))
            assert isinstance(value, complex)
            assert _same_bits(value, complex(_literal_response(band, t)))

    def test_sampled_grid_matches_the_literal_form(self):
        band = BandpassInterval.analog(0.0, 2.0)
        sig = analog_module._sample(band, -1e3, 1e-3, 2_000_001)
        assert np.array_equal(sig.t0 + sig.dt * np.arange(len(sig)), _WIDE_GRID)
        assert _same_bits(sig.values, _literal_response(band, _WIDE_GRID))

    def test_worker_count_changes_no_bit(self, on_one_and_all_cpus):
        band = BandpassInterval.analog(1.0, 4.0)
        t = _WIDE_GRID[:300_001]
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from causalgap import BandpassInterval, analog, impulse_response\n"
            "band = BandpassInterval.analog(1.0, 4.0)\n"
            "t = -1e3 + 1e-3 * np.arange(300_001)\n"
            "for h in (impulse_response(band, t),\n"
            "          analog._sample(band, -150.0, 1e-3, 300_001).values):\n"
            "    print(hashlib.sha256(h.tobytes()).hexdigest())\n"
        )
        want = "".join(
            hashlib.sha256(_literal_response(band, times).tobytes()).hexdigest() + "\n"
            for times in (t, -150.0 + 1e-3 * np.arange(300_001))
        )
        assert on_one_and_all_cpus(script) == [want, want]

    def test_concurrent_callers_get_their_own_bits(self):
        # more callers than cores, with frequent thread switches
        bands = [BandpassInterval.analog(-k, 1.0 + k) for k in range(6)]
        t = _WIDE_GRID[:200_000]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(bands)) as pool:
                futures = [pool.submit(impulse_response, band, t) for band in bands]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for band, got in zip(bands, results):
            assert _same_bits(got, _literal_response(band, t))

    @pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 7 * _BLOCK + 5])
    def test_every_block_is_filled_once_in_order(self, n):
        # a block drawn twice, lost or cut at the wrong edge shows here
        band = BandpassInterval.analog(1.0, 4.0)
        t = _WIDE_GRID[:n]
        seen = []

        def times(lo, hi, buf):
            seen.append((lo, hi, buf.size))
            return t[lo:hi]

        out = np.empty(n, complex)
        assert analog_module._fill_range(band, times, n, out) == []
        starts = list(range(0, n, _BLOCK))
        assert seen == [(lo, min(lo + _BLOCK, n), min(_BLOCK, n)) for lo in starts]
        assert _same_bits(out, _literal_response(band, t))
        sums = analog_module._fill_range(band, times, n)
        assert len(sums) == len(starts)
        assert math.fsum(sums) == pytest.approx(
            float(np.sum(np.abs(_literal_response(band, t)) ** 2)), rel=1e-13)

    @pytest.mark.parametrize("where", [0, -1], ids=["first-block", "last-block"])
    def test_callers_errstate_reaches_every_block(self, where):
        # sin(inf) is an invalid operation, in the first block or the last;
        # a block that raises leaves the blocks after it unfilled
        band = BandpassInterval.analog(0.0, 2.0)
        t = _WIDE_GRID[:200_000].copy()
        t[where] = math.inf
        filled = []

        def times(lo, hi, buf):
            filled.append(lo)
            return t[lo:hi]

        with np.errstate(all="raise"):
            with pytest.raises(FloatingPointError):
                _literal_response(band, t)
            with pytest.raises(FloatingPointError):
                impulse_response(band, t)
            with pytest.raises(FloatingPointError):
                analog_module._fill_range(band, times, t.size, np.empty(t.size, complex))
        blocks = list(range(0, t.size, _BLOCK))
        assert filled == (blocks[:1] if where == 0 else blocks)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                impulse_response(band, t)


class TestMidpointEnergy:
    """The oracle's energy sums the real amplitude, block by block."""

    START, DT, M = -150.0, 1e-3, 300_001

    def _reference(self, band):
        t = self.START + (np.arange(self.M, dtype=np.float64) + 0.5) * self.DT
        h = impulse_response(band, t)
        return self.DT * math.fsum((h.real**2 + h.imag**2).tolist())

    @pytest.mark.parametrize("band", _BANDS, ids=str)
    def test_matches_the_sum_of_the_sampled_kernel(self, band):
        got = _midpoint_energy(band, self.START, self.DT, self.M)
        want = self._reference(band)
        if want == 0.0:  # the subnormal-width band
            assert got == 0.0
        else:
            assert abs(got - want) <= 1e-15 * want

    def test_worker_count_changes_no_bit(self, on_one_and_all_cpus):
        band = BandpassInterval.analog(1.0, 4.0)
        script = (
            "from causalgap import BandpassInterval\n"
            "from causalgap.oracle import _midpoint_energy\n"
            "band = BandpassInterval.analog(1.0, 4.0)\n"
            f"print(_midpoint_energy(band, {self.START}, {self.DT}, {self.M}).hex())\n"
        )
        want = _midpoint_energy(band, self.START, self.DT, self.M).hex() + "\n"
        assert on_one_and_all_cpus(script) == [want, want]


class TestCausalReport:
    def test_constants_for_unit_band(self):
        rep = causal_report(BandpassInterval.analog(0.0, 2.0))
        assert rep.kernel_norm == math.sqrt(2.0)
        assert rep.distance == 1.0
        assert rep.angle == 0.25 * math.pi
        assert rep.subspace == "Causal"
        assert rep.method == "ClosedForm"
        assert rep.error_estimate == 0.0
        assert rep.delay is None
        assert rep.converged

    @given(analog_bands())
    def test_angle_is_quarter_turn_for_every_band(self, band):
        rep = causal_report(band)
        assert rep.angle == 0.25 * math.pi
        assert rep.distance == pytest.approx(math.sqrt(0.5 * band.bandwidth), rel=1e-15)
        assert rep.kernel_norm == pytest.approx(math.sqrt(band.bandwidth), rel=1e-15)
        assert rep.consistency_error() <= 1e-15 * rep.kernel_norm

    def test_depends_only_on_bandwidth(self):
        assert causal_report(BandpassInterval.analog(-3.0, -1.0)) == causal_report(
            BandpassInterval.analog(1.0, 3.0)
        )

    def test_angle_degrees(self):
        rep = causal_report(BandpassInterval.analog(0.0, 1.0))
        assert rep.angle_degrees == pytest.approx(45.0, rel=1e-15)


class TestApproximationReportValidation:
    def test_rejects_negative_norm(self):
        with pytest.raises(ValueError):
            ApproximationReport(-1.0, 0.0, 0.0, "Causal", "ClosedForm")

    def test_rejects_distance_beyond_norm(self):
        with pytest.raises(ValueError):
            ApproximationReport(1.0, 1.1, 0.5, "Causal", "ClosedForm")

    def test_rejects_angle_outside_range(self):
        with pytest.raises(ValueError):
            ApproximationReport(1.0, 0.5, -0.1, "Causal", "ClosedForm")
        with pytest.raises(ValueError):
            ApproximationReport(1.0, 0.5, 2.0, "Causal", "ClosedForm")

    def test_rejects_unknown_subspace(self):
        for subspace in ("Anticipative", "Memoryless"):
            with pytest.raises(ValueError):
                ApproximationReport(1.0, 0.5, 0.5, subspace, "ClosedForm")


class TestDelayedReport:
    def test_zero_lookahead_is_the_causal_report(self):
        for a, b in ((0.0, 2.0), (-5.0, 1.0), (3.0, 3.5)):
            band = BandpassInterval.analog(a, b)
            assert delayed_report(band, AnalogDelay(0.0)) == causal_report(band)

    def test_report_fields(self):
        band = BandpassInterval.analog(0.0, 2.0)
        rep = delayed_report(band, AnalogDelay(1.0))
        assert rep.subspace == "Delayed"
        assert rep.method == "ClosedForm"
        assert rep.delay == 1.0
        assert rep.converged
        assert rep.error_estimate == 0.0
        assert rep.consistency_error() <= 1e-12 * rep.kernel_norm
        assert mpref.rel_err(rep.distance, mpref.analog_distance(2.0, 1.0)) <= 1e-14

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1.75, 2.0, 7.0, 1e3])
    def test_closed_form_relative_error_at_every_lookahead(self, c):
        for cT in (1e-3, 0.5, 3.99, 4.0, 4.01, 10.0, 1e2, 1e4, 1e6, 2e6, 1e9, 1e12, 1e20):
            T = cT / c
            rep = delayed_report(BandpassInterval.analog(0.0, c), AnalogDelay(T))
            assert rep.method == "ClosedForm"
            assert mpref.rel_err(rep.distance, mpref.analog_distance(c, T)) <= 1e-14

    def test_dense_grid_against_mpmath(self):
        # seeded log-uniform cT over [1e-3, 1e8], plus every 0.0125 of [3, 8],
        # where pi/2 - Si(cT) changes sign near 4.89
        rng = np.random.default_rng(2024)
        grid = [*(10.0 ** rng.uniform(-3.0, 8.0, 200)), *(3.0 + 0.0125 * np.arange(401))]
        worst = 0.0
        for cT in grid:
            for c in (1e-3, 0.7, 2.0, 1e3):
                T = float(cT) / c
                d = delayed_report(BandpassInterval.analog(0.0, c), AnalogDelay(T)).distance
                worst = max(worst, mpref.rel_err(d, mpref.analog_distance(c, T)))
        assert worst <= 1e-15

    def test_agrees_with_closed_form_route(self):
        # the report against the distance from 40-digit quadrature of the kernel
        for c in (0.5, math.pi, 6.0):
            band = BandpassInterval.analog(0.0, c)
            for T in (0.1, 1.0, 10.0):
                rep = delayed_report(band, AnalogDelay(T))
                quad = math.sqrt(0.5 * c - 0.5 * float(mpref.window_mass(c, T)))
                assert abs(rep.distance - quad) <= 1e-8

    @pytest.mark.parametrize("c", [1.2e308, 1.5e308, 1.7e308])
    def test_widest_bands_do_not_overflow(self, c):
        # for c above about 1.14e308 the tail c (pi/2 - S(cT)) at cT < 4
        # overflows; the distance is scaled from the width-1 tail instead
        band = BandpassInterval.analog(0.0, c)
        for cT in (1e-3, 1.0, 3.9):
            T = cT / c
            rep = delayed_report(band, AnalogDelay(T))
            assert math.isfinite(rep.distance) and rep.converged
            assert mpref.rel_err(rep.distance, mpref.analog_distance(c, T)) <= 1.2e-16

    def test_long_lookahead_shrinks_the_distance(self):
        band = BandpassInterval.analog(0.0, 2.0)
        rep = delayed_report(band, AnalogDelay(1e3))
        assert rep.distance < 0.05

    def test_distance_nonincreasing_in_lookahead(self):
        band = BandpassInterval.analog(0.0, 2.0)
        rng = np.random.default_rng(11)
        ts = np.sort(rng.uniform(0.0, 100.0, size=12))
        dists = [delayed_distance_si(band, AnalogDelay(float(T))) for T in ts]
        for d_small, d_large in zip(dists, dists[1:]):
            assert d_large <= d_small + 1e-10

    def test_angle_stays_within_quarter_turn(self):
        for c in (0.5, math.pi, 6.0):
            band = BandpassInterval.analog(0.0, c)
            for T in (0.0, 0.7, 3.0, 20.0):
                rep = delayed_report(band, AnalogDelay(T))
                assert -1e-12 <= rep.angle <= 0.25 * math.pi + 1e-12

    def test_narrow_band_angle_approaches_quarter_turn(self):
        band = BandpassInterval.analog(0.0, 1e-6)
        rep = delayed_report(band, AnalogDelay(1.0))
        assert abs(rep.angle - 0.25 * math.pi) <= 1e-3

def _closed_form_mass(c, T):
    """Kernel mass over [-T, T]: the total c less the two tails beyond |t| = T."""
    return c - 2.0 * oscillatory_tail_integral(c, T) / math.pi


class TestTruncationEnergy:
    def test_zero_window(self):
        assert _closed_form_mass(2.0, 0.0) == 0.0

    def test_window_energy_approaches_total(self):
        # mass over [-T, T] climbs to the full energy b - a
        band = BandpassInterval.analog(0.0, 2.0)
        assert _closed_form_mass(band.bandwidth, 1e4) == pytest.approx(2.0, abs=1e-3)

    def test_routes_agree(self):
        band = BandpassInterval.analog(-1.0, 3.0)
        for T in (0.25, 1.5, 8.0):
            quad = float(mpref.window_mass(band.bandwidth, T))
            assert abs(quad - _closed_form_mass(band.bandwidth, T)) <= 1e-8


class TestSampledEnergyConsistency:
    def test_kernel_norm_matches_sampled_energy(self):
        # Riemann energy of the sampled response vs the closed-form norm
        band = BandpassInterval.analog(0.0, 2.0)
        radius = 1e4 / band.bandwidth
        dt = 1e-2
        n = int(round(2.0 * radius / dt)) + 1
        sig = analog_module._sample(band, -radius, dt, n)
        norm = causal_report(band).kernel_norm
        assert abs(sig.energy() - norm * norm) <= 1e-2
