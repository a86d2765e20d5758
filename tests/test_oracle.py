"""Brute-force distance oracles and the ladder extrapolation probes."""

import cmath
import math
import os
import subprocess
import sys

import mpmath
import pytest
import mpref

from causalgap import (
    AnalogDelay,
    BandpassInterval,
    DigitalDelay,
    DomainError,
    NonMonotoneLadder,
    analog_distance_oracle,
    best_causal_coefficients,
    delayed_distance_si,
    delayed_report,
    delayed_report_digital,
    digital_distance_oracle,
    limit_probe,
)
from causalgap.oracle import _coefficient_energies, _digital_tail

TWO_PI = 2.0 * math.pi


def _half_circle() -> BandpassInterval:
    return BandpassInterval.digital(0.5 * math.pi, 1.5 * math.pi)


def _partial_sum_distance(band: BandpassInterval, N: int, K: int) -> float:
    """The digital oracle's distance before it adds back the mean beyond K."""
    return math.sqrt(math.fsum(_coefficient_energies(band, N, K - N)))


class TestAnalogDistanceOracle:
    def test_window_equal_to_radius_leaves_nothing(self):
        # no midpoints: the value is the tail mean 1/(pi R) alone, and the
        # bound is the rest, 2/(pi c R^2)
        band = BandpassInterval.analog(0.0, 2.0)
        res = analog_distance_oracle(band, AnalogDelay(5.0), grid_radius=5.0, dt=0.1)
        assert res.value == pytest.approx(math.sqrt(1.0 / (math.pi * 5.0)), rel=1e-15)
        assert res.tail_bound == pytest.approx(2.0 / (math.pi * 2.0 * 5.0**2), rel=1e-15)

    def test_causal_distance(self):
        band = BandpassInterval.analog(0.0, 2.0)
        res = analog_distance_oracle(band, AnalogDelay(0.0), grid_radius=2e3, dt=1e-3)
        assert abs(res.value - 1.0) <= 2e-3

    def test_matches_delayed_report(self):
        band = BandpassInterval.analog(0.0, 2.0)
        delay = AnalogDelay(1.0)
        res = analog_distance_oracle(band, delay, grid_radius=2e3, dt=1e-3)
        rep = delayed_report(band, delay)
        assert abs(res.value - rep.distance) <= res.tail_bound + 5e-3

    def test_rejects_bad_grid(self):
        band = BandpassInterval.analog(0.0, 2.0)
        with pytest.raises(DomainError):
            analog_distance_oracle(band, AnalogDelay(0.0), grid_radius=10.0, dt=0.0)
        with pytest.raises(DomainError):
            analog_distance_oracle(band, AnalogDelay(20.0), grid_radius=10.0, dt=0.1)

    def test_rejects_a_grid_that_misses_the_cut(self):
        # (R - T) / dt = 9949.5: the midpoints would end dt/2 short of -T
        band = BandpassInterval.analog(0.0, 2.0)
        with pytest.raises(DomainError, match="whole number"):
            analog_distance_oracle(band, AnalogDelay(0.505), grid_radius=1e2, dt=1e-2)
        with pytest.raises(DomainError, match="whole number"):
            analog_distance_oracle(band, AnalogDelay(0.0), grid_radius=1.0, dt=5e-324)

    @pytest.mark.parametrize("T", [0.0, 0.5, 2.0, 10.0])
    def test_accepts_the_aligned_grids_verify_uses(self, T):
        # verify's riemann-oracle-agreement (T = 0.5) and criterion 4
        band = BandpassInterval.analog(0.0, 2.0)
        res = analog_distance_oracle(band, AnalogDelay(T), grid_radius=1e2, dt=1e-2)
        assert res.value > 0.0

    @pytest.mark.parametrize("radius", [math.inf, math.nan, 0.0])
    def test_rejects_a_radius_that_is_not_finite_and_positive(self, radius):
        # inf once raised OverflowError and nan int()'s ValueError; at 0 the
        # tail mean 1/(pi R) divided by zero
        band = BandpassInterval.analog(0.0, 2.0)
        with pytest.raises(DomainError, match="grid radius"):
            analog_distance_oracle(band, AnalogDelay(0.0), grid_radius=radius, dt=0.1)


class TestDigitalDistanceOracle:
    def test_half_circle_causal(self):
        res = digital_distance_oracle(_half_circle(), DigitalDelay(0), max_index=10**6)
        assert abs(res.value - 0.5 / math.sqrt(2.0)) <= 1e-3

    def test_half_circle_one_tap(self):
        res = digital_distance_oracle(_half_circle(), DigitalDelay(1), max_index=10**6)
        assert abs(res.value - 0.1539) <= 1e-3

    def test_single_slice_equals_one_coefficient(self):
        band = BandpassInterval.digital(1.0, 4.0)
        K = 64
        ck = best_causal_coefficients(band, DigitalDelay(K), K).values[0]  # h[-K] = c_K
        assert _partial_sum_distance(band, K - 1, K) == pytest.approx(abs(ck), rel=1e-12)

    def test_value_adds_back_the_tail_mean(self):
        band = BandpassInterval.digital(1.0, 4.0)
        N, K = 5, 1000
        res = digital_distance_oracle(band, DigitalDelay(N), max_index=K)
        partial = math.fsum(_coefficient_energies(band, N, K - N))
        assert res.value == math.sqrt(partial + _digital_tail(band.bandwidth, K)[0])

    def test_energy_agreement_with_closed_form(self):
        K = 10**5
        for c in (1.0, math.pi):
            band = BandpassInterval.digital(0.5, 0.5 + c)
            for N in (0, 5):
                rep = delayed_report_digital(band, DigitalDelay(N))
                res = digital_distance_oracle(band, DigitalDelay(N), max_index=K)
                gap = abs(rep.distance**2 - res.value**2)
                assert gap <= res.tail_bound + 1e-12

    def test_tail_bound_value(self):
        # (1/(6 K^3) + 1/((K + 1)^2 sin(c/2))) / (2 pi^2), sin(c/2) = 1 at c = pi
        res = digital_distance_oracle(_half_circle(), DigitalDelay(0), max_index=1000)
        rest = 1.0 / (6.0 * 1000**3) + 1.0 / 1001**2
        assert res.tail_bound == pytest.approx(rest / (2.0 * math.pi**2), rel=1e-15)

    def test_rejects_window_inside_lookahead(self):
        with pytest.raises(DomainError):
            digital_distance_oracle(_half_circle(), DigitalDelay(10), max_index=10)

    @pytest.mark.parametrize("K", [1.5, 10.0, True])
    def test_rejects_a_max_index_that_is_not_an_int(self, K):
        # 1.5 once raised TypeError, and True passed as K = 1
        with pytest.raises(DomainError, match="max_index"):
            digital_distance_oracle(_half_circle(), DigitalDelay(0), max_index=K)

    # three whole blocks of 2**14 indices and five more
    K = 3 * 2**14 + 5

    # the exponentials come from an anchor every 128 indices of a block
    # times a table of the 128 steps from it
    @pytest.mark.parametrize("a, b, N, K", [
        pytest.param(1.0, 4.0, 0, K, id="0"),
        pytest.param(1.0, 4.0, 5, K, id="5"),
        pytest.param(1.0, 4.0, 10, 10 + 127, id="under-one-stride"),
        pytest.param(1.0, 4.0, 0, 3 * 128 + 5, id="part-of-a-stride"),
        # the first block ends at k = 16585, mid-way between multiples of 128
        pytest.param(1.0, 4.0, 200, 200 + 2**14 + 77, id="block-edge-mid-stride"),
        pytest.param(1.0, 4.0, 5, 10**6, id="K-1e6"),
        pytest.param(1e-9, 1.0, 0, 10**5, id="band-at-0"),
        pytest.param(1e-6, 2e-6, 3, 10**5, id="narrow-band-at-0"),
        pytest.param(5.0, TWO_PI - 1e-9, 0, 10**5, id="band-at-2pi"),
        pytest.param(0.5, 0.5 + math.pi, 5, 10**5, id="half-circle-width"),
    ])
    def test_matches_a_sum_of_the_literal_coefficients(self, a, b, N, K):
        band = BandpassInterval.digital(a, b)
        want = math.sqrt(math.fsum(
            abs((cmath.exp(-1j * k * band.a) - cmath.exp(-1j * k * band.b)) / (TWO_PI * 1j * k))
            ** 2
            for k in range(N + 1, K + 1)
        ))
        assert _partial_sum_distance(band, N, K) == pytest.approx(want, rel=1e-14)

    def test_no_large_phase_is_rounded(self):
        # at a narrow band just below 2 pi the literal exp(-1j * k * x)
        # rounds the phase k x ~ 6.28 k and misses the exact sum by 5.7e-13
        band = BandpassInterval.digital(TWO_PI - 2e-6, TWO_PI - 1e-6)
        N, K = 3, 10**5
        with mpmath.workdps(mpref.DPS):
            c = band.b - band.a  # exact
            exact = mpmath.sqrt((mpref.digital_tail(c, N) - mpref.digital_tail(c, K))
                                / (2 * mpmath.pi**2))
        assert mpref.rel_err(_partial_sum_distance(band, N, K), exact) <= 1e-15

    def test_cpu_count_changes_no_bit(self, on_one_and_all_cpus):
        band = BandpassInterval.digital(1.0, 4.0)
        script = (
            "from causalgap import BandpassInterval, DigitalDelay, digital_distance_oracle\n"
            "band = BandpassInterval.digital(1.0, 4.0)\n"
            f"print(digital_distance_oracle(band, DigitalDelay(5), {self.K}).value.hex())\n"
        )
        want = digital_distance_oracle(band, DigitalDelay(5), max_index=self.K).value.hex()
        assert on_one_and_all_cpus(script) == [want + "\n"] * 2


def test_oracle_sums_do_not_depend_on_blas_threads():
    # a BLAS dot product rounds differently with each thread count; the
    # oracles and the signal energies sum without one
    script = (
        "from causalgap import BandpassInterval, DigitalDelay, analog, oracle\n"
        "band = BandpassInterval.analog(0.0, 2.0)\n"
        "print(oracle._midpoint_energy(band, -5e3, 1e-2, 10**6).hex())\n"
        "print(analog._sample(band, -1e3, 1e-3, 2 * 10**6).energy().hex())\n"
        "dband = BandpassInterval.digital(1.0, 4.0)\n"
        "print(oracle.digital_distance_oracle(dband, DigitalDelay(5), 10**5).value.hex())\n"
    )
    outputs = set()
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1, outputs


class TestLadderValidation:
    def test_needs_four_rungs(self):
        band = BandpassInterval.analog(0.0, 2.0)
        with pytest.raises(NonMonotoneLadder):
            limit_probe("dT_vs_T", [1.0, 2.0, 4.0], band=band)

    def test_rejects_nonmonotone(self):
        band = BandpassInterval.analog(0.0, 2.0)
        with pytest.raises(NonMonotoneLadder):
            limit_probe("dT_vs_T", [1.0, 5.0, 2.0, 7.0], band=band)

    def test_rejects_nonfinite(self):
        band = BandpassInterval.analog(0.0, 2.0)
        with pytest.raises(NonMonotoneLadder):
            limit_probe("dT_vs_T", [1.0, 2.0, 4.0, math.inf], band=band)

    def test_decreasing_ladders_are_fine(self):
        probe = limit_probe("theta_vs_bandwidth", [0.08, 0.04, 0.02, 0.01])
        assert len(probe.rows) == 4


class TestLimitProbe:
    def test_unknown_quantity(self):
        with pytest.raises(DomainError):
            limit_probe("mystery", [1.0, 2.0, 4.0, 8.0])

    def test_distance_vanishes_for_long_lookahead(self):
        band = BandpassInterval.analog(0.0, 2.0)
        probe = limit_probe("dT_vs_T", [10.0, 1e2, 1e3, 1e4], band=band)
        assert probe.quantity == "dT_vs_T"
        for T, value in probe.rows:
            assert value == delayed_distance_si(band, AnalogDelay(T))
        assert probe.fitted_limit is not None
        assert abs(probe.fitted_limit) <= 1e-3

    def test_dT_vs_T_needs_analog_band(self):
        with pytest.raises(DomainError):
            limit_probe("dT_vs_T", [1.0, 2.0, 4.0, 8.0])
        with pytest.raises(DomainError):
            limit_probe("dT_vs_T", [1.0, 2.0, 4.0, 8.0], band=_half_circle())

    def test_digital_angle_vanishes_for_long_lookahead(self):
        probe = limit_probe(
            "thetaN_vs_N", [10, 100, 1000, 10000], band=_half_circle()
        )
        assert probe.fitted_limit is not None
        assert abs(probe.fitted_limit) <= 1e-3

    @pytest.mark.parametrize(
        "quantity, ladder, band",
        [
            ("thetaN_vs_N", [1e15, 1e16, 1e17, 1e18], BandpassInterval.digital(1.0, 3.25)),
            ("dT_vs_T", [-1.0, 0.0, 1.0, 2.0], BandpassInterval.analog(0.0, 2.0)),
        ],
        ids=["N-beyond-the-bound", "negative-T"],
    )
    def test_rung_the_delay_refuses_is_a_domain_error(self, quantity, ladder, band):
        # the delay's own ValueError once escaped the probe
        with pytest.raises(DomainError, match="delay"):
            limit_probe(quantity, ladder, band=band)

    def test_lookahead_rungs_must_be_integers(self):
        with pytest.raises(DomainError):
            limit_probe("thetaN_vs_N", [1, 2, 2.5, 8], band=_half_circle())

    def test_narrow_digital_band_recovers_quarter_turn(self):
        probe = limit_probe("theta_vs_bandwidth", [0.08, 0.04, 0.02, 0.01])
        assert abs(probe.fitted_limit - 0.25 * math.pi) <= 1e-4

    def test_wide_digital_band_aligns_with_causal(self):
        ladder = [TWO_PI - 0.08, TWO_PI - 0.04, TWO_PI - 0.02, TWO_PI - 0.01]
        probe = limit_probe("theta_vs_bandwidth", ladder)
        assert abs(probe.fitted_limit) <= 1e-3

    def test_narrow_band_with_digital_lookahead(self):
        probe = limit_probe(
            "theta_vs_bandwidth", [0.08, 0.04, 0.02, 0.01], delay=DigitalDelay(3)
        )
        assert abs(probe.fitted_limit - 0.25 * math.pi) <= 1e-3

    def test_narrow_band_with_analog_lookahead(self):
        probe = limit_probe(
            "theta_vs_bandwidth", [0.08, 0.04, 0.02, 0.01], delay=AnalogDelay(1.0)
        )
        assert abs(probe.fitted_limit - 0.25 * math.pi) <= 1e-3

    @pytest.mark.parametrize("T", [0.0, 1.0])
    def test_analog_bandwidth_rows_are_the_report_values(self, T):
        # the angle rows once came from a hand-written arcsin, 1 ulp off pi/4 at T = 0
        delay = AnalogDelay(T)
        ladder = [0.5, 1.0, 2.0, 3.0]
        angles = limit_probe("theta_vs_bandwidth", ladder, delay=delay).rows
        distances = limit_probe("dT_vs_bandwidth", ladder, delay=delay).rows
        for (c, angle), (_, distance) in zip(angles, distances):
            rep = delayed_report(BandpassInterval.analog(0.0, c), delay)
            assert (angle, distance) == (rep.angle, rep.distance)

    def test_wide_band_distance_probe_reports_reference_data(self):
        probe = limit_probe(
            "dT_vs_bandwidth", [10.0, 1e2, 1e3, 1e4], delay=AnalogDelay(1.0)
        )
        assert probe.candidate_limit == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)
        assert probe.reference_bracket == (0.0, TWO_PI)
        assert probe.fitted_limit is not None
        assert math.isfinite(probe.fitted_limit)

    def test_wide_band_probe_declines_oscillating_ladders(self):
        probe = limit_probe(
            "dT_vs_bandwidth", [5.0, 10.0, 20.0, 40.0], delay=AnalogDelay(1.0)
        )
        assert probe.fitted_limit is None

    def test_zero_lookahead_has_no_candidate(self):
        probe = limit_probe(
            "dT_vs_bandwidth", [1.0, 2.0, 4.0, 8.0], delay=AnalogDelay(0.0)
        )
        assert probe.candidate_limit is None
        assert probe.reference_bracket is None

    def test_bandwidth_below_ulp_of_pi_is_a_domain_error(self):
        # the digital band is centred on pi, where both edges round to pi
        with pytest.raises(DomainError):
            limit_probe("theta_vs_bandwidth", (1e-300, 1e-299, 1e-298, 1e-297))

    def test_wide_band_probe_needs_analog_delay(self):
        with pytest.raises(DomainError):
            limit_probe("dT_vs_bandwidth", [1.0, 2.0, 4.0, 8.0])
        with pytest.raises(DomainError):
            limit_probe("dT_vs_bandwidth", [1, 2, 4, 8], delay=DigitalDelay(1))
