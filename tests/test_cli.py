"""End-to-end command-line behavior: formats, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
import mpref

from causalgap import (
    AnalogDelay,
    BandpassInterval,
    DigitalDelay,
    best_causal_coefficients,
    analog,
    cli,
    delayed_report,
    delayed_report_digital,
    truncate_to_delay,
    truncate_to_delay_analog,
)
from causalgap.verify import CheckResult

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args):
    cmd = [sys.executable, "-m", "causalgap", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def run_main(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


#: (golden file, argv) for every byte-pinned CLI output
GOLDEN_CASES = [
    ("analog_causal.json", ("analog", "--a", "0", "--b", "2")),
    (
        "analog_causal.txt",
        ("analog", "--a", "0", "--b", "2", "--format", "text"),
    ),
    (
        "digital_causal.json",
        ("digital", "--a", "1.5707963267948966", "--b", "4.71238898038469"),
    ),
    (
        "digital_delayed.json",
        ("digital", "--a", "2", "--b", "4", "--delay-samples", "3"),
    ),
    ("coeffs.csv", ("digital", "--a", "2", "--b", "4", "--coeffs", "3")),
    (
        "impulse_digital.csv",
        (
            "impulse", "--mode", "digital", "--a", "2", "--b", "4",
            "--window", "4", "--delay-samples", "1",
        ),
    ),
    (
        "impulse_analog.csv",
        (
            "impulse", "--mode", "analog", "--a", "0", "--b", "2",
            "--t-max", "0.02", "--dt", "0.01",
        ),
    ),
    (
        "sweep_digital_delay.csv",
        (
            "sweep", "--mode", "digital", "--vary", "delay",
            "--range", "0", "4", "--steps", "5", "--a", "2", "--b", "4",
        ),
    ),
]


class TestGoldenOutputs:
    @pytest.mark.parametrize("name, args", GOLDEN_CASES)
    def test_matches_golden(self, name, args):
        proc = run_cli(*args)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / name).read_text()

    def test_digital_distances_against_mpmath(self):
        # every delayed distance (the tail route) within 2^-53 relative of
        # the 40-digit reference, for the width b - a the library computes
        # from the printed edges; the causal closed form 1/2 - c/(4 pi),
        # unchanged for c <= pi, within 2^-52 (0.8 ulp at c = 2)
        cases = []
        for name in ("digital_causal.json", "digital_delayed.json"):
            data = json.loads((GOLDEN / name).read_text())
            c = data["band"]["b"] - data["band"]["a"]
            cases.append((c, data["delay"] or 0, data["distance"]))
        for line in (GOLDEN / "sweep_digital_delay.csv").read_text().splitlines()[1:]:
            cells = line.split(",")
            cases.append((4.0 - 2.0, int(float(cells[0])), float(cells[1])))
        assert len(cases) == 7
        for c, N, distance in cases:
            bound = 2.0**-53 if N > 0 else 2.0**-52
            assert mpref.rel_err(distance, mpref.digital_distance(c, N)) <= bound


class TestReportJson:
    def test_causal_analog_values(self, capsys):
        code, out, _ = run_main(capsys, "analog", "--a", "0", "--b", "2")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["mode"] == "analog"
        assert data["band"] == {"a": 0.0, "b": 2.0}
        assert data["subspace"] == "Causal"
        assert data["delay"] is None
        assert data["kernel_norm"] == math.sqrt(2.0)
        assert data["distance"] == 1.0
        assert data["angle"] == 0.25 * math.pi
        assert data["angle_degrees"] == 45.0
        assert data["method"] == "ClosedForm"
        assert data["error_estimate"] == 0.0
        assert data["converged"] is True

    def test_half_circle_digital_values(self, capsys):
        code, out, _ = run_main(
            capsys, "digital", "--a", str(0.5 * math.pi), "--b", str(1.5 * math.pi)
        )
        assert code == 0
        data = json.loads(out)
        assert data["mode"] == "digital"
        assert abs(data["distance"] - 0.5 / math.sqrt(2.0)) <= 1e-15
        assert abs(data["angle"] - math.pi / 6.0) <= 1e-15
        assert data["method"] == "ClosedForm"

    def test_analog_delay_report(self, capsys):
        code, out, _ = run_main(capsys, "analog", "--a", "0", "--b", "2", "--delay", "1")
        assert code == 0
        data = json.loads(out)
        assert data["subspace"] == "Delayed"
        assert data["method"] == "ClosedForm"
        assert data["delay"] == 1.0
        rep = delayed_report(BandpassInterval.analog(0.0, 2.0), AnalogDelay(1.0))
        # 17 significant digits parse back to the exact double
        assert data["distance"] == rep.distance
        assert data["error_estimate"] == rep.error_estimate == 0.0
        assert mpref.rel_err(data["distance"], mpref.analog_distance(2.0, 1.0)) <= 1e-14

    def test_huge_band_delay_report(self, capsys):
        # d(T)^2 -> 1/(pi T) as the bandwidth grows; the cancelling form lost
        # every digit here and printed distance 0 with an infinite error
        code, out, _ = run_main(capsys, "analog", "--a", "0", "--b", "1e300", "--delay", "1")
        assert code == 0
        data = json.loads(out)
        assert abs(data["distance"] * math.sqrt(math.pi) - 1.0) <= 1e-12
        assert data["converged"] is True
        assert math.isfinite(data["error_estimate"])

    def test_far_lookahead_digital_report_returns_at_once(self, capsys):
        code, out, _ = run_main(
            capsys, "digital", "--a", "1", "--b", "4", "--delay-samples", "100000000000"
        )
        assert code == 0
        data = json.loads(out)
        ref = mpref.digital_distance(3.0, 10**11)
        assert mpref.rel_err(data["distance"], ref) <= 1e-14

    def test_largest_digital_lookahead_is_accepted(self, capsys):
        N = 2**53 - 1
        code, out, _ = run_main(
            capsys, "digital", "--a", "2", "--b", "4", "--delay-samples", str(N)
        )
        assert code == 0
        data = json.loads(out)
        assert data["delay"] == N
        assert mpref.rel_err(data["distance"], mpref.digital_distance(2.0, N)) <= 1e-14

    def test_zero_delay_output_equals_causal_output(self, capsys):
        _, with_delay, _ = run_main(capsys, "analog", "--a", "0", "--b", "2", "--delay", "0")
        _, without, _ = run_main(capsys, "analog", "--a", "0", "--b", "2")
        assert with_delay == without

    def test_zero_lookahead_output_equals_causal_output(self, capsys):
        _, with_delay, _ = run_main(
            capsys, "digital", "--a", "2", "--b", "4", "--delay-samples", "0"
        )
        _, without, _ = run_main(capsys, "digital", "--a", "2", "--b", "4")
        assert with_delay == without

    def test_json_round_trip_is_idempotent(self, capsys):
        cases = (
            ("analog", "--a", "0", "--b", "2"),
            ("analog", "--a", "-1", "--b", "4", "--delay", "0.5"),
            ("digital", "--a", "2", "--b", "4", "--delay-samples", "2"),
        )
        for args in cases:
            code, out, _ = run_main(capsys, *args)
            assert code == 0
            data = json.loads(out)
            assert cli._json_dumps(data) + "\n" == out

    def test_text_format(self, capsys):
        code, out, _ = run_main(
            capsys, "analog", "--a", "0", "--b", "2", "--format", "text"
        )
        assert code == 0
        rows = dict(line.split(None, 1) for line in out.splitlines())
        assert rows["band"] == "[0, 2]"
        assert rows["subspace"] == "Causal"
        assert rows["delay"] == "none"
        assert rows["distance"] == "1"
        assert rows["converged"] == "true"

    def test_text_fields_equal_the_json_report(self, capsys):
        args = ("digital", "--a", "2", "--b", "4", "--delay-samples", "3")
        _, out, _ = run_main(capsys, *args)
        data = json.loads(out)
        code, out, _ = run_main(capsys, *args, "--format", "text")
        assert code == 0
        rows = dict(line.split(None, 1) for line in out.splitlines())
        assert list(rows) == list(data)
        assert rows.pop("band") == "[2, 4]" and data.pop("band") == {"a": 2.0, "b": 4.0}
        for key, value in data.items():
            if isinstance(value, bool):
                assert rows[key] == ("true" if value else "false")
            elif isinstance(value, int):
                assert rows[key] == str(value)
            elif isinstance(value, float):
                assert float(rows[key]) == value
            else:
                assert rows[key] == value
        assert (rows["subspace"], rows["delay"]) == ("Delayed", "3")


class TestCsvOutputs:
    def test_coefficient_table(self, capsys):
        code, out, _ = run_main(capsys, "digital", "--a", "2", "--b", "4", "--coeffs", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,re,im"
        assert len(lines) == 12
        band = BandpassInterval.digital(2.0, 4.0)
        taps = best_causal_coefficients(band, DigitalDelay(5), 5).values  # h[n] = c_{-n}
        for line in lines[1:]:
            k_s, re_s, im_s = line.split(",")
            k = int(k_s)
            ck = taps[5 - k]
            assert float(re_s) == ck.real
            assert float(im_s) == ck.imag

    def test_impulse_analog_squared_magnitude(self, capsys):
        code, out, _ = run_main(
            capsys, "impulse", "--mode", "analog", "--a", "0", "--b", "2",
            "--t-max", "1", "--dt", "0.25",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index_or_time,re,im"
        assert len(lines) == 10
        for line in lines[1:]:
            t_s, re_s, im_s = line.split(",")
            mag2 = float(re_s) ** 2 + float(im_s) ** 2
            assert mag2 == pytest.approx(
                float(mpref.kernel(2.0, float(t_s))), rel=1e-12, abs=1e-15
            )

    @pytest.mark.parametrize("delay", [None, "1"])
    def test_impulse_analog_times_parse_back_to_the_grid(self, capsys, delay):
        argv = ["impulse", "--mode", "analog", "--a", "0", "--b", "2",
                "--t-max", "3.7", "--dt", "0.1"]
        if delay is not None:
            argv += ["--delay", delay]
        code, out, _ = run_main(capsys, *argv)
        assert code == 0
        times = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
        sig = analog._sample(BandpassInterval.analog(0.0, 2.0), -3.7, 0.1, 75)
        grid = sig.t0 + sig.dt * np.arange(len(sig))
        assert np.array_equal(np.array(times).view(np.int64), grid.view(np.int64))

    # the grid is -2 + 0.25 j: -T = -1 is its fifth point, whose sample survives;
    # -0.6 falls between points; -5 lies before the first, so nothing is cut
    @pytest.mark.parametrize("T", ["0", "1", "0.6", "5"])
    def test_impulse_analog_is_the_truncated_sample(self, capsys, T):
        # the CLI prints zeros before -T and the samples from the cut on;
        # the library's sample and truncation give the same text byte for byte
        sig = analog._sample(BandpassInterval.analog(0.0, 2.0), -2.0, 0.25, 17)
        kept = truncate_to_delay_analog(sig, AnalogDelay(float(T)))
        rows = [f"{cli._num(t)},{cli._num(v.real)},{cli._num(v.imag)}"
                for t, v in zip(sig.t0 + sig.dt * np.arange(len(sig)), kept.values)]
        code, out, _ = run_main(capsys, "impulse", "--mode", "analog", "--a", "0", "--b", "2",
                                "--t-max", "2", "--dt", "0.25", "--delay", T)
        assert code == 0
        assert out == "\n".join(["index_or_time,re,im", *rows]) + "\n"
        if T == "1":
            assert rows[4].startswith("-1,") and not rows[4].endswith(",0,0")

    def test_impulse_digital_truncation_zeroes_lookahead_violations(self, capsys):
        code, out, _ = run_main(
            capsys, "impulse", "--mode", "digital", "--a", "2", "--b", "4",
            "--window", "3", "--delay-samples", "1",
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            k_s, re_s, im_s = line.split(",")
            if int(k_s) < -1:
                assert float(re_s) == 0.0 and float(im_s) == 0.0
            else:
                assert (float(re_s), float(im_s)) != (0.0, 0.0)

    # (5000, 7): 10,001 rows, written in three blocks
    @pytest.mark.parametrize("K, N", [(1, None), (4, 0), (64, 4), (64, 100), (5000, 7)])
    def test_impulse_digital_is_the_truncated_best_filter(self, capsys, K, N):
        # the CLI prints h[n] = c_{-n}, zeroed below -N, without numpy; the
        # library's filter and truncation give the same text byte for byte
        band = BandpassInterval.digital(2.0, 4.0)
        argv = ["impulse", "--mode", "digital", "--a", "2", "--b", "4", "--window", str(K)]
        seq = best_causal_coefficients(band, DigitalDelay(K), K)
        if N is not None:
            argv += ["--delay-samples", str(N)]
            seq = truncate_to_delay(seq, DigitalDelay(N))
        rows = [f"{n},{cli._num(v.real)},{cli._num(v.imag)}"
                for n, v in zip(seq.offset + np.arange(len(seq)), seq.values)]
        code, out, _ = run_main(capsys, *argv)
        assert code == 0
        assert out == "\n".join(["index_or_time,re,im", *rows]) + "\n"

    def test_impulse_digital_zero_prefix_is_not_held(self):
        # the K - N zeros before the kept taps stream like the taps: the
        # peak with every tap zeroed but one stays that of no zeros at all
        K = 200_000
        peaks = []
        for N in (0, K):
            argv = ["impulse", "--mode", "digital", "--a", "2", "--b", "4",
                    "--window", str(K), "--delay-samples", str(N), "--out", os.devnull]
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1] + 256 * 1024, peaks

    def test_sweep_digital_bandwidth_angle_decreases(self, capsys):
        code, out, _ = run_main(
            capsys, "sweep", "--mode", "digital", "--vary", "bandwidth",
            "--range", "0.05", "6.2", "--steps", "100",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "param,distance,angle,kernel_norm,method,error_estimate"
        angles = [float(line.split(",")[2]) for line in lines[1:]]
        assert len(angles) == 100
        assert all(later < earlier for earlier, later in zip(angles, angles[1:]))
        assert angles[0] < 0.25 * math.pi
        assert angles[-1] > 0.0

    @pytest.mark.parametrize(
        "args, report",
        [
            (
                ("--mode", "analog", "--vary", "bandwidth", "--range", "0.25", "6",
                 "--steps", "24", "--delay", "0.5"),
                lambda p: delayed_report(BandpassInterval.analog(0.0, p), AnalogDelay(0.5)),
            ),
            (
                ("--mode", "analog", "--vary", "delay", "--range", "0", "50",
                 "--steps", "21", "--a", "-1.5", "--b", "0.5"),
                lambda p: delayed_report(BandpassInterval.analog(-1.5, 0.5), AnalogDelay(p)),
            ),
            (
                # the band of width p centred on pi
                ("--mode", "digital", "--vary", "bandwidth", "--range", "0.25", "6",
                 "--steps", "24", "--delay-samples", "16"),
                lambda p: delayed_report_digital(
                    BandpassInterval.digital(math.pi - 0.5 * p, math.pi + 0.5 * p),
                    DigitalDelay(16),
                ),
            ),
            (
                ("--mode", "digital", "--vary", "delay", "--range", "0", "4",
                 "--steps", "5", "--a", "2", "--b", "4"),
                lambda p: delayed_report_digital(
                    BandpassInterval.digital(2.0, 4.0), DigitalDelay(int(p))
                ),
            ),
        ],
        ids=["analog-bandwidth", "analog-delay", "digital-bandwidth", "digital-delay"],
    )
    def test_sweep_csv_parses_back_to_exact_doubles(self, capsys, args, report):
        code, out, _ = run_main(capsys, "sweep", *args)
        assert code == 0
        lo, hi = (float(x) for x in args[args.index("--range") + 1:][:2])
        steps = int(args[args.index("--steps") + 1])
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [float(cells[0]) for cells in rows] == np.linspace(lo, hi, steps).tolist()
        for cells in rows:
            rep = report(float(cells[0]))
            assert float(cells[1]) == rep.distance
            assert float(cells[2]) == rep.angle
            assert float(cells[3]) == rep.kernel_norm
            assert cells[4] == rep.method
            assert float(cells[5]) == rep.error_estimate

    def test_sweep_analog_delay_distances_fall_from_causal(self, capsys):
        code, out, _ = run_main(
            capsys, "sweep", "--mode", "analog", "--vary", "delay",
            "--range", "0", "2", "--steps", "5", "--a", "0", "--b", "2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        first = lines[1].split(",")
        assert float(first[1]) == 1.0
        assert first[4] == "ClosedForm"
        dists = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(later <= earlier for earlier, later in zip(dists, dists[1:]))
        for line in lines[2:]:
            cells = line.split(",")
            assert cells[4] == "ClosedForm"
            ref = mpref.analog_distance(2.0, float(cells[0]))
            assert mpref.rel_err(float(cells[1]), ref) <= 1e-14

    def test_sweep_analog_bandwidth_causal(self, capsys):
        code, out, _ = run_main(
            capsys, "sweep", "--mode", "analog", "--vary", "bandwidth",
            "--range", "1", "3", "--steps", "3",
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            cells = line.split(",")
            assert float(cells[1]) == math.sqrt(0.5 * float(cells[0]))

    def test_sweep_to_file(self, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        args = (
            "sweep", "--mode", "digital", "--vary", "delay",
            "--range", "0", "4", "--steps", "5", "--a", "2", "--b", "4",
        )
        code, out, _ = run_main(capsys, *args, "--out", str(target))
        assert code == 0
        assert out == ""
        code, stdout_version, _ = run_main(capsys, *args)
        assert target.read_text() == stdout_version


class TestExitCodes:
    @pytest.mark.parametrize(
        "args",
        [
            ("analog", "--a", "2", "--b", "0"),
            ("analog", "--a", "0", "--b", "2", "--delay", "-1"),
            ("digital", "--a", "0", "--b", "1"),
            ("digital", "--a", "1", "--b", "7"),
            ("digital", "--a", "2", "--b", "4", "--delay-samples", "-1"),
            ("digital", "--a", "2", "--b", "4", "--coeffs", "-1"),
            ("sweep", "--mode", "digital", "--vary", "delay",
             "--range", "0", "4", "--steps", "1", "--a", "2", "--b", "4"),
            ("sweep", "--mode", "digital", "--vary", "delay",
             "--range", "4", "0", "--steps", "5", "--a", "2", "--b", "4"),
            ("sweep", "--mode", "digital", "--vary", "delay",
             "--range", "0", "1", "--steps", "3", "--a", "2", "--b", "4"),
            ("sweep", "--mode", "analog", "--vary", "delay",
             "--range", "0", "1", "--steps", "3"),
            ("impulse", "--mode", "digital", "--a", "2", "--b", "4", "--window", "0"),
            ("impulse", "--mode", "analog", "--a", "0", "--b", "2", "--t-max", "1"),
            # each of these ran into an overflow, memory or size error
            ("digital", "--a", "1", "--b", "4", "--delay-samples", "1" + "0" * 400),
            ("digital", "--a", "1", "--b", "4", "--coeffs", "100000000000"),
            ("impulse", "--mode", "analog", "--a", "0", "--b", "2",
             "--t-max", "1e12", "--dt", "1e-6"),
            ("impulse", "--mode", "digital", "--a", "2", "--b", "4",
             "--window", "100000000000"),
            ("sweep", "--mode", "digital", "--vary", "bandwidth",
             "--range", "1", "2", "--steps", "100000000000"),
            # a non-finite analog look-ahead reached AnalogDelay and raised
            ("sweep", "--mode", "analog", "--vary", "bandwidth",
             "--range", "1", "2", "--steps", "3", "--delay", "nan"),
            ("sweep", "--mode", "analog", "--vary", "bandwidth",
             "--range", "1", "2", "--steps", "3", "--delay", "inf"),
            ("impulse", "--mode", "analog", "--a", "0", "--b", "1",
             "--t-max", "1", "--dt", "0.5", "--delay", "nan"),
            # a width below ulp(pi) rounded both band edges to pi and
            # raised ValueError
            ("sweep", "--mode", "digital", "--vary", "bandwidth",
             "--range", "1e-300", "1e-9", "--steps", "3"),
            # a negative value with an exponent was taken for an option name
            ("analog", "--a", "0", "--b", "1", "--delay", "-1e-3"),
            # finite edges whose width overflows: kernel_norm inf, or a
            # ValueError traceback
            ("analog", "--a=-1e308", "--b=1e308"),
            ("analog", "--a=-1e308", "--b=1e308", "--delay", "1"),
            ("impulse", "--mode", "analog", "--a=-1e308", "--b", "1e308",
             "--t-max", "1", "--dt", "0.5"),
            # a range whose width overflows put NaN on the grid
            ("sweep", "--mode", "analog", "--vary", "bandwidth",
             "--range", " -1e308", "1e308", "--steps", "3"),
            ("sweep", "--mode", "analog", "--vary", "delay",
             "--range", " -1e308", "1e308", "--steps", "3", "--a", "0", "--b", "1"),
            ("sweep", "--mode", "analog", "--vary", "bandwidth",
             "--range", " -inf", "1", "--steps", "3"),
            # an infinite step left one row and raised ValueError
            ("impulse", "--mode", "analog", "--a", "0", "--b", "1",
             "--t-max", "1", "--dt", "inf"),
            # c * t or the band center * t overflowed on the grid: four
            # RuntimeWarnings, then a ValueError traceback
            ("impulse", "--mode", "analog", "--a", "0", "--b", "1e308",
             "--t-max", "4", "--dt", "2"),
            ("impulse", "--mode", "analog", "--a", "1e308", "--b", "1.5e308",
             "--t-max", "4", "--dt", "2"),
            ("impulse", "--mode", "analog", "--a", "0", "--b", "1e308",
             "--t-max", "4", "--dt", "2", "--delay", "1"),
            ("impulse", "--mode", "analog", "--a", "1e308", "--b", "1.5e308",
             "--t-max", "4", "--dt", "2", "--delay", "1"),
            # an option that does not apply was ignored and the call exited 0
            ("sweep", "--mode", "digital", "--vary", "bandwidth",
             "--range", "1", "2", "--steps", "2", "--delay", "3"),
            ("sweep", "--mode", "analog", "--vary", "bandwidth",
             "--range", "1", "2", "--steps", "2", "--delay-samples", "3"),
            ("sweep", "--mode", "analog", "--vary", "delay", "--range", "0", "1",
             "--steps", "2", "--a", "0", "--b", "1", "--delay", "3"),
            ("sweep", "--mode", "digital", "--vary", "delay", "--range", "0", "4",
             "--steps", "5", "--a", "2", "--b", "4", "--delay-samples", "3"),
            ("sweep", "--mode", "analog", "--vary", "bandwidth",
             "--range", "1", "2", "--steps", "2", "--a", "0"),
            ("sweep", "--mode", "digital", "--vary", "bandwidth",
             "--range", "1", "2", "--steps", "2", "--b", "4"),
            ("impulse", "--mode", "analog", "--a", "0", "--b", "2",
             "--t-max", "1", "--dt", "0.5", "--window", "4"),
            ("impulse", "--mode", "analog", "--a", "0", "--b", "2",
             "--t-max", "1", "--dt", "0.5", "--delay-samples", "1"),
            ("impulse", "--mode", "digital", "--a", "2", "--b", "4",
             "--window", "4", "--t-max", "1"),
            ("impulse", "--mode", "digital", "--a", "2", "--b", "4",
             "--window", "4", "--dt", "0.5"),
            ("impulse", "--mode", "digital", "--a", "2", "--b", "4",
             "--window", "4", "--delay", "1.5"),
            ("digital", "--a", "2", "--b", "4", "--coeffs", "1", "--delay-samples", "3"),
            ("digital", "--a", "2", "--b", "4", "--coeffs", "1", "--format", "text"),
            # impulse alone took a look-ahead above 2**53 - 1 and exited 0
            ("impulse", "--mode", "digital", "--a", "2", "--b", "4", "--window", "2",
             "--delay-samples", "100000000000000000000"),
            # one past DigitalDelay's bound, given or swept
            ("digital", "--a", "2", "--b", "4", "--delay-samples", "9007199254740992"),
            ("sweep", "--mode", "digital", "--vary", "delay", "--range", "9007199254740990",
             "9007199254740994", "--steps", "5", "--a", "2", "--b", "4"),
        ],
    )
    def test_invalid_parameters_exit_2(self, capsys, args):
        code, _, err = run_main(capsys, *args)
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "args",
        [
            # the last of 65,537 rows is N = 2**53, which DigitalDelay refuses
            ("sweep", "--mode", "digital", "--vary", "delay", "--range", "0",
             "9007199254740992", "--steps", "65537", "--a", "2", "--b", "4"),
            # the second row, 0.5, breaks the integer rule of digital delays
            ("sweep", "--mode", "digital", "--vary", "delay",
             "--range", "0", "4.5", "--steps", "10", "--a", "2", "--b", "4"),
            # the last row's width, 6.3, leaves no band inside (0, 2 pi)
            ("sweep", "--mode", "digital", "--vary", "bandwidth",
             "--range", "1", "6.3", "--steps", "4"),
        ],
    )
    def test_refused_row_runs_no_report(self, capsys, monkeypatch, args):
        # every row's band and delay is checked before the first report
        reports = []
        report = cli._report

        def counted(*row):
            reports.append(row)
            return report(*row)

        monkeypatch.setattr(cli, "_report", counted)
        code, out, err = run_main(capsys, *args)
        assert (code, out, reports) == (2, "", [])
        assert "error" in err

    @pytest.mark.parametrize(
        "args, option",
        [
            (("sweep", "--mode", "digital", "--vary", "bandwidth",
              "--range", "1", "2", "--steps", "2", "--delay", "3"), "--delay"),
            (("impulse", "--mode", "analog", "--a", "0", "--b", "2",
              "--t-max", "1", "--dt", "0.5", "--delay-samples", "1"), "--delay-samples"),
            (("digital", "--a", "2", "--b", "4", "--coeffs", "1",
              "--delay-samples", "3"), "--delay-samples"),
            (("digital", "--a", "2", "--b", "4", "--coeffs", "1",
              "--format", "text"), "--format"),
        ],
    )
    def test_inapplicable_option_is_named(self, capsys, args, option):
        code, out, err = run_main(capsys, *args)
        assert (code, out) == (2, "")
        assert f"{option} does not apply" in err

    def test_band_whose_edge_sum_overflows(self, capsys):
        # the width 7e307 is finite; (a + b) / 2 overflowed
        code, out, _ = run_main(
            capsys, "impulse", "--mode", "analog", "--a", "1e308", "--b", "1.7e308",
            "--t-max", "1", "--dt", "0.5",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 5
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)

    @pytest.mark.parametrize(
        "option", [("--quad-tol", "1e-10"), ("--max-subdivisions", "2")]
    )
    def test_retired_quadrature_options_exit_2(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analog", "--a", "0", "--b", "2", "--delay", "5", *option])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_widest_band_delay_report_is_finite(self, capsys):
        # the tail c (pi/2 - S(cT)) overflowed, and the report raised
        code, out, _ = run_main(
            capsys, "analog", "--a=255", "--b=1.7e308", "--delay=1e-320"
        )
        assert code == 0
        data = json.loads(out, parse_constant=_reject_constant)
        assert math.isfinite(data["distance"]) and data["distance"] > 0.0
        c = data["band"]["b"] - data["band"]["a"]
        assert mpref.rel_err(data["distance"], mpref.analog_distance(c, 1e-320)) <= 1.2e-16

    def test_unwritable_path_exit_4(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "out.csv"
        code, _, err = run_main(
            capsys, "sweep", "--mode", "digital", "--vary", "delay",
            "--range", "0", "4", "--steps", "5", "--a", "2", "--b", "4",
            "--out", str(target),
        )
        assert code == 4
        assert "cannot write" in err

    def test_streamed_table_to_unwritable_path_exit_4(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "out.csv"
        code, out, err = run_main(
            capsys, "impulse", "--mode", "digital", "--a", "2", "--b", "4",
            "--window", "5000", "--out", str(target),
        )
        assert (code, out) == (4, "")
        assert "cannot write" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["digital", "--a", "1", "--b", "2.5", "--delay-samples", "1000"],
            ["sweep", "--mode", "analog", "--vary", "delay",
             "--range", "0", "50", "--steps", "1000", "--a", "0", "--b", "2"],
            ["digital", "--a", "1", "--b", "2.5", "--coeffs", "5000"],
        ],
    )
    def test_closed_stdout_exit_4(self, argv):
        # the reader is closed before the child starts, so every write fails;
        # with stdout block-buffered the short report fails only when
        # flushed, and the long sweep already while it is written
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "causalgap", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 4, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "BrokenPipeError" not in proc.stderr

    def test_verify_failure_exit_1(self, capsys, monkeypatch):
        from causalgap import verify as verify_module

        monkeypatch.setattr(
            verify_module,
            "run_checks",
            lambda suite, seed: [CheckResult("analog", "forced", False, "forced failure")],
        )
        code, out, _ = run_main(capsys, "verify")
        assert code == 1
        assert "FAIL analog.forced: forced failure" in out
        assert "0/1 checks passed" in out

    def test_unknown_subcommand_choice(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "nope"])
        assert exc.value.code == 2


class TestVerifyCommand:
    def test_suite_passes(self, capsys):
        code, out, _ = run_main(capsys, "verify", "--suite", "operators", "--seed", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS operators.") for line in lines[:-1])
        assert "checks passed (suite operators, seed 1)" in lines[-1]

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("CAUSALGAP_SEED", "7")
        code, out, _ = run_main(capsys, "verify", "--suite", "operators")
        assert code == 0
        assert "seed 7)" in out

    def test_explicit_seed_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CAUSALGAP_SEED", "7")
        code, out, _ = run_main(capsys, "verify", "--suite", "operators", "--seed", "2")
        assert code == 0
        assert "seed 2)" in out

    def test_bad_env_seed_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("CAUSALGAP_SEED", "pi")
        code, _, err = run_main(capsys, "verify", "--suite", "operators")
        assert code == 2

    @pytest.mark.parametrize("suite", ["all", "analog", "digital", "operators"])
    def test_negative_seed_exit_2(self, capsys, suite):
        # numpy's generators raised ValueError for every suite but digital
        code, out, err = run_main(capsys, "verify", "--suite", suite, "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "seed must be nonnegative" in err

    def test_negative_env_seed_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("CAUSALGAP_SEED", "-1")
        code, _, err = run_main(capsys, "verify")
        assert code == 2
        assert "seed must be nonnegative" in err


class TestNegativeNumbers:
    """Negative option values with an exponent or an infinity."""

    @pytest.mark.parametrize(
        "args, reference",
        [
            (("analog", "--a", "-1e-3", "--b", "1"), ("analog", "--a=-0.001", "--b", "1")),
            (("analog", "--a", "-1E-3", "--b", "1", "--delay", "2", "--format", "text"),
             ("analog", "--a=-0.001", "--b", "1", "--delay", "2", "--format", "text")),
            (("sweep", "--mode", "analog", "--vary", "bandwidth",
              "--range", "-1e-3", "1", "--steps", "3"),
             ("sweep", "--mode", "analog", "--vary", "bandwidth",
              "--range", " -1e-3", "1", "--steps", "3")),
            (("sweep", "--mode", "analog", "--vary", "delay", "--range", "-inf", "1",
              "--steps", "3", "--a", "0", "--b", "1"),
             ("sweep", "--mode", "analog", "--vary", "delay", "--range", " -inf", "1",
              "--steps", "3", "--a", "0", "--b", "1")),
        ],
    )
    def test_same_output_as_the_unambiguous_form(self, capsys, args, reference):
        assert run_main(capsys, *args) == run_main(capsys, *reference)


#: argument values that once broke a command: subnormals, the edges of the
#: double range, 2^53, non-finite values, signed zero, negative exponents
_EDGE_VALUES = (
    "5e-324", "1e-320", "1e-300", "1e308", "1.7e308", "9007199254740992",
    "nan", "inf", "-inf", "-0.0", "0", "1", "2", "4", "0.5", "6.283185307179586",
    "1e-9", "-1e-3", "-1e308",
)
_INT_VALUES = (
    "0", "1", "3", "255", "256", "300", "-1", "9007199254740991",
    "9007199254740992", "100000000000", "1.5", "nan",
)
_number = st.one_of(
    st.sampled_from(_EDGE_VALUES),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_integer = st.one_of(st.sampled_from(_INT_VALUES), st.integers(-5, 10**6).map(str))


@st.composite
def _argvs(draw, commands=("analog", "digital", "sweep", "impulse")):
    """An argv for one of the commands, without --out."""

    def maybe(flag, values):
        return [flag, draw(values)] if draw(st.booleans()) else []

    command = draw(st.sampled_from(commands))
    argv = [command]
    if command in ("sweep", "impulse"):
        argv += ["--mode", draw(st.sampled_from(("analog", "digital")))]
    if command == "sweep":
        argv += ["--vary", draw(st.sampled_from(("bandwidth", "delay")))]
        argv += ["--range", draw(_number), draw(_number)]
        # a million rows is allowed but slow, so the steps stay small
        argv += ["--steps", draw(st.sampled_from(("3", "2", "5", "1", "-4", "1" + "0" * 11)))]
        argv += maybe("--a", _number) + maybe("--b", _number)
    else:
        argv += ["--a", draw(_number), "--b", draw(_number)]
    argv += maybe("--delay", _number) + maybe("--delay-samples", _integer)
    if command == "digital":
        argv += maybe("--coeffs", st.sampled_from(("0", "3", "-1", "1" + "0" * 11)))
    if command == "impulse":
        argv += maybe("--t-max", st.sampled_from(("1", "0.02", "5e-324", "1e308", "nan", "-1")))
        argv += maybe("--dt", st.sampled_from(("0.5", "1e-320", "1e308", "nan", "-0.0", "inf")))
        argv += maybe("--window", st.sampled_from(("0", "1", "4", "-1", "1" + "0" * 11)))
    if command in ("analog", "digital"):
        argv += maybe("--format", st.sampled_from(("json", "text")))
    return argv


class TestFuzz:
    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_argvs())
    # the argvs that found the bugs this property last caught
    @example(["analog", "--a=255", "--b=1.7e308", "--delay=1e-320"])
    @example(["sweep", "--mode", "digital", "--vary", "bandwidth",
              "--range", "1e-300", "1e-9", "--steps", "3"])
    @example(["impulse", "--mode", "analog", "--a", "0", "--b", "1",
              "--t-max", "1", "--dt", "inf"])
    @example(["impulse", "--mode", "analog", "--a", "0", "--b", "1e308",
              "--t-max", "4", "--dt", "2"])
    @example(["impulse", "--mode", "analog", "--a", "1e308", "--b", "1.5e308",
              "--t-max", "4", "--dt", "2"])
    def test_every_argv_ends_in_an_exit_code(self, argv):
        # exit 0, 1, 2 or 4 and never a traceback; a JSON report is strict JSON
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 4), (argv, code, err.getvalue())
        if code in (2, 4):
            # a refused argv prints nothing and names its error
            assert out.getvalue() == "", (argv, code)
            assert "error:" in err.getvalue(), (argv, code)
        if code == 0 and argv[0] in ("analog", "digital") and "--coeffs" not in argv:
            if "text" not in argv:
                json.loads(out.getvalue(), parse_constant=_reject_constant)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_argvs(commands=("sweep", "impulse")))
    @example(["sweep", "--mode", "digital", "--vary", "delay",
              "--range", "0", "4", "--steps", "5", "--a", "2", "--b", "4"])
    @example(["impulse", "--mode", "digital", "--a", "2", "--b", "4", "--window", "4"])
    def test_out_path_is_written_or_exits_4(self, argv):
        # the same argv to a writable file, to a directory and into a
        # missing directory: an argv that writes the file exits 4 on the
        # other two, and one rejected before writing exits 2 on all three
        with tempfile.TemporaryDirectory() as tmp:
            target = os.path.join(tmp, "out.csv")
            codes = []
            for path in (target, tmp, os.path.join(tmp, "missing", "out.csv")):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    try:
                        codes.append(cli.main([*argv, "--out", path]))
                    except SystemExit as exc:
                        codes.append(exc.code)
            if codes[0] == 0:
                header = Path(target).read_text().splitlines()[0]
                assert header in ("param,distance,angle,kernel_norm,method,error_estimate",
                                  "index_or_time,re,im"), header
                assert codes[1:] == [4, 4], (argv, codes)
            else:
                assert codes == [2, 2, 2], (argv, codes)

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(st.integers(-3, 2**64))
    @example(-3)
    @example(-1)
    @example(0)
    @example(2**64)
    def test_verify_seed_range(self, seed):
        # negative seeds are invalid parameters; every other seed passes
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", "--suite", "digital", "--seed", str(seed)])
        assert code == (2 if seed < 0 else 0), (seed, err.getvalue())
        if seed >= 0:
            assert f"checks passed (suite digital, seed {seed})" in out.getvalue()


class TestWithoutScipy:
    def test_commands_run_with_scipy_blocked(self):
        # None in sys.modules makes every import of scipy fail
        script = (
            "import contextlib, io, sys\n"
            "sys.modules['scipy'] = None\n"
            "from causalgap import cli\n"
            "for argv in (['analog', '--a', '0', '--b', '2'],\n"
            "             ['analog', '--a', '0', '--b', '2', '--delay', '1.5'],\n"
            "             ['sweep', '--mode', 'analog', '--vary', 'delay',\n"
            "              '--range', '0', '50', '--steps', '21', '--a', '0', '--b', '2'],\n"
            "             ['digital', '--a', '1', '--b', '2.5', '--delay-samples', '1000'],\n"
            "             ['digital', '--a', '2', '--b', '4', '--delay-samples', '3'],\n"
            "             ['digital', '--a', '2.9', '--b', '2.916', '--delay-samples', '295'],\n"
            "             ['impulse', '--mode', 'digital', '--a', '2', '--b', '4',\n"
            "              '--window', '8'],\n"
            "             ['verify', '--suite', 'all']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


#: one scalar argv per report or sweep command, run by the start-up tests
_SCALAR_ARGVS = [
    ["analog", "--a", "0", "--b", "2", "--delay", "1.5"],
    ["digital", "--a", "1", "--b", "2.5", "--delay-samples", "1000"],
    ["sweep", "--mode", "analog", "--vary", "delay",
     "--range", "0", "50", "--steps", "21", "--a", "0", "--b", "2"],
]


class TestWithoutNumpy:
    """Reports, sweeps and digital tables are scalar work and must not need numpy."""

    def test_import_leaves_numpy_unloaded(self):
        script = "import sys, causalgap, causalgap.cli\nassert 'numpy' not in sys.modules\n"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_no_call_loads_a_thread_pool(self):
        # the array calls fill their blocks on the caller's thread too
        argvs = _SCALAR_ARGVS + [
            ["impulse", "--mode", "analog", "--a", "0", "--b", "2", "--t-max", "200",
             "--dt", "0.01"],
            ["verify", "--suite", "all", "--seed", "0"],
        ]
        script = (
            "import contextlib, io, sys\n"
            "from causalgap import cli\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "from causalgap import BandpassInterval, analog\n"
            "analog._sample(BandpassInterval.analog(0.0, 2.0), -1.0, 1e-5, 200001)\n"
            "assert 'concurrent.futures' not in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_reports_and_sweeps_run_with_numpy_blocked(self):
        goldens = [(name, args) for name, args in GOLDEN_CASES
                   if name != "impulse_analog.csv"]
        assert len(goldens) == 7
        others = [
            # the digital table and impulse argvs of the benchmark's cli pool
            ("digital", "--a", "1.25", "--b", "4.25", "--coeffs", "64"),
            ("impulse", "--mode", "digital", "--a", "2.5", "--b", "3.75",
             "--window", "64", "--delay-samples", "4"),
            ("analog", "--a", "0", "--b", "2", "--delay", "1.5"),
            ("sweep", "--mode", "analog", "--vary", "delay",
             "--range", "0", "50", "--steps", "21", "--a", "0", "--b", "2"),
            ("digital", "--a", "1", "--b", "2.5", "--delay-samples", "1000"),
            ("digital", "--a", "2.9", "--b", "2.916", "--delay-samples", "295"),
            ("sweep", "--mode", "digital", "--vary", "bandwidth",
             "--range", "0.25", "6", "--steps", "24", "--delay-samples", "16"),
        ]
        # None in sys.modules makes every import of numpy fail
        script = (
            "import contextlib, io, math, sys\n"
            "sys.modules['numpy'] = None\n"
            "from pathlib import Path\n"
            "from causalgap import BandpassInterval, cli, limit_probe\n"
            f"golden = Path({str(GOLDEN)!r})\n"
            "def run(argv):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        assert cli.main(list(argv)) == 0, argv\n"
            "    return out.getvalue()\n"
            f"for name, argv in {goldens!r}:\n"
            "    assert run(argv) == (golden / name).read_text(), name\n"
            f"for argv in {others!r}:\n"
            "    run(argv)\n"
            "for quantity, band, ladder in (\n"
            "        ('dT_vs_T', BandpassInterval.analog(0.0, 2.0), [1.0, 2.0, 4.0, 8.0]),\n"
            "        ('thetaN_vs_N', BandpassInterval.digital(2.0, 4.0), [1, 3, 300, 1000])):\n"
            "    probe = limit_probe(quantity, ladder, band=band)\n"
            "    assert all(math.isfinite(v) for _, v in probe.rows), probe\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestStartup:
    """Every call pays for the import, so it loads only what it uses."""

    def test_import_and_reports_leave_dataclasses_and_inspect_unloaded(self):
        script = (
            "import contextlib, io, sys\n"
            "import causalgap\n"
            "def check():\n"
            "    for name in ('dataclasses', 'inspect'):\n"
            "        assert name not in sys.modules, name\n"
            "check()\n"
            "from causalgap import cli\n"
            f"for argv in {_SCALAR_ARGVS!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "    check()\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_verify_loads_only_numpy_core(self):
        # numpy's own import loads numpy.linalg (numpy.matrixlib imports
        # it), so verify may add no numpy module beyond those
        script = (
            "import contextlib, io, sys\n"
            "import numpy\n"
            "core = {m for m in sys.modules if m.startswith('numpy')}\n"
            "from causalgap import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['verify', '--suite', 'all', '--seed', '0']) == 0\n"
            "added = {m for m in sys.modules if m.startswith('numpy')} - core\n"
            "assert not added, sorted(added)\n"
            "for name in ('numpy.random', 'numpy.polynomial', 'numpy.fft'):\n"
            "    assert name not in sys.modules, name\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_import_binds_every_submodule(self):
        # the package is eager: callers read causalgap.kernel and the rest
        # right after import, and no module __getattr__ defers any of them
        script = (
            "import causalgap\n"
            "for name in ('kernel', 'signals', 'analog', 'digital', 'operators', 'oracle'):\n"
            "    assert name in vars(causalgap), name\n"
            "assert '__getattr__' not in vars(causalgap)\n"
            "for name in causalgap.__all__:\n"
            "    assert name in vars(causalgap), name\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestSweepGrid:
    @pytest.mark.parametrize(
        "lo, hi, steps",
        [(0.0, 4.0, 5), (0.25, 6.0, 24), (0.0, 50.0, 21), (-3.7, 1e-3, 1000),
         (1e-300, 1e300, 7), (0.0, 5e-323, 100)],
    )
    def test_matches_numpy_linspace(self, lo, hi, steps):
        # in the last case the step underflows to zero
        assert cli._linspace(lo, hi, steps) == np.linspace(lo, hi, steps).tolist()


class TestDeterminism:
    def test_verify_output_is_byte_identical(self):
        first = run_cli("verify", "--suite", "digital", "--seed", "7")
        second = run_cli("verify", "--suite", "digital", "--seed", "7")
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout

    def test_verify_output_matches_its_golden(self):
        # an oracle that moved a printed digit would still be run-to-run stable
        proc = run_cli("verify", "--suite", "all", "--seed", "0")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / "verify_all_seed0.txt").read_text()

    def test_help_lists_subcommands(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        for name in ("analog", "digital", "sweep", "impulse", "verify"):
            assert name in proc.stdout
