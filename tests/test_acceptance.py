"""Nine acceptance checks, one per shipped guarantee, numbered 1-7 and 9-10.

Each test prints one `[criterion NN] PASS/FAIL` line (run with -s to see
them) and then asserts.  The matrices, ladders, and tolerances are fixed
here on purpose: they are the contract, not tuning knobs.
"""

import contextlib
import io
import math
import subprocess
import sys
import time
from pathlib import Path

import mpref
import numpy as np

from causalgap import (
    AnalogDelay,
    BandpassInterval,
    DigitalDelay,
    DigitalSequence,
    analog_distance_oracle,
    causal_report,
    causal_report_digital,
    cli,
    convolve_digital,
    delayed_report,
    delayed_report_digital,
    digital_distance_oracle,
    limit_probe,
    operator_norm_estimate,
)
from causalgap.kernel import TWO_PI, oscillatory_tail_integral
from causalgap.verify import CheckResult, _rule_error

GOLDEN = Path(__file__).parent / "golden"


def _criterion(num, label, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {mark} {label}{extra}")
    assert ok, f"criterion {num:02d}: {label}{extra}"


def _centered_digital(c):
    return BandpassInterval.digital(math.pi - 0.5 * c, math.pi + 0.5 * c)


def _run_cli(*args):
    cmd = [sys.executable, "-m", "causalgap", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def test_criterion_01_analog_causal_constants():
    rng = np.random.default_rng(20240801)
    bands = []
    while len(bands) < 200:
        a, b = np.sort(rng.uniform(-50.0, 50.0, size=2))
        if b > a:
            bands.append((float(a), float(b)))
    start = time.perf_counter()
    worst_angle = 0.0
    worst_dist = 0.0
    for a, b in bands:
        rep = causal_report(BandpassInterval.analog(a, b))
        worst_angle = max(worst_angle, abs(rep.angle - 0.25 * math.pi))
        worst_dist = max(worst_dist, abs(rep.distance - math.sqrt(0.5 * (b - a))))
    elapsed = time.perf_counter() - start
    ok = worst_angle <= 1e-15 and worst_dist <= 1e-15 and elapsed < 1.0
    _criterion(
        1, "analog causal constants", ok,
        f"200 bands, angle err {worst_angle:.2e}, distance err {worst_dist:.2e}, "
        f"{elapsed:.3f} s",
    )


def test_criterion_02_digital_closed_forms():
    start = time.perf_counter()
    worst_dist = 0.0
    worst_angle = 0.0
    for a in (0.5 * math.pi, 0.1, 1.0, 2.0):
        rep = causal_report_digital(BandpassInterval.digital(a, a + math.pi))
        worst_dist = max(worst_dist, abs(rep.distance - 0.5 / math.sqrt(2.0)))
        worst_angle = max(worst_angle, abs(rep.angle - math.pi / 6.0))
    elapsed = time.perf_counter() - start
    ok = worst_dist <= 1e-15 and worst_angle <= 1e-15
    _criterion(
        2, "digital closed forms at half-circle width", ok,
        f"distance err {worst_dist:.2e}, angle err {worst_angle:.2e}, {elapsed:.3f} s",
    )


def test_criterion_03_digital_oracle_agreement():
    """Closed-form digital distances against the literal coefficient sum.

    The index cutoff K removes exactly the coefficient energy above K; the
    oracle adds back its mean and bounds the rest, so agreement is checked
    between squared distances, within that bound.  Comparing plain
    distances would divide the same bound by a distance that shrinks with
    bandwidth, which no fixed tolerance of this size survives at narrow
    bands and large look-ahead.
    """
    K = 10**6
    start = time.perf_counter()
    cases = []
    for c in (0.1, 1.0, math.pi, 5.0, 6.2):
        band = _centered_digital(c)
        for N in (0, 1, 5, 50):
            rep = delayed_report_digital(band, DigitalDelay(N))
            orc = digital_distance_oracle(band, DigitalDelay(N), K)
            cases.append((abs(rep.distance**2 - orc.value**2), orc.tail_bound + 1e-12))
    elapsed = time.perf_counter() - start
    worst, tol = max(cases, key=lambda case: case[0] / case[1])
    ok = worst <= tol and elapsed < 60.0
    _criterion(
        3, "digital oracle agreement", ok,
        f"20 points, worst energy gap {worst:.2e} vs tol {tol:.2e}, {elapsed:.1f} s",
    )


def _midpoint_rule_error(c, T, R, dt):
    """verify._rule_error for the midpoints on [T, R], T = 0 included.

    At T = 0, f'(0) = 0, and |f''''| <= c^6 / (30 pi) on [0, 1], because
    (1 - cos u) / u^2 = int_0^1 (1 - s) cos(us) ds; beyond 1 _rule_error's
    bound holds, and its f'(1) term is spare, as the grid runs on through 1.
    """
    if T > 0.0:
        return _rule_error(c, T, R, dt, 24)
    return _rule_error(c, 1.0, R, dt, 24) + dt**4 / 384 * c**6 / (30.0 * math.pi)


def test_criterion_04_analog_oracle_agreement():
    """Closed-form analog distances against the midpoint sum of |h|^2.

    Squared distances agree within the oracle's bound on the tail beyond
    the grid radius plus the midpoint rule's error.
    """
    grid_radius = 1e2
    dt = 1e-2
    start = time.perf_counter()
    cases = []
    for a, b in ((0.0, 1.0), (0.0, math.pi), (-2.0, 3.0)):
        band = BandpassInterval.analog(a, b)
        for T in (0.0, 0.5, 2.0, 10.0):
            rep = delayed_report(band, AnalogDelay(T))
            orc = analog_distance_oracle(band, AnalogDelay(T), grid_radius, dt)
            rule = _midpoint_rule_error(band.bandwidth, T, grid_radius, dt)
            cases.append((abs(rep.distance**2 - orc.value**2), orc.tail_bound + rule + 1e-12))
    elapsed = time.perf_counter() - start
    worst, tol = max(cases, key=lambda case: case[0] / case[1])
    ok = worst <= tol and elapsed < 120.0
    _criterion(
        4, "analog oracle agreement", ok,
        f"12 points, worst energy gap {worst:.2e} vs tol {tol:.2e}, {elapsed:.1f} s",
    )


def test_criterion_05_quadrature_vs_sine_integral():
    start = time.perf_counter()
    worst_dist = 0.0
    worst_mass = 0.0
    for c in (0.5, 1.0, math.pi, 6.0):
        band = BandpassInterval.analog(0.0, c)
        for T in (0.1, 1.0, 10.0):
            # reference: 40-digit mpmath quadrature of the kernel over [-T, T]
            quad = float(mpref.window_mass(c, T))
            rep = delayed_report(band, AnalogDelay(T))
            worst_dist = max(worst_dist, abs(rep.distance - math.sqrt(0.5 * (c - quad))))
            closed = 0.5 * c - oscillatory_tail_integral(c, T) / math.pi
            worst_mass = max(worst_mass, abs(0.5 * quad - closed))
    elapsed = time.perf_counter() - start
    ok = worst_dist <= 1e-8 and worst_mass <= 1e-8 and elapsed < 5.0
    _criterion(
        5, "quadrature vs sine-integral closed form", ok,
        f"12 points, distance gap {worst_dist:.2e}, mass gap {worst_mass:.2e}, "
        f"{elapsed:.2f} s",
    )


def _random_probes(h, count, seed):
    """count unit-norm complex inputs on the support of h plus a margin of 2 len(h)."""
    rng = np.random.default_rng(seed)
    m = 3 * len(h.values)
    probes = []
    for _ in range(count):
        raw = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        probes.append(DigitalSequence(-(m // 2), raw / np.linalg.norm(raw)))
    return probes


def _peak_gain(h, f):
    """max_n |(h * f)[n]| / ||f||, which Cauchy-Schwarz caps at ||h||."""
    return float(np.max(np.abs(convolve_digital(h, f).values))) / f.norm()


def test_criterion_06_norm_isometry():
    rng = np.random.default_rng(1234)
    start = time.perf_counter()
    worst_gap = 0.0
    worst_excess = -math.inf
    for i in range(50):
        n = int(rng.integers(1, 257))
        values = rng.normal(size=n) + 1j * rng.normal(size=n)
        h = DigitalSequence(int(rng.integers(-5, 6)), values)
        est = operator_norm_estimate(h)
        norm = float(np.linalg.norm(values))
        worst_gap = max(worst_gap, abs(est.lower - norm))
        gains = [est.lower] + [_peak_gain(h, f) for f in _random_probes(h, 7, 100 + i)]
        worst_excess = max(worst_excess, max(gains) - (norm + 1e-12))
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-12 and worst_excess <= 0.0 and elapsed < 10.0
    _criterion(
        6, "matched filter attains the norm, probes never exceed it", ok,
        f"50 kernels, lower-bound gap {worst_gap:.2e}, {elapsed:.2f} s",
    )


def test_criterion_07_limit_suites():
    start = time.perf_counter()
    checks = []

    probe = limit_probe(
        "dT_vs_T", (10.0, 1e2, 1e3, 1e4), band=BandpassInterval.analog(0.0, 2.0)
    )
    fit = probe.fitted_limit
    checks.append(("d(T) to 0", fit is not None and abs(fit) <= 1e-3))

    probe = limit_probe(
        "theta_vs_bandwidth", (0.08, 0.04, 0.02, 0.01), delay=AnalogDelay(1.0)
    )
    fit = probe.fitted_limit
    checks.append(
        ("analog angle to pi/4", fit is not None and abs(fit - 0.25 * math.pi) <= 1e-3)
    )

    probe = limit_probe("theta_vs_bandwidth", (0.08, 0.04, 0.02, 0.01))
    fit = probe.fitted_limit
    checks.append(
        ("digital angle to pi/4", fit is not None and abs(fit - 0.25 * math.pi) <= 1e-3)
    )

    probe = limit_probe(
        "theta_vs_bandwidth", tuple(TWO_PI - eps for eps in (0.08, 0.04, 0.02, 0.01))
    )
    fit = probe.fitted_limit
    checks.append(("digital angle to 0 at full band", fit is not None and abs(fit) <= 1e-3))

    probe = limit_probe(
        "thetaN_vs_N", (10.0, 100.0, 1000.0, 10000.0), band=_centered_digital(math.pi)
    )
    fit = probe.fitted_limit
    checks.append(("angle(N) to 0", fit is not None and abs(fit) <= 1e-3))

    # angle never increases with look-ahead; flat exactly where the dropped
    # coefficient vanishes (half-circle multiples)
    for c in (1.0, math.pi):
        band = _centered_digital(c)
        angles = [
            delayed_report_digital(band, DigitalDelay(N)).angle for N in range(201)
        ]
        mono = True
        for N in range(200):
            step = angles[N + 1] - angles[N]
            dropped = math.sin(0.5 * (N + 1) * c) ** 2
            if dropped > 1e-12:
                mono = mono and step < 0.0
            else:
                mono = mono and abs(step) <= 1e-15
        checks.append((f"angle(N) monotone at width {c:g}", mono))

    elapsed = time.perf_counter() - start
    bad = [name for name, flag in checks if not flag]
    ok = not bad and elapsed < 30.0
    _criterion(
        7, "limit ladders and monotonicity", ok,
        "; ".join(bad) if bad else f"{len(checks)} checks, {elapsed:.2f} s",
    )


def test_criterion_09_bandwidth_probe_reported_not_asserted():
    start = time.perf_counter()
    lines = []
    ok = True
    for T in (0.5, 1.0, 2.0):
        probe = limit_probe(
            "dT_vs_bandwidth", (10.0, 1e2, 1e3, 1e4), delay=AnalogDelay(T)
        )
        fit = probe.fitted_limit
        lo, hi = probe.reference_bracket
        ok = ok and fit is not None and math.isfinite(fit)
        lines.append(
            f"T={T:g}: fitted {fit:.6f}, reference bracket ({lo:g}, {hi:.6f}), "
            f"candidate {probe.candidate_limit:.6f}"
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    # the bracket is printed for comparison only; containment is not asserted
    for line in lines:
        print(f"    {line}")
    _criterion(
        9, "wide-band distance probe has a finite fitted limit", ok,
        f"3 delays, {elapsed:.2f} s",
    )


def test_criterion_10_cli_contract():
    start = time.perf_counter()
    bad = []

    golden_cases = [
        ("analog_causal.json", ("analog", "--a", "0", "--b", "2")),
        ("analog_causal.txt", ("analog", "--a", "0", "--b", "2", "--format", "text")),
        (
            "digital_causal.json",
            ("digital", "--a", "1.5707963267948966", "--b", "4.71238898038469"),
        ),
        ("digital_delayed.json", ("digital", "--a", "2", "--b", "4", "--delay-samples", "3")),
        ("coeffs.csv", ("digital", "--a", "2", "--b", "4", "--coeffs", "3")),
        (
            "impulse_digital.csv",
            ("impulse", "--mode", "digital", "--a", "2", "--b", "4",
             "--window", "4", "--delay-samples", "1"),
        ),
        (
            "impulse_analog.csv",
            ("impulse", "--mode", "analog", "--a", "0", "--b", "2",
             "--t-max", "0.02", "--dt", "0.01"),
        ),
        (
            "sweep_digital_delay.csv",
            ("sweep", "--mode", "digital", "--vary", "delay",
             "--range", "0", "4", "--steps", "5", "--a", "2", "--b", "4"),
        ),
    ]
    for name, args in golden_cases:
        proc = _run_cli(*args)
        if proc.returncode != 0 or proc.stdout != (GOLDEN / name).read_text():
            bad.append(f"golden {name}")

    if _run_cli("analog", "--a", "2", "--b", "1").returncode != 2:
        bad.append("exit 2")
    proc = _run_cli(
        "sweep", "--mode", "digital", "--vary", "delay", "--range", "0", "4",
        "--steps", "5", "--a", "2", "--b", "4",
        "--out", "/nonexistent-directory-for-exit-code/out.csv",
    )
    if proc.returncode != 4:
        bad.append("exit 4")

    # forced failure exercises exit code 1 without breaking the build
    from unittest import mock

    from causalgap import verify as verify_module

    with mock.patch.object(
        verify_module, "run_checks",
        return_value=[CheckResult("analog", "forced", False, "forced failure")],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify"])
    if code != 1:
        bad.append("exit 1")

    proc = _run_cli("verify", "--suite", "all")
    if proc.returncode != 0:
        bad.append("verify --suite all")
    else:
        summary = proc.stdout.strip().splitlines()[-1]
        if "checks passed (suite all, seed 0)" not in summary:
            bad.append("verify summary line")

    elapsed = time.perf_counter() - start
    ok = not bad
    _criterion(
        10, "command-line contract", ok,
        "; ".join(bad) if bad else f"8 goldens, exit codes 0/1/2/4, {elapsed:.1f} s",
    )
