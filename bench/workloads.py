"""Seeded inputs for the three benchmark workloads.

A workload is a pool of cases and a schedule: the list of pool indices the
single closed-loop client runs, one op per entry.  The seed draws where each
band sits and the order of every pass; it never draws a bandwidth or a
look-ahead.  Distances depend only on the width c = b - a and the delay, and
the edges are multiples of 1/16 with dyadic widths, so b - a is exact and a
run computes the same distances whatever the seed.  That keeps rel_err_max
and the violation counts a property of the code rather than a lottery over
rounding errors, while the program still sees different inputs per seed.

Nothing here imports causalgap: run.py and the worker build the same cases
from the same arguments.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("cli", "deep_delay", "verify")

#: seconds of --seconds one pass over the pool is given: about what a pass
#: took on a slow spell of the 2-core x86 container the benchmark was made
#: on (Python 3.11, one thread), so a run seldom hits the worker's time cap.
#: --seconds buys round(seconds / PASS_SECONDS) passes, so every later
#: commit runs the same ops and the percentiles stay comparable.  At the
#: benchmark's 30 s, deep_delay makes 7 passes over its 13 cases, whose
#: costs differ by up to 10^4: with an odd number of passes over an odd
#: number of cases, op_ms_p50 is the middle sample of the middle case and
#: op_ms_tail (ten ops beyond it) the middle sample of the second-costliest,
#: instead of an average across the gap between two cases.
PASS_SECONDS = {"cli": 4.3, "deep_delay": 4.3, "verify": 0.6}

ANALOG_DEEP_CT = tuple(1e2 * (2e4) ** (j / 4) for j in range(5))  # 1e2 .. 2e6
DIGITAL_DEEP_N = (10**3, 10**4, 10**5, 10**6, 10**7)

TWO_PI = 2.0 * math.pi


def _analog_band(rng: random.Random, c: float) -> tuple[float, float]:
    a = rng.randrange(-256, 257) / 16.0
    return a, a + c


def _digital_band(rng: random.Random, c: float) -> tuple[float, float]:
    top = math.floor((TWO_PI - c) * 16.0) - 1
    a = rng.randrange(1, top) / 16.0
    return a, a + c


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{stream}")


def _num(x: float) -> str:
    return repr(float(x))


def _cli_pool(rng: random.Random) -> list[dict]:
    a1, b1 = _analog_band(rng, 1.75)
    a2, b2 = _analog_band(rng, 2.5)
    a3, b3 = _analog_band(rng, 2.0)
    d1, e1 = _digital_band(rng, 2.25)
    d2, e2 = _digital_band(rng, 1.5)
    d3, e3 = _digital_band(rng, 3.0)
    d4, e4 = _digital_band(rng, 1.25)
    pool = [
        {"kind": "analog", "argv": ["analog", "--a", _num(a1), "--b", _num(b1)],
         "expect": {"report": ["analog", a1, b1, None]}},
        {"kind": "analog", "argv": ["analog", "--a", _num(a2), "--b", _num(b2), "--delay", _num(30.0)],
         "expect": {"report": ["analog", a2, b2, 30.0]}},
        {"kind": "digital", "argv": ["digital", "--a", _num(d1), "--b", _num(e1)],
         "expect": {"report": ["digital", d1, e1, None]}},
        {"kind": "digital", "argv": ["digital", "--a", _num(d2), "--b", _num(e2), "--delay-samples", "1000"],
         "expect": {"report": ["digital", d2, e2, 1000]}},
        {"kind": "digital", "argv": ["digital", "--a", _num(d3), "--b", _num(e3), "--coeffs", "64"],
         "expect": {"coeffs": [d3, e3, 64]}},
        {"kind": "sweep", "argv": ["sweep", "--mode", "digital", "--vary", "bandwidth", "--range", "0.25", "6",
                                   "--steps", "24", "--delay-samples", "16"],
         "expect": {"sweep": ["digital", "bandwidth", 0.25, 6.0, 24, 16]}},
        {"kind": "sweep", "argv": ["sweep", "--mode", "analog", "--vary", "delay", "--range", "0", "50",
                                   "--steps", "21", "--a", _num(a3), "--b", _num(b3)],
         "expect": {"sweep": ["analog", "delay", 0.0, 50.0, 21, [a3, b3]]}},
        {"kind": "impulse", "argv": ["impulse", "--mode", "digital", "--a", _num(d4), "--b", _num(e4),
                                     "--window", "64", "--delay-samples", "4"],
         "expect": {"impulse": [d4, e4, 64, 4]}},
    ]
    return pool


def _deep_pool(rng: random.Random) -> list[dict]:
    a, b = _analog_band(rng, 1.75)
    d, e = _digital_band(rng, 2.25)
    pool = [{"op": "analog_report", "band": [a, b], "delay": ct / (b - a)} for ct in ANALOG_DEEP_CT]
    pool.append({"op": "analog_report", "band": [a, b], "delay": None})
    pool += [{"op": "digital_report", "band": [d, e], "delay": n} for n in DIGITAL_DEEP_N]
    # the same widths and rungs through oracle.limit_probe, so the checker's
    # references are shared; the digital ladder stops at 1e6 to keep a pass short
    pool.append({"op": "limit_probe", "quantity": "dT_vs_T", "ladder": [ct / (b - a) for ct in ANALOG_DEEP_CT],
                 "band": ["analog", a, b], "delay": None})
    pool.append({"op": "limit_probe", "quantity": "thetaN_vs_N", "ladder": list(DIGITAL_DEEP_N[:4]),
                 "band": ["digital", d, e], "delay": None})
    return pool


def passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def pool(workload: str, seed: int, seconds: float) -> list[dict]:
    """The workload's cases; the first doubles as the warm-up op (for
    deep_delay the cheapest rung)."""
    rng = _rng(workload, seed, "pool")
    if workload == "cli":
        return _cli_pool(rng)
    if workload == "deep_delay":
        return _deep_pool(rng)
    if workload == "verify":
        # one op is one full suite with its own suite seed.  The suite seeds
        # are 0 .. n-1 in a seeded order: the checks draw bands from them, so
        # a fixed set keeps rel_err_max the same for every --seed.
        seeds = list(range(passes("verify", seconds)))
        rng.shuffle(seeds)
        return [{"op": "verify", "seed": s} for s in seeds]
    raise ValueError(f"unknown workload {workload!r}")


def schedule(workload: str, seed: int, seconds: float, traced: bool = False) -> list[int]:
    """Pool indices in run order: every pass visits each case once.

    A traced run times its ops twice, untraced and then traced, so it
    takes half the passes.
    """
    size = len(pool(workload, seed, seconds))
    count = passes(workload, seconds)
    if traced:
        count = max(1, count // 2)
    if workload == "verify":
        return list(range(count))
    rng = _rng(workload, seed, "order")
    order: list[int] = []
    for _ in range(count):
        one = list(range(size))
        rng.shuffle(one)
        order += one
    return order

