"""Output checks: every op's output against the mpmath reference.

An op fails when it raises, exits non-zero, prints output that does not
parse, reports converged=false or, for verify, prints a FAIL line.  An
output is incorrect when an op that claims success is off the reference by
more than the tolerances below, or when two runs of the same case differ.
rel_err_max and the violation counts come from distances of ops that
succeeded, counted once per case of the pool (outputs are compared across
passes, not checked again), so they do not depend on how many passes a run
made.
"""

from __future__ import annotations

import json
import math

import reference

#: relative error beyond which a distance, angle or kernel norm is wrong
#: (the worst converged report at the seed is 1.7e-8 off)
VALUE_RTOL = 1e-6
#: absolute error beyond which a Fourier coefficient or impulse tap is wrong
COEF_ATOL = 1e-12
EPS = 2.0**-52

REPORT_KEYS = ("schema", "mode", "band", "subspace", "delay", "kernel_norm", "distance", "angle",
               "angle_degrees", "method", "error_estimate", "converged")


class Checker:
    def __init__(self) -> None:
        self._refs: dict[tuple, object] = {}
        self._coefs: dict[tuple, complex] = {}
        self.rel_err_max = 0.0
        self.violations = {"analog": 0, "digital": 0}
        self.errors: list[str] = []

    # -- references, computed once per distinct input

    def distance_ref(self, mode: str, c: float, delay):
        key = (mode, c, delay)
        if key not in self._refs:
            if mode == "analog":
                self._refs[key] = reference.analog_distance(c, delay)
            else:
                self._refs[key] = reference.digital_distance(c, delay)
        return self._refs[key]

    def _norm_ref(self, mode: str, c: float):
        return reference.analog_norm(c) if mode == "analog" else reference.digital_norm(c)

    def _coef(self, a: float, b: float, k: int) -> complex:
        key = (a, b, k)
        if key not in self._coefs:
            self._coefs[key] = complex(reference.fourier_coefficient(a, b, k))
        return self._coefs[key]

    # -- value checks for outputs that claim success

    def _value(self, what: str, value: float, ref) -> float:
        err = reference.rel_err(value, ref)
        if not err <= VALUE_RTOL:
            self.errors.append(f"{what}: {value!r} is {err:.2e} off the reference")
        return err

    def report(self, mode: str, c: float, delay, distance: float, error_estimate=None,
               angle=None, kernel_norm=None, what: str = "") -> None:
        """One successful report of a distance (and maybe its angle and norm)."""
        ref = self.distance_ref(mode, c, delay)
        label = f"{what}{mode} c={c!r} delay={delay!r}"
        err = self._value(f"{label} distance", distance, ref)
        self.rel_err_max = max(self.rel_err_max, err)
        if error_estimate is not None and abs(distance - float(ref)) > error_estimate + 4 * EPS * distance:
            self.violations[mode] += 1
        norm = self._norm_ref(mode, c)
        if kernel_norm is not None:
            self._value(f"{label} kernel_norm", kernel_norm, norm)
        if angle is not None:
            self._value(f"{label} angle", angle, reference.angle(ref, norm))

    def angle(self, mode: str, c: float, delay, value: float, what: str = "") -> None:
        ref = reference.angle(self.distance_ref(mode, c, delay), self._norm_ref(mode, c))
        self._value(f"{what}{mode} c={c!r} delay={delay!r} angle", value, ref)

    def coefficients(self, a: float, b: float, first_k: int, step: int, values, what: str) -> None:
        """values[i] should be c_{first_k + step * i} of the band [a, b]."""
        worst = 0.0
        for i, (re, im) in enumerate(values):
            worst = max(worst, abs(complex(re, im) - self._coef(a, b, first_k + step * i)))
        if not worst <= COEF_ATOL:
            self.errors.append(f"{what}: coefficient off by {worst:.2e}")

    def taps(self, a: float, b: float, window: int, N: int, rows, what: str) -> None:
        """Impulse rows (n, re, im) for n in [-window, window], zero below -N."""
        worst = 0.0
        for n, re, im in rows:
            want = 0j if n < -N else self._coef(a, b, -n)
            worst = max(worst, abs(complex(re, im) - want))
        if not worst <= COEF_ATOL:
            self.errors.append(f"{what}: tap off by {worst:.2e}")


# ---------------------------------------------------------------- in-process


def in_process(chk: Checker, case: dict, out: dict) -> str | None:
    """Check one in-process output; return why the op failed, or None."""
    if "raised" in out:
        return out["raised"]
    op = case["op"]
    if op in ("analog_report", "digital_report"):
        mode = op.split("_")[0]
        a, b = case["band"]
        if not out["converged"]:
            return "converged: false"
        chk.report(mode, b - a, case["delay"], out["distance"], out["error_estimate"],
                   out["angle"], out["kernel_norm"])
        return None
    if op == "limit_probe":
        return _probe(chk, case, out)
    if op == "verify":
        failed = [f"{s}.{n}" for s, n, ok, _ in out["results"] if not ok]
        if not out["results"]:
            return "no checks ran"
        return f"FAIL {', '.join(failed)}" if failed else None
    raise ValueError(f"unknown op {op!r}")


def _probe(chk: Checker, case: dict, out: dict) -> str | None:
    rows = out["rows"]
    if [p for p, _ in rows] != [float(x) for x in case["ladder"]]:
        chk.errors.append(f"limit_probe rows do not follow the ladder: {case}")
        return "wrong ladder"
    c = case["band"][2] - case["band"][1]
    what = f"limit_probe {case['quantity']}: "
    for p, v in rows:
        if case["quantity"] == "dT_vs_T":
            chk.report("analog", c, p, v, what=what)
        else:  # thetaN_vs_N
            chk.angle("digital", c, int(p), v, what=what)
    return None


def captured(chk: Checker, rows) -> None:
    """Distances verify's checks computed, as (function, mode, c, delay, d, err, converged)."""
    for fn, mode, c, delay, distance, err, converged in rows:
        if converged:
            chk.report(mode, c, delay, distance, err, what=f"verify {fn}: ")


# ---------------------------------------------------------------- cli


def cli(chk: Checker, case: dict, out: dict) -> str | None:
    """Check one CLI call: exit code, then every field or row it printed."""
    if "raised" in out:
        return out["raised"]
    if out["code"] != 0:
        return f"exit {out['code']}: {out.get('stderr', '').strip()[-200:]}"
    expect = case["expect"]
    kind = next(iter(expect))
    try:
        if kind == "report":
            return _cli_report(chk, expect["report"], out["stdout"])
        if kind == "coeffs":
            a, b, K = expect["coeffs"]
            rows = _csv(out["stdout"], "k,re,im", 2 * K + 1)
            if [int(r[0]) for r in rows] != list(range(-K, K + 1)):
                raise ValueError("coefficient indices out of order")
            chk.coefficients(a, b, -K, 1, [(float(r[1]), float(r[2])) for r in rows], "digital --coeffs")
            return None
        if kind == "sweep":
            return _cli_sweep(chk, expect["sweep"], out["stdout"])
        if kind == "impulse":
            a, b, K, N = expect["impulse"]
            rows = _csv(out["stdout"], "index_or_time,re,im", 2 * K + 1)
            taps = [(int(r[0]), float(r[1]), float(r[2])) for r in rows]
            if [t[0] for t in taps] != list(range(-K, K + 1)):
                raise ValueError("impulse indices out of order")
            chk.taps(a, b, K, N, taps, "impulse --mode digital")
            return None
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        chk.errors.append(f"{' '.join(case['argv'])}: output does not parse: {exc}")
        return f"unparseable output: {exc}"
    raise ValueError(f"unknown expectation {kind!r}")


def _csv(text: str, header: str, rows: int) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header is not {header!r}")
    body = [line.split(",") for line in lines[1:]]
    if len(body) != rows or any(len(r) != len(body[0]) for r in body):
        raise ValueError(f"expected {rows} rows")
    return body


def _cli_report(chk: Checker, expect: list, text: str) -> str | None:
    mode, a, b, delay = expect
    data = json.loads(text)
    if tuple(data) != REPORT_KEYS:
        raise ValueError("report keys differ")
    if data["mode"] != mode or data["band"] != {"a": a, "b": b}:
        raise ValueError("report echoes the wrong band")
    if not data["converged"]:
        return "converged: false"
    chk.report(mode, b - a, delay, data["distance"], data["error_estimate"], data["angle"],
               data["kernel_norm"], what="cli ")
    return None


def _cli_sweep(chk: Checker, expect: list, text: str) -> str | None:
    mode, _, lo, hi, steps, fixed = expect
    rows = _csv(text, "param,distance,angle,kernel_norm,method,error_estimate", steps)
    for i, row in enumerate(rows):
        p, distance, angle, norm = (float(x) for x in row[:4])
        err = float(row[5])
        want = lo + (hi - lo) * i / (steps - 1)
        if not math.isclose(p, want, rel_tol=1e-12, abs_tol=1e-12):
            raise ValueError(f"row {i} has parameter {p!r}, expected {want!r}")
        if mode == "digital":
            # bandwidth sweep at fixed look-ahead, band centred on pi
            chk.report("digital", p, fixed, distance, err, angle, norm, what="cli sweep ")
        else:
            a, b = fixed
            chk.report("analog", b - a, p, distance, err, angle, norm, what="cli sweep ")
    return None
