"""Command-line surface: reports, sweeps, impulse tables, and self-checks.

Each report and sweep row is the delayed report of its band at its
look-ahead; an omitted look-ahead is 0, whose report is the causal one.
A sweep builds every row's band and delay before its first report, so a
row they refuse costs no report.
The bands and delays state the rules on their inputs (BandpassInterval
the edges, AnalogDelay --delay, DigitalDelay --delay-samples, whose bound
keeps the tail sums exact for library callers too); the CLI builds them
and reports their message.

Exit codes: 0 success, 1 failed verification check, 2 invalid band or
parameters (what a band, a delay or an analog impulse grid refuses, with
its message, or a rule of the CLI's own: at most _MAX_ROWS rows in a table
or sweep, and no sweep, impulse or --coeffs option that does not apply),
4 unwritable output (an --out path that cannot be opened, or a stdout
whose reader has closed it).  Code 3 is not used.  An option value may be
a negative number with an exponent or an infinity, such as --a -1e-3 or
--range -inf 1.

Only `verify` and the analog impulse response load numpy.  The digital
coefficient tables and impulse responses are built one coefficient at a
time by the formula best_causal_coefficients evaluates with numpy, so they
print the same bits as its taps.

All numeric output uses 17 significant digits so every value parses back
to the exact in-memory double.  Output is deterministic for a given
argument list and seed; the CAUSALGAP_SEED environment variable supplies
the default seed for `verify`.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import re
import sys

from . import analog, digital
from .errors import DomainError
from .kernel import BandpassInterval
from .operators import _analog_cut
from .signals import AnalogDelay, DigitalDelay

__all__ = ["main"]

#: most rows a table or sweep may print, checked before anything is allocated
_MAX_ROWS = 10**6

#: a negative float literal: argparse's own pattern has no exponent and no
#: infinity, so it took -1e-3 or -inf for an option name
_NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
)

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}


def _num(x: float) -> str:
    return format(float(x), ".17g")


def _scalar(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return _num(x)
    if isinstance(x, str):
        return '"' + "".join(_ESCAPES.get(ch, ch) for ch in x) + '"'
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _json_dumps(obj, level: int = 0) -> str:
    """Minimal JSON writer with .17g floats (so round-trips are idempotent).

    A report is an object whose values are scalars or nonempty objects.
    """
    if not isinstance(obj, dict):
        return _scalar(obj)
    inner = "  " * (level + 1)
    rows = [f'{inner}"{k}": {_json_dumps(v, level + 1)}' for k, v in obj.items()]
    return "{\n" + ",\n".join(rows) + "\n" + "  " * level + "}"


class _Fail(Exception):
    """Ends a command: main prints the message to stderr and returns the code."""

    def __init__(self, message: str, code: int = 2) -> None:
        super().__init__(message)
        self.code = code


def _valid(make, *args):
    """make(*args); the ValueError by which it refuses an input exits 2 with its message."""
    try:
        return make(*args)
    except ValueError as exc:
        raise _Fail(str(exc)) from None


def _emit(texts, path: str | None) -> None:
    """Write each string of texts, as it comes, to stdout or to the file at path."""
    if path is None:
        sys.stdout.writelines(texts)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(texts)
    except OSError as exc:
        raise _Fail(f"cannot write {path!r}: {exc}", 4) from None


def _csv(header: str, labels, values):
    """The header, then one label,re,im row per label and complex value, in
    strings of 4096 rows: a table is never held whole."""
    # one f-string per row: at the 10**6-row cap the float formatting is
    # nearly all of the command's time
    rows = (f"{x},{v.real:.17g},{v.imag:.17g}\n" for x, v in zip(labels, values))
    yield header + "\n"
    while block := "".join(itertools.islice(rows, 4096)):
        yield block


def _print_report(band: BandpassInterval, rep, fmt: str) -> None:
    data = {
        "schema": 1,
        "mode": band.mode,
        "band": {"a": band.a, "b": band.b},
        "subspace": rep.subspace,
        "delay": rep.delay,
        "kernel_norm": rep.kernel_norm,
        "distance": rep.distance,
        "angle": rep.angle,
        "angle_degrees": rep.angle_degrees,
        "method": rep.method,
        "error_estimate": rep.error_estimate,
        "converged": rep.converged,
    }
    if fmt == "json":
        print(_json_dumps(data))
        return
    data["band"] = f"[{_num(band.a)}, {_num(band.b)}]"
    for key, value in data.items():
        if value is None:
            text = "none"
        elif isinstance(value, str):
            text = value
        else:
            text = _scalar(value)
        print(f"{key:15} {text}")


def _delay(mode: str, look_ahead):
    """AnalogDelay(T) or DigitalDelay(N) by mode; None is 0, the causal look-ahead."""
    if mode == "analog":
        return _valid(AnalogDelay, look_ahead or 0.0)
    return _valid(DigitalDelay, look_ahead or 0)


def _report(band: BandpassInterval, delay):
    """The report of band at delay, an AnalogDelay or DigitalDelay of its mode."""
    if band.mode == "analog":
        return analog.delayed_report(band, delay)
    return digital.delayed_report_digital(band, delay)


def cmd_report(args) -> int:
    mode = args.command
    band = _valid(BandpassInterval, args.a, args.b, mode)
    if getattr(args, "coeffs", None) is not None:
        _reject_unused(args, ("delay_samples", "format"), "coefficient tables")
        if not 0 <= args.coeffs < _MAX_ROWS // 2:
            raise _Fail(f"coefficient window must lie in [0, {_MAX_ROWS // 2})")
        ks = range(-args.coeffs, args.coeffs + 1)
        _emit(_csv("k,re,im", ks, digital._coefficients(band, ks)), None)
        return 0
    look_ahead = args.delay if mode == "analog" else args.delay_samples
    _print_report(band, _report(band, _delay(mode, look_ahead)), args.format or "json")
    return 0


def _reject_unused(args, names: tuple[str, ...], where: str) -> None:
    """Exit 2 naming the first given option of names, which where would ignore."""
    for name in names:
        if getattr(args, name) is not None:
            raise _Fail(f"--{name.replace('_', '-')} does not apply to {where}")


def _linspace(lo: float, hi: float, steps: int) -> list[float]:
    """numpy.linspace(lo, hi, steps) by its own formula, point for point."""
    div = steps - 1
    delta = hi - lo
    step = delta / div
    if step == 0.0:
        points = [lo + i / div * delta for i in range(steps)]
    else:
        points = [lo + i * step for i in range(steps)]
    points[-1] = hi
    return points


def cmd_sweep(args) -> int:
    mode, vary = args.mode, args.vary
    if vary == "delay":
        unused = ("delay", "delay_samples")
    else:
        unused = ("a", "b", "delay_samples" if mode == "analog" else "delay")
    _reject_unused(args, unused, f"{mode} {vary} sweeps")
    lo, hi = args.range
    if not (lo < hi and math.isfinite(hi - lo)):
        raise _Fail("range must satisfy LO < HI with a finite HI - LO")
    if not 2 <= args.steps <= _MAX_ROWS:
        raise _Fail(f"need between 2 and {_MAX_ROWS} steps")
    if vary == "delay":
        if args.a is None or args.b is None:
            raise _Fail("delay sweep needs --a and --b")
        band = _valid(BandpassInterval, args.a, args.b, mode)
    else:
        delay = _delay(mode, args.delay if mode == "analog" else args.delay_samples)

    def row(p):
        """The band and delay of the row at p; exit 2 if either is refused."""
        if vary == "bandwidth" and mode == "analog":
            return _valid(BandpassInterval.analog, 0.0, p), delay
        if vary == "bandwidth":
            return _valid(digital._band_of_width, p), delay
        if mode == "analog":
            return band, _delay(mode, p)
        if abs(p - round(p)) > 1e-9:  # the grid may carry rounding off an integer N
            raise _Fail("digital delay sweep values must lie within 1e-9 of an integer")
        return band, _delay(mode, round(p))

    points = _linspace(lo, hi, args.steps)
    for p in points:  # refuse a bad row before any report runs; keep none
        row(p)
    lines = ["param,distance,angle,kernel_norm,method,error_estimate"]
    for p in points:
        rep = _report(*row(p))
        lines.append(
            f"{_num(p)},{_num(rep.distance)},{_num(rep.angle)},"
            f"{_num(rep.kernel_norm)},{rep.method},{_num(rep.error_estimate)}"
        )
    _emit(("\n".join(lines) + "\n",), args.out)
    return 0


def cmd_impulse(args) -> int:
    mode = args.mode
    unused = ("window", "delay_samples") if mode == "analog" else ("t_max", "dt", "delay")
    _reject_unused(args, unused, f"{mode} impulse responses")
    band = _valid(BandpassInterval, args.a, args.b, mode)
    look_ahead = args.delay if mode == "analog" else args.delay_samples
    delay = None if look_ahead is None else _delay(mode, look_ahead)
    if mode == "analog":
        if args.t_max is None or args.dt is None:
            raise _Fail("analog impulse needs --t-max and --dt")
        if not (0.0 < args.t_max < math.inf and 0.0 < args.dt < math.inf):
            raise _Fail("need finite --t-max > 0 and --dt > 0")
        steps = 2.0 * args.t_max / args.dt
        if not steps < _MAX_ROWS:
            raise _Fail(f"2 * t-max / dt must stay below {_MAX_ROWS}")
        n = int(round(steps)) + 1
        sig = _valid(analog._sample, band, -args.t_max, args.dt, n)
        # the samples before -T print as the zeros truncate_to_delay_analog
        # writes there, without a truncated copy of the rest
        cut = 0 if delay is None else _analog_cut(sig, delay)
        kept = map(complex, sig.values[cut:])  # Python complex formats faster than numpy's
        values = itertools.chain(itertools.repeat(0j, cut), kept)
        times = (sig.t0 + sig.dt * j for j in range(len(sig)))  # the grid's own times, unbuilt
        table = _csv("index_or_time,re,im", map(_num, times), values)
    else:
        if args.window is None or not 1 <= args.window < _MAX_ROWS // 2:
            raise _Fail(f"digital impulse needs --window in [1, {_MAX_ROWS // 2})")
        K = args.window
        # h[n] = c_{-n} for n = -K..K, zeroed below -N, which N taps of
        # look-ahead cannot reach; without --delay-samples nothing is zeroed
        N = K if delay is None else min(delay.N, K)
        kept = digital._coefficients(band, range(N, -K - 1, -1))
        taps = itertools.chain(itertools.repeat(0j, K - N), kept)
        table = _csv("index_or_time,re,im", range(-K, K + 1), taps)
    _emit(table, args.out)
    return 0


def cmd_verify(args) -> int:
    from . import verify

    seed = args.seed
    if seed is None:
        try:
            seed = int(os.environ.get("CAUSALGAP_SEED", "0"))
        except ValueError:
            raise _Fail("CAUSALGAP_SEED must be an integer") from None
    try:
        results = verify.run_checks(args.suite, seed)
    except DomainError as exc:
        raise _Fail(str(exc)) from None
    failed = 0
    for res in results:
        mark = "PASS" if res.passed else "FAIL"
        failed += 0 if res.passed else 1
        print(f"{mark} {res.suite}.{res.name}: {res.detail}")
    total = len(results)
    print(f"{total - failed}/{total} checks passed (suite {args.suite}, seed {seed})")
    return 0 if failed == 0 else 1


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads every negative float literal as a value.

    Subparsers are built with the parent's class, so they inherit this too.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="causalgap",
        description=(
            "Distances and angles between ideal bandpass filters and the "
            "causal or delay-limited filters that can be physically realized."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analog", help="report for an analog band")
    pa.add_argument("--a", type=float, required=True, help="lower band edge")
    pa.add_argument("--b", type=float, required=True, help="upper band edge")
    pa.add_argument("--delay", type=float, default=None, help="look-ahead T (causal if omitted)")
    pa.add_argument("--format", choices=("json", "text"), default="json")
    pa.set_defaults(func=cmd_report)

    pd = sub.add_parser("digital", help="report for a digital band in (0, 2*pi)")
    pd.add_argument("--a", type=float, required=True)
    pd.add_argument("--b", type=float, required=True)
    pd.add_argument("--delay-samples", type=int, default=None, help="look-ahead N (causal if omitted)")
    pd.add_argument("--coeffs", type=int, default=None, metavar="K", help="emit c_-K..c_K as CSV instead of a report")
    pd.add_argument("--format", choices=("json", "text"), default=None, help="json if omitted")
    pd.set_defaults(func=cmd_report)

    ps = sub.add_parser("sweep", help="CSV of reports along a parameter range")
    ps.add_argument("--mode", choices=("analog", "digital"), required=True)
    ps.add_argument("--vary", choices=("bandwidth", "delay"), required=True)
    ps.add_argument("--range", type=float, nargs=2, metavar=("LO", "HI"), required=True)
    ps.add_argument("--steps", type=int, required=True)
    ps.add_argument("--a", type=float, default=None, help="fixed band edge for delay sweeps")
    ps.add_argument("--b", type=float, default=None)
    ps.add_argument("--delay", type=float, default=None, help="fixed analog look-ahead for bandwidth sweeps")
    ps.add_argument("--delay-samples", type=int, default=None, help="fixed digital look-ahead for bandwidth sweeps")
    ps.add_argument("--out", default=None, help="output path (stdout if omitted)")
    ps.set_defaults(func=cmd_sweep)

    pi = sub.add_parser("impulse", help="CSV of ideal impulse-response samples")
    pi.add_argument("--mode", choices=("analog", "digital"), required=True)
    pi.add_argument("--a", type=float, required=True)
    pi.add_argument("--b", type=float, required=True)
    pi.add_argument("--t-max", type=float, default=None, help="analog grid half-width")
    pi.add_argument("--dt", type=float, default=None, help="analog grid step")
    pi.add_argument("--window", type=int, default=None, help="digital index window half-width")
    pi.add_argument("--delay", type=float, default=None, help="truncate below -T")
    pi.add_argument("--delay-samples", type=int, default=None, help="truncate below -N")
    pi.add_argument("--out", default=None)
    pi.set_defaults(func=cmd_impulse)

    pv = sub.add_parser("verify", help="run self-check suites")
    pv.add_argument("--suite", choices=("all", "analog", "digital", "operators"), default="all")
    pv.add_argument("--seed", type=int, default=None, help="defaults to CAUSALGAP_SEED or 0")
    pv.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except _Fail as exc:
        print(f"causalgap: error: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes nowhere at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 4
    return code


if __name__ == "__main__":
    raise SystemExit(main())
