"""Span recorder for the traced run, installed from outside the program.

Each wrapped causalgap function records one span: name, start, end, parent
and the op it belongs to.  Spans live in flat arrays while the run goes and
are written out when it ends.  Wrappers replace module attributes, and the
same function object is replaced in every loaded causalgap module, so calls
that cross a module boundary (cli -> analog, analog -> kernel,
verify -> oracle, ...) and calls through a module's own globals both land
in a span.  A target that does not exist at the commit under test is
listed as absent and skipped.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from array import array


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _oracle_samples(args, kwargs, result) -> int:
    radius = _arg(args, kwargs, 2, "grid_radius")
    T = _arg(args, kwargs, 1, "delay").T
    return int(round((radius - T) / _arg(args, kwargs, 3, "dt")))


#: (module, attribute, counter, count) for every wrapped function.  count
#: turns a call's arguments and result into work done; partial_sum_terms,
#: the oracle samples and the oracle terms are computed from the arguments,
#: not measured inside the program.
TARGETS = (
    ("kernel", "integrate_adaptive", "kernel.integrate_adaptive.subdivisions",
     lambda args, kwargs, result: result.subdivisions),
    ("kernel", "sine_integral", None, None),
    ("kernel", "coefficient_tail_sum", "kernel.coefficient_tail_sum.terms",
     lambda args, kwargs, result: result.terms_used),
    ("analog", "causal_report", None, None),
    ("analog", "delayed_report", None, None),
    ("analog", "delayed_distance_si", None, None),
    ("analog", "truncation_energy_si", None, None),
    ("analog", "truncation_energy_quadrature", None, None),
    ("analog", "impulse_response", None, None),
    ("digital", "causal_report_digital", None, None),
    ("digital", "delayed_report_digital", "digital.partial_sum_terms",
     lambda args, kwargs, result: _arg(args, kwargs, 1, "delay").N),
    ("digital", "FourierCoefficientTable.build", None, None),
    ("digital", "best_causal_coefficients", None, None),
    ("oracle", "analog_distance_oracle", "oracle.analog_distance_oracle.samples", _oracle_samples),
    ("oracle", "digital_distance_oracle", "oracle.digital_distance_oracle.terms",
     lambda args, kwargs, result: _arg(args, kwargs, 2, "max_index") - _arg(args, kwargs, 1, "delay").N),
    ("oracle", "limit_probe", None, None),
    ("operators", "operator_norm_estimate", None, None),
    ("operators", "convolve_digital", None, None),
    ("operators", "matched_input", None, None),
    ("operators", "truncate_to_delay", None, None),
    ("operators", "truncate_to_delay_analog", None, None),
    ("verify", "run_checks", None, None),
    ("cli", "main", None, None),
)


class Recorder:
    """Spans in flat arrays, plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.counters: dict[str, int] = {}
        self.current_op = -1
        self._stack: list[int] = []

    def _name(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name_id.append(self._name(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int, rename: str | None = None) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()
        if rename is not None:
            self.name_id[i] = self._name(rename)

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self time, median inclusive time.

        Self time is the span's duration minus the time its child spans
        cover; one thread runs the spans, so children never overlap.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        per: dict[str, dict] = {}
        durations: dict[str, list[int]] = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            row = per.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["total_ns"] += dur[i]
            row["self_ns"] += dur[i] - child[i]
            durations.setdefault(name, []).append(dur[i])
        for name, row in per.items():
            row["median_ns"] = statistics.median(durations[name])
        return per

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tname\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.op[i]}\t{self.names[self.name_id[i]]}\t{self.start[i]}\t"
                    f"{self.end[i]}\t{self.parent[i]}\n"
                )


def _wrap(rec: Recorder, name: str, fn, counter: str | None, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if counter is not None:
            rec.add(counter, count(args, kwargs, result))
        return result

    return traced


def _wrap_check(rec: Recorder, fn):
    """A verify check's span is named after the suite and check it reports."""

    @functools.wraps(fn)
    def traced(seed):
        i = rec.open("verify.check")
        res = None
        try:
            res = fn(seed)
        finally:
            rec.close(i, None if res is None else f"verify.{res.suite}.{res.name}")
        return res

    return traced


def replace_everywhere(old, new) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "causalgap" or mod_name.startswith("causalgap.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


def install(rec: Recorder) -> list[str]:
    """Wrap every target that exists; return the names that do not."""
    absent = []
    for module, attr, counter, count in TARGETS:
        name = f"{module}.{attr}"
        try:
            mod = importlib.import_module(f"causalgap.{module}")
        except ImportError:
            absent.append(name)
            continue
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None or not hasattr(owner, leaf):
            absent.append(name)
            continue
        if isinstance(owner, type):
            # a classmethod: wrap the function, keep the binding
            raw = vars(owner)[leaf]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = _wrap(rec, name, fn, counter, count)
            setattr(owner, leaf, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
            continue
        old = getattr(owner, leaf)
        replace_everywhere(old, _wrap(rec, name, old, counter, count))
    try:
        verify = importlib.import_module("causalgap.verify")
        suites = verify.SUITES
    except (ImportError, AttributeError):
        absent.append("verify.SUITES")
    else:
        verify.SUITES = {k: tuple(_wrap_check(rec, chk) for chk in v) for k, v in suites.items()}
    return absent
