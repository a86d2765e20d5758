"""Benchmark worker: one workload in a fresh single-threaded interpreter.

run.py starts it as

    python3 bench/worker.py <mode> <workload> <seed> <seconds>

with PYTHONPATH pointing at the checkout's src/ and BLAS/OpenMP limited to
one thread.  Mode "setup" imports causalgap, runs the warm-up op and prints
"ready"; run.py times that from process start.  Mode "run" then times the
workload's schedule, one op after another.  Mode "trace" times half the
schedule untraced and the same ops again with spans installed.  The last
line of stdout is one JSON object with latencies, outputs per case and,
when traced, the span summary.
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _report(rep) -> dict:
    return {
        "distance": rep.distance,
        "angle": rep.angle,
        "kernel_norm": rep.kernel_norm,
        "error_estimate": rep.error_estimate,
        "converged": rep.converged,
        "subspace": rep.subspace,
        "method": rep.method,
    }


def _in_process_op(cg, case: dict):
    """(call, summarize[, same]) for one in-process case.

    Only call is timed.  Later passes compare their result with the first
    one through same (== by default), which allocates next to nothing, so
    the harness adds little garbage-collector work to the timed ops.
    """
    op = case["op"]
    if op == "verify":
        seed = case["seed"]
        return (
            lambda: cg.verify.run_checks("all", seed),
            lambda res: {"results": [[r.suite, r.name, bool(r.passed), r.detail] for r in res]},
        )
    if op == "limit_probe":
        mode, a, b = case["band"]
        band = cg.kernel.BandpassInterval(a, b, mode)
        ladder = tuple(case["ladder"])
        quantity = case["quantity"]
        return (
            lambda: cg.oracle.limit_probe(quantity, ladder, band=band),
            lambda res: {"rows": [[float(p), float(v)] for p, v in res.rows]},
        )
    a, b = case["band"]
    if op == "analog_report":
        band = cg.kernel.BandpassInterval.analog(a, b)
        if case["delay"] is None:
            return lambda: cg.analog.causal_report(band), _report
        delay = cg.signals.AnalogDelay(case["delay"])
        return lambda: cg.analog.delayed_report(band, delay), _report
    if op == "digital_report":
        band = cg.kernel.BandpassInterval.digital(a, b)
        if case["delay"] is None:
            return lambda: cg.digital.causal_report_digital(band), _report
        delay = cg.signals.DigitalDelay(case["delay"])
        return lambda: cg.digital.delayed_report_digital(band, delay), _report
    raise ValueError(f"unknown op {op!r}")


def _subprocess_op(case: dict):
    import subprocess

    cmd = [sys.executable, "-m", "causalgap", *case["argv"]]
    return (
        lambda: subprocess.run(cmd, capture_output=True, text=True, check=False),
        lambda p: {"code": p.returncode, "stdout": p.stdout, "stderr": p.stderr[-400:]},
        lambda p, q: (p.returncode, p.stdout) == (q.returncode, q.stdout),
    )


def _in_process_cli_op(cg, case: dict):
    import contextlib
    import io

    argv = list(case["argv"])

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cg.cli.main(argv)
        return code, buf.getvalue()

    return call, lambda res: {"code": res[0], "stdout": res[1]}


class Capture:
    """Records every distance verify's checks compute, keyed by route and input.

    verify prints only PASS/FAIL, so this is where its distances are read
    for rel_err_max; one function giving two values for the same input is
    a determinism failure.
    """

    def __init__(self) -> None:
        self.rows: dict[tuple, list] = {}
        self.mismatch: list[list] = []

    def _keep(self, key: tuple, value: list) -> None:
        old = self.rows.setdefault(key, value)
        if old != value:
            self.mismatch.append([*key, *value])

    def install(self, cg) -> None:
        from spans import replace_everywhere

        def report_hook(mode, fn, delay_of):
            def hooked(band, *args, **kwargs):
                rep = fn(band, *args, **kwargs)
                key = (fn.__name__, mode, band.bandwidth, delay_of(args, kwargs))
                self._keep(key, [rep.distance, rep.error_estimate, rep.converged])
                return rep

            return hooked

        def distance_hook(fn):
            def hooked(band, delay):
                d = fn(band, delay)
                self._keep((fn.__name__, "analog", band.bandwidth, delay.T), [d, None, True])
                return d

            return hooked

        first_t = lambda args, kwargs: (args[0] if args else kwargs["delay"]).T  # noqa: E731
        first_n = lambda args, kwargs: (args[0] if args else kwargs["delay"]).N  # noqa: E731
        causal = lambda args, kwargs: None  # noqa: E731
        hooks = (
            (cg.analog.causal_report, report_hook("analog", cg.analog.causal_report, causal)),
            (cg.analog.delayed_report, report_hook("analog", cg.analog.delayed_report, first_t)),
            (cg.analog.delayed_distance_si, distance_hook(cg.analog.delayed_distance_si)),
            (cg.digital.causal_report_digital, report_hook("digital", cg.digital.causal_report_digital, causal)),
            (cg.digital.delayed_report_digital,
             report_hook("digital", cg.digital.delayed_report_digital, first_n)),
        )
        for old, new in hooks:
            replace_everywhere(old, new)

    def rows_list(self) -> list:
        return [[*key, *value] for key, value in self.rows.items()]


class _Raised(str):
    """The text of an exception an op raised, kept as its result."""


def _run_ops(ops, order, rec=None, op_base=0, budget_s=None):
    """Time each op of the schedule; summarize the first result of each case.

    With budget_s, ops stop once that much wall time has gone, so a host
    that runs much slower than usual cannot stretch a run without bound.
    """
    import gc
    import operator

    latency = []
    first: dict[int, object] = {}
    mismatch: set[int] = set()
    perf = time.perf_counter_ns
    gc.collect()
    t0 = perf()
    deadline = None if budget_s is None else t0 + int(budget_s * 1e9)
    for j, case_id in enumerate(order):
        if deadline is not None and perf() > deadline:
            break
        call = ops[case_id][0]
        span = None
        if rec is not None:
            rec.current_op = op_base + j
            span = rec.open("bench.op")
        start = perf()
        try:
            result = call()
        except Exception as exc:  # a raising op is a failed op, not a crash
            result = _Raised(f"{type(exc).__name__}: {exc}")
        elapsed = perf() - start
        if span is not None:
            rec.close(span)
        latency.append(elapsed)
        if case_id not in first:
            first[case_id] = result
        else:
            prev = first[case_id]
            if isinstance(prev, _Raised) or isinstance(result, _Raised):
                same = prev == result
            else:
                same = (ops[case_id][2] if len(ops[case_id]) > 2 else operator.eq)(prev, result)
            if not same:
                mismatch.add(case_id)
    wall = (perf() - t0) / 1e9
    outputs = {
        case_id: {"raised": str(res)} if isinstance(res, _Raised) else ops[case_id][1](res)
        for case_id, res in first.items()
    }
    return latency, wall, outputs, sorted(mismatch)


def main() -> int:
    mode, workload, seed, seconds = sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])
    import causalgap as cg

    if workload == "verify":
        import causalgap.verify  # noqa: F401  (the package does not import it)
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(cg.__file__).startswith(src + os.sep):
        print(f"causalgap imported from {cg.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    cases = workloads.pool(workload, seed, seconds)
    capture = None
    if workload == "verify" and mode != "setup":
        capture = Capture()
        capture.install(cg)
    if workload == "cli":
        ops = [_subprocess_op(case) for case in cases]
    else:
        ops = [_in_process_op(cg, case) for case in cases]
        ops[0][0]()  # warm-up op
    if mode == "setup":
        print("ready", flush=True)
        return 0

    import json
    import resource

    order = workloads.schedule(workload, seed, seconds, traced=(mode == "trace"))
    budget = 0.75 * seconds if mode == "trace" else 1.3 * seconds
    latency, wall, outputs, mismatch = _run_ops(ops, order, budget_s=budget)
    order = order[: len(latency)]
    result = {
        "latency_ns": latency,
        "wall_s": wall,
        "outputs": {str(k): v for k, v in outputs.items()},
        "mismatch": mismatch,
        # the CLI's own processes for cli, this interpreter otherwise
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
        ).ru_maxrss / 1024.0,
    }
    if mode == "trace":
        result["trace"] = _trace(cg, workload, cases, ops, order, wall)
    if capture is not None:
        result["captured"] = capture.rows_list()
        result["capture_mismatch"] = capture.mismatch
    print(json.dumps(result))
    return 0


def _trace(cg, workload, cases, ops, order, untraced_wall) -> dict:
    """Untraced and traced timings of the same ops, plus the span summary.

    For cli the untraced half has already run the subprocess calls; the
    same argv lists then go through cli.main in this process, which gives
    the per-subcommand compute time and, by difference, start-up cost.
    """
    import spans

    inproc_latency = inproc_outputs = inproc_mismatch = None
    if workload == "cli":
        import causalgap.cli  # noqa: F401

        cli_ops = [_in_process_cli_op(cg, case) for case in cases]
        cli_ops[0][0]()  # warm-up op
        inproc_latency, inproc_wall, inproc_outputs, inproc_mismatch = _run_ops(cli_ops, order)
        untraced_wall += inproc_wall
    rec = spans.Recorder()
    absent = spans.install(rec)
    if workload == "cli":
        traced_ops = [(_span_call(rec, "cli.subprocess", op[0]), *op[1:]) for op in ops]
        traced_wall = _run_ops(traced_ops, order, rec)[1]
        traced_wall += _run_ops(cli_ops, order, rec, op_base=len(order))[1]
    else:
        traced_wall = _run_ops(ops, order, rec)[1]
    out_dir = os.path.join(ROOT, ".bench_build", "bench")
    os.makedirs(out_dir, exist_ok=True)
    rec.write(os.path.join(out_dir, f"spans-{workload}.tsv"))
    summary = rec.summary()
    span_total = sum(rec.end[i] - rec.start[i] for i in range(len(rec.start)) if rec.parent[i] < 0)
    return {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "outside_spans_s": traced_wall - span_total / 1e9,
        "spans": summary,
        "counters": rec.counters,
        "span_count": len(rec.start),
        "absent": absent,
        "inproc_latency_ns": inproc_latency,
        "inproc_outputs": None if inproc_outputs is None else {str(k): v for k, v in inproc_outputs.items()},
        "inproc_mismatch": inproc_mismatch,
    }


def _span_call(rec, name, call):
    def traced():
        i = rec.open(name)
        try:
            return call()
        finally:
            rec.close(i)

    return traced


if __name__ == "__main__":
    sys.exit(main())
