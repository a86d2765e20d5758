"""causalgap benchmark: one workload per run, checked against mpmath.

    python3 bench/run.py --workload cli --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports causalgap from src/.  Each
workload runs in a fresh single-threaded interpreter (bench/worker.py) as
one closed-loop client: the next op starts when the previous one returns.
--seed draws the inputs (bench/workloads.py); --seconds sets how many
passes over the workload's pool a run makes.  With --trace 0 the run
reports the end-to-end metrics of BENCHMARK.json; with --trace 1 it runs
half the passes untraced, the same ops again with a span around every
causalgap function (bench/spans.py), and reports the per-layer metrics.
Every output is checked against the 40-digit reference (bench/reference.py)
after the timed part ends.  The last line of stdout is one JSON object:
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402

#: fresh interpreters timed for setup_s; the median is reported
SETUP_PROBES = 5
#: fresh interpreters per import probe in a traced run
IMPORT_PROBES = 3
#: a worker that runs longer than this is killed and the run fails
WORKER_TIMEOUT_S = 170.0
LAYERS = ("cli", "kernel", "analog", "digital", "oracle", "operators", "verify")


def _env() -> dict:
    """One thread for BLAS/OpenMP, causalgap from this checkout's src/."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(mode: str, workload: str, seed: int, seconds: float) -> list[str]:
    return [sys.executable, os.path.join(HERE, "worker.py"), mode, workload, str(seed), repr(seconds)]


def _setup_once(workload: str, seed: int, seconds: float) -> float:
    """Seconds from process start to import + one warm-up op (cli: one whole call).

    The pool's first case is the warm-up op.  Waits block instead of
    polling, since a timed wait would round the result up to its 50 ms poll.
    """
    if workload == "cli":
        cmd = [sys.executable, "-m", "causalgap", *workloads.pool(workload, seed, seconds)[0]["argv"]]
    else:
        cmd = _worker("setup", workload, seed, seconds)
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, env=_env(), stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(60.0, proc.kill)  # a hung probe fails the run
        watchdog.start()
        try:
            if workload == "cli":
                proc.stdout.read()
                ready = proc.wait() == 0
            else:
                ready = proc.stdout.readline().strip() == "ready"
            elapsed = time.perf_counter() - t0
            proc.wait()
        finally:
            watchdog.cancel()
    if not ready or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} failed")
    return elapsed


def _run_worker(mode: str, workload: str, seed: int, seconds: float) -> dict:
    # its own process group, so a timeout also kills the CLI calls it started
    with subprocess.Popen(_worker(mode, workload, seed, seconds), env=_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):  # the group may be gone already
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}: {stderr[-2000:]}")
    return json.loads(stdout.splitlines()[-1])


def _import_probe(module: str) -> float:
    """Milliseconds `import <module>` takes in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True,
                             check=True, timeout=60)
        times.append(float(out.stdout) * 1e3)
    return statistics.median(times)


def _tail(lat_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(lat_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _latency_metrics(lat_ms: list[float]) -> tuple[dict, str]:
    """ops_per_s, op_ms_p50 and op_ms_tail over the whole timed run."""
    value, pct = _tail(lat_ms)
    metrics = {
        "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_tail": value,
    }
    return metrics, f"p{pct:.2f} of {len(lat_ms)} ops"


def _check_outputs(workload: str, cases: list[dict], result: dict, chk: check.Checker) -> dict[int, str]:
    """Why each failed case failed; value errors go to chk.errors."""
    failed = {}
    judge = check.cli if workload == "cli" else check.in_process
    for key, out in result["outputs"].items():
        why = judge(chk, cases[int(key)], out)
        if why is not None:
            failed[int(key)] = why
    for case_id in result["mismatch"]:
        chk.errors.append(f"case {case_id} gave different outputs on different passes")
    if workload == "verify":
        check.captured(chk, result["captured"])
        for row in result["capture_mismatch"]:
            chk.errors.append(f"verify computed two values for one report: {row}")
    return failed


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cases = workloads.pool(workload, seed, seconds)
    setup = []
    if not trace:
        setup = [_setup_once(workload, seed, seconds) for _ in range(SETUP_PROBES)]
    result = _run_worker("trace" if trace else "run", workload, seed, seconds)
    # a run on a host far slower than usual stops early (see worker._run_ops)
    order = workloads.schedule(workload, seed, seconds, traced=trace)[: len(result["latency_ns"])]

    # the reference runs only now, after every timed region has ended
    chk = check.Checker()
    failed_cases = _check_outputs(workload, cases, result, chk)
    if workload == "cli" and trace:
        inproc = result["trace"]["inproc_outputs"]
        for key, out in result["outputs"].items():
            if (out.get("code"), out.get("stdout")) != (inproc[key]["code"], inproc[key]["stdout"]):
                chk.errors.append(f"cli.main in process and python -m causalgap differ on case {key}")
        for case_id in result["trace"]["inproc_mismatch"]:
            chk.errors.append(f"cli.main in process gave different outputs for case {case_id}")
    failed_ops = sum(1 for case_id in order if case_id in failed_cases)
    lat_ms = [x / 1e6 for x in result["latency_ns"]]
    latency, tail_note = _latency_metrics(lat_ms)
    summary = {
        "workload": workload,
        "correct": not chk.errors,
        "errors": chk.errors,
        "attempted": len(order),
        "failed": failed_ops,
        "failures": sorted(set(failed_cases.values())),
        "tail_note": tail_note,
    }
    if trace:
        summary["metrics"], summary["absent"] = _layer_metrics(workload, cases, order, result, chk)
    else:
        summary["metrics"] = {
            "setup_s": statistics.median(setup),
            **latency,
            "rel_err_max": chk.rel_err_max,
            "peak_rss_mb": result["peak_rss_mb"],
        }
    return summary


def _layer_metrics(workload, cases, order, result, chk) -> tuple[dict, list[str]]:
    """Per-layer values by metric name; names the code lacks are listed as absent."""
    tr = result["trace"]
    spans = tr["spans"]
    values: dict[str, float] = {
        "import.numpy_ms": _import_probe("numpy"),
        "import.scipy_special_ms": _import_probe("scipy.special"),
        "import.causalgap_ms": _import_probe("causalgap"),
        "analog.err_estimate_violations": chk.violations["analog"],
        "digital.err_estimate_violations": chk.violations["digital"],
        "trace.wall_ms": tr["traced_wall_s"] * 1e3,
        "trace.untraced_wall_ms": tr["untraced_wall_s"] * 1e3,
        "trace.overhead_ms": (tr["traced_wall_s"] - tr["untraced_wall_s"]) * 1e3,
        "trace.spans": tr["span_count"],
    }
    absent_targets = set(tr["absent"])
    for name, row in spans.items():
        values[f"{name}.calls"] = row["calls"]
        values[f"{name}.self_ms"] = row["self_ns"] / 1e6
        if name.startswith("verify.") and name.count(".") >= 2:
            values[f"{name}.ms"] = row["median_ns"] / 1e6
    values.update(tr["counters"])
    layer_self = dict.fromkeys(LAYERS, 0.0)
    harness = tr["outside_spans_s"] * 1e3
    for name, row in spans.items():
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += row["self_ns"] / 1e6
        else:
            harness += row["self_ns"] / 1e6
    for layer, ms in layer_self.items():
        values[f"layer.{layer}.self_ms"] = ms
    values["layer.harness.self_ms"] = harness
    if workload == "verify":
        values["verify.checks_failed"] = sum(
            not ok for i in order for _, _, ok, _ in result["outputs"][str(i)].get("results", [])
        )
    if workload == "cli":
        inproc = [x / 1e6 for x in tr["inproc_latency_ns"]]
        sub = [x / 1e6 for x in result["latency_ns"]]
        values["cli.startup_ms"] = statistics.median(sub) - statistics.median(inproc)
        by_kind: dict[str, list[float]] = {}
        for case_id, ms in zip(order, inproc):
            by_kind.setdefault(cases[case_id]["kind"], []).append(ms)
        for kind, ms in by_kind.items():
            values[f"cli.main_ms.{kind}"] = statistics.median(ms)

    metrics, absent = {}, []
    for spec in _spec()["per_layer"]:
        name = spec["name"]
        # 0 also stands for a layer this workload does not reach
        metrics[name] = values.get(name, 0)
        if name not in values and (
            any(name.startswith(target + ".") for target in absent_targets)
            or (workload == "verify" and name.startswith("verify."))
        ):
            absent.append(name)
    return metrics, absent


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _print_summary(s: dict, units: dict) -> None:
    print(f"== {s['workload']}: ops {s['attempted']}, ops_failed {s['failed']}, correct {s['correct']}")
    for why in s["failures"]:
        print(f"   failed: {why}")
    for err in s["errors"][:20]:
        print(f"   incorrect: {err}")
    for name, value in s["metrics"].items():
        note = ""
        if name == "op_ms_tail":
            note = f"  ({s['tail_note']})"
        if name == "digital.partial_sum_terms":
            note = "  (computed: sum of N over calls)"
        print(f"   {name:48} {value:.6g} {units[name]}{note}")
    if s.get("absent"):
        print(f"   absent at this commit: {', '.join(s['absent'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "causalgap", "__init__.py")):
        print(f"bench: no causalgap sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = _spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for name in names:
        try:
            summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        _print_summary(summary, units)
        summaries.append(summary)
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in s["metrics"].items()}
    final = {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {k: {"value": v, "unit": units[k.split(".", 1)[1] if len(summaries) > 1 else k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
