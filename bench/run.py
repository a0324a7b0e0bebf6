"""mcs-qkd benchmark: times CLI calls end to end, or traces them layer by layer.

    python3 bench/run.py --workload sweep|scan|oracle --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a checkout that has ``src/mcs_qkd``.  Each op is one
in-process call of ``mcs_qkd.cli.main(argv)`` on inputs made from ``--seed``
(see ``workloads.py``), and every op's output is checked.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer metrics
from spans around each layer's public functions (see ``spans.py``).  ``all``
runs every workload with and without tracing in child processes.  The last
line of standard output is one JSON object; the lines before it are a
readable report.  ``bench/README.md`` defines every metric.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported, here and in child processes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans
import workloads as wl

OUT_DIR = wl.ROOT / ".bench_out"
SETUP_REPEATS = 11
# End-to-end times are scaled by CAL_REF_S / (calibration seconds measured
# around each timed call), so a host that runs everything slower for a while
# does not read as a slower program.  CAL_REF_S is about what calibrate()
# takes on an idle 2-vCPU x86-64 VM with Python 3.11, so scaled times read as
# seconds on that machine.  Raw seconds go to the report.
CAL_LOOPS = 30000
CAL_REF_S = 0.0135
P90_MIN_OPS = 100  # p90 needs at least ten samples beyond it
CHILD_TIMEOUT_S = 300

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import mcs_qkd.cli; print(repr(time.perf_counter() - t))"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "optimizer.rate_at.calls": "count",
    "optimizer.rate_at.us_per_call": "us",
    "optimizer.rate_at.self_us_per_call": "us",
    "optimizer.optimize_param.calls": "count",
    "optimizer.optimize_param.us_per_call": "us",
    "optimizer.optimize_param.self_us_per_call": "us",
    "optimizer.rate_at_per_optimum": "ratio",
    "optimizer.secure_optimum_frac": "ratio",
    "optimizer.sweep_distance.s": "s",
    "optimizer.cutoff_distance.calls": "count",
    "optimizer.cutoff_distance.s": "s",
    "optimizer.cutoff_distance.optimize_calls": "count",
    "key_rate.secure_rate.calls": "count",
    "key_rate.secure_rate.us_per_call": "us",
    "key_rate.secure_rate.self_us_per_call": "us",
    "key_rate.f_ec.calls": "count",
    "key_rate.f_ec.us_per_call": "us",
    "photon_source.p_signal.calls": "count",
    "photon_source.p_signal.us_per_call": "us",
    "photon_source.p_multi_min.calls": "count",
    "photon_source.p_multi_min.us_per_call": "us",
    "photon_source.p_multi.calls": "count",
    "photon_source.p_multi.us_per_call": "us",
    "photon_source.fock_coefficients.calls": "count",
    "photon_source.fock_coefficients.us_per_call": "us",
    "fock_oracle.p0_via_fock.calls": "count",
    "fock_oracle.p0_via_fock.us_per_call": "us",
    "fock_oracle.p0_via_fock.self_us_per_call": "us",
    "fock_oracle.p0_via_quadrature.calls": "count",
    "fock_oracle.p0_via_quadrature.us_per_call": "us",
    "fock_oracle.verify_closed_forms.s": "s",
    "fock_oracle.verify_closed_forms.self_s": "s",
    "fock_oracle.checks_failed": "count",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "svgplot.render_line_chart.s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


@dataclass
class OpResult:
    op: wl.Op
    seconds: float
    error: str | None
    bytes_written: int = 0
    info: dict = field(default_factory=dict)
    trace: dict | None = None
    cal_s: float = 0.0


def _call(cli, op: wl.Op, tracer: spans.Tracer | None) -> tuple[object, float, str]:
    """Run one op; returns (exit code or exception text, seconds, captured stderr)."""
    wl.clear_outputs(op)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        main = cli.main
        if tracer is not None:
            stack.enter_context(tracer.installed())
            main = tracer.wrap(main, spans.ROOT_SPAN)
        t0 = time.perf_counter()
        try:
            code = main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    return code, seconds, err.getvalue()


def run_op(cli, op: wl.Op, tracer: spans.Tracer | None = None) -> OpResult:
    """Call ``op`` and check its outputs; a wrong output marks the op failed."""
    code, seconds, stderr = _call(cli, op, tracer)
    written = sum(p.stat().st_size for p in op.out_dir.rglob("*") if p.is_file()) if op.out_dir.is_dir() else 0
    result = OpResult(op, seconds, None, written)
    try:
        result.info = wl.check_op(cli, op, code)
    except wl.CheckFailed as exc:
        result.error = f"{exc}" + (f" | stderr: {stderr.strip()[-300:]}" if stderr.strip() else "")
    except Exception as exc:  # a check that trips over malformed output is a failed op
        result.error = f"check raised {type(exc).__name__}: {exc}"
    if tracer is not None:
        result.trace = tracer.summary()
    return result


def calibrate() -> float:
    """Seconds taken now by a fixed pure-Python and numpy workload."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CAL_LOOPS):
        x = 1e-5 * i
        acc += math.exp(-x) / math.sqrt(1.0 + x * x) + max(x, 0.1) * min(x, 0.3)
    grid = np.linspace(0.0, 1.0, 96)
    np.exp(-np.outer(grid, grid)).sum()
    return time.perf_counter() - t0


def scaled(seconds: float, cal_s: float) -> float:
    """Seconds at the calibration speed of the reference machine."""
    return seconds * CAL_REF_S / cal_s


def measure_setup(workload: str, seed: int, work_dir: Path) -> tuple[list[float], list[float], list[wl.Op]]:
    """SETUP_REPEATS samples of: import mcs_qkd.cli in a fresh interpreter + write inputs.

    Returns raw seconds, the calibration seconds around each sample, and the ops.
    """
    samples, cals, ops = [], [], []
    cal_before = calibrate()
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(wl.SRC)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=wl.ROOT,
        )
        if probe.returncode != 0:
            raise wl.ProgramMissing(f"importing mcs_qkd.cli failed: {probe.stderr.strip()[-500:]}")
        import_s = float(probe.stdout.strip().splitlines()[-1])
        shutil.rmtree(work_dir, ignore_errors=True)
        t0 = time.perf_counter()
        ops = wl.make_ops(workload, seed, work_dir)
        samples.append(import_s + time.perf_counter() - t0)
        cal_after = calibrate()
        cals.append(0.5 * (cal_before + cal_after))
        cal_before = cal_after
    return samples, cals, ops


def timed_run(cli, ops: list[wl.Op], seconds: float) -> tuple[list[OpResult], list[OpResult]]:
    """Op 0 warms up (checked, untimed); then ops cycle through the pool for ``seconds``.

    A calibration pass runs between consecutive timed ops.
    """
    warmup = [run_op(cli, ops[0])]
    timed = []
    deadline = time.perf_counter() + seconds
    index = 1
    cal_before = calibrate()
    while time.perf_counter() < deadline:
        result = run_op(cli, ops[index % len(ops)])
        cal_after = calibrate()
        result.cal_s = 0.5 * (cal_before + cal_after)
        cal_before = cal_after
        timed.append(result)
        index += 1
    return warmup, timed


def traced_run(cli, op: wl.Op, seconds: float) -> tuple[list[OpResult], list[OpResult], spans.Tracer]:
    """Alternate untraced and traced calls of ``op`` for ``seconds`` (at least one pair)."""
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(run_op(cli, op))
        tracer = spans.Tracer()
        traced.append(run_op(cli, op, tracer))
        if time.perf_counter() >= deadline:
            return untraced, traced, tracer


def end_to_end_metrics(setup: tuple[list[float], list[float]], timed: list[OpResult]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(map(scaled, *setup)),
        "op_s_p50": statistics.median(scaled(r.seconds, r.cal_s) for r in timed),
        "points_per_s": statistics.median(r.op.points / scaled(r.seconds, r.cal_s) for r in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def op_s_p90(timed: list[OpResult]) -> float | None:
    """Nearest-rank 90th percentile of scaled op seconds; None below P90_MIN_OPS ops."""
    if len(timed) < P90_MIN_OPS:
        return None
    times = sorted(scaled(r.seconds, r.cal_s) for r in timed)
    return times[math.ceil(0.9 * len(times)) - 1]


def layer_metrics(untraced: list[OpResult], traced: list[OpResult]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics; calls come from one traced op, times from all of them.

    Returns the metrics and a list of problems (traced counts that differ
    between repeats of the same op).
    """
    summaries = [r.trace for r in traced]
    first = summaries[0]
    problems = [
        f"traced call {i}: counts differ from call 0"
        for i, s in enumerate(summaries[1:], start=1)
        if (s["calls"], s["counts"], s["spans"]) != (first["calls"], first["counts"], first["spans"])
    ]
    passes = len(summaries)

    def calls(name: str) -> int:
        return first["calls"][name]

    def per_call_us(name: str, kind: str = "total_s") -> float:
        n = calls(name) * passes
        return sum(s[kind][name] for s in summaries) / n * 1e6 if n else 0.0

    def per_op_s(name: str, kind: str = "total_s") -> float:
        return sum(s[kind][name] for s in summaries) / passes

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    counts = first["counts"]
    secure = counts["optimizer.optimize_param.secure"]
    metrics: dict[str, float] = {}
    for name in ("optimizer.rate_at", "optimizer.optimize_param", "key_rate.secure_rate",
                 "key_rate.f_ec", "photon_source.p_signal", "photon_source.p_multi_min",
                 "photon_source.p_multi", "photon_source.fock_coefficients",
                 "fock_oracle.p0_via_fock", "fock_oracle.p0_via_quadrature"):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.us_per_call"] = per_call_us(name)
        if f"{name}.self_us_per_call" in PER_LAYER_UNITS:
            metrics[f"{name}.self_us_per_call"] = per_call_us(name, "self_s")
    metrics.update({
        "optimizer.rate_at_per_optimum": ratio(counts["optimizer.rate_at.in_optimize"], secure),
        "optimizer.secure_optimum_frac": ratio(secure, calls("optimizer.optimize_param")),
        "optimizer.sweep_distance.s": per_op_s("optimizer.sweep_distance"),
        "optimizer.cutoff_distance.calls": calls("optimizer.cutoff_distance"),
        "optimizer.cutoff_distance.s": per_op_s("optimizer.cutoff_distance"),
        "optimizer.cutoff_distance.optimize_calls": counts["optimizer.cutoff_distance.optimize_calls"],
        "fock_oracle.verify_closed_forms.s": per_op_s("fock_oracle.verify_closed_forms"),
        "fock_oracle.verify_closed_forms.self_s": per_op_s("fock_oracle.verify_closed_forms", "self_s"),
        "fock_oracle.checks_failed": counts["fock_oracle.checks_failed"],
        "cli.main.s": per_op_s(spans.ROOT_SPAN),
        "cli.self_s": per_op_s(spans.ROOT_SPAN, "self_s"),
        "cli.bytes_written": traced[0].bytes_written,
        "svgplot.render_line_chart.s": per_op_s("svgplot.render_line_chart"),
        "trace.spans": first["spans"],
        "trace.overhead_s": statistics.median(r.seconds for r in traced)
        - statistics.median(r.seconds for r in untraced),
    })
    return {name: metrics[name] for name in PER_LAYER_UNITS}, problems


def environment(seed: int) -> dict:
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(wl.ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == wl.ROOT:
            commit = lines[1]
    except OSError:
        pass  # no git: the source hash below still identifies the program
    digest = hashlib.sha256()
    for path in sorted(wl.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(wl.SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; prints the report and returns the result object."""
    cli = wl.load_cli()
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT_DIR))
    try:
        setup_raw, setup_cal, ops = measure_setup(workload, seed, work_dir)
        env = environment(seed)
        print(f"== mcs-qkd benchmark: workload {workload}, seed {seed}, "
              f"{seconds:g} s, trace {int(trace)}")
        print("env " + json.dumps(env, sort_keys=True))
        print(f"input: {wl.INPUT_SIZE[workload]}; pool of {len(ops)} ops")
        report: dict = {}
        if trace:
            untraced, traced, tracer = traced_run(cli, ops[0], seconds)
            results = untraced + traced
            metrics, problems = layer_metrics(untraced, traced)
            units = PER_LAYER_UNITS
            spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.csv.gz"
            tracer.write(spans_path)
            report["traced_calls"] = len(traced)
            report["missing_targets"] = tracer.missing
            report["spans_file"] = str(spans_path.relative_to(wl.ROOT))
        else:
            warmup, timed = timed_run(cli, ops, seconds)
            results = warmup + timed
            metrics = end_to_end_metrics((setup_raw, setup_cal), timed)
            units = END_TO_END_UNITS
            problems = []
            p90 = op_s_p90(timed)
            report["op_s_p90"] = (
                f"{p90:.6g} s (n={len(timed)} timed ops)" if p90 is not None
                else f"n/a (n={len(timed)} < {P90_MIN_OPS} timed ops)"
            )
            report["op_s_p50_raw"] = f"{statistics.median(r.seconds for r in timed):.6g} s (unscaled)"
            report["setup_s_raw"] = f"{statistics.median(setup_raw):.6g} s (unscaled)"
            report["calibration_s"] = f"{statistics.median(r.cal_s for r in timed):.6g} s (reference {CAL_REF_S} s)"
        failed = [r for r in results if r.error]
        for r in results:
            if "cutoff_err_km" in r.info:
                report["cutoff_err_km"] = f"{r.info['cutoff_err_km']:.6g} km (KTH15 op, tolerance {wl.CUTOFF_TOL_KM} km)"
                report["kth15_cutoffs_km"] = r.info["cutoffs_km"]
                break
        report["failed_frac"] = f"{len(failed) / len(results):.6g} ({len(failed)}/{len(results)} ops)"
        for name, value in metrics.items():
            print(f"  {name:<44} {_fmt(value):>14} {units[name]}")
        for key, value in report.items():
            print(f"  {key:<44} {value}")
        for r in failed[:5]:
            print(f"  FAILED op {r.op.index}: {r.error[:500]}", file=sys.stderr)
        for problem in problems:
            print(f"  PROBLEM {problem}", file=sys.stderr)
        correct = not failed and not problems
        print(f"verdict: {'correct' if correct else 'INCORRECT'} "
              f"({len(results) - len(failed)}/{len(results)} ops passed their checks)")
        result = {
            "correct": correct,
            "attempted": len(results),
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        record = {"workload": workload, "seconds": seconds, "trace": int(trace), "env": env,
                  "report": report, "problems": problems,
                  "failures": [r.error for r in failed][:20],
                  "ops": [[r.op.index, r.seconds, r.cal_s] for r in results], **result}
        (OUT_DIR / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
        return result
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, untraced then traced, each in its own interpreter."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 2 * seconds, cwd=wl.ROOT,
            )
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(child.stderr)
            if child.returncode != 0 or not lines:
                combined["correct"] = False
                print(f"verdict: {workload} trace {trace} exited {child.returncode}")
                continue
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics (ignored by 'all')")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    try:
        if args.workload == "all":
            wl.load_cli()
            result = run_all(args.seed, args.seconds)
        else:
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except wl.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
