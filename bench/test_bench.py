"""Tests of the benchmark itself: inputs, checks, tracing and the result contract.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads as wl

CLI = wl.load_cli()


def _files(work_dir: Path) -> dict[str, str]:
    return {
        str(p.relative_to(work_dir)): p.read_text(encoding="utf-8")
        for p in sorted(work_dir.rglob("*")) if p.is_file()
    }


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_inputs_are_deterministic_per_seed(tmp_path, workload):
    ops = wl.make_ops(workload, 3, tmp_path / "a")
    wl.make_ops(workload, 3, tmp_path / "b")
    wl.make_ops(workload, 4, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert len(ops) == wl.POOL_SIZE[workload]


def test_sweep_pool_starts_with_kth15_and_stays_in_range(tmp_path):
    ops = wl.make_ops("sweep", 11, tmp_path)
    assert ops[0].params == {"channel": wl.KTH15, "kth15": True}
    for op in ops[1:]:
        assert not op.params["kth15"]
        for key, (lo, hi) in wl.SWEEP_RANGES.items():
            assert lo <= op.params["channel"][key] <= hi


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_counts_repeat_exactly(tmp_path, workload):
    op = wl.make_ops(workload, 5, tmp_path)[0]
    traced = [run.run_op(CLI, op, spans.Tracer()) for _ in range(2)]
    untraced = [run.run_op(CLI, op)]
    assert all(r.error is None for r in traced + untraced)
    metrics, problems = run.layer_metrics(untraced, traced)
    assert problems == []
    assert traced[0].trace["calls"] == traced[1].trace["calls"]
    assert traced[0].trace["counts"] == traced[1].trace["counts"]
    assert list(metrics) == list(run.PER_LAYER_UNITS)
    loaded = {"sweep": "optimizer.optimize_param.calls", "scan": "key_rate.f_ec.calls",
              "oracle": "fock_oracle.p0_via_quadrature.calls"}[workload]
    assert metrics[loaded] > 0


def test_tracing_leaves_results_and_exceptions_unchanged():
    tracer = spans.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x * 2

    wrapped_inner = tracer.wrap(inner, "inner")

    def outer(x):
        return wrapped_inner(x) + 1

    wrapped_outer = tracer.wrap(outer, "outer")
    assert wrapped_outer(3) == 7
    with pytest.raises(ValueError, match="negative"):
        wrapped_outer(-1)
    summary = tracer.summary()
    assert summary["calls"] == {"outer": 2, "inner": 2}
    assert tracer.parent == [-1, 0, -1, 2]
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))
    assert summary["self_s"]["outer"] <= summary["total_s"]["outer"]


def test_tracer_restores_every_target():
    before = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in spans.TARGETS}
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("boom")
    after = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in spans.TARGETS}
    assert before == after
    assert tracer.missing == []


def _rewrite(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")


def _corrupting_main(monkeypatch, corrupt):
    real_main = CLI.main

    def main(argv):
        code = real_main(argv)
        corrupt(Path(argv[argv.index("--out") + 1]))
        return code

    monkeypatch.setattr(CLI, "main", main)


def _column_edit(name: str, change, family: str | None = None, first_only: bool = False):
    def edit(lines):
        header = next(line for line in lines if not line.startswith("#")).rstrip("\n").split(",")
        col, done, out = header.index(name), False, []
        for line in lines:
            cells = line.rstrip("\n").split(",")
            data = not line.startswith("#") and cells != header
            if data and (family is None or cells[0] == family) and not (first_only and done):
                cells[col] = change(cells[col])
                done = True
            out.append(",".join(cells) + "\n")
        return out

    return edit


def _perturb(text: str) -> str:
    return repr(float(text) * 1.001 + 1e-12)


CORRUPTIONS = {
    "sweep perturbed R": ("sweep", "figure2.csv", _column_edit("R", _perturb, "mcs-bb84", True)),
    "sweep missing cutoff": ("sweep", "figure2.csv", _column_edit("cutoff_km", lambda _: "", "mcs-sarg04")),
    "scan perturbed R": ("scan", "figure1.csv", _column_edit("R", _perturb)),
    "oracle false within_tol": ("oracle", "verify.csv", _column_edit("within_tol", lambda _: "false", None, True)),
}


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_corrupted_output_is_a_failed_op(tmp_path, monkeypatch, case):
    workload, filename, edit = CORRUPTIONS[case]
    op = wl.make_ops(workload, 2, tmp_path)[0]
    assert run.run_op(CLI, op).error is None
    _corrupting_main(monkeypatch, lambda out: _rewrite(out / filename, edit))
    result = run.run_op(CLI, op)
    assert result.error is not None


def test_failures_are_counted_and_the_run_goes_on(tmp_path, monkeypatch):
    ops = wl.make_ops("oracle", 2, tmp_path)
    real_main = CLI.main
    calls = {"n": 0}

    def flaky_main(argv):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("crash inside the program")
        if calls["n"] == 3:
            return 1
        code = real_main(argv)
        if calls["n"] == 4:
            (Path(argv[argv.index("--out") + 1]) / "verify.csv").unlink()
        return code

    monkeypatch.setattr(CLI, "main", flaky_main)
    warmup, timed = run.timed_run(CLI, ops, seconds=2.0)
    results = warmup + timed
    assert len(results) >= 5
    assert [r.error is not None for r in results[:5]] == [False, True, True, True, False]
    assert "crash inside the program" in results[1].error


def _bench_json() -> dict:
    return json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_names_the_emitted_metrics():
    spec = _bench_json()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_is_the_result_object(trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "scan", "--seed", "1", "--seconds", "0.3", "--trace", str(trace)])
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(wl.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_cutoffs_match_the_program():
    for family, cutoff in wl.reference_cutoffs().items():
        assert cutoff == pytest.approx(wl.REFERENCE_CUTOFFS_KM[family], abs=1e-3)
