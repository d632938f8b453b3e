"""Tests of the benchmark itself: the contract of BENCHMARK.json, the smoke
run of every workload, the tracer, and the correctness gates.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gaasim  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])


def _smoke(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _smoke(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(final["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert final["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in final["metrics"].values())


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _smoke("synth", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_tracer_wraps_every_lookup_and_partitions_time():
    tracer = spans.Tracer()
    original = gaasim.model.parse_config
    tracer.install(gaasim)
    try:
        assert gaasim.cli.parse_config is gaasim.model.parse_config
        assert gaasim.model.parse_config.__wrapped__ is original
        gaasim.synthesis.max_feasible_a1([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[-1.3, -1.4]])
    finally:
        tracer.uninstall()
    assert gaasim.model.parse_config is original and gaasim.cli.parse_config is original
    names = [s.name for s in tracer.spans]
    assert names == ["synthesis.max_feasible_a1", "numerics.real_spectral_abscissa",
                     "numerics.eigenvalues"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1]
    # self times partition the outermost span
    root = tracer.spans[0].duration
    assert sum(tracer.self_times().values()) == pytest.approx(root, rel=1e-9)
    metrics = tracer.metrics(tracer.spans[0].start, root)
    assert metrics["trace.uncovered_s"] == pytest.approx(0.0, abs=1e-12)
    assert metrics["synthesis.max_feasible_a1.calls"] == 1
    assert metrics["numerics.eigenvalues.calls"] == 1
    per_layer = set(metrics) | {"cli.artifact_mb", "trace.overhead_s", "pass.raw_wall_s",
                                "pass.gauge_us"}
    assert per_layer == {m["name"] for m in SPEC["per_layer"]}


def test_an_operation_that_raises_counts_as_failed():
    def boom():
        raise ValueError("boom")

    setup = workloads.Setup([workloads.Op("op", boom, lambda r: ([], {}), ("a", "b"))])
    result = worker._run_pass(setup, spans.Tracer())
    assert [v[:2] for v in result["verdicts"]] == [["a", False], ["b", False]]


def test_a_wrong_verdict_counts_as_failed():
    record = SimpleNamespace(passed=False, name="lyapunov_decay", value=1.0)
    gains = SimpleNamespace(input_bound=1.0, rbar1=0.0, rbar2=0.0, rbar3=1.0, lambda_min_M=1.0)
    result = {"gains": gains, "report": SimpleNamespace(records=[record])}
    verdicts, _ = workloads._synth_judge("n2")(result)
    assert not verdicts[0].ok and verdicts[0].detail == "lyapunov_decay"
