"""Smoke test of the benchmark itself, with a short run per workload.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def _tiny(workload: str, trace: bool) -> dict:
    # Each worker and each traced half runs at least one op, however short the run.
    return run.run_benchmark(workload, seed=3, seconds=0.5, trace=trace)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_with_its_unit_and_no_failed_op(workload: str, trace: bool) -> None:
    out = _tiny(workload, trace)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = _units("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    meta = out["meta"]
    assert meta["seed"] == 3 and meta["python"] and meta["cores"] >= 1
    assert meta["workers"] == (1 if trace else run.PARTS)
    assert meta["reference_ms"]["count"] > 0
    assert set(meta["raw"]) == {"setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms"}


def test_every_workload_is_in_benchmark_json() -> None:
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)


def test_missing_function_reads_zero_calls(monkeypatch: pytest.MonkeyPatch) -> None:
    import uvbraid.raag

    # The package keeps calling its own references; the tracer finds nothing to wrap.
    monkeypatch.delattr(uvbraid.raag, "normal_form")
    out = run.run_worker("wp-narrow", seed=3, part=0, seconds=0.5, trace=True)
    assert out["failed"] == 0
    metrics = out["per_layer"]
    assert metrics["raag.normal_form.self_ms_per_op"] == 0.0
    assert metrics["raag.normal_form.letters_in_per_call"] == 0.0
    assert metrics["semidirect.to_normal_form.calls_per_op"] > 0


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wp-narrow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
