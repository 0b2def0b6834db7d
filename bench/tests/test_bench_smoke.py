"""The benchmark command end to end, on tiny inputs.

Run from the repository root: python -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "5",
                 "--seconds", "0.1", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in want}


def test_units_match_benchmark_json():
    assert run.E2E_UNITS == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert tracer.LAYER_UNITS == {m["name"]: m["unit"]
                                  for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert list(WORKLOADS) == list(run.WORKLOADS)


def test_refuses_a_directory_without_qcode(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench")
    proc = bench(tmp_path, "--workload", "oracle", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_absent_public_name_reads_zero(monkeypatch):
    monkeypatch.setitem(tracer.TARGETS, "theory",
                        tracer.TARGETS["theory"] + ("no_such_function",))
    tr = tracer.Tracer()
    tr.install()
    try:
        import qcode
        tr.request = 0
        with tr.span("request"):
            qcode.build_system(2)
    finally:
        tr.uninstall()
    assert tr.absent == ["theory.no_such_function"]
    layers = tracer.layer_metrics(tr.spans, [{"op": "x"}])
    assert layers["theory.search.busy_s"] == 0
    assert layers["equations.build_system.busy_s"] > 0
    assert qcode.build_system.__name__ == "build_system"
    assert not hasattr(qcode.build_system, "__wrapped__")
