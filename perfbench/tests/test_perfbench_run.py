"""The run script's statistics, its contract file and its failure modes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import probe
import run
import tracer

ROOT = run.ROOT


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(i) for i in range(1, 41)]  # 40 samples
    assert run.tail(values) == (30.0, 75.0, 10)
    assert run.tail(values[:21]) == (11.0, 100 * 11 / 21, 10)
    assert run.tail(values[:15]) == (8.0, 100 * 8 / 15, 7)  # too few: the median
    assert run.tail([5.0]) == (5.0, 100.0, 0)
    assert run.tail(values[:12]) == (7.0, 100 * 7 / 12, 5)  # never below the median, 6.5


def _children(speed: float = 1.0) -> list[dict]:
    """Five children whose probes took ``speed`` times the reference time."""
    ref, py_ref = probe.REFERENCE_S * speed, probe.PYTHON_REFERENCE_S * speed
    return [
        {"setup_s": s * speed, "setup_probe_s": [py_ref, py_ref], "cold_s": c * speed,
         "warm_s": [x * speed for x in w], "probe_s": [ref] * (len(w) + 2),
         "warm_work": 10.0 * len(w), "peak_rss_kib": r, "work_unit": "rows"}
        for s, c, w, r in [(0.1, 2.0, [1.0, 1.0], 1024), (0.3, 3.0, [2.0], 3072),
                           (0.2, 9.0, [1.0, 2.0], 2048), (0.4, 2.5, [], 9999),
                           (0.05, 4.0, [], 9999)]
    ]


def test_end_to_end_pools_warm_passes_and_takes_child_medians():
    m, detail = run.end_to_end(_children())
    assert m == pytest.approx({"setup_s": 0.2, "cold_s": 3.0, "pass_p50_s": 1.0,
                               "pass_tail_s": 1.0, "work_per_s": 50.0 / 7.0,
                               "peak_rss_mib": 2.0})
    assert detail["warm_passes"] == 5
    assert detail["children"] == 5


def test_end_to_end_scales_times_by_the_probes_that_bracket_them():
    # A machine running at half speed doubles every time and every probe:
    # the scaled metrics stay, the unscaled ones double.
    fast, _ = run.end_to_end(_children())
    slow, detail = run.end_to_end(_children(speed=2.0))
    assert slow == pytest.approx(fast)
    assert detail["unscaled"]["pass_p50_s"] == pytest.approx(2.0)
    # A pass that is slower than its probe predicts reads slower.
    children = _children()
    children[0]["warm_s"] = [4.0, 4.0]
    assert run.end_to_end(children)[0]["pass_p50_s"] == pytest.approx(2.0)
    # Each pass is scaled by the mean of the probes before and after it.
    children = _children()
    children[0]["probe_s"] = [probe.REFERENCE_S, probe.REFERENCE_S, 3 * probe.REFERENCE_S,
                              probe.REFERENCE_S]
    # Child 0's warm passes now read 0.5 s each, so 50 rows take 6 s.
    assert run.end_to_end(children)[0]["work_per_s"] == pytest.approx(50.0 / 6.0)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracer.metric_units()
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_fails_without_printing_a_result_where_there_is_no_program(tmp_path: Path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "figures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("traced", [0.0, 0.3])
def test_untraced_passes_run_without_the_tracer(tmp_path: Path, traced: float):
    result = tmp_path / "child.json"
    cmd = [sys.executable, str(run.HERE / "child.py"), "--workload", "figures", "--seed", "1",
           "--child", "0", "--seconds", "0.1", "--src", str(run.SRC), "--workdir", str(tmp_path),
           "--result", str(result), "--traced-seconds", str(traced)]
    subprocess.run(cmd, check=True, timeout=120, env={"PYTHONPATH": str(run.SRC),
                                                       "OPENBLAS_NUM_THREADS": "1"})
    doc = json.loads(result.read_text())
    assert doc["tracer_loaded"] is False
    assert doc["failed"] == 0
    assert ("layers" in doc) == bool(traced)
    if traced:  # untraced and traced passes alternate, so both were run
        assert len(doc["untraced_s"]) == len(doc["traced_s"]) >= 1
        assert doc["layers"]["trace.overhead_ratio"] > 0
