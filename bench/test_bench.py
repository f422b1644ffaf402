"""Smoke tests of the benchmark at a tiny size.

Run from the root of a checkout: ``python3 -m pytest -q bench``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
from spans import PER_LAYER_UNITS, Tracer, layer_table
from workloads import WORKLOADS, check_report, codec_probe

TINY = 2  # simulated seconds per call


@pytest.fixture(scope="module")
def u():
    return run.import_package()


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["run_seconds"] == run.RUN_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_reports_every_metric(name):
    result = run.run_workload(name, seed=3, seconds=0, trace=False,
                              sim_seconds=TINY, setup_reps=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_metric(name):
    result = run.run_workload(name, seed=3, seconds=0, trace=True, sim_seconds=TINY)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == PER_LAYER_UNITS
    assert all(v >= 0 for v in metrics.values())
    assert metrics["engine.self_s"] > 0
    assert metrics["concat.encode_calls"] == run.TRACE_CALLS * TINY * 6
    if name == "inject-dirty":
        assert metrics["modem.slots"] == 0 and metrics["agc.step_calls"] == 0
        assert metrics["bch.dirty_word_ratio"] >= 0.5
    else:
        assert metrics["modem.slots"] > 0
        assert metrics["channel.fading_calls"] == run.TRACE_CALLS * TINY


def test_spans_nest_and_self_times_are_not_negative(u):
    workload = WORKLOADS["blue-nlos-ppm"]
    spec = u.load_preset(workload.preset)
    tracer = Tracer()
    with tracer.installed(u):
        tracer.wrap(workload.call, "engine")(u, spec, 5, TINY)
    assert u.BchCodeSpec.decode.__name__ == "decode"  # originals restored
    spans = tracer.spans
    assert spans[0][0] == "engine" and spans[0][3] == -1
    for name, start, end, parent in spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end, name
    table = layer_table(spans)
    assert {"bch.syndromes.inner", "bch.syndromes.outer", "agc.step"} <= set(table)
    assert all(own >= 0 for _, _, own in table.values())


def test_checks_reject_wrong_reports(u):
    workload = WORKLOADS["inject-dirty"]
    spec = u.load_preset(workload.preset)
    report = workload.call(u, spec, 11, TINY)
    assert check_report(workload, spec, report, 11, TINY) == []
    for change in ({"packet_loss_count": report.packet_loss_count + 1},
                   {"pre_fec_bit_errors": report.pre_fec_bit_errors // 2},
                   {"frames_sent": report.frames_sent - 1}):
        assert check_report(workload, spec, dataclasses.replace(report, **change),
                            11, TINY)
    assert codec_probe(u, spec, np.random.default_rng(0), frames=1) == []


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "green-ook",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
