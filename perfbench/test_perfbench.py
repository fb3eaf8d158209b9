"""The benchmark's own tests: every workload at a tiny size.

Run from the root of a checkout with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name):
    """The named workload shrunk to a few seconds of host time."""
    if name == "restore-cold":
        return workloads.RestoreCold(functions=("json", "pyaes"))
    return workloads.WORKLOADS[name](arrivals=15, functions=2)


def args(name, trace=0, seed=3):
    return argparse.Namespace(workload=name, seed=seed, seconds=0.1, trace=trace)


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def test_spec_names_the_four_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    metrics, attempted, failed, misses = run.untraced(args(name), tiny(name))
    assert misses == []
    assert failed == 0 and attempted >= 1
    for entry in SPEC["end_to_end"]:
        got = metrics[entry["name"]]
        assert got["unit"] == entry["unit"]
        assert is_number(got["value"]) and got["value"] > 0, entry["name"]
    assert set(metrics) == {e["name"] for e in SPEC["end_to_end"]}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric_and_matches_untraced(name):
    metrics, _attempted, failed, misses = run.traced(args(name, trace=1), tiny(name), 1.0)
    # A checksum or work-count mismatch between the traced and the
    # untraced trial would be listed here.
    assert misses == [] and failed == 0
    for entry in SPEC["per_layer"]:
        got = metrics[entry["name"]]
        assert got["unit"] == entry["unit"]
        assert is_number(got["value"]), entry["name"]
    assert set(metrics) == {e["name"] for e in SPEC["per_layer"]}
    assert metrics["base.invocations"]["value"] > 0
    assert 0.0 <= metrics["trace.uncovered_share"]["value"] < 1.0
    trace_file = run.OUT_DIR / f"{name}-seed3-trace.json"
    doc = json.loads(trace_file.read_text())
    assert doc["aggregated"] and doc["meta"]["workload"] == name


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_identical_sim_metrics_and_work_counts(name):
    first, second = tiny(name).trial(5), tiny(name).trial(5)
    assert first.checksum == second.checksum
    assert first.counts == second.counts
    assert run.sim_metrics(first) == run.sim_metrics(second)
    assert first.latencies_ms == second.latencies_ms


def test_different_seeds_give_different_inputs():
    a, b = tiny("fleet-warm").trial(1), tiny("fleet-warm").trial(2)
    assert a.checksum != b.checksum


def test_tail_keeps_ten_samples_beyond():
    value, percentile, n = run.tail(list(range(1, 101)))
    assert (value, n) == (90, 100) and percentile == pytest.approx(90.0)
    assert run.tail(list(range(10))) is None


def test_missing_sources_exit_nonzero_without_a_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "fleet-warm", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def group_pids():
    """Processes in this process's group (the trial processes and any
    worker of theirs stay in it unless they leave it)."""
    pgid, pids = os.getpgid(0), set()
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                if os.getpgid(int(entry.name)) == pgid:
                    pids.add(int(entry.name))
            except OSError:
                pass
    return pids


@pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs /proc")
def test_runs_leave_no_process_behind():
    before = group_pids()
    run.untraced(args("sharded-chaos"), tiny("sharded-chaos"))
    assert group_pids() <= before


def test_speed_probe_reports_the_median_around_the_call(monkeypatch):
    readings = iter([30.0, 10.0, 20.0, 50.0, 40.0, 60.0])
    monkeypatch.setattr(run.SpeedProbe, "ms", lambda self: next(readings))
    result, speed_ms = run.SpeedProbe().around(lambda x: x + 1, 41)
    assert (result, speed_ms) == (42, 35.0)
