"""Tests of the benchmark itself, on tiny campaigns.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import bench
from exact_oracle import exact_p_value
from gauge import REFERENCE_S, Gauge
from hwfatigue import cli, serialize_svc
from hwfatigue.stats import ranksum_exact

BENCHMARK_JSON = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> bench.Workload:
    return dataclasses.replace(bench.WORKLOADS[name], n_subjects=3, samples=30)


@pytest.fixture
def tiny_golden(tmp_path, monkeypatch):
    """Pin the default-seed digests of the tiny workloads instead of the real ones."""
    golden = {name: bench.artifact_digests(bench.reference_outputs(tiny(name), 0)[1])
              for name in bench.WORKLOADS}
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    monkeypatch.setattr(bench, "GOLDEN_PATH", path)


def test_benchmark_json_names_the_workloads_and_golden_digests():
    names = [w["name"] for w in BENCHMARK_JSON["workloads"]]
    assert sorted(names) == sorted(bench.WORKLOADS)
    assert sorted(json.loads(bench.GOLDEN_PATH.read_text())) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_every_metric_printed_with_its_unit(name, trace, tmp_path, tiny_golden):
    result, facts, spans = bench.run_benchmark(tiny(name), 5, 0.0, trace, tmp_path / "work")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = BENCHMARK_JSON["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert facts["nproc"] >= 1 and facts["src_lines"] > 0
    assert facts["gauge_ms"]["samples"] >= 2 * facts["campaigns"]
    assert bool(spans) == trace
    assert json.loads(json.dumps(result)) == result
    assert list((tmp_path / "work").iterdir()) == []


def test_traced_spans_nest_under_the_cli_calls(tmp_path, tiny_golden):
    _, _, spans = bench.run_benchmark(tiny("paper-campaign"), 0, 0.0, True, tmp_path)
    by_name = {s["name"]: s for s in spans}
    load = by_name["data.load_dataset"]
    assert spans[load["parent"]]["name"] == "cli.cmd_analyze"
    assert spans[by_name["report.aggregate"]["parent"]]["name"] == "cli.analyze_dataset"
    assert all(s["campaign"] is not None and s["end"] >= s["start"] for s in spans)


def _corrupt_after(monkeypatch, command: str, corrupt):
    original = getattr(cli, command)

    def wrapped(args):
        rc = original(args)
        corrupt(args)
        return rc
    monkeypatch.setattr(cli, command, wrapped)


def test_corrupted_artifact_is_a_failed_operation(tmp_path, tiny_golden, monkeypatch):
    def corrupt(args):
        path = Path(args.output) / "table2.csv"
        path.write_text(path.read_text().replace("0.", "1.", 1))
    _corrupt_after(monkeypatch, "cmd_analyze", corrupt)
    result, _, _ = bench.run_benchmark(tiny("paper-campaign"), 0, 0.0, False, tmp_path)
    assert result["failed"] == 1 and not result["correct"]
    assert result["attempted"] == 2


def test_rejected_svc_file_is_a_failed_operation(tmp_path, monkeypatch, capsys):
    def corrupt(args):
        (Path(args.output) / "subject01" / "session1" / "task1.svc").write_text("2\n1 2 3\n")
    _corrupt_after(monkeypatch, "cmd_synth", corrupt)
    campaign = bench.run_campaign(tiny("paper-campaign"), 0, tmp_path)
    assert not campaign.ok
    assert "task1.svc" in capsys.readouterr().err


def test_exception_in_a_campaign_is_a_failed_operation(tmp_path, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "analyze_dataset", explode)
    campaign = bench.run_campaign(tiny("exact-sweep"), 0, tmp_path)
    assert not campaign.ok
    assert "RuntimeError: boom" in capsys.readouterr().err


def test_golden_mismatch_fails_the_run(tmp_path, tiny_golden, monkeypatch):
    golden = json.loads(bench.GOLDEN_PATH.read_text())
    golden["exact-sweep"]["table1.csv"] = "0" * 64
    bench.GOLDEN_PATH.write_text(json.dumps(golden))
    result, _, _ = bench.run_benchmark(tiny("exact-sweep"), 0, 0.0, False, tmp_path)
    assert result["failed"] == 1 and not result["correct"]


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_seed_changes_the_inputs(name):
    def campaign_bytes(seed):
        dataset = bench.hwfatigue.generate_dataset(tiny(name).config(seed))
        return [serialize_svc(r.samples) for r in dataset]
    assert campaign_bytes(0) == campaign_bytes(0)
    assert campaign_bytes(0) != campaign_bytes(1)


def test_gauge_samples_during_a_step_and_takes_its_time_out():
    gauge = Gauge()
    with gauge.timing() as step:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(gauge.times) >= 5
    assert step.own_s == pytest.approx(step.wall_s - sum(gauge.times[:-1]))
    speed = REFERENCE_S * len(gauge.times) / sum(gauge.times)
    assert step.reference_s == pytest.approx(step.own_s * speed)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_campaign_reports_wall_and_reference_speed_times(tmp_path):
    campaign = bench.run_campaign(tiny("exact-sweep"), 0, tmp_path)
    assert campaign.ok
    assert campaign.synth_wall_s > 0 and campaign.analyze_wall_s > 0
    assert campaign.synth_s > 0 and campaign.analyze_s > 0


def test_exact_oracle_agrees_with_library_and_known_values():
    assert exact_p_value([1, 2], [3, 4]) == (Fraction(3), Fraction(1, 3))
    assert exact_p_value([1, 1], [1, 1]) == (Fraction(5), Fraction(1))
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = rng.integers(0, 6, rng.integers(1, 12)).astype(float)
        b = rng.integers(0, 6, rng.integers(1, 12)).astype(float)
        w, p = exact_p_value(a, b)
        lib = ranksum_exact(a, b)
        assert float(w) == lib.rank_sum
        assert float(p) == pytest.approx(lib.p_value, rel=bench.P_REL_TOL)


def test_exact_gate_rejects_a_wrong_p_value():
    dataset, _, results = bench.reference_outputs(tiny("exact-sweep"), 0)
    assert bench.exact_oracle_agrees(dataset, results, 0)
    wrong = [dataclasses.replace(r, p_value=r.p_value * (1 + 1e-9)) for r in results]
    assert not bench.exact_oracle_agrees(dataset, wrong, 0)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(bench.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK_JSON["command"][1:], "--workload", "exact-sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
