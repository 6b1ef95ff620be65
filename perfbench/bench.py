"""Workloads, timed campaigns, correctness gates and metrics of the benchmark.

A campaign is one synth step followed by one analyze step on one seed.
Campaigns run closed loop, one after another in this process, until the
run's time is spent.  Each campaign is checked outside its timed region;
a failed step, an exception or a mismatch marks the campaign failed.

``run.py`` is the command-line entry point; this module needs ``hwfatigue``
importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import hwfatigue
from hwfatigue import cli, data, report, stats
from hwfatigue.data import Recording, parse_svc, serialize_svc
from hwfatigue.synth import SynthConfig, generate_recording

from exact_oracle import exact_p_value
from gauge import Gauge
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
# Per-item probes time every k-th recording so that at most this many are timed.
PROBE_ITEMS = 240
# Oracle p-values must agree to this relative tolerance (float rounding of
# the same exact ratio differs by a few ulp).
P_REL_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    n_subjects: int
    samples: int
    on_disk: bool  # CLI round trip through files, or library calls in memory
    exact_threshold: int

    def config(self, seed: int) -> SynthConfig:
        return SynthConfig(n_subjects=self.n_subjects,
                           samples_per_recording=self.samples, seed=seed)


WORKLOADS = {w.name: w for w in (
    Workload("paper-campaign", 21, 2000, True, stats.DEFAULT_EXACT_THRESHOLD),
    Workload("exact-sweep", 32, 200, False, 64),
)}


@dataclass
class Campaign:
    seed: int
    ok: bool
    synth_wall_s: float = float("nan")
    analyze_wall_s: float = float("nan")
    synth_s: float = float("nan")  # at the gauge's reference speed
    analyze_s: float = float("nan")
    recordings: int = 0
    files: int = 0
    bytes: int = 0
    samples: int = 0
    tests_exact: int = 0
    tests_normal: int = 0


def _trace_targets():
    """Span name and every module binding of each public call a campaign makes."""
    named = [
        ("cli.cmd_synth", [(cli, "cmd_synth")]),
        ("cli.cmd_analyze", [(cli, "cmd_analyze")]),
        ("synth.generate_dataset", [(cli, "generate_dataset"), (hwfatigue, "generate_dataset")]),
        ("data.write_dataset", [(cli, "write_dataset")]),
        ("data.load_dataset", [(cli, "load_dataset")]),
        ("cli.analyze_dataset", [(cli, "analyze_dataset")]),
        ("report.aggregate", [(cli, "aggregate")]),
        ("stats.pairwise_session_tests", [(cli, "pairwise_session_tests")]),
    ]
    renderers = ["render_table1_csv", "render_table1_json", "render_table2_csv",
                 "render_table2_json", "render_fig_data_csv"]
    return named + [(f"report.{r}", [(cli, r)]) for r in renderers]


def _quiet_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def reference_outputs(workload: Workload, seed: int):
    """Artifacts of the in-memory pipeline, with the dataset and test results."""
    dataset = hwfatigue.generate_dataset(workload.config(seed))
    outputs, results, _ = cli.analyze_dataset(
        dataset, exact_threshold=workload.exact_threshold)
    return dataset, outputs, results


def artifact_digests(outputs: dict[str, str]) -> dict[str, str]:
    return {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in sorted(outputs.items())}


def golden_matches(workload: Workload) -> bool:
    golden = json.loads(GOLDEN_PATH.read_text())
    _, outputs, _ = reference_outputs(workload, DEFAULT_SEED)
    return artifact_digests(outputs) == golden[workload.name]


def setup(workload: Workload, work_parent: Path, gauge: Gauge) -> tuple[float, Path, bool]:
    """Import the package in a fresh interpreter, make a work directory and
    check the default seed's artifacts against the pinned digests.  Returns
    the set-up seconds at the gauge's reference speed."""
    with gauge.timing() as step:
        subprocess.run([sys.executable, "-c", "import hwfatigue.cli"],
                       env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_parent))
        ok = golden_matches(workload)
    return step.reference_s, workdir, ok


def exact_oracle_agrees(dataset, results, seed: int) -> bool:
    """Check the smallest p-value and one seed-chosen p-value against the
    independent exact computation."""
    cells = report.aggregate(dataset, "saturation_ratio").values_by_cell()
    picks = {min(range(len(results)), key=lambda i: results[i].p_value),
             seed % len(results)}
    for i in picks:
        r = results[i]
        if r.method != "exact":
            return False
        w, p = exact_p_value(cells[(r.task_id, r.session_a)], cells[(r.task_id, r.session_b)])
        if float(w) != r.rank_sum or abs(float(p) - r.p_value) > P_REL_TOL * float(p):
            return False
    return True


def _tree_size(root: Path) -> tuple[int, int]:
    files = [p for p in root.rglob("*.svc") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def run_campaign(workload: Workload, seed: int, workdir: Path,
                 tracer: Tracer | None = None, gauge: Gauge | None = None) -> Campaign:
    """One timed synth + analyze, then its correctness gate (untimed, untraced).

    ``gauge`` samples the host's speed while each step runs (see gauge.py).
    The campaign's files stay in ``workdir`` until the run removes it: on a
    filesystem mounted with ``discard``, deleting between campaigns slows
    the file creation of the following ones.
    """
    step = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    gauge = gauge or Gauge()
    data_dir, results_dir = workdir / f"data-{seed}", workdir / f"results-{seed}"
    campaign = Campaign(seed, False)
    try:
        with tracer.patched(_trace_targets()) if tracer else contextlib.nullcontext():
            with gauge.timing() as synth_step, step("bench.synth"):
                if workload.on_disk:
                    synth_rc = _quiet_cli([
                        "synth", "--output", str(data_dir), "--seed", str(seed),
                        "--subjects", str(workload.n_subjects),
                        "--samples", str(workload.samples)])
                else:
                    dataset = hwfatigue.generate_dataset(workload.config(seed))
            with gauge.timing() as analyze_step, step("bench.analyze"):
                if workload.on_disk:
                    analyze_rc = _quiet_cli([
                        "analyze", "--input", str(data_dir), "--output", str(results_dir),
                        "--exact-threshold", str(workload.exact_threshold)])
                else:
                    outputs, results, _ = cli.analyze_dataset(
                        dataset, exact_threshold=workload.exact_threshold)
        campaign.synth_wall_s, campaign.analyze_wall_s = synth_step.own_s, analyze_step.own_s
        campaign.synth_s, campaign.analyze_s = synth_step.reference_s, analyze_step.reference_s
        if workload.on_disk:
            dataset, expected, results = reference_outputs(workload, seed)
            written = {name: (results_dir / name).read_bytes()
                       if (results_dir / name).is_file() else None
                       for name in cli.ANALYZE_OUTPUTS}
            campaign.ok = (synth_rc == 0 and analyze_rc == 0 and
                           written == {n: t.encode() for n, t in expected.items()})
            campaign.files, campaign.bytes = _tree_size(data_dir)
        else:
            campaign.ok = (set(outputs) == set(cli.ANALYZE_OUTPUTS) and len(results) > 0
                           and exact_oracle_agrees(dataset, results, seed))
        campaign.recordings = len(dataset)
        campaign.samples = len(dataset) * workload.samples
        campaign.tests_exact = sum(r.method == "exact" for r in results)
        campaign.tests_normal = len(results) - campaign.tests_exact
    except Exception:
        traceback.print_exc()
        campaign.ok = False
    return campaign


def run_campaigns(workload: Workload, first_seed: int, seconds: float, workdir: Path,
                  gauge: Gauge, tracer: Tracer | None = None) -> list[Campaign]:
    """Closed loop: start campaigns until ``seconds`` of wall time have passed."""
    campaigns = []
    start = time.perf_counter()
    while not campaigns or time.perf_counter() - start < seconds:
        seed = first_seed + len(campaigns)
        if tracer:
            tracer.campaign = f"c{seed}"
        campaigns.append(run_campaign(workload, seed, workdir, tracer, gauge))
    if tracer:
        tracer.campaign = None
    return campaigns


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def probe(workload: Workload, seed: int, workdir: Path) -> dict[str, list[float]]:
    """Time the per-item public calls on one campaign's inputs, outside any
    timed campaign.  Returns seconds per item, and bytes parsed per file."""
    config = workload.config(seed)
    dataset = hwfatigue.generate_dataset(config)
    keys = dataset.keys()[::max(1, -(-len(dataset) // PROBE_ITEMS))]
    probe_dir = workdir / f"probe-{seed}"
    probe_dir.mkdir()
    items: dict[str, list[float]] = {k: [] for k in (
        "generate_recording", "recording_init", "serialize_svc", "read", "parse_svc",
        "parse_bytes", "ranksum")}
    for key in keys:
        dt, rec = _timed(generate_recording, config, *key)
        items["generate_recording"].append(dt)
        items["recording_init"].append(_timed(Recording, *key, rec.samples, rec.device)[0])
        dt, text = _timed(serialize_svc, rec.samples)
        items["serialize_svc"].append(dt)
        path = probe_dir / "subject{:02d}-session{}-task{}.svc".format(*key)
        path.write_text(text, newline="\n")
        dt, read_back = _timed(path.read_text)
        items["read"].append(dt)
        items["parse_svc"].append(_timed(parse_svc, read_back)[0])
        items["parse_bytes"].append(len(read_back.encode()))
    cells = report.aggregate(dataset, "saturation_ratio").values_by_cell()
    for task in data.TASKS:
        for a, b in stats.SESSION_PAIRS:
            items["ranksum"].append(_timed(
                stats.ranksum, cells[(task, a)], cells[(task, b)], workload.exact_threshold)[0])
    shutil.rmtree(probe_dir)
    return items


def _p50_p90(values: list[float], scale: float = 1.0) -> tuple[float, float]:
    """Median and nearest-rank 90th percentile."""
    ordered = sorted(values)
    p90 = ordered[math.ceil(0.9 * len(ordered)) - 1]
    return statistics.median(ordered) * scale, p90 * scale


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(setup_times: list[float], campaigns: list[Campaign]) -> dict:
    good = [c for c in campaigns if c.ok] or campaigns
    return {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "synth_s": _metric(statistics.median(c.synth_s for c in good), "s"),
        "analyze_s": _metric(statistics.median(c.analyze_s for c in good), "s"),
        "recordings_per_s": _metric(sum(c.recordings for c in good) / sum(
            c.synth_s + c.analyze_s for c in good), "1/s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(tracer: Tracer, traced: list[Campaign], untraced: list[Campaign],
                      items: dict[str, list[float]]) -> dict:
    """Span totals per campaign (median over campaigns) and probe percentiles."""
    def per_campaign(select) -> float:
        totals: dict[str, float] = {}
        for i, s in enumerate(tracer.spans):
            if s.campaign is not None and select(s.name):
                totals[s.campaign] = totals.get(s.campaign, 0.0) + (
                    tracer.self_time(i) if s.name == "cli.cmd_analyze" else s.duration)
        # A workload whose campaigns never make a call is measured on the
        # probe's CLI round trip instead (campaign id "probe").
        in_campaigns = [v for k, v in totals.items() if k != "probe"]
        return statistics.median(in_campaigns or [totals.get("probe", 0.0)])

    def span_s(name: str) -> float:
        return per_campaign(lambda n: n == name)

    def count(field: str) -> int:
        return int(statistics.median(getattr(c, field) for c in traced))

    def step_total(cs: list[Campaign]) -> float:
        return statistics.median(c.synth_s + c.analyze_s for c in cs)

    out = {}
    for key, name in [("parse_svc", "data.parse_svc_ms"), ("read", "data.read_ms"),
                      ("serialize_svc", "data.serialize_svc_ms"),
                      ("recording_init", "data.recording_init_ms"),
                      ("generate_recording", "synth.generate_recording_ms"),
                      ("ranksum", "stats.ranksum_ms")]:
        p50, p90 = _p50_p90(items[key], 1e3)
        out[f"{name}.p50"] = _metric(p50, "ms")
        out[f"{name}.p90"] = _metric(p90, "ms")
    out["data.parse_svc_mb_per_s"] = _metric(
        sum(items["parse_bytes"]) / sum(items["parse_svc"]) / 1e6, "MB/s")
    out["data.load_dataset_s"] = _metric(span_s("data.load_dataset"), "s")
    out["data.files_read"] = _metric(count("files"), "count")
    out["data.bytes_read"] = _metric(count("bytes"), "bytes")
    out["data.write_dataset_s"] = _metric(span_s("data.write_dataset"), "s")
    out["data.bytes_written"] = _metric(count("bytes"), "bytes")
    out["synth.generate_dataset_s"] = _metric(span_s("synth.generate_dataset"), "s")
    out["synth.recordings"] = _metric(count("recordings"), "count")
    out["stats.pairwise_session_tests_s"] = _metric(span_s("stats.pairwise_session_tests"), "s")
    out["stats.tests_exact"] = _metric(count("tests_exact"), "count")
    out["stats.tests_normal"] = _metric(count("tests_normal"), "count")
    out["report.aggregate_s"] = _metric(span_s("report.aggregate"), "s")
    out["report.render_s"] = _metric(per_campaign(lambda n: n.startswith("report.render_")), "s")
    out["cli.write_outputs_s"] = _metric(span_s("cli.cmd_analyze"), "s")
    out["trace.overhead_frac"] = _metric(step_total(traced) / step_total(untraced) - 1.0,
                                         "fraction")
    return out


def _fs_type(path: Path) -> str:
    path_s = os.path.realpath(path)
    best, fs = "", "unknown"
    with open("/proc/self/mounts") as mounts:
        for line in mounts:
            fields = line.split()
            mount = fields[1].replace("\\040", " ")
            inside = path_s == mount or path_s.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, fs = mount, fields[2]
    return fs


def facts(workload: Workload, workdir: Path, campaigns: list[Campaign], gauge: Gauge) -> dict:
    first = campaigns[0]
    return {
        "workload": workload.name,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "data_fs_type": _fs_type(workdir),
        "campaigns": len(campaigns),
        "campaign_synth_analyze_wall_s": [[c.synth_wall_s, c.analyze_wall_s]
                                          for c in campaigns],
        "campaign_synth_analyze_s": [[c.synth_s, c.analyze_s] for c in campaigns],
        "gauge_ms": {"mean": statistics.fmean(gauge.times) * 1e3,
                     "min": min(gauge.times) * 1e3, "samples": len(gauge.times)},
        "files_per_campaign": first.files,
        "bytes_per_campaign": first.bytes,
        "samples_per_campaign": first.samples,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in (ROOT / "src").rglob("*.py")),
    }


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
                  work_parent: Path) -> tuple[dict, dict, list[dict]]:
    """Set up, run campaigns for ``seconds`` and return (result, facts, spans).

    With ``trace`` the first half of the time runs untraced and the second
    half traced, followed by the per-item probe; the result then carries the
    per-layer metrics instead of the end-to-end ones.
    """
    work_parent.mkdir(parents=True, exist_ok=True)
    tracer, gauge = Tracer(), Gauge()
    setup_times, golden_ok, workdir = [], True, None
    for _ in range(SETUP_REPEATS):
        if workdir is not None:
            shutil.rmtree(workdir)
        dt, workdir, ok = setup(workload, work_parent, gauge)
        setup_times.append(dt)
        golden_ok = golden_ok and ok
    outcomes = [golden_ok]
    try:
        if not trace:
            campaigns = run_campaigns(workload, seed, seconds, workdir, gauge)
            metrics = end_to_end_metrics(setup_times, campaigns)
        else:
            untraced = run_campaigns(workload, seed, seconds / 2, workdir, gauge)
            traced = run_campaigns(workload, seed + len(untraced), seconds / 2, workdir,
                                   gauge, tracer)
            if not workload.on_disk:
                # The campaigns make no file or CLI calls: one traced CLI round
                # trip of the same shape measures those layers.
                tracer.campaign = "probe"
                round_trip = replace(workload, on_disk=True)
                outcomes.append(run_campaign(round_trip, seed, workdir, tracer).ok)
            items = probe(workload, traced[0].seed, workdir)
            campaigns = untraced + traced
            metrics = per_layer_metrics(tracer, traced, untraced, items)
        run_facts = facts(workload, workdir, campaigns, gauge)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    outcomes += [c.ok for c in campaigns]
    failed = outcomes.count(False)
    result = {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
              "metrics": metrics}
    return result, run_facts, tracer.to_json()
