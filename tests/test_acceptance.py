"""Acceptance suite: one test per shipping criterion.

Each test prints a single [C#] PASS/FAIL line with its measured numbers,
visible even under pytest's output capture.  Criteria with a runtime budget
assert on wall-clock time measured inside the test.
"""

import csv
import io
import json
import math
import time

import numpy as np
import pytest

from hwfatigue.cli import ANALYZE_OUTPUTS, analyze_dataset, main
from hwfatigue.data import load_dataset, write_dataset
from hwfatigue.features import extract_features, first_difference, saturation_ratio
from hwfatigue.report import (aggregate, render_fig_data_json, render_table1_csv,
                              render_table1_json, render_table2_csv,
                              render_table2_json)
from hwfatigue.stats import (SESSION_PAIRS, pairwise_session_tests, ranksum,
                             ranksum_exact, ranksum_normal)
from hwfatigue.synth import SynthConfig, generate_dataset

from oracles import exact_ranksum_p_by_enumeration, saturation_ratio_by_loop


def report(capsys, cid: str, text: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"[{cid}] {text}: {'PASS' if ok else 'FAIL'}", flush=True)


def test_c1_saturation_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    mismatches = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 5001))
        values = rng.integers(0, 1024, n)
        level = int(rng.integers(1, 1024))
        if saturation_ratio(values, level) != \
                saturation_ratio_by_loop(values.tolist(), level):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 5.0
    report(capsys, "C1",
           f"saturation ratio == loop oracle on 10000 vectors "
           f"({mismatches} mismatches, {elapsed:.2f} s)", ok)
    assert mismatches == 0
    assert elapsed < 5.0, f"took {elapsed:.2f} s, budget 5 s"


def test_c2_exact_ranksum_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20230823)
    max_diff = 0.0
    checked = 0
    for n_a in range(1, 9):
        for n_b in range(1, 9):
            for _ in range(200):
                # small alphabet so nearly every instance carries ties
                a = rng.integers(0, 4, n_a).tolist()
                b = rng.integers(0, 4, n_b).tolist()
                got = ranksum_exact(a, b).p_value
                want = exact_ranksum_p_by_enumeration(a, b)
                max_diff = max(max_diff, abs(got - want))
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = max_diff <= 1e-12 and elapsed < 60.0
    report(capsys, "C2",
           f"exact p == enumeration oracle on {checked} tied instances "
           f"(max diff {max_diff:.2e}, {elapsed:.1f} s)", ok)
    assert max_diff <= 1e-12
    assert elapsed < 60.0, f"took {elapsed:.1f} s, budget 60 s"


def test_c3_normal_approximation_quality(capsys):
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        exact = ranksum_exact(a, b).p_value
        approx = ranksum_normal(a, b).p_value
        worst = max(worst, abs(exact - approx))
    ok = worst < 0.02
    report(capsys, "C3",
           f"|exact - normal| on 100 12v12 instances (worst {worst:.4f})", ok)
    assert worst < 0.02


def test_c4_null_calibration(capsys):
    hits = 0
    for i in range(1000):
        rng = np.random.Generator(np.random.Philox(key=i))
        a = rng.normal(size=21)
        b = rng.normal(size=21)
        if ranksum(a, b).p_value < 0.05:
            hits += 1
    fraction = hits / 1000
    ok = 0.03 <= fraction <= 0.07
    report(capsys, "C4",
           f"null rejection rate at alpha=0.05 over 1000 draws ({fraction:.3f})", ok)
    assert 0.03 <= fraction <= 0.07


def test_c5_end_to_end_effect_reproduction(capsys, tmp_path):
    t0 = time.perf_counter()
    high_tasks = (1, 2, 3, 5)
    low_tasks = (4, 6, 7, 8, 9)
    high_hits = {t: 0 for t in high_tasks}
    low_hits = {t: 0 for t in low_tasks}
    seed0_outputs = None
    for seed in range(100):
        dataset = generate_dataset(SynthConfig(seed=seed))
        outputs, results, _ = analyze_dataset(dataset)
        if seed == 0:
            seed0_outputs = outputs
        p = {(r.task_id, r.session_a, r.session_b): r.p_value for r in results}
        for t in high_tasks:
            if p[(t, 1, 4)] < 0.05:
                high_hits[t] += 1
        for t in low_tasks:
            if p[(t, 1, 2)] >= 0.05:
                low_hits[t] += 1

    # the same seed through the command line must agree with the in-memory run
    ds_dir, res_dir = tmp_path / "ds", tmp_path / "res"
    assert main(["synth", "--output", str(ds_dir), "--seed", "0"]) == 0
    assert main(["analyze", "--input", str(ds_dir), "--output", str(res_dir)]) == 0
    capsys.readouterr()
    cli_agrees = all((res_dir / name).read_text() == seed0_outputs[name]
                     for name in ANALYZE_OUTPUTS)

    elapsed = time.perf_counter() - t0
    high_ok = all(v >= 90 for v in high_hits.values())
    low_ok = all(v >= 85 for v in low_hits.values())
    ok = high_ok and low_ok and cli_agrees and elapsed < 300.0
    report(capsys, "C5",
           f"S1-S4 significant on tasks {high_tasks} in {sorted(high_hits.values())}/100, "
           f"S1-S2 null kept on tasks {low_tasks} in {sorted(low_hits.values())}/100, "
           f"CLI route agrees: {cli_agrees} ({elapsed:.0f} s)", ok)
    assert high_ok, f"S1-S4 detection counts {high_hits} (need >= 90 each)"
    assert low_ok, f"S1-S2 retention counts {low_hits} (need >= 85 each)"
    assert cli_agrees
    assert elapsed < 300.0, f"took {elapsed:.0f} s, budget 300 s"


def test_c6_first_difference_invariants(capsys):
    rng = np.random.default_rng(6)
    worst_tel = 0.0
    worst_lin = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 400))
        f = rng.normal(0.0, 100.0, n)
        g = rng.normal(0.0, 100.0, n)
        d = first_difference(f)
        worst_tel = max(worst_tel, abs(d.sum() - (f[-1] - f[0])))
        lin = first_difference(2.0 * f + 3.0 * g) - (
            2.0 * first_difference(f) + 3.0 * first_difference(g))
        worst_lin = max(worst_lin, float(np.max(np.abs(lin))))
    example_ok = first_difference([1, 3, 6]).tolist() == [2.0, 3.0]
    ok = worst_tel <= 1e-9 and worst_lin <= 1e-9 and example_ok
    report(capsys, "C6",
           f"first difference telescoping {worst_tel:.1e}, linearity {worst_lin:.1e}, "
           f"[1,3,6]->[2,3]: {example_ok}", ok)
    assert worst_tel <= 1e-9
    assert worst_lin <= 1e-9
    assert example_ok


def test_c7_round_trip_features(capsys, tmp_path):
    exact = True
    for seed in range(10):
        config = SynthConfig(n_subjects=3, samples_per_recording=250, seed=seed)
        dataset = generate_dataset(config)
        root = tmp_path / f"seed{seed}"
        write_dataset(dataset, root)
        loaded = load_dataset(root, config.device)
        if loaded.keys() != dataset.keys():
            exact = False
            break
        for key in dataset.keys():
            a = extract_features(dataset.get(*key))
            b = extract_features(loaded.get(*key))
            if not (a.saturation_ratio == b.saturation_ratio
                    and a.mean_pressure == b.mean_pressure
                    and a.n_samples == b.n_samples
                    and np.array_equal(a.speed_x, b.speed_x)
                    and np.array_equal(a.speed_y, b.speed_y)):
                exact = False
    report(capsys, "C7",
           "synth -> files -> load -> features bit-identical over 10 seeds", exact)
    assert exact


def test_c8_table_shapes_and_json_precision(capsys):
    dataset = generate_dataset(SynthConfig(n_subjects=5, samples_per_recording=150,
                                           seed=8))
    grid_sat = aggregate(dataset, "saturation_ratio")
    grid_mp = aggregate(dataset, "mean_pressure")
    results = pairwise_session_tests(grid_sat.values_by_cell())

    t2 = list(csv.reader(io.StringIO(render_table2_csv(render_table2_json(results)))))
    labels = [f"S{a}-S{b}" for a, b in SESSION_PAIRS]
    t2_ok = (len(t2) == 10 and t2[0][1:11] == labels
             and [r[0] for r in t2[1:]] == [str(t) for t in range(1, 10)]
             and all(len(r) == 12 for r in t2))

    t1 = list(csv.reader(io.StringIO(render_table1_csv(render_table1_json(grid_mp)))))
    t1_ok = (len(t1) == 6 and len(t1[0]) == 10
             and [r[0] for r in t1[1:]] == ["1", "2", "3", "4", "5"]
             and all(len(r) == 10 for r in t1))

    # every JSON number must be recomputable from the raw cell values
    worst = 0.0
    doc1 = render_table1_json(grid_mp)
    for row in doc1["rows"]:
        session = row["session"]
        for task in range(1, 10):
            values = grid_mp.cell(task, session).values
            mean = sum(values) / len(values)
            std = math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))
            worst = max(worst, abs(row["std"][f"T{task}"] - std))

    docf = render_fig_data_json(grid_sat)
    for entry in docf["rows"]:
        values = grid_sat.cell(entry["task"], entry["session"]).values
        mean = sum(values) / len(values)
        base_values = grid_sat.cell(entry["task"], 1).values
        base = sum(base_values) / len(base_values)
        worst = max(worst, abs(entry["mean"] - mean))
        worst = max(worst, abs(entry["ratio_vs_s1"] - mean / base))

    doc2 = render_table2_json(results)
    for row in doc2["rows"]:
        for (a, b) in SESSION_PAIRS:
            cell = row["cells"][f"S{a}-S{b}"]
            redo = ranksum(grid_sat.cell(row["task"], a).values,
                           grid_sat.cell(row["task"], b).values)
            worst = max(worst, abs(cell["p_value"] - redo.p_value))

    ok = t2_ok and t1_ok and worst <= 1e-9
    report(capsys, "C8",
           f"table2 9x10, table1 5x9, JSON recompute max diff {worst:.1e}", ok)
    assert t2_ok
    assert t1_ok
    assert worst <= 1e-9


def test_c9_byte_identical_cli_runs(capsys, tmp_path):
    synth = ["synth", "--seed", "5", "--subjects", "2", "--samples", "120"]
    trees = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(synth + ["--output", str(out)]) == 0
        trees.append({str(p.relative_to(out)): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    synth_ok = trees[0] == trees[1]

    analyses = []
    for name in ("ra", "rb"):
        res = tmp_path / name
        assert main(["analyze", "--input", str(tmp_path / "a"),
                     "--output", str(res)]) == 0
        analyses.append({p.name: p.read_bytes() for p in res.iterdir()})
    capsys.readouterr()
    analyze_ok = analyses[0] == analyses[1] and \
        sorted(analyses[0]) == sorted(ANALYZE_OUTPUTS)

    ok = synth_ok and analyze_ok
    report(capsys, "C9",
           f"synth byte-identical: {synth_ok}, analyze byte-identical: {analyze_ok}",
           ok)
    assert synth_ok
    assert analyze_ok
