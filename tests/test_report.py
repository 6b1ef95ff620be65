import csv
import hashlib
import io
import math

import numpy as np
import pytest

from hwfatigue.cli import analyze_dataset
from hwfatigue.data import Dataset
from hwfatigue.report import (FeatureGrid, SessionTaskSummary, aggregate,
                              recording_feature, render_fig_data_csv,
                              render_fig_data_json, render_table1_csv,
                              render_table1_json, render_table2_csv,
                              render_table2_json)
from hwfatigue.stats import SESSION_PAIRS, TestResult, pairwise_session_tests
from hwfatigue.synth import SynthConfig, generate_dataset

from oracles import mean_by_summation

from test_data import make_recording


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def small_dataset(n_subjects=4, samples=60, seed=2):
    return generate_dataset(SynthConfig(
        n_subjects=n_subjects, samples_per_recording=samples, seed=seed))


class TestSessionTaskSummary:
    def test_known_values(self):
        s = SessionTaskSummary.from_values(1, 1, [100, 200, 300])
        assert s.mean == 200.0
        assert s.std == 100.0
        assert s.n == 3
        assert s.values == (100.0, 200.0, 300.0)

    def test_sample_std_uses_n_minus_one(self):
        s = SessionTaskSummary.from_values(1, 1, [0.0, 2.0])
        assert s.std == pytest.approx(math.sqrt(2.0))

    def test_single_value(self):
        s = SessionTaskSummary.from_values(2, 3, [7.5])
        assert s.mean == 7.5
        assert s.std is None
        assert s.n == 1

    def test_empty_cell(self):
        s = SessionTaskSummary.from_values(2, 3, [])
        assert s.mean is None
        assert s.std is None
        assert s.n == 0

    def test_mean_matches_summation_oracle(self):
        rng = np.random.default_rng(40)
        values = rng.normal(500, 100, 21).tolist()
        s = SessionTaskSummary.from_values(1, 1, values)
        assert s.mean == pytest.approx(mean_by_summation(values), rel=1e-12)


class TestAggregate:
    def test_grid_shape(self):
        grid = aggregate(small_dataset(), "saturation_ratio")
        assert grid.feature == "saturation_ratio"
        assert len(grid.cells) == 45
        assert set(grid.cells) == {(t, s) for t in range(1, 10)
                                   for s in range(1, 6)}

    def test_cell_counts_match_subjects(self):
        grid = aggregate(small_dataset(n_subjects=4), "mean_pressure")
        assert all(cell.n == 4 for cell in grid.cells.values())

    def test_values_ordered_by_subject(self):
        dataset = small_dataset(n_subjects=3)
        grid = aggregate(dataset, "mean_pressure")
        cell = grid.cell(5, 2)
        expected = tuple(recording_feature(dataset.get(subject, 2, 5), "mean_pressure")
                         for subject in (1, 2, 3))
        assert cell.values == expected

    def test_missing_recordings_shrink_cells(self):
        dataset = small_dataset(n_subjects=3)
        partial = Dataset()
        for key in dataset.keys():
            if key == (2, 4, 7):
                continue
            partial.add(dataset.get(*key))
        grid = aggregate(partial, "saturation_ratio")
        assert grid.cell(7, 4).n == 2
        assert grid.cell(7, 3).n == 3

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            aggregate(Dataset(), "saturation_ratio")

    def test_unknown_feature_rejected(self):
        with pytest.raises(ValueError, match="unknown feature"):
            recording_feature(make_recording(), "median_pressure")

    def test_values_by_cell_round_trip(self):
        grid = aggregate(small_dataset(), "saturation_ratio")
        by_cell = grid.values_by_cell()
        assert by_cell[(1, 1)] == grid.cell(1, 1).values


class TestTable1:
    def test_csv_shape(self):
        grid = aggregate(small_dataset(), "mean_pressure")
        rows = parse_csv(render_table1_csv(grid))
        assert rows[0] == ["session"] + [f"T{t}" for t in range(1, 10)]
        assert len(rows) == 6
        assert [r[0] for r in rows[1:]] == ["1", "2", "3", "4", "5"]

    def test_csv_cells_are_rounded_std(self):
        grid = aggregate(small_dataset(), "mean_pressure")
        rows = parse_csv(render_table1_csv(grid))
        for si, session in enumerate(range(1, 6)):
            for ti, task in enumerate(range(1, 10)):
                cell = grid.cell(task, session)
                assert rows[1 + si][1 + ti] == str(round(cell.std))

    def test_csv_empty_for_undefined_std(self):
        dataset = Dataset()
        dataset.add(make_recording(subject=1, session=1, task=1))
        grid = aggregate(dataset, "mean_pressure")
        rows = parse_csv(render_table1_csv(grid))
        assert all(v == "" for row in rows[1:] for v in row[1:])

    def test_json_full_precision_and_counts(self):
        grid = aggregate(small_dataset(), "mean_pressure")
        doc = render_table1_json(grid)
        assert doc["schema_version"] == 1
        assert doc["artifact"] == "table1"
        assert len(doc["rows"]) == 5
        row3 = doc["rows"][2]
        assert row3["session"] == 3
        assert row3["std"]["T4"] == grid.cell(4, 3).std
        assert row3["n"]["T4"] == grid.cell(4, 3).n

    def test_json_null_for_undefined(self):
        dataset = Dataset()
        dataset.add(make_recording(subject=1, session=2, task=3))
        grid = aggregate(dataset, "mean_pressure")
        doc = render_table1_json(grid)
        assert doc["rows"][1]["std"]["T3"] is None
        assert doc["rows"][1]["n"]["T3"] == 1


def grid_results(dataset, feature="saturation_ratio"):
    grid = aggregate(dataset, feature)
    return grid, pairwise_session_tests(grid.values_by_cell())


class TestTable2:
    def test_csv_shape(self):
        _, results = grid_results(small_dataset())
        rows = parse_csv(render_table2_csv(results))
        labels = [f"S{a}-S{b}" for a, b in SESSION_PAIRS]
        assert rows[0] == ["task"] + labels + ["significant"]
        assert len(rows) == 10
        assert [r[0] for r in rows[1:]] == [str(t) for t in range(1, 10)]

    def test_csv_three_decimals(self):
        _, results = grid_results(small_dataset())
        rows = parse_csv(render_table2_csv(results))
        for row in rows[1:]:
            for cell in row[1:11]:
                assert cell == "" or (len(cell.split(".")[1]) == 3)

    def test_flags_match_alpha(self):
        _, results = grid_results(small_dataset(n_subjects=8, samples=400))
        alpha = 0.05
        rows = parse_csv(render_table2_csv(results, alpha=alpha))
        by_cell = {(r.task_id, r.session_a, r.session_b): r for r in results}
        for row in rows[1:]:
            task = int(row[0])
            expected = [f"S{a}-S{b}" for a, b in SESSION_PAIRS
                        if by_cell[(task, a, b)].p_value < alpha]
            flagged = row[11].split(";") if row[11] else []
            assert flagged == expected

    def test_alpha_changes_flags(self):
        _, results = grid_results(small_dataset(n_subjects=8, samples=400))
        strict = parse_csv(render_table2_csv(results, alpha=1e-9))
        assert all(row[11] == "" for row in strict[1:])

    def test_missing_pair_left_empty(self):
        _, results = grid_results(small_dataset(n_subjects=3))
        dropped = [r for r in results
                   if not (r.task_id == 2 and (r.session_a, r.session_b) == (1, 5))]
        rows = parse_csv(render_table2_csv(dropped))
        assert rows[2][4] == ""
        assert rows[1][4] != ""

    def test_json_cells(self):
        _, results = grid_results(small_dataset())
        doc = render_table2_json(results, alpha=0.05)
        assert doc["schema_version"] == 1
        assert doc["alpha"] == 0.05
        assert doc["pairs"][0] == "S1-S2"
        assert len(doc["rows"]) == 9
        cell = doc["rows"][0]["cells"]["S1-S2"]
        match = [r for r in results
                 if r.task_id == 1 and (r.session_a, r.session_b) == (1, 2)][0]
        assert cell["p_value"] == match.p_value
        assert cell["rank_sum"] == match.rank_sum
        assert cell["method"] == match.method
        assert cell["significant"] == (match.p_value < 0.05)

    def test_json_null_for_missing_pair(self):
        doc = render_table2_json([])
        assert all(cell is None
                   for row in doc["rows"] for cell in row["cells"].values())


class TestFigData:
    def test_csv_shape_and_order(self):
        grid = aggregate(small_dataset(), "saturation_ratio")
        rows = parse_csv(render_fig_data_csv(grid))
        assert rows[0] == ["task", "session", "mean", "std", "n", "ratio_vs_s1"]
        assert len(rows) == 46
        keys = [(int(r[0]), int(r[1])) for r in rows[1:]]
        assert keys == [(t, s) for t in range(1, 10) for s in range(1, 6)]

    def test_csv_full_precision(self):
        grid = aggregate(small_dataset(), "saturation_ratio")
        rows = parse_csv(render_fig_data_csv(grid))
        for row in rows[1:]:
            task, session = int(row[0]), int(row[1])
            cell = grid.cell(task, session)
            assert float(row[2]) == cell.mean
            assert float(row[3]) == cell.std
            assert int(row[4]) == cell.n

    def test_ratio_definition(self):
        grid = aggregate(small_dataset(), "saturation_ratio")
        doc = render_fig_data_json(grid)
        for entry in doc["rows"]:
            baseline = grid.cell(entry["task"], 1).mean
            expected = entry["mean"] / baseline
            assert entry["ratio_vs_s1"] == pytest.approx(expected, rel=1e-12)

    def test_ratio_is_one_at_session_one(self):
        grid = aggregate(small_dataset(), "mean_pressure")
        doc = render_fig_data_json(grid)
        for entry in doc["rows"]:
            if entry["session"] == 1:
                assert entry["ratio_vs_s1"] == 1.0

    def test_ratio_null_without_baseline(self):
        dataset = Dataset()
        dataset.add(make_recording(subject=1, session=2, task=1))
        grid = aggregate(dataset, "mean_pressure")
        doc = render_fig_data_json(grid)
        for entry in doc["rows"]:
            assert entry["ratio_vs_s1"] is None

    def test_empty_cells_render_empty_strings(self):
        dataset = Dataset()
        dataset.add(make_recording(subject=1, session=1, task=1))
        grid = aggregate(dataset, "mean_pressure")
        rows = parse_csv(render_fig_data_csv(grid))
        row_for_t9_s5 = rows[-1]
        assert row_for_t9_s5[:2] == ["9", "5"]
        assert row_for_t9_s5[2] == ""
        assert row_for_t9_s5[4] == "0"

    def test_fatigue_sessions_visible_in_ratio(self):
        grid = aggregate(small_dataset(n_subjects=6, samples=800), "saturation_ratio")
        doc = render_fig_data_json(grid)
        by_key = {(e["task"], e["session"]): e for e in doc["rows"]}
        # injected effect: high-variation task, fatigue session vs first session
        assert by_key[(1, 4)]["ratio_vs_s1"] > 2.0
        assert by_key[(4, 4)]["ratio_vs_s1"] < 2.0


class TestCsvConventions:
    def test_lf_line_endings(self):
        grid = aggregate(small_dataset(), "mean_pressure")
        for text in (render_table1_csv(grid), render_fig_data_csv(grid)):
            assert "\r" not in text
            assert text.endswith("\n")


class TestPinnedArtifacts:
    """Pinned sha256 of the six artifacts, and the summary lines, of a sparse
    campaign: subject 3 skipped session 4, only subject 1 did task 2 in
    session 3 (empty std) and nobody did task 6 in session 1 (skipped pairs,
    no mean, no ratio).  alpha = 0.25 so that pairs are flagged."""

    DIGESTS = {
        "fig4_data.csv": "1569473eafd8a69427d5bb9906f3e4a6cc5d92d66251c79e3fc38fd2960de6cf",
        "fig5_data.csv": "d53d73a6be40f2085a841bccf505d7c8b4306be16f9e860b49b0563b42e1a891",
        "table1.csv": "2fd723720a7946c7081726487db79e0ff38c8c01697949cbcb855ef8f7fe1aea",
        "table1.json": "c15858033019a5e952d5f6436e400e4c70d7db6388bbc57e5a5bad89b9194a3c",
        "table2.csv": "62ce1c7a11c449fc3785d5cf5117528fe1ca259f9693f2ee684fe702456babef",
        "table2.json": "d4f524c4fb7e5f4e3704f29e85c394407f71a4963eae2ddf85c9b6af9f19d62a",
    }
    SUMMARY = [
        "task 1: significant (p < 0.25): S1-S4, S1-S5, S2-S4, S2-S5, S3-S4, S3-S5",
        "task 2: significant (p < 0.25): S1-S4, S1-S5, S2-S4, S2-S5",
        "task 3: significant (p < 0.25): S1-S4, S1-S5, S2-S4, S2-S5, S3-S4, S3-S5, S4-S5",
        "task 4: no significant pairs at alpha=0.25",
        "task 5: significant (p < 0.25): S1-S4, S1-S5, S2-S4, S2-S5, S3-S4, S3-S5, S4-S5",
        "task 6: significant (p < 0.25): S2-S4, S4-S5",
        "task 7: significant (p < 0.25): S1-S4, S2-S4",
        "task 8: no significant pairs at alpha=0.25",
        "task 9: no significant pairs at alpha=0.25",
    ]

    @staticmethod
    def kept(r):
        return not ((r.subject_id, r.session_id) == (3, 4)
                    or (r.task_id, r.session_id) == (2, 3) and r.subject_id != 1
                    or (r.task_id, r.session_id) == (6, 1))

    def test_sparse_campaign_digests(self):
        full = small_dataset(n_subjects=3, samples=120, seed=13)
        dataset = Dataset(r for r in full if self.kept(r))
        with pytest.warns(UserWarning, match="skipping 4 session pairs"):
            outputs, results, summary = analyze_dataset(dataset, alpha=0.25)
        assert len(dataset) == 121 and len(results) == 86
        assert {name: hashlib.sha256(text.encode()).hexdigest()
                for name, text in outputs.items()} == self.DIGESTS
        assert summary == self.SUMMARY
