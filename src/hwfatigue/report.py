"""Cross-subject aggregation and table rendering.

Aggregates a per-recording feature over subjects into a 9 task x 5 session
grid, then renders three artifacts:

* table1 - per (session, task) standard deviation of mean pressure,
  5 session rows x 9 task columns;
* table2 - pairwise session p-values, 9 task rows x 10 pair columns, with
  cells below the significance threshold flagged;
* figure data - long-form (task, session, mean, std, n) rows, one per cell,
  plus the mean's ratio against session 1 of the same task.

Each ``render_*_json`` document alone decides what its artifact holds, at
full precision with a ``schema_version`` field; the matching CSV renderer
takes that document and only formats its rows (RFC-4180, LF endings; table1
rounded to integers, table2 to three decimals).  Every number is
recomputable from the ``values`` list of the underlying cell.

:func:`aggregate` computes no feature and reads no sample: it collects per
cell the features each recording carries (:func:`hwfatigue.data._features_of`).
Cells holding equally many values are stacked for their mean and std, row
by row as in that kernel, so every value keeps the bits of its 1-d reduction.
"""

from __future__ import annotations

import csv
import io
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .data import Dataset, FeatureName, SESSIONS, TASKS, _check_feature, _real
from .stats import SESSION_PAIRS, TestResult

SCHEMA_VERSION = 1
DEFAULT_ALPHA = 0.05  # significance level of table2 unless the caller picks one
DEFAULT_FEATURE = "saturation_ratio"  # feature table2 tests unless the caller picks one


@dataclass(frozen=True)
class SessionTaskSummary:
    """Cross-subject aggregate of one (task, session) cell.

    ``std`` is the sample standard deviation (n-1 denominator), undefined
    below two values; ``mean`` is undefined for an empty cell.
    """

    task_id: int
    session_id: int
    values: tuple[float, ...]
    n: int
    mean: float | None
    std: float | None


def _summaries(collected: dict[tuple[int, int], list[float]]
               ) -> dict[tuple[int, int], SessionTaskSummary]:
    """A summary per (task, session) key of ``collected``, in its order;
    the cells holding equally many values are reduced as one stack."""
    by_count = defaultdict(list)
    for key, values in collected.items():
        by_count[len(values)].append(key)
    mean_std = {}
    for n, keys in by_count.items():
        stack = np.array([collected[key] for key in keys], dtype=np.float64)
        means = stack.mean(axis=1).tolist() if n >= 1 else [None] * len(keys)
        stds = stack.std(axis=1, ddof=1).tolist() if n >= 2 else [None] * len(keys)
        mean_std.update(zip(keys, zip(means, stds)))
    return {key: SessionTaskSummary(key[0], key[1], tuple(values), len(values), *mean_std[key])
            for key, values in collected.items()}


@dataclass(frozen=True)
class FeatureGrid:
    """All 45 (task, session) summaries for one feature."""

    feature: FeatureName
    cells: dict[tuple[int, int], SessionTaskSummary]

    def cell(self, task_id: int, session_id: int) -> SessionTaskSummary:
        return self.cells[(task_id, session_id)]

    def values_by_cell(self) -> dict[tuple[int, int], tuple[float, ...]]:
        return {key: summary.values for key, summary in self.cells.items()}


def aggregate(dataset: Dataset, feature: FeatureName) -> FeatureGrid:
    """Collect the feature per (task, session) over all subjects present.

    Values are ordered by subject id.  Cells with no recordings yield n = 0
    summaries; a session a subject skipped is simply absent from that cell.
    Each value is the one its recording computed when it was built.
    """
    _check_feature(feature)
    if len(dataset) == 0:
        raise ValueError("cannot aggregate an empty dataset")
    collected: dict[tuple[int, int], list[float]] = {
        (task, session): [] for task in TASKS for session in SESSIONS}
    for recording in dataset:
        collected[(recording.task_id, recording.session_id)].append(
            recording._features[feature])
    return FeatureGrid(feature=feature, cells=_summaries(collected))


def _csv_text(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _fmt_full(value: int | float | None) -> str:
    return "" if value is None else repr(value)


def render_table1_csv(doc: dict) -> str:
    """The :func:`render_table1_json` ``doc`` as 5 session rows x 9 task columns.

    Cells are rounded to whole device levels; a cell with fewer than two
    subjects is left empty.
    """
    rows = [["session"] + [f"T{t}" for t in TASKS]]
    for row in doc["rows"]:
        rows.append([str(row["session"])] + ["" if std is None else str(round(std))
                                             for std in row["std"].values()])
    return _csv_text(rows)


def render_table1_json(grid: FeatureGrid) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "artifact": "table1",
        "feature": grid.feature,
        "rows": [
            {
                "session": session,
                "std": {f"T{t}": grid.cell(t, session).std for t in TASKS},
                "n": {f"T{t}": grid.cell(t, session).n for t in TASKS},
            }
            for session in SESSIONS
        ],
    }


def _check_alpha(alpha: float) -> float:
    """``alpha`` as a plain float if it is a real number in (0, 1);
    ValueError naming ``alpha`` otherwise, NaN and a string included."""
    value = _real("alpha", alpha)
    if not 0.0 < value < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return value


def significant_labels(row: dict) -> list[str]:
    """Pair labels of a table2 document row whose cells are flagged
    significant, in :data:`SESSION_PAIRS` order."""
    return [label for label, cell in row["cells"].items()
            if cell is not None and cell["significant"]]


def render_table2_csv(doc: dict) -> str:
    """The :func:`render_table2_json` ``doc`` as 9 task rows x 10 session-pair columns.

    p-values are shown to three decimals; the trailing ``significant``
    column lists the pair labels the document flags.  Pairs without a
    result are left empty.
    """
    rows = [["task"] + doc["pairs"] + ["significant"]]
    for row in doc["rows"]:
        rows.append([str(row["task"])]
                    + ["" if cell is None else f"{cell['p_value']:.3f}"
                       for cell in row["cells"].values()]
                    + [";".join(significant_labels(row))])
    return _csv_text(rows)


def render_table2_json(results: list[TestResult], alpha: float = DEFAULT_ALPHA) -> dict:
    """Pairwise p-values at full precision, ``significant`` below ``alpha``;
    ValueError for an ``alpha`` outside (0, 1) or NaN, before any rendering."""
    alpha = _check_alpha(alpha)
    by_cell = {(r.task_id, r.session_a, r.session_b): r for r in results}
    labels = [f"S{a}-S{b}" for a, b in SESSION_PAIRS]
    out_rows = []
    for task in TASKS:
        cells = {}
        for label, (a, b) in zip(labels, SESSION_PAIRS):
            r = by_cell.get((task, a, b))
            cells[label] = None if r is None else {
                "p_value": r.p_value,
                "significant": r.p_value < alpha,
                "rank_sum": r.rank_sum,
                "method": r.method,
                "n_a": r.n_a,
                "n_b": r.n_b,
            }
        out_rows.append({"task": task, "cells": cells})
    return {
        "schema_version": SCHEMA_VERSION,
        "artifact": "table2",
        "alpha": alpha,
        "pairs": labels,
        "rows": out_rows,
    }


def _ratio_vs_s1(grid: FeatureGrid, task: int, session: int) -> float | None:
    mean = grid.cell(task, session).mean
    baseline = grid.cell(task, 1).mean
    if mean is None or baseline is None or baseline == 0.0:
        return None
    return mean / baseline


_FIG_COLUMNS = ("task", "session", "mean", "std", "n", "ratio_vs_s1")


def render_fig_data_csv(doc: dict) -> str:
    """The :func:`render_fig_data_json` ``doc`` as 45 task-major rows, floats in full.

    ``ratio_vs_s1`` compares each session's mean against session 1 of the
    same task, the quickest way to spot a fatigue-session increase.
    """
    rows = [_FIG_COLUMNS] + [[_fmt_full(entry[column]) for column in _FIG_COLUMNS]
                             for entry in doc["rows"]]
    return _csv_text(rows)


def render_fig_data_json(grid: FeatureGrid) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "artifact": "figure_data",
        "feature": grid.feature,
        "rows": [
            {
                "task": task,
                "session": session,
                "mean": grid.cell(task, session).mean,
                "std": grid.cell(task, session).std,
                "n": grid.cell(task, session).n,
                "ratio_vs_s1": _ratio_vs_s1(grid, task, session),
            }
            for task in TASKS
            for session in SESSIONS
        ],
    }
