"""Independent brute-force reference implementations used only by tests.

Everything here deliberately avoids the library's own code paths: counting
is plain Python loops, ranking is the O(n^2) definition, and the exact
rank-sum tail probabilities come from enumerating every subset assignment.
The reference synthetic generator shares only the stream key and the task
curves with the library; it draws and shapes one recording at a time, with
one ``normal`` call per channel.  The reference SVC writer is Python's
``%d`` formatting of every sample.  The reference layout walk is ``os.walk``
over names spelled out here, and the grid cells are summed and squared in
loops.  The aggregation oracle is the loop the batched ``aggregate``
replaced, with its own per-recording formulas rather than the library's
feature kernel: a ``>=`` count over the size, and the 1-d float64
``np.mean``, one recording at a time, then the 1-d ``np.mean``/``np.std``
one cell at a time, so that a bit-for-bit match shows the batching changed
no sum.
"""

from __future__ import annotations

import itertools
import math
import os

import numpy as np

from hwfatigue.data import SESSIONS, TASKS, Recording
from hwfatigue.synth import (_ALTITUDE_BASE, _ALTITUDE_SD, _AZIMUTH_BASE, _AZIMUTH_SD,
                             _COORD_CENTER, _COORD_NOISE_SD, _COORD_SCALE, _PRESSURE_MEAN,
                             _PRESSURE_SD, _TIMESTAMP_STEP_MS, SynthConfig, _stream_key,
                             _task_curve)

_combo_cache: dict[tuple[int, int], np.ndarray] = {}


def count_at_or_above(values, level) -> int:
    """Loop-and-compare saturation count."""
    count = 0
    for v in values:
        if v >= level:
            count += 1
    return count


def saturation_ratio_by_loop(values, level) -> float:
    return count_at_or_above(values, level) / len(values)


def mean_by_summation(values) -> float:
    """Running-sum mean, exact for integer inputs."""
    total = 0
    for v in values:
        total += v
    return total / len(values)


def cell_mean_std(values) -> tuple[float | None, float | None]:
    """(mean, std) of one grid cell's values: the mean by summation, None
    for an empty cell; the sample standard deviation (n - 1 denominator) by
    a loop, None below two values."""
    if len(values) < 1:
        return None, None
    mean = mean_by_summation(values)
    if len(values) < 2:
        return mean, None
    squares = 0.0
    for v in values:
        squares += (v - mean) ** 2
    return mean, math.sqrt(squares / (len(values) - 1))


def ratio_vs_baseline(mean, baseline) -> float | None:
    """``mean / baseline``; None when either is undefined or the baseline is zero."""
    if mean is None or baseline is None or baseline == 0.0:
        return None
    return mean / baseline


def feature_by_recording(recording: Recording, feature: str) -> float:
    """``feature`` of one recording: the share of its pressures at or above
    its ceiling, or the 1-d float64 mean of its pressures."""
    p = recording.pressure
    if feature == "saturation_ratio":
        return np.count_nonzero(p >= recording.device.max_level) / p.size
    return float(np.asarray(p, dtype=np.float64).mean())


def aggregate_by_recording(dataset, feature: str) -> dict:
    """``(values, n, mean, std)`` per (task, session) cell of ``feature``,
    keyed and ordered as ``aggregate``'s cells: the values in subject order,
    the mean None for an empty cell and the n-1 std None below two values."""
    collected = {(task, session): [] for task in TASKS for session in SESSIONS}
    for recording in dataset:
        collected[(recording.task_id, recording.session_id)].append(
            feature_by_recording(recording, feature))
    return {key: (tuple(values), len(values),
                  float(np.mean(values)) if len(values) >= 1 else None,
                  float(np.std(values, ddof=1)) if len(values) >= 2 else None)
            for key, values in collected.items()}


def layout_keys(root) -> list[tuple[int, int, int]]:
    """Sorted (subject, session, task) of every file under ``root`` named
    ``subject<NN>/session<S>/task<T>.svc``, NN from 01 to 99, S from 1 to 5
    and T from 1 to 9, found by ``os.walk``."""
    subjects = {"subject%02d" % s: s for s in range(1, 100)}
    sessions = {"session%d" % s: s for s in range(1, 6)}
    tasks = {"task%d.svc" % t: t for t in range(1, 10)}
    keys = []
    for dirpath, _, filenames in os.walk(root):
        parts = os.path.relpath(dirpath, root).split(os.sep)
        if len(parts) == 2 and parts[0] in subjects and parts[1] in sessions:
            keys += [(subjects[parts[0]], sessions[parts[1]], tasks[name])
                     for name in filenames if name in tasks]
    return sorted(keys)


def doubled_midranks(pooled) -> list[int]:
    """Mid-ranks times two, from the counting definition.

    2 * rank(v) = 2 * #(u < v) + #(u == v) + 1, an integer even under ties.
    """
    out = []
    for v in pooled:
        less = sum(1 for u in pooled if u < v)
        equal = sum(1 for u in pooled if u == v)
        out.append(2 * less + equal + 1)
    return out


def _subset_indices(n: int, k: int) -> np.ndarray:
    if (n, k) not in _combo_cache:
        _combo_cache[(n, k)] = np.array(
            list(itertools.combinations(range(n), k)), dtype=np.intp)
    return _combo_cache[(n, k)]


def exact_ranksum_p_by_enumeration(a, b) -> float:
    """Two-sided exact rank-sum p-value by full subset enumeration.

    Tallies the rank sum of every C(n_a+n_b, n_a) assignment of the pooled
    mid-ranks; both tails include the observed value.
    """
    pooled = list(a) + list(b)
    n_a = len(a)
    doubled = np.array(doubled_midranks(pooled), dtype=np.int64)
    observed = int(doubled[:n_a].sum())
    sums = doubled[_subset_indices(len(pooled), n_a)].sum(axis=1)
    total = sums.size
    lower = int(np.count_nonzero(sums <= observed))
    upper = int(np.count_nonzero(sums >= observed))
    return min(1.0, 2.0 * min(lower, upper) / total)


class SvcReject(Exception):
    """Raised by :func:`parse_svc_by_lines`; ``line`` is the 1-based file line
    of the first fault (None when the text has no header at all)."""

    def __init__(self, line):
        super().__init__(f"line {line}")
        self.line = line


_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1


def _ascii_int(token: str):
    """Value of an ASCII ``[+-]?[0-9]+`` token, or None."""
    digits = token[1:] if token[:1] in ("+", "-") else token
    if not digits or any(c not in "0123456789" for c in digits):
        return None
    value = 0
    for c in digits:
        value = value * 10 + "0123456789".index(c)
    return -value if token[0] == "-" else value


def _split_blanks(line: str) -> list[str]:
    """Tokens of ``line`` separated by runs of spaces and tabs."""
    tokens, current = [], ""
    for c in line:
        if c in " \t":
            if current:
                tokens.append(current)
            current = ""
        else:
            current += c
    if current:
        tokens.append(current)
    return tokens


def parse_svc_by_lines(text: str, max_level: int) -> list[list[int]]:
    """Reference SVC parser: one loop over the lines, checking each line
    completely (columns, tokens, int64 range, pen status, pressure, a
    timestamp not below the previous row's) before the next.  The header
    declares at least one sample.  A CR is part of a line ending only
    directly before an LF; lines holding only spaces and tabs are blank and
    skipped."""
    lines = text.split("\n")
    numbered = []
    for i, line in enumerate(lines, start=1):
        if i < len(lines) and line.endswith("\r"):
            line = line[:-1]
        tokens = _split_blanks(line)
        if tokens:
            numbered.append((i, tokens))
    if not numbered:
        raise SvcReject(None)
    header_line, header = numbered[0]
    declared = _ascii_int(header[0]) if len(header) == 1 else None
    if declared is None or declared < 1 or declared != len(numbered) - 1:
        raise SvcReject(header_line)
    rows = []
    for line_no, tokens in numbered[1:]:
        values = [_ascii_int(t) for t in tokens]
        if (len(values) != 7 or None in values
                or any(not _INT64_MIN <= v <= _INT64_MAX for v in values)
                or values[3] not in (0, 1) or not 0 <= values[6] <= max_level
                or (rows and values[2] < rows[-1][2])):
            raise SvcReject(line_no)
        rows.append(values)
    return rows


def svc_text_by_format(samples) -> str:
    """Reference SVC writer: the sample count, then one ``%d`` row per
    sample with single spaces and an LF."""
    rows = np.asarray(samples)
    row_format = " ".join(["%d"] * rows.shape[1]) + "\n"
    return f"{len(rows)}\n" + (row_format * len(rows)) % tuple(rows.ravel().tolist())


def full_table_ranksum(a, b) -> tuple[float, float]:
    """(p_value, rank_sum) of the exact two-sided rank-sum test from the
    complete shift-convolution table of Streitberg & Roehmel (1986).

    Row kk of the table counts the kk-subsets of the pooled positions by
    their doubled mid-rank sum, over every sum from 0 to the total; each
    rank updates every row from k down to 1.  Same int64 counts and float
    expression as the library's tail-only kernel, so results compare with
    ``==``.
    """
    pooled = np.concatenate([np.asarray(a, dtype=np.float64),
                             np.asarray(b, dtype=np.float64)])
    k = len(a)
    doubled = np.array(doubled_midranks(pooled.tolist()), dtype=np.int64)
    w2 = int(doubled[:k].sum())
    total_sum = int(doubled.sum())
    dp = np.zeros((k + 1, total_sum + 1), dtype=np.int64)
    dp[0, 0] = 1
    for r in doubled.tolist():
        for kk in range(k, 0, -1):
            dp[kk, r:] += dp[kk - 1, : total_sum + 1 - r]
    counts = dp[k]
    total = int(counts.sum())
    lower = int(counts[: w2 + 1].sum())
    upper = int(counts[w2:].sum())
    return min(1.0, 2.0 * min(lower, upper) / total), w2 / 2.0


def generate_recording_reference(config: SynthConfig, subject_id: int, session_id: int,
                                 task_id: int) -> Recording:
    """Generate one recording, deterministic in (seed, subject, session, task)."""
    if not 1 <= subject_id <= config.n_subjects:
        raise ValueError(f"subject_id must be in 1..{config.n_subjects}, got {subject_id}")
    if session_id not in SESSIONS:
        raise ValueError(f"session_id must be in 1..5, got {session_id}")
    if task_id not in TASKS:
        raise ValueError(f"task_id must be in 1..9, got {task_id}")

    n = config.samples_per_recording
    device = config.device
    rng = np.random.Generator(np.random.Philox(
        key=_stream_key(config.seed, subject_id, session_id, task_id)))

    p_sat = config.saturation_probability(session_id, task_id)
    saturated = rng.random(n) < p_sat
    base = np.rint(rng.normal(_PRESSURE_MEAN, _PRESSURE_SD, n))
    base = np.clip(base, 1, device.max_level - 1).astype(np.int64)
    pressure = np.where(saturated, device.max_level, base)

    t = np.linspace(0.0, 1.0, n)
    cx, cy = _task_curve(task_id, t)
    x = np.rint(_COORD_CENTER[0] + _COORD_SCALE * cx
                + rng.normal(0.0, _COORD_NOISE_SD, n)).astype(np.int64)
    y = np.rint(_COORD_CENTER[1] + _COORD_SCALE * cy
                + rng.normal(0.0, _COORD_NOISE_SD, n)).astype(np.int64)

    azimuth = np.clip(np.rint(_AZIMUTH_BASE + rng.normal(0.0, _AZIMUTH_SD, n)),
                      0, 3599).astype(np.int64)
    altitude = np.clip(np.rint(_ALTITUDE_BASE + rng.normal(0.0, _ALTITUDE_SD, n)),
                       300, 900).astype(np.int64)
    timestamps = np.arange(n, dtype=np.int64) * _TIMESTAMP_STEP_MS
    pen_status = np.ones(n, dtype=np.int64)

    samples = np.column_stack([x, y, timestamps, pen_status, azimuth, altitude, pressure])
    return Recording(subject_id, session_id, task_id, samples, device)
