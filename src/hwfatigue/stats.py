"""Two-sided Wilcoxon rank-sum (Mann-Whitney) test with mid-rank ties.

The statistic is W, the sum of the pooled mid-ranks of the first sample.
Pooled sizes up to the exact threshold (never above 64) use the exact
permutation distribution of W conditional on the observed tie pattern;
larger sizes use the tie-corrected, continuity-corrected normal
approximation:

    mu_W    = n_a (n_a + n_b + 1) / 2
    sigma_W = sqrt( n_a n_b / 12 * ( (N + 1) - sum(t^3 - t) / (N (N - 1)) ) )
    z       = (|W - mu_W| - 0.5)_+ / sigma_W        (0.5 toward the mean)
    p       = 2 Phi(-z)

where N = n_a + n_b and t runs over the tie-group sizes of the pooled
values.  One sort gives both tests their ranks, as integer doubled mid-ranks,
and those sizes; NaN, which has no place in the order, raises ValueError.
The two-sided exact p-value is min(1, 2 min(P(W <= w), P(W >= w))), both
tails including the observed value.

The exact tails come from the shift-convolution dynamic programme of
Streitberg & Roehmel (1986) over doubled mid-ranks (integers even under
ties), restricted to the smaller tail: ranks are reflected about the null
mean when the observed sum lies above it, only sums up to the observed one
are tabulated, and each rank updates just the rows and columns that can
still contribute.  The counts are exact int64 integers, at most
C(64, 32) < 2**63, so the p-value equals the full table's bit for bit.

:func:`pairwise_session_tests` forks over the CPUs, one test per unit, only
when its exact tests add up to ``_FAN_OUT_COST``; see
:func:`hwfatigue.data._fan_out` for how.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Literal, Mapping, Sequence

import numpy as np

from .data import SESSIONS, TASKS, _fan_out, _int_in

# Maximum pooled size for which the exact distribution is used by default.
DEFAULT_EXACT_THRESHOLD = 25


def _check_exact_threshold(exact_threshold) -> int:
    """``exact_threshold`` as an int; ValueError unless an integer >= 0."""
    return _int_in("exact_threshold", exact_threshold, 0)


# Largest pooled size of the exact path, whose int64 subset counts stay at or
# below C(64, 32) < 2**63; ``ranksum`` uses the normal approximation above it.
_EXACT_HARD_LIMIT = 64

# Summed cube of the pooled sizes of one call's exact tests from which
# ``pairwise_session_tests`` spreads them over the CPUs: about 20 tests at
# pooled size 64.  Measured on a 2-vCPU Xeon (Python 3.11, numpy 2.4): one
# exact test takes 0.16 ms at N = 24, 0.27 ms at 32 and 1.55 ms at 64; a
# ``_fan_out`` of two trivial units, whose children report through their
# shared file alone, takes 3.1-4.3 ms from a bare interpreter and 3.1-4.3 ms
# holding a 53 MB heap (medians of 31, three runs; the host runs in a fast
# and a slow mode).  Holding that heap, 64-value tests broke even at about
# 10 per call (12-16 ms inline) and saved 10-22 ms at 30 (35-46 ms inline).
# From N = 24 to 64 the cost grows more slowly than N**3, so smaller tests
# must add up to more work than 64-value ones before they fork: the bound
# forks only where the fork clearly pays.
_FAN_OUT_COST = 20 * 64 ** 3

# Canonical column order of the pairwise session comparisons.
SESSION_PAIRS = tuple(itertools.combinations(SESSIONS, 2))

Method = Literal["exact", "normal_approx"]


@dataclass(frozen=True)
class RankSumResult:
    """Outcome of one two-sample comparison."""

    rank_sum: float
    p_value: float
    method: Method
    n_a: int
    n_b: int


@dataclass(frozen=True)
class TestResult(RankSumResult):
    """A rank-sum comparison of one session pair within one task."""

    __test__ = False  # keep pytest from collecting this despite the name

    task_id: int
    session_a: int
    session_b: int


def midranks(values) -> np.ndarray:
    """Ranks of ``values`` with ties averaged (mid-ranks).

    Ranks are 1-based; a tie group occupying rank positions i..j receives
    (i + j) / 2.  The output always sums to n(n+1)/2.  NaN raises ValueError.
    """
    return _doubled_midranks(values)[0] / 2.0


def _doubled_midranks(*samples) -> tuple[np.ndarray, np.ndarray]:
    """Twice the mid-ranks of the pooled ``samples``, first sample first, as
    int64, and the sizes of their tie groups: the one ranking pass of every
    rank-sum function.  A group of ``size`` values from 0-based sorted
    position ``start`` gets ``2 * start + size + 1``.  ValueError unless
    each sample is a non-empty 1-d series without NaN."""
    arrays = [np.asarray(x, dtype=np.float64) for x in samples]
    if any(x.ndim != 1 or x.size == 0 for x in arrays):
        raise ValueError("samples must be non-empty 1-d series")
    pooled = np.concatenate(arrays)
    order = np.argsort(pooled, kind="stable")
    s = pooled[order]
    if np.isnan(s[-1]):  # NaN sorts last
        raise ValueError("cannot rank NaN")
    starts = np.flatnonzero(np.append(True, s[1:] != s[:-1]))
    sizes = np.diff(np.append(starts, s.size))
    doubled = np.empty(s.size, dtype=np.int64)
    doubled[order] = np.repeat(2 * starts + sizes + 1, sizes)
    return doubled, sizes


def _smaller_tail_count(doubled: np.ndarray, k: int, w2: int) -> int:
    """min(#{S: W2(S) <= w2}, #{S: W2(S) >= w2}) over the k-subsets S of the
    pooled positions, where W2(S) sums the doubled mid-ranks in S.

    Reflecting every rank d to 2(N+1) - d maps the upper tail onto a lower
    one, so after the reflection only sums up to ``w2`` are counted: one
    shift-convolution table of k+1 rows and w2+1 columns, built over the
    ranks in ascending order.  Each rank updates one rectangle of the table
    in a single numpy slice (ufunc overlap handling reads the previous
    rank's rows), bounded to the rows that can still reach k and to the
    columns between the smallest and largest sums those rows can hold.
    Counts are exact int64 integers: none exceeds C(N, k) <= C(64, 32).
    """
    n = doubled.size
    if w2 > k * (n + 1):  # above the null mean: the lower tail is the upper one
        doubled = 2 * (n + 1) - doubled
        w2 = 2 * k * (n + 1) - w2
    ranks = np.sort(doubled).tolist()
    prefix = [0, *itertools.accumulate(ranks)]
    dp = np.zeros((k + 1, w2 + 1), dtype=np.int64)
    dp[0, 0] = 1
    for i, r in enumerate(ranks):
        lo, hi = max(1, k - (n - i - 1)), min(i + 1, k)
        c0, c1 = max(r, prefix[lo]), min(w2, prefix[i + 1])
        if c0 <= c1:
            dp[lo:hi + 1, c0:c1 + 1] += dp[lo - 1:hi, c0 - r:c1 + 1 - r]
    at_or_below = int(dp[k].sum())
    at_or_above = math.comb(n, k) - (at_or_below - int(dp[k, w2]))
    return min(at_or_below, at_or_above)


def ranksum_exact(a, b) -> RankSumResult:
    """Exact two-sided rank-sum test.

    Counts (via dynamic programming) the C(n_a+n_b, n_a) equally likely
    assignments of the pooled mid-ranks to the first sample, so the result
    is permutation-exact conditional on the observed tie pattern.  Pooled
    sizes above 64 raise ``ValueError``.
    """
    doubled, _ = _doubled_midranks(a, b)
    n_a, n_b = len(a), len(b)
    if n_a + n_b > _EXACT_HARD_LIMIT:
        raise ValueError(f"exact method supports at most {_EXACT_HARD_LIMIT} pooled values")
    w2 = int(doubled[:n_a].sum())
    tail = _smaller_tail_count(doubled, n_a, w2)
    p = min(1.0, 2.0 * tail / math.comb(n_a + n_b, n_a))
    return RankSumResult(rank_sum=w2 / 2.0, p_value=p, method="exact", n_a=n_a, n_b=n_b)


def ranksum_normal(a, b) -> RankSumResult:
    """Normal-approximation two-sided rank-sum test (tie and continuity
    corrected; see module docstring for the exact formulas)."""
    doubled, tie_sizes = _doubled_midranks(a, b)
    n_a, n_b = len(a), len(b)
    n = n_a + n_b
    w = int(doubled[:n_a].sum()) / 2.0
    mu = n_a * (n + 1) / 2.0
    tie_term = float(np.sum(tie_sizes.astype(np.float64) ** 3 - tie_sizes))
    var = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0.0:
        p = 1.0
    else:
        z = max(abs(w - mu) - 0.5, 0.0) / math.sqrt(var)
        p = min(1.0, math.erfc(z / math.sqrt(2.0)))
    return RankSumResult(rank_sum=w, p_value=p, method="normal_approx", n_a=n_a, n_b=n_b)


def _uses_exact(pooled_size: int, exact_threshold: int) -> bool:
    return pooled_size <= min(exact_threshold, _EXACT_HARD_LIMIT)


def ranksum(a, b, exact_threshold: int = DEFAULT_EXACT_THRESHOLD) -> RankSumResult:
    """Two-sided rank-sum test, exact for pooled sizes up to
    ``min(exact_threshold, 64)`` and normal-approximated above."""
    if _uses_exact(np.size(a) + np.size(b), _check_exact_threshold(exact_threshold)):
        return ranksum_exact(a, b)
    return ranksum_normal(a, b)


def pairwise_session_tests(
    values_by_cell: Mapping[tuple[int, int], Sequence[float]],
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
) -> list[TestResult]:
    """All pairwise session comparisons, per task.

    ``values_by_cell`` maps (task_id, session_id) to the per-subject feature
    values of that cell.  For every task present, one comparison is emitted
    per session pair in :data:`SESSION_PAIRS` order (10 pairs when all five
    sessions have data).  Pairs whose cells lack values are skipped, and one
    ``UserWarning`` per call gives their count.  A second ``UserWarning``
    says the p-values are degenerate when every tested cell holds fewer than
    2 values.

    Each session-pair test is one :func:`ranksum` call.  When the exact
    tests' summed cost (the cubes of their pooled sizes) reaches
    ``_FAN_OUT_COST``, every test runs as one unit of
    :func:`hwfatigue.data._fan_out`; below it they run in the calling
    process.  Either way the results, the warnings and the error raised
    (the first failing test in output order) are those of a one-process
    loop, whatever the process count.  A bad ``exact_threshold`` is refused
    first, then the first key (in sorted order) whose task is not in
    :data:`TASKS` or whose session is not in :data:`SESSIONS`.
    """
    exact_threshold = _check_exact_threshold(exact_threshold)
    outside = next((key for key in sorted(values_by_cell)
                    if key[0] not in TASKS or key[1] not in SESSIONS), None)
    if outside is not None:
        raise ValueError(f"cell {outside} lies outside the layout: tasks {TASKS}, "
                         f"sessions {SESSIONS}")
    pairs = []  # (task, session_a, session_b, values_a, values_b) in output order
    skipped = 0
    for task in sorted({task for task, _ in values_by_cell}):
        cells = {session: np.asarray(values_by_cell[(task, session)], dtype=np.float64)
                 for t, session in values_by_cell if t == task}
        for session_a, session_b in SESSION_PAIRS:
            va, vb = cells.get(session_a), cells.get(session_b)
            if va is None or va.size == 0 or vb is None or vb.size == 0:
                skipped += 1
                continue
            pairs.append((task, session_a, session_b, va, vb))

    def compare(pair):
        task, session_a, session_b, va, vb = pair
        return TestResult(task_id=task, session_a=session_a, session_b=session_b,
                          **vars(ranksum(va, vb, exact_threshold)))

    sizes = (va.size + vb.size for *_, va, vb in pairs)
    cost = sum(n ** 3 for n in sizes if _uses_exact(n, exact_threshold))
    results = _fan_out(compare, pairs) if cost >= _FAN_OUT_COST else list(map(compare, pairs))
    if skipped:
        warnings.warn(f"skipping {skipped} session pairs with no data for one or "
                      "both sessions", UserWarning, stacklevel=2)
    if results and all(r.n_a < 2 and r.n_b < 2 for r in results):
        warnings.warn("fewer than 2 subjects per cell, p-values are degenerate",
                      UserWarning, stacklevel=2)
    return results
