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

where N = n_a + n_b and t runs over tie-group sizes of the pooled values.
The two-sided exact p-value is min(1, 2 min(P(W <= w), P(W >= w))), both
tails including the observed value.

The exact tails come from the shift-convolution dynamic programme of
Streitberg & Roehmel (1986) over doubled mid-ranks (integers even under
ties), restricted to the smaller tail: ranks are reflected about the null
mean when the observed sum lies above it, only sums up to the observed one
are tabulated, and each rank updates just the rows and columns that can
still contribute.  The counts are exact int64 integers, at most
C(64, 32) < 2**63, so the p-value equals the full table's bit for bit.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Literal, Mapping, Sequence

import numpy as np

# Maximum pooled size for which the exact distribution is used by default.
DEFAULT_EXACT_THRESHOLD = 25

# Largest pooled size of the exact path, whose int64 subset counts stay at or
# below C(64, 32) < 2**63; ``ranksum`` uses the normal approximation above it.
_EXACT_HARD_LIMIT = 64

# Canonical column order of the pairwise session comparisons.
SESSION_PAIRS = ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3),
                 (2, 4), (2, 5), (3, 4), (3, 5), (4, 5))

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
    (i + j) / 2.  The output always sums to n(n+1)/2.
    """
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-d series, got shape {a.shape}")
    if a.size == 0:
        raise ValueError("cannot rank an empty series")
    order = np.argsort(a, kind="stable")
    s = a[order]
    boundary = np.empty(a.size, dtype=bool)
    boundary[0] = True
    boundary[1:] = s[1:] != s[:-1]
    starts = np.flatnonzero(boundary)
    counts = np.diff(np.append(starts, a.size))
    group_rank = starts + (counts + 1) / 2.0
    ranks = np.empty(a.size, dtype=np.float64)
    ranks[order] = np.repeat(group_rank, counts)
    return ranks


def _validate_two_samples(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("samples must be 1-d series")
    return a, b


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
    a, b = _validate_two_samples(a, b)
    n_a, n_b = a.size, b.size
    if n_a + n_b > _EXACT_HARD_LIMIT:
        raise ValueError(f"exact method supports at most {_EXACT_HARD_LIMIT} pooled values")
    ranks = midranks(np.concatenate([a, b]))
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    w2 = int(doubled[:n_a].sum())
    tail = _smaller_tail_count(doubled, n_a, w2)
    p = min(1.0, 2.0 * tail / math.comb(n_a + n_b, n_a))
    return RankSumResult(rank_sum=w2 / 2.0, p_value=p, method="exact", n_a=n_a, n_b=n_b)


def ranksum_normal(a, b) -> RankSumResult:
    """Normal-approximation two-sided rank-sum test (tie and continuity
    corrected; see module docstring for the exact formulas)."""
    a, b = _validate_two_samples(a, b)
    n_a, n_b = a.size, b.size
    n = n_a + n_b
    pooled = np.concatenate([a, b])
    ranks = midranks(pooled)
    w = float(ranks[:n_a].sum())
    mu = n_a * (n + 1) / 2.0

    _, tie_sizes = np.unique(pooled, return_counts=True)
    tie_term = float(np.sum(tie_sizes.astype(np.float64) ** 3 - tie_sizes))
    var = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0.0:
        return RankSumResult(rank_sum=w, p_value=1.0, method="normal_approx",
                             n_a=n_a, n_b=n_b)
    z = max(abs(w - mu) - 0.5, 0.0) / math.sqrt(var)
    p = min(1.0, math.erfc(z / math.sqrt(2.0)))
    return RankSumResult(rank_sum=w, p_value=p, method="normal_approx",
                         n_a=n_a, n_b=n_b)


def ranksum(a, b, exact_threshold: int = DEFAULT_EXACT_THRESHOLD) -> RankSumResult:
    """Two-sided rank-sum test, exact for pooled sizes up to
    ``min(exact_threshold, 64)`` and normal-approximated above."""
    if np.size(a) + np.size(b) <= min(exact_threshold, _EXACT_HARD_LIMIT):
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
    """
    results: list[TestResult] = []
    skipped = 0
    tasks = sorted({task for task, _ in values_by_cell})
    for task in tasks:
        cells = {session: np.asarray(values_by_cell[(task, session)], dtype=np.float64)
                 for t, session in values_by_cell if t == task}
        for session_a, session_b in SESSION_PAIRS:
            va = cells.get(session_a)
            vb = cells.get(session_b)
            if va is None or va.size == 0 or vb is None or vb.size == 0:
                skipped += 1
                continue
            r = ranksum(va, vb, exact_threshold=exact_threshold)
            results.append(TestResult(task_id=task, session_a=session_a,
                                      session_b=session_b, **vars(r)))
    if skipped:
        warnings.warn(f"skipping {skipped} session pairs with no data for one or "
                      "both sessions", UserWarning, stacklevel=2)
    if results and all(r.n_a < 2 and r.n_b < 2 for r in results):
        warnings.warn("fewer than 2 subjects per cell, p-values are degenerate",
                      UserWarning, stacklevel=2)
    return results
