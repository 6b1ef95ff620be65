"""Independent exact two-sided rank-sum p-value with Python integers.

Shares no code with ``hwfatigue.stats``: doubled mid-ranks come from
counting, and the null distribution of the doubled rank sum is built by
shift-convolution of generating functions packed into one big integer per
subset size, one 64-bit slot per coefficient (C(n, k) < 2**64 for n <= 64).
"""

from __future__ import annotations

import math
from fractions import Fraction

_SLOT_BITS = 64
_MAX_POOLED = 64


def doubled_midranks(pooled: list[float]) -> list[int]:
    """Twice the 1-based mid-rank of each value: 2 * (#smaller) + #equal + 1."""
    return [2 * sum(v < x for v in pooled) + sum(v == x for v in pooled) + 1
            for x in pooled]


def exact_p_value(a, b) -> tuple[Fraction, Fraction]:
    """(rank sum W of ``a``, two-sided p = min(1, 2 min(P(W<=w), P(W>=w))))."""
    a, b = [float(v) for v in a], [float(v) for v in b]
    n_a, n = len(a), len(a) + len(b)
    if not 1 <= n_a < n <= _MAX_POOLED:
        raise ValueError(f"need non-empty samples with pooled size <= {_MAX_POOLED}")
    doubled = doubled_midranks(a + b)
    w2 = sum(doubled[:n_a])
    by_size = [1] + [0] * n_a  # by_size[k]: packed counts of k-subsets per doubled sum
    for r in doubled:
        shift = r * _SLOT_BITS
        for k in range(n_a, 0, -1):
            by_size[k] += by_size[k - 1] << shift
    packed = by_size[n_a]
    n_slots = sum(doubled) + 1
    raw = packed.to_bytes(n_slots * _SLOT_BITS // 8, "little")
    counts = [int.from_bytes(raw[i:i + 8], "little") for i in range(0, len(raw), 8)]
    total = math.comb(n, n_a)
    if sum(counts) != total:
        raise AssertionError("subset counts do not sum to C(n, n_a)")
    lower, upper = sum(counts[: w2 + 1]), sum(counts[w2:])
    return Fraction(w2, 2), min(Fraction(1), Fraction(2 * min(lower, upper), total))
