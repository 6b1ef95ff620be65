import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hwfatigue.stats import (SESSION_PAIRS, midranks, pairwise_session_tests,
                             ranksum, ranksum_exact, ranksum_normal)

from oracles import (doubled_midranks, exact_ranksum_p_by_enumeration,
                     full_table_ranksum)


@st.composite
def pooled_samples(draw):
    """Two samples with 2 <= n_a + n_b <= 64 and any split, drawn as heavily
    tied small-integer alphabets, continuous values, or (nearly) separated
    samples whose rank sum lies in the far tails."""
    n = draw(st.integers(2, 64))
    n_a = draw(st.integers(1, n - 1))
    kind = draw(st.sampled_from(("tied", "continuous", "separated")))
    if kind == "tied":
        alphabet = draw(st.integers(1, 4))
        values = draw(st.lists(st.integers(0, alphabet - 1), min_size=n, max_size=n))
    elif kind == "continuous":
        values = draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False),
                               min_size=n, max_size=n))
    else:
        values = sorted(draw(st.lists(st.integers(0, 30), min_size=n, max_size=n)))
        if draw(st.booleans()):
            values.reverse()
        swap = draw(st.integers(0, n - 1))
        values[0], values[swap] = values[swap], values[0]
    return values[:n_a], values[n_a:]


class TestMidranks:
    def test_simple_tie(self):
        assert midranks([10, 20, 20, 30]).tolist() == [1.0, 2.5, 2.5, 4.0]

    def test_singleton(self):
        assert midranks([7]).tolist() == [1.0]

    def test_all_tied(self):
        assert midranks([5, 5, 5]).tolist() == [2.0, 2.0, 2.0]

    def test_reversed_input(self):
        assert midranks([3, 2, 1]).tolist() == [3.0, 2.0, 1.0]

    def test_sum_invariant(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            values = rng.integers(0, 6, n)
            assert midranks(values).sum() == pytest.approx(n * (n + 1) / 2)

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            values = rng.integers(0, 5, n).tolist()
            expected = np.array(doubled_midranks(values)) / 2.0
            assert np.array_equal(midranks(values), expected)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(0, 5), min_size=1, max_size=200),
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=200)))
    def test_matches_scipy_rankdata(self, values):
        stats = pytest.importorskip("scipy.stats")
        assert np.array_equal(midranks(values), stats.rankdata(values, method="average"))


class TestExact:
    def test_three_vs_three_extreme(self):
        # 20 equally likely splits; only the observed one has W <= 6
        r = ranksum_exact([1, 2, 3], [4, 5, 6])
        assert r.rank_sum == 6.0
        assert r.p_value == pytest.approx(0.1, abs=1e-15)
        assert r.method == "exact"

    def test_two_vs_two_extreme(self):
        r = ranksum_exact([1, 2], [3, 4])
        assert r.p_value == pytest.approx(1 / 3, abs=1e-15)

    def test_all_tied_is_certain(self):
        r = ranksum_exact([5, 5], [5, 5])
        assert r.p_value == 1.0
        assert r.rank_sum == 5.0

    def test_matches_enumeration_oracle_with_ties(self):
        rng = np.random.default_rng(23)
        for _ in range(150):
            n_a = int(rng.integers(1, 7))
            n_b = int(rng.integers(1, 7))
            a = rng.integers(0, 4, n_a).tolist()
            b = rng.integers(0, 4, n_b).tolist()
            got = ranksum_exact(a, b).p_value
            want = exact_ranksum_p_by_enumeration(a, b)
            assert got == pytest.approx(want, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(pooled_samples())
    @example(([3] * 40, [3] * 24))
    @example((list(range(32)), list(range(32, 64))))
    @example((list(range(63, 23, -1)), list(range(24))))
    @example(([0, 1] * 31 + [1], [0]))
    def test_matches_full_table_oracle(self, samples):
        a, b = samples
        got = ranksum_exact(a, b)
        assert (got.p_value, got.rank_sum) == full_table_ranksum(a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 64).flatmap(lambda n: st.tuples(
        st.integers(1, n - 1),
        st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n, unique=True))))
    def test_matches_scipy_without_ties(self, split_values):
        stats = pytest.importorskip("scipy.stats")
        n_a, values = split_values
        a, b = values[:n_a], values[n_a:]
        want = stats.mannwhitneyu(a, b, method="exact", alternative="two-sided").pvalue
        assert ranksum_exact(a, b).p_value == pytest.approx(want, rel=1e-12, abs=0)

    def test_pooled_size_above_hard_limit_rejected(self):
        with pytest.raises(ValueError, match="at most 64"):
            ranksum_exact(list(range(40)), list(range(25)))

    def test_symmetry_under_swap(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            a = rng.normal(size=5).tolist()
            b = rng.normal(size=7).tolist()
            assert ranksum_exact(a, b).p_value == \
                pytest.approx(ranksum_exact(b, a).p_value, abs=1e-12)


class TestNormalApprox:
    @settings(max_examples=300, deadline=None)
    @given(pooled_samples().filter(lambda ab: len(set(ab[0] + ab[1])) > 1))
    @example(([0, 0, 0, 1, 1], [0, 1, 1, 1, 1]))
    @example((list(range(40)), list(range(40, 100))))
    def test_matches_scipy_asymptotic_with_ties(self, samples):
        stats = pytest.importorskip("scipy.stats")
        a, b = samples
        want = stats.mannwhitneyu(a, b, method="asymptotic", use_continuity=True,
                                  alternative="two-sided").pvalue
        assert ranksum_normal(a, b).p_value == pytest.approx(want, rel=1e-12, abs=0)

    def test_centered_statistic_has_p_one(self):
        # symmetric arrangement: W equals its null mean
        r = ranksum_normal([1, 4], [2, 3])
        assert r.p_value == 1.0

    def test_all_identical_zero_variance(self):
        r = ranksum_normal([3] * 8, [3] * 8)
        assert r.p_value == 1.0
        assert r.method == "normal_approx"

    def test_clear_separation_is_significant(self):
        a = list(range(1, 11))
        b = list(range(11, 21))
        r = ranksum_normal(a, b)
        assert r.p_value < 0.001
        exact = ranksum_exact(a, b)
        assert abs(r.p_value - exact.p_value) < 0.001

    def test_tie_correction_shrinks_variance(self):
        # heavy ties make the corrected p smaller than it would be untied;
        # sanity bound only: result must stay a probability
        r = ranksum_normal([0, 0, 0, 1, 1], [0, 1, 1, 1, 1])
        assert 0.0 <= r.p_value <= 1.0

    def test_symmetry_under_swap(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            a = rng.integers(0, 10, 15).tolist()
            b = rng.integers(0, 10, 12).tolist()
            assert ranksum_normal(a, b).p_value == \
                pytest.approx(ranksum_normal(b, a).p_value, abs=1e-12)


class TestDispatch:
    def test_small_samples_use_exact(self):
        assert ranksum([1, 2, 3], [4, 5, 6]).method == "exact"

    def test_large_samples_use_normal(self):
        rng = np.random.default_rng(26)
        r = ranksum(rng.normal(size=21), rng.normal(size=21))
        assert r.method == "normal_approx"
        assert r.n_a == 21 and r.n_b == 21

    def test_threshold_boundary(self):
        a, b = list(range(13)), list(range(12))
        assert ranksum(a, b).method == "exact"          # 25 <= 25
        assert ranksum(a + [99], b).method == "normal_approx"

    def test_threshold_above_hard_limit_falls_back_to_normal(self):
        assert ranksum(list(range(40)), list(range(24)), exact_threshold=100).method == "exact"
        r = ranksum(list(range(40)), list(range(25)), exact_threshold=100)
        assert r.method == "normal_approx"
        assert r.p_value == ranksum_normal(list(range(40)), list(range(25))).p_value

    def test_threshold_override(self):
        a, b = [1, 2, 3], [4, 5, 6]
        assert ranksum(a, b, exact_threshold=5).method == "normal_approx"

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ranksum([], [1, 2])
        with pytest.raises(ValueError):
            ranksum([1, 2], [])


class TestInvariances:
    def test_translation_invariance(self):
        rng = np.random.default_rng(27)
        for shift in (-1000, -3, 7, 250):
            a = rng.integers(0, 50, 9).tolist()
            b = rng.integers(0, 50, 8).tolist()
            base = ranksum(a, b)
            moved = ranksum([v + shift for v in a], [v + shift for v in b])
            assert moved.p_value == base.p_value
            assert moved.rank_sum == base.rank_sum

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(28)
        for _ in range(30):
            a = rng.integers(0, 30, 10).tolist()
            b = rng.integers(0, 30, 10).tolist()
            base = ranksum(a, b)
            scaled = ranksum([2 * v + 1 for v in a], [2 * v + 1 for v in b])
            cubed = ranksum([v ** 3 for v in a], [v ** 3 for v in b])
            assert scaled.p_value == base.p_value
            assert cubed.p_value == base.p_value

    def test_rank_sum_bounds(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n_a = int(rng.integers(1, 12))
            n_b = int(rng.integers(1, 12))
            r = ranksum(rng.integers(0, 8, n_a), rng.integers(0, 8, n_b))
            assert n_a * (n_a + 1) / 2 <= r.rank_sum
            assert r.rank_sum <= n_a * (n_a + 2 * n_b + 1) / 2


class TestPairwiseSessionTests:
    @staticmethod
    def full_grid(rng, tasks=range(1, 10), sessions=range(1, 6), n=6):
        return {(t, s): rng.normal(size=n).tolist()
                for t in tasks for s in sessions}

    def test_counts_and_order(self):
        cells = self.full_grid(np.random.default_rng(30))
        results = pairwise_session_tests(cells)
        assert len(results) == 9 * len(SESSION_PAIRS)
        for i, r in enumerate(results):
            task = i // len(SESSION_PAIRS) + 1
            pair = SESSION_PAIRS[i % len(SESSION_PAIRS)]
            assert r.task_id == task
            assert (r.session_a, r.session_b) == pair

    def test_missing_session_skipped_with_warning(self):
        cells = self.full_grid(np.random.default_rng(32), tasks=[2],
                               sessions=[1, 2, 3, 5])
        with pytest.warns(UserWarning) as caught:
            results = pairwise_session_tests(cells)
        assert len(results) == 6
        assert all(4 not in (r.session_a, r.session_b) for r in results)
        assert [str(w.message) for w in caught] == [
            "skipping 4 session pairs with no data for one or both sessions"]

    def test_single_value_cells_warn_degenerate(self):
        cells = self.full_grid(np.random.default_rng(35), tasks=[1, 2], n=1)
        with pytest.warns(UserWarning) as caught:
            results = pairwise_session_tests(cells)
        assert len(results) == 20
        assert [str(w.message) for w in caught] == [
            "fewer than 2 subjects per cell, p-values are degenerate"]

    def test_empty_cell_skipped(self):
        cells = self.full_grid(np.random.default_rng(33), tasks=[1])
        cells[(1, 5)] = []
        with pytest.warns(UserWarning):
            results = pairwise_session_tests(cells)
        assert len(results) == 6

    def test_identical_distributions_give_p_one(self):
        cells = {(1, s): [1.0, 2.0, 3.0] for s in range(1, 6)}
        results = pairwise_session_tests(cells)
        assert all(r.p_value == 1.0 for r in results)

    def test_threshold_passthrough(self):
        cells = self.full_grid(np.random.default_rng(34), tasks=[1], n=4)
        exact = pairwise_session_tests(cells)
        approx = pairwise_session_tests(cells, exact_threshold=3)
        assert all(r.method == "exact" for r in exact)
        assert all(r.method == "normal_approx" for r in approx)
