import multiprocessing
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hwfatigue import data, report, stats
from hwfatigue.stats import (SESSION_PAIRS, midranks, pairwise_session_tests,
                             ranksum, ranksum_exact, ranksum_normal)

from hwfatigue.synth import SynthConfig, generate_dataset

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


class TestNaN:
    """NaN has no place in the order, so every ranking refuses it; ranked as
    distinct values and counted as one tie it used to give p = 1.0."""

    NAN = float("nan")

    @pytest.mark.parametrize("a, b", [([NAN, NAN, 1, 2], [3, NAN, 0.5]), ([NAN], [1.0]),
                                      ([1.0, 2.0], [-NAN, 3.0])])
    def test_every_ranking_refuses_nan(self, a, b):
        for rank in (lambda: midranks(a + b), lambda: ranksum_exact(a, b),
                     lambda: ranksum_normal(a, b)):
            with pytest.raises(ValueError, match="^cannot rank NaN$"):
                rank()

    @pytest.mark.parametrize("exact_threshold", [0, 64])
    @pytest.mark.parametrize("processes", [1, 2])
    def test_pairwise_session_tests_refuse_nan(self, monkeypatch, exact_threshold, processes):
        monkeypatch.setattr(stats, "_FAN_OUT_COST", 0)
        monkeypatch.setattr(data, "_process_count", lambda: processes)
        cells = {(1, session): [0.1, 0.2, 0.3] for session in range(1, 6)}
        cells[(1, 4)] = [0.1, self.NAN, 0.3]
        with pytest.raises(ValueError, match="^cannot rank NaN$"):
            pairwise_session_tests(cells, exact_threshold=exact_threshold)


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

    @pytest.mark.parametrize("outside, first", [
        ({(10, 1), (10, 2)}, "(10, 1)"), ({(1, 7)}, "(1, 7)"), ({(0, 3), (2, 6)}, "(0, 3)")])
    def test_cells_outside_the_layout_refused(self, monkeypatch, outside, first):
        cells = self.full_grid(np.random.default_rng(36), tasks=[1, 2])
        cells.update((key, [1.0, 2.0]) for key in outside)
        monkeypatch.setattr(stats, "ranksum", pytest.fail)  # refused before any test
        with pytest.raises(ValueError, match=f"^cell {re.escape(first)} lies outside the layout"):
            pairwise_session_tests(cells)

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


def _sparse_grid(seed, n):
    """Cells of 1..n values for tasks 1-3, with session 4 of task 2 and
    session 1 of task 3 missing: 22 tested pairs, 8 skipped."""
    rng = np.random.default_rng(seed)
    return {(t, s): rng.normal(size=1 + (3 * t + s) % n).tolist()
            for t in (1, 2, 3) for s in range(1, 6) if (t, s) not in {(2, 4), (3, 1)}}


def _tests_and_warnings(cells, exact_threshold):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = pairwise_session_tests(cells, exact_threshold=exact_threshold)
    return results, [(w.category, str(w.message)) for w in caught]


def _fields(results):
    """Every field of every result, with each float as its exact bits."""
    return [{k: v.hex() if isinstance(v, float) else v for k, v in vars(r).items()}
            for r in results]


class TestFanOut:
    """``pairwise_session_tests`` gives the same results, warnings and
    errors whether its exact tests fan out or not, and whatever the process
    count; the bound is lowered so that small grids fan out, and the count
    is forced so that the forked path runs on a one-CPU host too."""

    @pytest.fixture()
    def processes(self, monkeypatch):
        return lambda n: monkeypatch.setattr(data, "_process_count", lambda: n)

    # Exact below pooled size 12, normal above; the second grid holds one
    # value per cell, so the degenerate-p warning joins the skipped-pairs one.
    GRIDS = [(_sparse_grid(40, 9), 12), (_sparse_grid(41, 1), 25)]

    @pytest.mark.parametrize("cells, exact_threshold", GRIDS, ids=["mixed", "degenerate"])
    def test_same_results_and_warnings_for_any_count(self, processes, monkeypatch,
                                                     cells, exact_threshold):
        inline = _tests_and_warnings(cells, exact_threshold)
        results, caught = inline
        assert len(results) == 22
        assert {r.method for r in results} == ({"exact", "normal_approx"}
                                               if exact_threshold == 12 else {"exact"})
        assert caught[0] == (UserWarning, "skipping 8 session pairs with no data for "
                                          "one or both sessions")
        monkeypatch.setattr(stats, "_FAN_OUT_COST", 0)
        for n in (1, 2, 3):
            processes(n)
            fanned, fanned_caught = _tests_and_warnings(cells, exact_threshold)
            assert multiprocessing.active_children() == []
            assert _fields(fanned) == _fields(results)
            assert fanned_caught == caught

    @pytest.mark.parametrize("unit", [1, 0], ids=["child", "caller"])
    def test_fault_in_one_test_matches_one_process(self, processes, monkeypatch, tmp_path,
                                                   unit):
        # Exact unit 1 runs in a child for n = 2 and 3, unit 0 in the caller;
        # the failing process leaves its pid in a file to show which it was.
        cells, exact_threshold = self.GRIDS[0]
        exact = [r for r in _tests_and_warnings(cells, exact_threshold)[0]
                 if r.method == "exact"]
        assert len(exact) > 6
        bad = exact[unit]
        values = (cells[(bad.task_id, bad.session_a)], cells[(bad.task_id, bad.session_b)])
        test, raiser = stats.ranksum_exact, tmp_path / "raiser"

        def faulty(a, b):
            if (list(a), list(b)) == values:
                raiser.write_text(str(os.getpid()))
                raise ValueError(f"injected fault in task {bad.task_id}")
            return test(a, b)

        monkeypatch.setattr(stats, "ranksum_exact", faulty)
        message = f"^injected fault in task {bad.task_id}$"
        with pytest.raises(ValueError, match=message):
            _tests_and_warnings(cells, exact_threshold)
        monkeypatch.setattr(stats, "_FAN_OUT_COST", 0)
        for n in (1, 2, 3):
            processes(n)
            with pytest.raises(ValueError, match=message):
                _tests_and_warnings(cells, exact_threshold)
            assert multiprocessing.active_children() == []
            in_caller = raiser.read_text() == str(os.getpid())
            assert in_caller == (unit == 0 or n == 1)

    def test_first_failure_in_output_order_is_raised(self, processes, monkeypatch):
        # Pair 2 (a normal approximation) and pair 11 (an exact test) both
        # fail; pair 2 comes first in output order, so its error is raised
        # however the tests are spread over processes.
        cells, exact_threshold = self.GRIDS[0]
        results = _tests_and_warnings(cells, exact_threshold)[0]
        assert [results[i].method for i in (2, 11)] == ["normal_approx", "exact"]
        for i, name in ((2, "ranksum_normal"), (11, "ranksum_exact")):
            r = results[i]
            values = (cells[(r.task_id, r.session_a)], cells[(r.task_id, r.session_b)])

            def faulty(a, b, test=getattr(stats, name), values=values, i=i):
                if (list(a), list(b)) == values:
                    raise ValueError(f"injected fault in pair {i}")
                return test(a, b)

            monkeypatch.setattr(stats, name, faulty)
        monkeypatch.setattr(stats, "_FAN_OUT_COST", 0)
        for n in (1, 2, 3):
            processes(n)
            with pytest.raises(ValueError, match="^injected fault in pair 2$"):
                _tests_and_warnings(cells, exact_threshold)
            assert multiprocessing.active_children() == []

    def test_runs_inline_in_a_daemonic_worker(self, monkeypatch):
        # A Pool worker is daemonic and may not fork children of its own.
        cells, exact_threshold = self.GRIDS[0]
        monkeypatch.setattr(stats, "_FAN_OUT_COST", 0)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            in_worker = pool.apply_async(_fields_of_tests,
                                         (cells, exact_threshold)).get(timeout=60)
        assert in_worker == _fields_of_tests(cells, exact_threshold)


def _fields_of_tests(cells, exact_threshold):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return _fields(pairwise_session_tests(cells, exact_threshold=exact_threshold))


class TestFanOutBound:
    """The exact tests fork only when their summed cost passes the bound."""

    @pytest.fixture()
    def no_fork(self, monkeypatch):
        def forbid():
            monkeypatch.setattr(data, "_process_count", lambda: 2)
            monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked below the bound"))
        return forbid

    def test_default_threshold_campaign_does_not_fork(self, no_fork):
        # The paper's campaign shape: 21 subjects, 42-value pools.
        cells = report.aggregate(
            generate_dataset(SynthConfig(n_subjects=21, samples_per_recording=50)),
            "saturation_ratio").values_by_cell()
        no_fork()
        results = pairwise_session_tests(cells)
        assert len(results) == 90
        assert {r.method for r in results} == {"normal_approx"}

    def test_small_exact_grid_does_not_fork(self, no_fork):
        cells = TestPairwiseSessionTests.full_grid(np.random.default_rng(42), n=12)
        no_fork()
        results = pairwise_session_tests(cells, exact_threshold=64)
        assert len(results) == 90
        assert {r.method for r in results} == {"exact"}

    def test_exact_sweep_grid_fans_out(self, monkeypatch):
        # 32 subjects with every test exact: 90 pools of 64 values.
        units = []

        def counted(fn, chunks):
            units.append(len(chunks))
            return [fn(chunk) for chunk in chunks]

        monkeypatch.setattr(stats, "_fan_out", counted)
        cells = TestPairwiseSessionTests.full_grid(np.random.default_rng(43), n=32)
        results = pairwise_session_tests(cells, exact_threshold=64)
        assert {r.method for r in results} == {"exact"}
        assert units == [90]
