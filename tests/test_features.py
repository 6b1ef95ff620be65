import pickle
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwfatigue import cli, data, features
from hwfatigue.data import Recording, load_dataset, recording_path, serialize_svc
from hwfatigue.features import (extract_features, first_difference, mean_pressure,
                                saturation_ratio)
from hwfatigue.synth import SynthConfig, generate_dataset, generate_recording

from oracles import mean_by_summation, saturation_ratio_by_loop

from test_data import make_recording


NOT_1D = {"2x2": [[1023, 0], [0, 0]], "int": 5, "int64": np.int64(7),
          "2x0": np.zeros((2, 0)), "1x3": np.ones((1, 3))}


@pytest.mark.parametrize("series", NOT_1D.values(), ids=NOT_1D.keys())
def test_scalar_features_refuse_a_series_that_is_not_1d(series):
    message = "^" + re.escape(f"expected a 1-d series, got shape {np.shape(series)}") + "$"
    for call in (lambda: saturation_ratio(series, 1023), lambda: mean_pressure(series),
                 lambda: saturation_ratio(series, 0)):  # the shape is checked first
        with pytest.raises(ValueError, match=message):
            call()


NAN = {"first": ([np.nan, 1023.0, 1.0], 0), "last": ([3.0, 5.0, np.nan], 2),
       "float32": (np.array([1, np.nan, np.nan], np.float32), 1),
       "complex": (np.array([1, 2, complex(0, np.nan)]), 2)}


@pytest.mark.parametrize("series, index", NAN.values(), ids=NAN.keys())
def test_series_features_refuse_nan(series, index):
    message = f"^series holds NaN at index {index}$"
    for call in (lambda: saturation_ratio(series, 1023), lambda: mean_pressure(series),
                 lambda: first_difference(series),
                 lambda: saturation_ratio(series, 0)):  # the series is checked first
        with pytest.raises(ValueError, match=message):
            call()


def test_integer_series_is_not_searched_for_nan(monkeypatch):
    monkeypatch.setattr(features.np, "isnan", lambda a: pytest.fail("searched for NaN"))
    fv = extract_features(make_recording())
    assert fv.n_samples == 3 and fv.speed_x.dtype == np.float64


def patch_kernel(monkeypatch, kernel):
    """Replace the one feature kernel by ``kernel`` under both of its module names."""
    assert data.feature_of_rows is features.feature_of_rows
    for module in (data, features):
        monkeypatch.setattr(module, "feature_of_rows", kernel)


def test_every_feature_path_runs_the_one_kernel(monkeypatch, tmp_path, capsys):
    class KernelRan(Exception):
        pass

    def kernel(*args):
        raise KernelRan

    # The builders compute every recording's features; aggregate only reads them,
    # unpickling keeps them, and extract_features computes only a pen-down subset's.
    config = SynthConfig(n_subjects=2, samples_per_recording=20)
    recording = generate_recording(config, 1, 1, 1)
    path = recording_path(tmp_path, *recording.key)
    path.parent.mkdir(parents=True)
    path.write_text(serialize_svc(recording.samples))
    monkeypatch.setattr(data, "_process_count", lambda: 1)  # the kernel runs in this process
    patch_kernel(monkeypatch, kernel)
    calls = [
        partial(generate_dataset, config),
        partial(load_dataset, tmp_path),
        partial(generate_recording, config, 1, 1, 1),
        partial(Recording, *recording.key, recording.samples),
        partial(saturation_ratio, recording.pressure, 1023),
        partial(mean_pressure, recording.pressure),
        partial(extract_features, recording, pen_down_only=True),
        partial(cli.main, ["features", "--input", str(path)]),
    ]
    for call in calls:
        with pytest.raises(KernelRan):
            call()
    assert capsys.readouterr().out == ""


def test_unpickled_recording_runs_no_kernel_and_keeps_its_features(monkeypatch):
    recording = generate_recording(SynthConfig(n_subjects=1, samples_per_recording=50), 1, 4, 2)
    pickled = pickle.dumps(recording)
    patch_kernel(monkeypatch, pytest.fail)
    copy = pickle.loads(pickled)
    assert copy == recording and not copy.samples.flags.writeable
    assert ({name: value.hex() for name, value in copy._features.items()}
            == {name: value.hex() for name, value in recording._features.items()})


def test_full_series_features_are_the_carried_values(monkeypatch):
    recording = make_recording(pressures=(1023, 5, 700, 1023))
    carried = dict(recording._features)
    patch_kernel(monkeypatch, pytest.fail)
    fv = extract_features(recording)
    assert {"saturation_ratio": fv.saturation_ratio, "mean_pressure": fv.mean_pressure} == carried
    assert fv.n_samples == 4 and fv.speed_x.tolist() == [3.0, 3.0, 3.0]


NOT_NUMBERS = {"none": [None, 1], "str": ["1", "2"], "bytes": [b"1"],
               "complex": np.array([1, 2j]), "datetime": np.array(["2024-01-01"], "M8[D]")}


@pytest.mark.parametrize("series", NOT_NUMBERS.values(), ids=NOT_NUMBERS.keys())
def test_series_features_refuse_non_numbers(series):
    message = ("^" + re.escape("series must hold bools, integers or floats, got dtype "
                               f"{np.asarray(series).dtype}") + "$")
    for call in (lambda: saturation_ratio(series, 1023), lambda: mean_pressure(series),
                 lambda: first_difference(series),
                 lambda: saturation_ratio(series, 0)):  # the series is checked first
        with pytest.raises(ValueError, match=message):
            call()


class TestSaturationRatio:
    def test_none_reach_level(self):
        assert saturation_ratio([0, 10, 500], 1023) == 0.0

    def test_all_saturated(self):
        assert saturation_ratio([1023, 1023, 1023], 1023) == 1.0

    def test_half_saturated(self):
        assert saturation_ratio([1023, 500, 1023, 0], 1023) == 0.5
        assert saturation_ratio([1023, 500, 1023, 0], np.int64(1023)) == 0.5

    def test_at_level_counts(self):
        # the comparison is >=, not >
        assert saturation_ratio([700], 700) == 1.0

    def test_empty_series(self):
        with pytest.raises(ValueError, match="empty"):
            saturation_ratio([], 1023)

    @pytest.mark.parametrize("level", [0, 1023.5, True, 2**63])
    def test_nonpositive_level(self, level):
        # checked as DeviceProfile checks max_level: an integer in [1, 2**63 - 1]
        with pytest.raises(ValueError, match=r"^sat_level must (be an integer|lie in "
                                             r"\[1, 9223372036854775807\]), got "):
            saturation_ratio([1023] * 5, level)

    def test_matches_loop_oracle_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(1, 400))
            values = rng.integers(0, 1024, n)
            level = int(rng.integers(1, 1024))
            assert saturation_ratio(values, level) == \
                saturation_ratio_by_loop(values.tolist(), level)

    @settings(max_examples=50)
    @given(st.lists(st.integers(0, 1023), min_size=1, max_size=60))
    def test_monotone_in_level(self, values):
        ratios = [saturation_ratio(values, level) for level in (1, 256, 512, 1023)]
        assert ratios == sorted(ratios, reverse=True)


class TestMeanPressure:
    def test_constant(self):
        assert mean_pressure([500, 500, 500]) == 500.0

    def test_two_point(self):
        assert mean_pressure([0, 1023]) == 511.5

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(12)
        values = rng.integers(0, 1024, 1000)
        expected = mean_by_summation(values.tolist())
        assert mean_pressure(values) == pytest.approx(expected, rel=1e-9)

    def test_empty_series(self):
        with pytest.raises(ValueError):
            mean_pressure([])


class TestFirstDifference:
    def test_constant_signal(self):
        assert first_difference([5, 5, 5, 5]).tolist() == [0, 0, 0]

    def test_linear_ramp(self):
        assert first_difference([0, 2, 4, 6]).tolist() == [2, 2, 2]

    def test_unit_denominator(self):
        assert first_difference([1, 3, 6]).tolist() == [2, 3]

    def test_length_contract(self):
        assert first_difference(np.arange(10)).shape == (9,)

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            first_difference([1])

    @settings(max_examples=50)
    @given(st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=100))
    def test_telescoping(self, values):
        assert first_difference(values).sum() == pytest.approx(
            values[-1] - values[0], abs=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(13)
        f = rng.normal(size=200)
        g = rng.normal(size=200)
        lhs = first_difference(2.5 * f + 0.75 * g)
        rhs = 2.5 * first_difference(f) + 0.75 * first_difference(g)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestExtractFeatures:
    def test_fully_saturated_recording(self):
        rec = make_recording(pressures=(1023, 1023, 1023))
        fv = extract_features(rec)
        assert fv.saturation_ratio == 1.0
        assert fv.mean_pressure == 1023.0
        assert fv.n_samples == 3

    def test_speed_length_contract(self):
        rec = make_recording(pressures=(10, 20))
        fv = extract_features(rec)
        assert fv.speed_x.shape == (1,)
        assert fv.speed_y.shape == (1,)
        assert fv.speed_x.shape[0] == fv.n_samples - 1
        one = extract_features(make_recording(pressures=(10,)))
        assert one.speed_x.shape == one.speed_y.shape == (0,)

    def test_speeds_are_coordinate_differences(self):
        rec = make_recording(pressures=(10, 20, 30))
        fv = extract_features(rec)
        assert np.array_equal(fv.speed_x, np.diff(rec.x).astype(float))
        assert np.array_equal(fv.speed_y, np.diff(rec.y).astype(float))

    def test_pen_down_only_filters(self):
        n = 6
        samples = np.column_stack([
            np.arange(n), np.arange(n), np.arange(n) * 10,
            np.array([1, 1, 0, 0, 1, 1]),
            np.zeros(n, dtype=int), np.zeros(n, dtype=int),
            np.array([1023, 1023, 0, 0, 1023, 500]),
        ])
        rec = Recording(1, 1, 1, samples)
        full = extract_features(rec)
        down = extract_features(rec, pen_down_only=True)
        assert full.n_samples == 6
        assert down.n_samples == 4
        assert full.saturation_ratio == 3 / 6
        assert down.saturation_ratio == 3 / 4
        assert down.speed_x.shape == (3,)

    def test_pen_down_only_rejects_all_up(self):
        n = 3
        samples = np.column_stack([
            np.arange(n), np.arange(n), np.arange(n),
            np.zeros(n, dtype=int), np.zeros(n, dtype=int),
            np.zeros(n, dtype=int), np.full(n, 5),
        ])
        rec = Recording(1, 1, 1, samples)
        with pytest.raises(ValueError, match="pen-down"):
            extract_features(rec, pen_down_only=True)

    def test_synthetic_ratio_near_injected_probability(self):
        # fatigue session of a high-variation task: p_sat = 0.05 * 5 = 0.25
        config = SynthConfig(seed=99, samples_per_recording=2000)
        rec = generate_recording(config, subject_id=1, session_id=4, task_id=3)
        fv = extract_features(rec)
        sd = (0.25 * 0.75 / 2000) ** 0.5
        assert abs(fv.saturation_ratio - 0.25) < 4 * sd
