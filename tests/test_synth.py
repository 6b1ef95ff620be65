import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwfatigue.data import DeviceProfile
from hwfatigue.synth import SynthConfig, generate_dataset, generate_recording
from oracles import generate_recording_reference


class TestSynthConfig:
    def test_defaults(self):
        config = SynthConfig()
        assert config.n_subjects == 21
        assert config.samples_per_recording == 2000
        assert config.fatigue_sessions == frozenset({4, 5})
        assert config.high_variation_tasks == frozenset({1, 2, 3, 5})

    def test_scalar_broadcast_to_tasks(self):
        config = SynthConfig(base_saturation=0.1, fatigue_multiplier=2.0)
        assert set(config.base_saturation) == set(range(1, 10))
        assert all(v == 0.1 for v in config.base_saturation.values())
        assert all(v == 2.0 for v in config.fatigue_multiplier.values())

    def test_per_task_mapping_accepted(self):
        config = SynthConfig(base_saturation={t: 0.01 * t for t in range(1, 10)})
        assert config.base_saturation[9] == 0.09

    def test_saturation_probability_grid(self):
        config = SynthConfig()
        # multiplier applies only in fatigue sessions of high-variation tasks
        assert config.saturation_probability(4, 1) == 0.25
        assert config.saturation_probability(5, 5) == 0.25
        assert config.saturation_probability(1, 1) == 0.05
        assert config.saturation_probability(4, 4) == 0.05
        assert config.saturation_probability(3, 9) == 0.05

    def test_saturation_probability_capped(self):
        config = SynthConfig(base_saturation=0.5, fatigue_multiplier=2.0)
        assert config.saturation_probability(4, 2) == 1.0

    def test_rejects_base_outside_unit_interval(self):
        with pytest.raises(ValueError, match=r"base_saturation"):
            SynthConfig(base_saturation=1.0)
        with pytest.raises(ValueError, match=r"base_saturation"):
            SynthConfig(base_saturation=-0.1)

    def test_rejects_multiplier_below_one(self):
        with pytest.raises(ValueError, match=r"fatigue_multiplier"):
            SynthConfig(fatigue_multiplier=0.5)

    @pytest.mark.parametrize("name", ["base_saturation", "fatigue_multiplier"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_effect_sizes(self, name, value):
        # base 0 leaves the product 0 or NaN: no product check could catch the multiplier
        effects = {"base_saturation": 0.0, "fatigue_multiplier": 1.0, name: value}
        with pytest.raises(ValueError, match=rf"^{name}\[1\] must .*, got {value}$"):
            SynthConfig(**effects)

    def test_rejects_product_above_one(self):
        with pytest.raises(ValueError, match=r"exceeds 1"):
            SynthConfig(base_saturation=0.3, fatigue_multiplier=5.0)

    @pytest.mark.parametrize("device", [None, 1023])
    def test_device_must_be_a_profile(self, device):
        # Refused when stored, not at the first to_json_dict or generate_dataset.
        with pytest.raises(ValueError, match=f"^device must be a DeviceProfile, got {device}$"):
            SynthConfig(device=device)

    def test_rejects_unknown_sessions_and_tasks(self):
        with pytest.raises(ValueError, match="fatigue_sessions"):
            SynthConfig(fatigue_sessions=frozenset({4, 6}))
        with pytest.raises(ValueError, match="high_variation_tasks"):
            SynthConfig(high_variation_tasks=frozenset({0}))
        with pytest.raises(ValueError, match=r"fatigue_multiplier task must lie in \[1, 9\]"):
            SynthConfig(fatigue_multiplier={t: 2.0 for t in range(1, 11)})
        with pytest.raises(ValueError,
                           match="^fatigue_sessions must be a collection of ids, got 4$"):
            SynthConfig(fatigue_sessions=4)
        with pytest.raises(ValueError,
                           match="^high_variation_tasks must be a collection of ids, got None$"):
            SynthConfig(high_variation_tasks=None)

    def test_rejects_incomplete_per_task_mapping(self):
        with pytest.raises(ValueError, match="missing"):
            SynthConfig(base_saturation={1: 0.05})

    def test_rejects_nonpositive_shape(self):
        with pytest.raises(ValueError):
            SynthConfig(n_subjects=0)
        with pytest.raises(ValueError):
            SynthConfig(samples_per_recording=0)

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.0), ("seed", True), ("seed", "1"), ("n_subjects", 2.5),
        ("n_subjects", 2.0), ("samples_per_recording", np.float64(20)),
        ("fatigue_sessions", frozenset({4.0, 5})), ("high_variation_tasks", frozenset({True})),
        ("base_saturation", {1.7 if t == 1 else t: 0.05 for t in range(1, 10)}),
    ])
    def test_integer_fields_refuse_other_types(self, field, value):
        # seed=1.0 would compare equal to seed=1 yet key other streams.
        with pytest.raises(ValueError, match=f"^{field}( task)? must be an integer, got "):
            SynthConfig(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("base_saturation", "0.05", "base_saturation must be a number, got '0.05'"),
        ("fatigue_multiplier", True, "fatigue_multiplier must be a number, got True"),
        ("base_saturation", {t: "0.1" if t == 3 else 0.05 for t in range(1, 10)},
         r"base_saturation\[3\] must be a number, got '0.1'"),
    ])
    def test_effect_sizes_refuse_other_types(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SynthConfig(**{field: value})

    def test_numpy_integer_fields_become_ints(self):
        config = SynthConfig(n_subjects=np.int64(2), samples_per_recording=np.int32(20),
                             seed=np.int64(1), fatigue_sessions=frozenset({np.int64(4)}))
        assert config == SynthConfig(n_subjects=2, samples_per_recording=20, seed=1,
                                     fatigue_sessions=frozenset({4}))
        assert all(type(v) is int for v in (config.n_subjects, config.samples_per_recording,
                                            config.seed, *config.fatigue_sessions))

    def test_json_dict_is_serializable(self):
        import json
        text = json.dumps(SynthConfig().to_json_dict(), sort_keys=True)
        assert '"seed": 0' in text
        assert '"max_level": 1023' in text
        assert set(SynthConfig().to_json_dict()) == {
            "n_subjects", "samples_per_recording", "base_saturation", "fatigue_multiplier",
            "fatigue_sessions", "high_variation_tasks", "seed", "max_level"}


class TestGenerateRecording:
    def test_deterministic(self):
        config = SynthConfig(seed=5, samples_per_recording=300)
        a = generate_recording(config, 2, 3, 4)
        b = generate_recording(config, 2, 3, 4)
        assert np.array_equal(a.samples, b.samples)

    def test_seed_changes_output(self):
        kwargs = dict(samples_per_recording=300)
        a = generate_recording(SynthConfig(seed=1, **kwargs), 1, 1, 1)
        b = generate_recording(SynthConfig(seed=2, **kwargs), 1, 1, 1)
        assert not np.array_equal(a.samples, b.samples)

    def test_identity_changes_output(self):
        config = SynthConfig(seed=5, samples_per_recording=300)
        base = generate_recording(config, 1, 1, 1)
        for ids in ((2, 1, 1), (1, 2, 1), (1, 1, 2)):
            other = generate_recording(config, *ids)
            assert not np.array_equal(base.samples, other.samples)

    def test_independent_of_subject_count(self):
        # growing the campaign must not disturb existing recordings
        small = SynthConfig(seed=9, n_subjects=5, samples_per_recording=200)
        large = SynthConfig(seed=9, n_subjects=6, samples_per_recording=200)
        for subject in range(1, 6):
            a = generate_recording(small, subject, 4, 2)
            b = generate_recording(large, subject, 4, 2)
            assert np.array_equal(a.samples, b.samples)

    def test_sample_contract(self):
        config = SynthConfig(seed=3, samples_per_recording=500)
        rec = generate_recording(config, 1, 2, 6)
        assert rec.n_samples == 500
        assert np.all(rec.pen_status == 1)
        assert np.array_equal(rec.timestamp, np.arange(500) * 10)
        assert rec.samples.dtype == np.int64

    def test_pressure_ranges(self):
        config = SynthConfig(seed=4, samples_per_recording=2000)
        rec = generate_recording(config, 1, 4, 1)
        saturated = rec.pressure == 1023
        assert saturated.any()
        rest = rec.pressure[~saturated]
        assert rest.min() >= 1
        assert rest.max() <= 1022

    def test_saturation_rate_concentrates(self):
        # p_sat = 0.25 here; 300 recordings of 2000 samples each stay within
        # a comfortably wide band around it
        config = SynthConfig(samples_per_recording=2000)
        rates = []
        for seed in range(300):
            rec = generate_recording(SynthConfig(seed=seed, samples_per_recording=2000),
                                     1, 4, 1)
            rates.append(float(np.mean(rec.pressure == 1023)))
        assert config.saturation_probability(4, 1) == 0.25
        assert 0.20 < min(rates) and max(rates) < 0.30
        assert abs(np.mean(rates) - 0.25) < 0.005

    def test_no_injected_effect_off_fatigue_sessions(self):
        rates = []
        for seed in range(100):
            rec = generate_recording(SynthConfig(seed=seed, samples_per_recording=2000),
                                     1, 1, 1)
            rates.append(float(np.mean(rec.pressure == 1023)))
        assert abs(np.mean(rates) - 0.05) < 0.005

    def test_device_override(self):
        device = DeviceProfile(max_level=511)
        config = SynthConfig(seed=6, samples_per_recording=400, device=device)
        rec = generate_recording(config, 1, 4, 1)
        assert rec.device == device
        assert rec.pressure.max() <= 511
        assert np.any(rec.pressure == 511)

    def test_ceiling_exact_beyond_float64(self):
        # 2**53 + 1 has no float64 value: a ceiling passed through float64 misses it.
        def saturated(max_level):
            config = SynthConfig(n_subjects=1, device=DeviceProfile(max_level=max_level))
            return generate_recording(config, 1, 4, 1).pressure

        at_ceiling = saturated(1023) == 1023
        assert at_ceiling.any()
        assert np.array_equal(saturated(2**53 + 1) == 2**53 + 1, at_ceiling)

    def test_rejects_out_of_range_ids(self):
        config = SynthConfig(n_subjects=3, samples_per_recording=10)
        with pytest.raises(ValueError, match="subject_id"):
            generate_recording(config, 4, 1, 1)
        with pytest.raises(ValueError, match="session_id"):
            generate_recording(config, 1, 6, 1)
        with pytest.raises(ValueError, match="task_id"):
            generate_recording(config, 1, 1, 0)

    @pytest.mark.parametrize("ids, name", [
        ((1, 1.0, 1), "session_id"), ((True, 1, 1), "subject_id"), ((1, 1, 2.0), "task_id"),
    ])
    def test_rejects_non_integer_ids(self, ids, name):
        # A session of 1.0 would key a stream other than session 1's.
        config = SynthConfig(n_subjects=3, samples_per_recording=10)
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            generate_recording(config, *ids)

    def test_numpy_integer_ids_give_the_same_recording(self):
        config = SynthConfig(n_subjects=3, samples_per_recording=10)
        rec = generate_recording(config, np.int64(2), np.int64(4), np.int64(3))
        assert rec.key == (2, 4, 3) and all(type(i) is int for i in rec.key)
        assert np.array_equal(rec.samples, generate_recording(config, 2, 4, 3).samples)

    def test_every_task_has_distinct_trajectory(self):
        config = SynthConfig(seed=8, samples_per_recording=300)
        shapes = set()
        for task in range(1, 10):
            rec = generate_recording(config, 1, 1, task)
            shapes.add((int(rec.x.min()), int(rec.x.max()),
                        int(rec.y.min()), int(rec.y.max())))
        # coarse check: bounding boxes do not all coincide
        assert len(shapes) >= 5


def _capped_multiplier(base: float, mult: float) -> float:
    """``mult`` lowered until ``base * mult`` is at most 1, as SynthConfig requires."""
    if base:
        mult = min(mult, 1.0 / base)
        while base * mult > 1.0:
            mult = float(np.nextafter(mult, 0.0))
    return mult


class TestAgainstReference:
    """The session-batched kernel against the one-recording-at-a-time
    generator in ``oracles``: recordings must be equal value for value."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32),
           n=st.integers(1, 300),
           rates=st.lists(st.tuples(st.floats(0.0, 0.999), st.floats(1.0, 8.0)),
                          min_size=9, max_size=9),
           max_level=st.integers(2, 2048),
           key=st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(1, 9)))
    def test_recording_equals_reference(self, seed, n, rates, max_level, key):
        config = SynthConfig(
            n_subjects=3, samples_per_recording=n, seed=seed,
            base_saturation={t: base for t, (base, _) in enumerate(rates, start=1)},
            fatigue_multiplier={t: _capped_multiplier(base, mult)
                                for t, (base, mult) in enumerate(rates, start=1)},
            device=DeviceProfile(max_level=max_level))
        got = generate_recording(config, *key)
        want = generate_recording_reference(config, *key)
        assert got.samples.dtype == want.samples.dtype
        assert np.array_equal(got.samples, want.samples)

    def test_dataset_recordings_equal_single_recordings(self):
        config = SynthConfig(n_subjects=3, samples_per_recording=150, seed=31,
                             base_saturation=0.1, fatigue_multiplier=4.0)
        dataset = generate_dataset(config)
        assert len(dataset) == 3 * 5 * 9
        for rec in dataset:
            single = generate_recording(config, *rec.key)
            assert np.array_equal(rec.samples, single.samples)
            assert np.array_equal(rec.samples,
                                  generate_recording_reference(config, *rec.key).samples)


class TestGenerateDataset:
    def test_full_grid(self):
        config = SynthConfig(n_subjects=3, samples_per_recording=50, seed=1)
        dataset = generate_dataset(config)
        assert len(dataset) == 3 * 5 * 9
        assert dataset.subjects() == [1, 2, 3]
        assert dataset.keys()[0] == (1, 1, 1)
        assert dataset.keys()[-1] == (3, 5, 9)

    def test_deterministic(self):
        config = SynthConfig(n_subjects=2, samples_per_recording=40, seed=77)
        a = generate_dataset(config)
        b = generate_dataset(config)
        for key in a.keys():
            assert np.array_equal(a.get(*key).samples, b.get(*key).samples)
