"""Per-recording features: pressure saturation, mean pressure, discrete speed.

The saturation ratio and the mean pressure are the features every recording
carries, and their rules live with the recordings
(:func:`hwfatigue.data._features_of`); this module's scalar functions run
the same kernel, :func:`feature_of_rows`.  Speed is the first difference of
a coordinate series with a unit (one sample interval) denominator.

By default every feature runs over the full sample vector, pen-up events
included; pass ``pen_down_only=True`` to restrict to surface contact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (COL_X, COL_Y, FEATURES, MAX_PRESSURE_LEVEL, FeatureName, Recording,
                   _features_of, _int_in, feature_of_rows)


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """Scalar and series features of one recording."""

    saturation_ratio: float
    mean_pressure: float
    n_samples: int
    speed_x: np.ndarray
    speed_y: np.ndarray


def _series(values) -> np.ndarray:
    """``values`` as a 1-d array of bools, integers or floats; ValueError
    naming the shape otherwise, the index of the first NaN, or the dtype.
    Only a float or complex series can hold a NaN, so no other is searched."""
    a = np.asarray(values)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-d series, got shape {a.shape}")
    if a.dtype.kind in "fc":
        nan = np.isnan(a)
        if nan.any():
            raise ValueError(f"series holds NaN at index {int(np.argmax(nan))}")
    if a.dtype.kind not in "biuf":
        raise ValueError(f"series must hold bools, integers or floats, got dtype {a.dtype}")
    return a


def saturation_ratio(pressure, sat_level: int) -> float:
    """Fraction of samples with pressure >= sat_level (the >= is deliberate:
    a reading at the ceiling is already saturated).  ``sat_level`` is
    checked as ``DeviceProfile`` checks its ``max_level``."""
    p = _series(pressure)
    if p.size == 0:
        raise ValueError("saturation ratio is undefined for an empty series")
    sat_level = _int_in("sat_level", sat_level, 1, MAX_PRESSURE_LEVEL)
    return float(feature_of_rows("saturation_ratio", p[None], sat_level)[0])


def mean_pressure(pressure) -> float:
    p = _series(pressure)
    if p.size == 0:
        raise ValueError("mean pressure is undefined for an empty series")
    return float(feature_of_rows("mean_pressure", p[None], None)[0])


def first_difference(f) -> np.ndarray:
    """Discrete speed: out[i] = f[i+1] - f[i], length n-1.

    The denominator is one sample interval, not wall-clock time, so the
    units are input-units per sample.
    """
    a = _series(f)
    if a.size < 2:
        raise ValueError("first difference needs at least 2 samples")
    return np.diff(a.astype(np.float64, copy=False))


def extract_features(recording: Recording, pen_down_only: bool = False) -> FeatureVector:
    """Bundle the per-recording features.

    Saturation uses the recording's device ceiling as the saturation level.
    The full series' values are those the recording carries.  With
    ``pen_down_only`` every series (pressure and coordinates alike) is
    restricted to pen-down samples before any computation; ValueError if
    none is pen-down.  The speeds are ``n_samples - 1`` long: empty for one.
    """
    if pen_down_only:
        mask = recording.pen_status == 1
        if not mask.any():
            raise ValueError("recording has no pen-down samples")
        samples = recording.samples[mask]
        values = _features_of([samples], recording.device)[0]
    else:
        samples, values = recording.samples, recording._features
    x, y = samples[:, COL_X], samples[:, COL_Y]
    return FeatureVector(
        **values,
        n_samples=len(samples),
        speed_x=first_difference(x) if x.size > 1 else np.empty(0),
        speed_y=first_difference(y) if y.size > 1 else np.empty(0),
    )
