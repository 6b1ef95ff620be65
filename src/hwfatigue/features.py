"""Per-recording features: pressure saturation, mean pressure, discrete speed.

The saturation ratio is the fraction of pressure samples at or above the
sensor ceiling; a saturated sample means the true applied force met or
exceeded what the device can represent.  The device enters only through
that ceiling (``DeviceProfile.max_level``); pressures stay device levels and
are never converted to physical units.  Speed is the first difference of a
coordinate series with a unit (one sample interval) denominator.

By default every feature runs over the full sample vector, pen-up events
included; pass ``pen_down_only=True`` to restrict to surface contact.

Each per-recording rule exists once, in the kernel :func:`feature_of_rows`
over k equally long rows.  Its mean reduces a C-contiguous float64 block
along the rows, which gives each row the bits of its 1-d ``mean``; an int64
block would not, as ``mean(axis=1)`` sums it in buffers of 8192 values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .data import MAX_PRESSURE_LEVEL, Recording, _int_in


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """Scalar and series features of one recording."""

    saturation_ratio: float
    mean_pressure: float
    n_samples: int
    speed_x: np.ndarray
    speed_y: np.ndarray


FeatureName = Literal["saturation_ratio", "mean_pressure"]
FEATURES = get_args(FeatureName)


def _check_feature(feature: str) -> str:
    """``feature`` if it is one of :data:`FEATURES`; ValueError otherwise."""
    if feature not in FEATURES:
        raise ValueError(f"unknown feature {feature!r}, expected one of {FEATURES}")
    return feature


def feature_of_rows(feature: FeatureName, rows, levels) -> np.ndarray:
    """``feature`` of each of k equally long pressure ``rows`` as k floats.
    Saturation compares each row as given (a float row is never cast to
    int64) with its ceiling in ``levels``; the mean ignores ``levels``."""
    if feature == "saturation_ratio":
        block = np.asarray(rows)
        return np.count_nonzero(block >= np.asarray(levels)[:, None], axis=1) / block.shape[1]
    return np.array(rows, dtype=np.float64).mean(axis=1)


def _series(values) -> np.ndarray:
    """``values`` as a 1-d array; ValueError naming the shape otherwise, or
    the index of the first NaN.  Only a float or complex series can hold
    one, so an integer series is not searched."""
    a = np.asarray(values)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-d series, got shape {a.shape}")
    if a.dtype.kind in "fc":
        nan = np.isnan(a)
        if nan.any():
            raise ValueError(f"series holds NaN at index {int(np.argmax(nan))}")
    return a


def saturation_ratio(pressure, sat_level: int) -> float:
    """Fraction of samples with pressure >= sat_level (the >= is deliberate:
    a reading at the ceiling is already saturated).  ``sat_level`` is
    checked as ``DeviceProfile`` checks its ``max_level``."""
    p = _series(pressure)
    if p.size == 0:
        raise ValueError("saturation ratio is undefined for an empty series")
    sat_level = _int_in("sat_level", sat_level, 1, MAX_PRESSURE_LEVEL)
    return float(feature_of_rows("saturation_ratio", p[None], [sat_level])[0])


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
    With ``pen_down_only`` every series (pressure and coordinates alike) is
    restricted to pen-down samples before any computation; ValueError if
    none is pen-down.  The speeds are ``n_samples - 1`` long: empty for one.
    """
    if pen_down_only:
        mask = recording.pen_status == 1
        if not mask.any():
            raise ValueError("recording has no pen-down samples")
        x, y, pressure = recording.x[mask], recording.y[mask], recording.pressure[mask]
    else:
        x, y, pressure = recording.x, recording.y, recording.pressure
    return FeatureVector(
        saturation_ratio=saturation_ratio(pressure, recording.device.max_level),
        mean_pressure=mean_pressure(pressure),
        n_samples=int(pressure.size),
        speed_x=first_difference(x) if x.size > 1 else np.empty(0),
        speed_y=first_difference(y) if y.size > 1 else np.empty(0),
    )
