"""Per-recording features: pressure saturation, mean pressure, discrete speed.

The saturation ratio is the fraction of pressure samples at or above the
sensor ceiling; a saturated sample means the true applied force met or
exceeded what the device can represent.  The device enters only through
that ceiling (``DeviceProfile.max_level``); pressures stay device levels and
are never converted to physical units.  Speed is the first difference of a
coordinate series with a unit (one sample interval) denominator.

By default every feature runs over the full sample vector, pen-up events
included; pass ``pen_down_only=True`` to restrict to surface contact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PenStatus, Recording


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """Scalar and series features of one recording."""

    saturation_ratio: float
    mean_pressure: float
    n_samples: int
    speed_x: np.ndarray
    speed_y: np.ndarray


def saturation_ratio(pressure, sat_level: int) -> float:
    """Fraction of samples with pressure >= sat_level (the >= is deliberate:
    a reading at the ceiling is already saturated)."""
    p = np.asarray(pressure)
    if p.size == 0:
        raise ValueError("saturation ratio is undefined for an empty series")
    if sat_level <= 0:
        raise ValueError(f"sat_level must be positive, got {sat_level}")
    return int(np.count_nonzero(p >= sat_level)) / p.size


def mean_pressure(pressure) -> float:
    p = np.asarray(pressure, dtype=np.float64)
    if p.size == 0:
        raise ValueError("mean pressure is undefined for an empty series")
    return float(p.mean())


def first_difference(f) -> np.ndarray:
    """Discrete speed: out[i] = f[i+1] - f[i], length n-1.

    The denominator is one sample interval, not wall-clock time, so the
    units are input-units per sample.
    """
    a = np.asarray(f, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-d series, got shape {a.shape}")
    if a.size < 2:
        raise ValueError("first difference needs at least 2 samples")
    return np.diff(a)


def extract_features(recording: Recording, pen_down_only: bool = False) -> FeatureVector:
    """Bundle the per-recording features.

    Saturation uses the recording's device ceiling as the saturation level.
    With ``pen_down_only`` every series (pressure and coordinates alike) is
    restricted to pen-down samples before any computation.
    """
    if pen_down_only:
        mask = recording.pen_status == int(PenStatus.DOWN)
        if not mask.any():
            raise ValueError("recording has no pen-down samples")
        x, y, pressure = recording.x[mask], recording.y[mask], recording.pressure[mask]
    else:
        x, y, pressure = recording.x, recording.y, recording.pressure
    return FeatureVector(
        saturation_ratio=saturation_ratio(pressure, recording.device.max_level),
        mean_pressure=mean_pressure(pressure),
        n_samples=int(pressure.size),
        speed_x=first_difference(x),
        speed_y=first_difference(y),
    )
