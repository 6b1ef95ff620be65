"""Seeded synthetic datasets shaped like a fatigue acquisition campaign.

Generates 21 subjects x 5 sessions x 9 tasks by default, with a configurable
pressure-saturation effect injected in the fatigue sessions of the tasks
performed without wrist support.  Only the saturation effect is modelled;
mean pressure keeps the same base distribution in every session so the
saturation feature can be studied in isolation.

Reproducibility contract
------------------------
Every recording draws from its own substream of a Philox 4x64 counter-based
generator (10 rounds, as implemented by ``numpy.random.Philox``).  The
128-bit key is the first 16 bytes, little-endian, of

    SHA-256("hwfatigue-synth-v1:<seed>:<subject>:<session>:<task>")

so a recording depends only on the seed and its own identity: regenerating
with more subjects, or regenerating one recording in isolation, is
bit-identical.  Per recording the draw order is fixed: n saturation
uniforms, then one (5, n) standard-normal block (base pressure, x, y,
azimuth, altitude noise), scaled afterwards.  numpy's ``normal(loc, scale)``
is ``loc + scale * standard_normal``: the same values as one ``normal`` call
per channel.  ``generate_dataset`` draws one session (9 recordings) per call
of the kernel and spreads sessions over processes like
:func:`hwfatigue.data.write_dataset` does; the per-recording streams make the
output the same for any process count.  :func:`write_synthetic` runs the
same kernel, check and writer in one fan-out: the process that draws a
session also writes its nine files, so no process holds more than one
session's arrays and only paths come back to the caller.

Pressure model: each sample saturates (emits ``max_level``) with probability
p_sat and otherwise draws round(N(600, 150)) clamped to [1, max_level - 1].
p_sat is ``base_saturation[task]``, times ``fatigue_multiplier[task]`` when
the session is a fatigue session and the task is high-variation, capped at 1.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .data import (COL_ALTITUDE, COL_AZIMUTH, COL_PEN_STATUS, COL_PRESSURE, COL_TIMESTAMP,
                   COL_X, COL_Y, Dataset, DeviceProfile, Recording, SESSIONS, TASKS,
                   _check_device, _check_subject_ids, _fan_out, _features_of, _int_in, _real,
                   _recording, _sample_fault, _write_session)

_PRESSURE_MEAN = 600.0
_PRESSURE_SD = 150.0
_COORD_CENTER = (10000, 7500)
_COORD_SCALE = 3000.0
_COORD_NOISE_SD = 5.0
_TIMESTAMP_STEP_MS = 10
_AZIMUTH_BASE, _AZIMUTH_SD = 1800, 30.0
_ALTITUDE_BASE, _ALTITUDE_SD = 600, 20.0


def _per_task(name: str, value: float | Mapping[int, float]) -> dict[int, float]:
    if isinstance(value, Mapping):
        return {(task := _int_in(f"{name} task", t, TASKS[0], TASKS[-1])):
                _real(f"{name}[{task}]", v) for t, v in value.items()}
    return dict.fromkeys(TASKS, _real(name, value))


@dataclass(frozen=True)
class SynthConfig:
    """Shape and effect sizes of a synthetic dataset.

    ``base_saturation`` and ``fatigue_multiplier`` accept either a single
    real number applied to all nine tasks or a per-task mapping, and are
    stored as plain floats; a string or a bool is refused.  The counts, the
    seed and every session or task id must be integers; a numpy integer is
    stored as a plain int.
    """

    n_subjects: int = 21
    samples_per_recording: int = 2000
    base_saturation: float | Mapping[int, float] = 0.05
    fatigue_multiplier: float | Mapping[int, float] = 5.0
    fatigue_sessions: frozenset[int] = frozenset({4, 5})
    high_variation_tasks: frozenset[int] = frozenset({1, 2, 3, 5})
    seed: int = 0
    device: DeviceProfile = field(default_factory=DeviceProfile)

    def __post_init__(self) -> None:
        # The seed is spelled into every stream key, so a seed of 1.0 or True
        # would key other streams than 1.
        for name, low in (("n_subjects", 1), ("samples_per_recording", 1), ("seed", None)):
            object.__setattr__(self, name, _int_in(name, getattr(self, name), low))
        for name, ids in (("fatigue_sessions", SESSIONS), ("high_variation_tasks", TASKS)):
            given = getattr(self, name)
            if not isinstance(given, Iterable):
                raise ValueError(f"{name} must be a collection of ids, got {given!r}")
            object.__setattr__(self, name, frozenset(_int_in(name, i, ids[0], ids[-1])
                                                     for i in given))
        _check_device(self.device)
        for name in ("base_saturation", "fatigue_multiplier"):
            object.__setattr__(self, name, _per_task(name, getattr(self, name)))
        for task in TASKS:
            base = self.base_saturation.get(task)
            mult = self.fatigue_multiplier.get(task)
            if base is None or mult is None:
                raise ValueError(f"task {task} missing from per-task configuration")
            if not 0.0 <= base < 1.0:
                raise ValueError(f"base_saturation[{task}] must be in [0, 1), got {base}")
            if not 1.0 <= mult < math.inf:
                raise ValueError(f"fatigue_multiplier[{task}] must be finite and >= 1, got {mult}")
            if base * mult > 1.0:
                raise ValueError(
                    f"base_saturation[{task}] * fatigue_multiplier[{task}] exceeds 1")

    def saturation_probability(self, session_id: int, task_id: int) -> float:
        p = self.base_saturation[task_id]
        if session_id in self.fatigue_sessions and task_id in self.high_variation_tasks:
            p *= self.fatigue_multiplier[task_id]
        return min(1.0, p)

    def to_json_dict(self) -> dict:
        return {
            "n_subjects": self.n_subjects,
            "samples_per_recording": self.samples_per_recording,
            "base_saturation": {str(t): self.base_saturation[t] for t in TASKS},
            "fatigue_multiplier": {str(t): self.fatigue_multiplier[t] for t in TASKS},
            "fatigue_sessions": sorted(self.fatigue_sessions),
            "high_variation_tasks": sorted(self.high_variation_tasks),
            "seed": self.seed,
            "max_level": self.device.max_level,
        }


def _stream_key(seed: int, subject_id: int, session_id: int, task_id: int) -> np.ndarray:
    """The recording's 128-bit Philox key as two little-endian 64-bit words."""
    msg = f"hwfatigue-synth-v1:{seed}:{subject_id}:{session_id}:{task_id}".encode("ascii")
    return np.frombuffer(hashlib.sha256(msg).digest()[:16], dtype="<u8")


def _polyline(vertices: list[tuple[float, float]], t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walk the vertex path at uniform parameter speed per segment."""
    vx = np.array([v[0] for v in vertices])
    vy = np.array([v[1] for v in vertices])
    pos = t * (len(vertices) - 1)
    idx = np.arange(len(vertices), dtype=np.float64)
    return np.interp(pos, idx, vx), np.interp(pos, idx, vy)


def _task_curve(task_id: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schematic pen trajectory for a task family, in unit scale.

    These are visual stand-ins (polygon copies, spiral, loops, left-to-right
    writing); nothing downstream depends on their precise geometry.
    """
    if task_id == 1:  # pentagon copy
        angles = np.pi / 2 + 2 * np.pi * np.arange(6) / 5
        return _polyline(list(zip(np.cos(angles), np.sin(angles))), t)
    if task_id == 2:  # house copy
        vertices = [(-0.8, -1.0), (0.8, -1.0), (0.8, 0.2), (0.0, 1.0),
                    (-0.8, 0.2), (-0.8, -1.0), (0.8, 0.2)]
        return _polyline(vertices, t)
    if task_id == 3:  # Archimedes spiral
        theta = 6.0 * np.pi * t
        return t * np.cos(theta), t * np.sin(theta)
    if task_id in (4, 8):  # signature
        x = 2.0 * t - 1.0 + 0.05 * np.sin(2 * np.pi * 7 * t)
        y = 0.5 * np.sin(2 * np.pi * 2 * t) + 0.3 * np.sin(2 * np.pi * 5 * t + 1.3)
        return x, y
    if task_id == 5:  # concentric loops, radius stepping outward per turn
        turns = 5
        theta = 2.0 * np.pi * turns * t
        radius = 0.2 + 0.8 * np.floor(turns * np.minimum(t, 1.0 - 1e-12)) / (turns - 1)
        return radius * np.cos(theta), radius * np.sin(theta)
    if task_id == 6:  # words in capital letters
        x = 2.0 * t - 1.0
        y = 0.35 * np.sin(2 * np.pi * 12 * t)
        return x, y
    if task_id == 7:  # cursive sentence
        x = 2.0 * t - 1.0
        y = 0.3 * np.sin(2 * np.pi * 10 * t) + 0.1 * np.sin(2 * np.pi * 3 * t)
        return x, y
    if task_id == 9:  # spring drawing
        x = 2.0 * t - 1.0 + 0.15 * np.cos(2 * np.pi * 8 * t)
        y = 0.5 * np.sin(2 * np.pi * 8 * t)
        return x, y
    raise ValueError(f"task_id must be in 1..9, got {task_id}")


def _draw_means(task_ids, n: int) -> np.ndarray:
    """Mean of each scaled standard-normal row, shape (k, 5, n): base
    pressure, x and y (the task's noiseless pen path), azimuth, altitude."""
    t = np.linspace(0.0, 1.0, n)
    means = np.empty((len(task_ids), 5, n))
    means[:, 0], means[:, 3], means[:, 4] = _PRESSURE_MEAN, _AZIMUTH_BASE, _ALTITUDE_BASE
    for i, task_id in enumerate(task_ids):
        means[i, 1:3] = _COORD_SCALE * np.array(_task_curve(task_id, t))
    means[:, 1:3] += np.array(_COORD_CENTER)[:, None]
    return means


# Scale of each standard-normal row (ordered as in _draw_means), and its lower clip bound.
_NOISE_SD = np.array([_PRESSURE_SD, _COORD_NOISE_SD, _COORD_NOISE_SD,
                      _AZIMUTH_SD, _ALTITUDE_SD])[:, None]
_CLIP_LOW = np.array([1, -np.inf, -np.inf, 0, 300])[:, None]


def _generate_samples(config: SynthConfig, subject_id: int, session_id: int,
                      task_ids, means: np.ndarray) -> np.ndarray:
    """Samples (k, n, 7) of one subject's ``task_ids`` recordings in one session,
    given ``means = _draw_means(task_ids, n)``.  Each recording draws from its
    own stream; the rest runs once per batch."""
    k, n, max_level = len(task_ids), config.samples_per_recording, config.device.max_level
    uniforms = np.empty((k, n))
    values = np.empty((k, 5, n))
    # One bit generator, re-keyed per recording from its fresh state:
    # Philox(key=...) seeds a discarded SeedSequence from OS entropy each time.
    bit_generator = np.random.Philox()
    rng, fresh = np.random.Generator(bit_generator), bit_generator.state
    for i, task_id in enumerate(task_ids):
        key = _stream_key(config.seed, subject_id, session_id, task_id)
        bit_generator.state = {**fresh, "state": {**fresh["state"], "key": key}}
        rng.random(out=uniforms[i])
        rng.standard_normal(out=values[i])
    p_sat = np.array([config.saturation_probability(session_id, t) for t in task_ids])

    values *= _NOISE_SD
    values += means
    np.rint(values, out=values)
    np.clip(values, _CLIP_LOW, np.array([max_level - 1, np.inf, np.inf, 3599, 900])[:, None],
            out=values)

    samples = np.empty((k, n, 7), dtype=np.int64)
    samples[..., [COL_X, COL_Y, COL_AZIMUTH, COL_ALTITUDE]] = values[:, 1:].transpose(0, 2, 1)
    samples[..., COL_TIMESTAMP] = np.arange(n) * _TIMESTAMP_STEP_MS
    samples[..., COL_PEN_STATUS] = 1
    # The ceiling is set through the mask, never through float64, so it is exact.
    pressure = samples[..., COL_PRESSURE]
    pressure[...] = values[:, 0]
    pressure[uniforms < p_sat[:, None]] = max_level
    return samples


def _checked_samples(config: SynthConfig, means: np.ndarray, task_ids,
                     session: tuple[int, int]) -> np.ndarray:
    """``_generate_samples`` for one subject's session, checked in one pass
    and frozen; a fault names the subject, session, task and sample."""
    subject_id, session_id = session
    block = _generate_samples(config, subject_id, session_id, task_ids, means)
    fault = _sample_fault(block, config.device.max_level)
    if fault is not None:
        raise ValueError(f"subject {subject_id}, session {session_id}, "
                         f"task {task_ids[fault[0]]}: sample {fault[1]}: {fault[2]}")
    block.setflags(write=False)
    return block


def generate_recording(config: SynthConfig, subject_id: int, session_id: int,
                       task_id: int) -> Recording:
    """Generate one recording, deterministic in (seed, subject, session, task)."""
    subject_id = _int_in("subject_id", subject_id, 1, config.n_subjects)
    session_id = _int_in("session_id", session_id, SESSIONS[0], SESSIONS[-1])
    task_id = _int_in("task_id", task_id, TASKS[0], TASKS[-1])
    means = _draw_means((task_id,), config.samples_per_recording)
    block = _checked_samples(config, means, (task_id,), (subject_id, session_id))
    return _recording(subject_id, session_id, task_id, block[0], config.device,
                      _features_of(block, config.device)[0])


def generate_dataset(config: SynthConfig) -> Dataset:
    """Generate the full n_subjects x 5 sessions x 9 tasks dataset, one
    session (nine recordings) per work unit, spread over processes as in
    :func:`hwfatigue.data.write_dataset`.

    Each recording's ``samples`` is a read-only view of its session's
    (9, n, 7) block, and the process that draws a session also computes its
    features (:func:`_generated_session`).  A block a forked child drew lies
    in that child's one shared mapping, so one recording kept from it keeps
    the child's whole file, every session it drew; one kept from the
    caller's own sessions keeps only its session's nine arrays (see
    :func:`hwfatigue.data._fan_out`).
    """
    means = _draw_means(TASKS, config.samples_per_recording)
    sessions = _sessions(config)
    drawn = _fan_out(functools.partial(_generated_session, config, means), sessions)
    return Dataset(_recording(*session, task_id, samples, config.device, values)
                   for session, (block, session_values) in zip(sessions, drawn)
                   for task_id, samples, values in zip(TASKS, block, session_values))


def _generated_session(config: SynthConfig, means: np.ndarray, session: tuple[int, int]
                       ) -> tuple[np.ndarray, list[dict[str, float]]]:
    """One session's :func:`_checked_samples` block and its
    :func:`hwfatigue.data._features_of`."""
    block = _checked_samples(config, means, TASKS, session)
    return block, _features_of(block, config.device)


def write_synthetic(config: SynthConfig, root: Path | str) -> list[Path]:
    """Write the dataset of ``config`` under ``root``: the same files, and
    the same returned paths, as ``write_dataset(generate_dataset(config),
    root)``.  Each session is drawn, checked and written by the process that
    owns it (see :mod:`hwfatigue.data`), so memory does not grow with the
    campaign.  A subject count the two-digit layout cannot hold is refused
    before anything is created."""
    root = Path(root)
    _check_subject_ids(range(1, config.n_subjects + 1))
    means = _draw_means(TASKS, config.samples_per_recording)
    written = _fan_out(functools.partial(_write_synthetic_session, config, means, root),
                       _sessions(config))
    return [path for paths in written for path in paths]


def _write_synthetic_session(config: SynthConfig, means: np.ndarray, root: Path,
                             session: tuple[int, int]) -> list[Path]:
    block = _checked_samples(config, means, TASKS, session)
    return _write_session(root, [(*session, task_id) for task_id in TASKS], block)


def _sessions(config: SynthConfig) -> list[tuple[int, int]]:
    """Every ``(subject_id, session_id)`` of the campaign, in walk order."""
    return [(subject_id, session_id) for subject_id in range(1, config.n_subjects + 1)
            for session_id in SESSIONS]
