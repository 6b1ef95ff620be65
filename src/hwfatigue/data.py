"""Data model and file I/O for online handwriting recordings.

A recording is the sample stream captured by a digitizing tablet while a
subject performs one handwriting task in one acquisition session.  Recordings
are stored on disk in a plain-text SVC-style format:

    line 1:        N                       (number of samples)
    lines 2..N+1:  x y timestamp pen_status azimuth altitude pressure

All seven channels are integers, written as ASCII tokens ``[+-]?[0-9]+``
that fit int64 and are separated by spaces or tabs.  Lines end in LF or
CRLF; blank lines are ignored.  N is at least 1.  ``pen_status`` is 0 (pen
up, hovering) or 1 (pen down, touching the surface).  ``pressure`` is a
device level in ``[0, max_level]`` where ``max_level`` is the sensor ceiling
(1023 for the reference tablet).  Timestamps are non-decreasing.

A dataset directory groups recordings as::

    root/subject<NN>/session<S>/task<T>.svc

with NN zero-padded to two digits (01..99), S in 1..5 and T in 1..9.
Missing files are legal; names :func:`recording_path` does not write are ignored.

:func:`serialize_svc` and :func:`write_dataset` emit one canonical text
(tokens with no ``+`` and no leading zeros, single spaces, LF line ends),
formatted by :func:`_svc_bytes` from two tables of five-digit words.
:func:`read_svc` hands a file's bytes, and :func:`parse_svc` its text in
UTF-8, to :func:`_parse_bytes`, which decodes well-formed text a word at a
time (:func:`_parse_vectorized`): each token's value comes from the 8 bytes
that end at it.  Any other text goes to :func:`_parse_lines`, which reports
the first fault in file order: a string and a file of the same content name
the same line.

Every dataset-wide function forks over the CPUs with one subject's session
as the unit of work: :func:`write_dataset`, :func:`load_dataset`,
:func:`hwfatigue.synth.generate_dataset` and
:func:`hwfatigue.synth.write_synthetic`; :func:`_fan_out` says how.  The
results of a child reach the caller through one shared file that the
caller maps once: a result kept from a child keeps that child's whole file,
and a result of the caller's own units keeps only its own arrays.  One
builder, :func:`_dataset`, makes the recordings of every loaded or
generated dataset, and of :func:`hwfatigue.synth.generate_recording`, from
a unit that reads or draws one session; every recording carries its
features from the moment it is built (:func:`_features_of`).

One function, :func:`_sample_fault`, checks every sample array, and every
array a :class:`Recording` holds has passed it once.  :func:`parse_svc`
returns exactly the arrays the public constructor accepts, which copies and
checks the caller's array; arrays the package builds and checks itself
(parsed files, generated sessions, results mapped from a child) are
wrapped by a private constructor without a copy or a second check.
Likewise one function, :func:`_int_in`, checks each integer a caller passes
in: a ceiling or saturation level, a recording id, a count, a seed, a flag;
and one, :func:`_real`, each real number: a significance level, an effect size.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import mmap
import numbers
import os
import pickle
import re
import signal
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Literal, Sequence, TextIO, get_args

import numpy as np

SESSIONS = (1, 2, 3, 4, 5)
TASKS = (1, 2, 3, 4, 5, 6, 7, 8, 9)
# Largest subject id the two-digit subject<NN> layout can hold.
MAX_SUBJECT_ID = 99
# Largest device ceiling: no int64 sample and no SVC token can exceed it.
MAX_PRESSURE_LEVEL = int(np.iinfo(np.int64).max)

# Column order of an SVC row and of Recording.samples.
COL_X = 0
COL_Y = 1
COL_TIMESTAMP = 2
COL_PEN_STATUS = 3
COL_AZIMUTH = 4
COL_ALTITUDE = 5
COL_PRESSURE = 6
N_COLUMNS = 7

# What every recording carries from the moment it is built (_features_of).
FeatureName = Literal["saturation_ratio", "mean_pressure"]
FEATURES = get_args(FeatureName)

# The only bytes well-formed SVC text holds once CRLF is folded to LF, signs aside.
_DIGITS_AND_BLANKS = b"0123456789 \t\n"
_HEADER_RE = re.compile(rb"[ \t\n]*([+-]?[0-9]{1,19})[ \t]*\n")
_TOKEN_RE = re.compile(r"[+-]?[0-9]+")
_SEPARATOR_RE = re.compile(r"[ \t]+")
_NON_ASCII_RE = re.compile("[\x80-\xff]")  # in text decoded one character per byte
_INT64 = np.iinfo(np.int64)


class SvcParseError(ValueError):
    """Malformed SVC content.  Carries the offending line number and, when
    parsing from disk, the file path."""

    def __init__(self, message: str, line: int | None = None, path: str | None = None):
        self.message = message
        self.line = line
        self.path = path
        super().__init__(message)

    def __str__(self) -> str:
        prefix = ""
        if self.path is not None:
            prefix += f"{self.path}:"
        if self.line is not None:
            prefix += f"{self.line}:"
        return f"{prefix} {self.message}" if prefix else self.message


class DatasetError(ValueError):
    """Invalid dataset content or layout (duplicate keys, a bad root or subject id)."""


def _int_in(name: str, value, low: int | None = None, high: int | None = None) -> int:
    """``value`` as a plain int.  ValueError naming ``name`` unless it is a
    Python or numpy integer (a bool is not) in ``[low, high]``; ``high=None``
    leaves the top of the range open, and ``low=None`` the whole range."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low or high is not None and value > high:
        span = f"lie in [{low}, {high}]" if high is not None else f"be at least {low}"
        raise ValueError(f"{name} must {span}, got {value}")
    return value


def _real(name: str, value) -> float:
    """``value`` as a plain float.  ValueError naming ``name`` unless it is a
    Python or numpy real number (a bool is not); its range is the caller's."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class DeviceProfile:
    """The acquisition tablet's pressure ceiling: ``max_level`` is the
    largest level its sensor reports, an integer in
    ``[1, MAX_PRESSURE_LEVEL]``.  A sample at that level is saturated."""

    max_level: int = 1023

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_level",
                           _int_in("max_level", self.max_level, 1, MAX_PRESSURE_LEVEL))


def _check_device(device) -> None:
    """ValueError naming ``device`` unless it is a :class:`DeviceProfile`."""
    if not isinstance(device, DeviceProfile):
        raise ValueError(f"device must be a DeviceProfile, got {device!r}")


@dataclass(frozen=True, eq=False)
class Recording:
    """Ordered sample stream for one (subject, session, task) triple.

    ``samples`` is an (N, 7) int64 array in SVC column order; the per-channel
    properties below expose read-only column views.  The array is frozen at
    construction so recordings can be shared across threads.  The ids are
    integers: ``subject_id`` at least 1, ``session_id`` in :data:`SESSIONS`
    and ``task_id`` in :data:`TASKS`.  It carries its features in a private
    attribute (:func:`_features_of`).  Two recordings are equal when their
    keys, devices and samples are; the features follow from those and are
    not compared.
    """

    subject_id: int
    session_id: int
    task_id: int
    samples: np.ndarray
    device: DeviceProfile = field(default_factory=DeviceProfile)

    def __post_init__(self) -> None:
        for name, high in (("subject_id", None), ("session_id", SESSIONS[-1]),
                           ("task_id", TASKS[-1])):
            object.__setattr__(self, name, _int_in(name, getattr(self, name), 1, high))
        _check_device(self.device)
        arr = _checked_rows(self.samples, self.device.max_level, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "_features", _features_of([arr], self.device)[0])

    def __reduce__(self):
        # Only a user's pickle comes here.  The key and array were checked when built;
        # unpickling freezes the array again, which pickle would restore writable,
        # and keeps the features carried.
        return _recording, (*self.key, self.samples, self.device, self._features)

    def __eq__(self, other):
        if not isinstance(other, Recording):
            return NotImplemented
        return (self.key == other.key and self.device == other.device
                and np.array_equal(self.samples, other.samples))

    def __hash__(self) -> int:
        return hash((self.key, self.device))

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def x(self) -> np.ndarray:
        return self.samples[:, COL_X]

    @property
    def y(self) -> np.ndarray:
        return self.samples[:, COL_Y]

    @property
    def timestamp(self) -> np.ndarray:
        return self.samples[:, COL_TIMESTAMP]

    @property
    def pen_status(self) -> np.ndarray:
        return self.samples[:, COL_PEN_STATUS]

    @property
    def azimuth(self) -> np.ndarray:
        return self.samples[:, COL_AZIMUTH]

    @property
    def altitude(self) -> np.ndarray:
        return self.samples[:, COL_ALTITUDE]

    @property
    def pressure(self) -> np.ndarray:
        return self.samples[:, COL_PRESSURE]

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.subject_id, self.session_id, self.task_id)


class Dataset:
    """Recordings indexed by (subject_id, session_id, task_id).

    At most one recording per key; missing cells are simply absent.
    """

    def __init__(self, recordings: Iterator[Recording] | None = None):
        self._recordings: dict[tuple[int, int, int], Recording] = {}
        if recordings is not None:
            for rec in recordings:
                self.add(rec)

    def add(self, recording: Recording) -> None:
        if not isinstance(recording, Recording):
            raise DatasetError(f"a dataset holds recordings, got {recording!r}")
        if recording.key in self._recordings:
            raise DatasetError(f"duplicate recording for key {recording.key}")
        self._recordings[recording.key] = recording

    def get(self, subject_id: int, session_id: int, task_id: int) -> Recording | None:
        return self._recordings.get((subject_id, session_id, task_id))

    def keys(self) -> list[tuple[int, int, int]]:
        return sorted(self._recordings)

    def subjects(self) -> list[int]:
        return sorted({k[0] for k in self._recordings})

    def __len__(self) -> int:
        return len(self._recordings)

    def __iter__(self) -> Iterator[Recording]:
        for key in self.keys():
            yield self._recordings[key]


def _checked_rows(samples, max_level: int, copy: bool) -> np.ndarray:
    """``samples`` as an (N, 7) int64 array, copied if ``copy`` or the dtype
    differs.  ValueError for another shape, for a dtype that does not cast
    exactly to int64 (floats: a NaN or a 5.7 would become some integer), for
    N < 1 and for the first sample :func:`_sample_fault` finds."""
    arr = np.asarray(samples)
    if arr.ndim != 2 or arr.shape[1] != N_COLUMNS:
        raise ValueError(f"samples must be an (N, {N_COLUMNS}) array, got shape {arr.shape}")
    if arr.size and not np.can_cast(arr.dtype, np.int64):
        raise ValueError(f"samples must be integers that fit int64, got dtype {arr.dtype}")
    if len(arr) == 0:
        raise ValueError("recording has no samples")
    arr = arr.astype(np.int64, copy=copy)
    fault = _sample_fault(arr[None], max_level)
    if fault is not None:
        raise ValueError(f"sample {fault[1]}: {fault[2]}")
    return arr


def _sample_fault(block: np.ndarray, max_level: int) -> tuple[int, int, str] | None:
    """First invalid sample of ``block``, a (k, n, 7) int64 stack of k
    recordings of n samples each, in row order, as (recording index, sample
    index, reason); None when every sample is valid.  A sample is invalid
    when its pen status is not 0/1, its pressure lies outside
    ``[0, max_level]`` or its timestamp is below the one before it.  This is
    the package's one check of sample values."""
    pen = block[..., COL_PEN_STATUS]
    pressure = block[..., COL_PRESSURE]
    ts = block[..., COL_TIMESTAMP]
    backwards = ts[:, 1:] < ts[:, :-1]
    if block.size == 0 or (pen.min() >= 0 and pen.max() <= 1 and pressure.min() >= 0
                           and pressure.max() <= max_level and not backwards.any()):
        return None
    invalid = (pen != 0) & (pen != 1) | (pressure < 0) | (pressure > max_level)
    invalid[:, 1:] |= backwards
    r, i = divmod(int(np.argmax(invalid)), block.shape[1])
    if pen[r, i] not in (0, 1):
        return r, i, f"pen_status must be 0 or 1, got {pen[r, i]}"
    if not 0 <= pressure[r, i] <= max_level:
        return r, i, f"pressure {pressure[r, i]} outside [0, {max_level}]"
    return r, i, (f"timestamp {ts[r, i]} follows {ts[r, i - 1]}, "
                  "timestamps must be non-decreasing")


def _recording(subject_id: int, session_id: int, task_id: int, samples: np.ndarray,
               device: DeviceProfile, features: dict[str, float]) -> Recording:
    """Private constructor for a key from a :func:`_dataset` unit, the
    ``features`` command or an existing recording, an (N, 7) int64 array
    that has passed :func:`_sample_fault` and its :func:`_features_of` under
    ``device``: freezes ``samples`` in place, checks and computes nothing."""
    recording = object.__new__(Recording)
    vars(recording).update(subject_id=subject_id, session_id=session_id, task_id=task_id,
                           samples=samples, device=device, _features=features)
    samples.setflags(write=False)
    return recording


def _check_feature(feature: str) -> str:
    """``feature`` if it is one of :data:`FEATURES`; ValueError otherwise."""
    if feature not in FEATURES:
        raise ValueError(f"unknown feature {feature!r}, expected one of {FEATURES}")
    return feature


def feature_of_rows(feature: FeatureName, rows, level: int) -> np.ndarray:
    """``feature`` of each of k equally long pressure ``rows`` as k floats.
    Saturation compares each row as given (a float row is never cast to
    int64) with the ceiling ``level`` as int64; the mean ignores ``level``."""
    if feature == "saturation_ratio":
        block = np.asarray(rows)
        return np.count_nonzero(block >= np.int64(level), axis=1) / block.shape[1]
    return np.array(rows, dtype=np.float64).mean(axis=1)


def _features_of(arrays: Sequence[np.ndarray], device: DeviceProfile) -> list[dict[str, float]]:
    """The features of each (N, 7) array of ``arrays``, one dict per array
    from each name of :data:`FEATURES` to its value.  The saturation ratio is
    the fraction of pressures at or above ``device.max_level`` (the applied
    force met what the sensor can represent); the mean pressure is in device
    levels.  The kernel :func:`feature_of_rows` runs once per feature on each
    group of equally long arrays: its mean reduces a C-contiguous float64
    block along the rows, which gives each row the bits of its 1-d ``mean``
    (an int64 block's ``mean(axis=1)`` sums in buffers of 8192 values).

    Every builder calls this once while it holds the samples:
    :func:`_dataset` on each session, in the process that read or drew it,
    ``Recording(...)`` and the ``features`` command on their one array, and
    :func:`hwfatigue.features.extract_features` on a pen-down subset.  A
    recording carries the result, unpickling keeps it and
    :func:`hwfatigue.report.aggregate` only collects it."""
    values = [None] * len(arrays)
    for n in set(map(len, arrays)):
        group = [i for i, samples in enumerate(arrays) if len(samples) == n]
        pressures = np.array([arrays[i][:, COL_PRESSURE] for i in group])
        columns = [feature_of_rows(name, pressures, device.max_level).tolist()
                   for name in FEATURES]
        for i, row in zip(group, zip(*columns)):
            values[i] = dict(zip(FEATURES, row))
    return values


def parse_svc(source: str | TextIO, device: DeviceProfile = DeviceProfile()) -> np.ndarray:
    """Parse SVC text into an (N, 7) int64 sample array.

    ``source`` may be a string or a text file object.  The declared sample
    count must be at least 1 and match the number of data lines exactly,
    every line must carry seven ASCII integer tokens ``[+-]?[0-9]+`` that fit
    int64, pen status must be 0/1, pressure must lie in
    ``[0, device.max_level]`` and timestamps must be non-decreasing.  Any
    violation raises :class:`SvcParseError` with the 1-based line number; no
    partial result is ever returned.  So the arrays returned are exactly
    those ``Recording(...)`` accepts.

    Blank lines are ignored (the canonical writer emits none).  Tokens are
    separated by spaces or tabs; lines end in LF or CRLF.  ValueError unless
    ``device`` is a :class:`DeviceProfile`, and unless ``source`` is text
    (bytes are not: :func:`read_svc` reads a file's bytes).
    """
    _check_device(device)
    text = source.read() if hasattr(source, "read") else source
    if not isinstance(text, str):
        raise ValueError(f"source must be a string or a text file, got {type(text).__name__}")
    return _parse_bytes(text.encode("utf-8", "surrogatepass"), device)


def _parse_bytes(raw: bytes, device: DeviceProfile) -> np.ndarray:
    """:func:`parse_svc` of the bytes of a file or of UTF-8 encoded text."""
    raw = raw.replace(b"\r\n", b"\n") if b"\r" in raw else raw
    samples = _parse_vectorized(raw)
    if samples is None or _sample_fault(samples[None], device.max_level) is not None:
        samples = _parse_lines(raw.decode("latin-1"), device)  # one character per byte
    return samples


# The decoder's uint64 arithmetic meets only uint64 arrays and np.uint64
# scalars, so it stays uint64 under numpy 1.x value-based casting and under
# numpy 2's NEP 50 alike: a signed array would promote it to float64, and a
# negative Python int would too under numpy 1.x and raise under NEP 50.
_U64 = np.uint64
_DIGIT_BITS = _U64(0x1010101010101010)  # set in the digits, clear in "+- \t\n"
_BYTE_ONES = _U64(0x0101010101010101)
_NIBBLES = _U64(0x0F0F0F0F0F0F0F0F)
# Multiply-and-shift steps that join adjacent digit groups, 1 -> 2 -> 4 -> 8 digits.
_JOIN_STEPS = ((_U64(1 << 8 | 10), _U64(8), _U64(0x00FF00FF00FF00FF)),
               (_U64(1 << 16 | 100), _U64(16), _U64(0x0000FFFF0000FFFF)),
               (_U64(1 << 32 | 10**4), _U64(32), _U64(0x00000000FFFFFFFF)))
_INT64_MAX_U = _U64(2**63 - 1)


def _parse_vectorized(raw: bytes) -> np.ndarray | None:
    """Decode well-formed SVC text, CRLF folded to LF, a word at a time.

    One mask of the bytes at or above ``+`` (the digits and signs) gives
    every token's last byte.  The grammar is checked as counts: the bytes
    are digits, signs and ``" \\t\\n"``; the header line holds one token;
    the body holds seven tokens per declared sample, with an LF between
    each row and the one before and none inside a row; every sign starts a
    token and is followed by a digit.  Each token's value comes from the
    8-byte window of the text that ends at its last byte
    (:func:`_window_values`), with a second window for tokens of 9 to 16
    digits and a third for 17 to 23.  The result is a fresh array of
    exactly the samples.

    Returns None, instead of locating the fault, whenever the text is not
    plainly well formed: a byte outside the grammar, a bad header or row, a
    token of 24 digits or more or outside int64, or a count mismatch.
    """
    rest = raw.translate(None, _DIGITS_AND_BLANKS)
    header = _HEADER_RE.match(raw)
    if rest.translate(None, b"+-") or header is None or int(header[1]) < 1:
        return None
    declared = int(header[1])
    n_signs = len(rest) - (header[1][0] < ord("0"))  # the body's
    lf = header.end() - 1  # the body starts at the header's LF
    body = np.frombuffer(raw, np.uint8, offset=lf)
    token = body >= ord("+")  # the digits and signs; " \t\n" lie below
    ends = np.flatnonzero(token[:-1] > token[1:])  # each token's last byte
    if token[-1]:
        ends = np.append(ends, len(body) - 1)
    if len(ends) != N_COLUMNS * declared:
        return None
    rows = ends.reshape(declared, N_COLUMNS)
    newlines = np.flatnonzero(body == ord("\n"))
    if len(newlines) > declared + 1:  # blank lines: keep the LFs that end the header or a row
        newlines = newlines[np.diff(np.searchsorted(ends, newlines), prepend=-1) > 0]
    if not (declared <= len(newlines) <= declared + 1
            and (newlines[:declared] < rows[:, 0]).all()
            and (rows[:len(newlines) - 1, -1] < newlines[1:]).all()):
        return None
    negative = None
    if n_signs:
        starts = np.flatnonzero(token[1:] > token[:-1]) + 1
        first = body[starts]
        signed = first < ord("0")
        if np.count_nonzero(signed) != n_signs or (starts[signed] == ends[signed]).any():
            return None
        negative = first == ord("-")
    ends += lf - 7  # now where each token's 8-byte window starts in raw
    values, full = _window_values(raw, ends)
    if len(full):  # tokens of eight digits or more: add the digits in front
        more, full_more = _window_values(raw, ends[full] - 8)
        values[full] += more * _U64(10**8)
        full = full[full_more]
    if len(full):  # sixteen or more
        more, full_more = _window_values(raw, ends[full] - 16)
        if len(full_more) or more.max() > 922:  # 24 digits or more, or far beyond int64
            return None
        values[full] += more * _U64(10**16)
        limit = _INT64_MAX_U if negative is None else _INT64_MAX_U + negative[full]
        if (values[full] > limit).any():  # 2**63 fits int64 as -2**63 alone
            return None
    if negative is not None:
        np.negative(values, out=values, where=negative)
    return values.view(np.int64).reshape(declared, N_COLUMNS)


def _window_values(raw: bytes, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each 8-byte window ``raw[s:s + 8]`` of ``starts`` (sorted; bytes
    before ``raw`` read as spaces), the value of the digits that end it as
    uint64 (0 when its last byte is not a digit), and the indices of the
    windows that are all digits.

    Each window is read big-endian, so its last byte is the lowest.  The
    0x10 bit is set in the digits and clear in ``"+- \\t\\n"``; one multiply
    adds the clear bits of every byte into each byte above it, which marks
    every byte from the last non-digit up, and the marked bytes are
    cleared.  Three multiply-and-shift steps (:data:`_JOIN_STEPS`) then
    join the digits left, 1 -> 2 -> 4 -> 8 to a number."""
    view = np.ndarray((len(raw) - 7,), "<u8", raw, 0, (1,))  # element i: raw[i:i + 8]
    # Indexing reads each window where it lies; take() would first copy the
    # unaligned view whole, eight times the text.
    words = view[starts]
    words.byteswap(inplace=True)  # in place: a second array of words costs page faults
    for i in range(np.searchsorted(starts, 0)):
        words[i] = int.from_bytes(raw[:starts[i] + 8].rjust(8, b" "), "big")
    keep = np.invert(words)
    keep &= _DIGIT_BITS  # 0x10 in each byte that is not a digit
    keep *= _BYTE_ONES  # 0x10 times the non-digits at or below each byte
    keep += _U64(0x7070707070707070)
    keep &= _U64(0x8080808080808080)  # 0x80 from the last non-digit up
    keep >>= _U64(7)
    keep *= _U64(0x0F)
    keep ^= _NIBBLES  # 0x0F in each digit below the last non-digit
    full = np.flatnonzero(keep >= _U64(0x0F << 56))
    words &= keep
    for multiplier, shift, mask in _JOIN_STEPS:
        words *= multiplier
        words >>= shift
        words &= mask
    return words, full


def _parse_lines(text: str, device: DeviceProfile) -> np.ndarray:
    """Line-by-line parse of ``text``, one character per byte with CRLF
    folded to LF, that raises at the first bad line.

    Runs only after :func:`_parse_vectorized` has given up or its array
    failed :func:`_sample_fault`, so that errors carry a file line and a
    reason.  Syntax is checked line by line (a byte outside ASCII, header included, is
    its line's fault); :func:`_sample_fault` runs on the rows before the first syntax
    fault, so the first fault in file order is reported.
    """
    numbered = [(i, line.strip(" \t")) for i, line in enumerate(text.split("\n"), start=1)]
    numbered = [(i, line) for i, line in numbered if line]
    if not numbered:
        raise SvcParseError("missing sample-count header")
    bad = _NON_ASCII_RE.search(text)  # the first: parsing stops at its line
    non_ascii = bad and SvcParseError(f"non-ASCII byte 0x{ord(bad[0]):02x}",
                                      line=text.count("\n", 0, bad.start()) + 1)

    header_line_no, header = numbered[0]
    if non_ascii and non_ascii.line == header_line_no:
        raise non_ascii
    if not _TOKEN_RE.fullmatch(header):
        raise SvcParseError(f"sample-count header is not an integer: {header!r}",
                            line=header_line_no)
    declared = _int64(header)
    if declared is None:
        raise SvcParseError(f"sample count out of range: {header!r}", line=header_line_no)
    if declared < 1:
        raise SvcParseError(f"sample count must be positive, got {declared}",
                            line=header_line_no)

    data_lines = numbered[1:]
    if len(data_lines) != declared:
        raise SvcParseError(
            f"sample count mismatch: header declares {declared}, "
            f"found {len(data_lines)} data lines",
            line=header_line_no)

    rows = []
    fault = None
    for line_no, line in data_lines:
        tokens = _SEPARATOR_RE.split(line)
        values = [_int64(t) for t in tokens if _TOKEN_RE.fullmatch(t)]
        if non_ascii and non_ascii.line == line_no:
            fault = non_ascii
        elif len(tokens) != N_COLUMNS:
            fault = SvcParseError(f"expected {N_COLUMNS} columns, got {len(tokens)}",
                                  line=line_no)
        elif len(values) != N_COLUMNS:
            bad = next(t for t in tokens if not _TOKEN_RE.fullmatch(t))
            fault = SvcParseError(f"non-integer token {bad!r}", line=line_no)
        elif None in values:
            bad = tokens[values.index(None)]
            fault = SvcParseError(f"integer out of range: {bad!r}", line=line_no)
        if fault is not None:
            break
        rows.append(values)
    samples = np.array(rows, dtype=np.int64).reshape(len(rows), N_COLUMNS)
    invalid = _sample_fault(samples[None], device.max_level)
    if invalid is not None:
        raise SvcParseError(invalid[2], line=data_lines[invalid[1]][0])
    if fault is not None:
        raise fault
    return samples


def _int64(token: str) -> int | None:
    """Value of a ``[+-]?[0-9]+`` token, or None when it does not fit int64."""
    magnitude = token.lstrip("+-").lstrip("0")
    if len(magnitude) > 19:  # also keeps int() below its digit limit
        return None
    value = -int(magnitude or "0") if token[0] == "-" else int(magnitude or "0")
    return value if _INT64.min <= value <= _INT64.max else None


def read_svc(path: Path | str, device: DeviceProfile = DeviceProfile()) -> np.ndarray:
    """:func:`parse_svc` of the file at ``path``, whose bytes go to the
    decoder as they are; every error names ``path``.  ValueError before any
    reading unless ``device`` is a :class:`DeviceProfile`.
    """
    _check_device(device)
    try:
        return _parse_bytes(Path(path).read_bytes(), device)
    except SvcParseError as err:
        err.path = str(path)
        raise


def serialize_svc(samples) -> str:
    """Render an (N, 7) integer sample array in canonical SVC text: count
    header, one space-separated row per sample, LF line endings.

    Raises ValueError for an array no device accepts: N < 1, a pen status
    other than 0/1, a negative pressure or a decreasing timestamp.  The
    device's pressure ceiling is checked when the text is read.  The text of
    any array ``Recording`` accepts round-trips bit-exactly through
    :func:`parse_svc`.
    """
    return _svc_bytes(_checked_rows(samples, MAX_PRESSURE_LEVEL, copy=False)).decode("ascii")


_LIMB = 10**5  # one limb is five decimal digits


@functools.cache
def _limb_words() -> tuple[np.ndarray, np.ndarray]:
    """``(bare, padded)``: the 8-byte word of each limb value 0..99999.
    Bytes 1-5 hold its five digits; byte 0 (sign slot), byte 6 (separator
    slot) and byte 7 are NUL.  ``padded`` keeps the leading zeros;
    ``bare`` makes them NUL but keeps the units digit.  Built through a
    uint8 view, so the bytes sit in this order whatever the byte order."""
    limb = np.arange(_LIMB)
    padded = np.zeros((_LIMB, 8), np.uint8)
    for col, power in enumerate((10**4, 10**3, 100, 10, 1), start=1):
        padded[:, col] = limb // power % 10 + ord("0")
    bare = padded.copy()
    for col, power in enumerate((10**4, 10**3, 100, 10), start=1):
        bare[limb < power, col] = 0
    return bare.view(np.uint64).ravel(), padded.view(np.uint64).ravel()


def _svc_bytes(samples: np.ndarray) -> bytes:
    """:func:`serialize_svc` of an (N, 7) int64 array already checked, as bytes.

    Each magnitude is split into as many base-10**5 limbs as the largest
    one needs, and each limb becomes one word of :func:`_limb_words`: the
    padded word after a non-zero higher limb, the bare word for the first
    non-zero limb or a zero value's last limb, and an all-NUL word for the
    zero limbs in front.  The first word of a negative value gets ``-`` in
    its sign slot, the last word of each value a space (an LF after every
    seventh token) in its separator slot, and one ``bytes.translate``
    deletes every NUL.
    """
    bare, padded = _limb_words()
    values = samples.ravel()
    q = np.abs(values).view(np.uint64)  # abs(-2**63) wraps to -2**63, which is 2**63 as uint64
    n_limbs = -(-len(str(int(q.max()))) // 5)
    words = np.empty((values.size, n_limbs), np.uint64)
    for j in range(n_limbs):
        last = j == n_limbs - 1
        high = q if last else q // _LIMB ** (n_limbs - 1 - j)  # this limb and those above
        if j == 0:  # below _LIMB, with no higher limb to pad after
            words[:, j] = bare[high.astype(np.intp)]
        else:
            limb = (high % _LIMB).astype(np.intp)
            words[:, j] = np.where(high >= _LIMB, padded[limb], bare[limb])
        if not last:
            words[high == 0, j] = 0
    slots = words.view(np.uint8).reshape(values.size, 8 * n_limbs)
    slots[values < 0, 0] = ord("-")
    slots[:, -2] = ord(" ")
    slots[N_COLUMNS - 1::N_COLUMNS, -2] = ord("\n")
    return f"{len(samples)}\n".encode() + words.tobytes().translate(None, b"\0")


def recording_path(root: Path, subject_id: int, session_id: int, task_id: int) -> Path:
    return Path(root) / f"subject{subject_id:02d}" / f"session{session_id}" / f"task{task_id}.svc"


# The names the layout walk reads, mapped to their ids: recording_path's own.
_SUBJECT_DIRS = {recording_path("", s, 1, 1).parts[0]: s for s in range(1, MAX_SUBJECT_ID + 1)}
_SESSION_DIRS = {recording_path("", 1, s, 1).parts[1]: s for s in SESSIONS}
_TASK_FILES = {recording_path("", 1, 1, t).name: t for t in TASKS}


def load_dataset(root: Path | str, device: DeviceProfile = DeviceProfile()) -> Dataset:
    """Load every well-formed recording under ``root``.

    Walks the ``subject<NN>/session<S>/task<T>.svc`` layout; entries that do
    not match it are ignored, missing cells are legal.  A malformed file
    aborts the whole load with a :class:`SvcParseError` naming its path and
    line; with several malformed files it is the first in walk order.
    :func:`_dataset` builds the recordings, one session directory per unit
    (:func:`_read_session`), so they share ``device`` and keep memory as
    its docstring says.
    ValueError before the walk unless ``device`` is a :class:`DeviceProfile`.
    """
    _check_device(device)
    root = Path(root)
    if not root.is_dir():
        raise DatasetError(f"dataset root is not a directory: {root}")
    return _dataset(_session_files(root), functools.partial(_read_session, device=device),
                    device)


def _dataset(sessions: Sequence, unit: Callable, device: DeviceProfile) -> Dataset:
    """The recordings of every session of ``sessions``: the one builder of
    :func:`load_dataset`, :func:`hwfatigue.synth.generate_dataset` and
    :func:`hwfatigue.synth.generate_recording`.  ``unit(session)`` returns
    the session's keys and their checked (N, 7) int64 arrays, a list or one
    (k, n, 7) block; the process that ran it computes their
    :func:`_features_of`, and the caller wraps each array as a recording
    under the one ``device``.  The units go through :func:`_fan_out`: a
    recording kept from a forked child's session is a read-only view of
    that child's one shared mapping and keeps every session the child
    built, and one kept from the caller's own keeps only its array or block.
    """
    def built(session):
        keys, arrays = unit(session)
        return keys, arrays, _features_of(arrays, device)

    return Dataset(_recording(*key, samples, device, values)
                   for keys, arrays, features in _fan_out(built, sessions)
                   for key, samples, values in zip(keys, arrays, features))


def _session_files(root: Path) -> list[list[tuple[tuple[int, int, int], Path]]]:
    """The layout's ``(key, path)`` pairs under ``root`` in walk order,
    one list per session directory that holds any."""
    sessions = []
    for subject_dir in sorted(root.iterdir()):
        subject_id = _SUBJECT_DIRS.get(subject_dir.name)
        if subject_id is None or not subject_dir.is_dir():
            continue
        for session_dir in sorted(subject_dir.iterdir()):
            session_id = _SESSION_DIRS.get(session_dir.name)
            if session_id is None or not session_dir.is_dir():
                continue
            files = []
            for task_file in sorted(session_dir.iterdir()):
                task_id = _TASK_FILES.get(task_file.name)
                if task_id is not None and task_file.is_file():
                    files.append(((subject_id, session_id, task_id), task_file))
            if files:
                sessions.append(files)
    return sessions


def _read_session(files: list[tuple[tuple[int, int, int], Path]], device: DeviceProfile
                  ) -> tuple[list[tuple[int, int, int]], list[np.ndarray]]:
    """The keys of one session's files and :func:`read_svc` of each, in order."""
    return [key for key, _ in files], [read_svc(path, device) for _, path in files]


def write_dataset(dataset: Dataset, root: Path | str) -> list[Path]:
    """Serialize every recording into the directory layout under ``root``.

    Returns the written paths in key order.  Subject ids above
    :data:`MAX_SUBJECT_ID` do not fit the two-digit layout and are rejected
    before anything is written.  Session directories are written in
    parallel (see the module docstring).
    """
    root = Path(root)
    _check_subject_ids(dataset.subjects())
    sessions = [list(group) for _, group in itertools.groupby(dataset, lambda r: r.key[:2])]
    written = _fan_out(lambda session: _write_session(root, [r.key for r in session],
                                                      [r.samples for r in session]), sessions)
    return [path for paths in written for path in paths]


def _check_subject_ids(subject_ids: Iterable[int]) -> None:
    """DatasetError naming the first of ``subject_ids`` (in ascending order)
    above :data:`MAX_SUBJECT_ID`, which the two-digit layout cannot hold."""
    too_large = next((s for s in subject_ids if s > MAX_SUBJECT_ID), None)
    if too_large is not None:
        raise DatasetError(f"subject_id {too_large} does not fit the subject<NN> layout")


def _write_session(root: Path, keys: list[tuple[int, int, int]], arrays) -> list[Path]:
    paths = [recording_path(root, *key) for key in keys]
    paths[0].parent.mkdir(parents=True, exist_ok=True)
    for samples, path in zip(arrays, paths):
        path.write_bytes(_svc_bytes(samples))
    return paths


def _process_count() -> int:
    """CPUs this process may run on; 1 in a daemonic process (a
    ``multiprocessing.Pool`` worker, say), which may not start children,
    and where ``os.memfd_create`` is missing, which :func:`_fan_out` needs."""
    import multiprocessing  # here, not at the top: importing the CLI stays lean

    if (multiprocessing.current_process().daemon or not hasattr(os, "sched_getaffinity")
            or not hasattr(os, "memfd_create")):
        return 1
    return len(os.sched_getaffinity(0))


def _fan_out(fn: Callable, chunks: Sequence) -> list:
    """``[fn(chunk) for chunk in chunks]``, spread over one process per CPU.
    Fewer than two chunks run in the calling process without counting the
    CPUs, so building one recording never imports ``multiprocessing``.

    With ``n = min(CPUs, len(chunks))`` processes, the calling process runs
    chunk 0 and forked child ``k`` runs chunk ``k``; then each claims the
    lowest chunk no process has claimed yet (:func:`_claims`) until none is
    left, so no more processes are busy than there are CPUs and none waits
    on another's fixed share.  ``fn`` and the chunks reach the children
    through fork and are never pickled.  Every process stops at its first
    failing chunk (:func:`_outcomes`).  Each child writes its whole report
    into its own anonymous shared file (``os.memfd_create``, made here
    before the fork; :func:`_run_child`).  Once a child has exited, the
    caller maps its file read-only, once, and unpickles the child's results
    over that one mapping without a copy (:func:`_reported`); a child that
    left no report, whatever its exit code, fails at its first chunk.  So a result
    kept from a child keeps that child's whole file, which goes with the
    last of them, and a result of the caller's own chunks keeps only its
    own arrays.  No mapping holds a file descriptor.  Once all are in and
    every child is reaped, the failure of the earliest chunk is raised,
    which is the one ``n = 1`` (run inline) would raise; its traceback
    keeps none of the results.  The children ignore SIGINT, and a caller
    that stops early (an interrupt, say) terminates them before it reaps
    them, so none runs on after the call; every shared file is closed by
    then.  A caller killed outright takes its children with it: each child
    asks for SIGKILL when its parent dies (``PR_SET_PDEATHSIG``).  That
    signal follows the thread that forked the child, not the process, and
    that thread stays in this call until every child is reaped.  Python
    3.12 and later warn (``DeprecationWarning``) when a multi-threaded
    process forks, and importing numpy leaves its OpenBLAS threads running;
    the children only draw random numbers, parse, format, count rank sums
    and do file I/O, make no BLAS call, and leave through ``os._exit``.
    """
    n = min(_process_count(), len(chunks)) if len(chunks) > 1 else 1
    if n <= 1:
        return [fn(chunk) for chunk in chunks]
    import multiprocessing

    context = multiprocessing.get_context("fork")
    _libc()  # loaded once here, not again in every child (_run_child)
    counter = mmap.mmap(-1, 8)  # the next chunk to claim, shared with the children
    counter[:] = n.to_bytes(8, "little")
    claims = functools.partial(_claims, end=len(chunks), counter=counter, lock=context.Lock())
    memfds, workers = [], []
    try:
        for k in range(1, n):
            memfds.append(os.memfd_create("hwfatigue"))
            # Both signals wait until the child has its own handlers and is in workers.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGINT, signal.SIGTERM))
            try:
                worker = context.Process(target=_run_child, daemon=True,
                                         args=(fn, chunks, claims(k), memfds[-1], os.getpid()))
                worker.start()
                workers.append(worker)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        outcomes = list(_outcomes(fn, chunks, claims(0)))
        for k, (worker, memfd) in enumerate(zip(workers, memfds), start=1):
            worker.join()
            outcomes += _reported(memfd) or [(k, False, OSError(
                f"worker process exited with code {worker.exitcode} "
                "before reporting its results"))]
    finally:
        for worker in workers:
            worker.terminate()  # done if it reported; if not (an interrupt), stopped now
            worker.join()
            worker.close()
        for fd in memfds:
            os.close(fd)
        counter.close()
    # Chunks are claimed in order and a process claims none after its first
    # failure, so a chunk without an outcome lies past a failure: an earlier
    # one, or chunk k of a child k that left no report, the first it claimed.
    by_chunk = {i: (ok, value) for i, ok, value in outcomes}
    del outcomes  # a raised failure's traceback keeps this frame, but not the results
    results = []
    for i in range(len(chunks)):
        ok, value = by_chunk[i]
        if not ok:
            del by_chunk, results
            raise value
        results.append(value)
    return results


def _claims(first: int, end: int, counter: mmap.mmap, lock) -> Iterator[int]:
    """``first``, then chunk numbers below ``end`` claimed one at a time by
    taking and incrementing the shared ``counter`` under ``lock``."""
    yield first
    while True:
        with lock:
            i = int.from_bytes(counter, "little")
            counter[:] = (i + 1).to_bytes(8, "little")
        if i >= end:
            return
        yield i


def _outcomes(fn: Callable, chunks: Sequence,
              claimed: Iterable[int]) -> Iterator[tuple[int, bool, object]]:
    """``(i, True, fn(chunks[i]))`` for each claimed chunk ``i`` up to the
    first failure, which ends them as ``(i, False, error)`` and stops the
    claims.  Each chunk is claimed only once the one before is consumed."""
    for i in claimed:
        try:
            outcome = i, True, fn(chunks[i])
        except Exception as err:
            outcome = i, False, err  # replacing the last result, which err's traceback would keep
        yield outcome
        if not outcome[1]:
            return


def _run_child(fn: Callable, chunks: Sequence, claimed: Iterable[int], memfd: int,
               caller: int) -> None:
    """Body of a child forked by the process ``caller``: first it arranges to
    die with its parent, and exits at once if ``caller`` is gone already.
    Then it pickles each of the :func:`_outcomes` of the chunks it claims
    as it comes, with protocol 5, into the shared file ``memfd``: the
    out-of-band buffers (each array's data) straight from the arrays, one
    chunk's back to back from a multiple of 64 bytes (aligned for any numpy
    dtype).  Once it stops, it appends the list of ``(i, ok, pickle,
    offset, buffer sizes)`` as one pickle and, last of all, writes the
    list's offset into the file's first 8 bytes, which read zero until then
    (:func:`_reported`)."""
    if _libc().prctl(_PR_SET_PDEATHSIG, signal.SIGKILL) or os.getppid() != caller:
        os._exit(1)  # no death signal, or the caller died before it was set
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller alone answers an interrupt
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # and stops the child with terminate()
    signal.pthread_sigmask(signal.SIG_UNBLOCK, (signal.SIGINT, signal.SIGTERM))
    report = []
    with open(memfd, "wb") as shared:
        shared.seek(8)
        for i, ok, value in _outcomes(fn, chunks, claimed):
            buffers = []
            head = pickle.dumps(value, protocol=5, buffer_callback=buffers.append)
            offset = -(-shared.tell() // 64) * 64
            shared.seek(offset)
            sizes = [shared.write(buffer.raw()) for buffer in buffers]
            report.append((i, ok, head, offset, sizes))
        start = shared.tell()
        pickle.dump(report, shared, protocol=5)
        shared.seek(0)  # flushes the whole report before the offset is written
        shared.write(start.to_bytes(8, "little"))


def _reported(memfd: int) -> list[tuple[int, bool, object]]:
    """The outcomes an exited child wrote into the shared file ``memfd``
    (:func:`_run_child`); none when its first 8 bytes read zero, whatever
    the child's exit code.  The file is mapped read-only once, and each
    result is unpickled over slices of that mapping without a copy: a
    result kept keeps the whole file, which goes with the last of them."""
    start = int.from_bytes(os.pread(memfd, 8, 0), "little")
    if not start:
        return []
    shared = memoryview(np.asarray(_Mapping(memfd, os.fstat(memfd).st_size)))
    outcomes = []
    for i, ok, head, offset, sizes in pickle.loads(shared[start:]):
        spans = itertools.pairwise(itertools.accumulate(sizes, initial=offset))
        outcomes.append((i, ok, pickle.loads(head, buffers=[shared[a:b] for a, b in spans])))
    return outcomes


_PR_SET_PDEATHSIG = 1  # prctl option, from <linux/prctl.h>


@functools.cache
def _libc():
    """libc with ``mmap``, ``munmap`` and ``prctl`` declared for ctypes."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.mmap.restype = ctypes.c_void_p
    libc.mmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int, ctypes.c_int,
                          ctypes.c_int, ctypes.c_long)
    libc.munmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t)
    libc.prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
    return libc


class _Mapping:
    """A read-only shared mapping of the first ``size`` bytes of the file
    ``fd``, unmapped when this object dies; numpy reads it as a uint8 array.
    It is made by libc's ``mmap`` because a ``mmap.mmap`` holds a duplicate
    of the file's descriptor for as long as it lives (before Python 3.13),
    and kept results would then hold one descriptor per child."""

    def __init__(self, fd: int, size: int):
        libc = _libc()
        address = libc.mmap(None, size, mmap.PROT_READ, mmap.MAP_SHARED, fd, 0)
        if address == ctypes.c_void_p(-1).value:  # MAP_FAILED
            errno = ctypes.get_errno()
            raise OSError(errno, os.strerror(errno))
        self.__array_interface__ = {"version": 3, "shape": (size,), "typestr": "|u1",
                                    "data": (address, True)}
        self._unmap = functools.partial(libc.munmap, address, size)

    def __del__(self):
        if hasattr(self, "_unmap"):
            self._unmap()
