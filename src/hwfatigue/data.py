"""Data model and file I/O for online handwriting recordings.

A recording is the sample stream captured by a digitizing tablet while a
subject performs one handwriting task in one acquisition session.  Recordings
are stored on disk in a plain-text SVC-style format:

    line 1:        N                       (number of samples)
    lines 2..N+1:  x y timestamp pen_status azimuth altitude pressure

All seven channels are integers, written as ASCII tokens ``[+-]?[0-9]+``
that fit int64 and are separated by spaces or tabs.  Lines end in LF or
CRLF; blank lines are ignored.  ``pen_status`` is 0 (pen up, hovering) or
1 (pen down, touching the surface).  ``pressure`` is a device level in
``[0, max_level]`` where ``max_level`` is the sensor ceiling (1023 for the
reference tablet).

A dataset directory groups recordings as::

    root/subject<NN>/session<S>/task<T>.svc

with NN zero-padded to two digits (01..99), S in 1..5 and T in 1..9.
Missing files are legal; entries that do not match the layout are ignored.

:func:`write_dataset` and :func:`load_dataset` treat each session directory
(at most nine files) as one unit of work and spread the units over one
process per CPU in this process's affinity set; there is no flag.  The
calling process works through its own share while forked children work
through theirs.  The written bytes, the returned paths or dataset and any
error raised do not depend on the process count: a fault is reported as a
one-process walk would report it, the first faulty file in walk order.  Python 3.12 and later warn (``DeprecationWarning``) when a
multi-threaded process forks, and importing numpy leaves its OpenBLAS
threads running; the children only parse, format and do file I/O, and
leave through ``os._exit``.
"""

from __future__ import annotations

import enum
import functools
import io
import itertools
import os
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np

SESSIONS = (1, 2, 3, 4, 5)
TASKS = (1, 2, 3, 4, 5, 6, 7, 8, 9)
# Largest subject id the two-digit subject<NN> layout can hold.
MAX_SUBJECT_ID = 99

# Column order of an SVC row and of Recording.samples.
COL_X = 0
COL_Y = 1
COL_TIMESTAMP = 2
COL_PEN_STATUS = 3
COL_AZIMUTH = 4
COL_ALTITUDE = 5
COL_PRESSURE = 6
N_COLUMNS = 7

_SUBJECT_DIR_RE = re.compile(r"subject(0[1-9]|[1-9][0-9])$")
_SESSION_DIR_RE = re.compile(r"session([1-5])$")
_TASK_FILE_RE = re.compile(r"task([1-9])\.svc$")

# The only bytes well-formed SVC text holds once CRLF is folded to LF.
_SVC_BYTES = b"0123456789+- \t\n"
_TOKEN_RE = re.compile(r"[+-]?[0-9]+")
_SEPARATOR_RE = re.compile(r"[ \t]+")
_INT64 = np.iinfo(np.int64)
_ROW_FORMAT = " ".join(["%d"] * N_COLUMNS) + "\n"


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
    """Invalid dataset content (duplicate keys, unreadable recordings)."""


class PenStatus(enum.IntEnum):
    UP = 0
    DOWN = 1


@dataclass(frozen=True)
class DeviceProfile:
    """Pressure range of the acquisition tablet.

    ``force_at_max`` is the physical force density (Newton/mm^2) at which the
    sensor saturates, i.e. the force corresponding to level ``max_level``.
    """

    max_level: int = 1023
    force_at_max: float = 45.0

    def __post_init__(self) -> None:
        if self.max_level <= 0:
            raise ValueError(f"max_level must be positive, got {self.max_level}")
        if self.force_at_max <= 0:
            raise ValueError(f"force_at_max must be positive, got {self.force_at_max}")


@dataclass(frozen=True)
class Recording:
    """Ordered sample stream for one (subject, session, task) triple.

    ``samples`` is an (N, 7) int64 array in SVC column order; the per-channel
    properties below expose read-only column views.  The array is frozen at
    construction so recordings can be shared across threads.
    """

    subject_id: int
    session_id: int
    task_id: int
    samples: np.ndarray
    device: DeviceProfile = field(default_factory=DeviceProfile)

    def __post_init__(self) -> None:
        if self.subject_id < 1:
            raise ValueError(f"subject_id must be positive, got {self.subject_id}")
        if self.session_id not in SESSIONS:
            raise ValueError(f"session_id must be in 1..5, got {self.session_id}")
        if self.task_id not in TASKS:
            raise ValueError(f"task_id must be in 1..9, got {self.task_id}")
        arr = np.array(self.samples, dtype=np.int64, copy=True)
        if arr.ndim != 2 or arr.shape[1] != N_COLUMNS:
            raise ValueError(f"samples must be an (N, {N_COLUMNS}) array, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise ValueError("recording has no samples")
        invalid = _invalid_sample(arr, self.device.max_level)
        if invalid is not None:
            raise ValueError(f"sample {invalid[0]}: {invalid[1]}")
        ts = arr[:, COL_TIMESTAMP]
        backwards = np.flatnonzero(np.diff(ts) < 0)
        if backwards.size:
            i = int(backwards[0]) + 1
            raise ValueError(f"sample {i}: timestamp {ts[i]} follows {ts[i - 1]}, "
                             "timestamps must be non-decreasing")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def __reduce__(self):
        # Unpickling goes through the constructor, which checks and freezes
        # the array again (pickle would otherwise restore a writable one).
        return Recording, (*self.key, self.samples, self.device)

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


def _invalid_sample(samples: np.ndarray, max_level: int) -> tuple[int, str] | None:
    """Row index and description of the first sample of an (N, 7) array whose
    pen status is not 0/1 or whose pressure lies outside ``[0, max_level]``;
    None when every sample is valid."""
    pen = samples[:, COL_PEN_STATUS]
    pressure = samples[:, COL_PRESSURE]
    if len(samples) == 0 or (pen.min() >= 0 and pen.max() <= 1
                             and pressure.min() >= 0 and pressure.max() <= max_level):
        return None
    row = int(np.argmax((pen != 0) & (pen != 1) | (pressure < 0) | (pressure > max_level)))
    if pen[row] not in (0, 1):
        return row, f"pen_status must be 0 or 1, got {pen[row]}"
    return row, f"pressure {pressure[row]} outside [0, {max_level}]"


def parse_svc(source: str | TextIO, device: DeviceProfile = DeviceProfile()) -> np.ndarray:
    """Parse SVC text into an (N, 7) int64 sample array.

    ``source`` may be a string or a text file object.  The declared sample
    count must match the number of data lines exactly, every line must carry
    seven ASCII integer tokens ``[+-]?[0-9]+`` that fit int64, pen status
    must be 0/1 and pressure must lie in ``[0, device.max_level]``.  Any
    violation raises :class:`SvcParseError` with the 1-based line number; no
    partial result is ever returned.

    Blank lines are ignored (the canonical writer emits none).  Tokens are
    separated by spaces or tabs; lines end in LF or CRLF.
    """
    text = source.read() if hasattr(source, "read") else source
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    samples = _parse_vectorized(text)
    if samples is None or _invalid_sample(samples, device.max_level) is not None:
        samples = _parse_lines(text, device)
    return samples


def _parse_vectorized(text: str) -> np.ndarray | None:
    """Parse well-formed SVC text in one pass of numpy's C tokenizer.

    Returns None, instead of locating the fault, whenever the text is not
    plainly well formed: a byte outside the grammar, a bad header, a token
    loadtxt rejects (int64 overflow included) or a count mismatch.
    """
    if not text.isascii() or text.encode("ascii").translate(None, _SVC_BYTES):
        return None
    head, _, body = text.lstrip(" \t\n").partition("\n")
    try:
        declared = int(head)
    except ValueError:
        return None
    if not body.strip(" \t\n"):
        return np.empty((0, N_COLUMNS), dtype=np.int64) if declared == 0 else None
    try:
        with warnings.catch_warnings():
            # Older numpy parses an int64 overflow via float and only warns.
            warnings.simplefilter("error", DeprecationWarning)
            samples = np.loadtxt(io.StringIO(body), dtype=np.int64, comments=None, ndmin=2)
    except (ValueError, DeprecationWarning):
        return None
    return samples if samples.shape == (declared, N_COLUMNS) else None


def _parse_lines(text: str, device: DeviceProfile) -> np.ndarray:
    """Line-by-line parse that raises at the first bad line.

    Runs only after :func:`_parse_vectorized` has given up, so that errors
    carry a file line and a reason.  Syntax is checked line by line; the
    pen and pressure checks run on the rows parsed before the first syntax
    error, so whichever fault comes first in the file is reported.
    """
    numbered = [(i, line.strip(" \t")) for i, line in enumerate(text.split("\n"), start=1)]
    numbered = [(i, line) for i, line in numbered if line]
    if not numbered:
        raise SvcParseError("missing sample-count header")

    header_line_no, header = numbered[0]
    if not _TOKEN_RE.fullmatch(header):
        raise SvcParseError(f"sample-count header is not an integer: {header!r}",
                            line=header_line_no)
    declared = _int64(header)
    if declared is None:
        raise SvcParseError(f"sample count out of range: {header!r}", line=header_line_no)
    if declared < 0:
        raise SvcParseError(f"sample count must be non-negative, got {declared}",
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
        if len(tokens) != N_COLUMNS:
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
    invalid = _invalid_sample(samples, device.max_level)
    if invalid is not None:
        raise SvcParseError(invalid[1], line=data_lines[invalid[0]][0])
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
    """Read and parse one SVC file; every error names ``path``.

    The file is decoded as ASCII here, so a non-ASCII byte is reported as a
    :class:`SvcParseError` with the path and line rather than a decode error.
    """
    raw = Path(path).read_bytes()
    try:
        return parse_svc(raw.decode("ascii"), device)
    except UnicodeDecodeError as err:
        raise SvcParseError(f"non-ASCII byte 0x{raw[err.start]:02x}",
                            line=raw.count(b"\n", 0, err.start) + 1,
                            path=str(path)) from None
    except SvcParseError as err:
        err.path = str(path)
        raise


def serialize_svc(samples) -> str:
    """Render an (N, 7) integer sample array in canonical SVC text: count
    header, one space-separated row per sample, LF line endings.

    Canonical form round-trips bit-exactly through :func:`parse_svc`.
    """
    arr = np.asarray(samples, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != N_COLUMNS:
        raise ValueError(f"samples must be an (N, {N_COLUMNS}) array, got shape {arr.shape}")
    return f"{arr.shape[0]}\n" + (_ROW_FORMAT * arr.shape[0]) % tuple(arr.ravel().tolist())


def recording_path(root: Path, subject_id: int, session_id: int, task_id: int) -> Path:
    return Path(root) / f"subject{subject_id:02d}" / f"session{session_id}" / f"task{task_id}.svc"


def load_dataset(root: Path | str, device: DeviceProfile = DeviceProfile()) -> Dataset:
    """Load every well-formed recording under ``root``.

    Walks the ``subject<NN>/session<S>/task<T>.svc`` layout; entries that do
    not match it are ignored, missing cells are legal.  A malformed file
    aborts the whole load with a :class:`SvcParseError` or
    :class:`DatasetError` naming its path; with several malformed files it
    is the first in walk order.  Session directories are read in parallel
    (see the module docstring).
    """
    root = Path(root)
    if not root.is_dir():
        raise DatasetError(f"dataset root is not a directory: {root}")
    sessions = _fan_out(functools.partial(_read_session, device=device),
                        _session_files(root))
    return Dataset(recording for session in sessions for recording in session)


def _session_files(root: Path) -> list[list[tuple[tuple[int, int, int], Path]]]:
    """The layout's ``(key, path)`` pairs under ``root`` in walk order,
    one list per session directory that holds any."""
    sessions = []
    for subject_dir in sorted(root.iterdir()):
        m = _SUBJECT_DIR_RE.fullmatch(subject_dir.name)
        if m is None or not subject_dir.is_dir():
            continue
        subject_id = int(m.group(1))
        for session_dir in sorted(subject_dir.iterdir()):
            m = _SESSION_DIR_RE.fullmatch(session_dir.name)
            if m is None or not session_dir.is_dir():
                continue
            session_id = int(m.group(1))
            files = []
            for task_file in sorted(session_dir.iterdir()):
                m = _TASK_FILE_RE.fullmatch(task_file.name)
                if m is not None and task_file.is_file():
                    files.append(((subject_id, session_id, int(m.group(1))), task_file))
            if files:
                sessions.append(files)
    return sessions


def _read_session(files: list[tuple[tuple[int, int, int], Path]],
                  device: DeviceProfile) -> list[Recording]:
    recordings = []
    for key, path in files:
        samples = read_svc(path, device)
        try:
            recordings.append(Recording(*key, samples, device))
        except ValueError as err:
            raise DatasetError(f"{path}: {err}") from err
    return recordings


def write_dataset(dataset: Dataset, root: Path | str) -> list[Path]:
    """Serialize every recording into the directory layout under ``root``.

    Returns the written paths in key order.  Subject ids above
    :data:`MAX_SUBJECT_ID` do not fit the two-digit layout and are rejected
    before anything is written.  Session directories are written in
    parallel (see the module docstring).
    """
    root = Path(root)
    too_large = next((s for s in dataset.subjects() if s > MAX_SUBJECT_ID), None)
    if too_large is not None:
        raise DatasetError(f"subject_id {too_large} does not fit the subject<NN> layout")
    sessions = [list(group) for _, group in itertools.groupby(dataset, lambda r: r.key[:2])]
    written = _fan_out(functools.partial(_write_session, root=root), sessions)
    return [path for paths in written for path in paths]


def _write_session(recordings: list[Recording], root: Path) -> list[Path]:
    paths = [recording_path(root, *recording.key) for recording in recordings]
    paths[0].parent.mkdir(parents=True, exist_ok=True)
    for recording, path in zip(recordings, paths):
        path.write_text(serialize_svc(recording.samples), newline="\n")
    return paths


def _process_count() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _fan_out(fn: Callable, chunks: Sequence) -> list:
    """``[fn(chunk) for chunk in chunks]``, spread over one process per CPU.

    Chunk ``i`` runs in process ``i % n``, ``n = min(CPUs, len(chunks))``.
    The calling process runs share 0 itself and ``n - 1`` forked children
    run the others, so no more processes are busy than there are CPUs.
    ``fn`` and the chunks reach the children through fork and are never
    pickled.  Each child keeps its results until its share is done, then
    sends one message per chunk, so the caller unpickles one chunk's result
    at a time.  Every process stops at its first failing chunk; once all
    outcomes are in and every child is reaped, the failure of the earliest
    chunk is raised, which is the one ``n = 1`` (run inline) would raise.
    """
    n = min(_process_count(), len(chunks))
    if n <= 1:
        return [fn(chunk) for chunk in chunks]
    import multiprocessing  # here, not at the top: importing the CLI stays lean

    context = multiprocessing.get_context("fork")
    workers = []
    results = [None] * len(chunks)
    failures: dict[int, Exception] = {}  # chunk index -> its error
    try:
        for k in range(1, n):
            receiver, sender = context.Pipe(duplex=False)
            worker = context.Process(target=_run_share, args=(fn, chunks[k::n], sender),
                                     daemon=True)
            worker.start()
            sender.close()
            workers.append((worker, receiver))
        for i in range(0, len(chunks), n):
            try:
                results[i] = fn(chunks[i])
            except Exception as err:
                failures[i] = err
                break
        for k, (worker, receiver) in enumerate(workers, start=1):
            for i in range(k, len(chunks), n):
                try:
                    ok, value = receiver.recv()
                except EOFError:
                    worker.join()
                    failures[i] = OSError(f"worker process exited with code "
                                          f"{worker.exitcode} before reporting its results")
                    break
                if not ok:
                    failures[i] = value
                    break
                results[i] = value
    finally:
        for worker, receiver in workers:
            receiver.close()
            worker.join()
    if failures:
        raise failures[min(failures)]
    return results


def _run_share(fn: Callable, share: Sequence, sender) -> None:
    """Body of a forked child: run ``fn`` over ``share`` up to its first
    failure, then send ``(True, result)`` or ``(False, error)`` per chunk run."""
    outcomes = []
    for chunk in share:
        try:
            outcomes.append((True, fn(chunk)))
        except Exception as err:
            outcomes.append((False, err))
            break
    for outcome in outcomes:
        sender.send(outcome)
    sender.close()
