import dataclasses
import errno
import gc
import io
import json
import mmap
import multiprocessing
import os
import pickle
import re
import resource
import sys
import time
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import shared_file_descriptors
from hwfatigue import cli, data, synth
from hwfatigue.data import (SESSIONS, Dataset, DatasetError, DeviceProfile, Recording,
                            SvcParseError, load_dataset, parse_svc, read_svc,
                            recording_path, serialize_svc, write_dataset)
from hwfatigue.features import mean_pressure, saturation_ratio
from hwfatigue.synth import SynthConfig, generate_dataset, generate_recording, write_synthetic

VALID_TEXT = "2\n10 20 0 1 0 0 500\n11 21 10 1 0 0 1023\n"
# Other spellings of VALID_TEXT's samples.
VALID_VARIANTS = [
    "2\n+10 +20 -0 +1 0 0 +500\n11 21 10 1 0 0 1023\n",
    "2\n10\t20\t0\t1\t0\t0\t500\n\t11  21 10 1 0\t 0 1023 \n",
    "2\r\n10 20 0 1 0 0 500\r\n11 21 10 1 0 0 1023\r\n",
    "\n 2\n\n10 20 0 1 0 0 500\n \t\n11 21 10 1 0 0 1023\n\n",
    "2\n10 20 0 1 0 0 500\n11 21 10 1 0 0 1023",
]
INT64_LIMITS_TEXT = "1\n9223372036854775807 -9223372036854775808 0 1 0 0 5\n"
INT64_MAX = 2**63 - 1
INT64 = st.integers(-2**63, INT64_MAX)


def make_recording(subject=1, session=1, task=1, pressures=(500, 600, 700),
                   device=DeviceProfile()):
    n = len(pressures)
    samples = np.column_stack([
        np.arange(n) * 3,            # x
        np.arange(n) * 5,            # y
        np.arange(n) * 10,           # timestamp
        np.ones(n, dtype=int),       # pen_status
        np.full(n, 1800),            # azimuth
        np.full(n, 600),             # altitude
        np.asarray(pressures),       # pressure
    ])
    return Recording(subject, session, task, samples, device)


def feature_bits(recording):
    """The features ``recording`` carries, and those the scalar feature
    functions compute from its samples, each float as ``float.hex``."""
    computed = {"saturation_ratio": saturation_ratio(recording.pressure,
                                                     recording.device.max_level),
                "mean_pressure": mean_pressure(recording.pressure)}
    return ({name: value.hex() for name, value in recording._features.items()},
            {name: value.hex() for name, value in computed.items()})


class TestParseSvc:
    def test_two_samples(self):
        samples = parse_svc(VALID_TEXT)
        assert samples.shape == (2, 7)
        assert samples[:, 6].tolist() == [500, 1023]
        assert samples[0].tolist() == [10, 20, 0, 1, 0, 0, 500]

    def test_accepts_stream(self):
        samples = parse_svc(io.StringIO(VALID_TEXT))
        assert samples.shape == (2, 7)

    @pytest.mark.parametrize("source", [
        VALID_TEXT.encode(), bytearray(VALID_TEXT.encode()), io.BytesIO(VALID_TEXT.encode())],
        ids=["bytes", "bytearray", "binary file"])
    def test_refuses_a_source_that_is_not_text(self, source):
        with pytest.raises(ValueError, match="^source must be a string or a text file, got "):
            parse_svc(source)

    def test_count_mismatch_extra_line(self):
        text = "1\n10 20 0 1 0 0 500\n10 20 5 1 0 0 400\n"
        with pytest.raises(SvcParseError, match="mismatch"):
            parse_svc(text)

    def test_count_mismatch_missing_line(self):
        with pytest.raises(SvcParseError, match="declares 3, found 2"):
            parse_svc("3\n10 20 0 1 0 0 500\n10 20 5 1 0 0 400\n")

    def test_pressure_out_of_range(self):
        with pytest.raises(SvcParseError, match=r"pressure 2000 outside \[0, 1023\]") as exc:
            parse_svc("1\n10 20 0 1 0 0 2000\n")
        assert exc.value.line == 2

    def test_pressure_range_follows_device(self):
        samples = parse_svc("1\n10 20 0 1 0 0 2000\n", DeviceProfile(max_level=4095))
        assert samples[0, 6] == 2000

    @pytest.mark.parametrize("device", [1023, SimpleNamespace(max_level=1023)])
    def test_device_must_be_a_profile(self, device):
        with pytest.raises(ValueError, match="^device must be a DeviceProfile, got "):
            parse_svc(VALID_TEXT, device)

    @pytest.mark.parametrize("device", [1023, SimpleNamespace(max_level=1023)])
    def test_read_svc_device_must_be_a_profile(self, device, tmp_path):
        path = tmp_path / "task1.svc"
        path.write_text(VALID_TEXT)
        with pytest.raises(ValueError, match="^device must be a DeviceProfile, got "):
            read_svc(path, device)

    def test_negative_pressure(self):
        with pytest.raises(SvcParseError, match="pressure -1"):
            parse_svc("1\n10 20 0 1 0 0 -1\n")

    def test_too_few_columns(self):
        with pytest.raises(SvcParseError, match="expected 7 columns, got 6") as exc:
            parse_svc("1\n10 20 0 1 0 0\n")
        assert exc.value.line == 2

    def test_too_many_columns(self):
        with pytest.raises(SvcParseError, match="expected 7 columns, got 8"):
            parse_svc("1\n10 20 0 1 0 0 500 9\n")

    def test_non_integer_token(self):
        with pytest.raises(SvcParseError, match="non-integer token 'abc'") as exc:
            parse_svc("1\n10 abc 0 1 0 0 500\n")
        assert exc.value.line == 2

    def test_bad_pen_status(self):
        with pytest.raises(SvcParseError, match="pen_status must be 0 or 1"):
            parse_svc("1\n10 20 0 2 0 0 500\n")

    def test_bad_header(self):
        with pytest.raises(SvcParseError, match="header is not an integer"):
            parse_svc("two\n10 20 0 1 0 0 500\n")

    def test_negative_header(self):
        with pytest.raises(SvcParseError, match="must be positive, got -1") as exc:
            parse_svc("-1\n")
        assert exc.value.line == 1

    def test_empty_input(self):
        with pytest.raises(SvcParseError, match="missing sample-count header"):
            parse_svc("")

    def test_zero_samples(self):
        # Recording refuses an empty array, so the parser refuses it at the header
        with pytest.raises(SvcParseError, match="must be positive, got 0") as exc:
            parse_svc("0\n")
        assert exc.value.line == 1

    @pytest.mark.parametrize("text, line", [
        ("3", 1), ("3\n", 1), ("\n\n3\n", 3), ("3\n\n \t\n\t\n", 1), (" 3 \r\n \r\n\n", 1)])
    def test_header_without_data_lines(self, text, line, tmp_path):
        assert data._parse_vectorized(text.replace("\r\n", "\n").encode()) is None
        path = tmp_path / "task1.svc"
        path.write_text(text, newline="")
        for parse, where in ((lambda: parse_svc(text), ""), (lambda: read_svc(path), f"{path}:")):
            with pytest.raises(SvcParseError) as exc:
                parse()
            assert str(exc.value) == (f"{where}{line}: sample count mismatch: "
                                      "header declares 3, found 0 data lines")

    def test_error_never_returns_partial(self):
        # second line is bad: nothing from line one must leak out
        with pytest.raises(SvcParseError):
            parse_svc("2\n10 20 0 1 0 0 500\n10 20 5 1 0 0 9999\n")

    def test_int64_limits_accepted(self):
        assert parse_svc(INT64_LIMITS_TEXT)[0, :2].tolist() == [2**63 - 1, -2**63]

    def test_overlong_tokens_are_located(self):
        # longer than Python's int() digit limit
        with pytest.raises(SvcParseError, match="integer out of range") as exc:
            parse_svc("1\n" + "9" * 5000 + " 2 3 1 0 0 5\n")
        assert exc.value.line == 2
        with pytest.raises(SvcParseError, match="count out of range") as exc:
            parse_svc("9" * 5000 + "\n10 20 0 1 0 0 500\n")
        assert exc.value.line == 1
        text = "0" * 5000 + "1\n" + "0" * 5000 + "10 20 0 1 0 0 500\n"
        assert parse_svc(text).tolist() == [[10, 20, 0, 1, 0, 0, 500]]

    @pytest.mark.parametrize("line", [
        "1_0 20 0 1 0 0 500",
        "\u0661 20 0 1 0 0 500",            # ARABIC-INDIC DIGIT ONE
        "1.0 20 0 1 0 0 500",
        "0x1 20 0 1 0 0 500",
        "1e3 20 0 1 0 0 500",
        "10\u00a020 0 1 0 0 500",          # no-break space as a separator
        "\ud800 20 0 1 0 0 500",           # a lone surrogate, encoded with surrogatepass
        "99999999999999999999 20 0 1 0 0 500",
    ])
    def test_rejects_tokens_outside_ascii_grammar(self, line):
        # line 3 is blank, so the bad line is file line 4 but data row 2
        with pytest.raises(SvcParseError) as exc:
            parse_svc(f"2\n10 20 0 1 0 0 500\n\n{line}\n")
        assert exc.value.line == 4

    def test_rejects_non_ascii_header(self):
        with pytest.raises(SvcParseError, match="non-ASCII byte 0xd9") as exc:
            parse_svc("\n\u0661\n10 20 0 1 0 0 500\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("text", VALID_VARIANTS)
    def test_accepts_signs_tabs_crlf_and_blank_lines(self, text):
        assert np.array_equal(parse_svc(text), parse_svc(VALID_TEXT))

    def test_lone_carriage_return_rejected(self):
        with pytest.raises(SvcParseError) as exc:
            parse_svc("1\n10 20 0 1 0\r0 500\n")
        assert exc.value.line == 2

    def test_first_fault_in_file_order_is_reported(self):
        # a pen-status fault on line 2 precedes a column fault on line 3
        text = "2\n10 20 0 7 0 0 500\n10 20 0 1 0 0\n"
        with pytest.raises(SvcParseError, match="pen_status") as exc:
            parse_svc(text)
        assert exc.value.line == 2

    def test_decreasing_timestamp_names_its_file_line(self):
        # lines 3 and 4 are blank, so data row 1 is file line 5
        text = "3\n1 2 30 1 0 0 5\n\n \n1 2 20 1 0 0 5\n1 2 40 1 0 0 5\n"
        with pytest.raises(SvcParseError) as exc:
            parse_svc(text)
        assert exc.value.line == 5
        assert exc.value.message == ("timestamp 20 follows 30, "
                                     "timestamps must be non-decreasing")

    def test_timestamp_fault_before_a_column_fault_wins(self):
        text = "3\n1 2 30 1 0 0 5\n1 2 20 1 0 0 5\n1 2 40 1 0\n"
        with pytest.raises(SvcParseError, match="timestamp 20 follows 30") as exc:
            parse_svc(text)
        assert exc.value.line == 3

    def test_returned_array_holds_only_its_samples(self, tmp_path):
        # A view of a larger work buffer would keep each file's text, or
        # the decoder's scratch, alive in a loaded dataset.
        path = tmp_path / "task1.svc"
        path.write_text(VALID_TEXT)
        slow = "0" * 5000 + "2\n" + VALID_TEXT.partition("\n")[2]  # decoded line by line
        for samples in [read_svc(path), *map(parse_svc, [VALID_TEXT, *VALID_VARIANTS, slow])]:
            assert samples.base is None or memoryview(samples.base).nbytes <= samples.nbytes + 8

    def test_equal_timestamps_accepted(self):
        assert parse_svc("2\n1 2 30 1 0 0 5\n1 2 30 1 0 0 5\n").shape == (2, 7)


# Tokens a generated line may carry in place of a valid one.
_NEAR_TOKENS = ["1_0", "\u0661", "1.0", "0x1", "1e3", "+-1", "-", "+", "5-", "#1",
                "1\u00a02", "1\x0b2", "1\r2", "2", "-1", "1024",
                "9223372036854775807", "9223372036854775808", "-9223372036854775809",
                "99999999999999999999", "0007", "+0"]

_NEAR_SEPARATORS = ["\u00a0", "\x0b", "\x0c", "\x1f", "\u2003", "\r", ",", "_"]


@st.composite
def svc_texts(draw):
    """SVC texts that are valid or close to it: random separators, blank
    lines, CRLF endings, header off by one, and a few tokens or columns
    replaced, merged, dropped or added, or a timestamp made to go back."""
    rows = draw(st.lists(st.lists(st.integers(0, 1023).map(str), min_size=7, max_size=7),
                         max_size=8))
    for row, timestamp in zip(rows, sorted(int(row[2]) for row in rows)):
        row[2] = str(timestamp)
        row[3] = draw(st.sampled_from(["0", "1"]))
    for _ in range(draw(st.integers(0, 2))):
        if not rows:
            break
        row = draw(st.sampled_from(rows))
        edit = draw(st.sampled_from(["replace", "replace", "merge", "drop", "add", "decrease"]))
        if edit == "decrease":
            row[2] = "-1"  # below every drawn timestamp: a fault unless in the first row
        elif edit == "replace":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_NEAR_TOKENS))
        elif edit == "merge" and len(row) > 1:
            # two tokens joined by a separator outside the grammar
            row[:2] = [row[0] + draw(st.sampled_from(_NEAR_SEPARATORS)) + row[1]]
        elif edit == "drop" and len(row) > 1:
            row.pop()
        else:
            row.append("0")
    declared = len(rows) + draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
    header = draw(st.sampled_from(["", "+", " ", "\t"])) + str(declared)
    lines = [header] + [
        draw(st.sampled_from(["", " ", "\t"]))
        + draw(st.sampled_from([" ", "  ", "\t", " \t"])).join(row)
        + draw(st.sampled_from(["", " ", "\t"]))
        for row in rows]
    text_lines = []
    for line in lines:
        text_lines.extend([""] * draw(st.sampled_from([0, 0, 0, 1, 2])))
        text_lines.append(line)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(text_lines) + draw(st.sampled_from([eol, ""]))


class TestParseSvcAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(svc_texts())
    def test_same_array_or_same_error_line(self, text):
        try:
            expected = oracles.parse_svc_by_lines(text, 1023)
        except oracles.SvcReject as reject:
            with pytest.raises(SvcParseError) as exc:
                parse_svc(text)
            assert exc.value.line == reject.line
        else:
            got = parse_svc(text)
            assert got.dtype == np.int64
            assert np.array_equal(got, np.array(expected, dtype=np.int64).reshape(-1, 7))


# Text whose first fault precedes its first byte outside ASCII, and a
# non-ASCII header: (text, line, message) of the first fault.
FIRST_FAULTS = {
    "columns": ("2\n1 2 3 1 0 0\n1 2 3 1 0 0 \u00e9\n", 2, "expected 7 columns, got 6"),
    "pressure": ("2\n1 2 3 1 0 0 5000\n1 2 3 1 0 0 \u00e9\n", 2,
                 "pressure 5000 outside [0, 1023]"),
    "count": ("2\n1 2 3 1 0 0 5\n1 2 3 1 0 0 5\n1 2 3 1 0 0 \u00e9\n", 1,
              "sample count mismatch: header declares 2, found 3 data lines"),
    "header": ("\n\u0661\n10 20 0 1 0 0 500\n", 2, "non-ASCII byte 0xd9"),
}


@pytest.mark.parametrize("text, line, message", FIRST_FAULTS.values(), ids=FIRST_FAULTS.keys())
def test_string_and_file_report_the_same_first_fault(tmp_path, text, line, message):
    path = tmp_path / "task1.svc"
    path.write_bytes(text.encode())
    for parse in (lambda: parse_svc(text), lambda: read_svc(path)):
        with pytest.raises(SvcParseError) as exc:
            parse()
        assert (exc.value.line, exc.value.message) == (line, message)
    with pytest.raises(oracles.SvcReject) as reject:
        oracles.parse_svc_by_lines(text.encode().decode("latin-1"), 1023)
    assert reject.value.line == line


def _decoded(text: str):
    """``data._parse_vectorized`` of ``text`` as ``parse_svc`` hands it over."""
    return data._parse_vectorized(text.replace("\r\n", "\n").encode())


class TestDecoder:
    """The word-at-a-time decoder alone: the exact samples of plainly well
    formed text, or None for ``_parse_lines`` to locate the fault."""

    @pytest.mark.parametrize("text", [
        VALID_TEXT, *VALID_VARIANTS, INT64_LIMITS_TEXT,
        "1\n1 2 3 1 0 0 5",  # windows that start before the text
        "1\n-000000000000000000001 +12345678 123456789 1 -1234567890123456 "
        "12345678901234567 0009223372036854775807\n",
    ])
    def test_reads_well_formed_text(self, text):
        got = _decoded(text)
        assert got is not None and got.dtype == np.int64
        expected = np.array(oracles.parse_svc_by_lines(text, None), dtype=np.int64)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("token", [
        "9223372036854775808", "+9223372036854775808", "-9223372036854775809",
        "99999999999999999999", "9" * 5000, "0" * 5000 + "1", "0" * 23 + "1"])
    def test_none_beyond_int64_and_for_long_tokens(self, token):
        assert _decoded(f"1\n{token} 2 3 1 0 0 5\n") is None
        assert _decoded(f"{token}\n1 2 3 1 0 0 5\n") is None

    @pytest.mark.parametrize("text", [
        "2\n1 2 3 1 0 0 5 1 2 3 1 0 0 5\n",
        "2\n1 2 3 1 0 0 5 1 2 3 1 0 0 5\n\n",
        "2\n1 2 3 1 0 0\n5 1 2 3 1 0 0 5\n",
        "1\n1 2 3\n1 0 0 5\n",
        "1\n1 2 3\n\n1 0 0 5\n\n",
        "1 1 2 3 1 0 0 5\n",
        "1\n1 2 3 1 0 0 5 +\n",
        "1\n1 2 3 1 0 0 5-\n",
    ])
    def test_none_unless_seven_tokens_a_line(self, text):
        assert _decoded(text) is None
        with pytest.raises(SvcParseError):
            parse_svc(text)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(INT64, min_size=7, max_size=7), st.data())
    def test_every_int64_spelling(self, row, draw):
        tokens = [("-" if v < 0 else draw.draw(st.sampled_from(["", "+"])))
                  + "0" * draw.draw(st.integers(0, 3)) + str(abs(v)) for v in row]
        assert _decoded("1\n" + " ".join(tokens) + "\n").tolist() == [row]

    @settings(max_examples=400, deadline=None)
    @given(svc_texts())
    def test_none_or_the_reference_array(self, text):
        got = _decoded(text)
        if got is not None:
            expected = oracles.parse_svc_by_lines(text, None)
            assert np.array_equal(got, np.array(expected, dtype=np.int64).reshape(-1, 7))


@st.composite
def svc_bytes(draw):
    """Arbitrary bytes, or a near-valid SVC text with a few byte runs
    overwritten, inserted or cut."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=300))
    data = bytearray(draw(svc_texts()).encode("utf-8"))
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(data)))
        data[start:start + draw(st.integers(0, 3))] = draw(st.binary(max_size=3))
    return bytes(data)


class TestIngestArbitraryBytes:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(content=svc_bytes())
    def test_array_or_error_naming_the_file(self, tmp_path, content):
        path = tmp_path / "subject01" / "session1" / "task1.svc"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content)
        # One character per byte: the oracle's and parse_svc's view of the file.
        text = content.decode("latin-1")
        try:
            samples = read_svc(path)
        except SvcParseError as err:
            assert err.path == str(path)
            with pytest.raises(oracles.SvcReject) as reject:
                oracles.parse_svc_by_lines(text, 1023)
            assert err.line == reject.value.line
            with pytest.raises(SvcParseError) as exc:
                parse_svc(text)
            assert exc.value.line == err.line
            with pytest.raises(SvcParseError) as exc:
                load_dataset(tmp_path)
            assert exc.value.path == str(path)
            return
        assert np.array_equal(parse_svc(text), samples)
        # What the parser returns, Recording accepts and load_dataset loads.
        assert samples.dtype == np.int64 and samples.shape == (len(samples), 7)
        assert np.array_equal(Recording(1, 1, 1, samples).samples, samples)
        dataset = load_dataset(tmp_path)
        assert dataset.keys() == [(1, 1, 1)]
        assert np.array_equal(dataset.get(1, 1, 1).samples, samples)


# The encoder's limb boundaries (10**5 per limb) and the ends of int64, in
# every column; the pressure column takes the non-negative ones.
BOUNDARIES = [0, 1, -1, 99_999, -99_999, 100_000, -100_000, 10**10 - 1, -(10**10 - 1),
              10**10, -10**10, 10**15, -10**15, 10**18, -2**63, INT64_MAX]
LAYOUT_INPUTS = [
    np.array([[-30000, 12, 0, 1, -7, 600, 0],
              [5, -123456789, 10, 0, 3599, 0, 1023],
              [0, 0, 2**31 - 1, 1, -2**31, 9, 100]], dtype=np.int64),
    np.array([[BOUNDARIES[i], BOUNDARIES[i - 4], t, i % 2, BOUNDARIES[i - 8],
               BOUNDARIES[i - 12], [v for v in BOUNDARIES if v >= 0][i % 9]]
              for i, t in enumerate(sorted(BOUNDARIES))], dtype=np.int64),
    np.zeros((3, 7), dtype=np.int64),
]


class TestSerializeSvc:
    def test_canonical_text(self):
        samples = parse_svc(VALID_TEXT)
        assert serialize_svc(samples) == VALID_TEXT

    @settings(max_examples=50)
    @given(st.lists(st.tuples(
        st.integers(-30000, 30000), st.integers(-30000, 30000),
        st.integers(0, 10**7), st.integers(0, 1),
        st.integers(0, 3599), st.integers(0, 900), st.integers(0, 1023),
    ), min_size=1, max_size=40))
    def test_round_trip(self, rows):
        # any array Recording accepts: N >= 1, timestamps non-decreasing
        arr = np.array(rows, dtype=np.int64).reshape(len(rows), 7)
        arr[:, data.COL_TIMESTAMP].sort()
        assert np.array_equal(parse_svc(serialize_svc(arr)), arr)

    @settings(max_examples=200)
    @given(st.lists(st.tuples(
        INT64, INT64, INT64, st.integers(0, 1), INT64, INT64, st.integers(0, INT64_MAX),
    ), min_size=1, max_size=30))
    @example([(-2**63, INT64_MAX, -2**63, 0, INT64_MAX, -2**63, INT64_MAX)])
    @example([(0, -1, 0, 1, 9, -10, 0)])
    def test_same_text_as_the_format_oracle(self, rows):
        arr = np.array(rows, dtype=np.int64).reshape(len(rows), 7)
        arr[:, data.COL_TIMESTAMP].sort()
        assert serialize_svc(arr) == oracles.svc_text_by_format(arr)

    @pytest.mark.parametrize("layout", [
        np.asfortranarray,
        lambda a: np.repeat(a, 3, axis=0)[1::3],
        lambda a: np.concatenate([a, -a], axis=1)[:, :7],
        lambda a: a.astype(np.int32),
        lambda a: a.tolist(),
    ], ids=["fortran", "strided-rows", "strided-columns", "int32", "list"])
    def test_any_layout_gives_the_oracle_text(self, layout):
        checked = 0
        for arr in LAYOUT_INPUTS:
            held = layout(arr)
            if not np.array_equal(held, arr):  # int32 cannot hold the boundaries past 2**31
                continue
            assert serialize_svc(held) == oracles.svc_text_by_format(arr)
            checked += 1
        assert checked >= 2

    @pytest.mark.parametrize("value", [5.7, np.nan, 1e30])
    def test_refuses_non_integer_samples(self, value):
        with pytest.raises(ValueError, match="must be integers that fit int64, got dtype"):
            serialize_svc([[0.5, 0, 0, 1, 0, 0, value]])

    @pytest.mark.parametrize("rows, message", [
        ([], "recording has no samples"),
        ([[0, 0, 30, 1, 0, 0, 5], [0, 0, 20, 1, 0, 0, 5]],
         "sample 1: timestamp 20 follows 30, timestamps must be non-decreasing"),
        ([[0, 0, 0, 1, 0, 0, -3]], "sample 0: pressure -3 outside"),
        ([[0, 0, 0, 1, 0, 0, 5], [0, 0, 0, 2, 0, 0, 5]],
         "sample 1: pen_status must be 0 or 1, got 2"),
    ])
    def test_refuses_arrays_no_device_accepts(self, rows, message):
        # Each of these used to be written, then refused by parse_svc.
        with pytest.raises(ValueError, match=re.escape(message)):
            serialize_svc(np.array(rows, dtype=np.int64).reshape(len(rows), 7))

    def test_pressure_ceiling_is_checked_on_read(self):
        text = serialize_svc([[0, 0, 0, 1, 0, 0, 5000]])
        with pytest.raises(SvcParseError, match="pressure 5000 outside"):
            parse_svc(text)
        assert parse_svc(text, DeviceProfile(max_level=8191))[0, data.COL_PRESSURE] == 5000


class TestSampleAndDevice:
    def test_device_validation(self):
        with pytest.raises(ValueError):
            DeviceProfile(max_level=0)

    @pytest.mark.parametrize("max_level", [1023.5, 1023.0, np.float64(1023), True, "1023"])
    def test_ceiling_must_be_an_integer(self, max_level):
        # 1023.5 would let 498 samples at 1023 read as a saturation ratio of 0.
        with pytest.raises(ValueError, match=r"^max_level must be an integer, got "):
            DeviceProfile(max_level=max_level)

    def test_numpy_integer_ceiling_becomes_int(self):
        device = DeviceProfile(max_level=np.int64(511))
        assert type(device.max_level) is int and device == DeviceProfile(max_level=511)

    def test_ceiling_fits_int64(self):
        assert DeviceProfile(max_level=data.MAX_PRESSURE_LEVEL).max_level == 2**63 - 1
        with pytest.raises(ValueError) as exc:
            DeviceProfile(max_level=2**63)
        assert str(exc.value) == ("max_level must lie in [1, 9223372036854775807], "
                                  "got 9223372036854775808")


class TestRecording:
    def test_column_views(self):
        rec = make_recording(pressures=(100, 200, 300))
        assert rec.n_samples == 3
        assert rec.pressure.tolist() == [100, 200, 300]
        assert rec.timestamp.tolist() == [0, 10, 20]

    def test_samples_are_immutable(self):
        rec = make_recording()
        with pytest.raises(ValueError):
            rec.samples[0, 0] = 99

    def test_copies_the_callers_array(self):
        samples = np.array([[0, 0, 0, 1, 0, 0, 5], [0, 0, 10, 1, 0, 0, 6]])
        rec = Recording(1, 1, 1, samples)
        samples[0, data.COL_PRESSURE] = 7
        assert rec.pressure.tolist() == [5, 6]

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no samples"):
            make_recording(pressures=())

    @pytest.mark.parametrize("value", [5.7, np.nan, 1e30, 5.0])
    def test_rejects_non_integer_samples(self, value):
        # the dtype decides, so an integral float is refused too
        with pytest.raises(ValueError, match="must be integers that fit int64, got dtype"):
            Recording(1, 1, 1, [[0, 0, 0, 1, 0, 0, value]])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match=r"\(N, 7\) array, got shape \(7,\)"):
            Recording(1, 1, 1, np.zeros(7, dtype=np.int64))

    def test_rejects_decreasing_timestamps(self):
        samples = np.array([[0, 0, 10, 1, 0, 0, 5], [0, 0, 5, 1, 0, 0, 5]])
        with pytest.raises(ValueError, match="non-decreasing"):
            Recording(1, 1, 1, samples)

    def test_decreasing_timestamp_names_first_sample(self):
        samples = np.array([[0, 0, t, 1, 0, 0, 5] for t in (10, 10, 30, 20, 5)])
        with pytest.raises(ValueError, match=r"^sample 3: timestamp 20 follows 30, "):
            Recording(1, 1, 1, samples)

    def test_rejects_pressure_above_device(self):
        with pytest.raises(ValueError, match="pressure"):
            make_recording(pressures=(1024,))

    def test_rejects_bad_ids(self):
        with pytest.raises(ValueError):
            make_recording(subject=0)
        with pytest.raises(ValueError):
            make_recording(session=6)
        with pytest.raises(ValueError):
            make_recording(task=0)

    @pytest.mark.parametrize("ids, message", [
        ((1, 2.0, 3), "session_id must be an integer, got 2.0"),
        ((1, True, 3), "session_id must be an integer, got True"),
        ((1.0, 2, 3), "subject_id must be an integer, got 1.0"),
        ((1, 2, np.float64(3)), "task_id must be an integer, got "),
        ((1, 2, np.True_), "task_id must be an integer, got "),
    ])
    def test_ids_must_be_integers(self, ids, message):
        # A float session would be written to session2.0/, which no load finds.
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            make_recording(*ids)

    def test_numpy_integer_ids_become_ints(self):
        rec = make_recording(np.int64(2), np.int32(3), np.uint8(4))
        assert rec.key == (2, 3, 4)
        assert all(type(i) is int for i in rec.key)

    @pytest.mark.parametrize("device", [1023, None])
    def test_device_must_be_a_profile(self, device):
        with pytest.raises(ValueError, match=f"^device must be a DeviceProfile, got {device}$"):
            make_recording(device=device)

    @pytest.mark.parametrize("pressures, max_level", [
        ((500, 600, 700), 1023), ((1023, 1, 1023), 1023), ((7,), 7), ((0, 3, 2**40), 2**40),
        (range(9000), 8999)])
    def test_carries_its_features(self, pressures, max_level):
        rec = make_recording(pressures=pressures, device=DeviceProfile(max_level))
        carried, computed = feature_bits(rec)
        assert carried == computed
        assert feature_bits(pickle.loads(pickle.dumps(rec))) == (computed, computed)

    def test_equal_to_the_same_contents_loaded(self, tmp_path):
        rec = make_recording(2, 3, 4, pressures=(1023, 5, 700))
        write_dataset(Dataset([rec]), tmp_path)
        loaded = load_dataset(tmp_path).get(2, 3, 4)
        assert loaded == rec and loaded is not rec
        assert loaded in [make_recording(), rec]
        assert hash(loaded) == hash(rec) and len({rec, loaded}) == 1

    @pytest.mark.parametrize("other", [
        make_recording(pressures=(500, 600, 701)), make_recording(pressures=(500, 600)),
        make_recording(task=2), make_recording(device=DeviceProfile(2000)), "recording"],
        ids=["samples", "length", "key", "device", "str"])
    def test_unequal_to_other_contents(self, other):
        rec = make_recording()
        assert rec != other and other != rec
        assert len({rec, make_recording(), other}) == 2

    def test_features_are_not_fields(self):
        rec = make_recording()
        assert "_features" in vars(rec)
        assert "_features" not in repr(rec)
        assert "_features" not in {f.name for f in dataclasses.fields(rec)}


class TestDataset:
    def test_duplicate_key_guarded(self):
        ds = Dataset()
        ds.add(make_recording())
        with pytest.raises(DatasetError, match="duplicate"):
            ds.add(make_recording())

    def test_lookup_and_iteration(self):
        ds = Dataset([make_recording(subject=2), make_recording(subject=1)])
        assert len(ds) == 2
        assert ds.get(2, 1, 1).subject_id == 2
        assert ds.get(3, 1, 1) is None
        assert [r.subject_id for r in ds] == [1, 2]


class TestDatasetIO:
    def test_path_layout(self, tmp_path):
        path = recording_path(tmp_path, 7, 3, 9)
        assert path == tmp_path / "subject07" / "session3" / "task9.svc"

    def test_empty_directory(self, tmp_path):
        assert len(load_dataset(tmp_path)) == 0

    def test_missing_root(self, tmp_path):
        with pytest.raises(DatasetError, match="not a directory"):
            load_dataset(tmp_path / "nope")

    @pytest.mark.parametrize("device", [1023, SimpleNamespace(max_level=1023)])
    def test_device_must_be_a_profile_before_the_walk(self, device, tmp_path, monkeypatch):
        write_dataset(generate_dataset(SynthConfig(n_subjects=1, samples_per_recording=5)),
                      tmp_path)
        monkeypatch.setattr(data, "_session_files", pytest.fail)
        monkeypatch.setattr(data, "_fan_out", pytest.fail)
        with pytest.raises(ValueError, match="^device must be a DeviceProfile, got "):
            load_dataset(tmp_path, device)

    def test_full_campaign_count(self, tmp_path):
        config = SynthConfig(n_subjects=21, samples_per_recording=5, seed=3)
        write_dataset(generate_dataset(config), tmp_path)
        assert len(load_dataset(tmp_path)) == 945

    def test_missing_files_are_absent(self, tmp_path):
        ds = generate_dataset(SynthConfig(n_subjects=2, samples_per_recording=5))
        write_dataset(ds, tmp_path)
        (tmp_path / "subject01" / "session2" / "task3.svc").unlink()
        loaded = load_dataset(tmp_path)
        assert len(loaded) == 89
        assert loaded.get(1, 2, 3) is None

    def test_write_load_round_trip(self, tmp_path):
        ds = generate_dataset(SynthConfig(n_subjects=2, samples_per_recording=20, seed=5))
        write_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path)
        assert loaded.keys() == ds.keys()
        for key in ds.keys():
            assert np.array_equal(loaded.get(*key).samples, ds.get(*key).samples)

    def test_numpy_integer_ids_round_trip(self, tmp_path):
        ds = Dataset(make_recording(np.int64(s), np.int64(session), np.int64(t))
                     for s in (1, 2) for session in (1, 5) for t in (3, 9))
        written = write_dataset(ds, tmp_path)
        assert written[0] == tmp_path / "subject01" / "session1" / "task3.svc"
        loaded = load_dataset(tmp_path)
        assert len(written) == len(loaded) == len(ds) == 8
        assert loaded.keys() == ds.keys()

    def test_malformed_file_names_path_and_line(self, tmp_path):
        ds = generate_dataset(SynthConfig(n_subjects=1, samples_per_recording=5))
        write_dataset(ds, tmp_path)
        bad = tmp_path / "subject01" / "session1" / "task2.svc"
        bad.write_text("1\n10 20 0 1 0 0 banana\n")
        with pytest.raises(SvcParseError) as exc:
            load_dataset(tmp_path)
        assert "task2.svc" in str(exc.value)
        assert exc.value.line == 2

    def test_invalid_utf8_names_path(self, tmp_path):
        ds = generate_dataset(SynthConfig(n_subjects=1, samples_per_recording=5))
        write_dataset(ds, tmp_path)
        bad = tmp_path / "subject01" / "session1" / "task2.svc"
        bad.write_bytes(b"1\n10 20 0 1 0 0 5\xff0\n")
        with pytest.raises(SvcParseError, match="non-ASCII byte 0xff") as exc:
            load_dataset(tmp_path)
        assert exc.value.path == str(bad)
        assert exc.value.line == 2

    def test_decreasing_timestamp_names_path_and_sample(self, tmp_path):
        ds = generate_dataset(SynthConfig(n_subjects=1, samples_per_recording=5))
        write_dataset(ds, tmp_path)
        bad = tmp_path / "subject01" / "session3" / "task4.svc"
        bad.write_text("3\n1 2 30 1 0 0 5\n1 2 30 1 0 0 5\n1 2 20 1 0 0 5\n")
        with pytest.raises(SvcParseError) as exc:
            load_dataset(tmp_path)
        assert str(exc.value).startswith(f"{bad}:4: timestamp 20 follows 30")
        assert (exc.value.path, exc.value.line) == (str(bad), 4)

    def test_task_directory_ignored(self, tmp_path):
        ds = generate_dataset(SynthConfig(n_subjects=1, samples_per_recording=5))
        write_dataset(ds, tmp_path)
        task = tmp_path / "subject01" / "session1" / "task1.svc"
        task.unlink()
        task.mkdir()
        loaded = load_dataset(tmp_path)
        assert len(loaded) == 44
        assert loaded.get(1, 1, 1) is None

    def test_out_of_layout_entries_ignored(self, tmp_path):
        ds = generate_dataset(SynthConfig(n_subjects=1, samples_per_recording=5))
        write_dataset(ds, tmp_path)
        (tmp_path / "notes.txt").write_text("irrelevant\n")
        (tmp_path / "subject1").mkdir()          # not zero-padded
        (tmp_path / "subject01" / "session9").mkdir()
        (tmp_path / "subject01" / "session1" / "task10.svc").write_text("junk")
        # Names recording_path never writes, each holding a valid recording.
        valid = (tmp_path / "subject01" / "session1" / "task1.svc").read_text()
        for relative in ("subject00/session1/task1.svc", "subject001/session1/task1.svc",
                         "subject100/session1/task1.svc", "subject01/Session2/task1.svc",
                         "subject01/session0/task1.svc", "subject01/session1/task0.svc",
                         "subject01/session1/task01.svc", "subject01/session2/task1.SVC"):
            (tmp_path / relative).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / relative).write_text(valid)
        assert len(load_dataset(tmp_path)) == 45

    def test_write_rejects_three_digit_subject(self, tmp_path):
        ds = Dataset([make_recording(subject=1), make_recording(subject=100)])
        with pytest.raises(DatasetError, match="subject_id 100 does not fit"):
            write_dataset(ds, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_write_synthetic_rejects_three_digit_subject(self, tmp_path, monkeypatch):
        # The layout is checked before any session is drawn or any directory made.
        monkeypatch.setattr(synth, "_checked_samples", pytest.fail)
        with pytest.raises(DatasetError) as exc:
            write_synthetic(SynthConfig(n_subjects=100, samples_per_recording=5),
                            tmp_path / "ds")
        assert str(exc.value) == "subject_id 100 does not fit the subject<NN> layout"
        assert list(tmp_path.iterdir()) == []


PROCESS_COUNTS = (1, 2, 3)


def error_of(call):
    """Type, text and location of the error ``call()`` raises."""
    with pytest.raises((ValueError, OSError)) as exc:
        call()
    err = exc.value
    return type(err), str(err), getattr(err, "path", None), getattr(err, "line", None)


def _dataset_arrays(config):
    return [(rec.key, rec.samples.tolist()) for rec in generate_dataset(config)]


class _ExitWhenPickled:
    """Ends the process that pickles it with exit code 5."""

    def __reduce__(self):
        os._exit(5)


def _mapping(array):
    """The shared mapping at the end of ``array``'s base chain, or None."""
    base = array
    while isinstance(base, (np.ndarray, memoryview)):
        base = base.base if isinstance(base, np.ndarray) else base.obj
    return base if isinstance(base, data._Mapping) else None


def _shared_mappings():
    """Sizes in bytes of this process's mappings of the package's shared files."""
    sizes = []
    with open("/proc/self/maps") as maps:
        for line in maps:
            if "memfd:hwfatigue" in line:
                start, end = line.split()[0].split("-")
                sizes.append(int(end, 16) - int(start, 16))
    return sizes


class TestFanOut:
    """``write_dataset``, ``load_dataset``, ``generate_dataset`` and
    ``write_synthetic`` give the same files, results and errors whatever the
    process count; the count is forced so that the forked path runs on a
    one-CPU host too."""

    @pytest.fixture()
    def processes(self, monkeypatch):
        return lambda n: monkeypatch.setattr(data, "_process_count", lambda: n)

    @pytest.fixture()
    def root(self, tmp_path):
        ds = generate_dataset(SynthConfig(n_subjects=3, samples_per_recording=30, seed=9))
        root = tmp_path / "ds"
        write_dataset(ds, root)
        return root

    def test_same_bytes_paths_and_arrays_for_any_count(self, tmp_path, processes):
        ds = generate_dataset(SynthConfig(n_subjects=3, samples_per_recording=30, seed=9))
        trees, paths, loads = [], [], []
        for n in PROCESS_COUNTS:
            processes(n)
            root = tmp_path / f"n{n}"
            written = write_dataset(ds, root)
            paths.append([p.relative_to(root) for p in written])
            trees.append({p.relative_to(root): p.read_bytes() for p in root.rglob("*.svc")})
            loads.append(load_dataset(root))
        assert paths[0] == [recording_path(".", *key) for key in ds.keys()]
        assert len(trees[0]) == 135
        for n_paths, tree, loaded in zip(paths, trees, loads):
            assert n_paths == paths[0]
            assert tree == trees[0]
            assert loaded.keys() == ds.keys()
            for rec in loaded:
                assert np.array_equal(rec.samples, ds.get(*rec.key).samples)
                assert not rec.samples.flags.writeable
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("subject, session, content", [
        (1, 2, "1\n10 20 0 1 0 0 banana\n"),           # parse error, chunk 1
        (2, 3, "2\n1 2 30 1 0 0 5\n1 2 20 1 0 0 5\n"),  # timestamp fault, chunk 7
    ])
    def test_fault_in_a_child_share_matches_one_process(self, root, processes,
                                                        subject, session, content):
        # Chunk 1 runs in a child for n = 2 and n = 3, chunk 7 in whichever
        # process claims it.
        bad = root / f"subject{subject:02d}" / f"session{session}" / "task5.svc"
        bad.write_text(content)
        errors = []
        for n in PROCESS_COUNTS:
            processes(n)
            errors.append(error_of(lambda: load_dataset(root)))
            assert multiprocessing.active_children() == []
        assert errors == [errors[0]] * len(PROCESS_COUNTS)
        assert errors[0][1].startswith(str(bad))

    def test_first_fault_in_walk_order_wins_across_shares(self, root, processes):
        # Chunks 1 (a child) and 2 (the first claimed, often by the caller)
        # both fail; the caller's own failure may come first in time.
        first = root / "subject01" / "session2" / "task9.svc"
        first.write_text("1\n1 2 3 7 0 0 5\n")
        (root / "subject01" / "session3" / "task1.svc").write_text("junk\n")
        for n in PROCESS_COUNTS:
            processes(n)
            kind, _, path, line = error_of(lambda: load_dataset(root))
            assert (kind, path, line) == (SvcParseError, str(first), 2)

    def test_write_fault_in_a_child_share_matches_one_process(self, tmp_path, processes):
        ds = generate_dataset(SynthConfig(n_subjects=2, samples_per_recording=5))
        errors = []
        for n in PROCESS_COUNTS:
            processes(n)
            root = tmp_path / f"n{n}"
            # Chunk 1 (a child) and chunk 6 (whichever process claims it) fail.
            (root / "subject01" / "session2" / "task4.svc").mkdir(parents=True)
            (root / "subject02" / "session2" / "task1.svc").mkdir(parents=True)
            kind, text, _, _ = error_of(lambda: write_dataset(ds, root))
            errors.append((kind, text.replace(str(root), "<root>")))
        assert errors == [errors[0]] * len(PROCESS_COUNTS)
        assert errors[0][0] is IsADirectoryError
        assert "subject01/session2/task4.svc" in errors[0][1]

    def test_runs_inline_in_a_daemonic_worker(self):
        # A Pool worker is daemonic and may not fork children of its own.
        config = SynthConfig(n_subjects=2, samples_per_recording=10)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            in_worker = pool.apply_async(_dataset_arrays, (config,)).get(timeout=60)
        assert in_worker == _dataset_arrays(config)

    @pytest.mark.parametrize("stage", ["between_opcodes", "inside_data", "before_report"])
    def test_child_dying_mid_message_is_an_error(self, processes, monkeypatch, stage):
        # The child exits while it reports chunk 1's outcome: while it
        # pickles it, before anything reached the shared file
        # (between_opcodes); once its arrays are in the shared file, part
        # way through writing its report list there (inside_data), which
        # leaves a truncated pickle; or with status 0 in place of writing
        # the list (before_report).  Each leaves the file's header zero,
        # and the header, not the exit code, says whether it reported.
        def fn(chunk):
            if chunk == 0:
                return None
            array = np.zeros((9, 2000, 7), dtype=np.int64)
            return [array, _ExitWhenPickled()] if stage == "between_opcodes" else array

        def dump_part(report, shared, **kwargs):
            shared.write(pickle.dumps(report, **kwargs)[:-8])
            shared.flush()
            os._exit(5)

        if stage == "inside_data":
            monkeypatch.setattr(pickle, "dump", dump_part)
        if stage == "before_report":
            monkeypatch.setattr(pickle, "dump", lambda *args, **kwargs: os._exit(0))
        processes(2)
        with pytest.raises(OSError) as exc:
            data._fan_out(fn, [0, 1])
        code = 0 if stage == "before_report" else 5
        assert str(exc.value) == (f"worker process exited with code {code} "
                                  "before reporting its results")
        assert multiprocessing.active_children() == []

    def test_every_chunk_claimed_exactly_once(self, processes, tmp_path):
        # More processes than CPUs race for the shared counter; each chunk
        # appends its number to one file, so a lost or doubled claim shows.
        log = tmp_path / "claims"

        def fn(chunk):
            with open(log, "a") as f:
                f.write(f"{chunk} {os.getpid()}\n")
            return -chunk

        processes(4)
        assert data._fan_out(fn, range(3000)) == [-c for c in range(3000)]
        assert multiprocessing.active_children() == []
        claims = [line.split() for line in log.read_text().splitlines()]
        assert sorted(int(chunk) for chunk, _ in claims) == list(range(3000))
        assert len({pid for _, pid in claims}) == 4

    def test_generate_same_recordings_for_any_count(self, processes):
        config = SynthConfig(n_subjects=3, samples_per_recording=30, seed=9)
        datasets = []
        for n in PROCESS_COUNTS:
            processes(n)
            datasets.append(generate_dataset(config))
            assert multiprocessing.active_children() == []
        assert len(datasets[0]) == 135
        for ds in datasets:
            assert ds.keys() == datasets[0].keys()
            for rec in ds:
                assert np.array_equal(rec.samples, datasets[0].get(*rec.key).samples)
                assert np.array_equal(rec.samples, generate_recording(config, *rec.key).samples)
                assert not rec.samples.flags.writeable
                with pytest.raises(ValueError):
                    rec.samples[0, data.COL_PRESSURE] = 0

    def test_generate_fault_in_a_child_share_matches_one_process(self, processes, monkeypatch):
        # Chunk 1 (subject 1, session 2) runs in a child for n = 2 and n = 3,
        # chunk 6 (subject 2, session 2) in whichever process claims it.
        kernel = synth._generate_samples

        def faulty(config, subject_id, session_id, task_ids, means):
            block = kernel(config, subject_id, session_id, task_ids, means)
            if session_id == 2:
                block[3, 4 + subject_id, data.COL_PRESSURE] = config.device.max_level + 1
            return block

        monkeypatch.setattr(synth, "_generate_samples", faulty)
        config = SynthConfig(n_subjects=2, samples_per_recording=20)
        errors = []
        for n in PROCESS_COUNTS:
            processes(n)
            errors.append(error_of(lambda: generate_dataset(config)))
            assert multiprocessing.active_children() == []
        assert errors == [errors[0]] * len(PROCESS_COUNTS)
        assert errors[0][:2] == (ValueError, "subject 1, session 2, task 4: sample 5: "
                                             "pressure 1024 outside [0, 1023]")

    def test_write_synthetic_same_bytes_and_paths_as_generate_then_write(self, tmp_path,
                                                                          processes):
        config = SynthConfig(n_subjects=3, samples_per_recording=30, seed=9)
        expected = write_dataset(generate_dataset(config), tmp_path / "split")
        want = {p.relative_to(tmp_path / "split"): p.read_bytes() for p in expected}
        assert len(want) == 135
        for n in PROCESS_COUNTS:
            processes(n)
            root = tmp_path / f"n{n}"
            written = write_synthetic(config, root)
            assert multiprocessing.active_children() == []
            assert [p.relative_to(root) for p in written] == list(want)
            assert {p.relative_to(root): p.read_bytes() for p in root.rglob("*.svc")} == want

    def test_write_synthetic_builds_no_recording(self, tmp_path, processes, monkeypatch):
        config = SynthConfig(n_subjects=2, samples_per_recording=20, seed=9)
        expected = write_dataset(generate_dataset(config), tmp_path / "split")
        processes(1)
        for module in (data, synth):
            monkeypatch.setattr(module, "_recording",
                                lambda *args: pytest.fail("write_synthetic built a Recording"))
        written = write_synthetic(config, tmp_path / "direct")
        assert [p.relative_to(tmp_path / "direct") for p in written] == [
            p.relative_to(tmp_path / "split") for p in expected]
        assert [p.read_bytes() for p in written] == [p.read_bytes() for p in expected]

    @pytest.mark.parametrize("faulty_session", [(1, 2), (1, 1)], ids=["child", "caller"])
    def test_write_synthetic_fault_matches_one_process(self, tmp_path, processes, monkeypatch,
                                                       faulty_session):
        # Chunk 1 (subject 1, session 2) runs in a child for n = 2 and n = 3,
        # chunk 0 (subject 1, session 1) in the caller.
        checked = synth._checked_samples

        def faulty(config, means, task_ids, session):
            if session == faulty_session:
                raise ValueError(f"injected fault in {session}")
            return checked(config, means, task_ids, session)

        monkeypatch.setattr(synth, "_checked_samples", faulty)
        config = SynthConfig(n_subjects=2, samples_per_recording=20)
        errors = []
        for n in PROCESS_COUNTS:
            processes(n)
            errors.append(error_of(lambda: write_synthetic(config, tmp_path / f"n{n}")))
            assert multiprocessing.active_children() == []
        assert errors == [(ValueError, f"injected fault in {faulty_session}", None, None)] * 3

    def test_child_arrays_are_read_only_mappings(self, root, processes):
        # Chunk 0 (subject 1, session 1) runs in the caller and chunk 1
        # (session 2) in child 1; the other chunks go to whichever claims them.
        config = SynthConfig(n_subjects=3, samples_per_recording=30, seed=9)
        processes(1)
        expected = [generate_dataset(config), load_dataset(root)]
        assert all(_mapping(rec.samples) is None for ds in expected for rec in ds)
        for n in (2, 3):
            processes(n)
            for ds, want in zip([generate_dataset(config), load_dataset(root)], expected):
                assert ds.keys() == want.keys()
                for rec in ds:
                    assert np.array_equal(rec.samples, want.get(*rec.key).samples)
                    assert not rec.samples.flags.writeable
                assert all(_mapping(ds.get(1, 1, t).samples) is None for t in data.TASKS)
                assert len({id(_mapping(ds.get(1, 2, t).samples)) for t in data.TASKS}) == 1
                assert isinstance(_mapping(ds.get(1, 2, 1).samples), data._Mapping)
                assert shared_file_descriptors() == []

    def test_recordings_share_the_callers_device(self, root, processes):
        device = DeviceProfile()
        config = SynthConfig(n_subjects=3, samples_per_recording=30, seed=9, device=device)
        for n in PROCESS_COUNTS:
            processes(n)
            for ds in (load_dataset(root, device), generate_dataset(config)):
                assert len(ds) == 135
                assert all(rec.device is device for rec in ds)

    def test_loaded_recordings_carry_their_features(self, tmp_path, processes):
        # Every session of subject 1 mixes three lengths: 30 samples, 11 in
        # tasks 2 and 5, 45 in task 9; each length is one kernel call.
        device = DeviceProfile(700)
        config = SynthConfig(n_subjects=3, samples_per_recording=30, seed=9, device=device)
        write_dataset(generate_dataset(config), tmp_path)
        for task, n in ((2, 11), (5, 11), (9, 45)):
            other = dataclasses.replace(config, samples_per_recording=n)
            for session in SESSIONS:
                recording_path(tmp_path, 1, session, task).write_text(
                    serialize_svc(generate_recording(other, 1, session, task).samples))
        for n in PROCESS_COUNTS:
            processes(n)
            ds = load_dataset(tmp_path, device)
            assert len(ds) == 135
            assert {rec.n_samples for rec in ds} == {11, 30, 45}
            assert any(rec._features["saturation_ratio"] > 0 for rec in ds)
            for rec in ds:
                carried, computed = feature_bits(rec)
                assert carried == computed, rec.key

    def test_generated_recordings_carry_their_features(self, processes):
        config = SynthConfig(n_subjects=3, samples_per_recording=30, seed=9,
                             device=DeviceProfile(700))
        for n in PROCESS_COUNTS:
            processes(n)
            ds = generate_dataset(config)
            assert len(ds) == 135
            for rec in ds:
                carried, computed = feature_bits(rec)
                assert carried == computed, rec.key
                assert feature_bits(generate_recording(config, *rec.key)) == (computed, computed)

    @pytest.mark.parametrize("ending", ["success", "failing_chunk", "dying_child", "interrupt",
                                        "start_fails"])
    def test_no_file_mapping_or_result_left_behind(self, processes, monkeypatch, ending):
        # Counted without a garbage collection: a result must not wait for one,
        # nor be kept by the traceback of a failure.
        made = []

        def fn(chunk):
            if ending == "failing_chunk" and chunk == 3:
                raise ValueError("chunk 3")
            if ending == "dying_child" and chunk == 1:
                os._exit(5)
            if ending == "interrupt" and chunk == 0:
                raise KeyboardInterrupt
            result = np.full((9, 200, 7), chunk)
            made.append(weakref.ref(result))  # reaches this list in the caller alone
            return result

        processes(3)
        data._fan_out(abs, range(2))  # starts what multiprocessing keeps for the process
        fds, mappings = len(os.listdir("/proc/self/fd")), len(_shared_mappings())
        if ending == "start_fails":  # the second child's fork fails
            start = multiprocessing.context.ForkProcess.start
            started = []

            def start_once(worker):
                if started:
                    raise OSError("fork failed")
                started.append(start(worker))

            monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start_once)
        if ending == "success":
            results = data._fan_out(fn, range(6))
            assert [int(r[0, 0, 0]) for r in results] == list(range(6))
            assert len(_shared_mappings()) > mappings
            del results
        else:
            expected = {"failing_chunk": ValueError, "dying_child": OSError,
                        "interrupt": KeyboardInterrupt, "start_fails": OSError}[ending]
            with pytest.raises(expected):
                data._fan_out(fn, range(6))
        assert multiprocessing.active_children() == []
        assert len(os.listdir("/proc/self/fd")) == fds
        assert len(_shared_mappings()) == mappings
        assert ending in ("interrupt", "start_fails") or made
        assert [ref() is None for ref in made] == [True] * len(made)

    def test_one_kept_recording_keeps_one_mapping(self, root, processes, monkeypatch):
        # The caller's chunk 0 waits, so that the children read the other
        # sessions.  A loaded dataset maps each child's whole shared file
        # once and none for the caller's sessions; a recording kept from a
        # child keeps its child's mapping, larger than one session's nine
        # arrays of 30 samples in pages.
        read = data.read_svc

        def slow_first_file(path, device):
            if path == recording_path(root, 1, 1, 1):
                time.sleep(0.3)
            return read(path, device)

        monkeypatch.setattr(data, "read_svc", slow_first_file)
        session_bytes = -(-9 * 30 * 7 * 8 // mmap.PAGESIZE) * mmap.PAGESIZE
        before = _shared_mappings()
        for n in (2, 3):
            processes(n)
            dataset = load_dataset(root)
            held = _shared_mappings()
            assert len(held) == len(before) + n - 1
            assert all(_mapping(dataset.get(1, 1, t).samples) is None for t in data.TASKS)
            kept = [rec for rec in dataset if _mapping(rec.samples) is not None][-1]
            del dataset
            after = _shared_mappings()
            assert len(after) == len(before) + 1
            assert sum(after) - sum(before) in held
            assert sum(after) - sum(before) > session_bytes
            del kept
            assert _shared_mappings() == before

    def test_kept_results_hold_no_descriptor(self, processes):
        # Two live datasets of 150 sessions each, made under a soft limit of
        # 32 descriptors above those open: a result that held one would
        # exhaust it.
        processes(3)
        config = SynthConfig(n_subjects=30, samples_per_recording=5)
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        resource.setrlimit(resource.RLIMIT_NOFILE, (len(os.listdir("/proc/self/fd")) + 32, hard))
        try:
            datasets = [generate_dataset(config) for _ in range(2)]
        finally:
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
        assert [len(ds) for ds in datasets] == [30 * 45] * 2
        assert sum(_mapping(rec.samples) is not None for rec in datasets[1]) > 9 * 32

    def test_mapping_a_pipe_fails_and_maps_nothing(self, monkeypatch):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        read_end, write_end = os.pipe()
        try:
            with pytest.raises(OSError) as exc:
                data._Mapping(read_end, mmap.PAGESIZE)
            assert exc.value.errno == errno.ENODEV
            del exc  # its traceback keeps the half-built _Mapping, whose __del__ must not fail
            gc.collect()
            pipe = f"pipe:[{os.fstat(read_end).st_ino}]"
            with open("/proc/self/maps") as maps:
                assert not any(pipe in line for line in maps)
        finally:
            os.close(read_end)
            os.close(write_end)
        assert unraisable == []

    def test_runs_inline_without_memfd(self, monkeypatch):
        monkeypatch.delattr(os, "memfd_create")
        assert data._process_count() == 1


class TestCheckedOnce:
    """Samples are checked once per array the package builds: once per
    generated session, once per loaded file, never on writing or
    unpickling."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        monkeypatch.setattr(data, "_process_count", lambda: 1)
        calls = []
        check = data._sample_fault

        def counted(block, max_level):
            calls.append(block.shape)
            return check(block, max_level)

        monkeypatch.setattr(data, "_sample_fault", counted)
        monkeypatch.setattr(synth, "_sample_fault", counted)
        return calls

    def test_generate_checks_once_per_session(self, calls):
        ds = generate_dataset(SynthConfig(n_subjects=2, samples_per_recording=20))
        assert len(ds) == 90
        assert calls == [(9, 20, 7)] * 10

    def test_write_synthetic_checks_once_per_session(self, tmp_path, calls):
        written = write_synthetic(SynthConfig(n_subjects=2, samples_per_recording=20), tmp_path)
        assert len(written) == 90
        assert calls == [(9, 20, 7)] * 10

    def test_load_checks_once_per_file(self, tmp_path, calls):
        written = write_dataset(
            generate_dataset(SynthConfig(n_subjects=2, samples_per_recording=20)), tmp_path)
        calls.clear()
        assert len(load_dataset(tmp_path)) == len(written) == 90
        assert calls == [(1, 20, 7)] * 90

    def test_write_does_not_check(self, tmp_path, calls):
        ds = generate_dataset(SynthConfig(n_subjects=2, samples_per_recording=20))
        calls.clear()
        assert len(write_dataset(ds, tmp_path)) == 90
        assert calls == []

    def test_features_command_checks_once(self, tmp_path, capsys, calls):
        svc = tmp_path / "one.svc"
        svc.write_text(serialize_svc(make_recording().samples))
        calls.clear()
        assert cli.main(["features", "--input", str(svc)]) == 0
        assert json.loads(capsys.readouterr().out)["n_samples"] == 3
        assert calls == [(1, 3, 7)]

    def test_unpickling_does_not_check(self, calls):
        rec = make_recording()
        calls.clear()
        copy = pickle.loads(pickle.dumps(rec))
        assert calls == []
        assert copy.key == rec.key and copy.device == rec.device
        assert np.array_equal(copy.samples, rec.samples)
        assert not copy.samples.flags.writeable
