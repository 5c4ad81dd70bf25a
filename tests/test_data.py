import json
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cobias import data
from cobias import (
    ArtifactError,
    DatasetFormatError,
    ObjectiveConfig,
    ProbabilityDataset,
    ReweightArtifact,
    SyntheticSpec,
    ValidationError,
    WeightScale,
    WeightSelection,
    class_report,
    generate_synthetic,
    load_artifact,
    load_dataset,
    save_artifact,
    save_dataset,
)

from helpers import random_dataset


class TestProbabilityDataset:
    def test_basic_construction(self):
        ds = ProbabilityDataset.from_arrays([[0.7, 0.3], [0.2, 0.8]], [0, 1])
        assert ds.num_samples == 2
        assert ds.num_classes == 2
        assert not ds.probs.flags.writeable
        assert not ds.labels.flags.writeable

    def test_detached_from_caller_arrays(self):
        probs = np.array([[0.7, 0.3], [0.2, 0.8]])
        ds = ProbabilityDataset.from_arrays(probs, [0, 1])
        probs[0, 0] = 0.0
        assert ds.probs[0, 0] == 0.7

    def test_rejects_bad_rows(self):
        with pytest.raises(ValidationError, match="sum"):
            ProbabilityDataset.from_arrays([[0.7, 0.2]], [0])
        with pytest.raises(ValidationError, match="negative"):
            ProbabilityDataset.from_arrays([[1.2, -0.2]], [0])
        with pytest.raises(ValidationError, match="non-finite"):
            ProbabilityDataset.from_arrays([[float("nan"), 1.0]], [0])
        with pytest.raises(ValidationError, match="label"):
            ProbabilityDataset.from_arrays([[0.5, 0.5]], [2])
        with pytest.raises(ValidationError, match="at least 2 classes"):
            ProbabilityDataset.from_arrays([[1.0]], [0])

    @pytest.mark.parametrize("probs, labels, message", [
        ([0.5, 0.5], [0], "probs must be 2-dimensional, got shape (2,)"),
        (np.zeros((0, 3)), [], "dataset must contain at least one sample"),
        ([[0.5, 0.5]] * 2, [[0, 1]], "labels shape (1, 2) does not match 2 samples"),
    ], ids=["1-d-probs", "no-rows", "labels-shape"])
    def test_rejects_bad_shapes(self, probs, labels, message):
        with pytest.raises(ValidationError) as refused:
            ProbabilityDataset.from_arrays(probs, labels)
        assert str(refused.value) == message

    def test_errors_carry_sample_index(self):
        with pytest.raises(ValidationError) as bad_sum:
            ProbabilityDataset.from_arrays([[0.5, 0.5], [0.7, 0.7]], [0, 1])
        assert bad_sum.value.sample == 1
        # a whole float or a uint64 beyond int64 is refused as the same
        # integer is, not cast or wrapped negative; in labels of the wrong
        # shape the sample is the flat position
        for labels in ([0, 1, 10**30], np.array([0.0, 1.0, 1e300]),
                       [[0, 1, 10**30]], np.array([[0.0, 1.0, 1e300]]),
                       np.array([0, 1, 2**63], dtype=np.uint64),
                       np.array([0, 1, 2**64 - 1], dtype=np.uint64),
                       np.array([[0, 1, 2**63 + 1]], dtype=np.uint64)):
            with pytest.raises(ValidationError, match="^sample 2: label beyond the 64-bit "
                               "integer range$") as huge_label:
                ProbabilityDataset.from_arrays([[0.5, 0.5]] * 3, labels)
            assert huge_label.value.sample == 2

    def test_fractional_labels_are_refused_not_truncated(self):
        probs = [[0.5, 0.5]] * 3
        with pytest.raises(ValidationError, match="sample 1: label 0.7 is not an integer") as bad:
            ProbabilityDataset.from_arrays(probs, [1.0, 0.7, 1.2])
        assert bad.value.sample == 1
        with pytest.raises(ValidationError, match="sample 2: label nan is not an integer"):
            ProbabilityDataset.from_arrays(probs, np.array([0.0, 1.0, np.nan]))
        for labels in ([0.0, 1.0, 1.0], np.array([0, 1, 1], dtype=np.int32), np.uint8([0, 1, 1]),
                       np.uint64([0, 1, 1])):
            assert ProbabilityDataset.from_arrays(probs, labels).labels.tolist() == [0, 1, 1]

    def test_renormalize_divides_by_row_sum(self):
        ds = ProbabilityDataset.from_arrays([[0.7, 0.2]], [0], renormalize=True)
        s = 0.7 + 0.2
        assert ds.probs[0, 0] == 0.7 / s
        assert ds.probs[0, 1] == 0.2 / s

    def test_row_sums_within_tolerance(self):
        ds = ProbabilityDataset.from_arrays([[0.5, 0.5], [0.3, 0.7]], [0, 1])
        assert np.all(np.abs(ds.probs.sum(axis=1) - 1.0) <= 1e-6)

    def test_fingerprint_tracks_content(self):
        a = ProbabilityDataset.from_arrays([[0.7, 0.3]], [0])
        b = ProbabilityDataset.from_arrays([[0.7, 0.3]], [0])
        c = ProbabilityDataset.from_arrays([[0.7, 0.3]], [1])
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


class TestWeightScale:
    def test_values_end_at_one(self):
        scale = WeightScale(30)
        values = WeightSelection(tuple(range(1, 31))).coefficients(scale)
        assert values[-1] == 1.0
        assert np.all(np.diff(values) > 0)
        assert values[0] == 1.0 / 30

    def test_selection_coefficients(self):
        scale = WeightScale(30)
        sel = WeightSelection((3, 1, 1, 20))
        np.testing.assert_array_equal(
            sel.coefficients(scale), [3 / 30, 1 / 30, 1 / 30, 20 / 30]
        )

    def test_coefficients_are_the_scale_values_bit_for_bit(self):
        for k in range(1, 257):
            scale = WeightScale(k)
            every_point = WeightSelection(tuple(range(1, k + 1)))
            values = np.arange(1, k + 1, dtype=np.float64) / k
            assert every_point.coefficients(scale).tobytes() == values.tobytes()

    def test_fractional_k_points_is_refused_not_truncated(self):
        with pytest.raises(ValidationError, match="k_points must be an integer, got 2.5"):
            WeightScale(2.5)
        assert type(WeightScale(np.int64(30)).k_points) is int  # stored as a Python int

    def test_fractional_indices_are_refused_not_truncated(self):
        with pytest.raises(ValidationError, match="selection index must be an integer, got 1.5"):
            WeightSelection((1.5, 2.9))
        assert WeightSelection(tuple(np.array([3, 1], dtype=np.int32))).indices == (3, 1)

    def test_selection_validation(self):
        scale = WeightScale(5)
        with pytest.raises(ValidationError):
            WeightSelection((0, 1)).validate(2, scale)
        with pytest.raises(ValidationError):
            WeightSelection((1, 6)).validate(2, scale)
        with pytest.raises(ValidationError):
            WeightSelection((1, 1, 1)).validate(2, scale)


class TestLoadDataset:
    def test_jsonl_field_mapping(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"probs":[0.7,0.3],"label":0}\n')
        ds = load_dataset(p, "jsonl")
        assert ds.probs[0].tolist() == [0.7, 0.3]
        assert ds.labels[0] == 0

    def test_csv_field_mapping(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.5,0.5,1\n")
        ds = load_dataset(p, "csv")
        assert ds.probs[0].tolist() == [0.5, 0.5]
        assert ds.labels[0] == 1

    def test_jsonl_renormalize(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"probs":[0.7,0.2],"label":0}\n')
        ds = load_dataset(p, "jsonl", renormalize=True)
        s = 0.7 + 0.2
        assert ds.probs[0].tolist() == [0.7 / s, 0.2 / s]

    def test_row_order_preserved(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.9,0.1,0\n0.1,0.9,1\n0.4,0.6,0\n")
        ds = load_dataset(p, "csv")
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.probs[2].tolist() == [0.4, 0.6]

    @pytest.mark.parametrize(
        "content,fragment",
        [
            ('{"probs":[0.7,0.3] "label":0}\n', "line 0"),        # bad JSON
            ('{"probs":[0.7,0.3],"label":0}\n{"label":1}\n', "line 1"),
            ('{"probs":[0.7,"x"],"label":0}\n', "line 0"),
            ('{"probs":[0.7,0.3],"label":0}\n{"probs":[1.0],"label":0}\n', "line 1"),
        ],
    )
    def test_jsonl_errors_carry_line_numbers(self, tmp_path, content, fragment):
        p = tmp_path / "d.jsonl"
        p.write_text(content)
        with pytest.raises(DatasetFormatError, match=fragment):
            load_dataset(p, "jsonl")

    @pytest.mark.parametrize(
        "content,fragment",
        [
            ("0.5,0.5,x\n", "line 0"),             # non-numeric label
            ("0.5,foo,1\n", "line 0"),             # non-numeric probability
            ("0.5,0.5,0\n0.5,0.5\n", "line 1"),    # wrong arity
            ("0.5,0.5,1.5\n", "line 0"),           # fractional label
        ],
    )
    def test_csv_errors_carry_line_numbers(self, tmp_path, content, fragment):
        p = tmp_path / "d.csv"
        p.write_text(content)
        with pytest.raises(DatasetFormatError, match=fragment):
            load_dataset(p, "csv")

    def test_label_out_of_range_reports_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.5,0.5,0\n0.5,0.5,3\n")
        with pytest.raises(DatasetFormatError, match="line 1.*label 3"):
            load_dataset(p, "csv")

    def test_blank_lines_rejected(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"probs":[0.5,0.5],"label":0}\n\n{"probs":[0.5,0.5],"label":1}\n')
        with pytest.raises(DatasetFormatError, match="line 1.*blank"):
            load_dataset(p, "jsonl")

    def test_zero_sum_row_under_renormalize(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"probs":[0.5,0.5],"label":0}\n{"probs":[0.0,0.0],"label":0}\n')
        with pytest.raises(DatasetFormatError, match="zero-sum"):
            load_dataset(p, "jsonl", renormalize=True)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text("")
        with pytest.raises(DatasetFormatError, match="no samples"):
            load_dataset(p, "jsonl")

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_peak_memory_stays_near_the_file_size(self, tmp_path, fmt):
        # the text and the arrays, never a Python object per row and number
        p = tmp_path / f"d.{fmt}"
        save_dataset(random_dataset(np.random.default_rng(0), 20_000, 10), p, fmt)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            load_dataset(p, fmt)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 2.5 * p.stat().st_size

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_text_is_released_before_the_arrays_are_copied(self, tmp_path, monkeypatch, fmt):
        # from_arrays copies the parsed arrays; the decoded text, about the
        # file's size, must be gone by then, leaving only the arrays
        p = tmp_path / f"d.{fmt}"
        save_dataset(random_dataset(np.random.default_rng(0), 20_000, 10), p, fmt)
        from_arrays = ProbabilityDataset.from_arrays
        held = []

        def recording(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            return from_arrays(*args, **kwargs)

        monkeypatch.setattr(ProbabilityDataset, "from_arrays", recording)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            load_dataset(p, fmt)
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(held) == 1
        assert held[0] - before < 0.5 * p.stat().st_size

    def test_unknown_format(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"probs":[0.5,0.5],"label":0}\n')
        with pytest.raises(ValidationError, match="format"):
            load_dataset(p, "xml")

    def test_unknown_format_on_save(self, tmp_path):
        ds = ProbabilityDataset.from_arrays([[0.5, 0.5]], [0])
        p = tmp_path / "d.xml"
        with pytest.raises(ValidationError) as refused:
            save_dataset(ds, p, "xml")
        assert str(refused.value) == "unknown dataset format 'xml', expected one of ('jsonl', 'csv')"
        assert not p.exists()

    def test_save_load_round_trip(self, tmp_path):
        ds = ProbabilityDataset.from_arrays(
            [[0.7, 0.2, 0.1], [0.25, 0.5, 0.25]], [0, 1]
        )
        for fmt in ("jsonl", "csv"):
            p = tmp_path / f"d.{fmt}"
            save_dataset(ds, p, fmt)
            back = load_dataset(p, fmt)
            np.testing.assert_array_equal(back.probs, ds.probs)
            np.testing.assert_array_equal(back.labels, ds.labels)


def _outcome(path, fmt):
    """What loading a file yields: the dataset's bytes, or the one-line error."""
    try:
        ds = load_dataset(path, fmt)
    except DatasetFormatError as exc:
        return str(exc), exc.line
    return ds.probs.tobytes(), ds.labels.tobytes(), ds.fingerprint()


def _line_parser_outcome(path, fmt):
    """The same with the per-line loops alone, the bulk parsers' reference."""
    refuse = lambda lines: None  # noqa: E731  sends every file to the loops from line 0
    with mock.patch.object(data, "_jsonl_block", refuse), \
            mock.patch.object(data, "_csv_block", refuse):
        return _outcome(path, fmt)


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return path


@st.composite
def datasets(draw):
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 25))
    rows = draw(st.lists(
        st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 5e-324, 1e-300])),
                 min_size=n, max_size=n).filter(lambda r: sum(r) > 0),
        min_size=m, max_size=m,
    ))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return ProbabilityDataset.from_arrays(rows, labels, renormalize=True)


def _number(p):
    # integral values as JSON integers, so the bulk path also converts ints
    return int(p) if p.is_integer() else p


# Messages as the per-line parsers gave them before the bulk parsers existed,
# for one corrupted line at line 1 of a file of good lines.
_CORRUPTIONS = [
    ("jsonl", "", "line 1: blank line"),
    ("jsonl", "  \t ", "line 1: blank line"),
    ("jsonl", '{"probs":[0.2,0.3,0.5],"label":0}', "line 1: expected 2 probabilities, got 3"),
    ("jsonl", '{"probs":[0.5,"x"],"label":0}', 'line 1: "probs" must be a list of numbers'),
    ("jsonl", '{"probs":[0.5,0.5],"label":1.5}', 'line 1: "label" must be an integer'),
    ("jsonl", '{"probs":[0.5,0.5],"label":NaN}', 'line 1: "label" must be an integer'),
    ("jsonl", '{"probs":[0.5,0.5],"label":1e300}', 'line 1: "label" must be an integer'),
    ("jsonl", '{"probs":[0.5,0.5],"label":%d}' % 10**30,
     "line 1: sample 1: label beyond the 64-bit integer range"),
    ("jsonl", '{"probs":[true,0.5],"label":0}', 'line 1: "probs" must be a list of numbers'),
    ("jsonl", '{"probs":[%s,0.5],"label":0}' % ("1" * 400),
     "line 1: probability too large for a float"),
    ("jsonl", '{"probs":[0.5,0.5],"label":%s}' % ("1" * 400),
     "line 1: sample 1: label beyond the 64-bit integer range"),
    ("jsonl", "[0.5,0.5]", 'line 1: expected object with "probs" and "label"'),
    ("jsonl", '{"probs":[0.7,0.7],"label":0}',
     "line 1: sample 1: probabilities sum to 1.40000000, expected 1 within 1e-06 "
     "(pass renormalize=True to rescale rows)"),
    ("jsonl", '{"probs":[1.5,-0.5],"label":0}', "line 1: negative probability in sample 1"),
    ("jsonl", '{"probs":[0.5,0.5],"label":3}', "line 1: sample 1: label 3 outside [0, 1]"),
    ("csv", "", "line 1: blank line"),
    ("csv", "  \t ", "line 1: blank line"),
    ("csv", "0.2,0.3,0.5,0", "line 1: expected 3 columns, got 4"),
    ("csv", "0.5,x,1", "line 1: non-numeric probability 'x'"),
    ("csv", "0.5,0.5,1.5", "line 1: label '1.5' is not an integer"),
    ("csv", "0.5,0.5,nan", "line 1: label 'nan' is not an integer"),
    ("csv", "0.5,0.5,1e300", "line 1: sample 1: label beyond the 64-bit integer range"),
    ("csv", "0.5,0.5,%d" % 10**30, "line 1: sample 1: label beyond the 64-bit integer range"),
    ("csv", "0.5,0.5,%d" % 2**63, "line 1: sample 1: label beyond the 64-bit integer range"),
    ("csv", "0.5,0.5,%d" % -(2**63),
     "line 1: sample 1: label -9223372036854775808 outside [0, 1]"),
    ("csv", "true,0.5,1", "line 1: non-numeric probability 'true'"),
    ("csv", "%s,0.5,1" % ("1" * 400), "line 1: non-finite probability in sample 1"),
    ("csv", "0.5,0.5,%s" % ("1" * 400), "line 1: label '%s' is not an integer" % ("1" * 400)),
    ("csv", "0.7,0.7,0",
     "line 1: sample 1: probabilities sum to 1.40000000, expected 1 within 1e-06 "
     "(pass renormalize=True to rescale rows)"),
    ("csv", "1.5,-0.5,0", "line 1: negative probability in sample 1"),
    ("csv", "0.5,0.5,3", "line 1: sample 1: label 3 outside [0, 1]"),
]

_GOOD_LINE = {"jsonl": '{"probs":[0.5,0.5],"label":0}', "csv": "0.5,0.5,0"}

# The five places of a token in a JSONL line, with their usual contents:
# before the object, the two probabilities, the label, and after the label.
_JSONL_SLOTS = ("", "0.5", "0.5", "1", "")
# Tokens that orjson refuses and json reads (NaN, Infinity, numbers beyond
# the double range, a BOM, a lone surrogate escape), that orjson reads as a
# float and json as an int (integers beyond 64 bits), and ordinary ones; each
# at a probability (slot 1) and at the label (slot 3).
_JSONL_TOKENS = [
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" * 400, "\ufeff0.5", '"\\ud800"',
    str(2**64), str(2**63), str(-(2**63) - 1), "true", "null", '"0.5"', "-0", "-0.0",
    "1E0", "1.0", "0", "1e-400", "5e-324", "2.2250738585072011e-308",
    "0.1000000000000000055511151231257827021181583404541015625",
]
_JSONL_TOKEN_CASES = [(token, slot) for token in _JSONL_TOKENS for slot in (1, 3)] + [
    ("\ufeff", 0),  # a leading BOM, at the start of the file
    (',"label":0', 4),  # a duplicate key: both parsers keep the last value
    (',"label":"x"', 4),
    (',"\\ud800":0', 4),
    ("} x", 4),  # trailing garbage
]


# Tokens the CSV bulk parser reads with orjson: brackets, braces and quotes
# (then a line need not be one row: "0,1,1],[0,1,1" would read as two),
# "-0" (orjson reads the integer 0, float() -0.0) beside its float forms,
# JSON literals, an integer beyond 64 bits, a number beyond the double range,
# and tabs; each in every column of a row that sums to 1 when the token reads
# as its column's usual value.
_CSV_TOKENS = ["[", "]", "],[", "1],[0,1,1", "{", '"', "-0", "-0.0", "-0e0", "1e-0",
               "true", "null", str(2**64), "1e400", "\t", "\t1\t", "0\t"]
_CSV_ROWS = (("0.5", "0.5", "1"), ("0", "1", "1"))
_CSV_TOKEN_CASES = [(token, column, row) for token in _CSV_TOKENS for column in range(3)
                    for row in _CSV_ROWS]


def _examples(cases):
    """Add each case as an explicit hypothesis example, run on every test run."""
    def wrap(test):
        for case in cases:
            test = example(*case)(test)
        return test
    return wrap


class TestBulkParsers:
    """The bulk parsers accept the same files, build the same arrays and raise
    the same messages as the per-line loops."""

    @settings(max_examples=100, deadline=None)
    @given(datasets(), st.one_of(st.just(data._CHUNK_CHARS), st.integers(1, 120)))
    def test_loads_are_bit_identical(self, tmp_path_factory, ds, chunk):
        # a small chunk makes rows straddle many chunks
        d = tmp_path_factory.mktemp("bulk")
        expected = (ds.probs.tobytes(), ds.labels.tobytes(), ds.fingerprint())
        save_dataset(ds, d / "a.jsonl", "jsonl")
        save_dataset(ds, d / "a.csv", "csv")
        rows = list(zip(ds.probs.tolist(), ds.labels.tolist()))
        _write_lines(d / "b.jsonl", [
            " " + json.dumps({"label": label, "probs": [_number(p) for p in probs]},
                             separators=(" , ", " : ")) + "\t"
            for probs, label in rows
        ])
        _write_lines(d / "b.csv", [
            ", ".join(f" {p!r}" for p in probs) + f" ,{label}.0 " for probs, label in rows
        ])
        for name in ("a.jsonl", "b.jsonl", "a.csv", "b.csv"):
            fmt = name.split(".")[1]
            with mock.patch.object(data, "_CHUNK_CHARS", chunk):
                assert _outcome(d / name, fmt) == expected
            assert _line_parser_outcome(d / name, fmt) == expected

    def test_jsonl_block_of_ints_and_floats_equals_the_line_parser(self):
        lines = ['{"probs":[1,0],"label":0}', '{"probs":[0.25,0.75],"label":1}',
                 '{"probs":[0,1.0],"label":1}', '{"probs":[%d,0.5],"label":0}' % 2**64]
        probs, labels = data._jsonl_block(lines)
        rows, expected_labels = data._parse_jsonl_lines(lines)
        assert probs.tobytes() == np.array(rows, dtype=np.float64).tobytes()
        assert labels.tolist() == expected_labels

    def test_jsonl_block_refuses_a_probability_beyond_the_double_range(self):
        # orjson refuses 10**400 itself; json reads it as an exact int, which
        # no float64 holds, so the block is refused and the line parser runs
        with mock.patch("orjson.loads", json.loads):
            assert data._jsonl_block(['{"probs":[%d,0],"label":0}' % 10**400]) is None

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="ab\r\n\x0b\x0c\x1c\x85\u2028\u2029", max_size=30),
           st.integers(1, 8))
    def test_chunks_hold_the_lines_of_the_text(self, text, chunk):
        with mock.patch.object(data, "_CHUNK_CHARS", chunk):
            pieces = list(data._chunk_lines(text))
        assert [line for piece in pieces for line in piece] == text.splitlines()

    @pytest.mark.parametrize("fmt, bad, message", _CORRUPTIONS)
    def test_corruption_in_a_later_chunk_keeps_its_message(self, tmp_path, fmt, bad, message):
        good = _GOOD_LINE[fmt]
        path = _write_lines(tmp_path / f"d.{fmt}", [good] * 40 + [bad] + [good] * 3)
        with mock.patch.object(data, "_CHUNK_CHARS", 100):
            assert len(list(data._chunk_lines(path.read_text()))) > 3
            outcome = _outcome(path, fmt)
        expected = message.replace("line 1:", "line 40:").replace("sample 1", "sample 40")
        assert outcome == (expected, 40)
        assert outcome == _line_parser_outcome(path, fmt)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("sep", ["\r\n", "\r", "\x0c", "\u2028"])
    def test_line_breaks_at_every_chunk_edge(self, tmp_path, fmt, sep):
        rows = [([0.25, 0.75], 1), ([0.5, 0.5], 0), ([1.0, 0.0], 0), ([0.125, 0.875], 1)] * 2
        lines = [json.dumps({"probs": p, "label": y}) if fmt == "jsonl"
                 else ",".join(map(repr, p + [y])) for p, y in rows]
        # every other line ends in ``sep`` instead of "\n"
        text = "".join(line + (sep if i % 2 else "\n") for i, line in enumerate(lines))
        path = tmp_path / f"d.{fmt}"
        path.write_bytes(text.encode())
        expected = _outcome(path, fmt)
        assert expected == _line_parser_outcome(path, fmt)
        assert load_dataset(path, fmt).labels.tolist() == [y for _, y in rows]
        for chunk in range(1, len(text) + 1):
            with mock.patch.object(data, "_CHUNK_CHARS", chunk):
                assert _outcome(path, fmt) == expected, chunk

    @pytest.mark.parametrize("fmt, wide, message", [
        ("jsonl", '{"probs":[0.25,0.25,0.5],"label":0}', "line 2: expected 2 probabilities, got 3"),
        ("csv", "0.25,0.25,0.5,0", "line 2: expected 3 columns, got 4"),
    ])
    def test_width_change_between_chunks(self, tmp_path, fmt, wide, message):
        # one line per chunk, so each chunk is consistent on its own
        path = _write_lines(tmp_path / f"d.{fmt}", [_GOOD_LINE[fmt]] * 2 + [wide] * 2)
        with mock.patch.object(data, "_CHUNK_CHARS", 1):
            assert [len(piece) for piece in data._chunk_lines(path.read_text())] == [1] * 4
            assert _outcome(path, fmt) == (message, 2)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("content, message, line", [
        ("", "no samples found", None),
        ("\n", "line 0: blank line", 0),
    ])
    def test_empty_file_in_chunks(self, tmp_path, fmt, content, message, line):
        path = tmp_path / f"d.{fmt}"
        path.write_text(content)
        with mock.patch.object(data, "_CHUNK_CHARS", 1):
            got, got_line = _outcome(path, fmt)
        assert message in got and got_line == line

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_one_chunk_plus_one_line(self, tmp_path, fmt):
        lines = [f"0.5,0.5,{i % 2}" if fmt == "csv" else
                 '{"probs":[0.5,0.5],"label":%d}' % (i % 2) for i in range(9)]
        path = _write_lines(tmp_path / f"d.{fmt}", lines)
        text = path.read_text()
        # the search for the cut starts on the "\n" that ends line 7
        with mock.patch.object(data, "_CHUNK_CHARS", 8 * (len(lines[0]) + 1) - 1):
            assert [len(piece) for piece in data._chunk_lines(text)] == [8, 1]
            outcome = _outcome(path, fmt)
        assert outcome == _outcome(path, fmt) == _line_parser_outcome(path, fmt)
        assert np.frombuffer(outcome[1], dtype=np.int64).tolist() == [i % 2 for i in range(9)]

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet='0123456789.eE+-_ \t"xnaiftyrul[]{}１٣,', max_size=8),
           st.integers(0, 2), st.sampled_from(_CSV_ROWS))
    @_examples(_CSV_TOKEN_CASES)
    def test_any_csv_token_matches_the_line_parser(self, tmp_path_factory, token, column, row):
        # the bulk parser reads with orjson, the line parser with csv and float()
        line = list(row)
        line[column] = token
        path = _write_lines(tmp_path_factory.mktemp("token") / "d.csv",
                            ["0.25,0.75,0", ",".join(line), "1.0,0.0,1"])
        assert _outcome(path, "csv") == _line_parser_outcome(path, "csv")

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet='0123456789.eE+-"\\ ,:[]{}NaIfinytrulsx\ufeff', max_size=8),
           st.integers(0, len(_JSONL_SLOTS) - 1))
    @_examples(_JSONL_TOKEN_CASES)
    def test_any_jsonl_token_matches_the_line_parser(self, tmp_path_factory, token, slot):
        # the bulk parser reads with orjson, the line parser with json
        fields = list(_JSONL_SLOTS)
        fields[slot] = token
        path = _write_lines(tmp_path_factory.mktemp("token") / "d.jsonl", [
            '%s{"probs":[%s,%s],"label":%s%s}' % tuple(fields),
            '{"probs":[0.25,0.75],"label":0}', '{"probs":[1.0,0.0],"label":1}',
        ])
        assert _outcome(path, "jsonl") == _line_parser_outcome(path, "jsonl")

    # each file is a good line 0, the corrupted line 1, a good line 2
    @pytest.mark.parametrize("fmt, bad, message", _CORRUPTIONS)
    def test_single_line_corruption_keeps_its_message(self, tmp_path, fmt, bad, message):
        good = _GOOD_LINE[fmt]
        path = _write_lines(tmp_path / f"d.{fmt}", [good, bad, good])
        assert _outcome(path, fmt) == (message, 1)

    @pytest.mark.parametrize(
        "fmt, lines, message, line",
        [
            # an earlier format error wins over a later one of another kind
            ("jsonl", ['{"probs":[0.5,0.5],"label":0}', '{"probs":[0.2,0.3,0.5],"label":0}',
                       '{"probs":[0.5,0.5],"label":1.5}'],
             "line 1: expected 2 probabilities, got 3", 1),
            ("csv", ["0.5,0.5,0", "0.2,0.3,0.5,0", "0.5,0.5,1.5"],
             "line 1: expected 3 columns, got 4", 1),
            # every format error wins over an earlier out-of-range label
            ("jsonl", ['{"probs":[0.5,0.5],"label":0}', '{"probs":[0.5,0.5],"label":%d}' % 10**30,
                       '{"probs":[0.2,0.3,0.5],"label":0}'],
             "line 2: expected 2 probabilities, got 3", 2),
            ("csv", ["0.5,0.5,0", "0.5,0.5,%d" % 10**30, "0.2,0.3,0.5,0"],
             "line 2: expected 3 columns, got 4", 2),
            # one class throughout is a format error, not a dataset error
            ("jsonl", ['{"probs":[1.0],"label":0}'] * 2, "line 0: need at least 2 classes, got 1", 0),
            ("csv", ["1.0,0"] * 2, "line 0: need at least 2 probability columns, got 1", 0),
        ],
    )
    def test_first_bad_line_is_reported(self, tmp_path, fmt, lines, message, line):
        path = _write_lines(tmp_path / f"d.{fmt}", lines)
        assert _outcome(path, fmt) == (message, line)

    @pytest.mark.parametrize(
        "line, row",
        [('"0.25","0.75","1"', [0.25, 0.75]), ("0.2_5,0.7_5,1", [0.25, 0.75]),
         ("０.25,0.75,１", [0.25, 0.75]), ("0.25,0.75,١", [0.25, 0.75]),
         (".5,.5,1", [0.5, 0.5]), ("0.5,0.5,+1", [0.5, 0.5]), ("1.,0.,1.", [1.0, 0.0]),
         ("-0,1,1", [-0.0, 1.0])],
        ids=["quoted", "underscore", "full-width", "arabic-indic", "leading-dot", "plus",
             "trailing-dot", "negative-zero"],
    )
    def test_forms_the_bulk_csv_parser_refuses_still_load(self, tmp_path, line, row):
        lines = ["0.5,0.5,0", line]
        assert data._csv_block(lines) is None
        ds = load_dataset(_write_lines(tmp_path / "d.csv", lines), "csv")
        assert ds.probs.tobytes() == np.array([[0.5, 0.5], row]).tobytes()  # -0.0 keeps its sign
        assert ds.labels.tolist() == [0, 1]


@pytest.fixture()
def forks(monkeypatch):
    """Reports two usable CPUs and records each fork of the parse."""
    calls = []
    fork = os.fork

    def counted_fork():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(data, "_usable_cpus", lambda: 2)
    return calls


def _one_process_outcome(path, fmt):
    fork = os.fork
    del os.fork
    try:
        return _outcome(path, fmt)
    finally:
        os.fork = fork


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _in_child(parent_pid, action, block):
    """A ``parse_block`` that runs ``action`` first in a forked child."""
    def parse(lines):
        if os.getpid() != parent_pid:
            action()
        return block(lines)
    return parse


class TestTwoProcesses:
    """Text longer than two chunks is parsed in two halves, the second by a
    forked child; every outcome equals the one-process parse."""

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("chunk", [1, 37, 100, 1000])
    def test_arrays_equal_a_one_process_parse(self, tmp_path, forks, fmt, chunk):
        ds = random_dataset(np.random.default_rng(chunk), 150, 4)
        path = tmp_path / f"d.{fmt}"
        save_dataset(ds, path, fmt)

        def no_fallback(lines):
            raise AssertionError("a good file fell back to the line-by-line parser")

        with mock.patch.object(data, "_CHUNK_CHARS", chunk):
            with mock.patch.object(data, f"_parse_{fmt}_lines", no_fallback):
                two = load_dataset(path, fmt)
            assert len(forks) == 1
            one = _one_process_outcome(path, fmt)
        assert len(forks) == 1
        np.testing.assert_array_equal(two.probs, ds.probs)
        np.testing.assert_array_equal(two.labels, ds.labels)
        assert (two.probs.tobytes(), two.labels.tobytes(), two.fingerprint()) == one
        assert two.fingerprint() == ds.fingerprint()
        _assert_no_child_left()

    def test_small_text_is_parsed_in_one_process(self, tmp_path, forks):
        path = _write_lines(tmp_path / "d.jsonl", [_GOOD_LINE["jsonl"]] * 6)
        with mock.patch.object(data, "_CHUNK_CHARS", len(path.read_text()) // 2):
            assert load_dataset(path, "jsonl").num_samples == 6
        assert forks == []

    def test_one_cpu_is_parsed_in_one_process(self, tmp_path, forks):
        path = _write_lines(tmp_path / "d.jsonl", [_GOOD_LINE["jsonl"]] * 6)
        with mock.patch.object(data, "_CHUNK_CHARS", 1), \
                mock.patch.object(data, "_usable_cpus", lambda: 1):
            assert load_dataset(path, "jsonl").num_samples == 6
        assert forks == []

    @pytest.mark.parametrize("fmt, bad, message", _CORRUPTIONS)
    @pytest.mark.parametrize("line", [3, 75])
    def test_corruption_in_either_half_keeps_its_message(
        self, tmp_path, forks, fmt, bad, message, line
    ):
        good = _GOOD_LINE[fmt]
        lines = [good] * 80
        lines[line] = bad
        path = _write_lines(tmp_path / f"d.{fmt}", lines)
        text = path.read_text()
        with mock.patch.object(data, "_CHUNK_CHARS", 100):
            outcome = _outcome(path, fmt)
        assert len(forks) == 1
        # line 3 lies in the parent's half, line 75 in the child's
        mid_line = text[: text.find("\n", len(text) // 2) + 1].count("\n")
        assert (line < mid_line) == (line == 3)
        expected = message.replace("line 1:", f"line {line}:")
        assert outcome == (expected.replace("sample 1", f"sample {line}"), line)
        assert outcome == _line_parser_outcome(path, fmt)
        _assert_no_child_left()

    @pytest.mark.parametrize("fmt, wide, message", [
        ("jsonl", '{"probs":[0.25,0.25,0.5],"label":0}', "expected 2 probabilities, got 3"),
        ("csv", "0.25,0.25,0.5,0", "expected 3 columns, got 4"),
    ])
    def test_width_change_exactly_at_the_split(self, tmp_path, forks, fmt, wide, message):
        narrow = _GOOD_LINE[fmt]
        # the fewest narrow lines before 30 wide ones that put the split on their border
        for count in range(1, 100):
            text = "".join(line + "\n" for line in [narrow] * count + [wide] * 30)
            if text.find("\n", len(text) // 2) + 1 == count * (len(narrow) + 1):
                break
        path = tmp_path / f"d.{fmt}"
        path.write_text(text)
        # each half is one width throughout, so only the join sees the change
        with mock.patch.object(data, "_CHUNK_CHARS", 100):
            assert _outcome(path, fmt) == (f"line {count}: {message}", count)
        assert len(forks) == 1

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_child_that_dies_falls_back_to_the_same_result(self, tmp_path, forks, fmt):
        ds = random_dataset(np.random.default_rng(3), 120, 3)
        path = tmp_path / f"d.{fmt}"
        save_dataset(ds, path, fmt)
        name = f"_{fmt}_block"
        dies = _in_child(os.getpid(), lambda: os._exit(1), getattr(data, name))
        with mock.patch.object(data, "_CHUNK_CHARS", 200):
            expected = _one_process_outcome(path, fmt)
            with mock.patch.object(data, name, dies):
                assert _outcome(path, fmt) == expected
        assert len(forks) == 1
        _assert_no_child_left()

    def test_blocks_of_a_failed_child_are_not_used(self, tmp_path, forks):
        # a complete dump of no blocks, then a nonzero exit: the blocks would
        # drop the child's half, so the status alone must send the file to
        # the line-by-line parser
        ds = random_dataset(np.random.default_rng(4), 120, 3)
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path, "jsonl")
        dump = pickle.dump

        def dump_nothing_then_fail(obj, file, protocol):
            dump([], file, protocol)
            file.flush()
            os._exit(1)

        with mock.patch.object(data, "_CHUNK_CHARS", 200):
            expected = _one_process_outcome(path, "jsonl")
            with mock.patch.object(pickle, "dump", dump_nothing_then_fail):
                assert _outcome(path, "jsonl") == expected
        assert len(forks) == 1
        _assert_no_child_left()

    def test_parent_side_exception_leaves_no_child(self, tmp_path, forks):
        class Interrupted(Exception):
            pass

        def raise_in_parent(lines):
            raise Interrupted

        path = _write_lines(tmp_path / "d.jsonl", [_GOOD_LINE["jsonl"]] * 40)
        # the child would parse for a minute; the parent must not wait for it
        stalls = _in_child(os.getpid(), lambda: time.sleep(60), raise_in_parent)
        start = time.monotonic()
        with mock.patch.object(data, "_CHUNK_CHARS", 100), \
                mock.patch.object(data, "_jsonl_block", stalls), pytest.raises(Interrupted):
            load_dataset(path, "jsonl")
        assert time.monotonic() - start < 10
        assert len(forks) == 1
        _assert_no_child_left()

    def test_child_flushes_no_inherited_output(self, tmp_path):
        # stdout to a pipe is block-buffered: a child leaving through sys.exit
        # would write the parent's pending "before" line a second time
        path = _write_lines(tmp_path / "d.jsonl", [_GOOD_LINE["jsonl"]] * 40)
        script = (
            "import sys\n"
            "from cobias import data\n"
            "data._CHUNK_CHARS, data._usable_cpus = 100, lambda: 2\n"
            "sys.stdout.write('before\\n')\n"
            f"print(data.load_dataset({str(path)!r}, 'jsonl').num_samples)\n"
        )
        src = str(Path(data.__file__).resolve().parents[1])
        result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert (result.returncode, result.stdout, result.stderr) == (0, "before\n40\n", "")


class TestInTwo:
    """``data._in_two`` runs its second callable in a forked child."""

    @pytest.mark.parametrize("outcome", ["raises", "none"])
    def test_parent_side_end_kills_the_child(self, forks, outcome):
        class Interrupted(Exception):
            pass

        def here():
            if outcome == "raises":
                raise Interrupted
            return None

        # the child would run for a minute; the parent must not wait for it
        start = time.monotonic()
        if outcome == "raises":
            with pytest.raises(Interrupted):
                data._in_two(here, lambda: time.sleep(60), fork=True)
        else:
            assert data._in_two(here, lambda: time.sleep(60), fork=True) == (None, None)
        assert time.monotonic() - start < 10
        assert len(forks) == 1
        _assert_no_child_left()

    def test_a_failed_child_runs_again_here(self, forks):
        parent = os.getpid()

        def there():
            if os.getpid() != parent:
                os._exit(1)
            return "there"

        assert data._in_two(lambda: "here", there, fork=True) == ("here", "there")
        assert len(forks) == 1
        _assert_no_child_left()

    @pytest.mark.parametrize("cpus, fork", [(1, True), (2, False)])
    def test_one_cpu_or_no_fork_runs_both_here(self, forks, monkeypatch, cpus, fork):
        monkeypatch.setattr(data, "_usable_cpus", lambda: cpus)
        pids = data._in_two(lambda: os.getpid(), lambda: os.getpid(), fork=fork)
        assert pids == (os.getpid(),) * 2
        assert forks == []

    def test_a_platform_without_fork_runs_both_here(self, monkeypatch):
        monkeypatch.setattr(data, "_usable_cpus", lambda: 2)
        monkeypatch.delattr(os, "fork")
        pids = data._in_two(lambda: os.getpid(), lambda: os.getpid(), fork=True)
        assert pids == (os.getpid(),) * 2


class TestGenerateSynthetic:
    def test_identity_bias_gives_perfect_accuracy(self):
        spec = SyntheticSpec(
            num_classes=2,
            samples_per_class=(50, 50),
            confusion_bias=((1.0, 0.0), (0.0, 1.0)),
            concentration=1e6,
            seed=0,
        )
        ds = generate_synthetic(spec)
        report = class_report(ds)
        assert report["overall_accuracy"] == 1.0
        assert report["cobias"] == 0.0

    def test_symmetric_bias_accuracy_near_half(self):
        # With both rows uniform, each class wins the argmax about half the
        # time; 10k draws keep the empirical rate within a couple of percent.
        spec = SyntheticSpec(
            num_classes=2,
            samples_per_class=(5000, 5000),
            confusion_bias=((0.5, 0.5), (0.5, 0.5)),
            concentration=2.0,
            seed=7,
        )
        ds = generate_synthetic(spec)
        report = class_report(ds)
        assert abs(report["per_class_accuracy"][0] - 0.5) < 0.02
        assert abs(report["per_class_accuracy"][1] - 0.5) < 0.02
        assert 0.0 <= report["cobias"] <= 0.05

    def test_deterministic_for_fixed_seed(self):
        spec = SyntheticSpec(
            num_classes=3,
            samples_per_class=(10, 20, 30),
            confusion_bias=((0.8, 0.1, 0.1), (0.2, 0.6, 0.2), (0.3, 0.3, 0.4)),
            concentration=5.0,
            seed=42,
        )
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert a.probs.tobytes() == b.probs.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_mean_matches_bias_row(self):
        spec = SyntheticSpec(
            num_classes=3,
            samples_per_class=(20000, 1, 1),
            confusion_bias=((0.5, 0.3, 0.2), (0.2, 0.6, 0.2), (0.3, 0.3, 0.4)),
            concentration=3.0,
            seed=1,
        )
        ds = generate_synthetic(spec)
        mean = ds.probs[:20000].mean(axis=0)
        np.testing.assert_allclose(mean, [0.5, 0.3, 0.2], atol=0.01)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(2, (10,), ((1.0, 0.0), (0.0, 1.0)), 1.0, 0)
        with pytest.raises(ValidationError):
            SyntheticSpec(2, (10, 10), ((0.9, 0.0), (0.0, 1.0)), 1.0, 0)
        with pytest.raises(ValidationError):
            SyntheticSpec(2, (10, 10), ((1.0, 0.0), (0.0, 1.0)), 0.0, 0)
        with pytest.raises(ValidationError, match="seed must be nonnegative, got -1"):
            SyntheticSpec(2, (10, 10), ((1.0, 0.0), (0.0, 1.0)), 1.0, -1)


def _make_artifact(indices=(3, 1, 1, 20), k=30, fingerprint="abc123"):
    return ReweightArtifact(
        scale=WeightScale(k),
        selection=WeightSelection(indices),
        objective_config=ObjectiveConfig(),
        final_objective=0.25,
        provenance={
            "seed": 0,
            "schedule": {"t_max": 200000.0, "t_min": 0.1, "alpha": 0.95,
                         "lambda": 5.0, "max_accepted": None, "seed": 0},
            "dataset_fingerprint": fingerprint,
            "created_at": None,
        },
    )


class TestArtifactRoundTrip:
    def test_round_trip_preserves_indices_and_coefficients(self, tmp_path):
        artifact = _make_artifact()
        p = tmp_path / "a.json"
        save_artifact(artifact, p)
        back = load_artifact(p)
        assert back.selection.indices == (3, 1, 1, 20)
        assert back.scale.k_points == 30
        assert back.coefficients.tolist() == artifact.coefficients.tolist()
        assert back.final_objective == artifact.final_objective
        assert back.objective_config == artifact.objective_config
        assert back.provenance == artifact.provenance

    @pytest.mark.parametrize("created_at", [None, "2026-01-02T03:04:05.678901+00:00"])
    def test_save_load_save_is_byte_identical(self, tmp_path, created_at):
        artifact = _make_artifact()
        artifact.provenance["created_at"] = created_at
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_artifact(artifact, first)
        back = load_artifact(first)
        save_artifact(back, second)
        assert second.read_bytes() == first.read_bytes()
        assert list(back.provenance) == ["seed", "schedule", "dataset_fingerprint", "created_at"]
        assert back.provenance["created_at"] == created_at

    def test_unknown_provenance_keys_are_dropped(self, tmp_path):
        p = tmp_path / "a.json"
        save_artifact(_make_artifact(), p)
        doc = json.loads(p.read_text())
        doc["provenance"] = {"host": "x", **doc["provenance"], "extra": [1]}
        p.write_text(json.dumps(doc))
        assert load_artifact(p).provenance == _make_artifact().provenance

    def test_top_indices_reload_as_unit_coefficients(self, tmp_path):
        artifact = _make_artifact(indices=(30, 30, 30, 30))
        p = tmp_path / "a.json"
        save_artifact(artifact, p)
        back = load_artifact(p)
        assert back.coefficients.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_corrupted_file_rejected(self, tmp_path):
        p = tmp_path / "a.json"
        p.write_text("{not json")
        with pytest.raises(ArtifactError, match="JSON"):
            load_artifact(p)

    def test_version_mismatch_rejected(self, tmp_path):
        artifact = _make_artifact()
        p = tmp_path / "a.json"
        save_artifact(artifact, p)
        doc = json.loads(p.read_text())
        doc["schema_version"] = 99
        p.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match="version"):
            load_artifact(p)

    def test_missing_fingerprint_rejected(self, tmp_path):
        artifact = _make_artifact()
        p = tmp_path / "a.json"
        save_artifact(artifact, p)
        doc = json.loads(p.read_text())
        del doc["provenance"]["dataset_fingerprint"]
        p.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError):
            load_artifact(p)

    @pytest.mark.parametrize("flag, value", [("use_z1", "false"), ("use_z3", "no"),
                                             ("use_z2", 0), ("use_z1", None)])
    def test_term_flags_must_be_json_booleans(self, tmp_path, flag, value):
        p = tmp_path / "a.json"
        save_artifact(_make_artifact(), p)
        doc = json.loads(p.read_text())
        doc["objective_config"][flag] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match=f"artifact schema violation.*{flag} must be "
                                                "a JSON boolean"):
            load_artifact(p)

    @pytest.mark.parametrize("field, value, message", [
        (("k_points",), 10.9, "k_points must be an integer"),
        (("k_points",), True, "k_points must be an integer"),
        (("indices",), ["3", "1", "1", "20"], "indices must be an integer"),
        (("indices",), [3.0, 1, 1, 20], "indices must be an integer"),
        (("provenance", "seed"), 4.7, "seed must be an integer"),
        (("provenance", "seed"), "4", "seed must be an integer"),
        (("final_objective",), "-0.6166", "final_objective must be a number"),
        (("final_objective",), True, "final_objective must be a number"),
        (("coefficients",), ["0.1", 1 / 30, 1 / 30, 2 / 3], "coefficients must be a number"),
        (("coefficients",), [0.1, False, 1 / 30, 2 / 3], "coefficients must be a number"),
        (("objective_config", "beta"), "2.7", "beta must be a number"),
        (("objective_config", "tau"), None, "tau must be a number"),
        (("objective_config", "mu"), True, "mu must be a number"),
        pytest.param(("objective_config", "mu"), 10**400, "int too large to convert to float",
                     id="mu-beyond-float"),
    ])
    def test_integer_and_number_fields_are_checked_not_coerced(self, tmp_path, field, value,
                                                               message):
        p = tmp_path / "a.json"
        save_artifact(_make_artifact(), p)
        doc = json.loads(p.read_text())
        *parents, name = field
        target = doc
        for key in parents:
            target = target[key]
        target[name] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match=f"artifact schema violation.*{message}"):
            load_artifact(p)

    def test_tampered_coefficients_rejected(self, tmp_path):
        artifact = _make_artifact()
        p = tmp_path / "a.json"
        save_artifact(artifact, p)
        doc = json.loads(p.read_text())
        doc["coefficients"][0] = 0.5
        p.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match="coefficients"):
            load_artifact(p)
