"""Domain types and dataset I/O.

A probability dataset is a matrix of per-sample class probabilities plus
integer ground-truth labels. Correction weights live on a discrete K-point
scale; a selection assigns one scale index to each class. Learned selections
and the objective config (term weights and flags) they were learned under
are persisted as versioned JSON artifacts.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import operator
import os
import pickle
import re
import signal
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import orjson

from .defaults import DATASET_FORMATS, DEFAULT_BETA, DEFAULT_MU, DEFAULT_TAU, TERM_COMBINATIONS
from .errors import ArtifactError, DatasetFormatError, ValidationError

PROB_SUM_TOL = 1e-6
ARTIFACT_SCHEMA_VERSION = 1


def _integer(value, name: str) -> int:
    # int() would truncate 2.5; operator.index takes Python and numpy integers only
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


def readonly_array(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class ProbabilityDataset:
    """Immutable matrix of class probabilities with ground-truth labels.

    ``probs`` has shape (M, N) with rows summing to 1 within ``PROB_SUM_TOL``;
    ``labels`` has shape (M,) with values in [0, N-1]. Arrays are read-only.
    """

    probs: np.ndarray
    labels: np.ndarray

    @property
    def num_samples(self) -> int:
        return self.probs.shape[0]

    @property
    def num_classes(self) -> int:
        return self.probs.shape[1]

    @classmethod
    def from_arrays(cls, probs, labels, renormalize: bool = False) -> "ProbabilityDataset":
        # copy=True keeps the dataset detached from caller-owned buffers
        probs = np.array(probs, dtype=np.float64, copy=True)
        if probs.ndim != 2:
            raise ValidationError(f"probs must be 2-dimensional, got shape {probs.shape}")
        m, n = probs.shape
        if m < 1:
            raise ValidationError("dataset must contain at least one sample")
        if n < 2:
            raise ValidationError(f"dataset must have at least 2 classes, got {n}")
        try:
            if not (isinstance(labels, np.ndarray) and labels.dtype.kind in "biu"):
                # int64 conversion would truncate 0.7 to 0 and wrap a whole float
                # beyond int64; integer arrays skip this pass
                floats = np.asarray(labels, dtype=np.float64)
                fractional = np.flatnonzero(~np.isfinite(floats) | (floats != np.trunc(floats)))
                if fractional.size:
                    bad = int(fractional[0])
                    raise ValidationError(f"sample {bad}: label {float(floats.flat[bad])!r} "
                                          "is not an integer", sample=bad)
                if not np.all((floats >= -(2.0**63)) & (floats < 2.0**63)):
                    raise OverflowError
            elif labels.dtype == np.uint64 and np.any(labels >= 2**63):
                raise OverflowError  # int64 conversion would wrap it negative
            labels = np.array(labels, dtype=np.int64, copy=True)
        except OverflowError:
            # only numbers beyond int64 overflow; this scan runs on the error path alone
            bad = next(i for i, v in enumerate(np.ravel(labels)) if not -(2**63) <= v < 2**63)
            raise ValidationError(
                f"sample {bad}: label beyond the 64-bit integer range", sample=bad
            ) from None
        if labels.shape != (m,):
            raise ValidationError(
                f"labels shape {labels.shape} does not match {m} samples"
            )
        if not np.all(np.isfinite(probs)):
            bad = int(np.flatnonzero(~np.isfinite(probs).all(axis=1))[0])
            raise ValidationError(f"non-finite probability in sample {bad}", sample=bad)
        if np.any(probs < 0):
            bad = int(np.flatnonzero((probs < 0).any(axis=1))[0])
            raise ValidationError(f"negative probability in sample {bad}", sample=bad)
        if renormalize:
            sums = probs.sum(axis=1)
            zero = np.flatnonzero(sums == 0.0)
            if zero.size:
                bad = int(zero[0])
                raise ValidationError(f"zero-sum probability row in sample {bad}", sample=bad)
            probs = probs / sums[:, None]
        sums = probs.sum(axis=1)
        off = np.abs(sums - 1.0)
        if np.any(off > PROB_SUM_TOL):
            bad = int(np.argmax(off))
            raise ValidationError(
                f"sample {bad}: probabilities sum to {sums[bad]:.8f}, expected 1 "
                f"within {PROB_SUM_TOL} (pass renormalize=True to rescale rows)",
                sample=bad,
            )
        if np.any((labels < 0) | (labels >= n)):
            bad = int(np.flatnonzero((labels < 0) | (labels >= n))[0])
            raise ValidationError(
                f"sample {bad}: label {int(labels[bad])} outside [0, {n - 1}]", sample=bad
            )
        return cls(probs=readonly_array(probs), labels=readonly_array(labels))

    def fingerprint(self) -> str:
        """Content hash of the canonical serialized dataset (sha256 hex)."""
        h = hashlib.sha256()
        h.update(b"cobias-dataset-v1")
        h.update(self.num_classes.to_bytes(4, "little"))
        h.update(np.ascontiguousarray(self.labels, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(self.probs, dtype="<f8").tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class WeightScale:
    """Discrete correction-weight scale with K evenly spaced points.

    Point k (1-based) carries the value k/K, so the scale always ends at 1.0
    and a K=1 scale degenerates to the identity weight.
    """

    k_points: int

    def __post_init__(self):
        object.__setattr__(self, "k_points", _integer(self.k_points, "k_points"))
        if self.k_points < 1:
            raise ValidationError(f"k_points must be >= 1, got {self.k_points}")
        if self.k_points > 2**53:  # so K and every index convert to float64 exactly
            raise ValidationError(f"k_points must be <= 2**53, got {self.k_points}")


@dataclass(frozen=True)
class WeightSelection:
    """Per-class scale indices (1-based), the decision variables of the program."""

    indices: tuple[int, ...]

    def __post_init__(self):
        indices = tuple(_integer(i, "selection index") for i in self.indices)
        object.__setattr__(self, "indices", indices)

    @classmethod
    def identity(cls, num_classes: int, scale: WeightScale) -> "WeightSelection":
        """Selection mapping every class to the top scale point (weight 1.0)."""
        return cls(indices=(scale.k_points,) * num_classes)

    def validate(self, num_classes: int, scale: WeightScale) -> None:
        if len(self.indices) != num_classes:
            raise ValidationError(
                f"selection has {len(self.indices)} entries, expected {num_classes}"
            )
        for n, idx in enumerate(self.indices):
            if not 1 <= idx <= scale.k_points:
                raise ValidationError(
                    f"class {n}: index {idx} outside [1, {scale.k_points}]"
                )

    def coefficients(self, scale: WeightScale) -> np.ndarray:
        # index / k_points per class: the one index-to-weight rule
        return np.asarray(self.indices, dtype=np.float64) / scale.k_points


def _json_integer(value, name: str) -> int:
    # int() would truncate 4.9 and parse "4"; a count or a seed must be a JSON integer
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _json_number(value, name: str) -> float:
    # float() would parse "2.7" and read true as 1.0; a weight must be a JSON number
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def _json_rows(value, name: str) -> tuple[tuple[float, ...], ...]:
    # iterating a number or a flat list would fail with Python's message, naming no field
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise TypeError(f"{name} must be a list of rows, each a list of numbers")
    return tuple(tuple(_json_number(x, name) for x in row) for row in value)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic biased dataset.

    ``confusion_bias`` is a row-stochastic matrix: row i is the mean
    probability mass a true-class-i sample places on each class.
    ``concentration`` is the total Dirichlet pseudo-count mass per draw;
    larger values concentrate samples around the row mean.
    """

    num_classes: int
    samples_per_class: tuple[int, ...]
    confusion_bias: tuple[tuple[float, ...], ...]
    concentration: float
    seed: int

    def __post_init__(self):
        n = self.num_classes
        if n < 2:
            raise ValidationError("num_classes must be >= 2")
        if len(self.samples_per_class) != n:
            raise ValidationError("samples_per_class length must equal num_classes")
        if any(c < 1 for c in self.samples_per_class):
            raise ValidationError("samples_per_class entries must be positive")
        for row in self.confusion_bias:  # numpy's message for a ragged matrix names no field
            if len(row) != n:
                raise ValidationError(f"confusion_bias must be {n}x{n}, got a row of {len(row)}")
        bias = np.asarray(self.confusion_bias, dtype=np.float64)
        if bias.shape != (n, n):
            raise ValidationError(f"confusion_bias must be {n}x{n}, got {bias.shape}")
        if np.any(bias < 0):
            raise ValidationError("confusion_bias entries must be nonnegative")
        if np.any(np.abs(bias.sum(axis=1) - 1.0) > 1e-9):
            raise ValidationError("confusion_bias rows must sum to 1 within 1e-9")
        if not self.concentration > 0:
            raise ValidationError("concentration must be positive")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")

    @classmethod
    def from_dict(cls, doc) -> "SyntheticSpec":
        if not isinstance(doc, dict):
            raise ValidationError("synthetic spec must be a JSON object")
        try:
            return cls(
                num_classes=_json_integer(doc["num_classes"], "num_classes"),
                samples_per_class=tuple(
                    _json_integer(c, "samples_per_class") for c in doc["samples_per_class"]
                ),
                confusion_bias=_json_rows(doc["confusion_bias"], "confusion_bias"),
                concentration=_json_number(doc["concentration"], "concentration"),
                seed=_json_integer(doc["seed"], "seed"),
            )
        except KeyError as exc:
            raise ValidationError(f"synthetic spec missing field {exc}") from exc
        except ValidationError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"synthetic spec has an invalid value: {exc}") from exc


def generate_synthetic(spec: SyntheticSpec) -> ProbabilityDataset:
    """Draw a dataset from a synthetic spec; deterministic for a fixed seed.

    Each true-class-i sample's probability vector is a Dirichlet draw with
    mean equal to ``confusion_bias`` row i and pseudo-count mass equal to
    ``concentration``. Zero-mass classes stay exactly zero.
    """
    rng = np.random.default_rng(spec.seed)
    bias = np.asarray(spec.confusion_bias, dtype=np.float64)
    blocks = []
    labels = []
    for i, count in enumerate(spec.samples_per_class):
        row = bias[i]
        support = np.flatnonzero(row > 0)
        block = np.zeros((count, spec.num_classes))
        if support.size == 1:
            block[:, support[0]] = 1.0
        else:
            alpha = spec.concentration * row[support]
            block[:, support] = rng.dirichlet(alpha, size=count)
        blocks.append(block)
        labels.append(np.full(count, i, dtype=np.int64))
    return ProbabilityDataset.from_arrays(np.vstack(blocks), np.concatenate(labels))


def _stratified_subsample(
    dataset: ProbabilityDataset, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Row indices, in increasing order, of a label-stratified subsample of
    ``size`` rows, for 1 <= size <= M (``cli._anneals`` refuses other sizes).

    Falls back to a simple random sample (with a warning) when the size
    cannot cover every class present.
    """
    m = dataset.num_samples
    labels = dataset.labels
    present, counts = np.unique(labels, return_counts=True)
    if size < present.size:
        warnings.warn(
            f"size {size} cannot cover all {present.size} classes; "
            "falling back to a simple random sample"
        )
        return np.sort(rng.choice(m, size=size, replace=False))
    # One row per class, then a largest-remainder split of the rest: the
    # floor of each quota, then one more per class with room, by
    # descending remainder (ties to the lower class), round after round.
    quotas = (size - present.size) * counts / m
    alloc = 1 + np.minimum(np.floor(quotas).astype(np.int64), counts - 1)
    remaining = size - int(alloc.sum())
    order = np.argsort(np.floor(quotas) - quotas, kind="stable")
    while remaining > 0:
        open_classes = order[alloc[order] < counts[order]][:remaining]
        alloc[open_classes] += 1
        remaining -= open_classes.size
    parts = [rng.choice(np.flatnonzero(labels == c), size=a, replace=False)
             for c, a in zip(present.tolist(), alloc.tolist())]
    return np.sort(np.concatenate(parts))


# ---------------------------------------------------------------------------
# Dataset file I/O
# ---------------------------------------------------------------------------

_CHUNK_CHARS = 1 << 18  # text parsed per chunk; bounds the rows held as Python objects


def _chunk_lines(text: str, start: int = 0, stop: int | None = None):
    """Yield ``text[start:stop].splitlines()`` in pieces of about ``_CHUNK_CHARS`` characters.

    Each piece of text ends right after a "\\n", so no line (nor a "\\r\\n")
    is split and the pieces together hold exactly the lines of the span.
    """
    stop = len(text) if stop is None else stop
    while start < stop:
        end = text.find("\n", start + _CHUNK_CHARS, stop) + 1 or stop
        yield text[start:end].splitlines()
        start = end


def _parse_blocks(text: str, parse_block, start: int, stop: int):
    """The (probs, labels) blocks of the chunks of ``text[start:stop]`` in
    order, or None once a chunk is refused."""
    blocks = []
    for lines in _chunk_lines(text, start, stop):
        block = parse_block(lines)
        if block is None:
            return None
        blocks.append(block)
    return blocks


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_two(here, there, fork: bool):
    """``(here(), there())``, with ``there`` run by a forked child if ``fork``.

    Its one caller is the parse, ``_parse_chunked``. The child pickles its
    result into a pipe and leaves through ``os._exit``, so it runs no cleanup
    and flushes no inherited buffer. Its result counts only if it unpickles
    and the child exits 0, else ``there`` runs again here. A child is killed
    unread when ``here()`` is None or raises, and always reaped. Without
    fork or a second usable CPU both run here."""
    if not (fork and hasattr(os, "fork") and _usable_cpus() > 1):
        first = here()
        return (None, None) if first is None else (first, there())
    read_fd, write_fd = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12+ warns on any fork once numpy's BLAS pool has started;
        # the children only parse text and touch no BLAS
        warnings.filterwarnings(
            "ignore", r"This process .* is multi-threaded, use of fork\(\)", DeprecationWarning
        )
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pickle.dump(there(), pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    first = second = None
    read = False
    try:
        with open(read_fd, "rb") as pipe:
            first = here()
            if first is not None:
                try:
                    second, read = pickle.load(pipe), True
                except (EOFError, pickle.UnpicklingError):  # the child died mid-dump
                    pass
    finally:
        if not read:  # its result will not be read, so it need not finish
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    if first is not None and not (read and os.waitstatus_to_exitcode(status) == 0):
        second = there()
    return first, second


def _parse_chunked(text: str, parse_block, parse_lines):
    """Parse ``text`` one chunk of lines at a time into float64/int64 blocks.

    ``parse_block`` returns a chunk's (probs, labels) arrays, or None when
    its checks cannot vouch for every line. Then, or when the width changes
    between chunks, ``parse_lines`` parses the file from line 0 and names the
    first bad line. Text longer than two chunks is parsed by two processes,
    split right after the first "\\n" at or past its midpoint; a forked child
    reads the text without a copy.
    """
    mid = text.find("\n", len(text) // 2) + 1 or len(text)
    first, second = _in_two(lambda: _parse_blocks(text, parse_block, 0, mid),
                            lambda: _parse_blocks(text, parse_block, mid, len(text)),
                            fork=len(text) > 2 * _CHUNK_CHARS)
    blocks = None if second is None else first + second
    if blocks is None or len({probs.shape[1] for probs, _ in blocks}) > 1:
        return parse_lines(text.splitlines())
    if not blocks:  # an empty file
        return [], []
    return np.concatenate([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks])


def _jsonl_block(lines: list[str]) -> tuple[np.ndarray, np.ndarray] | None:
    """Parse JSONL rows with orjson and whole-chunk checks; None if any line
    fails them. A line orjson refuses and json reads (NaN, Infinity, numbers
    beyond the double range) or an integer label beyond 64 bits, which orjson
    reads as a float, thus sends the file to ``_parse_jsonl_lines``."""
    probs, labels = [], []
    try:
        for obj in map(orjson.loads, lines):  # keeps two fields, never the parsed dicts
            probs.append(obj["probs"])
            labels.append(obj["label"])
    except (ValueError, TypeError, KeyError):
        return None
    # orjson yields exact int/float/bool, so exact type sets state the
    # per-line isinstance rules (bool is neither a number nor a label)
    if (
        set(map(type, probs)) == {list}
        and set(map(len, probs)) == {len(probs[0])}
        and len(probs[0]) >= 2
        and set(map(type, itertools.chain.from_iterable(probs))) <= {int, float}
        and set(map(type, labels)) == {int}
    ):
        n, width = len(probs), len(probs[0])
        try:
            return (np.fromiter(itertools.chain.from_iterable(probs), np.float64, n * width)
                    .reshape(n, width), np.array(labels, dtype=np.int64))
        except OverflowError:  # a probability beyond the float range, a label beyond int64
            pass
    return None


def _parse_jsonl_lines(lines: list[str]) -> tuple[list[list[float]], list[int]]:
    rows, labels = [], []
    width = None
    for lineno, line in enumerate(lines):
        if not line.strip():
            # blank lines are rejected so that sample index == line index
            raise DatasetFormatError("blank line", line=lineno)
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"invalid JSON ({exc.msg})", line=lineno) from exc
        except ValueError as exc:  # an integer literal above sys.get_int_max_str_digits()
            raise DatasetFormatError(f"invalid number ({exc})", line=lineno) from None
        except RecursionError:
            raise DatasetFormatError("invalid JSON (nested too deeply)", line=lineno) from None
        if not isinstance(obj, dict) or "probs" not in obj or "label" not in obj:
            raise DatasetFormatError('expected object with "probs" and "label"', line=lineno)
        probs = obj["probs"]
        if not isinstance(probs, list) or not all(
            isinstance(p, (int, float)) and not isinstance(p, bool) for p in probs
        ):
            raise DatasetFormatError('"probs" must be a list of numbers', line=lineno)
        if width is None:
            width = len(probs)
            if width < 2:
                raise DatasetFormatError(f"need at least 2 classes, got {width}", line=lineno)
        elif len(probs) != width:
            raise DatasetFormatError(
                f"expected {width} probabilities, got {len(probs)}", line=lineno
            )
        label = obj["label"]
        if isinstance(label, bool) or not isinstance(label, int):
            raise DatasetFormatError('"label" must be an integer', line=lineno)
        try:
            rows.append([float(p) for p in probs])
        except OverflowError:
            raise DatasetFormatError("probability too large for a float", line=lineno) from None
        labels.append(label)
    return rows, labels


def read_utf8(path, error: type[ValidationError] = ValidationError) -> str:
    """Read a text file, raising ``error`` instead of UnicodeDecodeError."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start)
        raise error(
            f"{path} is not valid UTF-8 text (byte {exc.start}, line {line})"
        ) from None


def read_json(path, what: str, error: type[ValidationError] = ValidationError):
    """Parse a UTF-8 JSON file, raising ``error`` for any malformed content."""
    try:
        return json.loads(read_utf8(path, error))
    except json.JSONDecodeError as exc:
        raise error(f"{what} is not valid JSON: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal above sys.get_int_max_str_digits()
        raise error(f"{what} has an invalid number: {exc}") from None
    except RecursionError:
        raise error(f"{what} is not valid JSON: nested too deeply") from None


def _parse_number(token: str, lineno: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise DatasetFormatError(f"non-numeric {what} {token!r}", line=lineno) from None


def _csv_block(lines: list[str]) -> tuple[np.ndarray, np.ndarray] | None:
    """Parse CSV rows as one JSON array with orjson, a row of numbers per line.

    None for a chunk with a bracket, brace, quote, "l" or "u" (a string,
    array, object, true, false or null), one orjson refuses, unequal widths,
    a zero probability that may be an integer ``-0``, or labels that are not
    integers in the int64 range; ``_parse_csv_lines`` then names the first
    bad line, or reads quoted fields and the number forms JSON lacks (``.5``,
    ``+1``, ``1.``, ``inf``, ``1_0``, non-ASCII digits).
    """
    text = "\n".join(lines)
    if any(c in text for c in '[]{}"lu'):
        return None
    try:
        rows = orjson.loads("[[" + "],[".join(lines) + "]]")
    except ValueError:
        return None
    if len(set(map(len, rows))) > 1 or len(rows[0]) < 3:
        return None
    table = np.fromiter(itertools.chain.from_iterable(rows), np.float64,
                        len(rows) * len(rows[0])).reshape(len(rows), -1)
    probs, labels = table[:, :-1], table[:, -1]
    # orjson reads an integer "-0" as 0 and float() as -0.0 (unlike "-0.0" or
    # the exponent of "1e-0"), so only a zero probability can have lost a sign
    if not probs.all() and re.search(r"-0(?![.eE0-9])(?<![eE]-0)", text):
        return None
    if np.all((labels == np.trunc(labels)) & (labels >= -(2.0**63)) & (labels < 2.0**63)):
        return probs, labels.astype(np.int64)
    return None


def _parse_csv_lines(lines: list[str]) -> tuple[list[list[float]], list[int]]:
    rows, labels = [], []
    width = None
    for lineno, record in enumerate(csv.reader(lines)):
        if not record or (len(record) == 1 and not record[0].strip()):
            raise DatasetFormatError("blank line", line=lineno)
        if width is None:
            width = len(record) - 1
            if width < 2:
                raise DatasetFormatError(
                    f"need at least 2 probability columns, got {width}", line=lineno
                )
        elif len(record) - 1 != width:
            raise DatasetFormatError(
                f"expected {width + 1} columns, got {len(record)}", line=lineno
            )
        probs = [_parse_number(tok, lineno, "probability") for tok in record[:-1]]
        raw_label = _parse_number(record[-1], lineno, "label")
        if not raw_label.is_integer():  # also rejects nan and inf
            raise DatasetFormatError(f"label {record[-1]!r} is not an integer", line=lineno)
        rows.append(probs)
        labels.append(int(raw_label))
    return rows, labels


def load_dataset(path, fmt: str, renormalize: bool = False) -> ProbabilityDataset:
    """Load and validate a dataset file.

    ``fmt`` is "jsonl" (one ``{"probs": [...], "label": i}`` object per line)
    or "csv" (headerless, N probability columns then the label column). The
    class count is inferred from the first row and enforced thereafter.
    With ``renormalize`` each row is divided by its sum before validation.
    """
    if fmt not in DATASET_FORMATS:
        raise ValidationError(f"unknown dataset format {fmt!r}, expected one of {DATASET_FORMATS}")
    text = read_utf8(path, DatasetFormatError)
    if fmt == "jsonl":
        rows, labels = _parse_chunked(text, _jsonl_block, _parse_jsonl_lines)
    else:
        rows, labels = _parse_chunked(text, _csv_block, _parse_csv_lines)
    del text  # from_arrays copies the arrays; do not hold the text as well
    if len(rows) == 0:
        raise DatasetFormatError(f"no samples found in {path}")
    try:
        return ProbabilityDataset.from_arrays(rows, labels, renormalize=renormalize)
    except ValidationError as exc:
        # sample index == 0-based line index (parsers reject blank lines)
        raise DatasetFormatError(str(exc), line=exc.sample) from exc


def save_dataset(dataset: ProbabilityDataset, path, fmt: str) -> None:
    """Write a dataset in one of the loadable formats."""
    if fmt not in DATASET_FORMATS:
        raise ValidationError(f"unknown dataset format {fmt!r}, expected one of {DATASET_FORMATS}")
    path = Path(path)
    with path.open("w", newline="") as fh:
        if fmt == "jsonl":
            for probs, label in zip(dataset.probs, dataset.labels):
                fh.write(json.dumps({"probs": [float(p) for p in probs], "label": int(label)}))
                fh.write("\n")
        else:
            writer = csv.writer(fh)
            for probs, label in zip(dataset.probs, dataset.labels):
                writer.writerow([repr(float(p)) for p in probs] + [int(label)])


# ---------------------------------------------------------------------------
# Objective config and reweighting artifacts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObjectiveConfig:
    """Term weights and per-term enable flags."""

    beta: float = DEFAULT_BETA
    tau: float = DEFAULT_TAU
    mu: float = DEFAULT_MU
    use_z1: bool = True
    use_z2: bool = True
    use_z3: bool = True

    def __post_init__(self):
        if self.beta < 0 or self.tau < 0 or self.mu < 0:
            raise ValidationError("beta, tau, and mu must be nonnegative")
        if not all(math.isfinite(v) for v in (self.beta, self.tau, self.mu)):
            # NaN slips past "< 0", and either would end in a non-finite objective
            raise ValidationError("beta, tau, and mu must be finite")
        if not (self.use_z1 or self.use_z2 or self.use_z3):
            raise ValidationError("at least one objective term must be enabled")
        if self.use_z3 and self.mu == 0:
            # an unsmoothed PMI is undefined as soon as a move empties a count
            raise ValidationError("mu must be positive when the PMI term z3 is enabled")

    @classmethod
    def with_terms(cls, terms: str, beta: float = DEFAULT_BETA, tau: float = DEFAULT_TAU,
                   mu: float = DEFAULT_MU) -> "ObjectiveConfig":
        """Build a config from one of the named term combinations."""
        if terms not in TERM_COMBINATIONS:
            raise ValidationError(
                f"unknown term combination {terms!r}; expected one of "
                f"{', '.join(TERM_COMBINATIONS)}"
            )
        (z1, z2, z3), _ = TERM_COMBINATIONS[terms]
        return cls(beta=beta, tau=tau, mu=mu, use_z1=z1, use_z2=z2, use_z3=z3)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ObjectiveConfig":
        flags = {name: doc[name] for name in ("use_z1", "use_z2", "use_z3")}
        for name, value in flags.items():
            if not isinstance(value, bool):
                raise ValidationError(f"{name} must be a JSON boolean, got {value!r}")
        weights = {name: _json_number(doc[name], name) for name in ("beta", "tau", "mu")}
        return cls(**weights, **flags)


@dataclass(frozen=True, eq=False)
class ReweightArtifact:
    """A learned per-class reweighting: scale, selection, and run metadata.

    ``provenance`` ties the artifact to its run: a dict with keys ``seed``,
    ``schedule``, ``dataset_fingerprint`` and ``created_at``, in that order.
    ``coefficients[n]`` always equals ``selection.indices[n] / scale.k_points``
    and survives a save/load round trip bit-for-bit.
    """

    scale: WeightScale
    selection: WeightSelection
    objective_config: ObjectiveConfig
    final_objective: float
    provenance: dict
    coefficients: np.ndarray = field(init=False)

    def __post_init__(self):
        self.selection.validate(len(self.selection.indices), self.scale)
        object.__setattr__(
            self, "coefficients", readonly_array(self.selection.coefficients(self.scale))
        )

    @property
    def num_classes(self) -> int:
        return len(self.selection.indices)


def save_artifact(artifact: ReweightArtifact, path) -> None:
    """Persist an artifact as a self-describing versioned JSON document."""
    doc = {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "kind": "reweight_artifact",
        "k_points": artifact.scale.k_points,
        "indices": list(artifact.selection.indices),
        "coefficients": [float(c) for c in artifact.coefficients],
        "objective_config": artifact.objective_config.to_dict(),
        "final_objective": float(artifact.final_objective),
        "provenance": artifact.provenance,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_artifact(path) -> ReweightArtifact:
    """Load an artifact, rejecting version or schema violations outright."""
    doc = read_json(path, "artifact file", ArtifactError)
    if not isinstance(doc, dict) or doc.get("kind") != "reweight_artifact":
        raise ArtifactError("not a reweight-artifact document")
    version = doc.get("schema_version")
    if version != ARTIFACT_SCHEMA_VERSION:
        raise ArtifactError(
            f"unsupported artifact schema version {version!r}, "
            f"expected {ARTIFACT_SCHEMA_VERSION}"
        )
    try:
        scale = WeightScale(_json_integer(doc["k_points"], "k_points"))
        selection = WeightSelection(tuple(_json_integer(i, "indices") for i in doc["indices"]))
        stored = [_json_number(c, "coefficients") for c in doc["coefficients"]]
        config = ObjectiveConfig.from_dict(doc["objective_config"])
        final_objective = _json_number(doc["final_objective"], "final_objective")
        prov = doc["provenance"]
        fingerprint = prov["dataset_fingerprint"]
        # the checked fields in save_artifact's key order; unknown keys are dropped
        provenance = {"seed": _json_integer(prov["seed"], "seed"),
                      "schedule": dict(prov["schedule"]),
                      "dataset_fingerprint": fingerprint, "created_at": prov.get("created_at")}
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ArtifactError(f"artifact schema violation: {exc!r}") from exc
    if not isinstance(fingerprint, str) or not fingerprint:
        raise ArtifactError("artifact schema violation: dataset fingerprint absent")
    artifact = ReweightArtifact(
        scale=scale,
        selection=selection,
        objective_config=config,
        final_objective=final_objective,
        provenance=provenance,
    )
    if len(stored) != artifact.num_classes or any(
        s != c for s, c in zip(stored, artifact.coefficients)
    ):
        raise ArtifactError(
            "artifact schema violation: stored coefficients do not match the "
            "scale values selected by the stored indices"
        )
    if not math.isfinite(final_objective):
        raise ArtifactError("artifact schema violation: non-finite final objective")
    return artifact
