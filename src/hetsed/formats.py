"""On-disk formats: event TSVs, durations, posteriorgram and feature
binaries, tuned-parameter files, and score reports.

All text is UTF-8 with LF line endings and tab separators (the DESED /
MAESTRO annotation convention); binaries are little-endian.  Writers go
through an atomic temp-file + rename so partially written artifacts never
appear, even under parallel tuning runs; a written file gets the mode a
plain ``open`` would give it.

The event TSV writers take a ``core.EventTable``, check it in one
vectorised pass with the errors of ``canonicalize_events``, order the rows
with one stable sort and write them in blocks of ``_WRITE_ROWS``, formatting
each distinct time once per block, so the text held grows with a block, not
with the table.  The event TSV reader checks each row as it parses it and
returns the rows as a table in canonical order.

A text writer refuses, before it writes anything, a clip id, class name or
key that holds a tab or a character at which ``str.splitlines`` ends a
line, since its reader could not split that field back out.  It checks each
distinct string once, so the check grows with the clips, not the rows, and
every clip id, class name and key that it writes reads back as it was.
For the same reason an event writer refuses a class name listed twice, and
the score report writer a value that is not finite.  A merge field of the
tuned parameters is written as its ``:g`` text only when that text reads
back to the same float.

Every reader takes one file path as its first argument and opens that path
as given.  Both binary readers read a file into one writable buffer and
return its float32 payload as a view of that buffer, not as a copy, so a
posteriorgram holds its file's bytes and no more.  A directory is read one
file at a time (the command line's posteriorgram stream), and a consumer
keeps a file's buffer only while the clip is in its current pass.  A
posteriorgram reader remembers the last class table it decoded, so the
files of one directory, which share a table, each compare its bytes instead
of decoding it again.
"""

from __future__ import annotations

import errno
import math
import os
import re
import stat
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, Sequence

import numpy as np

from .core import EventTable, Posteriorgram, _event_problems, _table_of
from .postprocess import ClassSebbParams, CsebbParams

POSTERIOR_MAGIC = b"SEDP"
FEATURE_MAGIC = b"SEDF"
POSTERIOR_VERSION = 1
_POSTERIOR_HEADER = struct.Struct("<4sHIII")  # magic, version, T, C, period in us
_FEATURE_HEADER = struct.Struct("<4sIII")  # magic, T, M, period in us
EVENTS_HEADER = "filename\tonset\toffset\tevent_label"
SOFT_HEADER = "filename\tonset\toffset\tevent_label\tconfidence"
DURATIONS_HEADER = "filename\tduration"
# a tab, or a character at which str.splitlines ends a line
_UNSPLITTABLE = re.compile("[\t\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029]")


@contextmanager
def atomic_write(path: Path | str, mode: str = "w") -> Iterator:
    """Write to a new temp file in the target directory, then rename into
    place.  The temp file's mode is 0o666 less the umask, as with ``open``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}"
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        kwargs = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
        with os.fdopen(fd, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _check_fields(path: Path | str, what: str, values: Iterable[str]) -> None:
    """Each value must read back as one field of one line of a text file."""
    for value in values:
        if _UNSPLITTABLE.search(value):
            raise ValueError(f"{path}: {what} {value!r} holds a tab or a line break")


def _format_seconds(value: float) -> str:
    """At least three decimals; more only when needed to round-trip."""
    text = f"{value:.3f}"
    return text if float(text) == round(value, 9) else f"{value:.6f}"


def _formatted(values: np.ndarray, fmt: Callable[[float], str]) -> list[str]:
    """``fmt`` of each value, called once per distinct value; values are
    told apart by their bits, so 0.0 and -0.0 keep their own texts."""
    bits, inverse = np.unique(np.ascontiguousarray(values, dtype=np.float64).view(np.int64), return_inverse=True)
    texts = np.array([fmt(value) for value in bits.view(np.float64).tolist()], dtype=object)
    return texts[inverse].tolist()


# Rows of an event TSV formatted and written at a time, so the text held
# while writing stays the same size whatever the number of events.
_WRITE_ROWS = 1 << 12


def _write_events(path: Path | str, header: str, events: EventTable, class_names: Sequence[str],
                  soft: bool) -> None:
    """An event TSV: the header, then one row per event in canonical order,
    checked as ``canonicalize_events`` checks them; each class name once.
    The rows are written in blocks of ``_WRITE_ROWS``."""
    rows = events.canonical()
    _check_fields(path, "clip id", rows.clip_ids)
    _check_fields(path, "class name", class_names)
    if len(set(class_names)) != len(class_names):
        raise ValueError(f"{path}: class names repeat a name: {list(class_names)}")
    with atomic_write(path) as fh:
        fh.write(header + "\n")
        for lo in range(0, len(rows), _WRITE_ROWS):
            block = slice(lo, lo + _WRITE_ROWS)
            n = rows.clip[block].size
            times = _formatted(np.concatenate([rows.onset[block], rows.offset[block]]), _format_seconds)
            columns = [[rows.clip_ids[i] for i in rows.clip[block].tolist()], times[:n], times[n:],
                       [class_names[c] for c in rows.class_idx[block].tolist()]]
            if soft:  # an absent confidence stays empty
                confidences = _formatted(rows.confidence[block], "{:.6f}".format)
                columns.append([text if has else ""
                                for text, has in zip(confidences, rows.has_confidence[block].tolist())])
            fh.write("\n".join(map("\t".join, zip(*columns))) + "\n")


def write_events_tsv(path: Path | str, events: EventTable, class_names: Sequence[str]) -> None:
    """Four-column ground-truth/detection TSV (no confidence); each distinct
    time is formatted once per block of rows."""
    _write_events(path, EVENTS_HEADER, events, class_names, soft=False)


def write_soft_events_tsv(path: Path | str, events: EventTable, class_names: Sequence[str]) -> None:
    """Five-column TSV with a confidence column; absent confidence stays empty."""
    _write_events(path, SOFT_HEADER, events, class_names, soft=True)


def _read_text(path: Path | str) -> str:
    """The text of a UTF-8 file.  Bytes that are not UTF-8 raise a
    ValueError naming the file and the line that holds them, numbered as
    ``str.splitlines`` numbers the lines of the text."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; "x" stands for the bad line
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ValueError(f"{path}:{line}: not valid UTF-8") from None


def _table(path: Path | str, headers: Sequence[str], row: Callable[[list[str], int], object]) -> list:
    """``row(fields, lineno)`` of every line of a tab-separated file.

    The first line must be one of ``headers``; blank lines are skipped and
    every other line must have as many fields as the header.  A ValueError
    raised for a line is raised again with ``path:line:`` in front.
    """
    lines = _read_text(path).splitlines()
    if not lines or lines[0] not in headers:
        raise ValueError(f"{path}:1: expected header {' or '.join(map(repr, headers))}, got {lines[:1]}")
    width = lines[0].count("\t") + 1
    out = []
    try:
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != width:
                raise ValueError(f"expected {width} columns, got {len(fields)}")
            out.append(row(fields, lineno))
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def read_events_tsv(
    path: Path | str, class_names: Sequence[str] | None = None
) -> tuple[EventTable, list[str]]:
    """Read a 4- or 5-column event TSV as an event table in canonical order.

    Returns the table plus the class-name list used for indices; when
    class_names is None, names are collected from the file and sorted.
    """
    index = None if class_names is None else {name: i for i, name in enumerate(class_names)}

    def row(fields: list[str], lineno: int) -> tuple[str, str, float, float, float | None]:
        onset, offset = float(fields[1]), float(fields[2])
        conf = float(fields[4]) if len(fields) == 5 and fields[4] != "" else None
        problems = _event_problems(onset, offset, conf)
        if problems:
            raise ValueError("; ".join(problems))
        if index is not None and fields[3] not in index:
            raise ValueError(f"unknown class label {fields[3]!r}")
        return fields[0], fields[3], onset, offset, conf

    rows = _table(path, (EVENTS_HEADER, SOFT_HEADER), row)
    clip_ids, labels, onsets, offsets, confidences = zip(*rows) if rows else [()] * 5
    if index is None:
        class_names = sorted(set(labels))
        index = {name: i for i, name in enumerate(class_names)}
    table = _table_of(clip_ids, [index[label] for label in labels], onsets, offsets, confidences)
    return table.canonical(), list(class_names)


def write_durations_tsv(path: Path | str, durations: dict[str, float]) -> None:
    _check_fields(path, "clip id", durations)
    with atomic_write(path) as fh:
        fh.write(DURATIONS_HEADER + "\n")
        for clip_id in sorted(durations):
            fh.write(f"{clip_id}\t{_format_seconds(durations[clip_id])}\n")


def _keyed_table(path: Path | str, header: str, what: str, value: Callable[[list[str]], object],
                 classes: Collection[str] | None = None) -> dict:
    """Rows keyed by their first cell, each key once and, given ``classes``,
    one of them: ``{key: value(rest)}``."""
    first_line: dict[str, int] = {}

    def row(fields: list[str], lineno: int) -> tuple[str, object]:
        key = fields[0]
        if key in first_line:
            raise ValueError(f"{what} {key!r} already listed on line {first_line[key]}")
        if classes is not None and key not in classes:
            raise ValueError(f"no class {key!r} in the posteriorgrams' class table")
        first_line[key] = lineno
        return key, value(fields[1:])

    return dict(_table(path, [header], row))


def read_durations_tsv(path: Path | str) -> dict[str, float]:
    """Clip durations in seconds; each clip once, each duration finite and >= 0."""

    def duration(fields: list[str]) -> float:
        try:
            value = float(fields[0])
        except ValueError:
            value = math.nan
        if not math.isfinite(value) or value < 0:
            raise ValueError(f"duration must be a finite number >= 0, got {fields[0]!r}")
        return value

    return _keyed_table(path, DURATIONS_HEADER, "clip", duration)


def _period_us(path: Path | str, period: float) -> int:
    """The frame period in whole microseconds, as both binary headers store it."""
    us = round(period * 1e6) if math.isfinite(period) else 0
    if not 0 < us < 2**32 or us / 1e6 != period:
        raise ValueError(f"{path}: frame period {period!r} s is not a whole number of microseconds in (0, 2**32)")
    return us


def write_posteriorgram(path: Path | str, post: Posteriorgram, class_names: Sequence[str]) -> None:
    """Binary posteriorgram: SEDP magic, version, T, C, frame period in
    microseconds, class-name table, then row-major little-endian float32."""
    if len(class_names) != post.num_classes:
        raise ValueError("class name count must match the posteriorgram")
    header = _POSTERIOR_HEADER.pack(
        POSTERIOR_MAGIC, POSTERIOR_VERSION, post.num_frames, post.num_classes, _period_us(path, post.frame_period)
    )
    with atomic_write(path, "wb") as fh:
        fh.write(header)
        for name in class_names:
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
        fh.write(np.ascontiguousarray(post.scores, dtype="<f4").data)  # the buffer itself, not a bytes copy


def _check_length(path: Path | str, data: bytearray, end: int, part: str) -> None:
    """``data`` must hold at least ``end`` bytes, the end of ``part``."""
    if len(data) < end:
        raise ValueError(f"{path}: truncated {part}: {len(data)} bytes, need at least {end}")


def _read_header(path: Path | str, magic: bytes, header: struct.Struct) -> tuple[bytearray, tuple]:
    """The bytes of a binary file, in a writable buffer that its payload is
    then read from in place, and its header fields after the magic; the last
    field, the frame period, must be positive and is returned in seconds."""
    fd = os.open(path, os.O_RDONLY)
    try:
        status = os.fstat(fd)
        if stat.S_ISDIR(status.st_mode):  # refused as ``open`` refuses it
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
        # one byte over the size, so a whole file is read, and its end seen,
        # in one call
        data = bytearray(status.st_size + 1)
        del data[os.readv(fd, [data]) :]  # a file that shrank since its size was taken reads short
        if len(data) > status.st_size:  # and one that grew, or a pipe, reads on to its end
            while chunk := os.read(fd, 1 << 16):
                data += chunk
    finally:
        os.close(fd)
    if data[:4] != magic:
        raise ValueError(f"{path}: bad magic {data[:4]!r}")
    _check_length(path, data, header.size, "header")
    *fields, period_us = header.unpack_from(data)[1:]
    if period_us == 0:
        raise ValueError(f"{path}: frame period must be positive, got 0 us")
    return data, (*fields, period_us / 1e6)


def _float32_payload(path: Path | str, data: bytearray, offset: int, count: int) -> np.ndarray:
    """The ``count`` little-endian float32 values at ``offset``, which must end
    the file, as a writable native float32 array: a view of ``data`` itself
    on a little-endian host, a converted copy on any other."""
    end = offset + 4 * count
    _check_length(path, data, end, "data")
    if len(data) > end:
        raise ValueError(f"{path}: {len(data) - end} trailing bytes after the data")
    values = np.frombuffer(data, dtype="<f4", count=count, offset=offset)
    return values if values.dtype.isnative else values.astype(np.float32)


# The class table last decoded, as (its bytes, its names): the files of one
# directory nearly always share their table, so each later file only compares
# bytes.  It decides only whether a decode runs, never what a read returns;
# one tuple, replaced whole, so concurrent readers see a matching pair.
_last_table: tuple[bytes, tuple[str, ...]] = (b"", ())


def _class_table(path: Path | str, data: bytearray, offset: int, count: int) -> tuple[list[str], int]:
    """The ``count`` length-prefixed UTF-8 names at ``offset``, and the offset
    after them."""
    global _last_table
    table, last_names = _last_table
    # A table is self-delimiting, so a file whose bytes at the offset start
    # with a valid table of ``count`` names holds exactly that table.
    if len(last_names) == count and data.startswith(table, offset):
        return list(last_names), offset + len(table)
    start, names = offset, []
    for _ in range(count):
        _check_length(path, data, offset + 2, "class table")
        (length,) = struct.unpack_from("<H", data, offset)
        offset += 2
        _check_length(path, data, offset + length, "class table")
        try:
            names.append(data[offset : offset + length].decode("utf-8"))
        except UnicodeDecodeError:
            raise ValueError(f"{path}: class name {len(names)} is not UTF-8") from None
        offset += length
    if len(set(names)) != len(names):
        raise ValueError(f"{path}: class table repeats a name: {names}")
    _last_table = (bytes(data[start:offset]), tuple(names))
    return names, offset


def read_posteriorgram(path: Path | str, clip_id: str | None = None) -> tuple[Posteriorgram, list[str]]:
    """One ``.sedp`` file as a posteriorgram and its class names.  The clip id
    defaults to the file name without its suffix, as ``Path(path).stem``.

    The scores are the stored float32, writable and in the buffer the file
    was read into (see ``_float32_payload``): no float64 copy is made.
    """
    data, (version, t, c, period) = _read_header(path, POSTERIOR_MAGIC, _POSTERIOR_HEADER)
    if version != POSTERIOR_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    names, offset = _class_table(path, data, _POSTERIOR_HEADER.size, c)
    scores = _float32_payload(path, data, offset, t * c).reshape(t, c)
    if clip_id is None:
        name = os.path.basename(path)
        dot = name.rfind(".")  # as PurePath.stem: a dot that starts or ends the name begins no suffix
        clip_id = name[:dot] if 0 < dot < len(name) - 1 else name
    try:
        post = Posteriorgram(scores=scores, frame_period=period, clip_id=clip_id)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return post, names


def write_features(path: Path | str, values: np.ndarray, frame_period: float) -> None:
    """Feature binary: 16-byte header (SEDF, T, M, frame period in us) plus
    row-major little-endian float32 data."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"expected a [T, M] matrix, got shape {values.shape}")
    header = _FEATURE_HEADER.pack(FEATURE_MAGIC, values.shape[0], values.shape[1], _period_us(path, frame_period))
    with atomic_write(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(values, dtype="<f4").data)  # the buffer itself, not a bytes copy


def read_features(path: Path | str) -> tuple[np.ndarray, float]:
    """A ``write_features`` file as its [T, M] values and frame period in
    seconds.

    The values come back as the stored float32, writable and in the buffer
    the file was read into, as a posteriorgram's scores do: the
    training-side transforms keep that precision, and the FDY layers and
    losses upcast on entry.
    """
    data, (t, m, period) = _read_header(path, FEATURE_MAGIC, _FEATURE_HEADER)
    return _float32_payload(path, data, _FEATURE_HEADER.size, t * m).reshape(t, m), period


_SEBB_FIELDS = ("window", "half_width", "rel_merge", "abs_merge", "min_gap")


def _merge_text(value: float) -> str:
    """A merge field as its ``:g`` text when that reads back to the same
    float, else as the shortest text that does."""
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


def write_csebb_params(path: Path | str, params: CsebbParams) -> None:
    """Tuned box-detector parameters, one row per class name; '*' = default."""
    _check_fields(path, "class name", params.per_class)
    if "*" in params.per_class:
        raise ValueError(f"{path}: class name '*' would read back as the default row")
    with atomic_write(path) as fh:
        fh.write("class\t" + "\t".join(_SEBB_FIELDS) + "\n")
        rows = [("*", params.default)] + sorted(params.per_class.items())
        for name, p in rows:
            merges = "\t".join(map(_merge_text, (p.rel_merge, p.abs_merge, p.min_gap)))
            fh.write(f"{name}\t{p.window}\t{p.half_width}\t{merges}\n")


def _sebb_params(fields: list[str]) -> ClassSebbParams:
    """Detector parameters from the five cells of a ``_SEBB_FIELDS`` row."""
    window, half_width, *merges = fields
    return ClassSebbParams(int(window), int(half_width), *map(_finite, merges))


def read_csebb_params(path: Path | str, class_names: Sequence[str] | None = None) -> CsebbParams:
    """Per-class box-detector parameters, the row of class ``*`` the
    default; given ``class_names``, every other row must name one of them."""
    header = "class\t" + "\t".join(_SEBB_FIELDS)
    known = None if class_names is None else {"*", *class_names}
    per_class = _keyed_table(path, header, "class", _sebb_params, known)
    return CsebbParams(default=per_class.pop("*", ClassSebbParams()), per_class=per_class)


def read_csebb_grid(path: Path | str) -> list[CsebbParams]:
    """Tuning candidates, one ``_SEBB_FIELDS`` row each, applied to every class."""
    grid = _table(path, ["\t".join(_SEBB_FIELDS)], lambda fields, _: CsebbParams(default=_sebb_params(fields)))
    if not grid:
        raise ValueError(f"{path}: empty grid")
    return grid


def write_score_report(path: Path | str, entries: dict[str, float]) -> None:
    """Machine-readable report: key<TAB>value rows, keys sorted; every value
    finite, as ``read_score_report`` requires."""
    _check_fields(path, "key", entries)
    for key, value in entries.items():
        if not math.isfinite(value):
            raise ValueError(f"{path}: key {key!r} has the non-finite value {value!r}")
    with atomic_write(path) as fh:
        fh.write("key\tvalue\n")
        for key in sorted(entries):
            fh.write(f"{key}\t{entries[key]:.9f}\n")


def read_score_report(path: Path | str) -> dict[str, float]:
    return _keyed_table(path, "key\tvalue", "key", lambda fields: _finite(fields[0]))


def write_summary(path: Path | str, title: str, entries: dict[str, float]) -> None:
    """Human-readable companion to the score report."""
    width = max((len(k) for k in entries), default=0)
    with atomic_write(path) as fh:
        fh.write(title + "\n" + "=" * len(title) + "\n")
        for key in sorted(entries):
            fh.write(f"{key.ljust(width)}  {entries[key]:.4f}\n")
