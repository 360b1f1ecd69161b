"""On-disk formats: event TSVs, durations, posteriorgram and feature
binaries, tuned-parameter files, and score reports.

All text is UTF-8 with LF line endings and tab separators (the DESED /
MAESTRO annotation convention); binaries are little-endian.  Writers go
through an atomic temp-file + rename so partially written artifacts never
appear, even under parallel tuning runs.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import Event, Posteriorgram, _event_problems, canonicalize_events
from .postprocess import ClassSebbParams, CsebbParams

POSTERIOR_MAGIC = b"SEDP"
FEATURE_MAGIC = b"SEDF"
POSTERIOR_VERSION = 1
_POSTERIOR_HEADER = struct.Struct("<4sHIII")  # magic, version, T, C, period in us
_FEATURE_HEADER = struct.Struct("<4sIII")  # magic, T, M, period in us
EVENTS_HEADER = "filename\tonset\toffset\tevent_label"
SOFT_HEADER = "filename\tonset\toffset\tevent_label\tconfidence"
DURATIONS_HEADER = "filename\tduration"


@contextmanager
def atomic_write(path: Path | str, mode: str = "w") -> Iterator:
    """Write to a temp file in the target directory, then rename into place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
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


def _format_seconds(value: float) -> str:
    """At least three decimals; more only when needed to round-trip."""
    text = f"{value:.3f}"
    return text if float(text) == round(value, 9) else f"{value:.6f}"


def write_events_tsv(path: Path | str, events: Sequence[Event], class_names: Sequence[str]) -> None:
    """Four-column ground-truth/detection TSV (no confidence)."""
    rows = canonicalize_events(list(events))
    with atomic_write(path) as fh:
        fh.write(EVENTS_HEADER + "\n")
        for ev in rows:
            fh.write(
                f"{ev.clip_id}\t{_format_seconds(ev.onset)}\t{_format_seconds(ev.offset)}"
                f"\t{class_names[ev.class_idx]}\n"
            )


def write_soft_events_tsv(path: Path | str, events: Sequence[Event], class_names: Sequence[str]) -> None:
    """Five-column TSV with a confidence column; absent confidence stays empty."""
    rows = canonicalize_events(list(events))
    with atomic_write(path) as fh:
        fh.write(SOFT_HEADER + "\n")
        for ev in rows:
            conf = "" if ev.confidence is None else f"{ev.confidence:.6f}"
            fh.write(
                f"{ev.clip_id}\t{_format_seconds(ev.onset)}\t{_format_seconds(ev.offset)}"
                f"\t{class_names[ev.class_idx]}\t{conf}\n"
            )


def _table(path: Path | str, headers: Sequence[str], row: Callable[[list[str], int], object]) -> list:
    """``row(fields, lineno)`` of every line of a tab-separated file.

    The first line must be one of ``headers``; blank lines are skipped and
    every other line must have as many fields as the header.  A ValueError
    raised for a line is raised again with ``path:line:`` in front.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
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
) -> tuple[list[Event], list[str]]:
    """Read a 4- or 5-column event TSV.

    Returns the events plus the class-name list used for indices; when
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
    if index is None:
        class_names = sorted({label for _, label, _, _, _ in rows})
        index = {name: i for i, name in enumerate(class_names)}
    events = [Event(clip_id, index[label], onset, offset, conf) for clip_id, label, onset, offset, conf in rows]
    return canonicalize_events(events), list(class_names)


def write_durations_tsv(path: Path | str, durations: dict[str, float]) -> None:
    with atomic_write(path) as fh:
        fh.write(DURATIONS_HEADER + "\n")
        for clip_id in sorted(durations):
            fh.write(f"{clip_id}\t{_format_seconds(durations[clip_id])}\n")


def _keyed_table(path: Path | str, header: str, what: str, value: Callable[[list[str]], object]) -> dict:
    """Rows keyed by their first cell, each key once: ``{key: value(rest)}``."""
    first_line: dict[str, int] = {}

    def row(fields: list[str], lineno: int) -> tuple[str, object]:
        key = fields[0]
        if key in first_line:
            raise ValueError(f"{what} {key!r} already listed on line {first_line[key]}")
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
        fh.write(np.ascontiguousarray(post.scores, dtype="<f4").tobytes())


def _check_length(path: Path | str, data: bytes, end: int, part: str) -> None:
    """``data`` must hold at least ``end`` bytes, the end of ``part``."""
    if len(data) < end:
        raise ValueError(f"{path}: truncated {part}: {len(data)} bytes, need at least {end}")


def _read_header(path: Path | str, magic: bytes, header: struct.Struct) -> tuple[bytes, tuple]:
    """The bytes of a binary file and its header fields after the magic; the
    last field, the frame period, must be positive and is returned in seconds."""
    data = Path(path).read_bytes()
    if data[:4] != magic:
        raise ValueError(f"{path}: bad magic {data[:4]!r}")
    _check_length(path, data, header.size, "header")
    *fields, period_us = header.unpack_from(data)[1:]
    if period_us == 0:
        raise ValueError(f"{path}: frame period must be positive, got 0 us")
    return data, (*fields, period_us / 1e6)


def _float32_payload(path: Path | str, data: bytes, offset: int, count: int) -> np.ndarray:
    """The ``count`` float32 values at ``offset``, which must end the file."""
    end = offset + 4 * count
    _check_length(path, data, end, "data")
    if len(data) > end:
        raise ValueError(f"{path}: {len(data) - end} trailing bytes after the data")
    return np.frombuffer(data, dtype="<f4", count=count, offset=offset)


def read_posteriorgram(path: Path | str, clip_id: str | None = None) -> tuple[Posteriorgram, list[str]]:
    data, (version, t, c, period) = _read_header(path, POSTERIOR_MAGIC, _POSTERIOR_HEADER)
    if version != POSTERIOR_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    offset = _POSTERIOR_HEADER.size
    names = []
    for _ in range(c):
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
    scores = _float32_payload(path, data, offset, t * c).reshape(t, c)
    if clip_id is None:
        clip_id = Path(path).stem
    try:
        post = Posteriorgram(scores=scores.astype(np.float64), frame_period=period, clip_id=clip_id)
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
        fh.write(np.ascontiguousarray(values, dtype="<f4").tobytes())


def read_features(path: Path | str) -> tuple[np.ndarray, float]:
    data, (t, m, period) = _read_header(path, FEATURE_MAGIC, _FEATURE_HEADER)
    values = _float32_payload(path, data, _FEATURE_HEADER.size, t * m).reshape(t, m)
    return values.astype(np.float64), period


_SEBB_FIELDS = ("window", "half_width", "rel_merge", "abs_merge", "min_gap")


def write_csebb_params(path: Path | str, params: CsebbParams) -> None:
    """Tuned box-detector parameters, one row per class name; '*' = default."""
    with atomic_write(path) as fh:
        fh.write("class\t" + "\t".join(_SEBB_FIELDS) + "\n")
        rows = [("*", params.default)] + sorted(params.per_class.items())
        for name, p in rows:
            fh.write(
                f"{name}\t{p.window}\t{p.half_width}\t{p.rel_merge:g}\t{p.abs_merge:g}\t{p.min_gap:g}\n"
            )


def _sebb_params(fields: list[str]) -> ClassSebbParams:
    """Detector parameters from the five cells of a ``_SEBB_FIELDS`` row."""
    window, half_width, *merges = fields
    return ClassSebbParams(int(window), int(half_width), *map(_finite, merges))


def read_csebb_params(path: Path | str) -> CsebbParams:
    header = "class\t" + "\t".join(_SEBB_FIELDS)
    per_class = _keyed_table(path, header, "class", _sebb_params)
    return CsebbParams(default=per_class.pop("*", ClassSebbParams()), per_class=per_class)


def read_csebb_grid(path: Path | str) -> list[CsebbParams]:
    """Tuning candidates, one ``_SEBB_FIELDS`` row each, applied to every class."""
    grid = _table(path, ["\t".join(_SEBB_FIELDS)], lambda fields, _: CsebbParams(default=_sebb_params(fields)))
    if not grid:
        raise ValueError(f"{path}: empty grid")
    return grid


def write_score_report(path: Path | str, entries: dict[str, float]) -> None:
    """Machine-readable report: key<TAB>value rows, keys sorted."""
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
