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
from typing import Iterator, Sequence

import numpy as np

from .core import Event, Posteriorgram, canonicalize_events
from .postprocess import ClassSebbParams, CsebbParams

POSTERIOR_MAGIC = b"SEDP"
FEATURE_MAGIC = b"SEDF"
POSTERIOR_VERSION = 1
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


def read_events_tsv(
    path: Path | str, class_names: Sequence[str] | None = None
) -> tuple[list[Event], list[str]]:
    """Read a 4- or 5-column event TSV.

    Returns the events plus the class-name list used for indices; when
    class_names is None, names are collected from the file and sorted.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0].rstrip("\n").split("\t")
    if header[:4] != EVENTS_HEADER.split("\t"):
        raise ValueError(f"{path}: unexpected header {header!r}")
    has_confidence = len(header) == 5 and header[4] == "confidence"
    raw: list[tuple[str, float, float, str, float | None]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        expected = 5 if has_confidence else 4
        if len(parts) != expected:
            raise ValueError(f"{path}:{lineno}: expected {expected} columns, got {len(parts)}")
        conf = None
        if has_confidence and parts[4] != "":
            conf = float(parts[4])
        raw.append((parts[0], float(parts[1]), float(parts[2]), parts[3], conf))
    if class_names is None:
        class_names = sorted({label for _, _, _, label, _ in raw})
    index = {name: i for i, name in enumerate(class_names)}
    events = []
    for clip_id, onset, offset, label, conf in raw:
        if label not in index:
            raise ValueError(f"{path}: unknown class label {label!r}")
        events.append(Event(clip_id, index[label], onset, offset, conf))
    return canonicalize_events(events), list(class_names)


def write_durations_tsv(path: Path | str, durations: dict[str, float]) -> None:
    with atomic_write(path) as fh:
        fh.write(DURATIONS_HEADER + "\n")
        for clip_id in sorted(durations):
            fh.write(f"{clip_id}\t{_format_seconds(durations[clip_id])}\n")


def read_durations_tsv(path: Path | str) -> dict[str, float]:
    """Clip durations in seconds; each clip once, each duration finite and >= 0."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].split("\t") != DURATIONS_HEADER.split("\t"):
        raise ValueError(f"{path}: expected header {DURATIONS_HEADER!r}")
    out: dict[str, float] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 2 columns")
        clip_id, text = parts
        if clip_id in first_line:
            raise ValueError(f"{path}:{lineno}: clip {clip_id!r} already listed on line {first_line[clip_id]}")
        try:
            duration = float(text)
        except ValueError:
            duration = math.nan
        if not math.isfinite(duration) or duration < 0:
            raise ValueError(f"{path}:{lineno}: duration must be a finite number >= 0, got {text!r}")
        first_line[clip_id] = lineno
        out[clip_id] = duration
    return out


def write_posteriorgram(path: Path | str, post: Posteriorgram, class_names: Sequence[str]) -> None:
    """Binary posteriorgram: SEDP magic, version, T, C, frame period in
    microseconds, class-name table, then row-major little-endian float32."""
    if len(class_names) != post.num_classes:
        raise ValueError("class name count must match the posteriorgram")
    header = POSTERIOR_MAGIC + struct.pack(
        "<HIII",
        POSTERIOR_VERSION,
        post.num_frames,
        post.num_classes,
        int(round(post.frame_period * 1e6)),
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


def _float32_payload(path: Path | str, data: bytes, offset: int, count: int) -> np.ndarray:
    """The ``count`` float32 values at ``offset``, which must end the file."""
    end = offset + 4 * count
    _check_length(path, data, end, "data")
    if len(data) > end:
        raise ValueError(f"{path}: {len(data) - end} trailing bytes after the data")
    return np.frombuffer(data, dtype="<f4", count=count, offset=offset)


def read_posteriorgram(path: Path | str, clip_id: str | None = None) -> tuple[Posteriorgram, list[str]]:
    data = Path(path).read_bytes()
    if data[:4] != POSTERIOR_MAGIC:
        raise ValueError(f"{path}: bad magic {data[:4]!r}")
    offset = 4 + struct.calcsize("<HIII")
    _check_length(path, data, offset, "header")
    version, t, c, period_us = struct.unpack_from("<HIII", data, 4)
    if version != POSTERIOR_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
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
    scores = _float32_payload(path, data, offset, t * c).reshape(t, c)
    if clip_id is None:
        clip_id = Path(path).stem
    try:
        post = Posteriorgram(scores=scores.astype(np.float64), frame_period=period_us / 1e6, clip_id=clip_id)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return post, names


def write_features(path: Path | str, values: np.ndarray, frame_period: float) -> None:
    """Feature binary: 16-byte header (SEDF, T, M, frame period in us) plus
    row-major little-endian float32 data."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"expected a [T, M] matrix, got shape {values.shape}")
    header = FEATURE_MAGIC + struct.pack(
        "<III", values.shape[0], values.shape[1], int(round(frame_period * 1e6))
    )
    with atomic_write(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(values, dtype="<f4").tobytes())


def read_features(path: Path | str) -> tuple[np.ndarray, float]:
    data = Path(path).read_bytes()
    if data[:4] != FEATURE_MAGIC:
        raise ValueError(f"{path}: bad magic {data[:4]!r}")
    _check_length(path, data, 16, "header")
    t, m, period_us = struct.unpack_from("<III", data, 4)
    values = _float32_payload(path, data, 16, t * m).reshape(t, m)
    return values.astype(np.float64), period_us / 1e6


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


def read_csebb_params(path: Path | str) -> CsebbParams:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].split("\t") != ["class", *_SEBB_FIELDS]:
        raise ValueError(f"{path}: unexpected parameter file header")
    default = ClassSebbParams()
    per_class: dict[str, ClassSebbParams] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 6:
            raise ValueError(f"{path}:{lineno}: expected 6 columns")
        p = ClassSebbParams(
            window=int(parts[1]),
            half_width=int(parts[2]),
            rel_merge=float(parts[3]),
            abs_merge=float(parts[4]),
            min_gap=float(parts[5]),
        )
        if parts[0] == "*":
            default = p
        else:
            per_class[parts[0]] = p
    return CsebbParams(default=default, per_class=per_class)


def write_score_report(path: Path | str, entries: dict[str, float]) -> None:
    """Machine-readable report: key<TAB>value rows, keys sorted."""
    with atomic_write(path) as fh:
        fh.write("key\tvalue\n")
        for key in sorted(entries):
            fh.write(f"{key}\t{entries[key]:.9f}\n")


def read_score_report(path: Path | str) -> dict[str, float]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].split("\t") != ["key", "value"]:
        raise ValueError(f"{path}: expected a key/value report")
    out: dict[str, float] = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        key, value = line.split("\t")
        out[key] = float(value)
    return out


def write_summary(path: Path | str, title: str, entries: dict[str, float]) -> None:
    """Human-readable companion to the score report."""
    width = max((len(k) for k in entries), default=0)
    with atomic_write(path) as fh:
        fh.write(title + "\n" + "=" * len(title) + "\n")
        for key in sorted(entries):
            fh.write(f"{key.ljust(width)}  {entries[key]:.4f}\n")
