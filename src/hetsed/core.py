"""Shared domain types for heterogeneous sound event detection.

Two dataset families feed one model: DESED-style 10-second domestic clips
with 10 hard-labeled classes, and MAESTRO-style long-form recordings with 11
soft-labeled classes.  The combined vocabulary keeps per-class origin tags and
a one-level cross-mapping from DESED super-classes to MAESTRO classes (e.g.
"speech" covers "people_talking" and "children_voices").  Losses and masks
downstream are driven by these tags.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np


class ClassOrigin(enum.Enum):
    DESED = "DESED"
    MAESTRO = "MAESTRO"


class Origin(enum.Enum):
    """Dataset a clip was drawn from."""

    DESED_STRONG = "DESED_strong"
    DESED_SYNTH = "DESED_synth"
    DESED_WEAK = "DESED_weak"
    DESED_UNLABELED = "DESED_unlabeled"
    MAESTRO = "MAESTRO"

    @property
    def family(self) -> ClassOrigin:
        return ClassOrigin.MAESTRO if self is Origin.MAESTRO else ClassOrigin.DESED


class MaskMode(enum.Enum):
    """How clip origin restricts the active classes.

    INDEPENDENT activates only classes of the clip's own dataset.  BASELINE
    additionally activates DESED super-classes for MAESTRO clips via the
    cross-mapping.
    """

    BASELINE = "baseline"
    INDEPENDENT = "independent"


@dataclass(frozen=True)
class ClassVocabulary:
    """Ordered class list with origin tags and DESED->MAESTRO cross-mapping."""

    classes: tuple[str, ...]
    origins: tuple[ClassOrigin, ...]
    cross_map: Mapping[str, frozenset[str]]

    def __post_init__(self) -> None:
        if len(self.classes) != len(self.origins):
            raise ValueError("classes and origins length mismatch")
        if len(set(self.classes)) != len(self.classes):
            raise ValueError("duplicate class names in vocabulary")

    def __len__(self) -> int:
        return len(self.classes)

    def index(self, name: str) -> int:
        try:
            return self.classes.index(name)
        except ValueError:
            raise KeyError(f"unknown class: {name!r}") from None

    def origin_of(self, name: str) -> ClassOrigin:
        return self.origins[self.index(name)]


def build_vocabulary(
    desed_classes: Sequence[str],
    maestro_classes: Sequence[str],
    cross_map: Iterable[tuple[str, str]] = (),
) -> ClassVocabulary:
    """Build the joint vocabulary: DESED classes first, then MAESTRO classes.

    Both groups are sorted alphabetically so indices are stable across runs.
    Cross-map pairs must go DESED -> MAESTRO; anything else is an error.
    """
    if not desed_classes or not maestro_classes:
        raise ValueError("class lists must be non-empty")
    combined = list(desed_classes) + list(maestro_classes)
    if len(set(combined)) != len(combined):
        dupes = sorted({c for c in combined if combined.count(c) > 1})
        raise ValueError(f"duplicate class names: {dupes}")

    desed = tuple(sorted(desed_classes))
    maestro = tuple(sorted(maestro_classes))
    desed_set, maestro_set = set(desed), set(maestro)

    mapping: dict[str, set[str]] = {}
    for src, dst in cross_map:
        if src not in desed_set:
            raise ValueError(
                f"cross-map source {src!r} is not a DESED class"
                + (" (mapping direction reversed?)" if src in maestro_set else "")
            )
        if dst not in maestro_set:
            raise ValueError(f"cross-map target {dst!r} is not a MAESTRO class")
        mapping.setdefault(src, set()).add(dst)

    return ClassVocabulary(
        classes=desed + maestro,
        origins=tuple([ClassOrigin.DESED] * len(desed) + [ClassOrigin.MAESTRO] * len(maestro)),
        cross_map={k: frozenset(v) for k, v in mapping.items()},
    )


def default_vocabulary() -> ClassVocabulary:
    """The shipped 21-class vocabulary (10 DESED + 11 MAESTRO).

    The data file may map super-classes onto names that are not among the
    evaluated MAESTRO classes (e.g. "dog_bark", "announcements"); those pairs
    are dropped here so the default vocabulary stays at 21 classes.
    """
    desed, maestro, pairs = _read_class_table()
    known = set(maestro)
    pairs = [(s, d) for s, d in pairs if d in known]
    return build_vocabulary(desed, maestro, pairs)


def _read_class_table() -> tuple[list[str], list[str], list[tuple[str, str]]]:
    text = resources.files("hetsed.data").joinpath("default_classes.tsv").read_text("utf-8")
    desed: list[str] = []
    maestro: list[str] = []
    pairs: list[tuple[str, str]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, origin, maps_to = (line.split("\t") + ["", ""])[:3]
        if origin == "DESED":
            desed.append(name)
        elif origin == "MAESTRO":
            maestro.append(name)
        else:
            raise ValueError(f"bad origin {origin!r} in class table")
        for target in filter(None, maps_to.split(",")):
            pairs.append((name, target))
    return desed, maestro, pairs


@dataclass(frozen=True)
class ClipMetadata:
    clip_id: str
    origin: Origin
    duration: float

    def __post_init__(self) -> None:
        if not (self.duration > 0) or not math.isfinite(self.duration):
            raise ValueError(f"duration must be positive and finite, got {self.duration}")


def class_mask(meta: ClipMetadata, vocab: ClassVocabulary, mode: MaskMode) -> np.ndarray:
    """Boolean vector of classes whose loss is active for this clip.

    Independent mode: exactly the classes of the clip's dataset family.
    Baseline mode: for MAESTRO clips, additionally the DESED super-classes
    that cross-map onto some MAESTRO class.
    """
    family = meta.origin.family
    mask = np.array([o is family for o in vocab.origins], dtype=bool)
    if mode is MaskMode.BASELINE and family is ClassOrigin.MAESTRO:
        for name in vocab.cross_map:
            mask[vocab.index(name)] = True
    return mask


@dataclass(frozen=True)
class Event:
    """One detected or annotated sound event.

    The row a caller writes by hand, for ``EventTable.from_events``.
    ``confidence`` is optional: absent (None) is not the same as 0.0, and the
    TSV writers keep the distinction (empty field).  A sound event bounding
    box is an event whose confidence is always set.
    """

    clip_id: str
    class_idx: int
    onset: float
    offset: float
    confidence: Optional[float] = None


def frame_spans(onset, offset, period: float, n) -> tuple[np.ndarray, np.ndarray]:
    """Half-open ranges [first, stop) of the frames k in [0, n) whose span
    [k*period, (k+1)*period) meets [onset, offset), as int64 arrays; ``n``
    is one frame count or one per row.

    Both edges carry a 1e-9 frame tolerance, so an edge on a frame boundary
    does not reach into the neighbouring frame.  An event that starts inside
    the grid gets at least one frame; one that starts at or after n*period
    gets none (first == stop == n).  A NaN edge is refused.
    """
    # an edge far past the grid divides to inf, which the clamp takes to n
    with np.errstate(over="ignore"):
        first = np.minimum(np.maximum(np.floor(np.divide(onset, period) + 1e-9), 0), n)
        stop = np.minimum(np.maximum(np.ceil(np.divide(offset, period) - 1e-9), first + 1), n)
    if np.isnan(stop).any():  # a NaN onset carries through first into stop
        raise ValueError("an event edge is NaN")
    return first.astype(np.int64), stop.astype(np.int64)


def frame_time(k, period: float):
    """Time in seconds of frame boundary ``k`` (an int or an int array) on a
    grid of ``period`` seconds.

    For a period that is a whole number of microseconds, as both binary
    formats store it, the time is ``(k * period_us) / 1e6``: the integer
    product is exact below 2**53 and IEEE division rounds correctly, so the
    time is the double nearest the exact decimal, which the TSV writer
    stores and its reader returns unchanged.  Any other period falls back
    to ``k * period``.
    """
    us = round(period * 1e6)
    return k * us / 1e6 if us / 1e6 == period else k * period


def float_array(values) -> np.ndarray:
    """``values`` as an array of the training-side transforms' dtype: a
    native float32 or float64 array is returned as it is, any other input
    (ints, bools, float16, lists) as float64."""
    values = np.asarray(values)
    if values.dtype == np.float32 or values.dtype == np.float64:
        return values
    return values.astype(np.float64)


def _event_problems(onset: float, offset: float, confidence: float | None, class_idx: int = 0) -> list[str]:
    """What is wrong with an event of these fields, as messages; empty when valid."""
    problems = []
    if not (math.isfinite(onset) and math.isfinite(offset)):
        problems.append(f"non-finite time: onset {onset}, offset {offset}")
    elif offset <= onset:
        problems.append(f"offset {offset} <= onset {onset}")
    if onset < 0:
        problems.append(f"negative onset {onset}")
    if class_idx < 0:
        problems.append(f"negative class index {class_idx}")
    if confidence is not None and not 0.0 <= confidence <= 1.0:
        problems.append(f"confidence {confidence} outside [0, 1]")
    return problems


@dataclass(frozen=True, eq=False)
class EventTable:
    """Events as parallel arrays, the event type every library function
    takes and returns: row i is clip ``clip_ids[clip[i]]``, class
    ``class_idx[i]``, ``onset[i]`` to ``offset[i]``, and confidence
    ``confidence[i]`` where ``has_confidence[i]`` (absent otherwise, as None
    is for an Event).  It reads as a sequence of events: ``len`` counts the
    rows, indexing builds the Event of one row and iterating builds them
    all; it equals a table, list or tuple of the same Events (so no hash)."""

    clip_ids: Sequence[str]
    clip: np.ndarray
    class_idx: np.ndarray
    onset: np.ndarray
    offset: np.ndarray
    confidence: np.ndarray
    has_confidence: np.ndarray

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> EventTable:
        """The table of Events written by hand, rows in the given order."""
        fields = [(ev.clip_id, ev.class_idx, ev.onset, ev.offset, ev.confidence) for ev in events]
        return _table_of(*zip(*fields)) if fields else _table_of((), (), (), (), ())

    def __len__(self) -> int:
        return self.clip.size

    def __getitem__(self, i: int) -> Event:
        return next(iter(self.take([i])))

    def __iter__(self) -> Iterator[Event]:
        ids = self.clip_ids
        return (Event(ids[i], c, on, off, conf) for i, c, on, off, conf in zip(
            self.clip.tolist(), self.class_idx.tolist(), self.onset.tolist(), self.offset.tolist(),
            np.where(self.has_confidence, self.confidence, None).tolist()))

    def __eq__(self, other) -> bool:
        if isinstance(other, (EventTable, list, tuple)) and all(isinstance(ev, Event) for ev in other):
            return list(self) == list(other)
        return NotImplemented

    @property
    def value(self) -> np.ndarray:
        """Each row's value: its confidence, or 1.0 where it has none."""
        return np.where(self.has_confidence, self.confidence, 1.0)

    def take(self, index) -> EventTable:
        return EventTable(self.clip_ids, *(column[index] for column in (
            self.clip, self.class_idx, self.onset, self.offset, self.confidence, self.has_confidence)))

    def canonical(self) -> EventTable:
        """The rows in canonical order, (clip id, class, onset, offset), after
        one vectorised check that raises a single error naming every problem
        of every invalid row, in row order.  Equal clip ids share a rank, so
        the sort is stable on that key."""
        conf = self.confidence
        valid = (np.isfinite(self.onset) & np.isfinite(self.offset) & (self.offset > self.onset)
                 & (self.onset >= 0) & (self.class_idx >= 0)
                 & (~self.has_confidence | ((conf >= 0.0) & (conf <= 1.0))))
        problems = [f"event {i}: {problem}" for i, ev in zip(np.flatnonzero(~valid).tolist(), self.take(~valid))
                    for problem in _event_problems(ev.onset, ev.offset, ev.confidence, ev.class_idx)]
        if problems:
            raise ValueError("invalid events:\n" + "\n".join(problems))
        rank_of = {clip_id: r for r, clip_id in enumerate(sorted(set(self.clip_ids)))}
        rank = np.array([rank_of[clip_id] for clip_id in self.clip_ids], dtype=np.intp)
        return self.take(np.lexsort((self.offset, self.onset, self.class_idx, rank[self.clip])))


def _table_of(clip_ids: Sequence[str], class_idx: Sequence[int], onset: Sequence[float],
              offset: Sequence[float], confidence: Sequence[float | None]) -> EventTable:
    """The table whose row i holds entry i of each field; None is no confidence."""
    clips: dict[str, int] = {}
    n = len(clip_ids)
    clip = np.fromiter((clips.setdefault(c, len(clips)) for c in clip_ids), dtype=np.intp, count=n)
    return EventTable(
        list(clips), clip, np.array(class_idx, dtype=np.int64),
        np.array(onset, dtype=np.float64), np.array(offset, dtype=np.float64),
        np.fromiter((0.0 if c is None else c for c in confidence), dtype=np.float64, count=n),
        np.fromiter((c is not None for c in confidence), dtype=bool, count=n))


def canonicalize_events(events: Iterable[Event]) -> EventTable:
    """Events checked and sorted as ``EventTable.canonical`` does it, as a
    table; one error names every problem of every bad row.  Idempotent on
    valid input."""
    return EventTable.from_events(events).canonical()


def _expand(first: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner i, position) for every position of every range [first[i], stop[i])."""
    counts = np.maximum(stop - first, 0)
    owner = np.repeat(np.arange(first.size), counts)
    position = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts) + first[owner]
    return owner, position


def rasterize(events: EventTable, n: int, period: float, num_classes: int) -> np.ndarray:
    """Per-frame max of event values, [n, num_classes], frames as in
    ``frame_spans``.

    The value of a hard event (confidence None) is 1.0; frames no event
    meets stay 0.
    """
    bad = (events.class_idx < 0) | (events.class_idx >= num_classes)
    if bad.any():
        raise ValueError(f"class index {events.class_idx[bad][0]} out of range")
    row, frame = _expand(*frame_spans(events.onset, events.offset, period, n))
    grid = np.zeros((n, num_classes))
    np.maximum.at(grid, (frame, events.class_idx[row]), events.value[row])
    return grid


class ClipFrames(NamedTuple):
    """The frame grid of one posteriorgram without its scores: what a
    consumer of a stream of posteriorgrams keeps of each clip once its pass
    is done.  It answers ``clip_id``, ``frame_period``, ``num_frames``,
    ``num_classes``, ``duration`` and ``frames`` as a posteriorgram does."""

    clip_id: str
    frame_period: float
    num_frames: int
    num_classes: int

    @property
    def duration(self) -> float:
        return self.num_frames * self.frame_period

    @property
    def frames(self) -> ClipFrames:
        return self


@dataclass(frozen=True, eq=False)
class Posteriorgram:
    """Frame-by-class sound presence scores for one clip.

    The scores keep a float32 or float64 array as it is, under the
    ``float_array`` rule of the training-side transforms, so a posteriorgram
    read from a file holds the stored float32 and no float64 copy of it.
    Every consumer that sums scores does so in float64, and a float32 score
    widens exactly, so float32 scores give the same results as their float64
    copy.
    """

    scores: np.ndarray  # [T, C], values in [0, 1]
    frame_period: float  # seconds per frame
    clip_id: str

    def __post_init__(self) -> None:
        scores = float_array(self.scores)
        object.__setattr__(self, "scores", scores)
        if scores.ndim != 2 or scores.shape[0] < 1:
            raise ValueError(f"scores must be [T>=1, C], got shape {scores.shape}")
        if not (self.frame_period > 0) or not math.isfinite(self.frame_period):
            raise ValueError(f"frame_period must be positive and finite, got {self.frame_period}")
        # NaN carries through min and max, so it fails the range test too; a
        # [T, 0] array has no scores to test
        if scores.size and not (scores.min() >= 0.0 and scores.max() <= 1.0):
            if not np.all(np.isfinite(scores)):
                raise ValueError("scores contain non-finite values")
            raise ValueError("scores outside [0, 1]")

    @property
    def num_frames(self) -> int:
        return self.scores.shape[0]

    @property
    def num_classes(self) -> int:
        return self.scores.shape[1]

    @property
    def duration(self) -> float:
        return self.num_frames * self.frame_period

    @property
    def frames(self) -> ClipFrames:
        """The clip's frame grid, without the scores."""
        return ClipFrames(self.clip_id, self.frame_period, *self.scores.shape)
