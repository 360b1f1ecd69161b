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
from typing import Iterable, Mapping, Optional, Sequence

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

    def indices_of(self, origin: ClassOrigin) -> list[int]:
        return [i for i, o in enumerate(self.origins) if o is origin]


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

    ``confidence`` is optional: absent (None) is not the same as 0.0, and the
    TSV writers keep the distinction (empty field).  A sound event bounding
    box is an Event whose confidence is always set.
    """

    clip_id: str
    class_idx: int
    onset: float
    offset: float
    confidence: Optional[float] = None


def frame_span(onset: float, offset: float, period: float, n: int) -> tuple[int, int]:
    """Half-open range [first, stop) of the frames k in [0, n) whose span
    [k*period, (k+1)*period) meets [onset, offset).

    Both edges carry a 1e-9 frame tolerance, so an edge on a frame boundary
    does not reach into the neighbouring frame.  An event that starts inside
    the grid gets at least one frame; one that starts at or after n*period
    gets none (first == stop == n).
    """
    first = min(n, max(0, math.floor(onset / period + 1e-9)))
    return first, min(n, max(first + 1, math.ceil(offset / period - 1e-9)))


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


def rasterize(events: Iterable[Event], n: int, period: float, num_classes: int) -> np.ndarray:
    """Per-frame max of event values, [n, num_classes], frames as in frame_span.

    The value of a hard event (confidence None) is 1.0; frames no event
    meets stay 0.
    """
    grid = np.zeros((n, num_classes))
    for ev in events:
        if not 0 <= ev.class_idx < num_classes:
            raise ValueError(f"class index {ev.class_idx} out of range")
        first, stop = frame_span(ev.onset, ev.offset, period, n)
        cells = grid[first:stop, ev.class_idx]
        np.maximum(cells, 1.0 if ev.confidence is None else ev.confidence, out=cells)
    return grid


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


def canonicalize_events(events: Sequence[Event]) -> list[Event]:
    """Validate and sort events into the canonical order.

    Sort key is (clip_id, class_idx, onset, offset).  All validation problems
    are aggregated into a single error so callers see every bad row at once.
    Idempotent on valid input.
    """
    problems = [
        f"event {i}: {problem}"
        for i, ev in enumerate(events)
        for problem in _event_problems(ev.onset, ev.offset, ev.confidence, ev.class_idx)
    ]
    if problems:
        raise ValueError("invalid events:\n" + "\n".join(problems))
    return sorted(events, key=lambda e: (e.clip_id, e.class_idx, e.onset, e.offset))


@dataclass(frozen=True, eq=False)
class Posteriorgram:
    """Frame-by-class sound presence scores for one clip."""

    scores: np.ndarray  # [T, C], values in [0, 1]
    frame_period: float  # seconds per frame
    clip_id: str

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=np.float64)
        object.__setattr__(self, "scores", scores)
        if scores.ndim != 2 or scores.shape[0] < 1:
            raise ValueError(f"scores must be [T>=1, C], got shape {scores.shape}")
        if not (self.frame_period > 0) or not math.isfinite(self.frame_period):
            raise ValueError(f"frame_period must be positive and finite, got {self.frame_period}")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores contain non-finite values")
        if scores.min(initial=0.0) < 0.0 or scores.max(initial=0.0) > 1.0:
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
