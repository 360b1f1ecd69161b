"""Posteriorgram-to-event pipelines: median filtering, frame thresholding,
change-point sound event bounding boxes (SEBBs), event-level thresholding,
and ensemble averaging.

A box is a ``core.Event`` whose confidence is always set (the mean smoothed
score of its segment), so boxes go wherever events go: the TSV writers, the
PSDS sweep and event-level thresholding.

Frame-level thresholding couples an event's extent to the detection
threshold: raising the threshold shrinks or fragments events.  SEBBs decouple
the two by first segmenting each class track at change points and assigning
every segment a scalar confidence; sensitivity is then controlled purely by
event-level thresholding, which never moves a surviving box's boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import Event, Posteriorgram, canonicalize_events

NOISE_FLOOR = 0.01


@dataclass(frozen=True)
class ClassSebbParams:
    """Per-class knobs of the change-point box detector."""

    window: int = 7  # moving-average smoothing width (odd frames)
    half_width: int = 3  # step-filter half width s: d[t] = y[t+s] - y[t-s]
    rel_merge: float = 0.2  # merge if mean diff < rel_merge * larger mean
    abs_merge: float = 0.15  # ... or < abs_merge
    min_gap: float = 0.1  # minimum |d| for a change-point candidate

    def __post_init__(self) -> None:
        if self.window < 1 or self.window % 2 == 0:
            raise ValueError(f"window must be odd and >= 1, got {self.window}")
        if self.half_width < 1:
            raise ValueError(f"half_width must be >= 1, got {self.half_width}")


@dataclass(frozen=True)
class CsebbParams:
    """Detector parameters keyed by class name, with a fallback default."""

    default: ClassSebbParams = ClassSebbParams()
    per_class: Mapping[str, ClassSebbParams] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.per_class is None:
            object.__setattr__(self, "per_class", {})

    def for_class(self, name: str | None) -> ClassSebbParams:
        if name is not None and name in self.per_class:
            return self.per_class[name]
        return self.default

    def sort_key(self, class_names: Sequence[str] | None = None) -> tuple:
        """Canonical comparison key: smoothing window first, then the rest."""
        entries = [self.default] + [
            self.per_class[n] for n in sorted(self.per_class) if class_names is None or n in class_names
        ]
        return tuple(
            (p.window, p.half_width, p.rel_merge, p.abs_merge, p.min_gap) for p in entries
        )


def median_filter(scores: np.ndarray, window: int) -> np.ndarray:
    """Sliding median with edge replication."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError(f"expected a 1-D score track, got shape {scores.shape}")
    if window % 2 == 0:
        raise ValueError(f"window must be odd, got {window}")
    if window > 2 * scores.size - 1:
        raise ValueError(f"window {window} too large for {scores.size} frames")
    if window == 1:
        return scores.copy()
    padded = np.pad(scores, window // 2, mode="edge")
    return np.median(np.lib.stride_tricks.sliding_window_view(padded, window), axis=1)


def moving_average(scores: np.ndarray, window: int) -> np.ndarray:
    """Sliding mean with edge replication (window odd; 1 = identity)."""
    scores = np.asarray(scores, dtype=np.float64)
    if window % 2 == 0:
        raise ValueError(f"window must be odd, got {window}")
    if window == 1:
        return scores.copy()
    padded = np.pad(scores, window // 2, mode="edge")
    return np.lib.stride_tricks.sliding_window_view(padded, window).mean(axis=1)


def frame_threshold_merge(post: Posteriorgram, thresholds: Sequence[float]) -> list[Event]:
    """Threshold each class track and merge consecutive positive frames.

    A maximal run of frames with score > threshold becomes one event spanning
    [start * frame_period, (end + 1) * frame_period).
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if thresholds.shape != (post.num_classes,):
        raise ValueError(f"need one threshold per class, got {thresholds.shape}")
    if thresholds.min(initial=0.0) < 0.0 or thresholds.max(initial=0.0) > 1.0:
        raise ValueError("thresholds must lie in [0, 1]")
    events = []
    fp = post.frame_period
    for c in range(post.num_classes):
        for start, stop in _runs(post.scores[:, c] > thresholds[c]):
            events.append(Event(post.clip_id, c, start * fp, stop * fp))
    return canonicalize_events(events)


def _runs(active: np.ndarray) -> list[tuple[int, int]]:
    """Maximal [start, stop) index runs where `active` is true."""
    padded = np.concatenate([[False], active, [False]])
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    return list(zip(edges[::2], edges[1::2]))


_PLATEAU_TOL = 1e-9


def _change_points(track: np.ndarray, half_width: int, min_gap: float) -> list[int]:
    """Plateau-midpoint local maxima of the two-sided step response |d|.

    d[t] = track[t+s] - track[t-s] with edge replication.  A run of equal
    |d| values (equal within a tolerance: the same mean reached by different
    summation orders differs in the last bit) is a candidate when it strictly
    dominates both neighbours (or touches an array end) and exceeds min_gap;
    the candidate index is the midpoint rounded up, which straddles symmetric
    ramps onto the true edge.
    """
    t = track.size
    idx = np.arange(t)
    d = track[np.minimum(idx + half_width, t - 1)] - track[np.maximum(idx - half_width, 0)]
    a = np.abs(d)
    candidates: list[int] = []
    i = 0
    while i < t:
        j = i
        while j + 1 < t and abs(a[j + 1] - a[i]) <= _PLATEAU_TOL:
            j += 1
        value = a[i]
        if (
            value > min_gap
            and (i == 0 or value > a[i - 1] + _PLATEAU_TOL)
            and (j == t - 1 or value > a[j + 1] + _PLATEAU_TOL)
            and not (i == 0 and j == t - 1)
        ):
            candidates.append((i + j + 1) // 2)
        i = j + 1
    return [c for c in candidates if 0 < c < t]


def _greedy_merge(
    sums: list[float], lengths: list[int], rel_merge: float, abs_merge: float
) -> tuple[list[float], list[int]]:
    """Repeatedly merge the adjacent segment pair with the smallest mean
    difference while that difference stays under the merge threshold."""
    sums, lengths = list(sums), list(lengths)
    while len(sums) > 1:
        means = [s / n for s, n in zip(sums, lengths)]
        diffs = [abs(means[i + 1] - means[i]) for i in range(len(means) - 1)]
        k = int(np.argmin(diffs))
        limit = max(abs_merge, rel_merge * max(means[k], means[k + 1]))
        if diffs[k] >= limit:
            break
        sums[k] += sums.pop(k + 1)
        lengths[k] += lengths.pop(k + 1)
    return sums, lengths


def _segments(track: np.ndarray, p: ClassSebbParams) -> tuple[list[float], list[int]]:
    """Smooth a class track and cut it at change points: (segment sums of
    the smoothed track, segment lengths)."""
    smoothed = moving_average(track, p.window)
    edges = [0] + _change_points(smoothed, p.half_width, p.min_gap) + [track.size]
    sums = [float(smoothed[a:b].sum()) for a, b in zip(edges[:-1], edges[1:])]
    return sums, [b - a for a, b in zip(edges[:-1], edges[1:])]


def _detect(
    post: Posteriorgram,
    params: CsebbParams,
    class_names: Sequence[str] | None,
    segmentations: dict[tuple, tuple[list[float], list[int]]],
) -> list[Event]:
    """Merge step of the detector; ``segmentations`` memoizes the segmentation
    step per (class, window, half_width, min_gap)."""
    if class_names is not None and len(class_names) != post.num_classes:
        raise ValueError("class_names length must match the posteriorgram")
    boxes: list[Event] = []
    fp = post.frame_period
    for c in range(post.num_classes):
        p = params.for_class(class_names[c] if class_names is not None else None)
        key = (c, p.window, p.half_width, p.min_gap)
        if key not in segmentations:
            segmentations[key] = _segments(post.scores[:, c], p)
        sums, lengths = _greedy_merge(*segmentations[key], p.rel_merge, p.abs_merge)
        start = 0
        for s, n in zip(sums, lengths):
            mean = s / n
            if mean > NOISE_FLOOR:
                conf = min(1.0, max(0.0, mean))
                boxes.append(Event(post.clip_id, c, start * fp, (start + n) * fp, conf))
            start += n
    return boxes


def csebb_detect(
    post: Posteriorgram,
    params: CsebbParams = CsebbParams(),
    class_names: Sequence[str] | None = None,
) -> list[Event]:
    """Change-point sound event bounding box detector.

    Per class: smooth the track, locate change points with a two-sided step
    filter, partition the clip at those points, greedily merge segments with
    similar means, and emit every merged segment whose mean smoothed score
    clears the noise floor as a box with confidence = that mean.
    """
    return _detect(post, params, class_names, {})


def event_threshold(boxes: Sequence[Event], class_thresholds: Sequence[float]) -> list[Event]:
    """Keep boxes whose confidence exceeds their class threshold.

    Onsets and offsets pass through untouched; only membership changes.
    """
    thresholds = np.asarray(class_thresholds, dtype=np.float64)
    if thresholds.size and (thresholds.min() < 0.0 or thresholds.max() > 1.0):
        raise ValueError("thresholds must lie in [0, 1]")
    return canonicalize_events([b for b in boxes if b.confidence > thresholds[b.class_idx]])


def ensemble_average(posts: Sequence[Posteriorgram]) -> Posteriorgram:
    """Cell-wise mean of aligned posteriorgrams (same clip, shape, rate)."""
    if not posts:
        raise ValueError("need at least one posteriorgram")
    first = posts[0]
    for p in posts[1:]:
        if p.scores.shape != first.scores.shape:
            raise ValueError(f"shape mismatch: {p.scores.shape} vs {first.scores.shape}")
        if p.frame_period != first.frame_period:
            raise ValueError(f"frame period mismatch: {p.frame_period} vs {first.frame_period}")
        if p.clip_id != first.clip_id:
            raise ValueError(f"clip id mismatch: {p.clip_id!r} vs {first.clip_id!r}")
    mean = np.mean([p.scores for p in posts], axis=0)
    return Posteriorgram(scores=mean, frame_period=first.frame_period, clip_id=first.clip_id)


def default_grid() -> list[CsebbParams]:
    """Default tuning grid: window x relative x absolute merge thresholds.

    The step-filter half width tracks the smoothing window (window // 2,
    floored at 1) so the two scales stay matched.
    """
    grid = []
    for window in (3, 7, 11, 21):
        for rel in (0.1, 0.2, 0.3):
            for abs_ in (0.05, 0.15):
                grid.append(
                    CsebbParams(
                        default=ClassSebbParams(
                            window=window,
                            half_width=max(1, window // 2),
                            rel_merge=rel,
                            abs_merge=abs_,
                        )
                    )
                )
    return grid


def tune_csebb(
    posts: Sequence[Posteriorgram],
    refs: Sequence[Event],
    grid: Sequence[CsebbParams],
    metric: Callable[[list[Event], Sequence[Event]], float],
    class_names: Sequence[str] | None = None,
) -> CsebbParams:
    """Grid-search the detector parameters against a validation metric.

    Ties break toward the smaller smoothing window, then lexicographically
    over the remaining parameters, so results never depend on grid order.
    """
    if not grid:
        raise ValueError("parameter grid is empty")
    # the segmentation depends on (window, half_width, min_gap) only, so each
    # clip keeps it across grid points and only the merge step reruns
    segmentations: list[dict] = [{} for _ in posts]
    scored = []
    for candidate in grid:
        boxes: list[Event] = []
        for post, memo in zip(posts, segmentations):
            boxes.extend(_detect(post, candidate, class_names, memo))
        scored.append((metric(boxes, refs), candidate))
    best_score = max(score for score, _ in scored)
    contenders = [cand for score, cand in scored if score == best_score]
    contenders.sort(key=lambda c: c.sort_key(class_names))
    return contenders[0]

