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

Each step takes a whole [T, C] posteriorgram per numpy pass rather than one
class track at a time: the filters run along axis 0, and the frame runs and
the change points of all classes come out of one pass.  Results equal the
track-by-track computation bit for bit; segment sums stay one ``sum()`` per
segment, because a cumulative sum would change the last bit.
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


def _filter_tracks(scores: np.ndarray, window: int, reduce: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Reduce the edge-replicated sliding windows along axis 0 of a [T] or
    [T, C] array; ``reduce`` maps [C, T, window] windows to [C, T]."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim not in (1, 2):
        raise ValueError(f"expected a [T] or [T, C] score array, got shape {scores.shape}")
    if window % 2 == 0:
        raise ValueError(f"window must be odd, got {window}")
    if window == 1:
        return scores.copy()
    tracks = np.pad(np.atleast_2d(scores.T), ((0, 0), (window // 2, window // 2)), mode="edge")
    filtered = reduce(np.lib.stride_tricks.sliding_window_view(tracks, window, axis=1))
    return np.ascontiguousarray(filtered[0] if scores.ndim == 1 else filtered.T)


def _window_mean(windows: np.ndarray) -> np.ndarray:
    # Copied contiguous, each window is summed along memory like the windows
    # of a lone 1-D track; on the strided [C, T, window] view numpy picks
    # another loop order for some shapes, which changes the last bit.
    return np.ascontiguousarray(windows).mean(axis=-1)


def _window_median(windows: np.ndarray) -> np.ndarray:
    mid = windows.shape[-1] // 2
    medians = np.partition(windows, mid, axis=-1)[..., mid]
    if np.isnan(windows).any():  # as np.median: a window holding NaN gives NaN
        medians[np.isnan(windows).any(axis=-1)] = np.nan
    return medians


def median_filter(scores: np.ndarray, window: int) -> np.ndarray:
    """Sliding median along axis 0 (every column of a [T, C] array, or one
    [T] track) with edge replication."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim and window % 2 and window > 2 * scores.shape[0] - 1:
        raise ValueError(f"window {window} too large for {scores.shape[0]} frames")
    return _filter_tracks(scores, window, _window_median)


def moving_average(scores: np.ndarray, window: int) -> np.ndarray:
    """Sliding mean along axis 0 (every column of a [T, C] array, or one [T]
    track) with edge replication (window odd; 1 = identity)."""
    return _filter_tracks(scores, window, _window_mean)


def frame_threshold_merge(post: Posteriorgram, thresholds: Sequence[float]) -> list[Event]:
    """Threshold each class track and merge consecutive positive frames.

    A maximal run of frames with score > threshold becomes one event spanning
    [start * frame_period, (end + 1) * frame_period).  The runs of all
    classes come from one pass over the posteriorgram.
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if thresholds.shape != (post.num_classes,):
        raise ValueError(f"need one threshold per class, got {thresholds.shape}")
    if thresholds.min(initial=0.0) < 0.0 or thresholds.max(initial=0.0) > 1.0:
        raise ValueError("thresholds must lie in [0, 1]")
    active = (post.scores > thresholds).T.astype(np.int8)
    # per class, run starts and stops alternate along the row
    classes, frames = np.nonzero(np.diff(active, axis=1, prepend=0, append=0))
    fp = post.frame_period
    events = [
        Event(post.clip_id, c, start * fp, stop * fp)
        for c, start, stop in zip(classes[::2].tolist(), frames[::2].tolist(), frames[1::2].tolist())
    ]
    return canonicalize_events(events)


_PLATEAU_TOL = 1e-9


def _anchored_starts(a: np.ndarray) -> np.ndarray:
    """Plateau starts of one |d| row by the anchored rule: a plateau goes on
    while values stay within the tolerance of its first value."""
    starts = np.zeros(a.size, dtype=bool)
    i = 0
    while i < a.size:
        starts[i] = True
        j = i + 1
        while j < a.size and abs(a[j] - a[i]) <= _PLATEAU_TOL:
            j += 1
        i = j
    return starts


def _change_points(tracks: np.ndarray, half_width: int, min_gap: float) -> list[np.ndarray]:
    """Per row of ``tracks`` [K, T]: the plateau-midpoint local maxima of the
    two-sided step response |d|.

    d[t] = y[t+s] - y[t-s] with edge replication.  A plateau is a run of |d|
    values within a tolerance of the run's first value (the same mean
    reached by different summation orders differs in the last bit).  It is a
    candidate when it strictly dominates both neighbours (or touches an
    array end) and exceeds min_gap; the candidate index is the midpoint
    rounded up, which straddles symmetric ramps onto the true edge.

    The plateaus of all rows come from one vectorised pass that chains
    consecutive values within the tolerance.  Chaining and the anchored rule
    agree unless a chained run drifts past the tolerance from its first
    value, or the value after it is back within the tolerance of that first
    value; only a row where either happens is rescanned with the anchored
    rule.
    """
    k, t = tracks.shape
    idx = np.arange(t)
    a = np.abs(tracks[:, np.minimum(idx + half_width, t - 1)] - tracks[:, np.maximum(idx - half_width, 0)])
    starts = np.ones((k, t), dtype=bool)
    starts[:, 1:] = ~(np.abs(np.diff(a, axis=1)) <= _PLATEAU_TOL)
    first_value = np.take_along_axis(a, np.maximum.accumulate(np.where(starts, idx, 0), axis=1), axis=1)
    drifts = ~starts & ~(np.abs(a - first_value) <= _PLATEAU_TOL)
    rejoins = starts[:, 1:] & (np.abs(a[:, 1:] - first_value[:, :-1]) <= _PLATEAU_TOL)
    for r in np.flatnonzero(drifts.any(axis=1) | rejoins.any(axis=1)):
        starts[r] = _anchored_starts(a[r])

    # one entry per plateau, rows in order: its row, first and last index
    ends = np.ones_like(starts)
    ends[:, :-1] = starts[:, 1:]
    row, first = np.nonzero(starts)
    last = np.nonzero(ends)[1]
    value = a[row, first]
    mid = (first + last + 1) // 2
    keep = (
        (value > min_gap)
        & ((first == 0) | (value > a[row, first - 1] + _PLATEAU_TOL))
        & ((last == t - 1) | (value > a[row, np.minimum(last + 1, t - 1)] + _PLATEAU_TOL))
        & ~((first == 0) & (last == t - 1))
        & (mid > 0)
    )
    return np.split(mid[keep], np.cumsum(np.bincount(row[keep], minlength=k))[:-1])


def _greedy_merge(
    sums: list[float], lengths: list[int], rel_merge: float, abs_merge: float
) -> tuple[list[float], list[int]]:
    """Repeatedly merge the adjacent segment pair with the smallest mean
    difference while that difference stays under the merge threshold."""
    sums, lengths = list(sums), list(lengths)
    while len(sums) > 1:
        means = [s / n for s, n in zip(sums, lengths)]
        diffs = [abs(means[i + 1] - means[i]) for i in range(len(means) - 1)]
        k = min(range(len(diffs)), key=diffs.__getitem__)
        limit = max(abs_merge, rel_merge * max(means[k], means[k + 1]))
        if diffs[k] >= limit:
            break
        sums[k] += sums.pop(k + 1)
        lengths[k] += lengths.pop(k + 1)
    return sums, lengths


def _segments(
    scores: np.ndarray, window: int, half_width: int, min_gap: float
) -> list[tuple[list[float], list[int]]]:
    """Smooth every column of ``scores`` [T, C] and cut it at its change
    points: per column, (segment sums of the smoothed track, segment lengths)."""
    tracks = np.ascontiguousarray(moving_average(scores, window).T)
    t = tracks.shape[1]
    out = []
    for track, cuts in zip(tracks, _change_points(tracks, half_width, min_gap)):
        edges = [0, *cuts.tolist(), t]
        sums = [float(track[a:b].sum()) for a, b in zip(edges[:-1], edges[1:])]
        out.append((sums, [b - a for a, b in zip(edges[:-1], edges[1:])]))
    return out


def _detect(
    post: Posteriorgram,
    params: CsebbParams,
    class_names: Sequence[str] | None,
    segmentations: dict[tuple, list[tuple[list[float], list[int]]]],
) -> list[Event]:
    """Merge step of the detector; ``segmentations`` memoizes the segmentation
    step per (window, half_width, min_gap), for every class at once."""
    if class_names is not None and len(class_names) != post.num_classes:
        raise ValueError("class_names length must match the posteriorgram")
    boxes: list[Event] = []
    fp = post.frame_period
    for c in range(post.num_classes):
        p = params.for_class(class_names[c] if class_names is not None else None)
        key = (p.window, p.half_width, p.min_gap)
        if key not in segmentations:
            segmentations[key] = _segments(post.scores, *key)
        sums, lengths = _greedy_merge(*segmentations[key][c], p.rel_merge, p.abs_merge)
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
    clears the noise floor as a box with confidence = that mean.  Smoothing
    and change points run once per (window, half_width, min_gap) for all
    classes together; only the merge step is per class.
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

