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

Each step takes a whole [T, C] posteriorgram in a few whole-array passes
rather than one class track at a time: the filters run along axis 0, and the
frame runs and the change points of all classes come out of one pass.  No
step builds the [T, C, window] sliding windows: the moving average adds
shifted copies of the padded tracks, median-filtered events count the frames
above threshold in each window, and the change points are picked on the
dense [C, T] grid.  Results equal the track-by-track computation bit for
bit; segment sums stay one ``sum()`` per segment, because a cumulative sum
would change the last bit.

Box detection over many clips and parameter sets (``tune_csebb``) does each
piece of work once.  The clips of one frame count are stacked column-wise
and segmented together, once per smoothing key (window, half_width,
min_gap), in passes capped at about 1 MB of window values (rows x frames x
window).  Each segmented track keeps one greedy merge
trajectory, shared by every (rel_merge, abs_merge) pair, and the boxes of
each stopping step are built once.  ``csebb_detect`` is the one-clip call
into the same path.
"""

from __future__ import annotations

import math
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
        for name in ("rel_merge", "abs_merge", "min_gap"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


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


def _checked_tracks(scores: np.ndarray, window: int) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim not in (1, 2):
        raise ValueError(f"expected a [T] or [T, C] score array, got shape {scores.shape}")
    if window % 2 == 0:
        raise ValueError(f"window must be odd, got {window}")
    return scores


def _edge_padded(a: np.ndarray, pad: int, axis: int = 0) -> np.ndarray:
    """``a`` with its first and last entries along ``axis`` repeated ``pad``
    more times: np.pad's "edge" mode at a fraction of its cost per call."""
    if a.shape[axis] == 0:
        raise ValueError("cannot extend an empty axis")
    counts = np.ones(a.shape[axis], dtype=np.intp)
    counts[0] += pad
    counts[-1] += pad
    return np.repeat(a, counts, axis=axis)


def median_filter(scores: np.ndarray, window: int) -> np.ndarray:
    """Sliding median along axis 0 (every column of a [T, C] array, or one
    [T] track) with edge replication; a window holding NaN gives NaN, as
    ``np.median`` does."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim and window % 2 and window > 2 * scores.shape[0] - 1:
        raise ValueError(f"window {window} too large for {scores.shape[0]} frames")
    scores = _checked_tracks(scores, window)
    if window == 1:
        return scores.copy()
    windows = np.lib.stride_tricks.sliding_window_view(_edge_padded(scores, window // 2), window, axis=0)
    medians = np.ascontiguousarray(np.partition(windows, window // 2, axis=-1)[..., window // 2])
    nan = np.isnan(scores)
    if nan.any():
        nan_windows = np.lib.stride_tricks.sliding_window_view(_edge_padded(nan, window // 2), window, axis=0)
        medians[nan_windows.any(axis=-1)] = np.nan
    return medians


def _shifted_sum(padded: np.ndarray, n: int, t: int) -> np.ndarray:
    """The sum of the n rows padded[i : i + t] (i < n), added in the order
    numpy's pairwise sum adds n contiguous values: in sequence below 8; from
    8 to 128 in eight accumulators, combined pairwise, then the rows left
    over; above 128 as two halves split at a multiple of 8."""
    rows = [padded[i : i + t] for i in range(n)]
    if n < 8:
        total = rows[0].copy()
        for row in rows[1:]:
            total += row
        return total
    if n <= 128:
        acc = [row.copy() for row in rows[:8]]
        body = n - n % 8
        for i in range(8, body, 8):
            for j in range(8):
                acc[j] += rows[i + j]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for row in rows[body:]:
            total += row
        return total
    half = n // 2 - (n // 2) % 8
    return _shifted_sum(padded, half, t) + _shifted_sum(padded[half:], n - half, t)


def moving_average(scores: np.ndarray, window: int) -> np.ndarray:
    """Sliding mean along axis 0 (every column of a [T, C] array, or one [T]
    track) with edge replication (window odd; 1 = identity).

    The ``window`` shifted copies of the padded tracks are added in the
    order ``np.mean`` adds the values of one window, so every mean equals
    that of its window alone bit for bit, without building the windows.
    """
    scores = _checked_tracks(scores, window)
    if window == 1:
        return scores.copy()
    total = _shifted_sum(_edge_padded(scores, window // 2), window, scores.shape[0])
    # a reduction starts from the identity 0.0, which turns a -0.0 sum into 0.0
    total += 0.0
    total /= window
    return total


def frame_threshold_merge(post: Posteriorgram, thresholds: Sequence[float], window: int = 1) -> list[Event]:
    """Threshold each class track and merge consecutive positive frames.

    A maximal run of frames with score > threshold becomes one event spanning
    [start * frame_period, (end + 1) * frame_period).  The runs of all
    classes come from one pass over the posteriorgram.

    With ``window`` > 1 the tracks are median filtered first (odd window,
    edge replication).  The median of w values exceeds a threshold exactly
    when more than w // 2 of them do (threshold decomposition: Wendt, Coyle
    & Gallagher, "Stack filters", IEEE TASSP 1986), so a frame is active
    when more than window // 2 frames of its window clear the threshold;
    the events equal those of ``median_filter`` followed by thresholding.
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if thresholds.shape != (post.num_classes,):
        raise ValueError(f"need one threshold per class, got {thresholds.shape}")
    if not np.all((thresholds >= 0.0) & (thresholds <= 1.0)):
        raise ValueError("thresholds must lie in [0, 1]")
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 1, got {window}")
    if window > 2 * post.num_frames - 1:
        raise ValueError(f"window {window} too large for {post.num_frames} frames")
    above = post.scores > thresholds
    if window > 1:
        # frames above threshold per window, as differences of a running count
        running = np.zeros((post.num_frames + window, post.num_classes), dtype=np.int64)
        np.cumsum(_edge_padded(above, window // 2), axis=0, out=running[1:])
        above = running[window:] - running[:-window] > window // 2
    active = above.T.astype(np.int8)
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
    rule.  The candidate tests run on the dense [K, T] grid: the left side
    at each plateau's first frame, carried to its last frame, and the right
    side at the last frame, so only the kept plateaus are listed.
    """
    k, t = tracks.shape
    padded = _edge_padded(tracks, half_width, axis=1)
    a = np.abs(padded[:, 2 * half_width :] - padded[:, :t])
    starts = np.ones((k, t), dtype=bool)
    starts[:, 1:] = ~(np.abs(np.diff(a, axis=1)) <= _PLATEAU_TOL)
    # flat index of each frame's plateau start; every row opens with a start
    flat = np.arange(k * t).reshape(k, t)
    first = np.maximum.accumulate(np.where(starts, flat, 0).ravel()).reshape(k, t)
    first_value = a.take(first)
    drifts = ~starts & ~(np.abs(a - first_value) <= _PLATEAU_TOL)
    rejoins = starts[:, 1:] & (np.abs(a[:, 1:] - first_value[:, :-1]) <= _PLATEAU_TOL)
    for r in np.flatnonzero(drifts.any(axis=1) | rejoins.any(axis=1)):
        starts[r] = _anchored_starts(a[r])
        first[r] = np.maximum.accumulate(np.where(starts[r], flat[r], 0))
        first_value[r] = a.take(first[r])

    # at a plateau's first frame: above min_gap and above its left neighbour
    rises = a > min_gap
    rises[:, 1:] &= a[:, 1:] > a[:, :-1] + _PLATEAU_TOL
    # at its last frame: the left test carried over, and above the right
    # neighbour; neither a whole row nor a plateau ending at frame 0 counts
    keep = rises.take(first)
    keep[:, :-1] &= starts[:, 1:] & (first_value[:, :-1] > a[:, 1:] + _PLATEAU_TOL)
    keep[:, -1] &= first[:, -1] > flat[:, 0]
    keep[:, 0] = False
    last = np.flatnonzero(keep)
    # the midpoint rounded up, as a frame of its row
    mid = (first.ravel()[last] + last + 1) // 2 % t
    bounds = [*np.searchsorted(last, flat[:, 0]).tolist(), last.size]
    return [mid[i:j] for i, j in zip(bounds[:-1], bounds[1:])]


class _Track:
    """One segmented class track of one clip and its greedy merge trajectory.

    The merge joins the adjacent pair of segments with the smallest mean
    difference (the first pair on a tie) until that difference reaches
    max(abs_merge, rel_merge * the larger of the pair's means).  The order of
    the merges does not depend on the thresholds, only the step where they
    stop does.  So each step is recorded once as (difference, larger mean,
    pair index), only as far as the furthest stop asked for so far, and
    every threshold pair reads its stop off the same steps; the boxes of
    each stop are built once.
    """

    __slots__ = ("_segments", "_where", "_state", "_merged", "steps", "_boxes")

    def __init__(self, sums: list[float], lengths: list[int], clip_id: str, class_idx: int,
                 frame_period: float) -> None:
        self._segments = (sums, lengths)
        self._where = (clip_id, class_idx, frame_period)
        # (sums, lengths, means, mean differences) after ``_merged`` merges,
        # built on the first step; ``_merged`` trails ``steps`` by at most
        # the one step last recorded
        self._state: tuple | None = None
        self._merged = 0
        self.steps: list[tuple[float, float, int]] = []
        self._boxes: dict[int, list[Event]] = {}

    def stop(self, rel_merge: float, abs_merge: float) -> int:
        """The number of merges made under these thresholds."""
        j = 0
        while j < len(self.steps) or self._extend():
            diff, larger, _ = self.steps[j]
            if diff >= max(abs_merge, rel_merge * larger):
                return j
            j += 1
        return j

    def _extend(self) -> bool:
        """Record the next merge step; False once one segment is left."""
        if self._state is None:
            sums, lengths = self._segments
            means = [s / n for s, n in zip(sums, lengths)]
            self._state = (list(sums), list(lengths), means, [abs(b - a) for a, b in zip(means, means[1:])])
        sums, lengths, means, diffs = self._state
        if self._merged < len(self.steps):
            k = self.steps[-1][2]
            _merge_pair(sums, lengths, k)
            self._merged += 1
            means[k] = sums[k] / lengths[k]
            del means[k + 1], diffs[k]
            if k > 0:
                diffs[k - 1] = abs(means[k] - means[k - 1])
            if k < len(diffs):
                diffs[k] = abs(means[k + 1] - means[k])
        if not diffs:
            return False
        diff = min(diffs)
        k = diffs.index(diff)
        self.steps.append((diff, max(means[k], means[k + 1]), k))
        return True

    def state(self, stop: int) -> tuple[list[float], list[int]]:
        """(segment sums, segment lengths) after ``stop`` merges, for a stop
        already returned by ``stop()``."""
        if stop == 0:
            return self._segments
        if stop == self._merged:
            return self._state[0], self._state[1]
        sums, lengths = list(self._segments[0]), list(self._segments[1])
        for _, _, k in self.steps[:stop]:
            _merge_pair(sums, lengths, k)
        return sums, lengths

    def boxes(self, stop: int) -> list[Event]:
        """The boxes after ``stop`` merges: every segment whose mean clears
        the noise floor, with that mean as its confidence."""
        if stop not in self._boxes:
            clip_id, c, fp = self._where
            boxes = []
            start = 0
            for s, n in zip(*self.state(stop)):
                mean = s / n
                if mean > NOISE_FLOOR:
                    boxes.append(Event(clip_id, c, start * fp, (start + n) * fp, min(1.0, max(0.0, mean))))
                start += n
            self._boxes[stop] = boxes
        return self._boxes[stop]


def _merge_pair(sums: list[float], lengths: list[int], k: int) -> None:
    sums[k] += sums.pop(k + 1)
    lengths[k] += lengths.pop(k + 1)


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


# Cap on one stacked segmentation pass, in bytes of its rows x T x window
# float64 window values.  Nothing builds those windows: the moving average
# and the change points work on [rows, T] arrays, each at most
# _STACK_BYTES / window bytes.
_STACK_BYTES = 1 << 20


def _stacked_passes(posts: Sequence[Posteriorgram], window: int):
    """Clip indices grouped into segmentation passes: clips of one frame
    count, as many as keep the pass's window values within _STACK_BYTES (at
    least one clip per pass)."""
    by_frames: dict[int, list[int]] = {}
    for i, post in enumerate(posts):
        by_frames.setdefault(post.num_frames, []).append(i)
    for t, members in by_frames.items():
        max_rows = _STACK_BYTES // (8 * t * window)
        group: list[int] = []
        rows = 0
        for i in members:
            if group and rows + posts[i].num_classes > max_rows:
                yield group
                group, rows = [], 0
            group.append(i)
            rows += posts[i].num_classes
        yield group


class _BoxSearch:
    """Boxes of a fixed set of clips under any number of parameter sets.

    Segmentation runs once per smoothing key (window, half_width, min_gap),
    stacked over the clips; each (clip, class, key) keeps one ``_Track``.
    Every column of a stacked pass is smoothed, cut and summed as it would
    be alone, so the boxes equal those of one clip at a time bit for bit.
    """

    def __init__(self, posts: Sequence[Posteriorgram], class_names: Sequence[str] | None) -> None:
        for post in posts:
            if class_names is not None and len(class_names) != post.num_classes:
                raise ValueError("class_names length must match the posteriorgram")
        self._posts = list(posts)
        self._names = class_names
        self._tracks: dict[tuple, list[list[_Track]]] = {}

    def boxes(self, params: CsebbParams) -> list[Event]:
        if self._names is None:
            chosen = [params.default] * max((post.num_classes for post in self._posts), default=0)
        else:
            chosen = [params.for_class(name) for name in self._names]
        tracks = [self._tracks_for((p.window, p.half_width, p.min_gap)) for p in chosen]
        boxes: list[Event] = []
        for i, post in enumerate(self._posts):
            for c in range(post.num_classes):
                track = tracks[c][i][c]
                boxes.extend(track.boxes(track.stop(chosen[c].rel_merge, chosen[c].abs_merge)))
        return boxes

    def _tracks_for(self, key: tuple) -> list[list[_Track]]:
        if key not in self._tracks:
            per_clip: list = [None] * len(self._posts)
            for group in _stacked_passes(self._posts, key[0]):
                scores = [self._posts[i].scores for i in group]
                columns = iter(_segments(scores[0] if len(group) == 1 else np.hstack(scores), *key))
                for i in group:
                    post = self._posts[i]
                    per_clip[i] = [
                        _Track(*next(columns), post.clip_id, c, post.frame_period)
                        for c in range(post.num_classes)
                    ]
            self._tracks[key] = per_clip
        return self._tracks[key]


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
    classes together; only the merge step is per class.  This is the
    one-clip case of the path ``tune_csebb`` takes.
    """
    return _BoxSearch([post], class_names).boxes(params)


def event_threshold(boxes: Sequence[Event], class_thresholds: Sequence[float]) -> list[Event]:
    """Keep boxes whose confidence exceeds their class threshold.

    Onsets and offsets pass through untouched; only membership changes.
    """
    thresholds = np.asarray(class_thresholds, dtype=np.float64)
    if not np.all((thresholds >= 0.0) & (thresholds <= 1.0)):
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
    metric: Callable[[list[list[Event]], Sequence[Event]], Sequence[float]],
    class_names: Sequence[str] | None = None,
) -> CsebbParams:
    """Grid-search the detector parameters against a validation metric
    (per-class parameters tuned on validation data: Ebbers et al., "Sound
    event bounding boxes", Interspeech 2024).

    No candidate repeats work another has done.  All clips are segmented
    together once per smoothing key (window, half_width, min_gap), in
    stacked passes capped at about 1 MB of window values however many clips
    there are; each (clip, class, key) keeps one merge trajectory, which
    every (rel_merge, abs_merge) pair stops on, and the boxes of each stop
    are built once and shared.  Each candidate is scored on exactly the
    boxes ``csebb_detect`` gives, and all candidates in one call:
    ``metric(box_sets, refs)`` takes the boxes of every candidate in grid
    order and returns one score per candidate, so a PSDS metric can run one
    ``evaluation.roc_curves`` sweep over the whole grid.

    Ties break toward the smaller smoothing window, then lexicographically
    over the remaining parameters, so results never depend on grid order.
    """
    if not grid:
        raise ValueError("parameter grid is empty")
    search = _BoxSearch(posts, class_names)
    scores = list(metric([search.boxes(candidate) for candidate in grid], refs))
    if len(scores) != len(grid):
        raise ValueError(f"metric gave {len(scores)} scores for {len(grid)} candidates")
    best_score = max(scores)
    contenders = [cand for score, cand in zip(scores, grid) if score == best_score]
    contenders.sort(key=lambda c: c.sort_key(class_names))
    return contenders[0]

