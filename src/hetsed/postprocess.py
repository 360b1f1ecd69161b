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
rather than one class track at a time, and none builds the [T, C, window]
sliding windows; results equal the track-by-track computation bit for bit.

Box detection (``csebb_detect`` for one parameter set, ``tune_csebb`` for a
grid) treats all clips and candidates as one problem.  The clips of one
frame count are smoothed and cut together, once per smoothing key (window,
half_width, min_gap), into flat per-segment arrays.  One greedy merge then
runs in lock step over every track of every key, and each (rel_merge,
abs_merge) candidate reads its boxes off the step where it stops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import Event, Posteriorgram, canonicalize_events, frame_time

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
    the frame boundaries start and end + 1 (times as in ``frame_time``).  The
    runs of all classes come from one pass over the posteriorgram.

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
    times = frame_time(frames, post.frame_period).tolist()
    events = [
        Event(post.clip_id, c, onset, offset)
        for c, onset, offset in zip(classes[::2].tolist(), times[::2], times[1::2])
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


def _change_points(tracks: np.ndarray, half_width: int, min_gap: float) -> np.ndarray:
    """The plateau-midpoint local maxima of the two-sided step response |d|
    of every row of ``tracks`` [K, T], as ascending flat indices row * T +
    frame.

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
    # the midpoint rounded up, in the plateau's row
    return (first.ravel()[last] + last + 1) // 2


# Cap on one stacked segmentation pass, in [rows, T] cells.  A pass holds
# about a dozen [rows, T] arrays at once (the change-point search's index
# arrays), about 1.1 MB here; 32-row passes of 500 frames ran fastest.
_STACK_CELLS = 1 << 14


def _stacked_passes(posts: Sequence[Posteriorgram]):
    """Clip indices grouped into segmentation passes: clips of one frame
    count, as many as keep the pass within _STACK_CELLS cells (at least one
    clip per pass)."""
    by_frames: dict[int, list[int]] = {}
    for i, post in enumerate(posts):
        by_frames.setdefault(post.num_frames, []).append(i)
    for t, members in by_frames.items():
        group: list[int] = []
        rows = 0
        for i in members:
            if group and (rows + posts[i].num_classes) * t > _STACK_CELLS:
                yield group
                group, rows = [], 0
            group.append(i)
            rows += posts[i].num_classes
        yield group


def _segment_arrays(posts: Sequence[Posteriorgram], first_track: np.ndarray, key: tuple) -> tuple:
    """Every class track of every clip smoothed and cut at its change points
    under one smoothing key (window, half_width, min_gap), as flat
    per-segment arrays (track, start frame, length, sum of the smoothed
    scores); track ``first_track[i] + c`` is class c of clip i."""
    window, half_width, min_gap = key
    parts = []
    for group in _stacked_passes(posts):
        scores = [posts[i].scores for i in group]
        tracks = np.ascontiguousarray(moving_average(scores[0] if len(group) == 1 else np.hstack(scores), window).T)
        rows, t = tracks.shape
        # segments open at each row's first frame and at its change points,
        # as flat indices into the [rows, t] tracks
        opens = np.sort(np.concatenate([np.arange(rows) * t, _change_points(tracks, half_width, min_gap)]))
        length = np.diff(opens, append=rows * t)
        row, start = np.divmod(opens, t)
        # one contiguous [m, n] gather per segment length, summed along its
        # rows: the bits of summing each segment of its track alone
        flat = tracks.ravel()
        total = np.empty(opens.size)
        order = np.argsort(length, kind="stable")
        bounds = np.flatnonzero(np.diff(length[order], prepend=-1, append=-1)).tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            same = order[lo:hi]
            total[same] = flat[opens[same, None] + np.arange(length[same[0]])].sum(axis=1)
        track = np.concatenate([first_track[i] + np.arange(posts[i].num_classes) for i in group])
        parts.append((track[row], start, length, total))
    return tuple(np.concatenate(columns) for columns in zip(*parts))


def _greedy_merge_stops(segments: tuple, cand_track: np.ndarray, cand_rel: np.ndarray,
                        cand_abs: np.ndarray) -> tuple:
    """The greedy merge of many segmented tracks in lock step, stopped for
    any number of (rel_merge, abs_merge) candidates per track.

    ``segments`` is (track, start, length, sum), each track's segments
    together and in time order; candidate j stops on track cand_track[j].
    Each step merges, on every track, the adjacent pair with the smallest
    mean difference (the first pair on a tie).  A candidate stops before the
    step whose difference reaches max(abs_merge, rel_merge * the larger of
    the pair's means), or once one segment is left.  A track is merged only
    until its last candidate stops, and the boxes of a track's state are
    taken once, however many candidates stop there.

    Returns the boxes as (track, start, length, mean) arrays and, per
    candidate, the [begin, end) range of its boxes in them.
    """
    track, start, length, total = segments
    order = np.argsort(track, kind="stable")
    track, start, length, total = (a[order] for a in (track, start, length, total))
    cand = np.arange(cand_track.size)
    begin = np.empty(cand.size, dtype=np.intp)
    end = np.empty(cand.size, dtype=np.intp)
    boxes = [(track[:0], start[:0], length[:0], total[:0])]
    emitted = 0
    while cand.size:
        first = np.flatnonzero(np.diff(track, prepend=-1))
        counts = np.diff(first, append=track.size)
        means = total / length
        diffs = np.append(np.abs(np.diff(means)), np.inf)
        diffs[first[1:] - 1] = np.inf  # no pair across two tracks
        smallest = np.minimum.reduceat(diffs, first)
        # the first pair of each track at its smallest difference
        ties = np.flatnonzero(diffs == np.repeat(smallest, counts))
        pair = ties[np.diff(track[ties], prepend=-1) != 0]
        # (a one-segment track has no pair; its inf difference stops all)
        larger = np.maximum(means[pair], means[np.minimum(pair + 1, track.size - 1)])
        at = np.searchsorted(track[first], cand_track[cand])
        stops = smallest[at] >= np.maximum(cand_abs[cand], cand_rel[cand] * larger[at])
        # the boxes of every track where a candidate stops
        shown = np.zeros(first.size, dtype=bool)
        shown[at[stops]] = True
        shown = np.repeat(shown, counts) & (means > NOISE_FLOOR)
        per_track = np.add.reduceat(shown, first)
        opens = emitted + np.cumsum(per_track) - per_track
        begin[cand[stops]] = opens[at[stops]]
        end[cand[stops]] = opens[at[stops]] + per_track[at[stops]]
        boxes.append((track[shown], start[shown], length[shown], means[shown]))
        emitted += boxes[-1][0].size
        cand, at = cand[~stops], at[~stops]
        # merge on the tracks with a candidate left; drop the others
        live = np.zeros(first.size, dtype=bool)
        live[at] = True
        into = pair[live]
        total[into] += total[into + 1]
        length[into] += length[into + 1]
        keep = np.repeat(live, counts)
        keep[into + 1] = False
        track, start, length, total = (a[keep] for a in (track, start, length, total))
    return tuple(np.concatenate(columns) for columns in zip(*boxes)), begin, end


def _box_sets(posts: Sequence[Posteriorgram], grid: Sequence[CsebbParams],
              class_names: Sequence[str] | None) -> list[list[Event]]:
    """The boxes of all clips under each parameter set of ``grid``, each
    list in (clip, class, time) order.

    Tracks are numbered clip-major, class-minor.  A candidate entry is one
    (smoothing key, class, rel_merge, abs_merge) that some parameter set
    asks of every track of that class.  Each smoothing key segments all
    tracks once, one lock-step merge serves every entry, and parameter sets
    that reach the same merge state share its ``Event`` objects.
    """
    if class_names is not None and any(len(class_names) != post.num_classes for post in posts):
        raise ValueError("class_names length must match the posteriorgram")
    widths = [post.num_classes for post in posts]
    first_track = np.cumsum([0] + widths)
    n_tracks = int(first_track[-1])
    if n_tracks == 0:
        return [[] for _ in grid]
    class_of = np.arange(n_tracks) - np.repeat(first_track[:-1], widths)
    n_classes = max(widths) if class_names is None else len(class_names)
    rows_of = [np.flatnonzero(class_of == c) for c in range(n_classes)]
    keys: dict[tuple, int] = {}
    entries: dict[tuple, int] = {}
    picks = []  # per parameter set, the entry of each class
    for params in grid:
        chosen = [params.default] * n_classes if class_names is None else map(params.for_class, class_names)
        picks.append([
            entries.setdefault((keys.setdefault((p.window, p.half_width, p.min_gap), len(keys)),
                                c, p.rel_merge, p.abs_merge), len(entries))
            for c, p in enumerate(chosen)
        ])
    sizes = [rows_of[c].size for _, c, _, _ in entries]
    first_cand = np.cumsum(sizes) - sizes
    segments = [_segment_arrays(posts, first_track + k * n_tracks, key) for key, k in keys.items()]
    (track, start, length, mean), begin, end = _greedy_merge_stops(
        tuple(np.concatenate(columns) for columns in zip(*segments)),
        np.concatenate([k * n_tracks + rows_of[c] for k, c, _, _ in entries]),
        np.repeat([rel for _, _, rel, _ in entries], sizes),
        np.repeat([abs_ for _, _, _, abs_ in entries], sizes),
    )
    track %= n_tracks
    clip = np.repeat(np.arange(len(posts)), widths)[track]
    period = np.array([post.frame_period for post in posts])[clip]
    onset, offset = np.empty(track.size), np.empty(track.size)
    for fp in np.unique(period).tolist():
        at = period == fp
        onset[at] = frame_time(start[at], fp)
        offset[at] = frame_time(start[at] + length[at], fp)
    clip_ids = [post.clip_id for post in posts]
    events = [
        Event(clip_ids[i], c, on, off, confidence)
        for i, c, on, off, confidence in zip(
            clip.tolist(), class_of[track].tolist(), onset.tolist(), offset.tolist(),
            np.minimum(mean, 1.0).tolist(),
        )
    ]
    out = []
    for pick in picks:
        cand = np.empty(n_tracks, dtype=np.intp)
        for rows, e in zip(rows_of, pick):
            cand[rows] = first_cand[e] + np.arange(rows.size)
        lo, n = begin[cand], end[cand] - begin[cand]
        index = np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(n.sum())
        out.append([events[i] for i in index.tolist()])
    return out


def csebb_detect(
    posts: Sequence[Posteriorgram],
    params: CsebbParams = CsebbParams(),
    class_names: Sequence[str] | None = None,
) -> list[Event]:
    """Change-point sound event bounding box detector, over many clips.

    Per class track: smooth it, locate change points with a two-sided step
    filter, partition the clip at those points, greedily merge segments with
    similar means, and emit every merged segment whose mean smoothed score
    clears the noise floor as a box with confidence = that mean.  The boxes
    of all ``posts`` come back in (clip, class, time) order, equal to those
    of one clip at a time; this is the one-candidate case of
    ``tune_csebb``'s search.
    """
    return _box_sets(posts, [params], class_names)[0]


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

    Each candidate is scored on exactly the boxes ``csebb_detect`` gives,
    all found in one search: each smoothing key segments the clips once,
    one merge serves every (rel_merge, abs_merge) pair, and candidates
    reaching the same merge state share its boxes.  ``metric(box_sets,
    refs)`` takes the boxes of every candidate in grid order and returns one
    score per candidate, so a PSDS metric can run one
    ``evaluation.roc_curves`` sweep over the whole grid.

    Ties break toward the smaller smoothing window, then lexicographically
    over the remaining parameters, so results never depend on grid order.
    """
    if not grid:
        raise ValueError("parameter grid is empty")
    scores = list(metric(_box_sets(posts, grid, class_names), refs))
    if len(scores) != len(grid):
        raise ValueError(f"metric gave {len(scores)} scores for {len(grid)} candidates")
    best_score = max(scores)
    contenders = [cand for score, cand in zip(scores, grid) if score == best_score]
    contenders.sort(key=lambda c: c.sort_key(class_names))
    return contenders[0]

