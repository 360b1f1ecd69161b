"""Posteriorgram-to-event pipelines: median filtering, frame thresholding,
change-point sound event bounding boxes (SEBBs) and ensemble averaging.

A box is an event whose confidence is always set (the mean smoothed score
of its segment), so boxes go wherever events go: the TSV writers and the
PSDS sweep, whose confidence thresholds keep or drop whole boxes.
``frame_threshold_merge`` and ``csebb_detect`` take the clips of a
directory as an iterable and return its events or boxes as one
``core.EventTable``, which the TSV writers and the PSDS sweep read as it is.

Frame-level thresholding couples an event's extent to the detection
threshold: raising the threshold shrinks or fragments events.  SEBBs decouple
the two by first segmenting each class track at change points and assigning
every segment a scalar confidence; sensitivity is then controlled purely by
event-level thresholding, which never moves a surviving box's boundaries.

Each step takes a whole [T, C] posteriorgram in a few whole-array passes
rather than one class track at a time, and none builds the [T, C, window]
sliding windows; results equal the track-by-track computation bit for bit.

Clips stream through in passes.  ``_stacked_passes`` groups them as they
arrive into runs of consecutive clips of one frame count, up to
``_STACK_CELLS`` cells a pass, with one pass open at a time: it is handed
on when the next clip has another frame count or would overfill it.  A
consumer works on a pass under every threshold or smoothing key while it
holds it, then keeps only its results and each clip's ``core.ClipFrames``,
so what it holds of the scores does not grow with the clip count, whatever
the mix of clip lengths.  Each clip is admitted by ``core.admit_clip``, as
the mPAUC pooling admits it: it has the first clip's class count, so the
tracks clip * C + class of a pass form one ascending range, and an id that
no earlier clip has.

Box detection (``csebb_detect`` for one parameter set, ``tune_csebb`` for a
grid) treats all clips and candidates as one problem.  Each pass is smoothed
under every smoothing key (window, half_width, min_gap) while it is held.
Only the tracks whose step response exceeds min_gap somewhere can be cut:
each such live track keeps its smoothed row and its hot cells, the step
response values above min_gap, and any other track is one segment, summed
as a whole row.  At a flush (the kept tracks reach ``_CUT_CELLS`` cells,
the next pass has another frame count, or the clips end) one change-point
search runs over the hot cells of every kept track, one gather per length
sums their segments, and one greedy merge runs in lock step over the
flush's tracks, each (rel_merge, abs_merge) candidate reading its boxes off
the step where it stops.  A track's merge reads only its own segments, so
the flush keeps only its boxes and each candidate's range of them.  Once
the clips end the boxes are ordered as one merge of every track would emit
them and built once, and each candidate holds the index array of its boxes
among them, so candidates that reach the same merge state share boxes by
index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import ClipFrames, EventTable, Posteriorgram, admit_clip, frame_time

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
    per_class: Mapping[str, ClassSebbParams] = field(default_factory=dict)

    def for_class(self, name: str) -> ClassSebbParams:
        return self.per_class.get(name, self.default)

    def sort_key(self, class_names: Sequence[str] | None = None) -> tuple:
        """Canonical comparison key: smoothing window first, then the rest."""
        entries = [self.default] + [
            self.per_class[n] for n in sorted(self.per_class) if class_names is None or n in class_names
        ]
        return tuple(
            (p.window, p.half_width, p.rel_merge, p.abs_merge, p.min_gap) for p in entries
        )


def _edge_padded(a: np.ndarray, pad: int, axis: int = 0, dtype=None) -> np.ndarray:
    """A new C-ordered array of ``dtype`` (``a``'s when None) holding ``a``
    with its first and last entries along ``axis`` repeated ``pad`` more
    times: np.pad's "edge" mode at a fraction of its cost per call."""
    n = a.shape[axis]
    if n == 0:
        raise ValueError("cannot extend an empty axis")
    shape = list(a.shape)
    shape[axis] += 2 * pad
    out = np.empty(shape, dtype=a.dtype if dtype is None else dtype)
    lead = (slice(None),) * axis
    out[lead + (slice(pad, pad + n),)] = a
    out[lead + (slice(None, pad),)] = out[lead + (slice(pad, pad + 1),)]
    out[lead + (slice(pad + n, None),)] = out[lead + (slice(pad + n - 1, pad + n),)]
    return out


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
    scores = np.asarray(scores)
    if scores.ndim not in (1, 2):
        raise ValueError(f"expected a [T] or [T, C] score array, got shape {scores.shape}")
    if window % 2 == 0:
        raise ValueError(f"window must be odd, got {window}")
    if window == 1:
        return np.array(scores, dtype=np.float64)
    # the edge-padded tracks in one float64 array, the scores widened as
    # they are assigned
    padded = _edge_padded(scores, window // 2, dtype=np.float64)
    total = _shifted_sum(padded, window, scores.shape[0])
    # a reduction starts from the identity 0.0, which turns a -0.0 sum into 0.0
    total += 0.0
    total /= window
    return total


def frame_threshold_merge(posts: Iterable[Posteriorgram], thresholds: Sequence[float],
                          window: int = 1) -> EventTable:
    """Threshold each class track of every clip and merge consecutive
    positive frames, as an event table in (clip, class, onset) order.

    A maximal run of frames with score > threshold becomes one event spanning
    the frame boundaries start and end + 1 (times as in ``frame_time``).

    With ``window`` > 1 the tracks are median filtered first (odd window,
    edge replication).  The median of w values exceeds a threshold exactly
    when more than w // 2 of them do (threshold decomposition: Wendt, Coyle
    & Gallagher, "Stack filters", IEEE TASSP 1986), so a frame is active
    when more than window // 2 frames of its window clear the threshold;
    the events equal those of scipy's edge-replicated median filter
    (``mode="nearest"``) followed by thresholding.

    Each clip is checked as it arrives, so an error is the one the first
    failing clip would raise on its own.  The clips of a pass of
    ``_stacked_passes`` are thresholded together, as one bool block of
    their class tracks whose runs come from one comparison of neighbouring
    frames and one nonzero.
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)

    def checked():
        for i, post in enumerate(posts):
            if thresholds.shape != (post.num_classes,):
                raise ValueError(f"need one threshold per class, got {thresholds.shape}")
            if i == 0 and not np.all((thresholds >= 0.0) & (thresholds <= 1.0)):
                raise ValueError("thresholds must lie in [0, 1]")
            if i == 0 and (window < 1 or window % 2 == 0):
                raise ValueError(f"window must be odd and >= 1, got {window}")
            if window > 2 * post.num_frames - 1:
                raise ValueError(f"window {window} too large for {post.num_frames} frames")
            yield post

    c = thresholds.size
    clips: list[ClipFrames] = []
    parts = [(np.zeros(0, dtype=np.intp),) * 4]  # (clip, class, start, stop) per pass
    for first, members in _stacked_passes(checked(), clips):
        # the [clips * C, T] class tracks above threshold, between two
        # inactive frames
        t = members[0].num_frames
        active = np.zeros((len(members) * c, t + 2), dtype=bool)
        for k, post in enumerate(members):
            np.greater(post.scores.T, thresholds[:, None], out=active[k * c : (k + 1) * c, 1:-1])
        if window > 1:
            active[:, 1:-1] = _window_counts(active[:, 1:-1], window) > window // 2
        # per track, run starts and stops alternate along the frames
        row, frame = np.divmod(np.flatnonzero(active[:, 1:] != active[:, :-1]), t + 1)
        clip, cls = np.divmod(row[::2], c)
        parts.append((first + clip, cls, frame[::2], frame[1::2]))
    return _frame_events(clips, *(np.concatenate(column) for column in zip(*parts)))


def _window_counts(x: np.ndarray, window: int) -> np.ndarray:
    """Per row of the bool [rows, T] ``x``, how many frames of each frame's
    window (odd, edge replication) are true, in O(log window) array adds:
    ``span[:, j]`` counts the ``size`` padded frames from j, and the binary
    digits of ``window`` pick the spans that tile each window."""
    t = x.shape[1]
    span = _edge_padded(x, window // 2, axis=1, dtype=np.min_scalar_type(window))
    counts = np.zeros(x.shape, dtype=span.dtype)
    start, size = 0, 1
    while True:
        if window & size:
            counts += span[:, start : start + t]
            start += size
        if 2 * size > window:
            return counts
        span = span[:, :-size] + span[:, size:]
        size *= 2


def _frame_events(clips: Sequence[ClipFrames], clip: np.ndarray, class_idx: np.ndarray, start: np.ndarray,
                  stop: np.ndarray, confidence: np.ndarray | None = None) -> EventTable:
    """Events of clips ``clips[clip]`` over frames [start, stop), times as
    in ``frame_time`` on each clip's own grid; no confidence when None."""
    period = np.array([frames.frame_period for frames in clips])[clip]
    onset, offset = np.empty(clip.size), np.empty(clip.size)
    for fp in np.unique(period).tolist():
        at = period == fp
        onset[at] = frame_time(start[at], fp)
        offset[at] = frame_time(stop[at], fp)
    has = np.full(clip.size, confidence is not None)
    return EventTable([frames.clip_id for frames in clips], clip, class_idx, onset, offset,
                      np.zeros(clip.size) if confidence is None else confidence, has)


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


def _hot_cells(tracks: np.ndarray, half_width: int, min_gap: float) -> tuple:
    """What the change-point search needs of the two-sided step response
    |d| of the rows of ``tracks`` [K, T], taken while they are held.

    d[t] = y[t+s] - y[t-s] with edge replication.  A plateau is a run of |d|
    values within a tolerance of the run's first value (the same mean
    reached by different summation orders differs in the last bit).  It is a
    candidate when it strictly dominates both neighbours (or touches an
    array end) and exceeds min_gap; the candidate index is the midpoint
    rounded up, which straddles symmetric ramps onto the true edge.

    A kept plateau opens at a value above min_gap, so only the live rows,
    those with |d| above min_gap somewhere, can be cut.  Each |d| is a
    rounded difference of two values of its row, and rounding is monotonic,
    so it cannot exceed the row's rounded range: |d| is taken only on rows
    whose range exceeds min_gap, the others being flat.

    Returns the live rows as indices into ``tracks`` and, as ascending flat
    indices live position * T + frame, the hot cells of the live rows, with
    their values, and the change points of the live rows that hold a |d|
    within twice the tolerance of min_gap.  A hot cell is a |d| above
    min_gap; on a row with no |d| that close to min_gap, every hot value
    lies more than twice the tolerance above every other value of the row,
    so each maximal run of hot cells opens at a plateau's first frame, ends
    at one's last, and passes the neighbour tests at its ends, and
    ``_change_points`` finds the row's change points from its hot cells
    alone.  The other live rows are searched at once, each as one run of
    all its cells.
    """
    t = tracks.shape[1]
    rows = np.flatnonzero(tracks.max(axis=1) - tracks.min(axis=1) > min_gap)
    padded = _edge_padded(tracks[rows], half_width, axis=1)
    a = np.abs(padded[:, 2 * half_width :] - padded[:, :t])
    hot = a > min_gap
    live = np.flatnonzero(hot.any(axis=1))
    a, hot = a[live], hot[live]
    near = np.flatnonzero((np.abs(a - min_gap) <= 2 * _PLATEAU_TOL).any(axis=1))
    cuts = np.zeros(0, dtype=np.intp)
    if near.size:
        hot[near] = False
        row, frame = np.divmod(_change_points(np.arange(near.size * t), a[near].ravel(), t, min_gap), t)
        cuts = near[row] * t + frame
    cells = np.flatnonzero(hot)
    return rows[live], cells, a.take(cells), cuts


def _change_points(cells: np.ndarray, values: np.ndarray, t: int, min_gap: float = -np.inf) -> np.ndarray:
    """The change points of rows of T frames read off cells of their |d|
    (see ``_hot_cells``): ``cells`` the ascending flat indices row * T +
    frame of the cells, ``values`` their |d|; the change points come back as
    ascending flat indices.  Only plateaus above ``min_gap`` are kept, which
    every plateau of hot cells is.

    The search works on runs of consecutive cells of one row.  Plateaus
    come from one vectorised pass that chains consecutive values within the
    tolerance, and a run where chaining and the anchored rule part ways (a
    chained plateau drifts past the tolerance from its first value, or the
    value after it is back within the tolerance of that first value) is
    rescanned with the anchored rule.  The ends of a run of hot cells, like
    a row's ends, pass the neighbour tests, so the left test is taken only
    inside a run, at a plateau's first cell, and the right test at its last;
    neither a whole row nor a plateau ending at frame 0 counts.
    """
    n = cells.size
    frame = cells % t
    # a run opens where the cells skip a frame or a row begins
    opens = np.ones(n, dtype=bool)
    opens[1:] = (np.diff(cells) != 1) | (frame[1:] == 0)
    starts = opens.copy()
    starts[1:] |= ~(np.abs(np.diff(values)) <= _PLATEAU_TOL)
    at = np.arange(n)
    first = np.maximum.accumulate(np.where(starts, at, 0))
    first_value = values.take(first)
    parted = ~starts & ~(np.abs(values - first_value) <= _PLATEAU_TOL)
    parted[:-1] |= starts[1:] & ~opens[1:] & (np.abs(values[1:] - first_value[:-1]) <= _PLATEAU_TOL)
    if parted.any():
        bounds = np.append(np.flatnonzero(opens), n)
        for run in np.unique(np.searchsorted(bounds, np.flatnonzero(parted), side="right") - 1).tolist():
            lo, hi = bounds[run], bounds[run + 1]
            starts[lo:hi] = _anchored_starts(values[lo:hi])
        first = np.maximum.accumulate(np.where(starts, at, 0))
        first_value = values.take(first)
    # at a plateau's first cell: a run's first, or above its left neighbour
    rises = opens.copy()
    rises[1:] |= values[1:] > values[:-1] + _PLATEAU_TOL
    # at its last cell: the left test carried over, and a run's last or
    # above the right neighbour
    keep = rises.take(first) & (first_value > min_gap)
    keep[:-1] &= starts[1:] & (opens[1:] | (first_value[:-1] > values[1:] + _PLATEAU_TOL))
    keep &= (frame > 0) & ~((frame.take(first) == 0) & (frame == t - 1))
    last = np.flatnonzero(keep)
    return (cells.take(first[last]) + cells[last] + 1) // 2


# Cap on one stacked pass, in [rows, T] cells (a row is a class track), for
# both pass kinds: a box search's segmentation pass and a threshold pass.
# It bounds what a command holds of a directory's scores, for any mix of
# clip lengths: the one open pass (its clips' float32 scores, which the
# consumer keeps only until the pass is handed on) and that pass's work
# arrays.  A segmentation pass holds its smoothed tracks, the step response
# of its ranged rows and a few bool blocks of it, and the search arrays of
# the rare rows searched on all their cells; a threshold pass holds a few
# bool and integer blocks of that size.  It also trades speed against
# memory: on 500-frame clips of 10 classes (the bulk benchmark, 2-core
# Xeon), 2**15 beat the earlier code by more than the run-to-run spread and
# 2**14 did not; 2**16 was no faster and held about 1.5 MB more at peak.
_STACK_CELLS = 1 << 15


def _stacked_passes(posts: Iterable[Posteriorgram],
                    clips: list[ClipFrames]) -> Iterator[tuple[int, list[Posteriorgram]]]:
    """The clips of ``posts`` grouped into stacked passes as they arrive:
    runs of consecutive clips of one frame count, as many as keep the pass
    within _STACK_CELLS cells (at least one clip per pass).  The one open
    pass is handed on when the next clip has another frame count or would
    overfill it, and when ``posts`` ends.  A pass is (the index of its
    first clip, its posteriorgrams); the frames of each clip are appended
    to ``clips``, empty at the start, by ``core.admit_clip`` as it
    arrives.  It refuses a clip whose class count differs from the first
    clip's, so the tracks of a pass, numbered clip * C + class, form one
    ascending range, and a clip whose id an earlier clip has, so no two
    clips' events share an id.
    """
    first, members, index_of = 0, [], {}
    for i, post in enumerate(posts):
        admit_clip(clips, index_of, post.frames)
        if members and (post.num_frames != members[0].num_frames
                        or (len(members) + 1) * post.num_classes * post.num_frames > _STACK_CELLS):
            yield first, members
            first, members = i, []
        members.append(post)
    if members:
        yield first, members


# Cap on the live tracks, in cells, that a box search keeps before a
# flush searches their hot cells, sums their segments and merges them.  Each
# of those steps runs once per flush over every kept track, so putting them
# off across passes makes the numpy calls fewer and larger: within one pass
# most segment lengths occur once, and the segments are summed one length at
# a time.  The cap keeps the float64 copies of the live tracks, and the
# segments of a flush, from growing with the clip count.
_CUT_CELLS = 1 << 18


def _segment_arrays(posts: Iterable[Posteriorgram], keys: Sequence[tuple],
                    clips: list[ClipFrames]) -> Iterator[tuple[int, int, tuple]]:
    """Every class track of every clip smoothed and cut at its change points
    under each smoothing key (window, half_width, min_gap), in flushes.

    Each pass is smoothed under every key while it is held.  A track that is
    not live (see ``_hot_cells``) is one segment, summed as its row; a live
    track is kept with its hot cells, and no other array of the pass's size
    outlives the pass.  A flush comes once the kept tracks reach
    ``_CUT_CELLS`` cells, before a pass of another frame count and when
    ``posts`` ends.  It runs one ``_change_points`` search over the hot cells
    of every kept track and one segment sum, and yields (first clip, stop
    clip, segments): the segments of clips [first, stop) as flat arrays
    (track, start frame, length, sum of the smoothed scores), sorted by
    track, then start, where class c of clip i under key k is track k * n +
    (i - first) * C + c of the flush's n class tracks.  The frames of each
    clip are appended to ``clips``.
    """
    kept, found, whole = [], [], []  # per pass and key: live tracks, their hot cells and cuts, the other tracks
    flush_first = kept_cells = t = 0

    def flush(stop: int) -> tuple[int, int, tuple]:
        nonlocal flush_first, kept_cells
        first, n = flush_first, (stop - flush_first) * clips[0].num_classes
        rows = np.concatenate([k * n + ids for k, ids, _ in kept])
        flat = np.concatenate([tracks.ravel() for *_, tracks in kept])
        kept.clear()
        cells, values, cuts = (np.concatenate(column) for column in zip(*found))
        found.clear()
        # segments open at each kept track's first frame and at its change points
        opens = np.concatenate([np.arange(rows.size) * t, _change_points(cells, values, t), cuts])
        del cells, values, cuts
        opens.sort()
        length = np.diff(opens, append=flat.size)
        row, start = np.divmod(opens, t)
        # the segments in one contiguous [m, length] gather per length,
        # summed along its rows: the bits of summing each segment alone
        total = np.empty(opens.size)
        order = np.argsort(length, kind="stable")
        bounds = np.flatnonzero(np.diff(length[order], prepend=-1, append=-1)).tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            same = order[lo:hi]
            total[same] = flat[opens[same, None] + np.arange(length[same[0]])].sum(axis=1)
        idle = np.concatenate([k * n + ids for k, ids, _ in whole])
        segments = (np.concatenate([rows[row], idle]), np.concatenate([start, np.zeros(idle.size, dtype=np.intp)]),
                    np.concatenate([length, np.full(idle.size, t)]),
                    np.concatenate([total, *(sums for *_, sums in whole)]))
        order = np.argsort(segments[0], kind="stable")
        whole.clear()
        flush_first, kept_cells = stop, 0
        return first, stop, tuple(column[order] for column in segments)

    for first, members in _stacked_passes(posts, clips):
        if kept and members[0].num_frames != t:
            yield flush(first)
        t = members[0].num_frames
        stacked = members[0].scores if len(members) == 1 else np.hstack([post.scores for post in members])
        base = (first - flush_first) * members[0].num_classes
        for k, (window, half_width, min_gap) in enumerate(keys):
            tracks = np.ascontiguousarray(moving_average(stacked, window).T)
            live, cells, values, cuts = _hot_cells(tracks, half_width, min_gap)
            idle = np.ones(tracks.shape[0], dtype=bool)
            idle[live] = False
            idle = np.flatnonzero(idle)
            whole.append((k, base + idle, tracks.sum(axis=1)[idle]))
            kept.append((k, base + live, tracks[live]))
            found.append((kept_cells + cells, values, kept_cells + cuts))
            kept_cells += live.size * t
        stop = first + len(members)
        if kept_cells >= _CUT_CELLS:
            yield flush(stop)
    if kept:
        yield flush(stop)


def _greedy_merge_stops(segments: tuple, cand_track: np.ndarray, cand_rel: np.ndarray,
                        cand_abs: np.ndarray) -> tuple:
    """The greedy merge of many segmented tracks in lock step, stopped for
    any number of (rel_merge, abs_merge) candidates per track.

    ``segments`` is (track, start, length, sum), tracks ascending and each
    track's segments in time order; candidate j stops on track
    cand_track[j].
    Each step merges, on every track, the adjacent pair with the smallest
    mean difference (the first pair on a tie).  A candidate stops before the
    step whose difference reaches max(abs_merge, rel_merge * the larger of
    the pair's means), or once one segment is left.  A track is merged only
    until its last candidate stops, and the boxes of a track's state are
    taken once, however many candidates stop there.

    Returns the boxes as (track, start, length, mean, step) arrays, step
    the number of merge steps taken before the box, in (step, track, start)
    order, and, per candidate, the [begin, end) range of its boxes in them.
    The first merge step writes into ``segments``' arrays.
    """
    track, start, length, total = segments
    cand = np.arange(cand_track.size)
    begin = np.empty(cand.size, dtype=np.intp)
    end = np.empty(cand.size, dtype=np.intp)
    boxes = [(track[:0], start[:0], length[:0], total[:0], track[:0])]
    emitted = step = 0
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
        boxes.append((track[shown], start[shown], length[shown], means[shown], np.full(per_track.sum(), step)))
        emitted += boxes[-1][0].size
        step += 1
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


def _box_sets(posts: Iterable[Posteriorgram], grid: Sequence[CsebbParams],
              class_names: Sequence[str] | None) -> tuple[EventTable, list[np.ndarray]]:
    """The boxes of all clips under every parameter set of ``grid``, as the
    table of the distinct boxes and, per parameter set, the index array of
    its boxes among them in (clip, class, time) order.

    Track clip * C + class is class ``track % C`` of clip ``track // C``,
    every clip having C classes.  A candidate entry is one (smoothing key,
    class, rel_merge, abs_merge) that some parameter set asks of every track
    of that class, one candidate per clip.  The clips are segmented under
    every smoothing key as they arrive, each clip checked first, and each
    flush of ``_segment_arrays`` is merged at once for the candidates of its
    clips: a track's merge reads only its own segments, so it stops where a
    merge of every track in lock step would.  Only the flush's boxes, each
    with its merge step, and each candidate's range of them are kept.  Once
    ``posts`` ends, the boxes are ordered by (merge step, smoothing key,
    track, start), as one lock-step merge of every track would emit them,
    and parameter sets that reach the same merge state share its boxes by
    index.
    """
    # smoothing keys in the order the parameter sets first ask for them
    keys: dict[tuple, int] = {}
    for params in grid:
        for p in [params.default] if class_names is None else map(params.for_class, class_names):
            keys.setdefault((p.window, p.half_width, p.min_gap), len(keys))

    def checked():
        for post in posts:
            if class_names is not None and len(class_names) != post.num_classes:
                raise ValueError("class_names length must match the posteriorgram")
            yield post

    clips: list[ClipFrames] = []
    entries: dict[tuple, int] = {}
    picks = []  # per parameter set, the entry of each class
    held = []  # per flush: its boxes' (step, key, track, start, end, mean), its candidates' first box and count
    emitted = 0
    for first, stop, segments in _segment_arrays(checked(), list(keys), clips):
        n_classes = clips[0].num_classes
        if not picks:
            for params in grid:
                chosen = [params.default] * n_classes if class_names is None else map(params.for_class, class_names)
                picks.append([
                    entries.setdefault((keys[p.window, p.half_width, p.min_gap], c, p.rel_merge, p.abs_merge),
                                       len(entries))
                    for c, p in enumerate(chosen)
                ])
        n = (stop - first) * n_classes
        if n == 0:
            continue
        # entry e's candidates are e * clips + clip, over the flush's clips
        (track, start, length, mean, step), lo, hi = _greedy_merge_stops(
            segments,
            np.concatenate([k * n + np.arange(c, n, n_classes) for k, c, _, _ in entries]),
            np.repeat([rel for _, _, rel, _ in entries], stop - first),
            np.repeat([abs_ for _, _, _, abs_ in entries], stop - first),
        )
        key, track = np.divmod(track, n)
        # in 32 bits: the boxes of every flush are held until the clips end
        held.append((tuple(column.astype(np.int32) for column in (step, key, first * n_classes + track, start,
                                                                   start + length)) + (mean,),
                     (emitted + lo).astype(np.int32).reshape(len(entries), -1),
                     (hi - lo).astype(np.int32).reshape(len(entries), -1)))
        emitted += track.size
    if not held:
        none = np.zeros(0, dtype=np.intp)
        return _frame_events(clips, none, none, none, none, np.zeros(0)), [none for _ in grid]
    step, key, track, start, end, mean = (np.concatenate(column) for column in zip(*(boxes for boxes, _, _ in held)))
    begin = np.concatenate([begin for _, begin, _ in held], axis=1)
    count = np.concatenate([count for *_, count in held], axis=1)
    del held
    # a stable sort: the flushes come in clip order, and a flush's boxes of
    # one step and key in track order
    order = np.lexsort((key, step))
    del step, key
    # where each box moves to; an empty range's first box may be one past the end
    moved = np.empty(order.size + 1, dtype=np.intp)
    moved[order] = np.arange(order.size)
    moved[-1] = order.size
    clip, cls = np.divmod(track[order].astype(np.intp), n_classes)
    start, end, mean = start[order].astype(np.intp), end[order].astype(np.intp), np.minimum(mean[order], 1.0)
    del track, order
    boxes = _frame_events(clips, clip, cls, start, end, mean)
    del start, end, mean
    sets = []
    for pick in picks:
        # per clip, per class: the boxes of its entry's candidate
        lo, n = moved[begin[pick].T.ravel()], count[pick].T.ravel()
        sets.append(np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(n.sum()))
    return boxes, sets


def csebb_detect(
    posts: Iterable[Posteriorgram],
    params: CsebbParams = CsebbParams(),
    class_names: Sequence[str] | None = None,
) -> EventTable:
    """Change-point sound event bounding box detector, over many clips.

    Per class track: smooth it, locate change points with a two-sided step
    filter, partition the clip at those points, greedily merge segments with
    similar means, and emit every merged segment whose mean smoothed score
    clears the noise floor as a box with confidence = that mean.  The boxes
    of all ``posts`` come back as one table in (clip, class, time) order, equal
    to those of one clip at a time; this is the one-candidate case of
    ``tune_csebb``'s search.
    """
    boxes, (index,) = _box_sets(posts, [params], class_names)
    return boxes.take(index)


def ensemble_average(posts: Sequence[Posteriorgram]) -> Posteriorgram:
    """Cell-wise mean of aligned posteriorgrams (same clip, shape, rate),
    summed in float64 whatever the scores' dtype, so float32 scores give the
    bits of their float64 copy."""
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
    mean = np.mean([p.scores for p in posts], axis=0, dtype=np.float64)
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
    posts: Iterable[Posteriorgram],
    grid: Sequence[CsebbParams],
    metric: Callable[[EventTable, list[np.ndarray]], Sequence[float]],
    class_names: Sequence[str] | None = None,
) -> CsebbParams:
    """Grid-search the detector parameters against a validation metric
    (per-class parameters tuned on validation data: Ebbers et al., "Sound
    event bounding boxes", Interspeech 2024).

    Each candidate is scored on exactly the boxes ``csebb_detect`` gives,
    all found in one search: each pass of clips is segmented under every
    smoothing key while it is held, each flush of segments is merged once
    for every (rel_merge, abs_merge) pair and dropped, so only boxes are
    kept, and candidates reaching the same merge state share its boxes by
    index.  ``metric(boxes, sets)`` takes the table of the
    distinct boxes and, per candidate in grid order, the index array of its
    boxes among them, and returns one score per candidate, so a PSDS metric
    can run one ``evaluation.roc_from_confidences`` sweep over the whole
    grid.  It is called once every clip has been read, so it may read what
    it scores against (the references) only then.

    Ties break toward the smaller smoothing window, then lexicographically
    over the remaining parameters, so results never depend on grid order.
    """
    if not grid:
        raise ValueError("parameter grid is empty")
    scores = list(metric(*_box_sets(posts, grid, class_names)))
    if len(scores) != len(grid):
        raise ValueError(f"metric gave {len(scores)} scores for {len(grid)} candidates")
    best_score = max(scores)
    contenders = [cand for score, cand in zip(scores, grid) if score == best_score]
    contenders.sort(key=lambda c: c.sort_key(class_names))
    return contenders[0]

