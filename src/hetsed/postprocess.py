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
the mix of clip lengths.  Every clip has the first clip's class count, so
the tracks clip * C + class of a pass form one ascending range, and an id
that no earlier clip has.

Box detection (``csebb_detect`` for one parameter set, ``tune_csebb`` for a
grid) treats all clips and candidates as one problem.  Each pass is smoothed
and cut together under every smoothing key (window, half_width, min_gap)
into flat per-segment arrays.  Only the tracks whose step response exceeds
min_gap somewhere can be cut, so only those go through the change-point
search; a track left uncut is one segment summed as a whole row, and the
cut tracks are kept, up to ``_CUT_CELLS`` cells, until their segments are
summed.  Once the clips end, one greedy merge runs in lock step over every
track of every key, and each (rel_merge, abs_merge) candidate reads its
boxes off the step where it stops.  The boxes are built once, and each
candidate holds the index array of its boxes among them, so candidates
that reach the same merge state share boxes by index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import ClipFrames, EventTable, Posteriorgram, frame_time

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

    A kept plateau opens at a value above min_gap, so only the live rows,
    those with |d| above min_gap somewhere, are searched.  Each |d| is a
    rounded difference of two values of its row, and rounding is monotonic,
    so it cannot exceed the row's rounded range: |d| is taken only on rows
    whose range exceeds min_gap, the others being flat.  Live plateaus
    come from one vectorised pass that chains consecutive values within the
    tolerance.  Chaining and the anchored rule agree unless a chained run
    drifts past the tolerance from its first value, or the value after it is
    back within the tolerance of that first value; only a row where either
    happens is rescanned with the anchored rule.  The candidate tests run on
    the dense [live rows, T] grid: the left side at each plateau's first
    frame, carried to its last frame, and the right side at the last frame,
    so only the kept plateaus are listed.
    """
    t = tracks.shape[1]
    rows = np.flatnonzero(tracks.max(axis=1) - tracks.min(axis=1) > min_gap)
    padded = _edge_padded(tracks[rows], half_width, axis=1)
    a = np.abs(padded[:, 2 * half_width :] - padded[:, :t])
    live = np.flatnonzero((a > min_gap).any(axis=1))
    a = a[live]
    live = rows[live]
    k = live.size
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
    # the midpoint rounded up, in the plateau's row, then in the live row's track
    row, frame = np.divmod((first.ravel()[last] + last + 1) // 2, t)
    return live[row] * t + frame


# Cap on one stacked pass, in [rows, T] cells (a row is a class track), for
# both pass kinds: a box search's segmentation pass and a threshold pass.
# It bounds what a command holds of a directory's scores, for any mix of
# clip lengths: the one open pass (its clips' float32 scores, which the
# consumer keeps only until the pass is handed on) and that pass's work
# arrays.  A segmentation pass holds its smoothed tracks and their step
# response, and the dozen arrays of the change-point search over its live
# rows only; a threshold pass holds a few bool and integer blocks of that
# size.  It also trades speed against
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
    to ``clips``, empty at the start, as it arrives.  A clip whose class
    count differs from the first clip's is refused, so the tracks of a
    pass, numbered clip * C + class, form one ascending range.  So is a
    clip whose id an earlier clip has, so no two clips' events share an id.
    """
    first, members, index_of = 0, [], {}
    for i, post in enumerate(posts):
        if clips and post.num_classes != clips[0].num_classes:
            raise ValueError(f"clip {post.clip_id!r} has {post.num_classes} classes, "
                             f"the first clip {clips[0].num_classes}")
        if index_of.setdefault(post.clip_id, i) != i:
            raise ValueError(f"clip {i} has the id {post.clip_id!r} of clip {index_of[post.clip_id]}")
        clips.append(post.frames)
        if members and (post.num_frames != members[0].num_frames
                        or (len(members) + 1) * post.num_classes * post.num_frames > _STACK_CELLS):
            yield first, members
            first, members = i, []
        members.append(post)
    if members:
        yield first, members


# Cap on the cut tracks, in cells, that a box search keeps before summing
# their segments.  The segments are summed one length at a time over all the
# kept tracks, and within one pass most lengths occur once, so the sums are
# put off across passes to make the gathers fewer and larger; the cap keeps
# the float64 copies of the cut tracks from growing with the clip count.
_CUT_CELLS = 1 << 18


def _segment_arrays(posts: Iterable[Posteriorgram], keys: Sequence[tuple], clips: list[ClipFrames]) -> list[tuple]:
    """Every class track of every clip smoothed and cut at its change points
    under each smoothing key (window, half_width, min_gap), per key as flat
    per-segment arrays (track, start frame, length, sum of the smoothed
    scores).  Tracks are numbered clip * C + class, each pass's from the
    index of its first clip; each pass is segmented under every key while
    it is held, and the frames of each clip are appended to ``clips``."""
    none = np.zeros(0, dtype=np.intp)
    parts = [[(none, none, none, np.zeros(0))] for _ in keys]
    kept, pending = [], []  # cut tracks, and (total, cut segments, their opens in the kept cells, lengths)
    kept_cells = 0

    def sum_cut_segments() -> None:
        # the segments of the kept tracks in one contiguous [m, n] gather
        # per length, summed along its rows: the bits of summing each
        # segment of its track alone
        nonlocal kept_cells
        flat = np.concatenate(kept)
        opens = np.concatenate([opens for _, _, opens, _ in pending])
        length = np.concatenate([length for _, _, _, length in pending])
        sums = np.empty(opens.size)
        order = np.argsort(length, kind="stable")
        bounds = np.flatnonzero(np.diff(length[order], prepend=-1, append=-1)).tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            same = order[lo:hi]
            sums[same] = flat[opens[same, None] + np.arange(length[same[0]])].sum(axis=1)
        done = 0
        for total, cut, _, _ in pending:
            total[cut] = sums[done : done + cut.size]
            done += cut.size
        kept.clear()
        pending.clear()
        kept_cells = 0

    for first, members in _stacked_passes(posts, clips):
        stacked = members[0].scores if len(members) == 1 else np.hstack([post.scores for post in members])
        first_track = first * members[0].num_classes
        for (window, half_width, min_gap), segments in zip(keys, parts):
            tracks = np.ascontiguousarray(moving_average(stacked, window).T)
            rows, t = tracks.shape
            # segments open at each row's first frame and at its change
            # points, as flat indices into the [rows, t] tracks
            opens = np.sort(np.concatenate([np.arange(rows) * t, _change_points(tracks, half_width, min_gap)]))
            length = np.diff(opens, append=rows * t)
            row, start = np.divmod(opens, t)
            # an uncut track is one segment, summed as its row; a cut track
            # is kept until its segments are summed
            total = np.empty(opens.size)
            whole = length == t
            total[whole] = tracks[row[whole]].sum(axis=1)
            cut = np.flatnonzero(~whole)
            cut_rows, slot = np.unique(row[cut], return_inverse=True)
            kept.append(tracks[cut_rows].ravel())
            pending.append((total, cut, kept_cells + slot * t + start[cut], length[cut]))
            kept_cells += cut_rows.size * t
            segments.append((first_track + row, start, length, total))
        if kept_cells >= _CUT_CELLS:
            sum_cut_segments()
    if pending:
        sum_cut_segments()
    return [tuple(np.concatenate(columns) for columns in zip(*segments)) for segments in parts]


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

    Returns the boxes as (track, start, length, mean) arrays and, per
    candidate, the [begin, end) range of its boxes in them.  The first merge
    step writes into ``segments``' arrays.
    """
    track, start, length, total = segments
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


def _box_sets(posts: Iterable[Posteriorgram], grid: Sequence[CsebbParams],
              class_names: Sequence[str] | None) -> tuple[EventTable, list[np.ndarray]]:
    """The boxes of all clips under every parameter set of ``grid``, as the
    table of the distinct boxes and, per parameter set, the index array of
    its boxes among them in (clip, class, time) order.

    Track clip * C + class is class ``track % C`` of clip ``track // C``,
    every clip having C classes.  A candidate entry is one (smoothing key,
    class, rel_merge, abs_merge) that some parameter set asks of every track
    of that class, one candidate per clip.  Each pass of clips is segmented
    under every smoothing key as it arrives, each clip checked first; once
    ``posts`` ends, one lock-step merge serves every entry, and parameter
    sets that reach the same merge state share its boxes by index.
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
    segments = _segment_arrays(checked(), list(keys), clips)
    n_clips = len(clips)
    n_classes = clips[0].num_classes if clips else 0
    n_tracks = n_clips * n_classes
    if n_tracks == 0:
        none = np.zeros(0, dtype=np.intp)
        return _frame_events(clips, none, none, none, none, np.zeros(0)), [none for _ in grid]
    entries: dict[tuple, int] = {}
    picks = []  # per parameter set, the entry of each class
    for params in grid:
        chosen = [params.default] * n_classes if class_names is None else map(params.for_class, class_names)
        picks.append([
            entries.setdefault((keys[p.window, p.half_width, p.min_gap], c, p.rel_merge, p.abs_merge), len(entries))
            for c, p in enumerate(chosen)
        ])
    for k, (track, *_) in enumerate(segments):
        track += k * n_tracks
    segments = tuple(columns[0] if len(columns) == 1 else np.concatenate(columns) for columns in zip(*segments))
    # entry e's candidates are e * n_clips + clip
    (track, start, length, mean), begin, end = _greedy_merge_stops(
        segments,
        np.concatenate([k * n_tracks + np.arange(c, n_tracks, n_classes) for k, c, _, _ in entries]),
        np.repeat([rel for _, _, rel, _ in entries], n_clips),
        np.repeat([abs_ for _, _, _, abs_ in entries], n_clips),
    )
    clip, cls = np.divmod(track % n_tracks, n_classes)
    boxes = _frame_events(clips, clip, cls, start, start + length, np.minimum(mean, 1.0))
    sets = []
    for pick in picks:
        cand = (np.arange(n_clips)[:, None] + n_clips * np.array(pick)).ravel()
        lo, n = begin[cand], end[cand] - begin[cand]
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
    smoothing key while it is held, one merge serves every (rel_merge,
    abs_merge) pair, and candidates reaching the same merge state share its
    boxes by index.  ``metric(boxes, sets)`` takes the table of the
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

