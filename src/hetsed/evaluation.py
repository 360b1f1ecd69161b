"""Detection metrics: intersection-based PSDS and segment-based mPAUC.

PSDS scores timestamped events: a detection is valid when it overlaps
same-class references by at least rho_dtc of its own duration, a reference
counts as found when valid detections cover at least rho_gtc of it, and the
score is the normalized area under the effective-TPR vs effective-FPR curve
obtained by sweeping the detection confidences.  The sweep makes one pass
(Ebbers, Haeb-Umbach & Serizel, ICASSP 2022): each detection is classified
against the references once and each reference records the threshold at
which it is found, so the whole curve costs about O(N log N + overlapping
pairs) for N detections rather than one re-match per threshold.  One sweep
also scores many detection sets against the same references (the grid of
a ``tune-csebb`` search).  The sets index one pool of detections, so a
detection that several sets share by index is read and classified once,
and their thresholds are keyed by set, so the cost is that of one sweep
over all their detections, not one per set.

mPAUC scores one-second segments per class by the partial area under the
ROC up to a maximum false positive rate, McClish-standardized so chance
sits at 0.5, then macro averaged.  ``segment_scores`` takes the clips as an
iterable and pools each one as it arrives, keeping only its segment rows,
and ``segmentize`` reads only the clips' frame grids, so a stream of
posteriorgrams is scored without holding its scores.  Both admit each
clip by ``core.admit_clip``, the stream rule that the post-processing
passes apply too: every clip has the first clip's class count and an id
of its own, which its references name.  The ranking joint score is simply
PSDS + mPAUC.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import ClipFrames, EventTable, Posteriorgram, _expand, admit_clip, check_class_range, frame_spans

SECONDS_PER_HOUR = 3600.0
SEGMENT_SECONDS = 1.0
MAX_FPR = 0.1
HARD_LABEL_THRESHOLD = 0.5


@dataclass(frozen=True)
class PsdsConfig:
    """DCASE 2024 Task 4 scenario 1 by default; cross-triggers are not scored
    (scenario 1 weighs them 0)."""

    rho_dtc: float = 0.7  # detection tolerance: intersection / detection length
    rho_gtc: float = 0.7  # ground truth intersection: coverage / reference length
    alpha_st: float = 1.0  # across-class instability penalty on the TPR
    e_max: float = 100.0  # FP-per-hour integration limit

    def __post_init__(self) -> None:
        if not 0.0 < self.e_max < math.inf:
            raise ValueError(f"e_max must be finite and > 0, got {self.e_max}")
        for name in ("rho_dtc", "rho_gtc"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if not 0.0 <= self.alpha_st < math.inf:
            raise ValueError(f"alpha_st must be finite and >= 0, got {self.alpha_st}")


@dataclass(frozen=True, eq=False)
class OperatingPointCurve:
    """Operating points sorted by effective FP rate.

    ``efpr`` is [P] non-decreasing; ``tpr`` is [P, C]; ``included`` marks
    classes that have references (excluded classes carry zero TPR and stay
    out of every average).
    """

    efpr: np.ndarray
    tpr: np.ndarray
    included: np.ndarray

    def __post_init__(self) -> None:
        efpr = np.asarray(self.efpr, dtype=np.float64)
        tpr = np.asarray(self.tpr, dtype=np.float64)
        included = np.asarray(self.included, dtype=bool)
        object.__setattr__(self, "efpr", efpr)
        object.__setattr__(self, "tpr", tpr)
        object.__setattr__(self, "included", included)
        if efpr.ndim != 1 or tpr.ndim != 2 or tpr.shape[0] != efpr.size:
            raise ValueError(f"inconsistent curve shapes: {efpr.shape}, {tpr.shape}")
        if included.shape != (tpr.shape[1],):
            raise ValueError("included mask must have one entry per class")
        # each test holds for real numbers only, so NaN fails it
        if not (np.all(efpr >= 0) and np.all((tpr >= 0) & (tpr <= 1))):
            raise ValueError("efpr must be >= 0 and tpr within [0, 1]")
        if not np.all(np.diff(efpr) >= 0):
            raise ValueError("efpr must be non-decreasing")


def _keyed(group: np.ndarray, value: np.ndarray) -> np.ndarray:
    """(group, value) pairs as complex numbers.  numpy orders complex values
    lexicographically (real part first) in sorts, searches and maximums, so
    one call on keyed values works within every group at once."""
    key = np.empty(np.shape(group), dtype=np.complex128)
    key.real = group
    key.imag = value
    return key


def _union(group: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, ...]:
    """Merge overlapping or touching intervals within each group.

    The intervals come sorted by (group, lo); the merged (group, lo, hi) come
    out sorted the same way.  An interval joins the open merged one when it
    starts at or before the furthest end so far.
    """
    reach = np.maximum.accumulate(_keyed(group, hi)).imag
    new = np.ones(group.size, dtype=bool)
    new[1:] = (group[1:] != group[:-1]) | (lo[1:] > reach[:-1])
    last = np.ones(group.size, dtype=bool)
    last[:-1] = new[1:]
    return group[new], lo[new], reach[last]


def _check_spans(events: EventTable, what: str) -> None:
    """Each event must have finite times and a positive length."""
    lo, hi = events.onset, events.offset
    bad = np.flatnonzero(~(np.isfinite(lo) & np.isfinite(hi) & (hi > lo)))
    if bad.size:
        raise ValueError(f"{what} needs finite times with offset > onset, got {events[int(bad[0])]}")


def _ordered_sums(owner: np.ndarray, terms: np.ndarray, n: int) -> np.ndarray:
    """Per owner 0..n-1, the sum of its terms (``owner`` sorted, terms in
    order), one plain addition per term from left to right, one term per
    owner per numpy pass; an owner without terms gets 0.0."""
    counts = np.bincount(owner, minlength=n)
    starts = np.cumsum(counts) - counts
    total = np.zeros(n)
    for j in range(int(counts.max(initial=0))):
        live = np.flatnonzero(counts > j)
        total[live] += terms[starts[live] + j]
    return total


def _curves(
    counts: np.ndarray, rows: np.ndarray, n_refs: np.ndarray, total_hours: float
) -> list[OperatingPointCurve]:
    """Per set, the step-function curve from its FP and TP counts
    ``counts`` [2, R, C] (FP, then TP) at each of its thresholds.  The rows
    are grouped by set, ``rows[s]`` for set s, and each group opens with a
    (0, 0) top.  Each set's counts are cumulated down its rows, TP is
    replaced by its running max (the upper envelope; FP never decreases down
    a set's rows), and each class's value is read off at every point of the
    set's union grid of rates.

    All of it runs on the integer counts of all sets at once.  Dividing by a
    positive constant keeps their order, so the rates come out as the
    per-set float computation has them, bit for bit; a grid point is kept
    per distinct rate, as the largest FP count that gives that rate.
    """
    n_sets, num_classes = rows.size, counts.shape[2]
    tops = np.cumsum(rows) - rows
    row_set = np.repeat(np.arange(n_sets), rows)
    np.cumsum(counts, axis=1, out=counts)
    counts -= np.repeat(counts[:, tops], rows, axis=1)
    fp, tp = counts
    # running max of TP within a set: lift each set's counts above the last set's
    lift = row_set[:, None] * (n_refs.max(initial=0) + 1)
    tp += lift
    np.maximum.accumulate(tp, axis=0, out=tp)
    tp -= lift
    # each set's FP counts keyed above those of the sets before it, in place
    width = fp[tops + rows - 1].max(axis=1, initial=0) + 1
    offset = np.cumsum(width) - width
    key = fp
    key += offset[row_set][:, None]
    present = np.zeros(int(width.sum()), dtype=bool)
    present[key] = True
    grid = np.flatnonzero(present)
    grid_set = np.searchsorted(offset, grid, side="right") - 1
    efpr = (grid - offset[grid_set]) / total_hours
    last = np.ones(grid.size, dtype=bool)
    last[:-1] = (grid_set[1:] != grid_set[:-1]) | (efpr[1:] != efpr[:-1])
    grid, grid_set, efpr = grid[last], grid_set[last], efpr[last]
    level = np.empty((grid.size, num_classes), dtype=np.intp)
    for c in range(num_classes):
        level[:, c] = np.searchsorted(key[:, c], grid, side="right") - 1
    tpr = np.where(n_refs > 0, np.take_along_axis(tp, level, axis=0) / np.maximum(n_refs, 1), 0.0)
    bounds = np.searchsorted(grid_set, np.arange(n_sets + 1)).tolist()
    return [OperatingPointCurve(efpr=efpr[a:b], tpr=tpr[a:b], included=n_refs > 0)
            for a, b in zip(bounds[:-1], bounds[1:])]


def _levels(negated: np.ndarray, owner: np.ndarray, n_sets: int) -> tuple[np.ndarray, np.ndarray]:
    """Thresholds keyed by (set, -confidence): for each detection the index
    of its level, and for each level its set.  Levels run in key order, so
    each set owns a contiguous range of them, its highest threshold first."""
    order = np.argsort(negated)
    # stable on the narrowest integer type, which numpy radix-sorts
    order = order[np.argsort(owner[order].astype(np.min_scalar_type(n_sets)), kind="stable")]
    value, owner = negated[order], owner[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (owner[1:] != owner[:-1]) | (value[1:] != value[:-1])
    level_of = np.empty(order.size, dtype=np.intp)
    level_of[order] = np.cumsum(new) - 1
    return level_of, owner[new]


def roc_from_confidences(
    dets: EventTable,
    sets: Sequence[np.ndarray],
    refs: EventTable,
    total_hours: float,
    cfg: PsdsConfig,
    num_classes: int,
) -> list[OperatingPointCurve]:
    """Per detection set, the operating point curve from a one-pass sweep
    over its confidences.  ``dets`` is a pool of detections and ``sets[s]``
    an integer index array into it, so sets share detections by index (the
    candidates of a ``tune_csebb`` grid share most of their boxes); one set
    of every detection is ``[np.arange(len(dets))]``.

    Every distinct confidence of a set is a threshold keeping its detections
    with confidence >= that value.  A missing confidence (None) counts as
    1.0, so hard detections give a single operating point.  Classes without
    references are excluded with a warning.

    Each curve equals re-matching the set's kept detections at every
    threshold, bit for bit, without doing so.  A detection's DTC verdict
    depends on the references only, so every detection of the pool is read,
    checked and classified once, however many sets use it.  Each reference
    then takes the DTC-passing detections of a set that overlap it in
    descending-confidence tie groups and records the thresholds where its
    GTC verdict changes (coverage only grows, so once in practice).
    Per-class TP and FP counts at every threshold are cumulative sums over
    the set's sorted thresholds.

    Both coverage tests run on sorted interval arrays per (clip, class), all
    groups at once: binary search finds the reference intervals a detection
    overlaps and the passing detections a reference overlaps, and each
    coverage is summed left to right over the merged intervals in onset
    order, as the interval-by-interval definition sums it (the skipped
    intervals would add 0.0).  The thresholds are keyed by (set,
    confidence), so each set owns a contiguous range of levels, and each
    reference's hits are regrouped by set, so a step unions only its own
    set's hits.  Cost: O((N + M) log(N + M)) for N indices over all sets and
    M references, plus numpy passes over the overlapping (detection,
    reference interval) pairs and, per reference, over its overlapping
    detections at each of its thresholds, against O(thresholds x N) for
    re-matching.  Memory grows with the indices swept together, so runs of
    whole sets are swept in passes of at most ``_SWEEP_DETECTIONS`` indices
    (or one set).
    """
    if total_hours <= 0:
        raise ValueError(f"total_hours must be > 0, got {total_hours}")
    check_class_range(refs.class_idx, num_classes, "reference class index")
    n_refs = np.bincount(refs.class_idx, minlength=num_classes)
    excluded = np.flatnonzero(n_refs == 0)
    if excluded.size:
        warnings.warn(f"classes without references excluded from PSDS: {excluded.tolist()}", stacklevel=2)
    confidences = dets.value
    bad = np.flatnonzero(~((confidences >= 0.0) & (confidences <= 1.0)))
    if bad.size:
        raise ValueError(f"detection confidence must be in [0, 1], got {dets[int(bad[0])]}")

    # references: one group per (clip, class), sorted by (group, onset)
    clip_index: dict[str, int] = {}
    r_clip = np.array([clip_index.setdefault(clip_id, len(clip_index)) for clip_id in refs.clip_ids], dtype=np.int64)
    r_group = r_clip[refs.clip] * num_classes + refs.class_idx
    r_lo, r_hi = refs.onset, refs.offset
    _check_spans(refs, "reference")
    order = np.argsort(_keyed(r_group, r_lo), kind="stable")
    r_group, r_lo, r_hi = r_group[order], r_lo[order], r_hi[order]

    # DTC: the part of each detection that the merged references cover; a
    # detection of a class outside [0, num_classes) is not scored, and one
    # on a clip without references covers nothing, so it is a false positive
    d_lo, d_hi, d_class = dets.onset, dets.offset, dets.class_idx
    _check_spans(dets, "detection")
    d_clip = np.array([clip_index.get(clip_id, -1) for clip_id in dets.clip_ids], dtype=np.int64)[dets.clip]
    scored = (d_class >= 0) & (d_class < num_classes)
    d_group = np.where(scored & (d_clip >= 0), d_clip * num_classes + d_class, -1)
    passes = _dtc_coverage(d_group, d_lo, d_hi, *_union(r_group, r_lo, r_hi)) / (d_hi - d_lo) >= cfg.rho_dtc
    pool = (confidences, scored, passes, d_class, d_group, d_lo, d_hi)

    curves: list[OperatingPointCurve] = []
    for group in _sweep_groups(sets):
        # the counting pass's arrays are freed before the curves are built,
        # and its counts before the next pass
        curves += _curves(*_counts(group, pool, r_group, r_lo, r_hi, cfg.rho_gtc, num_classes), n_refs, total_hours)
    return curves


# Cap on the indices of one counting pass: its arrays grow with the
# detections of every set it sweeps, so a larger grid takes several passes.
_SWEEP_DETECTIONS = 1 << 15


def _sweep_groups(sets: Sequence[np.ndarray]):
    """Consecutive runs of the sets, each within _SWEEP_DETECTIONS indices
    (at least one set per run)."""
    group: list[np.ndarray] = []
    size = 0
    for index in sets:
        if group and size + len(index) > _SWEEP_DETECTIONS:
            yield group
            group, size = [], 0
        group.append(index)
        size += len(index)
    if group:
        yield group


def _counts(sets: Sequence[np.ndarray], pool: tuple, r_group: np.ndarray, r_lo: np.ndarray,
            r_hi: np.ndarray, rho_gtc: float, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """FP and TP counts [2, R, C] per row and class, and the number of rows
    of each set: each set's (0, 0) top, then one row per level.  ``pool``
    holds the per-detection arrays (confidence, scored, DTC verdict,
    class, group, onset, offset) that ``sets`` index."""
    confidences, scored, passes, d_class, d_group, d_lo, d_hi = pool
    n_sets = len(sets)
    which = np.concatenate(sets)
    # level t holds the detections of its set kept from the set's t-th
    # highest threshold on
    level_of, level_set = _levels(-confidences[which], np.repeat(np.arange(n_sets), list(map(len, sets))), n_sets)
    kept = scored[which]
    d_which, d_level = which[kept], level_of[kept]
    ok = passes[d_which]
    fp_level, fp_class = d_level[~ok], d_class[d_which[~ok]]

    # GTC: the passing detections in onset order
    p_which, p_level = d_which[ok], d_level[ok]
    order = np.argsort(_keyed(d_group[p_which], d_lo[p_which]), kind="stable")
    p_which, p_level = p_which[order], p_level[order]
    s_ref, s_level, found, first_step = _gtc_steps(
        d_group[p_which], p_level, d_lo[p_which], d_hi[p_which], r_group, r_lo, r_hi, level_set, rho_gtc,
    )

    # one row per level below its set's (0, 0) top
    row_of = np.arange(level_set.size) + level_set + 1
    counts = np.zeros((2, level_set.size + n_sets, num_classes), dtype=np.int64)
    cells = row_of[fp_level] * num_classes + fp_class
    counts[0] = np.bincount(cells, minlength=counts[0].size).reshape(counts[0].shape)
    # an uncovered reference is found only when rho_gtc is 0
    found_uncovered = 0.0 >= rho_gtc
    r_class = r_group % num_classes
    if found_uncovered:
        first_levels = np.flatnonzero(np.diff(level_set, prepend=-1))
        counts[1, row_of[first_levels]] += np.bincount(r_class, minlength=num_classes)
    previous = np.where(first_step, found_uncovered, np.roll(found, 1))
    np.add.at(counts[1], (row_of[s_level], r_class[s_ref]), found.astype(np.int64) - previous)
    return counts, np.bincount(level_set, minlength=n_sets) + 1


def _dtc_coverage(group: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  m_group: np.ndarray, m_lo: np.ndarray, m_hi: np.ndarray) -> np.ndarray:
    """The part of each interval (group, lo, hi) that the merged intervals
    of its group cover, summed left to right."""
    det, iv = _expand(
        np.searchsorted(_keyed(m_group, m_hi), _keyed(group, lo), side="right"),
        np.searchsorted(_keyed(m_group, m_lo), _keyed(group, hi), side="left"),
    )
    overlap = np.minimum(hi[det], m_hi[iv]) - np.maximum(lo[det], m_lo[iv])
    return _ordered_sums(det, overlap, group.size)


def _gtc_steps(p_group: np.ndarray, p_level: np.ndarray, p_lo: np.ndarray, p_hi: np.ndarray,
               r_group: np.ndarray, r_lo: np.ndarray, r_hi: np.ndarray, level_set: np.ndarray,
               rho_gtc: float) -> tuple[np.ndarray, ...]:
    """The GTC verdict of each reference at each level where its own set's
    passing detections (sorted by group, then onset) add a hit: (reference,
    level, found, first step of its (reference, set)) per step, steps sorted
    by (reference, level)."""
    # sets past the last one with levels have no hits
    n_sets, n_levels = int(level_set.max(initial=0)) + 1, level_set.size
    ref, hit = _expand(
        # the detections before the first whose group's running max offset
        # exceeds the reference onset all end at or before that onset
        np.searchsorted(np.maximum.accumulate(_keyed(p_group, p_hi)), _keyed(r_group, r_lo), side="right"),
        np.searchsorted(_keyed(p_group, p_lo), _keyed(r_group, r_hi), side="left"),
    )
    overlapping = p_hi[hit] > r_lo[ref]
    ref, hit = ref[overlapping], hit[overlapping]
    # each reference's hits regrouped by set, onset order kept within a set
    pair = ref * n_sets + level_set[p_level[hit]]
    order = np.argsort(pair, kind="stable")
    pair, hit = pair[order], hit[order]
    # one step per (reference, level of one of its hits), levels ascending
    # (so sets ascending too); a step covers the reference with its set's
    # hits of that level or lower
    steps = np.sort(pair // n_sets * n_levels + p_level[hit])
    new = np.ones(steps.size, dtype=bool)
    new[1:] = steps[1:] != steps[:-1]
    s_ref, s_level = np.divmod(steps[new], n_levels)
    s_pair = s_ref * n_sets + level_set[s_level]
    step, member = _expand(np.searchsorted(pair, s_pair), np.searchsorted(pair, s_pair, side="right"))
    kept = p_level[hit[member]] <= s_level[step]
    step, member = step[kept], member[kept]
    c_step, c_lo, c_hi = _union(step, p_lo[hit[member]], p_hi[hit[member]])
    s_lo, s_hi = r_lo[s_ref], r_hi[s_ref]
    overlap = np.minimum(s_hi[c_step], c_hi) - np.maximum(s_lo[c_step], c_lo)
    found = _ordered_sums(c_step, overlap, s_ref.size) / (s_hi - s_lo) >= rho_gtc
    first = np.ones(s_ref.size, dtype=bool)
    first[1:] = s_pair[1:] != s_pair[:-1]
    return s_ref, s_level, found, first


def psds(curve: OperatingPointCurve, cfg: PsdsConfig = PsdsConfig()) -> float:
    """Normalized area under the effective TPR as a step function of eFPR.

    Effective TPR at a grid point is mean - alpha_st * std of the per-class
    TPRs (included classes), clamped at zero; the step value holds until the
    next point and the area is normalized by e_max.
    """
    if not curve.included.any():
        return 0.0
    tpr = curve.tpr[:, curve.included]
    etpr = np.maximum(0.0, tpr.mean(axis=1) - cfg.alpha_st * tpr.std(axis=1))
    e = curve.efpr
    e_next = np.append(e[1:], cfg.e_max)
    # points at or past e_max add nothing; of duplicate eFPR values only
    # the last (envelope max) step counts
    step = (e < cfg.e_max) & (e_next != e)
    terms = (np.minimum(e_next[step], cfg.e_max) - e[step]) * etpr[step]
    # added one term at a time, left to right, onto 0.0
    return float(np.add.accumulate(np.concatenate([[0.0], terms]))[-1] / cfg.e_max)


def _segment_count(duration: float, segment: float) -> int:
    # the segments [0, duration) meets on a grid without an end (2**62
    # segments, a count a float64 holds exactly)
    if not 0.0 < segment < float("inf"):
        raise ValueError(f"segment must be a finite length > 0 s, got {segment}")
    return int(frame_spans(0.0, duration, segment, 2**62)[1])


def _segment_runs(t: int, fp: float, segment: float, n_segments: int) -> tuple[np.ndarray, np.ndarray]:
    """The segments that t frames of fp seconds fall in by the rule of
    ``segment_scores``, as runs: the segment of each run and the frame that
    opens it.  A frame past the last segment joins it."""
    seg_idx = np.minimum(np.floor((np.arange(t) + 0.5) * fp / segment).astype(np.int64), n_segments - 1)
    # seg_idx never decreases, so each segment's frames form one run
    runs = np.flatnonzero(np.diff(seg_idx, prepend=-1))
    return seg_idx[runs], runs


def _segment_pools(segment: float) -> Callable[[ClipFrames], tuple[int, np.ndarray, np.ndarray]]:
    """Per clip, its segment count and its (segment of each frame run,
    frame that opens it), found once per clip shape.  A bad segment raises
    at the first clip."""
    shapes: dict[tuple[int, float], tuple[int, np.ndarray, np.ndarray]] = {}

    def pool(frames: ClipFrames) -> tuple[int, np.ndarray, np.ndarray]:
        shape = (frames.num_frames, frames.frame_period)
        if shape not in shapes:
            count = _segment_count(frames.duration, segment)
            shapes[shape] = (count, *_segment_runs(*shape, segment, count))
        return shapes[shape]

    return pool


def segment_scores(posts: Iterable[Posteriorgram], segment: float = SEGMENT_SECONDS) -> np.ndarray:
    """Max-pool frame scores into segments: [S, C], each clip's
    ceil(T*fp / segment) rows stacked in clip order.

    Frames are binned by their center time: frame k of period fp falls in
    segment floor((k + 0.5) * fp / segment).  A segment that no frame's
    center falls in scores 0.  The frame runs of a clip shape are found
    once, and each clip is pooled by one reduceat into its rows as it
    arrives, so only its rows and frames outlive it.  Each clip is admitted
    by ``core.admit_clip`` as it arrives: a clip of another class count
    than the first's, or of an id an earlier clip has, is refused.
    """
    pool = _segment_pools(segment)
    clips, index_of, rows = [], {}, []
    for post in posts:
        admit_clip(clips, index_of, post.frames)
        count, seg, runs = pool(clips[-1])
        block = np.zeros((count, post.num_classes))
        block[seg] = np.maximum.reduceat(post.scores, runs, axis=0)
        rows.append(block)
    if not rows:
        raise ValueError("need at least one posteriorgram")
    return np.concatenate(rows)


def segmentize(refs: EventTable, posts: Iterable[Posteriorgram | ClipFrames],
               segment: float = SEGMENT_SECONDS) -> np.ndarray:
    """Soft segment labels on the rows of ``segment_scores(posts, segment)``:
    the max value of the references of a clip's id overlapping each of its
    segments, by the ``frame_spans`` rule.

    Only the clips' frame grids are read, so ``posts`` may be the
    ``ClipFrames`` kept of a stream of posteriorgrams that
    ``segment_scores`` has consumed.  The value of a hard event (confidence
    None) is 1.0.  Harden against a threshold downstream for mPAUC.  The
    spans of all references come from one ``frame_spans`` call, and their
    cells are written by one unbuffered max.  Each clip is admitted by
    ``core.admit_clip`` as it is read, so a clip of another class count
    than the first's, or of an id an earlier clip has, is refused first.
    Then, after a bad segment, the first clip shorter than one segment is
    refused, as are references of a class that no posteriorgram has and
    references of a clip id that no posteriorgram has.
    """
    clips, index_of = [], {}
    for post in posts:
        admit_clip(clips, index_of, post.frames)
    if not clips:
        raise ValueError("need at least one posteriorgram")
    pool = _segment_pools(segment)
    n = np.array([pool(frames)[0] for frames in clips], dtype=np.int64)
    top = np.cumsum(n) - n
    for frames in clips:
        if frames.duration < segment:
            raise ValueError(f"duration {frames.duration} shorter than one segment {segment}")
    num_classes = clips[0].num_classes
    check_class_range(refs.class_idx, num_classes)
    missing = sorted({refs.clip_ids[i] for i in np.unique(refs.clip).tolist()} - index_of.keys())
    if missing:
        raise ValueError(f"references for clips without posteriors: {missing[:5]}")
    clip = np.array([index_of.get(clip_id, -1) for clip_id in refs.clip_ids], dtype=np.int64)[refs.clip]
    first, stop = frame_spans(refs.onset, refs.offset, segment, n[clip])
    owner, cell = _expand(top[clip] + first, top[clip] + stop)
    labels = np.zeros((int(n.sum()), num_classes))
    np.maximum.at(labels, (cell, refs.class_idx[owner]), refs.value[owner])
    return labels


def binary_roc(labels: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ROC points from a descending threshold sweep, tie groups collapsed,
    starting at (0, 0).  Returns (fpr, tpr)."""
    labels = np.asarray(labels, dtype=bool)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs at least one positive and one negative")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    tps = np.cumsum(labels[order])
    fps = np.cumsum(~labels[order])
    keep = np.flatnonzero(np.diff(np.append(sorted_scores, -np.inf)) != 0)
    fpr = np.concatenate([[0.0], fps[keep] / n_neg])
    tpr = np.concatenate([[0.0], tps[keep] / n_pos])
    return fpr, tpr


def partial_auc_standardized(fpr: np.ndarray, tpr: np.ndarray, max_fpr: float = MAX_FPR) -> float:
    """Partial ROC area up to max_fpr (linear boundary interpolation),
    McClish-standardized so chance = 0.5 and perfect = 1.0."""
    if not 0.0 < max_fpr <= 1.0:
        raise ValueError(f"max_fpr must be in (0, 1], got {max_fpr}")
    if max_fpr < fpr[-1]:
        stop = int(np.searchsorted(fpr, max_fpr, side="right"))
        boundary_tpr = np.interp(max_fpr, fpr[stop - 1 : stop + 1], tpr[stop - 1 : stop + 1])
        fpr = np.concatenate([fpr[:stop], [max_fpr]])
        tpr = np.concatenate([tpr[:stop], [boundary_tpr]])
    area = float(np.trapezoid(tpr, fpr))
    min_area = 0.5 * max_fpr**2
    max_area = max_fpr
    return 0.5 * (1.0 + (area - min_area) / (max_area - min_area))


def mpauc_per_class(
    scores: np.ndarray, hard_labels: np.ndarray, max_fpr: float = MAX_FPR
) -> np.ndarray:
    """Standardized partial AUC per class; NaN where a class lacks positives
    or negatives (those classes are excluded with a warning)."""
    scores = np.asarray(scores, dtype=np.float64)
    hard_labels = np.asarray(hard_labels).astype(bool)
    if scores.shape != hard_labels.shape or scores.ndim != 2:
        raise ValueError(f"scores and labels must share [S, C] shape, got {scores.shape} / {hard_labels.shape}")
    out = np.full(scores.shape[1], np.nan)
    excluded = []
    for c in range(scores.shape[1]):
        pos = int(hard_labels[:, c].sum())
        if pos == 0 or pos == scores.shape[0]:
            excluded.append(c)
            continue
        fpr, tpr = binary_roc(hard_labels[:, c], scores[:, c])
        out[c] = partial_auc_standardized(fpr, tpr, max_fpr)
    if excluded:
        warnings.warn(f"classes without both label polarities excluded from mPAUC: {excluded}", stacklevel=2)
    return out


def mpauc(scores: np.ndarray, hard_labels: np.ndarray, max_fpr: float = MAX_FPR) -> float:
    """Macro-averaged standardized partial AUC over the included classes."""
    per_class = mpauc_per_class(scores, hard_labels, max_fpr)
    if np.all(np.isnan(per_class)):
        raise ValueError("every class lacks a positive or a negative segment")
    return float(np.nanmean(per_class))


def joint_score(psds_value: float, mpauc_value: float) -> float:
    """Ranking score: PSDS + mPAUC."""
    for name, v in (("psds", psds_value), ("mpauc", mpauc_value)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {v}")
    return psds_value + mpauc_value
