"""Detection metrics: intersection-based PSDS and segment-based mPAUC.

PSDS scores timestamped events: a detection is valid when it overlaps
same-class references by at least rho_dtc of its own duration, a reference
counts as found when valid detections cover at least rho_gtc of it, and the
score is the normalized area under the effective-TPR vs effective-FPR curve
obtained by sweeping the detection confidences.  The sweep makes one pass
(Ebbers, Haeb-Umbach & Serizel, ICASSP 2022): each detection is classified
against the references once and each reference records the threshold at
which it is found, so the whole curve costs about O(N log N + overlapping
pairs) for N detections rather than one re-match per threshold.

mPAUC scores one-second segments per class by the partial area under the
ROC up to a maximum false positive rate, McClish-standardized so chance
sits at 0.5, then macro averaged.  The ranking joint score is simply
PSDS + mPAUC.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Event, Posteriorgram, frame_span, rasterize

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
        if self.e_max <= 0:
            raise ValueError(f"e_max must be > 0, got {self.e_max}")
        for name in ("rho_dtc", "rho_gtc"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.alpha_st < 0:
            raise ValueError("alpha_st must be >= 0")


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
        if np.any(np.diff(efpr) < 0):
            raise ValueError("efpr must be non-decreasing")
        if efpr.size and (efpr[0] < 0 or tpr.min(initial=0) < 0 or tpr.max(initial=0) > 1):
            raise ValueError("efpr must be >= 0 and tpr within [0, 1]")


def _keyed(group: np.ndarray, value: np.ndarray) -> np.ndarray:
    """(group, value) pairs as complex numbers.  numpy orders complex values
    lexicographically (real part first) in sorts, searches and maximums, so
    one call on keyed values works within every group at once."""
    key = np.empty(np.shape(group), dtype=np.complex128)
    key.real = group
    key.imag = value
    return key


def _expand(first: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner i, position) for every position of every range [first[i], stop[i])."""
    counts = np.maximum(stop - first, 0)
    owner = np.repeat(np.arange(first.size), counts)
    position = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts) + first[owner]
    return owner, position


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


def _spans(events: Sequence[Event], what: str) -> tuple[np.ndarray, np.ndarray]:
    """Onsets and offsets as arrays; each event must have finite times and a
    positive length."""
    lo = np.array([e.onset for e in events], dtype=np.float64)
    hi = np.array([e.offset for e in events], dtype=np.float64)
    bad = np.flatnonzero(~(np.isfinite(lo) & np.isfinite(hi) & (hi > lo)))
    if bad.size:
        raise ValueError(f"{what} needs finite times with offset > onset, got {events[bad[0]]}")
    return lo, hi


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


def _ref_counts(refs: Sequence[Event], num_classes: int) -> np.ndarray:
    counts = np.zeros(num_classes, dtype=np.int64)
    for ev in refs:
        if not 0 <= ev.class_idx < num_classes:
            raise ValueError(f"reference class index {ev.class_idx} out of range")
        counts[ev.class_idx] += 1
    return counts


def _curve(efpr: np.ndarray, tpr: np.ndarray, included: np.ndarray) -> OperatingPointCurve:
    """The step-function curve from per-class rates [levels, C] cumulated
    down the thresholds: a (0, 0) level on top, TPR replaced by its running
    max (the upper envelope; eFPR never decreases down the levels), and each
    class's value read off at every point of the union grid of rates."""
    top = np.zeros((1, tpr.shape[1]))
    efpr = np.vstack([top, efpr])
    tpr = np.maximum.accumulate(np.vstack([top, tpr]), axis=0)
    grid = np.unique(efpr)
    level = np.empty((grid.size, tpr.shape[1]), dtype=np.intp)
    for c in range(tpr.shape[1]):
        level[:, c] = np.searchsorted(efpr[:, c], grid, side="right") - 1
    return OperatingPointCurve(efpr=grid, tpr=np.take_along_axis(tpr, level, axis=0), included=included)


def roc_from_confidences(
    dets: Sequence[Event],
    refs: Sequence[Event],
    total_hours: float,
    cfg: PsdsConfig = PsdsConfig(),
    num_classes: int | None = None,
) -> OperatingPointCurve:
    """Operating point curve from a one-pass sweep over the detection confidences.

    Every distinct confidence is a threshold keeping the detections with
    confidence >= that value.  A missing confidence (None) counts as 1.0, so
    hard detections give a single operating point.  Classes without
    references are excluded with a warning.

    The curve equals re-matching the kept detections at every threshold, bit
    for bit, without doing so.  A detection's DTC verdict depends on the
    references only, so each detection is classified once.  Each reference
    then takes the DTC-passing detections that overlap it in
    descending-confidence tie groups and records the thresholds where its
    GTC verdict changes (coverage only grows, so once in practice).
    Per-class TP and FP counts at every threshold are cumulative sums over
    the sorted thresholds.

    Both coverage tests run on sorted interval arrays per (clip, class), all
    groups at once: binary search finds the reference intervals a detection
    overlaps and the passing detections a reference overlaps, and each
    coverage is summed left to right over the merged intervals in onset
    order, as the interval-by-interval definition sums it (the skipped
    intervals would add 0.0).  Cost: O((N + M) log(N + M)) for N detections
    and M references, plus numpy passes over the overlapping (detection,
    reference interval) pairs and, per reference, over its overlapping
    detections at each of its thresholds, against O(thresholds x N) for
    re-matching.
    """
    if total_hours <= 0:
        raise ValueError(f"total_hours must be > 0, got {total_hours}")
    if num_classes is None:
        num_classes = 1 + max(
            [e.class_idx for e in refs] + [d.class_idx for d in dets], default=-1
        )
    n_refs = _ref_counts(refs, num_classes)
    included = n_refs > 0
    excluded = np.flatnonzero(~included)
    if excluded.size:
        warnings.warn(f"classes without references excluded from PSDS: {excluded.tolist()}", stacklevel=2)

    if not dets:
        return _curve(np.zeros((0, num_classes)), np.zeros((0, num_classes)), included)
    confidences = [1.0 if d.confidence is None else d.confidence for d in dets]
    # level t holds the detections kept from the t-th highest threshold on
    levels, level_of = np.unique(-np.asarray(confidences, dtype=np.float64), return_inverse=True)
    tp, fp = (np.zeros((levels.size, num_classes), dtype=np.int64) for _ in range(2))

    # references: one group per (clip, class), sorted by (group, onset)
    clip_index: dict[str, int] = {}
    r_group = np.array([clip_index.setdefault(e.clip_id, len(clip_index)) * num_classes + e.class_idx
                        for e in refs], dtype=np.int64)
    r_lo, r_hi = _spans(refs, "reference")
    order = np.argsort(_keyed(r_group, r_lo), kind="stable")
    r_group, r_lo, r_hi = r_group[order], r_lo[order], r_hi[order]

    # DTC: the part of each detection that the merged references cover
    d_class = np.array([d.class_idx for d in dets], dtype=np.int64)
    d_lo, d_hi = _spans(dets, "detection")
    scored = np.flatnonzero((d_class >= 0) & (d_class < num_classes))
    d_clip = np.array([clip_index.get(dets[i].clip_id, -1) for i in scored.tolist()], dtype=np.int64)
    d_group = np.where(d_clip >= 0, d_clip * num_classes + d_class[scored], -1)
    d_class, d_level, d_lo, d_hi = d_class[scored], level_of[scored], d_lo[scored], d_hi[scored]
    m_group, m_lo, m_hi = _union(r_group, r_lo, r_hi)
    det, iv = _expand(
        np.searchsorted(_keyed(m_group, m_hi), _keyed(d_group, d_lo), side="right"),
        np.searchsorted(_keyed(m_group, m_lo), _keyed(d_group, d_hi), side="left"),
    )
    overlap = np.minimum(d_hi[det], m_hi[iv]) - np.maximum(d_lo[det], m_lo[iv])
    covered = _ordered_sums(det, overlap, scored.size)
    passes = covered / (d_hi - d_lo) >= cfg.rho_dtc
    np.add.at(fp, (d_level[~passes], d_class[~passes]), 1)

    # GTC: the passing detections overlapping each reference, in onset order
    order = np.argsort(_keyed(d_group[passes], d_lo[passes]), kind="stable")
    p_group, p_level, p_lo, p_hi = (a[passes][order] for a in (d_group, d_level, d_lo, d_hi))
    ref, hit = _expand(
        # the detections before the first whose group's running max offset
        # exceeds the reference onset all end at or before that onset
        np.searchsorted(np.maximum.accumulate(_keyed(p_group, p_hi)), _keyed(r_group, r_lo), side="right"),
        np.searchsorted(_keyed(p_group, p_lo), _keyed(r_group, r_hi), side="left"),
    )
    overlapping = p_hi[hit] > r_lo[ref]
    ref, hit = ref[overlapping], hit[overlapping]
    # one step per (reference, level of one of its hits), levels ascending;
    # a step covers the reference with its hits of that level or lower
    pair_start = np.searchsorted(ref, np.arange(r_lo.size))
    pair_stop = np.searchsorted(ref, np.arange(r_lo.size), side="right")
    steps = np.unique(ref * levels.size + p_level[hit])
    s_ref, s_level = steps // levels.size, steps % levels.size
    step, pair = _expand(pair_start[s_ref], pair_stop[s_ref])
    kept = p_level[hit[pair]] <= s_level[step]
    step, pair = step[kept], pair[kept]
    u_step, u_lo, u_hi = _union(step, p_lo[hit[pair]], p_hi[hit[pair]])
    s_lo, s_hi = r_lo[s_ref], r_hi[s_ref]
    overlap = np.minimum(s_hi[u_step], u_hi) - np.maximum(s_lo[u_step], u_lo)
    coverage = _ordered_sums(u_step, overlap, steps.size)
    found = coverage / (s_hi - s_lo) >= cfg.rho_gtc
    # an uncovered reference is found only when rho_gtc is 0
    found_uncovered = 0.0 >= cfg.rho_gtc
    r_class = r_group % num_classes
    if found_uncovered:
        tp[0] += np.bincount(r_class, minlength=num_classes)
    first_step = np.ones(steps.size, dtype=bool)
    first_step[1:] = s_ref[1:] != s_ref[:-1]
    previous = np.where(first_step, found_uncovered, np.roll(found, 1))
    np.add.at(tp, (s_level, r_class[s_ref]), found.astype(np.int64) - previous)

    tpr = np.where(included, np.cumsum(tp, axis=0) / np.maximum(n_refs, 1), 0.0)
    return _curve(np.cumsum(fp, axis=0) / total_hours, tpr, included)


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
    area = 0.0
    for i in range(curve.efpr.size):
        e = curve.efpr[i]
        if e >= cfg.e_max:
            break
        e_next = curve.efpr[i + 1] if i + 1 < curve.efpr.size else cfg.e_max
        # duplicate eFPR values: only the last (envelope max) step counts
        if e_next == e:
            continue
        area += (min(e_next, cfg.e_max) - e) * etpr[i]
    return float(area / cfg.e_max)


def segmentize(
    refs: Sequence[Event],
    duration: float,
    num_classes: int,
    segment: float = SEGMENT_SECONDS,
) -> np.ndarray:
    """Soft segment labels [S, C]: max event value overlapping each segment.

    The value of a hard event (confidence None) is 1.0.  Harden against a
    threshold downstream for mPAUC.
    """
    if duration < segment:
        raise ValueError(f"duration {duration} shorter than one segment {segment}")
    return rasterize(refs, _segment_count(duration, segment), segment, num_classes)


def _segment_count(duration: float, segment: float) -> int:
    # the segments [0, duration) meets on an unbounded grid
    if not 0.0 < segment < float("inf"):
        raise ValueError(f"segment must be a finite length > 0 s, got {segment}")
    return frame_span(0.0, duration, segment, sys.maxsize)[1]


def segment_scores(post: Posteriorgram, segment: float = SEGMENT_SECONDS) -> np.ndarray:
    """Max-pool frame scores into segments: [S, C] with S = ceil(T*fp / segment).

    When the segment is an integer number of frames the assignment is exact
    integer arithmetic; otherwise frames are binned by their center time.  A
    segment that no frame's center falls in scores 0.
    """
    t, fp = post.num_frames, post.frame_period
    n_segments = _segment_count(t * fp, segment)
    ratio = segment / fp
    if abs(ratio - round(ratio)) < 1e-9 and round(ratio) >= 1:
        per = int(round(ratio))
        seg_idx = np.arange(t) // per
    else:
        seg_idx = np.floor((np.arange(t) + 0.5) * fp / segment).astype(np.int64)
    seg_idx = np.minimum(seg_idx, n_segments - 1)
    # seg_idx never decreases, so each segment's frames form one run; a
    # segment that no frame falls in keeps its 0
    runs = np.flatnonzero(np.diff(seg_idx, prepend=-1))
    scores = np.zeros((n_segments, post.num_classes))
    scores[seg_idx[runs]] = np.maximum.reduceat(post.scores, runs, axis=0)
    return scores


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
