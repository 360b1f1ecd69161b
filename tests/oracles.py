"""Independent brute-force oracles used by the metric and gradient tests.

Everything here recomputes results from first principles (elementary-interval
sweeps, explicit threshold enumeration, central differences) so the library's
structured implementations are checked against a genuinely separate route.
"""

import functools
import math
import warnings
from typing import Sequence

import numpy as np

from hetsed.core import Event
from hetsed.domain_gen import freq_mixstyle, freq_stats
from hetsed.evaluation import (
    OperatingPointCurve,
    PsdsConfig,
    _expand,
    _keyed,
    _ordered_sums,
    _ref_counts,
    _segment_count,
    _union,
)
from hetsed.postprocess import _PLATEAU_TOL


def union_measure(lo, hi, spans):
    """Measure of [lo, hi] covered by the union of spans, via elementary cuts."""
    cuts = sorted({lo, hi, *(a for a, _ in spans), *(b for _, b in spans)})
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        if a >= lo and b <= hi and any(sa <= a and b <= sb for sa, sb in spans):
            total += b - a
    return total


def brute_counts(dets, refs, cls, cfg):
    """Per-class (TP, FP) by direct definition, clip by clip."""
    clips = {e.clip_id for e in dets} | {e.clip_id for e in refs}
    tp = fp = 0
    for clip in clips:
        ref_spans = [(r.onset, r.offset) for r in refs if r.class_idx == cls and r.clip_id == clip]
        det_spans = [(d.onset, d.offset) for d in dets if d.class_idx == cls and d.clip_id == clip]
        passing = []
        for lo, hi in det_spans:
            if union_measure(lo, hi, ref_spans) / (hi - lo) >= cfg.rho_dtc:
                passing.append((lo, hi))
            else:
                fp += 1
        for lo, hi in ref_spans:
            if union_measure(lo, hi, passing) / (hi - lo) >= cfg.rho_gtc:
                tp += 1
    return tp, fp


def brute_force_psds(dets, refs, hours, cfg, num_classes):
    """Exhaustive operating-point enumeration with step integration."""
    n_refs = [sum(1 for r in refs if r.class_idx == c) for c in range(num_classes)]
    included = [c for c in range(num_classes) if n_refs[c] > 0]
    if not included:
        return 0.0
    points = {c: [(0.0, 0.0)] for c in included}
    for thr in sorted({d.confidence for d in dets}, reverse=True):
        kept = [d for d in dets if d.confidence >= thr]
        for c in included:
            tp, fp = brute_counts(kept, refs, c, cfg)
            points[c].append((fp / hours, tp / n_refs[c]))
    breaks = sorted({e for c in included for e, _ in points[c]} | {0.0, cfg.e_max})
    area = 0.0
    for lo, hi in zip(breaks, breaks[1:]):
        if lo >= cfg.e_max:
            break
        tprs = [max(t for e, t in points[c] if e <= lo) for c in included]
        etpr = max(0.0, float(np.mean(tprs)) - cfg.alpha_st * float(np.std(tprs)))
        area += (min(hi, cfg.e_max) - lo) * etpr
    return area / cfg.e_max


def brute_pauc(labels, scores, max_fpr):
    """McClish-standardized trapezoidal partial AUC from an explicit sweep."""
    labels = np.asarray(labels, dtype=bool)
    pos, neg = scores[labels], scores[~labels]
    pts = [(0.0, 0.0)]
    for thr in sorted(set(scores), reverse=True):
        pts.append((float(np.mean(neg >= thr)), float(np.mean(pos >= thr))))
    pts = sorted(set(pts))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x0 >= max_fpr:
            break
        if x1 <= max_fpr:
            area += (x1 - x0) * (y0 + y1) / 2
        else:
            y_at = y0 + (y1 - y0) * (max_fpr - x0) / (x1 - x0)
            area += (max_fpr - x0) * (y0 + y_at) / 2
            break
    return 0.5 * (1 + (area - max_fpr**2 / 2) / (max_fpr - max_fpr**2 / 2))


# --------------------------------------- PSDS by re-matching every threshold
# The library sweeps once and builds the curve from count arrays; these
# re-match the kept detections at every distinct confidence, assemble the
# envelope from point lists, and must give the same curve bit for bit.

def _merge_intervals(intervals):
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _overlap(lo, hi, merged):
    # left to right, one addition per interval (Python 3.12's sum() of
    # floats compensates, which would move the last bit)
    total = 0.0
    for a, b in merged:
        total += max(0.0, min(hi, b) - max(lo, a))
    return total


def _by_clip(events, class_idx):
    grouped = {}
    for ev in events:
        if ev.class_idx == class_idx:
            grouped.setdefault(ev.clip_id, []).append((ev.onset, ev.offset))
    return grouped


def intersection_match(dets, refs, rho_dtc, rho_gtc, num_classes):
    """Per-class (TP, FP): a detection passes the DTC when the union of
    same-class references of its clip covers rho_dtc of it, failing ones are
    false positives; a reference is found when the union of passing
    detections covers rho_gtc of it."""
    tp = np.zeros(num_classes, dtype=np.int64)
    fp = np.zeros(num_classes, dtype=np.int64)
    for c in range(num_classes):
        ref_by_clip = {k: _merge_intervals(v) for k, v in _by_clip(refs, c).items()}
        passing = {}
        for clip_id, det_spans in _by_clip(dets, c).items():
            merged_refs = ref_by_clip.get(clip_id, [])
            for lo, hi in det_spans:
                if _overlap(lo, hi, merged_refs) / (hi - lo) >= rho_dtc:
                    passing.setdefault(clip_id, []).append((lo, hi))
                else:
                    fp[c] += 1
        for clip_id, ref_spans in _by_clip(refs, c).items():
            covering = _merge_intervals(passing.get(clip_id, []))
            for lo, hi in ref_spans:
                if _overlap(lo, hi, covering) / (hi - lo) >= rho_gtc:
                    tp[c] += 1
    return tp, fp


def _curve_from_point_lists(per_class: list[list[tuple[float, float]]], included: np.ndarray) -> OperatingPointCurve:
    """Assemble the step-function curve on the union grid of per-class rates,
    applying the monotone upper envelope (running max TPR) per class."""
    envelopes = []
    for pts in per_class:
        pts = sorted(set(pts))
        best = 0.0
        env_e, env_t = [], []
        for e, t in pts:
            best = max(best, t)
            if env_e and env_e[-1] == e:
                env_t[-1] = best
            else:
                env_e.append(e)
                env_t.append(best)
        envelopes.append((np.asarray(env_e), np.asarray(env_t)))
    grid = np.unique(np.concatenate([[0.0]] + [e for e, _ in envelopes]))
    tpr = np.zeros((grid.size, len(per_class)))
    for c, (env_e, env_t) in enumerate(envelopes):
        pos = np.searchsorted(env_e, grid, side="right") - 1
        tpr[:, c] = np.where(pos >= 0, env_t[np.maximum(pos, 0)], 0.0)
    return OperatingPointCurve(efpr=grid, tpr=tpr, included=included)


def rematch_curve(dets, refs, hours, cfg, num_classes):
    """Operating point curve with the kept detections re-matched at every
    distinct confidence (None counts as 1.0)."""
    conf = [1.0 if d.confidence is None else d.confidence for d in dets]
    n_refs = np.bincount([r.class_idx for r in refs], minlength=num_classes)
    included = n_refs > 0
    per_class = [[(0.0, 0.0)] for _ in range(num_classes)]
    for value in sorted(set(conf), reverse=True):
        subset = [d for d, v in zip(dets, conf) if v >= value]
        tp, fp = intersection_match(subset, refs, cfg.rho_dtc, cfg.rho_gtc, num_classes)
        efpr = fp / hours
        tpr = np.where(included, tp / np.maximum(n_refs, 1), 0.0)
        for c in range(num_classes):
            per_class[c].append((float(efpr[c]), float(tpr[c])))
    return _curve_from_point_lists(per_class, included)


# The one-set sweep as it was before every detection set went through one
# evaluation.roc_curves pass, and the PSDS area as a loop over the curve
# points: the batched sweep and the array area must equal them bit for bit.

def _spans(events: Sequence[Event], what: str) -> tuple[np.ndarray, np.ndarray]:
    """Onsets and offsets as arrays; each event must have finite times and a
    positive length."""
    lo = np.array([e.onset for e in events], dtype=np.float64)
    hi = np.array([e.offset for e in events], dtype=np.float64)
    bad = np.flatnonzero(~(np.isfinite(lo) & np.isfinite(hi) & (hi > lo)))
    if bad.size:
        raise ValueError(f"{what} needs finite times with offset > onset, got {events[bad[0]]}")
    return lo, hi


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


def per_set_roc_from_confidences(
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


def psds_loop(curve: OperatingPointCurve, cfg: PsdsConfig = PsdsConfig()) -> float:
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


def change_points_loop(track: np.ndarray, half_width: int, min_gap: float) -> list[int]:
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


def window_mean_moving_average(scores, window):
    """Sliding mean along axis 0 with edge replication, as the mean of each
    window copied out contiguously: ``moving_average``'s result, bit for bit."""
    scores = np.asarray(scores, dtype=np.float64)
    if window == 1:
        return scores.copy()
    tracks = np.pad(np.atleast_2d(scores.T), ((0, 0), (window // 2, window // 2)), mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(tracks, window, axis=1)
    means = np.ascontiguousarray(windows).mean(axis=-1)
    return np.ascontiguousarray(means[0] if scores.ndim == 1 else means.T)


def _anchored_starts(a):
    starts = np.zeros(a.size, dtype=bool)
    i = 0
    while i < a.size:
        starts[i] = True
        j = i + 1
        while j < a.size and abs(a[j] - a[i]) <= _PLATEAU_TOL:
            j += 1
        i = j
    return starts


def gathered_change_points(tracks, half_width, min_gap):
    """``_change_points`` with one entry per plateau: |d| from two gathers,
    the plateau starts chained within the tolerance (rows where chaining and
    the anchored rule part ways rescanned), then the candidate tests on the
    gathered first value and neighbours of every plateau."""
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


def greedy_merge(
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


def segment_scores_at(post, segment):
    """``segment_scores`` by one unbuffered max per frame into a zeroed
    [S, C] buffer, frames binned as the library bins them."""
    t, fp = post.num_frames, post.frame_period
    n_segments = _segment_count(t * fp, segment)
    ratio = segment / fp
    if abs(ratio - round(ratio)) < 1e-9 and round(ratio) >= 1:
        seg_idx = np.arange(t) // int(round(ratio))
    else:
        seg_idx = np.floor((np.arange(t) + 0.5) * fp / segment).astype(np.int64)
    scores = np.zeros((n_segments, post.num_classes))
    np.maximum.at(scores, np.minimum(seg_idx, n_segments - 1), post.scores)
    return scores


def mixstyle_numerical_grad(batch, perm, lam, upstream, step=1e-4):
    """Central differences of <upstream, mixstyle(batch)> with partner
    statistics frozen at the unperturbed batch (stop-gradient convention)."""
    frozen = freq_stats(batch)

    def objective(b):
        return np.sum(upstream * freq_mixstyle(b, perm, lam, partner_stats=frozen))

    grad = np.zeros_like(batch)
    flat = batch.ravel()
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += step
        plus = objective(bumped.reshape(batch.shape))
        bumped[i] -= 2 * step
        minus = objective(bumped.reshape(batch.shape))
        grad.ravel()[i] = (plus - minus) / (2 * step)
    return grad


def brute_rasterize(cells, n, num_classes):
    """Frame grid by definition, in exact quarter-frame units: frame k spans
    [4k, 4k + 4) and holds the max value of the (class, a, b, value) cells
    whose [a, b) meets it."""
    grid = np.zeros((n, num_classes))
    for k in range(n):
        for cls, a, b, value in cells:
            if a < 4 * k + 4 and b > 4 * k:
                grid[k, cls] = max(grid[k, cls], value)
    return grid


@functools.lru_cache(maxsize=4)
def htk_mel_triangles(n_mels: int) -> np.ndarray:
    """[1025 x n_mels] triangles for a 2048-point FFT at 16 kHz: band m rises
    linearly from edge m to edge m+1 and falls to edge m+2, the n_mels + 2
    edges equally spaced on mel = 2595 log10(1 + f/700) between 0 and 8 kHz."""
    top = 2595.0 * math.log10(1.0 + 8000.0 / 700.0)
    edges = [700.0 * (10.0 ** (top * i / (n_mels + 1) / 2595.0) - 1.0) for i in range(n_mels + 2)]
    weights = np.zeros((1025, n_mels))
    for k in range(1025):
        f = k * 16000.0 / 2048.0
        for m in range(n_mels):
            left, center, right = edges[m : m + 3]
            if left < f <= center:
                weights[k, m] = (f - left) / (center - left)
            elif center < f < right:
                weights[k, m] = (right - f) / (right - center)
    return weights


def reference_mel_power(samples: np.ndarray, hop: int, n_mels: int) -> tuple[np.ndarray, np.ndarray]:
    """Mel power [T x n_mels] of a 16 kHz clip zero-padded or cut to 10 s,
    and each frame's largest bin power [T], from ``scipy.signal.stft`` with a
    periodic 2048-point Hann window, no centring and no padding."""
    from scipy import signal

    x = np.zeros(160000)
    kept = min(x.size, samples.size)
    x[:kept] = samples[:kept]
    window = signal.get_window("hann", 2048)  # periodic: fftbins=True
    _, _, z = signal.stft(
        x, window=window, nperseg=2048, noverlap=2048 - hop, nfft=2048, detrend=False,
        return_onesided=True, boundary=None, padded=False, scaling="spectrum",
    )
    power = np.abs(z.T * window.sum()) ** 2  # undo the 1/sum(window) spectrum scaling
    return power @ htk_mel_triangles(n_mels), power.max(axis=1)
