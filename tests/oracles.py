"""Independent brute-force oracles used by the metric and gradient tests.

Everything here recomputes results from first principles (elementary-interval
sweeps, explicit threshold enumeration, central differences) so the library's
structured implementations are checked against a genuinely separate route.
"""

import numpy as np

from hetsed.domain_gen import freq_mixstyle, freq_stats
from hetsed.evaluation import OperatingPointCurve
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
