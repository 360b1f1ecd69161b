"""Independent oracles for the outputs the reference pass checks.

They parse the TSV and ``.sedp`` files directly and share no code with the
library.

PSDS: the library re-matches every detection at every threshold.  This oracle
sweeps once instead: whether a detection passes the detection tolerance
depends only on the references, and a reference's coverage only grows as
the threshold drops.  So each detection is classified once, and each
reference records the highest confidence at which the passing detections of
its clip and class first cover rho_gtc of it.  The intersection rules,
the per-class upper envelope and the step integration follow the PSDS
definitions (Bilen et al., ICASSP 2020) with the package defaults; cross
triggers are off.

mPAUC: per class, the standardized partial ROC area up to an FPR of 0.1 over
one-second segments, with the ROC points counted by binary search and the
area integrated segment by segment.

Frame events: runs of frames scoring above 0.5, after an edge-replicating
median filter of 7 frames for the ``median`` method.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from collections import defaultdict
from pathlib import Path

import numpy as np
from scipy.ndimage import median_filter

RHO_DTC = 0.7
RHO_GTC = 0.7
ALPHA_ST = 1.0
E_MAX = 100.0
MAX_FPR = 0.1
FRAME_THRESHOLD = 0.5
MEDIAN_WINDOW = 7


def _rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split("\t") for line in lines[1:] if line.strip()]


def _merge(spans):
    merged = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _covered(lo: float, hi: float, merged) -> float:
    return sum(max(0.0, min(hi, b) - max(lo, a)) for a, b in merged)


def psds_from_files(dets_tsv: Path, refs_tsv: Path, durations_tsv: Path) -> float:
    hours = sum(float(row[1]) for row in _rows(durations_tsv)) / 3600.0
    refs = defaultdict(list)  # (class, clip) -> [(onset, offset)]
    for clip, onset, offset, label in _rows(refs_tsv):
        refs[label, clip].append((float(onset), float(offset)))
    dets = defaultdict(list)  # (class, clip) -> [(confidence, onset, offset)]
    for row in _rows(dets_tsv):
        confidence = float(row[4]) if len(row) > 4 and row[4] else 1.0
        dets[row[3], row[0]].append((confidence, float(row[1]), float(row[2])))
    classes = sorted({c for c, _ in refs} | {c for c, _ in dets})
    n_refs = {c: sum(len(v) for (k, _), v in refs.items() if k == c) for c in classes}

    false_at = defaultdict(list)  # class -> confidences of detections failing the DTC
    found_at = defaultdict(list)  # class -> confidence at which each found reference is found
    for key, clip_dets in dets.items():
        merged_refs = _merge(refs.get(key, []))
        passing = []
        for confidence, lo, hi in clip_dets:
            if _covered(lo, hi, merged_refs) / (hi - lo) >= RHO_DTC:
                passing.append((confidence, lo, hi))
            else:
                false_at[key[0]].append(confidence)
        waiting = list(refs.get(key, []))
        for level in sorted({conf for conf, _, _ in passing}, reverse=True):
            covering = _merge([(lo, hi) for conf, lo, hi in passing if conf >= level])
            still = []
            for lo, hi in waiting:
                if _covered(lo, hi, covering) / (hi - lo) >= RHO_GTC:
                    found_at[key[0]].append(level)
                else:
                    still.append((lo, hi))
            waiting = still

    thresholds = sorted({conf for clip_dets in dets.values() for conf, _, _ in clip_dets}, reverse=True)
    envelopes = []
    for c in classes:
        false_sorted, found_sorted = np.sort(false_at[c]), np.sort(found_at[c])
        points = {(0.0, 0.0)}
        for level in thresholds:
            fp = false_sorted.size - int(np.searchsorted(false_sorted, level, side="left"))
            tp = found_sorted.size - int(np.searchsorted(found_sorted, level, side="left"))
            points.add((fp / hours, tp / n_refs[c] if n_refs[c] else 0.0))
        best, env = 0.0, {}
        for e, t in sorted(points):
            best = max(best, t)
            env[e] = best
        envelopes.append((list(env), list(env.values())))
    included = [i for i, c in enumerate(classes) if n_refs[c] > 0]
    if not included:
        return 0.0
    grid = sorted({0.0} | {e for rates, _ in envelopes for e in rates})
    area = 0.0
    for i, e in enumerate(grid):
        if e >= E_MAX:
            break
        tpr = []
        for j in included:
            rates, best = envelopes[j]
            k = bisect_right(rates, e) - 1
            tpr.append(best[k] if k >= 0 else 0.0)
        tpr = np.array(tpr)
        etpr = max(0.0, tpr.mean() - ALPHA_ST * tpr.std())
        e_next = grid[i + 1] if i + 1 < len(grid) else E_MAX
        area += (min(e_next, E_MAX) - e) * etpr
    return float(area / E_MAX)


def _posteriorgram(path: Path) -> tuple[np.ndarray, float]:
    """Scores [T, C] and the frame period of a ``.sedp`` file: the header
    holds T, C and the period in microseconds; the scores are its last
    4*T*C bytes, little-endian float32."""
    data = path.read_bytes()
    _, frames, classes, period_us = struct.unpack_from("<HIII", data, 4)
    scores = np.frombuffer(data[len(data) - 4 * frames * classes:], dtype="<f4")
    return scores.reshape(frames, classes).astype(np.float64), period_us / 1e6


def _partial_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    pos, neg = np.sort(scores[labels]), np.sort(scores[~labels])
    points = [(0.0, 0.0)]
    for level in np.unique(scores)[::-1]:
        fp = neg.size - np.searchsorted(neg, level, side="left")
        tp = pos.size - np.searchsorted(pos, level, side="left")
        points.append((fp / neg.size, tp / pos.size))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 >= MAX_FPR:
            break
        if x1 > MAX_FPR:
            y1 = y0 + (y1 - y0) * (MAX_FPR - x0) / (x1 - x0)
            x1 = MAX_FPR
        area += (x1 - x0) * (y0 + y1) / 2
    lowest = MAX_FPR**2 / 2
    return 0.5 * (1 + (area - lowest) / (MAX_FPR - lowest))


def mpauc_from_files(posteriors: Path, refs_tsv: Path, class_names: list[str]) -> float:
    refs = defaultdict(list)  # clip -> [(onset, offset, column)]
    for clip, onset, offset, label in _rows(refs_tsv):
        refs[clip].append((float(onset), float(offset), class_names.index(label)))
    all_scores, all_labels = [], []
    for path in sorted(posteriors.glob("*.sedp")):
        scores, period = _posteriorgram(path)
        per_segment = round(1.0 / period)
        segments = math.ceil(scores.shape[0] / per_segment)
        pooled = np.zeros((segments, scores.shape[1]))
        labels = np.zeros((segments, scores.shape[1]), dtype=bool)
        for s in range(segments):
            pooled[s] = scores[s * per_segment:(s + 1) * per_segment].max(axis=0)
            for onset, offset, column in refs[path.stem]:
                labels[s, column] |= onset < s + 1 and offset > s
        all_scores.append(pooled)
        all_labels.append(labels)
    scores, labels = np.concatenate(all_scores), np.concatenate(all_labels)
    values = [_partial_auc(labels[:, c], scores[:, c])
              for c in range(scores.shape[1]) if 0 < labels[:, c].sum() < labels.shape[0]]
    return float(np.mean(values))


def frame_events_from_files(posteriors: Path, class_names: list[str], median: bool) -> list[tuple]:
    """Sorted (clip, onset, offset, class) rows, times rounded to 6 decimals."""
    rows = []
    for path in sorted(posteriors.glob("*.sedp")):
        scores, period = _posteriorgram(path)
        if median:
            scores = median_filter(scores, size=(MEDIAN_WINDOW, 1), mode="nearest")
        for c, name in enumerate(class_names):
            edges = np.flatnonzero(np.diff(np.r_[0, (scores[:, c] > FRAME_THRESHOLD).astype(int), 0]))
            rows.extend((path.stem, round(lo * period, 6), round(hi * period, 6), name)
                        for lo, hi in zip(edges[::2], edges[1::2]))
    return sorted(rows)


def events_tsv_rows(path: Path) -> list[tuple]:
    """Sorted (clip, onset, offset, class) rows of an event TSV."""
    return sorted((clip, round(float(onset), 6), round(float(offset), 6), label)
                  for clip, onset, offset, label, *_ in _rows(path))
