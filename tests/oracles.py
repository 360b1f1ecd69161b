"""Independent brute-force oracles used by the metric and gradient tests.

Everything here recomputes results from first principles (elementary-interval
sweeps, explicit threshold enumeration, central differences) so the library's
structured implementations are checked against a genuinely separate route.
"""

import functools
import math
import warnings

import numpy as np
from scipy.ndimage import median_filter

from hetsed import cli, evaluation, formats, postprocess
from hetsed.core import _event_problems
from hetsed.evaluation import OperatingPointCurve, PsdsConfig, _segment_count
from hetsed.fdy import freq_attention
from hetsed.postprocess import _PLATEAU_TOL


def canonical_order(events):
    """``events`` checked one by one, then sorted by the key (clip id, class,
    onset, offset); the checks raise one ValueError naming every problem of
    every event, in index order."""
    problems = [f"event {i}: {problem}" for i, ev in enumerate(events)
                for problem in _event_problems(ev.onset, ev.offset, ev.confidence, ev.class_idx)]
    if problems:
        raise ValueError("invalid events:\n" + "\n".join(problems))
    return sorted(events, key=lambda e: (e.clip_id, e.class_idx, e.onset, e.offset))


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


# The PSDS area as a loop over the curve points: the array area must equal
# it bit for bit.

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


def median_threshold_runs(post, thresholds, window):
    """(clip, class, onset, offset) of every run of frames above its class
    threshold after ``scipy.ndimage.median_filter`` (edge replication), one
    class track at a time; boundary k lies at k * period_us / 1e6 s."""
    period_us = round(post.frame_period * 1e6)
    runs = []
    for c in range(post.num_classes):
        track = median_filter(post.scores[:, c], size=window, mode="nearest")
        start = None
        for k, value in enumerate([*track, -math.inf]):
            if value > thresholds[c] and start is None:
                start = k
            elif not value > thresholds[c] and start is not None:
                runs.append((post.clip_id, c, start * period_us / 1e6, k * period_us / 1e6))
                start = None
    return runs


def event_tsv_text(events, class_names, soft):
    """An event TSV, one row at a time: the rows sorted by (clip, class,
    onset, offset), a time with three decimals unless it reads back
    different from the time rounded to nine (then six), a confidence with
    six and an absent one empty."""
    def seconds(value):
        text = f"{value:.3f}"
        return text if float(text) == round(value, 9) else f"{value:.6f}"

    lines = ["filename\tonset\toffset\tevent_label" + ("\tconfidence" if soft else "")]
    for ev in sorted(events, key=lambda e: (e.clip_id, e.class_idx, e.onset, e.offset)):
        row = [ev.clip_id, seconds(ev.onset), seconds(ev.offset), class_names[ev.class_idx]]
        if soft:
            row.append("" if ev.confidence is None else f"{ev.confidence:.6f}")
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


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


MIXSTYLE_EPSILON = 1e-5  # the std clamp of domain_gen.MixStyleConfig()


def freq_mean_std(batch):
    """Per-(instance, bin) mean and population std over time, [B, F] each,
    by their definitions in float64."""
    batch = np.asarray(batch, dtype=np.float64)
    mean = batch.mean(axis=2)
    return mean, np.sqrt(((batch - mean[:, :, None]) ** 2).mean(axis=2))


def mixstyle_forward(batch, perm, lam, partner_mean, partner_std):
    """Frequency-wise MixStyle by its definition, in float64: each instance
    standardised per bin with its own mean and std (clamped to
    MIXSTYLE_EPSILON), then given lam-blends of those and of its partner's
    entries perm[i] in the [B, F] partner_mean and partner_std."""
    batch = np.asarray(batch, dtype=np.float64)
    mean, std = freq_mean_std(batch)
    std = np.maximum(std, MIXSTYLE_EPSILON)
    mu_mix = lam * mean + (1.0 - lam) * partner_mean[perm]
    sig_mix = lam * std + (1.0 - lam) * partner_std[perm]
    return (batch - mean[:, :, None]) / std[:, :, None] * sig_mix[:, :, None] + mu_mix[:, :, None]


def mixstyle_numerical_grad(batch, perm, lam, upstream, step=1e-4):
    """Central differences of <upstream, mixstyle(batch)> with partner
    statistics frozen at the unperturbed batch (stop-gradient convention)."""
    mean, std = freq_mean_std(batch)
    std = np.maximum(std, MIXSTYLE_EPSILON)

    def objective(b):
        return np.sum(upstream * mixstyle_forward(b, perm, lam, mean, std))

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


# Largest |difference| between the float32 front-end's mel power and
# reference_mel_power on the same values, relative to the larger of the
# frame's largest bin power and the oracle's value: 5.5e-7 over 4 runs of
# 1,000 and one of 200 draws of 0-13 s noise, sine, burst, clipped and
# silent clips (gain 1e-4 to 10, hop 160 and 256, 2, 40 and 128 bands); the
# float64 front-end is within 1e-12 of the oracle, so the float32-vs-float64
# differences measured the same.  5.5e-7 is about nine float32 ulps (6e-8),
# the rounding a 2048-point float32 FFT leaves in each bin relative to the
# frame's largest; the bound is 3.6 times the measured maximum.
FLOAT32_MEL_TOLERANCE = 2e-6


def frozen_float64_log_mel(samples: np.ndarray, hop: int, n_mels: int) -> np.ndarray:
    """Log-mel [T x n_mels] of a float64 16 kHz clip by the float64-only
    front-end as it stood before float32 clips took a float32 STFT, frozen
    here step for step so that its bits are the reference: zero-pad or cut
    to 10 s, left-aligned 2048-sample frames under a periodic Hann window,
    ``numpy.fft.rfft`` in blocks of 128 frames, squared magnitudes times the
    HTK mel triangles (0 to 8 kHz) as a CSR product, natural log floored at
    1e-10.  It runs in the caller's process, so both sides take numpy's
    ``log`` kernel for this CPU."""
    return _frozen_log_mel(np.asarray(samples, dtype=np.float64), hop, n_mels, np.fft.rfft)


def frozen_every_frame_log_mel(samples: np.ndarray, hop: int, n_mels: int) -> np.ndarray:
    """Log-mel [T x n_mels] of a 16 kHz clip by ``features.extract_log_mel``
    as it stood before it skipped the frames that lie wholly in the zero
    padding, frozen here as the bit-exact reference: every frame of the
    clip zero-padded or cut to 10 s goes through the window, the STFT
    (``scipy.fft.rfft``) and the power spectrum at the samples' dtype
    (float32 stays float32, anything else is float64), then the float64
    mel product and floored log of ``frozen_float64_log_mel``."""
    from scipy import fft

    samples = np.asarray(samples)
    dtype = samples.dtype if samples.dtype in (np.float32, np.float64) else np.float64
    return _frozen_log_mel(samples.astype(dtype), hop, n_mels, fft.rfft)


def _frozen_log_mel(samples: np.ndarray, hop: int, n_mels: int, rfft) -> np.ndarray:
    """The front-end at the samples' dtype with the given rfft, every frame
    transformed."""
    from scipy import sparse

    x = np.zeros(160000, samples.dtype)
    kept = min(x.size, samples.size)
    x[:kept] = samples[:kept]
    frames = np.lib.stride_tricks.sliding_window_view(x, 2048)[::hop][: 1 + (x.size - 2048) // hop]
    hann = (0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(2048) / 2048)).astype(samples.dtype)
    edges = 700.0 * (10.0 ** (np.linspace(0.0, 2595.0 * np.log10(1.0 + 8000.0 / 700.0), n_mels + 2) / 2595.0) - 1.0)
    bins = np.arange(1025) * (16000 / 2048)
    fb = np.zeros((n_mels, bins.size))
    for m in range(n_mels):
        left, center, right = edges[m : m + 3]
        fb[m] = np.maximum(0.0, np.minimum((bins - left) / (center - left), (right - bins) / (right - center)))
    fb = sparse.csr_array(fb)
    mel_power = np.empty((frames.shape[0], n_mels))
    for start in range(0, frames.shape[0], 128):
        power = np.square(np.abs(rfft(frames[start : start + 128] * hann, axis=1)))
        mel_power[start : start + power.shape[0]] = (fb @ power.T).T
    return np.log(np.maximum(mel_power, 1e-10))


def frozen_glu(x: np.ndarray) -> np.ndarray:
    """``fdy.glu`` as it stood before it ran one channel at a time, frozen
    here as the bit-exact reference: the whole-array chain multiply by 0.5,
    tanh, +1, times 0.5, times the first half, on the float64 input."""
    x = np.asarray(x, dtype=np.float64)
    half = x.shape[0] // 2
    out = np.multiply(x[half:], 0.5)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    out *= x[:half]
    return out


def frozen_batchnorm_infer(x, mean, var, gamma, beta, eps=1e-5) -> np.ndarray:
    """``fdy.batchnorm_infer`` as it stood before it ran one channel at a time,
    frozen here as the bit-exact reference: x times gamma / sqrt(var + eps),
    plus beta - scale * mean, broadcast over the whole float64 array."""
    x = np.asarray(x, dtype=np.float64)
    mean, var = np.asarray(mean, dtype=np.float64), np.asarray(var, dtype=np.float64)
    gamma, beta = np.asarray(gamma, dtype=np.float64), np.asarray(beta, dtype=np.float64)
    scale = gamma / np.sqrt(var + eps)
    out = x * scale[:, None, None]
    out += (beta - scale * mean)[:, None, None]
    return out


def frozen_fdy_conv(x: np.ndarray, params) -> np.ndarray:
    """``fdy.fdy_conv`` as it stood before it went through the bins in
    blocks, frozen here as the bit-exact reference: every window column of
    the layer copied into one [F, C_in*k_f*k_t, T] float64 array, multiplied
    by the per-bin mixed kernels in one batched matmul.  The attention is
    ``fdy.freq_attention``, which the blocks left as it was."""
    x = np.asarray(x, dtype=np.float64)
    kernels = params.basis_kernels
    n_k, c_out, c_in, k_f, k_t = kernels.shape
    att = freq_attention(x, params)
    _, f, t = x.shape
    pf, pt = k_f // 2, k_t // 2
    padded = np.zeros((c_in, f + 2 * pf, t + 2 * pt))
    padded[:, pf : pf + f, pt : pt + t] = x
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k_f, k_t), axis=(1, 2))
    cols = windows.transpose(1, 0, 3, 4, 2).reshape(f, c_in * k_f * k_t, t)
    mixed = np.einsum("fk,koj->foj", att, kernels.reshape(n_k, c_out, -1))
    out = np.empty((c_out, f, t))
    np.matmul(mixed, cols, out=out.transpose(1, 0, 2))
    return out


def frozen_read_posteriorgrams(paths, clip_id=None):
    """The posteriorgrams of files that must share one class table, and that
    table, as commands read a directory when they held all of it: every file
    read first, then each table compared with the first's."""
    posts, tables = zip(*[formats.read_posteriorgram(p, clip_id) for p in paths])
    for names, p in zip(tables, paths):
        if names != tables[0]:
            raise ValueError(f"{p}: class table differs from {paths[0]}")
    return list(posts), tables[0]


def frozen_command_error(command, paths, refs=None, durations=None, params=None, segment=1.0):
    """The error a command raised when it read every posteriorgram file
    before anything else, or None: ``command`` is "frame", "median", "csebb"
    (postprocess with ``params``), "tune" (tune-csebb with ``refs`` and
    ``durations`` on the default grid) or "mpauc" (eval mpauc with ``refs``
    and ``segment``), each taking its steps in the order it took them then.
    Outputs are not written."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            posts, class_names = frozen_read_posteriorgrams(paths)
            if command == "csebb":
                csebb = formats.read_csebb_params(params) if params else postprocess.CsebbParams()
                postprocess.csebb_detect(posts, csebb, class_names)
            elif command in ("frame", "median"):
                thresholds, window = cli._class_thresholds(params, class_names)
                postprocess.frame_threshold_merge(posts, thresholds, 1 if command == "frame" else window)
            elif command == "tune":
                ref_table = cli._read_refs(refs, class_names, posts)
                if durations is not None:
                    hours = cli._read_hours(durations, [p.clip_id for p in posts])
                else:
                    hours = sum(p.duration for p in posts) / evaluation.SECONDS_PER_HOUR
                cfg = PsdsConfig()

                def metric(boxes, sets):
                    curves = evaluation.roc_from_confidences(boxes, sets, ref_table, hours, cfg, len(class_names))
                    return [evaluation.psds(curve, cfg) for curve in curves]

                postprocess.tune_csebb(posts, postprocess.default_grid(), metric, class_names)
            else:
                ref_table = cli._read_refs(refs, class_names, posts)
                scores = evaluation.segment_scores(posts, segment)
                hard = evaluation.segmentize(ref_table, posts, segment) >= evaluation.HARD_LABEL_THRESHOLD
                if np.all(np.isnan(evaluation.mpauc_per_class(scores, hard, evaluation.MAX_FPR))):
                    raise ValueError("no class has both positive and negative segments at hard threshold "
                                     f"{evaluation.HARD_LABEL_THRESHOLD:g}")
    except (ValueError, KeyError, OSError) as exc:
        return str(exc)
    return None
