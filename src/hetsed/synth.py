"""Deterministic synthetic fixtures: ground-truth events plus rendered,
optionally corrupted posteriorgrams.

Rendering turns each event into a rectangular 0/1 confidence track, then
corrupts it in a controlled way: moving-average blur, recurring mid-event
confidence dips (the sagging-confidence failure mode that fragments
frame-level thresholding and that box-based post-processing repairs), and
clipped Gaussian noise.  Everything is driven by one seeded generator.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ClipMetadata, Event, EventTable, Origin, Posteriorgram, canonicalize_events, frame_spans, rasterize
from .postprocess import moving_average

DURATION_RANGE = (0.25, 5.0)  # log-uniform event durations, seconds
DIP_DEPTH = 0.3  # multiplicative notch level
DIP_FRAMES = (2, 4)  # notch width range, frames
DIP_EVERY_SECONDS = 0.7  # one notch slot per this much event interior


def gen_ground_truth(
    rng: np.random.Generator,
    n_clips: int,
    num_classes: int,
    mean_events_per_clip: float,
    clip_len: float = 10.0,
    origin: Origin = Origin.DESED_SYNTH,
    snap: float | None = None,
) -> tuple[EventTable, list[ClipMetadata]]:
    """Random ground truth: Poisson event counts, uniform onsets, log-uniform
    durations clipped to the clip, as a table in canonical order.

    With ``snap`` set, onsets and offsets are rounded to that frame grid
    (events keep at least one frame); frame-aligned fixtures are exactly
    recoverable by frame-indexed post-processing, which the noiseless
    end-to-end checks rely on.
    """
    if n_clips < 1:
        raise ValueError(f"n_clips must be >= 1, got {n_clips}")
    if num_classes < 1:
        raise ValueError(f"need at least one class, got {num_classes}")
    # each range test holds for real numbers only, so NaN fails it
    if not 0.0 <= mean_events_per_clip < math.inf:
        raise ValueError(f"mean_events_per_clip must be finite and >= 0, got {mean_events_per_clip}")
    if snap is not None and not 0.0 < snap < math.inf:
        raise ValueError(f"snap must be finite and > 0, got {snap}")
    events = []
    metas: list[ClipMetadata] = []
    lo, hi = DURATION_RANGE
    for i in range(n_clips):
        clip_id = f"clip_{i:04d}"
        metas.append(ClipMetadata(clip_id=clip_id, origin=origin, duration=clip_len))
        for _ in range(rng.poisson(mean_events_per_clip)):
            onset = rng.uniform(0.0, clip_len)
            duration = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            offset = min(onset + duration, clip_len)
            if snap is not None:
                onset = round(onset / snap) * snap
                offset = round(offset / snap) * snap
                offset = min(offset, clip_len)
                if offset - onset < snap / 2:
                    offset = onset + snap
                    if offset > clip_len:
                        onset, offset = clip_len - snap, clip_len
            events.append(Event(clip_id, int(rng.integers(num_classes)), onset, offset))
    return canonicalize_events(events), metas


def render_posteriors(
    refs: EventTable,
    metas: list[ClipMetadata],
    num_classes: int,
    frame_period: float,
    blur: int = 0,
    noise_sd: float = 0.0,
    dip_prob: float = 0.0,
    rng: np.random.Generator | None = None,
) -> list[Posteriorgram]:
    """Render events as corrupted confidence tracks, one posteriorgram per clip.

    Each event raises the frames it meets (``core.frame_spans``) to 1.0, or
    to its confidence when it has one.  Corruption order:
    blur (moving average over ``blur`` frames), multiplicative dips, additive
    Gaussian noise, then a clip to [0, 1].  Dips are drawn after blurring so
    a notch stays sub-threshold.

    Each event's interior is divided into one notch slot per
    DIP_EVERY_SECONDS (at least one when the interior can hold a notch, so
    every event of 2 s or more carries a dip at dip_prob = 1); each slot
    notches 2 to 4 frames down to 0.3x with probability dip_prob.
    """
    if not 0.0 < frame_period < math.inf:
        raise ValueError(f"frame_period must be finite and > 0, got {frame_period}")
    if not blur >= 0:
        raise ValueError(f"blur must be >= 0, got {blur}")
    if not 0.0 <= noise_sd < math.inf:
        raise ValueError(f"noise_sd must be finite and >= 0, got {noise_sd}")
    if not 0.0 <= dip_prob <= 1.0:
        raise ValueError(f"dip_prob must be in [0, 1], got {dip_prob}")
    if (noise_sd > 0 or dip_prob > 0) and rng is None:
        raise ValueError("rng is required for noise or dips")
    rows_of: dict[str, list[int]] = {}  # each clip's rows, in table order
    for row, clip in enumerate(refs.clip.tolist()):
        rows_of.setdefault(refs.clip_ids[clip], []).append(row)
    posts = []
    for meta in metas:
        t = int(round(meta.duration / frame_period))
        events = refs.take(np.array(rows_of.get(meta.clip_id, []), dtype=np.intp))
        scores = rasterize(events, t, frame_period, num_classes)
        if blur > 1:
            scores = moving_average(scores, blur if blur % 2 == 1 else blur + 1)
        if dip_prob > 0:
            spans = frame_spans(events.onset, events.offset, frame_period, t)
            for first, stop, class_idx in zip(*(a.tolist() for a in spans), events.class_idx.tolist()):
                interior_lo, interior_hi = first + 1, stop - 2  # notches stay mid-event
                if interior_hi - interior_lo + 1 < DIP_FRAMES[0] + 2:
                    continue
                interior_seconds = (interior_hi - interior_lo + 1) * frame_period
                n_slots = max(1, int(interior_seconds / DIP_EVERY_SECONDS))
                slot_edges = np.linspace(interior_lo, interior_hi + 1, n_slots + 1)
                for k in range(n_slots):
                    if rng.random() >= dip_prob:
                        continue
                    width = int(rng.integers(DIP_FRAMES[0], DIP_FRAMES[1] + 1))
                    lo = int(slot_edges[k])
                    hi = min(int(slot_edges[k + 1]) - width, interior_hi - width + 1)
                    if hi < lo:
                        continue
                    start = int(rng.integers(lo, hi + 1))
                    scores[start : start + width, class_idx] *= DIP_DEPTH
        if noise_sd > 0:
            scores = scores + rng.normal(0.0, noise_sd, size=scores.shape)
        posts.append(
            Posteriorgram(
                scores=np.clip(scores, 0.0, 1.0), frame_period=frame_period, clip_id=meta.clip_id
            )
        )
    return posts

