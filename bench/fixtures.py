"""Seeded benchmark inputs: SED posteriorgram fixtures and 16 kHz WAV clips.

Only positions, classes, dips and noise depend on the seed.  Event lengths
are a fixed stratified sample of synth's log-uniform law and every clip gets
the same number of events, so the amount of work a fixture causes barely
moves with the seed.  (``hetsed synth`` draws Poisson event counts; at 50
clips that alone swings the quadratic PSDS sweep by 20% between seeds.)
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.io import wavfile

from hetsed import formats, synth
from hetsed.core import ClipMetadata, Event, Origin, canonicalize_events

CLIP_SECONDS = 10.0
SAMPLE_RATE = 16000


def sed_fixture(
    out: Path,
    seed: int,
    clips: int,
    class_names: list[str],
    frame_period: float,
    events_per_clip: int = 2,
    noise_sd: float = 0.05,
) -> None:
    """Write refs.tsv, durations.tsv and posteriors/*.sedp under ``out``.

    Posteriorgrams carry the README walkthrough corruption: 3-frame blur,
    a dip in every event slot (dip probability 1.0) and noise of sd 0.05
    unless ``noise_sd`` says otherwise.
    """
    rng = np.random.default_rng(seed)
    frames = round(CLIP_SECONDS / frame_period)
    n = clips * events_per_clip
    lo, hi = synth.DURATION_RANGE
    quantiles = (np.arange(n) + 0.5) / n
    seconds = np.exp(np.log(lo) + quantiles * np.log(hi / lo))
    lengths = rng.permutation(np.maximum(1, np.rint(seconds / frame_period)).astype(int))
    classes = rng.permutation(np.arange(n) % len(class_names))
    events, metas = [], []
    for i in range(clips):
        clip_id = f"clip_{i:04d}"
        metas.append(ClipMetadata(clip_id=clip_id, origin=Origin.DESED_SYNTH, duration=CLIP_SECONDS))
        for j in range(i * events_per_clip, (i + 1) * events_per_clip):
            start = int(rng.integers(0, frames - lengths[j] + 1))
            onset = round(start * frame_period, 6)
            offset = round((start + lengths[j]) * frame_period, 6)
            events.append(Event(clip_id, int(classes[j]), onset, offset))
    refs = canonicalize_events(events)
    posts = synth.render_posteriors(
        refs, metas, len(class_names), frame_period, blur=3, noise_sd=noise_sd, dip_prob=1.0, rng=rng
    )
    formats.write_events_tsv(out / "refs.tsv", refs, class_names)
    formats.write_durations_tsv(out / "durations.tsv", {m.clip_id: m.duration for m in metas})
    for post in posts:
        formats.write_posteriorgram(out / "posteriors" / f"{post.clip_id}.sedp", post, class_names)


def wav_fixture(out: Path, seed: int, clips: int) -> None:
    """Write ``clips`` mono PCM16 WAVs of 7 to 13 s (half padded, half trimmed).

    Each clip is low noise plus three one-second tones at random pitches.
    """
    rng = np.random.default_rng(seed)
    out.mkdir(parents=True, exist_ok=True)
    for i, seconds in enumerate(rng.permutation(np.linspace(7.0, 13.0, clips))):
        n = int(round(seconds * SAMPLE_RATE))
        t = np.arange(n) / SAMPLE_RATE
        x = 0.05 * rng.standard_normal(n)
        for _ in range(3):
            pitch = rng.uniform(100.0, 7000.0)
            onset = rng.uniform(0.0, seconds - 1.0)
            x += 0.2 * np.sin(2 * np.pi * pitch * t) * ((t >= onset) & (t < onset + 1.0))
        pcm = np.round(np.clip(x, -1.0, 1.0) * 32767).astype(np.int16)
        wavfile.write(out / f"clip_{i:02d}.wav", SAMPLE_RATE, pcm)
