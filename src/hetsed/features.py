"""Audio front-end: padding, windowed STFT, mel filterbank, log compression.

Inputs are 16 kHz mono clips.  Frames are left-aligned (frame t covers samples
[t*hop, t*hop + window)) with a periodic Hann window and no reflection
padding, so frame counts follow 1 + floor((n - window) / hop) exactly.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

SAMPLE_RATE = 16000
WINDOW_SIZE = 2048
STANDARD_HOPS = (160, 256)
LOG_FLOOR = 1e-10
DEFAULT_MEL_BINS = 128
MEL_RANGE = (0.0, 8000.0)
CLIP_SECONDS = 10.0


@dataclass(frozen=True, eq=False)
class AudioClip:
    samples: np.ndarray  # mono, float
    sample_rate: int
    clip_id: str

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValueError(f"samples must be mono 1-D, got shape {samples.shape}")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples contain non-finite values")


@dataclass(frozen=True, eq=False)
class MelSpectrogram:
    values: np.ndarray  # [T, M], natural-log power mel
    frame_period: float

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("mel values contain non-finite entries")


def num_frames(n_samples: int, window: int, hop: int) -> int:
    """Frame count of a left-aligned analysis: 1 + floor((n - window) / hop)."""
    if hop < 1:
        raise ValueError(f"hop must be >= 1, got {hop}")
    if n_samples < window:
        raise ValueError(f"need at least {window} samples, got {n_samples}")
    return 1 + (n_samples - window) // hop


def pad_or_trim(clip: AudioClip, target_seconds: float = CLIP_SECONDS) -> AudioClip:
    """Fix clip length to target_seconds: zero-pad the tail or truncate it."""
    n_target = int(round(target_seconds * clip.sample_rate))
    samples = clip.samples
    if samples.size < n_target:
        samples = np.concatenate([samples, np.zeros(n_target - samples.size)])
    elif samples.size > n_target:
        samples = samples[:n_target]
    return AudioClip(samples=samples, sample_rate=clip.sample_rate, clip_id=clip.clip_id)


def _hann_periodic(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft_magnitude(clip: AudioClip, window: int = WINDOW_SIZE, hop: int = 256) -> np.ndarray:
    """Magnitude spectrogram [T x window/2+1], Hann window, no centering."""
    if hop not in STANDARD_HOPS:
        warnings.warn(f"hop {hop} differs from the standard hops {STANDARD_HOPS}", stacklevel=2)
    t = num_frames(clip.samples.size, window, hop)
    frames = np.lib.stride_tricks.sliding_window_view(clip.samples, window)[:: hop][:t]
    spec = np.fft.rfft(frames * _hann_periodic(window), axis=1)
    return np.abs(spec)


def _hz_to_mel(f: np.ndarray | float) -> np.ndarray | float:
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m: np.ndarray | float) -> np.ndarray | float:
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(
    n_mels: int = DEFAULT_MEL_BINS,
    f_range: tuple[float, float] = MEL_RANGE,
    sample_rate: int = SAMPLE_RATE,
    n_fft: int = WINDOW_SIZE,
) -> np.ndarray:
    """Triangular mel filters as a [n_mels x n_fft/2+1] matrix.

    Centers are equally spaced on the mel scale between f_range; each row is a
    single triangle, non-negative with contiguous support (no normalization).
    """
    if n_mels < 2:
        raise ValueError(f"n_mels must be >= 2, got {n_mels}")
    lo, hi = f_range
    if lo < 0 or hi > sample_rate / 2 or lo >= hi:
        raise ValueError(f"f_range {f_range} outside [0, {sample_rate / 2}]")
    edges = _mel_to_hz(np.linspace(_hz_to_mel(lo), _hz_to_mel(hi), n_mels + 2))
    bin_freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    fb = np.zeros((n_mels, bin_freqs.size))
    for m in range(n_mels):
        left, center, right = edges[m], edges[m + 1], edges[m + 2]
        rising = (bin_freqs - left) / (center - left)
        falling = (right - bin_freqs) / (right - center)
        fb[m] = np.maximum(0.0, np.minimum(rising, falling))
    return fb


@functools.lru_cache(maxsize=8)
def _shared_filterbank(n_mels: int, f_range: tuple[float, float], sample_rate: int, n_fft: int) -> np.ndarray:
    """``mel_filterbank`` built once per argument set, read-only because it is shared."""
    fb = mel_filterbank(n_mels, f_range, sample_rate, n_fft)
    fb.flags.writeable = False
    return fb


def log_mel(spec: np.ndarray, fb: np.ndarray, frame_period: float) -> MelSpectrogram:
    """Natural-log power mel spectrogram, floored at LOG_FLOOR."""
    if spec.shape[1] != fb.shape[1]:
        raise ValueError(f"spectrogram bins {spec.shape[1]} != filterbank bins {fb.shape[1]}")
    power = spec.astype(np.float64) ** 2
    mel_power = power @ fb.T
    return MelSpectrogram(
        values=np.log(np.maximum(mel_power, LOG_FLOOR)),
        frame_period=frame_period,
    )


def extract_log_mel(clip: AudioClip, hop: int, n_mels: int = DEFAULT_MEL_BINS) -> MelSpectrogram:
    """Full front-end for one clip: pad/trim to 10 s, STFT, mel, log."""
    if clip.sample_rate != SAMPLE_RATE:
        raise ValueError(
            f"clip {clip.clip_id!r}: expected {SAMPLE_RATE} Hz input, got {clip.sample_rate}"
        )
    padded = pad_or_trim(clip)
    spec = stft_magnitude(padded, WINDOW_SIZE, hop)
    fb = _shared_filterbank(n_mels, MEL_RANGE, SAMPLE_RATE, WINDOW_SIZE)
    return log_mel(spec, fb, frame_period=hop / clip.sample_rate)


def load_wav(path, clip_id: str | None = None) -> AudioClip:
    """Read a mono 16 kHz WAV (PCM16, PCM32, or float32) as an AudioClip."""
    from scipy.io import wavfile

    rate, data = wavfile.read(path)
    if data.ndim != 1:
        raise ValueError(f"{path}: expected mono audio, got shape {data.shape}")
    if rate != SAMPLE_RATE:
        raise ValueError(f"{path}: expected {SAMPLE_RATE} Hz, got {rate} (resample upstream)")
    if data.dtype == np.int16:
        samples = data / 32768.0
    elif data.dtype == np.int32:
        samples = data / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise ValueError(f"{path}: unsupported WAV sample format {data.dtype}")
    if clip_id is None:
        import os

        clip_id = os.path.splitext(os.path.basename(str(path)))[0]
    return AudioClip(samples=samples, sample_rate=rate, clip_id=clip_id)
