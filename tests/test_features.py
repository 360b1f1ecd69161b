import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetsed.features import (
    AudioClip,
    LOG_FLOOR,
    MelSpectrogram,
    extract_log_mel,
    load_wav,
    mel_filterbank,
    num_frames,
    pad_or_trim,
)
from oracles import FLOAT32_MEL_TOLERANCE, frozen_every_frame_log_mel, reference_mel_power

SR = 16000


def clip_of(samples, clip_id="t"):
    return AudioClip(samples=samples, sample_rate=SR, clip_id=clip_id)


def test_num_frames_paper_parameters():
    assert num_frames(160000, 2048, 256) == 618
    assert num_frames(160000, 2048, 160) == 988
    assert num_frames(2048, 2048, 256) == 1


def test_num_frames_errors():
    with pytest.raises(ValueError):
        num_frames(2047, 2048, 256)
    with pytest.raises(ValueError):
        num_frames(4096, 2048, 0)


def test_pad_or_trim():
    short = pad_or_trim(clip_of(np.ones(8 * SR)))
    assert short.samples.size == 10 * SR
    assert np.all(short.samples[8 * SR :] == 0.0)
    exact = pad_or_trim(clip_of(np.ones(10 * SR)))
    assert exact.samples.size == 10 * SR and np.all(exact.samples == 1.0)
    long = pad_or_trim(clip_of(np.arange(12 * SR, dtype=np.float64)))
    assert long.samples.size == 10 * SR
    assert long.samples[-1] == 10 * SR - 1


def test_log_mel_of_silence_is_the_floor():
    mel = extract_log_mel(clip_of(np.zeros(3 * SR)), hop=256)
    assert mel.values.shape == (num_frames(160000, 2048, 256), 128)
    assert np.all(mel.values == np.log(LOG_FLOOR))


def test_log_mel_of_a_sine_peaks_in_the_band_weighting_its_bin_most():
    fb = mel_filterbank()
    inside = num_frames(2 * SR, 2048, 256)  # frames that lie within the sine
    for k in (32, 100, 500):
        freq = k * SR / 2048
        t = np.arange(2 * SR) / SR
        mel = extract_log_mel(clip_of(np.sin(2 * np.pi * freq * t)), hop=256)
        interior = mel.values[2 : inside - 2]
        assert np.all(np.argmax(interior, axis=1) == np.argmax(fb[:, k])), f"bin {k} not in the peak band"


def test_log_mel_frame_count_is_that_of_a_padded_clip():
    for hop in (160, 256):
        for n in (37 * 1024, 12 * SR):
            mel = extract_log_mel(clip_of(np.random.default_rng(0).normal(size=n)), hop=hop)
            assert mel.values.shape[0] == num_frames(160000, 2048, hop)


def test_log_mel_warns_on_nonstandard_hop():
    with pytest.warns(UserWarning, match="hop"):
        extract_log_mel(clip_of(np.zeros(SR)), hop=128)


def test_mel_filterbank_shape_and_support():
    fb = mel_filterbank()
    assert fb.shape == (128, 1025)
    assert np.all(fb >= 0.0)
    assert np.all(fb.sum(axis=1) > 0.0)
    # each row's support is one contiguous band
    for row in fb:
        active = np.flatnonzero(row > 0)
        assert active.size > 0
        assert np.all(np.diff(active) == 1)


def test_mel_filterbank_peaks_strictly_increase():
    fb = mel_filterbank()
    peaks = np.argmax(fb, axis=1)
    assert np.all(np.diff(peaks) > 0)


def test_mel_filterbank_range_errors():
    with pytest.raises(ValueError):
        mel_filterbank(f_range=(0.0, 9000.0))
    with pytest.raises(ValueError):
        mel_filterbank(n_mels=1)


def test_log_mel_floor_and_homogeneity():
    mel = extract_log_mel(clip_of(np.zeros(SR)), hop=256)
    assert np.allclose(mel.values, np.log(LOG_FLOOR))

    rng = np.random.default_rng(3)
    audio = rng.normal(size=SR)
    m1 = extract_log_mel(clip_of(audio), hop=256)
    m2 = extract_log_mel(clip_of(2.0 * audio), hop=256)
    above_floor = m1.values > np.log(LOG_FLOOR) + 1e-6
    assert above_floor.any()
    assert np.allclose(m2.values[above_floor] - m1.values[above_floor], np.log(4.0), atol=1e-9)


def test_amplification_never_decreases_log_mel():
    rng = np.random.default_rng(5)
    audio = rng.normal(size=2 * SR)
    a = extract_log_mel(clip_of(audio), hop=256).values
    b = extract_log_mel(clip_of(3.0 * audio), hop=256).values
    assert np.all(b >= a - 1e-12)


def test_extract_log_mel_deterministic_bytes():
    rng = np.random.default_rng(6)
    audio = rng.normal(size=SR)
    a = extract_log_mel(clip_of(audio), hop=160)
    b = extract_log_mel(clip_of(audio.copy()), hop=160)
    assert a.values.tobytes() == b.values.tobytes()
    assert a.frame_period == 160 / SR


def test_extract_log_mel_rejects_wrong_rate():
    clip = AudioClip(np.zeros(44100), 44100, "bad")
    with pytest.raises(ValueError, match="16000"):
        extract_log_mel(clip, hop=256)


def _audio(kind: str, n: int, gain: float, rng: np.random.Generator) -> np.ndarray:
    if kind == "silent":
        return np.zeros(n)
    if kind == "sine":
        return gain * np.sin(2 * np.pi * rng.uniform(50.0, 7950.0) * np.arange(n) / SR)
    if kind == "clipped":
        return np.clip(10.0 * gain * rng.normal(size=n), -1.0, 1.0)
    if kind == "bursts":  # clicks and 10 ms noise bursts in silence
        x = np.zeros(n)
        for at, width in zip(rng.integers(0, n + 1, size=4), rng.choice([1, 160], size=4)):
            burst = x[at : at + width]
            burst += gain * rng.normal(size=burst.size)
        return x
    return gain * rng.normal(size=n)


def _assert_tracks_the_oracle(samples: np.ndarray, hop: int, n_mels: int, rel: float) -> None:
    """The log-mel of samples against reference_mel_power on the same values:
    mel power within rel x the larger of the frame's largest bin power and
    the oracle's own value, and the floor exactly where the oracle sits
    clearly under it."""
    mel = extract_log_mel(clip_of(samples), hop=hop, n_mels=n_mels)
    ref, frame_max = reference_mel_power(samples, hop, n_mels)
    assert mel.values.shape == ref.shape == (num_frames(10 * SR, 2048, hop), n_mels)
    assert mel.frame_period == hop / SR
    tol = rel * np.maximum(frame_max[:, None], ref)
    floor = np.log(LOG_FLOOR)
    at_floor = mel.values == floor
    assert np.all(mel.values >= floor)
    assert np.all(~at_floor | (ref <= LOG_FLOOR + tol))
    assert np.all(at_floor | (ref >= LOG_FLOOR - tol))
    above = ~at_floor & (ref > LOG_FLOOR)
    assert np.all(~above | (np.abs(np.exp(mel.values) - ref) <= tol))


CLIPS = dict(
    n=st.integers(0, 13 * SR),
    hop=st.sampled_from([160, 256]),
    n_mels=st.sampled_from([2, 40, 128]),
    kind=st.sampled_from(["noise", "sine", "bursts", "clipped", "silent"]),
    gain=st.floats(1e-4, 10.0),
    seed=st.integers(0, 2**16),
)


@settings(max_examples=40, deadline=None)
@given(**CLIPS)
def test_extract_log_mel_matches_the_scipy_oracle(n, hop, n_mels, kind, gain, seed):
    """Float64 samples within 1e-12.  The relative term is for wide bands
    (two bands span about 500 bins each), whose sums of that many terms
    round by up to about 500 x 1.1e-16 relative; it also covers the round
    trip through log and exp.  The two compute the triangle edges with
    different roundings, which moves a band's weights by at most 5.8e-13 in
    sum."""
    _assert_tracks_the_oracle(_audio(kind, n, gain, np.random.default_rng(seed)), hop, n_mels, 1e-12)


@settings(max_examples=40, deadline=None)
@given(**CLIPS)
def test_extract_log_mel_of_float32_matches_the_scipy_oracle(n, hop, n_mels, kind, gain, seed):
    """Float32 samples, whose STFT runs at float32, within the bound
    tests/oracles.py derives for it; the oracle takes the same values at
    float64."""
    samples = _audio(kind, n, gain, np.random.default_rng(seed)).astype(np.float32)
    _assert_tracks_the_oracle(samples, hop, n_mels, FLOAT32_MEL_TOLERANCE)


def test_audio_clip_rejects_a_non_finite_sample_rate():
    with pytest.raises(ValueError, match="sample_rate"):
        AudioClip(np.zeros(10), float("nan"), "x")
    with pytest.raises(ValueError, match="sample_rate"):
        AudioClip(np.zeros(10), float("inf"), "x")


@pytest.mark.parametrize("period", [float("nan"), -0.01, 0.0, float("inf")])
def test_mel_spectrogram_rejects_a_bad_frame_period(period):
    with pytest.raises(ValueError, match="frame_period"):
        MelSpectrogram(np.zeros((3, 2)), period)


@pytest.mark.parametrize("f_range", [(float("nan"), 8000.0), (0.0, float("nan")), (100.0, 100.0)])
def test_mel_filterbank_rejects_a_bad_range(f_range):
    with pytest.raises(ValueError, match="f_range"):
        mel_filterbank(f_range=f_range)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("size", [1, 2047, 2048, 2049, 40000, 159999, 160000, 200000])
@pytest.mark.parametrize("hop, n_mels", [(160, 2), (256, 128)])
def test_log_mel_gives_the_bits_of_transforming_every_frame(dtype, size, hop, n_mels):
    # frames wholly in the zero padding are not transformed: they get the
    # floored log of +0 mel power, which transforming them gives
    samples = np.random.default_rng([size, hop]).normal(scale=0.1, size=size).astype(dtype)
    got = extract_log_mel(clip_of(samples), hop, n_mels).values
    want = frozen_every_frame_log_mel(samples, hop, n_mels)
    assert got.dtype == want.dtype == np.float64 and got.tobytes() == want.tobytes()


def test_load_wav_pcm16_and_float32(tmp_path):
    from scipy.io import wavfile

    rng = np.random.default_rng(7)
    audio = np.clip(rng.normal(scale=0.1, size=SR), -1, 1)

    p16 = tmp_path / "a.wav"
    wavfile.write(p16, SR, (audio * 32767).astype(np.int16))
    c16 = load_wav(p16)
    assert c16.clip_id == "a"
    assert np.max(np.abs(c16.samples - audio)) < 1e-3

    p32 = tmp_path / "b.wav"
    wavfile.write(p32, SR, audio.astype(np.float32))
    c32 = load_wav(p32)
    assert np.max(np.abs(c32.samples - audio)) < 1e-6


@pytest.mark.parametrize("kind, scale, dtype", [
    ("int16", 2.0**-15, np.float32),  # 16-bit integers fit float32's mantissa: int16 / 32768 is exact
    ("int32", 2.0**-31, np.float64),  # 31-bit integers do not
    ("float32", 1.0, np.float32),
])
def test_load_wav_samples_are_the_scaled_wav_at_the_narrowest_exact_dtype(tmp_path, kind, scale, dtype):
    from scipy.io import wavfile

    audio = np.clip(np.random.default_rng(8).normal(scale=0.3, size=SR), -1, 1)
    if kind == "float32":
        data = audio.astype(np.float32)
    else:
        info = np.iinfo(kind)
        data = np.concatenate([np.round(audio * info.max), [info.min, info.max, -1, 0, 1]]).astype(kind)
    path = tmp_path / "w.wav"
    wavfile.write(path, SR, data)
    samples = load_wav(path).samples
    assert samples.dtype == dtype
    _, read = wavfile.read(path)
    assert np.array_equal(samples, read.astype(np.float64) * scale)
    if kind == "int16":
        assert np.array_equal(samples, data / 32768)


def test_load_wav_rejects_wrong_rate(tmp_path):
    from scipy.io import wavfile

    path = tmp_path / "c.wav"
    wavfile.write(path, 8000, np.zeros(100, dtype=np.int16))
    with pytest.raises(ValueError, match="16000"):
        load_wav(path)
