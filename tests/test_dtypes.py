"""The log-mel front-end and the training-side transforms at float32 and
float64.

A float64 input must give the same bits as the float64-only implementation,
the log-mel front-end as its frozen copy in tests/oracles.py gives them in
the same process and the transforms as the digests below; a float32 input must stay float32 (the
front-end: take a float32 STFT) and agree with the float64 path on the same
values to a pinned relative bound; the losses upcast on entry, so a float32
slice changes no loss arithmetic.

Posteriorgrams keep float32 scores as they are read, so every consumer of
them must give the same bytes for float32 scores as for their float64 copy.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetsed import augment, cli, domain_gen, evaluation, features, formats, postprocess, training
from hetsed.core import ClipMetadata, Event, EventTable, Origin, Posteriorgram, default_vocabulary
from oracles import FLOAT32_MEL_TOLERANCE, frozen_float64_log_mel, reference_mel_power

CFG = domain_gen.MixStyleConfig()
SHAPES = {
    "bench": (60, 128, 988),  # one 60-clip batch of 128-bin, 10 s log-mels at hop 160
    "small": (4, 8, 32),
    "clamp": (3, 5, 16),  # instance 1, bin 2 is constant: its std sits on the epsilon clamp
    "short": (5, 3, 2),
}
LAMBDAS = (0.0, 0.37, 0.999, 1.0)
ORIGINS = [Origin.DESED_SYNTH, Origin.MAESTRO, Origin.DESED_WEAK, Origin.MAESTRO, Origin.DESED_UNLABELED,
           Origin.DESED_SYNTH, Origin.DESED_STRONG]


def _metas(n: int) -> list[ClipMetadata]:
    return [ClipMetadata(f"c{i}", ORIGINS[i % len(ORIGINS)], 10.0) for i in range(n)]


def _digest(*arrays: np.ndarray) -> str:
    """The first 16 hex digits of the SHA-256 of the arrays' dtypes, shapes
    and C-order bytes."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _batch(name: str):
    """A seeded log-mel-like float64 batch, a partner permutation and an
    upstream gradient of its shape."""
    shape = SHAPES[name]
    rng = np.random.default_rng([19, *shape])
    batch = rng.normal(scale=2.5, size=shape) + rng.normal(-4.0, 3.0, size=shape[:2] + (1,))
    if name == "clamp":
        batch[1, 2] = 4.2
    return batch, rng.permutation(shape[0]), rng.normal(size=shape)


def _domain_gen_digests(name: str) -> dict[str, str]:
    batch, perm, upstream = _batch(name)
    _, mean, std = domain_gen._centred(batch)  # the statistics every transform standardises with
    out = {"stats": _digest(mean, np.maximum(std, CFG.epsilon)),
           "residual_norm": _digest(domain_gen.residual_norm(batch, 0.5))}
    for lam in LAMBDAS:
        out[f"mixstyle-{lam}"] = _digest(domain_gen.freq_mixstyle(batch, perm, lam, CFG))
        out[f"grad-{lam}"] = _digest(domain_gen.freq_mixstyle_input_grad(batch, perm, lam, upstream, CFG))
    return out


def _augment_digests() -> dict[str, str]:
    rng = np.random.default_rng(1919)
    features = rng.normal(-4.0, 2.5, size=(128, 988))
    out = {}
    for ratio, count in ((0.25, 1), (1.0, 3), (0.0, 1)):
        out[f"time_mask-{ratio}-{count}"] = _digest(augment.time_mask(features, ratio, count, rng))
    metas = _metas(len(ORIGINS))
    batch = rng.normal(-4.0, 2.5, size=(len(metas), 16, 50))
    for alpha in (0.5, 0.2):
        out[f"mixup-{alpha}"] = _digest(augment.mixup_within_dataset(batch, metas, rng, alpha))
    return out


# Taken from the float64-only transforms (domain_gen and augment before they
# kept a float32 input's dtype) on x86-64 with numpy 2.4.
PINNED = {
    "bench": {
        "stats": "7ed706ea6f29380d",
        "residual_norm": "54bb0e9ea003e1b3",
        "mixstyle-0.0": "013e9c8a86279787",
        "grad-0.0": "9452fcb5b9bcba26",
        "mixstyle-0.37": "b6eacb2926ad5071",
        "grad-0.37": "75f4333e52127706",
        "mixstyle-0.999": "1a8499069a756610",
        "grad-0.999": "4d087886ad0afe97",
        "mixstyle-1.0": "6c8612d0eb7bfd63",
        "grad-1.0": "4328383969f77ac8",
    },
    "small": {
        "stats": "118c77a2a72248be",
        "residual_norm": "96bda6a63eb34bd6",
        "mixstyle-0.0": "29a5bb3263ed808c",
        "grad-0.0": "2b1ec1f2484a9cc2",
        "mixstyle-0.37": "4ab7fc2cc4d5f5ee",
        "grad-0.37": "b26bf0211138ff33",
        "mixstyle-0.999": "de297fd62943377c",
        "grad-0.999": "e82badb6350a9748",
        "mixstyle-1.0": "de23a3efa02eb887",
        "grad-1.0": "e841db29731f9efb",
    },
    "clamp": {
        "stats": "930090a10752c42c",
        "residual_norm": "995da92a25d26126",
        "mixstyle-0.0": "ae1d11d82e7c082d",
        "grad-0.0": "35b7f32f5cb72bd7",
        "mixstyle-0.37": "b0c753d68d805d0b",
        "grad-0.37": "8529835a134ee477",
        "mixstyle-0.999": "b42258e2f775d5bd",
        "grad-0.999": "bab50db02e4ef267",
        "mixstyle-1.0": "3988301451d1d323",
        "grad-1.0": "20b0175020249440",
    },
    "short": {
        "stats": "2995c541a9324457",
        "residual_norm": "643585bd28aacec0",
        "mixstyle-0.0": "da5be546ce3181ca",
        "grad-0.0": "8df8b51a3e870110",
        "mixstyle-0.37": "7c25207b31b57459",
        "grad-0.37": "aad68077bb7d7244",
        "mixstyle-0.999": "16e0a911a254e1f5",
        "grad-0.999": "d44ebfc8e4d4c98c",
        "mixstyle-1.0": "36a9df9dfa70d66a",
        "grad-1.0": "4b371d94881cee6c",
    },
    "augment": {
        "time_mask-0.25-1": "c5619cafa4f94977",
        "time_mask-1.0-3": "e87622384c2d12c4",
        "time_mask-0.0-1": "fb890c4173ce9aad",
        "mixup-0.5": "600ebc2a729a6057",
        "mixup-0.2": "606c2efd226b26ff",
    },
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_domain_gen_float64_is_bit_identical(name):
    assert _domain_gen_digests(name) == PINNED[name]


def test_augment_float64_is_bit_identical():
    assert _augment_digests() == PINNED["augment"]


MEL_CASES = [(160, 40), (160, 128), (256, 40), (256, 128)]  # (hop, mel bands)


def _noise_then_silence(gain: float = 0.1) -> np.ndarray:
    """9 s of float64 samples: 7 s of seeded noise, then 2 s of zeros, to
    which the front-end's padding adds a third second."""
    rng = np.random.default_rng(25)
    return np.concatenate([rng.normal(scale=gain, size=7 * 16000), np.zeros(2 * 16000)])


def _log_mel(samples: np.ndarray, hop: int, n_mels: int) -> np.ndarray:
    return features.extract_log_mel(features.AudioClip(samples, 16000, "n"), hop=hop, n_mels=n_mels).values


@pytest.mark.parametrize("hop, n_mels", MEL_CASES)
def test_extract_log_mel_float64_is_bit_identical(hop, n_mels):
    # the float64-only front-end (numpy.fft.rfft on float64 frames), run in
    # this process: numpy picks its float64 log kernel by CPU at run time,
    # so a digest stored on one CPU need not match on another
    samples = _noise_then_silence()
    got, want = _log_mel(samples, hop, n_mels), frozen_float64_log_mel(samples, hop, n_mels)
    assert got.dtype == want.dtype == np.float64 and np.array_equal(got, want)


@pytest.mark.parametrize("gain", [1e-4, 0.1, 10.0])
@pytest.mark.parametrize("hop, n_mels", MEL_CASES)
def test_float32_log_mel_takes_a_float32_stft_and_tracks_the_float64_path(hop, n_mels, gain, monkeypatch):
    """The float32 clip's mel power within FLOAT32_MEL_TOLERANCE (derived in
    tests/oracles.py) x the larger of the frame's largest bin power and the
    float64 path's value on the same samples."""
    from scipy import fft

    rfft, seen = fft.rfft, []

    def recording_rfft(x, *args, **kwargs):
        seen.append(x.dtype)
        return rfft(x, *args, **kwargs)

    monkeypatch.setattr(fft, "rfft", recording_rfft)
    x32 = _noise_then_silence(gain).astype(np.float32)
    low = _log_mel(x32, hop, n_mels)
    assert seen and set(seen) == {np.dtype(np.float32)}
    high = _log_mel(x32.astype(np.float64), hop, n_mels)
    assert low.dtype == high.dtype == np.float64
    _, frame_max = reference_mel_power(x32.astype(np.float64), hop, n_mels)
    low, high = np.exp(low), np.exp(high)
    assert np.all(np.abs(low - high) <= FLOAT32_MEL_TOLERANCE * np.maximum(frame_max[:, None], high))


TRANSFORMS = {
    "mixup_within_dataset": lambda x: augment.mixup_within_dataset(x, _metas(len(x)), np.random.default_rng(0)),
    "mixup_within_dataset one family": lambda x: augment.mixup_within_dataset(
        x, [ClipMetadata(f"c{i}", Origin.DESED_WEAK, 10.0) for i in range(len(x))], np.random.default_rng(0)),
    "mixup_within_dataset singletons": lambda x: augment.mixup_within_dataset(
        x[:2], _metas(2), np.random.default_rng(0)),  # one DESED and one MAESTRO clip
    "time_mask": lambda x: augment.time_mask(x[0], 0.5, 2, np.random.default_rng(0)),
    "time_mask zero width": lambda x: augment.time_mask(x[0], 0.1),
    "time_mask no masks": lambda x: augment.time_mask(x[0], 0.5, 0),
    "freq_mixstyle": lambda x: domain_gen.freq_mixstyle(x, [2, 0, 3, 1], 0.37, CFG),
    "freq_mixstyle lam 1": lambda x: domain_gen.freq_mixstyle(x, [2, 0, 3, 1], 1.0, CFG),
    "freq_mixstyle_input_grad": lambda x: domain_gen.freq_mixstyle_input_grad(
        x, [2, 0, 3, 1], 0.37, np.linspace(-1.0, 1.0, x.size).reshape(x.shape), CFG),
    "freq_mixstyle_input_grad lam 1": lambda x: domain_gen.freq_mixstyle_input_grad(
        x, [2, 0, 3, 1], 1.0, np.ones(x.shape, x.dtype), CFG),
    "residual_norm": lambda x: domain_gen.residual_norm(x, 0.5),
}
DTYPES = [  # input dtype, the dtype every transform returns for it
    (np.float32, np.float32),
    (np.float64, np.float64),
    (np.float16, np.float64),
    (np.int64, np.float64),
    (np.int8, np.float64),
    (np.bool_, np.float64),
]


@pytest.mark.parametrize("in_dtype, out_dtype", DTYPES)
@pytest.mark.parametrize("name", sorted(TRANSFORMS))
def test_transforms_keep_float32_and_float64_and_widen_the_rest(name, in_dtype, out_dtype):
    values = np.arange(4 * 3 * 9).reshape(4, 3, 9) % 7
    x = (values > 2 if in_dtype is np.bool_ else values).astype(in_dtype)
    out = TRANSFORMS[name](x)
    assert out.dtype == out_dtype
    assert not np.shares_memory(out, x)


def test_transforms_accept_lists_as_float64():
    x = (np.arange(4 * 3 * 9).reshape(4, 3, 9) % 7).tolist()
    assert domain_gen.residual_norm(x, 0.5).dtype == np.float64
    assert augment.time_mask(x[0], 0.0).dtype == np.float64


def test_gradient_takes_the_batch_dtype_for_upstream():
    rng = np.random.default_rng(5)
    batch = rng.normal(size=(3, 4, 10)).astype(np.float32)
    upstream = rng.normal(size=batch.shape)
    grad = domain_gen.freq_mixstyle_input_grad(batch, [1, 2, 0], 0.6, upstream, CFG)
    assert grad.dtype == np.float32
    same = domain_gen.freq_mixstyle_input_grad(batch, [1, 2, 0], 0.6, upstream.astype(np.float32), CFG)
    assert np.array_equal(grad, same)
    assert domain_gen.freq_mixstyle_input_grad(batch, [1, 2, 0], 1.0, upstream, CFG).dtype == np.float32


def test_statistics_of_float32_are_float64():
    rng = np.random.default_rng(6)
    batch = rng.normal(-4.0, 2.0, size=(3, 4, 10)).astype(np.float32)
    centred, mean, std = domain_gen._centred(batch)
    assert centred.dtype == np.float32
    assert mean.dtype == np.float64 and std.dtype == np.float64
    exact = batch.astype(np.float64)
    assert np.allclose(mean, exact.mean(axis=2), rtol=1e-15, atol=0.0)
    # the std is taken from the float32 batch minus its mean cast to float32
    assert np.allclose(std, exact.std(axis=2), rtol=1e-6, atol=0.0)


def test_time_mask_of_float32_is_the_float64_mask_exactly():
    rng = np.random.default_rng(7)
    features = rng.normal(size=(16, 100)).astype(np.float32)
    masked = augment.time_mask(features, 0.5, 3, np.random.default_rng(8))
    wide = augment.time_mask(features.astype(np.float64), 0.5, 3, np.random.default_rng(8))
    assert masked.dtype == np.float32
    assert np.array_equal(masked, wide.astype(np.float32))


# Largest float32-vs-float64 |difference| on the same values, relative to
# max|x| (mixup, MixStyle), to max|upstream| (the gradient, which is linear
# in it) and to max|output| (residual norm, whose standardized part does not
# scale with x).  The largest measured in five runs of 3,000 draws of the
# strategy below: mixup 1.2e-7, MixStyle 3.5e-7, gradient 1.2e-5 and
# residual norm 2.0e-6.  The gradient's terms cancel when the upstream is
# the MixStyle output and a partner's std is much larger than an instance's.
TOLERANCE = {"mixup": 3e-7, "styled": 1e-6, "grad": 4e-5, "normed": 6e-6}


@st.composite
def float32_batches(draw):
    """A float32 [B, F, T] batch whose every (instance, bin) row has a mean
    within 4 sigma_max of zero and a std in [sigma_max / 10, sigma_max], far
    from the epsilon clamp at every scale drawn; an upstream gradient, which
    is either independent noise or, as in a training step, the batch's own
    MixStyle output; a partner permutation and a mixing weight."""
    b, f, t = draw(st.integers(2, 6)), draw(st.integers(1, 8)), draw(st.integers(2, 64))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(size=(b, f, t))
    z -= z.mean(axis=2, keepdims=True)
    z /= z.std(axis=2, keepdims=True)
    x = (rng.uniform(-4.0, 4.0, size=(b, f, 1)) + rng.uniform(0.1, 1.0, size=(b, f, 1)) * z) * scale
    perm = rng.permutation(b)
    lam = draw(st.sampled_from([0.0, 0.999]) | st.floats(0.0, 1.0))
    if draw(st.booleans()):
        upstream = rng.normal(size=(b, f, t)) * 10.0 ** rng.uniform(-1.0, 1.0)
    else:
        upstream = domain_gen.freq_mixstyle(x.astype(np.float32), perm, lam, CFG)
    return x.astype(np.float32), upstream.astype(np.float32), perm, lam


def _rel(low: np.ndarray, high: np.ndarray, ref: np.ndarray) -> float:
    assert low.dtype == np.float32 and high.dtype == np.float64
    return float(np.abs(low - high).max() / max(np.abs(ref).max(), np.finfo(np.float64).tiny))


@settings(max_examples=300, deadline=None)
@given(float32_batches())
def test_float32_tracks_the_float64_path(case):
    x32, g32, perm, lam = case
    x64, g64 = x32.astype(np.float64), g32.astype(np.float64)
    mixed = [augment.mixup_within_dataset(x, _metas(len(x)), np.random.default_rng(1)) for x in (x32, x64)]
    assert _rel(*mixed, x64) <= TOLERANCE["mixup"]
    styled = [domain_gen.freq_mixstyle(x, perm, lam, CFG) for x in (x32, x64)]
    assert _rel(*styled, x64) <= TOLERANCE["styled"]
    grads = [domain_gen.freq_mixstyle_input_grad(x, perm, lam, g, CFG) for x, g in ((x32, g32), (x64, g64))]
    assert _rel(*grads, g64) <= TOLERANCE["grad"]
    normed = [domain_gen.residual_norm(x, 0.5) for x in (x32, x64)]
    assert _rel(*normed, normed[1]) <= TOLERANCE["normed"]


def test_losses_upcast_float32_slices():
    rng = np.random.default_rng(9)
    normed = rng.normal(size=(3, 10, 40)).astype(np.float32)  # [rows, C, T] as the training step slices it
    mask = np.array([True, False, True, True, False, True, True, True, False, True])
    for row in normed:
        frame, attn = row[:, :20].T, row[:, 20:].T
        pred = (1.0 / (1.0 + np.exp(-frame))).astype(np.float32)
        target = (attn > 0).astype(np.float32)
        wide = [a.astype(np.float64) for a in (frame, attn, pred, target)]
        assert training.masked_bce(pred, target, mask) == training.masked_bce(wide[2], wide[3], mask)
        assert training.consistency_mse(pred, target, mask) == training.consistency_mse(wide[2], wide[3], mask)
        pooled = training.attention_pool(frame, attn, mask)
        assert pooled.dtype == np.float64
        assert np.array_equal(pooled, training.attention_pool(wide[0], wide[1], mask))


def _posteriorgrams_in_both_dtypes(classes: int = 3):
    """Seeded float32 posteriorgrams of held levels plus noise, a fifth of
    the cells exactly 0.0, 0.5 or 1.0, over two frame counts of one period
    and one of another, and their float64 copies."""
    rng = np.random.default_rng(31)
    posts = []
    for i, (t, fp) in enumerate(((120, 0.05), (120, 0.05), (87, 0.05), (200, 0.02))):
        levels = np.repeat(rng.uniform(size=(t // 6 + 1, classes)), 6, axis=0)[:t]
        scores = np.clip(levels + rng.normal(scale=0.05, size=(t, classes)), 0.0, 1.0).astype(np.float32)
        exact = rng.random(size=scores.shape) < 0.2
        scores[exact] = rng.choice(np.float32([0.0, 0.5, 1.0]), size=int(exact.sum()))
        posts.append(Posteriorgram(scores, fp, f"clip{i}"))
    wide = [Posteriorgram(p.scores.astype(np.float64), p.frame_period, p.clip_id) for p in posts]
    assert all(p.scores.dtype == np.float32 for p in posts)
    return posts, wide


def _table_bytes(events: EventTable) -> tuple:
    return (list(events.clip_ids), *(_digest(column) for column in (
        events.clip, events.class_idx, events.onset, events.offset, events.confidence, events.has_confidence)))


@pytest.mark.parametrize("window", [1, 7])
def test_frame_threshold_merge_of_float32_scores_is_that_of_their_float64_copy(window):
    posts, wide = _posteriorgrams_in_both_dtypes()
    thresholds = [0.5, 0.3, 0.5]  # a score of exactly 0.5 is not above 0.5
    events = postprocess.frame_threshold_merge(posts, thresholds, window)
    assert len(events) > 20
    assert _table_bytes(events) == _table_bytes(postprocess.frame_threshold_merge(wide, thresholds, window))


def test_csebb_detect_and_tune_csebb_of_float32_scores_are_those_of_their_float64_copy():
    posts, wide = _posteriorgrams_in_both_dtypes()
    boxes = postprocess.csebb_detect(posts, postprocess.CsebbParams(), None)
    assert len(boxes) > 20
    assert _table_bytes(boxes) == _table_bytes(postprocess.csebb_detect(wide, postprocess.CsebbParams(), None))

    refs = postprocess.frame_threshold_merge(wide, [0.6] * 3, 7)
    hours = sum(p.duration for p in wide) / evaluation.SECONDS_PER_HOUR
    grid = postprocess.default_grid()

    def tuned(ps):
        seen = []

        def metric(boxes, sets):
            seen.append((_table_bytes(boxes), [_digest(s) for s in sets]))
            curves = evaluation.roc_from_confidences(boxes, sets, refs, hours, evaluation.PsdsConfig(), 3)
            return [evaluation.psds(curve) for curve in curves]

        return postprocess.tune_csebb(ps, grid, metric), seen

    assert tuned(posts) == tuned(wide)


def test_segment_scores_and_mpauc_of_float32_scores_are_those_of_their_float64_copy():
    posts, wide = _posteriorgrams_in_both_dtypes()
    pooled, pooled_wide = evaluation.segment_scores(posts), evaluation.segment_scores(wide)
    assert pooled.dtype == np.float64 and _digest(pooled) == _digest(pooled_wide)
    hard = np.random.default_rng(34).random(size=pooled.shape) < 0.4  # labels that the scores only partly rank
    per_class = evaluation.mpauc_per_class(pooled, hard)
    assert not np.isnan(per_class).any()
    assert _digest(per_class) == _digest(evaluation.mpauc_per_class(pooled_wide, hard))


@pytest.mark.parametrize("members", [2, 3, 8, 9, 16, 17])
def test_ensemble_average_of_float32_scores_is_that_of_their_float64_copy(members):
    rng = np.random.default_rng([32, members])
    posts = []
    for _ in range(members):
        scores = rng.uniform(size=(50, 4)).astype(np.float32)
        exact = rng.random(size=scores.shape) < 0.3
        scores[exact] = rng.choice(np.float32([0.0, 0.5, 1.0]), size=int(exact.sum()))
        posts.append(Posteriorgram(scores, 0.05, "avg"))
    wide = [Posteriorgram(p.scores.astype(np.float64), 0.05, "avg") for p in posts]
    mean = postprocess.ensemble_average(posts).scores
    assert mean.dtype == np.float64 and _digest(mean) == _digest(postprocess.ensemble_average(wide).scores)


def test_loss_of_a_float32_posteriorgram_is_that_of_its_float64_copy(tmp_path, monkeypatch, capsys):
    vocab = default_vocabulary()
    rng = np.random.default_rng(33)
    scores = rng.uniform(size=(40, len(vocab))).astype(np.float32)
    scores[:, ::3] = rng.choice(np.float32([0.0, 0.5, 1.0]), size=scores[:, ::3].shape)
    pred = tmp_path / "m1.sedp"
    formats.write_posteriorgram(pred, Posteriorgram(scores, 0.05, "m1"), list(vocab.classes))
    target = tmp_path / "target.tsv"
    formats.write_soft_events_tsv(target, EventTable.from_events([
        Event("m1", vocab.index("people_talking"), 0.0, 1.0, 0.8),
        Event("m1", vocab.index("dog"), 0.5, 1.75, None),
        Event("m1", vocab.index("car"), 1.0, 2.0, 0.5),
    ]), list(vocab.classes))
    read, loss = formats.read_posteriorgram, training.soft_clip_loss
    values = []
    monkeypatch.setattr(cli.training, "soft_clip_loss", lambda *args: values.append(loss(*args)) or values[-1])

    def runs():
        out = []
        for origin in ("desed", "maestro"):
            for mode in ("independent", "baseline"):
                code = cli.main(["loss", "--pred", str(pred), "--target", str(target), "--origin", origin,
                                 "--mode", mode])
                out.append((code, capsys.readouterr().out, values[-1]))
        return out

    narrow = runs()

    def read_wide(path, clip_id=None):
        post, names = read(path, clip_id)
        return Posteriorgram(post.scores.astype(np.float64), post.frame_period, post.clip_id), names

    monkeypatch.setattr(cli.formats, "read_posteriorgram", read_wide)
    assert narrow == runs()
    assert all(code == 0 for code, _, _ in narrow) and len({value for _, _, value in narrow}) > 1
