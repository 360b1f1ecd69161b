import numpy as np
import pytest

from hetsed.core import EventTable, Origin
from hetsed.evaluation import PsdsConfig, psds, roc_from_confidences
from hetsed.postprocess import frame_threshold_merge
from hetsed.synth import gen_ground_truth, render_posteriors


def test_ground_truth_deterministic():
    a, _ = gen_ground_truth(np.random.default_rng(5), 20, 3, 1.5)
    b, _ = gen_ground_truth(np.random.default_rng(5), 20, 3, 1.5)
    assert a == b


def test_ground_truth_zero_rate_empty():
    events, metas = gen_ground_truth(np.random.default_rng(0), 10, 2, 0.0)
    assert events == []
    assert len(metas) == 10
    assert all(m.origin is Origin.DESED_SYNTH for m in metas)


def test_ground_truth_event_rate_monte_carlo():
    rng = np.random.default_rng(1)
    events, metas = gen_ground_truth(rng, 10_000, 2, 1.8)
    rate = len(events) / len(metas)
    assert abs(rate - 1.8) / 1.8 < 0.05


def test_ground_truth_durations_and_validity():
    events, _ = gen_ground_truth(np.random.default_rng(2), 500, 3, 2.0)
    for ev in events:
        assert 0.0 <= ev.onset < ev.offset <= 10.0
        assert ev.offset - ev.onset <= 5.0 + 1e-9


def test_ground_truth_snapping_aligns_to_grid():
    fp = 0.05
    events, _ = gen_ground_truth(np.random.default_rng(3), 50, 2, 2.0, snap=fp)
    for ev in events:
        assert abs(ev.onset / fp - round(ev.onset / fp)) < 1e-9
        assert abs(ev.offset / fp - round(ev.offset / fp)) < 1e-9
        assert ev.offset > ev.onset


def test_render_noiseless_exact_rectangles():
    events, metas = gen_ground_truth(np.random.default_rng(4), 20, 2, 1.5, snap=0.05)
    posts = render_posteriors(events, metas, 2, 0.05)
    values = np.unique(np.concatenate([p.scores.ravel() for p in posts]))
    assert set(values.tolist()) <= {0.0, 1.0}


def test_render_outputs_clipped():
    events, metas = gen_ground_truth(np.random.default_rng(5), 10, 2, 2.0)
    posts = render_posteriors(events, metas, 2, 0.05, blur=3, noise_sd=0.3, dip_prob=0.5,
                              rng=np.random.default_rng(6))
    for p in posts:
        assert p.scores.min() >= 0.0 and p.scores.max() <= 1.0


def test_render_dips_are_subthreshold_notches():
    # every event of at least 2 s must contain a sub-0.5 dip when dip_prob = 1
    fp = 0.05
    events, metas = gen_ground_truth(np.random.default_rng(7), 40, 1, 1.5, snap=fp)
    posts = render_posteriors(events, metas, 1, fp, blur=0, noise_sd=0.0, dip_prob=1.0,
                              rng=np.random.default_rng(8))
    by_clip = {p.clip_id: p for p in posts}
    checked = 0
    rows = list(events)  # the Events of the table's rows, built once, so "is" tells rows apart
    for ev in rows:
        if ev.offset - ev.onset < 2.0:
            continue
        # skip events that overlap another event of the same class in the clip
        others = [e for e in rows
                  if e.clip_id == ev.clip_id and e is not ev
                  and e.onset < ev.offset and e.offset > ev.onset]
        if others:
            continue
        track = by_clip[ev.clip_id].scores[:, ev.class_idx]
        first, last = int(round(ev.onset / fp)), int(round(ev.offset / fp)) - 1
        interior = track[first : last + 1]
        dipped = np.flatnonzero(interior < 0.5)
        assert dipped.size >= 2, f"no dip inside {ev}"
        assert np.allclose(interior[dipped], 0.3)
        checked += 1
    assert checked >= 5


def test_render_requires_rng_for_corruption():
    events, metas = gen_ground_truth(np.random.default_rng(9), 2, 1, 1.0)
    with pytest.raises(ValueError):
        render_posteriors(events, metas, 1, 0.05, noise_sd=0.1)


def test_zero_corruption_recovers_ground_truth_exactly():
    fp = 0.05
    events, metas = gen_ground_truth(np.random.default_rng(10), 30, 3, 2.0, snap=fp)
    posts = render_posteriors(events, metas, 3, fp)
    recovered = EventTable.from_events(ev for p in posts for ev in frame_threshold_merge([p], [0.5, 0.5, 0.5]))
    assert len(recovered) <= len(events)  # touching events merge into one run
    cfg = PsdsConfig()
    hours = sum(m.duration for m in metas) / 3600.0
    (curve,) = roc_from_confidences(recovered, [np.arange(len(recovered))], events, hours, cfg, 3)
    value = psds(curve, cfg)
    assert value == pytest.approx(1.0, abs=1e-9)
