import math

import numpy as np
import pytest

from hetsed.core import ClipMetadata, MaskMode, Origin, build_vocabulary, class_mask
from hetsed.training import (
    attention_class_softmax,
    attention_pool,
    baseline_expand_targets,
    compose_batch,
    consistency_mse,
    ema_update,
    masked_bce,
    plan_batch,
    soft_clip_loss,
    ssl_weight,
    total_loss,
)

VOCAB = build_vocabulary(
    ["dishes", "dog", "speech"],
    ["cutlery_and_dishes", "children_voices", "people_talking", "wind_blowing"],
    [
        ("speech", "people_talking"),
        ("speech", "children_voices"),
        ("dishes", "cutlery_and_dishes"),
    ],
)
C = len(VOCAB)


def maestro_meta():
    return ClipMetadata("m0", Origin.MAESTRO, 10.0)


def test_masked_bce_single_cell_analytic():
    pred = np.array([[0.5]])
    target = np.array([[1.0]])
    assert masked_bce(pred, target, np.array([True])) == pytest.approx(math.log(2.0), abs=1e-12)


def test_masked_bce_soft_target_entropy_minimum():
    # oracle: binary entropy H(y) is the minimum of BCE over p, reached at p=y
    y = 0.3
    entropy = -(y * math.log(y) + (1 - y) * math.log(1 - y))
    value = masked_bce(np.array([[y]]), np.array([[y]]), np.array([True]))
    assert value == pytest.approx(entropy, abs=1e-12)
    assert value == pytest.approx(0.6109, abs=1e-4)
    for p in (0.1, 0.2, 0.4, 0.9):
        assert masked_bce(np.array([[p]]), np.array([[y]]), np.array([True])) > value


def test_masked_bce_ignores_masked_columns_bitwise():
    rng = np.random.default_rng(0)
    pred = rng.uniform(0.01, 0.99, size=(6, C))
    target = rng.uniform(size=(6, C))
    mask = class_mask(maestro_meta(), VOCAB, MaskMode.INDEPENDENT)
    base = masked_bce(pred, target, mask)
    perturbed = pred.copy()
    perturbed[:, ~mask] = rng.uniform(size=(6, int((~mask).sum())))
    assert masked_bce(perturbed, target, mask) == base  # bit-identical


def test_masked_bce_all_masked_is_zero():
    assert masked_bce(np.full((3, 2), 0.5), np.ones((3, 2)), np.array([False, False])) == 0.0


def test_attention_pool_single_frame():
    frame = np.array([[0.7, -1.2]])
    attn = np.array([[3.0, -2.0]])
    out = attention_pool(frame, attn, np.array([True, True]))
    assert np.allclose(out, 1.0 / (1.0 + np.exp(-frame[0])))


def test_attention_pool_uniform_logits_time_average():
    rng = np.random.default_rng(1)
    frame = rng.normal(size=(7, 3))
    attn = np.full((7, 3), 0.42)
    out = attention_pool(frame, attn, np.ones(3, dtype=bool))
    assert np.allclose(out, (1.0 / (1.0 + np.exp(-frame))).mean(axis=0))


def test_attention_class_softmax_masked_gets_zero_mass():
    rng = np.random.default_rng(2)
    attn = rng.normal(size=(5, 4))
    mask = np.array([True, False, True, True])
    sof = attention_class_softmax(attn, mask)
    assert np.all(sof[:, 1] == 0.0)
    assert np.allclose(sof.sum(axis=1), 1.0)


def test_attention_pool_unmasked_outputs_ignore_masked_logits():
    rng = np.random.default_rng(3)
    frame = rng.normal(size=(6, 4))
    attn = rng.normal(size=(6, 4))
    mask = np.array([True, True, False, True])
    out1 = attention_pool(frame, attn, mask)
    jittered = attn.copy()
    jittered[:, 2] += rng.normal(size=6) * 100
    frame_jittered = frame.copy()
    frame_jittered[:, 2] = -5.0
    out2 = attention_pool(frame_jittered, jittered, mask)
    assert np.array_equal(out1[mask], out2[mask])


def test_attention_pool_outputs_in_unit_interval():
    rng = np.random.default_rng(4)
    for _ in range(20):
        t = int(rng.integers(1, 9))
        frame = rng.normal(scale=5, size=(t, 5))
        attn = rng.normal(scale=5, size=(t, 5))
        mask = rng.uniform(size=5) < 0.7
        out = attention_pool(frame, attn, mask)
        assert np.all((out >= 0.0) & (out <= 1.0))


def test_consistency_mse_basic():
    a = np.full((4, 3), 0.4)
    assert consistency_mse(a, a, np.ones(3, bool)) == 0.0
    b = a + 0.25
    assert consistency_mse(a, b, np.ones(3, bool)) == pytest.approx(0.0625, abs=1e-15)


def test_consistency_mse_excludes_masked_column():
    rng = np.random.default_rng(5)
    student = rng.uniform(size=(5, 3))
    teacher = rng.uniform(size=(5, 3))
    mask = np.array([True, True, False])
    base = consistency_mse(student, teacher, mask)
    student2 = student.copy()
    student2[:, 2] = 0.99
    assert consistency_mse(student2, teacher, mask) == base


def test_ema_update_fixed_point_and_step():
    t = np.array([0.3, -1.0])
    assert np.array_equal(ema_update(t, t), t)
    out = ema_update(np.array([1.0]), np.array([0.0]), decay=0.999)
    assert out[0] == pytest.approx(0.001, abs=1e-15)


def test_ema_update_geometric_closed_form():
    rng = np.random.default_rng(6)
    student = rng.normal(size=10)
    teacher = rng.normal(size=10)
    decay = 0.999
    current = teacher.copy()
    n = 1000
    for _ in range(n):
        current = ema_update(student, current, decay)
    expected = student + (teacher - student) * decay**n
    assert np.max(np.abs(current - expected)) < 1e-9


def test_ema_contraction_toward_student():
    rng = np.random.default_rng(7)
    student, teacher = rng.normal(size=5), rng.normal(size=5)
    for decay in (0.1, 0.9, 0.999):
        updated = ema_update(student, teacher, decay)
        assert np.all(np.abs(updated - student) <= np.abs(teacher - student) + 1e-15)


def test_ssl_weight_ramp():
    assert ssl_weight(0) == pytest.approx(2 * math.exp(-5), abs=1e-12)
    assert ssl_weight(50) == 2.0
    assert ssl_weight(170) == 2.0
    values = [ssl_weight(e) for e in range(0, 80)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_total_loss_breakdown_invariant():
    rng = np.random.default_rng(8)
    for _ in range(20):
        parts = rng.uniform(0, 3, size=4)
        epoch = int(rng.integers(0, 100))
        breakdown = total_loss(*parts, epoch)
        expected = parts[0] + parts[1] + parts[2] + breakdown.ssl_weight * parts[3]
        assert breakdown.total == pytest.approx(expected, abs=1e-12)
    zero = total_loss(0.0, 0.0, 0.0, 0.0, 10)
    assert zero.total == 0.0
    late = total_loss(0.0, 0.0, 0.0, 1.0, 60)
    assert late.total == pytest.approx(2.0, abs=1e-12)


def test_plan_batch_paper_composition():
    assert list(plan_batch(60).items()) == [
        ("maestro", 12), ("synth", 6), ("synth_strong", 6), ("weak", 12), ("unlabeled", 24)]
    assert list(plan_batch(10).items()) == [
        ("maestro", 2), ("synth", 1), ("synth_strong", 1), ("weak", 2), ("unlabeled", 4)]


def test_plan_batch_counts_always_sum():
    for size in range(1, 121):
        assert sum(plan_batch(size).values()) == size


def test_compose_batch_draws_requested_counts():
    pools = {
        "maestro": [f"m{i}" for i in range(30)],
        "synth": [f"s{i}" for i in range(20)],
        "synth_strong": [f"ss{i}" for i in range(20)],
        "weak": [f"w{i}" for i in range(30)],
        "unlabeled": [f"u{i}" for i in range(60)],
    }
    plan, ids = compose_batch(pools, 60, np.random.default_rng(0))
    assert plan == plan_batch(60)
    for name, count in plan.items():
        assert len(ids[name]) == count
        assert len(set(ids[name])) == count


def test_compose_batch_gives_each_id_once_per_pass_through_a_small_pool():
    pools = {
        "maestro": ["a", "b", "c"],
        "synth": ["s0", "s1"],
        "synth_strong": ["t0", "t1"],
        "weak": ["w0", "w1", "w2"],
        "unlabeled": [f"u{i}" for i in range(6)],
    }
    # 60 clips: 12 maestro (four passes), 6 synth (three passes), ...
    plan, ids = compose_batch(pools, 60, np.random.default_rng(2))
    assert plan == plan_batch(60)
    for name, pool in pools.items():
        drawn = ids[name]
        assert len(drawn) == plan[name]
        for lo in range(0, len(drawn), len(pool)):
            chunk = drawn[lo : lo + len(pool)]
            assert len(set(chunk)) == len(chunk) and set(chunk) <= set(pool), f"{name}: {drawn}"


def test_compose_batch_rejects_empty_pool():
    with pytest.raises(ValueError, match="empty pools"):
        compose_batch({"maestro": [], "synth": ["x"], "synth_strong": ["y"],
                       "weak": ["z"], "unlabeled": ["u"]}, 10)


def test_baseline_expand_targets_takes_max_of_mapped():
    target = np.zeros((2, C))
    target[:, VOCAB.index("people_talking")] = [0.2, 0.9]
    target[:, VOCAB.index("children_voices")] = [0.5, 0.1]
    out = baseline_expand_targets(target, VOCAB)
    assert np.allclose(out[:, VOCAB.index("speech")], [0.5, 0.9])
    assert np.allclose(out[:, VOCAB.index("dog")], 0.0)


def test_soft_clip_loss_independent_ignores_desed_predictions():
    rng = np.random.default_rng(9)
    pred = rng.uniform(0.05, 0.95, size=(8, C))
    target = rng.uniform(size=(8, C))
    base = soft_clip_loss(pred, target, maestro_meta(), VOCAB, MaskMode.INDEPENDENT)
    messed = pred.copy()
    desed_cols = [VOCAB.index(n) for n in ("dishes", "dog", "speech")]
    messed[:, desed_cols] = rng.uniform(size=(8, 3))
    assert soft_clip_loss(messed, target, maestro_meta(), VOCAB, MaskMode.INDEPENDENT) == base


def test_soft_clip_loss_baseline_sees_speech():
    rng = np.random.default_rng(10)
    pred = rng.uniform(0.05, 0.95, size=(8, C))
    target = rng.uniform(size=(8, C))
    base = soft_clip_loss(pred, target, maestro_meta(), VOCAB, MaskMode.BASELINE)
    messed = pred.copy()
    messed[:, VOCAB.index("speech")] = np.clip(pred[:, VOCAB.index("speech")] + 0.02, 0, 1)
    assert soft_clip_loss(messed, target, maestro_meta(), VOCAB, MaskMode.BASELINE) != base

