"""Training-side machinery as pure functions: masked losses, attention
pooling, mean-teacher updates, the SSL warmup ramp, and batch composition.

The central rule is dataset-masked loss computation: a clip only contributes
loss on the classes of its own dataset (independent mode), or additionally on
cross-mapped DESED super-classes for MAESTRO clips (baseline mode).  Masked
losses gather the active columns *before* any arithmetic, so predictions at
masked classes never touch a floating-point operation and the invariance is
bit-exact, not approximate.

There is no optimizer loop here; everything takes arrays in and returns
numbers or arrays out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import ClassOrigin, ClassVocabulary, ClipMetadata, MaskMode, class_mask

PRED_CLAMP = 1e-7
EMA_DECAY = 0.999
WARMUP_EPOCHS = 50
SSL_MAX_WEIGHT = 2.0
BATCH_SIZE = 60

# batch-size fractions per origin pool, in the order batch plans list them
_BATCH_FRACTIONS = (
    ("maestro", 0.2),
    ("synth", 0.1),
    ("synth_strong", 0.1),
    ("weak", 0.2),
    ("unlabeled", 0.4),
)


@dataclass(frozen=True)
class LossBreakdown:
    """Additive loss parts; total = strong + weak + soft + ssl_weight * consistency."""

    strong_bce: float
    weak_bce: float
    soft_bce: float
    consistency_mse: float
    ssl_weight: float
    total: float


def masked_bce(pred: np.ndarray, target: np.ndarray, mask: np.ndarray) -> float:
    """Binary cross-entropy averaged over frames and unmasked classes.

    Masked classes contribute to neither numerator nor denominator; with all
    classes masked the loss is defined as 0.  Predictions are clamped to
    [1e-7, 1 - 1e-7] so the loss stays finite at hard targets.
    """
    pred, target, cols = _gather(pred, target, mask)
    if cols.size == 0:
        return 0.0
    p = np.clip(pred, PRED_CLAMP, 1.0 - PRED_CLAMP)
    return float(np.mean(-(target * np.log(p) + (1.0 - target) * np.log1p(-p))))


def consistency_mse(student: np.ndarray, teacher: np.ndarray, mask: np.ndarray) -> float:
    """Mean squared student/teacher difference over unmasked cells."""
    student, teacher, cols = _gather(student, teacher, mask)
    if cols.size == 0:
        return 0.0
    return float(np.mean((student - teacher) ** 2))


def _gather(a: np.ndarray, b: np.ndarray, mask: np.ndarray):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim != 2 or mask.shape != (a.shape[1],):
        raise ValueError(f"expected [T, C] arrays with a [C] mask, got {a.shape} / {mask.shape}")
    cols = np.flatnonzero(mask)
    return a[:, cols], b[:, cols], cols


def attention_class_softmax(attn_logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over the class axis with masked classes at zero weight.

    Masked logits are taken to negative infinity before the softmax, so each
    frame's attention mass is shared among unmasked classes only.  A frame
    with everything masked yields an all-zero row.
    """
    attn_logits = np.asarray(attn_logits, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if attn_logits.ndim != 2 or mask.shape != (attn_logits.shape[1],):
        raise ValueError("expected [T, C] logits with a [C] mask")
    out = np.zeros_like(attn_logits)
    if not mask.any():
        return out
    logits = attn_logits[:, mask]
    logits = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    out[:, mask] = e / e.sum(axis=1, keepdims=True)
    return out


def attention_pool(
    frame_logits: np.ndarray,
    attn_logits: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """Clip-level probabilities from frame logits via masked attention pooling.

    Per frame, attention weights compete across classes (masked classes get
    zero mass); per class, the weights are then normalized over time and used
    to average the frame-wise sigmoid probabilities.  Weights are floored at
    1e-7 before the time normalization, which also gives masked classes a
    harmless uniform average (their loss is masked anyway).
    """
    frame_logits = np.asarray(frame_logits, dtype=np.float64)
    if frame_logits.shape != np.asarray(attn_logits).shape:
        raise ValueError("frame_logits and attn_logits must share [T, C] shape")
    strong = 1.0 / (1.0 + np.exp(-frame_logits))
    sof = attention_class_softmax(attn_logits, mask)
    sof = np.clip(sof, PRED_CLAMP, 1.0)
    return (strong * sof).sum(axis=0) / sof.sum(axis=0)


def ema_update(student: np.ndarray, teacher: np.ndarray, decay: float = EMA_DECAY) -> np.ndarray:
    """One mean-teacher step: decay * teacher + (1 - decay) * student."""
    student = np.asarray(student, dtype=np.float64)
    teacher = np.asarray(teacher, dtype=np.float64)
    if student.shape != teacher.shape:
        raise ValueError(f"parameter shapes differ: {student.shape} vs {teacher.shape}")
    return decay * teacher + (1.0 - decay) * student


def ssl_weight(epoch: int, warmup: int = WARMUP_EPOCHS, max_weight: float = SSL_MAX_WEIGHT) -> float:
    """Exponential warmup of the consistency weight, flat after `warmup`."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    if warmup <= 0:
        return max_weight
    progress = min(1.0, epoch / warmup)
    return max_weight * math.exp(-5.0 * (1.0 - progress) ** 2)


def total_loss(
    strong_bce: float,
    weak_bce: float,
    soft_bce: float,
    consistency: float,
    epoch: int,
    warmup: int = WARMUP_EPOCHS,
    max_weight: float = SSL_MAX_WEIGHT,
) -> LossBreakdown:
    """Combine loss parts with the epoch's SSL weight."""
    w = ssl_weight(epoch, warmup, max_weight)
    return LossBreakdown(
        strong_bce=strong_bce,
        weak_bce=weak_bce,
        soft_bce=soft_bce,
        consistency_mse=consistency,
        ssl_weight=w,
        total=strong_bce + weak_bce + soft_bce + w * consistency,
    )


def baseline_expand_targets(target: np.ndarray, vocab: ClassVocabulary) -> np.ndarray:
    """Fill DESED super-class targets from their mapped MAESTRO soft labels.

    Used for MAESTRO clips in baseline mode: the super-class target is the
    per-frame max over the targets of its mapped classes.
    """
    target = np.asarray(target, dtype=np.float64)
    out = target.copy()
    for name, mapped in vocab.cross_map.items():
        cols = [vocab.index(m) for m in sorted(mapped)]
        out[:, vocab.index(name)] = target[:, cols].max(axis=1)
    return out


def soft_clip_loss(
    pred: np.ndarray,
    target: np.ndarray,
    meta: ClipMetadata,
    vocab: ClassVocabulary,
    mode: MaskMode,
) -> float:
    """Frame-level BCE for one clip under its dataset mask.

    In independent mode a MAESTRO clip is scored on MAESTRO classes only; in
    baseline mode the cross-mapped DESED super-classes join in with targets
    expanded from the mapped soft labels.
    """
    mask = class_mask(meta, vocab, mode)
    if mode is MaskMode.BASELINE and meta.origin.family is ClassOrigin.MAESTRO:
        target = baseline_expand_targets(target, vocab)
    return masked_bce(pred, target, mask)


def plan_batch(batch_size: int = BATCH_SIZE) -> dict[str, int]:
    """Split a batch across origin pools by the fixed fractions, as
    ``{pool: clip count}`` in the order of _BATCH_FRACTIONS.

    Non-divisible sizes are corrected by largest remainder so counts always
    sum to batch_size.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    ideal = [batch_size * frac for _, frac in _BATCH_FRACTIONS]
    counts = [int(math.floor(v)) for v in ideal]
    remainder = batch_size - sum(counts)
    by_fraction = sorted(range(len(ideal)), key=lambda i: ideal[i] - counts[i], reverse=True)
    for i in by_fraction[:remainder]:
        counts[i] += 1
    return {name: c for (name, _), c in zip(_BATCH_FRACTIONS, counts)}


def compose_batch(
    pools: Mapping[str, Sequence[str]],
    batch_size: int = BATCH_SIZE,
    rng: np.random.Generator | None = None,
) -> tuple[dict[str, int], dict[str, list[str]]]:
    """One batch from fresh shuffles: each pool's ``plan_batch`` count of
    ids, drawn in pool order from shuffled passes through the pool, so a
    pool smaller than its count gives each id once per pass."""
    plan = plan_batch(batch_size)
    missing = [name for name in plan if not pools.get(name)]
    if missing:
        raise ValueError(f"empty pools: {missing}")
    rng = rng if rng is not None else np.random.default_rng()
    ids = {}
    for name, count in plan.items():
        pool = list(pools[name])
        drawn: list[str] = []
        while len(drawn) < count:
            drawn.extend(pool[i] for i in rng.permutation(len(pool)))
        ids[name] = drawn[:count]
    return plan, ids
