"""Data augmentations: mixup and time-wise masking ("dropstep").

Mixup pairs clips only within their dataset family (DESED with DESED,
MAESTRO with MAESTRO) because targets from different families live on
disjoint class subsets.  Dropstep zeroes contiguous time spans; it is meant
to be applied with independent seeds to CNN features and to external
embedding features.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import ClipMetadata

MIXUP_ALPHA = 0.5
DROPSTEP_RATIO = 0.25
DROPSTEP_COUNT = 1


def mixup(
    x1: np.ndarray,
    x2: np.ndarray,
    y1: np.ndarray,
    y2: np.ndarray,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Convex combination of two feature maps and their targets."""
    x1, x2 = np.asarray(x1, dtype=np.float64), np.asarray(x2, dtype=np.float64)
    y1, y2 = np.asarray(y1, dtype=np.float64), np.asarray(y2, dtype=np.float64)
    if x1.shape != x2.shape:
        raise ValueError(f"feature shapes differ: {x1.shape} vs {x2.shape}")
    if y1.shape != y2.shape:
        raise ValueError(f"target shapes differ: {y1.shape} vs {y2.shape}")
    if lam == 1.0:
        return x1.copy(), y1.copy()
    return lam * x1 + (1.0 - lam) * x2, lam * y1 + (1.0 - lam) * y2


def mixup_within_dataset(
    batch: np.ndarray,
    metas: Sequence[ClipMetadata],
    rng: np.random.Generator,
    alpha: float = MIXUP_ALPHA,
) -> np.ndarray:
    """Mixup where partners are drawn within each dataset family only.

    One convex weight is drawn per family.  Families with a single member are
    returned unchanged; no output row ever depends on a cross-family input.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.shape[0] != len(metas):
        raise ValueError(f"batch size {batch.shape[0]} != metadata count {len(metas)}")
    out = np.empty(batch.shape)  # C order whatever the input layout, as callers reduce over time
    families: dict[str, list[int]] = {}
    for i, meta in enumerate(metas):
        families.setdefault(meta.origin.family.value, []).append(i)
    for indices in families.values():
        idx = np.array(indices)
        mixed = batch[idx]
        if len(idx) > 1:
            partners = idx[rng.permutation(len(idx))]
            lam = float(rng.beta(alpha, alpha))
            mixed *= lam
            mixed += (1.0 - lam) * batch[partners]
        out[idx] = mixed
    return out


def time_mask(
    features: np.ndarray,
    max_ratio: float,
    n_masks: int = DROPSTEP_COUNT,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Zero out n_masks contiguous time spans of a [F, T] feature map.

    Each span width is drawn uniformly from {0, ..., floor(max_ratio * T)};
    unmasked columns are returned bit-identical.
    """
    if not 0.0 <= max_ratio <= 1.0:
        raise ValueError(f"max_ratio must be in [0, 1], got {max_ratio}")
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"expected [F, T] features, got shape {features.shape}")
    out = features.copy()
    t = features.shape[1]
    max_width = int(max_ratio * t)
    if max_width == 0 or n_masks == 0:
        return out
    if rng is None:
        raise ValueError("rng is required when masking can occur")
    for _ in range(n_masks):
        width = int(rng.integers(0, max_width + 1))
        if width == 0:
            continue
        start = int(rng.integers(0, t - width + 1))
        out[:, start : start + width] = 0.0
    return out
