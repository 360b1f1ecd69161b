"""Data augmentations: mixup and time-wise masking ("dropstep").

Mixup pairs clips only within their dataset family (DESED with DESED,
MAESTRO with MAESTRO) because targets from different families live on
disjoint class subsets.  Dropstep zeroes contiguous time spans; it is meant
to be applied with independent seeds to CNN features and to external
embedding features.

``mixup_within_dataset`` allocates its output and two row-sized buffers,
so no batch-sized temporary is made, and every bit is that of
``x*lam + (1-lam)*x_partner`` in the batch dtype.  It copies the batch into
its C-ordered output first, in tiles of 64 frames when the batch's time axis
is strided (as in clips read as [T, M] and stacked transposed), and then
mixes each family in place, one permutation cycle at a time: every layout
takes this one path, and only the copy reads the input's strides.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import ClipMetadata, float_array

MIXUP_ALPHA = 0.5
DROPSTEP_RATIO = 0.25
DROPSTEP_COUNT = 1
_COPY_TILE_FRAMES = 64


def mixup_within_dataset(
    batch: np.ndarray,
    metas: Sequence[ClipMetadata],
    rng: np.random.Generator,
    alpha: float = MIXUP_ALPHA,
) -> np.ndarray:
    """Mixup where partners are drawn within each dataset family only.

    One convex weight is drawn per family.  Families with a single member are
    returned unchanged; no output row ever depends on a cross-family input.
    A float32 or float64 batch keeps its dtype; any other becomes float64.
    ``alpha``, the Beta distribution's parameter, must be finite and > 0.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    batch = float_array(batch)
    if batch.shape[0] != len(metas):
        raise ValueError(f"batch size {batch.shape[0]} != metadata count {len(metas)}")
    out = np.empty(batch.shape, batch.dtype)  # C order whatever the input layout, as callers reduce over time
    t = batch.shape[-1]
    # a strided time axis (say [T, M] clips stacked as [M, T]) is copied in
    # tiles whose source and destination both stay in L1; a contiguous one,
    # which tiles would only slow, is copied whole
    tile = max(t, 1) if batch.strides[-1] == batch.itemsize else _COPY_TILE_FRAMES
    for start in range(0, t, tile):
        out[..., start : start + tile] = batch[..., start : start + tile]
    first = np.empty(batch.shape[1:], batch.dtype)  # the cycle's first row times 1 - lam
    row = np.empty(batch.shape[1:], batch.dtype)  # the partner's row times 1 - lam
    families: dict[str, list[int]] = {}
    for i, meta in enumerate(metas):
        families.setdefault(meta.origin.family.value, []).append(i)
    for indices in families.values():
        if len(indices) == 1:
            continue
        partners = np.array(indices)[rng.permutation(len(indices))]
        lam = float(rng.beta(alpha, alpha))
        partner = dict(zip(indices, partners.tolist()))
        # in place along each permutation cycle: row i still holds its input
        # when the row before it in the cycle takes it as a partner
        for start in indices:
            if start not in partner:
                continue  # mixed as part of an earlier cycle
            np.multiply(out[start], 1.0 - lam, out=first)
            i, p = start, partner.pop(start)
            while p != start:
                out[i] *= lam
                out[i] += np.multiply(out[p], 1.0 - lam, out=row)
                i, p = p, partner.pop(p)
            out[i] *= lam
            out[i] += first
    return out


def time_mask(
    features: np.ndarray,
    max_ratio: float,
    n_masks: int = DROPSTEP_COUNT,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Zero out n_masks contiguous time spans of a [F, T] feature map.

    Each span width is drawn uniformly from {0, ..., floor(max_ratio * T)};
    unmasked columns are returned bit-identical.  A float32 or float64 map
    keeps its dtype; any other becomes float64.
    """
    if not 0.0 <= max_ratio <= 1.0:
        raise ValueError(f"max_ratio must be in [0, 1], got {max_ratio}")
    features = float_array(features)
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
