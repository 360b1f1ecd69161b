"""Domain-generalization transforms: frequency-wise MixStyle and residual norm.

Frequency bins carry most of the domain signature in audio spectrograms, so
the statistics being mixed here are per-instance, per-frequency mean and
standard deviation taken over the time axis.  MixStyle re-styles instance i
with a convex blend of its own stats and a batch partner's; residual
normalization adds a scaled identity path around plain per-frequency
standardization.  Both are train-time only.

Every transform here keeps a float32 or float64 batch's dtype and takes any
other input as float64.  The per-(instance, bin) means, variances and
gradient sums over time are accumulated in float64 whatever the batch dtype
and cast to it only where they broadcast over time, so a float32 batch
moves half the bytes of a float64 one without summing in float32.

Given a float32 or float64 batch, ``freq_mixstyle_input_grad`` and
``residual_norm`` allocate, besides such [B, F] statistics, their output
and at most one row-sized temporary: each adds its product with the batch
one instance at a time, so no batch-sized temporary is made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import float_array

EPSILON = 1e-5


@dataclass(frozen=True)
class MixStyleConfig:
    alpha: float = 0.3  # Beta(alpha, alpha) shape for the convex weight
    epsilon: float = EPSILON

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")


def _check_batch(batch: np.ndarray) -> np.ndarray:
    batch = float_array(batch)
    if batch.ndim != 3:
        raise ValueError(f"expected [B, F, T] tensor, got shape {batch.shape}")
    if batch.shape[2] < 2:
        raise ValueError(f"need T >= 2 time steps, got {batch.shape[2]}")
    return batch


def _centred(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The batch minus its per-frequency mean over time, as a new array of
    the batch dtype, with that mean [B, F] and the unclamped population std
    [B, F] taken from it, both accumulated in float64."""
    mean = batch.mean(axis=2, dtype=np.float64)
    centred = batch - _over_time(mean, batch)
    var = np.einsum("bft,bft->bf", centred, centred, dtype=np.float64) / batch.shape[2]
    return centred, mean, np.sqrt(var)


def _over_time(stat: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """A [B, F] statistic in the batch dtype, shaped to broadcast over time."""
    return stat.astype(batch.dtype, copy=False)[:, :, None]


def sample_lambda(cfg: MixStyleConfig, rng: np.random.Generator) -> float:
    """Draw the convex mixing weight from Beta(alpha, alpha)."""
    return float(rng.beta(cfg.alpha, cfg.alpha))


def _check_perm(perm: np.ndarray, b: int) -> np.ndarray:
    perm = np.asarray(perm, dtype=np.intp)
    if perm.shape != (b,) or not np.array_equal(np.sort(perm), np.arange(b)):
        raise ValueError(f"perm is not a permutation of range({b})")
    return perm


def freq_mixstyle(
    batch: np.ndarray,
    perm: np.ndarray,
    lam: float,
    cfg: MixStyleConfig = MixStyleConfig(),
) -> np.ndarray:
    """Mix per-frequency statistics of each instance with its partner's.

    Instance i is standardized per frequency bin over time, then re-scaled and
    re-centered with sigma_mix = lam*sigma_i + (1-lam)*sigma_j and
    mu_mix = lam*mu_i + (1-lam)*mu_j where j = perm[i]; the stds are the
    population stds over time, clamped to >= cfg.epsilon.
    """
    batch = _check_batch(batch)
    perm = _check_perm(perm, batch.shape[0])
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    if lam == 1.0:
        # exact identity; re-normalizing would not be bit-exact
        return batch.copy()
    out, mu, sig = _centred(batch)
    sig = np.maximum(sig, cfg.epsilon)
    mu_mix = lam * mu + (1.0 - lam) * mu[perm]
    sig_mix = lam * sig + (1.0 - lam) * sig[perm]
    out *= _over_time(sig_mix, out)
    out /= _over_time(sig, out)
    out += _over_time(mu_mix, out)
    return out


def freq_mixstyle_input_grad(
    batch: np.ndarray,
    perm: np.ndarray,
    lam: float,
    upstream: np.ndarray,
    cfg: MixStyleConfig = MixStyleConfig(),
) -> np.ndarray:
    """Gradient of <upstream, freq_mixstyle(batch)> with respect to batch.

    Partner statistics (mu_j, sigma_j) are treated as stop-gradient constants,
    the standard MixStyle convention.  Where the raw std sits below the clamp
    the std contribution vanishes (the clamp is locally constant).
    ``upstream`` is taken in the batch dtype, which the gradient keeps.
    """
    batch = _check_batch(batch)
    perm = _check_perm(perm, batch.shape[0])
    upstream = np.asarray(upstream, dtype=batch.dtype)
    if upstream.shape != batch.shape:
        raise ValueError(f"upstream shape {upstream.shape} != batch shape {batch.shape}")
    if lam == 1.0:
        return upstream.copy()

    t = batch.shape[2]
    xhat, _, raw_std = _centred(batch)
    sig = np.maximum(raw_std, cfg.epsilon)
    xhat /= _over_time(sig, xhat)
    ratio = (lam * sig + (1.0 - lam) * sig[perm]) / sig  # sigma_mix / sigma

    # d<g, out>/dx = ratio*(g - sum_t g/T) + lam*sum_t g/T
    #               + (lam - ratio) * proj * dsig/dx,  dsig/dx = xhat/T,
    # where proj = sum_t g*xhat; the std term vanishes where the clamp holds
    g_sum = upstream.sum(axis=2, dtype=np.float64)
    proj = np.einsum("bft,bft->bf", upstream, xhat, dtype=np.float64)
    coef = np.where(raw_std >= cfg.epsilon, (lam - ratio) * proj / t, 0.0)
    xhat *= _over_time(coef, xhat)
    row = np.empty(xhat.shape[1:], xhat.dtype)
    for grad, r, g in zip(xhat, _over_time(ratio, xhat), upstream):
        grad += np.multiply(r, g, out=row)
    xhat += _over_time((lam - ratio) * g_sum / t, xhat)
    return xhat


def residual_norm(batch: np.ndarray, lambda_rn: float, epsilon: float = EPSILON) -> np.ndarray:
    """Scaled identity plus per-frequency standardization over time."""
    if lambda_rn < 0:
        raise ValueError(f"lambda_rn must be >= 0, got {lambda_rn}")
    batch = _check_batch(batch)
    out, _, std = _centred(batch)
    out /= _over_time(np.maximum(std, epsilon), out)
    for normed, instance in zip(out, batch):  # no batch-sized temporary
        normed += lambda_rn * instance
    return out
